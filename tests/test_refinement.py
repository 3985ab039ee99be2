"""Neighborhood search determinism and the three vote schemes.

Label outputs must match the brute-force oracles bit-exactly, including
under crafted distance ties and duplicated points.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    confidence_avg_brute,
    distance_weighted_brute,
    knn_brute,
    majority_brute,
)
from seglift.core import PointCloud
from seglift.errors import BadK, DimMismatch, EmptyInput
from seglift.refinement import (
    _AVG_BLOCK,
    _votes,
    build_tree,
    graph_distances,
    refine_confidence_avg,
    refine_distance_weighted,
    refine_majority,
)


def cloud_from(xyz):
    xyz = np.asarray(xyz, dtype=np.float64)
    return PointCloud(xyz, np.full(xyz.shape[0], 0.5))


def random_cloud(n, seed, span=10.0):
    rng = np.random.default_rng(seed)
    return cloud_from(rng.uniform(-span, span, (n, 3)))


def random_probs(n, c, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(c), size=n)


def graph(cloud, k, include_self=True):
    """The exact (idx, dist) K-neighbor graph of every point of `cloud`."""
    return build_tree(cloud.xyz).neighbors(k, include_self)


class TestKdTreeQueries:
    def test_single_point_self_query(self):
        tree = build_tree(np.array([[1.0, 2.0, 3.0]]))
        idx, dist = tree.neighbors(1)
        assert idx.tolist() == [[0]]
        assert dist.tolist() == [[0.0]]

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyInput):
            build_tree(random_cloud(5, 0).xyz[np.zeros(5, dtype=bool)])

    @pytest.mark.parametrize("shape", [(5,), (5, 2), (5, 4), (1, 5, 3)])
    def test_points_not_m_by_3_rejected(self, shape):
        with pytest.raises(DimMismatch):
            build_tree(np.zeros(shape))

    def test_matches_exhaustive_search_on_random_points(self):
        for seed in (0, 1, 2):
            cloud = random_cloud(500, seed)
            tree = build_tree(cloud.xyz)
            for k in (3, 19):
                idx, dist = tree.neighbors(k)
                bidx, bdist = knn_brute(cloud.xyz, k)
                np.testing.assert_array_equal(idx, bidx)
                np.testing.assert_array_equal(dist, bdist)

    def test_equidistant_pair_resolves_to_lower_index(self):
        # Points 1 and 2 are both at distance 1 from point 0.
        tree = build_tree(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float))
        idx, _ = tree.neighbors(2)
        assert idx[0].tolist() == [0, 1]

    def test_grid_with_many_exact_ties_matches_oracle(self):
        # Integer grid: equal distances are exact in floating point.
        g = np.stack(np.meshgrid(np.arange(4), np.arange(4), np.arange(2),
                                 indexing="ij"), axis=-1).reshape(-1, 3).astype(float)
        cloud = cloud_from(g)
        tree = build_tree(cloud.xyz)
        for k in (1, 3, 5, 9):
            idx, dist = tree.neighbors(k)
            bidx, bdist = knn_brute(cloud.xyz, k)
            np.testing.assert_array_equal(idx, bidx)
            np.testing.assert_array_equal(dist, bdist)

    def test_duplicate_points_keep_self_first(self):
        xyz = np.array([[0.0, 0.0, 0.0]] * 4 + [[5.0, 0.0, 0.0]])
        tree = build_tree(xyz)
        idx, dist = tree.neighbors(3)
        for q in range(4):
            assert idx[q, 0] == q
            assert dist[q, 0] == 0.0
            others = [j for j in range(4) if j != q][:2]
            assert idx[q, 1:].tolist() == others
        bidx, _ = knn_brute(xyz, 3)
        np.testing.assert_array_equal(idx, bidx)

    def test_exclude_self_matches_oracle(self):
        for seed in (5, 6):
            cloud = random_cloud(120, seed)
            tree = build_tree(cloud.xyz)
            idx, dist = tree.neighbors(7, include_self=False)
            bidx, bdist = knn_brute(cloud.xyz, 7, include_self=False)
            np.testing.assert_array_equal(idx, bidx)
            np.testing.assert_array_equal(dist, bdist)
            assert not (idx == np.arange(120)[:, None]).any()

    def test_exclude_self_with_duplicates(self):
        xyz = np.array([[0.0, 0.0, 0.0]] * 5)
        tree = build_tree(xyz)
        idx, _ = tree.neighbors(3, include_self=False)
        bidx, _ = knn_brute(xyz, 3, include_self=False)
        np.testing.assert_array_equal(idx, bidx)

    def test_k_larger_than_points_rejected(self):
        tree = build_tree(random_cloud(4, 7).xyz)
        with pytest.raises(BadK):
            tree.neighbors(5)
        with pytest.raises(BadK):
            tree.neighbors(4, include_self=False)

    def test_masked_tree_indexes_subset_only(self):
        cloud = random_cloud(50, 8)
        mask = np.zeros(50, dtype=bool)
        mask[::2] = True
        tree = build_tree(cloud.xyz[mask])
        assert len(tree) == 25
        np.testing.assert_array_equal(tree.points, cloud.xyz[::2])
        idx, _ = tree.neighbors(3)
        bidx, _ = knn_brute(cloud.xyz[mask], 3)
        np.testing.assert_array_equal(idx, bidx)


class TestRefineMajority:
    def test_k1_is_per_point_argmax(self):
        probs = random_probs(100, 5, 1)
        idx, _ = graph(random_cloud(100, 1), 1)
        np.testing.assert_array_equal(refine_majority(probs, idx), probs.argmax(axis=1))

    def test_strict_majority_wins(self):
        # Three clustered points: two vote class 1, one votes class 2.
        cloud = cloud_from([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
        probs = np.array([[0.0, 0.9, 0.1], [0.0, 0.8, 0.2], [0.0, 0.2, 0.8]])
        labels = refine_majority(probs, graph(cloud, 3)[0])
        assert labels.tolist() == [1, 1, 1]

    def test_three_way_tie_takes_lowest_class(self):
        cloud = cloud_from([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
        probs = np.array([[0.0, 0.0, 0.9, 0.1], [0.0, 0.9, 0.0, 0.1], [0.0, 0.0, 0.1, 0.9]])
        labels = refine_majority(probs, graph(cloud, 3)[0])
        assert labels.tolist() == [1, 1, 1]

    def test_keep_tie_break_retains_own_label(self):
        cloud = cloud_from([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
        probs = np.array([[0.0, 0.0, 0.9, 0.1], [0.0, 0.9, 0.0, 0.1], [0.0, 0.0, 0.1, 0.9]])
        labels = refine_majority(probs, graph(cloud, 3)[0], tie_break="keep")
        assert labels.tolist() == [2, 1, 3]

    def test_even_k_rejected(self):
        idx, _ = graph(random_cloud(10, 2), 2)
        with pytest.raises(BadK):
            refine_majority(random_probs(10, 3, 2), idx)

    def test_wrong_row_count_rejected(self):
        idx, _ = graph(random_cloud(10, 3), 1)
        with pytest.raises(DimMismatch):
            refine_majority(random_probs(9, 3, 3), idx)


class TestRefineDistanceWeighted:
    def test_known_weights_flip_the_label(self):
        # Distances (0, 1, 1): weights (0.8446, 0.5777, 0.5777); the two
        # farther "car" votes outweigh the closer "building" vote.
        cloud = cloud_from([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        building, car = 1, 2
        probs = np.zeros((3, 3))
        probs[0, building] = 1.0
        probs[1, car] = 1.0
        probs[2, car] = 1.0
        d = np.array([0.0, 1.0, 1.0])
        e = np.exp(d - d.max())
        w = 1.0 - e / e.sum()
        np.testing.assert_allclose(w, [0.8446, 0.5777, 0.5777], atol=5e-5)
        labels = refine_distance_weighted(probs, *graph(cloud, 3))
        assert labels[0] == car

    def test_equal_distances_reduce_to_majority(self):
        # Four coincident points: softmax is uniform, so weights are equal.
        cloud = cloud_from([[0, 0, 0]] * 4 + [[9, 9, 9]])
        probs = np.array([[0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1]], dtype=float)
        idx, dist = graph(cloud, 3)
        labels_dw = refine_distance_weighted(probs, idx, dist)
        labels_mj = refine_majority(probs, idx)
        np.testing.assert_array_equal(labels_dw, labels_mj)

    def test_k1_is_self_label(self):
        probs = random_probs(50, 4, 4)
        labels = refine_distance_weighted(probs, *graph(random_cloud(50, 4), 1))
        np.testing.assert_array_equal(labels, probs.argmax(axis=1))


class TestRefineConfidenceAvg:
    def test_identical_rows_are_preserved(self):
        row = np.array([0.25, 0.5, 0.25])
        probs = np.tile(row, (10, 1))
        idx, _ = graph(random_cloud(10, 5, span=0.5), 5)
        _, refined = refine_confidence_avg(probs, idx)
        np.testing.assert_allclose(refined, probs)

    def test_hand_averaged_rows(self):
        cloud = cloud_from([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.1, 0.9]])
        labels, refined = refine_confidence_avg(probs, graph(cloud, 3)[0])
        np.testing.assert_allclose(refined[0], [0.4, 0.6])
        assert labels[0] == 1

    def test_k1_returns_input_probs(self):
        probs = random_probs(30, 5, 6)
        labels, refined = refine_confidence_avg(probs, graph(random_cloud(30, 6), 1)[0])
        np.testing.assert_array_equal(refined, probs)
        np.testing.assert_array_equal(labels, probs.argmax(axis=1))

    def test_rows_stay_normalized(self):
        probs = random_probs(200, 6, 7)
        _, refined = refine_confidence_avg(probs, graph(random_cloud(200, 7), 9)[0])
        np.testing.assert_allclose(refined.sum(axis=1), 1.0, atol=1e-5)
        assert refined.min() >= 0.0 and refined.max() <= 1.0

    @pytest.mark.parametrize("graph_dtype", [np.uint32, np.int64])
    @pytest.mark.parametrize("row_dtype", [np.float32, np.float64])
    def test_blocked_average_bit_equal_to_oracle(self, row_dtype, graph_dtype):
        """Several full blocks and a partial one; -0.0 entries sum from +0.0, as the oracle's do."""
        m = 2 * _AVG_BLOCK + 37
        rng = np.random.default_rng(21)
        probs = random_probs(m, 6, 21).astype(row_dtype)
        probs[rng.random((m, 6)) < 0.05] = -0.0
        probs[:, 5] = -0.0
        idx = rng.integers(0, m, (m, 19)).astype(graph_dtype)
        idx[:, 0] = np.arange(m)
        labels, refined = refine_confidence_avg(probs, idx)
        blabels, brefined = confidence_avg_brute(probs, idx)
        np.testing.assert_array_equal(labels, blabels)
        assert refined.dtype == np.float64
        assert refined.tobytes() == brefined.tobytes()


class TestOracleEquivalence:
    """Schemes over the tree's graph must equal exhaustive search + direct votes, bitwise."""

    @pytest.mark.parametrize("seed", [10, 11, 12])
    @pytest.mark.parametrize("k", [1, 3, 19])
    def test_all_schemes_match_brute_force(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 200))
        cloud = random_cloud(n, seed)
        probs = random_probs(n, 5, seed + 100)
        idx, dist = graph(cloud, k)
        bidx, bdist = knn_brute(cloud.xyz, k)

        np.testing.assert_array_equal(refine_majority(probs, idx), majority_brute(probs, bidx))
        np.testing.assert_array_equal(refine_distance_weighted(probs, idx, dist),
                                      distance_weighted_brute(probs, bidx, bdist))
        labels, refined = refine_confidence_avg(probs, idx)
        blabels, brefined = confidence_avg_brute(probs, bidx)
        np.testing.assert_array_equal(labels, blabels)
        np.testing.assert_array_equal(refined, brefined)

    def test_masked_tree_graph_matches_oracle(self):
        """A masked tree's graph refines the masked rows alone, in mask order."""
        cloud = random_cloud(60, 13)
        probs = random_probs(60, 4, 13)
        mask = np.zeros(60, dtype=bool)
        mask[10:40] = True
        idx, _ = build_tree(cloud.xyz[mask]).neighbors(3, True)
        bidx, _ = knn_brute(cloud.xyz[mask], 3)
        np.testing.assert_array_equal(refine_majority(probs[mask], idx),
                                      majority_brute(probs[mask], bidx))


def test_permutation_equivariance():
    # Reversing point order permutes all outputs identically (no exact
    # distance ties in random data, so index tie-breaks never fire).
    cloud = random_cloud(150, 14)
    probs = random_probs(150, 5, 14)
    perm = np.arange(150)[::-1]
    inv = np.argsort(perm)
    cloud_p = PointCloud(cloud.xyz[perm], cloud.intensity[perm])
    for k in (1, 5):
        base = refine_majority(probs, graph(cloud, k)[0])
        permuted = refine_majority(probs[perm], graph(cloud_p, k)[0])
        np.testing.assert_array_equal(permuted[inv], base)


def test_neighbor_stress_battery_matches_oracle():
    """Adversarial tie layouts: duplicates, grids, collinear points, rings."""
    rng = np.random.default_rng(123)
    layouts = [
        np.zeros((6, 3)),
        np.array([[0, 0, 0]] * 3 + [[1, 0, 0]] * 3 + [[2, 0, 0]] * 2, float),
        np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), -1).reshape(-1, 3).astype(float),
        np.array([[i, 0, 0] for i in range(8)], float),
        np.array([[0.0, 0.0, 0.0]]
                 + [[np.cos(a), np.sin(a), 0.0]
                    for a in np.linspace(0, 2 * np.pi, 13)[:-1]]),
    ]
    for _ in range(8):
        layouts.append(rng.integers(0, 3, (int(rng.integers(4, 30)), 3)).astype(float))
    for xyz in layouts:
        n = len(xyz)
        tree = build_tree(xyz)
        for include_self in (True, False):
            lim = n if include_self else n - 1
            for k in sorted({1, 3, lim}):
                if not 1 <= k <= lim:
                    continue
                idx, dist = tree.neighbors(k, include_self)
                bidx, bdist = knn_brute(xyz, k, include_self)
                np.testing.assert_array_equal(idx, bidx)
                np.testing.assert_array_equal(dist, bdist)


def test_votes_add_each_bin_in_neighbor_order():
    """Counts and weighted sums equal a per-point loop over the neighbors, bit for bit;
    weights of mixed magnitude make the float sums depend on their order."""
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, (50, 7))
    weights = rng.choice([1e16, -1e16, 1.0, 0.1], (50, 7)) * rng.uniform(0.5, 1.5, (50, 7))
    sums = np.zeros((50, 4))
    counts = np.zeros((50, 4), dtype=np.int64)
    for row in range(50):
        for j in range(7):
            sums[row, labels[row, j]] += weights[row, j]
            counts[row, labels[row, j]] += 1
    np.testing.assert_array_equal(_votes(labels, 4, weights), sums)
    np.testing.assert_array_equal(_votes(labels, 4), counts)


@st.composite
def grid_queries(draw):
    """Up to 200 points on a small integer grid (ties and duplicates are
    common), an include_self flag and any k in range."""
    include_self = draw(st.booleans())
    skip = 0 if include_self else 1
    n = draw(st.integers(1 + skip, 200))
    side = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    xyz = np.random.default_rng(seed).integers(0, side, (n, 3)).astype(np.float64)
    k = draw(st.integers(1, n - skip))
    return xyz, k, include_self


@st.composite
def continuous_queries(draw):
    """Up to 200 uniform float points (ties are rare, so most probes are
    already in order and skip the re-sort), an include_self flag and any k."""
    include_self = draw(st.booleans())
    skip = 0 if include_self else 1
    n = draw(st.integers(1 + skip, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    xyz = np.random.default_rng(seed).uniform(-scale, scale, (n, 3))
    k = draw(st.integers(1, n - skip))
    return xyz, k, include_self


@settings(max_examples=60, deadline=None)
@given(st.one_of(grid_queries(), continuous_queries()))
def test_neighbors_bit_equal_to_oracle_on_integer_grids(query):
    """Integer grids (mostly re-sorted tie rows) and continuous clouds
    (mostly rows that skip the re-sort) against the exhaustive oracle."""
    xyz, k, include_self = query
    idx, dist = build_tree(xyz).neighbors(k, include_self)
    bidx, bdist = knn_brute(xyz, k, include_self)
    np.testing.assert_array_equal(idx, bidx)
    np.testing.assert_array_equal(dist, bdist)


@settings(max_examples=60, deadline=None)
@given(grid_queries(), st.floats(1e-3, 10.0),
       arrays(np.float64, 3, elements=st.floats(-100.0, 100.0)))
def test_stored_graph_distances_bit_equal_to_search(query, spacing, offset):
    """Distances rebuilt from a graph as stored (uint32) equal the search's,
    on shifted grids whose coordinates round; ties and duplicates are common."""
    xyz, k, include_self = query
    tree = build_tree(xyz * spacing + offset)
    idx, dist = tree.neighbors(k, include_self)
    np.testing.assert_array_equal(graph_distances(tree.points, idx.astype(np.uint32)), dist)


@pytest.mark.parametrize("include_self", [True, False])
def test_every_scheme_refines_a_stored_graph_like_its_tree(include_self):
    """A graph as stored (uint32, distances rebuilt) refines like the search's (int64) graph."""
    xyz = np.round(np.random.default_rng(31).uniform(0, 4, (300, 3)))  # many ties
    mask = np.random.default_rng(32).random(300) < 0.7
    rows = random_probs(300, 5, 33)[mask]
    tree = build_tree(xyz[mask])
    idx, dist = tree.neighbors(7, include_self)
    stored = idx.astype(np.uint32)
    stored_dist = graph_distances(tree.points, stored)
    for tie_break in ("lowest", "keep"):
        np.testing.assert_array_equal(refine_majority(rows, stored, tie_break),
                                      refine_majority(rows, idx, tie_break))
    np.testing.assert_array_equal(refine_distance_weighted(rows, stored, stored_dist),
                                  refine_distance_weighted(rows, idx, dist))
    for a, b in zip(refine_confidence_avg(rows, stored), refine_confidence_avg(rows, idx)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("include_self", [True, False])
def test_coincident_cluster_widens_probe_below_full_set(include_self):
    """40 coincident points among 200: their rows tie far past k=3, so the
    probe must widen over several rounds while staying below all 200 points."""
    xyz = np.random.default_rng(17).uniform(-10, 10, (200, 3))
    xyz[60:100] = xyz[60]
    tree = build_tree(xyz)
    probes = []
    query = tree._kd.query
    tree._kd = SimpleNamespace(query=lambda x, k: probes.append(k) or query(x, k=k))
    idx, dist = tree.neighbors(3, include_self)
    bidx, bdist = knn_brute(xyz, 3, include_self)
    np.testing.assert_array_equal(idx, bidx)
    np.testing.assert_array_equal(dist, bdist)
    assert len(probes) >= 3 and max(probes) < len(xyz)


def test_coincident_group_search_memory_is_bounded():
    """2000 coincident points among 20k: the widening passes for their rows
    must gather candidates in bounded chunks, not one c x 2c block."""
    xyz = np.random.default_rng(23).uniform(-50, 50, (20000, 3))
    xyz[:2000] = 0.0
    tree = build_tree(xyz)
    tracemalloc.start()
    try:
        idx, dist = tree.neighbors(19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    for row in (0, 1000, 1999):
        np.testing.assert_array_equal(idx[row], [row] + [j for j in range(19) if j != row][:18])
        assert not dist[row].any()


@st.composite
def duplicated_clouds(draw):
    """Integer-grid points (duplicates common), quarter-step probabilities
    (tied argmax rows common), and a mask selecting at least one point."""
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xyz = rng.integers(0, 3, (n, 3)).astype(np.float64)
    probs = rng.integers(0, 4, (n, 4)) / 4
    mask = rng.random(n) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    mask[rng.integers(n)] = True
    return xyz, probs, mask


@settings(max_examples=60, deadline=None)
@given(duplicated_clouds())
def test_k1_with_self_is_identity_for_every_scheme(case):
    xyz, probs, mask = case
    rows = probs[mask]
    idx, dist = build_tree(xyz[mask]).neighbors(1, True)
    own = rows.argmax(axis=1)
    for tie_break in ("lowest", "keep"):
        np.testing.assert_array_equal(refine_majority(rows, idx, tie_break), own)
    np.testing.assert_array_equal(refine_distance_weighted(rows, idx, dist), own)
    labels, refined = refine_confidence_avg(rows, idx)
    np.testing.assert_array_equal(labels, own)
    np.testing.assert_array_equal(refined, rows)



@settings(max_examples=60, deadline=None)
@given(duplicated_clouds(), st.sampled_from([3, 5, 7]), st.booleans())
def test_schemes_on_duplicated_clouds_equal_oracles(case, k, include_self):
    """Searched graphs full of distance ties, most without the point itself,
    refine like the oracles over the exhaustive graph; vote ties are common."""
    xyz, probs, mask = case
    rows = probs[mask]
    k = min(k, len(rows) - (not include_self))
    assume(k >= 1)
    k -= 1 - k % 2
    idx, dist = build_tree(xyz[mask]).neighbors(k, include_self)
    bidx, bdist = knn_brute(xyz[mask], k, include_self)
    for tie_break in ("lowest", "keep"):
        np.testing.assert_array_equal(refine_majority(rows, idx, tie_break),
                                      majority_brute(rows, bidx, tie_break))
    np.testing.assert_array_equal(refine_distance_weighted(rows, idx, dist),
                                  distance_weighted_brute(rows, bidx, bdist))
    labels, refined = refine_confidence_avg(rows, idx)
    blabels, brefined = confidence_avg_brute(rows, bidx)
    np.testing.assert_array_equal(labels, blabels)
    np.testing.assert_array_equal(refined, brefined)

@st.composite
def arbitrary_graphs(draw):
    """(M, C) rows, an odd-k (M, k) graph of any positions in [0, M), repeats
    and self-omission allowed, as uint32 or int64, and non-negative distances.
    Quarter-step rows and distances from {0, 1, 2} make argmax, vote and
    weight ties common."""
    m = draw(st.integers(1, 40))
    c = draw(st.integers(1, 6))
    k = draw(st.sampled_from([1, 3, 5, 7, 9, 19]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((m, c))
    if draw(st.booleans()):
        rows = np.round(rows * 4) / 4
    idx = rng.integers(0, m, (m, k)).astype(draw(st.sampled_from([np.uint32, np.int64])))
    if draw(st.booleans()):
        dist = rng.choice([0.0, 1.0, 2.0], (m, k))
    else:
        dist = rng.uniform(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), (m, k))
    return rows, idx, dist


@settings(max_examples=150, deadline=None)
@given(arbitrary_graphs())
def test_schemes_equal_oracles_on_arbitrary_graphs(case):
    """Graphs no search produces: each scheme's M results equal its oracle's, bit for bit."""
    rows, idx, dist = case
    for tie_break in ("lowest", "keep"):
        np.testing.assert_array_equal(refine_majority(rows, idx, tie_break),
                                      majority_brute(rows, idx, tie_break))
    np.testing.assert_array_equal(refine_distance_weighted(rows, idx, dist),
                                  distance_weighted_brute(rows, idx, dist))
    labels, refined = refine_confidence_avg(rows, idx)
    blabels, brefined = confidence_avg_brute(rows, idx)
    np.testing.assert_array_equal(labels, blabels)
    np.testing.assert_array_equal(refined, brefined)
