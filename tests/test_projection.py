"""Camera-model lifting: projection, FOV masks, slicing, pixel sampling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import in_frustum_scalar, project_scalar
from seglift.core import CalibrationRig, PointCloud
from seglift.errors import DimMismatch, SizeMismatch
from seglift.projection import (
    FovMask,
    fov_mask,
    lift_probs,
    merge_lifted,
    project_points,
    scatter,
    slice_cloud,
)


def simple_rig(f=100.0, cx=0.0, cy=0.0, width=640, height=480, t=None):
    p = np.array([[f, 0.0, cx, 0.0], [0.0, f, cy, 0.0], [0.0, 0.0, 1.0, 0.0]])
    return CalibrationRig(P=p, T=np.eye(4) if t is None else t, width=width, height=height)


def cloud_of(xyz):
    xyz = np.asarray(xyz, dtype=np.float64)
    return PointCloud(xyz, np.full(xyz.shape[0], 0.5))


class TestProjectPoints:
    def test_optical_axis_hits_principal_point(self):
        rig = simple_rig(f=100.0, cx=320.0, cy=240.0)
        u, v, depth = project_points(cloud_of([[0.0, 0.0, 5.0]]), rig)
        np.testing.assert_allclose([u[0], v[0], depth[0]], [320.0, 240.0, 5.0])

    def test_behind_camera_flagged_invalid(self):
        rig = simple_rig()
        u, v, depth = project_points(cloud_of([[0.0, 0.0, -1.0]]), rig)
        assert depth[0] == -1.0
        assert np.isnan(u[0]) and np.isnan(v[0])

    def test_off_axis_point(self):
        # f=100, no principal offset: (1, 0, 5) lands at u = 100 * 1 / 5 = 20.
        rig = simple_rig(f=100.0, cx=0.0, cy=0.0)
        u, v, _ = project_points(cloud_of([[1.0, 0.0, 5.0]]), rig)
        np.testing.assert_allclose([u[0], v[0]], [20.0, 0.0])


class TestFovMask:
    def test_empty_cloud(self):
        mask = fov_mask(cloud_of(np.zeros((0, 3))), simple_rig())
        assert len(mask) == 0 and mask.count == 0

    def test_right_edge_is_excluded(self):
        # u = f*x/z + cx = W exactly -> outside the half-open bound.
        rig = simple_rig(f=100.0, cx=0.0, cy=0.0, width=20, height=480)
        mask = fov_mask(cloud_of([[1.0, 0.0, 5.0]]), rig)
        assert mask.mask.tolist() == [False]

    def test_just_inside_right_edge(self):
        rig = simple_rig(f=100.0, cx=0.0, cy=0.0, width=21, height=480)
        mask = fov_mask(cloud_of([[1.0, 1e-9, 5.0]]), rig)
        assert mask.mask.tolist() == [True]

    def test_cube_matches_scalar_oracle(self):
        rig = simple_rig(f=200.0, cx=320.0, cy=240.0)
        corners = np.array([[x, y, z] for x in (-3, 3) for y in (-2, 2) for z in (-4, 8)],
                           dtype=np.float64)
        mask = fov_mask(cloud_of(corners), rig)
        expected = [in_frustum_scalar(rig.P.tolist(), rig.T.tolist(),
                                      rig.width, rig.height, c) for c in corners]
        assert mask.mask.tolist() == expected

    def test_random_points_match_scalar_oracle(self):
        rng = np.random.default_rng(11)
        yaw = 0.4
        t = np.eye(4)
        t[:3, :3] = np.array([[np.cos(yaw), -np.sin(yaw), 0],
                              [np.sin(yaw), np.cos(yaw), 0],
                              [0, 0, 1]])
        t[:3, 3] = [0.2, -0.1, 0.05]
        rig = simple_rig(f=150.0, cx=300.0, cy=200.0, t=t)
        pts = rng.uniform(-10, 10, (500, 3))
        mask = fov_mask(cloud_of(pts), rig)
        expected = [in_frustum_scalar(rig.P.tolist(), rig.T.tolist(),
                                      rig.width, rig.height, p) for p in pts]
        assert mask.mask.tolist() == expected

    def test_index_map_strictly_increasing(self):
        mask = FovMask(np.array([True, False, True, True]))
        assert mask.index_map.tolist() == [0, 2, 3]


class TestSliceCloud:
    def test_all_true_is_identity(self):
        cloud = cloud_of(np.random.default_rng(0).uniform(-1, 1, (10, 3)))
        sliced, index_map = slice_cloud(cloud, np.ones(10, dtype=bool))
        np.testing.assert_array_equal(sliced.xyz, cloud.xyz)
        assert index_map.tolist() == list(range(10))

    def test_all_false_is_empty(self):
        cloud = cloud_of(np.zeros((5, 3)))
        sliced, index_map = slice_cloud(cloud, np.zeros(5, dtype=bool))
        assert len(sliced) == 0 and index_map.size == 0

    def test_partial_mask(self):
        cloud = cloud_of([[1, 0, 0], [2, 0, 0], [3, 0, 0]])
        sliced, index_map = slice_cloud(cloud, np.array([True, False, True]))
        assert len(sliced) == 2
        assert index_map.tolist() == [0, 2]
        np.testing.assert_array_equal(sliced.xyz[:, 0], [1.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(SizeMismatch):
            slice_cloud(cloud_of(np.zeros((3, 3))), np.zeros(4, dtype=bool))

    def test_scatter_roundtrip_leaves_rest_untouched(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, 20).astype(np.float32)
        mask = rng.random(20) < 0.5
        index_map = np.flatnonzero(mask)
        base = np.full(20, -1.0, dtype=np.float32)
        out = scatter(values[index_map], index_map, base.copy())
        np.testing.assert_array_equal(out[mask], values[mask])
        assert np.all(out[~mask] == -1.0)


class TestLiftProbs:
    def test_uniform_map_gives_same_row_everywhere(self):
        rig = simple_rig(f=50.0, cx=32.0, cy=24.0, width=64, height=48)
        row = np.array([0.2, 0.3, 0.5], dtype=np.float32)
        prob_map = np.tile(row, (48, 64, 1))
        cloud = cloud_of(np.random.default_rng(1).uniform(-0.2, 0.2, (50, 3)) + [0, 0, 5.0])
        probs, mask = lift_probs(prob_map, cloud, rig)
        assert mask.count > 0
        np.testing.assert_array_equal(probs[mask.mask], np.tile(row, (mask.count, 1)))
        assert np.all(probs[~mask.mask] == 0.0)

    def test_rows_are_rows_of_the_map(self):
        rng = np.random.default_rng(2)
        rig = simple_rig(f=50.0, cx=32.0, cy=24.0, width=64, height=48)
        prob_map = rng.dirichlet(np.ones(4), size=(48, 64)).astype(np.float32)
        cloud = cloud_of(rng.uniform(-1, 1, (200, 3)) + [0, 0, 4.0])
        probs, mask = lift_probs(prob_map, cloud, rig)
        flat = prob_map.reshape(-1, 4)
        for row in probs[mask.mask]:
            assert (flat == row).all(axis=1).any()

    def test_four_points_hit_four_pixels(self):
        # 2x2 image, f=1, principal point at the center: the four points
        # land in the four distinct pixels.
        rig = simple_rig(f=1.0, cx=1.0, cy=1.0, width=2, height=2)
        prob_map = np.array([
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [0.25, 0.75]],
        ], dtype=np.float32)
        pts = [[-0.5, -0.5, 1.0], [0.5, -0.5, 1.0], [-0.5, 0.5, 1.0], [0.5, 0.5, 1.0]]
        probs, mask = lift_probs(prob_map, cloud_of(pts), rig)
        assert mask.count == 4
        np.testing.assert_array_equal(probs, prob_map.reshape(4, 2))

    def test_dim_mismatch(self):
        rig = simple_rig(width=64, height=48)
        with pytest.raises(DimMismatch):
            lift_probs(np.zeros((10, 10, 3), dtype=np.float32), cloud_of([[0, 0, 1]]), rig)

    def test_one_hot_map_transfers_pixel_labels(self):
        rng = np.random.default_rng(3)
        rig = simple_rig(f=40.0, cx=16.0, cy=16.0, width=32, height=32)
        pixel_labels = rng.integers(0, 5, (32, 32))
        prob_map = np.eye(5, dtype=np.float32)[pixel_labels]
        cloud = cloud_of(rng.uniform(-1, 1, (100, 3)) + [0, 0, 4.0])
        probs, mask = lift_probs(prob_map, cloud, rig)
        u, v, _ = project_points(cloud, rig)
        for i in np.flatnonzero(mask.mask):
            expected = pixel_labels[int(np.floor(v[i])), int(np.floor(u[i]))]
            assert probs[i].argmax() == expected

    def test_bilinear_rows_stay_normalized(self):
        rng = np.random.default_rng(4)
        rig = simple_rig(f=50.0, cx=32.0, cy=24.0, width=64, height=48)
        prob_map = rng.dirichlet(np.ones(3), size=(48, 64)).astype(np.float32)
        cloud = cloud_of(rng.uniform(-1, 1, (300, 3)) + [0, 0, 4.0])
        probs, mask = lift_probs(prob_map, cloud, rig, sampling="bilinear")
        sums = probs[mask.mask].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-5)


class TestMergeLifted:
    def test_average_on_overlap(self):
        a = np.array([[1.0, 0.0], [0.4, 0.6], [0.0, 0.0]], dtype=np.float32)
        b = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        ma = np.array([True, True, False])
        mb = np.array([True, False, False])
        merged, mask = merge_lifted([a, b], [ma, mb])
        np.testing.assert_allclose(merged[0], [0.5, 0.5])
        np.testing.assert_allclose(merged[1], [0.4, 0.6], rtol=1e-6)
        assert mask.mask.tolist() == [True, True, False]

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            merge_lifted(
                [np.zeros((3, 2), np.float32), np.zeros((3, 3), np.float32)],
                [np.ones(3, bool), np.ones(3, bool)],
            )


def test_fov_mask_is_permutation_equivariant():
    rng = np.random.default_rng(20)
    rig = simple_rig(f=150.0, cx=300.0, cy=200.0)
    pts = rng.uniform(-10, 10, (300, 3))
    perm = rng.permutation(300)
    base = fov_mask(cloud_of(pts), rig)
    permuted = fov_mask(cloud_of(pts[perm]), rig)
    np.testing.assert_array_equal(permuted.mask, base.mask[perm])


def quaternion_rotation(w, x, y, z):
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@st.composite
def rigs_and_points(draw):
    """A proper rotation, a translation, a KITTI-like P with skew and a
    fourth column, and points of which some are behind the camera."""
    quat = draw(st.tuples(*[st.floats(-1, 1)] * 4).filter(
        lambda q: sum(c * c for c in q) > 0.01))
    t = np.eye(4)
    t[:3, :3] = quaternion_rotation(*quat)
    t[:3, 3] = draw(arrays(np.float64, 3, elements=st.floats(-3, 3)))
    f = st.floats(50, 1000)
    p = np.array([
        [draw(f), draw(st.floats(-5, 5)), draw(st.floats(0, 1300)), draw(st.floats(-400, 400))],
        [0.0, draw(f), draw(st.floats(0, 400)), draw(st.floats(-5, 5))],
        [0.0, 0.0, 1.0, draw(st.floats(0, 0.01))],
    ])
    rig = CalibrationRig(P=p, T=t, width=1241, height=376)
    xyz = draw(arrays(np.float64, (draw(st.integers(0, 40)), 3), elements=st.floats(-60, 60)))
    # Camera-frame points at depth -1 mapped back to the sensor frame.
    behind = (np.array([[0.0, 0.0, -1.0], [5.0, -2.0, -1.0]]) - t[:3, 3]) @ t[:3, :3]
    return rig, np.vstack([xyz, behind])


@settings(max_examples=200, deadline=None)
@given(rigs_and_points())
# Every term of the depth row is -0.0; Python's sum() still gives +0.0.
@example((simple_rig(t=np.array([[1.0, -0.0, -0.0, -0.0], [-0.0, 1.0, -0.0, -0.0],
                                  [-0.0, -0.0, 1.0, -0.0], [0.0, 0.0, 0.0, 1.0]])),
          np.array([[1.0, 1.0, -0.0], [0.0, 0.0, 5.0]])))
# u = 100 / 1e-308 overflows to inf: out of view, and no warning.
@example((simple_rig(), np.array([[1.0, 0.0, 1e-308], [0.0, 0.0, -1.0]])))
def test_projection_bit_equal_to_scalar_oracle(case):
    rig, xyz = case
    u, v, depth = project_points(cloud_of(xyz), rig)
    p_mat, t_mat = rig.P.tolist(), rig.T.tolist()
    expected = [project_scalar(p_mat, t_mat, q) for q in xyz]
    behind = np.array([e[2] <= 0.0 for e in expected], dtype=bool)
    assert behind.any()
    for got, want in ((u, [e[0] for e in expected]), (v, [e[1] for e in expected])):
        np.testing.assert_array_equal(np.isnan(got), behind)
        want = np.array([np.nan if w is None else w for w in want])
        assert got[~behind].tobytes() == want[~behind].tobytes()
    assert depth.tobytes() == np.array([e[2] for e in expected]).tobytes()
    assert fov_mask(cloud_of(xyz), rig).mask.tolist() == [
        in_frustum_scalar(p_mat, t_mat, rig.width, rig.height, q) for q in xyz]
