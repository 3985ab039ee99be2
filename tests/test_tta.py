"""Variant family shape and prediction aggregation."""

import numpy as np
import pytest

from seglift.core import PointCloud
from seglift.errors import DimMismatch
from seglift.tta import TtaVariant, aggregate_tta, default_variants, emit_variants


def random_cloud(n, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-10, 10, (n, 3)), rng.uniform(0, 1, n))


def make_cloud(xyz):
    xyz = np.asarray(xyz, dtype=np.float64)
    return PointCloud(xyz, np.linspace(0.1, 0.9, xyz.shape[0]))


def flip(axis):
    return TtaVariant(f"flip_{axis}", "flip", axis=axis)


def yaw(angle_deg):
    return TtaVariant(f"yaw_{angle_deg}", "yaw", angle_deg=angle_deg)


def signed_zero_cloud():
    """Random points plus rows whose coordinates are +0.0 and -0.0."""
    zeros = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0],
                      [1.5, -0.0, -2.0], [-0.0, 3.25, 0.0], [0.0, 0.0, -7.0]])
    rng = np.random.default_rng(7)
    xyz = np.vstack([zeros, rng.uniform(-50, 50, (200, 3))])
    return PointCloud(xyz, rng.uniform(0, 1, len(xyz)))


def reference_xyz(variant, xyz):
    """What each default variant does to the coordinates, written out."""
    if variant.kind == "identity":
        return xyz
    if variant.kind == "flip":
        out = xyz.copy()
        for col, axis in enumerate("xy"):
            if axis in variant.axis:
                out[:, col] = -out[:, col]
        return out
    angle = np.deg2rad(variant.angle_deg)
    c, s = np.cos(angle), np.sin(angle)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return xyz @ r.T + np.zeros(3)


class TestVariants:
    def test_twelve_distinct_entries_identity_first(self):
        variants = default_variants()
        assert len(variants) == 12
        assert variants[0].kind == "identity"
        assert len({v.name for v in variants}) == 12
        kinds = [v.kind for v in variants]
        assert kinds.count("flip") == 3 and kinds.count("yaw") == 8

    def test_yaw_angles_are_forty_degree_steps(self):
        angles = [v.angle_deg for v in default_variants() if v.kind == "yaw"]
        assert angles == [40.0 * k for k in range(1, 9)]

    def test_variant_zero_is_bitwise_input(self):
        cloud = random_cloud(50, 0)
        clouds = emit_variants(cloud)
        np.testing.assert_array_equal(clouds[0].xyz, cloud.xyz)
        assert default_variants()[0].manifest_entry() == {"name": "identity", "kind": "identity"}

    def test_manifest_lists_parameters(self):
        manifest = [v.manifest_entry() for v in default_variants()]
        assert {"name": "flip_x", "kind": "flip", "axis": "x"} in manifest
        assert {"name": "yaw_120", "kind": "yaw", "angle_deg": 120.0} in manifest

    def test_point_order_preserved_in_every_variant(self):
        cloud = random_cloud(80, 2)
        clouds = emit_variants(cloud)
        assert len(clouds) == 12
        r_in = np.linalg.norm(cloud.xyz[:, :2], axis=1)
        for out in clouds:
            assert len(out) == len(cloud)
            np.testing.assert_array_equal(out.intensity, cloud.intensity)
            np.testing.assert_allclose(np.linalg.norm(out.xyz[:, :2], axis=1), r_in,
                                       atol=1e-6)

    def test_flip_variant_is_involution(self):
        cloud = random_cloud(30, 3)
        flipped_back = emit_variants(cloud)[1].xyz.copy()
        flipped_back[:, 0] = -flipped_back[:, 0]
        np.testing.assert_allclose(flipped_back, cloud.xyz, atol=1e-6)


class TestVariantGeometry:
    @pytest.mark.parametrize("variant", default_variants(), ids=lambda v: v.name)
    def test_apply_matches_the_written_out_reference_bit_for_bit(self, variant):
        cloud = signed_zero_cloud()
        out = variant.apply(cloud)
        expected = reference_xyz(variant, cloud.xyz)
        assert out.xyz.dtype == np.float64 and out.xyz.shape == cloud.xyz.shape
        assert out.xyz.tobytes() == expected.tobytes()
        assert out.intensity.tobytes() == cloud.intensity.tobytes()

    def test_identity_apply_is_bitwise_equal(self):
        cloud = random_cloud(100, 1)
        out = TtaVariant("identity", "identity").apply(cloud)
        assert out.xyz.tobytes() == cloud.xyz.tobytes()
        assert out.intensity.tobytes() == cloud.intensity.tobytes()

    def test_flip_x(self):
        out = flip("x").apply(make_cloud([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(out.xyz, [[-1.0, 2.0, 3.0]])

    def test_flip_y(self):
        out = flip("y").apply(make_cloud([[0.0, -4.0, 1.0]]))
        np.testing.assert_array_equal(out.xyz, [[0.0, 4.0, 1.0]])

    def test_flip_xy_twice_is_identity(self):
        cloud = random_cloud(50, 3)
        np.testing.assert_array_equal(flip("xy").apply(flip("xy").apply(cloud)).xyz, cloud.xyz)

    def test_flip_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            flip("z").apply(make_cloud([[0.0, 0.0, 0.0]]))

    def test_flip_preserves_planar_distance_to_origin(self):
        cloud = random_cloud(100, 4)
        out = flip("x").apply(cloud)
        np.testing.assert_allclose(np.hypot(out.xyz[:, 0], out.xyz[:, 1]),
                                   np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1]), atol=1e-6)

    def test_yaw_zero_angle_identity(self):
        cloud = random_cloud(20, 5)
        np.testing.assert_allclose(yaw(0.0).apply(cloud).xyz, cloud.xyz)

    def test_yaw_quarter_turn(self):
        out = yaw(90.0).apply(make_cloud([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.xyz, [[0.0, 1.0, 0.0]], atol=1e-6)

    def test_yaw_half_turn(self):
        out = yaw(180.0).apply(make_cloud([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.xyz, [[-1.0, 0.0, 0.0]], atol=1e-6)

    def test_eight_steps_of_forty_degrees_is_not_identity(self):
        cloud = make_cloud([[5.0, 0.0, 1.0]])
        out = cloud
        for _ in range(8):
            out = yaw(40.0).apply(out)
        assert not np.allclose(out.xyz, cloud.xyz, atol=1e-3)

    def test_yaw_preserves_planar_distance_and_z(self):
        cloud = random_cloud(100, 6)
        out = yaw(70.5).apply(cloud)
        np.testing.assert_allclose(np.hypot(out.xyz[:, 0], out.xyz[:, 1]),
                                   np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1]), atol=1e-6)
        np.testing.assert_array_equal(out.xyz[:, 2], cloud.xyz[:, 2])


class TestAggregate:
    def test_identical_tensors_pass_through(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(5), size=100).astype(np.float32)
        out = aggregate_tta([probs] * 12)
        np.testing.assert_allclose(out, probs, atol=1e-7)

    def test_two_one_hot_rows_average_to_half(self):
        a = np.array([[1.0, 0.0]], dtype=np.float32)
        b = np.array([[0.0, 1.0]], dtype=np.float32)
        np.testing.assert_array_equal(aggregate_tta([a, b]), [[0.5, 0.5]])

    def test_mean_stays_normalized(self):
        rng = np.random.default_rng(5)
        tensors = [rng.dirichlet(np.ones(4), size=60).astype(np.float32) for _ in range(12)]
        out = aggregate_tta(tensors)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-5)

    def test_variant_order_does_not_matter(self):
        rng = np.random.default_rng(6)
        tensors = [rng.dirichlet(np.ones(4), size=30).astype(np.float32) for _ in range(12)]
        fwd = aggregate_tta(tensors)
        rev = aggregate_tta(tensors[::-1])
        np.testing.assert_allclose(fwd, rev, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            aggregate_tta([np.zeros((3, 2), np.float32), np.zeros((4, 2), np.float32)])

    def test_empty_list_rejected(self):
        with pytest.raises(DimMismatch):
            aggregate_tta([])
