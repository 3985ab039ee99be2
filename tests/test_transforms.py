"""Geometric op semantics: rigid transforms, flips, yaw rotation."""

import numpy as np
import pytest

from seglift import transforms
from seglift.core import PointCloud, RigidTransform


def make_cloud(xyz, intensity=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    if intensity is None:
        intensity = np.linspace(0.1, 0.9, xyz.shape[0])
    return PointCloud(xyz, intensity)


def random_cloud(n, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-20, 20, (n, 3)), rng.uniform(0, 1, n))


class TestApplyTransform:
    def test_identity_is_bitwise_equal(self):
        cloud = random_cloud(100, 1)
        out = transforms.apply_transform(cloud, RigidTransform.identity())
        np.testing.assert_array_equal(out.xyz, cloud.xyz)
        np.testing.assert_array_equal(out.intensity, cloud.intensity)

    def test_half_turn_yaw(self):
        cloud = make_cloud([[1.0, 0.0, 0.0]])
        out = transforms.apply_transform(cloud, RigidTransform.yaw(np.pi))
        np.testing.assert_allclose(out.xyz, [[-1.0, 0.0, 0.0]], atol=1e-6)

    def test_pure_translation(self):
        cloud = make_cloud([[0.0, 0.0, 0.0]])
        t = RigidTransform(np.eye(3), np.array([0.0, 0.0, 5.0]))
        np.testing.assert_array_equal(transforms.apply_transform(cloud, t).xyz, [[0, 0, 5]])

    def test_inverse_recovers_input(self):
        cloud = random_cloud(200, 2)
        t = RigidTransform(RigidTransform.yaw(1.1).rotation, np.array([3.0, -2.0, 0.5]))
        back = transforms.apply_transform(transforms.apply_transform(cloud, t), t.inverse())
        np.testing.assert_allclose(back.xyz, cloud.xyz, atol=1e-5)


class TestFlip:
    def test_flip_x(self):
        out = transforms.flip(make_cloud([[1.0, 2.0, 3.0]]), "x")
        np.testing.assert_array_equal(out.xyz, [[-1.0, 2.0, 3.0]])

    def test_flip_y(self):
        out = transforms.flip(make_cloud([[0.0, -4.0, 1.0]]), "y")
        np.testing.assert_array_equal(out.xyz, [[0.0, 4.0, 1.0]])

    def test_flip_xy_twice_is_identity(self):
        cloud = random_cloud(50, 3)
        out = transforms.flip(transforms.flip(cloud, "xy"), "xy")
        np.testing.assert_array_equal(out.xyz, cloud.xyz)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            transforms.flip(make_cloud([[0.0, 0.0, 0.0]]), "z")

    def test_preserves_planar_distance_to_origin(self):
        cloud = random_cloud(100, 4)
        out = transforms.flip(cloud, "x")
        r_in = np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])
        r_out = np.hypot(out.xyz[:, 0], out.xyz[:, 1])
        np.testing.assert_allclose(r_out, r_in, atol=1e-6)


class TestYawRotate:
    def test_zero_angle_identity(self):
        cloud = random_cloud(20, 5)
        np.testing.assert_allclose(transforms.yaw_rotate(cloud, 0.0).xyz, cloud.xyz)

    def test_quarter_turn(self):
        out = transforms.yaw_rotate(make_cloud([[1.0, 0.0, 0.0]]), np.pi / 2)
        np.testing.assert_allclose(out.xyz, [[0.0, 1.0, 0.0]], atol=1e-6)

    def test_eight_steps_of_forty_degrees_is_not_identity(self):
        cloud = make_cloud([[5.0, 0.0, 1.0]])
        out = cloud
        for _ in range(8):
            out = transforms.yaw_rotate(out, np.deg2rad(40.0))
        assert not np.allclose(out.xyz, cloud.xyz, atol=1e-3)

    def test_preserves_planar_distance_and_z(self):
        cloud = random_cloud(100, 6)
        out = transforms.yaw_rotate(cloud, 1.23)
        np.testing.assert_allclose(
            np.hypot(out.xyz[:, 0], out.xyz[:, 1]),
            np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1]),
            atol=1e-6,
        )
        np.testing.assert_array_equal(out.xyz[:, 2], cloud.xyz[:, 2])


def test_all_ops_preserve_intensity_values():
    cloud = random_cloud(80, 20)
    outs = [
        transforms.apply_transform(cloud, RigidTransform.yaw(0.3)),
        transforms.flip(cloud, "xy"),
        transforms.yaw_rotate(cloud, 2.0),
    ]
    for out in outs:
        np.testing.assert_array_equal(out.intensity, cloud.intensity)
        assert len(out) == len(cloud)
