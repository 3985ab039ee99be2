"""Container validation: PointCloud, CalibrationRig, ClassMap."""

import numpy as np
import pytest

from seglift.core import CalibrationRig, ClassMap, PointCloud


def random_cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-30, 30, (n, 3)), rng.uniform(0, 1, n))


class TestPointCloud:
    def test_roundtrip_array(self):
        cloud = random_cloud(10)
        again = PointCloud.from_array(cloud.to_array())
        np.testing.assert_array_equal(cloud.xyz, again.xyz)
        np.testing.assert_array_equal(cloud.intensity, again.intensity)

    def test_empty_cloud_is_valid(self):
        cloud = PointCloud(np.zeros((0, 3)), np.zeros(0))
        assert len(cloud) == 0

    def test_rejects_nan_coordinates(self):
        xyz = np.zeros((2, 3))
        xyz[1, 0] = np.nan
        with pytest.raises(ValueError):
            PointCloud(xyz, np.zeros(2))

    def test_rejects_inf_coordinates(self):
        xyz = np.zeros((2, 3))
        xyz[0, 2] = np.inf
        with pytest.raises(ValueError):
            PointCloud(xyz, np.zeros(2))

    def test_rejects_intensity_outside_unit_interval(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), np.array([1.5]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), np.zeros(2))


class TestCalibrationRig:
    def test_valid_rig(self):
        rig = CalibrationRig(
            P=np.array([[100.0, 0, 0, 0], [0, 100.0, 0, 0], [0, 0, 1.0, 0]]),
            T=np.eye(4), width=640, height=480,
        )
        assert rig.width == 640

    def test_rejects_bad_rotation_block(self):
        t = np.eye(4)
        t[0, 0] = 2.0
        with pytest.raises(ValueError):
            CalibrationRig(P=np.zeros((3, 4)), T=t, width=10, height=10)

    def test_rejects_non_orthonormal_rotation_block(self):
        t = np.eye(4)
        t[:3, :3] = np.eye(3) * 2.0  # uniform scale: determinant 8, not orthonormal
        with pytest.raises(ValueError, match="orthonormal"):
            CalibrationRig(P=np.zeros((3, 4)), T=t, width=10, height=10)

    def test_rejects_reflection_rotation_block(self):
        t = np.diag([-1.0, 1.0, 1.0, 1.0])  # orthonormal, determinant -1
        with pytest.raises(ValueError, match="determinant"):
            CalibrationRig(P=np.zeros((3, 4)), T=t, width=10, height=10)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            CalibrationRig(P=np.zeros((3, 4)), T=np.eye(4), width=0, height=10)


class TestClassMap:
    def test_basic(self):
        cm = ClassMap(["unlabeled", "car"])
        assert cm.num_classes == 2
        assert cm.name_of(1) == "car"

    def test_rejects_wrong_zero_name(self):
        with pytest.raises(ValueError):
            ClassMap(["void", "car"])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            ClassMap(["unlabeled", "car", "car"])
