"""Synthetic scene generator: geometry, determinism, teacher corruption."""

import numpy as np
import pytest

from seglift import evaluation, projection, refinement
from seglift.errors import DegenerateSpec
from seglift.synthetic import (
    Box,
    Cylinder,
    SceneSpec,
    default_class_map,
    pixel_class_image,
    random_scene_spec,
    render_scene,
    simulate_teacher,
)


class TestRenderScene:
    def test_ground_only_scene_is_all_road(self):
        scene = render_scene(SceneSpec(seed=0))
        assert len(scene.cloud) > 1000
        assert np.all(scene.labels == 1)

    def test_empty_scene_is_empty_cloud(self):
        spec = SceneSpec(seed=0, ground_extent=1e-9)
        spec = SceneSpec(seed=0, boxes=(), cylinders=(),
                         ground_extent=0.001)  # nothing to hit beyond a dot
        scene = render_scene(spec)
        assert len(scene.cloud) == 0 or np.all(scene.labels == 1)

    def test_bit_deterministic_per_seed(self):
        spec = random_scene_spec(7)
        a = render_scene(spec)
        b = render_scene(spec)
        np.testing.assert_array_equal(a.cloud.xyz, b.cloud.xyz)
        np.testing.assert_array_equal(a.cloud.intensity, b.cloud.intensity)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_degenerate_box_rejected(self):
        spec = SceneSpec(seed=0, boxes=(Box(2, (5, 0, 0), (1.0, -1.0, 1.0)),))
        with pytest.raises(DegenerateSpec):
            render_scene(spec)

    def test_degenerate_lidar_rejected(self):
        from seglift.synthetic import LidarSpec
        spec = SceneSpec(seed=0, lidar=LidarSpec(beams=0))
        with pytest.raises(DegenerateSpec):
            render_scene(spec)

    def test_box_in_frustum_has_all_points_in_fov(self):
        # One car directly ahead, well inside the ~90 degree wedge.
        spec = SceneSpec(seed=3, boxes=(Box(3, (8.0, 0.0, -0.95), (3.0, 1.6, 1.5)),))
        scene = render_scene(spec)
        mask = projection.fov_mask(scene.cloud, scene.rig)
        car = scene.labels == 3
        assert car.sum() > 20
        assert np.all(mask.mask[car])

    def test_cylinder_points_carry_their_class(self):
        spec = SceneSpec(seed=4, cylinders=(Cylinder(4, (6.0, 0.0), 0.3, 4.0, -1.7),))
        scene = render_scene(spec)
        pole = scene.labels == 4
        assert pole.sum() > 5
        radii = np.hypot(scene.cloud.xyz[pole, 0] - 6.0, scene.cloud.xyz[pole, 1])
        np.testing.assert_allclose(radii, 0.3, atol=1e-6)


class TestSimulateTeacher:
    def test_zero_noise_lifts_ground_truth_exactly(self):
        spec = random_scene_spec(21)
        scene = render_scene(spec)
        prob_map = simulate_teacher(spec, 0.0, 0.0, seed=1)
        rows, mask = projection.lift_probs(prob_map, scene.cloud, scene.rig)
        idx = mask.index_map
        assert idx.size > 500
        np.testing.assert_array_equal(rows.argmax(axis=1), scene.labels[idx])

    def test_zero_noise_pipeline_with_k1_returns_gt_in_fov(self):
        spec = random_scene_spec(22)
        scene = render_scene(spec)
        prob_map = simulate_teacher(spec, 0.0, 0.0, seed=2)
        probs, mask = projection.lift_probs(prob_map, scene.cloud, scene.rig)
        idx, _ = refinement.build_tree(scene.cloud.xyz[mask.index_map]).neighbors(1, True)
        labels, _ = refinement.refine_confidence_avg(probs.astype(np.float64), idx)
        np.testing.assert_array_equal(labels, scene.labels[mask.index_map])

    def test_rows_normalized(self):
        spec = random_scene_spec(23)
        prob_map = simulate_teacher(spec, 0.5, 0.1, seed=3)
        np.testing.assert_allclose(prob_map.sum(axis=2), 1.0, atol=1e-5)
        assert prob_map.min() >= 0.0

    def test_border_rate_one_mislabels_every_band_pixel(self):
        spec = random_scene_spec(24)
        prob_map = simulate_teacher(spec, 1.0, 0.0, seed=4)
        class_img = pixel_class_image(spec)
        from seglift.synthetic import _boundary_band
        band, neighbor = _boundary_band(class_img)
        target = band & (neighbor != class_img)
        pred = prob_map.argmax(axis=2)
        assert target.sum() > 100
        assert np.all(pred[target] != class_img[target])

    def test_deterministic_per_seed(self):
        spec = random_scene_spec(25)
        a = simulate_teacher(spec, 0.3, 0.05, seed=9)
        b = simulate_teacher(spec, 0.3, 0.05, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            simulate_teacher(random_scene_spec(26), 1.5, 0.0, seed=0)

    def test_teacher_quality_degrades_with_border_rate(self):
        spec = random_scene_spec(27)
        scene = render_scene(spec)
        mious = []
        for rate in (0.0, 0.25, 0.5):
            prob_map = simulate_teacher(spec, rate, 0.0, seed=5)
            rows, mask = projection.lift_probs(prob_map, scene.cloud, scene.rig)
            pred = rows.argmax(axis=1).astype(np.uint16)
            cm = evaluation.accumulate(scene.labels[mask.index_map], pred, 5)
            mious.append(evaluation.iou(cm)[1])
        assert mious[0] == 1.0
        assert mious[0] > mious[1] > mious[2]


def test_default_class_map_matches_scene_classes():
    cm = default_class_map()
    assert cm.num_classes == 5
    spec = random_scene_spec(30)
    scene = render_scene(spec)
    assert int(scene.labels.max()) < cm.num_classes
