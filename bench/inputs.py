"""Benchmark inputs: one synthetic dataset per (workload, seed), built once.

Every dataset uses the odometry layout the ``seglift`` commands read
(``sequences/00/{velodyne,labels,probs_2d}``, ``calib.txt``) plus a
``class_map.csv`` at its root.  It is written with ``seglift.synthetic``
and ``seglift.io`` only, into a temporary directory that is renamed into
place when complete, so an interrupted build is never reused.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from seglift import io, synthetic
from seglift.core import ClassMap, PointCloud
from seglift.synthetic import CameraSpec, LidarSpec

# The ROADMAP corpus: its behaviour check (FOV mIoU 67.22, 46.79% of
# labels removed) holds for this seed.
ROADMAP_SEED = 7
KNOWN_ANSWER = {"miou": "67.22", "removed": "46.79%"}

BORDER_RATE = 0.5
BODY_RATE = 0.05
CORPUS_SCENES = 10

# SemanticKITTI scale: 64 beams x 2048 steps (~119k returns after the
# ground patch is widened to 60 m), a 1241x376 camera, 20 classes.
KITTI_SCANS = 3
KITTI_CM_SCANS = 1
KITTI_GROUND_EXTENT = 60.0
KITTI_LIDAR = LidarSpec(beams=64, azimuth_steps=2048, elev_min_deg=-24.9, elev_max_deg=2.0)
KITTI_CAMERA = CameraSpec(width=1241, height=376, focal=718.0)
KITTI_CLASSES = (
    "unlabeled", "road", "building", "car", "pole", "sidewalk", "parking",
    "other-ground", "fence", "vegetation", "trunk", "terrain", "traffic-sign",
    "bicycle", "motorcycle", "truck", "other-vehicle", "person", "bicyclist",
    "motorcyclist",
)
SNAP_M = 0.01


def params(workload: str, seed: int) -> dict:
    """The generator parameters of a workload, as recorded with its results."""
    common = {"workload": workload, "seed": seed,
              "border_rate": BORDER_RATE, "body_rate": BODY_RATE}
    if workload == "corpus":
        return {**common, "scenes": CORPUS_SCENES, "generator": "generate_corpus"}
    return {
        **common,
        "scenes": KITTI_SCANS if workload == "kitti" else KITTI_CM_SCANS,
        "layout_seed": seed if workload == "kitti" else ROADMAP_SEED,
        "ground_extent": KITTI_GROUND_EXTENT,
        "lidar": [KITTI_LIDAR.beams, KITTI_LIDAR.azimuth_steps,
                  KITTI_LIDAR.elev_min_deg, KITTI_LIDAR.elev_max_deg],
        "camera": [KITTI_CAMERA.width, KITTI_CAMERA.height, KITTI_CAMERA.focal],
        "num_classes": len(KITTI_CLASSES),
        "snap_m": SNAP_M if workload == "kitti-cm" else None,
    }


def dataset(cache: Path, workload: str, seed: int) -> Path:
    """Return the dataset root for (workload, seed), generating it if absent."""
    root = cache / f"{workload}-s{seed}"
    marker = root / "params.json"
    if marker.is_file():
        return root
    # A cache keeps one dataset per workload: a kitti dataset takes ~120 MB.
    for old in cache.glob(f"{workload}-s*"):
        shutil.rmtree(old)
    tmp = cache / f".{workload}-s{seed}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    if workload == "corpus":
        synthetic.generate_corpus(tmp, num_scenes=CORPUS_SCENES, seed=seed,
                                  error_rate_border=BORDER_RATE, error_rate_body=BODY_RATE)
    else:
        _kitti(tmp, workload, seed)
    (tmp / "params.json").write_text(json.dumps(params(workload, seed), sort_keys=True))
    os.replace(tmp, root)
    return root


def _kitti(out: Path, workload: str, seed: int) -> None:
    p = params(workload, seed)
    seq = out / "sequences" / "00"
    io.write_class_map(ClassMap(KITTI_CLASSES), out / "class_map.csv")
    for i in range(p["scenes"]):
        layout_seed = (p["layout_seed"] * 1_000_003 + i) % (2 ** 63)
        spec = replace(synthetic.random_scene_spec(layout_seed),
                       ground_extent=KITTI_GROUND_EXTENT,
                       lidar=KITTI_LIDAR, camera=KITTI_CAMERA)
        scene = synthetic.render_scene(spec)
        teacher_seed = (seed * 1_000_003 + i) % (2 ** 63) + 1
        prob_map = synthetic.simulate_teacher(spec, BORDER_RATE, BODY_RATE, seed=teacher_seed,
                                              num_classes=len(KITTI_CLASSES))
        cloud = scene.cloud
        if p["snap_m"]:
            cloud = PointCloud(np.round(cloud.xyz / p["snap_m"]) * p["snap_m"], cloud.intensity)
        stem = f"{i:06d}"
        io.write_cloud_bin(cloud, seq / "velodyne" / f"{stem}.bin")
        io.write_labels(scene.labels, seq / "labels" / f"{stem}.label")
        io.write_tensor(prob_map, seq / "probs_2d" / f"{stem}.ptns")
        if i == 0:
            io.write_calib(scene.rig, seq / "calib.txt")
