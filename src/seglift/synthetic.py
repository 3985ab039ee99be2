"""Seeded synthetic street scenes with a controllable noisy teacher.

A scene is a ground plane plus boxes ("building", "car") and vertical
cylinders ("pole") ray-cast from a spinning-beam sensor at the origin.
A co-located virtual camera renders the same geometry to a per-pixel
class image, from which the simulated teacher builds a probability map:
correct-class rows at high confidence, except that pixels within a
2-pixel band of a class boundary are flipped toward the neighboring
class with a configurable probability (the label-bleeding failure mode
the KNN refinement stage exists to repair) and other pixels are flipped
to a random wrong class at a second, usually smaller, rate.

Returns at object silhouettes whose camera pixel disagrees with the
LiDAR hit (a sub-pixel quantization effect) are dropped from the cloud,
so with both error rates at zero the lifted labels reproduce the ground
truth exactly inside the camera view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import CalibrationRig, ClassMap, PointCloud
from .errors import DegenerateSpec
from .projection import _in_view, project_points

DEFAULT_CLASS_NAMES = ("unlabeled", "road", "building", "car", "pole")

# Camera axes in the sensor frame: x_cam = -y, y_cam = -z, z_cam = +x.
_R_CAM = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])

_EPS = 1e-9


@dataclass(frozen=True)
class Box:
    class_id: int
    center: tuple[float, float, float]
    size: tuple[float, float, float]  # full extents along x, y, z


@dataclass(frozen=True)
class Cylinder:
    class_id: int
    center: tuple[float, float]  # xy of the axis
    radius: float
    height: float
    base_z: float


@dataclass(frozen=True)
class LidarSpec:
    beams: int = 36
    azimuth_steps: int = 720
    elev_min_deg: float = -25.0
    elev_max_deg: float = 3.0


@dataclass(frozen=True)
class CameraSpec:
    width: int = 512
    height: int = 256
    focal: float = 256.0  # ~90 degree horizontal field of view


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    ground_extent: float = 25.0     # half-size of the square ground patch
    ground_z: float = -1.7
    ground_class: int = 1
    boxes: tuple[Box, ...] = ()
    cylinders: tuple[Cylinder, ...] = ()
    lidar: LidarSpec = field(default_factory=LidarSpec)
    camera: CameraSpec = field(default_factory=CameraSpec)

    def validate(self) -> None:
        if self.lidar.beams < 1 or self.lidar.azimuth_steps < 1:
            raise DegenerateSpec("lidar needs at least one beam and one azimuth step")
        if self.camera.width <= 0 or self.camera.height <= 0 or self.camera.focal <= 0:
            raise DegenerateSpec("camera size and focal length must be positive")
        if self.ground_extent <= 0:
            raise DegenerateSpec("ground extent must be positive")
        for box in self.boxes:
            if min(box.size) <= 0:
                raise DegenerateSpec(f"box of class {box.class_id} has non-positive size")
        for cyl in self.cylinders:
            if cyl.radius <= 0 or cyl.height <= 0:
                raise DegenerateSpec(f"cylinder of class {cyl.class_id} is degenerate")

    def rig(self) -> CalibrationRig:
        cam = self.camera
        p = np.array([
            [cam.focal, 0.0, cam.width / 2.0, 0.0],
            [0.0, cam.focal, cam.height / 2.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        t = np.eye(4)
        t[:3, :3] = _R_CAM
        return CalibrationRig(P=p, T=t, width=cam.width, height=cam.height)


@dataclass
class RenderedScene:
    cloud: PointCloud
    labels: np.ndarray  # (N,) uint16 ground truth
    rig: CalibrationRig


def _cast_rays(dirs: np.ndarray, spec: SceneSpec):
    """Nearest hit per ray from the origin; returns (t, class_id)."""
    n = dirs.shape[0]
    best_t = np.full(n, np.inf)
    best_c = np.zeros(n, dtype=np.uint16)

    def consider(t, ok, class_id):
        better = ok & (t > _EPS) & (t < best_t)
        best_t[better] = t[better]
        best_c[better] = class_id

    with np.errstate(divide="ignore", invalid="ignore"):
        # Ground patch at z = ground_z.
        t = spec.ground_z / dirs[:, 2]
        x = dirs[:, 0] * t
        y = dirs[:, 1] * t
        ok = (dirs[:, 2] < 0) & (np.abs(x) <= spec.ground_extent) & (np.abs(y) <= spec.ground_extent)
        consider(t, ok, spec.ground_class)

        for box in spec.boxes:
            lo = np.array(box.center) - np.array(box.size) / 2.0
            hi = np.array(box.center) + np.array(box.size) / 2.0
            t1 = lo[None, :] / dirs
            t2 = hi[None, :] / dirs
            tnear = np.minimum(t1, t2).max(axis=1)
            tfar = np.maximum(t1, t2).min(axis=1)
            ok = (tnear <= tfar) & (tfar > _EPS)
            consider(tnear, ok, box.class_id)

        for cyl in spec.cylinders:
            cx, cy = cyl.center
            a = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
            b = -2.0 * (cx * dirs[:, 0] + cy * dirs[:, 1])
            c = cx * cx + cy * cy - cyl.radius ** 2
            disc = b * b - 4.0 * a * c
            sq = np.sqrt(np.maximum(disc, 0.0))
            t = (-b - sq) / (2.0 * a)
            z = dirs[:, 2] * t
            ok = (disc >= 0) & (a > 0) & (z >= cyl.base_z) & (z <= cyl.base_z + cyl.height)
            consider(t, ok, cyl.class_id)

    return best_t, best_c


def _lidar_dirs(spec: SceneSpec) -> np.ndarray:
    lid = spec.lidar
    elev = np.deg2rad(np.linspace(lid.elev_min_deg, lid.elev_max_deg, lid.beams))
    azim = np.arange(lid.azimuth_steps) * (2.0 * np.pi / lid.azimuth_steps)
    ee, aa = np.meshgrid(elev, azim, indexing="ij")
    return np.column_stack([
        (np.cos(ee) * np.cos(aa)).ravel(),
        (np.cos(ee) * np.sin(aa)).ravel(),
        np.sin(ee).ravel(),
    ])


def _pixel_rays(spec: SceneSpec) -> np.ndarray:
    cam = spec.camera
    cc, rr = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    dx = (cc.ravel() + 0.5 - cam.width / 2.0) / cam.focal
    dy = (rr.ravel() + 0.5 - cam.height / 2.0) / cam.focal
    d_cam = np.column_stack([dx, dy, np.ones(dx.shape[0])])
    return d_cam @ _R_CAM  # rows @ R == R.T @ columns


def pixel_class_image(spec: SceneSpec) -> np.ndarray:
    """Ground-truth class per camera pixel (0 where no geometry is hit)."""
    spec.validate()
    t, cls = _cast_rays(_pixel_rays(spec), spec)
    cls = cls.copy()
    cls[~np.isfinite(t)] = 0
    return cls.reshape(spec.camera.height, spec.camera.width)


def render_scene(spec: SceneSpec) -> RenderedScene:
    """Ray-cast the LiDAR returns; deterministic for a given spec."""
    spec.validate()
    dirs = _lidar_dirs(spec)
    t, cls = _cast_rays(dirs, spec)
    hit = np.isfinite(t)
    xyz = dirs[hit] * t[hit, None]
    labels = cls[hit]
    rng = np.random.default_rng(spec.seed)
    intensity = rng.uniform(0.05, 0.95, size=xyz.shape[0])
    cloud = PointCloud(xyz, intensity)
    rig = spec.rig()

    # Drop returns whose camera pixel disagrees with the LiDAR hit class
    # (sub-pixel silhouette quantization); keeps zero-noise lifting exact.
    class_img = pixel_class_image(spec)
    u, v, depth = project_points(cloud, rig)
    consistent = np.ones(len(cloud), dtype=bool)
    idx = _in_view(u, v, depth, rig).index_map
    if idx.size:
        pix = class_img[np.floor(v[idx]).astype(np.int64), np.floor(u[idx]).astype(np.int64)]
        consistent[idx] = pix == labels[idx]
    keep = np.flatnonzero(consistent)
    return RenderedScene(cloud=cloud.take(keep), labels=labels[keep], rig=rig)


_WINDOW_SHIFTS = tuple(
    (dr, dc)
    for ring in (1, 2)
    for dr in range(-ring, ring + 1)
    for dc in range(-ring, ring + 1)
    if max(abs(dr), abs(dc)) == ring
)


def _boundary_band(class_img: np.ndarray):
    """Pixels within 2 pixels of a class change, plus the class they border."""
    h, w = class_img.shape
    pad = np.pad(class_img, 2, mode="edge")
    band = np.zeros((h, w), dtype=bool)
    neighbor = np.zeros((h, w), dtype=class_img.dtype)
    for dr, dc in _WINDOW_SHIFTS:
        shifted = pad[2 + dr:2 + dr + h, 2 + dc:2 + dc + w]
        diff = shifted != class_img
        newly = diff & ~band
        neighbor[newly] = shifted[newly]
        band |= diff
    return band, neighbor


def simulate_teacher(spec: SceneSpec, error_rate_border: float, error_rate_body: float,
                     seed: int, num_classes: int | None = None) -> np.ndarray:
    """Per-pixel class probabilities with border-concentrated corruption.

    Every pixel draws its corruption fate from one uniform field, so for a
    fixed seed the corrupted set at a lower rate is a subset of the set at
    a higher rate (error counts grow monotonically with the rates).
    """
    if not (0.0 <= error_rate_border <= 1.0 and 0.0 <= error_rate_body <= 1.0):
        raise ValueError("error rates must lie in [0, 1]")
    if num_classes is None:
        num_classes = len(DEFAULT_CLASS_NAMES)
    if num_classes < 3:
        raise ValueError("need at least two real classes to corrupt labels")
    class_img = pixel_class_image(spec)
    h, w = class_img.shape
    band, neighbor = _boundary_band(class_img)

    rng = np.random.default_rng(seed)
    fate = rng.random((h, w))
    clean_conf = rng.uniform(0.92, 0.995, size=(h, w))
    wrong_conf = rng.uniform(0.55, 0.75, size=(h, w))
    body_offset = rng.integers(1, num_classes - 1, size=(h, w))

    true = class_img.astype(np.int64)
    probs = np.full((h, w, num_classes), 0.0, dtype=np.float64)
    rows, cols = np.mgrid[0:h, 0:w]
    spread = (1.0 - clean_conf) / (num_classes - 1)
    probs[:] = spread[:, :, None]
    probs[rows, cols, true] = clean_conf

    corrupt_border = band & (fate < error_rate_border) & (neighbor != class_img)
    corrupt_body = (~band) & (fate < error_rate_body) & (true > 0)
    wrong_body = 1 + (true - 1 + body_offset) % (num_classes - 1)

    for mask, wrong in ((corrupt_border, neighbor.astype(np.int64)), (corrupt_body, wrong_body)):
        r, c = np.nonzero(mask)
        if r.size == 0:
            continue
        probs[r, c, :] = 0.0
        probs[r, c, wrong[r, c]] = wrong_conf[r, c]
        probs[r, c, true[r, c]] += 1.0 - wrong_conf[r, c]
    return probs.astype(np.float32)


def random_scene_spec(seed: int) -> SceneSpec:
    """A randomized street-like layout: buildings, cars, poles on a ground patch."""
    rng = np.random.default_rng(seed)
    boxes = []
    cylinders = []

    def place(min_r, max_r, forward_bias):
        # Bias some objects into the forward (+x) camera wedge.
        if rng.random() < forward_bias:
            azim = rng.uniform(-0.6, 0.6)
        else:
            azim = rng.uniform(0.0, 2.0 * np.pi)
        r = rng.uniform(min_r, max_r)
        return r * np.cos(azim), r * np.sin(azim)

    for _ in range(int(rng.integers(2, 4))):  # buildings
        x, y = place(10.0, 20.0, 0.6)
        sx, sy = rng.uniform(5.0, 9.0, size=2)
        sz = rng.uniform(4.0, 7.0)
        boxes.append(Box(2, (x, y, -1.7 + sz / 2.0), (sx, sy, sz)))
    for _ in range(int(rng.integers(3, 6))):  # cars
        x, y = place(4.0, 14.0, 0.7)
        boxes.append(Box(3, (x, y, -1.7 + 0.75), (3.8, 1.7, 1.5)))
    for _ in range(int(rng.integers(2, 5))):  # poles
        x, y = place(3.0, 16.0, 0.7)
        cylinders.append(Cylinder(4, (x, y), rng.uniform(0.12, 0.3), rng.uniform(3.0, 5.0), -1.7))

    return SceneSpec(seed=seed, boxes=tuple(boxes), cylinders=tuple(cylinders))


def default_class_map() -> ClassMap:
    return ClassMap(DEFAULT_CLASS_NAMES)


def generate_corpus(out_dir, num_scenes: int, seed: int,
                    error_rate_border: float, error_rate_body: float) -> None:
    """Write a synthetic corpus in the standard dataset layout.

    Produces sequences/00/{velodyne,labels,probs_2d} plus calib.txt and a
    class_map.csv at the root; file contents depend only on (seed, rates,
    num_scenes).
    """
    from . import io as seglift_io

    out_dir = Path(out_dir)
    seq_dir = out_dir / "sequences" / "00"
    seglift_io.write_class_map(default_class_map(), out_dir / "class_map.csv")

    for i in range(num_scenes):
        scene_seed = (seed * 1_000_003 + i) % (2 ** 63)
        spec = random_scene_spec(scene_seed)
        scene = render_scene(spec)
        prob_map = simulate_teacher(spec, error_rate_border, error_rate_body,
                                    seed=scene_seed + 1)
        stem = f"{i:06d}"
        seglift_io.write_cloud_bin(scene.cloud, seq_dir / "velodyne" / f"{stem}.bin")
        seglift_io.write_labels(scene.labels, seq_dir / "labels" / f"{stem}.label")
        seglift_io.write_tensor(prob_map, seq_dir / "probs_2d" / f"{stem}.ptns")
        if i == 0:
            seglift_io.write_calib(scene.rig, seq_dir / "calib.txt")
