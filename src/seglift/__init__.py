"""seglift: lift 2D segmentation probabilities onto LiDAR point clouds.

Library surface: dataset I/O, camera-model probability lifting, KNN label
refinement, class-balanced pseudo-label thresholding, FOV slicing, TTA
variants, greedy weight soups, and segmentation evaluation.  The
``seglift`` CLI chains the stages over datasets in the standard odometry
layout.
"""

from importlib import import_module

# The public names of each submodule.  They resolve on first use (PEP 562),
# so `import seglift` loads no numpy: `python -m seglift.cli` imports this
# package before the CLI can pin OpenBLAS's threads.
_SUBMODULES = {
    "core": ("IGNORE_ID", "CalibrationRig", "ClassMap", "PointCloud"),
    "projection": ("FovMask", "fov_mask", "lift_probs", "project_points", "slice_cloud"),
    "refinement": ("KdTree", "build_tree", "refine_confidence_avg", "refine_distance_weighted",
                   "refine_majority"),
    "thresholding": ("ThresholdConfig", "apply_threshold", "class_thresholds", "histogram",
                     "static_thresholds"),
    "evaluation": ("ConfusionMatrix", "accumulate", "iou", "report"),
    "tta": ("TtaVariant", "aggregate_tta", "default_variants", "emit_variants"),
    "soup": ("SoupResult", "greedy_soup"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
