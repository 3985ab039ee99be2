"""Pipeline configuration: strict JSON with unknown keys rejected.

Flag values passed on the command line override config-file values,
which override the built-in defaults; both pass the same validation.
Paths in the config file are resolved against the file's directory
before any work starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .projection import SAMPLING_MODES
from .refinement import TIE_BREAKS
from .thresholding import THRESHOLD_MODES, ThresholdConfig

REFINEMENT_SCHEMES = ("majority", "distance_weighted", "confidence_avg")


@dataclass(frozen=True)
class RefinementConfig:
    scheme: str = "confidence_avg"
    k: int = 19
    include_self: bool = True
    tie_break: str = "lowest"


@dataclass(frozen=True)
class PipelineConfig:
    dataset_root: str | None = None
    output_root: str | None = None
    class_map: str | None = None
    cameras: tuple[int, ...] = (2,)
    image_size: tuple[int, int] | None = None
    lift_sampling: str = "nearest"
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    threshold: ThresholdConfig = ThresholdConfig(0.8, 0.95)  # frozen, so one shared default
    jobs: int = 1


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _type_ok(value, types) -> bool:
    # bool is an int subclass; only accept it where bool is listed.
    if not isinstance(types, tuple):
        types = (types,)
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types)


def _take(raw: dict, section: str, allowed: dict) -> dict:
    """Pop known keys with type checks; reject anything left over."""
    out = {}
    for key, (types, check, why) in allowed.items():
        if key not in raw:
            continue
        value = raw.pop(key)
        _expect(_type_ok(value, types), f"{section}.{key}: wrong type")
        if check is not None:
            _expect(check(value), f"{section}.{key}: {why}")
        out[key] = value
    _expect(not raw, f"{section}: unknown key(s) {sorted(raw)}")
    return out


def _parse_threshold(raw: dict) -> ThresholdConfig:
    mode = raw.pop("mode", "class_balanced")
    _expect(mode in THRESHOLD_MODES, f"threshold.mode: must be one of {THRESHOLD_MODES}")
    if mode == "static":
        vals = _take(raw, "threshold", {
            "tau": ((int, float), lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
        })
        _expect("tau" in vals, "threshold: static mode needs 'tau'")
        return ThresholdConfig.static(float(vals["tau"]))
    vals = _take(raw, "threshold", {
        "tau_min": ((int, float), lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
        "tau_max": ((int, float), lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    })
    tau_min = float(vals.get("tau_min", PipelineConfig.threshold.tau_min))
    tau_max = float(vals.get("tau_max", PipelineConfig.threshold.tau_max))
    _expect(tau_min <= tau_max, "threshold: need tau_min <= tau_max")
    return ThresholdConfig(tau_min, tau_max, "class_balanced")


def _parse_refinement(raw: dict) -> RefinementConfig:
    vals = _take(raw, "refinement", {
        "scheme": (str, lambda v: v in REFINEMENT_SCHEMES, f"must be one of {REFINEMENT_SCHEMES}"),
        "k": (int, lambda v: v >= 1 and v % 2 == 1, "must be an odd integer >= 1"),
        "include_self": (bool, None, ""),
        "tie_break": (str, lambda v: v in TIE_BREAKS, f"must be one of {TIE_BREAKS}"),
    })
    return RefinementConfig(**vals)


def _merge(raw: dict, flags: dict) -> None:
    """Lay non-None flag values over `raw`; a section maps to a dict of its flags."""
    for name, value in flags.items():
        if isinstance(value, dict):
            section = raw.get(name, {})
            _expect(isinstance(section, dict), f"{name}: must be a JSON object")
            raw[name] = {**section, **{k: v for k, v in value.items() if v is not None}}
        elif value is not None:
            raw[name] = value


def parse_config(raw: dict, base_dir: Path | None = None, flags: dict | None = None) -> PipelineConfig:
    """Validate a config dict with `flags` merged over it; `base_dir` anchors its relative paths."""
    _expect(isinstance(raw, dict), "config root must be a JSON object")
    raw = dict(raw)
    if base_dir is not None:
        for key in ("dataset_root", "output_root", "class_map"):
            if isinstance(raw.get(key), str):
                raw[key] = str((base_dir / raw[key]).resolve())
    _merge(raw, flags or {})

    sections = {}
    for name, parser in (("threshold", _parse_threshold), ("refinement", _parse_refinement)):
        if name in raw:
            section = raw.pop(name)
            _expect(isinstance(section, dict), f"{name}: must be a JSON object")
            sections[name] = parser(dict(section))

    vals = _take(raw, "config", {
        "dataset_root": (str, None, ""),
        "output_root": (str, None, ""),
        "class_map": (str, None, ""),
        "cameras": (list, lambda v: bool(v) and all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in v) and len(set(v)) == len(v), "must be a non-empty list of distinct camera ids"),
        "image_size": (list, lambda v: len(v) == 2 and all(isinstance(x, int) and x > 0 for x in v), "must be [width, height] of positive ints"),
        "lift_sampling": (str, lambda v: v in SAMPLING_MODES, f"must be one of {SAMPLING_MODES}"),
        "jobs": (int, lambda v: v >= 1, "must be >= 1"),
    })
    if "cameras" in vals:
        vals["cameras"] = tuple(vals["cameras"])
    if "image_size" in vals:
        vals["image_size"] = tuple(vals["image_size"])
    return PipelineConfig(**vals, **sections)


def read_config(path=None, flags: dict | None = None) -> PipelineConfig:
    """Load and validate a JSON config file (defaults when `path` is None), with `flags` over it."""
    if path is None:
        return parse_config({}, flags=flags)
    import json  # only a config file needs it

    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return parse_config(raw, base_dir=path.parent, flags=flags)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
