"""Strict config parsing: defaults, overrides, unknown-key rejection."""

import json

import pytest

from seglift.config import parse_config, read_config
from seglift.errors import ConfigError


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestDefaults:
    def test_empty_config_gives_defaults(self):
        cfg = parse_config({})
        assert cfg.refinement.scheme == "confidence_avg"
        assert cfg.refinement.k == 19
        assert cfg.threshold.tau_min == 0.8
        assert cfg.threshold.tau_max == 0.95
        assert cfg.cameras == (2,)
        assert cfg.jobs == 1


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"dataset_rot": "/data"})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="refinement"):
            parse_config({"refinement": {"scheme": "majority", "kk": 3}})

    def test_even_k_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            parse_config({"refinement": {"k": 2}})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"refinement": {"scheme": "median"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            parse_config({"jobs": True})

    def test_static_threshold_needs_tau(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config({"threshold": {"mode": "static"}})

    def test_static_threshold(self):
        cfg = parse_config({"threshold": {"mode": "static", "tau": 0.9}})
        assert cfg.threshold.mode == "static"
        assert cfg.threshold.tau_min == cfg.threshold.tau_max == 0.9

    def test_static_mode_rejects_balanced_keys(self):
        with pytest.raises(ConfigError):
            parse_config({"threshold": {"mode": "static", "tau": 0.9, "tau_min": 0.5}})

    def test_balanced_bounds_checked(self):
        with pytest.raises(ConfigError):
            parse_config({"threshold": {"tau_min": 0.9, "tau_max": 0.5}})

    def test_image_size_shape(self):
        with pytest.raises(ConfigError):
            parse_config({"image_size": [512]})
        cfg = parse_config({"image_size": [512, 256]})
        assert cfg.image_size == (512, 256)

    def test_cameras_must_be_nonempty_ints(self):
        with pytest.raises(ConfigError):
            parse_config({"cameras": []})
        with pytest.raises(ConfigError):
            parse_config({"cameras": ["left"]})


class TestReadConfig:
    def test_round_trip_with_paths_resolved(self, tmp_path):
        path = write_config(tmp_path, {
            "dataset_root": "data",
            "output_root": "out",
            "class_map": "class_map.csv",
            "refinement": {"scheme": "majority", "k": 5},
            "threshold": {"mode": "class_balanced", "tau_min": 0.6, "tau_max": 0.9},
            "jobs": 4,
        })
        cfg = read_config(path)
        assert cfg.dataset_root == str((tmp_path / "data").resolve())
        assert cfg.refinement.scheme == "majority" and cfg.refinement.k == 5
        assert cfg.threshold.tau_min == 0.6
        assert cfg.jobs == 4

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_non_utf8_file_names_it(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match=f"{path}: invalid JSON"):
            read_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config(tmp_path / "none.json")

    def test_error_message_names_offending_key(self, tmp_path):
        path = write_config(tmp_path, {"threshold": {"tau_min": 2.0}})
        with pytest.raises(ConfigError, match="tau_min"):
            read_config(path)
