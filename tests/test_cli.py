"""End-to-end CLI behavior on small synthetic corpora."""

import ast
import hashlib
import importlib.machinery
import importlib.util
import json
import multiprocessing
import operator
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seglift
import seglift.cli
from oracles import confidence_avg_brute, distance_weighted_brute, majority_brute
from seglift import io, refinement
from seglift.cli import main
from seglift.core import PointCloud
from seglift.refinement import build_tree, graph_distances


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert run(["synth", "--out", root, "--scenes", "2", "--seed", "5",
                "--border-rate", "0.4", "--body-rate", "0.05"]) == 0
    return root


@pytest.fixture(scope="module")
def clean_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean_corpus")
    assert run(["synth", "--out", root, "--scenes", "2", "--seed", "9",
                "--border-rate", "0", "--body-rate", "0"]) == 0
    return root


@pytest.fixture(scope="module")
def piped(corpus, tmp_path_factory):
    """The default `pipeline` output of `corpus`; tests copy it before changing it."""
    out = tmp_path_factory.mktemp("piped")
    assert run(["pipeline", "--dataset-root", corpus, "--output-root", out,
                "--class-map", corpus / "class_map.csv"]) == 0
    return out


def tree_digest(root):
    """Stable digest of every file under root (relative path + bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class TestSynth:
    def test_layout(self, corpus):
        seq = corpus / "sequences" / "00"
        assert (corpus / "class_map.csv").exists()
        assert (seq / "calib.txt").exists()
        for sub, suffix in (("velodyne", ".bin"), ("labels", ".label"), ("probs_2d", ".ptns")):
            files = sorted((seq / sub).glob(f"*{suffix}"))
            assert [f.stem for f in files] == ["000000", "000001"]

    def test_deterministic(self, corpus, tmp_path):
        again = tmp_path / "again"
        assert run(["synth", "--out", again, "--scenes", "2", "--seed", "5",
                    "--border-rate", "0.4", "--body-rate", "0.05"]) == 0
        assert tree_digest(again) == tree_digest(corpus)


class TestStages:
    def test_lift_refine_stats_threshold(self, corpus, tmp_path):
        out = tmp_path / "out"
        base = ["--dataset-root", corpus, "--output-root", out,
                "--class-map", corpus / "class_map.csv"]
        assert run(["lift", *base]) == 0
        seq = out / "sequences" / "00"
        assert sorted(p.stem for p in (seq / "probs_3d").glob("*.ptns")) == ["000000", "000001"]
        mask = io.read_tensor(seq / "fov_mask" / "000000.ptns")
        assert mask.dtype == np.uint8 and set(np.unique(mask)) <= {0, 1}

        assert run(["refine", *base, "--scheme", "confidence_avg", "--k", "19"]) == 0
        assert (seq / "refined_labels" / "000000.label").exists()
        assert (seq / "confidences" / "000001.ptns").exists()

        assert run(["stats", "--output-root", out, "--class-map", corpus / "class_map.csv"]) == 0
        hist_lines = (out / "histogram.csv").read_text().strip().splitlines()
        assert len(hist_lines) == 5 and hist_lines[0].startswith("0,")

        assert run(["threshold", "--output-root", out,
                    "--class-map", corpus / "class_map.csv"]) == 0
        assert (seq / "pseudo_labels" / "000000.label").exists()
        taus = dict(line.split(",") for line in (out / "thresholds.csv").read_text().strip().splitlines())
        assert float(taus["1"]) == 0.95  # majority real class sits at tau_max
        red_lines = (out / "reduction.csv").read_text().strip().splitlines()
        assert red_lines[-1].startswith("total,")

    @pytest.fixture
    def pools(self, monkeypatch):
        """The (max_workers, mp_context) of each process pool opened."""
        import concurrent.futures

        opened, pool = [], concurrent.futures.ProcessPoolExecutor

        def recorded(max_workers, mp_context=None):
            opened.append((max_workers, mp_context))
            return pool(max_workers, mp_context=mp_context)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
        return opened

    def test_pool_gets_no_more_workers_than_scans(self, corpus, piped, tmp_path, pools):
        out = tmp_path / "out"
        assert run(["pipeline", "--dataset-root", corpus, "--output-root", out,
                    "--class-map", corpus / "class_map.csv", "--jobs", "4"]) == 0
        assert [size for size, _ in pools] == [2, 2]  # lift and refine, then the cut: one worker per scan
        assert tree_digest(out) == tree_digest(piped)  # the jobs-1 tree

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the platform cannot fork")
    def test_pool_workers_fork_whatever_the_default(self, pools):
        # Forked workers inherit numpy and a loaded kd-tree; Python 3.14's default does not fork.
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            assert seglift.cli._run(operator.add, 1, [10, 20, 30], 2) == [11, 21, 31]
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert [(size, ctx.get_start_method()) for size, ctx in pools] == [(2, "fork")]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("mode", ["class_balanced", "static"])
    @pytest.mark.parametrize("scheme", ["confidence_avg", "majority", "distance_weighted"])
    def test_pipeline_meta_command_matches_stage_chain(self, corpus, tmp_path, scheme, mode, jobs):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = tmp_path / "config.json"
        threshold = {"mode": mode, "tau": 0.9} if mode == "static" else {"mode": mode}
        cfg.write_text(json.dumps({"refinement": {"scheme": scheme}, "threshold": threshold}))
        common = ["--config", cfg, "--jobs", jobs]
        data = ["--dataset-root", corpus, *common]
        cm = ["--class-map", corpus / "class_map.csv", *common]
        assert run(["pipeline", *data, *cm, "--output-root", out_a]) == 0
        assert run(["lift", *data, "--output-root", out_b]) == 0
        assert run(["refine", *data, "--output-root", out_b]) == 0
        if mode == "class_balanced":
            assert run(["stats", *cm, "--output-root", out_b]) == 0
        assert run(["threshold", *cm, "--output-root", out_b]) == 0
        assert tree_digest(out_a) == tree_digest(out_b)

    @pytest.mark.parametrize("scheme", ["confidence_avg", "majority", "distance_weighted"])
    def test_refine_scatters_the_graph_votes_and_ignores_points_out_of_view(
            self, corpus, tmp_path, scheme):
        """In view, each label is the scheme's oracle vote over the stored graph;
        out of view, the label is IGNORE_ID and the confidence 0."""
        out = tmp_path / "out"
        base = ["--dataset-root", corpus, "--output-root", out]
        assert run(["lift", *base]) == 0
        assert run(["refine", *base, "--scheme", scheme, "--k", "5"]) == 0
        seq = out / "sequences" / "00"
        for stem in ("000000", "000001"):
            view = io.read_tensor(seq / "fov_mask" / f"{stem}.ptns").astype(bool)
            rows = io.read_tensor(seq / "probs_3d" / f"{stem}.ptns")
            [graph_path] = (seq / "knn" / stem).glob("*.ptns")
            idx = io.read_tensor(graph_path)
            labels, _ = io.read_labels(seq / "refined_labels" / f"{stem}.label")
            conf = io.read_tensor(seq / "confidences" / f"{stem}.ptns")
            assert view.any() and (~view).any()
            assert not labels[~view].any() and not conf[~view].any()
            if scheme == "majority":
                expected = majority_brute(rows, idx)
            elif scheme == "distance_weighted":
                xyz = io.read_cloud_bin(corpus / "sequences" / "00" / "velodyne" / f"{stem}.bin").xyz
                expected = distance_weighted_brute(rows, idx, graph_distances(xyz[view], idx))
            else:
                expected, averaged = confidence_avg_brute(rows, idx)
                np.testing.assert_array_equal(conf[view], averaged.max(axis=1).astype(np.float32))
            np.testing.assert_array_equal(labels[view], expected)
            assert (conf[view] > 0).all()

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        out = tmp_path / "out"
        base = ["--dataset-root", corpus, "--output-root", out,
                "--class-map", corpus / "class_map.csv"]
        assert run(["pipeline", *base]) == 0
        first = tree_digest(out)
        assert run(["pipeline", *base]) == 0
        assert tree_digest(out) == first


def write_sparse_dataset(root):
    """Frame 000000 has 3 of 5 points in view, frame 000001 none; 2x2 identity camera."""
    from seglift.core import PointCloud
    seq = root / "sequences" / "00"
    seq.mkdir(parents=True)
    identity = "1 0 0 0 0 1 0 0 0 0 1 0"
    (seq / "calib.txt").write_text(f"P2: {identity}\nTr: {identity}\n")
    (root / "class_map.csv").write_text("0,unlabeled\n1,road\n2,car\n")
    in_view = [[0.5, 0.5, 1.0], [1.5, 0.5, 1.0], [0.5, 1.5, 1.0]]
    behind = [[0.0, 0.0, -1.0], [1.0, 1.0, -2.0]]
    for stem, xyz in (("000000", in_view + behind), ("000001", behind)):
        io.write_cloud_bin(PointCloud(np.array(xyz), np.full(len(xyz), 0.5)),
                           seq / "velodyne" / f"{stem}.bin")
        teacher = np.zeros((2, 2, 3), dtype=np.float32)
        teacher[:, :, 1] = 1.0
        teacher[1, 0] = [0.0, 0.0, 1.0]  # pixel (u=0, v=1) says car
        io.write_tensor(teacher, seq / "probs_2d" / f"{stem}.ptns")


class TestSparseScans:
    @pytest.mark.parametrize("command", ["refine", "pipeline"])
    def test_k_clamped_and_empty_fov_ignored(self, tmp_path, command):
        root = tmp_path / "data"
        write_sparse_dataset(root)
        out = tmp_path / "out"
        base = ["--dataset-root", root, "--output-root", out, "--class-map", root / "class_map.csv"]
        if command == "refine":
            assert run(["lift", *base]) == 0
        assert run([command, *base]) == 0
        seq = out / "sequences" / "00"
        # The default k=19 clamps to the 3 in-view points: each averages all three rows.
        labels, _ = io.read_labels(seq / "refined_labels" / "000000.label")
        conf = io.read_tensor(seq / "confidences" / "000000.ptns")
        assert labels.tolist() == [1, 1, 1, 0, 0]
        np.testing.assert_allclose(conf, [2 / 3, 2 / 3, 2 / 3, 0, 0], rtol=1e-6)
        labels, _ = io.read_labels(seq / "refined_labels" / "000001.label")
        conf = io.read_tensor(seq / "confidences" / "000001.ptns")
        assert labels.tolist() == [0, 0] and conf.tolist() == [0.0, 0.0]


class TestZeroNoisePipeline:
    def test_identity_chain_reproduces_gt_in_fov(self, clean_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "refinement": {"scheme": "confidence_avg", "k": 1},
            "threshold": {"mode": "static", "tau": 0.0},
        }))
        base = ["--config", cfg, "--dataset-root", clean_corpus, "--output-root", out,
                "--class-map", clean_corpus / "class_map.csv"]
        assert run(["pipeline", *base]) == 0
        seq = out / "sequences" / "00"
        assert run(["eval",
                    "--gt", clean_corpus / "sequences" / "00" / "labels",
                    "--pred", seq / "pseudo_labels",
                    "--class-map", clean_corpus / "class_map.csv",
                    "--masks", seq / "fov_mask"]) == 0
        text = capsys.readouterr().out
        miou_line = next(l for l in text.splitlines() if "mIoU" in l)
        assert miou_line.split()[-1] == "100.00"


class TestKnownAnswer:
    def test_default_pipeline_on_the_seed7_corpus(self, tmp_path, capsys):
        """The behaviour check every refactor keeps: the default pipeline on
        `synth --scenes 10 --seed 7` gives FOV mIoU 67.22 and removes 46.79%."""
        data, out = tmp_path / "data", tmp_path / "out"
        assert run(["synth", "--out", data, "--scenes", "10", "--seed", "7"]) == 0
        cm = ["--class-map", data / "class_map.csv"]
        seq = out / "sequences" / "00"
        capsys.readouterr()
        assert run(["pipeline", "--dataset-root", data, "--output-root", out, *cm]) == 0
        assert "removed 25671/54870 labels (46.79%)" in capsys.readouterr().out
        assert run(["eval", "--gt", data / "sequences" / "00" / "labels",
                    "--pred", seq / "pseudo_labels", "--masks", seq / "fov_mask", *cm]) == 0
        assert capsys.readouterr().out.split()[-2:] == ["mIoU", "67.22"]


class TestEval:
    def test_identical_dirs_give_miou_one(self, corpus, tmp_path, capsys):
        labels = corpus / "sequences" / "00" / "labels"
        out_csv = tmp_path / "eval.csv"
        assert run(["eval", "--gt", labels, "--pred", labels,
                    "--class-map", corpus / "class_map.csv", "--out", out_csv]) == 0
        text = capsys.readouterr().out
        miou_line = next(l for l in text.splitlines() if "mIoU" in l)
        assert miou_line.split()[-1] == "100.00"
        assert "mIoU,1.000000" in out_csv.read_text()

    def test_out_writes_the_summed_confusion_matrix_beside_the_summary(self, corpus, tmp_path):
        gt_dir = corpus / "sequences" / "00" / "labels"
        cm = ["--class-map", corpus / "class_map.csv"]
        pairs = []
        for path in sorted(gt_dir.glob("*.label")):
            gt, _ = io.read_labels(path)
            pred = np.roll(gt, 1)  # disagrees with gt on every class border
            io.write_labels(pred, tmp_path / "pred" / path.name)
            pairs.append((gt, pred))
        num_classes = io.read_class_map(corpus / "class_map.csv").num_classes
        expected = np.zeros((num_classes, num_classes), dtype=np.int64)
        for gt, pred in pairs:
            keep = gt != 0
            np.add.at(expected, (gt[keep], pred[keep]), 1)
        assert expected.sum() > np.trace(expected) > 0

        summary = tmp_path / "report.csv"
        assert run(["eval", "--gt", gt_dir, "--pred", tmp_path / "pred", *cm]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pred"]  # no --out, no files
        assert run(["eval", "--gt", gt_dir, "--pred", tmp_path / "pred", *cm,
                    "--out", summary]) == 0
        written = (tmp_path / "report.confusion.csv").read_text()
        assert written == "".join(",".join(map(str, row)) + "\n" for row in expected.tolist())
        assert "mIoU," in summary.read_text()

    def test_missing_pred_file_is_typed_error(self, corpus, tmp_path):
        labels = corpus / "sequences" / "00" / "labels"
        assert run(["eval", "--gt", labels, "--pred", tmp_path,
                    "--class-map", corpus / "class_map.csv"]) == 1


class TestSlice:
    def test_slice_outputs(self, corpus, tmp_path):
        out = tmp_path / "out"
        base = ["--dataset-root", corpus, "--output-root", out,
                "--class-map", corpus / "class_map.csv"]
        assert run(["lift", *base]) == 0
        assert run(["slice", *base]) == 0
        seq = out / "sequences" / "00"
        cloud = io.read_cloud_bin(corpus / "sequences" / "00" / "velodyne" / "000000.bin")
        sliced = io.read_cloud_bin(seq / "velodyne_fov" / "000000.bin")
        index_map = io.read_tensor(seq / "index_map" / "000000.ptns")
        mask = io.read_tensor(seq / "fov_mask" / "000000.ptns").astype(bool)
        assert index_map.dtype == np.uint32
        assert len(sliced) == int(mask.sum())
        np.testing.assert_allclose(sliced.xyz, cloud.xyz[index_map], atol=0)
        gt, _ = io.read_labels(corpus / "sequences" / "00" / "labels" / "000000.label")
        gt_fov, _ = io.read_labels(seq / "labels_fov" / "000000.label")
        np.testing.assert_array_equal(gt_fov, gt[index_map])

    def test_lift_output_root_serves_as_masks(self, corpus, tmp_path):
        """`slice --masks L` reads L/sequences/NN/fov_mask/, where `lift --output-root L`
        wrote them, per sequence: sequence 01 holds 00's frames under swapped stems."""
        data = tmp_path / "data"
        shutil.copytree(corpus, data)
        seq0, seq1 = data / "sequences" / "00", data / "sequences" / "01"
        shutil.copytree(seq0, seq1)
        for sub, suffix in (("velodyne", ".bin"), ("labels", ".label"), ("probs_2d", ".ptns")):
            a, b = (seq1 / sub / f"{stem}{suffix}" for stem in ("000000", "000001"))
            a.rename(tmp_path / "swap")
            b.rename(a)
            (tmp_path / "swap").rename(b)
        lifted = tmp_path / "lifted"
        assert run(["lift", "--dataset-root", data, "--output-root", lifted]) == 0
        assert run(["slice", "--dataset-root", data, "--output-root", lifted]) == 0
        sliced = tmp_path / "sliced"
        assert run(["slice", "--dataset-root", data, "--output-root", sliced,
                    "--masks", lifted]) == 0
        files = {p.relative_to(sliced) for p in sliced.rglob("*") if p.is_file()}
        assert len(files) == 12  # 2 sequences x 2 frames x (cloud, index map, labels)
        for rel in files:
            assert (sliced / rel).read_bytes() == (lifted / rel).read_bytes(), rel


class TestTta:
    def test_emit_twelve_variants(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert run(["tta", "emit", "--dataset-root", corpus, "--output-root", out]) == 0
        seq = out / "sequences" / "00"
        files = sorted((seq / "tta").glob("000000_v*.bin"))
        assert len(files) == 12
        manifest = json.loads((out / "tta_manifest.json").read_text())
        assert len(manifest) == 12 and manifest[0]["kind"] == "identity"
        cloud = io.read_cloud_bin(corpus / "sequences" / "00" / "velodyne" / "000000.bin")
        v0 = io.read_cloud_bin(files[0])
        np.testing.assert_array_equal(v0.to_array(), cloud.to_array())

    def test_aggregate(self, corpus, tmp_path):
        rng = np.random.default_rng(0)
        data_root = tmp_path / "preds"
        seq = data_root / "sequences" / "00" / "tta"
        tensors = []
        for i in range(12):
            t = rng.dirichlet(np.ones(5), size=40).astype(np.float32)
            tensors.append(t)
            io.write_tensor(t, seq / f"000000_v{i:02d}.ptns")
        out = tmp_path / "agg"
        assert run(["tta", "aggregate", "--dataset-root", data_root,
                    "--output-root", out]) == 0
        merged = io.read_tensor(out / "sequences" / "00" / "probs_agg" / "000000.ptns")
        np.testing.assert_allclose(merged, np.mean(tensors, axis=0), atol=1e-6)


class TestSoupCommand:
    def test_soup_cli(self, tmp_path):
        import sys
        import textwrap
        script = tmp_path / "metric.py"
        script.write_text(textwrap.dedent("""
            import struct, sys
            import numpy as np
            data = open(sys.argv[1], "rb").read()
            _, _, _, ndim = struct.unpack_from("<4sBBI", data, 0)
            w = np.frombuffer(data, dtype="<f4", offset=10 + 4 * ndim)
            print(-abs(float(w.mean()) - 0.5))
            """))
        paths = []
        for i, val in enumerate((0.0, 1.0, 10.0)):
            p = tmp_path / f"w{i}.ptns"
            io.write_tensor(np.array([val], dtype=np.float32), p)
            paths.append(p)
        out = tmp_path / "soup.ptns"
        assert run(["soup", "--candidates", *paths, "--eval-cmd",
                    f"{sys.executable} {script}", "--out", out]) == 0
        np.testing.assert_array_equal(io.read_tensor(out), np.array([0.5], np.float32))
        log = json.loads((str(out) + ".log.json" and (tmp_path / "soup.ptns.log.json")).read_text())
        assert [e["action"] for e in log] == ["seed", "added", "rejected"]


class TestExitCodes:
    def test_even_k_is_config_error(self, corpus, tmp_path):
        assert run(["refine", "--dataset-root", corpus, "--output-root", tmp_path,
                    "--k", "2"]) == 2

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert run(["lift", "--output-root", tmp_path]) == 2

    def test_corrupt_input_is_typed_error(self, corpus, tmp_path):
        bad_root = tmp_path / "bad"
        seq = bad_root / "sequences" / "00"
        (seq / "velodyne").mkdir(parents=True)
        (seq / "velodyne" / "000000.bin").write_bytes(b"\x00" * 7)  # bad length
        (seq / "probs_2d").mkdir()
        (seq / "probs_2d" / "000000.ptns").write_bytes(b"XXXX")
        (seq / "calib.txt").write_text("P2: 1 0 0 0 0 1 0 0 0 0 1 0\nTr: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        assert run(["lift", "--dataset-root", bad_root, "--output-root", tmp_path / "out"]) == 1

    def test_unknown_config_key_exits_two(self, corpus, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"no_such_key": 1}')
        assert run(["lift", "--config", cfg, "--dataset-root", corpus,
                    "--output-root", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("args, key", [
        (["refine", "--k", "0"], "refinement.k"),
        (["lift", "--jobs", "0"], "jobs"),
        (["lift", "--jobs", "-2"], "jobs"),
        (["threshold", "--mode", "static", "--tau", "1.5"], "threshold.tau"),
        (["threshold", "--mode", "class_balanced", "--tau-min", "0.9", "--tau-max", "0.5"],
         "tau_min <= tau_max"),
    ], ids=["k-zero", "jobs-zero", "jobs-negative", "static-tau-above-one", "inverted-taus"])
    def test_bad_flag_is_config_error_naming_key(self, corpus, tmp_path, capsys, args, key):
        data = ["--dataset-root", corpus] if args[0] != "threshold" else []
        assert run([*args, *data, "--output-root", tmp_path / "out",
                    "--class-map", corpus / "class_map.csv"]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["lift", "pipeline"])
    def test_missing_teacher_map_fails_before_any_write(self, corpus, tmp_path, capsys, command):
        root = tmp_path / "data"
        shutil.copytree(corpus, root)
        missing = root / "sequences" / "00" / "probs_2d" / "000001.ptns"
        missing.unlink()
        out = tmp_path / "out"
        assert run([command, "--dataset-root", root, "--output-root", out,
                    "--class-map", root / "class_map.csv"]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["slice", "tta aggregate"])
    def test_missing_input_fails_before_any_write(self, corpus, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "slice":
            assert run(["lift", "--dataset-root", corpus, "--output-root", out]) == 0
            data = corpus
            missing = out / "sequences" / "00" / "fov_mask" / "000001.ptns"
        else:
            data = tmp_path / "preds"
            variants = data / "sequences" / "00" / "tta"
            for stem in ("000000", "000001"):
                for i in range(12):
                    io.write_tensor(np.full((4, 3), 0.25, np.float32),
                                    variants / f"{stem}_v{i:02d}.ptns")
            missing = variants / "000001_v05.ptns"
        missing.unlink()
        before = sorted(out.rglob("*"))
        assert run([*command.split(), "--dataset-root", data, "--output-root", out]) == 1
        assert str(missing) in capsys.readouterr().err
        assert sorted(out.rglob("*")) == before

    def test_non_finite_confidence_names_its_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--dataset-root", corpus, "--output-root", out]
        assert run(["lift", *base]) == 0
        assert run(["refine", *base]) == 0
        conf_path = out / "sequences" / "00" / "confidences" / "000001.ptns"
        conf = io.read_tensor(conf_path)
        conf[0] = np.nan
        io.write_tensor(conf, conf_path)
        assert run(["threshold", "--output-root", out, "--class-map", corpus / "class_map.csv",
                    "--mode", "static", "--tau", "0.5"]) == 1
        assert str(conf_path) in capsys.readouterr().err

    def test_threshold_checks_every_confidence_file_before_any_write(self, corpus, tmp_path,
                                                                      capsys):
        out = tmp_path / "out"
        base = ["--dataset-root", corpus, "--output-root", out]
        cm = ["--class-map", corpus / "class_map.csv"]
        assert run(["lift", *base]) == 0
        assert run(["refine", *base]) == 0
        assert run(["stats", "--output-root", out, *cm]) == 0
        missing = out / "sequences" / "00" / "confidences" / "000001.ptns"
        missing.unlink()
        before = sorted(out.rglob("*"))
        assert run(["threshold", "--output-root", out, *cm]) == 1
        assert str(missing) in capsys.readouterr().err
        assert sorted(out.rglob("*")) == before
        assert not (out / "thresholds.csv").exists()
        assert not (out / "sequences" / "00" / "pseudo_labels").exists()

    def test_old_full_cloud_probs_3d_names_its_file(self, corpus, tmp_path, capsys):
        """probs_3d holds one row per in-view point; a file with one row per
        cloud point (the earlier layout) does not fit and is named."""
        out = tmp_path / "out"
        base = ["--dataset-root", corpus, "--output-root", out]
        assert run(["lift", *base]) == 0
        seq = out / "sequences" / "00"
        path = seq / "probs_3d" / "000000.ptns"
        mask = io.read_tensor(seq / "fov_mask" / "000000.ptns").astype(bool)
        rows = io.read_tensor(path)
        assert rows.shape[0] == mask.sum() < len(mask)
        full = np.zeros((len(mask), rows.shape[1]), dtype=np.float32)
        full[mask] = rows
        io.write_tensor(full, path)
        capsys.readouterr()
        assert run(["refine", *base]) == 1
        err = capsys.readouterr().err
        assert f"{path}: shape {full.shape} does not fit" in err
        assert not (seq / "refined_labels" / "000000.label").exists()

    def test_threshold_without_histogram_exits_two(self, corpus, tmp_path):
        out = tmp_path / "out"
        base = ["--dataset-root", corpus, "--output-root", out,
                "--class-map", corpus / "class_map.csv"]
        assert run(["lift", *base]) == 0
        assert run(["refine", *base]) == 0
        assert run(["threshold", "--output-root", out,
                    "--class-map", corpus / "class_map.csv"]) == 2

    @pytest.mark.parametrize("row, lineno, message", [
        ("1,-50000", 2, "negative count -50000"),
        ("1,7", 6, "duplicate class 1"),
    ], ids=["negative-count", "repeated-class"])
    def test_bad_histogram_row_is_config_error_naming_its_line(self, corpus, tmp_path, capsys,
                                                               row, lineno, message):
        out = tmp_path / "out"
        cm = ["--output-root", out, "--class-map", corpus / "class_map.csv"]
        assert run(["pipeline", "--dataset-root", corpus, *cm]) == 0
        hist = out / "histogram.csv"
        lines = hist.read_text().splitlines()
        lines[lineno - 1:lineno] = [row]  # replaces class 1's count, or adds a 6th line
        hist.write_text("\n".join(lines) + "\n")
        thresholds = (out / "thresholds.csv").read_bytes()
        capsys.readouterr()
        assert run(["threshold", *cm]) == 2
        assert f"{hist}:{lineno}: {message}" in capsys.readouterr().err
        assert (out / "thresholds.csv").read_bytes() == thresholds

    @pytest.mark.parametrize("subdir", ["fov_mask", "probs_3d"])
    def test_lift_output_not_fitting_the_cloud_names_its_file(self, corpus, tmp_path, capsys,
                                                              subdir):
        out = tmp_path / "out"
        base = ["--dataset-root", corpus, "--output-root", out]
        assert run(["lift", *base]) == 0
        path = out / "sequences" / "00" / subdir / "000000.ptns"
        io.write_tensor(io.read_tensor(path)[:-5], path)
        capsys.readouterr()
        assert run(["refine", *base]) == 1
        err = capsys.readouterr().err
        assert f"{path}: shape" in err and "does not fit" in err


def cut_rows(path):
    """Drop the last 3 rows of a tensor, or the last 3 labels of a label file."""
    if path.suffix == ".label":
        path.write_bytes(path.read_bytes()[:-12])
    else:
        io.write_tensor(io.read_tensor(path)[:-3], path)


class TestFilesThatDoNotFit:
    """Every file a command reads for a scan is checked against the shape that
    scan expects: a misfit exits 1 naming the file, never as a config error."""

    @pytest.mark.parametrize("row", [
        "lift-teacher-map", "pipeline-teacher-map", "lift-teacher-map-no-classes",
        "pipeline-teacher-map-no-classes", "refine-fov-mask", "refine-probs-3d",
        "refine-knn-graph", "slice-fov-mask", "slice-labels", "threshold-confidences",
        "threshold-static-refined-labels", "eval-pred", "eval-masks", "tta-aggregate-variant",
    ])
    def test_misfit_exits_one_naming_the_file(self, corpus, piped, tmp_path, capsys, row):
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(corpus, data)
        shutil.copytree(piped, out)
        src, dst = data / "sequences" / "00", out / "sequences" / "00"
        roots = ["--dataset-root", data, "--output-root", out]
        cm = ["--class-map", data / "class_map.csv"]
        evaluate = ["eval", "--gt", src / "labels", "--pred", dst / "pseudo_labels", *cm]
        command, path = {
            "lift-teacher-map": (["lift", *roots], src / "probs_2d" / "000001.ptns"),
            "pipeline-teacher-map": (["pipeline", *roots, *cm], src / "probs_2d" / "000001.ptns"),
            "lift-teacher-map-no-classes": (["lift", *roots], src / "probs_2d" / "000001.ptns"),
            "pipeline-teacher-map-no-classes": (["pipeline", *roots, *cm],
                                                src / "probs_2d" / "000001.ptns"),
            "refine-fov-mask": (["refine", *roots], dst / "fov_mask" / "000001.ptns"),
            "refine-probs-3d": (["refine", *roots], dst / "probs_3d" / "000001.ptns"),
            "refine-knn-graph": (["refine", *roots], *(dst / "knn" / "000001").glob("*.ptns")),
            "slice-fov-mask": (["slice", *roots], dst / "fov_mask" / "000001.ptns"),
            "slice-labels": (["slice", *roots], src / "labels" / "000001.label"),
            "threshold-confidences": (["threshold", "--output-root", out, *cm],
                                      dst / "confidences" / "000001.ptns"),
            "threshold-static-refined-labels": (
                ["threshold", "--output-root", out, *cm, "--mode", "static", "--tau", "0.5"],
                dst / "refined_labels" / "000001.label"),
            "eval-pred": (evaluate, dst / "pseudo_labels" / "000001.label"),
            "eval-masks": ([*evaluate, "--masks", dst / "fov_mask"],
                           dst / "fov_mask" / "000001.ptns"),
            "tta-aggregate-variant": (["tta", "aggregate", *roots], src / "tta" / "000001_v05.ptns"),
        }[row]
        if row.startswith("tta"):
            for stem in ("000000", "000001"):
                for i in range(12):
                    io.write_tensor(np.full((4, 3), 0.25, np.float32),
                                    src / "tta" / f"{stem}_v{i:02d}.ptns")
        if row.endswith("no-classes"):  # (H, W, 0)
            io.write_tensor(np.zeros((*io.read_tensor(path).shape[:2], 0), np.float32), path)
        elif "teacher-map" in row:  # (H, W) instead of (H, W, C)
            io.write_tensor(io.read_tensor(path)[..., 0].copy(), path)
        elif row.startswith("threshold-static"):  # a class outside the class map
            labels, _ = io.read_labels(path)
            labels[0] = io.read_class_map(data / "class_map.csv").num_classes
            io.write_labels(labels, path)
        else:
            cut_rows(path)
        capsys.readouterr()
        assert run(command) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "config error" not in err


def two_camera_scan(tmp_path, map2, map3):
    """A 1-scan corpus seen by co-located cameras 2 and 3 with these teacher
    maps, and a config selecting both; returns (root, config)."""
    root = tmp_path / "data"
    seq = root / "sequences" / "00"
    (seq / "velodyne").mkdir(parents=True)
    from seglift.core import PointCloud
    xyz = np.array([[0.0, 0.0, 5.0], [0.1, 0.0, 4.0]])
    io.write_cloud_bin(PointCloud(xyz, np.array([0.5, 0.5])),
                       seq / "velodyne" / "000000.bin")
    p_line = "1 0 0 0 0 1 0 0 0 0 1 0"
    (seq / "calib.txt").write_text(
        f"P2: {p_line}\nP3: {p_line}\nTr: 1 0 0 0 0 1 0 0 0 0 1 0\n")
    io.write_tensor(map2, seq / "probs_2d" / "cam2" / "000000.ptns")
    io.write_tensor(map3, seq / "probs_2d" / "cam3" / "000000.ptns")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"cameras": [2, 3], "image_size": [2, 2]}))
    return root, cfg


class TestMultiCamera:
    def test_lift_averages_overlapping_cameras(self, tmp_path):
        # Two co-located cameras with identical geometry but different
        # teacher maps: overlapping points get the mean row.
        map2 = np.zeros((2, 2, 3), dtype=np.float32)
        map2[:, :, 1] = 1.0
        map3 = np.zeros((2, 2, 3), dtype=np.float32)
        map3[:, :, 2] = 1.0
        root, cfg = two_camera_scan(tmp_path, map2, map3)
        out = tmp_path / "out"
        assert run(["lift", "--config", cfg, "--dataset-root", root,
                    "--output-root", out]) == 0
        probs = io.read_tensor(out / "sequences" / "00" / "probs_3d" / "000000.ptns")
        mask = io.read_tensor(out / "sequences" / "00" / "fov_mask" / "000000.ptns")
        assert mask.tolist() == [1, 1]
        np.testing.assert_allclose(probs, [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])

    def test_class_count_mismatch_names_the_later_map(self, tmp_path, capsys):
        root, cfg = two_camera_scan(tmp_path, np.full((2, 2, 3), 1 / 3, np.float32),
                                    np.full((2, 2, 4), 0.25, np.float32))
        out = tmp_path / "out"
        assert run(["lift", "--config", cfg, "--dataset-root", root,
                    "--output-root", out]) == 1
        path = root / "sequences" / "00" / "probs_2d" / "cam3" / "000000.ptns"
        assert f"{path}: shape (2, 2, 4) does not fit the expected (2, 2, 3)" in capsys.readouterr().err
        assert not (out / "sequences" / "00" / "probs_3d").exists()


def graphs(out):
    """Stored neighbor graph files of sequence 00, as `<stem>/<key>.ptns`."""
    knn = out / "sequences" / "00" / "knn"
    return sorted(p.relative_to(knn).as_posix() for p in knn.glob("*/*.ptns"))


@pytest.fixture
def searches(monkeypatch):
    """Cloud sizes of the refinements that built a kd-tree (graph misses), in call order."""
    calls = []
    build = seglift.cli.build_tree

    def counted(cloud, mask=None):
        calls.append(len(cloud))
        return build(cloud, mask)

    monkeypatch.setattr(seglift.cli, "build_tree", counted)
    return calls


class TestKnnGraphReuse:
    """`refine` stores each scan's neighbor graph under knn/ and reuses it
    while the in-FOV points, k and include_self are unchanged."""

    @pytest.fixture(scope="class")
    def lifted(self, corpus, tmp_path_factory):
        out = tmp_path_factory.mktemp("lifted")
        assert run(["lift", "--dataset-root", corpus, "--output-root", out]) == 0
        return out

    def refine(self, root, out, *flags, config=None):
        cfg = ["--config", config] if config else []
        return run(["refine", *cfg, "--dataset-root", root, "--output-root", out, *flags])

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("scheme", ["majority", "distance_weighted", "confidence_avg"])
    def test_hit_and_miss_trees_are_identical(self, corpus, lifted, tmp_path, searches,
                                              scheme, include_self):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"refinement": {"include_self": include_self}}))
        miss, hit = tmp_path / "miss", tmp_path / "hit"
        shutil.copytree(lifted, miss)
        shutil.copytree(lifted, hit)
        assert self.refine(corpus, miss, "--scheme", scheme, config=cfg) == 0
        other = "majority" if scheme != "majority" else "confidence_avg"
        assert self.refine(corpus, hit, "--scheme", other, config=cfg) == 0
        assert len(searches) == 4
        assert self.refine(corpus, hit, "--scheme", scheme, config=cfg) == 0
        assert len(searches) == 4  # the second refine of `hit` searched nothing
        assert graphs(miss) == graphs(hit) and len(graphs(hit)) == 2
        assert tree_digest(miss) == tree_digest(hit)

    @pytest.mark.parametrize("change", ["k", "include_self", "one point", "fov mask"])
    def test_a_changed_key_forces_a_search(self, corpus, lifted, tmp_path, searches, change):
        root, out, fresh = tmp_path / "data", tmp_path / "out", tmp_path / "fresh"
        shutil.copytree(corpus, root)
        shutil.copytree(lifted, out)
        assert self.refine(root, out) == 0
        before = graphs(out)
        seq = out / "sequences" / "00"
        kept = (seq / "knn" / before[1]).stat()
        flags, cfg = [], None
        if change == "k":
            flags = ["--k", "5"]
        elif change == "include_self":
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"refinement": {"include_self": False}}))
        elif change == "one point":
            velo = root / "sequences" / "00" / "velodyne" / "000000.bin"
            cloud = io.read_cloud_bin(velo)
            inside = np.flatnonzero(io.read_tensor(seq / "fov_mask" / "000000.ptns"))[0]
            cloud.xyz[inside] += 1e-3
            io.write_cloud_bin(cloud, velo)
        else:  # one more point in view, with a zero probs_3d row
            mask_path, rows_path = seq / "fov_mask" / "000000.ptns", seq / "probs_3d" / "000000.ptns"
            mask = io.read_tensor(mask_path)
            point = np.flatnonzero(mask == 0)[0]
            mask[point] = 1
            io.write_tensor(mask, mask_path)
            io.write_tensor(np.insert(io.read_tensor(rows_path), mask[:point].sum(), 0.0, axis=0),
                            rows_path)
        del searches[:]
        shutil.copytree(out, fresh)
        shutil.rmtree(fresh / "sequences" / "00" / "knn")
        assert self.refine(root, out, *flags, config=cfg) == 0
        after = graphs(out)
        assert len(after) == 2 and after[0] != before[0]
        if change in ("one point", "fov mask"):  # the other scan's graph is reused untouched
            assert len(searches) == 1 and after[1] == before[1]
            assert (seq / "knn" / after[1]).stat().st_mtime_ns == kept.st_mtime_ns
        else:
            assert len(searches) == 2 and after[1] != before[1]
        assert self.refine(root, fresh, *flags, config=cfg) == 0
        assert tree_digest(out) == tree_digest(fresh)

    @pytest.mark.parametrize("damage", ["shape", "index", "dtype", "garbage"])
    def test_malformed_graph_is_typed_error_naming_it(self, corpus, lifted, tmp_path, capsys,
                                                      damage):
        out = tmp_path / "out"
        shutil.copytree(lifted, out)
        assert self.refine(corpus, out) == 0
        path = out / "sequences" / "00" / "knn" / graphs(out)[0]
        graph = io.read_tensor(path)
        if damage == "shape":
            io.write_tensor(graph[:, :-2].copy(), path)
        elif damage == "index":
            graph[3, 4] = graph.shape[0]
            io.write_tensor(graph, path)
        elif damage == "dtype":
            io.write_tensor(graph.astype(np.float32), path)
        else:
            path.write_bytes(b"not a tensor")
        capsys.readouterr()
        assert self.refine(corpus, out) == 1
        assert str(path) in capsys.readouterr().err

    def test_jobs_do_not_change_the_tree(self, corpus, tmp_path):
        trees = []
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            assert run(["pipeline", "--dataset-root", corpus, "--output-root", out,
                        "--class-map", corpus / "class_map.csv", "--jobs", jobs]) == 0
            assert len(graphs(out)) == 2
            trees.append(tree_digest(out))
        assert trees[0] == trees[1]

    def test_graph_layout_and_sparse_scans(self, tmp_path):
        root = tmp_path / "data"
        write_sparse_dataset(root)
        out = tmp_path / "out"
        assert run(["pipeline", "--dataset-root", root, "--output-root", out,
                    "--class-map", root / "class_map.csv"]) == 0
        # k=19 clamps to the 3 in-view points of 000000; 000001 sees none and stores nothing.
        [name] = graphs(out)
        stem, file = name.split("/")
        digest, suffix = file.split(".")
        assert stem == "000000" and len(digest) == 16 and suffix == "ptns"
        assert sorted(p.name for p in (out / "sequences" / "00" / "knn").iterdir()) == [stem]
        graph = io.read_tensor(out / "sequences" / "00" / "knn" / name)
        assert graph.dtype == np.uint32 and graph.tolist() == [[0, 1, 2], [1, 0, 2], [2, 0, 1]]


class TestTeacherMapValidation:
    @pytest.mark.parametrize("command", ["lift", "pipeline"])
    @pytest.mark.parametrize("row", [[-0.5, 1.0, 0.5], [1.0, 1.0, 1.0], [np.nan, 0.5, 0.5]],
                             ids=["negative", "sums-to-three", "nan"])
    def test_bad_sampled_row_names_map_and_pixel(self, tmp_path, capsys, command, row):
        root = tmp_path / "data"
        write_sparse_dataset(root)
        teacher = root / "sequences" / "00" / "probs_2d" / "000000.ptns"
        prob_map = io.read_tensor(teacher)
        prob_map[1, 0] = row  # sampled by the in-view point (0.5, 1.5, 1.0)
        io.write_tensor(prob_map, teacher)
        assert run([command, "--dataset-root", root, "--output-root", tmp_path / "out",
                    "--class-map", root / "class_map.csv"]) == 1
        assert f"{teacher}: pixel (u=0, v=1)" in capsys.readouterr().err


def fresh_python(code, *args, blas=None) -> str:
    """Last stdout line of `code` run in a fresh interpreter on this checkout's
    seglift, with OPENBLAS_NUM_THREADS set to `blas` or, when None, unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(seglift.__file__).parents[1])
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[-2]


FRESH_MAIN = """\
import os, sys
from seglift.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
modules = sorted(sys.modules)  # before this report's own json import
import json
task = "/proc/self/task"
print(json.dumps({"rc": rc, "modules": modules,
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir(task)) if os.path.isdir(task) else None}))
"""


def fresh_main(args, blas=None) -> dict:
    """`main(args)` in a fresh interpreter: its exit code, the modules loaded,
    its OPENBLAS_NUM_THREADS and its OS thread count when it returns."""
    return json.loads(fresh_python(FRESH_MAIN, *args, blas=blas))


class TestStartupImports:
    """Each command imports only what it runs: a stray top-level import of
    the kd-tree, the synthetic generator, the process pool or the modules of
    `soup`, `tta` and `--config` would cost every command its load time.  A
    kd-tree loads scipy's extension alone: scipy.spatial's __init__ would
    also load scipy.linalg and scipy.special.  The numpy submodules that
    scipy's array-API shim touches while the kd-tree loads are deferred, so
    their code never runs."""

    KD_TREE = "scipy.spatial._ckdtree"
    NUMPY_DEFERRED = ("numpy.f2py.crackfortran", "numpy.testing._private.utils", "numpy.ma.core")
    LAZY = (KD_TREE, "scipy.spatial", "scipy.linalg", "scipy.special", "seglift.synthetic",
            "concurrent.futures.process", "seglift.soup", "seglift.tta", "seglift.transforms",
            "subprocess", "shlex", "json", *NUMPY_DEFERRED)
    SPARSE = {"subprocess"}  # scipy._lib, which the kd-tree needs, imports it

    def loaded(self, args):
        """The LAZY modules present in a fresh interpreter after `main(args)` returns."""
        report = fresh_main(args)
        assert report["rc"] == 0
        return set(self.LAZY) & set(report["modules"])

    @pytest.mark.parametrize("command", ["stats", "threshold", "eval", "lift", "--help"])
    def test_commands_without_a_tree_skip_lazy_modules(self, corpus, piped, tmp_path, command):
        cm = ["--class-map", corpus / "class_map.csv"]
        args = {
            "stats": ["stats", "--output-root", piped, *cm],
            "threshold": ["threshold", "--output-root", piped, *cm],
            "eval": ["eval", "--gt", corpus / "sequences" / "00" / "labels",
                     "--pred", piped / "sequences" / "00" / "pseudo_labels", *cm],
            "lift": ["lift", "--dataset-root", corpus, "--output-root", tmp_path / "out"],
            "--help": ["--help"],
        }[command]
        assert self.loaded(args) == set()

    def test_refine_loads_only_the_kd_tree_extension(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert run(["lift", "--dataset-root", corpus, "--output-root", out]) == 0
        assert self.loaded(["refine", "--dataset-root", corpus, "--output-root", out]) \
            - self.SPARSE == {self.KD_TREE}
        # The graphs that refine stored serve another scheme without a kd-tree.
        assert self.loaded(["refine", "--dataset-root", corpus, "--output-root", out,
                            "--scheme", "distance_weighted"]) == set()

    def test_one_scan_forks_no_pool(self, tmp_path):
        data = tmp_path / "data"
        assert run(["synth", "--out", data, "--scenes", "1", "--seed", "3"]) == 0
        report = fresh_main(["pipeline", "--dataset-root", data, "--output-root", tmp_path / "out",
                             "--class-map", data / "class_map.csv", "--jobs", "2"])
        assert report["rc"] == 0 and "concurrent.futures.process" not in report["modules"]


class TestKdTreeLoader:
    """`refinement._ckdtree` loads scipy's kd-tree extension under its own
    module name, falls back to the public import when scipy has moved it,
    and leaves nothing behind when the load fails.  It defers numpy
    submodules that nothing reads during the load; their first use, from
    any thread, is an ordinary import.  Threads that race to the first
    load all get the finished class."""

    NAME = TestStartupImports.KD_TREE

    @pytest.fixture
    def find_spec(self, monkeypatch):
        """Unload the extension; return a setter for what the finder yields for it."""
        import scipy.spatial  # noqa: F401 -- its first load, if any, before it is unloaded
        monkeypatch.delitem(sys.modules, self.NAME)
        real = importlib.machinery.PathFinder.find_spec

        def patch(spec):
            monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", staticmethod(
                lambda name, path=None, target=None:
                    spec if name == self.NAME else real(name, path, target)))
        return patch

    def test_a_later_public_import_binds_the_class_build_tree_used(self):
        tree = build_tree(PointCloud(np.eye(3), np.zeros(3)))
        from scipy.spatial import cKDTree
        assert type(tree._kd) is cKDTree
        assert sys.modules[self.NAME].cKDTree is cKDTree

    def test_no_module_at_the_path_falls_back_to_the_public_import(self, find_spec, monkeypatch):
        public = type("cKDTree", (), {})
        monkeypatch.setattr(sys.modules["scipy.spatial"], "cKDTree", public)
        find_spec(None)
        assert refinement._ckdtree() is public

    def test_a_failed_load_leaves_no_module_behind(self, find_spec):
        seen = []

        class Broken:
            def create_module(self, spec):
                return None

            def exec_module(self, module):
                seen.append(sys.modules.get(TestKdTreeLoader.NAME) is module)
                raise ImportError("broken extension")

        find_spec(importlib.util.spec_from_loader(self.NAME, Broken()))
        with pytest.raises(ImportError, match="broken extension"):
            refinement._ckdtree()
        assert seen == [True]  # registered while it ran, as a circular import needs
        assert self.NAME not in sys.modules

    def test_threads_racing_to_the_first_load_all_search(self):
        code = ("import sys, threading\n"
                "sys.setswitchinterval(1e-5)\n"
                "import numpy as np\n"
                "from seglift import PointCloud, build_tree\n"
                "cloud = PointCloud(np.random.default_rng(0).random((200, 3)), np.zeros(200))\n"
                "done = []\n"
                "def search():\n"
                "    done.append(build_tree(cloud).neighbors(5)[0].shape)\n"
                "threads = [threading.Thread(target=search) for _ in range(4)]\n"
                "for t in threads: t.start()\n"
                "for t in threads: t.join(60)\n"
                "print(done == [(200, 5)] * 4, any(t.is_alive() for t in threads))\n")
        assert fresh_python(code) == "True False"

    RACE = ("import os, sys, threading\n"
            "import numpy as np\n"
            "from seglift import refinement\n"
            "refinement._ckdtree()\n"
            "sys.setswitchinterval(1e-5)\n"
            "start, done = threading.Barrier(4), []\n"
            "def race(i):\n"
            "    start.wait()\n"
            "    try:\n"
            "        done.append(bool(use(i)))\n"
            "    except BaseException as exc:\n"
            "        done.append(type(exc).__name__)\n"
            "threads = [threading.Thread(target=race, args=(i,), daemon=True) for i in range(4)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(10)\n"
            "print(done, any(t.is_alive() for t in threads), flush=True)\n"
            "os._exit(0)\n")

    @pytest.mark.parametrize("use", ["np.polynomial.Polynomial([1, 2])(1) == 3",
                                     "np.ma.masked_array([1, 2], [0, 1]).count() == 1"])
    def test_threads_racing_to_a_deferred_module_get_it_whole(self, use):
        code = self.RACE.replace("def race", f"def use(i):\n    return {use}\ndef race")
        assert fresh_python(code) == "[True, True, True, True] False"

    def test_a_direct_submodule_import_racing_a_deferred_module_never_hangs(self):
        # Python's own import locks see every wait, so no thread hangs.  They
        # may raise in one of two threads that first import a package and its
        # submodule at once, as without seglift, so only the outcome is asserted.
        use = ("def use(i):\n"
               "    if i % 2: import numpy.ma.core as m\n"
               "    else: m = np.ma\n"
               "    return m.masked_array([1, 2], [0, 1]).count() == 1\n")
        done, alive = fresh_python(self.RACE.replace("def race", use + "def race")).rsplit(" ", 1)
        assert alive == "False" and len(ast.literal_eval(done)) == 4

    def test_deferred_numpy_submodules_load_on_first_use(self):
        code = ("import sys\n"
                "import numpy\n"
                "import numpy.ma\n"
                "ma = numpy.ma\n"
                "from seglift import PointCloud, build_tree, refinement\n"
                "tree = build_tree(PointCloud(numpy.eye(3), numpy.zeros(3)))\n"
                "assert 'numpy.testing._private.utils' not in sys.modules\n"
                "assert numpy.ma is ma and sys.modules['numpy.ma'] is ma\n"
                "assert numpy.ma.masked_array([1, 2], [0, 1]).count() == 1\n"
                "from numpy.polynomial.polynomial import Polynomial\n"  # as scipy.signal imports
                "assert numpy.polynomial.Polynomial is Polynomial\n"
                "assert numpy.polynomial.Polynomial([1, 2])(1) == 3\n"
                "import numpy.testing._private.utils as utils\n"
                "assert numpy.testing.assert_array_equal is utils.assert_array_equal\n"
                "numpy.testing.assert_array_equal([1, 2], [1, 2])\n"
                "rec = numpy.rec\n"
                "rec.seen = True\n"  # a stand-in passes a set attribute to the module
                "assert sys.modules['numpy.rec'].seen and numpy.rec is not rec\n"
                "import numpy.f2py\n"
                "from scipy.spatial import cKDTree\n"
                "print(callable(numpy.f2py.run_main), type(tree._kd) is cKDTree,\n"
                "      refinement._ckdtree() is cKDTree)\n")
        assert fresh_python(code) == "True True True"


class TestBlasThreads:
    """The CLI pins OpenBLAS to one thread before numpy loads it: no command
    makes a BLAS call, so a helper thread could only spin.  A caller's value
    wins, and `soup` runs its metric command in the caller's environment."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are read from /proc")
    @pytest.mark.parametrize("command", ["pipeline", "refine", "stats"])
    def test_commands_end_with_one_thread(self, corpus, tmp_path, command):
        out = tmp_path / "out"
        data = ["--dataset-root", corpus, "--output-root", out]
        cm = ["--class-map", corpus / "class_map.csv"]
        if command != "pipeline":
            assert run(["lift", *data]) == 0
        if command == "stats":
            assert run(["refine", *data]) == 0
        args = {"pipeline": ["pipeline", *data, *cm, "--jobs", "1"],
                "refine": ["refine", *data],  # no knn/ yet: a graph miss builds a tree
                "stats": ["stats", "--output-root", out, *cm]}[command]
        report = fresh_main(args)
        assert (report["rc"], report["blas"], report["threads"]) == (0, "1", 1)
        modules = set(report["modules"])
        assert (TestStartupImports.KD_TREE in modules) == (command != "stats")
        assert not modules & {"scipy.spatial", "scipy.linalg", "scipy.special"}

    def test_pin_defaults_to_one_and_a_caller_value_wins(self):
        assert fresh_main(["--help"])["blas"] == "1"
        assert fresh_main(["--help"], blas="2")["blas"] == "2"

    def test_package_import_loads_no_numpy_and_leaves_the_environment(self):
        code = ("import os, sys\n"
                "before = dict(os.environ)\n"
                "import seglift\n"
                "assert 'numpy' not in sys.modules\n"
                "assert set(seglift.__all__) <= set(dir(seglift))\n"
                "from seglift import *\n"
                "assert lift_probs is seglift.lift_probs and 'seglift.projection' in sys.modules\n"
                "print(dict(os.environ) == before, 'seglift.cli' in sys.modules)\n")
        assert fresh_python(code) == "True False"

    def test_soup_runs_its_metric_command_in_the_caller_environment(self, tmp_path):
        seen = tmp_path / "seen.txt"
        script = tmp_path / "metric.py"
        script.write_text("import os\n"
                          f"with open({str(seen)!r}, 'a') as fh:\n"
                          "    fh.write(os.environ.get('OPENBLAS_NUM_THREADS', 'unset') + '\\n')\n"
                          "print(1.0)\n")
        weights = tmp_path / "w.ptns"
        io.write_tensor(np.zeros(1, dtype=np.float32), weights)
        for blas, pinned in ((None, "1"), ("2", "2")):
            report = fresh_main(["soup", "--candidates", weights, "--out", tmp_path / "soup.ptns",
                                 "--eval-cmd", f"{sys.executable} {script}"], blas=blas)
            assert (report["rc"], report["blas"]) == (0, pinned)  # the soup process itself
        assert seen.read_text().split() == ["unset", "2"]


class TestEntry:
    """`python -m seglift.cli` and the console script end in `cli.entry`: the
    exit code and output of `main()`, without the interpreter's teardown."""

    def seglift(self, *args, stdout=subprocess.PIPE):
        """(exit code, stdout, stderr) of `python -m seglift.cli args` on this checkout,
        with stdout block-buffered when it is a file, as by default."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(Path(seglift.__file__).parents[1]), COLUMNS="80")
        proc = subprocess.run([sys.executable, "-m", "seglift.cli", *map(str, args)], env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def test_help_prints_the_full_usage(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert self.seglift("--help") == (0, seglift.cli.build_parser().format_help(), "")

    def test_unknown_flag_exits_two(self):
        code, out, err = self.seglift("stats", "--no-such-flag")
        assert (code, out) == (2, "") and "unrecognized arguments: --no-such-flag" in err

    def test_config_error_exits_two(self, tmp_path):
        code, _, err = self.seglift("lift", "--dataset-root", tmp_path / "none",
                                    "--output-root", tmp_path / "out")
        assert (code, err) == (2, f"seglift: config error: {tmp_path / 'none'}: "
                                  "no sequences/ directory\n")

    def test_typed_error_exits_one_naming_the_file(self, piped, tmp_path):
        cmap = tmp_path / "class_map.csv"
        cmap.write_text("0,unlabeled\n2,car\n")
        code, _, err = self.seglift("stats", "--output-root", piped, "--class-map", cmap)
        assert (code, err) == (1, f"seglift: error: {cmap}: class ids must be dense 0..1\n")

    def test_redirected_stdout_is_complete(self, corpus, piped, tmp_path, capsys):
        out, log = tmp_path / "out", tmp_path / "stdout.txt"
        shutil.copytree(piped, out)
        args = ["stats", "--output-root", out, "--class-map", corpus / "class_map.csv"]
        with open(log, "w") as fh:
            code, _, err = self.seglift(*args, stdout=fh)
        capsys.readouterr()
        assert run(args) == 0
        assert (code, log.read_text(), err) == (0, capsys.readouterr().out, "")
        assert log.read_text().startswith("stats: histogram over ")

    def test_main_returns_in_process(self, corpus, piped, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "_exit", lambda code: pytest.fail(f"os._exit({code})"))
        out = tmp_path / "out"
        shutil.copytree(piped, out)
        assert run(["stats", "--output-root", out, "--class-map", corpus / "class_map.csv"]) == 0
        assert run(["lift", "--dataset-root", tmp_path / "none", "--output-root", out]) == 2

    def test_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"seglift": "seglift.cli:entry"}
