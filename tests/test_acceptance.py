"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run pytest with -s
or read captured output).  Criteria that need data share one synthetic
corpus: 10 scenes, border error rate 0.5, body error rate 0.05, seed
20250.  Absolute quality numbers from real-sensor datasets are not
reproducible here and are not asserted; mechanism-level properties
(oracle equality, exactness, monotone trends, determinism) are.
"""

import hashlib
import sys
import time
from functools import partial

import numpy as np
import pytest

from oracles import (
    class_thresholds_scalar,
    confidence_avg_brute,
    distance_weighted_brute,
    in_frustum_scalar,
    knn_brute,
    majority_brute,
)
from seglift import io
from seglift.cli import main as cli_main
from seglift.core import CalibrationRig, ClassMap, PointCloud
from seglift.errors import (
    BadMagic,
    LengthError,
    ParseError,
    SizeMismatch,
    UnsupportedVersion,
)
from seglift.evaluation import ConfusionMatrix, accumulate, iou, report
from seglift.projection import fov_mask, lift_probs, slice_cloud, project_points
from seglift.refinement import (
    build_tree,
    refine_confidence_avg,
    refine_distance_weighted,
    refine_majority,
)
from seglift.soup import evaluate_weights, greedy_soup
from seglift.synthetic import generate_corpus
from seglift.thresholding import (
    ThresholdConfig,
    apply_threshold,
    class_thresholds,
    histogram,
    static_thresholds,
)

CORPUS_SCENES = 10
CORPUS_SEED = 20250
CORPUS_BORDER = 0.5
CORPUS_BODY = 0.05


class Check:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, label, budget_s=None):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"{self.label}: took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    generate_corpus(root, num_scenes=CORPUS_SCENES, seed=CORPUS_SEED,
                    error_rate_border=CORPUS_BORDER, error_rate_body=CORPUS_BODY)
    return root


@pytest.fixture(scope="module")
def lifted_corpus(corpus):
    """Per-scan (cloud, gt, lifted in-view rows, mask) tuples read back through the I/O layer."""
    seq = corpus / "sequences" / "00"
    scans = []
    for stem in sorted(p.stem for p in (seq / "velodyne").glob("*.bin")):
        cloud = io.read_cloud_bin(seq / "velodyne" / f"{stem}.bin")
        gt = io.read_labels(seq / "labels" / f"{stem}.label")
        prob_map = io.read_tensor(seq / "probs_2d" / f"{stem}.ptns")
        rig = io.read_calib(seq / "calib.txt",
                            image_size=(prob_map.shape[1], prob_map.shape[0]))
        rows, mask = lift_probs(prob_map, cloud, rig)
        scans.append((cloud, gt, rows.astype(np.float64), mask))
    return scans


@pytest.fixture(scope="module")
def refined_corpus(lifted_corpus):
    """Confidence-averaged (k=19) labels and confidences per scan."""
    out = []
    for cloud, gt, rows, mask in lifted_corpus:
        idx, _ = build_tree(cloud.xyz[mask.index_map]).neighbors(19, True)
        winners, refined = refine_confidence_avg(rows, idx)
        labels = np.zeros(len(cloud), dtype=np.uint16)
        labels[mask.index_map] = winners
        conf = np.zeros(len(cloud))
        conf[mask.index_map] = refined.max(axis=1)
        out.append((gt, labels, conf, mask))
    return out


def test_criterion_1_class_balanced_threshold_formula():
    with Check("1 class-balanced thresholds match the scalar reference", budget_s=1.0):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = int(rng.integers(2, 16))
            counts = rng.integers(0, 100_000, size=c)
            counts[1 + int(rng.integers(0, c - 1))] += 1
            lo = float(rng.uniform(0.0, 1.0))
            hi = float(rng.uniform(lo, 1.0))
            cfg = ThresholdConfig(lo, hi)
            taus = class_thresholds(counts, cfg)
            ref = class_thresholds_scalar(counts.tolist(), lo, hi)
            np.testing.assert_allclose(taus, ref, atol=1e-12, rtol=0)

            real = counts[1:]
            majority = 1 + int(np.argmax(real))
            assert taus[majority] == hi  # ratio 1 -> tau_max exactly
            zeros = np.flatnonzero(counts[1:] == 0) + 1
            assert np.all(taus[zeros] == lo)  # ratio 0 -> tau_min exactly


def test_criterion_2_knn_oracle_equivalence():
    with Check("2 refinement schemes match the brute-force oracle bit-exactly",
               budget_s=30.0):
        rng = np.random.default_rng(11)
        ks = (1, 3, 19, 23)
        for cloud_i in range(50):
            n = int(rng.integers(30, 501))
            xyz = rng.uniform(-12, 12, (n, 3))
            probs = rng.dirichlet(np.ones(5), size=n)
            cloud = PointCloud(xyz, rng.uniform(0, 1, n))
            tree = build_tree(cloud.xyz)
            # one exhaustive ranking per cloud; k-neighborhoods are prefixes
            bidx_all, bdist_all = knn_brute(xyz, min(max(ks), n))
            for k in ks:
                if k > n:
                    continue
                idx, dist = tree.neighbors(k, True)
                bidx, bdist = bidx_all[:, :k], bdist_all[:, :k]
                np.testing.assert_array_equal(refine_majority(probs, idx),
                                              majority_brute(probs, bidx))
                np.testing.assert_array_equal(refine_distance_weighted(probs, idx, dist),
                                              distance_weighted_brute(probs, bidx, bdist))
                labels, refined = refine_confidence_avg(probs, idx)
                blabels, brefined = confidence_avg_brute(probs, bidx)
                np.testing.assert_array_equal(labels, blabels)
                np.testing.assert_array_equal(refined, brefined)


def test_criterion_3_refinement_improves_noisy_corpus(lifted_corpus):
    with Check("3 confidence averaging (k=19) gains >= 2 mIoU points; k=1 is identity",
               budget_s=120.0):
        num_classes = 5
        cm_base = ConfusionMatrix(num_classes)
        cms = {scheme: ConfusionMatrix(num_classes)
               for scheme in ("confidence_avg", "majority", "distance_weighted")}
        for cloud, gt, rows, mask in lifted_corpus:
            def full(winners):  # one label per cloud point, ignore out of view
                labels = np.zeros(len(cloud), dtype=np.uint16)
                labels[mask.index_map] = winners
                return labels

            base = full(rows.argmax(axis=1))
            tree = build_tree(cloud.xyz[mask.index_map])
            idx, dist = tree.neighbors(19, True)
            k1, _ = refine_confidence_avg(rows, tree.neighbors(1, True)[0])
            np.testing.assert_array_equal(full(k1), base)  # k=1 == unrefined, exactly
            cm_base.update(gt, base, mask)
            cms["confidence_avg"].update(gt, full(refine_confidence_avg(rows, idx)[0]), mask)
            cms["majority"].update(gt, full(refine_majority(rows, idx)), mask)
            cms["distance_weighted"].update(
                gt, full(refine_distance_weighted(rows, idx, dist)), mask)
        _, miou_base = iou(cm_base)
        mious = {scheme: iou(cm)[1] for scheme, cm in cms.items()}
        gain = 100.0 * (mious["confidence_avg"] - miou_base)
        print(f"    unrefined {100 * miou_base:.2f} -> "
              + " ".join(f"{s} {100 * v:.2f}" for s, v in mious.items())
              + f" (conf-avg +{gain:.2f} points)")
        assert gain >= 2.0
        # every scheme at k=19 must at least match the unrefined baseline
        assert all(v >= miou_base for v in mious.values())


def test_criterion_4_threshold_sweep_monotonicity(refined_corpus):
    with Check("4 tau_min sweep: reduction and precision weakly increase; "
               "class-balanced retains the minority class", budget_s=60.0):
        num_classes = 5
        hist = histogram([labels for _, labels, _, _ in refined_corpus], num_classes)
        reductions, precisions = [], []
        for tau_min in (0.5, 0.6, 0.7, 0.8):
            taus = class_thresholds(hist, ThresholdConfig(tau_min, 0.95))
            removed = labeled = kept = correct = 0
            for gt, labels, conf, mask in refined_corpus:
                out, _ = apply_threshold(labels, conf, taus)
                labeled += int((labels != 0).sum())
                removed += int((labels != 0).sum() - (out != 0).sum())
                keep = out != 0
                kept += int(keep.sum())
                correct += int((out[keep] == gt[keep]).sum())
            reductions.append(removed / labeled)
            precisions.append(correct / kept)
        print(f"    reductions {['%.3f' % r for r in reductions]} "
              f"precisions {['%.4f' % p for p in precisions]}")
        assert all(a <= b + 1e-12 for a, b in zip(reductions, reductions[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(precisions, precisions[1:]))

        real = hist[1:]
        minority = 1 + int(np.argmin(np.where(real > 0, real, np.iinfo(np.int64).max)))
        balanced = class_thresholds(hist, ThresholdConfig(0.8, 0.95))
        static = static_thresholds(ThresholdConfig.static(0.95), num_classes)
        kept_balanced = kept_static = 0
        for gt, labels, conf, mask in refined_corpus:
            kept_balanced += int((apply_threshold(labels, conf, balanced)[0] == minority).sum())
            kept_static += int((apply_threshold(labels, conf, static)[0] == minority).sum())
        print(f"    minority class {minority}: balanced keeps {kept_balanced}, "
              f"static keeps {kept_static}")
        assert kept_balanced >= kept_static


def test_criterion_5_projection_correctness():
    with Check("5 projection: principal point, frustum oracle, slice round trip",
               budget_s=1.0):
        p = np.array([[120.0, 0, 320.0, 0], [0, 120.0, 180.0, 0], [0, 0, 1.0, 0]])
        rig = CalibrationRig(P=p, T=np.eye(4), width=640, height=360)
        axis_cloud = PointCloud(np.array([[0.0, 0.0, 7.0]]), np.array([0.5]))
        u, v, depth = project_points(axis_cloud, rig)
        assert (u[0], v[0], depth[0]) == (320.0, 180.0, 7.0)

        rng = np.random.default_rng(13)
        yaw = 0.3
        t = np.eye(4)
        t[:3, :3] = np.array([[np.cos(yaw), -np.sin(yaw), 0],
                              [np.sin(yaw), np.cos(yaw), 0], [0, 0, 1]])
        t[:3, 3] = [0.1, 0.0, -0.2]
        rig2 = CalibrationRig(P=p, T=t, width=640, height=360)
        pts = rng.uniform(-15, 15, (1000, 3))
        cloud = PointCloud(pts, rng.uniform(0, 1, 1000))
        mask = fov_mask(cloud, rig2)
        expected = [in_frustum_scalar(rig2.P.tolist(), rig2.T.tolist(), 640, 360, q)
                    for q in pts]
        assert mask.mask.tolist() == expected

        sliced, index_map = slice_cloud(cloud, mask)
        np.testing.assert_array_equal(sliced.xyz, cloud.xyz[index_map])


def test_criterion_6_evaluation_correctness():
    with Check("6 evaluation: hand-computed IoU, perfect score, scan-duplication "
               "invariance", budget_s=1.0):
        cm = ClassMap(["unlabeled", "a", "b"])
        gt = np.array([1, 1, 2], dtype=np.uint16)
        pred = np.array([1, 2, 2], dtype=np.uint16)
        per_class, miou = iou(accumulate(gt, pred, 3))
        assert per_class[1] == 0.5 and per_class[2] == 0.5 and miou == 0.5

        _, perfect = iou(accumulate(gt, gt, 3))
        assert perfect == 1.0

        m = accumulate(gt, pred, 3)
        assert report(ConfusionMatrix(3, m.counts).merge(m), cm).miou == report(m, cm).miou


def test_criterion_7_greedy_soup(tmp_path):
    with Check("7 greedy soup: exact toy trace and final >= best solo on 100 sets",
               budget_s=5.0):
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
        for i, value in enumerate((0.0, 1.0, 10.0)):
            path = tmp_path / f"cand{i}.ptns"
            io.write_tensor(np.array([value], dtype=np.float32), path)
            paths.append(path)
        result = greedy_soup(paths, partial(evaluate_weights, [sys.executable, str(script)]))
        np.testing.assert_array_equal(result.vector, np.array([0.5], np.float32))
        assert result.included == [str(paths[0]), str(paths[1])]
        assert [s.action for s in result.steps] == ["seed", "added", "rejected"]

        # quadratic toy metric, evaluated in process for the property sweep
        def quad_metric(path):
            w = io.read_tensor(path)
            return -((float(w.mean()) - 0.3) ** 2)

        rng = np.random.default_rng(17)
        for trial in range(100):
            vectors = [rng.uniform(-2, 2, 8).astype(np.float32)
                       for _ in range(int(rng.integers(1, 7)))]
            cpaths = []
            for i, vec in enumerate(vectors):
                cp = tmp_path / f"t{trial}_{i}.ptns"
                io.write_tensor(vec, cp)
                cpaths.append(cp)
            result = greedy_soup(cpaths, quad_metric)
            best_solo = max(quad_metric(cp) for cp in cpaths)
            assert result.final_metric >= best_solo


def test_criterion_8_format_round_trips(tmp_path):
    with Check("8 1000 random files round-trip byte-identically; malformations "
               "raise typed errors", budget_s=30.0):
        rng = np.random.default_rng(19)
        for i in range(334):
            n = int(rng.integers(0, 300))
            cloud_bytes = np.column_stack([
                rng.uniform(-50, 50, (n, 3)),
                rng.uniform(0, 1, (n, 1)),
            ]).astype("<f4").tobytes()
            src = tmp_path / "cloud.bin"
            src.write_bytes(cloud_bytes)
            dst = tmp_path / "cloud.out.bin"
            io.write_cloud_bin(io.read_cloud_bin(src), dst)
            assert src.read_bytes() == dst.read_bytes()

            words = rng.integers(0, 30, size=int(rng.integers(0, 400))).astype("<u4")
            lsrc = tmp_path / "x.label"
            lsrc.write_bytes(words.tobytes())
            labels = io.read_labels(lsrc)
            ldst = tmp_path / "x.out.label"
            io.write_labels(labels, ldst)
            assert lsrc.read_bytes() == ldst.read_bytes()

            shape = tuple(int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4))))
            arr = rng.uniform(0, 1, shape).astype(np.float32)
            tsrc = tmp_path / "t.ptns"
            io.write_tensor(arr, tsrc)
            tdst = tmp_path / "t.out.ptns"
            io.write_tensor(io.read_tensor(tsrc), tdst)
            assert tsrc.read_bytes() == tdst.read_bytes()

        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x01" * 15)
        with pytest.raises(LengthError):
            io.read_cloud_bin(bad)
        bad_label = tmp_path / "bad.label"
        bad_label.write_bytes(b"\x01" * 6)
        with pytest.raises(LengthError):
            io.read_labels(bad_label)
        bad_tensor = tmp_path / "bad.ptns"
        bad_tensor.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            io.read_tensor(bad_tensor)
        bad_tensor.write_bytes(b"PTNS\x02\x00" + b"\x00" * 8)
        with pytest.raises(UnsupportedVersion):
            io.read_tensor(bad_tensor)
        truncated = tmp_path / "trunc.ptns"
        io.write_tensor(np.zeros(8, np.float32), truncated)
        truncated.write_bytes(truncated.read_bytes()[:-4])
        with pytest.raises(SizeMismatch):
            io.read_tensor(truncated)
        bad_calib = tmp_path / "calib.txt"
        bad_calib.write_text("P2: 1 2 3\n")
        with pytest.raises(ParseError):
            io.read_calib(bad_calib, image_size=(10, 10))


def test_criterion_9_pipeline_determinism(corpus, tmp_path):
    with Check("9 pipeline outputs byte-identical across reruns and jobs 1/4/8",
               budget_s=300.0):
        digests = {}
        for run_name, jobs in (("j1a", 1), ("j1b", 1), ("j4", 4), ("j8", 8)):
            out = tmp_path / run_name
            rc = cli_main([
                "pipeline",
                "--dataset-root", str(corpus),
                "--output-root", str(out),
                "--class-map", str(corpus / "class_map.csv"),
                "--jobs", str(jobs),
            ])
            assert rc == 0
            h = hashlib.sha256()
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                h.update(str(path.relative_to(out)).encode())
                h.update(path.read_bytes())
            digests[run_name] = h.hexdigest()
        assert len(set(digests.values())) == 1, digests
