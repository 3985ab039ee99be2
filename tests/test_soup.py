"""Greedy weight-soup behavior against scripted external metrics."""

import re
import sys
import textwrap
from functools import partial

import numpy as np
import pytest

from seglift import io
from seglift.errors import DimMismatch, EvalCommandFailed, LengthMismatch
from seglift.soup import evaluate_weights, greedy_soup

EVAL_SCRIPT = textwrap.dedent(
    """
    import struct, sys
    import numpy as np

    mode, target, path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    data = open(path, "rb").read()
    magic, version, dtype, ndim = struct.unpack_from("<4sBBI", data, 0)
    assert magic == b"PTNS", magic
    w = np.frombuffer(data, dtype="<f4", offset=10 + 4 * ndim)
    m = float(w.mean())
    value = -abs(m - target) if mode == "abs" else -((m - target) ** 2)
    print(value)
    """
)


@pytest.fixture()
def eval_script(tmp_path):
    path = tmp_path / "metric.py"
    path.write_text(EVAL_SCRIPT)
    return path


def write_candidates(tmp_path, vectors):
    paths = []
    for i, vec in enumerate(vectors):
        p = tmp_path / f"cand{i}.ptns"
        io.write_tensor(np.asarray(vec, dtype=np.float32), p)
        paths.append(p)
    return paths


def metric(script, *args):
    """The evaluator that runs `script` with `args` under this interpreter."""
    return partial(evaluate_weights, [sys.executable, str(script), *map(str, args)])


def abs_cmd(eval_script, target=0.5):
    return metric(eval_script, "abs", target)


class TestGreedySoup:
    def test_toy_trace(self, tmp_path, eval_script):
        # Candidates 0.0 and 1.0 tie solo at -0.5 (input order kept); their
        # average scores 0.0 and is kept; adding 10.0 would average to ~3.67
        # and is rejected.  Soup = 0.5.
        paths = write_candidates(tmp_path, [[0.0], [1.0], [10.0]])
        result = greedy_soup(paths, abs_cmd(eval_script))
        np.testing.assert_array_equal(result.vector, np.array([0.5], dtype=np.float32))
        assert result.included == [str(paths[0]), str(paths[1])]
        assert [s.action for s in result.steps] == ["seed", "added", "rejected"]
        assert result.steps[2].path == str(paths[2])
        assert result.final_metric == 0.0

    def test_single_candidate_passes_through(self, tmp_path, eval_script):
        rng = np.random.default_rng(0)
        vec = rng.uniform(-1, 1, 16).astype(np.float32)
        paths = write_candidates(tmp_path, [vec])
        result = greedy_soup(paths, abs_cmd(eval_script))
        np.testing.assert_array_equal(result.vector, vec)
        assert result.included == [str(paths[0])]

    def test_identical_candidates_all_included(self, tmp_path, eval_script):
        vec = [0.25, 0.75]
        paths = write_candidates(tmp_path, [vec, vec])
        result = greedy_soup(paths, abs_cmd(eval_script))
        assert len(result.included) == 2
        np.testing.assert_array_equal(result.vector, np.array(vec, dtype=np.float32))

    def test_final_metric_never_below_best_solo(self, tmp_path, eval_script):
        rng = np.random.default_rng(1)
        for trial in range(5):
            vectors = [rng.uniform(-3, 3, 4) for _ in range(int(rng.integers(2, 6)))]
            paths = write_candidates(tmp_path, vectors)
            cmd = metric(eval_script, "quad", 0.2)
            result = greedy_soup(paths, cmd)
            # reference solos from the float32 values actually on disk
            best_solo = max(-((float(np.asarray(v, np.float32).mean()) - 0.2) ** 2)
                            for v in vectors)
            assert result.final_metric >= best_solo - 1e-12

    def test_eval_invocation_count_bounded(self, tmp_path):
        counter = tmp_path / "calls.txt"
        script = tmp_path / "counting.py"
        script.write_text(textwrap.dedent(f"""
            import sys
            with open({str(counter)!r}, "a") as fh:
                fh.write(sys.argv[-1] + "\\n")
            print(0.0)
            """))
        paths = write_candidates(tmp_path, [[0.0], [1.0], [2.0], [3.0]])
        greedy_soup(paths, metric(script))
        calls = counter.read_text().strip().splitlines()
        assert len(calls) == 4 + 3  # one solo pass, then one trial per remaining

    def test_length_mismatch(self, tmp_path, eval_script):
        paths = write_candidates(tmp_path, [[0.0, 1.0], [1.0]])
        with pytest.raises(LengthMismatch):
            greedy_soup(paths, abs_cmd(eval_script))

    def test_non_flat_vector_rejected(self, tmp_path, eval_script):
        p = tmp_path / "mat.ptns"
        io.write_tensor(np.zeros((2, 2), dtype=np.float32), p)
        with pytest.raises(LengthMismatch):
            greedy_soup([p], abs_cmd(eval_script))

    def test_uint32_candidate_names_its_file(self, tmp_path, eval_script):
        paths = write_candidates(tmp_path, [[0.0, 1.0], [1.0, 0.0]])
        io.write_tensor(np.array([7, 7], dtype=np.uint32), paths[1])
        with pytest.raises(DimMismatch, match=re.escape(f"{paths[1]}: uint32 tensor, expected float32")):
            greedy_soup(paths, abs_cmd(eval_script))

    def test_no_candidates_rejected(self, eval_script):
        with pytest.raises(ValueError):
            greedy_soup([], abs_cmd(eval_script))


class TestEvaluateWeights:
    def test_nonzero_exit(self, tmp_path):
        script = tmp_path / "fail.py"
        script.write_text("import sys; sys.exit(3)")
        paths = write_candidates(tmp_path, [[0.0]])
        with pytest.raises(EvalCommandFailed):
            evaluate_weights([sys.executable, str(script)], paths[0])

    def test_non_numeric_output(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text("print('not-a-number')")
        paths = write_candidates(tmp_path, [[0.0]])
        with pytest.raises(EvalCommandFailed):
            evaluate_weights([sys.executable, str(script)], paths[0])

    def test_multiple_tokens_rejected(self, tmp_path):
        script = tmp_path / "two.py"
        script.write_text("print('0.5 0.7')")
        paths = write_candidates(tmp_path, [[0.0]])
        with pytest.raises(EvalCommandFailed):
            evaluate_weights([sys.executable, str(script)], paths[0])

    def test_missing_command(self, tmp_path):
        paths = write_candidates(tmp_path, [[0.0]])
        with pytest.raises(EvalCommandFailed):
            evaluate_weights(["/definitely/not/a/command"], paths[0])
