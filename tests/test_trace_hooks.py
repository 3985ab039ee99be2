"""The benchmark's span tracer (``bench/spans.py``) still fits ``seglift.cli``.

The benchmark traces the CLI in-process by replacing the functions that
``seglift.cli`` calls, and reads each file path from the first positional
argument.  A renamed callee, a callee the CLI stops calling, or a path
passed by keyword would break only the traced run, so this test runs the
benchmark's own command list under the tracer, then derives the counts and
checks each recorded neighbor search as ``bench/run.py --trace 1`` does.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import seglift.cli
import seglift.io
from seglift.refinement import KdTree

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `run`, `spans` and `checks` modules, imported from bench/."""
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import run
    import spans

    yield run, spans, checks
    for name in ("run", "spans", "checks"):
        sys.modules.pop(name, None)


def test_traced_commands_record_every_patched_span(bench, tmp_path, capsys):
    run, spans, checks = bench
    data = tmp_path / "data"
    assert seglift.cli.main(["synth", "--out", str(data), "--scenes", "1", "--seed", "7"]) == 0

    class Recorder(spans.Tracer):
        """A tracer that also keeps the name of every span it wraps."""

        def __init__(self):
            super().__init__()
            self.wrapped = set()

        def wrap(self, name, fn, detail=None):
            self.wrapped.add(name)
            return super().wrap(name, fn, detail)

    originals = (seglift.io.read_tensor, seglift.cli.lift_probs, KdTree.neighbors)
    tracer = Recorder()
    patched = spans.install(tracer)
    try:
        main = tracer.wrap("cli.main", seglift.cli.main)
        chain = run.command_list(data, tmp_path / "chain")
        commands = [run.pipeline_args(data, tmp_path / "pipeline", 1), *chain.values()]
        for argv in commands:
            assert main(argv) == 0, argv
    finally:
        spans.uninstall(patched)
    capsys.readouterr()

    assert (seglift.io.read_tensor, seglift.cli.lift_probs, KdTree.neighbors) == originals
    recorded = {name for name, *_ in tracer.spans}
    assert tracer.wrapped - recorded == set()
    assert tracer.nesting_errors() == 0
    unnamed = {name for name, _, _, _, stem, _ in tracer.spans
               if name.startswith("io.") and stem is None}
    assert unnamed == set()  # every io call passed its path positionally

    # What the traced benchmark reads from the recorded pipeline's neighbor searches.
    roots = dict(zip(["pipeline", *chain], tracer.roots()))
    counts, neighbor_calls = run.layer_counts(tracer, roots)
    assert neighbor_calls and counts["projection.fov_points"] == sum(
        len(tree) for tree, *_ in neighbor_calls)
    for scan, (tree, k, include_self, idx) in enumerate(neighbor_calls):
        _, raw = checks.reference_query(tree.points, k)
        ties = checks.tie_rows(tree.points, raw, k)
        rows = checks.sample_rows(np.random.default_rng([7, scan]), len(tree), ties,
                                  run.ORACLE_ROWS)
        assert checks.knn_mismatches(tree.points, idx, k, include_self, rows) == 0
