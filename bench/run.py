"""seglift benchmark: wall time of the stage commands, and a traced run per layer.

    python3 bench/run.py --workload kitti|kitti-cm [--seed 7] [--seconds 45] [--trace 0|1]

With ``--trace 0`` the ``seglift`` commands run as child processes in a
closed loop (one client; each command starts after the previous one has
exited) for ``--seconds``, and every end-to-end metric is the median of
its samples.  With ``--trace 1`` the same command list runs in this
process with span-recording wrappers around the layers that
``seglift.cli`` calls, and the per-layer metrics are reported.  Either way
every output is checked, every run also checks the ROADMAP's known answer
on the seed-7 corpus, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Inputs are generated from ``--seed`` once and kept under ``.bench_work/``
in the checkout; the page cache stays warm (it is never dropped), so the
``io`` timings are page-cache timings.
"""

from __future__ import annotations

import argparse
import io as pyio
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 2
ORACLE_ROWS = 64
PAGE_CACHE_NOTE = "io timings are warm page-cache timings: the cache is never dropped"

# Metric units other than seconds (names ending in "_s") and plain counts.
UNITS = {"peak_rss_mb": "MB", "io.bytes_read": "bytes", "io.bytes_written": "bytes"}


def unit_of(name: str) -> str:
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


class Ledger:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems[:5]]

    def check(self, what: str, fn, *args) -> None:
        """Record a check that returns its problems; a check that raises fails."""
        try:
            problems = fn(*args)
        except Exception as exc:  # e.g. an output missing after a failed command
            problems = [f"check raised {exc!r}"]
        self.record(what, problems)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_cli(argv: list[str], log: Path, ledger: Ledger, python_flags=(), stderr_log=None):
    """Run ``seglift`` from the checkout in a child process and wait for it.

    Returns (wall seconds, rusage of the child, its output).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as out, open(stderr_log or log, "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *python_flags, "-m", "seglift.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = log.read_text(errors="replace")
    ledger.record(argv[0], [] if proc.returncode == 0 else
                  [f"exit {proc.returncode}: {text[-400:]}"])
    return wall, usage, text


def command_list(ds: Path, out: Path) -> dict[str, list[str]]:
    """The stage commands at jobs 1, in run order; the scheme refines precede the default."""
    cmap = str(ds / "class_map.csv")
    tail = ["--class-map", cmap, "--output-root", str(out), "--jobs", "1"]
    data = ["--dataset-root", str(ds), *tail]
    seq = out / "sequences" / "00"
    return {
        "lift_s": ["lift", *data],
        "refine_majority_s": ["refine", *data, "--scheme", "majority"],
        "refine_distance_weighted_s": ["refine", *data, "--scheme", "distance_weighted"],
        "refine_s": ["refine", *data],
        "stats_s": ["stats", *tail],
        "threshold_s": ["threshold", *tail],
        "eval_s": ["eval", "--gt", str(ds / "sequences" / "00" / "labels"),
                   "--pred", str(seq / "pseudo_labels"), "--class-map", cmap,
                   "--masks", str(seq / "fov_mask")],
    }


def pipeline_args(ds: Path, out: Path, jobs: int) -> list[str]:
    return ["pipeline", "--dataset-root", str(ds), "--class-map", str(ds / "class_map.csv"),
            "--output-root", str(out), "--jobs", str(jobs)]


def num_classes(ds: Path) -> int:
    return sum(1 for line in (ds / "class_map.csv").read_text().splitlines() if line)


def fresh(*dirs: Path) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


def known_answer_check(work: Path, ledger: Ledger) -> None:
    """The ROADMAP behaviour check on the seed-7 corpus: FOV mIoU and labels removed."""
    import checks
    import inputs

    ds = inputs.dataset(WORK / "known_answer", "corpus", inputs.ROADMAP_SEED)
    out = work / "out" / "known_answer"
    fresh(out)
    _, _, pipe_text = run_cli(pipeline_args(ds, out, 1), work / "known_answer.log", ledger)
    _, _, eval_text = run_cli(command_list(ds, out)["eval_s"], work / "known_answer_eval.log",
                              ledger)
    ledger.check("known answer", checks.stage_outputs, out, ds, num_classes(ds), eval_text,
                 pipe_text, inputs.KNOWN_ANSWER)


def timed(ds: Path, work: Path, seconds: float, jobs: int, ledger: Ledger) -> dict:
    """Closed-loop rounds of every command; returns name -> samples.

    Measuring stops at the first command that ends after `seconds`, once
    one round is complete; the outputs of every complete round are checked.
    """
    import checks

    samples = defaultdict(list)
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    j1, jn, chain = (work / "out" / n for n in ("j1", "jn", "chain"))
    ops = [("setup_s", ["pipeline", "--help"])] * SETUP_REPEATS + [
        ("pipeline_s", pipeline_args(ds, j1, 1)),
        ("pipeline_par_s", pipeline_args(ds, jn, jobs)),
        *command_list(ds, chain).items(),
    ]
    # Untimed: the first start compiles bytecode, which installed users do not pay.
    run_cli(["pipeline", "--help"], logs / "warmup.log", ledger)
    start = perf_counter()
    for round_no in itertools.count():
        fresh(j1, jn, chain)
        texts = {}
        for name, argv in ops:
            wall, usage, texts[name] = run_cli(argv, logs / f"{name}.log", ledger)
            samples[name].append(wall)
            if name == "pipeline_s":
                samples["pipeline_cpu_s"].append(usage.ru_utime + usage.ru_stime)
                samples["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
            if round_no and perf_counter() - start >= seconds:
                return samples
        ledger.check("jobs-N output", checks.tree_diff, j1, jn)
        ledger.check("stage-chain output", checks.tree_diff, j1, chain)
        ledger.check("stats/threshold/eval output", checks.stage_outputs, chain, ds,
                     num_classes(ds), texts["eval_s"], texts["threshold_s"])
        if perf_counter() - start >= seconds:
            return samples


def call_main(main, argv: list[str], ledger: Ledger) -> str:
    """Run ``seglift.cli.main`` in this process; returns what it printed."""
    buf = pyio.StringIO()
    try:
        with redirect_stdout(buf):
            rc = main(argv)
    except Exception as exc:  # a crash is a failed op, not a benchmark abort
        rc = repr(exc)
    ledger.record(f"{argv[0]} (in-process)", [] if rc == 0 else [f"returned {rc}"])
    return buf.getvalue()


def import_times(text: str) -> dict[str, float]:
    """Cumulative seconds of the outermost seglift, scipy and numpy imports (-X importtime)."""
    totals = {"seglift": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors: list[tuple[int, str]] = []
    # Entries are printed after their children, so walk them in reverse.
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        family = name.strip().split(".")[0]
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if family in totals and all(f != family for _, f in ancestors):
            totals[family] += int(cumulative) / 1e6
        ancestors.append((depth, family))
    return totals


def layer_times(tracer, roots: dict[str, int]) -> dict[str, float]:
    """Per-layer self times: the traced pipeline's, and the scheme refines' and eval's own."""
    p = roots["pipeline"]
    own = tracer.self_by_name(p)
    times = {"cli.self_s": own["cli.main"], "trace.pipeline_traced_s": tracer.duration(p)}
    for name in ("io.read_tensor", "io.write_tensor", "io.read_cloud", "io.read_labels",
                 "io.write_labels", "io.read_calib", "projection.lift_probs",
                 "refinement.build_tree", "refinement.neighbors", "thresholding.histogram",
                 "thresholding.class_thresholds", "thresholding.apply_threshold"):
        times[f"{name}_s"] = own.get(name, 0.0)
    times["refinement.votes.confidence_avg_s"] = own.get("refinement.refine_confidence_avg", 0.0)
    for scheme in ("majority", "distance_weighted"):
        times[f"refinement.votes.{scheme}_s"] = tracer.self_by_name(
            roots[f"refine_{scheme}_s"]).get(f"refinement.refine_{scheme}", 0.0)
    evaluated = tracer.self_by_name(roots["eval_s"])
    times["evaluation.update_s"] = evaluated.get("evaluation.update", 0.0)
    times["evaluation.report_s"] = evaluated.get("evaluation.report", 0.0)
    return times


def layer_counts(tracer, roots: dict[str, int]) -> tuple[dict[str, int], list]:
    """Exact work counts of the traced pipeline and eval, and its neighbor calls."""
    p = roots["pipeline"]
    masks = tracer.details(p, "projection.lift_probs")
    cut = tracer.details(p, "thresholding.apply_threshold")

    def total(*names):
        return sum(sum(tracer.details(p, n)) for n in names)

    counts = {
        "projection.points": sum(len(m) for m in masks),
        "projection.fov_points": sum(m.count for m in masks),
        "io.bytes_read": total("io.read_cloud", "io.read_tensor", "io.read_labels",
                               "io.read_calib", "io.read_class_map"),
        "io.bytes_written": total("io.write_tensor", "io.write_labels"),
        "thresholding.labeled": sum(int((before != 0).sum()) for before, _ in cut),
        "thresholding.kept": sum(int((after != 0).sum()) for _, after in cut),
        "evaluation.points_scored": sum(
            m.total for m in tracer.details(roots["eval_s"], "evaluation.update")),
        "refinement.tie_rows": 0,
        "refinement.oracle_rows": 0,
    }
    return counts, tracer.details(p, "refinement.neighbors")


def traced(ds: Path, work: Path, seconds: float, jobs: int, seed: int, ledger: Ledger) -> dict:
    """In-process traced runs of the command list; returns name -> samples."""
    import numpy as np

    import checks
    import seglift.cli as cli
    import spans

    samples = defaultdict(list)
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    ncls = num_classes(ds)
    dumps, counts_seen = [], None
    # Untimed: lets the in-process first-call costs land before the
    # untraced/traced comparison.
    call_main(cli.main, pipeline_args(ds, work / "out" / "warmup", 1), ledger)
    start = perf_counter()
    while True:
        it = len(dumps)
        run_cli(["--help"], logs / "importtime.out", ledger,
                python_flags=("-X", "importtime"), stderr_log=logs / "importtime.log")
        for family, secs in import_times((logs / "importtime.log").read_text()).items():
            samples[f"import.{family}_s"].append(secs)
        (logs / "importtime.log").unlink()

        sj1, sjn, untraced, tp, tc = (work / "out" / n
                                      for n in ("j1", "jn", "untraced", "tp", "tc"))
        fresh(sj1, sjn, untraced, tp, tc)
        j1_wall = run_cli(pipeline_args(ds, sj1, 1), logs / "j1.log", ledger)[0]
        jn_wall = run_cli(pipeline_args(ds, sjn, jobs), logs / "jn.log", ledger)[0]
        samples["cli.pool_cost_s"].append(jn_wall - j1_wall)

        t0 = perf_counter()
        call_main(cli.main, pipeline_args(ds, untraced, 1), ledger)
        samples["trace.pipeline_untraced_s"].append(perf_counter() - t0)

        tracer = spans.Tracer()
        patched = spans.install(tracer)
        main = tracer.wrap("cli.main", cli.main)
        try:
            call_main(main, pipeline_args(ds, tp, 1), ledger)
            chain_text = {name: call_main(main, argv, ledger)
                          for name, argv in command_list(ds, tc).items()}
        finally:
            spans.uninstall(patched)
        dumps.append({"iteration": it, "spans": tracer.dump()})

        for a, b in ((sj1, sjn), (sj1, untraced), (untraced, tp), (tp, tc)):
            ledger.check(f"{b.name} output vs {a.name}", checks.tree_diff, a, b)
        ledger.check("stats/threshold/eval output", checks.stage_outputs, tc, ds, ncls,
                     chain_text["eval_s"], chain_text["threshold_s"])

        roots = dict(zip(["pipeline", *command_list(ds, tc)], tracer.roots()))
        accounting = [f"root {name}: {tracer.unaccounted(r)} s outside every self time"
                      for name, r in roots.items() if abs(tracer.unaccounted(r)) > 1e-6]
        if tracer.nesting_errors():
            accounting.append(f"{tracer.nesting_errors()} spans outside their parent")
        ledger.record("span accounting", accounting)

        for name, value in layer_times(tracer, roots).items():
            samples[name].append(value)
        samples["trace.overhead_s"].append(samples["trace.pipeline_traced_s"][-1]
                                           - samples["trace.pipeline_untraced_s"][-1])
        counts, neighbor_calls = layer_counts(tracer, roots)
        kdquery = 0.0
        for scan, (tree, k, include_self, idx) in enumerate(neighbor_calls):
            secs, raw = checks.reference_query(tree.points, k)
            kdquery += secs
            ties = checks.tie_rows(tree.points, raw, k)
            counts["refinement.tie_rows"] += len(ties)
            rows = checks.sample_rows(np.random.default_rng([seed, scan]), len(tree), ties,
                                      ORACLE_ROWS)
            counts["refinement.oracle_rows"] += len(rows)
            if it == 0:
                bad = checks.knn_mismatches(tree.points, idx, k, include_self, rows)
                ledger.record(f"knn oracle, scan {scan}",
                              [f"{bad} of {len(rows)} sampled rows differ"] if bad else [])
        samples["refinement.kdquery_ref_s"].append(kdquery)
        samples["refinement.resort_s"].append(samples["refinement.neighbors_s"][-1] - kdquery)
        if counts_seen is not None:
            ledger.record("counts repeat", [] if counts == counts_seen else
                          [f"{counts} != {counts_seen}"])
        counts_seen = counts
        for name, value in counts.items():
            samples[name].append(value)
        del tracer, neighbor_calls
        if perf_counter() - start >= seconds:
            (work / "spans.json").write_text(json.dumps(dumps))
            return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("kitti", "kitti-cm"))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (ROADMAP: 7)")
    parser.add_argument("--seconds", type=float, default=45.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seglift" / "cli.py").is_file():
        print(f"bench: no seglift sources at {SRC / 'seglift'}; run from a checkout",
              file=sys.stderr)
        return 2

    # The benchmark's own modules import seglift from the checkout's sources.
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import inputs

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    fresh(work / "out")
    work.mkdir(parents=True, exist_ok=True)
    jobs = nproc()
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": jobs, "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "generator": inputs.params(args.workload, args.seed),
        "loop": "closed, one client", "note": PAGE_CACHE_NOTE,
    }
    print("context " + json.dumps(context, sort_keys=True))
    ledger = Ledger()
    ds = inputs.dataset(WORK / "inputs", args.workload, args.seed)
    known_answer_check(work, ledger)
    if args.trace:
        samples = traced(ds, work, args.seconds, jobs, args.seed, ledger)
    else:
        samples = timed(ds, work, args.seconds, jobs, ledger)
    fresh(work / "out")  # the checked output trees are large; logs and results stay

    metrics, report = {}, {}
    for name in sorted(samples):
        value = statistics.median(samples[name])
        metrics[name] = {"value": value, "unit": unit_of(name)}
        report[name] = {**metrics[name], "samples": len(samples[name])}
        print(f"{name:40s} {value:14.6f} {unit_of(name):6s} (median of {len(samples[name])})")
    print(f"note: {PAGE_CACHE_NOTE}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    (work / "results.json").write_text(json.dumps(
        {"context": context, "metrics": report, "problems": ledger.problems,
         "attempted": ledger.attempted, "failed": ledger.failed}, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
