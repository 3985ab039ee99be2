"""Greedy checkpoint-weight averaging driven by an external metric command.

Candidates are flat float32 weight vectors on disk.  The recipe: score
each candidate alone, sort descending (stable, so score ties keep input
order), seed the soup with the best, then try each remaining candidate in
order and keep it iff the uniform average of the enlarged soup scores at
least as well as the current soup.  The metric is an external command
that receives a weight-file path as its last argument and prints one
scalar (higher is better); this toolkit never runs models in-process.
"""

from __future__ import annotations

import subprocess
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import io
from .errors import EvalCommandFailed, LengthMismatch


@dataclass(frozen=True)
class SoupStep:
    """What happened to one candidate during the greedy pass."""

    path: str
    solo_metric: float
    action: str                 # "seed" | "added" | "rejected"
    trial_metric: float | None  # soup metric if the candidate were included


@dataclass
class SoupResult:
    vector: np.ndarray          # final averaged weights, float32
    final_metric: float
    included: list[str]
    steps: list[SoupStep] = field(default_factory=list)

    def log_entries(self) -> list[dict]:
        return [asdict(s) for s in self.steps]


def evaluate_weights(eval_command, weight_path, env=None) -> float:
    """Run the metric command on one weight file (in `env`, else this process's
    environment); parse its stdout scalar."""
    argv = [str(a) for a in eval_command] + [str(weight_path)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    except OSError as exc:
        raise EvalCommandFailed(f"cannot run {argv[0]!r}: {exc}") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise EvalCommandFailed(f"{argv[0]} exited {proc.returncode}: {tail[0]}")
    tokens = proc.stdout.split()
    if len(tokens) != 1:
        raise EvalCommandFailed(f"{argv[0]} printed {len(tokens)} tokens, expected one scalar")
    try:
        return float(tokens[0])
    except ValueError as exc:
        raise EvalCommandFailed(f"{argv[0]} printed non-numeric {tokens[0]!r}") from exc


def _load_vectors(paths) -> np.ndarray:
    vectors = []
    length = None
    for path in paths:
        vec = io.read_tensor(path, dtype=np.float32)
        if vec.ndim != 1:
            raise LengthMismatch(f"{path}: weight vector must be 1-D, got shape {vec.shape}")
        if length is None:
            length = vec.shape[0]
        elif vec.shape[0] != length:
            raise LengthMismatch(f"{path}: length {vec.shape[0]} != {length}")
        vectors.append(vec.astype(np.float64))
    return np.stack(vectors)


def greedy_soup(candidate_paths, evaluate) -> SoupResult:
    """Greedily average candidate weight vectors; see module docstring.

    `evaluate` takes a weight-file path and returns the scalar metric, for
    example ``functools.partial(evaluate_weights, eval_command)``.
    """
    paths = [str(p) for p in candidate_paths]
    if not paths:
        raise ValueError("need at least one candidate")
    vectors = _load_vectors(paths)

    solo = [evaluate(p) for p in paths]
    order = sorted(range(len(paths)), key=lambda i: -solo[i])

    steps: list[SoupStep] = []
    included = [order[0]]
    current_metric = solo[order[0]]
    steps.append(SoupStep(paths[order[0]], solo[order[0]], "seed", current_metric))

    with tempfile.TemporaryDirectory(prefix="soup.") as tmp:
        trial_path = Path(tmp) / "trial.ptns"
        for i in order[1:]:
            trial = vectors[included + [i]].mean(axis=0)
            io.write_tensor(trial.astype(np.float32), trial_path)
            metric = evaluate(trial_path)
            if metric >= current_metric:
                included.append(i)
                current_metric = metric
                steps.append(SoupStep(paths[i], solo[i], "added", metric))
            else:
                steps.append(SoupStep(paths[i], solo[i], "rejected", metric))

    final = vectors[included].mean(axis=0).astype(np.float32)
    return SoupResult(
        vector=final,
        final_metric=current_metric,
        included=[paths[i] for i in included],
        steps=steps,
    )
