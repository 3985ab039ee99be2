"""In-memory span recorder and the wrappers that trace ``seglift.cli``.

`install` replaces the public functions that ``seglift.cli`` calls with
wrappers that record one span per call: name, start, end, parent and the
scan stem taken from the path argument.  The program's own files are not
changed; `uninstall` puts the originals back.  Counts that characterise
the work (points lifted, labels kept, bytes moved) are derived after the
run from references the wrappers keep, so the traced region pays only for
two clock reads, a list append and, for file I/O, one ``stat``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """Records nested spans of one thread; spans stay in memory until `dump`."""

    def __init__(self):
        # Each span: [name, start, end, parent, stem, detail]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, detail=None):
        """Wrap `fn` so each call records a span; `detail(args, result)` keeps extra data."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[4] = _stem(args)
            if detail is not None:
                rec[5] = detail(args, result)
            return result

        return traced

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def subtree(self, root: int) -> list[int]:
        """Indices of `root` and all its descendants (children follow parents)."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
        return sorted(inside)

    def roots(self) -> list[int]:
        return [i for i, rec in enumerate(self.spans) if rec[3] < 0]

    def unaccounted(self, root: int) -> float:
        """Root duration minus the self times summed over its subtree."""
        own = self.self_times()
        return self.duration(root) - sum(own[i] for i in self.subtree(root))

    def nesting_errors(self) -> int:
        """Spans that start before or end after their parent."""
        bad = 0
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                bad += not (p[1] <= start <= end <= p[2])
        return bad

    def self_by_name(self, root: int) -> dict[str, float]:
        own = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for i in self.subtree(root):
            totals[self.spans[i][0]] += own[i]
        return dict(totals)

    def details(self, root: int, name: str) -> list:
        return [self.spans[i][5] for i in self.subtree(root) if self.spans[i][0] == name]

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "stem": stem}
                for n, s, e, p, stem, _ in self.spans]


def _stem(args):
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            return Path(a).stem
    return None


def _read_bytes(args, _result):
    return os.stat(args[0]).st_size


def _written_bytes(args, _result):
    return os.stat(args[1]).st_size


# (module attribute, span name, detail) per traced seglift.io function.
_IO = (
    ("read_cloud_bin", "io.read_cloud", _read_bytes),
    ("read_tensor", "io.read_tensor", _read_bytes),
    ("read_labels", "io.read_labels", _read_bytes),
    ("read_calib", "io.read_calib", _read_bytes),
    ("read_class_map", "io.read_class_map", _read_bytes),
    ("write_tensor", "io.write_tensor", _written_bytes),
    ("write_labels", "io.write_labels", _written_bytes),
)


def install(tracer: Tracer) -> list:
    """Patch ``seglift.cli``'s callees with tracing wrappers; returns the undo list."""
    import seglift.cli as cli
    import seglift.io as sio
    from seglift.evaluation import ConfusionMatrix
    from seglift.refinement import KdTree

    patched = []

    def patch(owner, attr, name, detail=None):
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, detail))

    for attr, name, detail in _IO:
        patch(sio, attr, name, detail)
    patch(cli, "lift_probs", "projection.lift_probs", lambda a, r: r[1])
    patch(cli, "build_tree", "refinement.build_tree")
    # neighbors(self, k, include_self=True): keep the tree and result for the oracle.
    patch(KdTree, "neighbors", "refinement.neighbors",
          lambda a, r: (a[0], a[1], a[2] if len(a) > 2 else True, r[0]))
    for scheme in ("majority", "distance_weighted", "confidence_avg"):
        patch(cli, f"refine_{scheme}", f"refinement.refine_{scheme}")
    patch(cli, "histogram", "thresholding.histogram")
    patch(cli, "class_thresholds", "thresholding.class_thresholds")
    patch(cli, "apply_threshold", "thresholding.apply_threshold", lambda a, r: (a[0], r[0]))
    patch(ConfusionMatrix, "update", "evaluation.update", lambda a, r: r)
    patch(cli, "report", "evaluation.report")
    return patched


def uninstall(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
