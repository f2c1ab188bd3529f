"""In-memory span tracer that wraps fkent's public functions from outside.

A span is (name, start, end, parent, run id).  Spans stay in a list while
the experiment runs and are written once, after it ends.  A layer's self
time is its span's duration minus the durations of its direct children;
calls are synchronous, so children never overlap.

Work counters are read at the same boundaries from call arguments and
return values: rows of `others` tested, members returned, and the
computed bytes of the `others[:, :n]` slice each ball kernel reads.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# <module>.<function> names, all public, so that kernel rewrites that
# delete private helpers leave the trace intact
TRACED = (
    "systems.orbit_batch",
    "systems.sample_path",
    "matching.bowen_ball_batch",
    "matching.fk_ball_batch",
    "spanning.count_table",
    "spanning.torus_grid_candidates",
    "spanning.word_candidates",
    "spanning.entropy_from_counts",
    "local.sample_measure",
    "local.local_entropy",
    "katok.katok_table",
    "katok.katok_spanning_count",
    "katok.table_slopes",
    "harness.run_experiment",
)

BALL_KERNELS = ("matching.bowen_ball_batch", "matching.fk_ball_batch")


def _arg(args, kwargs, pos: int, name: str):
    if len(args) > pos:
        return args[pos]
    return kwargs[name]


def _slice_bytes(others, n: int) -> int:
    """nbytes of others[:, :n] without building the slice."""
    per_row = min(n, others.shape[1]) * others.itemsize
    for extent in others.shape[2:]:
        per_row *= extent
    return others.shape[0] * per_row


class Tracer:
    """Spans and counters of one child process."""

    def __init__(self, run_id: int = 0) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.run_id = run_id
        self._stack: list[int] = []

    def install(self) -> None:
        """Replace each traced function in every fkent module that bound it."""
        from fkent.matching import match_target

        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "fkent" or name.startswith("fkent.")
        ]
        for qual in TRACED:
            module_name, func_name = qual.split(".")
            original = getattr(sys.modules[f"fkent.{module_name}"], func_name)
            count = None
            if qual in BALL_KERNELS:
                count = self._ball_counter(qual, match_target if qual.endswith("fk_ball_batch") else None)
            elif qual == "systems.orbit_batch":
                count = self._orbit_counter(qual)
            wrapper = self._wrap(qual, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn, count):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if count is not None:
                count(args, kwargs, out)
            return out

        return traced

    def _ball_counter(self, qual: str, match_target):
        counters = self.counters

        def count(args, kwargs, out) -> None:
            center = _arg(args, kwargs, 0, "center")
            others = _arg(args, kwargs, 1, "others")
            counters[f"{qual}.rows"] += int(others.shape[0])
            counters[f"{qual}.hits"] += int(out.sum())
            counters[f"{qual}.bytes"] += _slice_bytes(others, center.n)
            if match_target is not None:
                delta = _arg(args, kwargs, 2, "delta")
                if match_target(center.n, delta) == center.n:
                    counters[f"{qual}.zero_band_calls"] += 1

        return count

    def _orbit_counter(self, qual: str):
        counters = self.counters

        def count(args, kwargs, out) -> None:
            counters[f"{qual}.rows"] += int(out.shape[0])
            counters[f"{qual}.bytes"] += int(out.nbytes)

        return count

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-name calls and self seconds over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {
            qual: {"calls": 0, "self_s": 0.0} for qual in TRACED
        }
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,run\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{run}\n")
