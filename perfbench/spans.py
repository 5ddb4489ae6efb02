"""The traced run's span recorder.

Spans are recorded from the benchmark's side of each layer boundary:
:meth:`Tracer.install` replaces public methods on the program's classes
with timing wrappers for the length of one traced run and
:meth:`Tracer.uninstall` puts the originals back, so the program's own
files carry no tracing code.  Wrappers must be installed *before* the
facade is built, because servers capture bound methods (store
subscribers, agent callbacks) at construction.

Every call is aggregated into calls / total / self time, where self
time is the span's duration minus the time its child spans cover.
Spans on one thread nest by call; a span opened with an empty stack is
a root and starts a new trace id (one agent sample, one request, one
kernel slice); so does a span declared a root even when nested (an
agent sample inside a kernel slice), which keeps its parent link for
self time.  Full span trees are kept only for a seeded sample of
roots, capped at ``MAX_SPANS``, and written out when the run ends.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: share of trace roots whose full span tree is kept.
SAMPLE_RATE = 0.002
#: cap on kept spans, so a long run's memory stays bounded.
MAX_SPANS = 50000

#: (owner object, attribute, span name, observer or None, trace root).
Target = Tuple[object, str, str, Optional[Callable], bool]


class Tracer:
    """Aggregates span timings; keeps sampled span trees."""

    def __init__(self, *, seed: int):
        #: span name -> [calls, total seconds, self seconds].
        self.stats: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        #: kept spans: (trace id, span id, parent id, name, start, end).
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self._next_id = 0
        self._patched: List[Tuple[object, str, object, bool]] = []
        self.roots = 0

    # -- installation ----------------------------------------------------
    def install(self, targets: List[Target]) -> None:
        for owner, attr, name, observe, root in targets:
            self.replace(owner, attr, self.wrap(getattr(owner, attr), name,
                                                observe, root))

    def replace(self, owner: type, attr: str, value: object) -> None:
        """Swap a class attribute, restored by uninstall()."""
        self._patched.append((owner, attr, getattr(owner, attr),
                              attr in vars(owner)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- the wrapper -------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable] = None,
             root: bool = False) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        local = self._local
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent is not None else -1
            if parent is None or root:
                trace_id, keep = tracer._new_root()
            else:
                trace_id = parent[1]
                keep = parent[3]
            span_id = tracer._span_id() if keep else -1
            # frame: [child seconds, trace id, span id, kept]
            frame = [0.0, trace_id, span_id, keep]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if keep and len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((trace_id, span_id, parent_id,
                                         name, t0, t1))
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _new_root(self) -> Tuple[int, bool]:
        with self._rng_lock:
            self.roots += 1
            keep = self._rng.random() < SAMPLE_RATE \
                and len(self.spans) < MAX_SPANS
            return self.roots, keep

    def _span_id(self) -> int:
        with self._rng_lock:
            self._next_id += 1
            return self._next_id

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up run
        traced too; only the measured window counts)."""
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        self.spans.clear()
        self.roots = 0

    # -- results -----------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_us_per_call(self, *names: str) -> float:
        calls = sum(self.calls(n) for n in names)
        if not calls:
            return 0.0
        return sum(self.self_s(n) for n in names) / calls * 1e6

    def layer_shares(self, wall_s: float,
                     waits: Tuple[str, ...] = ()) -> Dict[str, float]:
        """Self time per layer (first dotted component) as a share of
        ``wall_s``.  Spans named in ``waits`` measure time spent blocked
        (a lock wait), not host work: they are reported on their own as
        ``wait:<name>``.  Host time no span covers is ``other``."""
        shares: Dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            key = f"wait:{name}" if name in waits \
                else name.split(".", 1)[0]
            shares[key] = shares.get(key, 0.0) + self_s
        covered = sum(s for k, s in shares.items()
                      if not k.startswith("wait:"))
        out = {key: s / wall_s for key, s in sorted(shares.items())}
        out["other"] = max(wall_s - covered, 0.0) / wall_s
        return out

    def write(self, path: Path) -> int:
        """Write the aggregate table and the sampled span trees as JSON
        lines; returns the number of spans written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name in sorted(self.stats):
                calls, total, self_s = self.stats[name]
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "total_s": total,
                                     "self_s": self_s}) + "\n")
            for trace_id, span_id, parent_id, name, t0, t1 in self.spans:
                fh.write(json.dumps({"trace": trace_id, "span": span_id,
                                     "parent": parent_id, "name": name,
                                     "start": t0, "end": t1}) + "\n")
        return len(self.spans)
