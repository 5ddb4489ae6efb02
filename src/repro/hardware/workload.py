"""Synthetic workload model driving node utilization.

The paper's clusters run HPC jobs; the monitoring stack observes their CPU,
memory and network footprints through /proc.  Rather than ticking every node
every second (ruinous at 1000 nodes), a node's workload is a set of
*segments* — piecewise-constant demands with a start time and duration —
and every component model evaluates its state analytically at query time.

:class:`WorkloadGenerator` produces job-shaped segment patterns (bursty MPI
phases, memory ramps) from a named RNG stream, so experiments are
deterministic per seed.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["WorkloadSegment", "Workload", "WorkloadGenerator"]

#: versions are unique across all workloads, so a cache keyed on one
#: can never mistake another workload's state for its own.
_VERSIONS = itertools.count(1)
_start = operator.attrgetter("start")


@dataclass(frozen=True, slots=True)
class WorkloadSegment:
    """A constant resource demand over ``[start, start + duration)``.

    ``cpu`` is a fraction of one node's compute capacity in [0, 1+]; values
    above 1 model oversubscription and are clamped by the CPU model.
    ``net_tx``/``net_rx`` are bytes/second offered to the NIC.
    """

    start: float
    duration: float
    cpu: float = 0.0
    memory: int = 0          # bytes resident while active
    net_tx: float = 0.0      # bytes/s
    net_rx: float = 0.0      # bytes/s
    disk_read: float = 0.0   # bytes/s
    disk_write: float = 0.0  # bytes/s
    tag: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end


class Workload:
    """The set of segments currently attached to one node.

    Segments are kept sorted by start time.  Aggregate demand is constant
    between consecutive *change points* (segment starts and ends), and
    every query is served from caches that any mutation (``add``,
    ``extend``, ``remove_tagged``, ``truncate_tagged``) drops by changing
    :attr:`version`; the first query after a change rebuilds them in
    O(n log n) for n segments.  Query costs:

    * ``demand(t)`` memoises the aggregate of the constant interval
      ``[p_i, p_i+1)`` it last answered: a query inside it is a range
      check, a query outside it a bisect plus a sum over the segments
      started by ``t`` and not yet finished (the finished prefix is
      skipped by bisect).  Each call returns a fresh dict of the memo.
    * ``change_points(t0, t1)`` is a bisect slice of the sorted points.
    * ``active(t)`` skips the finished prefix the same way.
    * ``integrate(attr, t0, t1)`` keeps one checkpoint per attribute: the
      running sum over the leading segments that had finished by the last
      query's ``t1``.  A query with the same ``t0`` resumes from it and
      walks only the unfinished tail, adding terms in the same order as a
      full walk, so results are bit-identical.  A new ``t0`` (a sliding
      window) or an earlier ``t1`` restarts the walk after the segments
      finished by ``t0``, which contribute nothing.
    """

    #: demand attributes, in the order :meth:`demand` sums them.
    ATTRS = ("cpu", "memory", "net_tx", "net_rx", "disk_read", "disk_write")

    __slots__ = ("_segments", "_points", "_reach", "_marks", "_sums",
                 "_version", "_lo", "_hi")

    def __init__(self) -> None:
        self._segments: List[WorkloadSegment] = []
        #: sorted distinct starts and ends (None: rebuild on next query).
        self._points: Optional[List[float]] = None
        #: ``_reach[i]`` = latest end among ``_segments[:i + 1]``, so the
        #: leading segments all finished by ``t`` are the first
        #: ``bisect_right(_reach, t)``.
        self._reach: List[float] = []
        # integrate checkpoints, three slots per ATTRS entry: t0, how many
        # leading segments are summed, and their sum
        self._marks: List[object] = []
        # demand memo: the aggregate over [_lo, _hi), in ATTRS order
        self._sums: List[float] = [0.0] * len(self.ATTRS)
        self._changed()

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def version(self) -> int:
        """Changes with every mutation; models key their caches on it."""
        return self._version

    def _changed(self) -> None:
        """Drop every cache; the next query rebuilds what it needs."""
        self._version = next(_VERSIONS)
        self._points = None
        self._lo = self._hi = 0.0  # an empty interval: the next demand misses

    def _index(self) -> List[float]:
        if self._points is None:
            points = set()
            ends = []
            for s in self._segments:
                end = s.end
                points.add(s.start)
                points.add(end)
                ends.append(end)
            self._points = sorted(points)
            self._reach = list(itertools.accumulate(ends, max))
            self._marks = [None, 0, 0.0] * len(self.ATTRS)
        return self._points

    def add(self, segment: WorkloadSegment) -> None:
        idx = bisect.bisect(self._segments, segment.start, key=_start)
        self._segments.insert(idx, segment)
        self._changed()

    def extend(self, segments: Iterable[WorkloadSegment]) -> None:
        for seg in segments:
            self.add(seg)

    def remove_tagged(self, tag: str) -> int:
        """Remove all segments with ``tag`` (job cancellation). Returns count."""
        keep = [s for s in self._segments if s.tag != tag]
        removed = len(self._segments) - len(keep)
        self._segments = keep
        self._changed()
        return removed

    def truncate_tagged(self, tag: str, at: float) -> int:
        """End all segments with ``tag`` at time ``at`` (job completion/kill).

        Segments already finished are untouched; active ones are shortened;
        future ones are dropped.  Returns the number of segments affected.
        """
        changed = 0
        new: List[WorkloadSegment] = []
        for s in self._segments:
            if s.tag != tag or s.end <= at:
                new.append(s)
                continue
            changed += 1
            if s.start < at:
                new.append(WorkloadSegment(
                    start=s.start, duration=at - s.start, cpu=s.cpu,
                    memory=s.memory, net_tx=s.net_tx, net_rx=s.net_rx,
                    disk_read=s.disk_read, disk_write=s.disk_write,
                    tag=s.tag))
        self._segments = sorted(new, key=_start)
        self._changed()
        return changed

    def active(self, t: float) -> List[WorkloadSegment]:
        self._index()
        lo = bisect.bisect_right(self._reach, t)
        hi = bisect.bisect(self._segments, t, key=_start)
        return [s for s in self._segments[lo:hi] if s.active_at(t)]

    def demand(self, t: float) -> dict:
        """Aggregate demand at time ``t``."""
        sums = self._sums
        if not self._lo <= t < self._hi:
            points = self._index()
            cpu = mem = tx = rx = dr = dw = 0.0
            for s in self.active(t):
                cpu += s.cpu
                mem += s.memory
                tx += s.net_tx
                rx += s.net_rx
                dr += s.disk_read
                dw += s.disk_write
            sums[0] = cpu
            sums[1] = int(mem)
            sums[2] = tx
            sums[3] = rx
            sums[4] = dr
            sums[5] = dw
            i = bisect.bisect_right(points, t)
            self._lo = points[i - 1] if i else float("-inf")
            self._hi = points[i] if i < len(points) else float("inf")
        return {"cpu": sums[0], "memory": sums[1], "net_tx": sums[2],
                "net_rx": sums[3], "disk_read": sums[4],
                "disk_write": sums[5]}

    def integrate(self, attr: str, t0: float, t1: float) -> float:
        """Integral of one demand attribute over ``[t0, t1]``.

        Exact for the piecewise-constant model: each segment contributes
        ``value * overlap``, summed in segment order.
        """
        if t1 <= t0:
            return 0.0
        if self._points is None:
            self._index()
        segments = self._segments
        marks = self._marks
        k = 3 * _SLOT[attr]
        done = bisect.bisect_right(self._reach, t1)
        i = marks[k + 1]
        if marks[k] != t0 or i > done:
            # segments finished by t0 have no overlap with [t0, t1]
            i = bisect.bisect_right(self._reach, t0)
            marks[k] = t0
            marks[k + 2] = 0.0
        total = marks[k + 2]
        if i < done:
            # finished segments: their terms no longer depend on t1
            for s in segments[i:done]:
                overlap = s.end - max(s.start, t0)
                if overlap > 0:
                    total += getattr(s, attr) * overlap
            i = done
            marks[k + 2] = total
        marks[k + 1] = i
        for s in segments[i:]:
            if s.start >= t1:
                break
            overlap = min(s.end, t1) - max(s.start, t0)
            if overlap > 0:
                total += getattr(s, attr) * overlap
        return total

    def change_points(self, t0: float, t1: float) -> List[float]:
        """Times in ``(t0, t1)`` where aggregate demand changes."""
        points = self._index()
        return points[bisect.bisect_right(points, t0):
                      bisect.bisect_left(points, t1)]


#: checkpoint slot of each attribute in ``Workload._marks``
_SLOT = {attr: i for i, attr in enumerate(Workload.ATTRS)}


class WorkloadGenerator:
    """Generates deterministic job-like workload patterns.

    The generated shapes mirror the cluster usage the paper's monitoring
    sections care about: compute phases with high CPU, communication phases
    with network traffic, and memory that ramps and holds.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def hpc_job(self, start: float, *, phases: Optional[int] = None,
                phase_duration: Tuple[float, float] = (20.0, 120.0),
                cpu_range: Tuple[float, float] = (0.6, 1.0),
                memory_range: Tuple[int, int] = (256 << 20, 2048 << 20),
                comm_fraction: float = 0.25,
                net_rate: float = 8e6,
                tag: str = "job") -> List[WorkloadSegment]:
        """A bulk-synchronous job: alternating compute and comm phases."""
        if phases is None:
            phases = int(self.rng.integers(3, 9))
        mem = int(self.rng.integers(memory_range[0], memory_range[1] + 1))
        t = start
        segments: List[WorkloadSegment] = []
        for _ in range(phases):
            dur = float(self.rng.uniform(*phase_duration))
            compute = dur * (1.0 - comm_fraction)
            comm = dur * comm_fraction
            cpu = float(self.rng.uniform(*cpu_range))
            segments.append(WorkloadSegment(
                start=t, duration=compute, cpu=cpu, memory=mem, tag=tag))
            segments.append(WorkloadSegment(
                start=t + compute, duration=comm, cpu=cpu * 0.3, memory=mem,
                net_tx=net_rate, net_rx=net_rate, tag=tag))
            t += dur
        return segments

    def background_noise(self, start: float, duration: float,
                         *, level: float = 0.03,
                         tag: str = "system") -> List[WorkloadSegment]:
        """OS daemons: a low constant CPU/memory floor."""
        return [WorkloadSegment(
            start=start, duration=duration, cpu=level,
            memory=64 << 20, tag=tag)]

    def io_heavy_job(self, start: float, *, duration: float = 300.0,
                     write_rate: float = 40e6, read_rate: float = 20e6,
                     tag: str = "io-job") -> List[WorkloadSegment]:
        """A checkpoint-style job dominated by disk traffic."""
        return [WorkloadSegment(
            start=start, duration=duration, cpu=0.2,
            memory=512 << 20, disk_read=read_rate, disk_write=write_rate,
            tag=tag)]

    def memory_ramp(self, start: float, *, steps: int = 8,
                    step_duration: float = 30.0,
                    step_bytes: int = 256 << 20,
                    tag: str = "ramp") -> List[WorkloadSegment]:
        """Memory that grows stepwise — exercises leak-style monitors."""
        return [WorkloadSegment(
            start=start + i * step_duration, duration=step_duration,
            cpu=0.4, memory=(i + 1) * step_bytes, tag=tag)
            for i in range(steps)]
