"""Memory model: workload-resident set plus kernel baseline plus leaks.

Usage at time ``t`` is ``baseline + workload.memory(t) + leak(t)``, clamped
to physical capacity.  Leaks (fault injection) grow linearly from their
start time — the shape the event engine's memory threshold monitors exist
to catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode

__all__ = ["MemorySpec", "Memory"]


@dataclass(frozen=True)
class MemorySpec:
    total: int = 1 << 30          # 1 GiB, the paper's testbed size
    swap_total: int = 2 << 30


@dataclass
class _Leak:
    start: float
    rate: float  # bytes/second
    cap: int     # never leak more than this

    def amount(self, t: float) -> int:
        if t <= self.start:
            return 0
        return min(int((t - self.start) * self.rate), self.cap)


class Memory:
    """Physical + swap memory with lazy usage evaluation."""

    #: kernel + boot-time baseline usage.
    BASELINE = 96 << 20
    #: buffers/cached follow a fixed fraction of free memory.
    CACHE_FRACTION = 0.35

    __slots__ = ("node", "spec", "_leaks")

    def __init__(self, node: "SimulatedNode", spec: MemorySpec = MemorySpec()):
        self.node = node
        self.spec = spec
        self._leaks: List[_Leak] = []

    def inject_leak(self, start: float, rate: float,
                    cap: int | None = None) -> None:
        """Start a linear memory leak of ``rate`` bytes/second at ``start``."""
        if rate <= 0:
            raise ValueError("leak rate must be positive")
        self._leaks.append(_Leak(start=start, rate=rate,
                                 cap=cap if cap is not None
                                 else self.spec.total))

    def clear_leaks(self) -> None:
        """Remove all leaks (models restarting the leaking service)."""
        self._leaks.clear()

    def _leaked(self, t: float) -> int:
        """Bytes held by injected leaks at ``t``."""
        if not self._leaks:
            return 0
        return sum(leak.amount(t) for leak in self._leaks)

    def used(self, t: float) -> int:
        if not self.node.is_running(t):
            return 0
        demand = self.node.demand(t)["memory"]
        leaked = self._leaked(t)
        return min(self.BASELINE + demand + leaked, self.spec.total)

    def free(self, t: float) -> int:
        return self.spec.total - self.used(t)

    def cached(self, t: float) -> int:
        return int(self.free(t) * self.CACHE_FRACTION)

    def swap_used(self, t: float) -> int:
        """Swap absorbs demand beyond physical capacity.

        Diskless nodes have no swap partition at all."""
        if not self.node.is_running(t) or getattr(self.node, "diskless",
                                                  False):
            return 0
        demand = self.node.demand(t)["memory"]
        leaked = self._leaked(t)
        over = self.BASELINE + demand + leaked - self.spec.total
        return max(0, min(over, self.spec.swap_total))

    def utilization(self, t: float) -> float:
        return self.used(t) / self.spec.total
