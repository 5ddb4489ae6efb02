"""CPU model: utilization, jiffy counters, and identification.

The model is lazy: utilization at time ``t`` comes from the node's workload
demand; the cumulative jiffy counters exposed through ``/proc/stat`` are
integrals of that demand, evaluated in closed form when sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode

__all__ = ["CPUSpec", "CPU"]

#: Linux USER_HZ: jiffies per second in /proc/stat accounting.
USER_HZ = 100.0


@dataclass(frozen=True)
class CPUSpec:
    """Static identification, mirroring what /proc/cpuinfo would report."""

    model_name: str = "Pentium III (Coppermine)"
    mhz: float = 1000.0
    cores: int = 1
    cache_kb: int = 256
    vendor: str = "GenuineIntel"


class CPU:
    """Per-node CPU with workload-driven utilization.

    ``utilization(t)`` is the aggregate workload CPU demand clamped to the
    core count, normalized to [0, 1].  The split between user and system
    time uses a fixed ratio; idle absorbs the rest.
    """

    #: fraction of busy time accounted as system (kernel) time.
    SYSTEM_SHARE = 0.12

    __slots__ = ("node", "spec", "_overhead", "_overhead_sum", "_mark_t",
                 "_mark_busy", "_mark_boot", "_mark_version")

    def __init__(self, node: "SimulatedNode", spec: CPUSpec = CPUSpec()):
        self.node = node
        self.spec = spec
        #: extra demand injected by management tasks (e.g. local cloning
        #: writes, monitoring agents measuring their own footprint).
        self._overhead: Dict[str, float] = {}
        self._overhead_sum = 0.0
        # jiffies checkpoint: busy seconds from boot to the change point
        # _mark_t, valid while the boot time and workload version are the
        # ones it was summed under (set_overhead drops it).  A node has a
        # boot time exactly while its OS runs, so the run state is covered.
        self._mark_t: Optional[float] = None
        self._mark_busy = 0.0
        self._mark_boot: Optional[float] = None
        self._mark_version = 0

    # -- management overhead -------------------------------------------
    def set_overhead(self, key: str, fraction: float) -> None:
        """Register a constant management CPU demand (fraction of a core)."""
        if fraction <= 0:
            self._overhead.pop(key, None)
        else:
            self._overhead[key] = float(fraction)
        self._overhead_sum = sum(self._overhead.values())
        self._mark_t = None

    @property
    def overhead(self) -> float:
        return self._overhead_sum

    # -- dynamic state --------------------------------------------------
    def demand(self, t: float) -> float:
        """Raw demand in core-equivalents (can exceed ``cores``)."""
        if not self.node.is_running(t):
            return 0.0
        return self.node.demand(t)["cpu"] + self._overhead_sum

    def utilization(self, t: float) -> float:
        """Fraction of total capacity in use, in [0, 1]."""
        if self.spec.cores <= 0:
            return 0.0
        return min(self.demand(t), float(self.spec.cores)) / self.spec.cores

    def loadavg(self, t: float) -> float:
        """1-minute load average approximation.

        Load average counts runnable tasks; with piecewise-constant demand
        the exponentially-weighted average is approximated by the mean
        demand over the trailing minute (exact enough for threshold tests).
        """
        if not self.node.is_running(t):
            return 0.0
        window = 60.0
        t0 = max(self.node.boot_completed_at or 0.0, t - window)
        span = max(t - t0, 1e-9)
        demand_integral = self.node.workload.integrate("cpu", t0, t)
        return demand_integral / span + self.overhead

    def jiffies(self, t: float) -> Dict[str, int]:
        """Cumulative jiffy counters since boot, as /proc/stat reports.

        Busy time is the integral of (clamped) utilization; the clamp is
        applied per change-point interval so oversubscribed phases do not
        overcount.  The sum up to the last change point before ``t`` is
        kept, so the next query adds only the intervals after it.
        """
        node = self.node
        boot = node.boot_completed_at
        if boot is None or t <= boot:
            return {"user": 0, "nice": 0, "system": 0, "idle": 0}
        workload = node.workload
        if (self._mark_t is None or t <= self._mark_t
                or boot != self._mark_boot
                or workload.version != self._mark_version):
            self._mark_t = boot
            self._mark_busy = 0.0
            self._mark_boot = boot
            self._mark_version = workload.version
        a = self._mark_t
        busy = self._mark_busy
        for b in workload.change_points(a, t):
            busy += self.utilization((a + b) / 2.0) * (b - a)
            a = b
        self._mark_t = a
        self._mark_busy = busy
        busy += self.utilization((a + t) / 2.0) * (t - a)
        busy *= self.spec.cores
        total = (t - boot) * self.spec.cores
        system = busy * self.SYSTEM_SHARE
        user = busy - system
        idle = max(total - busy, 0.0)
        return {
            "user": int(user * USER_HZ),
            "nice": 0,
            "system": int(system * USER_HZ),
            "idle": int(idle * USER_HZ),
        }
