"""Shared pieces of the benchmark: the metric catalogue, sample
statistics, provenance, the state digest and the result printer.

Nothing here imports :mod:`repro`; :func:`bootstrap` puts the checkout's
``src`` directory on ``sys.path`` first and fails loudly when the
checkout holds no program to measure.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: the benchmark's own directory and the checkout it measures.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: where runs leave their result rows and sampled span trees.
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("monitor-flat", "serve-fed", "chaos-fed")

#: end-to-end metrics: name -> (unit, workloads that define it).
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", WORKLOADS),
    "wall_s_per_sim_hour": ("s", WORKLOADS),
    "peak_rss_mb": ("MB", WORKLOADS),
    "error_ratio": ("ratio", WORKLOADS),
    "req_p50_ms": ("ms", ("serve-fed",)),
    "req_p99_ms": ("ms", ("serve-fed",)),
    "watch_lag_p99_ms": ("ms", ("serve-fed",)),
    "detect_sim_s": ("sim_s", ("chaos-fed",)),
    "mttr_sim_s": ("sim_s", ("chaos-fed",)),
    "failover_sim_s": ("sim_s", ("chaos-fed",)),
    "faults_unhealed": ("count", ("chaos-fed",)),
}

#: serve-fed's request mix: route key -> (gateway route template, share
#: of requests).  The last three take the slice lock.
ROUTES: Dict[str, Tuple[str, float]] = {
    "summary": ("/v1/summary", 0.35),
    "host": ("/v1/hosts/{hostname}", 0.27),
    "query": ("/v1/query", 0.23),
    "history": ("/v1/history/{hostname}/{metric}", 0.07),
    "events_log": ("/v1/events/log", 0.05),
    "shards": ("/v1/shards", 0.03),
}

_DATAPATH = WORKLOADS
_FED = ("serve-fed", "chaos-fed")
_CHAOS = ("chaos-fed",)
_SERVE = ("serve-fed",)

#: per-layer metrics from the traced run: name -> (unit, workloads).
PER_LAYER: Dict[str, tuple] = {
    "sim.kernel.events": ("count", _DATAPATH),
    "sim.kernel.residual_us_per_event": ("us", _DATAPATH),
    "hardware.demand_calls_per_sample": ("count", _DATAPATH),
    "monitoring.gather.us": ("us", _DATAPATH),
    "monitoring.consolidate.us": ("us", _DATAPATH),
    "monitoring.consolidate.keep_ratio": ("ratio", _DATAPATH),
    "monitoring.transmit.us": ("us", _DATAPATH),
    "monitoring.transmit.bytes_per_update": ("bytes", _DATAPATH),
    "monitoring.history.us": ("us", _DATAPATH),
    "core.store.apply_us": ("us", _DATAPATH),
    "core.store.subscribers_per_update": ("count", _DATAPATH),
    "core.store.full_copies": ("count", _DATAPATH),
    "core.store.snapshots": ("count", _DATAPATH),
    "events.feed_us": ("us", _DATAPATH),
    "events.fired": ("count", _DATAPATH),
    "events.notifications": ("count", _DATAPATH),
    "events.notify_per_fire": ("ratio", _DATAPATH),
    "resilience.health_eval_us": ("us", _DATAPATH),
    "resilience.playbooks": ("count", _CHAOS),
    "resilience.rungs_climbed": ("count", _CHAOS),
    "remote.tasks": ("count", _CHAOS),
    "remote.retries": ("count", _CHAOS),
    "federation.ingest_us": ("us", _FED),
    "federation.channel.calls": ("count", _FED),
    "federation.channel.fallbacks": ("count", _FED),
    "federation.rollup.reuse_ratio": ("ratio", _FED),
    "federation.updates_dropped": ("count", _CHAOS),
    "federation.failover_wall_ms": ("ms", _CHAOS),
    "gateway.publish_us": ("us", _SERVE),
    "gateway.publish_reuse_ratio": ("ratio", _SERVE),
    "gateway.cold_lock_wait_us": ("us", _SERVE),
    "gateway.wire.encode_us": ("us", _SERVE),
    "gateway.watch.frames": ("count", _SERVE),
    "gateway.watch.coalesced": ("count", _SERVE),
    **{f"gateway.route.{key}.{what}": (unit, _SERVE)
       for key in ROUTES for what, unit in (("us", "us"),
                                            ("p99_ms", "ms"))},
}

#: every metric's unit, by name.
UNITS: Dict[str, str] = {name: unit for catalogue in (END_TO_END, PER_LAYER)
                         for name, (unit, _) in catalogue.items()}


class BenchError(RuntimeError):
    """A correctness check failed or the run is invalid."""


def bootstrap() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Exits with code 2 when the checkout holds no ``src/repro`` package,
    so a directory with only the benchmark's files fails fast without
    printing a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}",
              file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# -- sample statistics ---------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def tail_percentile(n: int) -> float:
    """The highest of p50/p90/p95/p99/p99.9 with at least ten samples
    beyond it."""
    best = 50.0
    for pct in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return best


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """n, median, quartiles and the tail percentile of one sample set."""
    n = len(values)
    if n == 0:
        return {"n": 0}
    tail = tail_percentile(n)
    return {"n": n, "median": statistics.median(values),
            "q1": percentile(values, 25.0), "q3": percentile(values, 75.0),
            "tail_pct": tail, "tail": percentile(values, tail)}


class Metric:
    """One reported number, the samples behind it and its unit, which
    comes from the catalogue (an unlisted name raises KeyError)."""

    __slots__ = ("name", "unit", "value", "samples", "note")

    def __init__(self, name: str, value: float, *,
                 samples: Optional[Sequence[float]] = None,
                 note: str = ""):
        self.name = name
        self.unit = UNITS[name]
        self.value = float(value)
        self.samples = list(samples) if samples is not None else None
        self.note = note

    def row(self) -> Dict[str, object]:
        out: Dict[str, object] = {"value": self.value, "unit": self.unit}
        if self.samples:
            out.update(summarize(self.samples))
            out["samples"] = self.samples
        if self.note:
            out["note"] = self.note
        return out

    def line(self) -> str:
        text = f"  {self.name:<40s} {self.value:14.6g} {self.unit:<7s}"
        if self.samples:
            s = summarize(self.samples)
            text += (f" n={s['n']:<5d} median={s['median']:.6g} "
                     f"q1={s['q1']:.6g} q3={s['q3']:.6g} "
                     f"p{s['tail_pct']:g}={s['tail']:.6g}")
        else:
            text += " n=1    "
        if self.note:
            text += f"  ({self.note})"
        return text


# -- provenance ----------------------------------------------------------------

def _commit() -> str:
    """The git commit when the checkout is a repository, else a digest
    of the source tree (the benchmark's checkout is not a repository)."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(*, workload: str, seed: int, seconds: int, trace: bool,
               repeats: Mapping[str, int]) -> Dict[str, object]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {"commit": _commit(), "python": platform.python_version(),
            "cpu_model": _cpu_model(), "nproc": nproc,
            "workload": workload, "seed": seed, "run_seconds": seconds,
            "trace": trace, "repeats": dict(repeats)}


# -- state digest ----------------------------------------------------------------

def state_digest(snapshot: Mapping[str, Mapping[str, object]],
                 sim_time: float, counts: Mapping[str, object]) -> str:
    """sha256 over every host's current values, the sim clock and the
    simulated counts; same seed and same code give the same digest."""
    digest = hashlib.sha256()
    for hostname in sorted(snapshot):
        values = snapshot[hostname]
        digest.update(hostname.encode())
        digest.update(repr(sorted(values.items())).encode())
    digest.update(repr(round(sim_time, 9)).encode())
    digest.update(json.dumps(dict(counts), sort_keys=True).encode())
    return digest.hexdigest()[:20]


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def print_metrics(title: str, metrics: List[Metric]) -> None:
    print(title)
    for metric in metrics:
        print(metric.line())
