"""The three workloads: sizes, seeded inputs, system set-up and the
in-process measurement of monitor-flat and chaos-fed.

Every input is drawn from the benchmark's ``--seed`` with the
benchmark's own RNG; the program only ever receives the generated
segments, rules and fault plans through its public surface.  Each run
converts ``--seconds`` into a fixed simulated horizon, so the same seed
and the same run length always do the same simulated work and end in
the same state digest, whatever the wall clock does.
"""

from __future__ import annotations

import gc
import random
import time
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from common import BenchError, Metric, peak_rss_mb, state_digest

from repro import ClusterWorX
from repro.faults import FaultPlane
from repro.hardware.faults import FaultKind
from repro.hardware.workload import WorkloadSegment

#: workload sizes; ``tiny`` shrinks every one for the self-test.
SIZES: Dict[str, Dict[str, float]] = {
    # ~2000 nodes on a 5 s agent cadence, free-running at about 7 sim-s
    # per wall second on a 2-core Xeon.  24 sim-s per run-second give a
    # 10 s run 48 one-round slices, so the median over slices is less
    # at the mercy of a few slow ones.
    "monitor-flat": {"nodes": 2000, "interval": 5.0, "warmup": 20.0,
                     "sim_per_run_s": 24.0, "slice": 5.0},
    # steady 50% CPU load, paced at 4 sim-s per wall second (the box
    # sustains ~14 on this load).
    "serve-fed": {"nodes": 2000, "shards": 4, "interval": 5.0,
                  "warmup": 30.0, "pace": 4.0, "slice": 1.0, "cpu": 0.5,
                  "rps": 120.0, "watch_hosts": 160},
    # E15-style slow cadence with a steady 70% CPU load.
    "chaos-fed": {"nodes": 1000, "shards": 4, "interval": 30.0,
                  "warmup": 60.0, "sim_per_run_s": 150.0, "slice": 30.0,
                  "cpu": 0.7, "faults": 24},
}
TINY: Dict[str, Dict[str, float]] = {
    "monitor-flat": {"nodes": 100},
    "serve-fed": {"nodes": 100, "watch_hosts": 40, "rps": 40.0},
    "chaos-fed": {"nodes": 80, "faults": 4},
}
#: set-ups per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 3


def sizes(workload: str, tiny: bool) -> Dict[str, float]:
    cfg = dict(SIZES[workload])
    if tiny:
        cfg.update(TINY[workload])
    return cfg


# -- seeded inputs ---------------------------------------------------------------

def job_mix(seed: int, n_nodes: int, until: float
            ) -> List[List[WorkloadSegment]]:
    """Per-node job sequences covering ``[0, until)``: jobs of 30-240 s
    with mixed CPU, memory, network and disk demand, short idle gaps,
    and an occasional overlapping burst.  The mix makes most dynamic
    values change between samples, so consolidation and demand lookup
    work as they would on a busy cluster."""
    rng = random.Random(f"perfbench-jobs-{seed}")
    mix: List[List[WorkloadSegment]] = []
    for index in range(n_nodes):
        segments: List[WorkloadSegment] = []
        t = -rng.uniform(0.0, 120.0)
        job = 0
        while t < until:
            duration = rng.uniform(30.0, 240.0)
            job += 1
            segments.append(WorkloadSegment(
                start=max(t, 0.0), duration=duration + min(t, 0.0),
                cpu=rng.choice((0.25, 0.5, 0.75, 1.0))
                * rng.uniform(0.85, 1.0),
                memory=int(rng.uniform(64.0, 800.0)) << 20,
                net_tx=rng.uniform(0.0, 4e6), net_rx=rng.uniform(0.0, 4e6),
                disk_read=rng.uniform(0.0, 2e6),
                disk_write=rng.uniform(0.0, 2e6),
                tag=f"n{index}-job{job}"))
            if rng.random() < 0.2:
                segments.append(WorkloadSegment(
                    start=max(t, 0.0) + rng.uniform(0.0, duration / 2),
                    duration=rng.uniform(5.0, 40.0), cpu=0.3,
                    net_tx=2e6, tag=f"n{index}-burst{job}"))
            t += duration + rng.uniform(0.0, 20.0)
        mix.append(segments)
    return mix


#: threshold rules with notification on, installed on every workload.
#: monitor-flat's job mix makes the first three fire and clear; the
#: last is the E19 hot-CPU guard, which chaos-fed's fan faults trip.
RULES = (
    ("cpu-saturated", "cpu_util_pct", ">", 95.0, 0.1),
    ("mem-pressure", "mem_util_pct", ">", 70.0, 0.05),
    ("load-high", "load_1min", ">", 0.9, 0.1),
    ("hot-cpu", "cpu_temp_c", ">", 85.0, 0.05),
)


def add_rules(cwx: ClusterWorX) -> None:
    for name, metric, op, threshold, band in RULES:
        cwx.add_threshold(name, metric=metric, op=op, threshold=threshold,
                          action="none", notify=True, clear_band=band)


def fault_plan(seed: int, hostnames: List[str], n_faults: int,
               shards: int, start: float, window: float
               ) -> Tuple[List[Tuple[float, str, str]], Tuple[float, int]]:
    """Node faults (distinct victims, mixed kinds, spread over the
    window) and one shard kill, all from the benchmark's seed."""
    rng = random.Random(f"perfbench-faults-{seed}")
    victims = rng.sample(sorted(hostnames), n_faults)
    plan = sorted((start + rng.uniform(0.0, window), host,
                   rng.choice(FaultKind.ALL)) for host in victims)
    kill = (start + rng.uniform(0.2 * window, 0.6 * window),
            rng.randrange(shards))
    return plan, kill


# -- the system under test -------------------------------------------------------

class Audit:
    """Store subscriber counting the agent updates the system applied
    (the operator's view of "accepted").  Installed the same way on
    every run, traced or not."""

    def __init__(self) -> None:
        self.applied = 0

    def __call__(self, update) -> None:
        if update.source == "agent":
            self.applied += 1


def build(workload: str, seed: int, cfg: Dict[str, float],
          mix: Optional[List[List[WorkloadSegment]]]) -> ClusterWorX:
    """Facade build + boot + warm-up (what ``setup_s`` times)."""
    options = {}
    if "shards" in cfg:
        options = {"topology": "federation", "shards": int(cfg["shards"])}
    cwx = ClusterWorX(n_nodes=int(cfg["nodes"]), seed=seed,
                      monitor_interval=cfg["interval"], self_healing=True,
                      **options)
    add_rules(cwx)
    if mix is not None:
        for node, segments in zip(cwx.cluster.nodes, mix):
            node.workload.extend(segments)
    else:
        for node in cwx.cluster.nodes:
            node.workload.add(WorkloadSegment(start=0.0, duration=1e9,
                                              cpu=cfg["cpu"]))
    cwx.start()
    cwx.run(cfg["warmup"])
    return cwx


def timed_setups(build_once: Callable[[], ClusterWorX], repeats: int
                 ) -> Tuple[ClusterWorX, List[float]]:
    """Set up ``repeats`` times; keep the last system, drop the rest."""
    samples: List[float] = []
    cwx = None
    for _ in range(repeats):
        cwx = None
        gc.collect()
        t0 = time.perf_counter()
        cwx = build_once()
        samples.append(time.perf_counter() - t0)
    return cwx, samples


# -- counters read from public attributes ----------------------------------------

def shard_servers(cwx: ClusterWorX) -> list:
    shards = getattr(cwx.server, "shards", None)
    if shards is None:
        return [cwx.server]
    return [shard.server for shard in shards]


def counters(cwx: ClusterWorX, audit: Audit) -> Dict[str, float]:
    """Cumulative public counters; a run reports their deltas."""
    agents = list(cwx.agents.values())
    servers = shard_servers(cwx)
    out = {
        "kernel_events": cwx.kernel.events_processed,
        "samples": sum(a.samples_taken for a in agents),
        "transmitted": sum(a.transmitter.frames_sent for a in agents),
        "bytes_sent": sum(a.transmitter.bytes_sent for a in agents),
        "values_seen": sum(a.consolidator.values_seen for a in agents),
        "values_released": sum(a.consolidator.values_released
                               for a in agents),
        "applied": audit.applied,
        "store_updates": sum(s.store.updates_applied for s in servers),
        "full_copies": sum(s.store.full_copies for s in servers),
        "snapshots": sum(s.store.snapshots_taken for s in servers),
        "fired": sum(len(s.engine.fired) for s in servers),
        "emails": len(cwx.email.inbox),
        "dropped": getattr(cwx.server, "updates_dropped", 0),
        "unrouted": getattr(cwx.server, "unrouted_updates", 0),
    }
    shards = getattr(cwx.server, "shards", None)
    if shards is not None:
        channels = [shard.channel for shard in shards]
        rollups = cwx.server.store.rollups
        out.update({
            "channel_calls": sum(c.calls for c in channels),
            "channel_fallbacks": sum(c.failures + c.fast_fails
                                     for c in channels),
            "rollup_reuses": rollups.reuses,
            "rollup_refreshes": rollups.refreshes,
        })
    return out


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


# -- correctness checks ----------------------------------------------------------

def check_ownership(cwx: ClusterWorX) -> str:
    """Every node is tracked by exactly one live owner."""
    shards = getattr(cwx.server, "shards", None)
    hosts = cwx.cluster.hostnames
    if shards is None:
        missing = [h for h in hosts if not cwx.server.store.is_tracked(h)]
        if missing:
            raise BenchError(f"flat store lost {len(missing)} nodes")
        return f"{len(hosts)} nodes tracked by the flat server"
    for host in hosts:
        owner = cwx.server.owner_of(host)
        if owner is None or not owner.active or owner.health == "dead":
            raise BenchError(f"{host} has no live owner ({owner!r})")
        trackers = [s.index for s in shards
                    if s.server.store.is_tracked(host)]
        if trackers != [owner.index]:
            raise BenchError(f"{host} owned by {owner.index} but tracked "
                             f"by shards {trackers}")
    live = sum(1 for s in shards if s.active)
    return f"{len(hosts)} nodes each owned by one of {live} live shards"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


def check_rollup(cwx: ClusterWorX) -> str:
    """The (federated) rollup equals one recomputed from the snapshot."""
    summary = cwx.server.store.summary()
    snapshot = cwx.server.store.snapshot()
    up = cpu_n = 0
    cpu_sum = mem_used = mem_total = temp_max = 0.0
    for host in snapshot:
        values = snapshot[host]
        if values.get("udp_echo") == 1:
            up += 1
        if "cpu_util_pct" in values:
            cpu_n += 1
            cpu_sum += float(values["cpu_util_pct"])
        mem_used += float(values.get("mem_used_bytes", 0))
        mem_total += float(values.get("mem_total_bytes", 0))
        if "cpu_temp_c" in values:
            temp_max = max(temp_max, float(values["cpu_temp_c"]))
    expect = {"nodes_total": len(cwx.cluster.hostnames), "nodes_up": up,
              "cpu_util_mean_pct": cpu_sum / cpu_n if cpu_n else 0.0,
              "mem_used_bytes": mem_used, "mem_total_bytes": mem_total,
              "cpu_temp_max_c": temp_max}
    for key, value in expect.items():
        if not _close(float(summary[key]), float(value)):
            raise BenchError(f"rollup {key}={summary[key]} but the "
                             f"snapshot gives {value}")
    return (f"rollup matches the snapshot ({up}/{len(snapshot)} up, "
            f"cpu mean {expect['cpu_util_mean_pct']:.2f}%)")


def digest_of(cwx: ClusterWorX, counts: Dict[str, object]) -> str:
    return state_digest(cwx.server.store.snapshot(), cwx.kernel.now,
                        counts)


# -- the in-process run ----------------------------------------------------------

class RunResult:
    """What one measured window produced."""

    def __init__(self) -> None:
        self.metrics: List[Metric] = []
        self.attempted = 0
        self.failed = 0
        self.checks: List[str] = []
        self.digest = ""
        #: simulated counts that must repeat exactly for one seed.
        self.sim_counts: Dict[str, object] = {}
        #: host seconds of the measured window, the tracing overhead
        #: base: wall time, or serve-fed's process CPU time.
        self.measured_wall_s = 0.0
        self.counter_delta: Dict[str, float] = {}
        self.info: Dict[str, object] = {}


def run_slices(cwx: ClusterWorX, horizon: float, slice_s: float
               ) -> Tuple[List[float], float]:
    """Advance ``horizon`` sim-seconds in ``slice_s`` steps; returns the
    wall seconds per simulated hour of each step and the total wall."""
    kernel = cwx.kernel
    start = kernel.now
    steps = max(1, int(round(horizon / slice_s)))
    rates: List[float] = []
    clock = time.perf_counter
    t_begin = clock()
    for k in range(1, steps + 1):
        t0 = clock()
        kernel.run(until=start + k * slice_s)
        rates.append((clock() - t0) / slice_s * 3600.0)
    return rates, clock() - t_begin


def measure_in_process(workload: str, seed: int, seconds: int,
                       cfg: Dict[str, float], *, repeats: int,
                       tracer=None) -> RunResult:
    """monitor-flat and chaos-fed: set up, run the horizon, check."""
    chaos = workload == "chaos-fed"
    horizon = seconds * cfg["sim_per_run_s"]
    horizon = max(cfg["slice"], round(horizon / cfg["slice"])
                  * cfg["slice"])
    mix = None if chaos else job_mix(
        seed, int(cfg["nodes"]), cfg["warmup"] + horizon + 300.0)
    cwx, setup_samples = timed_setups(
        lambda: build(workload, seed, cfg, mix), repeats)
    audit = Audit()
    cwx.server.subscribe(audit, name="perfbench-audit")
    result = RunResult()

    transitions: List[Tuple[float, str, str]] = []
    plan: List[Tuple[float, str, str]] = []
    kill: Optional[Tuple[float, int]] = None
    if chaos:
        kernel = cwx.kernel
        cwx.server.health.add_listener(
            lambda host, old, new, reason: transitions.append(
                (kernel.now, host, new.value)))
        t0 = cwx.kernel.now
        plan, (kill_after, kill_index) = fault_plan(
            seed, cwx.cluster.hostnames, int(cfg["faults"]),
            int(cfg["shards"]), t0 + 10.0, 0.3 * horizon)
        for at, host, kind in plan:
            cwx.cluster.faults.schedule(cwx.cluster.node(host), kind, at)
        kill = (kill_after, kill_index)
        FaultPlane(cwx.kernel, federation=cwx.server).kill_shard(
            kill_index, at=kill_after)

    before = counters(cwx, audit)
    if tracer is not None:
        tracer.reset()
    rates, wall = run_slices(cwx, horizon, cfg["slice"])
    if tracer is not None:
        tracer.uninstall()  # the checks below are not part of the window
    after = counters(cwx, audit)
    d = delta(after, before)
    result.counter_delta = d
    result.measured_wall_s = wall

    result.checks.append(check_ownership(cwx))
    result.checks.append(check_rollup(cwx))
    lost = d["transmitted"] - d["applied"] - d["dropped"] - d["unrouted"]
    if lost:
        raise BenchError(f"{lost} transmitted updates neither applied nor "
                         "counted as dropped")
    result.checks.append(
        f"{int(d['transmitted'])} updates transmitted = "
        f"{int(d['applied'])} applied + {int(d['dropped'])} dropped")

    transmitted = max(d["transmitted"], 1)
    keep = d["values_released"] / max(d["values_seen"], 1)
    result.metrics += [
        Metric("setup_s", median(setup_samples), samples=setup_samples),
        Metric("wall_s_per_sim_hour", median(rates), samples=rates,
               note=f"{horizon:g} sim-s in {len(rates)} slices"),
        Metric("peak_rss_mb", peak_rss_mb()),
    ]
    result.info["keep_ratio"] = round(keep, 4)
    result.info["sim_horizon_s"] = horizon
    counts = {"updates_applied": int(d["applied"]),
              "transmitted": int(d["transmitted"]),
              "kernel_events": int(d["kernel_events"]),
              "fired": int(d["fired"])}

    if not chaos:
        failed = int(d["transmitted"] - d["applied"])
        result.metrics.append(Metric(
            "error_ratio", failed / transmitted,
            note="transmitted updates not applied"))
        result.attempted = int(d["transmitted"])
        result.failed = failed
    else:
        scored = score_chaos(cwx, plan, kill, transitions)
        result.metrics.append(Metric(
            "error_ratio", d["dropped"] / transmitted,
            note=f"{int(d['dropped'])} updates dropped by the dead shard"))
        result.metrics += scored["metrics"]
        result.attempted = len(plan) + 1
        result.failed = scored["unhealed"] + (0 if scored["failed_over"]
                                              else 1)
        result.info.update(scored["info"])
        counts.update(scored["counts"])
        counts["dropped"] = int(d["dropped"])
    result.sim_counts = counts
    result.digest = digest_of(cwx, counts)
    return result


def score_chaos(cwx: ClusterWorX, plan, kill, transitions) -> dict:
    """Detection, repair and fail-over scored from public observations:
    health-transition listener events, the federation's fail-over audit
    trail, and the shard channels' drop counters."""
    detect: List[float] = []
    repair: List[float] = []
    unhealed = benign = 0
    for at, host, kind in plan:
        seen = [(t, state) for t, h, state in transitions
                if h == host and t >= at]
        downs = [t for t, state in seen if state == "down"]
        if not downs:
            benign += 1
            continue
        detected = downs[0]
        detect.append(detected - at)
        ends = [t for t, state in seen
                if t >= detected and state in ("healthy", "quarantined")]
        if ends:
            repair.append(ends[0] - detected)
        else:
            unhealed += 1
    kill_at, kill_index = kill
    rows = [row for row in cwx.server.failovers
            if row[1] == kill_index and row[0] >= kill_at]
    failover = rows[0][0] - kill_at if rows else None
    metrics = [
        Metric("detect_sim_s", sum(detect) / len(detect) if detect else 0.0,
               samples=detect, note="mean injection -> DOWN"),
        Metric("mttr_sim_s", sum(repair) / len(repair) if repair else 0.0,
               samples=repair, note="mean DOWN -> healthy/quarantined"),
        Metric("failover_sim_s",
               failover if failover is not None else float("inf"),
               note=f"shard {kill_index} killed at t={kill_at:.1f}"),
        Metric("faults_unhealed", unhealed,
               note=f"{len(plan)} node faults, {benign} never went down"),
    ]
    counts = {"detect_sim_s": round(sum(detect), 6),
              "mttr_sim_s": round(sum(repair), 6),
              "failover_sim_s": round(failover, 6)
              if failover is not None else None,
              "faults_detected": len(detect)}
    return {"metrics": metrics, "unhealed": unhealed,
            "failed_over": failover is not None, "counts": counts,
            "info": {"faults": len(plan), "benign": benign,
                     "nodes_moved": rows[0][3] if rows else 0}}
