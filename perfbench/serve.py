"""serve-fed: a 4-shard federation behind ``GatewayService``, paced on
a fixed schedule, under load from a separate generator process.

This process is the system under test.  It builds the federation, starts
the gateway's asyncio server in the main thread and drives the
simulation from :class:`PacedDriver` on a second thread.  The driver
makes the same two public calls the gateway's own ``SimDriver`` makes,
``kernel.run(until=...)`` then ``GatewayState.refresh()`` under
``GatewayState.lock``, but on a fixed schedule of simulated seconds per
wall second, so every run does the same simulated work and publishes
the same views whatever the host speed (``SimDriver`` free-runs).
The load generator sends a fixed seeded plan, so the serving work of a
window is fixed too, and ``wall_s_per_sim_hour`` is this process's CPU
time (both threads) over the paced window per simulated hour.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from statistics import median
from typing import Dict, List, Optional

from common import (BENCH_DIR, ROUTES, BenchError, Metric, peak_rss_mb,
                    summarize)
from workloads import (Audit, RunResult, build, check_ownership,
                       check_rollup, counters, delta, digest_of,
                       timed_setups)

from repro.gateway import GatewayService, WatchPolicy
from repro.remote.nodeset import NodeSet

#: run validity limits: a run beyond either is invalid, never fast.
MAX_SEND_LATE_P99_MS = 100.0
MAX_SIM_BEHIND_MS = 2000.0


class PacedDriver(threading.Thread):
    """Run simulated slice k when wall time reaches ``wall0 + k*slice/
    pace``; record how late each slice started, how long it held the
    slice lock, the simulation thread's CPU time inside it, and the
    whole process's CPU time at ``wall0`` and after each slice."""

    def __init__(self, state, kernel, *, wall0: float, sim0: float,
                 pace: float, slice_s: float, slices: int):
        super().__init__(name="perfbench-paced-sim", daemon=True)
        self.state = state
        self.kernel = kernel
        self.wall0 = wall0
        self.sim0 = sim0
        self.pace = pace
        self.slice_s = slice_s
        self.slices = slices
        self.late_s: List[float] = []
        self.busy_s: List[float] = []
        self.cpu_s: List[float] = []
        self.process_cpu: List[float] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        clock = time.monotonic
        try:
            wait = self.wall0 - clock()
            if wait > 0:
                time.sleep(wait)
            self.process_cpu.append(time.process_time())
            for k in range(1, self.slices + 1):
                due = self.wall0 + k * self.slice_s / self.pace
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                self.late_s.append(clock() - due)
                with self.state.lock:
                    t0 = clock()
                    c0 = time.thread_time()
                    self.kernel.run(until=self.sim0 + k * self.slice_s)
                    self.state.refresh()
                    self.cpu_s.append(time.thread_time() - c0)
                    self.busy_s.append(clock() - t0)
                self.process_cpu.append(time.process_time())
        except BaseException as exc:  # re-raised by the caller
            self.error = exc


async def _window(cwx, seed: int, seconds: int, cfg: Dict[str, float],
                  tracer) -> Dict[str, object]:
    """One serving window: gateway up, generator attached, paced sim."""
    service = GatewayService(cwx.server, cluster=cwx.cluster,
                             policy=WatchPolicy(queue_limit=64,
                                                evict_backlog=256))
    if tracer is not None:
        for route in service.router.routes:
            route.handler = tracer.wrap(
                route.handler, "gateway.route." + route.template,
                root=True)
    await service.start()
    hostnames = cwx.cluster.hostnames
    watch = NodeSet(",".join(hostnames[:int(cfg["watch_hosts"])])).fold()
    racks = max(1, len(hostnames) // 10)
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(BENCH_DIR / "loadgen.py"),
        "--port", str(service.port), "--seed", str(seed),
        "--seconds", str(seconds), "--rps", str(cfg["rps"]),
        "--hosts", NodeSet(",".join(hostnames)).fold(),
        "--racks", str(racks), "--watch", watch,
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE)
    driver = None
    try:
        ready = await asyncio.wait_for(proc.stdout.readline(), 60.0)
        if ready.strip() != b"READY":
            raise BenchError(f"load generator failed to start: {ready!r}")
        slices = int(round(seconds * cfg["pace"] / cfg["slice"]))
        anchor = {"wall0": time.monotonic() + 0.3,
                  "sim0": cwx.kernel.now, "pace": cfg["pace"]}
        driver = PacedDriver(service.state, cwx.kernel,
                             wall0=anchor["wall0"], sim0=anchor["sim0"],
                             pace=cfg["pace"], slice_s=cfg["slice"],
                             slices=slices)
        proc.stdin.write((json.dumps(anchor) + "\n").encode())
        await proc.stdin.drain()
        if tracer is not None:
            tracer.reset()
        driver.start()
        while driver.is_alive():
            await asyncio.sleep(0.05)
        if driver.error is not None:
            raise BenchError(f"paced simulation died: {driver.error!r}")
        out = await asyncio.wait_for(proc.stdout.read(), 30.0)
        await asyncio.wait_for(proc.wait(), 30.0)
        if tracer is not None:
            tracer.uninstall()  # the checks are not part of the window
        if proc.returncode != 0:
            raise BenchError(f"load generator exited {proc.returncode}")
        load = json.loads(out.decode().strip().splitlines()[-1])
        stats = service.stats_values()
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
        await service.stop()
    return {"driver": driver, "load": load, "stats": stats,
            "state": service.state}


def measure_serve(seed: int, seconds: int, cfg: Dict[str, float], *,
                  repeats: int, tracer=None) -> RunResult:
    cwx, setup_samples = timed_setups(
        lambda: build("serve-fed", seed, cfg, None), repeats)
    audit = Audit()
    cwx.server.subscribe(audit, name="perfbench-audit")
    result = RunResult()
    before = counters(cwx, audit)
    window = asyncio.run(_window(cwx, seed, seconds, cfg, tracer))
    driver: PacedDriver = window["driver"]
    load = window["load"]
    state = window["state"]
    with state.lock:
        after = counters(cwx, audit)
        d = delta(after, before)
        result.checks.append(check_ownership(cwx))
        result.checks.append(check_rollup(cwx))
        counts = {"updates_applied": int(d["applied"]),
                  "transmitted": int(d["transmitted"]),
                  "kernel_events": int(d["kernel_events"]),
                  "fired": int(d["fired"]),
                  "publishes": state.publishes}
        result.digest = digest_of(cwx, counts)
    result.sim_counts = counts
    result.counter_delta = d
    result.counter_delta.update(
        {"publishes": state.publishes,
         "publish_reuses": state.publish_reuses,
         "watch_frames": window["stats"]["watch_frames"],
         "watch_coalesced": window["stats"]["watch_coalesced"]})
    # the system under test's CPU time over the paced window, both
    # threads: simulation, publication, HTTP, handlers, encoding, watch.
    cpu_marks = driver.process_cpu
    result.measured_wall_s = cpu_marks[-1] - cpu_marks[0]
    if d["transmitted"] != d["applied"]:
        raise BenchError(f"{d['transmitted'] - d['applied']} transmitted "
                         "updates were not applied")

    requests = load["requests"]
    latencies = [r[2] for r in requests if r[2] is not None]
    if not latencies:
        raise BenchError(f"none of {len(requests)} requests was answered")
    late_ms = [r[1] for r in requests]
    bad = sum(1 for r in requests
              if r[2] is None or not 200 <= r[3] < 300 or not r[4])
    if load["order_errors"] or load["duplicates"]:
        raise BenchError(f"watch stream out of order "
                         f"({load['order_errors']}) or duplicated "
                         f"({load['duplicates']})")
    if load["decode_errors"]:
        raise BenchError(f"{load['decode_errors']} bodies or frames did "
                         "not decode")
    result.checks.append(
        f"{len(requests)} bodies and {load['frames']} watch frames "
        "decoded; frames in per-host time order, no duplicates")
    evictions = 1 if load["evicted"] else 0
    result.attempted = len(requests) + 1
    result.failed = bad + evictions

    # Host seconds per simulated hour.  The wall clock is paced and the
    # request plan is fixed, so this is the process's CPU time over the
    # window: the simulation thread's slices plus the serving thread's
    # parsing, handlers, encoding and frame writes.  Wall time would
    # swing with interpreter-lock hand-offs between the two threads
    # (their cost to users shows in req_p99_ms and watch_lag_p99_ms).
    # One sample per agent interval of slices (each holds one sampling
    # round); a run holds only eight, so the value is the ratio of the
    # totals.
    sim_hours = len(driver.cpu_s) * cfg["slice"] / 3600.0
    per_round = max(1, int(round(cfg["interval"] / cfg["slice"])))
    rounds = [(cpu_marks[i + per_round] - cpu_marks[i])
              / (per_round * cfg["slice"]) * 3600.0
              for i in range(0, len(cpu_marks) - per_round, per_round)]
    behind_ms = max(driver.late_s) * 1e3
    send_late_p99 = summarize(late_ms)["tail"] if late_ms else 0.0
    valid = (behind_ms <= MAX_SIM_BEHIND_MS
             and send_late_p99 <= MAX_SEND_LATE_P99_MS)
    result.info.update({
        "valid": valid,
        "generator_late_ms": {"median": median(late_ms),
                              "p99": send_late_p99, "max": max(late_ms)},
        "sim_behind_ms": {"median": median(driver.late_s) * 1e3,
                          "max": behind_ms},
        "limits_ms": {"generator_late_p99": MAX_SEND_LATE_P99_MS,
                      "sim_behind_max": MAX_SIM_BEHIND_MS},
        "requests": len(requests), "watch_frames": load["frames"],
        "slices": len(driver.busy_s),
        "busy_wall_s_per_sim_hour": sum(driver.busy_s) / sim_hours,
        "sim_thread_cpu_s_per_sim_hour": sum(driver.cpu_s) / sim_hours,
        "serving_cpu_share": 1.0 - sum(driver.cpu_s)
        / result.measured_wall_s,
        # the gateway's own reservoir, timed from after the request head
        # is read: shown beside req_p99_ms, never used as a metric.
        "gateway_stats_p99_ms": window["stats"]["latency_p99_ms"]})
    if not valid:
        # An invalid run is never counted as fast: every operation it
        # attempted counts as failed.
        result.failed = result.attempted

    result.metrics += [
        Metric("setup_s", median(setup_samples), samples=setup_samples),
        Metric("wall_s_per_sim_hour", result.measured_wall_s / sim_hours,
               samples=rounds,
               note="process CPU time, both threads, whole window"),
        Metric("peak_rss_mb", peak_rss_mb()),
        Metric("error_ratio", result.failed / result.attempted,
               note="non-2xx, timeouts, undecodable bodies, evictions"),
        Metric("req_p50_ms", median(latencies), samples=latencies,
               note="due time -> last response byte"),
        Metric("req_p99_ms", summarize(latencies)["tail"], samples=latencies,
               note=f"p{summarize(latencies)['tail_pct']:g} of "
                    f"{len(latencies)}"),
        Metric("watch_lag_p99_ms", summarize(load["lags_ms"])["tail"],
               samples=load["lags_ms"],
               note=f"p{summarize(load['lags_ms'])['tail_pct']:g} of "
                    f"{len(load['lags_ms'])} frames"),
    ]
    by_route: Dict[str, List[float]] = {}
    for r in requests:
        if r[2] is not None:
            by_route.setdefault(r[0], []).append(r[2])
    result.info["route_latency_ms"] = {
        key: summarize(values) for key, values in sorted(by_route.items())}
    return result
