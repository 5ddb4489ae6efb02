"""Which public functions the traced run times, and how the span
aggregates and public counters become the per-layer metrics.

Span names are ``<layer>.<what>``; the layer is the program module the
function belongs to, so per-layer shares of host time fall out of the
name.  Observers accumulate counts at the same boundaries (values kept
by consolidation, playbooks started, fan-out runs), so ratios are
measured where the work happens.
"""

from __future__ import annotations

from typing import Dict, List

from common import ROUTES, Metric
from spans import Target, Tracer

from repro.core.server import ClusterWorXServer
from repro.core.statestore import StateStore
from repro.events.engine import EventEngine
from repro.federation.rollup import RollupCache
from repro.federation.server import FederationServer
from repro.federation.views import FederatedEvents, FederatedHistory
from repro.gateway.state import GatewayState
from repro.gateway.wire import BinaryWire, JsonWire
from repro.hardware.workload import Workload
from repro.monitoring.agent import NodeAgent
from repro.monitoring.consolidation import Consolidator
from repro.monitoring.history import HistoryStore
from repro.monitoring.transmission import Transmitter
from repro.remote.engine import TaskEngine
from repro.resilience.health import HealthTracker
from repro.resilience.orchestrator import RecoveryOrchestrator
from repro.sim.kernel import SimKernel

#: GatewayState reads that take the slice lock.  Their inner history,
#: engine or shard-stats call is timed as a child span, so their self
#: time is the wait for the lock.
COLD_READS = ("history_graph", "history_window", "event_log", "shards")
#: spans whose self time is waiting, not host work.
WAITS = ("gateway.cold",)


class Observed:
    """Counts gathered by observers while the traced run executes."""

    def __init__(self) -> None:
        self.playbooks: Dict[int, object] = {}
        self.task_runs: List[object] = []

    def playbook(self, args, record) -> None:
        if record is not None:
            self.playbooks[id(record)] = record

    def task(self, args, run) -> None:
        self.task_runs.append(run)


def _subscriber_wrapper(tracer: Tracer):
    """Wrap ``StateStore.subscribe`` so every callback registered while
    tracing runs inside a ``core.store.subscriber`` span: subscriber
    time then counts as a child of apply, not as apply's self time."""
    original = StateStore.subscribe

    def subscribe(self, callback, **kwargs):
        wrapped = tracer.wrap(callback, "core.store.subscriber")
        return original(self, wrapped, **kwargs)

    return subscribe


def targets(observed: Observed) -> List[Target]:
    return [
        (SimKernel, "run", "sim.kernel.run", None, True),
        (Workload, "demand", "hardware.demand", None, False),
        (NodeAgent, "sample_once", "monitoring.sample", None, True),
        (NodeAgent, "evaluate", "monitoring.gather", None, False),
        (Consolidator, "update", "monitoring.consolidate", None, False),
        (Transmitter, "transmit_update", "monitoring.transmit", None,
         False),
        (HistoryStore, "ingest", "monitoring.history", None, False),
        (ClusterWorXServer, "ingest", "core.server.ingest", None, False),
        (ClusterWorXServer, "ingest_many", "core.server.ingest", None,
         False),
        (ClusterWorXServer, "clone_image", "imaging.clone", None, False),
        (StateStore, "apply", "core.store.apply", None, False),
        (StateStore, "apply_many", "core.store.apply", None, False),
        (EventEngine, "feed", "events.feed", None, False),
        (HealthTracker, "evaluate", "resilience.health_eval", None,
         False),
        (RecoveryOrchestrator, "recover", "resilience.recover",
         observed.playbook, False),
        (TaskEngine, "run", "remote.run", observed.task, False),
        (FederationServer, "ingest", "federation.ingest", None, False),
        (FederationServer, "ingest_many", "federation.ingest", None,
         False),
        (FederationServer, "fail_over", "federation.failover", None,
         False),
        (FederationServer, "shard_stats", "federation.shard_stats", None,
         False),
        (RollupCache, "summary", "federation.rollup", None, False),
        (FederatedHistory, "graph", "federation.history", None, False),
        (FederatedHistory, "window", "federation.history", None, False),
        (FederatedEvents, "event_log", "federation.event_log", None,
         False),
        (HistoryStore, "graph", "monitoring.history_read", None, False),
        (HistoryStore, "window", "monitoring.history_read", None, False),
        (EventEngine, "event_log", "events.event_log", None, False),
        (GatewayState, "refresh", "gateway.publish", None, False),
        *[(GatewayState, name, "gateway.cold", None, False)
          for name in COLD_READS],
        (BinaryWire, "encode", "gateway.wire.encode", None, False),
        (BinaryWire, "encode_stream", "gateway.wire.encode", None, False),
        (JsonWire, "encode", "gateway.wire.encode", None, False),
        (JsonWire, "encode_stream", "gateway.wire.encode", None, False),
    ]


def install(tracer: Tracer, observed: Observed) -> None:
    tracer.install(targets(observed))
    # subscribe itself is not timed: it wraps the callbacks instead.
    tracer.replace(StateStore, "subscribe", _subscriber_wrapper(tracer))


def per_layer(workload: str, tracer: Tracer, observed: Observed,
              d: Dict[str, float]) -> List[Metric]:
    """Per-layer metrics of one traced window.  ``d`` holds the deltas
    of the public counters over the window."""
    t = tracer
    samples = max(d["samples"], 1)
    updates = max(d["store_updates"], 1)
    fired = d["fired"]
    out = [
        Metric("sim.kernel.events", d["kernel_events"]),
        Metric("sim.kernel.residual_us_per_event",
               t.self_s("sim.kernel.run") / max(d["kernel_events"], 1)
               * 1e6),
        Metric("hardware.demand_calls_per_sample",
               t.calls("hardware.demand") / samples),
        Metric("monitoring.gather.us",
               t.self_us_per_call("monitoring.gather")),
        Metric("monitoring.consolidate.us",
               t.self_us_per_call("monitoring.consolidate")),
        Metric("monitoring.consolidate.keep_ratio",
               d["values_released"] / max(d["values_seen"], 1)),
        Metric("monitoring.transmit.us",
               t.self_us_per_call("monitoring.transmit")),
        Metric("monitoring.transmit.bytes_per_update",
               d["bytes_sent"] / max(d["transmitted"], 1)),
        Metric("monitoring.history.us",
               t.self_us_per_call("monitoring.history")),
        Metric("core.store.apply_us",
               t.self_s("core.store.apply") / updates * 1e6),
        Metric("core.store.subscribers_per_update",
               t.calls("core.store.subscriber") / updates),
        Metric("core.store.full_copies", d["full_copies"]),
        Metric("core.store.snapshots", d["snapshots"]),
        Metric("events.feed_us", t.self_us_per_call("events.feed")),
        Metric("events.fired", fired),
        Metric("events.notifications", d["emails"]),
        Metric("events.notify_per_fire",
               d["emails"] / fired if fired else 0.0),
        Metric("resilience.health_eval_us",
               t.self_us_per_call("resilience.health_eval")),
    ]
    if workload == "chaos-fed":
        records = list(observed.playbooks.values())
        retries = sum(max(run.total_attempts - len(run.results), 0)
                      for run in observed.task_runs)
        out += [
            Metric("resilience.playbooks", len(records)),
            Metric("resilience.rungs_climbed",
                   sum(len({a.rung for a in r.attempts})
                       for r in records)),
            Metric("remote.tasks", len(observed.task_runs)),
            Metric("remote.retries", retries),
            Metric("federation.updates_dropped", d["dropped"]),
            Metric("federation.failover_wall_ms",
                   t.total_s("federation.failover") * 1e3),
        ]
    if workload in ("serve-fed", "chaos-fed"):
        reuses = d["rollup_reuses"]
        out += [
            Metric("federation.ingest_us",
                   t.self_us_per_call("federation.ingest")),
            Metric("federation.channel.calls", d["channel_calls"]),
            Metric("federation.channel.fallbacks",
                   d["channel_fallbacks"]),
            Metric("federation.rollup.reuse_ratio",
                   reuses / max(reuses + d["rollup_refreshes"], 1)),
        ]
    return out


def gateway_layer(tracer: Tracer, d: Dict[str, float],
                  route_latency: Dict[str, Dict[str, float]]
                  ) -> List[Metric]:
    """serve-fed's gateway metrics: publication, handlers (server side,
    self time) beside each route's client-side tail, lock waits of the
    cold reads, wire encoding and the watch stream's frame counts."""
    t = tracer
    published = d["publishes"] + d["publish_reuses"]
    out = [
        Metric("gateway.publish_us", t.self_us_per_call("gateway.publish")),
        Metric("gateway.publish_reuse_ratio",
               d["publish_reuses"] / max(published, 1)),
        Metric("gateway.cold_lock_wait_us",
               t.self_us_per_call("gateway.cold")),
        Metric("gateway.wire.encode_us",
               t.self_us_per_call("gateway.wire.encode")),
        Metric("gateway.watch.frames", d["watch_frames"]),
        Metric("gateway.watch.coalesced", d["watch_coalesced"]),
    ]
    for key, (template, _) in sorted(ROUTES.items()):
        out.append(Metric(f"gateway.route.{key}.us",
                          t.self_us_per_call("gateway.route." + template)))
        if key in route_latency:
            s = route_latency[key]
            out.append(Metric(f"gateway.route.{key}.p99_ms", s["tail"],
                              note=f"p{s['tail_pct']:g} of {s['n']}"))
    return out
