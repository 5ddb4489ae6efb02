"""Determinism regression suite for the E16 hot-path overhaul.

The overhaul (timer-wheel kernel, shared agent scheduler, metric-indexed
event engine, batched store writes, hoisted builtin sampler) must be
*observably invisible*: both ``hot_path`` modes replay the golden traces
captured before the rework landed, byte for byte.  See
``tests/goldentrace.py`` for the scenarios and the trace format.
"""

import numpy as np
import pytest

from tests import goldentrace as gt
from repro import ClusterWorX
from repro.hardware import WorkloadGenerator
from repro.monitoring.monitors import MonitorContext
from repro.sim import SimKernel

MODES = ("fast", "legacy")


# -- golden traces ---------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_monitoring_schedule_matches_golden(mode):
    """Same seed => the exact pre-rework update/event schedule."""
    golden = gt.read_golden(gt.MONITORING_GOLDEN)
    assert gt.monitoring_trace(hot_path=mode) == golden


@pytest.mark.parametrize("mode", MODES)
def test_chaos_report_matches_golden(mode):
    """Same seed => the exact pre-rework chaos-campaign report."""
    golden = gt.read_golden(gt.CHAOS_GOLDEN)
    assert gt.chaos_trace(hot_path=mode) == golden


def test_both_kernels_agree_on_interleaved_timers():
    """Directed cross-check: wheel and heap schedulers replay an
    interleaved mix of timeouts, processes, and cancellations in the
    same order."""
    def run(timer_wheel):
        kernel = SimKernel(timer_wheel=timer_wheel)
        log = []

        def ticker(name, interval, stop_at):
            while kernel.now < stop_at:
                yield kernel.timeout(interval)
                log.append((kernel.now, name))

        kernel.process(ticker("a", 5.0, 60.0))
        kernel.process(ticker("b", 5.0, 45.0))
        kernel.process(ticker("c", 7.5, 60.0))

        def canceller():
            victim = kernel.process(ticker("doomed", 1.0, 60.0))
            yield kernel.timeout(12.0)
            victim.kill()
            log.append((kernel.now, "killed"))

        kernel.process(canceller())
        kernel.run(until=70.0)
        return log

    assert run(True) == run(False)


# -- topology equivalence --------------------------------------------------
def test_monitoring_trace_single_shard_federation_is_flat():
    """A 1-shard federation must be *observably identical* to the flat
    topology: same golden update/event schedule, byte for byte."""
    golden = gt.read_golden(gt.MONITORING_GOLDEN)
    assert gt.monitoring_trace(topology="federation",
                               shards=1) == golden


def test_chaos_trace_single_shard_federation_is_flat():
    """Fault handling, recovery playbooks and notifications take the
    exact same path through one shard as through the flat server."""
    golden = gt.read_golden(gt.CHAOS_GOLDEN)
    assert gt.chaos_trace(topology="federation", shards=1) == golden


# -- satellite regressions -------------------------------------------------
def test_trigger_untriggered_source_raises():
    """Event.trigger() on a pending source must fail loudly, not
    propagate a bogus pending sentinel."""
    kernel = SimKernel()
    source = kernel.event()
    target = kernel.event()
    with pytest.raises(RuntimeError, match="source event not triggered"):
        target.trigger(source)
    # and the happy path still works
    source.succeed("payload")
    kernel.run()
    target.trigger(source)
    assert target.value == "payload"


def _assert_fast_sampler_matches_generic(cwx):
    for agent in cwx.agents.values():
        ctx = MonitorContext(node=agent.node, t=cwx.kernel.now)
        fast = agent.registry.fast_sampler
        assert fast is not None
        fast_values = fast(ctx)
        agent.registry.fast_sampler = None
        try:
            generic = agent.evaluate()
        finally:
            agent.registry.fast_sampler = fast
        assert list(fast_values) == list(generic)
        assert fast_values == generic


def test_fast_sampler_matches_generic_loop():
    """The hoisted builtin sampler returns exactly what the generic
    monitor loop returns — same keys, same order, same values — on idle
    nodes and on busy ones, across the events that move the hardware
    models' cached state: a job kill, a reboot, a fan failure and an
    agent stop/start (which changes the CPU overhead)."""
    cwx = ClusterWorX(n_nodes=4, seed=99)
    cwx.start()
    cwx.run(12.5)
    cwx.inject_fault(cwx.cluster.hostnames[1], "fan_failure")
    cwx.run(20.0)
    _assert_fast_sampler_matches_generic(cwx)

    busy = ClusterWorX(n_nodes=4, seed=99)
    gen = WorkloadGenerator(np.random.default_rng(13))
    for node in busy.cluster.nodes:
        node.workload.extend(gen.background_noise(0.0, 1e6))
        node.workload.extend(gen.hpc_job(5.0, tag="mpi"))
        node.workload.extend(gen.io_heavy_job(40.0, duration=90.0))
        node.workload.extend(gen.memory_ramp(60.0, step_duration=12.5))
        node.workload.extend(gen.hpc_job(150.0, phases=3, tag="late"))
    busy.start()
    hosts = busy.cluster.hostnames
    agent = busy.agents[hosts[3]]
    events = [
        lambda: None,
        lambda: busy.cluster.node(hosts[0]).workload.truncate_tagged(
            "mpi", busy.kernel.now),
        lambda: busy.cluster.node(hosts[1]).reset(),
        lambda: busy.inject_fault(hosts[2], "fan_failure"),
        agent.stop,
        agent.scheduled_start,
    ]
    for event in events:
        event()
        for step in (0.0, 7.3, 12.5):
            busy.run(step)
            _assert_fast_sampler_matches_generic(busy)


def test_plugin_registration_disables_fast_sampler():
    """Any registry mutation invalidates the hoisted sampler — a plugin
    must never be silently skipped."""
    from repro.monitoring.monitors import Monitor, builtin_registry

    registry = builtin_registry()
    assert registry.fast_sampler is not None
    registry.add(Monitor("custom_metric", lambda ctx: 1))
    assert registry.fast_sampler is None


def test_scheduler_matches_per_agent_processes():
    """One shared driver produces the same samples as N processes."""
    def counts(mode):
        cwx = ClusterWorX(n_nodes=30, seed=5, hot_path=mode)
        cwx.start()
        cwx.run(60.0)
        return {name: agent.samples_taken
                for name, agent in cwx.agents.items()}

    fast, legacy = counts("fast"), counts("legacy")
    assert fast == legacy
    assert all(n == 13 for n in fast.values())  # t=0..60 at 5s cadence


def test_scheduler_prunes_stopped_agents():
    cwx = ClusterWorX(n_nodes=10, seed=5, hot_path="fast")
    cwx.start()
    cwx.run(10.0)
    assert cwx.scheduler.agent_count == 10
    cwx.remove_node(cwx.cluster.hostnames[0])
    cwx.run(10.0)
    assert cwx.scheduler.agent_count == 9


def test_apply_many_equals_repeated_apply():
    """The batched store path publishes the same states and
    notifications as N single applies."""
    from repro.core.statestore import StateStore, Update

    def drive(batched):
        store = StateStore()
        seen = []
        store.subscribe(
            lambda u: seen.append((u.hostname, u.time,
                                   dict(u.values))),
            name="t")
        updates = [Update(hostname=f"n{i % 3}", time=float(i),
                          values={"x": i, "y": i * 2}, source="agent",
                          seq=i)
                   for i in range(30)]
        if batched:
            store.apply_many(updates)
        else:
            for update in updates:
                store.apply(update)
        view = {h: dict(store.get(h)) for h in store.hostnames}
        return seen, view, store.summary()

    assert drive(True) == drive(False)


def test_console_search_returns_sorted_hosts():
    cwx = ClusterWorX(n_nodes=5, seed=3)
    cwx.start()
    cwx.run(30.0)
    hits = cwx.server.console_search("Linux")
    assert hits
    hosts = [hostname for hostname, _t, _text in hits]
    assert hosts == sorted(hosts)
    assert cwx.server.console_search("no-such-needle-xyzzy") == []


def test_indexed_engine_matches_full_scan():
    """Metric-indexed evaluation fires the same events as the legacy
    full scan, including add_rule mid-stream and mark_fixed re-fires."""
    def run(indexed):
        cwx = ClusterWorX(
            n_nodes=20, seed=11,
            hot_path="fast" if indexed else "legacy")
        cwx.add_threshold("hot", metric="cpu_temp_c", op=">",
                          threshold=70.0, action="none", hold_time=10.0)
        cwx.start()
        cwx.run(20.0)
        cwx.inject_fault(cwx.cluster.hostnames[2], "fan_failure")
        cwx.run(60.0)
        # rule added mid-stream must see remembered values
        cwx.add_threshold("lost", metric="udp_echo", op="==",
                          threshold=0, action="none")
        cwx.inject_fault(cwx.cluster.hostnames[7], "kernel_panic")
        cwx.run(60.0)
        fired = cwx.server.engine.fired
        if fired:
            event = fired[0]
            cwx.server.engine.mark_fixed(event.rule, event.node)
            cwx.run(30.0)
        return [(e.time, e.rule, e.node, e.value) for e in
                cwx.server.engine.fired]

    with_index, without = run(True), run(False)
    assert with_index == without
    assert with_index  # the scenario actually fires something
