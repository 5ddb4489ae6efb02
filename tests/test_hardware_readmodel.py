"""Differential tests for the hardware read model's caches.

``Workload`` memoises demand per constant interval and checkpoints its
integrals; ``CPU.jiffies`` and the thermal model resume from the last
change point they passed; ``SimulatedNode.demand`` serves every model
from one read per instant.  Each cached answer must equal (``==``, not
approximately) a from-scratch evaluation.  The reference functions below
are the uncached formulas, kept here verbatim so the caches are checked
against them and not against themselves.
"""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import SimulatedNode, Workload, WorkloadSegment
from repro.hardware.cpu import USER_HZ
from repro.sim import SimKernel

ATTRS = ("cpu", "memory", "net_tx", "net_rx", "disk_read", "disk_write")


# -- reference model: the uncached formulas ------------------------------------

class RefWorkload:
    """Segments sorted by start, mutated exactly as ``Workload`` is."""

    def __init__(self):
        self.segments = []

    def add(self, seg):
        starts = [s.start for s in self.segments]
        self.segments.insert(bisect.bisect(starts, seg.start), seg)

    def remove_tagged(self, tag):
        self.segments = [s for s in self.segments if s.tag != tag]

    def truncate_tagged(self, tag, at):
        new = []
        for s in self.segments:
            if s.tag != tag or s.end <= at:
                new.append(s)
                continue
            if s.start < at:
                new.append(WorkloadSegment(
                    start=s.start, duration=at - s.start, cpu=s.cpu,
                    memory=s.memory, net_tx=s.net_tx, net_rx=s.net_rx,
                    disk_read=s.disk_read, disk_write=s.disk_write,
                    tag=s.tag))
        self.segments = sorted(new, key=lambda s: s.start)

    def demand(self, t):
        cpu = mem = tx = rx = dr = dw = 0.0
        for s in self.segments:
            if s.active_at(t):
                cpu += s.cpu
                mem += s.memory
                tx += s.net_tx
                rx += s.net_rx
                dr += s.disk_read
                dw += s.disk_write
        return {"cpu": cpu, "memory": int(mem), "net_tx": tx,
                "net_rx": rx, "disk_read": dr, "disk_write": dw}

    def integrate(self, attr, t0, t1):
        if t1 <= t0:
            return 0.0
        total = 0.0
        for s in self.segments:
            if s.start >= t1:
                break
            overlap = min(s.end, t1) - max(s.start, t0)
            if overlap > 0:
                total += getattr(s, attr) * overlap
        return total

    def change_points(self, t0, t1):
        points = set()
        for s in self.segments:
            for p in (s.start, s.end):
                if t0 < p < t1:
                    points.add(p)
        return sorted(points)


def ref_utilization(node, ref, t):
    cpu = node.cpu
    if cpu.spec.cores <= 0:
        return 0.0
    demand = (ref.demand(t)["cpu"] + cpu.overhead
              if node.is_running() else 0.0)
    return min(demand, float(cpu.spec.cores)) / cpu.spec.cores


def ref_jiffies(node, ref, t):
    boot = node.boot_completed_at
    if boot is None or t <= boot:
        return {"user": 0, "nice": 0, "system": 0, "idle": 0}
    cores = node.cpu.spec.cores
    busy = 0.0
    points = [boot] + ref.change_points(boot, t) + [t]
    for a, b in zip(points[:-1], points[1:]):
        if b <= a:
            continue
        mid = (a + b) / 2.0
        busy += ref_utilization(node, ref, mid) * (b - a)
    busy *= cores
    total = (t - boot) * cores
    system = busy * node.cpu.SYSTEM_SHARE
    user = busy - system
    idle = max(total - busy, 0.0)
    return {"user": int(user * USER_HZ), "nice": 0,
            "system": int(system * USER_HZ), "idle": int(idle * USER_HZ)}


def ref_loadavg(node, ref, t):
    if not node.is_running():
        return 0.0
    t0 = max(node.boot_completed_at or 0.0, t - 60.0)
    span = max(t - t0, 1e-9)
    return ref.integrate("cpu", t0, t) / span + node.cpu.overhead


def ref_counter(node, ref, attr, t):
    boot = node.boot_completed_at
    if boot is None or t <= boot:
        return 0
    return int(ref.integrate(attr, boot, t))


class RefThermal:
    """The thermal model's anchor, moved by the same node operations."""

    def __init__(self, node, ref):
        self.node = node
        self.ref = ref
        self.anchor_t = 0.0
        self.anchor_temp = node.thermal.spec.ambient

    def advance(self, t0, temp0, t1):
        thermal = self.node.thermal
        spec = thermal.spec
        points = self.ref.change_points(t0, t1)
        temp = temp0
        prev = t0
        tau = spec.fan_fail_tau if thermal.fan.failed else spec.tau
        for p in points + [t1]:
            if p <= prev:
                continue
            load = ref_utilization(self.node, self.ref, (prev + p) / 2.0)
            eq = spec.ambient + spec.k_load * load
            if thermal.fan.failed:
                eq += spec.fan_fail_penalty
            temp = eq + (temp - eq) * math.exp(-(p - prev) / tau)
            prev = p
        return temp

    def rebase(self, t):
        self.anchor_temp = self.advance(self.anchor_t, self.anchor_temp, t)
        self.anchor_t = t

    def set_temperature(self, t, temp):
        self.anchor_t = t
        self.anchor_temp = temp

    def temperature(self, t):
        return self.advance(self.anchor_t, self.anchor_temp, t)


# -- generated inputs ----------------------------------------------------------

times = st.one_of(st.integers(0, 400).map(float),
                  st.floats(0, 400, allow_nan=False))
durations = st.one_of(st.just(0.0), st.integers(1, 60).map(float),
                      st.floats(0.5, 300, allow_nan=False),
                      st.just(5000.0))
TAGS = ("a", "b", "c")


@st.composite
def segment(draw):
    return WorkloadSegment(
        start=draw(times), duration=draw(durations),
        cpu=draw(st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.7))),
        memory=draw(st.integers(0, 1 << 30)),
        net_tx=draw(st.floats(0, 1e7, allow_nan=False)),
        net_rx=draw(st.floats(0, 1e7, allow_nan=False)),
        disk_read=draw(st.floats(0, 1e7, allow_nan=False)),
        disk_write=draw(st.floats(0, 1e7, allow_nan=False)),
        tag=draw(st.sampled_from(TAGS)))


@st.composite
def chain(draw):
    """Back-to-back segments: each starts where the previous one ends."""
    t = draw(times)
    out = []
    for _ in range(draw(st.integers(1, 12))):
        seg = draw(segment())
        seg = WorkloadSegment(
            start=t, duration=seg.duration, cpu=seg.cpu, memory=seg.memory,
            net_tx=seg.net_tx, net_rx=seg.net_rx, disk_read=seg.disk_read,
            disk_write=seg.disk_write, tag=seg.tag)
        out.append(seg)
        t = seg.end
    return out


mutations = st.one_of(
    st.tuples(st.just("add"), segment()),
    st.tuples(st.just("extend"), chain()),
    st.tuples(st.just("remove"), st.sampled_from(TAGS)),
    st.tuples(st.just("truncate"), st.sampled_from(TAGS), times),
)
advance = st.tuples(st.just("advance"), st.floats(0.5, 90, allow_nan=False))
node_ops = st.one_of(
    advance,
    st.tuples(st.just("reboot")),
    st.tuples(st.just("power_cycle")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("hang")),
    st.tuples(st.just("overhead"), st.sampled_from(("mon", "clone")),
              st.sampled_from((0.0, 0.004, 0.3))),
    st.tuples(st.just("fan_fail")),
    st.tuples(st.just("fan_repair")),
    # the fan itself, without the thermal rebase the node performs
    st.tuples(st.just("fan_fail_direct")),
)
offsets = st.floats(-120, 120, allow_nan=False)


def _apply_mutation(op, workload, ref):
    kind = op[0]
    if kind == "add":
        workload.add(op[1])
        ref.add(op[1])
    elif kind == "extend":
        workload.extend(op[1])
        for seg in op[1]:
            ref.add(seg)
    elif kind == "remove":
        workload.remove_tagged(op[1])
        ref.remove_tagged(op[1])
    else:
        workload.truncate_tagged(op[1], op[2])
        ref.truncate_tagged(op[1], op[2])


# -- the workload on its own ---------------------------------------------------

class TestWorkloadCachesMatchReference:
    @given(st.lists(segment(), max_size=8), chain(),
           st.lists(st.tuples(mutations,
                              st.lists(st.tuples(times, times,
                                                 st.sampled_from(ATTRS)),
                                       min_size=1, max_size=3)),
                    min_size=1, max_size=15))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_mutations_and_queries(self, segs, jobs, steps):
        workload = Workload()
        ref = RefWorkload()
        _apply_mutation(("extend", segs + jobs), workload, ref)
        for mutation, queries in steps:
            for a, b, attr in queries:
                assert workload.demand(a) == ref.demand(a)
                assert workload.demand(b) == ref.demand(b)
                assert (workload.change_points(a, b)
                        == ref.change_points(a, b))
                # the same t0 with t1 moving both ways, then new t0s
                for t0, t1 in ((a, b), (a, b + 7.5), (a, b),
                               (a, a + 1.0), (b - 60.0, b), (a, b)):
                    assert (workload.integrate(attr, t0, t1)
                            == ref.integrate(attr, t0, t1))
            _apply_mutation(mutation, workload, ref)
            assert len(workload) == len(ref.segments)

    @given(st.lists(segment(), max_size=10), chain(),
           st.lists(times, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_long_history_with_sliding_window(self, segs, jobs, ts):
        workload = Workload()
        ref = RefWorkload()
        for seg in segs + jobs:
            workload.add(seg)
            ref.add(seg)
        for t in ts:
            for attr in ATTRS:
                assert (workload.integrate(attr, 0.0, t)
                        == ref.integrate(attr, 0.0, t))
                assert (workload.integrate(attr, t - 60.0, t)
                        == ref.integrate(attr, t - 60.0, t))
            assert workload.demand(t) == ref.demand(t)


# -- the node models -----------------------------------------------------------

def _check_node(node, ref, thermal, t):
    assert node.workload.demand(t) == ref.demand(t)
    assert node.demand(t) == ref.demand(t)
    assert node.cpu.utilization(t) == ref_utilization(node, ref, t)
    assert node.cpu.jiffies(t) == ref_jiffies(node, ref, t)
    assert node.cpu.loadavg(t) == ref_loadavg(node, ref, t)
    assert node.nic.tx_bytes(t) == ref_counter(node, ref, "net_tx", t)
    assert node.nic.rx_bytes(t) == ref_counter(node, ref, "net_rx", t)
    assert (node.disk.read_bytes(t)
            == ref_counter(node, ref, "disk_read", t))
    assert (node.disk.write_bytes(t)
            == ref_counter(node, ref, "disk_write", t))
    if t >= thermal.anchor_t:
        assert node.thermal.temperature(t) == thermal.temperature(t)


class TestNodeModelsMatchReference:
    @given(st.lists(segment(), max_size=8), chain(),
           st.lists(st.tuples(st.one_of(mutations, advance, node_ops),
                              st.lists(offsets, max_size=3)),
                    min_size=3, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_models_under_node_operations(self, segs, jobs, steps):
        kernel = SimKernel()
        node = SimulatedNode(kernel, "diff", node_id=1)
        ref = RefWorkload()
        thermal = RefThermal(node, ref)
        _apply_mutation(("extend", segs + jobs), node.workload, ref)
        node.power_on()
        thermal.set_temperature(kernel.now, node.thermal.spec.ambient)
        for op, queries in steps:
            kind = op[0]
            now = kernel.now
            if kind in ("add", "extend", "remove", "truncate"):
                _apply_mutation(op, node.workload, ref)
            elif kind == "advance":
                kernel.run(until=now + op[1])
            elif kind == "reboot":
                node.reset()
            elif kind == "power_cycle":
                node.power_off()
                thermal.rebase(now)
                thermal.set_temperature(now, node.thermal.spec.ambient)
                node.power_on()
                if node.powered:
                    thermal.set_temperature(now,
                                            node.thermal.spec.ambient)
            elif kind == "crash":
                node.crash("differential test")
            elif kind == "hang":
                node.hang()
            elif kind == "overhead":
                node.cpu.set_overhead(op[1], op[2])
            elif kind == "fan_fail":
                thermal.rebase(now)
                node.fan_failure()
            elif kind == "fan_fail_direct":
                node.thermal.fan.fail()
            else:
                thermal.rebase(now)
                node.fan_repair()
            # forwards, backwards, and the current instant again
            for offset in queries:
                _check_node(node, ref, thermal,
                            max(0.0, kernel.now + offset))
            _check_node(node, ref, thermal, kernel.now)

    def test_thermal_query_before_anchor_still_raises(self):
        kernel = SimKernel()
        node = SimulatedNode(kernel, "diff", node_id=1)
        node.power_on()
        kernel.run(until=50.0)
        node.fan_failure()
        try:
            node.thermal.temperature(10.0)
        except ValueError:
            pass
        else:
            raise AssertionError("query before the anchor must raise")


# -- each invalidation rule on its own -------------------------------------------

def _job_node():
    """A node whose checkpoints have passed change points at 10, 30, 50."""
    kernel = SimKernel()
    node = SimulatedNode(kernel, "rules", node_id=1)
    ref = RefWorkload()
    for seg in (WorkloadSegment(start=10, duration=20, cpu=0.5, net_tx=1e6),
                WorkloadSegment(start=50, duration=20, cpu=0.25,
                                net_tx=3e6)):
        node.workload.add(seg)
        ref.add(seg)
    node.power_on()
    thermal = RefThermal(node, ref)
    thermal.set_temperature(kernel.now, node.thermal.spec.ambient)
    kernel.run(until=60.0)
    _check_node(node, ref, thermal, 60.0)
    return kernel, node, ref, thermal


def _overhead(kernel, node, ref, thermal):
    node.cpu.set_overhead("agent", 0.3)


def _direct_fan_failure(kernel, node, ref, thermal):
    node.thermal.fan.fail()


def _crash(kernel, node, ref, thermal):
    node.crash("rule test")


def _hang(kernel, node, ref, thermal):
    node.hang()


def _reboot(kernel, node, ref, thermal):
    node.reset()


def _add_segment(kernel, node, ref, thermal):
    seg = WorkloadSegment(start=20, duration=5, cpu=0.4, net_tx=5e5)
    node.workload.add(seg)
    ref.add(seg)


def _kill_job(kernel, node, ref, thermal):
    node.workload.truncate_tagged("", 55.0)
    ref.truncate_tagged("", 55.0)


def _fan_failure(kernel, node, ref, thermal):
    thermal.rebase(kernel.now)
    node.fan_failure()


def _set_temperature(kernel, node, ref, thermal):
    node.thermal.set_temperature(kernel.now, 50.0)
    thermal.set_temperature(kernel.now, 50.0)


@pytest.mark.parametrize("change", [
    _overhead, _direct_fan_failure, _crash, _hang, _reboot, _add_segment,
    _kill_job, _fan_failure, _set_temperature])
def test_checkpoints_drop_when_an_input_changes(change):
    kernel, node, ref, thermal = _job_node()
    change(kernel, node, ref, thermal)
    for t in (65.0, 60.0, 40.0, 65.0, 90.0):
        _check_node(node, ref, thermal, t)


def test_queries_earlier_than_the_checkpoint():
    kernel, node, ref, thermal = _job_node()
    for t in (55.0, 20.0, 35.0, 10.0, 68.0, 50.0, 0.5, 62.0):
        _check_node(node, ref, thermal, t)
    workload = node.workload
    for t1 in (60.0, 20.0, 45.0, 0.0, 70.0):
        for t0 in (0.0, t1 - 60.0):
            assert (workload.integrate("net_tx", t0, t1)
                    == ref.integrate("net_tx", t0, t1))
