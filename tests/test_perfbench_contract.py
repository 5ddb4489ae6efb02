"""The benchmark's contract with the program, checked in tier-1.

``perfbench/`` times the program from the outside: ``layers.targets()``
names the classes and methods its traced run wraps, and
``workloads.counters()`` reads public counters.  A renamed hook would
otherwise surface only when the benchmark runs; these tests read
perfbench (without editing it) so tier-1 fails first.
"""

import sys
from pathlib import Path

import pytest

from repro import ClusterWorX

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import workloads
        yield layers, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_hook_exists_and_is_callable(perfbench):
    layers, _ = perfbench
    targets = layers.targets(layers.Observed())
    assert targets
    for cls, attr, span, _observer, _root in targets:
        hook = getattr(cls, attr, None)
        assert callable(hook), f"{cls.__name__}.{attr} ({span}) is gone"


@pytest.mark.parametrize("options", [
    {},
    {"topology": "federation", "shards": 2},
], ids=["flat", "two-shard"])
def test_counters_read_on_a_tiny_cluster(perfbench, options):
    _, workloads = perfbench
    cwx = ClusterWorX(n_nodes=8, seed=3, monitor_interval=5.0,
                      self_healing=True, **options)
    workloads.add_rules(cwx)
    audit = workloads.Audit()
    cwx.server.subscribe(audit, name="perfbench-audit")
    cwx.start()
    before = workloads.counters(cwx, audit)
    cwx.run(20.0)
    after = workloads.counters(cwx, audit)
    delta = workloads.delta(after, before)
    assert delta["samples"] > 0
    assert delta["transmitted"] == (delta["applied"] + delta["dropped"]
                                    + delta["unrouted"])
    if options:
        assert "channel_calls" in after
