"""The repo's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload monitor-flat --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same seed twice, untraced and then traced,
checks that both end in the same state digest and simulated counts,
and reports the per-layer metrics, each layer's share of host time and
the tracing overhead.  Every run checks the program's outputs and exits
non-zero when a check fails.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end or per-layer metrics ``BENCHMARK.json`` lists).  The
full report, with provenance, goes to ``perfbench/out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (OUT_DIR, ROOT, WORKLOADS, BenchError,  # noqa: E402
                    Metric, bootstrap, print_metrics, provenance,
                    write_json)


def declared() -> Dict[str, List[str]]:
    """The metric names BENCHMARK.json asks the last line to carry."""
    path = ROOT / "BENCHMARK.json"
    with open(path) as fh:
        spec = json.load(fh)
    return {"end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]]}


def measure(workload: str, seed: int, seconds: int, cfg, *,
            repeats: int, tracer=None):
    import serve
    import workloads
    if workload == "serve-fed":
        return serve.measure_serve(seed, seconds, cfg, repeats=repeats,
                                   tracer=tracer)
    return workloads.measure_in_process(workload, seed, seconds, cfg,
                                        repeats=repeats, tracer=tracer)


def traced_run(workload: str, seed: int, seconds: int, cfg, report):
    """Untraced then traced run of one seed; returns the per-layer
    metrics and the traced result."""
    import layers
    from spans import Tracer
    base = measure(workload, seed, seconds, cfg, repeats=1)
    gc.collect()
    tracer = Tracer(seed=seed)
    observed = layers.Observed()
    layers.install(tracer, observed)
    try:
        traced = measure(workload, seed, seconds, cfg, repeats=1,
                         tracer=tracer)
    finally:
        tracer.uninstall()
    if traced.digest != base.digest or traced.sim_counts != base.sim_counts:
        raise BenchError(
            f"traced run diverged: digest {traced.digest} vs "
            f"{base.digest}, counts {traced.sim_counts} vs "
            f"{base.sim_counts}")
    traced.checks.append(f"traced and untraced runs agree: digest "
                         f"{base.digest}")
    per = layers.per_layer(workload, tracer, observed,
                           traced.counter_delta)
    if workload == "serve-fed":
        per += layers.gateway_layer(tracer, traced.counter_delta,
                                    traced.info["route_latency_ms"])
        share_base = float(seconds)
    else:
        share_base = traced.measured_wall_s
    base_wall = base.measured_wall_s
    overhead = traced.measured_wall_s - base_wall
    report["tracing"] = {
        "untraced_s": base_wall, "traced_s": traced.measured_wall_s,
        "overhead_s": overhead,
        "overhead_pct": overhead / base_wall * 100.0 if base_wall else 0.0,
        "timed": ("process CPU time" if workload == "serve-fed"
                  else "measured window wall time"),
        "layer_share_of_host_time": {
            k: round(v, 4)
            for k, v in tracer.layer_shares(
                share_base, waits=layers.WAITS).items()},
        "roots": tracer.roots,
    }
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    report["tracing"]["spans_written"] = tracer.write(path)
    report["tracing"]["span_file"] = str(path.relative_to(ROOT))
    return per, traced


def run_one(args) -> int:
    bootstrap()
    import workloads
    cfg = workloads.sizes(args.workload, args.tiny)
    report: Dict[str, object] = {}
    started = time.perf_counter()
    repeats = 1 if args.trace else workloads.SETUP_REPEATS
    correct = True
    error = ""
    per_layer: List[Metric] = []
    result = None
    try:
        if args.trace:
            per_layer, result = traced_run(args.workload, args.seed,
                                           args.seconds, cfg, report)
        else:
            result = measure(args.workload, args.seed, args.seconds, cfg,
                             repeats=repeats)
    except BenchError as exc:
        correct = False
        error = str(exc)
    if result is not None and result.info.get("valid") is False:
        correct = False
        error = "run invalid: open-loop limits exceeded"

    report["provenance"] = provenance(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
        repeats={"setup": repeats, "runs": 2 if args.trace else 1})
    report["elapsed_s"] = time.perf_counter() - started
    print(f"perfbench {args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}"
          + ("  (tiny)" if args.tiny else ""))
    print("provenance: " + json.dumps(report["provenance"],
                                      sort_keys=True))
    metrics: List[Metric] = []
    if result is not None:
        metrics = result.metrics
        print_metrics("end-to-end (median, quartiles, tail over the "
                      "samples of this run):", metrics)
        if per_layer:
            print_metrics("per-layer (traced run):", per_layer)
        for check in result.checks:
            print(f"check ok: {check}")
        print(f"state digest: {result.digest}  simulated counts: "
              f"{json.dumps(result.sim_counts, sort_keys=True)}")
        print("info: " + json.dumps(result.info, sort_keys=True,
                                    default=str))
        report.update({
            "end_to_end": {m.name: m.row() for m in metrics},
            "per_layer": {m.name: m.row() for m in per_layer},
            "checks": result.checks, "digest": result.digest,
            "sim_counts": result.sim_counts, "info": result.info,
            "attempted": result.attempted, "failed": result.failed})
    if "tracing" in report:
        t = report["tracing"]
        print(f"tracing overhead: {t['overhead_s']:+.3f} s "
              f"({t['overhead_pct']:+.1f}%) of {t['timed']}, "
              f"{t['spans_written']} sampled spans -> {t['span_file']}")
        print("layer share of host time: " + json.dumps(
            t["layer_share_of_host_time"]))
    if error:
        print(f"CHECK FAILED: {error}")
    report["correct"] = correct
    report["error"] = error
    suffix = "trace" if args.trace else "e2e"
    write_json(OUT_DIR / f"{args.workload}-seed{args.seed}-{suffix}.json",
               report)

    wanted = declared()["per_layer" if args.trace else "end_to_end"]
    emitted = {m.name: m for m in (per_layer if args.trace else metrics)}
    line_metrics = {}
    for name in wanted:
        if name in emitted:
            line_metrics[name] = {"value": emitted[name].value,
                                  "unit": emitted[name].unit}
        elif correct:
            correct = False
            print(f"CHECK FAILED: metric {name} was not produced")
    attempted = max(result.attempted, 1) if result is not None else 1
    failed = result.failed if result is not None else attempted
    if not correct:
        failed = attempted
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": line_metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; a combined last line."""
    bootstrap()
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.stderr:
            print(proc.stderr, file=sys.stderr, end="")
        status = status or proc.returncode
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, row in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = row
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload (or all of them).")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="run length; each workload turns it into a "
                             "fixed simulated horizon")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
