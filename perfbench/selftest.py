"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload shrunk (``--tiny``, two-second runs) untraced and
traced, and fails unless:

* every end-to-end and per-layer metric the catalogue defines for the
  workload is reported, with its unit;
* the last line is the machine-readable JSON result (exactly
  ``correct``, ``attempted``, ``failed``, ``metrics``), carrying every
  metric ``BENCHMARK.json`` lists, with the catalogue's unit;
* the traced run reproduced the untraced run's digest and printed its
  tracing overhead;
* a copy of the benchmark without the program beside it exits
  non-zero without printing a result.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (BENCH_DIR, END_TO_END, OUT_DIR, PER_LAYER,  # noqa: E402
                    ROOT, WORKLOADS)

SEED = 7


def run(workload: str, trace: int) -> tuple:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "2", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=170, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def check_spec(failures: list) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for row in spec["end_to_end"]:
        unit = END_TO_END.get(row["name"], (None,))[0]
        if unit != row["unit"]:
            failures.append(f"BENCHMARK.json {row['name']}: unit "
                            f"{row['unit']} vs catalogue {unit}")
    for row in spec["per_layer"]:
        unit = PER_LAYER.get(row["name"], (None,))[0]
        if unit != row["unit"]:
            failures.append(f"BENCHMARK.json {row['name']}: unit "
                            f"{row['unit']} vs catalogue {unit}")
    return spec


def check_run(workload: str, trace: int, spec: dict,
              failures: list) -> None:
    code, out, err = run(workload, trace)
    label = f"{workload} trace={trace}"
    if code != 0:
        failures.append(f"{label}: exit {code}\n{out[-1500:]}{err[-1500:]}")
        return
    last = json.loads(out.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: last-line keys {sorted(last)}")
    if not last["correct"] or last["attempted"] < 1:
        failures.append(f"{label}: not correct: {last}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for row in wanted:
        got = last["metrics"].get(row["name"])
        if got is None or got["unit"] != row["unit"]:
            failures.append(f"{label}: last line lacks {row['name']} "
                            f"[{row['unit']}]: {got}")
    suffix = "trace" if trace else "e2e"
    with open(OUT_DIR / f"{workload}-seed{SEED}-{suffix}.json") as fh:
        report = json.load(fh)
    for key in ("commit", "python", "cpu_model", "nproc", "seed",
                "run_seconds", "repeats"):
        if key not in report["provenance"]:
            failures.append(f"{label}: provenance lacks {key}")
    for name, (unit, where) in END_TO_END.items():
        if workload in where:
            row = report["end_to_end"].get(name)
            if row is None or row["unit"] != unit:
                failures.append(f"{label}: no {name} [{unit}]")
    if not trace:
        return
    for name, (unit, where) in PER_LAYER.items():
        if workload not in where:
            continue
        row = report["per_layer"].get(name)
        if row is None or row["unit"] != unit:
            failures.append(f"{label}: no per-layer {name} [{unit}]")
    if "overhead_s" not in report.get("tracing", {}):
        failures.append(f"{label}: no tracing overhead")
    if "tracing overhead:" not in out:
        failures.append(f"{label}: overhead line not printed")


def check_without_program(failures: list) -> None:
    """Only BENCHMARK.json and the benchmark: must fail, print no result."""
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "monitor-flat", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("a checkout without the program did not fail "
                        f"cleanly: exit {proc.returncode}, stdout "
                        f"{proc.stdout[-300:]!r}")


def main() -> int:
    failures: list = []
    spec = check_spec(failures)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, spec, failures)
    check_without_program(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "ok" if not failures else
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
