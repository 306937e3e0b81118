#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Runs every workload at a tiny scale (64-1000 tuples) in both modes and
checks that each metric BENCHMARK.json names is printed, with its unit,
in the report and the JSON result line; then checks that a doctored
reference cover fails the run. Run from the repository root:

  python3 perfbench/selftest.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Printed with the gated metrics but not gated (see README.md).
REPORT_LINES = ("peak_rss_mb", "requests_per_s", "error_rate")
SERVE_REPORT_LINES = REPORT_LINES + (
    "mine_warm_s.p50", "mine_hit_ms.p50", "mine_hit_ms.tail", "put_s.p50",
    "stored_bytes_per_input_byte")


def run(workload, trace, doctor=0):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--scale", "0.01",
               "--doctor-reference", str(doctor)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines[:-1], result, proc.stderr


def check_run(spec, workload, trace):
    code, report, result, stderr = run(workload, trace)
    where = f"{workload} trace={trace}"
    assert code == 0, f"{where}: exit {code}\n{stderr[-2000:]}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, where
    assert result["attempted"] >= 1, where
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, (
        f"{where}: metrics {sorted(result['metrics'])}")
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], f"{where}: {metric['name']} unit"
        assert math.isfinite(got["value"]) and got["value"] != 0, (
            f"{where}: {metric['name']} = {got['value']}")
        printed = [l.split() for l in report if l.split()[:1] == [metric["name"]]]
        assert printed and printed[0][2] == metric["unit"], (
            f"{where}: {metric['name']} not printed with its unit")
    if not trace:
        names = {l.split()[0] for l in report if l.split()}
        lines = SERVE_REPORT_LINES if workload == "serve_mixed" else REPORT_LINES
        missing = [n for n in lines if n not in names]
        assert not missing, f"{where}: report lacks {missing}"
    print(f"ok   {where}: {len(wanted)} metrics, "
          f"{result['attempted']} ops verified")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    for workload in ("cold_mine_100k", "serve_mixed"):
        code, _, result, _ = run(workload, 0, doctor=1)
        assert code != 0 and result is not None and not result["correct"], (
            f"{workload}: a doctored reference did not fail the run")
        assert result["failed"] >= 1
        print(f"ok   {workload}: doctored reference fails "
              f"({result['failed']} of {result['attempted']} ops)")
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        sys.exit(f"selftest FAILED: {e}")
