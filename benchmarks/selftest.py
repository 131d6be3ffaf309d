"""Self-test of the benchmark, at the smallest sizes.

    python3 benchmarks/selftest.py

Runs the command of BENCHMARK.json on every workload with --tiny, once with
tracing off and once on, and asserts that each run passes its output checks
and emits exactly the metrics BENCHMARK.json names, with their units. Then
asserts that the benchmark exits non-zero, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(spec: dict, root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = spec["command"] + ["--workload", workload, "--seed", "190", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(spec, ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: no JSON result line (exit {proc.returncode}): {proc.stderr[-1000:]}"]
    problems = []
    if proc.returncode != 0:
        problems.append(f"{where}: exit code {proc.returncode}")
    if set(result) != KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}: {proc.stdout[-2000:]}")
    expected = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    emitted = result.get("metrics", {})
    for name in sorted(expected.keys() - emitted.keys()):
        problems.append(f"{where}: metric {name} not emitted")
    for name in sorted(emitted.keys() - expected.keys()):
        problems.append(f"{where}: metric {name} emitted but not in BENCHMARK.json")
    for name in sorted(expected.keys() & emitted.keys()):
        value, unit = emitted[name].get("value"), emitted[name].get("unit")
        if unit != expected[name]:
            problems.append(f"{where}: {name} in {unit}, BENCHMARK.json says {expected[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a finite number")
    return problems


def check_refusal(spec: dict) -> list[str]:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or any(line.startswith("{") for line in proc.stdout.splitlines()):
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refusal(spec)
    for wl in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, wl["name"], trace)
            print(f"{wl['name']} --trace {trace}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
