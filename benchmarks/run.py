"""nomasim benchmark: throughput, set-up time and memory of one workload, or
the per-layer figures of a traced pass.

    python3 benchmarks/run.py --workload ergodic_k3 --seed 190 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 190

Workloads (see workloads.py): ergodic_k3, admission_sinr_k8,
oracle_mixed_k12, verify_all; `all` runs each in turn.

--trace 0 prints the end-to-end metrics:
  trials_per_s       trials per second at workers=1, in the timed region of
                     run_sweep plus writing the CSV and sidecar (verify_all:
                     run_verification, trials summed over its checks)
  pool_trials_per_s  the same blocks at workers=nproc, on the wall clock
                     (verify_all: `nomasim verify` has no worker pool, so
                     this is the same serial run_verification on the wall
                     clock)
  setup_s            seconds to import nomasim and build the config and sweep
                     spec, in a fresh process
  peak_rss_mb        peak resident memory of the process running the blocks
Throughputs are total trials over total time across the run's blocks. The
time is scaled to a nominal host speed by the calibration kernel
(calibration.py) run next to each operation: CPU seconds for trials_per_s,
wall seconds for pool_trials_per_s, so that an idle or unbalanced pool
worker costs what it costs a user. setup_s is the median over
worker.SETUP_PROBES fresh processes of the main thread's CPU seconds, each
scaled by a pure-Python kernel run in that process just before and after.
The probes run between the blocks, spread over the run, so that a burst of
load on the host meets few of them. Raw CPU and wall times are in the run's
record.
--trace 1 prints the per-layer metrics: per-operation calls and wall-clock
self times from spans recorded around the public functions (tracing.py),
trace.overhead_ratio (median over blocks of traced over plain wall time), the
microbenchmarks (micro.*) and the wall time of one run of each CLI subcommand
at default settings (cli.*). admission.subsets_visited is computed from each
enumeration's result, sum of C(n, s) for s from the optimal count to n, not
counted inside the search.

Every output is checked: schema, finite values, the model's invariants,
byte-identical output across worker counts and repeats, and agreement with
the committed reference at the reference seed. The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
the exit code is 1 when any check failed, 2 when nomasim's sources are
missing. A full record of each run, with its provenance, goes to
.bench_out/results/ at the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

# A run is cut after this long, below the 180 s a run may take.
DEADLINE_S = 170.0

CLI_COMMANDS = ("sweep-split", "sweep-power", "ergodic", "fairness", "admission", "oracle-compare", "gap", "verify")
CLI_TINY_ARGS = {
    "ergodic": ["--trials", "4"],
    "admission": ["--trials", "2"],
    "oracle-compare": ["--trials", "1"],
    "verify": ["--trials", "3"],
}


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_us", "us"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "B" if name.endswith("bytes_written") else "count"


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nomasim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Runner:
    """Starts child processes in the checkout and stops them by the deadline."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(self, argv, cwd=None, env=None) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run deadline reached")
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd or ROOT,
            env=env or self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{argv[0]} cut at the run deadline") from None
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def worker(self, args, trace: int, seconds: float) -> dict:
        result = self.scratch / "worker.json"
        argv = [
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(seconds),
            "--trace", str(trace),
            "--scratch", str(self.scratch),
            "--result", str(result),
        ] + (["--tiny"] if args.tiny else [])
        proc = self.run(argv)
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(result.read_text())

    def cli_wall_times(self, tiny: bool) -> tuple[dict[str, float], list[str]]:
        """Each subcommand once, at default settings, in a fresh process."""
        out_dir = self.scratch / "cli"
        out_dir.mkdir()
        env = dict(self.env, NOMASIM_OUT_DIR=str(out_dir))
        walls, failures = {}, []
        for command in CLI_COMMANDS:
            argv = ["-m", "nomasim.cli", command] + (CLI_TINY_ARGS.get(command, []) if tiny else [])
            t0 = time.perf_counter()
            proc = self.run(argv, cwd=out_dir, env=env)
            walls[command] = time.perf_counter() - t0
            if proc.returncode != 0:
                failures.append(f"cli {command} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return walls, failures


def run_workload(args, runner: Runner) -> dict:
    """One workload at one seed: metrics, counts and the full record."""
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    metrics: dict[str, float] = {}
    attempted, failed, failures = 0, 0, []
    if args.trace:
        started = time.monotonic()
        walls, cli_failures = runner.cli_wall_times(args.tiny)
        attempted += len(walls)
        failed += len(cli_failures)
        failures += cli_failures
        # The CLI runs count against the run's time.
        worker = runner.worker(args, 1, max(args.seconds - (time.monotonic() - started), 0.0))
        metrics.update(worker.pop("metrics"))
        metrics.update({f"micro.{k}_us": v for k, v in worker.pop("micro_us").items()})
        metrics.update({f"cli.{k}.wall_s": v for k, v in walls.items()})
    else:
        worker = runner.worker(args, 0, args.seconds)
        for key, group in (("trials_per_s", "single"), ("pool_trials_per_s", "pool")):
            seconds = sum(x["seconds"] for x in worker[group])  # 0 when every operation failed
            metrics[key] = sum(x["trials"] for x in worker[group]) / seconds if seconds else 0.0
        metrics["setup_s"] = statistics.median(x["seconds"] for x in worker["setup"])
        metrics["peak_rss_mb"] = worker["peak_rss_kb"] / 1024.0
    attempted += worker.pop("attempted")
    failed += worker.pop("failed")
    failures += worker.pop("failures")
    record["provenance"] = {
        "nproc": worker.pop("nproc"),
        "python": worker.pop("python"),
        "numpy": worker.pop("numpy"),
        "seed": args.seed,
        "code_digest": code_digest(),
        "benchmark_digest": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted(HERE.rglob("*")) if p.is_file() and p.suffix != ".pyc")
        ).hexdigest(),
        "argv": sys.argv[1:],
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    record["worker"] = worker
    record.update(attempted=attempted, failed=failed, failures=failures, metrics=metrics)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=W.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "nomasim" / "__init__.py").is_file():
        print(f"nomasim sources not found under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "nomasim"), quiet=1)

    names = sorted(W.WORKLOADS) if args.workload == "all" else [args.workload]
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
        try:
            record = run_workload(one, Runner(scratch))
        except RuntimeError as e:
            print(f"{name}: {e}", file=sys.stderr)
            record = {"attempted": 1, "failed": 1, "failures": [str(e)], "metrics": {}}
        finally:
            spans = scratch / "spans.csv.gz"
            if spans.is_file():
                shutil.move(str(spans), OUT / "results" / f"{name}-seed{args.seed}-spans.csv.gz")
            shutil.rmtree(scratch, ignore_errors=True)
        result_file = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        result_file.write_text(json.dumps(record, indent=1) + "\n")

        for message in record["failures"]:
            print(f"{name}: FAILED {message}")
        # Printed, not a metric: it reads 0 on every good run. The result
        # line carries the counts.
        ratio = record["failed"] / max(record["attempted"], 1)
        print(f"{name}: failed_ratio = {ratio!r} ({record['failed']} of {record['attempted']} operations)")
        for metric, value in record["metrics"].items():
            label = metric if len(names) == 1 else f"{name}.{metric}"
            print(f"{label} = {value!r} {unit_of(metric)}")
            summary["metrics"][label] = {"value": value, "unit": unit_of(metric)}
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
