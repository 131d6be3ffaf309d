"""One workload in one fresh process: timed blocks, or the traced pass.

run.py starts it with the repository's src/ on PYTHONPATH:

    python3 benchmarks/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --scratch DIR --result FILE [--tiny]

With --trace 0 it alternates each block between workers=1 and workers=nproc
for S seconds and records every block's trials and time, the time scaled to
the nominal host speed by the calibration kernel run between operations:
CPU seconds at workers=1, wall seconds at workers=nproc, where the wall
clock is what shows a pool's start-up, idle and unbalanced workers.
With --trace 1 it alternates plain and traced workers=1 operations on the
same blocks for S seconds, then times the microbenchmarks. Either way every
output is checked, and the findings go to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import micro  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

# At least this many blocks (or plain/traced pairs) per run, however short.
MIN_BLOCKS = 3
MIN_PAIRS = 2
# Set-up probes per timed run (fewer with --tiny).
SETUP_PROBES = 21


@dataclass
class Sample:
    cpu: float  # this process's CPU seconds
    wall: float
    trials: int
    text: str | None
    operations: int = 1
    failed: int = 0

    def record(self, gauge, clock: str) -> dict:
        """The sample as recorded, its time on `clock` ("cpu" or "wall")
        scaled to the nominal host speed."""
        factor = gauge.factor()
        return {
            "trials": self.trials,
            "seconds": getattr(self, clock) * factor[clock],
            "cpu": self.cpu,
            "wall": self.wall,
            "kernel_cpu": factor["kernel_cpu"],
            "kernel_wall": factor["kernel_wall"],
        }


class _clock:
    """Times one operation in this process's CPU seconds and in wall seconds.

    At workers=1 the CPU time is the operation's time on an idle core, which
    the wall clock of a shared virtual machine is not: that also counts the
    time the machine is descheduled, which swings by 2x here.
    """

    def __enter__(self):
        self.cpu0, self.wall0 = time.process_time(), perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self.wall0
        self.cpu = time.process_time() - self.cpu0


class Operations:
    """Runs one workload's operations and checks every output.

    An operation is one sweep execution (run_sweep plus writing the CSV and
    its sidecar) or one verification check; `attempted` and `failed` count
    them. Verification has no worker count (`nomasim verify` ignores
    --workers), so at any `workers` it is one serial run_verification.
    """

    def __init__(self, nomasim, wl: W.Workload, scratch: Path, nproc: int):
        self.nomasim = nomasim
        self.wl = wl
        self.scratch = scratch
        self.nproc = nproc
        self.reference = W.reference_path(wl).read_text()
        # Checks per verification run, from the reference.
        self.checks = max(len(self.reference.splitlines()) - 1, 1)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, sample: Sample, count: int, messages) -> None:
        """Count up to `count` more of the sample's operations as failed."""
        count = min(count, sample.operations - sample.failed)
        sample.failed += count
        self.failed += count
        self.failures.extend(messages[: max(0, 50 - len(self.failures))])

    def run(self, rng_seed: int, trials: int, workers: int, span=None) -> Sample:
        operations = 1 if self.wl.is_sweep else self.checks
        self.attempted += operations
        where = f"seed {rng_seed}, workers={workers}"
        try:
            sample, errors = self._run(rng_seed, trials, workers, span or nullcontext())
        except Exception as e:  # any library failure fails every operation of the call
            sample = Sample(0.0, 0.0, 0, None, operations=operations)
            self.fail(sample, operations, [f"{where}: {type(e).__name__}: {e}"])
            return sample
        sample.operations = operations
        if errors:
            self.fail(sample, len(errors), [f"{where}: {m}" for m in errors])
        return sample

    def _run(self, rng_seed, trials, workers, span):
        nomasim, wl = self.nomasim, self.wl
        config, spec = W.build(nomasim, wl, rng_seed, trials)
        if wl.is_sweep:
            csv_path = self.scratch / f"{wl.name}.csv"
            meta_path = self.scratch / f"{wl.name}.meta.json"
            with span, _clock() as clock:
                result = nomasim.run_sweep(spec, workers=workers)
                nomasim.write_csv(result, csv_path)
                nomasim.write_metadata(result, meta_path)
            text = csv_path.read_text()
            errors = W.check_output(wl, text, spec.trials, self.reference)
            if not isinstance(json.loads(meta_path.read_text()), dict):
                errors.append("metadata sidecar is not a JSON object")
            return Sample(clock.cpu, clock.wall, spec.trials, text), errors
        with span, _clock() as clock:
            results = nomasim.run_verification(trials=trials, seed=rng_seed, config=config)
        text = W.verify_text(results)
        errors = W.check_output(wl, text, trials, self.reference)
        return Sample(clock.cpu, clock.wall, sum(r.trials for r in results), text), errors

    def same(self, a: Sample, b: Sample, what: str) -> None:
        """Fail `b` when its output does not match that of `a`."""
        if a.text is not None and b.text is not None and a.text != b.text:
            self.fail(b, 1, [what])

    def reference_check(self) -> None:
        """Repeat the workload at the reference seed and size; compare with the committed file."""
        sample = self.run(W.REFERENCE_SEED, self.wl.reference_trials, 1)
        if sample.text is not None:
            errors = W.compare_to_reference(self.wl, sample.text, self.reference)
            if errors:
                self.fail(sample, 1, [f"reference: {m}" for m in errors])


def setup_probe(wl: W.Workload, seed: int) -> dict:
    """Set-up seconds in a fresh process (setup_probe.py): CPU scaled to the
    nominal host speed by the pure-Python kernel, raw CPU, wall and kernel."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), "--workload", wl.name, "--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    cpu, wall, kernel = (float(x) for x in proc.stdout.split())
    return {"seconds": cpu * calibration.NOMINAL_PYTHON_S / kernel, "cpu": cpu, "wall": wall, "kernel": kernel}


def timed_blocks(ops: Operations, wl: W.Workload, seed: int, trials: int, seconds: float, probes: int) -> dict:
    """Alternate workers=1 and workers=nproc on each block for `seconds`,
    with a set-up probe after each of the first `probes` blocks."""
    nproc = ops.nproc
    warm = ops.run(W.block_seed(wl.name, seed, 0), trials, 1)
    setup_probe(wl, seed)  # warms the file cache
    setup = []
    gauge = calibration.Gauge()
    single, pooled = [], []
    measured = 0.0  # time spent on blocks, not on probes
    block = 0
    while block < MIN_BLOCKS or measured < seconds:
        started = perf_counter()
        rng_seed = W.block_seed(wl.name, seed, block)
        out = {}
        for pool in ((False, True) if block % 2 == 0 else (True, False)):
            out[pool] = ops.run(rng_seed, trials, nproc if pool else 1)
            if out[pool].text is not None:
                if pool:
                    pooled.append(out[pool].record(gauge, "wall"))
                else:
                    single.append(out[pool].record(gauge, "cpu"))
        ops.same(out[False], out[True], f"block {block}: workers=1 and workers={nproc} outputs differ")
        if block == 0:
            ops.same(warm, out[False], "block 0: two workers=1 runs differ")
        block += 1
        measured += perf_counter() - started
        if len(setup) < probes:
            setup.append(setup_probe(wl, seed))
    while len(setup) < probes:
        setup.append(setup_probe(wl, seed))
    return {"blocks": block, "single": single, "pool": pooled, "setup": setup}


def traced_pass(ops: Operations, wl: W.Workload, seed: int, trials: int, seconds: float, scratch: Path) -> dict:
    """Plain and traced workers=1 runs of the same blocks for `seconds`."""
    tracer = tracing.Tracer()
    ops.run(W.block_seed(wl.name, seed, 0), trials, 1)  # warm-up
    ratios = []
    start = perf_counter()
    block = 0
    while block < MIN_PAIRS or perf_counter() - start < seconds:
        rng_seed = W.block_seed(wl.name, seed, block)
        plain = ops.run(rng_seed, trials, 1)
        with tracer.installed():
            traced = ops.run(rng_seed, trials, 1, span=tracer.span(tracing.OPERATION))
        ops.same(plain, traced, f"block {block}: traced output differs from the plain one")
        if plain.wall > 0 and traced.wall > 0:
            ratios.append(traced.wall / plain.wall)
        block += 1
    spans_path = scratch / "spans.csv.gz"
    tracing.write_spans(tracer, spans_path)
    metrics, shares = layer_metrics(tracer, block)
    metrics["trace.overhead_ratio"] = statistics.median(ratios) if ratios else 0.0
    return {"traced_operations": block, "metrics": metrics, "layer_shares": shares, "spans": len(tracer.start)}


def layer_metrics(tracer, operations: int) -> tuple[dict, dict]:
    """Per-operation counts and self times of each layer, and each layer's
    share of the traced operations' time (`bench` is the benchmark's own)."""
    stats = tracing.self_times(tracer)
    n = max(operations, 1)

    def calls(name):
        return stats.get(name, (0, 0.0, 0))[0]

    def own(name):
        return stats.get(name, (0, 0.0, 0))[1]

    layer_self: dict[str, float] = {}
    layer_entries: dict[str, int] = {}
    for name, (_, seconds, entries) in stats.items():
        layer = tracing.layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
        layer_entries[layer] = layer_entries.get(layer, 0) + entries
    counters = tracer.counters
    cdv = "channel.compute_detection_vector"
    exhaustive = "admission.exhaustive_admit"
    instance = own(tracing.INSTANCE_VALIDATE) + own(tracing.INSTANCE_FROM_DB)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    metrics = {
        "channel.draw_cluster.calls": calls("channel.draw_cluster") / n,
        "channel.draw_cluster.self_s": own("channel.draw_cluster") / n,
        f"{cdv}.calls": calls(cdv) / n,
        f"{cdv}.self_s": own(cdv) / n,
        "channel.users_per_s": ratio(calls(cdv), layer_self.get("channel", 0.0)),
        "rates.calls": layer_entries.get("rates", 0) / n,
        "rates.self_s": layer_self.get("rates", 0.0) / n,
        "rates.cluster_size_rate_delta.self_s": own("rates.cluster_size_rate_delta") / n,
        "rates.sic_feasibility_check.self_s": own("rates.sic_feasibility_check") / n,
        "admission.instance.calls": calls(tracing.INSTANCE_VALIDATE) / n,
        "admission.instance.self_s": instance / n,
        "admission.greedy_admit.calls": calls("admission.greedy_admit") / n,
        "admission.greedy_admit.self_s": own("admission.greedy_admit") / n,
        "admission.admitted_ratio": ratio(
            counters.get("admission.admitted", 0.0), counters.get("admission.requested", 0.0)
        ),
        f"{exhaustive}.calls": calls(exhaustive) / n,
        f"{exhaustive}.self_s": own(exhaustive) / n,
        "admission.subsets_visited": counters.get("admission.subsets_visited", 0.0) / n,
        "admission.subsets_per_s": ratio(counters.get("admission.subsets_visited", 0.0), own(exhaustive)),
        "experiments.run_sweep.self_s": own("experiments.run_sweep") / n,
        "experiments.write_csv.self_s": own("experiments.write_csv") / n,
        "experiments.write_metadata.self_s": own("experiments.write_metadata") / n,
        "experiments.bytes_written": counters.get("experiments.bytes_written", 0.0) / n,
        "verify.run_verification.self_s": own("verify.run_verification") / n,
        "verify.checks_passed": counters.get("verify.checks_passed", 0.0) / n,
        "verify.instances": counters.get("verify.instances", 0.0) / n,
    }
    total = sum(layer_self.values())
    shares = {layer: ratio(seconds, total) for layer, seconds in sorted(layer_self.items())}
    return metrics, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import nomasim

    wl = W.WORKLOADS[args.workload]
    trials = wl.tiny_trials if args.tiny else wl.block_trials
    nproc = len(os.sched_getaffinity(0))
    ops = Operations(nomasim, wl, args.scratch, nproc)
    out = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "block_trials": trials,
    }
    ops.reference_check()
    if args.trace:
        out.update(traced_pass(ops, wl, args.seed, trials, args.seconds, args.scratch))
        out["micro_us"] = micro.run(nomasim, args.seed, tiny=args.tiny)
    else:
        probes = 2 if args.tiny else SETUP_PROBES
        out.update(timed_blocks(ops, wl, args.seed, trials, args.seconds, probes))
    out.update(
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    args.result.write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
