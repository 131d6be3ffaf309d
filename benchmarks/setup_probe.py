"""Set-up time of one workload, measured in a fresh process.

Prints three numbers. First the CPU seconds of the main thread from before
`import nomasim` to a built config and sweep spec, which every run of the
simulator pays before its first trial: the set-up latency on an idle core.
(numpy's BLAS threads spin on other cores during the import; their CPU time
is not on the path to the first trial.) Then the wall seconds of the same
span, and the mean CPU seconds of the pure-Python calibration kernel run
just before and just after it, which gauges the host's speed at the time.
worker.py starts it with the repository's src/ on PYTHONPATH:

    python3 benchmarks/setup_probe.py --workload W --seed N
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter, thread_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import workloads as W  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    wl = W.WORKLOADS[args.workload]
    before = calibration.python_kernel_seconds()
    cpu, wall = thread_time(), perf_counter()
    import nomasim

    W.build(nomasim, wl, W.block_seed(wl.name, args.seed, 0), wl.block_trials)
    cpu, wall = thread_time() - cpu, perf_counter() - wall
    kernel = (before + calibration.python_kernel_seconds()) / 2
    print(repr(cpu), repr(wall), repr(kernel))


if __name__ == "__main__":
    main()
