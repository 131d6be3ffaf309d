"""A fixed unit of work that gauges how fast the host runs at the moment.

On a shared virtual machine the CPU time of a fixed piece of work swings by
up to 2x within minutes, as other tenants load the cores, and its wall time
swings more. The benchmark times this kernel before and after each measured
operation and scales the operation's CPU or wall time by `nominal / kernel
time` on the same clock, so a figure reads as if the host had run at one
fixed speed. The kernel never calls nomasim, so no change to the simulator
moves it. Its mix is the simulator's: small numpy calls around a complex 3x2
SVD, and a scalar float loop like sequential admission. The set-up probe,
which times numpy's import itself, uses the pure-Python part alone.
"""

from __future__ import annotations

import itertools
import time
from time import perf_counter

# Median kernel times on the host the bounds were set on (2-core VM,
# Python 3.11, numpy 2.4). Only scales: figures are in units of that host.
NOMINAL_S = 0.025  # CPU seconds of `_work`
NOMINAL_WALL_S = 0.025  # wall seconds of `_work`
NOMINAL_PYTHON_S = 0.017  # CPU seconds of `python_kernel_seconds`


def _python_work() -> float:
    acc = 0.0
    gains = [float(x) for x in range(1, 13)]
    for _ in range(4000):
        total = 0.0
        for g, t in zip(gains, gains):
            need = t * total + t / g
            total = total + need
        acc += total
    for combo in itertools.combinations(range(14), 5):
        acc += combo[0]
    return acc


def _work() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    acc = 0.0
    for _ in range(400):
        u, s, _ = np.linalg.svd(m)
        v = u[:, 1:].conj().T @ m[:, 0]
        acc += float(np.abs(v).sum()) + float(np.log2(1.0 + s).sum())
    return acc + _python_work()


def kernel_seconds() -> tuple[float, float]:
    """(CPU, wall) seconds of one run of the kernel in this process."""
    cpu, wall = time.process_time(), perf_counter()
    _work()
    return time.process_time() - cpu, perf_counter() - wall


def python_kernel_seconds() -> float:
    """CPU seconds of this thread for three runs of the pure-Python part."""
    t0 = time.thread_time()
    for _ in range(3):
        _python_work()
    return time.thread_time() - t0


class Gauge:
    """Speed factors for consecutive operations, each from the kernel runs
    just before and just after it."""

    def __init__(self):
        kernel_seconds()  # first call pays numpy's one-time set-up
        self.last = kernel_seconds()

    def factor(self) -> dict:
        """Call right after an operation: the CPU and wall scale factors and
        the mean kernel times they come from."""
        after = kernel_seconds()
        cpu, wall = ((a + b) / 2 for a, b in zip(self.last, after))
        self.last = after
        return {"cpu": NOMINAL_S / cpu, "wall": NOMINAL_WALL_S / wall, "kernel_cpu": cpu, "kernel_wall": wall}
