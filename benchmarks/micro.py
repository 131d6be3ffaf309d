"""Per-call times of the library's hot calls, on inputs drawn from the seed.

These are the calls the ROADMAP baseline quotes. Each figure is the median,
over `REPEATS` passes, of one pass's CPU time divided by its number of calls.
"""

from __future__ import annotations

import statistics
from time import process_time

import numpy as np

REPEATS = 5

# A pass over this many inputs takes roughly 20-50 ms at the parent commit.
SIZES = {
    "draw_cluster_k3": 200,
    "draw_cluster_k8": 100,
    "from_db_k8": 1000,
    "greedy_admit_k8": 1000,
    "exhaustive_admit_k8": 100,
    "exhaustive_admit_k12": 20,
    "cluster_size_rate_delta": 500,
    "sic_feasibility_check": 500,
}


def _per_call_us(fn, inputs, repeats: int) -> float:
    passes = []
    for _ in range(repeats):
        t0 = process_time()
        for args in inputs:
            fn(*args)
        passes.append((process_time() - t0) / len(inputs))
    return statistics.median(passes) * 1e6


def _admission_inputs(nomasim, rng, seed: int, users: int, count: int):
    """Gains of a dense cell at 40 dBm with mixed 5/10/15 dB targets."""
    config = nomasim.SystemConfig(
        users_per_cluster=users, rng_seed=seed, cell_radius_range_km=nomasim.ORACLE_BENCHMARK_RADIUS_KM
    )
    rho = config.rho_at(40.0)
    out = []
    for t in range(count):
        gains = rho * nomasim.draw_cluster(config, 0, t).effective_gains
        out.append((gains, rng.choice(np.array([5.0, 10.0, 15.0]), size=users)))
    return out


def _random_gains(rng, size: int) -> np.ndarray:
    g = 10.0 ** rng.uniform(-1.0, 4.0) * rng.lognormal(0.0, 1.5, size=size)
    return np.sort(g)[::-1]


def run(nomasim, seed: int, tiny: bool = False) -> dict[str, float]:
    """Per-call microseconds, keyed by the metric name after `micro.`."""
    rng = np.random.default_rng(seed)
    sizes = {k: (2 if tiny else n) for k, n in SIZES.items()}
    repeats = 1 if tiny else REPEATS
    out = {}

    for k in (3, 8):
        config = nomasim.SystemConfig(users_per_cluster=k, rng_seed=seed)
        n = sizes[f"draw_cluster_k{k}"]
        out[f"draw_cluster_k{k}"] = _per_call_us(
            nomasim.draw_cluster, [(config, 0, t) for t in range(n)], repeats
        )

    pairs = _admission_inputs(nomasim, rng, seed, 8, sizes["from_db_k8"])
    out["from_db_k8"] = _per_call_us(nomasim.AdmissionInstance.from_db, pairs, repeats)
    instances = [(nomasim.AdmissionInstance.from_db(g, t),) for g, t in pairs]
    out["greedy_admit_k8"] = _per_call_us(nomasim.greedy_admit, instances, repeats)

    for k in (8, 12):
        pairs = _admission_inputs(nomasim, rng, seed + k, k, sizes[f"exhaustive_admit_k{k}"])
        instances = [(nomasim.AdmissionInstance.from_db(g, t),) for g, t in pairs]
        out[f"exhaustive_admit_k{k}"] = _per_call_us(nomasim.exhaustive_admit, instances, repeats)

    deltas = []
    for i in range(sizes["cluster_size_rate_delta"]):
        small = 1 + i % 5
        w = rng.dirichlet(np.ones(small))
        deltas.append((_random_gains(rng, small + 1), w, nomasim.extend_split(w, float(rng.uniform()))))
    out["cluster_size_rate_delta"] = _per_call_us(nomasim.cluster_size_rate_delta, deltas, repeats)

    sic = []
    for i in range(sizes["sic_feasibility_check"]):
        size = 2 + i % 5
        sic.append((_random_gains(rng, size), rng.dirichlet(np.ones(size))))
    out["sic_feasibility_check"] = _per_call_us(nomasim.sic_feasibility_check, sic, repeats)
    return out
