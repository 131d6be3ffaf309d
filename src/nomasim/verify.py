"""Randomized self-checks of the library's provable properties.

Each check replays one guarantee (bound, dominance, feasibility, optimality
condition) on freshly drawn instances and counts violations. ``worst`` is the
largest violation measure seen, negative or zero when the property held with
room to spare; the tolerance it is compared against is recorded in ``note``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admission import (
    AdmissionInstance,
    aligned_thresholds,
    cumulative_power_closed_form,
    exhaustive_admit,
    greedy_admit,
)
from .channel import SystemConfig, draw_cluster
from .rates import (
    cluster_size_rate_delta,
    extend_split,
    noma_sum_rate,
    oma_sum_rate,
    oma_sum_upper_bound,
    optimal_dof_fractions,
    sic_feasibility_check,
    two_user_gap,
    two_user_gap_maximizer,
)
from .units import db_to_linear


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    violations: int
    worst: float
    note: str

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_gains(rng, size: int) -> np.ndarray:
    """Descending positive gains with a wide dynamic range."""
    scale = 10.0 ** rng.uniform(-1.0, 4.0)
    g = scale * rng.lognormal(mean=0.0, sigma=1.5, size=size)
    return np.sort(g)[::-1]


def _random_split(rng, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


def _random_thresholds(rng, size: int) -> np.ndarray:
    return db_to_linear(rng.choice(np.array([5.0, 10.0, 15.0]), size=size))


def _grouped_trials(trials: int, key) -> dict:
    """Trials ``0 .. trials - 1`` grouped by ``key(t)``, each group in trial
    order, so a group's clusters come from one batched draw."""
    groups: dict = {}
    for t in range(trials):
        groups.setdefault(key(t), []).append(t)
    return groups


def _check_zero_forcing(config: SystemConfig, rng_seed: int, trials: int) -> CheckResult:
    measures = []
    groups = _grouped_trials(trials, lambda t: (2 + t % 3, t % config.tx_antennas))
    for (users, ci), ts in groups.items():
        r = draw_cluster(config.with_(rng_seed=rng_seed, users_per_cluster=users), ci, ts)
        norms = np.linalg.norm(r.detection_vectors, axis=-1)
        prods = np.einsum("tln,tlnm->tlm", r.detection_vectors.conj(), r.channels @ r.precoder)
        leak = np.abs(np.delete(prods, ci, axis=-1)).max(axis=(1, 2))
        bad = np.abs(norms - 1.0).max(axis=-1)
        unsorted = np.any(np.diff(r.effective_gains, axis=-1) > 0, axis=-1).astype(float)
        measures.append(np.maximum.reduce([bad - 1e-12, leak - 1e-10, unsorted]))
    measure = np.concatenate(measures)
    return CheckResult(
        "zero_forcing", trials, int(np.count_nonzero(measure > 0)), max(0.0, float(measure.max())),
        "norm tol 1e-12, leakage tol 1e-10",
    )


def _check_determinism(config: SystemConfig, rng_seed: int, trials: int) -> CheckResult:
    # Each group is drawn twice, the second time in reverse trial order.
    cfg = config.with_(rng_seed=rng_seed)
    diffs = []
    for ci, ts in _grouped_trials(trials, lambda t: t % cfg.tx_antennas).items():
        a = draw_cluster(cfg, ci, ts)
        b = draw_cluster(cfg, ci, ts[::-1])
        gain_diff = np.abs(a.effective_gains - b.effective_gains[::-1]).max(axis=-1)
        channel_diff = np.abs(a.channels - b.channels[::-1]).max(axis=(1, 2, 3))
        diffs.append(np.maximum(gain_diff, channel_diff))
    diff = np.concatenate(diffs)
    return CheckResult(
        "draw_determinism", trials, int(np.count_nonzero(diff != 0.0)), max(0.0, float(diff.max())),
        "bit-identical redraws",
    )


def _check_oma_bound(rng, trials: int, dof_samples: int = 100) -> CheckResult:
    violations = 0
    worst = -math.inf
    for t in range(trials):
        size = 2 + t % 5
        g = _random_gains(rng, size)
        w = _random_split(rng, size)
        bound = float(oma_sum_upper_bound(g, w))
        sampled = oma_sum_rate(g, w, rng.dirichlet(np.ones(size), size=dof_samples))
        attained = float(oma_sum_rate(g, w, optimal_dof_fractions(g, w)))
        measure = max(float(sampled.max()) - bound, abs(attained - bound))
        worst = max(worst, measure)
        if measure > 1e-9:
            violations += 1
    return CheckResult("oma_bound_tightness", trials, violations, worst, "tol 1e-9")


def _check_noma_dominance(config: SystemConfig, rng_seed: int, rng, trials: int) -> CheckResult:
    gains: dict[int, np.ndarray] = {}
    for size, ts in _grouped_trials(trials, lambda t: 2 + t % 5).items():
        snr = draw_cluster(config.with_(rng_seed=rng_seed, users_per_cluster=size), 0, ts).snr_gains
        gains.update(zip(ts, snr))
    violations = 0
    worst = math.inf
    for t in range(trials):
        g = gains[t]
        w = _random_split(rng, g.size)
        slack = float(noma_sum_rate(g, w) - oma_sum_rate(g, w, optimal_dof_fractions(g, w)))
        worst = min(worst, slack)
        if slack < -1e-9:
            violations += 1
    return CheckResult("noma_dominance", trials, violations, worst, "slack tol -1e-9 (worst is min slack)")


def _check_noma_lower_bound(rng, trials: int) -> CheckResult:
    violations = 0
    worst = math.inf
    for t in range(trials):
        size = 2 + t % 5
        g = _random_gains(rng, size)
        w = _random_split(rng, size)
        slack = float(noma_sum_rate(g, w) - np.log2(1.0 + (w * g).sum()))
        worst = min(worst, slack)
        if slack < -1e-9:
            violations += 1
    return CheckResult("noma_lower_bound", trials, violations, worst, "slack tol -1e-9 (worst is min slack)")


def _check_sic_feasibility(rng, trials: int) -> CheckResult:
    violations = 0
    worst = math.inf
    for t in range(trials):
        size = 2 + t % 5
        g = _random_gains(rng, size)
        w = _random_split(rng, size)
        report = sic_feasibility_check(g, w)
        m = report.margins
        margin = float(np.nanmin(m)) if np.any(np.isfinite(m)) else 0.0
        worst = min(worst, margin)
        if not report.feasible:
            violations += 1
    return CheckResult("sic_feasibility", trials, violations, worst, "margin tol -1e-12 (worst is min margin)")


def _check_gap_maximizer(rng, trials: int, grid_points: int = 10001) -> CheckResult:
    grid = np.linspace(0.0, 1.0, grid_points)
    step = grid[1] - grid[0]
    violations = 0
    worst = 0.0
    for t in range(trials):
        g = _random_gains(rng, 2)
        gaps = two_user_gap(g, grid)
        star = two_user_gap_maximizer(g[0])
        deviation = abs(float(grid[int(np.argmax(gaps))]) - star)
        negativity = max(-float(gaps.min()), abs(float(gaps[0])), abs(float(gaps[-1])))
        measure = max(deviation - step, negativity - 1e-9, 0.0)
        worst = max(worst, measure)
        if measure > 0:
            violations += 1
    return CheckResult(
        "gap_maximizer", trials, violations, worst, "argmax within one grid step; gap >= 0, zero at ends"
    )


def _check_cluster_size_monotonicity(rng, trials: int) -> CheckResult:
    violations = 0
    worst = -math.inf
    for t in range(trials):
        small = 1 + t % 5
        g = _random_gains(rng, small + 1)
        w = _random_split(rng, small)
        theta = extend_split(w, float(rng.uniform(0.0, 1.0)))
        d = cluster_size_rate_delta(g, w, theta)
        factor_excess = max(d.head_factor, d.chain_factor, d.tail_factor) - 1.0
        measure = max(d.delta - 1e-12, factor_excess - 1e-12, abs(d.delta - d.delta_factored) - 1e-9)
        worst = max(worst, measure)
        if measure > 0:
            violations += 1
    return CheckResult(
        "cluster_size_monotonicity", trials, violations, worst, "delta <= 0, factors <= 1, routes agree 1e-9"
    )


def _check_greedy_invariants(rng, trials: int) -> CheckResult:
    violations = 0
    worst = 0.0
    for t in range(trials):
        g = _random_gains(rng, 8)
        inst = AdmissionInstance(g, _random_thresholds(rng, 8))
        res = greedy_admit(inst)
        k = res.admitted_count
        tight = 0.0
        if k:
            tight = float(
                np.abs(res.achieved_sinrs[:k] - inst.sinr_thresholds[:k]).max()
                / inst.sinr_thresholds[:k].max()
            )
        prefix_excess = float(max(np.cumsum(res.power_coefficients).max() - 1.0, 0.0))
        closed = cumulative_power_closed_form(inst, k)
        agree = abs(closed - math.fsum(res.power_coefficients[:k]))
        doubled = greedy_admit(AdmissionInstance(2.0 * g, inst.sinr_thresholds))
        monotone_break = 1.0 if doubled.admitted_count < k else 0.0
        measure = max(tight - 1e-9, prefix_excess - 1e-12, agree - 1e-12, monotone_break, 0.0)
        worst = max(worst, measure)
        if measure > 0:
            violations += 1
    return CheckResult(
        "greedy_invariants", trials, violations, worst, "tight targets, budget, closed form, power-monotone"
    )


def _check_exhaustive_dominance(rng, trials: int) -> CheckResult:
    violations = 0
    worst = 0.0
    for t in range(trials):
        g = _random_gains(rng, 8)
        inst = AdmissionInstance(g, _random_thresholds(rng, 8))
        gre = greedy_admit(inst)
        exh = exhaustive_admit(inst)
        short = max(gre.admitted_count - exh.admitted_count, 0)
        rate_short = 0.0
        if exh.admitted_count == gre.admitted_count:
            rate_short = max(gre.sum_rate_bps_hz - exh.sum_rate_bps_hz - 1e-12, 0.0)
        measure = max(float(short), rate_short)
        worst = max(worst, measure)
        if measure > 0:
            violations += 1
    return CheckResult(
        "exhaustive_dominance", trials, violations, worst, "enumeration never below the sequential scheme"
    )


def _check_aligned_condition(rng, trials: int) -> CheckResult:
    violations = 0
    worst = 0.0
    condition_hits = 0
    for t in range(trials):
        g = _random_gains(rng, 8)
        if t % 2:
            thr = np.full(8, float(db_to_linear(rng.choice(np.array([5.0, 10.0, 15.0])))))
        else:
            thr = _random_thresholds(rng, 8)
        inst = AdmissionInstance(g, thr)
        if not aligned_thresholds(inst):
            continue
        condition_hits += 1
        gap = exhaustive_admit(inst).admitted_count - greedy_admit(inst).admitted_count
        worst = max(worst, float(gap))
        if gap != 0:
            violations += 1
    return CheckResult(
        "aligned_condition_optimality",
        condition_hits,
        violations,
        worst,
        "aligned targets imply enumeration-equal counts",
    )


def run_verification(trials: int = 1000, seed: int = 0, config: SystemConfig | None = None) -> list[CheckResult]:
    """Run every check with ``trials`` randomized instances each."""
    if int(trials) != trials or trials < 1:
        raise ValueError("trials must be a positive integer")
    if int(seed) != seed or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    config = config if config is not None else SystemConfig()
    streams = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(8)]
    return [
        _check_zero_forcing(config, seed, trials),
        _check_determinism(config, seed, min(trials, 200)),
        _check_oma_bound(streams[0], trials),
        _check_noma_dominance(config, seed + 1, streams[1], trials),
        _check_noma_lower_bound(streams[2], trials),
        _check_sic_feasibility(streams[3], trials),
        _check_gap_maximizer(streams[4], trials),
        _check_cluster_size_monotonicity(streams[5], trials),
        _check_greedy_invariants(streams[6], trials),
        _check_exhaustive_dominance(streams[7], min(trials, 500)),
        _check_aligned_condition(np.random.default_rng(np.random.SeedSequence([seed, 8])), trials),
    ]
