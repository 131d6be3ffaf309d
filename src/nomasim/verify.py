"""Randomized self-checks of the library's provable properties: the check library.

Each check replays one guarantee (bound, dominance, feasibility, optimality
condition) on random instances. Instances are drawn one at a time, by fixed
RNG calls in a fixed order, then stacked per size and measured in one call
per size group, the enumeration reference included; only the two-user gap
grid (one draw per grid, which bounds peak memory) runs per instance. A
:class:`Guarantee` holds a check's tolerance and direction: a ``max_excess``
measure must not exceed the tolerance and ``worst`` is the largest one; a
``min_slack`` measure must not fall below it and ``worst`` is the smallest.
A non-finite measure is always a violation. ``nomasim verify`` runs the
measure functions below on its own draws, the acceptance gate on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .admission import (
    _exhaustive_admit_batch,
    _sequential_admit_batch,
    aligned_thresholds,
    cumulative_power_closed_form,
)
from .channel import SystemConfig, draw_cluster
from .rates import (
    cluster_size_rate_delta,
    extend_split,
    noma_sum_rate,
    oma_sum_rate,
    oma_sum_upper_bound,
    sic_feasibility_check,
    two_user_gap,
    two_user_gap_maximizer,
)
from .rates import _columns, _optimal_oma_columns, _sum_users
from .units import db_to_linear, is_whole

MAX_EXCESS = "max_excess"
MIN_SLACK = "min_slack"


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    violations: int
    worst: float
    note: str
    tolerance: float = 0.0
    direction: str = MAX_EXCESS

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.trials > 0  # a check that measured nothing shows nothing


@dataclass(frozen=True)
class Guarantee:
    """One checked property: its tolerance, direction and note.

    ``floor`` is the ``worst`` of a ``max_excess`` check whose measures all
    stay below it (0.0 where measures are excesses net of their tolerances).
    """

    name: str
    tolerance: float
    direction: str
    note: str
    floor: float = 0.0

    def tally(self, measure) -> CheckResult:
        """Violations and worst case of the per-instance measures."""
        m = np.asarray(measure, dtype=float).ravel()
        if self.direction == MAX_EXCESS:
            beyond = m > self.tolerance
            worst = np.max(m, initial=self.floor)
        else:
            beyond = m < self.tolerance
            worst = np.min(m, initial=math.inf)
        violations = int(np.count_nonzero(beyond | ~np.isfinite(m)))
        return CheckResult(self.name, m.size, violations, float(worst), self.note, self.tolerance, self.direction)


ZERO_FORCING = Guarantee("zero_forcing", 0.0, MAX_EXCESS, "norm tol 1e-12, leakage tol 1e-10")
DETERMINISM = Guarantee("draw_determinism", 0.0, MAX_EXCESS, "bit-identical redraws")
OMA_BOUND = Guarantee("oma_bound_tightness", 1e-9, MAX_EXCESS, "tol 1e-9", floor=-math.inf)
NOMA_DOMINANCE = Guarantee("noma_dominance", -1e-9, MIN_SLACK, "slack tol -1e-9 (worst is min slack)")
NOMA_LOWER_BOUND = Guarantee("noma_lower_bound", -1e-9, MIN_SLACK, "slack tol -1e-9 (worst is min slack)")
SIC_FEASIBILITY = Guarantee("sic_feasibility", -1e-12, MIN_SLACK, "margin tol -1e-12 (worst is min margin)")
GAP_MAXIMIZER = Guarantee("gap_maximizer", 0.0, MAX_EXCESS, "argmax within one grid step; gap >= 0, zero at ends")
CLUSTER_GROWTH = Guarantee(
    "cluster_size_monotonicity", 0.0, MAX_EXCESS, "delta <= 0, factors <= 1, routes agree 1e-9", -math.inf
)
CLOSED_FORM = Guarantee("closed_form", 1e-12, MAX_EXCESS, "closed form equals the running sum")
GREEDY_INVARIANTS = Guarantee(
    "greedy_invariants", 0.0, MAX_EXCESS, "tight targets, budget, closed form, power-monotone"
)
EXHAUSTIVE_DOMINANCE = Guarantee(
    "exhaustive_dominance", 0.0, MAX_EXCESS, "enumeration never below the sequential scheme"
)
ALIGNED_CONDITION = Guarantee(
    "aligned_condition_optimality", 0.0, MAX_EXCESS, "aligned targets imply enumeration-equal counts"
)


def _largest(*measures):
    """Element-wise maximum that keeps NaN (Python's ``max`` may drop it)."""
    return reduce(np.maximum, measures)


# Measures over stacked instances: users on the last axis, one value per instance.


def zero_forcing_excess(realization, cluster_index: int) -> np.ndarray:
    """Worst excess of a batched draw over the unit-norm (1e-12) and
    leakage (1e-10) tolerances; 1.0 where effective gains are unsorted."""
    r = realization
    norms = np.linalg.norm(r.detection_vectors, axis=-1)
    prods = np.einsum("tln,tlnm->tlm", r.detection_vectors.conj(), r.channels)
    leak = np.abs(np.delete(prods, cluster_index, axis=-1)).max(axis=(1, 2), initial=0.0)  # one beam leaks nowhere
    bad = np.abs(norms - 1.0).max(axis=-1)
    unsorted = np.any(np.diff(r.effective_gains, axis=-1) > 0, axis=-1).astype(float)
    return _largest(bad - 1e-12, leak - 1e-10, unsorted)


def oma_bound_excess(gains, split, sampled_dofs) -> np.ndarray:
    """How far sampled orthogonal shares (``sampled_dofs``: samples on the
    axis before the users) exceed the orthogonal bound, or the optimal
    shares miss it."""
    bound = oma_sum_upper_bound(gains, split)
    sampled = oma_sum_rate(gains[..., None, :], split[..., None, :], sampled_dofs).max(axis=-1)
    attained = _sum_users(_optimal_oma_columns(*_columns(gains, split)))
    return np.maximum(sampled - bound, np.abs(attained - bound))


def noma_dominance_slack(gains, split) -> np.ndarray:
    """Superposed sum rate minus the best orthogonal sum rate."""
    return noma_sum_rate(gains, split) - _sum_users(_optimal_oma_columns(*_columns(gains, split)))


def noma_lower_bound_slack(gains, split) -> np.ndarray:
    """Superposed sum rate minus the single-stream rate of the total power."""
    return noma_sum_rate(gains, split) - oma_sum_upper_bound(gains, split)


def sic_min_margin(gains, split) -> np.ndarray:
    """Smallest decoding margin of each instance (at least two users)."""
    m = sic_feasibility_check(gains, split).margins
    later = np.triu(np.ones(m.shape[-2:], dtype=bool), k=1)
    return np.min(m, axis=(-2, -1), where=later, initial=math.inf)


def gap_maximizer_excess(pairs, grid) -> np.ndarray:
    """Excess of the grid argmax over one step from the closed-form
    maximizer, and of the gap's negativity or its end values over 1e-9.

    ``pairs`` stacks two-user gains. Each pair is evaluated on the grid on
    its own: a trials x grid block would raise peak memory for no gain.
    """
    step = grid[1] - grid[0]
    at, low, first, last = np.array([
        (grid[int(np.argmax(gaps))], gaps.min(), gaps[0], gaps[-1])
        for gaps in (two_user_gap(g, grid) for g in pairs)
    ]).T
    deviation = np.abs(at - two_user_gap_maximizer(pairs[:, 0]))
    negativity = _largest(-low, np.abs(first), np.abs(last))
    return _largest(deviation - step, negativity - 1e-9)


def cluster_growth_excess(gains, split_small, split_large) -> np.ndarray:
    """Excess of the rate change over 0, of the factors over 1 (both 1e-12)
    and of the two routes' disagreement over 1e-9."""
    d = cluster_size_rate_delta(gains, split_small, split_large)
    factor_excess = _largest(d.head_factor, d.chain_factor, d.tail_factor) - 1.0
    return _largest(d.delta - 1e-12, factor_excess - 1e-12, np.abs(d.delta - d.delta_factored) - 1e-9)


def closed_form_error(gains, thresholds) -> np.ndarray:
    """Distance of the closed-form cumulative power from the exact sum of
    the sequential scheme's shares."""
    count, _, shares, _ = _sequential_admit_batch(gains, thresholds, detail=True)
    running = np.fromiter(map(math.fsum, shares.reshape(-1, shares.shape[-1]).tolist()), dtype=float)
    return np.abs(cumulative_power_closed_form(gains, thresholds, count) - running.reshape(count.shape))


def greedy_invariant_excess(gains, thresholds) -> np.ndarray:
    """Worst excess of the sequential scheme over its invariants: admitted
    users sit at their targets (relative 1e-9), no prefix overspends the
    budget (1e-12), the closed form holds (1e-12), and doubling every gain
    admits no fewer users (1.0 where it does)."""
    count, _, shares, sinrs = _sequential_admit_batch(gains, thresholds, detail=True)
    admitted = np.arange(shares.shape[-1]) < count[..., None]
    miss = np.max(np.abs(sinrs - thresholds), axis=-1, where=admitted, initial=0.0)
    with np.errstate(invalid="ignore"):
        tight = np.where(count > 0, miss / np.max(thresholds, axis=-1, where=admitted, initial=0.0), 0.0)
    prefix_excess = np.maximum(np.cumsum(shares, axis=-1).max(axis=-1) - 1.0, 0.0)
    agree = closed_form_error(gains, thresholds) - CLOSED_FORM.tolerance
    monotone_break = (_sequential_admit_batch(2.0 * gains, thresholds)[0] < count).astype(float)
    return _largest(tight - 1e-9, prefix_excess - 1e-12, agree, monotone_break, 0.0)


def exhaustive_dominance_excess(gains, thresholds) -> np.ndarray:
    """Users, or else sum rate beyond 1e-12, by which the sequential scheme
    beats enumeration; instances stacked on the first axis."""
    count, rate = _sequential_admit_batch(gains, thresholds)
    best_count, best_rate, _ = _exhaustive_admit_batch(gains, thresholds)
    short = np.maximum(count - best_count, 0)
    rate_short = np.where(best_count == count, np.maximum(rate - best_rate - 1e-12, 0.0), 0.0)
    return np.maximum(short, rate_short)


def aligned_count_gap(gains, thresholds) -> np.ndarray:
    """Users by which enumeration and the sequential scheme disagree."""
    best_count = _exhaustive_admit_batch(gains, thresholds)[0]
    return np.abs(best_count - _sequential_admit_batch(gains, thresholds)[0]).astype(float)


# Draws: each check's RNG calls, one instance at a time in trial order.


def _random_gains(rng, size: int) -> np.ndarray:
    """Descending positive gains with a wide dynamic range."""
    scale = 10.0 ** rng.uniform(-1.0, 4.0)
    g = scale * rng.lognormal(mean=0.0, sigma=1.5, size=size)
    return np.sort(g)[::-1]


# Target levels of the admission checks, in dB. Indexing them by ``integers``
# draws the bits ``choice`` over them would, and costs half as much.
_TARGETS_DB = np.array([5.0, 10.0, 15.0])


def _random_thresholds(rng, size: int) -> np.ndarray:
    return db_to_linear(_TARGETS_DB[rng.integers(0, 3, size)])


def _grouped_trials(trials: int, key) -> dict:
    """Trials ``0 .. trials - 1`` grouped by ``key(t)``, each group in trial
    order, so a group's clusters come from one batched draw."""
    groups: dict = {}
    for t in range(trials):
        groups.setdefault(key(t), []).append(t)
    return groups


def evaluate_by_size(measure, instances) -> np.ndarray:
    """``measure`` of a sequence of instances (tuples of arrays) stacked per
    size of their first array: one call per size group, results concatenated."""
    groups = _grouped_trials(len(instances), lambda i: np.shape(instances[i][0])).values()
    stacks = (map(np.stack, zip(*(instances[i] for i in g))) for g in groups)
    return np.concatenate([np.empty(0)] + [measure(*s).ravel() for s in stacks])


def _zero_forcing(config: SystemConfig, rng_seed: int, trials: int) -> np.ndarray:
    groups = _grouped_trials(trials, lambda t: (2 + t % 3, t % config.tx_antennas))
    return np.concatenate([
        zero_forcing_excess(draw_cluster(config.with_(rng_seed=rng_seed, users_per_cluster=users), ci, ts), ci)
        for (users, ci), ts in groups.items()
    ])


def _redraw_differences(config: SystemConfig, rng_seed: int, trials: int) -> np.ndarray:
    # Each group is drawn twice, the second time in reverse trial order.
    cfg = config.with_(rng_seed=rng_seed)
    diffs = []
    for ci, ts in _grouped_trials(trials, lambda t: t % cfg.tx_antennas).items():
        a = draw_cluster(cfg, ci, ts)
        b = draw_cluster(cfg, ci, ts[::-1])
        gain_diff = np.abs(a.effective_gains - b.effective_gains[::-1]).max(axis=-1)
        channel_diff = np.abs(a.channels - b.channels[::-1]).max(axis=(1, 2, 3))
        diffs.append(np.maximum(gain_diff, channel_diff))
    return np.concatenate(diffs)


def _gains_and_splits(rng, trials: int, dof_samples: int = 0) -> list:
    """Per trial, gains and a split of ``2 + t % 5`` users, then as many
    sampled orthogonal shares as asked for."""
    draws = []
    for t in range(trials):
        size = 2 + t % 5
        draw = (_random_gains(rng, size), rng.dirichlet(np.ones(size)))
        draws.append(draw + (rng.dirichlet(np.ones(size), size=dof_samples),) if dof_samples else draw)
    return draws


def _cluster_splits(config: SystemConfig, rng_seed: int, rng, trials: int) -> list:
    gains: dict[int, np.ndarray] = {}
    for size, ts in _grouped_trials(trials, lambda t: 2 + t % 5).items():
        draw = draw_cluster(config.with_(rng_seed=rng_seed, users_per_cluster=size), 0, ts)
        gains.update(zip(ts, config.rho * draw.effective_gains))
    return [(gains[t], rng.dirichlet(np.ones(gains[t].size))) for t in range(trials)]


def _growth_draws(rng, trials: int) -> list:
    draws = []
    for t in range(trials):
        g, w = _random_gains(rng, 2 + t % 5), rng.dirichlet(np.ones(1 + t % 5))
        draws.append((g, w, extend_split(w, float(rng.uniform(0.0, 1.0)))))
    return draws


def _admission_draws(rng, trials: int) -> tuple[np.ndarray, np.ndarray]:
    draws = [(_random_gains(rng, 8), _random_thresholds(rng, 8)) for _ in range(trials)]
    return np.array([g for g, _ in draws]), np.array([t for _, t in draws])


def _aligned_draws(rng, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Every other trial has one target for all; only aligned instances stay."""
    gains, thresholds = [], []
    for t in range(trials):
        gains.append(_random_gains(rng, 8))
        if t % 2:
            thresholds.append(np.full(8, float(db_to_linear(_TARGETS_DB[rng.integers(0, 3)]))))
        else:
            thresholds.append(_random_thresholds(rng, 8))
    gains, thresholds = np.array(gains), np.array(thresholds)
    aligned = aligned_thresholds(thresholds)
    return gains[aligned], thresholds[aligned]


def run_verification(trials: int = 1000, seed: int = 0, config: SystemConfig | None = None) -> list[CheckResult]:
    """Run every check with ``trials`` randomized instances each."""
    if not is_whole(trials, 1):
        raise ValueError("trials must be a positive integer")
    if not is_whole(seed, 0):
        raise ValueError("seed must be a non-negative integer")
    trials, seed = int(trials), int(seed)
    config = config if config is not None else SystemConfig()
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(9)]
    return [
        ZERO_FORCING.tally(_zero_forcing(config, seed, trials)),
        DETERMINISM.tally(_redraw_differences(config, seed, min(trials, 200))),
        OMA_BOUND.tally(evaluate_by_size(oma_bound_excess, _gains_and_splits(rngs[0], trials, dof_samples=100))),
        NOMA_DOMINANCE.tally(
            evaluate_by_size(noma_dominance_slack, _cluster_splits(config, seed + 1, rngs[1], trials))
        ),
        NOMA_LOWER_BOUND.tally(evaluate_by_size(noma_lower_bound_slack, _gains_and_splits(rngs[2], trials))),
        SIC_FEASIBILITY.tally(evaluate_by_size(sic_min_margin, _gains_and_splits(rngs[3], trials))),
        GAP_MAXIMIZER.tally(
            gap_maximizer_excess(np.array([_random_gains(rngs[4], 2) for _ in range(trials)]), np.linspace(0, 1, 10001))
        ),
        CLUSTER_GROWTH.tally(evaluate_by_size(cluster_growth_excess, _growth_draws(rngs[5], trials))),
        GREEDY_INVARIANTS.tally(greedy_invariant_excess(*_admission_draws(rngs[6], trials))),
        EXHAUSTIVE_DOMINANCE.tally(exhaustive_dominance_excess(*_admission_draws(rngs[7], min(trials, 500)))),
        ALIGNED_CONDITION.tally(aligned_count_gap(*_aligned_draws(rngs[8], trials))),
    ]
