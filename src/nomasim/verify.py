"""Randomized self-checks of the library's provable properties: the check library.

Each check replays one guarantee (bound, dominance, feasibility, optimality
condition) on random instances. Only the RNG calls run one instance at a time,
in a fixed order; scaling, sorting, target lookup, split normalization and
growth run once per size group on the stacked draws, and each group is measured
in one call, the exact optimum included: the composition DP the oracle sweeps
run, not an enumeration. Only the two-user gap grid runs pair by pair, which
bounds peak memory. A :class:`Guarantee` holds a check's tolerance and
direction: a ``max_excess`` measure must not exceed the tolerance and ``worst``
is the largest one; a ``min_slack`` measure must not fall below it and
``worst`` is the smallest. A non-finite measure is always a violation. ``nomasim verify`` runs the
measure functions below on its own draws, the acceptance gate on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .admission import (
    _optimal_admit_batch,
    _sequential_admit_batch,
    aligned_thresholds,
    cumulative_power_closed_form,
)
from .channel import SystemConfig, draw_cluster
from .rates import (
    _gap,
    _gap_inputs,
    _sum_users,
    _users,
    cluster_size_rate_delta,
    extend_split,
    noma_sum_rate,
    oma_sum_rate,
    oma_sum_upper_bound,
    optimal_dof_fractions,
    sic_feasibility_check,
    two_user_gap_maximizer,
)
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
    "exhaustive_dominance", 0.0, MAX_EXCESS, "the optimum never below the sequential scheme"
)
ALIGNED_CONDITION = Guarantee(
    "aligned_condition_optimality", 0.0, MAX_EXCESS, "aligned targets imply optimal counts"
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
    attained = oma_sum_rate(gains, split, optimal_dof_fractions(gains, split))
    return np.maximum(sampled - bound, np.abs(attained - bound))


def noma_dominance_slack(gains, split) -> np.ndarray:
    """Superposed sum rate minus the best orthogonal sum rate."""
    return noma_sum_rate(gains, split) - oma_sum_rate(gains, split, optimal_dof_fractions(gains, split))


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

    ``pairs`` stacks two-user gains, checked once with the grid; each pair is
    evaluated on the grid on its own, as a trials x grid block would raise peak memory for no gain.
    """
    pairs, grid = _gap_inputs(pairs, grid)
    step, rest = grid[1] - grid[0], 1.0 - grid
    at, low, first, last = np.array([
        (grid[int(np.argmax(gaps))], gaps.min(), gaps[0], gaps[-1])
        for gaps in (_gap(g1, g2, grid, rest) for g1, g2 in pairs.tolist())
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
    return _closed_form_gap(gains, thresholds, count, shares)


def _closed_form_gap(gains, thresholds, count, shares) -> np.ndarray:
    """:func:`closed_form_error` from the sequential scheme's counts and shares."""
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
    agree = _closed_form_gap(gains, thresholds, count, shares) - CLOSED_FORM.tolerance
    monotone_break = (_sequential_admit_batch(2.0 * gains, thresholds)[0] < count).astype(float)
    return _largest(tight - 1e-9, prefix_excess - 1e-12, agree, monotone_break, 0.0)


def exhaustive_dominance_excess(gains, thresholds) -> np.ndarray:
    """Users, or else sum rate beyond 1e-12, by which the sequential scheme
    beats the optimum; instances stacked on the first axis."""
    count, rate = _sequential_admit_batch(gains, thresholds)
    best_count, best_rate = _optimal_admit_batch(gains, thresholds)
    short = np.maximum(count - best_count, 0)
    rate_short = np.where(best_count == count, np.maximum(rate - best_rate - 1e-12, 0.0), 0.0)
    return np.maximum(short, rate_short)


def aligned_count_gap(gains, thresholds) -> np.ndarray:
    """Users by which the optimum and the sequential scheme disagree."""
    best_count = _optimal_admit_batch(gains, thresholds)[0]
    return np.abs(best_count - _sequential_admit_batch(gains, thresholds)[0]).astype(float)


# Draws: each check's RNG calls, one instance at a time in trial order; the
# arithmetic on them runs once per size group, on the stacked draws.


def _gain_draw(rng, size: int) -> tuple:
    """One instance's RNG calls for its gains: unsorted lognormal gains and their scale, a Python float
    (``np.power`` on an array may round differently)."""
    scale = 10.0 ** rng.uniform(-1.0, 4.0)
    return rng.lognormal(mean=0.0, sigma=1.5, size=size), scale


def _gains(raw, scales) -> np.ndarray:
    """Descending gains of stacked :func:`_gain_draw` rows, each row bit for bit its own scaled sort."""
    return np.sort(np.asarray(scales)[:, None] * raw, axis=-1)[:, ::-1].copy()


def _shares(exponentials) -> np.ndarray:
    """``rng.dirichlet(np.ones(k), shape[:-1])`` from ``rng.standard_exponential(shape)``, bit for bit: numpy adds
    the exponentials left to right and multiplies by the reciprocal; a pairwise sum or a division rounds differently."""
    return exponentials * (1.0 / _sum_users(_users(exponentials)))[..., None]


# Target levels of the admission checks (5, 10 and 15 dB) on linear scale.
# Indexing them by ``integers`` draws the bits ``choice`` over them would, and costs half as much.
_TARGETS = db_to_linear(np.array([5.0, 10.0, 15.0]))


def _grouped(instances, key=lambda instance: np.shape(instance[0])) -> dict:
    """Instances (tuples of arrays or scalars) stacked per ``key`` (by default the
    shape of their first entry): one tuple of arrays per key, keys in order of
    first appearance and each group in instance order."""
    groups: dict = {}
    for instance in instances:
        groups.setdefault(key(instance), []).append(instance)
    return {k: tuple(map(np.array, zip(*group))) for k, group in groups.items()}


def _measured(measure, groups) -> np.ndarray:
    return np.concatenate([np.empty(0)] + [measure(*group).ravel() for group in groups])


def evaluate_by_size(measure, instances) -> np.ndarray:
    """``measure`` of a sequence of instances (tuples of arrays) stacked per
    size of their first array: one call per size group, results concatenated."""
    return _measured(measure, _grouped(instances).values())


def _zero_forcing(config: SystemConfig, rng_seed: int, trials: int) -> np.ndarray:
    groups = _grouped(((t,) for t in range(trials)), lambda i: (2 + i[0] % 3, i[0] % config.tx_antennas))
    return np.concatenate([
        zero_forcing_excess(draw_cluster(config.with_(rng_seed=rng_seed, users_per_cluster=users), ci, ts), ci)
        for (users, ci), (ts,) in groups.items()
    ])


def _redraw_differences(config: SystemConfig, rng_seed: int, trials: int) -> np.ndarray:
    # Each group is drawn twice, the second time in reverse trial order.
    cfg = config.with_(rng_seed=rng_seed)
    diffs = []
    for ci, (ts,) in _grouped(((t,) for t in range(trials)), lambda i: i[0] % cfg.tx_antennas).items():
        a = draw_cluster(cfg, ci, ts)
        b = draw_cluster(cfg, ci, ts[::-1])
        gain_diff = np.abs(a.effective_gains - b.effective_gains[::-1]).max(axis=-1)
        channel_diff = np.abs(a.channels - b.channels[::-1]).max(axis=(1, 2, 3))
        diffs.append(np.maximum(gain_diff, channel_diff))
    return np.concatenate(diffs)


def _gains_and_splits(rng, trials: int, dof_samples: int = 0) -> list:
    """Per size group (``2 + t % 5`` users): stacked gains, splits and the sampled orthogonal shares asked for."""

    def draw(size):
        shapes = [(size,), (dof_samples, size)] if dof_samples else [(size,)]
        return (*_gain_draw(rng, size), *[rng.standard_exponential(shape) for shape in shapes])

    groups = _grouped(draw(2 + t % 5) for t in range(trials)).values()
    return [(_gains(raw, scale), *map(_shares, e)) for raw, scale, *e in groups]


def _cluster_splits(config: SystemConfig, rng_seed: int, rng, trials: int) -> list:
    groups = _grouped((rng.standard_exponential(2 + t % 5), t) for t in range(trials)).values()
    return [
        (config.rho * draw_cluster(config.with_(rng_seed=rng_seed, users_per_cluster=e.shape[-1]), 0, ts).effective_gains,
         _shares(e))
        for e, ts in groups
    ]


def _growth_draws(rng, trials: int) -> list:
    draws = ((*_gain_draw(rng, 2 + t % 5), rng.standard_exponential(1 + t % 5), rng.uniform()) for t in range(trials))
    groups = [(_gains(raw, scale), _shares(e), f) for raw, scale, e, f in _grouped(draws).values()]
    return [(g, w, extend_split(w, f)) for g, w, f in groups]


def _gap_pairs(rng, trials: int) -> np.ndarray:
    return _gains(*_grouped(_gain_draw(rng, 2) for _ in range(trials))[(2,)])


def _admission_draws(rng, trials: int) -> tuple[np.ndarray, np.ndarray]:
    raw, scale, levels = _grouped((*_gain_draw(rng, 8), rng.integers(0, 3, 8)) for _ in range(trials))[(8,)]
    return _gains(raw, scale), _TARGETS[levels]


def _aligned_draws(rng, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Every other trial has one target for all; only aligned instances stay."""

    def draw(t):
        return (*_gain_draw(rng, 8), [rng.integers(0, 3)] * 8 if t % 2 else rng.integers(0, 3, 8))

    raw, scale, levels = _grouped(map(draw, range(trials)))[(8,)]
    gains, thresholds = _gains(raw, scale), _TARGETS[levels]
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
        OMA_BOUND.tally(_measured(oma_bound_excess, _gains_and_splits(rngs[0], trials, dof_samples=100))),
        NOMA_DOMINANCE.tally(_measured(noma_dominance_slack, _cluster_splits(config, seed + 1, rngs[1], trials))),
        NOMA_LOWER_BOUND.tally(_measured(noma_lower_bound_slack, _gains_and_splits(rngs[2], trials))),
        SIC_FEASIBILITY.tally(_measured(sic_min_margin, _gains_and_splits(rngs[3], trials))),
        GAP_MAXIMIZER.tally(gap_maximizer_excess(_gap_pairs(rngs[4], trials), np.linspace(0, 1, 10001))),
        CLUSTER_GROWTH.tally(_measured(cluster_growth_excess, _growth_draws(rngs[5], trials))),
        GREEDY_INVARIANTS.tally(greedy_invariant_excess(*_admission_draws(rngs[6], trials))),
        EXHAUSTIVE_DOMINANCE.tally(exhaustive_dominance_excess(*_admission_draws(rngs[7], min(trials, 500)))),
        ALIGNED_CONDITION.tally(aligned_count_gap(*_aligned_draws(rngs[8], trials))),
    ]
