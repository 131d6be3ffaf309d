"""SINR-target user admission inside one cluster.

Users request service with individual SINR targets. Power shares are assigned
sequentially in decreasing-gain order, giving each user exactly the share that
meets its target given the interference already committed; admission stops at
the first user whose required share exceeds what is left. The optimum (most
users, then the highest sum rate) is the yardstick: an exhaustive subset
search over the same per-subset allocation rule defines it, and a composition
DP computes it exactly without enumerating subsets.

Gains are on SNR scale (transmit-to-noise ratio and path loss folded in) and
sorted in decreasing order; targets are linear. Functions take ``(gains,
thresholds[, count])`` arrays, instances stacked on leading axes, except the
batches of one :func:`greedy_admit` and :func:`exhaustive_admit`, which take
an :class:`AdmissionInstance` and give an :class:`AdmissionResult`.
:func:`_append` is the sequential rule's one step, which
:func:`_sequential_admit_batch` walks on the instances still admitting; its
rate terms and the DP's take ``math.log2`` once per distinct value
(:func:`_log2`). :func:`_optimal_admit_batch` is the library's one exact
search: a composition DP (:func:`_best_compositions`) whose counts equal a
subset enumeration's exactly (sum rates within rounding); its walks take each
composition's least total through the same step, one step per user over a
whole pass of instances of several shapes, and a total below a setting's
bound fits. The oracle sweeps take the optimum at all powers from
:func:`_optimal_admit_powers`: one budget-free DP per instance on power-free
gains, read at each power against the two bounds of a proven rounding margin,
and the DP at that power wherever they cannot decide, so the results are the
DP's bit for bit. :func:`exhaustive_admit` reads its count from the DP and
rates only the subsets of that size, each on its own columns. The kernels
match the tests' scalar reference bit for bit; the full enumeration is tests-only.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .units import db_to_linear

# Sum rates this close to the highest count as a tie among the optimal
# subsets, broken toward the subset enumerated first.
_RATE_TIE_TOL = 1e-12

_ENUMERATION_CAP = 12

# (instance, composition) states one DP pass holds per array, padding
# included (rows times the widest row's states): 256 KiB of float64, enough
# instances to spread the per-step overhead of the array operations. The
# tests' enumeration reference sizes its (instance, subset) passes by it too.
_PASS_STATES = 1 << 15

# Most composition-DP states an oracle instance may need (512 KiB per
# float64 array); a pool of at most 12 users needs at most 2**12.
_DP_STATE_BOUND = 1 << 16


def _stacked(gains, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Admission instances stacked on leading axes, users in admission order on the last, broadcast to one
    float shape; each input is validated as given, not repeated, and an empty stack holds nothing to check."""
    g, t = np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float)
    g_stack, t_stack = np.broadcast_arrays(g, t)
    if g_stack.ndim == 0 or g_stack.shape[-1] == 0:
        raise ValueError("gains and sinr_thresholds must be non-empty along the last axis")
    if g_stack.size:  # min and max keep NaN, so each bound check is one pass
        if not (g.min() >= 0 and g.max() < math.inf):
            raise ValueError("gains must be finite and non-negative")
        if g.ndim and (g[..., 1:] > g[..., :-1]).any():
            raise ValueError("gains must be sorted in non-increasing order")
        if not (t.min() > 0 and t.max() < math.inf):
            raise ValueError("sinr_thresholds must be finite and positive")
    return g_stack, t_stack


def _counts(count, users: int) -> np.ndarray:
    """Admitted counts of stacked instances as ints, validated as a whole."""
    c = np.asarray(count)
    if c.dtype.kind not in "iuf" or np.any(c != np.round(c)) or np.any((c < 0) | (c > users)):
        raise ValueError("count must be an integer within the requesting list")
    return c.astype(int)


@dataclass(frozen=True)
class AdmissionInstance:
    """One admission problem: decreasing SNR-scale gains plus linear targets."""

    gains: np.ndarray
    sinr_thresholds: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gains, dtype=float))
        t = np.atleast_1d(np.asarray(self.sinr_thresholds, dtype=float))
        if g.ndim != 1 or t.shape != g.shape:
            raise ValueError("gains and sinr_thresholds must be 1-D sequences of one length")
        _stacked(g, t)  # and non-empty
        g.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "sinr_thresholds", t)

    @classmethod
    def from_db(cls, gains, thresholds_db) -> "AdmissionInstance":
        """Build an instance from targets given in dB."""
        return cls(gains=gains, sinr_thresholds=db_to_linear(np.asarray(thresholds_db, dtype=float)))

    def __len__(self) -> int:
        return self.gains.size


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of an admission run over the full requesting list.

    ``power_coefficients`` has one entry per requesting user, zero for the
    rejected ones; admitted users sit at their targets exactly, so
    ``sum(power_coefficients) + residual_power == 1``.
    """

    admitted_count: int
    power_coefficients: np.ndarray
    residual_power: float
    sum_rate_bps_hz: float
    achieved_sinrs: np.ndarray


def greedy_admit(instance: AdmissionInstance) -> AdmissionResult:
    """Admit users sequentially in decreasing-gain order until power runs out."""
    count, rate, shares, sinrs = _sequential_admit_batch(instance.gains, instance.sinr_thresholds, detail=True)
    return AdmissionResult(int(count), shares, 1.0 - math.fsum(shares), float(rate), sinrs)


def _sequential_admit_batch(gains, thresholds, detail: bool = False):
    """Sequential admission of a whole batch of instances: counts and sum rates.

    ``gains`` and the linear ``thresholds`` broadcast to one shape whose last
    axis is the admission order; the leading axes are the batch (e.g. trials
    x powers x targets). Inputs are validated once for the batch, as
    :class:`AdmissionInstance` validates one instance. The users step through
    :func:`_append` until every instance stops: with ``P`` the power committed,
    a user of gain ``g`` and target ``t`` needs ``t*P + t/g`` and reaches SINR
    ``need*g / (1 + g*P)``; a zero gain (an inf cost) or a need above ``1 - P``
    ends admission, so trailing zero-gain padding changes nothing. A step
    runs on the instances still admitting only. Rate terms are ``math.log2``
    of each distinct ``1 + SINR`` (:func:`_log2`), added per instance in step
    order, so each instance's results equal these operations on Python floats
    bit for bit, in any stack. With ``detail``, each user's power share and
    achieved SINR (zero for the rejected) follow.
    """
    g, t = _stacked(gains, thresholds)
    shape, users = g.shape[:-1], g.shape[-1]
    size = math.prod(shape)
    active, total, rate = np.arange(size), np.zeros(size), np.zeros(size)  # total: each active instance's power
    steps = [(active[:0], total[:0])]  # each step's admitting instances and SINRs; empty first, for a stop at user 0
    if detail:
        shares, sinrs = np.zeros((users, size)), np.zeros((users, size))  # users first: a step fills part of one row
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(users):
            gk, tk = g[..., k].reshape(-1)[active], t[..., k].reshape(-1)[active]
            need = _append(total, tk, tk / gk)  # a zero gain costs inf
            if not (fits := need < np.inf).any():
                break
            active, total, gk, need = active[fits], total[fits], gk[fits], need[fits]
            steps.append((active, need * gk / (1.0 + gk * total)))
            if detail:
                shares[k][active], sinrs[k][active] = need, steps[-1][1]
            total = total + need
    inst, sinr = map(np.concatenate, zip(*steps))
    np.add.at(rate, inst, _log2(1.0 + sinr))  # in order, so each instance's terms add up step by step
    count, rate = np.bincount(inst, minlength=size).reshape(shape), rate.reshape(shape)
    return (count, rate, *(a.T.copy().reshape(g.shape) for a in (shares, sinrs))) if detail else (count, rate)


def _log2(x: np.ndarray) -> np.ndarray:
    """``math.log2`` of each entry of ``x``, called once per distinct value;
    numpy's log2 can differ from it in the last bit."""
    ordered = np.sort(x, axis=None)
    first = np.empty(ordered.shape, dtype=bool)
    first[:1], first[1:] = True, ordered[1:] != ordered[:-1]
    distinct = ordered[first]  # sorted, so each entry finds its own value by bisection
    return np.fromiter(map(math.log2, distinct.tolist()), dtype=float, count=distinct.size)[distinct.searchsorted(x)]


def cumulative_power_closed_form(gains, thresholds, count) -> np.ndarray:
    """Total power the first ``count`` users take, in closed form.

    Equivalent to running the sequential allocation and summing, but built
    from an independent expression: each user's target over its gain, grown by
    the compound ``(target + 1)`` factors of everyone admitted after it.
    Instances stack on leading axes as in :func:`_sequential_admit_batch`,
    ``count`` holds an integer per instance, and the result is an array over
    those axes; each instance goes through the same operations in the same
    order, so it does not depend on the rest of its stack.
    """
    g, t = _stacked(gains, thresholds)
    n = g.shape[-1]
    counted = np.arange(n) < _counts(count, n)[..., None]
    if np.any(counted & ~(g > 0)):
        raise ValueError("all counted users need a positive gain")
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            term = t[..., k] / g[..., k]
            for i in range(k + 1, n):
                term = term * np.where(counted[..., i], t[..., i] + 1.0, 1.0)
            total = total + np.where(counted[..., k], term, 0.0)
    return total


def _append(power, t, cost, budget: bool = True, out=None) -> np.ndarray:
    """The sequential rule's one step: the need of a user of target ``t`` and
    cost ``t/g`` joining users of total ``power`` last, ``need = t*P + t/g``,
    rejected (inf) when ``need > 1 - P``; the total is then ``P + need``.
    Without ``budget`` nobody is rejected: the walk ``T <- T + (t*T + c)``.
    The need is written to ``out`` if given.

    The DP rests on this step being monotone, as does the tests' subset
    enumeration it is checked against. With ``t > 0``, each of its IEEE
    operations is monotone in ``P`` (rounding is), so ``P <= P'`` gives
    ``need <= need'`` and ``1 - P >= 1 - P'``: a rejection at ``P`` is one
    at ``P'``, and ``P + need <= P' + need'``. An inf total or an inf
    cost (a zero gain) gives inf. So a set's total is finite exactly when
    each of its members passes the allocation's check in its own order, and
    the least total of a family of sets stays least once a user joins them.
    """
    need = np.asarray(np.multiply(t, power, out=out))  # an array even for one instance, which putmask needs
    need += cost
    if budget:
        np.putmask(need, need > 1.0 - power, np.inf)  # inf + P is inf
    return need


def exhaustive_admit(instance: AdmissionInstance) -> AdmissionResult:
    """Best admission subset: most users, then highest rate.

    Every subset is allocated with the same sequential rule (in decreasing
    gain order within the subset); a subset is feasible only if all its
    members fit. The largest feasible size is the count of
    :func:`_optimal_admit_batch`, the composition DP. Subsets of that size
    are rated by one :func:`_sequential_admit_batch` call in lexicographic
    order of their index sets (:func:`itertools.combinations` order), and the
    first feasible one whose sum rate is within ``_RATE_TIE_TOL`` (``1e-12``)
    of the highest wins. Refused above ``_ENUMERATION_CAP`` users since the
    subsets of one size are still exponentially many.
    """
    users = len(instance)
    if users > _ENUMERATION_CAP:
        raise ValueError(f"instance has {users} users, above the enumeration cap {_ENUMERATION_CAP}")
    size = int(_optimal_admit_batch(instance.gains, instance.sinr_thresholds)[0])
    power, achieved = np.zeros(users), np.zeros(users)
    if not size:
        return AdmissionResult(0, power, 1.0, 0.0, achieved)
    subsets = np.array(list(itertools.combinations(range(users), size)))
    g, t = instance.gains[subsets], instance.sinr_thresholds[subsets]  # each subset on its own columns
    count, rate, shares, sinrs = _sequential_admit_batch(g, t, detail=True)
    fits = count == size  # the subset's every member fits
    winner = np.flatnonzero(fits & (rate[fits].max() - rate <= _RATE_TIE_TOL))[0]
    power[subsets[winner]], achieved[subsets[winner]] = shares[winner], sinrs[winner]
    return AdmissionResult(size, power, 1.0 - math.fsum(power), float(rate[winner]), achieved)


@cache
def _composition_table(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Per-level counts (levels first) and totals of the states of ``dims`` in C order, and level strides."""
    counts = np.indices(dims).reshape(len(dims), -1)
    for table in (counts, total := counts.sum(axis=0)):
        table.setflags(write=False)
    return counts, total, tuple(math.prod(dims[l + 1 :]) for l in range(len(dims)))


def _composition_pass(t, cost, level, segments, budget: bool = True) -> np.ndarray:
    """Least totals of one pass of instances, per composition.

    ``t`` and ``cost`` (target over gain) hold one instance per row, ``level``
    each user's target level. ``segments`` splits the rows into runs of one
    canonical shape, as ``(stop, dims)`` pairs in row order, the widest
    first; ``dims`` is each instance's own count per level plus one.
    ``power[b, c]`` is the least total, as :func:`_sequential_admit_batch`
    computes it, of a fitting subset of the users walked so far with ``c[l]``
    users at level ``l`` (inf if none fits). Walking strongest first, user k
    joins each subset last through :func:`_append`, whose monotonicity keeps
    a composition's least total least; by induction a state is finite
    exactly when a subset of its composition fits, the enumeration's test.
    Without ``budget`` the walk has no check, and a state holds the least
    rounded walk ``T <- T + (t*T + c)`` over all subsets of its composition.
    Each step runs once over the whole pass, and each state's operations
    are its own, so a row's totals do not depend on the rows beside it.
    A run's shift at a step is masked to its rows whose user is at that
    level; where every row of the run adds there (always, in a run of one
    row) it has no mask, which ``min``, being exact, leaves bit for bit.

    States are flattened in C order, so adding a user at level ``l`` is a
    shift by that level's stride. A shift off the top of level ``l`` wraps
    into another state, but only ever carries inf: a state counting as many
    level-``l`` users as the instance has is unreachable while one of them is
    still to come. A row of ``S`` states holds them in its first ``S``
    columns, and its run's shifts read and write only those, so the padding
    up to the widest row is never written, never read by a real state, and
    stays inf.
    """
    width = math.prod(segments[0][1])
    at = level[:, :, None] == np.arange(len(segments[0][1]))  # (batch, users, levels)
    starts = [0] + [stop for stop, _ in segments[:-1]]
    some, every = (ufunc.reduceat(at, starts, axis=0) for ufunc in (np.logical_or, np.logical_and))
    present = np.add(some, every, dtype=np.int8).tolist()  # (runs, users, levels): 0 no row at it, 1 some, 2 all
    power = np.full((len(cost), width), np.inf)
    power[:, 0] = 0.0
    joined = np.empty_like(power)
    shifts = []  # per run and level: whether no, some or every row adds to it at each step, and its shift's views
    for lo, (stop, dims), adds in zip(starts, segments, present):
        states = math.prod(dims)
        for l, stride in enumerate(_composition_table(dims)[2]):
            grown, source = power[lo:stop, stride:states], joined[lo:stop, : states - stride]
            shifts.append(([a[l] for a in adds], grown, source, at[lo:stop, :, l, None]))
    for k in range(cost.shape[1]):
        _append(power, t[:, k, None], cost[:, k, None], budget, out=joined)
        joined += power
        for adds, grown, source, where in shifts:
            if adds[k] == 2:  # every row adds: no mask
                np.minimum(grown, source, out=grown)
            elif adds[k]:
                np.minimum(grown, source, out=grown, where=where[:, k])
    return power


def _best_compositions(t, cost, below, above=None, budget: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts, sum rates and undecided flags of the optimum of each instance
    row of ``t`` and ``cost`` in each setting k of ``below``, shaped (rows,
    settings).

    Every admitted user sits at its target, so the objective (most users,
    then the highest sum rate) depends only on the composition: how many
    users are admitted at each distinct target. :func:`_composition_pass`
    walks each row once; a composition fits in setting k when its least total
    is below ``below[k]``, and a row is undecided there when some least total
    is neither below ``below[k]`` nor above ``above[k]`` (without ``above``,
    none is, and no flag is computed). An instance with ``s_l`` users at
    level ``l`` has ``prod_l (s_l + 1)`` states, polynomial in the users for a
    fixed number of levels. The walk never reads which target a level holds,
    so rows are ordered by canonical shape (levels by count, descending, ties
    by target), the shapes with the most states first, and cut into passes
    of rows padded to the pass's widest row: a pass takes rows while its
    rows times that width stay within ``_PASS_STATES`` (or one row, if it
    alone has more). Each pass rates its fitting compositions of the best
    count, ``sum_l c[l] * log2(1 + target_l)`` added up from 0.0 in
    ascending target order, and the highest wins; nobody admitted gives 0.0.
    Padding never fits and is never undecided, so an instance's results do
    not depend on which rows share its pass. An empty stack gives empty (0,
    settings) arrays.
    """
    below = np.asarray(below, dtype=float)[..., None, None]  # (settings, rows, states)
    if above is not None:
        above = np.asarray(above, dtype=float)[..., None, None]
    count = np.zeros((len(t), len(below)), dtype=int)
    rate, undecided = np.full(count.shape, -np.inf), np.zeros(count.shape, dtype=bool)
    if not len(t):
        return count, rate, undecided
    # Levels of an instance: its distinct targets, ascending.
    ordered = np.sort(t, axis=-1)
    distinct = np.ones(ordered.shape, dtype=bool)
    distinct[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    level = (distinct[:, None, :] & (ordered[:, None, :] < t[:, :, None])).sum(axis=-1)
    n_levels = int(distinct.sum(axis=-1).max())
    sizes = (level[:, :, None] == np.arange(n_levels)).sum(axis=1)
    values = np.zeros((len(t), n_levels))  # 0 for a level an instance lacks: log2(1) = 0
    np.put_along_axis(values, level, t, axis=-1)
    log_base = _log2(1.0 + values)
    rank = np.argsort(np.argsort(-sizes, axis=-1, kind="stable"), axis=-1)  # each level's canonical place

    shapes, group = np.unique(np.sort(sizes, axis=-1)[:, ::-1] + 1, axis=0, return_inverse=True)
    group = group.ravel()  # numpy 2.0 gives the inverse the input's shape
    widest = np.argsort(-np.prod(shapes, axis=-1), kind="stable")  # shapes, most states first
    order = np.argsort(np.argsort(widest)[group], kind="stable")  # rows in runs of one shape, widest first
    ends = np.cumsum(np.bincount(group)[widest]).tolist()  # where each run ends in ``order``
    shapes = list(map(tuple, shapes[widest].tolist()))
    lo = 0
    while lo < len(t):
        first = bisect.bisect_right(ends, lo)  # the run of row ``lo``, the widest of the pass
        stop = min(len(t), lo + max(1, _PASS_STATES // math.prod(shapes[first])))
        runs = range(first, bisect.bisect_left(ends, stop) + 1)
        segments = [(min(ends[r], stop) - lo, shapes[r]) for r in runs]
        part = order[lo:stop]
        lo = stop
        canonical = np.take_along_axis(rank[part], level[part], axis=-1)
        power = _composition_pass(t[part], cost[part], canonical, segments, budget)
        tables = [_composition_table(dims) for _, dims in segments]
        if len(segments) == 1:  # the shape's own tables, as they are
            counts, total, _ = tables[0]
        else:  # the runs' counts side by side, each row's first column in them, its total padded with -1
            counts = np.concatenate([own_counts for own_counts, _, _ in tables], axis=1)
            total, offset, start, column = np.full(power.shape, -1), np.empty(len(power), dtype=int), 0, 0
            for (end, _), (_, own_total, _) in zip(segments, tables):
                total[start:end, : len(own_total)] = own_total
                offset[start:end] = column
                start, column = end, column + len(own_total)
        fit = power < below
        best = (fit * total).max(axis=-1)
        count[part] = best.T
        if above is not None:
            decided = fit | (power > above)
            if len(segments) > 1:
                decided |= total < 0
            undecided[part] = ~decided.all(axis=-1).T
        setting, inst, state = np.nonzero(fit & (total == best[..., None]))
        if len(segments) > 1:  # each winner's state in its run's counts
            state = state + offset[inst]
        terms = counts[:, state]
        inst = part[inst]
        terms = np.take_along_axis(terms.T, rank[inst], axis=-1) * log_base[inst]  # target order
        # ufunc.at takes a flat index several times faster than a tuple
        np.maximum.at(rate.reshape(-1), inst * len(below) + setting, np.add.accumulate(terms, axis=-1)[:, -1])
    return count, rate, undecided


def _optimal_admit_batch(gains, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Optimal admission of a whole batch of instances: counts and sum rates.

    Same contract as :func:`_sequential_admit_batch`, with the objective of
    :func:`exhaustive_admit`: most users, then the highest sum rate, found by
    :func:`_best_compositions` from each composition's least power. Counts
    equal a subset enumeration's exactly and rates agree within rounding;
    nobody admitted gives rate 0.0.
    """
    g, t = _stacked(gains, thresholds)
    shape, users = g.shape[:-1], g.shape[-1]
    g, t = g.reshape(-1, users), t.reshape(-1, users)
    with np.errstate(divide="ignore", over="ignore"):
        cost = t / g  # a zero gain costs inf
    count, rate, _ = _best_compositions(t, cost, [np.inf])
    return count.reshape(shape), rate.reshape(shape)


def _optimal_admit_powers(gains, thresholds, rho) -> tuple[np.ndarray, np.ndarray]:
    """Optimal admission at each power scale in ``rho``, from one walk per instance.

    ``gains`` and ``thresholds`` are as in :func:`_optimal_admit_batch`, with
    power-free gains: at scale ``r`` the gains are ``r * gains``. Counts and
    rates equal ``_optimal_admit_batch(rho[k] * gains, thresholds)`` bit for
    bit, with the scales on an axis after the batch axes.

    In exact arithmetic the sequential rule is linear in the costs: with
    costs ``c = t/g`` and no budget check, a subset's walk ``T <- T + (t*T +
    c)`` ends at ``T``, its total at scale ``r`` is ``T/r``, and it fits when
    that is at most 1. :func:`_best_compositions` walks without the budget,
    so each composition holds ``m``, the least rounded ``T`` of its subsets
    (the step is monotone, as :func:`_append` shows). With ``n`` users, ``u =
    2**-53`` and ``kappa = (6n + 9) u``, a composition fits at ``r`` when ``m <
    fl(r fl(1 - kappa))`` and at no subset when ``m > fl(r fl(1 + kappa))``.
    Every other case (``m`` inside the margin, NaN, or an instance whose walks
    could leave the normal range at that scale) runs
    :func:`_optimal_admit_batch` on exactly those (instance, scale) pairs.

    Proof. The range check makes every operation below round a normal float
    (or give an exact 0), so with a relative error of at most u. All terms
    are non-negative, so by induction over its steps a walk of ``j <= n``
    steps ``X <- fl(fl(fl(t X) + c) + X)`` with costs ``c`` within ``[f_lo,
    f_hi]`` times costs ``a`` lies within ``[f_lo (1-u)^(3j), f_hi
    (1+u)^(3j)]`` times the exact walk on ``a``. Take ``a = t/g`` exact: the
    costs ``fl(t/g)`` give the rounded ``T`` within ``(1 -+ u)^(3n+1)`` of
    ``T``; the costs ``fl(t/fl(r g))`` at scale ``r`` have ``f`` within
    ``(1-u)/(1+u)`` and ``(1+u)/(1-u)``, so the rounded walk ``P`` without
    checks lies within ``(1-u)^(3n+1)/(1+u)`` and ``(1+u)^(3n+1)/(1-u)`` of
    ``T/r``. The thresholds lie within ``(1 -+ u)^2`` of ``r (1 -+ kappa)``.
    Fits: the subset S with ``m`` as its rounded ``T`` has ``P < (1-kappa)
    (1+u)^(3n+3) / (1-u)^(3n+2) <= 1 - u`` (condition A). ``P`` only rises,
    so each step's exact ``P + need`` is at most ``P/(1-u) <= 1``, hence
    ``need <= 1 - P`` and ``need <= fl(1 - P)``: no check rejects S, and the
    walk with checks is the one without.
    No fit: every subset S has a rounded ``T >= m``. An infinite one holds a
    zero gain (the range check rules out overflow), which no scale admits.
    Otherwise ``P > (1+kappa) (1-u)^(3n+3) / (1+u)^(3n+2) >= (1+u)^2``
    (condition B). But a walk that passes every check has ``P < 1`` before
    its last step and ``need <= fl(1 - P) <= (1-P)(1+u)``, so it ends at
    ``fl(P + need) <= (1+u)^2``. So S is rejected.
    Conditions: with ``q = (1+u)/(1-u)`` and ``N = 3n + 4``, A asks ``1 -
    kappa <= q^-(N-1)`` and B ``1 + kappa >= (1-u) q^N``. Bernoulli's
    inequality gives ``q^-(N-1) >= 1 - 2(N-1)u`` and ``q^N <= 1/(1 -
    N(q-1))``, and ``q - 1 = 2u/(1-u)``, so ``kappa = (2N+1)u`` meets both
    while ``(2N+1)^2 u <= 1``: pools of up to about 15 million users, far
    beyond what ``_DP_STATE_BOUND`` admits.
    Range: an instance passes when each positive gain's cost ``fl(t/g)``,
    and the least target times the least of them, is at least the smallest
    normal float (a walk's products are no smaller), and ``max(1, sum c)
    prod(1 + t) < max/4``, which bounds every walk, unrolled, and every
    target. A scale passes when each ``fl(r g)`` and its costs pass the same
    lower test, those costs are finite, ``fl(r fl(1 - kappa))`` is normal and
    ``fl(r fl(1 + kappa))`` finite. A walk at ``r`` that passes its checks,
    or whose exact total is below 1, stays below 2.
    """
    e, t = _stacked(gains, thresholds)
    shape, users = e.shape[:-1], e.shape[-1]
    e, t = e.reshape(-1, users), t.reshape(-1, users)
    rho = np.asarray(rho, dtype=float)
    kappa = (6 * users + 9) * 2.0**-53
    tiny = np.finfo(float).tiny
    positive, t_min = e > 0.0, t.min(axis=-1)

    def least(x, where):
        return np.min(x, axis=-1, where=where, initial=np.inf)

    with np.errstate(divide="ignore", over="ignore"):
        lo, hi = rho * (1.0 - kappa), rho * (1.0 + kappa)
        cost = t / e  # a zero gain costs inf
        scaled = rho[:, None] * e[:, None, :]  # (rows, scales, users)
        scaled_cost, at = t[:, None, :] / scaled, positive[:, None, :]
        spread = np.maximum(1.0, np.sum(cost, axis=-1, where=positive)) * np.prod(1.0 + t, axis=-1)
        c0, c = least(cost, positive), least(scaled_cost, at)
        unsure = ~(
            ((np.minimum(c0, c0 * t_min) > tiny) & (spread < np.finfo(float).max / 4))[:, None]
            & (np.minimum(c, c * t_min[:, None]) > tiny)
            & (np.max(scaled_cost, axis=-1, where=at, initial=0.0) < np.inf)
            & (least(scaled, at) > tiny)
            & (lo > tiny)
            & (hi < np.inf)
        )
        count, rate, undecided = _best_compositions(t, cost, lo, hi, budget=False)
    inst, k = np.nonzero(unsure | undecided)
    if len(inst):
        count[inst, k], rate[inst, k] = _optimal_admit_batch(rho[k, None] * e[inst], t[inst])
    return count.reshape(shape + rho.shape), rate.reshape(shape + rho.shape)


def _require_dp_states(users: int, levels: int) -> int:
    """The most DP states an instance of ``users`` drawing from ``levels``
    distinct targets can need, refused above ``_DP_STATE_BOUND``. The most
    states, ``prod_l (s_l + 1)``, come from users spread evenly."""
    spread = min(levels, users)
    q, r = divmod(users, spread)
    if (states := (q + 2) ** r * (q + 1) ** (spread - r)) > _DP_STATE_BOUND:
        raise ValueError(
            f"requesting_users {users} can need {states} DP states per instance, above the bound {_DP_STATE_BOUND}"
        )
    return states


def greedy_optimality_condition(gains, thresholds, count) -> np.ndarray:
    """Sufficient condition for the sequential count k to be the optimal count.

    Instances stack as in :func:`cumulative_power_closed_form`, ``count``
    holding each one's sequential count; the result is a boolean array over
    the stack. Users are numbered 1..n in decreasing-gain order, with cost
    ``c = t/g``. It holds when the admitted gains are positive and (a) ``c``
    does not decrease over the admitted users 1..k, (b) no admitted user's
    target exceeds a rejected user's, and (c) the first rejected user's
    target ``t[k+1]`` is no larger than any later user's.

    Proof (exact arithmetic). A set's power builds up in gain order as
    ``P <- P (1 + t) + c``, increasing in ``P``, so dropping a user never
    raises it; and ``t_i <= t_j`` with ``i < j`` implies ``c_i <= c_j``. Take
    a (k+1)-subset S other than the prefix 1..k+1 (k < n), i the largest
    index ``<= k+1`` missing from S and j its smallest member above k+1, so S
    holds ``i+1..k+1`` in between. By (b) or (c) ``t_i <= t_j``, and each v
    in between has ``t_v <= t_j`` and ``c_v >= c_i`` (by (a), or for v = k+1
    by ``t_{k+1} >= t_i``). With T and Q the factor and power those users add,
    ``c_i (T - 1) <= t_j Q`` term by term, so swapping j out and i in never
    raises the power: ``(P T + Q)(1 + t_j) + c_j >= (P (1 + t_i) + c_i) T + Q``.
    Repeating reaches the prefix, which the scan found over budget, so no set
    of k+1 or more users fits.
    """
    g, t = _stacked(gains, thresholds)
    user = np.arange(g.shape[-1])
    k = _counts(count, len(user))[..., None]  # user k (from 0) is the first rejected
    with np.errstate(divide="ignore", invalid="ignore"):
        falling = np.diff(t / g, axis=-1) < 0

    def lowest(where):  # lowest target among the users ``where`` marks, inf if none
        return np.min(t, axis=-1, where=where, initial=np.inf)

    positive = ~np.any((user < k) & (g <= 0), axis=-1)
    rising_cost = ~np.any(falling & (user[1:] < k), axis=-1)  # (a)
    admitted_below = np.max(t, axis=-1, where=user < k, initial=-np.inf) <= lowest(user >= k)  # (b)
    return positive & rising_cost & admitted_below & (lowest(user == k) <= lowest(user > k))  # (c)


def aligned_thresholds(thresholds) -> np.ndarray:
    """True when SINR targets never decrease along the admission order.

    Under this alignment (better channel never demands a higher target) the
    sequential scheme provably admits the maximum feasible number of users:
    any competing subset of a given size costs at least as much power,
    position by position. Equal targets are the simplest aligned case.
    Targets stack on leading axes; the result is a boolean array over them.
    """
    _, t = _stacked(0.0, thresholds)  # zero gains pass, so only the targets are checked
    return np.all(t[..., :-1] <= t[..., 1:], axis=-1)
