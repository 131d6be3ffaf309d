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
:func:`_sequential_admit_batch` is the one implementation of the sequential
rule, and rates :func:`_exhaustive_admit_batch`'s candidate subsets too.
:func:`_optimal_admit_batch` is a composition DP whose counts equal the
enumeration's exactly (sum rates within rounding); both exact searches find
fitting sets through :func:`_append`, the rule's append step. The oracle sweeps
take the optimum at all their powers from :func:`_optimal_admit_powers`: one
DP per instance on power-free gains, with no budget check, read at each power
through a proven rounding margin, and the DP at that power wherever the margin
cannot decide, so the results are the DP's bit for bit. The kernels match a
scalar reference of the rule in the tests bit for bit; the enumeration stays
the reference that ``verify`` and the tests check the other rules against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .units import db_to_linear

# Sum rates this close to the highest count as a tie in the subset search,
# broken toward the subset enumerated first.
_RATE_TIE_TOL = 1e-12

_ENUMERATION_CAP = 12

# States one pass of either search holds per array, (instance, subset) or
# (instance, composition): 256 KiB of float64, enough instances to spread the
# per-step overhead of the array operations.
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


def _members_first(g, t, members, rows=...) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the sequential rule over the users the masks ``members`` mark (users on the last axis), and their
    order: members in gain order, then zero gains, which end admission. Row i reads the users of ``g[rows][i]``
    and ``t[rows][i]``, with one gather per array."""
    order = np.argsort(~members, axis=-1, kind="stable")
    first = np.arange(members.shape[-1]) < members.sum(axis=-1, keepdims=True)
    return np.where(first, g[rows, order], 0.0), t[rows, order], order


def _batch_of_one(instance: AdmissionInstance, members) -> AdmissionResult:
    """The sequential rule over the users the mask ``members`` marks, as a batch of one."""
    gains, thresholds, order = _members_first(instance.gains, instance.sinr_thresholds, members)
    count, rate, shares, sinrs = _sequential_admit_batch(gains, thresholds, detail=True)
    power, achieved = np.zeros(len(instance)), np.zeros(len(instance))
    power[order], achieved[order] = shares, sinrs
    return AdmissionResult(int(count), power, 1.0 - math.fsum(shares), float(rate), achieved)


def greedy_admit(instance: AdmissionInstance) -> AdmissionResult:
    """Admit users sequentially in decreasing-gain order until power runs out."""
    return _batch_of_one(instance, np.ones(len(instance), dtype=bool))


def _sequential_admit_batch(gains, thresholds, detail: bool = False):
    """Sequential admission of a whole batch of instances: counts and sum rates.

    ``gains`` and the linear ``thresholds`` broadcast to one shape whose last
    axis is the admission order; the leading axes are the batch (e.g. trials
    x powers x targets). Inputs are validated once for the batch, as
    :class:`AdmissionInstance` validates one instance. The recurrence walks
    the users until every instance stops: with ``P`` the power committed, a
    user of gain ``g`` and target ``t`` needs ``t*P + t/g`` and reaches SINR
    ``need*g / (1 + g*P)``; the first user with a zero gain or a need above
    ``1 - P`` ends admission, so trailing zero-gain padding changes nothing.
    Rate terms go through ``math.log2`` (numpy's log2 can differ from it in
    the last bit), so each instance's results equal these operations on
    Python floats bit for bit. With ``detail``, each user's power share and
    achieved SINR (zero for the rejected) follow.
    """
    g, t = _stacked(gains, thresholds)
    total, rate = np.zeros(g.shape[:-1]), np.zeros(g.shape[:-1])
    count = np.zeros(g.shape[:-1], dtype=int)
    admitted = np.ones(g.shape[:-1], dtype=bool)
    if detail:
        shares, sinrs = np.zeros(g.shape), np.zeros(g.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(g.shape[-1]):
            gk, tk = g[..., k], t[..., k]
            need = tk * total + tk / gk
            admitted &= (gk > 0.0) & ~(need > 1.0 - total)
            if not admitted.any():
                break
            sinr = need[admitted] * gk[admitted] / (1.0 + gk[admitted] * total[admitted])
            if detail:
                shares[..., k][admitted] = need[admitted]
                sinrs[..., k][admitted] = sinr
            rate[admitted] += np.fromiter(map(math.log2, (1.0 + sinr).tolist()), dtype=float, count=sinr.size)
            total = np.where(admitted, total + need, total)
            count += admitted
    return (count, rate, shares, sinrs) if detail else (count, rate)


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


def _members(code: np.ndarray, users: int) -> np.ndarray:
    """Boolean member table of subset codes, users on the last axis."""
    return (code[..., None] >> np.arange(users)) & 1 == 1


@cache
def _subset_table(users: int) -> tuple[np.ndarray, np.ndarray]:
    """Every subset of ``users`` users in enumeration order: its code and size.

    A subset's code has bit k set when user k is a member. The order is size
    descending, then :func:`itertools.combinations` order within a size,
    which is descending order of the members read as a binary number with
    user 0 as its most significant bit.
    """
    code = np.arange(1 << users)
    members = _members(code, users)
    sizes = members.sum(axis=-1)
    order = np.lexsort((-(members @ (1 << np.arange(users - 1, -1, -1))), -sizes))
    code, sizes = code[order], sizes[order]
    code.setflags(write=False)
    sizes.setflags(write=False)
    return code, sizes


def _append(power, t, cost, budget: bool = True) -> np.ndarray:
    """Totals once a user of target ``t`` and cost ``t/g`` joins subsets of
    total ``power`` last, as the sequential rule appends it: ``need = t*P +
    t/g``, rejected (inf) when ``need > 1 - P``, else ``P + need``. Without
    ``budget`` nobody is rejected: the walk ``T <- T + (t*T + c)``.

    Both exact searches rest on this step being monotone. With ``t > 0``,
    each of its IEEE operations is monotone in ``P`` (rounding is), so ``P <=
    P'`` gives ``need <= need'`` and ``1 - P >= 1 - P'``: a rejection at ``P``
    is one at ``P'``, and ``P + need <= P' + need'``. An inf total or an inf
    cost (a zero gain) gives inf. So a set's total is finite exactly when
    each of its members passes the allocation's check in its own order, and
    the least total of a family of sets stays least once a user joins them.
    """
    total = t * power
    total += cost
    if budget:
        np.putmask(total, total > 1.0 - power, np.inf)  # inf + P is inf
    total += power
    return total


def _enumeration_pass(g, t, code, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts, sum rates and winners' member masks of one pass of instances.

    ``g`` and ``t`` hold one instance per row. Totals walk the users once
    through :func:`_append`, on (instances, subsets) arrays indexed by code:
    the subsets holding user k as their last member are those of users
    ``0..k-1`` with k added, so each step extends the ``2**k`` subsets built
    so far; a subset that does not fit holds inf. :func:`_sequential_admit_batch`
    rates the fitting subsets of the best size on :func:`_members_first` rows (its
    totals ``P + need`` are the walk's ``need + P``); the first in enumeration
    order whose rate is within ``_RATE_TIE_TOL`` of their highest wins.
    """
    batch, users = g.shape
    cost = t / g  # a zero gain costs inf, more than is ever left
    total = np.zeros((batch, 1 << users))
    for k in range(users):
        total[:, 1 << k : 2 << k] = _append(total[:, : 1 << k], t[:, k, None], cost[:, k, None])
    feasible = total[:, code] < np.inf
    best = sizes[feasible.argmax(axis=-1)]  # sizes descend, and the empty subset always fits
    inst, subset = np.nonzero(feasible & (sizes == best[:, None]))

    members = _members(code[subset], users)
    rate = _sequential_admit_batch(*_members_first(g, t, members, inst[:, None])[:2])[1]

    # Candidates are grouped by instance, each group in enumeration order.
    first = np.searchsorted(inst, np.arange(batch))
    tied = np.flatnonzero(np.maximum.reduceat(rate, first)[inst] - rate <= _RATE_TIE_TOL)
    pick = tied[np.searchsorted(inst[tied], np.arange(batch))]
    return best, rate[pick], members[pick]


def _exhaustive_admit_batch(gains, thresholds):
    """Best admission subset of a whole batch of instances, by enumeration.

    Same contract as :func:`_sequential_admit_batch`, with the objective of
    :func:`exhaustive_admit`: most users, then the highest sum rate, with its
    tie rule. Gives counts, sum rates and each winner's member mask (users on
    the last axis), equal to :func:`exhaustive_admit`'s bit for bit. Instances
    run in passes of at most ``_PASS_STATES`` (instance, subset) states, or
    one instance if it alone has more; an instance's results do not depend
    on the rest of its pass. Instances above ``_ENUMERATION_CAP`` users are
    refused: the search is exponential.
    """
    g, t = _stacked(gains, thresholds)
    shape, users = g.shape[:-1], g.shape[-1]
    if users > _ENUMERATION_CAP:
        raise ValueError(f"instance has {users} users, above the enumeration cap {_ENUMERATION_CAP}")
    g, t = g.reshape(-1, users), t.reshape(-1, users)
    code, sizes = _subset_table(users)
    count, rate, members = np.empty(len(g), dtype=int), np.empty(len(g)), np.empty(g.shape, dtype=bool)
    step = max(1, _PASS_STATES // len(code))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, len(g), step):
            part = slice(lo, lo + step)
            count[part], rate[part], members[part] = _enumeration_pass(g[part], t[part], code, sizes)
    return count.reshape(shape), rate.reshape(shape), members.reshape(shape + (users,))


def exhaustive_admit(instance: AdmissionInstance) -> AdmissionResult:
    """Best admission subset by enumeration: most users, then highest rate.

    Every subset is allocated with the same sequential rule (in decreasing
    gain order within the subset); a subset is feasible only if all its
    members fit. Subsets are enumerated by size, descending, then in
    lexicographic order of their index sets; among the feasible subsets of
    the largest size, the first whose sum rate is within ``_RATE_TIE_TOL``
    (``1e-12``) of their highest wins. Refused above ``_ENUMERATION_CAP``
    users since the search is exponential. A batch of one of
    :func:`_exhaustive_admit_batch`, its winner allocated sequentially.
    """
    return _batch_of_one(instance, _exhaustive_admit_batch(instance.gains, instance.sinr_thresholds)[2])


@cache
def _composition_table(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Per-level counts (levels first) and totals of the states of ``dims`` in C order, and level strides."""
    counts = np.indices(dims).reshape(len(dims), -1)
    for table in (counts, total := counts.sum(axis=0)):
        table.setflags(write=False)
    return counts, total, tuple(math.prod(dims[l + 1 :]) for l in range(len(dims)))


def _composition_pass(t, cost, level, dims, budget: bool = True) -> np.ndarray:
    """Least totals of one pass of instances, per composition.

    ``t`` and ``cost`` (target over gain) hold one instance per row, ``level``
    each user's target level; ``dims`` is each instance's own count per level
    plus one, so every instance of a pass has the same shape.
    ``power[b, c]`` is the least total, as :func:`_sequential_admit_batch`
    computes it, of a fitting subset of the users walked so far with ``c[l]``
    users at level ``l`` (inf if none fits). Walking strongest first, user k
    joins each subset last through :func:`_append`, whose monotonicity keeps
    a composition's least total least; by induction a state is finite
    exactly when a subset of its composition fits, the enumeration's test.
    Without ``budget`` the walk has no check, and a state holds the least
    rounded walk ``T <- T + (t*T + c)`` over all subsets of its composition.

    States are flattened in C order, so adding a user at level ``l`` is a
    shift by that level's stride. A shift off the top of level ``l`` wraps
    into another state, but only ever carries inf: a state counting as many
    level-``l`` users as the instance has is unreachable while one of them is
    still to come.
    """
    _, total, strides = _composition_table(dims)
    at = level[:, :, None] == np.arange(len(dims))  # (batch, users, levels)
    present = at.any(axis=0).tolist()
    power = np.full((len(cost), len(total)), np.inf)
    power[:, 0] = 0.0
    for k in range(cost.shape[1]):
        joined = _append(power, t[:, k, None], cost[:, k, None], budget)
        for l, stride in enumerate(strides):
            if present[k][l]:
                grown = power[:, stride:]
                np.minimum(grown, joined[:, :-stride], out=grown, where=at[:, k, l, None])
    return power


def _best_compositions(t, cost, fits, settings: int, budget: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Counts and sum rates of the optimum of each instance row of ``t`` and
    ``cost`` in each of ``settings`` settings, shaped (rows, settings).

    Every admitted user sits at its target, so the objective (most users,
    then the highest sum rate) depends only on the composition: how many
    users are admitted at each distinct target. :func:`_composition_pass`
    walks each row once, and ``fits(power, part)`` reads the least totals of
    the rows ``part`` (rows, states) as whether each composition fits in each
    setting (settings, rows, states). An instance with ``s_l`` users at level
    ``l`` has ``prod_l (s_l + 1)`` states, polynomial in the users for a fixed
    number of levels. The walk never reads which target a level holds, so
    rows are grouped by canonical shape (levels by count, descending, ties by
    target), each group in passes of at most ``_PASS_STATES`` states (or one
    row, if it alone has more). Rates ``sum_l c[l] * log2(1 + target_l)`` of
    the fitting compositions of the best count add up from 0.0 in ascending
    target order, whatever the pass, and the highest wins; nobody admitted
    gives 0.0.
    """
    # Levels of an instance: its distinct targets, ascending.
    ordered = np.sort(t, axis=-1)
    distinct = np.ones(ordered.shape, dtype=bool)
    distinct[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    level = (distinct[:, None, :] & (ordered[:, None, :] < t[:, :, None])).sum(axis=-1)
    n_levels = int(distinct.sum(axis=-1).max())
    sizes = (level[:, :, None] == np.arange(n_levels)).sum(axis=1)
    values = np.zeros((len(t), n_levels))  # 0 for a level an instance lacks: log2(1) = 0
    np.put_along_axis(values, level, t, axis=-1)
    log_base = np.fromiter(map(math.log2, (1.0 + values).ravel().tolist()), dtype=float, count=values.size)
    rank = np.argsort(np.argsort(-sizes, axis=-1, kind="stable"), axis=-1)  # each level's canonical place

    count, found = np.empty((len(t), settings), dtype=int), []
    shapes, group = np.unique(np.sort(sizes, axis=-1)[:, ::-1] + 1, axis=0, return_inverse=True)
    group = group.ravel()  # numpy 2.0 gives the inverse the input's shape
    for i, dims in enumerate(map(tuple, shapes.tolist())):
        counts, total, _ = _composition_table(dims)
        same = np.flatnonzero(group == i)
        step = max(1, _PASS_STATES // len(total))
        for lo in range(0, len(same), step):
            part = same[lo : lo + step]
            canonical = np.take_along_axis(rank[part], level[part], axis=-1)
            fit = fits(_composition_pass(t[part], cost[part], canonical, dims, budget), part)
            best = (fit * total).max(axis=-1)
            count[part] = best.T
            setting, inst, state = np.nonzero(fit & (total == best[..., None]))
            found.append((part[inst], setting, counts[:, state].T))
    inst, setting, held = map(np.concatenate, zip(*found))
    terms = np.take_along_axis(held, rank[inst], axis=-1) * log_base.reshape(values.shape)[inst]  # target order
    rate = np.full(count.shape, -np.inf)  # ufunc.at takes a flat index several times faster than a tuple
    np.maximum.at(rate.reshape(-1), inst * settings + setting, np.add.accumulate(terms, axis=-1)[:, -1])
    return count, rate


def _optimal_admit_batch(gains, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Optimal admission of a whole batch of instances: counts and sum rates.

    Same contract as :func:`_sequential_admit_batch`, with the objective of
    :func:`exhaustive_admit`: most users, then the highest sum rate, found by
    :func:`_best_compositions` from each composition's least power. Counts
    equal :func:`exhaustive_admit`'s exactly and rates agree within rounding;
    nobody admitted gives rate 0.0.
    """
    g, t = _stacked(gains, thresholds)
    shape, users = g.shape[:-1], g.shape[-1]
    g, t = g.reshape(-1, users), t.reshape(-1, users)
    with np.errstate(divide="ignore", over="ignore"):
        cost = t / g  # a zero gain costs inf
    count, rate = _best_compositions(t, cost, lambda power, part: (power < np.inf)[None], 1)
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

        def fits(m, part):
            fit = m < lo[:, None, None]
            unsure[part] |= ~(fit | (m > hi[:, None, None])).all(axis=-1).T
            return fit

        count, rate = _best_compositions(t, cost, fits, len(rho), budget=False)
    inst, k = np.nonzero(unsure)
    if len(inst):
        count[inst, k], rate[inst, k] = _optimal_admit_batch(rho[k, None] * e[inst], t[inst])
    return count.reshape(shape + rho.shape), rate.reshape(shape + rho.shape)


def _require_dp_states(users: int, levels: int) -> None:
    """Refuse pools of ``users`` whose instances, drawing from ``levels``
    distinct targets, can need more than ``_DP_STATE_BOUND`` DP states. The
    most states, ``prod_l (s_l + 1)``, come from users spread evenly."""
    spread = min(levels, users)
    q, r = divmod(users, spread)
    if (states := (q + 2) ** r * (q + 1) ** (spread - r)) > _DP_STATE_BOUND:
        raise ValueError(
            f"requesting_users {users} can need {states} DP states per instance, above the bound {_DP_STATE_BOUND}"
        )


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
