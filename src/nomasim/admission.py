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
rule and :func:`_exhaustive_admit_batch` the subset search. Sweeps take the
optimum from :func:`_optimal_admit_batch`, a composition DP whose counts equal
the enumeration's exactly (sum rates within rounding); both exact searches
allocate through :func:`_append`, the rule's append step. The kernels match a
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
    """Admission instances stacked on leading axes, users in admission order
    on the last, broadcast to one float shape and validated as a whole."""
    g, t = np.broadcast_arrays(np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float))
    if g.ndim == 0 or g.shape[-1] == 0:
        raise ValueError("gains and sinr_thresholds must be non-empty along the last axis")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise ValueError("gains must be finite and non-negative")
    if np.any(np.diff(g, axis=-1) > 0):
        raise ValueError("gains must be sorted in non-increasing order")
    if not np.all(np.isfinite(t)) or np.any(t <= 0):
        raise ValueError("sinr_thresholds must be finite and positive")
    return g, t


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


def _batch_of_one(instance: AdmissionInstance, members) -> AdmissionResult:
    """The sequential rule over the users the mask ``members`` marks, as a batch
    of one: members in gain order, then zero gains, which end admission."""
    order = np.argsort(~members, kind="stable")
    gains, thresholds = np.where(members, instance.gains, 0.0)[order], instance.sinr_thresholds[order]
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
    the users once on the whole batch: with ``P`` the power committed, a user
    of gain ``g`` and target ``t`` needs ``t*P + t/g`` and reaches SINR
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


def _append(power, t, cost) -> np.ndarray:
    """Totals once a user of target ``t`` and cost ``t/g`` joins subsets of
    total ``power`` last, as the sequential rule appends it: ``need = t*P +
    t/g``, rejected (inf) when ``need > 1 - P``, else ``P + need``.

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
    rejected = total > 1.0 - power
    total += power
    np.putmask(total, rejected, np.inf)
    return total


def _enumeration_pass(g, t, code, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts, sum rates and winners' member masks of one pass of instances.

    ``g`` and ``t`` hold one instance per row. Totals walk the users once
    through :func:`_append`, on (instances, subsets) arrays indexed by code:
    the subsets holding user k as their last member are those of users
    ``0..k-1`` with k added, so each step extends the ``2**k`` subsets built
    so far; a subset that does not fit holds inf. Rates of the fitting
    subsets of the best size follow in :func:`_sequential_admit_batch`'s
    operations, each member's prior total read from the walk. The winner is
    the first of them in enumeration order whose rate is within
    ``_RATE_TIE_TOL`` of their highest.
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
    prior = total[inst[:, None], code[subset, None] & ((1 << np.arange(users)) - 1)]
    need = t[inst] * prior + cost[inst]
    sinr = np.where(members, need * g[inst] / (1.0 + g[inst] * prior), 0.0)  # a non-member's term is log2(1) = 0
    terms = np.fromiter(map(math.log2, (1.0 + sinr).ravel().tolist()), dtype=float, count=sinr.size)
    rate = np.add.accumulate(terms.reshape(sinr.shape), axis=-1)[:, -1]  # added in user order

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


def _composition_pass(t, cost, level, values, dims) -> tuple[np.ndarray, np.ndarray]:
    """Counts and sum rates of one pass of instances.

    ``t`` and ``cost`` (target over gain) hold one instance per row, ``level``
    each user's target level and ``values`` each instance's level targets (0
    for a level it lacks); ``dims`` is each instance's own count per level
    plus one, so every instance of a pass has the same shape.
    ``power[b, c]`` is the least total, as :func:`_sequential_admit_batch`
    computes it, of a fitting subset of the users walked so far with ``c[l]``
    users at level ``l`` (inf if none fits). Walking strongest first, user k
    joins each subset last through :func:`_append`, whose monotonicity keeps
    a composition's least total least; by induction a state is finite
    exactly when a subset of its composition fits, the enumeration's test, so
    the counts equal the enumeration's. The pick is the finite composition
    with the most users, then the largest ``sum_l c[l] * log2(1 +
    values[l])``. A level an instance lacks adds exactly 0.0, so an
    instance's results do not depend on its pass.

    States are flattened in C order, so adding a user at level ``l`` is a
    shift by that level's stride. A shift off the top of level ``l`` wraps
    into another state, but only ever carries inf: a state counting as many
    level-``l`` users as the instance has is unreachable while one of them is
    still to come.
    """
    batch, users = cost.shape
    counts = np.indices(dims).reshape(len(dims), -1)  # c[l] of each state
    rate = np.zeros((batch, counts.shape[1]))
    for l, c in enumerate(counts):
        log_base = np.fromiter(map(math.log2, (1.0 + values[:, l]).tolist()), dtype=float, count=batch)
        rate += c * log_base[:, None]

    strides = [math.prod(dims[l + 1 :]) for l in range(len(dims))]
    at = level[:, :, None] == np.arange(len(dims))  # (batch, users, levels)
    present = at.any(axis=0).tolist()
    power = np.full(rate.shape, np.inf)
    power[:, 0] = 0.0
    for k in range(users):
        joined = _append(power, t[:, k, None], cost[:, k, None])
        for l, stride in enumerate(strides):
            if present[k][l]:
                grown = power[:, stride:]
                np.minimum(grown, joined[:, :-stride], out=grown, where=at[:, k, l, None])

    total = counts.sum(axis=0)
    feasible = power < np.inf
    best = (feasible * total).max(axis=-1)
    rate[~(feasible & (total == best[:, None]))] = -np.inf
    return best, rate.max(axis=-1)


def _optimal_admit_batch(gains, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Optimal admission of a whole batch of instances: counts and sum rates.

    Same contract as :func:`_sequential_admit_batch`, with the objective of
    :func:`exhaustive_admit`: most users, then the highest sum rate. Every
    admitted user sits at its target, so the objective depends only on the
    composition (how many users are admitted at each distinct target), and
    :func:`_composition_pass` finds each composition's least power. Counts
    equal :func:`exhaustive_admit`'s exactly and rates agree within rounding;
    nobody admitted gives rate 0.0. An instance with ``s_l`` users at level
    ``l`` has ``prod_l (s_l + 1)`` states, polynomial in the users for a
    fixed number of levels. Instances are grouped by their exact per-level
    counts, and each group runs in passes of at most ``_PASS_STATES`` states
    (or one instance, if it alone has more), so no pass holds a padded state.
    """
    g, t = _stacked(gains, thresholds)
    shape, users = g.shape[:-1], g.shape[-1]
    g, t = g.reshape(-1, users), t.reshape(-1, users)
    # Levels of an instance: its distinct targets, ascending.
    ordered = np.sort(t, axis=-1)
    distinct = np.ones(ordered.shape, dtype=bool)
    distinct[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    level = (distinct[:, None, :] & (ordered[:, None, :] < t[:, :, None])).sum(axis=-1)
    n_levels = int(distinct.sum(axis=-1).max())
    sizes = (level[:, :, None] == np.arange(n_levels)).sum(axis=1)
    values = np.zeros((len(t), n_levels))
    np.put_along_axis(values, level, t, axis=-1)
    with np.errstate(divide="ignore", over="ignore"):
        cost = t / g  # a zero gain costs inf

    count, rate = np.empty(len(t), dtype=int), np.empty(len(t))
    shapes, group = np.unique(sizes + 1, axis=0, return_inverse=True)
    group = group.ravel()  # numpy 2.0 gives the inverse the input's shape
    for i, dims in enumerate(map(tuple, shapes.tolist())):
        same = np.flatnonzero(group == i)
        step = max(1, _PASS_STATES // math.prod(dims))
        for lo in range(0, len(same), step):
            part = same[lo : lo + step]
            count[part], rate[part] = _composition_pass(t[part], cost[part], level[part], values[part], dims)
    return count.reshape(shape), rate.reshape(shape)


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
