"""The subset enumeration: the tests' exact reference for the composition DP.

The library's one exact search is the composition DP, and nothing in the
library enumerates subsets. This module walks every subset of stacked
instances, so the tests can check the DP, and :func:`nomasim.exhaustive_admit`
that reads the DP's count, against it on whole batches. It reuses the
library's validation, append step and sequential kernel, but not the DP.
"""

from functools import cache

import numpy as np

from nomasim.admission import (
    _ENUMERATION_CAP,
    _PASS_STATES,
    _RATE_TIE_TOL,
    _append,
    _sequential_admit_batch,
    _stacked,
)


def _members_first(g, t, members, rows=...) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the sequential rule over the users the masks ``members`` mark (users on the last axis), and their
    order: members in gain order, then zero gains, which end admission. Row i reads the users of ``g[rows][i]``
    and ``t[rows][i]``, with one gather per array."""
    order = np.argsort(~members, axis=-1, kind="stable")
    first = np.arange(members.shape[-1]) < members.sum(axis=-1, keepdims=True)
    return np.where(first, g[rows, order], 0.0), t[rows, order], order


def _members(code: np.ndarray, users: int) -> np.ndarray:
    """Boolean member table of subset codes, users on the last axis."""
    return (code[..., None] >> np.arange(users)) & 1 == 1


@cache
def _subset_table(users: int) -> tuple[np.ndarray, np.ndarray]:
    """Every subset of ``users`` users in enumeration order: its code and size.

    A subset's code has bit k set when user k is a member. The order is size
    descending, then :func:`itertools.combinations` order within a size,
    which is descending order of the members read as a binary number with
    user 0 as its most significant bit. Refused above ``_ENUMERATION_CAP``
    users: the table, and so the search, is exponential.
    """
    if users > _ENUMERATION_CAP:
        raise ValueError(f"instance has {users} users, above the enumeration cap {_ENUMERATION_CAP}")
    code = np.arange(1 << users)
    members = _members(code, users)
    sizes = members.sum(axis=-1)
    order = np.lexsort((-(members @ (1 << np.arange(users - 1, -1, -1))), -sizes))
    code, sizes = code[order], sizes[order]
    code.setflags(write=False)
    sizes.setflags(write=False)
    return code, sizes


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
        prior = total[:, : 1 << k]
        total[:, 1 << k : 2 << k] = _append(prior, t[:, k, None], cost[:, k, None]) + prior
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


def exhaustive_admit_batch(gains, thresholds):
    """Best admission subset of a whole batch of instances, by enumeration.

    Stacks instances as ``_sequential_admit_batch`` does, with the objective
    of :func:`nomasim.exhaustive_admit`: most users, then the highest sum
    rate, with its tie rule. Gives counts, sum rates and each winner's member
    mask (users on the last axis), equal to ``exhaustive_admit``'s bit for
    bit. Instances run in passes of at most ``_PASS_STATES`` (instance,
    subset) states, or one instance if it alone has more; an instance's
    results do not depend on the rest of its pass. Instances above
    ``_ENUMERATION_CAP`` users are refused: the search is exponential.
    """
    g, t = _stacked(gains, thresholds)
    shape, users = g.shape[:-1], g.shape[-1]
    code, sizes = _subset_table(users)  # refuses instances above the cap
    g, t = g.reshape(-1, users), t.reshape(-1, users)
    count, rate, members = np.empty(len(g), dtype=int), np.empty(len(g)), np.empty(g.shape, dtype=bool)
    step = max(1, _PASS_STATES // len(code))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, len(g), step):
            part = slice(lo, lo + step)
            count[part], rate[part], members[part] = _enumeration_pass(g[part], t[part], code, sizes)
    return count.reshape(shape), rate.reshape(shape), members.reshape(shape + (users,))
