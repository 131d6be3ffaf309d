"""The batched subset enumeration: the tests' exact reference for the composition DP.

No sweep or ``verify`` check enumerates; the library's one exact search is
the composition DP. This module batches the library's own enumeration pass,
the one :func:`nomasim.exhaustive_admit` runs on a single row, over stacked
instances, so the tests can compare the DP with it on whole batches.
"""

import numpy as np

from nomasim.admission import _PASS_STATES, _enumeration_pass, _stacked, _subset_table


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
