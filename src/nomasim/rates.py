"""Achievable-rate formulas for one cluster.

All functions take effective scalar gains on SNR scale (path loss and the
transmit-to-noise ratio already folded in: ``config.rho_at(p) *
effective_gains`` of a draw at ``p`` dBm) sorted in decreasing order, which is
also the decoding order: user l decodes the signals of users 1..l-1 before its
own and treats the rest as noise. Rates are in bps/Hz.

Gain and coefficient arguments broadcast over leading axes, so a whole grid of
power splits or a stack of instances is evaluated in one call. The users axis
is short (2-6 users in practice), so the kernels loop over it and do array work
on the leading axes; a short last axis costs numpy a loop per row. The running
and plain sums over users add the columns in order, the IEEE operations of
``np.cumsum`` and (below 8 users) of ``.sum(axis=-1)``, so results equal the
whole-array expressions bit for bit. The interference power a user sees from
the users decoded before it is an exclusive running sum, the shares before it
added in order, not a running total minus its own share: that difference
cancels to a few ulps of the total when an earlier share is tiny. The sweeps
and ``verify`` reduce per-user columns, never stacking rates only to sum them;
:func:`_optimal_shares` is the one implementation of the optimal split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SUM_TOL = 1e-12
# Decoding margins above -_SIC_TOL count as feasible (rounding of equal rates).
_SIC_TOL = 1e-12


def _users(x: np.ndarray) -> list:
    """Per-user columns of ``x`` (users on the last axis); numpy scalars for
    one instance, whose arithmetic costs less than that of 0-d arrays."""
    return list(x) if x.ndim == 1 else [x[..., k] for k in range(x.shape[-1])]


def _columns(gains, split) -> tuple[list, list]:
    """Per-user columns of gains and shares, checked finite."""
    g = np.asarray(gains, dtype=float)
    w = np.asarray(split, dtype=float)
    if g.shape[-1:] != w.shape[-1:]:
        raise ValueError("gains and split must have the same number of users")
    _require_finite("gains and splits", g, w)
    return _users(g), _users(w)


def _sum_users(columns):
    """Sum of per-user columns, added in user order. Below 8 users these are
    the IEEE operations of ``.sum(axis=-1)``; numpy adds 8 or more pairwise."""
    total = columns[0]
    for c in columns[1:]:
        total = total + c
    return total


def _noma_columns(g: list, w: list) -> list:
    """Superposed per-user rates, one column per user.

    User l sees the power of users decoded after it (indices > l) removed by
    its own successive decoding and the power of users decoded before it as
    interference. That earlier power is an exclusive running sum, added after
    each user's rate: it never subtracts a share from a total that holds it,
    which would cancel when an earlier share is tiny.
    """
    earlier = 0.0
    rates = []
    for gk, wk in zip(g, w):
        rates.append(np.log2(1.0 + wk * gk / (1.0 + gk * earlier)))
        earlier = earlier + wk
    return rates


def noma_user_rates(gains, split) -> np.ndarray:
    """Rates of all users under superposed transmission."""
    return np.stack(_noma_columns(*_columns(gains, split)), axis=-1)


def noma_sum_rate(gains, split):
    """Cluster sum rate under superposed transmission."""
    return _sum_users(_noma_columns(*_columns(gains, split)))


def _oma_term(lk, pk):
    """Orthogonal rate of share ``lk`` at received power ``pk``; zero at a zero share (the share -> 0 limit)."""
    share = lk > 0
    return np.where(share, lk * np.log2(1.0 + pk / np.where(share, lk, 1.0)), 0.0)


def _oma_columns(gains, split, dof) -> list:
    """Orthogonal per-user rates, one column per user."""
    g, w = _columns(gains, split)
    lam = np.asarray(dof, dtype=float)
    if lam.shape[-1:] != (len(w),):
        raise ValueError("dof fractions must have one entry per user")
    _require_finite("dof fractions", lam)
    return list(map(_oma_term, _users(lam), _received(g, w)))


def oma_user_rates(gains, split, dof) -> np.ndarray:
    """Rates when users are separated into orthogonal resource shares."""
    return np.stack(_oma_columns(gains, split, dof), axis=-1)


def oma_sum_rate(gains, split, dof):
    return _sum_users(_oma_columns(gains, split, dof))


def _received(g: list, w: list) -> list:
    return [wk * gk for gk, wk in zip(g, w)]


def _optimal_shares(g: list, w: list) -> tuple[list, list]:
    """Optimal orthogonal shares, in proportion to received power, and those powers, one column per user each."""
    p = _received(g, w)
    total = _sum_users(p)
    positive = total > 0
    safe = np.where(positive, total, 1.0)
    with np.errstate(invalid="ignore"):  # an infinite power over an infinite total
        return [np.where(positive, pk / safe, 1.0 / len(p)) for pk in p], p


def _optimal_oma_columns(g: list, w: list) -> list:
    """Orthogonal per-user rates under the optimal shares, one column per user."""
    return list(map(_oma_term, *_optimal_shares(g, w)))


def optimal_dof_fractions(gains, split) -> np.ndarray:
    """Resource shares proportional to each user's received power.

    This split maximizes the orthogonal-sharing sum rate, which then equals
    :func:`oma_sum_upper_bound`. If no user receives any power the split is
    uniform (every share then yields zero rate anyway).
    """
    return np.stack(_optimal_shares(*_columns(gains, split))[0], axis=-1)


def oma_sum_upper_bound(gains, split):
    """Largest sum rate orthogonal sharing can reach for this power split."""
    return np.log2(1.0 + _sum_users(_received(*_columns(gains, split))))


@dataclass(frozen=True)
class SicFeasibility:
    """Outcome of the decoding-order check.

    ``margins[..., l, k]`` (l < k, NaN elsewhere) is the rate headroom
    receiver l has when decoding the signal intended for the later user k,
    relative to user k's own rate. All margins non-negative means every
    receiver can run its cancellation chain at the nominal rates. For stacked
    instances ``feasible`` is an array over the leading axes.
    """

    feasible: bool | np.ndarray
    margins: np.ndarray


def _require_finite(name: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{name} must be finite")


def sic_feasibility_check(gains, split) -> SicFeasibility:
    """Check that earlier receivers can decode every later user's signal.

    Users are on the last axis; leading axes stack instances.
    """
    g = np.asarray(gains, dtype=float)
    w = np.asarray(split, dtype=float)
    if g.ndim == 0 or w.shape != g.shape:
        raise ValueError("gains and split must have equal shapes, users on the last axis")
    _require_finite("gains and splits", g, w)
    earlier = np.zeros_like(w)  # the exclusive running sum of _noma_columns
    earlier[..., 1:] = np.cumsum(w[..., :-1], axis=-1)
    rx = g[..., :, None]
    # cross[..., l, k]: rate of user k's signal when decoded at receiver l
    cross = np.log2(1.0 + w[..., None, :] * rx / (1.0 + rx * earlier[..., None, :]))
    margins = cross - np.diagonal(cross, axis1=-2, axis2=-1)[..., None, :]
    later = np.triu(np.ones(margins.shape[-2:], dtype=bool), k=1)
    margins = np.where(later, margins, np.nan)
    feasible = np.all(margins >= -_SIC_TOL, axis=(-2, -1), where=later)
    return SicFeasibility(feasible=bool(feasible) if g.ndim == 1 else feasible, margins=margins)


def two_user_gap(gains, omega1):
    """Sum-rate advantage of superposition over the orthogonal bound, 2 users."""
    g = np.asarray(gains, dtype=float)
    if g.shape[-1] != 2:
        raise ValueError("two_user_gap needs exactly two gains")
    # min and max keep NaN, so each check is one pass that also rejects it
    if g.size and not (g.min() >= 0 and g.max() < np.inf):
        raise ValueError("gains must be finite and non-negative")
    w1 = np.asarray(omega1, dtype=float)
    if w1.size and not (w1.min() >= -_SUM_TOL and w1.max() <= 1 + _SUM_TOL):
        raise ValueError("omega1 must lie in [0, 1] and be finite")
    g1, g2, w2 = g[..., 0], g[..., 1], 1.0 - w1
    # The superposed sum rate minus the orthogonal bound is exactly log2(1 + x).
    # log1p keeps the gap's curvature, which the rounding of log2(1 + z) swamps
    # at small gains, and each factor of x stays finite at large ones.
    x = w1 * g2 / (1.0 + w1 * g2) * (w2 * (g1 - g2) / (1.0 + w1 * g1 + w2 * g2))
    return np.log1p(x) / np.log(2.0)


def two_user_gap_maximizer(scaled_gain):
    """Stronger-user power share maximizing the two-user gap.

    ``scaled_gain`` is the stronger user's SNR-scale gain. The closed form is
    ``(sqrt(1 + x) - 1) / x``, evaluated as ``1 / (sqrt(1 + x) + 1)`` which is
    stable for small x; it always lies in (0, 1/2).
    """
    x = np.asarray(scaled_gain, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("scaled_gain must be positive and finite")
    out = 1.0 / (np.sqrt(1.0 + x) + 1.0)
    return float(out) if np.ndim(scaled_gain) == 0 else out


def extend_split(split, extra_fraction: float) -> np.ndarray:
    """Grow a split by one user without raising any existing share.

    ``split`` holds non-negative shares summing to at most 1 (an admission
    outcome may leave part of the budget unused). Existing shares are scaled
    by ``1 - extra_fraction`` and the new (weakest) user receives
    ``extra_fraction`` of the total, so the result keeps the same total and is
    dominated by the original share-for-share, the regime where adding the
    user cannot raise the sum rate.
    """
    if not 0 <= extra_fraction <= 1:
        raise ValueError("extra_fraction must lie in [0, 1]")
    w = np.asarray(split, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("split must be a non-empty 1-D sequence of shares")
    if not (np.all(w >= -_SUM_TOL) and w.sum() <= 1 + _SUM_TOL):  # NaN fails both comparisons
        raise ValueError("split shares must be finite, non-negative and sum to at most 1")
    return np.append(w * (1.0 - extra_fraction), extra_fraction * w.sum())


@dataclass(frozen=True)
class ClusterSizeDelta:
    """Sum-rate change from serving one extra user, with diagnostics.

    ``delta`` is the direct rate difference, ``delta_factored`` the same
    quantity rebuilt from the three ratio factors. Under the domination
    precondition each factor is at most 1, hence ``delta <= 0``. For stacked
    instances every field is an array over the leading axes.
    """

    delta: float | np.ndarray
    delta_factored: float | np.ndarray
    head_factor: float | np.ndarray
    chain_factor: float | np.ndarray
    tail_factor: float | np.ndarray


def cluster_size_rate_delta(gains, split_small, split_large) -> ClusterSizeDelta:
    """Change in sum rate when an (l+1)-th user joins the cluster.

    ``gains`` has l+1 entries (decreasing); ``split_small`` allocates the full
    budget over the first l users, ``split_large`` over all l+1 with no user's
    share exceeding its ``split_small`` value. The delta is computed both as a
    direct difference of sum rates and through a telescoped product of three
    per-boundary factors; the two agree to rounding error and the factors
    localize where rate is lost. Users are on the last axis; leading axes,
    the same for all three arguments, stack instances.
    """
    g = np.asarray(gains, dtype=float)
    w = np.asarray(split_small, dtype=float)
    th = np.asarray(split_large, dtype=float)
    if not (g.ndim == w.ndim == th.ndim >= 1 and g.shape[:-1] == w.shape[:-1] == th.shape[:-1]):
        raise ValueError("gains and splits must stack instances on the same leading axes")
    l = w.shape[-1]
    if g.shape[-1] != l + 1 or th.shape[-1] != l + 1:
        raise ValueError("need len(gains) == len(split_large) == len(split_small) + 1")
    _require_finite("gains and splits", g, w, th)
    if (g[..., 1:] > g[..., :-1]).any() or (g < 0).any():
        raise ValueError("gains must be non-negative and non-increasing")
    if (np.abs(w.sum(axis=-1) - 1.0) > 1e-9).any() or (np.abs(th.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("both splits must use the full power budget")
    if (th[..., :l] > w + 1e-12).any():
        raise ValueError("split_large must not raise any existing user's share")

    delta = noma_sum_rate(g, th) - noma_sum_rate(g[..., :l], w)

    a = np.cumsum(w, axis=-1)  # a[j]: share of power used by users 0..j in the small split
    b = np.cumsum(th, axis=-1)
    a, b, g = _users(a), _users(b), _users(g)

    def ratio(x, y, gain):
        return (1.0 + x * gain) / (1.0 + y * gain)

    head = ratio(b[0], a[0], g[0]) * ratio(a[0], b[0], g[1]) if l > 1 else 1.0
    chain = 1.0
    for j in range(1, l - 1):
        chain *= ratio(b[j], a[j], g[j]) * ratio(a[j], b[j], g[j + 1])
    tail = ratio(b[l - 1], a[l - 1], g[l - 1]) * ratio(b[l], b[l - 1], g[l])
    factored = np.log2(head) + np.log2(chain) + np.log2(tail)
    batch = th.shape[:-1]
    fields = (delta, factored, head, chain, tail)
    return ClusterSizeDelta(*(float(x) if not batch else np.full(batch, x) for x in fields))


def jain_index(rates):
    """Fairness of rate vectors along the last axis: 1 when equal, 1/n when one
    user gets all. A 1-D input gives a float; stacked inputs give an array."""
    r = np.asarray(rates, dtype=float)
    if r.ndim == 0 or r.shape[-1] == 0:
        raise ValueError("rates must be non-empty along the last axis")
    if r.size and not (r.min() >= 0 and r.max() < np.inf):  # min and max keep NaN
        raise ValueError("rates must be non-negative" if np.isfinite(r).all() else "rates must be finite")
    s = r.sum(axis=-1)
    denom = r.shape[-1] * (r * r).sum(axis=-1)
    if np.any(denom == 0):
        raise ValueError("jain_index is undefined for an all-zero rate vector")
    index = s * s / denom
    return float(index) if r.ndim == 1 else index
