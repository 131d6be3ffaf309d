"""Achievable-rate formulas for one cluster.

All functions take effective scalar gains on SNR scale (path loss and the
transmit-to-noise ratio already folded in, see ``ClusterRealization.snr_gains``)
sorted in decreasing order, which is also the decoding order: user l decodes
the signals of users 1..l-1 before its own and treats the rest as noise.
Rates are in bps/Hz.

Gain and coefficient arguments broadcast over leading axes, so a whole grid of
power splits can be evaluated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SUM_TOL = 1e-12


def _as_coeffs(split) -> np.ndarray:
    if isinstance(split, PowerSplit):
        return split.coefficients
    return np.asarray(split, dtype=float)


def _as_fractions(dof) -> np.ndarray:
    if isinstance(dof, DofSplit):
        return dof.fractions
    return np.asarray(dof, dtype=float)


@dataclass(frozen=True)
class PowerSplit:
    """Per-user shares of the cluster transmit power.

    Shares are non-negative and sum to at most 1 (an admission outcome may
    leave part of the budget unused).
    """

    coefficients: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if w.ndim != 1 or w.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(w)):
            raise ValueError("coefficients must be finite")
        if np.any(w < -_SUM_TOL) or np.any(w > 1 + _SUM_TOL):
            raise ValueError("each coefficient must lie in [0, 1]")
        if w.sum() > 1 + _SUM_TOL:
            raise ValueError("coefficients must sum to at most 1")
        w.setflags(write=False)
        object.__setattr__(self, "coefficients", w)

    def __len__(self) -> int:
        return self.coefficients.size


@dataclass(frozen=True)
class DofSplit:
    """Orthogonal time/frequency shares; non-negative, summing to 1."""

    fractions: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.fractions, dtype=float))
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("fractions must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(lam)) or np.any(lam < -_SUM_TOL):
            raise ValueError("fractions must be finite and non-negative")
        if abs(lam.sum() - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")
        lam.setflags(write=False)
        object.__setattr__(self, "fractions", lam)

    def __len__(self) -> int:
        return self.fractions.size


@dataclass(frozen=True)
class RateReport:
    """Per-user rates plus the derived aggregates."""

    per_user_bps_hz: np.ndarray
    sum_bps_hz: float
    jain: float

    @classmethod
    def from_rates(cls, per_user) -> "RateReport":
        r = np.asarray(per_user, dtype=float)
        return cls(per_user_bps_hz=r, sum_bps_hz=float(r.sum()), jain=jain_index(r))


def noma_user_rates(gains, split) -> np.ndarray:
    """Rates of all users under superposed transmission.

    User l sees the power of users decoded after it (indices > l) removed by
    its own successive decoding and the power of users decoded before it as
    interference.
    """
    g = np.asarray(gains, dtype=float)
    w = _as_coeffs(split)
    earlier = np.cumsum(w, axis=-1) - w
    return np.log2(1.0 + w * g / (1.0 + g * earlier))


def noma_user_rate(gains, split, user_index: int) -> float:
    """Rate of one user (0-based index in decoding order)."""
    rates = noma_user_rates(gains, split)
    if not 0 <= user_index < rates.shape[-1]:
        raise ValueError("user_index out of range")
    return float(rates[..., user_index])


def noma_sum_rate(gains, split):
    """Cluster sum rate under superposed transmission."""
    return noma_user_rates(gains, split).sum(axis=-1)


def oma_user_rates(gains, split, dof) -> np.ndarray:
    """Rates when users are separated into orthogonal resource shares.

    A zero share contributes a zero rate regardless of its power (the
    share -> 0 limit).
    """
    g = np.asarray(gains, dtype=float)
    w = _as_coeffs(split)
    lam = _as_fractions(dof)
    safe = np.where(lam > 0, lam, 1.0)
    return np.where(lam > 0, lam * np.log2(1.0 + w * g / safe), 0.0)


def oma_sum_rate(gains, split, dof):
    return oma_user_rates(gains, split, dof).sum(axis=-1)


def optimal_dof_fractions(gains, split) -> np.ndarray:
    """Array version of :func:`oma_optimal_dof` (broadcasts, skips wrapping)."""
    p = _as_coeffs(split) * np.asarray(gains, dtype=float)
    total = p.sum(axis=-1, keepdims=True)
    n = p.shape[-1]
    with np.errstate(invalid="ignore"):
        lam = np.where(total > 0, p / np.where(total > 0, total, 1.0), 1.0 / n)
    return lam


def oma_optimal_dof(gains, split) -> DofSplit:
    """Resource shares proportional to each user's received power.

    This split maximizes the orthogonal-sharing sum rate, which then equals
    :func:`oma_sum_upper_bound`. If no user receives any power the split is
    uniform (every share then yields zero rate anyway).
    """
    return DofSplit(optimal_dof_fractions(gains, split))


def oma_sum_upper_bound(gains, split):
    """Largest sum rate orthogonal sharing can reach for this power split."""
    p = _as_coeffs(split) * np.asarray(gains, dtype=float)
    return np.log2(1.0 + p.sum(axis=-1))


@dataclass(frozen=True)
class SicFeasibility:
    """Outcome of the decoding-order check.

    ``margins[l, k]`` (l < k, NaN elsewhere) is the rate headroom receiver l
    has when decoding the signal intended for the later user k, relative to
    user k's own rate. All margins non-negative means every receiver can run
    its cancellation chain at the nominal rates.
    """

    feasible: bool
    margins: np.ndarray


def sic_feasibility_check(gains, split, tol: float = 1e-12) -> SicFeasibility:
    """Check that earlier receivers can decode every later user's signal."""
    g = np.asarray(gains, dtype=float)
    w = _as_coeffs(split)
    if g.ndim != 1 or w.shape != g.shape:
        raise ValueError("gains and split must be 1-D of equal length")
    earlier = np.cumsum(w) - w
    # cross[l, k]: rate of user k's signal when decoded at receiver l
    cross = np.log2(1.0 + w[None, :] * g[:, None] / (1.0 + g[:, None] * earlier[None, :]))
    margins = cross - np.diag(cross)[None, :]
    margins = np.where(np.triu(np.ones_like(margins, dtype=bool), k=1), margins, np.nan)
    feasible = bool(np.all(margins[~np.isnan(margins)] >= -tol))
    return SicFeasibility(feasible=feasible, margins=margins)


def two_user_gap(gains, omega1):
    """Sum-rate advantage of superposition over the orthogonal bound, 2 users."""
    g = np.asarray(gains, dtype=float)
    if g.shape[-1] != 2:
        raise ValueError("two_user_gap needs exactly two gains")
    w1 = np.asarray(omega1, dtype=float)
    if np.any(w1 < -_SUM_TOL) or np.any(w1 > 1 + _SUM_TOL):
        raise ValueError("omega1 must lie in [0, 1]")
    split = np.stack([w1, 1.0 - w1], axis=-1)
    return noma_sum_rate(g, split) - oma_sum_upper_bound(g, split)


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


def extend_split(split, extra_fraction: float) -> PowerSplit:
    """Grow a split by one user without raising any existing share.

    Existing shares are scaled by ``1 - extra_fraction`` and the new (weakest)
    user receives ``extra_fraction``, so the result keeps the same total and is
    dominated by the original share-for-share, the regime where adding the
    user cannot raise the sum rate.
    """
    if not 0 <= extra_fraction <= 1:
        raise ValueError("extra_fraction must lie in [0, 1]")
    w = _as_coeffs(split)
    return PowerSplit(np.append(w * (1.0 - extra_fraction), extra_fraction * w.sum()))


@dataclass(frozen=True)
class ClusterSizeDelta:
    """Sum-rate change from serving one extra user, with diagnostics.

    ``delta`` is the direct rate difference, ``delta_factored`` the same
    quantity rebuilt from the three ratio factors. Under the domination
    precondition each factor is at most 1, hence ``delta <= 0``.
    """

    delta: float
    delta_factored: float
    head_factor: float
    chain_factor: float
    tail_factor: float


def cluster_size_rate_delta(gains, split_small, split_large) -> ClusterSizeDelta:
    """Change in sum rate when an (l+1)-th user joins the cluster.

    ``gains`` has l+1 entries (decreasing); ``split_small`` allocates the full
    budget over the first l users, ``split_large`` over all l+1 with no user's
    share exceeding its ``split_small`` value. The delta is computed both as a
    direct difference of sum rates and through a telescoped product of three
    per-boundary factors; the two agree to rounding error and the factors
    localize where rate is lost.
    """
    g = np.asarray(gains, dtype=float)
    w = _as_coeffs(split_small)
    th = _as_coeffs(split_large)
    if g.ndim != 1 or w.ndim != 1 or th.ndim != 1:
        raise ValueError("gains and splits must be 1-D")
    l = w.size
    if g.size != l + 1 or th.size != l + 1:
        raise ValueError("need len(gains) == len(split_large) == len(split_small) + 1")
    if np.any(np.diff(g) > 0) or np.any(g < 0):
        raise ValueError("gains must be non-negative and non-increasing")
    if abs(w.sum() - 1.0) > 1e-9 or abs(th.sum() - 1.0) > 1e-9:
        raise ValueError("both splits must use the full power budget")
    if np.any(th[:l] > w + 1e-12):
        raise ValueError("split_large must not raise any existing user's share")

    delta = float(noma_sum_rate(g, th) - noma_sum_rate(g[:l], w))

    a = np.cumsum(w)   # a[j]: share of power used by users 0..j in the small split
    b = np.cumsum(th)

    def ratio(x, y, gain):
        return (1.0 + x * gain) / (1.0 + y * gain)

    if l == 1:
        head = 1.0
        chain = 1.0
        tail = ratio(b[0], a[0], g[0]) * ratio(b[1], b[0], g[1])
    else:
        head = ratio(b[0], a[0], g[0]) * ratio(a[0], b[0], g[1])
        chain = 1.0
        for j in range(1, l - 1):
            chain *= ratio(b[j], a[j], g[j]) * ratio(a[j], b[j], g[j + 1])
        tail = ratio(b[l - 1], a[l - 1], g[l - 1]) * ratio(b[l], b[l - 1], g[l])
    factored = float(np.log2(head) + np.log2(chain) + np.log2(tail))
    return ClusterSizeDelta(
        delta=delta,
        delta_factored=factored,
        head_factor=float(head),
        chain_factor=float(chain),
        tail_factor=float(tail),
    )


def jain_index(rates):
    """Fairness of rate vectors along the last axis: 1 when equal, 1/n when one
    user gets all. A 1-D input gives a float; stacked inputs give an array."""
    r = np.asarray(rates, dtype=float)
    if r.ndim == 0 or r.shape[-1] == 0:
        raise ValueError("rates must be non-empty along the last axis")
    if np.any(r < 0):
        raise ValueError("rates must be non-negative")
    s = r.sum(axis=-1)
    denom = r.shape[-1] * (r * r).sum(axis=-1)
    if np.any(denom == 0):
        raise ValueError("jain_index is undefined for an all-zero rate vector")
    index = s * s / denom
    return float(index) if r.ndim == 1 else index
