"""SINR-target user admission inside one cluster.

Users request service with individual SINR targets. Power shares are assigned
sequentially in decreasing-gain order, giving each user exactly the share that
meets its target given the interference already committed; admission stops at
the first user whose required share exceeds what is left. An exhaustive
subset search over the same per-subset allocation rule serves as the
optimality reference.

Gains are on SNR scale (transmit-to-noise ratio and path loss folded in) and
sorted in decreasing order; targets are linear. Per instance, allocation runs
on plain Python floats so the sequential scheme and the subset search share
bit-equal arithmetic, and so the per-user cost stays a handful of scalar
operations. Sweeps run the sequential scheme on many instances at once
(:func:`_sequential_admit_batch`): the same IEEE operations in the same order
on arrays, so its counts and sum rates equal :func:`greedy_admit`'s bit for
bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .units import db_to_linear

# Sum rates this close count as a tie in the subset search, broken toward the
# lexicographically smallest index set.
_RATE_TIE_TOL = 1e-12

DEFAULT_ENUMERATION_CAP = 12


def _check_instances(gains: np.ndarray, thresholds: np.ndarray) -> None:
    """Reject invalid admission inputs; the last axis is the admission order."""
    if not np.all(np.isfinite(gains)) or np.any(gains < 0):
        raise ValueError("gains must be finite and non-negative")
    if np.any(np.diff(gains, axis=-1) > 0):
        raise ValueError("gains must be sorted in non-increasing order")
    if not np.all(np.isfinite(thresholds)) or np.any(thresholds <= 0):
        raise ValueError("sinr_thresholds must be finite and positive")


@dataclass(frozen=True)
class AdmissionInstance:
    """One admission problem: decreasing SNR-scale gains plus linear targets."""

    gains: np.ndarray
    sinr_thresholds: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gains, dtype=float))
        t = np.atleast_1d(np.asarray(self.sinr_thresholds, dtype=float))
        if g.ndim != 1 or g.size == 0:
            raise ValueError("gains must be a non-empty 1-D sequence")
        if t.shape != g.shape:
            raise ValueError("sinr_thresholds must match gains in length")
        _check_instances(g, t)
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


def allocate_sequential(gains, thresholds) -> tuple[list[float], bool]:
    """Threshold-tight allocation along the given order.

    Returns the shares of the users that fit and whether everyone did. Each
    user costs a constant number of scalar operations: the interference term
    reuses the running total instead of re-summing.
    """
    total = 0.0
    coeffs: list[float] = []
    for g, t in zip(gains, thresholds):
        if not g > 0.0:
            return coeffs, False
        need = t * total + t / g
        if need > 1.0 - total:
            return coeffs, False
        coeffs.append(need)
        total = total + need
    return coeffs, True


def _achieved(gains, coeffs) -> tuple[list[float], float]:
    """Per-user SINRs and sum rate for an allocation along ``gains``."""
    sinrs: list[float] = []
    rate = 0.0
    total = 0.0
    for g, w in zip(gains, coeffs):
        sinr = w * g / (1.0 + g * total)
        sinrs.append(sinr)
        rate += math.log2(1.0 + sinr)
        total = total + w
    return sinrs, rate


def greedy_admit(instance: AdmissionInstance) -> AdmissionResult:
    """Admit users sequentially in decreasing-gain order until power runs out."""
    g = [float(x) for x in instance.gains]
    t = [float(x) for x in instance.sinr_thresholds]
    coeffs, _ = allocate_sequential(g, t)
    count = len(coeffs)
    n = len(g)
    power = np.zeros(n)
    power[:count] = coeffs
    sinrs_list, rate = _achieved(g[:count], coeffs)
    sinrs = np.zeros(n)
    sinrs[:count] = sinrs_list
    return AdmissionResult(
        admitted_count=count,
        power_coefficients=power,
        residual_power=1.0 - math.fsum(coeffs),
        sum_rate_bps_hz=rate,
        achieved_sinrs=sinrs,
    )


def _sequential_admit_batch(gains, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Sequential admission of a whole batch of instances: counts and sum rates.

    ``gains`` and the linear ``thresholds`` broadcast to one shape whose last
    axis is the admission order; the leading axes are the batch (e.g. trials
    x powers x targets). Inputs are validated once for the batch, as
    :class:`AdmissionInstance` validates one instance. The recurrence walks
    the users once, doing :func:`greedy_admit`'s operations in its order on
    the whole batch, and the rate terms go through ``math.log2`` as there
    (numpy's log2 can differ from it in the last bit), so the results equal
    :func:`greedy_admit`'s bit for bit. Zero-gain users end admission, so
    padding an instance with trailing zero gains leaves its result unchanged.
    """
    g, t = np.broadcast_arrays(np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float))
    if g.ndim == 0 or g.shape[-1] == 0:
        raise ValueError("gains must be non-empty along the last axis")
    _check_instances(g, t)
    total = np.zeros(g.shape[:-1])
    rate = np.zeros(g.shape[:-1])
    count = np.zeros(g.shape[:-1], dtype=int)
    admitted = np.ones(g.shape[:-1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(g.shape[-1]):
            gk, tk = g[..., k], t[..., k]
            need = tk * total + tk / gk
            admitted &= (gk > 0.0) & ~(need > 1.0 - total)
            sinr = need[admitted] * gk[admitted] / (1.0 + gk[admitted] * total[admitted])
            term = np.zeros(rate.shape)
            term[admitted] = np.fromiter(map(math.log2, (1.0 + sinr).tolist()), dtype=float, count=sinr.size)
            rate = rate + term
            total = np.where(admitted, total + need, total)
            count += admitted
    return count, rate


def cumulative_power_closed_form(instance: AdmissionInstance, count: int) -> float:
    """Total power the first ``count`` users take, in closed form.

    Equivalent to running the sequential allocation and summing, but built
    from an independent expression: each user's target over its gain, grown by
    the compound ``(target + 1)`` factors of everyone admitted after it.
    """
    if int(count) != count or not 0 <= count <= len(instance):
        raise ValueError("count must be an integer within the requesting list")
    g = instance.gains
    t = instance.sinr_thresholds
    total = 0.0
    for k in range(count):
        if not g[k] > 0:
            raise ValueError("all counted users need a positive gain")
        term = t[k] / g[k]
        for i in range(k + 1, count):
            term *= t[i] + 1.0
        total += term
    return float(total)


def exhaustive_admit(
    instance: AdmissionInstance, cap: int = DEFAULT_ENUMERATION_CAP
) -> AdmissionResult:
    """Best admission subset by enumeration: most users, then highest rate.

    Every subset is allocated with the same sequential rule (in decreasing
    gain order within the subset); a subset is feasible only if all its
    members fit. Rate ties within ``1e-12`` resolve to the lexicographically
    smallest index set. Instances above ``cap`` users are refused since the
    search is exponential.
    """
    n = len(instance)
    if n > cap:
        raise ValueError(f"instance has {n} users, above the enumeration cap {cap}")
    g = [float(x) for x in instance.gains]
    t = [float(x) for x in instance.sinr_thresholds]

    best: tuple[tuple[int, ...], list[float], float] | None = None
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            coeffs, fits = allocate_sequential([g[i] for i in combo], [t[i] for i in combo])
            if not fits:
                continue
            _, rate = _achieved([g[i] for i in combo], coeffs)
            if best is None or rate > best[2] + _RATE_TIE_TOL:
                best = (combo, coeffs, rate)
        if best is not None:
            break
    assert best is not None  # size 0 is always feasible
    combo, coeffs, rate = best
    power = np.zeros(n)
    sinrs = np.zeros(n)
    sinrs_list, _ = _achieved([g[i] for i in combo], coeffs)
    for i, w, s in zip(combo, coeffs, sinrs_list):
        power[i] = w
        sinrs[i] = s
    return AdmissionResult(
        admitted_count=len(combo),
        power_coefficients=power,
        residual_power=1.0 - math.fsum(coeffs),
        sum_rate_bps_hz=rate,
        achieved_sinrs=sinrs,
    )


def greedy_optimality_condition(instance: AdmissionInstance, admitted_count: int) -> bool:
    """Textbook condition attached to the sequential scheme's count optimality.

    True when (a) the per-user cost ratio target/gain is non-decreasing across
    the admitted prefix and (b) no admitted user's target exceeds any rejected
    user's target. Despite its intent this condition does NOT guarantee that
    the sequential count matches the enumeration optimum: it never constrains
    the rejected users' gains, so a high-target user can block the scan while
    a cheaper user further down the list would still have fit (see the test
    suite for a four-user counterexample). :func:`aligned_thresholds` is the
    strengthened variant this package actually relies on.
    """
    if int(admitted_count) != admitted_count or not 0 <= admitted_count <= len(instance):
        raise ValueError("admitted_count must be an integer within the requesting list")
    l = int(admitted_count)
    g = instance.gains
    t = instance.sinr_thresholds
    if np.any(g[:l] <= 0):
        return False
    ratios = t[:l] / g[:l]
    if np.any(np.diff(ratios) < 0):
        return False
    if l < len(instance) and l > 0 and t[:l].max() > t[l:].min():
        return False
    return True


def aligned_thresholds(instance: AdmissionInstance) -> bool:
    """True when SINR targets never decrease along the admission order.

    Under this alignment (better channel never demands a higher target) the
    sequential scheme provably admits the maximum feasible number of users:
    any competing subset of a given size costs at least as much power,
    position by position. Equal targets are the simplest aligned case.
    """
    t = instance.sinr_thresholds
    return bool(np.all(t[:-1] <= t[1:]))
