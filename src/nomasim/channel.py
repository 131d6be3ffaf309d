"""Random downlink cluster channels and interference-free receive combiners.

One cluster is served by a single column of an identity precoder; users in the
cluster cancel the other columns with a combiner chosen in the orthogonal
complement of the interfering columns, then maximize the remaining signal
power. Effective scalar gains come out sorted in decreasing order, which is
the decoding order assumed everywhere else in the package.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .units import db_to_linear, is_whole, require_finite, store_python_numbers

# Singular values below this fraction of the largest one count as zero when
# ranking the interference span.
_RANK_RTOL = 1e-10


class DegenerateChannelError(ValueError):
    """Raised when no unit-norm combiner can cancel the interfering columns."""


@dataclass(frozen=True)
class SystemConfig:
    """Cell-level parameters for drawing channels.

    Powers are dBm, the noise density is dBm/Hz, distances are km. The path
    loss in dB at distance d km is ``pathloss_fixed_db + pathloss_slope *
    log10(d)`` and is folded into the channel matrices as an amplitude factor.
    """

    tx_antennas: int = 3
    rx_antennas: int = 3
    users_per_cluster: int = 2
    bandwidth_hz: float = 10e6
    noise_density_dbm_hz: float = -174.0
    pathloss_fixed_db: float = 114.0
    pathloss_slope: float = 38.0
    tx_power_dbm: float = 35.0
    cell_radius_range_km: tuple[float, float] = (0.25, 2.5)
    rng_seed: int = 190

    def __post_init__(self):
        require_finite(self)
        if not is_whole(self.tx_antennas, 1):
            raise ValueError("tx_antennas must be a positive integer")
        if not is_whole(self.rx_antennas, 1):
            raise ValueError("rx_antennas must be a positive integer")
        if self.rx_antennas < self.tx_antennas:
            raise ValueError("rx_antennas must be >= tx_antennas so every user can cancel the other beams")
        if not is_whole(self.users_per_cluster, 2):
            raise ValueError("users_per_cluster must be an integer >= 2")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be positive")
        lo, hi = self.cell_radius_range_km
        if not (0 < lo < hi):
            raise ValueError("cell_radius_range_km must satisfy 0 < min < max")
        if not is_whole(self.rng_seed, 0):
            raise ValueError("rng_seed must be a non-negative integer")
        store_python_numbers(self)

    @property
    def noise_power_dbm(self) -> float:
        """Thermal noise power over the full band, in dBm."""
        return self.noise_density_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)

    @property
    def rho(self) -> float:
        """Transmit power to noise power ratio (linear), before path loss."""
        return self.rho_at(self.tx_power_dbm)

    def rho_at(self, tx_power_dbm: float) -> float:
        """Same as :attr:`rho` for an alternative transmit power."""
        return db_to_linear(tx_power_dbm - self.noise_power_dbm)

    def with_(self, **changes) -> "SystemConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class ClusterRealization:
    """One drawn cluster, already sorted by decreasing effective gain.

    ``channels[l]`` is the (rx_antennas, tx_antennas) matrix of user l,
    ``detection_vectors[l]`` its unit-norm combiner, and ``effective_gains[l]``
    the scalar ``|v^H H p|**2`` (path loss included, noise not). ``rho`` is the
    transmit-to-noise power ratio of the config the draw came from, so
    ``rho * effective_gains`` are the SNR-scale gains the rate and admission
    code expects. ``sort_order[l]`` is the draw-order index of sorted user l.

    A batched draw stacks trials on a leading axis of every per-user array
    (``channels[t, l]``, ``effective_gains[t, l]``, ...); ``precoder`` and
    ``rho`` are shared by all trials.
    """

    channels: np.ndarray
    precoder: np.ndarray
    detection_vectors: np.ndarray
    effective_gains: np.ndarray
    rho: float
    distances_km: np.ndarray
    sort_order: np.ndarray

    @property
    def snr_gains(self) -> np.ndarray:
        return self.rho * self.effective_gains


def _combiners(channels: np.ndarray, own_column_index: int) -> np.ndarray:
    """Combiners of a stack of (n_rx, n_tx) channels, one stacked SVD for all.

    Each matrix is handled on its own by the SVD and matmul kernels, so a
    combiner does not depend on what else is in the stack.
    """
    n_rx, n_tx = channels.shape[-2:]
    own = channels[..., own_column_index]
    if n_tx == 1:
        u = np.broadcast_to(np.eye(n_rx, dtype=complex), channels.shape[:-2] + (n_rx, n_rx))
        rank = np.zeros(channels.shape[:-2], dtype=int)
    else:
        others = [j for j in range(n_tx) if j != own_column_index]
        u, s = np.linalg.svd(channels[..., others])[:2]
        top = s[..., :1]
        rank = np.where(top[..., 0] > 0, np.count_nonzero(s > top * _RANK_RTOL, axis=-1), 0)
    if np.any(rank >= n_rx):
        raise DegenerateChannelError("interfering columns span the entire receive space")
    # Columns of u from the rank on span the orthogonal complement of the
    # interfering columns. u^H own is taken as the conjugate of own^H u, which
    # needs no conjugated copy of u.
    in_complement = np.arange(n_rx) >= rank[..., None]
    w = np.where(in_complement, (own.conj()[..., None, :] @ u)[..., 0, :].conj(), 0.0)
    norm = np.sqrt(np.sum(w.real**2 + w.imag**2, axis=-1))
    if not ((norm > 0) & np.isfinite(norm)).all():
        raise DegenerateChannelError("own column lies in the span of the interfering columns")
    return (u @ (w / norm[..., None])[..., None])[..., 0]


def draw_cluster(
    config: SystemConfig, cluster_index: int = 0, trial_seed: int | Sequence[int] = 0
) -> ClusterRealization:
    """Draw one cluster of users and build their combiners.

    Fading entries are i.i.d. circularly-symmetric complex Gaussian with unit
    variance; user distances are uniform over ``cell_radius_range_km`` and the
    resulting path loss scales each channel matrix. The stream is keyed by
    ``(rng_seed, cluster_index, trial_seed)`` so a given triple always
    reproduces the same realization, independent of call order.

    ``trial_seed`` may also be a 1-D sequence of trial seeds. Each trial still
    draws from its own stream, and the result stacks the trials on a leading
    axis; trial ``i`` of it equals ``draw_cluster(config, cluster_index,
    trial_seed[i])`` bit for bit.
    """
    if not 0 <= cluster_index < config.tx_antennas:
        raise ValueError("cluster_index must select one precoder column")
    ndim = np.ndim(trial_seed)
    trials = list(trial_seed) if ndim == 1 else [trial_seed]
    if ndim > 1 or not trials:
        raise ValueError("trial_seed must be an integer or a non-empty 1-D sequence of them")
    for t in trials:
        if not is_whole(t, 0):
            raise ValueError("trial_seed must be a non-negative integer")
    n_users = config.users_per_cluster
    n_rx, n_tx = config.rx_antennas, config.tx_antennas

    lo, hi = config.cell_radius_range_km
    distances = np.empty((len(trials), n_users))
    channels = np.empty((len(trials), n_users, n_rx, n_tx), dtype=complex)
    for i, t in enumerate(trials):
        rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, int(cluster_index), int(t)]))
        distances[i] = rng.uniform(lo, hi, size=n_users)
        channels[i].real = rng.standard_normal((n_users, n_rx, n_tx))
        channels[i].imag = rng.standard_normal((n_users, n_rx, n_tx))
    channels /= math.sqrt(2.0)  # unit-variance fading
    pathloss_db = config.pathloss_fixed_db + config.pathloss_slope * np.log10(distances)
    channels *= (10.0 ** (-pathloss_db / 20.0))[..., None, None]

    detection = _combiners(channels, cluster_index)
    own = channels[..., cluster_index]
    z = (detection.conj()[..., None, :] @ own[..., :, None])[..., 0, 0]
    gains = z.real**2 + z.imag**2

    order = np.argsort(-gains, axis=-1, kind="stable")  # ties keep draw order
    pick = (np.arange(len(trials))[:, None], order)
    arrays = dict(
        channels=channels[pick],
        detection_vectors=detection[pick],
        effective_gains=gains[pick],
        distances_km=distances[pick],
        sort_order=order,
    )
    if ndim == 0:
        arrays = {k: a[0] for k, a in arrays.items()}
    arrays["precoder"] = np.eye(n_tx, dtype=complex)
    for a in arrays.values():
        a.setflags(write=False)
    return ClusterRealization(rho=config.rho, **arrays)
