"""Random downlink cluster channels and interference-free receive combiners.

One cluster is served by a single column of an identity precoder; users in the
cluster cancel the other columns with a combiner chosen in the orthogonal
complement of the interfering columns, then maximize the remaining signal
power. Effective scalar gains come out sorted in decreasing order, which is
the decoding order assumed everywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .units import db_to_linear

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
        if int(self.tx_antennas) != self.tx_antennas or self.tx_antennas < 1:
            raise ValueError("tx_antennas must be a positive integer")
        if int(self.rx_antennas) != self.rx_antennas or self.rx_antennas < 1:
            raise ValueError("rx_antennas must be a positive integer")
        if self.rx_antennas < self.tx_antennas:
            raise ValueError("rx_antennas must be >= tx_antennas so every user can cancel the other beams")
        if int(self.users_per_cluster) != self.users_per_cluster or self.users_per_cluster < 2:
            raise ValueError("users_per_cluster must be an integer >= 2")
        for key in (
            "bandwidth_hz", "noise_density_dbm_hz", "pathloss_fixed_db", "pathloss_slope", "tx_power_dbm",
            "cell_radius_range_km",
        ):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ValueError(f"{key} must be finite")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be positive")
        lo, hi = self.cell_radius_range_km
        if not (0 < lo < hi):
            raise ValueError("cell_radius_range_km must satisfy 0 < min < max")
        if int(self.rng_seed) != self.rng_seed or self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        object.__setattr__(self, "cell_radius_range_km", (float(lo), float(hi)))

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


def compute_detection_vector(channel: np.ndarray, own_column_index: int) -> np.ndarray:
    """Unit-norm combiner orthogonal to every precoder column except one.

    The combiner lives in the orthogonal complement of the interfering
    columns and, inside that subspace, points along the projection of the own
    column, which maximizes the effective gain. Raises
    :class:`DegenerateChannelError` when the complement is empty or the own
    column has no component in it.
    """
    h = np.asarray(channel, dtype=complex)
    if h.ndim != 2:
        raise ValueError("channel must be a 2-D matrix")
    n_rx, n_tx = h.shape
    if not 0 <= own_column_index < n_tx:
        raise ValueError("own_column_index out of range")
    if n_rx < n_tx:
        raise ValueError("need rx antennas >= tx antennas to cancel all interfering columns")
    own = h[:, own_column_index]
    others = np.delete(h, own_column_index, axis=1)
    if others.shape[1] == 0:
        basis = np.eye(n_rx, dtype=complex)
    else:
        u, s, _ = np.linalg.svd(others)
        rank = int(np.count_nonzero(s > s[0] * _RANK_RTOL)) if s.size and s[0] > 0 else 0
        basis = u[:, rank:]
    if basis.shape[1] == 0:
        raise DegenerateChannelError("interfering columns span the entire receive space")
    w = basis.conj().T @ own
    norm = float(np.linalg.norm(w))
    if not (norm > 0 and math.isfinite(norm)):
        raise DegenerateChannelError("own column lies in the span of the interfering columns")
    return basis @ (w / norm)


def draw_cluster(config: SystemConfig, cluster_index: int = 0, trial_seed: int = 0) -> ClusterRealization:
    """Draw one cluster of users and build their combiners.

    Fading entries are i.i.d. circularly-symmetric complex Gaussian with unit
    variance; user distances are uniform over ``cell_radius_range_km`` and the
    resulting path loss scales each channel matrix. The stream is keyed by
    ``(rng_seed, cluster_index, trial_seed)`` so a given triple always
    reproduces the same realization, independent of call order.
    """
    if not 0 <= cluster_index < config.tx_antennas:
        raise ValueError("cluster_index must select one precoder column")
    if int(trial_seed) != trial_seed or trial_seed < 0:
        raise ValueError("trial_seed must be a non-negative integer")
    rng = np.random.default_rng(
        np.random.SeedSequence([config.rng_seed, int(cluster_index), int(trial_seed)])
    )
    n_users = config.users_per_cluster
    n_rx, n_tx = config.rx_antennas, config.tx_antennas

    lo, hi = config.cell_radius_range_km
    distances = rng.uniform(lo, hi, size=n_users)
    fading = (
        rng.standard_normal((n_users, n_rx, n_tx)) + 1j * rng.standard_normal((n_users, n_rx, n_tx))
    ) / math.sqrt(2.0)
    pathloss_db = config.pathloss_fixed_db + config.pathloss_slope * np.log10(distances)
    amplitude = 10.0 ** (-pathloss_db / 20.0)
    channels = amplitude[:, None, None] * fading

    detection = np.stack(
        [compute_detection_vector(channels[l], cluster_index) for l in range(n_users)]
    )
    gains = np.abs(np.einsum("ln,ln->l", detection.conj(), channels[:, :, cluster_index])) ** 2

    order = np.array(sorted(range(n_users), key=lambda i: (-gains[i], i)))
    arrays = dict(
        channels=channels[order],
        precoder=np.eye(n_tx, dtype=complex),
        detection_vectors=detection[order],
        effective_gains=gains[order],
        distances_km=distances[order],
        sort_order=order,
    )
    for a in arrays.values():
        a.setflags(write=False)
    return ClusterRealization(rho=config.rho, **arrays)
