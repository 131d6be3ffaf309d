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

from .units import db_to_linear, is_whole, require_finite, require_linear, store_python_numbers

# Singular values below this fraction of the largest one count as zero when
# ranking the interference span.
_RANK_RTOL = 1e-10

# numpy's SeedSequence pool size and hash constants, and PCG64's multiplier. NEP 19
# keeps both seedings stable across numpy versions.
_SEED_POOL, _MASK32, _MASK128 = 4, (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


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
        require_linear(
            "tx_power_dbm over the noise power of noise_density_dbm_hz and bandwidth_hz",
            self.tx_power_dbm - self.noise_power_dbm,
        )
        lo, hi = self.cell_radius_range_km
        if not (0 < lo < hi):
            raise ValueError("cell_radius_range_km must satisfy 0 < min < max")
        self._require_over_pathloss("tx_power_dbm", self.tx_power_dbm)
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

    def _require_over_pathloss(self, name: str, powers_dbm) -> None:
        """Raise ``ValueError`` naming ``name`` and the path-loss keys unless the
        path gain, and each power over the noise and the path loss, stay within
        float64 range on linear scale across the cell. Path loss is affine in
        ``log10 d``, so the two ends of ``cell_radius_range_km`` bound it."""
        with np.errstate(over="ignore"):
            loss = self.pathloss_fixed_db + self.pathloss_slope * np.log10(self.cell_radius_range_km)
        keys = "pathloss_fixed_db, pathloss_slope and cell_radius_range_km"
        require_linear(f"the path gain of {keys}", -loss)
        over = np.subtract.outer(powers_dbm, self.noise_power_dbm + loss)
        require_linear(f"{name} over the noise power and the path loss of {keys}", over)

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
    others = [j for j in range(n_tx) if j != own_column_index]
    u, s = np.linalg.svd(channels[..., others])[:2]  # with no other column, u is the identity
    rank = np.count_nonzero(s > np.max(s, axis=-1, initial=0.0)[..., None] * _RANK_RTOL, axis=-1)
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


def _hash_constants(const: int, mult: int, calls: int) -> np.ndarray:
    """The constants SeedSequence's hash steps through: call k xors entry k, then multiplies by entry k + 1."""
    consts = [const]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``value`` under ``len(consts) - 1`` successive calls."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _pcg64_seeds(words: np.ndarray) -> list:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of at least ``_SEED_POOL``
    uint32 words; each pass of numpy's loops over the pool is one step on all rows."""
    consts = _hash_constants(_INIT_A, _MULT_A, _SEED_POOL * words.shape[1])
    pool = _hashmix(words[:, :_SEED_POOL], consts[: _SEED_POOL + 1])
    k = _SEED_POOL
    for src in range(words.shape[1]):  # the pool's own words mix into the others, then any words beyond it
        dst = [d for d in range(_SEED_POOL) if d != src]
        h = _hashmix(pool[:, src, None] if src < _SEED_POOL else words[:, src, None], consts[k : k + len(dst) + 1])
        k += len(dst)
        mixed = _MIX_L * pool[:, dst] - _MIX_R * h
        pool[:, dst] = mixed ^ mixed >> 16
    state = _hashmix(np.tile(pool, 2), _hash_constants(_INIT_B, _MULT_B, 2 * _SEED_POOL))
    return state.astype("<u4").view("<u8").tolist()


def _trial_streams(keys: Sequence[Sequence[int]]):
    """Yield, for each key of non-negative ints in turn, one shared generator set to the
    state of ``np.random.default_rng(np.random.SeedSequence(list(key)))``; draw from it
    before taking the next. SeedSequence's hash runs once on uint32 arrays (keys of up to
    ``_SEED_POOL`` words hash as their zero-padded form, longer keys are grouped by
    length); each key then costs PCG64's two 128-bit seeding steps."""
    words = [
        list(key) if max(key) <= _MASK32 else [n >> s & _MASK32 for n in key for s in range(0, n.bit_length() or 1, 32)]
        for key in keys
    ]
    seeds = {}
    for n in {max(len(w), _SEED_POOL) for w in words}:
        rows = [i for i, w in enumerate(words) if max(len(w), _SEED_POOL) == n]
        padded = np.array([words[i] + [0] * (n - len(words[i])) for i in rows], dtype=np.uint32)
        seeds.update(zip(rows, _pcg64_seeds(padded)))
    rng = np.random.Generator(np.random.PCG64(0))
    for s_hi, s_lo, i_hi, i_lo in map(seeds.get, range(len(words))):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state = {"state": (((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc & _MASK128, "inc": inc}
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        yield rng


def draw_cluster(
    config: SystemConfig, cluster_index: int = 0, trial_seed: int | Sequence[int] = 0
) -> ClusterRealization:
    """Draw one cluster of users and build their combiners.

    Fading entries are i.i.d. circularly-symmetric complex Gaussian with unit
    variance; user distances are uniform over ``cell_radius_range_km`` and the
    resulting path loss scales each channel matrix. Trial ``t`` draws from the
    stream ``default_rng(SeedSequence([rng_seed, cluster_index, t]))``: the
    distances, then the real and then the imaginary parts of the fading. So a
    given triple always reproduces the same realization, independent of call
    order.

    ``trial_seed`` may also be a 1-D sequence of trial seeds, whose streams are
    seeded together by :func:`_trial_streams`. The result stacks the trials on
    a leading axis; trial ``i`` of it equals ``draw_cluster(config,
    cluster_index, trial_seed[i])`` bit for bit.
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
    normals = np.empty((len(trials), 2, n_users, n_rx, n_tx))  # real parts, then imaginary
    for i, rng in enumerate(_trial_streams([(config.rng_seed, int(cluster_index), int(t)) for t in trials])):
        distances[i] = rng.uniform(lo, hi, size=n_users)
        rng.standard_normal(out=normals[i])
    channels = np.empty((len(trials), n_users, n_rx, n_tx), dtype=complex)
    channels.real, channels.imag = normals[:, 0], normals[:, 1]
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
