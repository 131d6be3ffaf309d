"""Random downlink cluster channels and interference-free receive combiners.

One cluster is served by a single column of an identity precoder; users in the
cluster cancel the other columns with their own column projected off the
interfering ones, which maximizes the remaining signal power (see
:func:`_combiners`). Effective scalar gains come out sorted in decreasing
order, the decoding order assumed across the package.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cache, reduce

import numpy as np

from .units import db_to_linear, is_whole, require_finite, require_linear, store_python_numbers

# A column projected off the basis that keeps no more than this fraction of its
# norm is rounding of a column inside the span of the basis.
_DEGENERATE_RTOL = 1e-12

# Room above a power's mean SNR-scale gain for the zero-forcing fade, a Gamma(k, 1) factor with k = rx - tx + 1:
# it exceeds 1e6 (60 dB) with probability e**-1e6 * sum_{j < k} 1e6**j / j!, below 1e-400000 at 3x3.
_FADE_DB = 60.0

# numpy's SeedSequence pool size and hash constants. NEP 19 keeps SeedSequence and
# PCG64 seeding stable across numpy versions.
_SEED_POOL, _MASK32 = 4, (1 << 32) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_OTHERS = tuple(np.array([d for d in range(_SEED_POOL) if d != s]) for s in range(_SEED_POOL))  # of word s


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
        self._require_power("tx_power_dbm", self.tx_power_dbm)
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

    def _require_power(self, name: str, powers_dbm) -> None:
        """Raise ``ValueError`` naming ``name`` and the keys at fault unless each
        power over the noise power, the path gain, and each power over the noise
        and the path loss, and ``_FADE_DB`` above it, stay within float64
        range on linear scale across the cell. Path loss is affine in ``log10
        d``, so the two ends of ``cell_radius_range_km`` bound it."""
        over_noise = np.subtract(powers_dbm, self.noise_power_dbm)
        require_linear(f"{name} over the noise power of noise_density_dbm_hz and bandwidth_hz", over_noise)
        with np.errstate(over="ignore"):
            loss = self.pathloss_fixed_db + self.pathloss_slope * np.log10(self.cell_radius_range_km)
        keys = "pathloss_fixed_db, pathloss_slope and cell_radius_range_km"
        require_linear(f"the path gain of {keys}", -loss)
        over = np.add.outer(np.subtract.outer(powers_dbm, self.noise_power_dbm + loss), (0.0, _FADE_DB))
        require_linear(f"{name} over the noise power and the path loss of {keys}, and {_FADE_DB:g} dB above it,", over)

    def with_(self, **changes) -> "SystemConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class ClusterRealization:
    """One drawn cluster, already sorted by decreasing effective gain.

    ``channels[l]`` is the (rx_antennas, tx_antennas) matrix of user l,
    ``detection_vectors[l]`` its unit-norm combiner, and ``effective_gains[l]``
    the scalar ``|v^H H p|**2`` with ``p`` the cluster's column of the identity
    precoder, so ``H p`` is the user's own column of ``H`` (path loss included,
    noise not). ``sort_order[l]`` is the draw-order index of sorted user l. A
    draw is power-free: the SNR-scale gains the rate and admission code expects
    at ``dbm`` are ``config.rho_at(dbm) * effective_gains``.

    A batched draw stacks trials on a leading axis of every array
    (``channels[t, l]``, ``effective_gains[t, l]``, ...).
    """

    channels: np.ndarray
    detection_vectors: np.ndarray
    effective_gains: np.ndarray
    distances_km: np.ndarray
    sort_order: np.ndarray


def _combiners(channels: np.ndarray, own_column_index: int) -> np.ndarray:
    """Combiners of a stack of (n_rx, n_tx) channels, by Gram-Schmidt on the whole stack.

    Each matrix is scaled by the power of two that brings its largest entry into
    [0.5, 1); that is exact, and keeps every sum of squares clear of underflow.
    The interfering columns, then the own column h, are each projected off the
    orthonormal basis q built so far, twice, and normalized. An interfering
    column that keeps at most _DEGENERATE_RTOL of its norm lies in the span of
    the others and adds nothing to q. The own column's v = p / ||p||, with
    p = h - q q^H h, nulls every interferer and maximizes |v^H h|. Raises
    DegenerateChannelError if ||p|| <= _DEGENERATE_RTOL * ||h||. Every sum adds
    one matrix's entries in index order, so no combiner depends on the rest of
    the stack.
    """
    exponent = np.frexp(np.abs(channels).max(axis=(-2, -1)))[1]
    scale = np.ldexp(1.0, -np.maximum(exponent, -1022))  # 2**1022 at most, so it stays finite
    columns = np.moveaxis(channels, (-1, -2), (0, 1)).copy() * scale  # (n_tx, n_rx, *stack), entries leading
    lengths = np.sqrt(reduce(np.add, (columns.real**2 + columns.imag**2).swapaxes(0, 1)))
    basis = []
    for c in [c for c in range(channels.shape[-1]) if c != own_column_index] + [own_column_index]:  # own last
        p = columns[c]
        for _ in range(2):  # projecting twice leaves rounding along q at eps ||p||, not eps ||h||
            for q, q_conj in basis:
                p = p - q * reduce(np.add, q_conj * p)
        norm = np.sqrt(reduce(np.add, p.real**2 + p.imag**2))
        kept = norm > _DEGENERATE_RTOL * lengths[c]  # false for NaN too
        q = p / np.where(kept, norm, np.inf)
        basis.append((q, q.conj()))
    if not kept.all():
        raise DegenerateChannelError("own column lies in the span of the interfering columns")
    return np.moveaxis(q, 0, -1)


@cache
def _hash_constants(const: int, mult: int, calls: int) -> np.ndarray:
    """The constants SeedSequence's hash steps through: call k xors entry k, then multiplies by entry k + 1."""
    consts = [const]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    consts.setflags(write=False)
    return consts


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``value`` under ``len(consts) - 1`` successive calls."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _pcg64_seeds(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(row[:n]).generate_state(4, np.uint64)`` of each row of uint32 ``words``, zero past its
    length ``n >= _SEED_POOL`` in ``lengths``; each pass of numpy's loops over the pool is one step on all rows."""
    consts = _hash_constants(_INIT_A, _MULT_A, _SEED_POOL * words.shape[1])
    pool = _hashmix(words[:, :_SEED_POOL], consts[: _SEED_POOL + 1])
    k = _SEED_POOL
    for src in range(lengths.max()):  # the pool's own words mix into the others, then any words beyond it
        own = src < _SEED_POOL
        dst = _POOL_OTHERS[src] if own else slice(None)
        h = _hashmix(pool[:, src, None] if own else words[:, src, None], consts[k : k + _SEED_POOL - own + 1])
        k += _SEED_POOL - own
        mixed = _MIX_L * pool[:, dst] - _MIX_R * h
        mixed ^= mixed >> 16
        pool[:, dst] = mixed if own else np.where(src < lengths[:, None], mixed, pool)
    state = _hashmix(np.tile(pool, 2), _hash_constants(_INIT_B, _MULT_B, 2 * _SEED_POOL))
    return state.astype("<u4").view("<u8").astype(np.uint64)


@cache
def _seeded_type() -> type:
    """The ``ISeedSequence`` of one key's row of :func:`_pcg64_seeds`, defined on first use so that importing
    nomasim leaves numpy.random unloaded. Unlike a registered class, a subclass enters the ABC cache."""

    class _Seeded(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds the 4 uint64 words PCG64 seeds from, not {n_words} of {np.dtype(dtype)}")
            return self.words

    return _Seeded


def _words(n: int) -> list[int]:
    """SeedSequence's split of a non-negative int into uint32 words: least significant first, at least one."""
    return [n >> s & _MASK32 for s in range(0, n.bit_length() or 1, 32)]


def _trial_streams(head: tuple, trials, tail: tuple = ()):
    """Iterate over ``np.random.default_rng(np.random.SeedSequence([*head, t, *tail]))`` for each ``t`` of
    ``trials`` (an int array or a list of whole numbers), each a generator of its own; every entry is non-negative.
    ``head`` and ``tail`` are split into uint32 words once, the trials on one array (uint64, or Python ints from a
    list) with each key's tail after its own words; all keys hash together, and PCG64 seeds itself from its hash."""
    lead, trail = sum(map(_words, head), []), sum(map(_words, tail), [])
    trials = trials.astype(np.uint64) if isinstance(trials, np.ndarray) else np.array([*map(int, trials)], dtype=object)
    width = len(_words(int(trials.max())))
    words = np.zeros((len(trials), max(len(lead) + width + len(trail), _SEED_POOL)), dtype=np.uint32)
    words[:, : len(lead)] = lead
    for j in range(width):  # a short trial's high words stay zero, or its tail overwrites them
        words[:, len(lead) + j] = trials >> 32 * j & _MASK32
    count = sum((trials >> 32 * j > 0 for j in range(1, width)), np.ones(len(trials), dtype=int))  # each trial's words
    words[np.arange(len(trials))[:, None], len(lead) + count[:, None] + np.arange(len(trail))] = trail
    seeds = _pcg64_seeds(words, np.maximum(len(lead) + count + len(trail), _SEED_POOL))  # shorter keys hash zero-padded
    seeded = _seeded_type()
    return (np.random.Generator(np.random.PCG64(seeded(row))) for row in seeds)


def draw_cluster(
    config: SystemConfig, cluster_index: int = 0, trial_seed: int | Sequence[int] = 0
) -> ClusterRealization:
    """Draw one cluster of users and build their combiners.

    Fading entries are i.i.d. circularly-symmetric complex Gaussian with unit
    variance; user distances are uniform over ``cell_radius_range_km`` and the
    resulting path loss scales each channel matrix. Each user's effective gain
    is seen through its own column ``cluster_index`` of the channel, the one the
    identity precoder's column sends through; the transmit power is not read.
    Trial ``t`` draws from the stream
    ``default_rng(SeedSequence([rng_seed, cluster_index, t]))``: the distances,
    then the real and then the imaginary parts of the fading. So a given triple
    always reproduces the same realization, independent of call order.

    ``trial_seed`` may also be a 1-D sequence of trial seeds, seeded as one
    batch. The result stacks the trials on a leading axis; trial ``i`` of it
    equals ``draw_cluster(config, cluster_index, trial_seed[i])`` bit for bit.
    """
    if not (is_whole(cluster_index, 0) and cluster_index < config.tx_antennas):
        raise ValueError("cluster_index must select one precoder column")
    cluster_index = int(cluster_index)
    ndim = np.ndim(trial_seed)
    int_array = ndim == 1 and isinstance(trial_seed, np.ndarray) and trial_seed.dtype.kind in "iu"
    trials = trial_seed if int_array else list(trial_seed) if ndim == 1 else [trial_seed]
    if ndim > 1 or not len(trials):
        raise ValueError("trial_seed must be an integer or a non-empty 1-D sequence of them")
    if (trial_seed < 0).any() if int_array else not all(is_whole(t, 0) for t in trials):
        raise ValueError("trial_seed must be a non-negative integer")
    n_users = config.users_per_cluster
    n_rx, n_tx = config.rx_antennas, config.tx_antennas

    lo, hi = config.cell_radius_range_km
    unit = np.empty((len(trials), n_users))
    normals = np.empty((len(trials), 2, n_users, n_rx, n_tx))  # real parts, then imaginary
    for u, normal, rng in zip(unit, normals, _trial_streams((config.rng_seed, cluster_index), trials)):
        rng.random(out=u)
        rng.standard_normal(out=normal)
    distances = lo + (hi - lo) * unit  # numpy's uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit
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
    for a in arrays.values():
        a.setflags(write=False)
    return ClusterRealization(**arrays)
