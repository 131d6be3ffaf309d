"""Channel draws, detection vectors, and the cell configuration."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nomasim import (
    ClusterRealization,
    DegenerateChannelError,
    SystemConfig,
    draw_cluster,
)
from nomasim.channel import _combiners, _seeded_type, _trial_streams
from nomasim.experiments import _THRESHOLD_STREAM


def combiner(h, own_column_index):
    """The combiner kernel of :func:`draw_cluster` on a batch of one channel."""
    return _combiners(h[None], own_column_index)[0][0]


def svd_combiner(channels, own_column_index):
    """Reference combiners of a stack with independent interfering columns: the own
    column projected on the left singular vectors past the interference span."""
    others = np.delete(channels, own_column_index, axis=-1)
    u = np.linalg.svd(others)[0][..., others.shape[-1] :] if others.shape[-1] else np.eye(channels.shape[-2])
    w = (u @ (u.conj().swapaxes(-1, -2) @ channels[..., own_column_index, None]))[..., 0]
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


def leakage(v, interferers):
    """``|v^H a_j|`` over the largest interfering column norm of each matrix."""
    products = np.abs(v.conj()[..., None, :] @ interferers)[..., 0, :]
    return products / np.linalg.norm(interferers, axis=-2).max(axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def cfg():
    return SystemConfig()


class TestSystemConfig:
    def test_defaults_match_reference_cell(self, cfg):
        assert cfg.tx_antennas == 3 and cfg.rx_antennas == 3
        assert cfg.bandwidth_hz == 10e6
        assert cfg.noise_density_dbm_hz == -174.0
        assert cfg.pathloss_fixed_db == 114.0 and cfg.pathloss_slope == 38.0

    def test_noise_power_and_rho(self, cfg):
        assert cfg.noise_power_dbm == pytest.approx(-104.0)
        assert cfg.rho == pytest.approx(10 ** ((35.0 + 104.0) / 10.0), rel=1e-12)
        assert cfg.rho_at(30.0) == pytest.approx(10 ** 13.4, rel=1e-12)

    def test_with_replaces_only_named_fields(self, cfg):
        other = cfg.with_(tx_power_dbm=40.0)
        assert other.tx_power_dbm == 40.0
        assert other.cell_radius_range_km == cfg.cell_radius_range_km

    @pytest.mark.parametrize(
        "changes",
        [
            {"rx_antennas": 2},  # fewer receive than transmit antennas
            {"users_per_cluster": 1},
            {"bandwidth_hz": 0.0},
            {"cell_radius_range_km": (1.0, 0.5)},
            {"cell_radius_range_km": (0.0, 0.5)},
            {"rng_seed": -1},
            {"rng_seed": 1.5},
            {"bandwidth_hz": math.inf},
            {"noise_density_dbm_hz": math.nan},
            {"pathloss_fixed_db": -math.inf},
            {"pathloss_slope": math.nan},
            {"tx_power_dbm": math.inf},
            {"cell_radius_range_km": (0.1, math.inf)},
            {"tx_antennas": math.nan},
            {"users_per_cluster": math.inf},
            {"rng_seed": math.inf},
            {"tx_antennas": 0},
            {"rx_antennas": 3.5},
            {"tx_antennas": True, "rx_antennas": True},
            {"rng_seed": np.True_},
            {"rng_seed": False},
        ],
    )
    def test_invalid_configs_rejected(self, changes):
        with pytest.raises((ValueError, TypeError), match="|".join(changes)):
            SystemConfig(**changes)


    @pytest.mark.parametrize(
        "changes",
        [
            {"tx_antennas": 2.0, "rx_antennas": 2.0},
            {"rx_antennas": np.int64(4)},
            {"users_per_cluster": 3.0},
            {"rng_seed": 5.0},
        ],
    )
    def test_integer_fields_are_stored_as_int(self, changes):
        cfg = SystemConfig(**changes)
        for key, value in changes.items():
            assert type(getattr(cfg, key)) is int and getattr(cfg, key) == value
        draw = draw_cluster(cfg, 0, 1)  # a float here used to fail inside the draw
        assert draw.effective_gains.shape == (cfg.users_per_cluster,)
        assert draw_cluster(cfg, 0, 1).channels.tobytes() == draw.channels.tobytes()

    def test_numpy_values_are_stored_as_python_numbers(self):
        cfg = SystemConfig(tx_power_dbm=np.float32(40.0), cell_radius_range_km=np.array([0.5, 2.0]))
        assert type(cfg.tx_power_dbm) is float and cfg.tx_power_dbm == 40.0
        assert cfg.cell_radius_range_km == (0.5, 2.0) and type(cfg.cell_radius_range_km[0]) is float


class TestDetectionVector:
    def test_one_dimensional_null_space(self):
        # interference spans e1, own column leans on e2
        h = np.array([[1.0, 0.6], [0.0, 0.8j]])
        v = combiner(h, own_column_index=1)
        assert abs(np.vdot(v, h[:, 0])) < 1e-14
        assert abs(np.abs(np.vdot(v, h[:, 1])) - 0.8) < 1e-12
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_single_column_matched_filter(self):
        h = np.array([[3.0 - 4.0j]])
        v = combiner(h, own_column_index=0)
        assert np.abs(np.vdot(v, h[:, 0])) == pytest.approx(5.0, rel=1e-12)

    def test_orthogonal_own_column_keeps_full_norm(self):
        h = np.zeros((3, 2), dtype=complex)
        h[:, 0] = [1.0, 0.0, 0.0]
        h[:, 1] = [0.0, 2.0j, 1.0]
        v = combiner(h, own_column_index=1)
        assert np.abs(np.vdot(v, h[:, 1])) == pytest.approx(np.linalg.norm(h[:, 1]), rel=1e-12)

    def test_combiner_is_best_direction_in_null_space(self):
        rng = np.random.default_rng(3)
        h = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
        v = combiner(h, own_column_index=1)
        best = np.abs(np.vdot(v, h[:, 1]))
        null = np.delete(h, 1, axis=1)
        for _ in range(500):
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w -= null @ np.linalg.lstsq(null, w, rcond=None)[0]  # project out interference
            w /= np.linalg.norm(w)
            assert np.abs(np.vdot(w, h[:, 1])) <= best + 1e-9

    def test_own_column_inside_interference_span_is_degenerate(self):
        h = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
        with pytest.raises(DegenerateChannelError):
            combiner(h, own_column_index=1)

    def test_wide_channel_rejected(self):
        # with fewer receive antennas than columns the interferers span the
        # whole receive space, so no combiner can null them
        rng = np.random.default_rng(5)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        with pytest.raises(ValueError):
            combiner(h, own_column_index=0)

    def test_gain_invariant_to_interference_column_scaling(self):
        rng = np.random.default_rng(11)
        h = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
        base = np.abs(np.vdot(combiner(h, 0), h[:, 0])) ** 2
        scaled = h.copy()
        scaled[:, 2] *= 2.0 - 3.0j
        again = np.abs(np.vdot(combiner(scaled, 0), scaled[:, 0])) ** 2
        assert again == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("n_rx,n_tx", [(3, 3), (6, 4), (5, 2), (2, 1), (8, 8)])
    def test_matches_svd_reference(self, n_rx, n_tx):
        rng = np.random.default_rng(n_rx * 10 + n_tx)
        h = rng.standard_normal((500, n_rx, n_tx)) + 1j * rng.standard_normal((500, n_rx, n_tx))
        for c in range(n_tx):
            v, norms = _combiners(h, c)
            ref = svd_combiner(h, c)
            np.testing.assert_allclose(v, ref, rtol=0, atol=1e-12)
            own = h[..., c]
            gains = np.abs(np.sum(v.conj() * own, axis=-1)) ** 2
            ref_gains = np.abs(np.sum(ref.conj() * own, axis=-1)) ** 2
            np.testing.assert_allclose(gains, ref_gains, rtol=1e-10)
            np.testing.assert_allclose(norms, ref_gains, rtol=1e-10)  # the gains draw_cluster reports
            if n_tx > 1:  # a single projection pass would leak up to 8e-14 at 8x8; the second keeps it near 5e-16
                assert leakage(v, np.delete(h, c, axis=-1)).max() <= 1e-14

    @pytest.mark.parametrize("case", ["duplicate", "zero", "perturbed duplicate"])
    def test_dependent_interferers_still_nulled(self, case):
        # with dependent interfering columns q holds extra directions, so the
        # combiner need not maximize the gain, but it still nulls them all
        rng = np.random.default_rng(7)
        h = rng.standard_normal((50, 4, 3)) + 1j * rng.standard_normal((50, 4, 3))
        h[..., 2] = 0.0 if case == "zero" else h[..., 1]
        if case == "perturbed duplicate":
            h[..., 2] += 1e-7 * (rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4)))
        v = _combiners(h, 0)[0]
        np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, rtol=0, atol=1e-12)
        assert leakage(v, h[..., 1:]).max() <= 1e-12

    @pytest.mark.parametrize("case", ["duplicate", "zero"])
    def test_dependent_interferers_regain_the_best_combiner(self, case):
        # an interfering column inside the span of the others adds nothing to the
        # basis, so the gain is that of the combiner built without it
        rng = np.random.default_rng(17)
        h = rng.standard_normal((500, 4, 3)) + 1j * rng.standard_normal((500, 4, 3))
        h[..., 2] = 0.0 if case == "zero" else h[..., 1]
        gain = np.abs(np.sum(_combiners(h, 0)[0].conj() * h[..., 0], axis=-1)) ** 2
        best = np.abs(np.sum(_combiners(h[..., :2], 0)[0].conj() * h[..., 0], axis=-1)) ** 2
        np.testing.assert_allclose(gain, best, rtol=1e-12)


class TestDrawCluster:
    def test_shapes_and_basic_invariants(self, cfg):
        r = draw_cluster(cfg, cluster_index=1, trial_seed=4)
        assert isinstance(r, ClusterRealization)
        L, N, M = cfg.users_per_cluster, cfg.rx_antennas, cfg.tx_antennas
        assert r.channels.shape == (L, N, M)
        assert r.detection_vectors.shape == (L, N)
        np.testing.assert_allclose(np.linalg.norm(r.detection_vectors, axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(r.effective_gains) <= 0)
        assert np.all(r.effective_gains >= 0)

    def test_a_draw_holds_only_its_power_free_arrays(self, cfg):
        # the transmit power scales SNR-scale gains, config.rho_at(p) * effective_gains, never the draw
        names = [f.name for f in dataclasses.fields(ClusterRealization)]
        assert names == ["channels", "detection_vectors", "effective_gains", "distances_km", "sort_order"]
        low, high = (draw_cluster(cfg.with_(tx_power_dbm=p), 1, [0, 6, 2]) for p in (-30.0, 46.0))
        for name in names:
            np.testing.assert_array_equal(getattr(low, name), getattr(high, name), err_msg=name)

    def test_other_cluster_columns_are_nulled(self, cfg):
        r = draw_cluster(cfg, cluster_index=2, trial_seed=9)
        prods = np.einsum("ln,lnm->lm", r.detection_vectors.conj(), r.channels)
        off = np.abs(np.delete(prods, 2, axis=1))
        assert off.max() < 1e-10

    def test_gains_match_recomputed_products(self, cfg):
        r = draw_cluster(cfg, cluster_index=0, trial_seed=13)
        recomputed = np.abs(np.einsum("ln,ln->l", r.detection_vectors.conj(), r.channels[:, :, 0])) ** 2
        np.testing.assert_allclose(r.effective_gains, recomputed, rtol=1e-12)
        assert sorted(r.sort_order.tolist()) == list(range(cfg.users_per_cluster))
        # the gains are the squared projected norms; |v^H h|**2 recomputed from the stored arrays must agree
        for tx, rx in [(3, 3), (1, 2), (4, 6), (8, 8)]:
            config = SystemConfig(tx_antennas=tx, rx_antennas=rx, users_per_cluster=3)
            for c in sorted({0, tx - 1}):
                r = draw_cluster(config, c, np.arange(2000))
                products = np.einsum("tln,tln->tl", r.detection_vectors.conj(), r.channels[..., c])
                np.testing.assert_allclose(r.effective_gains, np.abs(products) ** 2, rtol=1e-12)

    def test_gains_follow_path_loss_down_to_subnormal_range(self):
        # at 3100 dB the interfering columns' Gram entries go subnormal, so a
        # normal-equation solve fails here where the QR factor does not
        near, far = (
            draw_cluster(SystemConfig(pathloss_fixed_db=db, cell_radius_range_km=(0.9, 1.1)), 0, range(50))
            for db in (114.0, 3100.0)
        )
        np.testing.assert_array_equal(far.sort_order, near.sort_order)
        # gains near 1e-312 are subnormal, spaced 2**-1074 apart, so their rounding is absolute
        expected = near.effective_gains * 10 ** (-(3100 - 114) / 10)
        np.testing.assert_allclose(far.effective_gains, expected, rtol=1e-12, atol=4 * 2.0**-1074)

    @pytest.mark.parametrize("pathloss_db", [3100.0, 3200.0, 3220.0])
    def test_combiners_do_not_depend_on_the_path_loss_scale(self, pathloss_db):
        # each matrix is scaled by a power of two before its sums of squares, so
        # gains deep in the subnormal range (zero at 3220 dB) leave the combiners whole
        near, far = (
            draw_cluster(SystemConfig(pathloss_fixed_db=db, cell_radius_range_km=(0.9, 1.1)), 0, range(200))
            for db in (114.0, pathloss_db)
        )
        in_draw_order = []
        for r in (near, far):
            v = np.empty_like(r.detection_vectors)
            np.put_along_axis(v, r.sort_order[..., None], r.detection_vectors, axis=1)
            in_draw_order.append(v)
        np.testing.assert_allclose(*in_draw_order, rtol=0, atol=1e-14)

    def test_distances_stay_inside_annulus(self, cfg):
        r = draw_cluster(cfg, 0, 21)
        lo, hi = cfg.cell_radius_range_km
        assert np.all((r.distances_km >= lo) & (r.distances_km <= hi))

    def test_redraw_is_bit_identical(self, cfg):
        a = draw_cluster(cfg, 1, 7)
        b = draw_cluster(cfg, 1, 7)
        np.testing.assert_array_equal(a.channels, b.channels)
        np.testing.assert_array_equal(a.effective_gains, b.effective_gains)

    def test_trial_and_cluster_keys_change_the_draw(self, cfg):
        base = draw_cluster(cfg, 0, 0).effective_gains
        assert not np.array_equal(base, draw_cluster(cfg, 0, 1).effective_gains)
        assert not np.array_equal(base, draw_cluster(cfg, 1, 0).effective_gains)

    def test_seed_changes_the_draw(self, cfg):
        a = draw_cluster(cfg, 0, 3).effective_gains
        b = draw_cluster(cfg.with_(rng_seed=cfg.rng_seed + 1), 0, 3).effective_gains
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "cluster_index,trial_seed",
        [(-1, 0), (3, 0), (0, -2), (0, 1.5), (0, math.inf), (0, math.nan), (1.5, 0), (True, 0), (False, 0), (0, True)],
    )
    def test_bad_draw_keys_rejected(self, cfg, cluster_index, trial_seed):
        with pytest.raises((ValueError, TypeError)):
            draw_cluster(cfg, cluster_index, trial_seed)

    def test_whole_float_cluster_index_draws_that_cluster(self, cfg):
        a, b = draw_cluster(cfg, 1.0, [0, 3]), draw_cluster(cfg, 1, [0, 3])
        for name in ("channels", "detection_vectors", "effective_gains", "distances_km", "sort_order"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_arrays_are_read_only(self, cfg):
        r = draw_cluster(cfg, 0, 2)
        with pytest.raises(ValueError):
            r.effective_gains[0] = 0.0


def ks_distance(cdf_of_sorted: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a sample and a law, given the law's CDF at the sorted sample."""
    n = len(cdf_of_sorted)
    steps = np.arange(1, n + 1) / n
    return float(max((steps - cdf_of_sorted).max(), (cdf_of_sorted - (steps - 1.0 / n)).max()))


class TestChannelLaw:
    """The law of a draw: a user's effective gain over its path gain ``beta(d)`` is the power of a
    unit-variance complex Gaussian vector projected onto the ``rx - tx + 1`` dimensions the combiner keeps
    clear of the other columns, so Gamma(rx - tx + 1, 1); its distance is uniform over the annulus."""

    USERS, TRIALS = 4, 25000
    # KS critical value at a false-alarm rate of 1e-4 for the 100000 samples: sqrt(ln(2 / 1e-4) / (2 n))
    BOUND = math.sqrt(math.log(2.0 / 1e-4) / (2 * USERS * TRIALS))

    @pytest.mark.parametrize("tx,rx,seed", [(3, 3, 11), (4, 6, 12), (1, 2, 13)])
    def test_gains_over_the_path_gain_are_gamma_and_distances_uniform(self, tx, rx, seed):
        config = SystemConfig(tx_antennas=tx, rx_antennas=rx, users_per_cluster=self.USERS, rng_seed=seed)
        draws = [draw_cluster(config, 0, np.arange(lo, lo + 5000)) for lo in range(0, self.TRIALS, 5000)]
        d = np.concatenate([r.distances_km.ravel() for r in draws])
        beta = 10.0 ** (-(config.pathloss_fixed_db + config.pathloss_slope * np.log10(d)) / 10.0)
        x = np.sort(np.concatenate([r.effective_gains.ravel() for r in draws]) / beta)
        shape = rx - tx + 1  # an integer shape: the CDF is 1 - e^-x sum_{j < k} x^j / j!
        gamma_cdf = 1.0 - np.exp(-x) * sum(x**j / math.factorial(j) for j in range(shape))
        assert ks_distance(gamma_cdf) <= self.BOUND
        lo, hi = config.cell_radius_range_km
        assert ks_distance((np.sort(d) - lo) / (hi - lo)) <= self.BOUND


# Digests of draw_cluster's gains and sort orders at four shapes and two cluster indices, and of a small ergodic
# and mixed oracle sweep, then of the same gains as the BLAS product |v^H h|**2, a control that changes with the
# OpenBLAS kernel wherever the kernel takes effect.
BLAS_KERNEL_SCRIPT = """
import hashlib
import numpy as np
import nomasim
from nomasim.experiments import ORACLE_BENCHMARK_RADIUS_KM

outputs, control = hashlib.sha256(), hashlib.sha256()
for tx, rx, users in [(3, 3, 3), (1, 2, 2), (4, 6, 4), (8, 8, 8)]:
    config = nomasim.SystemConfig(tx_antennas=tx, rx_antennas=rx, users_per_cluster=users)
    for c in sorted({0, tx - 1}):
        r = nomasim.draw_cluster(config, c, np.arange(200))
        outputs.update(r.effective_gains.tobytes() + r.sort_order.tobytes())
        z = (r.detection_vectors.conj()[..., None, :] @ r.channels[..., c, None])[..., 0, 0]
        control.update((z.real**2 + z.imag**2).tobytes())
dense = nomasim.SystemConfig(cell_radius_range_km=ORACLE_BENCHMARK_RADIUS_KM)
for kind, config in [("ergodic_power_sweep", nomasim.SystemConfig()), ("oracle_compare_mixed", dense)]:
    outputs.update(repr(nomasim.run_sweep(nomasim.make_sweep(kind, config, trials=300)).rows).encode())
print(outputs.hexdigest(), control.hexdigest())
"""


def test_outputs_do_not_depend_on_the_openblas_kernel():
    # a core type the CPU lacks falls back silently, so the control shows whether the kernels took effect
    outputs, controls = zip(*(
        subprocess.run(
            [sys.executable, "-c", BLAS_KERNEL_SCRIPT], env={**os.environ, "OPENBLAS_CORETYPE": core},
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout.split()
        for core in ("SkylakeX", "Haswell", "Prescott")
    ))
    if len(set(controls)) == 1:
        pytest.skip("OPENBLAS_CORETYPE changed no BLAS product on this host")
    assert len(set(outputs)) == 1


class TestBatchedDraw:
    @pytest.mark.parametrize("users", [2, 3, 8])
    @pytest.mark.parametrize("cluster_index", [0, 1, 2])
    def test_batch_equals_per_trial_draws_bit_for_bit(self, users, cluster_index):
        cfg = SystemConfig(users_per_cluster=users, rng_seed=31)
        trials = [0, 5, 1, 17, 2, 40]
        batch = draw_cluster(cfg, cluster_index, trials)
        assert batch.effective_gains.shape == (len(trials), users)
        for i, t in enumerate(trials):
            one = draw_cluster(cfg, cluster_index, t)
            for name in ("channels", "detection_vectors", "effective_gains", "distances_km", "sort_order"):
                np.testing.assert_array_equal(getattr(batch, name)[i], getattr(one, name), err_msg=name)

    def test_batch_element_does_not_depend_on_its_neighbours(self):
        cfg = SystemConfig(users_per_cluster=3)
        wide = draw_cluster(cfg, 0, range(300))
        narrow = draw_cluster(cfg, 0, range(250, 260))
        np.testing.assert_array_equal(wide.detection_vectors[250:260], narrow.detection_vectors)
        np.testing.assert_array_equal(wide.effective_gains[250:260], narrow.effective_gains)

    @pytest.mark.parametrize("n_rx,n_tx", [(8, 8), (6, 4)])
    def test_batch_element_does_not_depend_on_its_neighbours_at_wide_arrays(self, n_rx, n_tx):
        # numpy's own sums unroll from 8 entries up, so 8 receive antennas pin the summation order
        cfg = SystemConfig(tx_antennas=n_tx, rx_antennas=n_rx, users_per_cluster=3)
        wide = draw_cluster(cfg, 1, range(300))
        narrow = draw_cluster(cfg, 1, range(250, 260))
        np.testing.assert_array_equal(wide.detection_vectors[250:260], narrow.detection_vectors)
        np.testing.assert_array_equal(wide.effective_gains[250:260], narrow.effective_gains)

    def test_batched_arrays_are_read_only(self, cfg):
        r = draw_cluster(cfg, 0, [1, 2])
        with pytest.raises(ValueError):
            r.channels[0, 0, 0, 0] = 0.0

    @pytest.mark.parametrize(
        "trial_seed", [[], [[0, 1]], [0, -1], [0, 1.5], [0, math.inf], [0, True], np.array([False, True])]
    )
    def test_bad_batches_rejected(self, cfg, trial_seed):
        with pytest.raises(ValueError):
            draw_cluster(cfg, 0, trial_seed)

    def test_detection_vector_is_the_batch_kernel_of_one(self, cfg):
        r = draw_cluster(cfg, 1, [3, 4])
        for l in range(cfg.users_per_cluster):
            v = combiner(r.channels[1, l], 1)
            np.testing.assert_array_equal(v, r.detection_vectors[1, l])


def numpy_stream(key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


class TestTrialStreams:
    """The batched seeding is pinned to numpy's own SeedSequence and PCG64."""

    KEYS = [  # (head, trial, tail) of the key [*head, trial, *tail]
        *[((190, ci), t, ()) for ci in range(3) for t in (0, 2**32 - 1, 2**32, 2**64 + 5)],
        ((2**32 + 7, 1), 3, ()),
        ((2**40, 2), 2**64 + 5, ()),  # six entropy words: the pool's extra mixing rounds
        ((2**64 - 1, 0), 2**32 - 1, (7,)),
        ((190,), 12, (_THRESHOLD_STREAM,)),
        ((2**33,), 2**64 + 5, (_THRESHOLD_STREAM,)),
        ((), 0, ()),
        ((190, 0), 2**63, ()),
        ((190, 1), 2**64 - 1, ()),
        ((2**64, 2), 5, ()),
        ((2**64 + 5, 0), 2**32, ()),
    ]
    BATCHES = {
        "straddling 2**32": ((190, 1), np.array([2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 3], np.uint64), ()),
        "2**63 and more": ((190, 2), np.array([2**63 - 1, 2**63, 2**64 - 1, 0], dtype=np.uint64), ()),
        "int64": ((7,), np.arange(5), (_THRESHOLD_STREAM,)),
        "4 and 5 words": ((2**40, 1), np.array([5, 2**32 + 7, 2**32 - 1], dtype=np.uint64), ()),
        "5 and 6 words": ((2**40, 2**33), np.array([5, 2**32, 2**64 - 1], dtype=np.uint64), ()),
        "rng_seed 2**64 and more": ((2**64 + 5, 0), [0, 2**32, 2**64 + 5], ()),
        "trial 2**64 and more": ((190, 1), [0, 2**64 + 5, 2**32 - 1, 2**96], (_THRESHOLD_STREAM,)),
        "multi-word tail after trials of 1 to 4 words": ((2**64 + 5, 2**33), [0, 2**96 + 1, 2**32, 7], (2**40,)),
        "multi-word tail after int64 trials": ((190, 1), np.array([2**32 - 1, 2**32, 5]), (2**40 + 3,)),
    }

    @pytest.mark.parametrize("key", KEYS)
    def test_one_key_matches_seed_sequence(self, key):
        head, trial, tail = key
        (rng,) = _trial_streams(head, [trial], tail)
        ref = numpy_stream((*head, trial, *tail))
        assert rng.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(rng.standard_normal(5), ref.standard_normal(5))

    def test_mixed_widths_keep_key_order(self):
        trials = [2**32, 0, 2**64 + 5, 2**32 - 1, 2**63, 7]  # keys of 4, 3, 5, 3, 4 and 3 words
        draws = []
        for t, rng in zip(trials, _trial_streams((190, 1), trials)):
            assert rng.bit_generator.state == numpy_stream((190, 1, t)).bit_generator.state, t
            draws.append((rng.integers(0, 3, size=3), rng.uniform(size=2)))
        for t, (ints, uniforms) in zip(trials, draws):
            ref = numpy_stream((190, 1, t))
            np.testing.assert_array_equal(ints, ref.integers(0, 3, size=3))
            np.testing.assert_array_equal(uniforms, ref.uniform(size=2))

    @pytest.mark.parametrize("batch", BATCHES)
    def test_collected_generators_are_each_keys_own_stream(self, batch):
        head, trials, tail = self.BATCHES[batch]
        rngs = list(_trial_streams(head, trials, tail))
        assert len(rngs) == len(trials)
        for t, rng in zip(trials, rngs):
            ref = numpy_stream((*head, int(t), *tail))
            assert rng.bit_generator.state == ref.bit_generator.state, t
            np.testing.assert_array_equal(rng.standard_normal(3), ref.standard_normal(3))

    @pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64), (4, np.int64)])
    def test_seeded_words_serve_only_pcg64s_request(self, n_words, dtype):
        words = np.arange(4, dtype=np.uint64)
        seeded = _seeded_type()(words)
        assert seeded.generate_state(4, np.uint64) is words
        assert seeded.generate_state(4, np.dtype(np.uint64)) is words
        with pytest.raises(ValueError, match="4 uint64 words"):
            seeded.generate_state(n_words, dtype)

    def test_seeded_words_are_a_real_seed_sequence_subclass(self):
        # a registered virtual subclass misses the ABC cache in each generator's isinstance check
        assert np.random.bit_generator.ISeedSequence in _seeded_type().__mro__

    @pytest.mark.parametrize("users", [2, 3, 8])
    def test_draw_equals_a_per_trial_generator_loop(self, users):
        cfg = SystemConfig(users_per_cluster=users, rng_seed=2**32 + 190)
        trials = [0, 7, 2**32, 2**64 + 5]
        for ci in range(cfg.tx_antennas):
            batch = draw_cluster(cfg, ci, trials)
            for i, t in enumerate(trials):
                rng = numpy_stream([cfg.rng_seed, ci, t])
                distances = rng.uniform(*cfg.cell_radius_range_km, size=users)
                h = np.empty((users, cfg.rx_antennas, cfg.tx_antennas), dtype=complex)
                h.real = rng.standard_normal(h.shape)
                h.imag = rng.standard_normal(h.shape)
                h /= math.sqrt(2.0)
                h *= (10.0 ** (-(cfg.pathloss_fixed_db + cfg.pathloss_slope * np.log10(distances)) / 20.0))[:, None, None]
                order = batch.sort_order[i]
                np.testing.assert_array_equal(batch.distances_km[i], distances[order])
                np.testing.assert_array_equal(batch.channels[i], h[order])

    @pytest.mark.parametrize("radii", [(0.25, 2.5), (0.9, 1.1), (1e-3, 1e3)])
    def test_distances_equal_numpy_uniform(self, radii):
        cfg = SystemConfig(users_per_cluster=3, cell_radius_range_km=radii)
        batch = draw_cluster(cfg, 0, np.arange(2000))
        for t in range(2000):
            ref = numpy_stream([cfg.rng_seed, 0, t]).uniform(*radii, size=3)
            np.testing.assert_array_equal(batch.distances_km[t], ref[batch.sort_order[t]])

    def test_integer_array_seeds(self, cfg):
        seeds = np.array([2**63, 2**64 - 1, 5], dtype=np.uint64)
        batch = draw_cluster(cfg, 2, seeds)
        for i, t in enumerate(seeds.tolist()):
            one = draw_cluster(cfg, 2, t)
            np.testing.assert_array_equal(batch.channels[i], one.channels)
            np.testing.assert_array_equal(batch.effective_gains[i], one.effective_gains)
        with pytest.raises(ValueError, match="non-negative"):
            draw_cluster(cfg, 0, np.array([0, -1]))
