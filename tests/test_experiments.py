"""Sweep construction, execution, reduction, and serialization."""

import csv
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nomasim import (
    ORACLE_BENCHMARK_RADIUS_KM,
    SWEEP_KINDS,
    SweepSpec,
    SystemConfig,
    extend_split,
    make_sweep,
    run_sweep,
    split_surface_grid,
    sweep_series,
    value_grid,
    write_csv,
    write_metadata,
)
from nomasim import experiments


CFG = SystemConfig()
CFG3 = SystemConfig(users_per_cluster=3)

# A one- or two-point grid per sweep kind, for runs that cover every kind.
SMALL_GRIDS = {
    "split_sweep_2user": (0.4,),
    "split_sweep_3user": ((0.2, 0.6),),
    "power_sweep": (30.0,),
    "ergodic_power_sweep": (30.0, 50.0),
    "fairness_2user": (0.4,),
    "fairness_3user": ((0.2, 0.6),),
    "admission_vs_sinr": (10.0,),
    "admission_vs_requesting": (2.0, 3.0),
    "oracle_compare_equal": (30.0,),
    "oracle_compare_mixed": (30.0, 40.0),
}


def series_means(result, scheme, metric):
    """Grid-ordered means of one (scheme, metric) series."""
    return np.array(
        [r.mean for r in result.rows if r.scheme == scheme and r.metric == metric]
    )


@pytest.fixture(scope="module")
def split_curve():
    return run_sweep(make_sweep("split_sweep_2user", CFG))


@pytest.fixture(scope="module")
def split_surface():
    return run_sweep(make_sweep("split_sweep_3user", CFG))


@pytest.fixture(scope="module")
def fairness_curve():
    return run_sweep(make_sweep("fairness_2user", CFG))


@pytest.fixture(scope="module")
def ergodic():
    return run_sweep(
        make_sweep("ergodic_power_sweep", CFG, trials=40, grid=(30.0, 40.0, 50.0))
    )


@pytest.fixture(scope="module")
def vs_sinr():
    return run_sweep(make_sweep("admission_vs_sinr", CFG, trials=50))


class TestGrids:
    def test_value_grid_hits_both_endpoints(self):
        assert value_grid(0.0, 1.0, 0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert value_grid(20.0, 50.0, 2.0)[-1] == 50.0

    def test_value_grid_avoids_float_drift(self):
        assert 0.3 in value_grid(0.0, 1.0, 0.1)

    @pytest.mark.parametrize("start,stop,step", [(0.0, 1.0, 0.0), (0.0, 1.0, -0.5), (1.0, 0.0, 0.5)])
    def test_value_grid_rejects_empty_ranges(self, start, stop, step):
        with pytest.raises(ValueError, match="step > 0 and stop >= start"):
            value_grid(start, stop, step)

    def test_surface_grid_shape(self):
        grid = split_surface_grid()
        assert len(grid) == 20 * 21
        assert grid[0] == (0.0, 0.0)
        first = max(p[0] for p in grid)
        second = max(p[1] for p in grid)
        assert (first, second) == (0.95, 1.0)


class TestSweepSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            SweepSpec(kind="nope", grid=(1.0,), trials=1, config=CFG3)

    @pytest.mark.parametrize("trials", [0, -1, 1.5, math.inf, math.nan, True, False])
    def test_bad_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            SweepSpec(kind="power_sweep", grid=(30.0,), trials=trials, config=CFG3)
        with pytest.raises(ValueError, match="trials"):
            make_sweep("power_sweep", CFG, trials=trials)

    def test_surface_kind_needs_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            SweepSpec(kind="split_sweep_3user", grid=(0.5,), trials=1, config=CFG3)

    def test_scalar_kind_rejects_pairs(self):
        with pytest.raises(ValueError, match="scalars"):
            SweepSpec(kind="power_sweep", grid=((30.0, 40.0),), trials=1, config=CFG3)

    def test_share_grid_bounded(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SweepSpec(kind="split_sweep_2user", grid=(0.5, 1.5), trials=1, config=CFG3)

    def test_requesting_grid_must_be_integers(self):
        with pytest.raises(ValueError, match="positive integers"):
            SweepSpec(
                kind="admission_vs_requesting", grid=(2.5, 3.0), trials=1, config=CFG3, requesting_users=3
            )

    def test_oracle_pool_above_the_state_bound_rejected(self):
        # 20 users at 20 distinct targets can need 2**20 DP states per instance
        choices = tuple(float(db) for db in range(20))
        with pytest.raises(ValueError, match="requesting_users 20 can need 1048576 DP states"):
            make_sweep("oracle_compare_mixed", CFG, requesting_users=20, threshold_choices_db=choices)
        with pytest.raises(ValueError, match="65537 DP states"):  # one target level: users + 1 states
            make_sweep("oracle_compare_equal", CFG, requesting_users=65536)
        # every pool of at most 12 users stays accepted, whatever its targets
        for users in (12, 16):  # 4096 and 65536 states
            spec = make_sweep("oracle_compare_mixed", CFG, requesting_users=users, threshold_choices_db=choices[:users])
            assert spec.requesting_users == users

    def test_oracle_pool_of_24_users_runs(self):
        spec = make_sweep("oracle_compare_mixed", CFG, trials=3, grid=(40.0, 50.0), requesting_users=24)
        means = {(row.sweep_point, row.scheme, row.metric): row.mean for row in run_sweep(spec).rows}
        for p in ((40.0,), (50.0,)):
            assert 0 <= means[p, "greedy_mixed", "admitted_count"] <= means[p, "exhaustive_mixed", "admitted_count"] <= 24

    @pytest.mark.parametrize("seed", [190, 2**32 + 5, 2**64 + 5])
    def test_mixed_targets_are_each_trials_own_choice_draw(self, seed):
        spec = make_sweep("oracle_compare_mixed", CFG.with_(rng_seed=seed), requesting_users=9)
        trials = [0, 1, 255, 256, 2**32, 2**64 + 5]
        targets = experiments._mixed_thresholds_db(spec, trials)
        assert targets.shape == (len(trials), 9)
        for row, t in zip(targets, trials):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, experiments._THRESHOLD_STREAM]))
            np.testing.assert_array_equal(row, rng.choice(np.asarray(spec.threshold_choices_db), size=9))

    @pytest.mark.parametrize("trials", [np.arange(300), np.array([2**32 - 1, 2**32, 2**63, 2**64 - 1, 5], np.uint64)])
    def test_mixed_targets_of_a_trial_array_are_each_trials_own_choice_draw(self, trials):
        choices = (0.0, 5.0, 10.0, 15.0, 20.0)
        spec = make_sweep("oracle_compare_mixed", CFG, requesting_users=7, threshold_choices_db=choices)
        targets = experiments._mixed_thresholds_db(spec, trials)
        for row, t in zip(targets, trials.tolist()):
            rng = np.random.default_rng(np.random.SeedSequence([CFG.rng_seed, t, experiments._THRESHOLD_STREAM]))
            np.testing.assert_array_equal(row, rng.choice(np.asarray(choices), size=7))

    def test_threshold_choices_must_be_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_sweep("oracle_compare_mixed", CFG, threshold_choices_db=())

    def test_base_split_must_sum_to_one(self):
        with pytest.raises(ValueError, match="base_split"):
            SweepSpec(
                kind="power_sweep", grid=(30.0,), trials=1, config=CFG3, base_split=(0.2, 0.9)
            )

    @pytest.mark.parametrize(
        "key,value",
        [
            ("grid", (30.0, math.nan)),
            ("grid", (30.0, math.inf)),
            ("power_dbm_values", (30.0, math.nan)),
            ("target_sinr_db_values", (-math.inf,)),
            ("threshold_choices_db", (5.0, math.nan)),
            ("base_split", (math.nan, 0.8)),
            ("extension_fraction", math.nan),
            ("requesting_users", math.inf),
        ],
    )
    def test_non_finite_entries_rejected(self, key, value):
        fields = {"grid": (30.0,), key: value}
        with pytest.raises(ValueError, match=key):
            SweepSpec(kind="power_sweep", trials=1, config=CFG3, **fields)

    @pytest.mark.parametrize(
        "key,value", [("requesting_users", 2.5), ("requesting_users", 0)]
    )
    def test_counts_must_be_positive_integers(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a positive integer"):
            SweepSpec(kind="power_sweep", grid=(30.0,), trials=1, config=CFG3, **{key: value})

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_extension_fraction_must_lie_in_the_unit_interval(self, fraction):
        with pytest.raises(ValueError, match=r"extension_fraction must lie in \[0, 1\]"):
            make_sweep("power_sweep", CFG, extension_fraction=fraction)

    @pytest.mark.parametrize("kind", ["power_sweep", "split_sweep_3user"])
    def test_empty_grid_rejected(self, kind):
        with pytest.raises(ValueError, match="grid must be non-empty"):
            make_sweep(kind, CFG, grid=())

    def test_config_takes_the_drawn_cluster_size(self):
        spec = SweepSpec(kind="admission_vs_sinr", grid=(10.0,), trials=1, config=SystemConfig(users_per_cluster=4))
        assert spec.config.users_per_cluster == 8
        assert run_sweep(spec).metadata["config"]["users_per_cluster"] == 8

    def test_pool_grid_must_end_at_requesting_users(self):
        with pytest.raises(ValueError, match="largest pool size"):
            SweepSpec(
                kind="admission_vs_requesting",
                grid=(2.0, 3.0, 4.0),
                trials=1,
                config=CFG3,
                requesting_users=3,
            )


class TestMakeSweep:
    def test_cluster_size_is_normalized_per_kind(self):
        wide = SystemConfig(users_per_cluster=5)
        assert make_sweep("split_sweep_2user", wide).config.users_per_cluster == 3
        assert make_sweep("fairness_2user", wide).config.users_per_cluster == 2
        assert make_sweep("fairness_3user", wide).config.users_per_cluster == 3
        assert make_sweep("admission_vs_sinr", wide).config.users_per_cluster == 8

    def test_requesting_pool_follows_grid(self):
        spec = make_sweep("admission_vs_requesting", CFG, grid=(2.0, 3.0, 4.0))
        assert spec.requesting_users == 4
        assert spec.config.users_per_cluster == 4

    def test_equal_mode_defaults_to_three_targets(self):
        spec = make_sweep("oracle_compare_equal", CFG)
        assert spec.target_sinr_db_values == (5.0, 10.0, 15.0)
        assert spec.trials == 1000

    def test_overrides_pass_through(self):
        spec = make_sweep("power_sweep", CFG, trials=7, grid=(30.0, 40.0))
        assert spec.trials == 7 and spec.grid == (30.0, 40.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_sweep("bogus", CFG)

    @pytest.mark.parametrize(
        "kind,key,value",
        [
            ("admission_vs_sinr", "target_sinr_db_values", (5.0, 10.0)),
            ("ergodic_power_sweep", "enumeration_cap", 8),
            ("split_sweep_2user", "base_split", (0.5, 0.5)),
            ("oracle_compare_equal", "threshold_choices_db", (5.0,)),
            ("oracle_compare_mixed", "target_sinr_db_values", (5.0,)),
            ("admission_vs_requesting", "enumeration_cap", 8),
            ("power_sweep", "no_such_field", 1),
        ],
    )
    def test_keys_the_kind_does_not_read_are_rejected(self, kind, key, value):
        with pytest.raises(ValueError, match=f"'{kind}' does not read '{key}'"):
            make_sweep(kind, CFG, **{key: value})

    def test_keys_the_kind_reads_are_accepted(self):
        for kind, entry in experiments._KINDS.items():
            defaults = make_sweep(kind, CFG)
            spec = make_sweep(kind, CFG, **{key: getattr(defaults, key) for key in entry.reads})
            assert spec == defaults

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"grid": (2.0, 3.0, 4.0), "requesting_users": 3}, "largest pool size"),
            ({"grid": (math.inf, 2.0)}, "grid entries must be finite"),
            ({"requesting_users": math.inf}, "requesting_users"),
        ],
    )
    def test_pool_grid_conflicts_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            make_sweep("admission_vs_requesting", CFG, **overrides)


class TestSeriesLabels:
    def test_split_and_power_carry_both_sizes(self):
        spec = make_sweep("power_sweep", CFG)
        assert sweep_series(spec) == (
            ("noma_2user", "sum_rate_bps_hz"),
            ("oma_2user", "sum_rate_bps_hz"),
            ("noma_3user", "sum_rate_bps_hz"),
            ("oma_3user", "sum_rate_bps_hz"),
        )

    def test_fairness_reports_jain(self):
        spec = make_sweep("fairness_2user", CFG)
        assert sweep_series(spec) == (
            ("noma_2user", "jain_index"),
            ("oma_2user", "jain_index"),
        )

    def test_admission_labels_carry_power(self):
        spec = make_sweep("admission_vs_sinr", CFG)
        schemes = {s for s, _ in sweep_series(spec)}
        assert schemes == {"greedy_p30", "greedy_p40", "greedy_p50"}

    def test_oracle_mixed_has_difference_series(self):
        spec = make_sweep("oracle_compare_mixed", CFG)
        schemes = [s for s, _ in sweep_series(spec)]
        assert "exhaustive_minus_greedy_mixed" in schemes


class TestSplitSweeps:
    def test_edge_splits_collapse_the_gap(self, split_curve):
        noma = series_means(split_curve, "noma_2user", "sum_rate_bps_hz")
        oma = series_means(split_curve, "oma_2user", "sum_rate_bps_hz")
        grid = np.array([r.sweep_point[0] for r in split_curve.rows[::4]])
        for edge in (0.0, 1.0):
            i = int(np.where(grid == edge)[0][0])
            assert noma[i] == pytest.approx(oma[i], rel=1e-12)

    def test_pointwise_dominance(self, split_curve):
        for size in ("2user", "3user"):
            noma = series_means(split_curve, f"noma_{size}", "sum_rate_bps_hz")
            oma = series_means(split_curve, f"oma_{size}", "sum_rate_bps_hz")
            assert np.all(noma >= oma - 1e-9)

    def test_interior_gap_is_strict(self, split_curve):
        noma = series_means(split_curve, "noma_2user", "sum_rate_bps_hz")
        oma = series_means(split_curve, "oma_2user", "sum_rate_bps_hz")
        assert np.max(noma - oma) > 0.1

    def test_surface_metadata_locates_the_gap_peak(self, split_surface):
        peak = split_surface.metadata["max_gap"]
        assert peak["gap_bps_hz"] > 0.0
        # largest advantage sits at a small first share and a large second one
        assert peak["sweep_point"][0] <= 0.2
        assert peak["sweep_point"][1] >= 0.8

    def test_surface_rows_cover_grid_times_series(self, split_surface):
        assert len(split_surface.rows) == 420 * 2


class TestErgodicSweep:
    def test_mean_dominance_survives_averaging(self, ergodic):
        for size in ("2user", "3user"):
            noma = series_means(ergodic, f"noma_{size}", "sum_rate_bps_hz")
            oma = series_means(ergodic, f"oma_{size}", "sum_rate_bps_hz")
            assert np.all(noma >= oma)

    def test_smaller_cluster_keeps_the_extended_share_rate(self, ergodic):
        two = series_means(ergodic, "noma_2user", "sum_rate_bps_hz")
        three = series_means(ergodic, "noma_3user", "sum_rate_bps_hz")
        assert np.all(two >= three)

    def test_rates_grow_with_power(self, ergodic):
        for scheme in ("noma_2user", "oma_2user", "noma_3user", "oma_3user"):
            means = series_means(ergodic, scheme, "sum_rate_bps_hz")
            assert np.all(np.diff(means) > 0)

    def test_stderr_positive_with_many_trials(self, ergodic):
        assert all(r.stderr > 0 for r in ergodic.rows)
        assert all(r.trials == 40 for r in ergodic.rows)

    def test_single_trial_has_zero_stderr(self, split_curve):
        assert all(r.stderr == 0.0 for r in split_curve.rows)

    def test_superposed_means_are_the_analytic_integrals(self):
        # 4 stderr: a two-sided false alarm of 6.3e-5 per mean, at most 5.1e-4 over the 8 means
        spec = make_sweep("ergodic_power_sweep", CFG, trials=20000, grid=(20.0, 30.0, 40.0, 50.0))
        shares = {"noma_2user": spec.base_split, "noma_3user": extend_split(spec.base_split, spec.extension_fraction)}
        rows = [r for r in run_sweep(spec, workers=1).rows if r.scheme in shares]
        assert len(rows) == 8
        for r in rows:
            want, finer = (superposed_mean(spec.config, r.sweep_point[0], shares[r.scheme], n) for n in (64, 128))
            assert abs(r.mean - want) <= 4.0 * r.stderr + abs(finer - want), r


def superposed_mean(config, power_dbm, shares, nodes):
    """Mean superposed sum rate of the strongest ``len(shares)`` of three users, from the law of a gain.

    A user's SNR-scale gain is ``rho * beta(d)`` times a Gamma(rx - tx + 1, 1) fade, with ``beta(d)`` the path
    gain and d uniform over the annulus, i.i.d. across users. User l's rate ``f(x) = log2(1 + w x / (1 + a x))``,
    ``a`` the shares of the users before it, depends only on its own gain, the l-th largest of the three, so its
    mean is ``int f'(x) P(l-th largest > x) dx``. The survival function of a gain averages the Gamma tail over
    ``nodes`` Gauss-Legendre nodes in d; the integral is a trapezoid rule in ``ln x`` on ``32 * nodes`` points,
    from 1e-10 (where ``f < 1e-9``) to where every node's tail is below ``e**-60``.
    """
    k = config.rx_antennas - config.tx_antennas + 1
    lo, hi = config.cell_radius_range_km
    z, weight = np.polynomial.legendre.leggauss(nodes)
    d = (lo + hi) / 2.0 + (hi - lo) / 2.0 * z
    pathloss_db = config.pathloss_fixed_db + config.pathloss_slope * np.log10(d)
    scale = config.rho_at(power_dbm) * 10.0 ** (-pathloss_db / 10.0)
    u = np.linspace(math.log(1e-10), math.log((60.0 + 10.0 * k) * scale.max()), 32 * nodes)
    x = np.exp(u)
    y = x[:, None] / scale
    s = (np.exp(-y) * sum(y**j / math.factorial(j) for j in range(k))) @ weight / 2.0  # P(a gain > x)
    above = [3 * s - 3 * s**2 + s**3, 3 * s**2 - 2 * s**3, s**3]  # P(the l-th largest of three > x)
    total, earlier = 0.0, 0.0
    for w, tail in zip(shares, above):
        integrand = w * x / (math.log(2.0) * (1.0 + earlier * x) * (1.0 + (earlier + w) * x)) * tail  # x f'(x) P
        total += (u[1] - u[0]) * (integrand.sum() - (integrand[0] + integrand[-1]) / 2.0)
        earlier += w
    return total


class TestFairnessSweep:
    def test_index_stays_in_unit_interval(self, fairness_curve):
        means = np.array([r.mean for r in fairness_curve.rows])
        assert np.all((means > 0) & (means <= 1 + 1e-12))

    def test_edges_leave_one_active_user(self, fairness_curve):
        jain = series_means(fairness_curve, "noma_2user", "jain_index")
        assert jain[0] == pytest.approx(0.5, rel=1e-12)
        assert jain[-1] == pytest.approx(0.5, rel=1e-12)

    def test_superposed_fairness_rises_then_falls(self, fairness_curve):
        jain = series_means(fairness_curve, "noma_2user", "jain_index")
        peak = int(np.argmax(jain))
        steps = np.diff(jain)
        assert jain[peak] > 0.99
        assert np.all(steps[:peak] > 0)
        assert np.all(steps[peak:] < 0)


class TestAdmissionSweeps:
    def test_counts_fall_with_target(self, vs_sinr):
        for p in ("30", "40", "50"):
            counts = series_means(vs_sinr, f"greedy_p{p}", "admitted_count")
            assert np.all(np.diff(counts) <= 0)

    def test_counts_rise_with_power(self, vs_sinr):
        stacked = np.stack(
            [series_means(vs_sinr, f"greedy_p{p}", "admitted_count") for p in ("30", "40", "50")]
        )
        assert np.all(np.diff(stacked, axis=0) >= 0)

    def test_counts_bounded_by_pool(self, vs_sinr):
        counts = series_means(vs_sinr, "greedy_p50", "admitted_count")
        assert np.all((counts >= 0) & (counts <= 8))

    def test_counts_rise_with_requesting_pool(self):
        result = run_sweep(
            make_sweep("admission_vs_requesting", CFG, trials=30, grid=tuple(range(2, 9)))
        )
        counts = series_means(result, "greedy_p30_s10", "admitted_count")
        assert np.all(np.diff(counts) >= 0)


class TestOracleCompare:
    def test_equal_targets_never_disagree(self):
        result = run_sweep(
            make_sweep("oracle_compare_equal", CFG, trials=30, grid=(30.0, 50.0))
        )
        for s in ("5", "10", "15"):
            diff = series_means(result, f"exhaustive_minus_greedy_s{s}", "admitted_count")
            np.testing.assert_array_equal(diff, 0.0)
            rate_diff = series_means(
                result, f"exhaustive_minus_greedy_s{s}", "sum_rate_bps_hz"
            )
            np.testing.assert_allclose(rate_diff, 0.0, atol=1e-12)

    def test_equal_target_divergence_is_an_error(self, monkeypatch):
        exact = experiments._optimal_admit_powers
        monkeypatch.setattr(experiments, "_optimal_admit_powers", lambda *a: (exact(*a)[0] + 1, exact(*a)[1]))
        spec = make_sweep("oracle_compare_equal", CFG, trials=3, grid=(30.0, 50.0), requesting_users=4)
        with pytest.raises(RuntimeError, match=r"diverged from the optimum \(trial 0, power 30.0 dBm, target 5.0 dB\)"):
            run_sweep(spec)

    def test_benchmark_radius_is_dense(self):
        assert ORACLE_BENCHMARK_RADIUS_KM[1] < CFG.cell_radius_range_km[1]


# Three chunks: run at workers=3, the parent takes trials 0-255 and two children the rest.
THREE_SHARES = make_sweep("ergodic_power_sweep", CFG, trials=3 * experiments._CHUNK_TRIALS, grid=(30.0,))

# A monkeypatched share function reaches a child only through fork.
forked = pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="needs the fork start method")


def _floats(lo: float, hi: float):
    """A working range, or anywhere in float64 with infinities and NaN."""
    return st.floats(lo, hi) | st.floats()


def _values(lo: float, hi: float):
    return st.lists(_floats(lo, hi), min_size=1, max_size=3).map(tuple)


# Pools of at most 12 users keep an oracle example in milliseconds; 118 is the
# smallest pool the oracle kinds refuse.
_POOL = st.integers(-1, 12) | st.just(118)
_CELL_SETTINGS = {
    "tx_antennas": st.integers(-1, 4),
    "rx_antennas": st.integers(-1, 6),
    "users_per_cluster": st.integers(-1, 8),
    "bandwidth_hz": _floats(1.0, 1e9),
    "noise_density_dbm_hz": _floats(-200.0, 0.0),
    "pathloss_fixed_db": _floats(0.0, 400.0),
    "pathloss_slope": _floats(-50.0, 100.0),
    "tx_power_dbm": _floats(-100.0, 100.0),
    "cell_radius_range_km": st.tuples(_floats(0.0, 3.0), _floats(0.0, 3.0)),
    "rng_seed": st.integers(-1, 2**70),
}
_SWEEP_SETTINGS = {
    "power_dbm_values": _values(-50.0, 100.0),
    "target_sinr_db_values": _values(-20.0, 40.0),
    "threshold_choices_db": _values(-20.0, 40.0),
    "requesting_users": _POOL,
    "base_split": _floats(0.0, 1.0).map(lambda a: (a, 1.0 - a)) | st.tuples(st.floats(), st.floats()),
    "extension_fraction": _floats(0.0, 1.0),
}
_GRID_SETTINGS = {
    "share": st.lists(_floats(0.0, 1.0), min_size=1, max_size=3),
    "share pair": st.lists(st.tuples(_floats(0.0, 1.0), _floats(0.0, 1.0)), min_size=1, max_size=3),
    "dBm": st.lists(_floats(-50.0, 100.0), min_size=1, max_size=3),
    "dB": st.lists(_floats(-20.0, 40.0), min_size=1, max_size=3),
    "users": st.lists(_POOL.map(float), min_size=1, max_size=3),
}
_SETTING_KEYS = [f.name for f in fields(SystemConfig) + fields(SweepSpec) if f.name not in ("kind", "config")]


@st.composite
def sweep_settings(draw):
    """A kind, then any of the cell keys and of the sweep keys it reads; an absent key keeps its default."""
    kind = draw(st.sampled_from(SWEEP_KINDS))
    entry = experiments._KINDS[kind]
    cell = draw(st.fixed_dictionaries({}, optional=_CELL_SETTINGS))
    read = {"grid": _GRID_SETTINGS[entry.unit], **{key: _SWEEP_SETTINGS[key] for key in entry.reads}}
    return kind, cell, draw(st.fixed_dictionaries({}, optional=read))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sweep_settings())
# subnormal SNR-scale gains
@example(
    ("admission_vs_sinr", dict(bandwidth_hz=1.0, noise_density_dbm_hz=3000.0, pathloss_fixed_db=0.0, pathloss_slope=-300.0), {})
)
# rates that all round to 0, refused by the power and path-loss keys
@example(("fairness_2user", dict(noise_density_dbm_hz=3000.0, pathloss_fixed_db=3000.0, tx_power_dbm=3000.0), {}))
def test_any_setting_runs_finite_or_is_refused_by_key(case):
    # the input contract: a setting either gives finite rows with no warning, or a ValueError naming a key
    kind, cell, sweep = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = run_sweep(make_sweep(kind, SystemConfig(**cell), trials=2, **sweep), workers=1)
        except ValueError as e:
            assert any(key in str(e) for key in _SETTING_KEYS), e
            return
    assert all(math.isfinite(r.mean) and math.isfinite(r.stderr) for r in result.rows)


def hook_shares(monkeypatch, parent, child):
    """Run ``parent()`` before the parent's share and ``child()`` before each child's."""
    evaluate = experiments._evaluate_trials

    def patched(spec, start, out):
        (child if start else parent)()
        return evaluate(spec, start, out)

    monkeypatch.setattr(experiments, "_evaluate_trials", patched)


@pytest.fixture
def deadline():
    """Fail a test that has not returned within 60 s instead of hanging; a
    pending alarm is not inherited by forked children."""

    def expire(signum, frame):
        raise TimeoutError("run_sweep did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_import_loads_neither_a_pool_nor_numpy_random():
    deferred = ("concurrent.futures", "multiprocessing", "numpy.random")
    loaded = f"print([m for m in {deferred!r} if m in sys.modules])"
    # then a one-worker sweep, which draws channels but starts no child
    sweep = "nomasim.run_sweep(nomasim.make_sweep('ergodic_power_sweep', nomasim.SystemConfig(), trials=2))"
    code = f"import sys, nomasim; {loaded}; {sweep}; {loaded}"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    assert out.stdout.splitlines() == ["[]", "['numpy.random']"]


# A sweep in a fresh interpreter under the start method in argv[1]; spawned and forkserver children import this
# file as a module other than __main__, so the guard keeps them from starting a sweep of their own.
START_METHOD_SCRIPT = """
import multiprocessing, sys
import nomasim

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    spec = nomasim.make_sweep(sys.argv[2], nomasim.SystemConfig(), trials=2 * nomasim.experiments._CHUNK_TRIALS + 3)
    pooled, serial = nomasim.run_sweep(spec, workers=3), nomasim.run_sweep(spec)
    assert pooled.rows == serial.rows and pooled.metadata == serial.metadata
    assert multiprocessing.active_children() == []
    print("same rows and metadata")
"""


@pytest.mark.parametrize("method,kind", [("spawn", "ergodic_power_sweep"), ("forkserver", "oracle_compare_mixed")])
def test_pooled_sweep_is_the_serial_one_under_each_start_method(method, kind, tmp_path):
    # spawned and forkserver children share no memory with the caller: they get the spec by pickle alone
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    script = tmp_path / "sweep.py"
    script.write_text(START_METHOD_SCRIPT)
    out = subprocess.run([sys.executable, str(script), method, kind], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["same rows and metadata"]


class TestExecution:
    def test_rerun_is_identical(self):
        spec = make_sweep("ergodic_power_sweep", CFG, trials=5, grid=(30.0, 40.0))
        assert run_sweep(spec).rows == run_sweep(spec).rows

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_parallel_matches_serial(self, kind):
        # Chunks start at 0 and 256 in one process, at 0, 256, 258 and 514
        # over two workers, and at 0, 172 and 344 over three.
        trials = 2 * experiments._CHUNK_TRIALS + 3
        spec = make_sweep(kind, CFG, trials=trials, grid=SMALL_GRIDS[kind])
        serial = run_sweep(spec, workers=1).rows
        assert serial == run_sweep(spec, workers=2).rows
        assert serial == run_sweep(spec, workers=3).rows

    def test_no_pool_for_a_single_chunk(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started for one chunk of trials")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_pool)
        spec = make_sweep("ergodic_power_sweep", CFG, trials=experiments._CHUNK_TRIALS, grid=(30.0,))
        assert run_sweep(spec, workers=4).rows == run_sweep(spec).rows

    def test_the_parent_takes_the_first_of_uneven_shares(self, monkeypatch):
        started = []
        start = multiprocessing.process.BaseProcess.start

        def record(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", record)
        # Shares of 172, 172 and 171 trials: the parent and two children.
        spec = make_sweep("ergodic_power_sweep", CFG, trials=2 * experiments._CHUNK_TRIALS + 3, grid=(30.0, 50.0))
        assert run_sweep(spec, workers=3).rows == run_sweep(spec).rows
        assert len(started) == 2
        assert multiprocessing.active_children() == []

    @forked
    def test_a_child_exception_is_raised_with_its_type(self, monkeypatch, deadline):
        def fail():
            raise ValueError("share 1 failed")

        hook_shares(monkeypatch, parent=lambda: None, child=fail)
        with pytest.raises(ValueError, match="share 1 failed") as raised:
            run_sweep(THREE_SHARES, workers=3)
        assert "trials 256 to 511" in str(raised.value.__cause__) and "in fail" in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []

    @forked
    def test_a_child_that_dies_is_a_runtime_error(self, monkeypatch, deadline):
        hook_shares(monkeypatch, parent=lambda: None, child=lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="trials 256 to 511 exited with code 3"):
            run_sweep(THREE_SHARES, workers=3)
        assert multiprocessing.active_children() == []

    @forked
    def test_a_failing_parent_stops_its_children(self, monkeypatch, deadline):
        def interrupt():
            raise KeyboardInterrupt

        hook_shares(monkeypatch, parent=interrupt, child=lambda: time.sleep(120))
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(THREE_SHARES, workers=3)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - began < 30

    @pytest.mark.parametrize("trials", [1, 2, 257, 600])
    def test_reduction_is_numpy_mean_and_std_bit_for_bit(self, monkeypatch, trials):
        # The in-place reduction must take numpy's std(ddof=1) steps: a numpy
        # that reduces in another order fails here, not in a CSV comparison.
        spec = make_sweep("ergodic_power_sweep", CFG, trials=trials, grid=(30.0, 35.0, 40.0, 45.0, 50.0))
        rng = np.random.default_rng(trials)
        shape = (trials, len(sweep_series(spec)), len(spec.grid))
        values = rng.lognormal(0.0, 2.0, shape) * 10.0 ** rng.integers(-3, 4, shape)

        def fill(spec, start, out):
            out[:] = values[start : start + len(out)]
            return out

        monkeypatch.setattr(experiments, "_evaluate_trials", fill)
        rows = run_sweep(spec).rows  # series by series within each grid point
        mean = np.array([r.mean for r in rows]).reshape(len(spec.grid), -1).T
        stderr = np.array([r.stderr for r in rows]).reshape(len(spec.grid), -1).T
        std = values.std(axis=0, ddof=1) if trials > 1 else np.zeros(shape[1:])
        assert mean.tobytes() == values.mean(axis=0).tobytes()
        assert stderr.tobytes() == (std / math.sqrt(trials)).tobytes()

    def test_a_sweep_holds_its_values_once(self):
        def traced_peak(spec):
            tracemalloc.start()
            try:
                run_sweep(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 16 chunks, so that holding the values twice overshoots the bound by a wide margin
        spec = make_sweep("split_sweep_3user", CFG, trials=16 * experiments._CHUNK_TRIALS)
        one_chunk = traced_peak(replace(spec, trials=experiments._CHUNK_TRIALS))
        values = spec.trials * len(sweep_series(spec)) * len(spec.grid) * 8
        assert traced_peak(spec) <= 1.25 * values + one_chunk

    @pytest.mark.parametrize("workers", [0, -2, 1.5, math.inf, math.nan, True, False])
    def test_worker_count_validated(self, workers):
        spec = make_sweep("power_sweep", CFG, grid=(30.0,))
        with pytest.raises(ValueError):
            run_sweep(spec, workers=workers)

    def test_every_kind_is_runnable(self):
        # one-trial smoke pass over the whole kind table
        for kind in SWEEP_KINDS:
            spec = make_sweep(kind, CFG, trials=1, grid=SMALL_GRIDS[kind])
            result = run_sweep(spec)
            assert len(result.rows) == len(spec.grid) * len(sweep_series(spec))


class TestSerialization:
    def test_csv_round_trips_exact_floats(self, tmp_path, split_curve):
        path = tmp_path / "curve.csv"
        write_csv(split_curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(split_curve.rows)
        for parsed, row in zip(rows, split_curve.rows):
            assert float(parsed["sweep_point"]) == row.sweep_point[0]
            assert float(parsed["mean"]) == row.mean
            assert parsed["scheme"] == row.scheme
            assert int(parsed["trials"]) == row.trials

    def test_surface_csv_has_second_point_column(self, tmp_path, split_surface):
        path = tmp_path / "surface.csv"
        write_csv(split_surface, path)
        with open(path, newline="") as fh:
            header = fh.readline().strip().split(",")
        assert header[:2] == ["sweep_point", "sweep_point2"]

    def test_metadata_contents(self, tmp_path, split_surface):
        path = tmp_path / "surface.meta.json"
        write_metadata(split_surface, path)
        meta = json.loads(path.read_text())
        assert meta["tool"] == "nomasim"
        assert meta["sweep"]["oma_baseline"] == "optimal_dof"
        assert meta["config"]["rng_seed"] == CFG.rng_seed
        assert meta["config"]["cell_radius_range_km"] == list(CFG.cell_radius_range_km)
        assert meta["build_tag"].startswith("nomasim-")
        assert "+cfg." in meta["build_tag"]

    def test_metadata_of_a_spec_with_numpy_values_is_json(self):
        spec = make_sweep(
            "oracle_compare_mixed",
            CFG,
            trials=2,
            grid=np.array([30.0, 40.0]),
            threshold_choices_db=np.array([5.0, 10.0]),
            requesting_users=np.int64(4),
        )
        assert spec.threshold_choices_db == (5.0, 10.0) and type(spec.threshold_choices_db[0]) is float
        assert type(spec.requesting_users) is int
        meta = run_sweep(spec).metadata
        plain = make_sweep(
            "oracle_compare_mixed",
            CFG,
            trials=2,
            grid=(30.0, 40.0),
            threshold_choices_db=(5.0, 10.0),
            requesting_users=4,
        )
        assert json.dumps(meta, sort_keys=True) == json.dumps(run_sweep(plain).metadata, sort_keys=True)

    @pytest.mark.parametrize("writer", [write_csv, write_metadata])
    def test_failed_write_leaves_existing_output_intact(self, tmp_path, monkeypatch, split_curve, writer):
        path = tmp_path / "out.csv"
        path.write_text("previous run\n")

        class HalfWrite:
            """A file whose first write stores half of the text, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(experiments, "open", lambda *a, **k: HalfWrite(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            writer(split_curve, path)
        assert path.read_text() == "previous run\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_write_replaces_existing_output(self, tmp_path, split_curve):
        path = tmp_path / "out.csv"
        path.write_text("previous run\n")
        write_csv(split_curve, path)
        assert path.read_text().startswith("sweep_point,scheme,metric")
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_build_tag_tracks_the_setup(self):
        a = run_sweep(make_sweep("power_sweep", CFG, grid=(30.0,)))
        b = run_sweep(make_sweep("power_sweep", CFG, grid=(30.0,)))
        c = run_sweep(make_sweep("power_sweep", SystemConfig(rng_seed=7), grid=(30.0,)))
        assert a.metadata["build_tag"] == b.metadata["build_tag"]
        assert a.metadata["build_tag"] != c.metadata["build_tag"]
