"""Package acceptance gate: every shipped guarantee at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
guarantee. The checks exercise the public surface end to end: rate dominance
of superposed over orthogonal sharing, the orthogonal bound and its attaining
split, the two-user gap maximizer, the cluster-growth monotonicity, decoding
feasibility, sequential-versus-enumerated admission, the cumulative power
closed form, the admission benchmark windows and trends, the detection-vector
construction, fairness dominance, and CLI determinism. Where ``nomasim
verify`` checks the same guarantee, the test evaluates its own instances,
stacked, through the same measure function and tolerance of
:mod:`nomasim.verify`, so a non-finite measure fails here too.
"""

import subprocess
import sys

import numpy as np
import pytest

from nomasim import (
    ORACLE_BENCHMARK_RADIUS_KM,
    AdmissionInstance,
    SystemConfig,
    db_to_linear,
    draw_cluster,
    extend_split,
    greedy_optimality_condition,
    make_sweep,
    run_sweep,
    two_user_gap_maximizer,
)
from nomasim.admission import _exhaustive_admit_batch, _optimal_admit_batch, _sequential_admit_batch
from nomasim.experiments import _mixed_thresholds_db
from nomasim.verify import (
    CLOSED_FORM,
    CLUSTER_GROWTH,
    GAP_MAXIMIZER,
    NOMA_DOMINANCE,
    OMA_BOUND,
    SIC_FEASIBILITY,
    ZERO_FORCING,
    closed_form_error,
    cluster_growth_excess,
    evaluate_by_size,
    gap_maximizer_excess,
    noma_dominance_slack,
    oma_bound_excess,
    sic_min_margin,
    zero_forcing_excess,
)

DEFAULT = SystemConfig()
BENCH = SystemConfig(users_per_cluster=8, cell_radius_range_km=ORACLE_BENCHMARK_RADIUS_KM)
POWERS = (30.0, 35.0, 40.0, 45.0, 50.0)


def series_means(result, scheme, metric):
    return np.array(
        [r.mean for r in result.rows if r.scheme == scheme and r.metric == metric]
    )


@pytest.fixture(scope="session")
def bench_gains():
    """Unscaled effective gains of the admission benchmark ensemble."""
    return draw_cluster(BENCH, 0, range(1000)).effective_gains


@pytest.fixture(scope="session")
def mixed_pairs(bench_gains):
    """Sequential vs enumerated admission under per-user 5/10/15 dB targets.

    Returns (counts, rates, condition) where counts/rates have shape
    (trials, powers, 2) holding the sequential and enumerated results, and
    condition flags the instances that satisfy the proven sufficient
    condition for the sequential count to be optimal.
    """
    spec = make_sweep("oracle_compare_mixed", BENCH, trials=1000)
    rho = np.array([BENCH.rho_at(p) for p in POWERS])
    gains = rho[:, None] * bench_gains[:, None, :]  # (trials, powers, users)
    thresholds = db_to_linear(_mixed_thresholds_db(spec, range(1000)))[:, None, :]
    count, rate = _sequential_admit_batch(gains, thresholds)
    best_count, best_rate, _ = _exhaustive_admit_batch(gains, thresholds)
    condition = greedy_optimality_condition(gains, thresholds, count)
    return np.stack([count, best_count], axis=-1), np.stack([rate, best_rate], axis=-1), condition


@pytest.fixture(scope="session")
def sinr_sweep():
    return run_sweep(make_sweep("admission_vs_sinr", DEFAULT, trials=1000))


def test_c01_superposed_rate_never_below_best_orthogonal_rate():
    rng = np.random.default_rng(101)
    slack = []
    for size in (2, 3, 4, 5, 6):
        gains = draw_cluster(DEFAULT.with_(users_per_cluster=size), 0, range(2000)).snr_gains
        splits = np.empty((2000, 10, size))
        for t in range(2000):
            splits[t] = rng.dirichlet(np.ones(size), size=10)
            splits[t] *= rng.uniform(0.4, 1.0, size=(10, 1))  # partial budgets too
        slack.append(noma_dominance_slack(gains[:, None, :], splits).ravel())
    result = NOMA_DOMINANCE.tally(np.concatenate(slack))
    assert result.trials >= 100_000
    assert result.passed, result


def test_c02_orthogonal_bound_holds_and_optimal_split_attains_it():
    rng = np.random.default_rng(102)
    excess = []
    for i in range(100):
        size = 2 + i % 5
        g = draw_cluster(DEFAULT.with_(users_per_cluster=size), 0, 5000 + i).snr_gains
        w = rng.dirichlet(np.ones(size))
        excess.append(oma_bound_excess(g, w, rng.dirichlet(np.ones(size), size=10_000)))
    result = OMA_BOUND.tally(excess)
    assert result.passed, result


def test_c03_gap_maximizer_matches_dense_grid_and_reference_value():
    assert abs(two_user_gap_maximizer(321.0) - 0.053) <= 1e-3
    pairs = draw_cluster(DEFAULT.with_(users_per_cluster=2), 0, range(1000)).snr_gains
    result = GAP_MAXIMIZER.tally(gap_maximizer_excess(pairs, np.linspace(0.0, 1.0, 10_000)))
    assert result.passed, result


def test_c04_growing_the_cluster_never_raises_the_rate():
    rng = np.random.default_rng(104)
    draws = []
    for i in range(100_000):
        l = int(rng.integers(1, 6))
        g = np.sort(10.0 ** rng.uniform(-1, 3, l + 1))[::-1]
        w = rng.dirichlet(np.ones(l))
        if i % 2 == 0:
            larger = extend_split(w, float(rng.uniform(0.0, 1.0)))
        else:
            kept = w * rng.uniform(0.0, 1.0, l)  # per-user domination
            larger = np.append(kept, 1.0 - kept.sum())
        draws.append((g, w, larger))
    result = CLUSTER_GROWTH.tally(evaluate_by_size(cluster_growth_excess, draws))
    assert result.passed, result


def test_c05_descending_gain_decoding_is_always_feasible():
    rng = np.random.default_rng(105)
    draws = []
    for _ in range(100_000):
        size = int(rng.integers(2, 7))
        g = np.sort(10.0 ** rng.uniform(-2, 4, size))[::-1]
        draws.append((g, rng.dirichlet(np.ones(size))))
    result = SIC_FEASIBILITY.tally(evaluate_by_size(sic_min_margin, draws))
    assert result.passed, result


def test_c06a_equal_targets_make_sequential_and_enumerated_agree(bench_gains):
    instances = []
    for s in (5.0, 10.0, 15.0):
        thr = np.full(8, s)
        for t, eff in enumerate(bench_gains):
            for p in POWERS:
                instances.append(AdmissionInstance.from_db(BENCH.rho_at(p) * eff, thr))
    gains = np.stack([inst.gains for inst in instances])
    thresholds = np.stack([inst.sinr_thresholds for inst in instances])
    count, rate = _sequential_admit_batch(gains, thresholds)
    best_count, best_rate, _ = _exhaustive_admit_batch(gains, thresholds)
    cases = 0
    for gre_count, gre_rate, exh_count, exh_rate in zip(count, rate, best_count, best_rate):
        assert gre_count == exh_count
        assert abs(gre_rate - exh_rate) <= 1e-12
        cases += 1
    assert cases == 15_000


def test_c06b_optimality_condition_predicts_count_agreement(mixed_pairs):
    counts, _, condition = mixed_pairs
    agree = counts[:, :, 0] == counts[:, :, 1]
    assert condition.sum() >= 100  # the check must not be vacuous
    assert np.all(agree[condition])


def test_c06c_mixed_target_gap_stays_within_benchmark_tolerance(mixed_pairs):
    counts, rates, _ = mixed_pairs
    count_gap = (counts[:, :, 1] - counts[:, :, 0]).mean(axis=0)
    assert np.all(count_gap >= 0.0)
    assert np.all(count_gap <= 0.5)
    mean_rates = rates.mean(axis=0)
    rel = (mean_rates[:, 1] - mean_rates[:, 0]) / mean_rates[:, 1]
    assert np.all(rel >= 0.0)
    assert np.all(rel <= 0.05)


def test_c06d_composition_dp_matches_enumeration(bench_gains, mixed_pairs):
    counts, rates, _ = mixed_pairs
    spec = make_sweep("oracle_compare_mixed", BENCH, trials=1000)
    rho = np.array([BENCH.rho_at(p) for p in POWERS])
    gains = rho[:, None] * bench_gains[:, None, :]
    thresholds = db_to_linear(_mixed_thresholds_db(spec, range(1000)))
    count, rate = _optimal_admit_batch(gains, thresholds[:, None, :])  # all 5000 instances at once
    np.testing.assert_array_equal(count, counts[..., 1])
    np.testing.assert_allclose(rate, rates[..., 1], rtol=0, atol=1e-12)


def test_c07_cumulative_power_closed_form_matches_running_sum():
    rng = np.random.default_rng(107)
    draws = []
    for _ in range(100_000):
        size = int(rng.integers(2, 9))
        g = np.sort(10.0 ** rng.uniform(-2, 4, size))[::-1]
        draws.append((g, db_to_linear(rng.choice([5.0, 10.0, 15.0], size=size))))
    result = CLOSED_FORM.tally(evaluate_by_size(closed_form_error, draws))
    assert result.passed, result


def test_c08_admission_benchmark_windows_and_trends(sinr_sweep):
    grid = np.array(sorted({r.sweep_point[0] for r in sinr_sweep.rows}))
    assert grid[0] == 5.0
    at_5db = {
        p: series_means(sinr_sweep, f"greedy_p{p}", "admitted_count")[0]
        for p in ("30", "40", "50")
    }
    assert 3.0 <= at_5db["30"] <= 5.0
    assert 5.5 <= at_5db["50"] <= 7.5

    # counts fall as the target rises, at every power
    for p in ("30", "40", "50"):
        counts = series_means(sinr_sweep, f"greedy_p{p}", "admitted_count")
        assert np.all(np.diff(counts) <= 0)
    # counts rise with power, at every target point
    stacked = np.stack(
        [series_means(sinr_sweep, f"greedy_p{p}", "admitted_count") for p in ("30", "40", "50")]
    )
    assert np.all(np.diff(stacked, axis=0) >= 0)
    # counts rise with the requesting-pool size
    by_pool = run_sweep(make_sweep("admission_vs_requesting", DEFAULT, trials=1000))
    for p in ("30", "40", "50"):
        counts = series_means(by_pool, f"greedy_p{p}_s10", "admitted_count")
        assert np.all(np.diff(counts) >= 0)


def test_c09_detection_vectors_are_unit_norm_and_nulling():
    cfg = DEFAULT.with_(users_per_cluster=3)
    antennas = cfg.tx_antennas
    excess = [  # trial t uses precoder column t % antennas
        zero_forcing_excess(draw_cluster(cfg, ci, range(ci, 10_000, antennas)), ci) for ci in range(antennas)
    ]
    result = ZERO_FORCING.tally(np.concatenate(excess))
    assert result.trials == 10_000
    assert result.passed, result


def test_c10_superposed_fairness_dominates_on_both_sweeps():
    curve = run_sweep(make_sweep("fairness_2user", DEFAULT))
    assert np.all(
        series_means(curve, "noma_2user", "jain_index")
        >= series_means(curve, "oma_2user", "jain_index")
    )
    surface = run_sweep(make_sweep("fairness_3user", DEFAULT))
    assert np.all(
        series_means(surface, "noma_3user", "jain_index")
        >= series_means(surface, "oma_3user", "jain_index")
    )


def test_c11_cli_output_is_byte_identical_across_reruns_and_workers(tmp_path):
    def run_cli(extra, out):
        subprocess.run(
            [sys.executable, "-m", "nomasim.cli", "ergodic", "--trials", "6",
             "--set", "grid=30,40", "--seed", "5", *extra, "--out", str(out)],
            check=True,
            capture_output=True,
        )
        return out.read_bytes()

    first = run_cli([], tmp_path / "a.csv")
    again = run_cli([], tmp_path / "b.csv")
    wide = run_cli(["--workers", "2"], tmp_path / "c.csv")
    assert first == again
    assert first == wide
