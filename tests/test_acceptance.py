"""Package acceptance gate: every shipped guarantee at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
guarantee. The checks exercise the public surface end to end: rate dominance
of superposed over orthogonal sharing, the orthogonal bound and its attaining
split, the two-user gap maximizer, the cluster-growth monotonicity, decoding
feasibility, sequential-versus-enumerated admission, the cumulative power
closed form, the admission benchmark windows and trends, the detection-vector
construction, fairness dominance, and CLI determinism.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from nomasim import (
    ORACLE_BENCHMARK_RADIUS_KM,
    AdmissionInstance,
    SystemConfig,
    cluster_size_rate_delta,
    cumulative_power_closed_form,
    draw_cluster,
    exhaustive_admit,
    extend_split,
    greedy_admit,
    greedy_optimality_condition,
    make_sweep,
    noma_sum_rate,
    oma_sum_upper_bound,
    oma_user_rates,
    optimal_dof_fractions,
    run_sweep,
    sic_feasibility_check,
    two_user_gap,
    two_user_gap_maximizer,
)
from nomasim.experiments import _mixed_thresholds_db

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
    return [draw_cluster(BENCH, 0, t).effective_gains for t in range(1000)]


@pytest.fixture(scope="session")
def mixed_pairs(bench_gains):
    """Sequential vs enumerated admission under per-user 5/10/15 dB targets.

    Returns (counts, rates, condition) where counts/rates have shape
    (trials, powers, 2) holding the sequential and enumerated results, and
    condition flags the trials whose admitted prefix satisfies the textbook
    optimality condition.
    """
    spec = make_sweep("oracle_compare_mixed", BENCH, trials=1000)
    counts = np.empty((1000, len(POWERS), 2))
    rates = np.empty_like(counts)
    condition = np.empty((1000, len(POWERS)), dtype=bool)
    for t, eff in enumerate(bench_gains):
        thr_db = _mixed_thresholds_db(spec, t)
        for j, p in enumerate(POWERS):
            inst = AdmissionInstance.from_db(BENCH.rho_at(p) * eff, thr_db)
            gre = greedy_admit(inst)
            exh = exhaustive_admit(inst)
            counts[t, j] = (gre.admitted_count, exh.admitted_count)
            rates[t, j] = (gre.sum_rate_bps_hz, exh.sum_rate_bps_hz)
            condition[t, j] = greedy_optimality_condition(inst, gre.admitted_count)
    return counts, rates, condition


@pytest.fixture(scope="session")
def sinr_sweep():
    return run_sweep(make_sweep("admission_vs_sinr", DEFAULT, trials=1000))


def test_c01_superposed_rate_never_below_best_orthogonal_rate():
    rng = np.random.default_rng(101)
    checked = 0
    worst = np.inf
    for size in (2, 3, 4, 5, 6):
        cfg = DEFAULT.with_(users_per_cluster=size)
        for t in range(2000):
            g = draw_cluster(cfg, 0, t).snr_gains
            w = rng.dirichlet(np.ones(size), size=10)
            w *= rng.uniform(0.4, 1.0, size=(10, 1))  # partial budgets too
            noma = noma_sum_rate(g, w)
            oma = oma_user_rates(g, w, optimal_dof_fractions(g, w)).sum(axis=-1)
            worst = min(worst, float(np.min(noma - oma)))
            checked += w.shape[0]
    assert checked >= 100_000
    assert worst >= -1e-9


def test_c02_orthogonal_bound_holds_and_optimal_split_attains_it():
    rng = np.random.default_rng(102)
    for i in range(100):
        size = 2 + i % 5
        cfg = DEFAULT.with_(users_per_cluster=size)
        g = draw_cluster(cfg, 0, 5000 + i).snr_gains
        w = rng.dirichlet(np.ones(size))
        bound = oma_sum_upper_bound(g, w)
        sampled = oma_user_rates(g, w, rng.dirichlet(np.ones(size), size=10_000)).sum(axis=-1)
        assert sampled.max() <= bound + 1e-9
        attained = oma_user_rates(g, w, optimal_dof_fractions(g, w)).sum()
        assert abs(attained - bound) <= 1e-9


def test_c03_gap_maximizer_matches_dense_grid_and_reference_value():
    assert abs(two_user_gap_maximizer(321.0) - 0.053) <= 1e-3
    cfg = DEFAULT.with_(users_per_cluster=2)
    grid = np.linspace(0.0, 1.0, 10_000)
    step = float(grid[1] - grid[0])
    for t in range(1000):
        g = draw_cluster(cfg, 0, t).snr_gains
        star = two_user_gap_maximizer(g[0])
        at_grid = float(grid[int(np.argmax(two_user_gap(g, grid)))])
        assert abs(at_grid - star) <= step


def test_c04_growing_the_cluster_never_raises_the_rate():
    rng = np.random.default_rng(104)
    for i in range(100_000):
        l = int(rng.integers(1, 6))
        g = np.sort(10.0 ** rng.uniform(-1, 3, l + 1))[::-1]
        w = rng.dirichlet(np.ones(l))
        if i % 2 == 0:
            larger = extend_split(w, float(rng.uniform(0.0, 1.0)))
        else:
            kept = w * rng.uniform(0.0, 1.0, l)  # per-user domination
            larger = np.append(kept, 1.0 - kept.sum())
        d = cluster_size_rate_delta(g, w, larger)
        assert d.delta <= 1e-12
        assert max(d.head_factor, d.chain_factor, d.tail_factor) <= 1 + 1e-12
        assert abs(d.delta - d.delta_factored) <= 1e-9


def test_c05_descending_gain_decoding_is_always_feasible():
    rng = np.random.default_rng(105)
    for _ in range(100_000):
        size = int(rng.integers(2, 7))
        g = np.sort(10.0 ** rng.uniform(-2, 4, size))[::-1]
        w = rng.dirichlet(np.ones(size))
        assert sic_feasibility_check(g, w).feasible


def test_c06a_equal_targets_make_sequential_and_enumerated_agree(bench_gains):
    cases = 0
    for s in (5.0, 10.0, 15.0):
        thr = np.full(8, s)
        for t, eff in enumerate(bench_gains):
            for p in POWERS:
                inst = AdmissionInstance.from_db(BENCH.rho_at(p) * eff, thr)
                gre = greedy_admit(inst)
                exh = exhaustive_admit(inst)
                assert gre.admitted_count == exh.admitted_count
                assert abs(gre.sum_rate_bps_hz - exh.sum_rate_bps_hz) <= 1e-12
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


def test_c07_cumulative_power_closed_form_matches_running_sum():
    rng = np.random.default_rng(107)
    for _ in range(100_000):
        size = int(rng.integers(2, 9))
        g = np.sort(10.0 ** rng.uniform(-2, 4, size))[::-1]
        inst = AdmissionInstance.from_db(g, rng.choice([5.0, 10.0, 15.0], size=size))
        res = greedy_admit(inst)
        running = math.fsum(res.power_coefficients[: res.admitted_count])
        closed = cumulative_power_closed_form(inst, res.admitted_count)
        assert abs(closed - running) <= 1e-12


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
    worst_norm = 0.0
    worst_leak = 0.0
    for t in range(10_000):
        ci = t % cfg.tx_antennas
        r = draw_cluster(cfg, ci, t)
        norms = np.linalg.norm(r.detection_vectors, axis=1)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
        effective = np.einsum("ln,lnm->lm", r.detection_vectors.conj(), r.channels @ r.precoder)
        leak = np.abs(np.delete(effective, ci, axis=1))
        worst_leak = max(worst_leak, float(leak.max()))
    assert worst_norm <= 1e-12
    assert worst_leak < 1e-10


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
