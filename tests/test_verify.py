"""Randomized invariant checker: result surface and determinism."""

import dataclasses
import math

import numpy as np
import pytest

from nomasim import (
    CheckResult,
    SystemConfig,
    aligned_thresholds,
    db_to_linear,
    draw_cluster,
    run_verification,
    two_user_gap,
    two_user_gap_maximizer,
    verify,
)
from nomasim.verify import (
    MAX_EXCESS,
    MIN_SLACK,
    NOMA_DOMINANCE,
    OMA_BOUND,
    _TARGETS,
    _admission_draws,
    _aligned_draws,
    _cluster_splits,
    _gain_draw,
    _gains,
    _gains_and_splits,
    _gap_pairs,
    _growth_draws,
    _shares,
    aligned_count_gap,
    exhaustive_dominance_excess,
    gap_maximizer_excess,
)

from enumeration_reference import exhaustive_admit_batch


def test_all_checks_pass_on_defaults():
    results = run_verification(trials=60, seed=0)
    assert len(results) == 11
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results)
    assert len({r.name for r in results}) == 11


def test_results_are_reproducible():
    a = run_verification(trials=30, seed=4)
    b = run_verification(trials=30, seed=4)
    assert [(r.name, r.violations, r.worst) for r in a] == [
        (r.name, r.violations, r.worst) for r in b
    ]


def test_whole_float_arguments_run_as_their_ints():
    assert run_verification(trials=3.0, seed=5.0) == run_verification(trials=3, seed=5)


def test_passed_reflects_violations():
    ok = CheckResult(name="x", trials=10, violations=0, worst=0.0, note="")
    bad = CheckResult(name="x", trials=10, violations=1, worst=2.0, note="")
    empty = CheckResult(name="x", trials=0, violations=0, worst=0.0, note="")
    assert ok.passed and not bad.passed and not empty.passed


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 0},
        {"trials": 1.5},
        {"trials": math.inf},
        {"trials": math.nan},
        {"trials": True},
        {"seed": -1},
        {"seed": math.inf},
        {"seed": False},
    ],
)
def test_bad_arguments_rejected(kwargs):
    with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be"):
        run_verification(**kwargs)


def test_config_threads_through():
    tight = SystemConfig(cell_radius_range_km=(0.05, 0.3))
    results = run_verification(trials=25, seed=1, config=tight)
    assert all(r.passed for r in results)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_single_transmit_antenna_passes_every_check():
    # one beam has no other beam to leak into
    results = run_verification(trials=25, seed=0, config=SystemConfig(tx_antennas=1, rx_antennas=2))
    assert len(results) == 11 and all(r.passed for r in results)


def test_every_result_carries_its_tolerance_and_direction():
    results = {r.name: r for r in run_verification(trials=10, seed=0)}
    assert (results["noma_dominance"].tolerance, results["noma_dominance"].direction) == (-1e-9, MIN_SLACK)
    assert (results["oma_bound_tightness"].tolerance, results["oma_bound_tightness"].direction) == (1e-9, MAX_EXCESS)
    for r in results.values():  # a passing worst case lies on the good side of the tolerance
        assert r.worst <= r.tolerance if r.direction == MAX_EXCESS else r.worst >= r.tolerance


def test_tally_counts_non_finite_measures_as_violations():
    slack = NOMA_DOMINANCE.tally([0.5, np.nan, -2e-9, 0.0])
    assert (slack.trials, slack.violations, math.isnan(slack.worst)) == (4, 2, True)
    assert OMA_BOUND.tally([np.inf, -1.0]).violations == 1


@pytest.mark.parametrize(
    "kernel,failing",
    [
        ("noma_sum_rate", {"noma_dominance", "noma_lower_bound"}),
        ("oma_sum_upper_bound", {"oma_bound_tightness", "noma_lower_bound"}),
        ("sic_feasibility_check", {"sic_feasibility"}),
        ("cluster_size_rate_delta", {"cluster_size_monotonicity"}),
    ],
)
def test_a_nan_kernel_fails_its_checks(monkeypatch, kernel, failing):
    original = getattr(verify, kernel)

    def poisoned(*args):
        out = original(*args)
        if not dataclasses.is_dataclass(out):
            return out * np.nan
        names = [f.name for f in dataclasses.fields(out) if f.name != "feasible"]
        return dataclasses.replace(out, **{name: getattr(out, name) * np.nan for name in names})

    monkeypatch.setattr(verify, kernel, poisoned)
    for r in run_verification(trials=10, seed=0):
        assert r.violations == (r.trials if r.name in failing else 0)


def near_ties(rng, count=200):
    """Eight-user instances whose optimum turns on ties: gains from three
    values (all equal on every fourth row), targets 5/10/15 dB, each
    possibly moved 1 ulp up."""
    gains = np.sort(10.0 ** rng.integers(0, 3, (count, 8)).astype(float), axis=-1)[:, ::-1]
    gains[::4] = gains[::4, :1]
    targets = 10.0 ** (rng.choice([5.0, 10.0, 15.0], size=(count, 8)) / 10.0)
    return gains, np.where(rng.random((count, 8)) < 0.5, targets, np.nextafter(targets, np.inf))


def test_admission_checks_give_their_enumerated_values(monkeypatch):
    # the instances verify draws at several seeds, and near ties
    instances = [near_ties(np.random.default_rng(35))]
    for seed in (0, 3, 7, 190):
        rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in (7, 8)]
        instances += [_admission_draws(rngs[0], 500), _aligned_draws(rngs[1], 1000)]
    optimal = [(exhaustive_dominance_excess(g, t), aligned_count_gap(g, t)) for g, t in instances]
    monkeypatch.setattr(verify, "_optimal_admit_batch", lambda g, t: exhaustive_admit_batch(g, t)[:2])
    for (g, t), (dominance, gap) in zip(instances, optimal):
        np.testing.assert_array_equal(dominance, exhaustive_dominance_excess(g, t))
        np.testing.assert_array_equal(gap, aligned_count_gap(g, t))
    assert sum(np.count_nonzero(gap) for _, gap in optimal) > 100  # mixed targets: the counts differ


def test_verification_runs_no_enumeration(monkeypatch):
    optimal, run_dp = [], verify._optimal_admit_batch
    monkeypatch.setattr(verify, "_optimal_admit_batch", lambda *args: optimal.append(args) or run_dp(*args))
    assert all(r.passed for r in run_verification(trials=40, seed=0))
    assert len(optimal) == 2  # both admission checks read the DP
    assert not {"_enumeration_pass", "_subset_table", "exhaustive_admit"} & set(vars(verify))


def test_greedy_invariants_run_the_detail_kernel_once(monkeypatch):
    details, sequential = [], verify._sequential_admit_batch

    def spy(gains, thresholds, detail=False):
        details.append(detail)
        return sequential(gains, thresholds, detail=detail)

    monkeypatch.setattr(verify, "_sequential_admit_batch", spy)
    excess = verify.greedy_invariant_excess(*_admission_draws(np.random.default_rng(0), 50))
    assert details == [True, False]  # the invariants' detail pass, then the doubled gains' counts
    assert np.all(excess <= 0.0)


# Bit-for-bit draws: verify makes only the RNG calls per instance and the rest
# on stacked arrays. Each pin below compares that with numpy's own calls, made
# per instance as the checks drew them before, so a numpy upgrade that changed
# an instance fails here.


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def reference_gains(rng, size):
    scale = 10.0 ** rng.uniform(-1.0, 4.0)
    return np.sort(scale * rng.lognormal(mean=0.0, sigma=1.5, size=size))[::-1]


TARGETS_DB = np.array([5.0, 10.0, 15.0])


def reference_thresholds(rng, size):
    return db_to_linear(TARGETS_DB[rng.integers(0, 3, size)])


def stack_by_size(instances):
    groups = {}
    for instance in instances:
        groups.setdefault(np.shape(instance[0]), []).append(instance)
    return [tuple(map(np.stack, zip(*group))) for group in groups.values()]


def reference_gains_and_splits(rng, trials, dof_samples=0):
    draws = []
    for t in range(trials):
        size = 2 + t % 5
        draw = (reference_gains(rng, size), rng.dirichlet(np.ones(size)))
        draws.append(draw + (rng.dirichlet(np.ones(size), size=dof_samples),) if dof_samples else draw)
    return stack_by_size(draws)


def reference_cluster_splits(config, rng_seed, rng, trials):
    gains = [
        config.rho * draw_cluster(config.with_(rng_seed=rng_seed, users_per_cluster=2 + t % 5), 0, t).effective_gains
        for t in range(trials)
    ]
    return stack_by_size([(g, rng.dirichlet(np.ones(g.size))) for g in gains])


def reference_growth_draws(rng, trials):
    draws = []
    for t in range(trials):
        g, w = reference_gains(rng, 2 + t % 5), rng.dirichlet(np.ones(1 + t % 5))
        f = float(rng.uniform(0.0, 1.0))
        draws.append((g, w, np.append(w * (1.0 - f), f * w.sum())))  # the 1-D extend_split
    return stack_by_size(draws)


def reference_admission_draws(rng, trials):
    draws = [(reference_gains(rng, 8), reference_thresholds(rng, 8)) for _ in range(trials)]
    return np.array([g for g, _ in draws]), np.array([t for _, t in draws])


def reference_aligned_draws(rng, trials):
    gains, thresholds = [], []
    for t in range(trials):
        gains.append(reference_gains(rng, 8))
        if t % 2:
            thresholds.append(np.full(8, float(db_to_linear(TARGETS_DB[rng.integers(0, 3)]))))
        else:
            thresholds.append(reference_thresholds(rng, 8))
    gains, thresholds = np.array(gains), np.array(thresholds)
    aligned = aligned_thresholds(thresholds)
    return gains[aligned], thresholds[aligned]


DRAWS = {
    "oma_bound": (lambda rng, n: _gains_and_splits(rng, n, 100), lambda rng, n: reference_gains_and_splits(rng, n, 100)),
    "gains_and_splits": (_gains_and_splits, reference_gains_and_splits),
    "cluster_splits": (
        lambda rng, n: _cluster_splits(SystemConfig(), 3, rng, n),
        lambda rng, n: reference_cluster_splits(SystemConfig(), 3, rng, n),
    ),
    "gap_pairs": (_gap_pairs, lambda rng, n: np.array([reference_gains(rng, 2) for _ in range(n)])),
    "growth": (_growth_draws, reference_growth_draws),
    "admission": (_admission_draws, reference_admission_draws),
    "aligned": (_aligned_draws, reference_aligned_draws),
}


@pytest.mark.parametrize("trials", [1, 2, 7, 60])
@pytest.mark.parametrize("seed", [0, 5, 190])
@pytest.mark.parametrize("draw", DRAWS)
def test_stacked_draws_are_the_per_instance_draws(draw, seed, trials):
    stacked, per_instance = DRAWS[draw]
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = stacked(ours, trials), per_instance(numpys, trials)
    if isinstance(want, list):  # size groups of tuples of arrays
        assert [[bits(a) for a in group] for group in got] == [[bits(a) for a in group] for group in want]
    elif isinstance(want, tuple):
        assert [bits(a) for a in got] == [bits(a) for a in want]
    else:
        assert bits(got) == bits(want)
    assert ours.bit_generator.state == numpys.bit_generator.state  # the same RNG calls, no more


@pytest.mark.parametrize("k", range(1, 13))
def test_shares_are_numpys_dirichlet(k):
    # numpy adds the draws left to right: its own pairwise sum would differ from 8 users on
    for seed in range(100):
        for samples in (None, 100):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _shares(ours.standard_exponential((k,) if samples is None else (samples, k)))
            assert bits(got) == bits(numpys.dirichlet(np.ones(k), size=samples))
            assert ours.random() == numpys.random()


def test_target_table_is_db_to_linear_on_arrays_and_on_scalars():
    levels = np.random.default_rng(0).integers(0, 3, (100, 8))
    for row in levels:
        assert bits(_TARGETS[row]) == bits(db_to_linear(TARGETS_DB[row]))
    for level, linear in zip(TARGETS_DB, _TARGETS):
        assert linear == db_to_linear(level) == db_to_linear(float(level))


@pytest.mark.parametrize("size", [1, 2, 5, 8, 13])
def test_stacked_scale_and_sort_are_each_instances(size):
    rng = np.random.default_rng(size)
    draws = [_gain_draw(rng, size) for _ in range(200)]
    want = np.array([np.sort(scale * raw)[::-1] for raw, scale in draws])
    assert bits(_gains(np.array([raw for raw, _ in draws]), np.array([scale for _, scale in draws]))) == bits(want)


def reference_gap(gains, omega1):
    """The two-user gap as ``two_user_gap`` evaluated it before the formula became a kernel."""
    g, w1 = np.asarray(gains, dtype=float), np.asarray(omega1, dtype=float)
    g1, g2, w2 = g[..., 0], g[..., 1], 1.0 - w1
    x = w1 * g2 / (1.0 + w1 * g2) * (w2 * (g1 - g2) / (1.0 + w1 * g1 + w2 * g2))
    return np.log1p(x) / np.log(2.0)


def reference_gap_maximizer_excess(pairs, grid):
    step = grid[1] - grid[0]
    at, low, first, last = np.array([
        (grid[int(np.argmax(gaps))], gaps.min(), gaps[0], gaps[-1]) for gaps in (reference_gap(g, grid) for g in pairs)
    ]).T
    deviation = np.abs(at - two_user_gap_maximizer(pairs[:, 0]))
    negativity = np.maximum(np.maximum(-low, np.abs(first)), np.abs(last))
    return np.maximum(deviation - step, negativity - 1e-9)


def gap_pairs():
    """The gate's pairs, those of ``nomasim gap`` at -100 dBm, and stronger gains up to 1e12."""
    cfg = SystemConfig(users_per_cluster=2)
    quiet = cfg.with_(tx_power_dbm=-100.0)
    strong = 10.0 ** np.linspace(-12, 12, 49)
    return np.concatenate([
        cfg.rho * draw_cluster(cfg, 0, range(200)).effective_gains,
        quiet.rho * draw_cluster(quiet, 0, range(3)).effective_gains,
        np.stack([strong, strong * 0.3], axis=-1),
        np.stack([strong, strong * (1 - 1e-9)], axis=-1),
        _gap_pairs(np.random.default_rng(11), 100),
    ])


def test_two_user_gap_is_the_reference_expression():
    pairs, grid = gap_pairs(), np.linspace(0.0, 1.0, 10_001)
    for pair in pairs:
        for omega1 in (0.0, 1.0 / 3.0, 0.5, 1.0, two_user_gap_maximizer(pair[0]), np.float64(0.25), grid, grid[::7]):
            got, want = two_user_gap(pair, omega1), reference_gap(pair, omega1)
            assert type(got) is type(want) and bits(got) == bits(want)
    for omega1 in (0.3, grid[::100, None]):  # stacked pairs
        assert bits(two_user_gap(pairs, omega1)) == bits(reference_gap(pairs, omega1))


@pytest.mark.parametrize("points", [10_000, 10_001])
def test_gap_maximizer_excess_is_the_per_pair_reference(points):
    pairs, grid = gap_pairs(), np.linspace(0.0, 1.0, points)
    assert bits(gap_maximizer_excess(pairs, grid)) == bits(reference_gap_maximizer_excess(pairs, grid))


@pytest.mark.parametrize(
    "pairs,grid,message",
    [
        ([[2.0, -1.0]], [0.0, 0.5, 1.0], "finite and non-negative"),
        ([[np.inf, 1.0]], [0.0, 0.5, 1.0], "finite and non-negative"),
        ([[np.nan, 1.0]], [0.0, 0.5, 1.0], "finite and non-negative"),
        ([[3.0, 2.0, 1.0]], [0.0, 0.5, 1.0], "exactly two gains"),
        ([[2.0, 1.0]], [0.0, 0.5, 1.5], "omega1 must lie in"),
        ([[2.0, 1.0]], [0.0, np.nan, 1.0], "omega1 must lie in"),
    ],
)
def test_gap_maximizer_excess_rejects_bad_pairs_and_grids(pairs, grid, message):
    with pytest.raises(ValueError, match=message):
        gap_maximizer_excess(np.array(pairs), np.array(grid))
