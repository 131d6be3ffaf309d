"""Randomized invariant checker: result surface and determinism."""

import dataclasses
import math

import numpy as np
import pytest

from nomasim import CheckResult, SystemConfig, run_verification, verify
from nomasim.verify import MAX_EXCESS, MIN_SLACK, NOMA_DOMINANCE, OMA_BOUND


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
