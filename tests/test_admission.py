"""Sequential, enumerated and DP admission: allocation, closed form, edge behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomasim import (
    AdmissionInstance,
    aligned_thresholds,
    allocate_sequential,
    cumulative_power_closed_form,
    exhaustive_admit,
    greedy_admit,
    greedy_optimality_condition,
)
from nomasim import admission
from nomasim.admission import _optimal_admit_batch, _sequential_admit_batch


def random_instance(rng, size=None):
    n = int(size if size is not None else rng.integers(2, 9))
    g = np.sort(10.0 ** rng.uniform(-1, 4, n))[::-1]
    t_db = rng.choice([5.0, 10.0, 15.0], size=n)
    return AdmissionInstance.from_db(g, t_db)


# Batches both batch kernels reject.
MALFORMED_BATCHES = [
    ([[1.0, 2.0]], [1.0, 1.0]),  # ascending gains
    ([[2.0, -1.0]], [1.0, 1.0]),  # negative gain
    ([[2.0, 1.0]], [1.0, 0.0]),  # zero target
    ([[np.inf, 1.0]], [1.0, 1.0]),  # non-finite gain
    ([[2.0, 1.0]], [np.nan, 1.0]),  # non-finite target
    (np.zeros((2, 0)), np.zeros((2, 0))),  # no users
]


class CountingFloat:
    """Float wrapper that counts arithmetic operations through it."""

    ops = 0

    def __init__(self, value):
        self.value = float(value)

    def _binary(self, other, fn):
        type(self).ops += 1
        return CountingFloat(fn(self.value, float(getattr(other, "value", other))))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __gt__(self, other):
        return self.value > float(getattr(other, "value", other))

    def __lt__(self, other):
        return self.value < float(getattr(other, "value", other))

    def __float__(self):
        return self.value


class TestInstanceValidation:
    @pytest.mark.parametrize(
        "gains,thresholds",
        [
            ([1.0, 2.0], [1.0, 1.0]),  # ascending gains
            ([2.0, -1.0], [1.0, 1.0]),  # negative gain
            ([2.0, 1.0], [1.0]),  # length mismatch
            ([2.0, 1.0], [1.0, 0.0]),  # zero target
            ([2.0, 1.0], [1.0, -3.0]),  # negative target
            ([], []),  # empty
            ([np.inf, 1.0], [1.0, 1.0]),  # non-finite gain
        ],
    )
    def test_rejects_malformed_input(self, gains, thresholds):
        with pytest.raises(ValueError):
            AdmissionInstance(gains=gains, sinr_thresholds=thresholds)

    def test_from_db_converts_targets(self):
        inst = AdmissionInstance.from_db([5.0, 1.0], [10.0, 20.0])
        np.testing.assert_allclose(inst.sinr_thresholds, [10.0, 100.0], rtol=1e-12)

    def test_arrays_are_frozen(self):
        inst = AdmissionInstance(gains=[5.0, 1.0], sinr_thresholds=[1.0, 1.0])
        with pytest.raises(ValueError):
            inst.gains[0] = 9.0
        assert len(inst) == 2


class TestSequentialAllocation:
    def test_two_user_exact_budget(self):
        coeffs, fits = allocate_sequential([4.0, 2.0], [1.0, 1.0])
        assert fits
        np.testing.assert_allclose(coeffs, [0.25, 0.75], rtol=1e-15)

    def test_stops_at_first_blocker_even_if_later_users_fit(self):
        # the middle user's huge target blocks the scan; the cheap third user
        # is never reached even though it would fit in the leftover power
        coeffs, fits = allocate_sequential([10.0, 9.0, 8.0], [1.0, 1000.0, 1.0])
        assert not fits
        assert len(coeffs) == 1

    def test_zero_gain_user_stops_the_scan(self):
        coeffs, fits = allocate_sequential([5.0, 0.0], [1.0, 1.0])
        assert not fits
        assert coeffs == [0.2]

    def test_cost_per_user_is_constant(self):
        # run all-admitted instances of growing size through the allocator
        # with instrumented scalars; the op count must be affine in the size
        counts = []
        for n in range(2, 10, 2):
            gains = [CountingFloat(1e6)] * n
            thresholds = [CountingFloat(1e-3)] * n
            CountingFloat.ops = 0
            _, fits = allocate_sequential(gains, thresholds)
            assert fits
            counts.append(CountingFloat.ops)
        increments = np.diff(counts)
        assert np.all(increments == increments[0])


class TestGreedyAdmit:
    def test_admitted_users_sit_exactly_at_target(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            inst = random_instance(rng)
            res = greedy_admit(inst)
            k = res.admitted_count
            np.testing.assert_allclose(
                res.achieved_sinrs[:k], inst.sinr_thresholds[:k], rtol=1e-9
            )
            assert np.all(res.power_coefficients[k:] == 0.0)
            assert np.all(res.achieved_sinrs[k:] == 0.0)
            assert res.power_coefficients.sum() + res.residual_power == pytest.approx(1.0)
            assert res.sum_rate_bps_hz == pytest.approx(
                np.log2(1.0 + inst.sinr_thresholds[:k]).sum(), rel=1e-9
            )

    def test_budget_monotone_in_power_scale(self):
        # doubling every gain (more transmit power) never admits fewer users
        rng = np.random.default_rng(9)
        for _ in range(100):
            inst = random_instance(rng)
            boosted = AdmissionInstance(
                gains=inst.gains * 2.0, sinr_thresholds=inst.sinr_thresholds
            )
            assert greedy_admit(boosted).admitted_count >= greedy_admit(inst).admitted_count

    def test_empty_budget_admits_nobody(self):
        inst = AdmissionInstance(gains=[1e-9, 1e-10], sinr_thresholds=[100.0, 100.0])
        res = greedy_admit(inst)
        assert res.admitted_count == 0
        assert res.residual_power == 1.0
        assert res.sum_rate_bps_hz == 0.0


class TestSequentialBatch:
    """The array form of the sequential rule against greedy_admit, exactly."""

    @staticmethod
    def assert_matches_greedy(gains, thresholds):
        count, rate = _sequential_admit_batch(gains, thresholds)
        g, t = np.broadcast_arrays(gains, thresholds)
        for idx in np.ndindex(count.shape):
            res = greedy_admit(AdmissionInstance(g[idx], t[idx]))
            assert count[idx] == res.admitted_count
            assert rate[idx] == res.sum_rate_bps_hz  # bit for bit, not approximately
        return count

    def test_random_instances_match_bit_for_bit(self):
        rng = np.random.default_rng(21)
        gains = np.sort(10.0 ** rng.uniform(-2, 4, (400, 8)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** (rng.choice([5.0, 10.0, 15.0], size=(400, 8)) / 10.0)
        count = self.assert_matches_greedy(gains, thresholds)
        assert len(np.unique(count)) >= 4  # several stopping points are exercised

    def test_zero_gain_users_end_admission(self):
        gains = np.array([[50.0, 40.0, 0.0, 0.0], [50.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        count = self.assert_matches_greedy(gains, np.full(4, 1.0))
        np.testing.assert_array_equal(count, [2, 1, 0])

    def test_all_rejected_and_all_admitted(self):
        gains = np.array([[1e-9, 1e-10, 1e-11], [1e6, 1e6, 1e6]])
        count = self.assert_matches_greedy(gains, np.full(3, 0.1))
        np.testing.assert_array_equal(count, [0, 3])

    def test_broadcast_batch_axes(self):
        # trials x powers x targets, targets broadcast from a column
        rng = np.random.default_rng(22)
        eff = np.sort(rng.exponential(size=(6, 5)), axis=-1)[:, ::-1]
        gains = np.array([1.0, 10.0, 100.0])[:, None, None] * eff[:, None, None, :]
        count = self.assert_matches_greedy(gains, np.array([1.0, 3.0, 10.0, 30.0])[:, None])
        assert count.shape == (6, 3, 4)

    @pytest.mark.parametrize("gains,thresholds", MALFORMED_BATCHES)
    def test_rejects_malformed_input(self, gains, thresholds):
        with pytest.raises(ValueError):
            _sequential_admit_batch(np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float))


class TestClosedForm:
    def test_hand_value(self):
        inst = AdmissionInstance(gains=[4.0, 2.0], sinr_thresholds=[1.0, 1.0])
        assert cumulative_power_closed_form(inst, 2) == pytest.approx(1.0, rel=1e-15)

    def test_matches_running_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            inst = random_instance(rng)
            res = greedy_admit(inst)
            k = res.admitted_count
            expected = math.fsum(res.power_coefficients[:k])
            assert cumulative_power_closed_form(inst, k) == pytest.approx(expected, abs=1e-12)

    def test_zero_count_costs_nothing(self):
        inst = AdmissionInstance(gains=[4.0, 2.0], sinr_thresholds=[1.0, 1.0])
        assert cumulative_power_closed_form(inst, 0) == 0.0

    @pytest.mark.parametrize("count", [-1, 3, 1.5])
    def test_count_validation(self, count):
        inst = AdmissionInstance(gains=[4.0, 2.0], sinr_thresholds=[1.0, 1.0])
        with pytest.raises(ValueError):
            cumulative_power_closed_form(inst, count)


class TestExhaustiveAdmit:
    def test_cap_guards_the_search(self):
        inst = AdmissionInstance(
            gains=np.arange(13.0, 0.0, -1.0), sinr_thresholds=np.ones(13)
        )
        with pytest.raises(ValueError):
            exhaustive_admit(inst)
        assert exhaustive_admit(inst, cap=13).admitted_count > 0

    def test_nobody_fits(self):
        inst = AdmissionInstance(gains=[1.0, 0.5], sinr_thresholds=[1e9, 1e9])
        res = exhaustive_admit(inst)
        assert res.admitted_count == 0
        assert res.residual_power == 1.0

    def test_rate_ties_pick_smallest_index_set(self):
        # users 1 and 2 are identical; pairing either with user 0 exhausts the
        # budget at the same rate, so the earlier index must win
        inst = AdmissionInstance(gains=[10.0, 5.0, 5.0], sinr_thresholds=[2.0, 2.0, 2.0])
        res = exhaustive_admit(inst)
        assert res.admitted_count == 2
        assert res.power_coefficients[1] > 0.0
        assert res.power_coefficients[2] == 0.0

    def test_beats_blocked_sequential_scan(self):
        # sequential stops at the middle blocker; enumeration skips past it
        inst = AdmissionInstance(gains=[10.0, 9.0, 8.0], sinr_thresholds=[1.0, 1000.0, 1.0])
        assert greedy_admit(inst).admitted_count == 1
        res = exhaustive_admit(inst)
        assert res.admitted_count == 2
        assert res.power_coefficients[1] == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_never_admits_fewer_than_sequential(self, seed):
        inst = random_instance(np.random.default_rng(seed), size=6)
        greedy = greedy_admit(inst)
        best = exhaustive_admit(inst)
        assert best.admitted_count >= greedy.admitted_count
        if best.admitted_count == greedy.admitted_count:
            assert best.sum_rate_bps_hz >= greedy.sum_rate_bps_hz - 1e-9


@st.composite
def small_batches(draw):
    """Batches of 1-10-user instances with at most three target levels. Gains
    come from a short list that may hold 0, so equal and zero gains occur."""
    users = draw(st.integers(1, 10))
    batch = draw(st.integers(1, 5))
    levels = draw(st.lists(st.floats(0.05, 50.0), min_size=1, max_size=3))
    pool = draw(st.lists(st.just(0.0) | st.floats(0.05, 1e4), min_size=1, max_size=6))

    def rows(values):
        row = st.lists(st.sampled_from(values), min_size=users, max_size=users)
        return np.array(draw(st.lists(row, min_size=batch, max_size=batch)))

    return np.sort(rows(pool), axis=-1)[:, ::-1], rows(levels)


class TestOptimalBatch:
    """The composition DP against exhaustive_admit: counts exact, rates within 1e-12."""

    @staticmethod
    def assert_matches_enumeration(gains, thresholds):
        count, rate = _optimal_admit_batch(gains, thresholds)
        g, t = np.broadcast_arrays(gains, thresholds)
        assert count.shape == rate.shape == g.shape[:-1]
        for idx in np.ndindex(count.shape):
            ref = exhaustive_admit(AdmissionInstance(g[idx], t[idx]))
            assert count[idx] == ref.admitted_count
            assert abs(rate[idx] - ref.sum_rate_bps_hz) <= 1e-12
        return count, rate

    @given(small_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, batch):
        count, rate = self.assert_matches_enumeration(*batch)
        for i, (g, t) in enumerate(zip(*batch)):
            alone = _optimal_admit_batch(g, t)  # and does not depend on the rest of its batch
            assert (alone[0], alone[1]) == (count[i], rate[i])

    def test_nobody_and_everybody_admitted(self):
        gains = np.array([[1e-9, 1e-10, 1e-11], [1e6, 1e6, 1e6], [0.0, 0.0, 0.0]])
        count, rate = self.assert_matches_enumeration(gains, np.array([0.1, 1.0, 0.1]))
        np.testing.assert_array_equal(count, [0, 3, 0])
        assert rate[0] == rate[2] == 0.0

    def test_batch_of_one(self):
        count, rate = self.assert_matches_enumeration([10.0, 9.0, 8.0], [1.0, 1000.0, 1.0])
        assert count.shape == () and count == 2  # skips the blocker the sequential scan stops at

    def test_broadcast_batch_axes(self):
        # trials x powers x targets, targets broadcast from a column
        rng = np.random.default_rng(23)
        eff = np.sort(rng.exponential(size=(6, 5)), axis=-1)[:, ::-1]
        gains = np.array([1.0, 10.0, 100.0])[:, None, None] * eff[:, None, None, :]
        count, _ = self.assert_matches_enumeration(gains, np.array([1.0, 3.0, 10.0, 30.0])[:, None])
        assert count.shape == (6, 3, 4)

    def test_budget_edge_goes_to_enumeration(self, monkeypatch):
        calls = []

        def spy(instance, cap=admission.DEFAULT_ENUMERATION_CAP):
            calls.append(instance)
            return exhaustive_admit(instance, cap)

        monkeypatch.setattr(admission, "exhaustive_admit", spy)
        count, rate = _optimal_admit_batch([[2.0], [4.0]], [2.0])  # the first needs exactly the budget
        assert len(calls) == 1 and calls[0].gains.tolist() == [2.0]
        np.testing.assert_array_equal(count, [1, 1])
        assert rate[0] == rate[1] == math.log2(3.0)

    def test_distinct_targets_stay_within_the_pass_budget(self, monkeypatch):
        passes = []
        run_pass = admission._composition_pass

        def spy(cost, level, values, dims):
            passes.append((len(cost), dims))
            return run_pass(cost, level, values, dims)

        monkeypatch.setattr(admission, "_composition_pass", spy)
        rng = np.random.default_rng(24)
        gains = np.sort(10.0 ** rng.uniform(0, 3, (300, 8)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** rng.uniform(-1, 1, (300, 8))  # eight distinct targets per instance
        self.assert_matches_enumeration(gains, thresholds)
        assert len(passes) > 1
        for batch, dims in passes:
            assert dims == (2,) * 8
            assert batch * math.prod(dims) <= admission._DP_PASS_STATES

    @pytest.mark.parametrize("gains,thresholds", MALFORMED_BATCHES)
    def test_rejects_malformed_input(self, gains, thresholds):
        with pytest.raises(ValueError):
            _optimal_admit_batch(np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float))


class TestOptimalityCondition:
    def test_counterexample_condition_true_but_sequential_suboptimal(self):
        # the third user's steep target blocks the sequential scan while the
        # cheap fourth user still fits; the textbook condition holds anyway
        inst = AdmissionInstance.from_db([1000.0, 500.0, 30.0, 25.0], [5.0, 5.0, 15.0, 5.0])
        greedy = greedy_admit(inst)
        best = exhaustive_admit(inst)
        assert greedy.admitted_count == 2
        assert best.admitted_count == 3
        assert greedy_optimality_condition(inst, greedy.admitted_count)
        np.testing.assert_allclose(
            best.power_coefficients,
            [0.003162, 0.016325, 0.0, 0.188114],
            atol=5e-7,
        )

    def test_equal_targets_always_satisfy_it(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = np.sort(10.0 ** rng.uniform(-1, 3, n))[::-1]
            inst = AdmissionInstance.from_db(g, np.full(n, 10.0))
            assert greedy_optimality_condition(inst, greedy_admit(inst).admitted_count)

    def test_decreasing_cost_ratio_fails_it(self):
        inst = AdmissionInstance(gains=[10.0, 9.0], sinr_thresholds=[10.0, 1.0])
        assert not greedy_optimality_condition(inst, 2)

    def test_admitted_target_above_rejected_target_fails_it(self):
        inst = AdmissionInstance(gains=[10.0, 9.0, 8.0], sinr_thresholds=[1.0, 5.0, 1.0])
        assert not greedy_optimality_condition(inst, 2)

    @pytest.mark.parametrize("count", [-1, 5, 0.5])
    def test_count_validation(self, count):
        inst = AdmissionInstance(gains=[10.0, 9.0], sinr_thresholds=[1.0, 1.0])
        with pytest.raises(ValueError):
            greedy_optimality_condition(inst, count)


class TestAlignedThresholds:
    def test_detects_alignment(self):
        assert aligned_thresholds(
            AdmissionInstance(gains=[10.0, 5.0], sinr_thresholds=[1.0, 2.0])
        )
        assert aligned_thresholds(
            AdmissionInstance(gains=[10.0, 5.0], sinr_thresholds=[2.0, 2.0])
        )
        assert not aligned_thresholds(
            AdmissionInstance(gains=[10.0, 5.0], sinr_thresholds=[2.0, 1.0])
        )

    def test_aligned_instances_make_sequential_count_optimal(self):
        # targets sorted to never decrease along the scan: enumeration can
        # then never beat the sequential count
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            g = np.sort(10.0 ** rng.uniform(-1, 4, n))[::-1]
            t_db = np.sort(rng.choice([5.0, 10.0, 15.0], size=n))
            inst = AdmissionInstance.from_db(g, t_db)
            assert aligned_thresholds(inst)
            assert greedy_admit(inst).admitted_count == exhaustive_admit(inst).admitted_count
