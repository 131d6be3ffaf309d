"""Sequential, enumerated and DP admission: allocation, closed form, edge behavior."""

import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomasim import (
    AdmissionInstance,
    SystemConfig,
    aligned_thresholds,
    cumulative_power_closed_form,
    db_to_linear,
    draw_cluster,
    exhaustive_admit,
    greedy_admit,
    greedy_optimality_condition,
)
from nomasim import admission
from nomasim.admission import (
    _optimal_admit_batch,
    _optimal_admit_powers,
    _sequential_admit_batch,
)

import enumeration_reference
from enumeration_reference import exhaustive_admit_batch


def random_instance(rng, size=None):
    n = int(size if size is not None else rng.integers(2, 9))
    g = np.sort(10.0 ** rng.uniform(-1, 4, n))[::-1]
    t_db = rng.choice([5.0, 10.0, 15.0], size=n)
    return AdmissionInstance.from_db(g, t_db)


def allocate_sequential(gains, thresholds) -> tuple[list[float], bool]:
    """The scalar reference of the sequential rule: threshold-tight shares
    along the given order, in plain Python floats.

    Returns the shares of the users that fit and whether everyone did. Each
    user costs a constant number of scalar operations: the interference term
    reuses the running total instead of re-summing.
    """
    total = 0.0
    coeffs: list[float] = []
    for g, t in zip(gains, thresholds):
        if not g > 0.0:
            return coeffs, False
        need = t * total + t / g
        if need > 1.0 - total:
            return coeffs, False
        coeffs.append(need)
        total = total + need
    return coeffs, True


def sequential_reference(gains, thresholds) -> tuple[list[float], list[float], float]:
    """Shares, achieved SINRs and sum rate of the users the scalar reference
    admits along the given order; SINRs and rate follow the allocation in its
    order."""
    gains, thresholds = [float(x) for x in gains], [float(x) for x in thresholds]
    coeffs, _ = allocate_sequential(gains, thresholds)
    sinrs: list[float] = []
    rate = total = 0.0
    for g, w in zip(gains, coeffs):
        sinrs.append(w * g / (1.0 + g * total))
        rate += math.log2(1.0 + sinrs[-1])
        total = total + w
    return coeffs, sinrs, rate


def scattered(values, users, n) -> np.ndarray:
    """``values`` of the users ``users`` on a length-``n`` array, zero elsewhere."""
    out = np.zeros(n)
    out[list(users)] = values
    return out


# Batches every stacked-instance kernel rejects.
MALFORMED_BATCHES = [
    ([[1.0, 2.0]], [1.0, 1.0]),  # ascending gains
    ([[2.0, -1.0]], [1.0, 1.0]),  # negative gain
    ([[2.0, 1.0]], [1.0, 0.0]),  # zero target
    ([[np.inf, 1.0]], [1.0, 1.0]),  # non-finite gain
    ([[2.0, 1.0]], [np.nan, 1.0]),  # non-finite target
    (np.zeros((2, 0)), np.zeros((2, 0))),  # no users
    (2.0, 1.0),  # no users axis
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
    """The array form of the sequential rule against the scalar reference, exactly."""

    @staticmethod
    def assert_matches_reference(gains, thresholds):
        count, rate = _sequential_admit_batch(gains, thresholds)
        g, t = np.broadcast_arrays(gains, thresholds)
        for idx in np.ndindex(count.shape):
            shares, _, ref_rate = sequential_reference(g[idx], t[idx])
            assert count[idx] == len(shares)
            assert rate[idx] == ref_rate  # bit for bit, not approximately
        return count

    def test_random_instances_match_bit_for_bit(self):
        rng = np.random.default_rng(21)
        gains = np.sort(10.0 ** rng.uniform(-2, 4, (400, 8)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** (rng.choice([5.0, 10.0, 15.0], size=(400, 8)) / 10.0)
        count = self.assert_matches_reference(gains, thresholds)
        assert len(np.unique(count)) >= 4  # several stopping points are exercised

    def test_zero_gain_users_end_admission(self):
        gains = np.array([[50.0, 40.0, 0.0, 0.0], [50.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        count = self.assert_matches_reference(gains, np.full(4, 1.0))
        np.testing.assert_array_equal(count, [2, 1, 0])

    def test_all_rejected_and_all_admitted(self):
        gains = np.array([[1e-9, 1e-10, 1e-11], [1e6, 1e6, 1e6]])
        count = self.assert_matches_reference(gains, np.full(3, 0.1))
        np.testing.assert_array_equal(count, [0, 3])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_gains_are_rejected_without_overflow(self):
        # a target over a subnormal gain overflows to inf, a need no budget covers
        gains = np.array([[1e-310, 1e-315], [1e3, 1e-320], [5e-324, 0.0]])
        count = self.assert_matches_reference(gains, np.array([10.0, 10.0]))
        np.testing.assert_array_equal(count, [0, 1, 0])

    def test_long_pools_stop_where_the_scheme_stops(self):
        # every instance stops within a few of its 4096 users; the rest stay zero
        rng = np.random.default_rng(33)
        gains = np.sort(10.0 ** rng.uniform(-1, 3, (6, 4096)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** (rng.choice([5.0, 10.0, 15.0], size=(6, 4096)) / 10.0)
        count, rate, shares, sinrs = _sequential_admit_batch(gains, thresholds, detail=True)
        assert count.max() <= 8
        for i, n in enumerate(count):
            ref_shares, ref_sinrs, ref_rate = sequential_reference(gains[i], thresholds[i])
            assert n == len(ref_shares) and rate[i] == ref_rate  # bit for bit
            np.testing.assert_array_equal(shares[i], scattered(ref_shares, range(n), 4096))
            np.testing.assert_array_equal(sinrs[i], scattered(ref_sinrs, range(n), 4096))

    def test_broadcast_batch_axes(self):
        # trials x powers x targets, targets broadcast from a column
        rng = np.random.default_rng(22)
        eff = np.sort(rng.exponential(size=(6, 5)), axis=-1)[:, ::-1]
        gains = np.array([1.0, 10.0, 100.0])[:, None, None] * eff[:, None, None, :]
        count = self.assert_matches_reference(gains, np.array([1.0, 3.0, 10.0, 30.0])[:, None])
        assert count.shape == (6, 3, 4)

    @pytest.mark.parametrize("gains,thresholds", MALFORMED_BATCHES)
    def test_rejects_malformed_input(self, gains, thresholds):
        with pytest.raises(ValueError):
            _sequential_admit_batch(np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float))

    def test_a_threshold_row_broadcasts_over_the_gains(self):
        gains = np.array([[4.0, 2.0, 1.0], [3.0, 3.0, 0.0], [9.0, 0.5, 0.5]])
        count = self.assert_matches_reference(gains, np.array([1.0, 0.5, 2.0]))
        assert count.shape == (3,)

    @pytest.mark.parametrize(
        "gains,thresholds,message",
        [
            ([2.0, np.nan], np.ones((3, 2)), "gains must be finite and non-negative"),  # a gain row over a stack
            ([2.0, -1.0], np.ones((3, 2)), "gains must be finite and non-negative"),
            ([1.0, 2.0], np.ones((3, 2)), "gains must be sorted"),
            ([[2.0], [np.inf]], np.ones(3), "gains must be finite and non-negative"),  # a gain column over a row
            (np.ones((3, 2)), [1.0, 0.0], "sinr_thresholds must be finite and positive"),  # a threshold row
            ([2.0, np.nan], [[np.nan, 1.0]], "gains must be finite"),  # both at fault: gains are checked first
            ([2.0, 1.0], np.ones((2, 3)), "shape mismatch"),  # broadcasting comes before any check
        ],
    )
    def test_broadcast_inputs_are_validated_as_given(self, gains, thresholds, message):
        with pytest.raises(ValueError, match=message):
            _sequential_admit_batch(np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float))

    def test_an_empty_stack_holds_nothing_to_validate(self):
        count, rate = _sequential_admit_batch(np.array([np.nan, 1.0]), np.ones((0, 2)))
        assert count.shape == rate.shape == (0,)

    def test_a_stack_gives_each_instance_its_own_bits(self):
        # 600 instances, a seventh zero-padded, half with targets off a grid (about a thousand distinct
        # rate terms), against each row alone and against two random cuts of the stack
        rng = np.random.default_rng(36)
        gains = np.sort(10.0 ** rng.uniform(-2, 4, (600, 8)), axis=-1)[:, ::-1]
        gains[::7, 5:] = 0.0
        thresholds = 10.0 ** (rng.choice([0.0, 5.0, 10.0, 15.0], size=(600, 8)) / 10.0)
        thresholds[1::2] = 10.0 ** rng.uniform(-0.5, 1.5, (300, 8))
        whole = _sequential_admit_batch(gains, thresholds, detail=True)
        rows = [_sequential_admit_batch(g, t, detail=True) for g, t in zip(gains, thresholds)]
        others = [[np.stack(column) for column in zip(*rows)]]
        for _ in range(2):
            cuts = np.sort(rng.choice(np.arange(1, 600), size=4, replace=False))
            pieces = zip(np.split(gains, cuts), np.split(thresholds, cuts))
            parts = [_sequential_admit_batch(g, t, detail=True) for g, t in pieces]
            others.append([np.concatenate(column) for column in zip(*parts)])
        for other in others:
            for a, b in zip(whole, other):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert len(np.unique(whole[0])) >= 4

    def test_each_distinct_rate_term_takes_one_log(self, monkeypatch):
        # an admission_vs_sinr block: 200 trials x 3 powers x 7 targets of 8 users
        config = SystemConfig(users_per_cluster=8)
        eff = draw_cluster(config, 0, np.arange(200)).effective_gains
        rho = np.array([config.rho_at(p) for p in (30.0, 40.0, 50.0)])
        gains = rho[:, None, None] * eff[:, None, None, :]
        thresholds = db_to_linear(np.arange(5.0, 20.1, 2.5))[:, None]
        calls, log2 = [], math.log2
        monkeypatch.setattr(math, "log2", lambda x: calls.append(x) or log2(x))
        for _ in range(2):  # and again on a second call: no table outlives its call
            calls.clear()
            count, rate, _, sinrs = _sequential_admit_batch(gains, thresholds, detail=True)
            terms = 1.0 + sinrs[np.arange(8) < count[..., None]]
            assert sorted(calls) == sorted(set(terms.tolist()))
        assert 10 * len(calls) < terms.size and (rate > 0).any()


class TestClosedForm:
    def test_hand_value(self):
        assert cumulative_power_closed_form([4.0, 2.0], [1.0, 1.0], 2) == pytest.approx(1.0, rel=1e-15)

    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_running_sum(self, users, batch, seed):
        rng = np.random.default_rng(seed)
        gains = np.sort(10.0 ** rng.uniform(-2, 4, (batch, users)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** (rng.choice([5.0, 10.0, 15.0], size=(batch, users)) / 10.0)
        count, _, shares, sinrs = _sequential_admit_batch(gains, thresholds, detail=True)
        closed = cumulative_power_closed_form(gains, thresholds, count)  # a stack of instances
        for i in range(batch):
            ref_shares, ref_sinrs, _ = sequential_reference(gains[i], thresholds[i])
            admitted = range(len(ref_shares))
            np.testing.assert_array_equal(shares[i], scattered(ref_shares, admitted, users))
            np.testing.assert_array_equal(sinrs[i], scattered(ref_sinrs, admitted, users))
            single = cumulative_power_closed_form(gains[i], thresholds[i], len(ref_shares))
            assert closed[i] == single  # a batch of one: the same bits
            assert abs(single - math.fsum(ref_shares)) <= 1e-12

    def test_zero_count_costs_nothing(self):
        assert cumulative_power_closed_form([4.0, 2.0], [1.0, 1.0], 0) == 0.0

    @pytest.mark.parametrize("count", [-1, 3, 1.5, np.nan, True, False])
    def test_count_validation(self, count):
        with pytest.raises(ValueError, match="count"):
            cumulative_power_closed_form([4.0, 2.0], [1.0, 1.0], count)

    def test_stacked_validation(self):
        pair = (np.array([[4.0, 2.0], [4.0, 0.0]]), np.ones(2))
        assert cumulative_power_closed_form(*pair, np.array([2, 1]))[1] == 0.25
        for count in ([2, 2], [2, 3], [1.5, 1], [-1, 0]):  # a zero gain counted, then bad counts
            with pytest.raises(ValueError):
                cumulative_power_closed_form(*pair, np.array(count))
        with pytest.raises(ValueError, match="finite"):
            cumulative_power_closed_form(np.array([[np.nan, 1.0]]), np.ones(2), np.array([0]))

    @pytest.mark.parametrize("gains,thresholds", MALFORMED_BATCHES)
    def test_rejects_malformed_input(self, gains, thresholds):
        with pytest.raises(ValueError, match="gains|sinr_thresholds"):
            cumulative_power_closed_form(gains, thresholds, np.zeros(np.shape(gains)[:-1], dtype=int))


class TestAppendStep:
    """The append step both exact searches allocate through, in rounded arithmetic."""

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0) | st.just(math.inf),
                st.floats(0.0, 1e4, exclude_min=True),
                st.floats(0.0, 1e9),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_the_prior_total(self, cases):
        a, b, t, g = map(np.array, zip(*cases))
        power, later = np.minimum(a, b), np.maximum(a, b)
        with np.errstate(divide="ignore", over="ignore"):
            cost = t / g  # a zero gain costs inf
        joined, joined_later = admission._append(power, t, cost), admission._append(later, t, cost)
        assert np.all(joined <= joined_later)
        assert np.all(joined_later[np.isinf(later) | np.isinf(cost)] == np.inf)
        assert np.all(joined[np.isinf(cost)] == np.inf)

    def test_chains_to_the_sequential_totals(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            inst = random_instance(rng)
            g, t = inst.gains, inst.sinr_thresholds
            coeffs, _ = allocate_sequential(g.tolist(), t.tolist())
            total, running = np.zeros(1), 0.0
            for k in range(min(len(coeffs) + 1, len(g))):  # the fitting users, then the first rejected
                total = admission._append(total, t[k], t[k] / g[k]) + total
                running = running + coeffs[k] if k < len(coeffs) else math.inf
                assert total[0] == running


class TestExhaustiveAdmit:
    def test_cap_guards_the_search(self):
        inst = AdmissionInstance(
            gains=np.arange(13.0, 0.0, -1.0), sinr_thresholds=np.ones(13)
        )
        with pytest.raises(ValueError, match="above the enumeration cap 12"):
            exhaustive_admit(inst)

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

    def test_rate_ties_go_to_the_first_subset_within_the_tolerance_of_the_highest(self):
        # one user fits; the singletons' rates rise by about 0.6e-12 per user,
        # so user 2's is the highest, user 1's is within 1e-12 of it and user
        # 0's is not: user 1 is the first within the tolerance
        targets = 3.0 * np.array([1.0, 1.0 + 0.55e-12, 1.0 + 1.1e-12])
        inst = AdmissionInstance(gains=[10.0, 10.0, 10.0], sinr_thresholds=targets)
        res = exhaustive_admit(inst)
        assert res.admitted_count == 1
        np.testing.assert_array_equal(res.power_coefficients > 0, [False, True, False])

    def test_beats_blocked_sequential_scan(self):
        # sequential stops at the middle blocker; enumeration skips past it
        inst = AdmissionInstance(gains=[10.0, 9.0, 8.0], sinr_thresholds=[1.0, 1000.0, 1.0])
        assert greedy_admit(inst).admitted_count == 1
        res = exhaustive_admit(inst)
        assert res.admitted_count == 2
        assert res.power_coefficients[1] == 0.0

    def test_a_tie_goes_to_the_first_fitting_subset_past_unfitting_ones(self):
        # user 0 fits alone but with nobody else; users 1-3 fit in any pair, all at one rate bit for bit.
        # The pairs holding user 0 come first and rate higher, as user 0 alone: they do not fit, so (1, 2) wins
        inst = AdmissionInstance(gains=[100.0, 10.0, 10.0, 10.0], sinr_thresholds=[50.0, 2.0, 2.0, 2.0])
        res = exhaustive_admit(inst)
        assert res.admitted_count == 2
        np.testing.assert_array_equal(res.power_coefficients > 0, [False, True, True, False])
        assert res.sum_rate_bps_hz == greedy_admit(AdmissionInstance([10.0, 10.0], [2.0, 2.0])).sum_rate_bps_hz

    @pytest.mark.parametrize(
        "gains,thresholds,count",
        [
            ([1.0, 0.5, 0.0], [1e9, 1e9, 1.0], 0),
            ([10.0, 9.0, 8.0, 7.0, 0.0], [1.0, 1000.0, 1.0, 1.0, 1.0], 3),
            ([1e9, 1e8, 1e7, 1e6], [0.1, 0.1, 0.1, 0.1], 4),
        ],
    )
    def test_rates_the_subsets_of_the_dp_count_on_their_own_columns(self, gains, thresholds, count, monkeypatch):
        # every subset of the DP's count, as its own users' gains and targets: no zero-gain padding, and none
        # at count 0, whose result is built directly
        rated, run = [], admission._sequential_admit_batch
        monkeypatch.setattr(admission, "_sequential_admit_batch", lambda g, t, **kw: rated.append(g) or run(g, t, **kw))
        inst = AdmissionInstance(gains, thresholds)
        res = exhaustive_admit(inst)
        assert res.admitted_count == count
        if count:
            subsets = np.array(list(itertools.combinations(range(len(gains)), count)))
            assert [g.tobytes() for g in rated] == [inst.gains[subsets].tobytes()]
        else:
            assert rated == []
            assert (res.residual_power, res.sum_rate_bps_hz) == (1.0, 0.0)
            assert type(res.residual_power) is float and type(res.sum_rate_bps_hz) is float
            assert not res.power_coefficients.any() and not res.achieved_sinrs.any()
        if count == len(gains):  # the one subset is the sequential scheme's whole list
            greedy = greedy_admit(inst)
            assert res.power_coefficients.tobytes() == greedy.power_coefficients.tobytes()
            assert (res.sum_rate_bps_hz, res.residual_power) == (greedy.sum_rate_bps_hz, greedy.residual_power)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_never_admits_fewer_than_sequential(self, seed):
        inst = random_instance(np.random.default_rng(seed), size=6)
        greedy = greedy_admit(inst)
        best = exhaustive_admit(inst)
        assert best.admitted_count >= greedy.admitted_count
        if best.admitted_count == greedy.admitted_count:
            assert best.sum_rate_bps_hz >= greedy.sum_rate_bps_hz - 1e-9


@functools.cache
def picks(shape, choices):
    """Arrays of ``shape`` indices below ``choices``, one strategy per shape."""
    return st.lists(st.integers(0, choices - 1), min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda flat: np.reshape(flat, shape)
    )


@st.composite
def small_batches(draw, min_users=1):
    """Batches of 1-10-user instances with at most three target levels. Gains
    come from a short list that may hold 0, so equal and zero gains occur."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(min_users, 10)))  # (batch, users)
    levels = np.array(draw(st.lists(st.floats(0.05, 50.0), min_size=1, max_size=3)))
    pool = np.array(draw(st.lists(st.just(0.0) | st.floats(0.05, 1e4), min_size=1, max_size=6)))
    gains = pool[draw(picks(shape, len(pool)))]
    return np.sort(gains, axis=-1)[:, ::-1], levels[draw(picks(shape, len(levels)))]


def scan_subsets(gains, thresholds):
    """The enumeration reference as a plain scan: count, sum rate and index
    set of the winner, the first feasible subset of the largest feasible size
    (in :func:`itertools.combinations` order) whose rate is within 1e-12 of
    the highest rate of that size."""
    g, t = [float(x) for x in gains], [float(x) for x in thresholds]
    for size in range(len(g), -1, -1):
        feasible = []
        for combo in itertools.combinations(range(len(g)), size):
            coeffs, _, rate = sequential_reference([g[i] for i in combo], [t[i] for i in combo])
            if len(coeffs) == size:
                feasible.append((size, rate, combo))
        if feasible:
            highest = max(rate for _, rate, _ in feasible)
            return next(f for f in feasible if highest - f[1] <= 1e-12)


def condition_by_slices(g, t, k):
    """The sufficient condition of one instance, read clause by clause on slices."""
    if np.any(g[:k] <= 0) or np.any(np.diff(t[:k] / g[:k]) < 0):
        return False
    if 0 < k < len(g) and t[:k].max() > t[k:].min():
        return False
    return not (k + 1 < len(g) and t[k] > t[k + 1 :].min())


class TestExhaustiveBatch:
    """The tests' batched enumeration against a plain subset scan, bit for bit."""

    @given(small_batches())
    @settings(max_examples=100, deadline=None)
    def test_matches_a_plain_scan(self, batch):
        count, rate, members = exhaustive_admit_batch(*batch)
        assert count.shape == rate.shape == batch[0].shape[:1] and members.shape == batch[0].shape
        for i, (g, t) in enumerate(zip(*batch)):
            assert (count[i], rate[i], tuple(np.flatnonzero(members[i]))) == scan_subsets(g, t)  # exact
            alone = exhaustive_admit_batch(g, t)  # a batch of one: the same bits
            assert (alone[0], alone[1]) == (count[i], rate[i])
            np.testing.assert_array_equal(alone[2], members[i])
            res = exhaustive_admit(AdmissionInstance(g, t))  # its result builder: the same subset and bits
            assert (res.admitted_count, res.sum_rate_bps_hz) == (count[i], rate[i])
            np.testing.assert_array_equal(res.power_coefficients > 0, members[i])

    def test_broadcast_batch_axes(self):
        rng = np.random.default_rng(25)
        eff = np.sort(rng.exponential(size=(4, 6)), axis=-1)[:, ::-1]
        gains = np.array([1.0, 10.0, 100.0])[:, None, None] * eff[:, None, None, :]
        count, rate, _ = exhaustive_admit_batch(gains, np.array([1.0, 3.0])[:, None])
        assert count.shape == rate.shape == (4, 3, 2)
        g, t = np.broadcast_arrays(gains, np.array([1.0, 3.0])[:, None])
        for idx in np.ndindex(count.shape):
            assert (count[idx], rate[idx]) == scan_subsets(g[idx], t[idx])[:2]

    def test_cap_refuses_larger_instances(self):
        gains = np.arange(13.0, 0.0, -1.0)[None, :]
        with pytest.raises(ValueError, match="above the enumeration cap 12"):
            exhaustive_admit_batch(gains, np.ones(13))

    @pytest.mark.parametrize("gains,thresholds", MALFORMED_BATCHES)
    def test_rejects_malformed_input(self, gains, thresholds):
        with pytest.raises(ValueError):
            exhaustive_admit_batch(np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float))

    def test_passes_stay_within_the_state_budget(self, monkeypatch):
        passes = []
        run_pass = enumeration_reference._enumeration_pass

        def spy(g, t, code, sizes):
            passes.append(len(g) * len(code))
            return run_pass(g, t, code, sizes)

        monkeypatch.setattr(enumeration_reference, "_enumeration_pass", spy)
        rng = np.random.default_rng(26)
        gains = np.sort(10.0 ** rng.uniform(-1, 4, (300, 8)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** (rng.choice([5.0, 10.0, 15.0], size=(300, 8)) / 10.0)
        count, rate, _ = exhaustive_admit_batch(gains, thresholds)
        assert len(passes) > 1 and max(passes) <= admission._PASS_STATES
        for i in range(0, 300, 30):
            assert (count[i], rate[i]) == scan_subsets(gains[i], thresholds[i])[:2]


class TestBatchesOfOne:
    """greedy_admit and exhaustive_admit against the scalar reference, every field bit for bit."""

    @staticmethod
    def assert_matches_reference(res, gains, thresholds, members):
        shares, sinrs, rate = sequential_reference([gains[i] for i in members], [thresholds[i] for i in members])
        admitted = members[: len(shares)]
        assert type(res.admitted_count) is int and res.admitted_count == len(shares)
        np.testing.assert_array_equal(res.power_coefficients, scattered(shares, admitted, len(gains)))
        np.testing.assert_array_equal(res.achieved_sinrs, scattered(sinrs, admitted, len(gains)))
        assert type(res.residual_power) is float and res.residual_power == 1.0 - math.fsum(shares)
        assert type(res.sum_rate_bps_hz) is float and res.sum_rate_bps_hz == rate

    def assert_both_match(self, gains, thresholds):
        inst = AdmissionInstance(gains, thresholds)
        greedy, best = greedy_admit(inst), exhaustive_admit(inst)
        self.assert_matches_reference(greedy, gains, thresholds, range(len(gains)))
        winner = np.flatnonzero(exhaustive_admit_batch(gains, thresholds)[2])  # scan_subsets's, as tested above
        self.assert_matches_reference(best, gains, thresholds, winner)
        return greedy.admitted_count, best.admitted_count

    def test_random_instances(self):
        rng = np.random.default_rng(32)
        counts = set()
        for i in range(300):
            n = int(rng.integers(1, 11))
            g = rng.choice([0.0, 0.05, 0.5, 3.0, 40.0, 900.0], size=n) if i % 2 else 10.0 ** rng.uniform(-2, 4, n)
            t = 10.0 ** (rng.choice([-5.0, 0.0, 5.0, 10.0, 15.0], size=n) / 10.0)
            counts.add(self.assert_both_match(np.sort(g)[::-1], t))  # zero and equal gains on odd i
        assert (0, 0) in counts and len(counts) >= 10  # nobody admitted, and many other outcomes

    @pytest.mark.parametrize(
        "gains,thresholds,counts",
        [
            ([50.0, 40.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], (2, 2)),  # zero gains end admission
            ([10.0, 9.0, 8.0, 0.0], [1.0, 1000.0, 1.0, 1.0], (1, 2)),  # the winner skips a blocker
            ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], (0, 0)),  # nobody has a gain
            ([1e-9, 1e-10], [100.0, 100.0], (0, 0)),  # nobody fits
            ([7.0], [3.0], (1, 1)),
        ],
    )
    def test_zero_gains_and_nobody_admitted(self, gains, thresholds, counts):
        assert self.assert_both_match(np.array(gains), np.array(thresholds)) == counts

    @pytest.mark.parametrize("users", [11, 12])
    def test_at_the_enumeration_cap(self, users):
        rng = np.random.default_rng(36 + users)
        gains = np.sort(10.0 ** rng.uniform(-1, 3, (6, users)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** (rng.choice([-5.0, 0.0, 5.0, 10.0], size=(6, users)) / 10.0)
        near = 1.0 + np.arange(users) * np.spacing(1.0)  # 1 ulp apart
        cases = [
            *zip(gains, thresholds),
            (np.full(users, 1e-3), np.full(users, 100.0)),  # nobody fits
            (np.full(users, 1e9), np.full(users, 0.1)),  # everybody fits
            (np.full(users, 8.0), near),  # three fit whichever three: rates tie
            (np.full(users, 7.0 + 8 * np.spacing(7.0)), near[::-1]),  # some triples fit, on the budget's last ulps
        ]
        counts = set()
        for g, t in cases:
            counts.add(self.assert_both_match(g, t)[1])
            _, _, winner = scan_subsets(g, t)
            self.assert_matches_reference(exhaustive_admit(AdmissionInstance(g, t)), g, t, winner)
        assert {0, 3, users} <= counts


class TestOptimalBatch:
    """The composition DP against the enumeration: counts exact, rates within 1e-12."""

    @staticmethod
    def assert_matches_enumeration(gains, thresholds):
        count, rate = _optimal_admit_batch(gains, thresholds)
        ref_count, ref_rate, _ = exhaustive_admit_batch(gains, thresholds)
        assert count.shape == rate.shape == ref_count.shape
        np.testing.assert_array_equal(count, ref_count)
        assert np.all(np.abs(rate - ref_rate) <= 1e-12)
        return count, rate

    def test_the_library_holds_no_enumeration(self):
        # the DP is the library's one exact search; the reference it is checked against does not call it
        assert not {"_members", "_subset_table", "_members_first", "_enumeration_pass"} & set(vars(admission))
        assert "_optimal_admit_batch" not in vars(enumeration_reference)

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

    def test_budget_edge_is_exact_without_enumeration(self):
        count, rate = self.assert_matches_enumeration([[2.0], [4.0]], [2.0])  # the first needs exactly the budget
        np.testing.assert_array_equal(count, [1, 1])
        assert rate[0] == rate[1] == math.log2(3.0)

    def test_twelve_user_budget_edge_matches_enumeration(self):
        rng = np.random.default_rng(27)
        gains = np.sort(10.0 ** rng.uniform(-1, 3, (200, 12)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** (rng.choice([5.0, 10.0, 15.0], size=(200, 12)) / 10.0)
        thresholds[:, 0] = gains[:, 0]  # the strongest user alone needs exactly the budget
        self.assert_matches_enumeration(gains, thresholds)

    def test_rounding_boundary_matches_enumeration(self):
        # the weakest of three users needs the power left within a few ulps,
        # so its admission turns on how the allocation rounds
        rng = np.random.default_rng(29)
        t = 10.0 ** rng.uniform(-1, 1.5, (2000, 3))
        g1 = 10.0 ** rng.uniform(2, 4, 2000)
        g2 = g1 * rng.uniform(0.5, 1.0, 2000)
        before = t[:, 0] / g1 + (t[:, 1] * (t[:, 0] / g1) + t[:, 1] / g2)  # the first two users' total
        g3 = t[:, 2] / (1.0 - before - t[:, 2] * before)
        g3 += rng.integers(-4, 5, 2000) * np.spacing(g3)
        gains = np.stack([g1, g2, g3], axis=-1)
        keep = (g3 > 0) & np.all(np.diff(gains, axis=-1) <= 0, axis=-1)
        count, _ = self.assert_matches_enumeration(gains[keep], t[keep])
        assert keep.sum() > 1000
        assert 300 < (count == 3).sum() < keep.sum() - 300  # both sides of the budget

    def test_large_aligned_pools_give_the_sequential_count(self):
        # targets never decrease along the gains, so the sequential count is
        # optimal; pools this large are far above the enumeration cap
        rng = np.random.default_rng(28)
        for users in (32, 48):
            gains = np.sort(10.0 ** rng.uniform(1, 5, (100, users)), axis=-1)[:, ::-1]
            thresholds = np.sort(10.0 ** (rng.choice([-10.0, -5.0, 0.0], size=(100, users)) / 10.0), axis=-1)
            start = time.perf_counter()
            count, _ = _optimal_admit_batch(gains, thresholds)
            assert time.perf_counter() - start < 2.0  # about 0.1 s; enumeration could not finish
            np.testing.assert_array_equal(count, _sequential_admit_batch(gains, thresholds)[0])
            assert 0 < count.min() and count.max() < users  # the budget binds inside the pool

    def test_distinct_targets_stay_within_the_pass_budget(self, monkeypatch):
        passes = []
        run_pass = admission._composition_pass

        def spy(t, cost, level, segments, budget):
            passes.append((len(cost), segments))
            return run_pass(t, cost, level, segments, budget)

        monkeypatch.setattr(admission, "_composition_pass", spy)
        rng = np.random.default_rng(24)
        gains = np.sort(10.0 ** rng.uniform(0, 3, (300, 8)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** rng.uniform(-1, 1, (300, 8))  # eight distinct targets per instance
        self.assert_matches_enumeration(gains, thresholds)
        assert len(passes) > 1
        for batch, segments in passes:
            assert segments == [(batch, (2,) * 8)]
            assert batch * 2**8 <= admission._PASS_STATES

    def test_each_segment_holds_one_canonical_shape(self, monkeypatch):
        passes = []
        run_pass = admission._composition_pass

        def spy(t, cost, level, segments, budget):
            passes.append((cost, level, segments))
            return run_pass(t, cost, level, segments, budget)

        monkeypatch.setattr(admission, "_composition_pass", spy)
        rng = np.random.default_rng(30)
        gains = np.sort(10.0 ** rng.uniform(-1, 3, (600, 12)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** (rng.choice([5.0, 10.0, 15.0], size=(600, 12)) / 10.0)
        count, _ = self.assert_matches_enumeration(gains, thresholds)
        assert 0 < count.min() and count.max() < 12
        # each instance's counts per distinct target, in ascending target order
        ordered = [np.unique(row, return_counts=True)[1] for row in thresholds]
        instance = {row.tobytes(): i for i, row in enumerate(thresholds / gains)}  # a cost row names its instance
        seen = []
        for cost, level, segments in passes:
            width = math.prod(segments[0][1])
            assert len(cost) == 1 or len(cost) * width <= admission._PASS_STATES
            assert segments[-1][0] == len(cost)
            start = 0
            for stop, dims in segments:
                assert start < stop and math.prod(dims) <= width  # a run of rows, no wider than the first
                rows = level[start:stop, :, None] == np.arange(len(dims))
                assert np.all(rows.sum(axis=1) + 1 == dims)  # relabelled levels
                for row in cost[start:stop]:
                    seen.append(instance[row.tobytes()])
                    own = np.sort(ordered[seen[-1]])[::-1] + 1  # sorted counts, plus one
                    assert tuple(own.tolist()) + (1,) * (len(dims) - len(own)) == dims
                start = stop
        assert sorted(seen) == list(range(len(gains)))  # every instance exactly once
        assert len(passes) < len({tuple(c.tolist()) for c in ordered})  # fewer than the ordered shapes
        # an oracle block of 50 instances runs in fewer passes than it has canonical shapes
        passes.clear()
        _optimal_admit_batch(gains[:50], thresholds[:50])
        shapes = {tuple(sorted(c.tolist())) for c in ordered[:50]}
        assert len(shapes) == sum(len(segments) for *_, segments in passes) > 2 * len(passes)

    def test_a_mixed_shape_pass_gives_each_row_its_own_results(self, monkeypatch):
        # 40 users over 1 to 5 target levels: shapes of 41 to about 59000 states, so passes mix shapes, pad
        # rows, and hold a row above the budget alone; some users have a zero gain (an inf cost)
        rng = np.random.default_rng(38)
        values = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        levels = np.repeat(np.arange(1, 6), [10, 10, 10, 6, 2])
        thresholds = values[rng.integers(0, levels[:, None], (len(levels), 40))]
        gains = np.sort(10.0 ** rng.uniform(0.5, 3, thresholds.shape), axis=-1)[:, ::-1]
        gains[::3, -5:] = 0.0
        with np.errstate(divide="ignore"):
            cost = thresholds / gains
        passes = []
        run_pass = admission._composition_pass

        def spy(t, cost, level, segments, budget):
            passes.append((t, cost, level, segments, budget, run_pass(t, cost, level, segments, budget)))
            return passes[-1][-1]

        monkeypatch.setattr(admission, "_composition_pass", spy)
        settings = [  # both walks, with settings where every row, no row and some rows are decided
            (np.array([np.inf, 0.5, 1e-300]), np.array([np.inf, 0.6, 1e-10]), True),
            (np.array([1e-300, 1.0, 1e300]), np.array([1e-10, 4.0, np.inf]), False),
        ]
        for below, above, budget in settings:
            passes.clear()
            got = admission._best_compositions(thresholds, cost, below, above, budget)
            assert any(len(p[3]) > 2 for p in passes)  # passes of several shapes
            assert any(len(p[0]) == 1 and math.prod(p[3][0][1]) > admission._PASS_STATES for p in passes)
            for t, c, level, segments, _, power in passes:  # each row's states as in a pass of its own
                start = 0
                for stop, dims in segments:
                    states = math.prod(dims)
                    for row in range(start, stop):
                        alone = run_pass(t[row : row + 1], c[row : row + 1], level[row : row + 1], [(1, dims)], budget)
                        assert power[row, :states].tobytes() == alone[0].tobytes()
                        assert np.all(power[row, states:] == np.inf)  # the padding is never written
                    start = stop
            for i in range(len(thresholds)):
                alone = admission._best_compositions(thresholds[i : i + 1], cost[i : i + 1], below, above, budget)
                for x, y in zip(got, alone):
                    assert x[i].tobytes() == y[0].tobytes()
            assert got[0].max() > 0 and got[2].any() and not got[2].all()

    def test_rates_add_up_in_ascending_target_order(self):
        # the DP's rate is 0.0 + sum_l c_l * log2(1 + v_l) over the winner's
        # composition, targets ascending, whatever order its pass gives the levels
        rng = np.random.default_rng(31)
        levels = 10.0 ** (np.array([5.0, 10.0, 15.0]) / 10.0)
        for users in (8, 10, 12):
            picks = rng.integers(0, 3, (90, users))
            picks[:20] = rng.permuted(np.tile(np.arange(users) % 3, (20, 1)), axis=1)  # 4/4/4 at 12 users
            picks[20:40] = rng.choice([0, 2], size=(20, users))  # lacks the middle level
            picks[40:60] = rng.integers(1, 3, (20, users))  # lacks the lowest level
            picks[60:70] = rng.integers(0, 3, (10, 1))  # one target for everyone
            thresholds = levels[picks]
            gains = np.sort(10.0 ** rng.uniform(1, 4, (90, users)), axis=-1)[:, ::-1]
            count, rate = self.assert_matches_enumeration(gains, thresholds)
            _, _, members = exhaustive_admit_batch(gains, thresholds)
            for i, (g, t) in enumerate(zip(gains, thresholds)):
                expected = 0.0
                for v in np.unique(t):
                    expected += int(np.sum(members[i] & (t == v))) * math.log2(1.0 + v)
                assert rate[i] == expected  # bit for bit
                alone = _optimal_admit_batch(g, t)
                assert (alone[0], alone[1]) == (count[i], rate[i])
            assert 2 < np.median(count) and count.max() < users  # most winners add three or more terms

    @pytest.mark.parametrize("gains,thresholds", MALFORMED_BATCHES)
    def test_rejects_malformed_input(self, gains, thresholds):
        with pytest.raises(ValueError):
            _optimal_admit_batch(np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float))

    @pytest.mark.parametrize("shape", [(0, 8), (3, 0, 5)])
    def test_empty_stack_gives_empty_arrays(self, shape):
        # as the sequential kernel does: nothing to walk, nothing to reduce
        count, rate = _optimal_admit_batch(np.zeros(shape), 2.0)
        ref_count, ref_rate = _sequential_admit_batch(np.zeros(shape), 2.0)
        assert count.shape == rate.shape == ref_count.shape == shape[:-1]
        assert (count.dtype, rate.dtype) == (ref_count.dtype, ref_rate.dtype)


def least_walks(gains, thresholds) -> dict:
    """Each composition's least power-free walk ``T <- T + (t*T + t/g)`` over
    the subsets of one instance's positive-gain users, by plain scan."""
    least: dict = {}
    users = [k for k in range(len(gains)) if gains[k] > 0]
    for size in range(1, len(users) + 1):
        for combo in itertools.combinations(users, size):
            total = 0.0
            for k in combo:
                t = float(thresholds[k])
                total = total + (t * total + t / float(gains[k]))
            key = tuple(sorted(float(thresholds[k]) for k in combo))
            least[key] = min(least.get(key, math.inf), total)
    return least


@st.composite
def scaled_batches(draw):
    """Batches of 1-8-user instances with 1-4 target levels, power-free gains
    from 1e-3 to 1e4 (zero too), and 1-5 power scales, one of them within a
    few ulps of some composition's least power-free walk."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    levels = np.array(draw(st.lists(st.floats(0.05, 50.0), min_size=1, max_size=4)))
    pool = np.array(draw(st.lists(st.just(0.0) | st.floats(1e-3, 1e4), min_size=1, max_size=6)))
    gains = np.sort(pool[draw(picks(shape, len(pool)))], axis=-1)[:, ::-1]
    thresholds = levels[draw(picks(shape, len(levels)))]
    rho = draw(st.lists(st.floats(1e-4, 1e6), min_size=1, max_size=4))
    walks = sorted(least_walks(gains[0], thresholds[0]).values())
    if walks:
        edge = walks[draw(st.integers(0, len(walks) - 1))]
        ulps = draw(st.integers(-8, 8))
        for _ in range(abs(ulps)):
            edge = np.nextafter(edge, math.copysign(math.inf, ulps))
        rho.insert(draw(st.integers(0, len(rho))), float(edge))
    return gains, thresholds, np.array(rho)


class TestOptimalPowers:
    """One power-free walk per instance against the composition DP at each power, bit for bit."""

    @staticmethod
    def assert_matches_each_power(gains, thresholds, rho):
        count, rate = _optimal_admit_powers(gains, thresholds, rho)
        batch = np.broadcast_shapes(np.shape(gains), np.shape(thresholds))[:-1]
        assert count.shape == rate.shape == batch + (len(rho),)
        for k, r in enumerate(rho):
            ref_count, ref_rate = _optimal_admit_batch(r * np.asarray(gains), thresholds)
            np.testing.assert_array_equal(count[..., k], ref_count)
            assert rate[..., k].tobytes() == ref_rate.tobytes()

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """Instances that `_optimal_admit_powers` hands to the one-power DP."""
        calls = []

        def spy(gains, thresholds):
            calls.append(len(gains))
            return _optimal_admit_batch(gains, thresholds)

        monkeypatch.setattr(admission, "_optimal_admit_batch", spy)
        return calls

    @given(scaled_batches())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_dp_at_every_power(self, batch):
        self.assert_matches_each_power(*batch)

    def test_oracle_draws_need_no_fallback(self, fallbacks):
        rng = np.random.default_rng(33)
        gains = np.sort(10.0 ** rng.uniform(-15, -11, (100, 12)), axis=-1)[:, ::-1]
        thresholds = 10.0 ** (rng.choice([5.0, 10.0, 15.0], size=(100, 12)) / 10.0)
        rho = 10.0 ** np.arange(13.0, 15.1, 0.5)
        self.assert_matches_each_power(gains, thresholds, rho)
        assert fallbacks == []

    def test_broadcast_batch_axes(self):
        # trials x targets, one target per instance, as the equal-target oracle stacks them
        rng = np.random.default_rng(34)
        eff = np.sort(rng.exponential(size=(6, 5)), axis=-1)[:, ::-1]
        self.assert_matches_each_power(eff[:, None, :], np.array([1.0, 3.0, 10.0])[:, None], np.array([1.0, 10.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edge_and_out_of_range_instances_fall_back(self, fallbacks):
        one = np.array([[2.0, 1.0]])
        # the first user needs exactly the budget at scale 1: inside the margin
        self.assert_matches_each_power(one, np.array([2.0, 1e3]), np.array([1.0, 4.0]))
        assert fallbacks == [1]
        # a cost of 1e-310 is subnormal: the power-free walk leaves the normal range
        self.assert_matches_each_power(np.array([[1e300, 1e299]]), np.array([1e-10, 1.0]), np.array([1e-300, 1e-298]))
        assert fallbacks == [1, 2]
        # 40 targets of 1e9 would overflow the power-free walk
        gains = np.sort(10.0 ** np.linspace(8, 12, 40))[None, ::-1]
        self.assert_matches_each_power(gains, np.full(40, 1e9), np.array([1.0, 1e3]))
        assert fallbacks == [1, 2, 2]
        # scaled gains below the normal range at the lower scale only
        self.assert_matches_each_power(np.array([[1e-300, 1e-301]]), 1.0, np.array([1e-10, 1e305]))
        assert fallbacks == [1, 2, 2, 1]

    @pytest.mark.parametrize("gains,thresholds", MALFORMED_BATCHES)
    def test_rejects_malformed_input(self, gains, thresholds):
        with pytest.raises(ValueError):
            _optimal_admit_powers(np.asarray(gains, dtype=float), np.asarray(thresholds, dtype=float), [1.0])

    def test_a_pass_flags_only_its_rows_between_the_bounds(self, monkeypatch):
        # one user of cost c, then a zero-gain one (cost inf): the walk's least totals are 0, c and inf, so a
        # row is undecided in a setting exactly when below <= c <= above. Rows 0-1 hold one target (3 states)
        # and rows 2-3 two (4 states), so one pass holds both shapes, the first pair's rows padded by a column,
        # with undecided and decided rows of each shape in both settings
        t = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 3.0], [1.0, 3.0]])
        cost = np.array([[0.5, 2.0, 1.0, 3.0], [math.inf] * 4]).T
        below, above = np.array([1.0, 2.5]), np.array([2.0, 4.0])
        passes, run_pass = [], admission._composition_pass
        monkeypatch.setattr(admission, "_composition_pass", lambda *a: passes.append(a[3]) or run_pass(*a))
        count, rate, undecided = admission._best_compositions(t, cost, below, above, budget=False)
        assert passes == [[(2, (2, 2)), (4, (3, 1))]]
        np.testing.assert_array_equal(undecided, [[False, False], [True, False], [True, False], [False, True]])
        np.testing.assert_array_equal(count, [[1, 1], [0, 1], [0, 1], [0, 0]])
        np.testing.assert_array_equal(rate, count * 1.0)  # log2(1 + 1)
        assert not admission._best_compositions(t, cost, below, budget=False)[2].any()  # no upper bound given

    def test_empty_stack_gives_one_empty_column_per_power(self):
        count, rate = _optimal_admit_powers(np.zeros((0, 8)), 2.0, [1.0, 10.0, 100.0])
        assert count.shape == rate.shape == (0, 3)
        assert count.dtype.kind == "i" and rate.dtype == float


class TestOptimalityCondition:
    def test_textbook_counterexample_fails_the_condition(self):
        # the third user's steep target blocks the sequential scan while the
        # cheap fourth user still fits; clauses (a) and (b) hold, but the first
        # rejected user's target is above a later one's, so (c) does not
        inst = AdmissionInstance.from_db([1000.0, 500.0, 30.0, 25.0], [5.0, 5.0, 15.0, 5.0])
        greedy = greedy_admit(inst)
        best = exhaustive_admit(inst)
        assert greedy.admitted_count == 2
        assert best.admitted_count == 3
        assert not greedy_optimality_condition(inst.gains, inst.sinr_thresholds, greedy.admitted_count)
        np.testing.assert_allclose(
            best.power_coefficients,
            [0.003162, 0.016325, 0.0, 0.188114],
            atol=5e-7,
        )

    def test_it_implies_the_optimal_count(self):
        # five target levels, so blocking users and target ties are common
        rng = np.random.default_rng(31)
        hits = 0
        for n in range(2, 9):
            gains = np.sort(10.0 ** rng.uniform(-1, 3, (1000, n)), axis=-1)[:, ::-1]
            thresholds = 10.0 ** (rng.choice([0.0, 3.0, 5.0, 10.0, 15.0], size=(1000, n)) / 10.0)
            count, _ = _sequential_admit_batch(gains, thresholds)
            best, _ = _optimal_admit_batch(gains, thresholds)
            hit = greedy_optimality_condition(gains, thresholds, count) & (count < n)
            np.testing.assert_array_equal(count[hit], best[hit])
            hits += hit.sum()
        assert hits >= 500

    @given(small_batches())
    @settings(max_examples=200, deadline=None)
    def test_stacked_form_matches_a_per_instance_reading(self, batch):
        gains, thresholds = batch
        for counts in (_sequential_admit_batch(gains, thresholds)[0], np.arange(len(gains)) % (gains.shape[1] + 1)):
            condition = greedy_optimality_condition(gains, thresholds, counts)
            assert condition.shape == counts.shape
            for g, t, k, holds in zip(gains, thresholds, counts, condition):
                assert holds == condition_by_slices(g, t, k)

    def test_equal_targets_always_satisfy_it(self):
        rng = np.random.default_rng(6)
        for n in range(2, 9):
            gains = np.sort(10.0 ** rng.uniform(-1, 3, (20, n)), axis=-1)[:, ::-1]
            count, _ = _sequential_admit_batch(gains, 10.0)
            assert np.all(greedy_optimality_condition(gains, 10.0, count))

    def test_decreasing_cost_ratio_fails_it(self):
        assert not greedy_optimality_condition([10.0, 9.0], [10.0, 1.0], 2)

    def test_admitted_target_above_rejected_target_fails_it(self):
        assert not greedy_optimality_condition([10.0, 9.0, 8.0], [1.0, 5.0, 1.0], 2)

    @pytest.mark.parametrize("count", [-1, 5, 0.5, [1, 3]])
    def test_count_validation(self, count):
        with pytest.raises(ValueError, match="count"):
            greedy_optimality_condition([[10.0, 9.0], [8.0, 7.0]], [1.0, 1.0], count)

    @pytest.mark.parametrize("gains,thresholds", MALFORMED_BATCHES)
    def test_rejects_malformed_input(self, gains, thresholds):
        with pytest.raises(ValueError, match="gains|sinr_thresholds"):
            greedy_optimality_condition(gains, thresholds, np.zeros(np.shape(gains)[:-1], dtype=int))


class TestAlignedThresholds:
    def test_detects_alignment(self):
        assert aligned_thresholds([1.0, 2.0])
        assert aligned_thresholds([2.0, 2.0])
        assert not aligned_thresholds([2.0, 1.0])
        np.testing.assert_array_equal(aligned_thresholds([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]), [True, False, True])

    @pytest.mark.parametrize("thresholds", [[1.0, 0.0], [np.nan, 1.0], [], 1.0])
    def test_rejects_malformed_targets(self, thresholds):
        with pytest.raises(ValueError):
            aligned_thresholds(thresholds)

    @given(small_batches(min_users=2))
    @settings(max_examples=100, deadline=None)
    def test_aligned_targets_give_the_optimal_count(self, batch):
        gains, thresholds = batch[0], np.sort(batch[1], axis=-1)  # targets never decrease along the gains
        count, _ = _sequential_admit_batch(gains, thresholds)
        best, _ = _optimal_admit_batch(gains, thresholds)
        np.testing.assert_array_equal(count, best)

    def test_aligned_instances_make_sequential_count_optimal(self):
        # targets sorted to never decrease along the scan: enumeration can
        # then never beat the sequential count
        rng = np.random.default_rng(21)
        by_size = {}
        for _ in range(300):
            n = int(rng.integers(2, 9))
            g = np.sort(10.0 ** rng.uniform(-1, 4, n))[::-1]
            t_db = np.sort(rng.choice([5.0, 10.0, 15.0], size=n))
            inst = AdmissionInstance.from_db(g, t_db)
            assert aligned_thresholds(inst.sinr_thresholds)
            by_size.setdefault(n, []).append(inst)
        for instances in by_size.values():  # one batch per pool size
            gains = np.stack([inst.gains for inst in instances])
            thresholds = np.stack([inst.sinr_thresholds for inst in instances])
            count, _ = _sequential_admit_batch(gains, thresholds)
            np.testing.assert_array_equal(count, exhaustive_admit_batch(gains, thresholds)[0])
