"""Rate formulas, bounds, the gap maximizer, and the size-change decomposition."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from nomasim import (
    cluster_size_rate_delta,
    extend_split,
    jain_index,
    noma_sum_rate,
    noma_user_rates,
    oma_sum_rate,
    oma_sum_upper_bound,
    oma_user_rates,
    optimal_dof_fractions,
    sic_feasibility_check,
    two_user_gap,
    two_user_gap_maximizer,
)
from nomasim.experiments import _fairness, _scheme_rows
from nomasim.rates import _columns, _optimal_oma_columns, _sum_users


def random_instance(rng, size):
    g = np.sort(10.0 ** rng.uniform(-1, 3, size))[::-1]
    w = rng.dirichlet(np.ones(size))
    return g, w


# reusable hypothesis strategy: a few gains with wide dynamic range
gains_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False), min_size=2, max_size=6
).map(lambda xs: np.sort(np.asarray(xs))[::-1])


def descending_pairs(smallest):
    """Two distinct gains in [smallest, 1e6], the stronger first."""
    pair = st.lists(st.floats(smallest, 1e6), min_size=2, max_size=2, unique=True)
    return pair.map(lambda xs: np.sort(np.asarray(xs))[::-1])


@st.composite
def stacked_instances(draw, max_users=6, max_gain=1e6):
    """A stack of 1-6 instances of one size: descending gains, full-budget splits."""
    users = draw(st.integers(2, max_users))
    batch = draw(st.integers(1, 6))
    gains = draw(hnp.arrays(float, (batch, users), elements=st.floats(1e-3, max_gain)))
    # tiny raw shares make tiny earlier shares, where a running total cancels
    raw = draw(hnp.arrays(float, (batch, users), elements=st.one_of(st.just(1e-12), st.floats(1e-3, 1.0))))
    return np.sort(gains, axis=-1)[:, ::-1], raw / raw.sum(axis=-1, keepdims=True)


@st.composite
def instances_with_zeros(draw):
    """:func:`stacked_instances` of 2-7 users with some gains and shares set to zero."""
    g, w = draw(stacked_instances(max_users=7))
    zero_gains, zero_shares = draw(hnp.arrays(bool, g.shape)), draw(hnp.arrays(bool, w.shape))
    return np.sort(np.where(zero_gains, 0.0, g), axis=-1)[:, ::-1], np.where(zero_shares, 0.0, w)


def stacked_dof_fractions(g, w):
    """The optimal shares as one stacked array, the form the sweeps built before the per-user kernel."""
    p = np.multiply(w, g)
    total = p.sum(axis=-1)
    lam = p / np.where(total > 0, total, 1.0)[..., None]
    lam[~(total > 0)] = 1.0 / g.shape[-1]
    return lam


class TestSplitTypes:
    @pytest.mark.parametrize("bad", [[-0.1, 0.5], [0.8, 0.8], [1.2], []])
    def test_extend_split_rejects_bad_shares(self, bad):
        with pytest.raises(ValueError):
            extend_split(bad, 0.5)


class TestSuperpositionRates:
    def test_single_user_full_power(self):
        assert noma_user_rates([321.0, 1.0], [1.0, 0.0])[0] == pytest.approx(math.log2(322.0))

    def test_zero_share_zero_rate(self):
        assert noma_user_rates([10.0, 5.0], [1.0, 0.0])[1] == 0.0

    def test_second_user_sees_first_as_interference(self):
        # w*g/(1 + g*w_prev) = 0.5/1.5 with unit gain
        assert noma_user_rates([4.0, 1.0], [0.5, 0.5])[1] == pytest.approx(math.log2(4.0 / 3.0))

    def test_sum_is_total_of_users(self):
        g = np.array([50.0, 8.0, 2.0])
        w = np.array([0.1, 0.3, 0.6])
        assert noma_sum_rate(g, w) == pytest.approx(noma_user_rates(g, w).sum())

    @given(gains_strategy, st.data())
    @settings(max_examples=60, deadline=None)
    def test_sum_rate_never_below_single_stream_bound(self, g, data):
        w = np.asarray(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=g.size, max_size=g.size)))
        total = w.sum()
        if total == 0:
            w = np.full(g.size, 1.0 / g.size)
        else:
            w = w / total
        assert noma_sum_rate(g, w) >= np.log2(1.0 + (w * g).sum()) - 1e-9


class TestOrthogonalRates:
    def test_zero_fraction_contributes_nothing(self):
        rates = oma_user_rates([9.0, 9.0], [0.5, 0.5], [1.0, 0.0])
        assert rates[1] == 0.0

    def test_full_fraction_matches_superposed_single_user(self):
        g = [33.0, 1.0]
        assert oma_user_rates(g, [1.0, 0.0], [1.0, 0.0])[0] == pytest.approx(
            noma_user_rates(g, [1.0, 0.0])[0]
        )

    def test_half_fraction_direct_value(self):
        # 0.5*log2(1 + 3/0.5)
        rates = oma_user_rates([6.0, 6.0], [0.5, 0.5], [0.5, 0.5])
        assert rates[0] == pytest.approx(0.5 * math.log2(7.0))

    def test_optimal_fractions_follow_received_power(self):
        lam = optimal_dof_fractions([10.0, 5.0], [1.0 / 3.0, 2.0 / 3.0])
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-12)
        lam = optimal_dof_fractions([10.0, 5.0], [1.0, 0.0])
        np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-12)

    def test_all_zero_power_gives_uniform_fractions(self):
        lam = optimal_dof_fractions([10.0, 5.0], [0.0, 0.0])
        np.testing.assert_allclose(lam, [0.5, 0.5])

    def test_zero_power_rows_of_a_stack_are_uniform(self):
        g = np.array([[[10.0, 5.0, 1.0], [0.0, 0.0, 0.0]], [[4.0, 2.0, 0.0], [4.0, 4.0, 4.0]]])
        w = np.array([[[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]], [[0.0, 0.0, 1.0], [0.5, 0.25, 0.25]]])
        lam = optimal_dof_fractions(g, w)
        np.testing.assert_array_equal(lam[0, 1], [1 / 3] * 3)
        np.testing.assert_array_equal(lam[1, 0], [1 / 3] * 3)
        np.testing.assert_array_equal(lam[0, 0], np.array([2.0, 1.5, 0.5]) / 4.0)
        np.testing.assert_array_equal(lam[1, 1], [0.5, 0.25, 0.25])
        for index in np.ndindex(g.shape[:-1]):
            np.testing.assert_array_equal(lam[index], optimal_dof_fractions(g[index], w[index]))

    def test_optimal_fractions_attain_the_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g, w = random_instance(rng, 4)
            bound = oma_sum_upper_bound(g, w)
            attained = oma_sum_rate(g, w, optimal_dof_fractions(g, w))
            assert attained == pytest.approx(bound, abs=1e-9)
            sampled = oma_sum_rate(g, w, rng.dirichlet(np.ones(4), size=2000))
            assert sampled.max() <= bound + 1e-9

    def test_bound_zero_when_gains_vanish(self):
        assert oma_sum_upper_bound([0.0, 0.0], [0.5, 0.5]) == 0.0


class TestSicFeasibility:
    @given(stacked_instances())
    @settings(max_examples=100, deadline=None)
    def test_sorted_gains_always_feasible(self, instance):
        g, w = instance
        report = sic_feasibility_check(g, w)
        assert report.feasible.shape == (len(g),) and report.feasible.all()
        singles = [sic_feasibility_check(gi, wi) for gi, wi in zip(g, w)]  # a stack equals its rows
        assert all(single.feasible is True for single in singles)
        np.testing.assert_array_equal(report.margins, [single.margins for single in singles])

    def test_reversed_gains_can_break_decoding(self):
        report = sic_feasibility_check([0.5, 5.0], [0.2, 0.8])
        assert not report.feasible
        assert np.nanmin(report.margins) < 0

    def test_equal_gains_make_margins_vanish(self):
        report = sic_feasibility_check([3.0, 3.0, 3.0], [0.2, 0.3, 0.5])
        finite = report.margins[np.isfinite(report.margins)]
        np.testing.assert_allclose(finite, 0.0, atol=1e-12)
        assert report.feasible

    def test_margin_layout_is_strict_upper_triangle(self):
        report = sic_feasibility_check([9.0, 3.0], [0.4, 0.6])
        assert np.isnan(report.margins[1, 0]) and np.isnan(report.margins[0, 0])
        assert np.isfinite(report.margins[0, 1])


class TestTwoUserGap:
    def test_vanishes_at_split_edges(self):
        g = np.array([50.0, 3.0])
        assert two_user_gap(g, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert two_user_gap(g, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_between_edges(self):
        assert two_user_gap(np.array([50.0, 3.0]), 0.3) > 0

    def test_maximizer_reference_values(self):
        assert two_user_gap_maximizer(321.0) == pytest.approx(0.053, abs=1e-3)
        assert two_user_gap_maximizer(3.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert two_user_gap_maximizer(1e-8) == pytest.approx(0.5, abs=1e-4)

    def test_maximizer_stays_below_half(self):
        x = 10.0 ** np.linspace(-6, 8, 50)
        out = two_user_gap_maximizer(x)
        assert np.all((out > 0) & (out < 0.5))

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf])
    def test_maximizer_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            two_user_gap_maximizer(bad)

    def test_grid_argmax_matches_closed_form(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(0.0, 1.0, 10001)
        for _ in range(25):
            g = np.sort(10.0 ** rng.uniform(-1, 3, 2))[::-1]
            gaps = two_user_gap(g, grid)
            assert abs(grid[np.argmax(gaps)] - two_user_gap_maximizer(g[0])) <= grid[1]


    @given(pair=descending_pairs(1e-12), omega1=st.floats(0.0, 1.0))
    def test_non_negative_and_exactly_zero_at_the_edges(self, pair, omega1):
        assert two_user_gap(pair, omega1) >= 0
        assert two_user_gap(pair, 0.0) == 0.0 and two_user_gap(pair, 1.0) == 0.0

    @given(pair=descending_pairs(1e-1), omega1=st.floats(0.0, 1.0))
    def test_equals_the_superposed_sum_minus_the_orthogonal_bound(self, pair, omega1):
        split = np.array([omega1, 1.0 - omega1])
        direct = noma_sum_rate(pair, split) - oma_sum_upper_bound(pair, split)
        assert two_user_gap(pair, omega1) == pytest.approx(direct, abs=1e-12)

    @settings(deadline=None)
    @example(pair=np.array([3e-12, 1e-12]))
    @given(pair=descending_pairs(1e-12))
    def test_grid_argmax_is_within_one_step_down_to_tiny_gains(self, pair):
        # log2(1 + z) rounds to about 1e-16, which at these gains hides the
        # gap's curvature near its peak
        grid = np.linspace(0.0, 1.0, 10001)
        at = grid[np.argmax(two_user_gap(pair, grid))]
        assert abs(at - two_user_gap_maximizer(pair[0])) <= grid[1]


class TestClusterGrowth:
    def test_extend_split_scales_then_appends(self):
        out = extend_split([0.2, 0.8], 1.0 / 3.0)
        np.testing.assert_allclose(out, [0.2 * 2 / 3, 0.8 * 2 / 3, 1.0 / 3.0], rtol=1e-12)
        # a partial budget (an admission outcome) is accepted and its total kept
        np.testing.assert_allclose(extend_split([0.2, 0.3], 0.5), [0.1, 0.15, 0.25], rtol=1e-12)

    def test_extend_split_fraction_bounds(self):
        with pytest.raises(ValueError):
            extend_split([1.0], 1.5)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_extend_split_of_stacked_splits_is_each_splits(self, k):
        rng = np.random.default_rng(k)
        w, f = rng.dirichlet(np.ones(k), size=40), rng.uniform(size=40)
        each = lambda fractions: np.array([np.append(s * (1.0 - x), x * s.sum()) for s, x in zip(w, fractions)])
        for fractions in (f, np.full(40, 0.25)):
            assert extend_split(w, fractions).tobytes() == each(fractions).tobytes()
        assert extend_split(w, 0.25).tobytes() == each(np.full(40, 0.25)).tobytes()
        assert extend_split(w[0], f[0]).tobytes() == each(f)[0].tobytes()

    @pytest.mark.parametrize(
        "split,fraction",
        [
            ([[0.5, 0.5], [0.2, 0.8]], [0.3, 1.5]),
            ([[0.5, 0.5], [0.2, 0.8]], [0.3, math.nan]),
            ([[0.5, 0.5], [0.8, 0.8]], 0.5),
            ([[0.5, 0.5], [0.5, -0.5]], 0.5),
            ([[0.5, 0.5], [0.5, math.nan]], [0.3, 0.2]),
            (np.zeros((2, 0)), 0.5),
            (0.5, 0.5),
        ],
    )
    def test_extend_split_rejects_bad_stacked_input(self, split, fraction):
        with pytest.raises(ValueError):
            extend_split(split, fraction)

    def test_equal_gains_leave_rate_unchanged(self):
        d = cluster_size_rate_delta([2.0, 2.0, 2.0], [0.4, 0.6], extend_split([0.4, 0.6], 0.25))
        assert d.delta == pytest.approx(0.0, abs=1e-12)
        for f in (d.head_factor, d.chain_factor, d.tail_factor):
            assert f == pytest.approx(1.0, rel=1e-12)

    def test_single_user_base_case(self):
        d = cluster_size_rate_delta([5.0, 1.0], [1.0], extend_split([1.0], 0.3))
        assert d.head_factor == 1.0 and d.chain_factor == 1.0
        assert d.delta <= 1e-12

    def test_tiny_earlier_share_leaves_the_delta_at_rounding(self):
        # a running total minus the later share, (1e-12 + w) - w, keeps only
        # a few ulps of 1e-12 and gave delta 1.00009e-12 here
        d = cluster_size_rate_delta([31319.0, 31319.0], [1.0], [1e-12, 1.0 - 1e-12])
        assert abs(d.delta) <= 1e-14

    @given(stacked_instances(max_gain=1e6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_growth_never_helps_under_domination(self, instance, data):
        g, w = instance  # the first users - 1 shares, renormalized, split the smaller cluster
        small = w[:, :-1] / w[:, :-1].sum(axis=-1, keepdims=True)
        kept = small * data.draw(hnp.arrays(float, small.shape, elements=st.floats(0.0, 1.0)))  # per user
        larger = np.concatenate([kept, 1.0 - kept.sum(axis=-1, keepdims=True)], axis=-1)
        d = cluster_size_rate_delta(g, small, larger)
        assert np.all(d.delta <= 1e-12)
        assert np.all(np.maximum(np.maximum(d.head_factor, d.chain_factor), d.tail_factor) <= 1 + 1e-12)
        assert np.all(np.abs(d.delta - d.delta_factored) <= 1e-9)
        singles = [cluster_size_rate_delta(*row) for row in zip(g, small, larger)]  # a stack equals its rows
        for name, stacked in dataclasses.asdict(d).items():
            assert all(type(getattr(single, name)) is float for single in singles)
            np.testing.assert_array_equal(stacked, [getattr(single, name) for single in singles])

    def test_raising_an_existing_share_is_rejected(self):
        with pytest.raises(ValueError):
            cluster_size_rate_delta([4.0, 2.0, 1.0], [0.5, 0.5], [0.6, 0.2, 0.2])

    def test_split_lengths_must_differ_by_one(self):
        with pytest.raises(ValueError):
            cluster_size_rate_delta([4.0, 2.0], [0.5, 0.5], [0.3, 0.3, 0.4])


class TestDominance:
    @given(gains_strategy, st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_superposition_beats_best_orthogonal_split(self, g, seed):
        w = np.random.default_rng(seed).dirichlet(np.ones(g.size))
        noma = noma_sum_rate(g, w)
        oma = oma_sum_rate(g, w, optimal_dof_fractions(g, w))
        assert noma >= oma - 1e-9


class TestJainIndex:
    def test_equal_rates_hit_one(self):
        assert jain_index([2.5, 2.5, 2.5]) == pytest.approx(1.0, rel=1e-12)

    def test_single_active_user_hits_floor(self):
        assert jain_index([0.0, 0.0, 7.0]) == pytest.approx(1.0 / 3.0)

    def test_direct_value(self):
        assert jain_index([1.0, 3.0]) == pytest.approx(0.8)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            jain_index([0.0, 0.0])

    def test_stacked_rows_match_one_vector_at_a_time(self):
        rates = np.array([[2.5, 2.5, 2.5], [0.0, 0.0, 7.0], [1.0, 3.0, 0.5]])
        np.testing.assert_array_equal(jain_index(rates), [jain_index(r) for r in rates])
        with pytest.raises(ValueError):
            jain_index(np.array([[1.0, 3.0], [0.0, 0.0]]))

    def test_equalizing_split_reaches_one(self):
        # bisect the two-user split until both rates match, fairness peaks there
        g = np.array([8.0, 2.0])
        lo, hi = 0.0, 1.0
        for _ in range(80):
            w1 = (lo + hi) / 2
            r = noma_user_rates(g, [w1, 1 - w1])
            lo, hi = (w1, hi) if r[0] < r[1] else (lo, w1)
        assert jain_index(noma_user_rates(g, [w1, 1 - w1])) == pytest.approx(1.0, abs=1e-9)


class TestBatchedKernels:
    @given(stacked_instances(max_users=7))
    @settings(max_examples=60, deadline=None)
    def test_rates_equal_whole_array_expressions_and_single_calls(self, instance):
        # the per-user loops do the whole-array IEEE operations, below 8 users
        g, w = instance
        earlier = np.concatenate([np.zeros_like(w[..., :1]), np.cumsum(w[..., :-1], axis=-1)], axis=-1)
        rates = np.log2(1.0 + w * g / (1.0 + g * earlier))
        np.testing.assert_array_equal(noma_user_rates(g, w), rates)
        np.testing.assert_array_equal(noma_sum_rate(g, w), rates.sum(axis=-1))
        p = w * g
        np.testing.assert_array_equal(optimal_dof_fractions(g, w), p / p.sum(axis=-1, keepdims=True))
        np.testing.assert_array_equal(oma_sum_upper_bound(g, w), np.log2(1.0 + p.sum(axis=-1)))
        lam = np.flip(w, axis=-1)
        oma = lam * np.log2(1.0 + w * g / lam)
        np.testing.assert_array_equal(oma_user_rates(g, w, lam), oma)
        np.testing.assert_array_equal(oma_sum_rate(g, w, lam), oma.sum(axis=-1))
        for fn in (noma_sum_rate, noma_user_rates, optimal_dof_fractions, oma_sum_upper_bound):
            np.testing.assert_array_equal(fn(g, w), [fn(gi, wi) for gi, wi in zip(g, w)])

    @given(instances_with_zeros())
    @example((np.array([[4.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.5, 0.5]])))  # all-zero totals
    @settings(max_examples=80, deadline=None)
    def test_optimal_share_kernel_equals_the_stacked_path(self, instance):
        g, w = instance
        lam = optimal_dof_fractions(g, w)
        np.testing.assert_array_equal(lam, stacked_dof_fractions(g, w))
        columns = _optimal_oma_columns(*_columns(g, w))
        np.testing.assert_array_equal(np.stack(columns, axis=-1), oma_user_rates(g, w, lam))
        np.testing.assert_array_equal(_sum_users(columns), oma_sum_rate(g, w, lam))
        pairs = [(g, w), (g[..., :2], w[..., :2])]
        rates = []
        for gk, wk in pairs:
            rates += [noma_user_rates(gk, wk), oma_user_rates(gk, wk, optimal_dof_fractions(gk, wk))]
        sums = np.stack([r.sum(axis=-1) for r in rates], axis=1)
        np.testing.assert_array_equal(_scheme_rows(pairs, _sum_users), sums)
        if all(np.any(r > 0, axis=-1).all() for r in rates):
            jain = np.stack([jain_index(r) for r in rates], axis=1)
            np.testing.assert_array_equal(_scheme_rows(pairs, _fairness), jain)
        else:
            with pytest.raises(ValueError, match="every rate rounds to 0"):
                _scheme_rows(pairs, _fairness)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "fn,args,message",
        [
            (noma_user_rates, ([2.0, 1.0], [1.0]), "same number of users"),
            (oma_user_rates, ([2.0, 1.0], [0.5, 0.5], [1.0]), "one entry per user"),
            (two_user_gap, ([3.0, 2.0, 1.0], 0.5), "exactly two gains"),
            (two_user_gap, ([2.0, 1.0], 1.5), "omega1 must lie in"),
            (cluster_size_rate_delta, ([1.0, 2.0, 0.5], [0.5, 0.5], [0.4, 0.4, 0.2]), "non-increasing"),
            (cluster_size_rate_delta, ([4.0, 2.0, -1.0], [0.5, 0.5], [0.4, 0.4, 0.2]), "non-negative"),
            (cluster_size_rate_delta, ([4.0, 2.0, 1.0], [0.5, 0.4], [0.4, 0.4, 0.2]), "full power budget"),
            (jain_index, ([],), "non-empty"),
            (jain_index, (3.0,), "non-empty"),
            (jain_index, ([1.0, -0.5],), "rates must be non-negative"),
            (two_user_gap, ([-2.0, 1.0], 0.5), "gains must be finite and non-negative"),
            (two_user_gap, ([[2.0, 1.0], [2.0, -1.0]], 0.5), "gains must be finite and non-negative"),
            # every rate function rejects negative gains and shares, and DoF fractions past the orthogonal budget
            (noma_user_rates, ([2.0, 1.0], [1.5, -0.5]), "non-negative"),
            (noma_user_rates, ([2.0, -0.4], [0.5, 0.5]), "non-negative"),
            (noma_sum_rate, ([2.0, 1.0], [1.5, -0.5]), "non-negative"),
            (noma_sum_rate, ([2.0, -0.4], [0.5, 0.5]), "non-negative"),
            (noma_sum_rate, ([[2.0, 1.0], [2.0, 1.0]], [[0.5, 0.5], [1.5, -0.5]]), "non-negative"),
            (oma_sum_upper_bound, ([2.0, -4.0], [0.5, 0.5]), "non-negative"),
            (optimal_dof_fractions, ([2.0, -4.0], [0.5, 0.5]), "non-negative"),
            (sic_feasibility_check, ([2.0, -1.0], [0.5, 0.5]), "non-negative"),
            (sic_feasibility_check, ([[2.0, 1.0], [-2.0, -3.0]], [[0.5, 0.5], [0.5, 0.5]]), "non-negative"),
            (oma_user_rates, ([2.0, 1.0], [0.5, 0.5], [-0.5, 1.5]), "non-negative"),
            (oma_sum_rate, ([2.0, 1.0], [0.5, 0.5], [0.9, 0.9]), "sum to at most 1"),
            (cluster_size_rate_delta, ([4.0, 2.0, 1.0], [1.5, -0.5], [1.5, -0.5, 0.0]), "non-negative"),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_rejected_with_a_message(self, fn, args, message):
        with pytest.raises(ValueError, match=message):
            fn(*args)

    def test_rounding_below_zero_and_above_the_budget_passes(self):
        # a share of 1 - sum can round just below 0, and DoF fractions can sum just above 1
        w = [1.0 + 1e-13, -1e-13]
        assert abs(noma_sum_rate([2.0, 1.0], w) - math.log2(3.0)) < 1e-12
        assert sic_feasibility_check([2.0, 1.0], w).feasible
        assert oma_sum_rate([2.0, 1.0], [0.5, 0.5], [0.5 + 1e-13, 0.5]) > 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_gains_and_shares_must_be_finite(self, bad):
        calls = [
            (sic_feasibility_check, [bad, 1.0], [0.5, 0.5]),
            (sic_feasibility_check, [2.0, 1.0], [bad, 0.5]),
            (sic_feasibility_check, [[2.0, 1.0], [bad, 1.0]], [[0.5, 0.5], [0.5, 0.5]]),
            (cluster_size_rate_delta, [bad, 1.0], [1.0], [0.5, 0.5]),
            (cluster_size_rate_delta, [2.0, 1.0], [bad], [0.5, 0.5]),
            (cluster_size_rate_delta, [2.0, 1.0], [1.0], [0.5, bad]),
            (noma_user_rates, [bad, 1.0], [0.5, 0.5]),
            (noma_sum_rate, [2.0, 1.0], [[0.5, 0.5], [bad, 0.5]]),
            (oma_user_rates, [bad, 1.0], [0.5, 0.5], [0.5, 0.5]),
            (oma_sum_rate, [2.0, 1.0], [0.5, 0.5], [bad, 0.5]),
            (optimal_dof_fractions, [bad, 1.0], [0.5, 0.5]),
            (oma_sum_upper_bound, [2.0, 1.0], [0.5, bad]),
            (two_user_gap, [2.0, 1.0], bad),
            (two_user_gap, [2.0, 1.0], [0.2, bad, 0.4]),
            (two_user_gap, [bad, 1.0], 0.5),
            (jain_index, [bad, 1.0]),
            (jain_index, [[1.0, 2.0], [1.0, bad]]),
        ]
        for fn, *args in calls:
            with pytest.raises(ValueError, match="finite"):
                fn(*args)

    def test_batch_axes_must_agree(self):
        with pytest.raises(ValueError):
            cluster_size_rate_delta([[2.0, 1.0]], [1.0], [[0.5, 0.5]])
        with pytest.raises(ValueError):
            sic_feasibility_check([[2.0, 1.0]], [0.5, 0.5])
