import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel.errors import ConfigError, ValidationError
from strel.labels import argmax_confidence, build_catalog
from strel.thresholds import (
    MomentumCoefficients,
    ThresholdState,
    constant_threshold,
    dash_adaptive_policy,
    dash_adaptive_update,
    ema_update,
    fixed_class_threshold,
    freq_weighted_threshold,
    initial_state,
    momentum_coefficients,
    never_policy,
    top_quantile,
    uniform_coefficients,
)
from strel.selftrain import assign_pseudo_labels


def coefficients(lambda_inc, lambda_dec):
    return MomentumCoefficients(
        lambda_inc=np.asarray(lambda_inc, dtype=np.float64),
        lambda_dec=np.asarray(lambda_dec, dtype=np.float64),
        alpha_inc=float("nan"),
        alpha_dec=float("nan"),
    )


def state_with(tau, lambda_inc, lambda_dec, iteration=0):
    return ThresholdState(
        tau=np.asarray(tau, dtype=np.float64),
        coefficients=coefficients(lambda_inc, lambda_dec),
        iteration=iteration,
    )


def decide(thresholds, prediction):
    """The class ``assign_pseudo_labels`` gives one prediction, or None."""
    accepted = assign_pseudo_labels(
        [(0, 0)], [prediction.argmax_class], [prediction.confidence], thresholds, cap=1
    )
    return prediction.argmax_class if len(accepted) else None


descending_counts = st.lists(
    st.integers(min_value=1, max_value=10_000), min_size=2, max_size=12
).map(lambda xs: tuple(sorted(xs, reverse=True)))


class TestMomentumCoefficients:
    def test_worked_example_alpha_one_is_exact(self, tiny_catalog):
        mc = momentum_coefficients(tiny_catalog, 1.0, 1.0)
        assert tuple(mc.lambda_inc) == (1.0, 0.8, 0.2)
        assert tuple(mc.lambda_dec) == (0.2, 0.8, 1.0)

    def test_alpha_zero_is_all_ones(self, tiny_catalog):
        mc = momentum_coefficients(tiny_catalog, 0.0, 0.0)
        assert np.all(mc.lambda_inc == 1.0) and np.all(mc.lambda_dec == 1.0)

    def test_alpha_half_matches_power_formula(self, tiny_catalog):
        mc = momentum_coefficients(tiny_catalog, 0.5, 0.5)
        # independent arithmetic evaluation of the power formula
        expected_inc = [(50 / 50) ** 0.5, (40 / 50) ** 0.5, (10 / 50) ** 0.5]
        expected_dec = [(10 / 50) ** 0.5, (40 / 50) ** 0.5, (50 / 50) ** 0.5]
        np.testing.assert_allclose(mc.lambda_inc, expected_inc, rtol=0, atol=0)
        np.testing.assert_allclose(mc.lambda_dec, expected_dec, rtol=0, atol=0)
        assert mc.lambda_inc[1] == pytest.approx(0.894427, abs=5e-7)
        assert mc.lambda_inc[2] == pytest.approx(0.447214, abs=5e-7)

    def test_head_zero_count_is_an_error(self):
        from strel.labels import PredicateCatalog

        cat = PredicateCatalog(("bg", "a", "b"), (0, 0))
        with pytest.raises(ConfigError):
            momentum_coefficients(cat, 0.4, 0.4)

    def test_alpha_out_of_range(self, tiny_catalog):
        with pytest.raises(ConfigError):
            momentum_coefficients(tiny_catalog, 1.2, 0.4)

    @given(descending_counts, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotonicity_along_ranking(self, counts, a_inc, a_dec):
        cat = build_catalog({f"c{i}": c for i, c in enumerate(counts)})
        mc = momentum_coefficients(cat, a_inc, a_dec)
        assert np.all(np.diff(mc.lambda_inc) <= 1e-15)
        assert np.all(np.diff(mc.lambda_dec) >= -1e-15)
        assert np.all(mc.lambda_inc > 0) and np.all(mc.lambda_inc <= 1.0)
        assert np.all(mc.lambda_dec > 0) and np.all(mc.lambda_dec <= 1.0)

    def test_uniform_ablation_value(self):
        mc = uniform_coefficients(4, 0.5)
        assert np.all(mc.lambda_inc == 0.5) and np.all(mc.lambda_dec == 0.5)


class TestEmaUpdate:
    def test_increase_branch_hand_case(self):
        # tau 0.5, lambda_inc 0.5, confidences {0.6, 0.8}: some clear the bar
        state = state_with([0.5], [0.5], [0.9])
        out = ema_update(state, [1, 1], [0.6, 0.8])
        assert abs(out.tau[0] - 0.6) <= 1e-12  # 0.5*0.5 + 0.5*0.7
        assert out.iteration == 1

    def test_decrease_branch_hand_case(self):
        # tau 0.9, lambda_dec 0.2, all confidences below the bar
        state = state_with([0.9], [0.7], [0.2])
        out = ema_update(state, [1], [0.5])
        assert abs(out.tau[0] - 0.82) <= 1e-12  # 0.8*0.9 + 0.2*0.5

    def test_empty_class_remains(self):
        state = state_with([0.3, 0.7], [0.5, 0.5], [0.5, 0.5])
        out = ema_update(state, [1], [0.9])
        assert out.tau[1] == 0.7

    def test_background_argmax_is_ignored(self):
        state = state_with([0.5], [1.0], [1.0])
        out = ema_update(state, [0, 0], [0.99, 0.98])
        assert out.tau[0] == 0.5

    def test_mean_runs_over_all_predictions_in_increase_branch(self):
        # one cleared instance plus many low ones drag the mean below tau
        state = state_with([0.5], [1.0], [1.0])
        out = ema_update(state, [1, 1, 1], [0.9, 0.1, 0.1])
        expected = (0.9 + 0.1 + 0.1) / 3
        assert abs(out.tau[0] - expected) <= 1e-12

    def test_strict_eligible_mean_mode(self):
        state = state_with([0.5], [1.0], [1.0])
        out = ema_update(state, [1, 1, 1], [0.9, 0.1, 0.1], strict_eligible_mean=True)
        assert abs(out.tau[0] - 0.9) <= 1e-12

    def test_confidence_out_of_range_rejected(self):
        state = state_with([0.5], [0.5], [0.5])
        with pytest.raises(ValidationError):
            ema_update(state, [1], [1.2])

    def test_bit_identical_on_identical_inputs(self):
        state = state_with([0.31, 0.62], [0.8, 0.3], [0.2, 0.9])
        classes = np.array([1, 2, 1, 2, 1])
        conf = np.array([0.11, 0.52, 0.93, 0.24, 0.85])
        a = ema_update(state, classes, conf)
        b = ema_update(state, classes, conf)
        assert np.array_equal(a.tau, b.tau)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.001, 1.0),
        st.floats(0.001, 1.0),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    )
    def test_convex_combination_bound(self, tau0, lam_inc, lam_dec, confs):
        state = state_with([tau0], [lam_inc], [lam_dec])
        out = ema_update(state, [1] * len(confs), confs)
        mean = sum(confs) / len(confs)
        lo, hi = min(tau0, mean), max(tau0, mean)
        assert lo - 1e-12 <= out.tau[0] <= hi + 1e-12
        assert 0.0 <= out.tau[0] <= 1.0

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10), st.floats(0.0, 1.0))
    def test_unit_momentum_tracks_batch_mean(self, confs, tau0):
        # alpha = 0 gives lambda = 1 everywhere: EMA memory vanishes
        state = state_with([tau0], [1.0], [1.0])
        out = ema_update(state, [1] * len(confs), confs)
        assert abs(out.tau[0] - np.mean(confs)) <= 1e-12


class TestDecide:
    def test_accepts_above_threshold(self):
        state = state_with([0.5, 0.6], [1, 1], [1, 1])
        pred = argmax_confidence((0.1, 0.2, 0.7))
        assert decide(state, pred) == 2

    def test_rejects_below_threshold(self):
        state = state_with([0.5, 0.8], [1, 1], [1, 1])
        pred = argmax_confidence((0.1, 0.2, 0.7))
        assert decide(state, pred) is None

    def test_background_argmax_never_labeled(self):
        state = state_with([0.0, 0.0], [1, 1], [1, 1])
        pred = argmax_confidence((0.5, 0.3, 0.2))
        assert decide(state, pred) is None

    def test_comparison_is_greater_or_equal(self):
        state = state_with([0.7], [1], [1])
        pred = argmax_confidence((0.3, 0.7))
        assert decide(state, pred) == 1

    def test_never_policy(self):
        pred = argmax_confidence((0.0, 1.0))
        assert decide(never_policy(1), pred) is None

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6), st.floats(0.0, 1.0))
    def test_never_returns_background(self, raw, tau0):
        probs = np.asarray(raw) / np.sum(raw)
        pred = argmax_confidence(probs)
        state = state_with([tau0] * (len(raw) - 1), [1] * (len(raw) - 1), [1] * (len(raw) - 1))
        assert decide(state, pred) != 0


class TestQuantilePolicies:
    def test_order_statistic_on_ten_point_pool(self):
        pool = [round(0.1 * i, 1) for i in range(1, 11)]
        # oracle: k-th largest with k = ceil(q * n)
        assert top_quantile(pool, 0.10) == sorted(pool, reverse=True)[0] == 1.0
        assert top_quantile(pool, 1.0) == min(pool)
        policy = constant_threshold(pool, n_foreground=3, quantile=0.10)
        assert np.all(policy.tau == 1.0)

    def test_constant_pool(self):
        policy = constant_threshold([0.5] * 7, n_foreground=2, quantile=0.01)
        assert np.all(policy.tau == 0.5)

    def test_empty_pool_is_an_error(self):
        with pytest.raises(ValidationError):
            constant_threshold([], n_foreground=2)

    def test_fixed_class_pools(self):
        policy = fixed_class_threshold({1: [0.2, 0.9], 2: [0.4]}, n_foreground=3, quantile=0.5)
        assert policy.tau[0] == 0.9  # ceil(0.5*2) = 1st largest
        assert policy.tau[1] == 0.4
        assert policy.tau[2] == 1.0  # absent class never accepts

    def test_identical_pools_give_identical_thresholds(self):
        pool = [0.3, 0.6, 0.9]
        policy = fixed_class_threshold({1: pool, 2: pool}, n_foreground=2, quantile=0.34)
        assert policy.tau[0] == policy.tau[1]

    def test_freq_weighted_identity_mix(self, tiny_catalog):
        fixed = fixed_class_threshold({1: [0.6], 2: [0.5], 3: [0.4]}, 3, 0.5)
        blended = freq_weighted_threshold(fixed, tiny_catalog, mix=0.0)
        np.testing.assert_array_equal(blended.tau, fixed.tau)

    def test_freq_weighted_pure_frequency(self, tiny_catalog):
        fixed = fixed_class_threshold({1: [0.6], 2: [0.5], 3: [0.4]}, 3, 0.5)
        blended = freq_weighted_threshold(fixed, tiny_catalog, mix=1.0)
        np.testing.assert_allclose(blended.tau, [1.0, 0.8, 0.2], rtol=1e-12)

    def test_freq_weighted_hand_mix(self, tiny_catalog):
        fixed = fixed_class_threshold({1: [0.6], 2: [0.5], 3: [0.4]}, 3, 0.5)
        blended = freq_weighted_threshold(fixed, tiny_catalog, mix=0.5)
        assert abs(blended.tau[0] - 0.8) <= 1e-12  # 0.5*0.6 + 0.5*1.0


class TestDashAdaptive:
    def _policy(self, base=0.5, growth=1.1):
        fixed = fixed_class_threshold({1: [base]}, n_foreground=1, quantile=1.0)
        return dash_adaptive_policy(fixed, growth)

    def test_one_interval_growth(self):
        out = dash_adaptive_update(self._policy(), 1)
        assert abs(out.tau[0] - 0.55) <= 1e-12

    def test_zero_intervals_is_start_point(self):
        out = dash_adaptive_update(self._policy(), 0)
        assert out.tau[0] == 0.5

    def test_saturates_at_one_and_blocks_everything(self):
        out = dash_adaptive_update(self._policy(), 500)
        assert out.tau[0] == 1.0
        pred = argmax_confidence((0.01, 0.99))
        assert decide(out, pred) is None  # softmax confidence < 1 never clears

    def test_monotone_in_intervals(self):
        policy = self._policy()
        taus = [dash_adaptive_update(policy, k).tau[0] for k in range(10)]
        assert all(b >= a for a, b in zip(taus, taus[1:]))

    def test_growth_must_exceed_one(self):
        fixed = fixed_class_threshold({1: [0.5]}, 1, 1.0)
        with pytest.raises(ConfigError):
            dash_adaptive_policy(fixed, 1.0)
