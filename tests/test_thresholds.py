import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel.errors import ConfigError, ValidationError
from strel.thresholds import (
    Thresholds,
    constant_threshold,
    dash_adaptive_update,
    ema_update,
    fixed_class_threshold,
    freq_weighted_threshold,
    momentum_coefficients,
    top_quantile,
    uniform_coefficients,
)
from strel.config import RunConfig
from strel.selftrain import assign_pseudo_labels, build_thresholds

from _oracles import build_catalog, loop_ema_update


def state_with(tau, lambda_inc, lambda_dec, iteration=0):
    tau = np.asarray(tau, dtype=np.float64)
    return Thresholds(
        "catm", tau, np.ones(tau.size, dtype=bool),
        np.asarray(lambda_inc, dtype=np.float64), np.asarray(lambda_dec, dtype=np.float64),
        step=iteration,
    )


def decide(thresholds, probs):
    """The class ``assign_pseudo_labels`` gives the argmax of one probability
    vector, or None."""
    c = int(np.argmax(probs))
    accepted = assign_pseudo_labels([(0, 0)], [c], [probs[c]], thresholds, cap=1)
    return c if len(accepted) else None


descending_counts = st.lists(
    st.integers(min_value=1, max_value=10_000), min_size=2, max_size=12
).map(lambda xs: tuple(sorted(xs, reverse=True)))


class TestMomentumCoefficients:
    def test_worked_example_alpha_one_is_exact(self, tiny_catalog):
        lambda_inc, lambda_dec = momentum_coefficients(tiny_catalog, 1.0, 1.0)
        assert tuple(lambda_inc) == (1.0, 0.8, 0.2)
        assert tuple(lambda_dec) == (0.2, 0.8, 1.0)

    def test_alpha_zero_is_all_ones(self, tiny_catalog):
        lambda_inc, lambda_dec = momentum_coefficients(tiny_catalog, 0.0, 0.0)
        assert np.all(lambda_inc == 1.0) and np.all(lambda_dec == 1.0)

    def test_alpha_half_matches_power_formula(self, tiny_catalog):
        lambda_inc, lambda_dec = momentum_coefficients(tiny_catalog, 0.5, 0.5)
        # independent arithmetic evaluation of the power formula
        expected_inc = [(50 / 50) ** 0.5, (40 / 50) ** 0.5, (10 / 50) ** 0.5]
        expected_dec = [(10 / 50) ** 0.5, (40 / 50) ** 0.5, (50 / 50) ** 0.5]
        np.testing.assert_allclose(lambda_inc, expected_inc, rtol=0, atol=0)
        np.testing.assert_allclose(lambda_dec, expected_dec, rtol=0, atol=0)
        assert lambda_inc[1] == pytest.approx(0.894427, abs=5e-7)
        assert lambda_inc[2] == pytest.approx(0.447214, abs=5e-7)

    def test_head_zero_count_is_an_error(self):
        from strel.labels import PredicateCatalog

        cat = PredicateCatalog(("bg", "a", "b"), (0, 0))
        with pytest.raises(ConfigError):
            momentum_coefficients(cat, 0.4, 0.4)

    @given(descending_counts, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotonicity_along_ranking(self, counts, a_inc, a_dec):
        cat = build_catalog({f"c{i}": c for i, c in enumerate(counts)})
        lambda_inc, lambda_dec = momentum_coefficients(cat, a_inc, a_dec)
        assert np.all(np.diff(lambda_inc) <= 1e-15)
        assert np.all(np.diff(lambda_dec) >= -1e-15)
        assert np.all(lambda_inc > 0) and np.all(lambda_inc <= 1.0)
        assert np.all(lambda_dec > 0) and np.all(lambda_dec <= 1.0)

    def test_uniform_ablation_value(self):
        lambda_inc, lambda_dec = uniform_coefficients(4)
        assert np.all(lambda_inc == 0.5) and np.all(lambda_dec == 0.5)


class TestEmaUpdate:
    def test_increase_branch_hand_case(self):
        # tau 0.5, lambda_inc 0.5, confidences {0.6, 0.8}: some clear the bar
        state = state_with([0.5], [0.5], [0.9])
        out = ema_update(state, [1, 1], [0.6, 0.8])
        assert abs(out.tau[0] - 0.6) <= 1e-12  # 0.5*0.5 + 0.5*0.7
        assert out.step == 1

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

    @given(st.one_of(st.integers(1, 6), st.integers(256, 300)), st.data(), st.booleans())
    def test_bit_equal_to_the_per_class_loop(self, n_fg, data, strict):
        """Every class in one vector step gives the per-class loop's tau bit
        for bit: absent classes, background argmaxes, ties with tau, and
        label spaces of 256 classes or more, whose classes sort as uint16."""
        unit = st.floats(0.0, 1.0)
        tau = data.draw(st.lists(unit, min_size=n_fg, max_size=n_fg))
        lam_inc, lam_dec = (data.draw(st.lists(unit, min_size=n_fg, max_size=n_fg)) for _ in "id")
        state = state_with(tau, lam_inc, lam_dec)
        n = data.draw(st.integers(0, 40))
        classes = data.draw(st.lists(st.integers(0, n_fg), min_size=n, max_size=n))
        # confidences drawn from tau itself too, so some equal their class's threshold
        confs = data.draw(st.lists(st.one_of(unit, st.sampled_from(tau)), min_size=n, max_size=n))
        got = ema_update(state, classes, confs, strict)
        want = loop_ema_update(state, classes, confs, strict)
        assert got.tau.tobytes() == want.tobytes()

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10), st.floats(0.0, 1.0))
    def test_unit_momentum_tracks_batch_mean(self, confs, tau0):
        # alpha = 0 gives lambda = 1 everywhere: EMA memory vanishes
        state = state_with([tau0], [1.0], [1.0])
        out = ema_update(state, [1] * len(confs), confs)
        assert abs(out.tau[0] - np.mean(confs)) <= 1e-12


class TestDecide:
    def test_accepts_above_threshold(self):
        state = state_with([0.5, 0.6], [1, 1], [1, 1])
        assert decide(state, (0.1, 0.2, 0.7)) == 2

    def test_rejects_below_threshold(self):
        state = state_with([0.5, 0.8], [1, 1], [1, 1])
        assert decide(state, (0.1, 0.2, 0.7)) is None

    def test_background_argmax_never_labeled(self):
        state = state_with([0.0, 0.0], [1, 1], [1, 1])
        assert decide(state, (0.5, 0.3, 0.2)) is None

    def test_comparison_is_greater_or_equal(self):
        state = state_with([0.7], [1], [1])
        assert decide(state, (0.3, 0.7)) == 1

    def test_never_policy(self, tiny_catalog):
        never = build_thresholds(RunConfig(policy="never"), tiny_catalog, None, None)
        assert decide(never, (0.0, 0.0, 0.0, 1.0)) is None

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6), st.floats(0.0, 1.0))
    def test_never_returns_background(self, raw, tau0):
        probs = np.asarray(raw) / np.sum(raw)
        state = state_with([tau0] * (len(raw) - 1), [1] * (len(raw) - 1), [1] * (len(raw) - 1))
        assert decide(state, probs) != 0


class TestQuantilePolicies:
    def test_order_statistic_on_ten_point_pool(self):
        pool = [round(0.1 * i, 1) for i in range(1, 11)]
        # oracle: k-th largest with k = ceil(q * n)
        assert top_quantile(pool, 0.10) == sorted(pool, reverse=True)[0] == 1.0
        assert top_quantile(pool, 1.0) == min(pool)
        assert np.all(constant_threshold(pool, n_foreground=3, quantile=0.10) == 1.0)

    def test_constant_pool(self):
        assert np.all(constant_threshold([0.5] * 7, n_foreground=2, quantile=0.01) == 0.5)

    def test_empty_pool_is_an_error(self):
        with pytest.raises(ValidationError):
            constant_threshold([], n_foreground=2)

    def test_fixed_class_pools(self):
        # the background argmax (class 0) would move either pool it joined
        classes, confs = [1, 0, 1, 2], [0.2, 0.5, 0.9, 0.4]
        tau = fixed_class_threshold(classes, confs, n_foreground=3, quantile=0.5)
        assert tau[0] == 0.9  # ceil(0.5*2) = 1st largest
        assert tau[1] == 0.4
        assert tau[2] == 1.0  # an absent class gets the top bar

    def test_fixed_class_outside_the_label_space(self):
        with pytest.raises(ValidationError):
            fixed_class_threshold([1, 4], [0.5, 0.5], n_foreground=3)

    def test_identical_pools_give_identical_thresholds(self):
        pool = [0.3, 0.6, 0.9]
        tau = fixed_class_threshold([1, 2] * 3, np.repeat(pool, 2), n_foreground=2, quantile=0.34)
        assert tau[0] == tau[1]

    def test_freq_weighted_identity_mix(self, tiny_catalog):
        fixed = fixed_class_threshold([1, 2, 3], [0.6, 0.5, 0.4], 3, 0.5)
        blended = freq_weighted_threshold(fixed, tiny_catalog, mix=0.0)
        np.testing.assert_array_equal(blended, fixed)

    def test_freq_weighted_pure_frequency(self, tiny_catalog):
        fixed = fixed_class_threshold([1, 2, 3], [0.6, 0.5, 0.4], 3, 0.5)
        blended = freq_weighted_threshold(fixed, tiny_catalog, mix=1.0)
        np.testing.assert_allclose(blended, [1.0, 0.8, 0.2], rtol=1e-12)

    def test_freq_weighted_hand_mix(self, tiny_catalog):
        fixed = fixed_class_threshold([1, 2, 3], [0.6, 0.5, 0.4], 3, 0.5)
        blended = freq_weighted_threshold(fixed, tiny_catalog, mix=0.5)
        assert abs(blended[0] - 0.8) <= 1e-12  # 0.5*0.6 + 0.5*1.0


class TestDashAdaptive:
    def _policy(self, base=0.5):
        tau = fixed_class_threshold([1], [base], n_foreground=1, quantile=1.0)
        return Thresholds("dash-adaptive", tau, np.ones(1, dtype=bool), base_tau=tau)

    def test_one_interval_growth(self):
        out = dash_adaptive_update(self._policy(), 1, 1.1)
        assert abs(out.tau[0] - 0.55) <= 1e-12
        assert out.step == 1

    def test_zero_intervals_is_start_point(self):
        out = dash_adaptive_update(self._policy(), 0, 1.1)
        assert out.tau[0] == 0.5

    def test_saturates_at_one_and_blocks_everything(self):
        out = dash_adaptive_update(self._policy(), 500, 1.1)
        assert out.tau[0] == 1.0
        assert decide(out, (0.01, 0.99)) is None  # softmax confidence < 1 never clears

    def test_monotone_in_intervals(self):
        policy = self._policy()
        taus = [dash_adaptive_update(policy, k, 1.1).tau[0] for k in range(10)]
        assert all(b >= a for a, b in zip(taus, taus[1:]))

    def test_growth_must_exceed_one(self):
        with pytest.raises(ConfigError):
            RunConfig(policy="dash-adaptive", dash_growth=1.0)
