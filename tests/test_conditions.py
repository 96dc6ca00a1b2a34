"""Condition sets A-F, and retailer 1's per-regime Hessian: its closed-form
eigenvalues against a numeric eigensolve, and its negative definiteness with
retailer 2's curvature."""

import math

import numpy as np
import pytest

import bundlematch.conditions
from bundlematch import (
    MarketParams,
    Regime,
    Scenario,
    UnknownSetError,
    check_condition_set,
    structure,
)
from bundlematch.profits import _eigenvalues_r1, _hessian_r2, hessian_matrix_r1
from bundlematch.sweep import TABLE_SCENARIOS

from conftest import draw_valid_params


class TestConditionSets:
    def test_set_a_fails_at_symmetric_baseline(self, baseline):
        report = check_condition_set("A", baseline)
        first = report.inequalities[0]
        assert first.lhs == pytest.approx(200.0)
        assert first.rhs == pytest.approx(266.0 + 2.0 / 3.0)
        assert not first.satisfied
        assert not report.all_satisfied

    def test_set_a_constructed_point_passes(self):
        params = MarketParams.baseline(
            a_l_i1=300.0, a_l_i2=300.0, a_l_ib=200.0, a_q_ib=200.0,
            a_l_jb=100.0, a_q_jb=100.0, a_s=100.0,
        )
        report = check_condition_set("A", params)
        assert report.all_satisfied
        assert all(c.satisfied for c in report.inequalities)

    def test_set_c_alpha_one_forces_failure(self, baseline):
        report = check_condition_set("C", baseline.replace(alpha=1.0))
        line = next(c for c in report.inequalities if "(1-alpha)" in c.label)
        assert line.rhs == 0.0
        assert not line.satisfied

    def test_unknown_set_rejected(self, baseline):
        with pytest.raises(UnknownSetError):
            check_condition_set("G", baseline)

    def test_set_b_reads_the_duplicated_term_literally(self):
        # a_l_jb != a_q_jb: the literal bound (a_q_jb twice) differs from the
        # a_l_jb + a_q_jb reading that parallels set A
        params = MarketParams.baseline(
            a_l_i1=400.0, a_l_i2=400.0, a_l_ib=200.0, a_q_ib=200.0,
            a_l_jb=30.0, a_q_jb=31.0, a_s=100.0, b_l=0.4, b_s=0.9,
        )
        report = check_condition_set("B", params)
        line = next(c for c in report.inequalities if "(a_q_jb + a_q_jb)" in c.label)
        assert line.rhs == 2.0 * params.a_q_jb / (2.0 * params.a_s)

    def test_inequalities_are_weak_and_exact(self, baseline):
        params = baseline.replace(a_l_i1=100.0, a_l_i2=100.0, a_l_jb=75.0, a_q_jb=75.0)
        strict = check_condition_set("A", params)
        first = strict.inequalities[0]  # 200 >= 4/3 * 150 = 200 exactly
        assert first.satisfied
        nudged = baseline.replace(a_l_i1=100.0, a_l_i2=99.9999999, a_l_jb=75.0, a_q_jb=75.0)
        assert not check_condition_set("A", nudged).inequalities[0].satisfied

    def test_zero_strategic_base_does_not_error(self, baseline):
        for set_id in "ABCDEF":
            check_condition_set(set_id, baseline.replace(a_s=0.0))

    def test_zero_denominator_keeps_the_numerator_sign(self):
        div = bundlematch.conditions._div
        assert div(1.0, 0.0) == math.inf
        assert div(-1.0, 0.0) == -math.inf
        assert math.isnan(div(0.0, 0.0))

    def test_zero_over_zero_fails_its_inequality(self, baseline):
        # a_l_jb + a_q_jb = 0 over 2 a_s = 0: a NaN side satisfies no inequality
        params = baseline.replace(a_l_jb=0.0, a_q_jb=0.0, a_s=0.0)
        report = check_condition_set("A", params)
        line = next(
            c for c in report.inequalities if c.label == "b_l/b_s >= (a_l_jb + a_q_jb)/(2 a_s)"
        )
        assert math.isnan(line.rhs)
        assert not line.satisfied

    def test_sets_a_and_c_mutually_exclusive(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            params = draw_valid_params(rng)
            both = (
                check_condition_set("A", params).all_satisfied
                and check_condition_set("C", params).all_satisfied
            )
            assert not both


class TestHessians:
    def test_matched_regime_small_eigenvalue_at_baseline(self, baseline):
        s = structure(Scenario.bundled(True, True), Regime.R1_HIGH)
        assert sorted(_eigenvalues_r1(baseline, s))[-1] == pytest.approx(-0.4, abs=1e-12)
        assert baseline.t1 == pytest.approx(0.7)
        assert baseline.t2 == pytest.approx(0.5)

    def test_no_bundle_high_regime_eigenvalues_at_baseline(self, baseline):
        s = structure(Scenario.no_bundle(), Regime.R1_HIGH)
        assert sorted(_eigenvalues_r1(baseline, s)) == pytest.approx([-4.4, -0.4], abs=1e-12)

    def test_closed_form_matches_numeric_eigensolve(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            params = draw_valid_params(rng)
            for scen in TABLE_SCENARIOS:
                for regime in (Regime.R1_HIGH, Regime.R1_LOW):
                    s = structure(scen, regime)
                    numeric = np.linalg.eigvalsh(hessian_matrix_r1(params, s))
                    closed = np.array(sorted(_eigenvalues_r1(params, s)))
                    assert np.max(np.abs(closed - numeric)) < 1e-9

    def test_always_negative_definite_under_standing_assumptions(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            params = draw_valid_params(rng)
            for scen in TABLE_SCENARIOS:
                for regime in (Regime.R1_HIGH, Regime.R1_LOW):
                    s = structure(scen, regime)
                    assert (np.linalg.eigvalsh(hessian_matrix_r1(params, s)) < 0.0).all()
                    assert _hessian_r2(params, s) < 0.0

    def test_shapes(self, baseline):
        bundled = structure(Scenario.bundled(False, False), Regime.R1_LOW)
        assert hessian_matrix_r1(baseline, bundled).shape == (3, 3)
        no_bundle = structure(Scenario.no_bundle(), Regime.R1_LOW)
        assert hessian_matrix_r1(baseline, no_bundle).shape == (2, 2)
