"""The hand-derived algebra, audited in exact rational arithmetic.

The closed forms, demands, profits, gradients and Hessians run unchanged
and without rounding on parameters whose every field is an `Exact` rational
(exact_arithmetic.py), so the audits below hold with no tolerance at all:

- each retailer's gradient (gradient_r1_at, gradient_r2_at) is the
  derivative of its profit (profits_at) in each own price, under every
  regime structure and every kink row, carried by Dual numbers;
- every closed form T1-T5b is a stationary point of its regime: both
  retailers' first-order derivatives there are exactly 0.  This is why
  equilibria checks no first-order residual when it builds a candidate: in
  floats the residual measures rounding only;
- each candidate's feasibility verdict in exact arithmetic is its verdict in
  floats;
- each retailer's constant Hessian (hessian_matrix_r1, _hessian_r2) is the
  difference of its gradient along each own price, under every regime
  structure and every kink row;
- each of those Hessians is negative definite (Sylvester's criterion), and
  the closed-form eigenvalues profits reports for retailer 1 are its
  eigenvalues.  This is why the oracle checks no Hessian before it solves a
  first-order system: its plans use exactly these matrices;
- retailer 1's linear terms (linear_terms_r1) have pb2-derivative exactly 0
  under every structure where retailer 1 is unmatched.  This is why the
  oracle puts them into its right-hand sides once per game.

Only the standard library is used (fractions, itertools).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from bundlematch.equilibria import THEOREMS
from bundlematch.market import (
    STRUCTURES,
    MarketParams,
    PriceVector,
    demands,
    kink_structure,
)
from bundlematch.profits import (
    _eigenvalue_parts_r1,
    _hessian_r2,
    evaluate,
    gradient_r1_at,
    gradient_r2_at,
    hessian_matrix_r1,
    linear_terms_r1,
    profits_at,
)
from bundlematch.sweep import TABLE_SCENARIOS

from conftest import draw_valid_params
from exact_arithmetic import Dual, Exact, exact_params


def is_exact(values) -> bool:
    return all(type(v) is Exact for v in values)


# the six regime structures and the three distinct kink rows
AUDITED_STRUCTURES = (
    *STRUCTURES.values(),
    *dict.fromkeys(kink_structure(scenario) for scenario in TABLE_SCENARIOS),
)


def test_exact_arithmetic_stays_exact():
    x = Exact(1, 3)
    for value in (x + 0.5, 0.5 + x, x - 0.5, 0.5 - x, x * 0.1, 0.1 * x, x / 0.1, 0.1 / x):
        assert type(value) is Exact
    assert 0.1 * x == Fraction(0.1) / 3  # 0.1 at its exact binary value
    assert type(-x) is type(abs(x)) is type(x**2) is Exact
    assert (x < 0.5) and (x >= 1e-9)


def test_dual_numbers_carry_exact_derivatives():
    x = Dual(Exact(3), Exact(1))
    # 2x**2 - x/2 + 1/x - (5 - x), whose derivative is 4x - 1/2 - 1/x**2 + 1
    y = 2.0 * x * x - x / Exact(2) + 1 / x - (5 - x)
    assert is_exact((y.value, y.deriv))
    assert (y.value, y.deriv) == (Fraction(89, 6), Fraction(223, 18))
    z = -(Exact(2) * x) + (+x)
    assert (z.value, z.deriv) == (-3, -1)
    assert (x < 3.5) and (x <= 3) and (x > 0.5) and (x >= Exact(3)) and (4 > x)


@pytest.mark.parametrize("seed", [0, 1])
def test_closed_forms_are_exactly_stationary_and_feasible_as_in_floats(seed):
    rng = np.random.default_rng(seed)
    verdicts = set()
    for _ in range(50):
        params = draw_valid_params(rng)
        exact = exact_params(params)
        for tid, theorem in THEOREMS.items():
            s = STRUCTURES[tid]
            r = theorem(exact)
            assert is_exact((*r.prices.present(), *r.demands, *r.profits)), tid
            g1 = gradient_r1_at(exact, s, r.prices, s.effective_prices(r.prices), r.demands)
            assert all(g == 0 for g in g1), (tid, params)
            assert gradient_r2_at(exact, s, r.prices.pb2) == 0, (tid, params)
            assert r.foc_residual == 0
            floating = theorem(params)
            assert r.feasible == floating.feasible, (tid, params)
            verdicts.add(floating.feasible)
    # both verdicts are exercised
    assert verdicts == {True, False}


def _own_step(prices: PriceVector, j: int) -> PriceVector:
    """The prices with retailer 1's j-th own price (p1, p2, pb1) raised by 1."""
    return prices._replace(**{prices._fields[j]: prices[j] + 1})


def _gradient_r1(params: MarketParams, s, prices: PriceVector) -> tuple:
    eff = s.effective_prices(prices)
    return gradient_r1_at(params, s, prices, eff, demands(params, prices, eff))


def test_hessians_are_the_differences_of_the_gradients():
    rng = np.random.default_rng(9)
    for _ in range(40):
        exact = exact_params(draw_valid_params(rng))
        # an arbitrary point, away from any closed form and off its regime
        p1, p2, pb1, pb2 = (Exact(rng.uniform(0.0, 300.0)) for _ in range(4))
        for s in AUDITED_STRUCTURES:
            prices = PriceVector(p1, p2, pb1 if s.bundling else None, pb2)
            h = hessian_matrix_r1(exact, s)
            g = _gradient_r1(exact, s, prices)
            assert h.shape == (len(g), len(g))
            for j in range(len(g)):
                step = _gradient_r1(exact, s, _own_step(prices, j))
                column = [b - a for a, b in zip(g, step)]
                assert is_exact(h[:, j]) and list(h[:, j]) == column, (s, j)
            h2 = _hessian_r2(exact, s)
            assert type(h2) is Exact
            assert h2 == gradient_r2_at(exact, s, pb2 + 1) - gradient_r2_at(exact, s, pb2)


def _profits_along(exact: MarketParams, s, prices: PriceVector, field: str):
    """profits_at with the price `field` seeded as a Dual of derivative 1."""
    seeded = prices._replace(**{field: Dual(getattr(prices, field), Exact(1))})
    eff = s.effective_prices(seeded)
    return profits_at(exact, s, seeded, eff, demands(exact, seeded, eff))


def test_gradients_are_the_derivatives_of_the_profits():
    """profits_at is the model, and the closed forms are proved stationary
    under gradient_r1_at and gradient_r2_at, so an error shared by a
    gradient and a closed form would pass every other exact test; this ties
    each gradient to profits_at with no tolerance."""
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        exact = exact_params(draw_valid_params(rng))
        p1, p2, pb1, pb2 = (Exact(rng.uniform(0.0, 300.0)) for _ in range(4))
        for s in AUDITED_STRUCTURES:
            prices = PriceVector(p1, p2, pb1 if s.bundling else None, pb2)
            g1 = _gradient_r1(exact, s, prices)
            _, values = evaluate(exact, s, prices)
            for field, g in zip(("p1", "p2", "pb1"), g1):
                pi_r1 = _profits_along(exact, s, prices, field).pi_r1
                assert is_exact((pi_r1.value, pi_r1.deriv, g))
                assert pi_r1.value == values.pi_r1
                assert pi_r1.deriv == g, (s, field)
            pi_r2 = _profits_along(exact, s, prices, "pb2").pi_r2
            assert is_exact((pi_r2.value, pi_r2.deriv))
            assert pi_r2.value == values.pi_r2
            assert pi_r2.deriv == gradient_r2_at(exact, s, pb2), s
            checked += 1
    assert checked == 40 * len(AUDITED_STRUCTURES) == 360


def _det(rows: list) -> Exact:
    """The determinant of a small square matrix, by cofactor expansion along
    its first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


def _principal_minors(rows: list) -> dict[tuple[int, ...], Exact]:
    """Every principal minor of a square matrix, by the indices it keeps."""
    n = len(rows)
    return {
        idx: _det([[rows[i][j] for j in idx] for i in idx])
        for k in range(1, n + 1)
        for idx in combinations(range(n), k)
    }


def _eigenvalue_symmetric_functions(e1, mid, disc) -> list:
    """The elementary symmetric functions of the closed-form eigenvalues: e1
    and -mid under B=0, e1 and -mid -/+ sqrt(disc) under B=1.  The root
    enters only through its square, so they are rational."""
    if disc is None:
        return [e1 - mid, -e1 * mid]
    pair = mid**2 - disc  # (-mid - root) * (-mid + root)
    return [e1 - 2 * mid, pair - 2 * mid * e1, e1 * pair]


def _concavity_points() -> list[MarketParams]:
    """Seeded valid draws, and the domain's corners: lambda_l = b_l, alpha at
    0 and 1, theta_l next to 0 and next to 1."""
    rng = np.random.default_rng(12)
    points = [draw_valid_params(rng) for _ in range(200)]
    for base in (MarketParams.baseline(), *points[:4]):
        for lambda_l in (base.lambda_l, base.b_l):
            for alpha in (0.0, 1.0):
                for theta_l in (1e-12, 1.0 - 1e-12):
                    points.append(base.replace(lambda_l=lambda_l, alpha=alpha, theta_l=theta_l))
    return points


def test_hessians_are_negative_definite_with_the_closed_form_eigenvalues():
    """Every Hessian the oracle solves with is negative definite.

    Checked exactly at each point, under every regime structure and kink
    row: the leading principal minors of -hessian_matrix_r1 are all > 0
    (Sylvester's criterion), _hessian_r2 is < 0, and the elementary
    symmetric functions of the closed-form eigenvalues equal those of the
    matrix, so they are its eigenvalues.

    The closed form proves it on the whole domain, b_l >= lambda_l > 0,
    theta_l in (0, 1) and strategic weights w in [0, 1].  The linear
    eigenvalue e1 = -2 b_l (1 - theta_l) is < 0.  Under B=0 the other one,
    -mid = -2 b_l (5 + theta_l) - 4 w b_s, is < 0.  Under B=1 the other two
    are -mid -/+ sqrt(disc), both < 0 once mid > 0 and mid**2 > disc.  On a
    matched row disc = u**2 + 8 lambda**2 with u = b_l theta_l + lambda >= 0,
    and mid = u + 2 b_l + 2 lambda >= u + 4 lambda, so mid**2 - disc >=
    8 u lambda + 8 lambda**2 >= 8 lambda**2.  On an unmatched row (every
    kink row is one) disc = u**2 + 18 lambda**2 with u = b_l (1 - theta_l) +
    w b_s >= 0, and mid = u + 2 b_l (1 + theta_l) + 4 lambda >= u + 6 lambda,
    so mid**2 - disc >= 12 u lambda + 18 lambda**2 >= 18 lambda**2.
    Retailer 2's h = -2 b_l (1 or 2) - 2 w b_s is < 0 since b_l > 0.
    """
    for params in _concavity_points():
        exact = exact_params(params)
        lam = exact.lambda_l
        for s in AUDITED_STRUCTURES:
            minors = _principal_minors(hessian_matrix_r1(exact, s).tolist())
            assert is_exact(minors.values())
            orders = range(1, max(map(len, minors)) + 1)
            # Sylvester's criterion for -H, whose k-th leading minor is
            # (-1)**k times the Hessian's
            assert all((-1) ** k * minors[tuple(range(k))] > 0 for k in orders), (s, params)
            # the sums of the principal minors of each order (trace, ...,
            # determinant) are the elementary symmetric functions of the
            # eigenvalues
            sums = [sum(m for idx, m in minors.items() if len(idx) == k) for k in orders]
            e1, mid, disc = _eigenvalue_parts_r1(exact, s)
            assert _eigenvalue_symmetric_functions(e1, mid, disc) == sums, (s, params)
            # the bounds of the argument above
            assert e1 < 0 and mid > 0, (s, params)
            if disc is not None:
                assert mid**2 - disc >= (8 if s.r1_matched else 18) * lam**2, (s, params)
            assert _hessian_r2(exact, s) < 0, (s, params)


def test_unmatched_linear_terms_have_zero_pb2_derivative():
    # the terms are affine in pb2 (their second difference is 0), so the
    # difference over a unit step is the derivative; it is exactly 0 where
    # retailer 1 is unmatched, and not 0 on a matched row, whose loyal
    # price-aware buyers pay pb2
    rng = np.random.default_rng(24)
    for _ in range(40):
        exact = exact_params(draw_valid_params(rng))
        pb2 = Exact(rng.uniform(0.0, 300.0))
        for s in AUDITED_STRUCTURES:
            at, step, two = (linear_terms_r1(exact, (s,), pb2 + k)[0] for k in range(3))
            assert is_exact((*at, *step, *two))
            assert all(c - 2 * b + a == 0 for a, b, c in zip(at, step, two)), s
            derivative = [b - a for a, b in zip(at, step)]
            assert all(d == 0 for d in derivative) is not s.r1_matched, (s, derivative)
