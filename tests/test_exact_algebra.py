"""The hand-derived algebra, audited in exact rational arithmetic.

The closed forms, demands, profits, gradients and Hessians are written for
floats, but they are generic over their number type and every literal in
them is a dyadic rational.  Given parameters whose every field is an
`Exact` rational, they run unchanged and without rounding, so the audits
below hold with no tolerance at all:

- every closed form T1-T5b is a stationary point of its regime: both
  retailers' first-order derivatives there are exactly 0.  This is why
  equilibria checks no first-order residual when it builds a candidate: in
  floats the residual measures rounding only;
- each candidate's feasibility verdict in exact arithmetic is its verdict in
  floats;
- each retailer's constant Hessian (hessian_matrix_r1, _hessian_r2) is the
  difference of its gradient along each own price, under every regime
  structure and every kink row.

Only the standard library's fractions module is used.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from bundlematch import Scenario
from bundlematch.equilibria import THEOREMS
from bundlematch.market import (
    PARAM_FIELDS,
    STRUCTURES,
    MarketParams,
    PriceVector,
    demands,
    kink_structure,
)
from bundlematch.profits import _hessian_r2, gradient_r1_at, gradient_r2_at, hessian_matrix_r1

from conftest import draw_valid_params


class Exact(Fraction):
    """A rational whose arithmetic takes a float operand at its exact value
    and returns an Exact (Fraction's own turns the result into a float, or
    into a plain Fraction)."""


def _binary(name: str):
    op = getattr(Fraction, name)

    def exact_op(self, other):
        return Exact(op(self, Fraction(other) if isinstance(other, float) else other))

    return exact_op


def _unary(name: str):
    op = getattr(Fraction, name)
    return lambda self: Exact(op(self))


for _name in ("add", "sub", "mul", "truediv"):
    setattr(Exact, f"__{_name}__", _binary(f"__{_name}__"))
    setattr(Exact, f"__r{_name}__", _binary(f"__r{_name}__"))
Exact.__pow__ = _binary("__pow__")
for _name in ("__neg__", "__pos__", "__abs__"):
    setattr(Exact, _name, _unary(_name))


def exact_params(params: MarketParams) -> MarketParams:
    """The same parameter point with every field the exact rational value of
    its float, set field by field as the frozen __init__ does."""
    exact = object.__new__(MarketParams)
    for name in PARAM_FIELDS:
        object.__setattr__(exact, name, Exact(getattr(params, name)))
    return exact


def is_exact(values) -> bool:
    return all(type(v) is Exact for v in values)


SCENARIOS = (
    Scenario.bundled(True, True),
    Scenario.bundled(True, False),
    Scenario.bundled(False, True),
    Scenario.bundled(False, False),
    Scenario.no_bundle(),
)
# the six regime structures and the three distinct kink rows
AUDITED_STRUCTURES = (
    *STRUCTURES.values(),
    *dict.fromkeys(kink_structure(scenario) for scenario in SCENARIOS),
)


def test_exact_arithmetic_stays_exact():
    x = Exact(1, 3)
    for value in (x + 0.5, 0.5 + x, x - 0.5, 0.5 - x, x * 0.1, 0.1 * x, x / 0.1, 0.1 / x):
        assert type(value) is Exact
    assert 0.1 * x == Fraction(0.1) / 3  # 0.1 at its exact binary value
    assert type(-x) is type(abs(x)) is type(x**2) is Exact
    assert (x < 0.5) and (x >= 1e-9)


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
