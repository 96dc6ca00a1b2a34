"""Exact rational arithmetic for the float code paths.

The closed forms, demands, profits, gradients and Hessians are written for
floats, but they are generic over their number type and every literal in
them is a dyadic rational.  Given parameters whose every field is an
`Exact` rational (exact_params), they run unchanged and without rounding.
"""

from __future__ import annotations

from fractions import Fraction

from bundlematch.market import PARAM_FIELDS, MarketParams


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
