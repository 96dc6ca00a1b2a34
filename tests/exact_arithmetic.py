"""Exact rational arithmetic for the float code paths.

The closed forms, demands, profits, gradients and Hessians are written for
floats, but they are generic over their number type and every literal in
them is a dyadic rational.  Given parameters whose every field is an
`Exact` rational (exact_params), they run unchanged and without rounding.
Given prices that are `Dual` numbers over `Exact`, they also carry each
result's exact derivative in one seeded price.
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
        result = op(self, Fraction(other) if isinstance(other, float) else other)
        # an operand Fraction does not know (a Dual) takes the reflected form
        return result if result is NotImplemented else Exact(result)

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


_ZERO = Exact(0)


class Dual:
    """A forward-mode dual number: a value and its derivative in one seeded
    input, each an Exact (Griewank and Walther, Evaluating Derivatives,
    SIAM 2008).  The operators carry the derivative by the sum, product and
    quotient rules; any other operand is a constant, of derivative 0.  A
    comparison reads the value alone, so a branch takes the value's side."""

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=_ZERO):
        self.value, self.deriv = value, deriv

    def __add__(self, other):
        o = _lift(other)
        return Dual(self.value + o.value, self.deriv + o.deriv)

    def __sub__(self, other):
        o = _lift(other)
        return Dual(self.value - o.value, self.deriv - o.deriv)

    def __mul__(self, other):
        o = _lift(other)
        return Dual(self.value * o.value, self.deriv * o.value + self.value * o.deriv)

    def __truediv__(self, other):
        o = _lift(other)
        quotient = self.value / o.value
        return Dual(quotient, (self.deriv - quotient * o.deriv) / o.value)

    def __radd__(self, other):
        return _lift(other) + self

    def __rsub__(self, other):
        return _lift(other) - self

    def __rmul__(self, other):
        return _lift(other) * self

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __pos__(self):
        return self

    def __lt__(self, other):
        return self.value < _value(other)

    def __le__(self, other):
        return self.value <= _value(other)

    def __gt__(self, other):
        return self.value > _value(other)

    def __ge__(self, other):
        return self.value >= _value(other)


def _lift(x) -> Dual:
    return x if isinstance(x, Dual) else Dual(x)


def _value(x):
    return x.value if isinstance(x, Dual) else x
