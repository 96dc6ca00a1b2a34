"""Sufficient condition sets A-F.

Each condition set is a list of parameter inequalities under which exactly one
price-ordering regime of a subgame admits a valid equilibrium.  The sets are
sufficient, not necessary: a failing report does not rule an equilibrium out.
The per-regime Hessians live with the profits in `profits`; their concavity
is proved once, in exact arithmetic, by tests/test_exact_algebra.py.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .market import MarketParams


class UnknownSetError(ValueError):
    """Requested condition set id is not one of A-F."""


class ConditionCheck(NamedTuple):
    """One inequality: `lhs relation rhs`, with the evaluated sides kept for
    diagnostics."""

    label: str
    lhs: float
    rhs: float
    relation: str  # ">=" or "<="

    @property
    def satisfied(self) -> bool:
        """Whether the weak inequality holds exactly; a NaN side fails it."""
        if self.relation == ">=":
            return self.lhs >= self.rhs
        return self.lhs <= self.rhs


class ConditionReport(NamedTuple):
    set_id: str
    inequalities: list[ConditionCheck]

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.inequalities)

    def summary(self) -> str:
        n_ok = sum(c.satisfied for c in self.inequalities)
        return f"set {self.set_id}: {n_ok}/{len(self.inequalities)} inequalities hold"


def _div(num: float, den: float) -> float:
    """Ratio with signed-infinity semantics at a zero denominator (a zero
    demand base makes a comparison vacuously one-sided, not an error)."""
    if den != 0.0:
        return num / den
    if num > 0.0:
        return math.inf
    if num < 0.0:
        return -math.inf
    return math.nan


def check_condition_set(set_id: str, params: MarketParams) -> ConditionReport:
    """Evaluate every inequality of a sufficient condition set.

    Inequalities are weak and checked exactly.  Set B's last lower bound is
    stated with a duplicated term (a_q_jb + a_q_jb) and is read literally.
    """
    p = params
    sid = set_id.upper()
    ratio = p.b_l / p.b_s
    sum_i = p.a_l_i1 + p.a_l_i2
    sum_j = p.a_l_jb + p.a_q_jb
    c = p.total_cost
    checks: list[ConditionCheck] = []

    def ge(label: str, lhs: float, rhs: float) -> None:
        checks.append(ConditionCheck(label, lhs, rhs, ">="))

    def le(label: str, lhs: float, rhs: float) -> None:
        checks.append(ConditionCheck(label, lhs, rhs, "<="))

    if sid == "A":
        ge("a_l_i1 + a_l_i2 >= 4/3 (a_l_jb + a_q_jb)", sum_i, 4.0 / 3.0 * sum_j)
        ge("a_l_ib >= (a_l_jb + a_q_jb)/2", p.a_l_ib, sum_j / 2.0)
        ge("a_q_ib >= a_q_jb", p.a_q_ib, p.a_q_jb)
        ge("a_q_jb >= a_l_jb", p.a_q_jb, p.a_l_jb)
        ge("(a_l_i1 + a_l_i2)/(2 a_s) >= b_l/b_s", _div(sum_i, 2.0 * p.a_s), ratio)
        ge("b_l/b_s >= (a_l_jb + a_q_jb)/(2 a_s)", ratio, _div(sum_j, 2.0 * p.a_s))
        ge("a_l_ib/a_s >= b_l/b_s", _div(p.a_l_ib, p.a_s), ratio)
        ge("b_l/b_s >= a_l_jb/a_s", ratio, _div(p.a_l_jb, p.a_s))
    elif sid == "B":
        ge("a_l_i1 + a_l_i2 >= 4/3 (a_l_jb + a_q_jb)", sum_i, 4.0 / 3.0 * sum_j)
        ge("a_l_ib + a_q_ib >= a_l_jb + a_q_jb", p.a_l_ib + p.a_q_ib, sum_j)
        ge("a_q_jb >= a_l_jb", p.a_q_jb, p.a_l_jb)
        ge("(a_l_i1 + a_l_i2)/(2 a_s) >= 4/3 b_l/b_s", _div(sum_i, 2.0 * p.a_s), 4.0 / 3.0 * ratio)
        # stated as (a_q_jb + a_q_jb); a_l_jb + a_q_jb, which parallels set A,
        # is the likely intent, but the literal form is the one checked
        ge(
            "4/3 b_l/b_s >= (a_q_jb + a_q_jb)/(2 a_s)",
            4.0 / 3.0 * ratio,
            _div(2.0 * p.a_q_jb, 2.0 * p.a_s),
        )
        ge("b_l/b_s >= a_l_jb/a_s", ratio, _div(p.a_l_jb, p.a_s))
    elif sid == "C":
        one_th = 1.0 + p.theta_l
        le("(a_l_i1 + a_l_i2)/((1+theta_l) a_s) <= b_l/b_s", _div(sum_i, one_th * p.a_s), ratio)
        le("b_l/b_s <= (a_l_jb + a_q_jb)/(2 a_s)", ratio, _div(sum_j, 2.0 * p.a_s))
        le("2 a_l_ib/((1+theta_l) a_s) <= b_l/b_s", _div(2.0 * p.a_l_ib, one_th * p.a_s), ratio)
        le("b_l/b_s <= a_l_jb/a_s", ratio, _div(p.a_l_jb, p.a_s))
        le("2 a_l_ib/(1+theta_l) <= (a_l_jb + a_q_jb)/2", 2.0 * p.a_l_ib / one_th, sum_j / 2.0)
        le("a_q_ib <= a_l_ib", p.a_q_ib, p.a_l_ib)
        le("a_l_ib <= a_q_jb", p.a_l_ib, p.a_q_jb)
        le("a_q_jb <= a_l_jb", p.a_q_jb, p.a_l_jb)
        le(
            "a_l_ib + a_q_ib + (c1+c2)/2 (2 b_l + b_s)/(2 b_l) lambda_l <= a_l_jb + a_q_jb",
            p.a_l_ib + p.a_q_ib + 0.5 * c * (2.0 * p.b_l + p.b_s) / (2.0 * p.b_l) * p.lambda_l,
            sum_j,
        )
        le("a_l_jb <= (c1+c2) b_l", p.a_l_jb, c * p.b_l)
        le("a_s <= (c1+c2)(1-alpha) b_s", p.a_s, c * (1.0 - p.alpha) * p.b_s)
    elif sid == "D":
        one_th = 1.0 + p.theta_l
        le("(a_l_i1 + a_l_i2)/((1+theta_l) a_s) <= b_l/b_s", _div(sum_i, one_th * p.a_s), ratio)
        le("b_l/b_s <= (a_l_jb + a_q_jb)/(2 a_s)", ratio, _div(sum_j, 2.0 * p.a_s))
        le("2 a_l_ib/((1+theta_l) a_s) <= b_l/b_s", _div(2.0 * p.a_l_ib, one_th * p.a_s), ratio)
        le("b_l/b_s <= a_l_jb/a_s", ratio, _div(p.a_l_jb, p.a_s))
        le(
            "2 (a_l_ib + a_q_ib)/(1+theta_l) + (c1+c2)/2 (2 b_l + b_s)/(2 b_l) lambda_l"
            " <= a_l_jb + a_q_jb",
            2.0 * (p.a_l_ib + p.a_q_ib) / one_th
            + 0.5 * c * (2.0 * p.b_l + p.b_s) / (2.0 * p.b_l) * p.lambda_l,
            sum_j,
        )
        le("a_q_jb <= a_l_jb", p.a_q_jb, p.a_l_jb)
        le("a_l_jb <= (c1+c2) b_l", p.a_l_jb, c * p.b_l)
        le("a_s <= (c1+c2)(1-alpha) b_s", p.a_s, c * (1.0 - p.alpha) * p.b_s)
    elif sid == "E":
        ge("a_l_ib + a_q_ib >= a_l_jb + a_q_jb", p.a_l_ib + p.a_q_ib, sum_j)
        ge("a_l_i1 + a_l_i2 >= a_l_jb + a_q_jb", sum_i, sum_j)
        ge("(a_l_i1 + a_l_i2)/(2 a_s) >= b_l/b_s", _div(sum_i, 2.0 * p.a_s), ratio)
        ge("(a_l_ib + a_q_ib)/(2 a_s) >= b_l/b_s", _div(p.a_l_ib + p.a_q_ib, 2.0 * p.a_s), ratio)
        ge("b_l/b_s >= (a_l_jb + a_q_jb)/(2 a_s)", ratio, _div(sum_j, 2.0 * p.a_s))
    elif sid == "F":
        three_th = 3.0 + p.theta_l
        le(
            "a_l_ib + a_q_ib <= (3+theta_l)/4 (a_l_jb + a_q_jb)",
            p.a_l_ib + p.a_q_ib,
            three_th / 4.0 * sum_j,
        )
        le("a_l_i1 + a_l_i2 <= a_l_jb + a_q_jb", sum_i, sum_j)
        le("(a_l_i1 + a_l_i2)/(2 a_s) <= b_l/b_s", _div(sum_i, 2.0 * p.a_s), ratio)
        le(
            "4 (a_l_ib + a_q_ib)/((3+theta_l) 2 a_s) <= b_l/b_s",
            _div(4.0 * (p.a_l_ib + p.a_q_ib), three_th * 2.0 * p.a_s),
            ratio,
        )
        le("b_l/b_s <= (a_l_jb + a_q_jb)/(2 a_s)", ratio, _div(sum_j, 2.0 * p.a_s))
    else:
        raise UnknownSetError(f"unknown condition set {set_id!r}; expected one of A-F")
    return ConditionReport(set_id=sid, inequalities=checks)
