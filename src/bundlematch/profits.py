"""Retailer profits and their derivatives.

Profit is margin times demand summed over the segments a retailer serves.
Price-aware and strategic margins use effective (post-PMG) prices.  Which
segment pays which price, and retailer 1's share of strategic demand, come
from the regime structure (market.structure) of the subgame and the price
ordering; exact posted-price ties follow the R1_HIGH convention.

Each formula is written once, as a function of an evaluated point: a
structure, posted prices, their effective prices and the demands there
(profits_at, gradient_r1_at, gradient_r2_at).  evaluate is the one
evaluation of posted prices under a structure, to their demands and both
profits.  profits validates the prices and evaluates them under the
structure of the regime they lie in (market.Regime.of); a closed-form
candidate is evaluated under the structure it was derived in.  A caller
holding an evaluated point reads both gradients from it directly.

The best-response oracle keeps one profit of each candidate, so it scores
its candidates, under the structure of the regime each lies in, with
profit_r1 and profit_r2: each retailer's profit alone, from only the
effective prices and segment demands it reads (retailer 1's five segments,
retailer 2's three; both share the strategic one).  They copy those
expressions of RegimeStructure.effective_prices, market.demands and
profits_at in the same operand order, so each equals evaluate's profit to
the bit; tests/test_profits.py locks the copies to the originals.  Helpers
for each retailer's demands and profit, shared with market.demands and
profits_at, would cost their calls on every evaluation: about 30% of each
evaluate and 5% of sweep and oracle throughput (CPython 3.11).

Within a fixed price-ordering regime each profit is an exact quadratic in the
retailer's own prices: the gradients are affine and match the regime's
first-order-condition system term by term, and the Hessians are constant,
negative definite whenever b_l >= lambda_l and theta_l in (0, 1) (proved in
exact arithmetic in tests/test_exact_algebra.py).  Retailer 1's Hessian under
a structure is hessian_matrix_r1, with closed-form eigenvalues
_eigenvalues_r1; its gradient at zero own prices is linear_terms_r1.
Retailer 2's quadratic in pb2 is quadratic_r2, its curvature _hessian_r2.
All of these take a structure and no scenario.

Everything here is pure Python and generic over the number type:
hessian_matrix_r1 returns rows of the parameters' numbers, which the oracle
reduces to its plans' curvatures (oracle.reduce_r1).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .market import (
    DemandProfile,
    EffectivePrices,
    MarketParams,
    PriceVector,
    RegimeStructure,
    Scenario,
    demands,
    structure_at,
)

# every evaluation builds a ProfitPair, by tuple.__new__ as market's records
_tuple_new = tuple.__new__


class ProfitPair(NamedTuple):
    """Both retailers' profits in raw currency (reporting divides by 1000)."""

    pi_r1: float
    pi_r2: float

    @property
    def welfare(self) -> float:
        return self.pi_r1 + self.pi_r2


def profits_at(
    params: MarketParams,
    s: RegimeStructure,
    prices: PriceVector,
    eff: EffectivePrices,
    d: DemandProfile,
) -> ProfitPair:
    """Both retailers' profits at an evaluated point: posted prices, their
    effective prices eff and demands d under structure s.  profit_r1 and
    profit_r2 copy each retailer's sum, in the same operand order."""
    p = params
    share = s.strategic_share(p.alpha)
    c = p.total_cost
    m1 = prices.p1 - p.c1
    m2 = prices.p2 - p.c2
    strategic = (eff.hat_pb - c) * d.d_s
    if s.bundling == 1:
        pi_r1 = (
            m1 * d.d_l_i1
            + m2 * d.d_l_i2
            + (prices.pb1 - c) * d.d_l_ib
            + (eff.tilde_pb1 - c) * d.d_q_ib
            + share * strategic
        )
    else:
        joint = prices.p1 + prices.p2 - c
        pi_r1 = m1 * d.d_l_i1 + m2 * d.d_l_i2 + joint * (d.d_l_ib + d.d_q_ib) + share * strategic
    pi_r2 = (prices.pb2 - c) * d.d_l_jb + (eff.tilde_pb2 - c) * d.d_q_jb + (1.0 - share) * strategic
    return _tuple_new(ProfitPair, (pi_r1, pi_r2))


def gradient_r1_at(
    params: MarketParams,
    s: RegimeStructure,
    prices: PriceVector,
    eff: EffectivePrices,
    d: DemandProfile,
) -> tuple[float, ...]:
    """d pi_r1 / d(p1, p2, pb1) under B=1, d pi_r1 / d(p1, p2) under B=0, at
    an evaluated point (see profits_at).

    When retailer 1 is matched its loyal price-aware segment pays pb2, so
    that term's margin does not vary with pb1.
    """
    p = params
    w, _ = s.own_strategic_weights(p.alpha)
    c = p.total_cost
    m1 = prices.p1 - p.c1
    m2 = prices.p2 - p.c2
    if s.bundling == 0:
        ms = prices.p1 + prices.p2 - c
        joint = d.d_l_ib + d.d_q_ib - 2.0 * ms * p.b_l
        if w > 0.0:
            joint += w * (d.d_s - ms * p.b_s)
        g1 = d.d_l_i1 - m1 * p.b_l - m2 * p.b_l * p.theta_l + joint
        g2 = d.d_l_i2 - m1 * p.b_l * p.theta_l - m2 * p.b_l + joint
        return (g1, g2)
    mb = prices.pb1 - c
    mt = eff.tilde_pb1 - c
    g1 = d.d_l_i1 - m1 * p.t1 - m2 * p.t2 + mb * p.lambda_l + mt * p.lambda_l
    g2 = d.d_l_i2 - m1 * p.t2 - m2 * p.t1 + mb * p.lambda_l + mt * p.lambda_l
    g3 = (m1 + m2) * p.lambda_l + d.d_l_ib - mb * p.t1
    if not s.r1_matched:
        g3 += d.d_q_ib - mb * p.t1
    if w > 0.0:
        g3 += w * (d.d_s - mb * p.b_s)
    return (g1, g2, g3)


def gradient_r2_at(params: MarketParams, s: RegimeStructure, pb2: float) -> float:
    """d pi_r2 / d pb2 under structure s: loyal price-unaware demand always,
    loyal price-aware demand unless matched down to retailer 1's price, and
    strategic demand when it buys at pb2.  Retailer 1's prices do not enter."""
    p = params
    c = p.total_cost
    _, w = s.own_strategic_weights(p.alpha)
    g = (p.a_l_jb - p.b_l * pb2) - (pb2 - c) * p.b_l
    if not s.r2_matched:
        g += (p.a_q_jb - p.b_l * pb2) - (pb2 - c) * p.b_l
    if w > 0.0:
        g += w * ((p.a_s - p.b_s * pb2) - (pb2 - c) * p.b_s)
    return g


def evaluate(
    params: MarketParams, s: RegimeStructure, prices: PriceVector
) -> tuple[DemandProfile, ProfitPair]:
    """The demands and both retailers' profits at posted prices under
    structure s, from one evaluation of their effective prices.  The prices
    are not validated here: they must pass market.validate_prices."""
    eff = s.effective_prices(prices)
    d = demands(params, prices, eff)
    return d, profits_at(params, s, prices, eff, d)


def profit_r1(params: MarketParams, s: RegimeStructure, prices: PriceVector) -> float:
    """Retailer 1's profit at posted prices under structure s, equal to
    evaluate(params, s, prices)[1].pi_r1 to the bit: only the effective
    prices and the five segment demands it reads, each written as
    RegimeStructure.effective_prices, market.demands and profits_at write
    it, and the total cost as total_cost's body, c1 + c2, so that scoring a
    candidate makes no property call.  The prices are not validated here,
    and must fit s's bundling value."""
    p = params
    p1, p2, pb1, pb2 = prices
    c = p.c1 + p.c2
    share = s.strategic_share(p.alpha)
    if s.bundling == 1:
        tilde_pb1 = pb2 if s.r1_matched else pb1
        hat_pb = pb1 if s.strategic_at_r1 else pb2
        gap = p.lambda_l * (pb1 - p1 - p2)
        d_l_i1 = p.a_l_i1 - p.b_l * p1 - p.b_l * p.theta_l * p2 + gap
        d_l_i2 = p.a_l_i2 - p.b_l * p.theta_l * p1 - p.b_l * p2 + gap
        d_l_ib = p.a_l_ib - p.b_l * pb1 + p.lambda_l * (p1 + p2 - pb1)
        d_q_ib = p.a_q_ib - p.b_l * tilde_pb1 + p.lambda_l * (p1 + p2 - tilde_pb1)
        d_s = p.a_s - p.b_s * hat_pb
        return (
            (p1 - p.c1) * d_l_i1
            + (p2 - p.c2) * d_l_i2
            + (pb1 - c) * d_l_ib
            + (tilde_pb1 - c) * d_q_ib
            + share * ((hat_pb - c) * d_s)
        )
    total = p1 + p2
    hat_pb = total if s.strategic_at_r1 else pb2
    d_l_i1 = p.a_l_i1 - p.b_l * p1 - p.b_l * p.theta_l * p2
    d_l_i2 = p.a_l_i2 - p.b_l * p.theta_l * p1 - p.b_l * p2
    d_l_ib = p.a_l_ib - p.b_l * total
    d_q_ib = p.a_q_ib - p.b_l * total
    d_s = p.a_s - p.b_s * hat_pb
    return (
        (p1 - p.c1) * d_l_i1
        + (p2 - p.c2) * d_l_i2
        + (p1 + p2 - c) * (d_l_ib + d_q_ib)
        + share * ((hat_pb - c) * d_s)
    )


def profit_r2(params: MarketParams, s: RegimeStructure, r1_eq: float, pb2: float) -> float:
    """Retailer 2's profit at its bundle price pb2 against retailer 1's
    bundle-equivalent price r1_eq (PriceVector.r1_bundle_equivalent), the
    only way retailer 1's prices enter it, under structure s: equal to
    evaluate(params, s, prices)[1].pi_r2 to the bit, from only the effective
    prices and the three segment demands it reads, each written as
    RegimeStructure.effective_prices, market.demands and profits_at write
    it, and the total cost as total_cost's body, c1 + c2, so that scoring a
    candidate makes no property call.  The prices are not validated here."""
    p = params
    tilde_pb2 = r1_eq if s.r2_matched else pb2
    hat_pb = r1_eq if s.strategic_at_r1 else pb2
    c = p.c1 + p.c2
    d_l_jb = p.a_l_jb - p.b_l * pb2
    d_q_jb = p.a_q_jb - p.b_l * tilde_pb2
    d_s = p.a_s - p.b_s * hat_pb
    return (
        (pb2 - c) * d_l_jb
        + (tilde_pb2 - c) * d_q_jb
        + (1.0 - s.strategic_share(p.alpha)) * ((hat_pb - c) * d_s)
    )


def profits(params: MarketParams, scenario: Scenario, prices: PriceVector) -> ProfitPair:
    """Both retailers' profits at posted prices, in the regime (and with it
    the PMG resolution and the strategic split) the prices lie in, so the
    function is total, including at regime kinks.  The prices are validated
    first (market.structure_at)."""
    return evaluate(params, structure_at(scenario, prices), prices)[1]


# ---------------------------------------------------------------------------
# Hessians and the per-regime quadratics
# ---------------------------------------------------------------------------


def hessian_matrix_r1(params: MarketParams, s: RegimeStructure) -> list[list[float]]:
    """Retailer 1's constant Hessian in its own prices under structure s, as
    rows (3x3 under bundling, 2x2 otherwise)."""
    p = params
    w, _ = s.own_strategic_weights(p.alpha)
    if s.bundling == 0:
        diag = -6.0 * p.b_l - 2.0 * w * p.b_s
        off = -(4.0 + 2.0 * p.theta_l) * p.b_l - 2.0 * w * p.b_s
        return [[diag, off], [off, diag]]
    t1 = p.t1
    h1, h2 = 2.0 * -t1, 2.0 * -p.t2
    if s.r1_matched:
        lam = 2.0 * p.lambda_l
        return [[h1, h2, lam], [h2, h1, lam], [lam, lam, h1]]
    lam = 2.0 * (1.5 * p.lambda_l)
    corner = 2.0 * (-2.0 * t1 - w * p.b_s)
    return [[h1, h2, lam], [h2, h1, lam], [lam, lam, corner]]


def _eigenvalue_parts_r1(
    params: MarketParams, s: RegimeStructure
) -> tuple[float, float, float | None]:
    """The rational parts (e1, mid, disc) of the closed-form eigenvalues of
    hessian_matrix_r1(params, s): they are e1 and -mid under B=0, and e1 and
    -mid -/+ sqrt(disc) under B=1."""
    p = params
    w, _ = s.own_strategic_weights(p.alpha)
    e1 = -2.0 * p.b_l * (1.0 - p.theta_l)
    if s.bundling == 0:
        return e1, 2.0 * p.b_l * (5.0 + p.theta_l) + 4.0 * w * p.b_s, None
    lam = p.lambda_l
    if s.r1_matched:
        u = p.b_l * p.theta_l + lam
        disc = (u * u) + 8.0 * (lam * lam)
        return e1, 2.0 * p.b_l + 3.0 * lam + p.b_l * p.theta_l, disc
    u = p.b_l * (1.0 - p.theta_l) + w * p.b_s
    disc = (u * u) + 18.0 * (lam * lam)
    return e1, w * p.b_s + p.b_l * p.theta_l + 3.0 * p.b_l + 4.0 * lam, disc


def _eigenvalues_r1(params: MarketParams, s: RegimeStructure) -> list[float]:
    """The closed-form eigenvalues of hessian_matrix_r1(params, s)."""
    e1, mid, disc = _eigenvalue_parts_r1(params, s)
    if disc is None:
        return [e1, -mid]
    root = math.sqrt(disc)
    return [e1, -mid - root, -mid + root]


def _hessian_r2(params: MarketParams, s: RegimeStructure) -> float:
    _, w = s.own_strategic_weights(params.alpha)
    return -2.0 * params.b_l * (1.0 if s.r2_matched else 2.0) - 2.0 * w * params.b_s


def linear_terms_r1(
    params: MarketParams, structures: tuple[RegimeStructure, ...], pb2: float
) -> list[tuple[float, ...]]:
    """Gradient of retailer 1's profit at zero own prices against a fixed
    pb2, in each of structures (one bundling value, one zero price vector):
    the only part of each quadratic that moves with pb2, and it moves only
    under a structure with r1_matched (proved exactly in
    tests/test_exact_algebra.py)."""
    zero = PriceVector(0.0, 0.0, 0.0 if structures[0].bundling == 1 else None, pb2)
    terms = []
    for s in structures:
        eff = s.effective_prices(zero)
        terms.append(gradient_r1_at(params, s, zero, eff, demands(params, zero, eff)))
    return terms


def quadratic_r2(params: MarketParams, s: RegimeStructure) -> tuple[float, float]:
    """Retailer 2's profit in structure s as (h, g0) in pb2; retailer 1's
    prices enter only its constant terms."""
    return _hessian_r2(params, s), gradient_r2_at(params, s, 0.0)
