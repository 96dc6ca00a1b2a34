"""Independent equilibrium oracle: best responses and fixed-point iteration.

Within each price-ordering regime a retailer's profit is an exact concave
quadratic, so a best response is the best of a few closed-form maximizers,
each kept only where its prices lie.  Concavity is a fact of the algebra,
proved once for every regime structure in tests/test_exact_algebra.py, so
no Hessian is checked here.  Nash candidates are then found by damped
alternating best response.  No closed-form equilibrium expression is used
anywhere in this module, which makes fixed points an independent
cross-check of the closed forms.

Retailer 1's two items are mirror images in its loyal demands (own slope
b_l, cross slope b_l theta_l, the same lambda_l bundle-gap term), so
(1, -1, 0) is an eigenvector of its Hessian under every structure, and the
difference of its linear terms along it does not move with pb2.  While both
item prices are free, p1 - p2 is one constant of the parameters
(item_difference), and retailer 1 chooses only u = p1 + p2 and pb1.  Its
plans (_PLANS) are the high and low regimes' interiors and the kink tie,
each again on the bundle-discount face p1 + p2 = pb1 when it bundles;
plan_r1 solves each in closed form.  A kink plan maximizes under the
R1_HIGH structure with retailer 1's bundle-equivalent price held at pb2: on
the kink every structure charges every segment pb2, so any of them gives
the same profit there and the same constrained maximizer.  A plan whose item-price difference puts an item
price below zero has one variant with that item at exactly 0.0 and the
other prices re-optimized.  Every denominator is a curvature of the concave
profit along a plan's free directions (reduce_r1), negative on the whole
parameter domain; where rounding at an extreme scale loses its sign,
DegenerateParamsError is raised.

A BestResponses object holds one game, (params, scenario).  It builds once
per game everything in a response that does not move with the rival's
price: the (R1_HIGH, R1_LOW) structures, retailer 2's stationary points,
and, at retailer 1's first response, its item-price difference, its
curvatures under each structure and its linear terms at pb2 = c, the
total cost c1 + c2.  Retailer 1's linear terms read pb2 only where it is
matched (T1's R1_HIGH structure, where its loyal price-aware buyers pay
pb2), and there only through one addend of each item term,
(pb2 - c) * lambda_l, the last of gradient_r1_at's sums.  At pb2 = c that
addend is exactly 0.0, so the game's terms hold the sums before it, and a
response adds its own addend, the same last floating-point operation: no
response evaluates a demand profile.
find_fixed_point and find_fixed_points share one object across all rounds
and starts; nothing is remembered across games.

Retailer 1's responses are remembered by the exact bits of pb2: a lookup
costs about 0.6-1.1 us against a 10-20 us response, and about a fifth of a
search's rounds repeat a pb2.  Retailer 2's profit reads retailer 1's
prices only through r1_eq (PriceVector.r1_bundle_equivalent), so its
response, the best of three clamped candidates, costs about what a lookup
keyed on retailer 1's three prices would, and is not remembered.  A
stationary point clamped to r1_eq is the kink again, under the same
structure, so each distinct price is scored once.

Each candidate is scored once, by the responding retailer's own profit
(profits.profit_r1 or profit_r2, equal to profits.evaluate's to the bit)
under the structure of the regime its prices lie in (market.Regime.of),
taken from the game's pair.  Retailer 1's are first screened for
nonnegative prices, against their plan's regime from the solved floats, and
off the bundle-discount face against bundle-within-parts; a plan on the
face or the kink lies there by construction, so rounding at a large price
scale cannot reject it.  The kink plans always leave a candidate: at
pb2 >= 0 the kink on the face (under B=0 the kink), or its variant, has
nonnegative prices.  A non-finite candidate raises as validation does,
before any of these tests could drop it.

A search runs at most MAX_ITERS rounds and converges when the best-response
residual drops below TOL_FP; both are read when a search starts.  It stops
at its first exactly repeated state, which starts a cycle that can never
converge, and returns the outcome the full MAX_ITERS rounds would have
returned.

Non-convergence is data, not an error: it is the signal used to map regions
where no pure-strategy equilibrium exists.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import NamedTuple

from .equilibria import DegenerateParamsError
from .market import (
    PARAM_FIELDS,
    MarketParams,
    PriceVector,
    Regime,
    RegimeStructure,
    Scenario,
    regime_structures,
    validate_prices,
)
from .profits import hessian_matrix_r1, linear_terms_r1, profit_r1, profit_r2, quadratic_r2


MAX_ITERS = 500  # rounds of one fixed-point search
TOL_FP = 1e-8  # sup-norm tolerance on the best-response residual
# find_fixed_points reports two converged outcomes as one fixed point when
# their prices lie within this sup-norm distance
TOL_DEDUPE = 1e-6

# a module global reads faster than an Enum class attribute; each candidate
# reads them, and builds its prices by tuple.__new__, as market's records
_LOW = Regime.R1_LOW
_regime_of = Regime.of
_tuple_new = tuple.__new__

_param_values = operator.attrgetter(*PARAM_FIELDS)
_FLOAT = {float}


def _float_params(params: MarketParams) -> MarketParams:
    """params with every field a Python float.  A field of a float subclass
    with its own arithmetic, such as an array library's float64 scalar,
    would carry that arithmetic into the search, and it warns on an
    overflow that float arithmetic takes to inf silently."""
    values = _param_values(params)
    if set(map(type, values)) <= _FLOAT:
        return params
    return MarketParams(*map(float, values))


class OracleOutcome(NamedTuple):
    converged: bool
    prices: PriceVector
    iterations: int


def _negative(curvature: float) -> float:
    """curvature, once it is < 0: a curvature of retailer 1's profit, which
    is negative on the whole parameter domain and can lose its sign only by
    rounding at an extreme scale."""
    if not curvature < 0.0:
        raise DegenerateParamsError(
            "degenerate parameters: a curvature of retailer 1's profit is not negative"
        )
    return curvature


def item_difference(params: MarketParams) -> float:
    """p1 - p2 wherever retailer 1 maximizes with both item prices free:
    (a_l_i1 - a_l_i2) / (2 b_l (1 - theta_l)) + (c1 - c2) / 2.  Along
    (1, -1, 0) every retailer-1 Hessian has the eigenvalue
    -2 b_l (1 - theta_l), and the linear terms the difference
    (a_l_i1 - a_l_i2) + b_l (1 - theta_l) (c1 - c2).  Read from the
    parameters, not from the Hessian's entries, whose difference can round
    to 0."""
    p = params
    eigenvalue = _negative(-2.0 * p.b_l * (1.0 - p.theta_l))
    return (p.a_l_i2 - p.a_l_i1) / eigenvalue + (p.c1 - p.c2) / 2.0


def reduce_r1(params: MarketParams, s: RegimeStructure) -> tuple:
    """Retailer 1's Hessian under structure s (hessian_matrix_r1), reduced
    to its plans' denominators, each guarded negative.

    x is what the items' level moves: u = p1 + p2 with p1 - p2 held, whose
    curvature is the mean of a row's two item entries, or one item's price
    with the other held at 0.0, whose curvature is its diagonal entry.
    Under B=0 each x has one curvature.  Under B=1, with l the curvature
    across x and pb1 and c along pb1, each x has three: along x alone (the
    kink, pb1 held), with pb1 at its best (x's curvature less l * l / c,
    the interior) and with pb1 moving with x (x's curvature plus 2 l + c,
    the face); they are returned as ((u's three, the item's three),
    (l, c, l / c))."""
    h = hessian_matrix_r1(params, s)
    if s.bundling == 0:
        (diag, off), _ = h
        return ((_negative(0.5 * diag + 0.5 * off),), (_negative(diag),)), None
    (h1, h2, l), _, (_, _, c) = h
    r = l / _negative(c)
    return tuple(
        (_negative(a), _negative(a - r * l), _negative(a + 2.0 * l + c))
        for a in (0.5 * h1 + 0.5 * h2, h1)
    ), (l, c, r)


def _maximize(curvatures, coupling, k, g3, pb2, on_kink, on_face):
    """(x, pb1) maximizing retailer 1's profit on one plan, x as in
    reduce_r1 with the linear term k (B=0: pb1 None); g3 is pb1's linear
    term.  The interior is solved by elimination through r = l / c, which
    keeps every product of two curvatures out of it."""
    if coupling is None:
        return (pb2 if on_kink else -k / curvatures[0]), None
    along, interior, face = curvatures
    l, c, r = coupling
    if on_kink:
        return (pb2, pb2) if on_face else (-(k + l * pb2) / along, pb2)
    if on_face:
        x = -(k + g3) / face
        return x, x
    x = -(k - r * g3) / interior
    return x, -(g3 + l * x) / c


def plan_r1(reduced: tuple, terms: tuple, v: float, pb2: float, on_kink: bool, on_face: bool):
    """Retailer 1's candidates on one plan against pb2, as (p1, p2, pb1)
    rows: the maximizer with p1 - p2 = v (item_difference), and, when v
    puts an item price below 0.0, one more with that item at exactly 0.0,
    the other item and pb1 re-optimized.  reduced is reduce_r1's and terms
    linear_terms_r1's, under the plan's structure.  No call in it needs a
    float, so it runs on exact rationals too."""
    curvatures, coupling = reduced
    g1, g2 = terms[0], terms[1]
    g3 = None if coupling is None else terms[2]
    u, pb1 = _maximize(curvatures[0], coupling, 0.5 * g1 + 0.5 * g2, g3, pb2, on_kink, on_face)
    p1, p2 = 0.5 * u + 0.5 * v, 0.5 * u - 0.5 * v
    rows = [(p1, p2, pb1)]
    if v > 0.0 and p2 < 0.0:
        x, pb1 = _maximize(curvatures[1], coupling, g1, g3, pb2, on_kink, on_face)
        rows.append((x, 0.0, pb1))
    elif v < 0.0 and p1 < 0.0:
        x, pb1 = _maximize(curvatures[1], coupling, g2, g3, pb2, on_kink, on_face)
        rows.append((0.0, x, pb1))
    return rows


# retailer 1's plans by bundling value, scored in this order (a tie goes
# to the first): (structure, on_kink, on_face), the structure's index in
# the game's (R1_HIGH, R1_LOW) pair; a kink plan maximizes under R1_HIGH
_PLANS = {
    0: ((0, False, False), (1, False, False), (0, True, False)),
    1: (
        (0, False, False), (1, False, False), (0, True, False),
        (0, False, True), (1, False, True), (0, True, True),
    ),
}


class _PlansR1(NamedTuple):
    """Retailer 1's plans in one game: everything in its best response that
    does not move with pb2, each per structure of the (R1_HIGH, R1_LOW)
    pair."""

    v: float  # item_difference
    reduced: tuple  # reduce_r1's
    terms: tuple  # linear_terms_r1's at pb2 = total_cost


class BestResponses:
    """Both retailers' best responses in one (params, scenario) game;
    retailer 1's are remembered by the exact bits of pb2."""

    def __init__(self, params: MarketParams, scenario: Scenario) -> None:
        self.params, self.scenario = _float_params(params), scenario
        params = self.params
        # (R1_HIGH, R1_LOW): indexed by Regime.of(...) is _LOW
        self._regime_pair = regime_structures(scenario)
        # retailer 2's stationary point in each of (R1_HIGH, R1_LOW)
        quadratics = [quadratic_r2(params, s) for s in self._regime_pair]
        self._stationary_r2 = tuple(-g0 / h for h, g0 in quadratics)
        # retailer 1's responses in this game, by the exact bits of pb2
        self._r1_memo: dict[str, tuple[float, float, float | None]] = {}

    @cached_property
    def _plans_r1(self) -> _PlansR1:
        """Retailer 1's plans in this game, with the linear terms taken at
        pb2 = total_cost, where the matched R1_HIGH structure's pb2 addend
        (pb2 - c) * lambda_l is exactly 0.0; no other term reads pb2."""
        params, pair = self.params, self._regime_pair
        return _PlansR1(
            item_difference(params),
            tuple(reduce_r1(params, s) for s in pair),
            tuple(linear_terms_r1(params, pair, params.total_cost)),
        )

    def respond_r1(self, pb2: float) -> tuple[float, float, float | None]:
        """Retailer 1's best response to pb2, which must be finite and >= 0:
        every plan solved in closed form (plan_r1), each candidate with
        nonnegative prices in its plan's regime (and, off the
        bundle-discount face, within its parts) scored once by retailer 1's
        profit under the structure of the regime its prices lie in, the one
        with the highest profit kept.  Remembered per pb2, by its exact
        bits."""
        pb2 = float(pb2)  # a float subclass's arithmetic may warn, see _float_params
        if not 0.0 <= pb2 < math.inf:
            raise ValueError("pb2 must be finite and >= 0")
        key = pb2.hex()
        if key in self._r1_memo:
            return self._r1_memo[key]
        params, scenario, pair = self.params, self.scenario, self._regime_pair
        v, reduced, terms = self._plans_r1
        if pair[0].r1_matched:
            # T1: the R1_HIGH structure's item terms move by their pb2
            # addend, added last, as gradient_r1_at adds it; c1 + c2 is
            # total_cost's body, without the property call
            g1, g2, g3 = terms[0]
            moved = (pb2 - (params.c1 + params.c2)) * params.lambda_l
            terms = ((g1 + moved, g2 + moved, g3), terms[1])
        best_value, best = -math.inf, None
        for side, on_kink, on_face in _PLANS[scenario.bundling]:
            for row in plan_r1(reduced[side], terms[side], v, pb2, on_kink, on_face):
                p1, p2, pb1 = row
                r1_eq = p1 + p2 if pb1 is None else pb1
                prices = _tuple_new(PriceVector, (p1, p2, pb1, pb2))
                # a NaN fails every screen's comparison, so the prices are
                # tested for finiteness first: the sum is finite only if
                # every price is
                if not math.isfinite(p1 + p2 + r1_eq):
                    validate_prices(scenario, prices)  # raises, naming the price
                if p1 < 0.0 or p2 < 0.0 or r1_eq < 0.0:
                    continue
                # classified from the floats, so only a candidate in its
                # plan's regime is scored
                if not on_kink and not pair[side].regime.holds(r1_eq, pb2):
                    continue
                if not on_face and not prices.bundle_within_parts():
                    continue
                value = profit_r1(params, pair[_regime_of(r1_eq, pb2) is _LOW], prices)
                if best is None or value > best_value:
                    best_value, best = value, row
        assert best is not None  # the kink plans always yield a candidate
        self._r1_memo[key] = best
        return best

    def respond_r2(self, r1_prices: PriceVector) -> float:
        """Retailer 2's best response to r1_prices, which its profit reads
        only through their bundle-equivalent price r1_eq: r1_eq itself (the
        kink) and each regime's stationary point clamped to that regime's
        side of it, compared at their realized profits, each distinct price
        once.  r1_prices.pb2 is not read."""
        r1_eq = r1_prices.r1_bundle_equivalent()
        if not math.isfinite(r1_eq):
            raise ValueError("r1 prices must be finite")
        p1, p2, pb1 = r1_prices.p1, r1_prices.p2, r1_prices.pb1
        params, scenario, (high_s, low_s) = self.params, self.scenario, self._regime_pair
        # retailer 1's prices, validated once, with the kink candidate as pb2
        validate_prices(scenario, _tuple_new(PriceVector, (p1, p2, pb1, r1_eq)))
        high, low = self._stationary_r2
        # the kink, under the R1_HIGH structure a tie lies in, compared with
        # -inf as every candidate is, so that a NaN profit never wins
        best_value, best_pb2 = -math.inf, r1_eq
        value = profit_r2(params, high_s, r1_eq, r1_eq)
        if value > best_value:
            best_value = value
        # a point clamped to r1_eq is the kink again, which the strict >
        # keeps, so only one strictly on its side, and in its regime, is scored
        for s, pb2 in ((high_s, min(high, r1_eq)), (low_s, max(low, r1_eq))):
            if not math.isfinite(pb2):
                # raises, naming pb2
                validate_prices(scenario, _tuple_new(PriceVector, (p1, p2, pb1, pb2)))
            if pb2 != r1_eq:
                value = profit_r2(params, s, r1_eq, pb2)
                if value > best_value:
                    best_value, best_pb2 = value, pb2
        return float(max(best_pb2, 0.0))


def best_response_r1(
    params: MarketParams, scenario: Scenario, pb2: float
) -> tuple[float, float, float | None]:
    """Retailer 1's profit-maximizing prices against a fixed pb2 >= 0.

    Maximizes in closed form on each ordering regime's interior, the kink
    (bundle-equivalent price equal to pb2) and, when bundling, the
    bundle-discount face, each with an item price at zero where the item
    symmetry would push it below, and returns the candidate with
    nonnegative prices and the highest realized profit.
    """
    return BestResponses(params, scenario).respond_r1(pb2)


def best_response_r2(params: MarketParams, scenario: Scenario, r1_prices: PriceVector) -> float:
    """Retailer 2's profit-maximizing bundle price against fixed r1 prices.

    Scalar concave quadratic per regime; regime-interior stationary points
    plus the kink price are compared at their realized profits.
    """
    return BestResponses(params, scenario).respond_r2(r1_prices)


def _default_start(params: MarketParams, scenario: Scenario) -> PriceVector:
    pb1 = params.total_cost + 1.0 if scenario.bundling == 1 else None
    return PriceVector(params.c1 + 1.0, params.c2 + 1.0, pb1, params.total_cost + 1.0)


def _search(responses: BestResponses, start: PriceVector, damping: float) -> OracleOutcome:
    """Alternating best response from start, each step moving the fraction
    damping of the way to the best response.

    A round is a pure function of its state, and every state seen before has
    failed the convergence test, so a repeated state starts an exact cycle
    that never converges.  The search stops there and returns the state the
    loop would hold after MAX_ITERS rounds.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    validate_prices(responses.scenario, start)
    x = start
    converged = False
    first_seen: dict[tuple[str, ...], int] = {}  # by exact bits: 0.0 and -0.0 differ
    history: list[PriceVector] = []
    keep = 1.0 - damping
    for iteration in range(MAX_ITERS):
        present = x.present()
        mu = first_seen.setdefault(tuple(map(float.hex, present)), iteration)
        if mu < iteration:
            x = history[mu + (MAX_ITERS - mu) % (iteration - mu)]
            break
        history.append(x)
        p1, p2, pb1 = responses.respond_r1(x.pb2)
        pb2 = responses.respond_r2(x)
        # the best response as present() orders it
        star = (p1, p2, pb2) if pb1 is None else (p1, p2, pb1, pb2)
        if max(map(abs, map(operator.sub, star, present))) < TOL_FP:
            converged = True
            break
        step = [keep * a + damping * b for a, b in zip(present, star)]
        if len(step) == 3:
            step.insert(2, None)
        x = _tuple_new(PriceVector, step)
    return OracleOutcome(converged, x, iteration if converged else MAX_ITERS)


def find_fixed_point(
    params: MarketParams, scenario: Scenario, damping: float = 1.0
) -> OracleOutcome:
    """Damped alternating best response until the best-response residual
    drops below TOL_FP; damping, in (0, 1], is the step fraction toward the
    best response.

    Convergence certifies that both retailers' best responses reproduce the
    returned prices within TOL_FP.  Hitting MAX_ITERS (oscillation or
    divergence) returns converged=False; that outcome marks parameter points
    with no pure-strategy equilibrium found.  An exact cycle (a state
    repeated bit for bit) is detected when it closes; the search then
    returns the prices the loop would hold after MAX_ITERS rounds, and
    iterations still reports MAX_ITERS.
    """
    responses = BestResponses(params, scenario)
    return _search(responses, _default_start(responses.params, scenario), damping)


def find_fixed_points(
    params: MarketParams, scenario: Scenario, damping: float = 1.0
) -> list[OracleOutcome]:
    """Run the fixed-point search from the four corners of a coarse price box
    and return the distinct outcomes (converged ones deduplicated).

    Iterated best response is not guaranteed to reach every fixed point from
    one start, so callers that care about multiplicity get all of them.  A
    corner beyond the float range raises InvalidPriceError, as a search
    validates its start.
    """
    responses = BestResponses(params, scenario)
    params = responses.params
    lo = params.total_cost
    hi = lo + _price_span(params)
    outcomes: list[OracleOutcome] = []
    for r1_level, r2_level in ((lo, lo), (lo, hi), (hi, lo), (hi, hi)):
        pb1 = r1_level if scenario.bundling == 1 else None
        start = PriceVector(r1_level / 2.0, r1_level / 2.0, pb1, r2_level)
        outcome = _search(responses, start, damping)
        duplicate = any(
            o.converged
            and outcome.converged
            and o.prices.sup_distance(outcome.prices) < TOL_DEDUPE
            for o in outcomes
        )
        if not duplicate:
            outcomes.append(outcome)
    return outcomes


def _price_span(params: MarketParams) -> float:
    bases = (
        params.a_l_i1,
        params.a_l_i2,
        params.a_l_ib,
        params.a_q_ib,
        params.a_l_jb,
        params.a_q_jb,
        params.a_s,
    )
    return max(bases) / min(params.b_l, params.b_s) + 1.0
