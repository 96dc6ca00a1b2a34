"""Independent equilibrium oracle: best responses and fixed-point iteration.

Within each price-ordering regime a retailer's profit is an exact concave
quadratic, so best responses are computed by solving the regime's linear
first-order system and keeping the candidate with the highest actual
profit.  Concavity is a fact of the algebra, proved once for every regime
structure and kink row in tests/test_exact_algebra.py, so no Hessian is
checked here.  Retailer 1's candidates come from one plan table for both
bundling values: the high and low regimes and the kink tie
(market.kink_structure), each again on the bundle-discount face when it
bundles.  Nash candidates are then found by damped alternating best
response.
No closed-form equilibrium expression is used anywhere in this module, which
makes fixed points an independent cross-check of the closed forms.

A BestResponses object holds one game, (params, scenario).  It builds once
per game everything in a response that does not move with the rival's
price: the (R1_HIGH, R1_LOW) structures, retailer 2's stationary points,
and retailer 1's KKT matrices and right-hand sides, one array of each.
Retailer 1's linear terms read pb2 only on a matched row (T1's R1_HIGH row,
where its PMG matches pb2), so every other side's terms are put into the
right-hand sides once, at pb2 = 0.0; a response copies them, writes only
pb2 into the kink rows and the matched side's terms, and makes one stacked
solve.  Every response is remembered by the exact bits of its argument, so
a price seen again in the same game costs a lookup.  find_fixed_point and
find_fixed_points share one object across all rounds and starts; nothing
is remembered across games.

Each candidate is evaluated once, by profits.evaluate under the structure
of the regime its prices lie in (market.Regime.of), taken from the game's
pair.  Retailer 1's are first tested against their plan's regime from the
solved floats, and off the bundle-discount face against bundle-within-parts;
a plan on the face or the kink lies there by construction, so rounding at a
large price scale cannot reject it.  A non-finite candidate raises as
validation does.

A search runs at most MAX_ITERS rounds and converges when the best-response
residual drops below TOL_FP; both are read when a search starts.  It stops
at its first exactly repeated state, which starts a cycle that can never
converge, and returns the outcome the full MAX_ITERS rounds would have
returned.

Non-convergence is data, not an error: it is the signal used to map regions
where no pure-strategy equilibrium exists.

This module imports numpy at load time; the package loads it only when an
oracle name is first used (bundlematch.__getattr__) or a subgame is solved
with oracle_check=True (policy.find_fixed_point).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .market import (
    MarketParams,
    PriceVector,
    Regime,
    RegimeStructure,
    Scenario,
    kink_structure,
    regime_structures,
    validate_prices,
)
from .profits import evaluate, hessian_matrix_r1, linear_terms_r1, quadratic_r2


MAX_ITERS = 500  # rounds of one fixed-point search
TOL_FP = 1e-8  # sup-norm tolerance on the best-response residual

# a module global reads faster than an Enum class attribute; each candidate
# reads it, and builds its prices by tuple.__new__, as market's records
_LOW = Regime.R1_LOW
_tuple_new = tuple.__new__


class SingularSystemError(RuntimeError):
    """numpy found a plan's first-order (KKT) system singular, so it does not
    identify a maximizer."""


class OracleOutcome(NamedTuple):
    converged: bool
    prices: PriceVector
    iterations: int

    @property
    def classified_regime(self) -> Regime:
        """The regime the prices lie in (Regime.of)."""
        return Regime.of(self.prices.r1_bundle_equivalent(), self.prices.pb2)


def _kkt_matrix(h: np.ndarray, constraints: list[np.ndarray]) -> np.ndarray:
    """The bordered KKT matrix maximizing the quadratic with Hessian h
    subject to equality constraints a.x = b (h itself when unconstrained)."""
    if not constraints:
        return h
    n, m = h.shape[0], len(constraints)
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = h
    for i, a in enumerate(constraints):
        kkt[:n, n + i] = -a
        kkt[n + i, :n] = a
    return kkt


_KINK_SIDE = 2  # the kink tie's index among retailer 1's structures


def _plan_template(bundled: bool) -> tuple[tuple[tuple[int, Regime | None, bool], ...], np.ndarray]:
    """Retailer 1's plans under one bundling value as (side, regime,
    on_face), where side indexes its structures (R1_HIGH, R1_LOW, kink tie)
    and regime is None on the kink, and the plans' KKT matrices with zero
    Hessian blocks, each padded with an identity block to the largest
    system size (5 under B=1, 3 under B=0), by (face, side).  The plans run
    in that order too.  The stack is read-only: every game copies it."""
    n = 3 if bundled else 2
    kink = np.array([0.0, 0.0, 1.0] if bundled else [1.0, 1.0])  # r1's price = pb2
    sides = ((0, Regime.R1_HIGH, []), (1, Regime.R1_LOW, []), (_KINK_SIDE, None, [kink]))
    # each side again on the bundle-discount face p1 + p2 = pb1
    faces = ([], [np.array([1.0, 1.0, -1.0])]) if bundled else ([],)
    plans, matrices = [], []
    for face in faces:
        for side, regime, constraints in sides:
            plans.append((side, regime, bool(face)))
            matrices.append(_kkt_matrix(np.zeros((n, n)), constraints + face))
    # the identity block leaves a system's solution exact: its rows and
    # columns are zero against the system's, and its right-hand side 0
    size = max(len(m) for m in matrices)
    stack = np.zeros((len(faces), len(sides), size, size))
    for padded, matrix in zip(stack.reshape(len(matrices), size, size), matrices):
        m = len(matrix)
        padded[:m, :m] = matrix
        padded[range(m, size), range(m, size)] = 1.0
    stack.flags.writeable = False
    return tuple(plans), stack


# by bundling value: what every game's plan stack shares, built once
_PLAN_TEMPLATES = {bundling: _plan_template(bundling == 1) for bundling in (0, 1)}


class _PlansR1(NamedTuple):
    """Retailer 1's plans in one game: everything in its best response that
    does not move with pb2."""

    structures: tuple[RegimeStructure, ...]  # R1_HIGH, R1_LOW, kink tie
    plans: tuple[tuple[int, Regime | None, bool], ...]  # (side, regime, on_face)
    stack: np.ndarray  # the plans' padded KKT matrices, (plans, size, size)
    # the plans' right-hand sides, (plans, size, 1), as the stack: a side's
    # linear terms, negated, in each of its plans (the face does not change
    # them; the face constraint's row is 0.0, as the padding's), and 0.0
    # where pb2 enters: the kink constraint's row and a matched side's terms
    rhs: np.ndarray
    matched: tuple[int, ...]  # the sides whose structure has r1_matched


class BestResponses:
    """Both retailers' best responses in one (params, scenario) game, each
    remembered by the exact bits of its argument."""

    def __init__(self, params: MarketParams, scenario: Scenario) -> None:
        self.params, self.scenario = params, scenario
        # (R1_HIGH, R1_LOW): indexed by Regime.of(...) is _LOW
        self._regime_pair = regime_structures(scenario)
        stationary = []
        # each regime's stationary point is kept on its side of the kink
        for s, side in zip(self._regime_pair, (min, max)):
            h, g0 = quadratic_r2(params, s)
            stationary.append((s.regime, side, -g0 / h))
        self._stationary_r2 = tuple(stationary)
        # each response of this game, by the exact bits of its argument
        self._r1_memo: dict[str, tuple[float, float, float | None]] = {}
        self._r2_memo: dict[tuple[str, str, str | None], float] = {}

    @cached_property
    def _plans_r1(self) -> _PlansR1:
        """Retailer 1's plans in this game: the bundling value's template
        with this game's Hessians assigned into it, and the right-hand sides
        with the linear terms of every unmatched side, which do not read
        pb2 (linear_terms_r1), taken at pb2 = 0.0."""
        params, scenario = self.params, self.scenario
        structures = (*self._regime_pair, kink_structure(scenario))
        plans, template = _PLAN_TEMPLATES[scenario.bundling]
        n = 3 if scenario.bundling == 1 else 2
        size = template.shape[-1]
        stack = template.copy()
        # the Hessians do not depend on pb2
        stack[:, :, :n, :n] = [hessian_matrix_r1(params, s) for s in structures]
        matched = tuple(side for side, s in enumerate(structures) if s.r1_matched)
        unmatched = tuple(side for side, s in enumerate(structures) if not s.r1_matched)
        rhs = np.zeros((len(plans), size, 1))
        at_zero = linear_terms_r1(params, tuple(structures[side] for side in unmatched), 0.0)
        for side, terms in zip(unmatched, at_zero):
            # the plans run by (face, side): every face's plan of this side
            rhs[side :: len(structures), : len(terms), 0] = [-g for g in terms]
        stack = stack.reshape(len(plans), size, size)
        return _PlansR1(structures, plans, stack, rhs, matched)

    def respond_r1(self, pb2: float) -> tuple[float, float, float | None]:
        """Retailer 1's best response to pb2: every plan's first-order system
        solved exactly in one stacked solve, each candidate in its plan's
        regime (and, off the bundle-discount face, within its parts)
        evaluated once under the structure of the regime its prices lie in,
        the one with the highest profit kept, then components clamped at
        zero.  Remembered per pb2, by its exact bits."""
        if not math.isfinite(pb2):
            raise ValueError("pb2 must be finite")
        key = float(pb2).hex()
        if key in self._r1_memo:
            return self._r1_memo[key]
        params, scenario = self.params, self.scenario
        bundled = scenario.bundling == 1
        n = 3 if bundled else 2
        structures, plans, stack, rhs, matched = self._plans_r1
        sides = len(structures)
        columns = rhs.copy()
        if matched:
            at_pb2 = linear_terms_r1(params, tuple(structures[side] for side in matched), pb2)
            for side, terms in zip(matched, at_pb2):
                columns[side::sides, : len(terms), 0] = [-g for g in terms]
        columns[_KINK_SIDE::sides, n, 0] = pb2  # the kink constraint: r1's price = pb2
        try:
            # (k, n, 1) right-hand sides mean one column per system under
            # numpy 1.x and 2.x alike
            solved = np.linalg.solve(stack, columns)[:, :n, 0].tolist()
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        best: tuple[float, list[float]] | None = None
        for (_, regime, on_face), x in zip(plans, solved):
            if bundled:
                if regime is None:
                    x[2] = pb2  # snap exactly onto the kink
                r1_eq = x[2]
            else:
                r1_eq = x[0] + x[1]
            # classified from the floats, so only a candidate in its plan's
            # regime becomes prices
            if regime is not None and not regime.holds(r1_eq, pb2):
                continue
            prices = _tuple_new(PriceVector, (x[0], x[1], x[2] if bundled else None, pb2))
            # a face plan lies on the face by construction, as the kink plan
            # on the kink by its snap, so only a plan off it is tested
            if not on_face and not prices.bundle_within_parts():
                continue
            if not all(map(math.isfinite, x)):
                validate_prices(scenario, prices)  # raises, naming the price
            s = structures[Regime.of(r1_eq, pb2) is _LOW]  # they open with (R1_HIGH, R1_LOW)
            value = evaluate(params, s, prices)[1].pi_r1
            if best is None or value > best[0]:
                best = (value, x)
        assert best is not None  # the kink plans always yield a candidate
        x = best[1]
        response = (max(x[0], 0.0), max(x[1], 0.0), max(x[2], 0.0) if bundled else None)
        self._r1_memo[key] = response
        return response

    def respond_r2(self, r1_prices: PriceVector) -> float:
        """Retailer 2's best response to r1_prices: each regime's stationary
        point, kept on that regime's side of the kink, and the kink price
        itself, compared at their realized profits.  Remembered per
        retailer-1 prices (p1, p2, pb1), by their exact bits; r1_prices.pb2
        is not read."""
        r1_eq = r1_prices.r1_bundle_equivalent()
        if not math.isfinite(r1_eq):
            raise ValueError("r1 prices must be finite")
        p1, p2, pb1 = r1_prices.p1, r1_prices.p2, r1_prices.pb1
        # a price that fails validation raises below, so it is never stored
        key = (float(p1).hex(), float(p2).hex(), None if pb1 is None else float(pb1).hex())
        if key in self._r2_memo:
            return self._r2_memo[key]
        scenario, pair = self.scenario, self._regime_pair
        # retailer 1's prices, validated once, as in the kink candidate
        validate_prices(scenario, _tuple_new(PriceVector, (p1, p2, pb1, r1_eq)))
        candidates: list[float] = [r1_eq]  # the kink is always a candidate
        for regime, side, stationary in self._stationary_r2:
            if regime.holds(r1_eq, stationary):
                candidates.append(side(stationary, r1_eq))
        best_value, best_pb2 = -np.inf, r1_eq
        for pb2 in candidates:
            prices = _tuple_new(PriceVector, (p1, p2, pb1, pb2))
            if not math.isfinite(pb2):
                validate_prices(scenario, prices)  # raises, naming pb2
            value = evaluate(self.params, pair[Regime.of(r1_eq, pb2) is _LOW], prices)[1].pi_r2
            if value > best_value:
                best_value, best_pb2 = value, pb2
        response = float(max(best_pb2, 0.0))
        self._r2_memo[key] = response
        return response


def best_response_r1(
    params: MarketParams, scenario: Scenario, pb2: float
) -> tuple[float, float, float | None]:
    """Retailer 1's profit-maximizing prices against a fixed pb2.

    Solves the first-order system of each ordering regime exactly, adds the
    kink (bundle-equivalent price equal to pb2) and, when bundling, the
    bundle-discount boundary candidates, and returns the candidate with the
    highest realized profit.  Components are then clamped at zero; where
    the best candidate has a negative component the other prices are not
    re-optimized, so the clamped prices need not be a best response.
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
    x = start
    converged = False
    first_seen: dict[tuple[str, ...], int] = {}  # by exact bits: 0.0 and -0.0 differ
    history: list[PriceVector] = []
    keep = 1.0 - damping
    for iteration in range(MAX_ITERS):
        present = x.present()
        mu = first_seen.setdefault(tuple(float(v).hex() for v in present), iteration)
        if mu < iteration:
            x = history[mu + (MAX_ITERS - mu) % (iteration - mu)]
            break
        history.append(x)
        p1, p2, pb1 = responses.respond_r1(x.pb2)
        pb2 = responses.respond_r2(x)
        # the best response as present() orders it
        star = (p1, p2, pb2) if pb1 is None else (p1, p2, pb1, pb2)
        if max(abs(a - b) for a, b in zip(star, present)) < TOL_FP:
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
    return _search(BestResponses(params, scenario), _default_start(params, scenario), damping)


def find_fixed_points(
    params: MarketParams, scenario: Scenario, damping: float = 1.0
) -> list[OracleOutcome]:
    """Run the fixed-point search from the four corners of a coarse price box
    and return the distinct outcomes (converged ones deduplicated).

    Iterated best response is not guaranteed to reach every fixed point from
    one start, so callers that care about multiplicity get all of them.
    """
    responses = BestResponses(params, scenario)
    lo_r1, hi_r1 = params.total_cost, params.total_cost + _price_span(params)
    lo_r2, hi_r2 = lo_r1, hi_r1
    outcomes: list[OracleOutcome] = []
    for r1_level, r2_level in ((lo_r1, lo_r2), (lo_r1, hi_r2), (hi_r1, lo_r2), (hi_r1, hi_r2)):
        pb1 = r1_level if scenario.bundling == 1 else None
        start = PriceVector(r1_level / 2.0, r1_level / 2.0, pb1, r2_level)
        outcome = _search(responses, start, damping)
        duplicate = any(
            o.converged
            and outcome.converged
            and o.prices.sup_distance(outcome.prices) < 1e-6
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
