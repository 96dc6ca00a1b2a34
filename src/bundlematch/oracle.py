"""Independent equilibrium oracle: best responses and fixed-point iteration.

Within each price-ordering regime a retailer's profit is an exact concave
quadratic, so best responses are computed by solving the regime's linear
first-order system (plus boundary candidates on the ordering kink and the
bundle-discount face) and keeping the candidate with the highest actual
profit.  Nash candidates are then found by damped alternating best response.
No closed-form equilibrium expression is used anywhere in this module, which
makes fixed points an independent cross-check of the closed forms.

Non-convergence is data, not an error: it is the signal used to map regions
where no pure-strategy equilibrium exists.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .market import MarketParams, PriceVector, Regime, Scenario, effective_prices, structure
from .profits import hessian_r1, profits, quadratic_r1, quadratic_r2


class SingularSystemError(RuntimeError):
    """A regime's Hessian is not negative definite, so its first-order
    system does not identify a maximizer."""


@dataclass(frozen=True)
class OracleConfig:
    max_iters: int = 500
    tol_fp: float = 1e-8  # sup-norm tolerance on the best-response residual
    damping: float = 1.0  # step fraction toward the best response, in (0, 1]
    initial_prices: PriceVector | None = None  # default: unit costs plus 1
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if not self.tol_fp > 0.0:
            raise ValueError("tol_fp must be > 0")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class OracleOutcome:
    converged: bool
    prices: PriceVector
    iterations: int
    classified_regime: Regime
    trajectory: list[PriceVector] = field(default_factory=list)


_SLACK = 1e-9


def _solve_kkt(h: np.ndarray, g: np.ndarray, constraints: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Maximize the quadratic with Hessian h and gradient-at-zero g subject
    to equality constraints a.x = b, via the bordered KKT system."""
    n = h.shape[0]
    if not constraints:
        return np.linalg.solve(h, -g)
    m = len(constraints)
    kkt = np.zeros((n + m, n + m))
    rhs = np.zeros(n + m)
    kkt[:n, :n] = h
    rhs[:n] = -g
    for i, (a, b) in enumerate(constraints):
        kkt[:n, n + i] = -a
        kkt[n + i, :n] = a
        rhs[n + i] = b
    return np.linalg.solve(kkt, rhs)[:n]


def _require_negative_definite(params: MarketParams, scenario: Scenario, regime: Regime) -> None:
    if not hessian_r1(params, scenario, regime).negative_definite:
        raise SingularSystemError(
            f"retailer 1 Hessian for regime {regime.value} is not negative definite"
        )


def best_response_r1(
    params: MarketParams, scenario: Scenario, pb2: float
) -> tuple[float, float, float | None]:
    """Retailer 1's profit-maximizing prices against a fixed pb2.

    Solves the first-order system of each ordering regime exactly, adds the
    kink (equal bundle-equivalent prices) and bundle-discount boundary
    candidates, and returns the candidate with the highest realized profit.
    Components are clamped at zero, which only binds for degenerate inputs.
    """
    if not np.isfinite(pb2):
        raise ValueError("pb2 must be finite")
    for regime in (Regime.R1_HIGH, Regime.R1_LOW):
        _require_negative_definite(params, scenario, regime)
    high = structure(scenario, Regime.R1_HIGH)
    # on the kink retailer 1 is not matched, keeps R1_HIGH's strategic share,
    # and that share buys at pb1 (= pb2)
    tie = dataclasses.replace(high, r1_matched=False, strategic_at_r1=True)
    structures = {
        "high": quadratic_r1(params, scenario, high, pb2),
        "low": quadratic_r1(params, scenario, structure(scenario, Regime.R1_LOW), pb2),
        "tie": quadratic_r1(params, scenario, tie, pb2),
    }
    if scenario.bundling == 1:
        kink = (np.array([0.0, 0.0, 1.0]), pb2)  # pb1 = pb2
        discount = (np.array([1.0, 1.0, -1.0]), 0.0)  # p1 + p2 = pb1
        plans = [
            ("high", []),
            ("low", []),
            ("tie", [kink]),
            ("high", [discount]),
            ("low", [discount]),
            ("tie", [kink, discount]),
        ]

        def valid(name: str, x: np.ndarray) -> bool:
            if x[0] + x[1] < x[2] - _SLACK:  # bundle cheaper than its parts only
                return False
            if name == "high":
                return x[2] >= pb2 - _SLACK
            if name == "low":
                return x[2] <= pb2 + _SLACK
            return True

        best: tuple[float, np.ndarray] | None = None
        for name, constraints in plans:
            h, g0 = structures[name]
            try:
                x = _solve_kkt(h, g0, constraints)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(str(exc)) from exc
            if name == "tie":
                x = x.copy()
                x[2] = pb2  # snap exactly onto the kink
            if not valid(name, x):
                continue
            value = profits(params, scenario, PriceVector(x[0], x[1], x[2], pb2)).pi_r1
            if best is None or value > best[0]:
                best = (value, x)
        assert best is not None  # the constrained plans always yield a candidate
        x = np.maximum(best[1], 0.0)
        return (float(x[0]), float(x[1]), float(x[2]))

    # B = 0: two item prices, ordering on their sum
    plans0 = [("high", []), ("low", []), ("tie", [(np.array([1.0, 1.0]), pb2)])]
    best0: tuple[float, np.ndarray] | None = None
    for name, constraints in plans0:
        h, g0 = structures[name]
        try:
            x = _solve_kkt(h, g0, constraints)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        s = x[0] + x[1]
        if name == "high" and s < pb2 - _SLACK:
            continue
        if name == "low" and s > pb2 + _SLACK:
            continue
        value = profits(params, scenario, PriceVector(x[0], x[1], None, pb2)).pi_r1
        if best0 is None or value > best0[0]:
            best0 = (value, x)
    assert best0 is not None
    x = np.maximum(best0[1], 0.0)
    return (float(x[0]), float(x[1]), None)


def best_response_r2(params: MarketParams, scenario: Scenario, r1_prices: PriceVector) -> float:
    """Retailer 2's profit-maximizing bundle price against fixed r1 prices.

    Scalar concave quadratic per regime; regime-interior stationary points
    plus the kink price are compared at their realized profits.
    """
    r1_eq = r1_prices.r1_bundle_equivalent()
    if not np.isfinite(r1_eq):
        raise ValueError("r1 prices must be finite")
    candidates: list[float] = [r1_eq]  # the kink is always a candidate
    # regime HIGH means r1's bundle-equivalent price is above pb2
    for regime, bound in ((Regime.R1_HIGH, "below"), (Regime.R1_LOW, "above")):
        h, g0 = quadratic_r2(params, structure(scenario, regime))
        if h >= 0.0:
            raise SingularSystemError(
                f"retailer 2 second derivative for regime {regime.value} is not negative"
            )
        stationary = -g0 / h
        if bound == "below" and stationary <= r1_eq + _SLACK:
            candidates.append(min(stationary, r1_eq))
        if bound == "above" and stationary >= r1_eq - _SLACK:
            candidates.append(max(stationary, r1_eq))
    best_value, best_pb2 = -np.inf, r1_eq
    for pb2 in candidates:
        value = profits(
            params, scenario, PriceVector(r1_prices.p1, r1_prices.p2, r1_prices.pb1, pb2)
        ).pi_r2
        if value > best_value:
            best_value, best_pb2 = value, pb2
    return float(max(best_pb2, 0.0))


def _default_start(params: MarketParams, scenario: Scenario) -> PriceVector:
    pb1 = params.total_cost + 1.0 if scenario.bundling == 1 else None
    return PriceVector(params.c1 + 1.0, params.c2 + 1.0, pb1, params.total_cost + 1.0)


def find_fixed_point(
    params: MarketParams, scenario: Scenario, cfg: OracleConfig | None = None
) -> OracleOutcome:
    """Damped alternating best response until the best-response residual
    drops below tol_fp.

    Convergence certifies that both retailers' best responses reproduce the
    returned prices within tol_fp.  Hitting max_iters (oscillation or
    divergence) returns converged=False; that outcome marks parameter points
    with no pure-strategy equilibrium found.
    """
    cfg = cfg or OracleConfig()
    x = cfg.initial_prices or _default_start(params, scenario)
    trajectory: list[PriceVector] = [x] if cfg.record_trajectory else []
    delta = cfg.damping
    for iteration in range(cfg.max_iters):
        r1_star = best_response_r1(params, scenario, x.pb2)
        pb2_star = best_response_r2(params, scenario, x)
        star = PriceVector(r1_star[0], r1_star[1], r1_star[2], pb2_star)
        residual = star.sup_distance(x)
        if residual < cfg.tol_fp:
            return OracleOutcome(
                converged=True,
                prices=x,
                iterations=iteration,
                classified_regime=effective_prices(params, scenario, x).regime,
                trajectory=trajectory,
            )
        pb1_next = None
        if scenario.bundling == 1:
            pb1_next = (1.0 - delta) * x.pb1 + delta * star.pb1
        x = PriceVector(
            (1.0 - delta) * x.p1 + delta * star.p1,
            (1.0 - delta) * x.p2 + delta * star.p2,
            pb1_next,
            (1.0 - delta) * x.pb2 + delta * star.pb2,
        )
        if cfg.record_trajectory:
            trajectory.append(x)
    return OracleOutcome(
        converged=False,
        prices=x,
        iterations=cfg.max_iters,
        classified_regime=effective_prices(params, scenario, x).regime,
        trajectory=trajectory,
    )


def find_fixed_points(
    params: MarketParams, scenario: Scenario, cfg: OracleConfig | None = None
) -> list[OracleOutcome]:
    """Run the fixed-point search from the four corners of a coarse price box
    and return the distinct outcomes (converged ones deduplicated).

    Iterated best response is not guaranteed to reach every fixed point from
    one start, so callers that care about multiplicity get all of them.
    """
    cfg = cfg or OracleConfig()
    lo_r1, hi_r1 = params.total_cost, params.total_cost + _price_span(params)
    lo_r2, hi_r2 = lo_r1, hi_r1
    outcomes: list[OracleOutcome] = []
    for r1_level, r2_level in ((lo_r1, lo_r2), (lo_r1, hi_r2), (hi_r1, lo_r2), (hi_r1, hi_r2)):
        pb1 = r1_level if scenario.bundling == 1 else None
        start = PriceVector(r1_level / 2.0, r1_level / 2.0, pb1, r2_level)
        outcome = find_fixed_point(
            params,
            scenario,
            OracleConfig(
                max_iters=cfg.max_iters,
                tol_fp=cfg.tol_fp,
                damping=cfg.damping,
                initial_prices=start,
                record_trajectory=cfg.record_trajectory,
            ),
        )
        duplicate = any(
            o.converged
            and outcome.converged
            and o.prices.sup_distance(outcome.prices) < max(1e-6, 10.0 * cfg.tol_fp)
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
