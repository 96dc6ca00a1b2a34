"""Shared fixtures and constructive parameter samplers for the test suite.

Each sampler draws random market parameters satisfying one of the sufficient
condition sets A-F by construction, then verifies the full set and retries on
the rare rejection.  They are used both by the per-module oracle cross-checks
and by the acceptance suite's stratified draws.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

import bundlematch.policy
from bundlematch import MarketParams, OracleOutcome, PriceVector, check_condition_set, eq_T1
from bundlematch.config import load_sweep_spec
from bundlematch.market import InvalidParameterError
from bundlematch.sweep import Panel, SweepSpec

SWEEP_EXPECTED = Path(__file__).with_name("sweep_expected")

# bundlematch.profits is the package's profits function, so the module is
# imported by name, for tests that patch its globals
PROFITS_MODULE = importlib.import_module("bundlematch.profits")

GOLDEN_TABLE = {
    # scenario label -> (p1, p2, pb1_or_sum, pb2, d_l_i1, d_l_i2, d_l_ib,
    #                    d_q_ib, d_l_jb, d_q_jb, d_s, pi_r1_k, pi_r2_k, welfare_k)
    "CM,CM": (99.05, 99.05, 162.05, 135, 29.75, 29.75, 46, 64.93, 46, 46, 46, 21.95, 13.22, 35.17),
    "CM,noCM": (99.05, 99.05, 162.05, 135, 29.75, 29.75, 46, 64.93, 46, 46, 46, 21.95, 13.22, 35.17),
    "noCM,CM": (94.08, 94.08, 139.76, 135, 29.04, 29.04, 58.61, 58.61, 46, 46, 46, 18.92, 15.87, 34.79),
    "noCM,noCM": (94.08, 94.08, 139.76, 135, 29.04, 29.04, 58.61, 58.61, 46, 46, 46, 18.92, 15.87, 34.79),
    "NoBundle": (73.18, 73.18, 146.36, 135, 56.09, 56.09, 41.45, 41.45, 46, 46, 46, 17.57, 15.87, 33.44),
}


@pytest.fixture
def baseline() -> MarketParams:
    return MarketParams.baseline()


@pytest.fixture
def fixed_oracle(monkeypatch):
    """Installs a fixed outcome for every oracle check: the baseline CM,CM
    equilibrium (T1) with each price times `scale`, converged after 12
    iterations or not converged after 500."""

    def install(converged: bool, scale: float = 1.0) -> None:
        t1 = eq_T1(MarketParams.baseline())
        prices = PriceVector(*(scale * v for v in t1.prices))
        outcome = OracleOutcome(converged, prices, 12 if converged else 500)
        monkeypatch.setattr(bundlematch.policy, "find_fixed_point", lambda *args: outcome)

    return install


def _spread_pair(rng: np.random.Generator, total: float, spread: float = 0.1) -> tuple[float, float]:
    skew = rng.uniform(-spread, spread)
    return total / 2.0 * (1.0 + skew), total / 2.0 * (1.0 - skew)


def _draw_set_a(rng: np.random.Generator) -> MarketParams:
    r = rng.uniform(0.8, 1.6)
    b_s = rng.uniform(0.25, 0.7)
    b_l = r * b_s
    a_s = rng.uniform(50.0, 150.0)
    ajb = rng.uniform(0.5, 0.98) * r * a_s
    aqjb = rng.uniform(ajb, min(2.0 * r * a_s - ajb, 1.8 * ajb))
    sum_j = ajb + aqjb
    aib = max(sum_j / 2.0, r * a_s) * rng.uniform(1.0, 1.5)
    aqib = aqjb * rng.uniform(1.0, 1.6)
    a1, a2 = _spread_pair(rng, max(4.0 / 3.0 * sum_j, 2.0 * r * a_s) * rng.uniform(1.0, 1.5))
    return MarketParams(
        a_l_i1=a1, a_l_i2=a2, a_l_ib=aib, a_q_ib=aqib, a_l_jb=ajb, a_q_jb=aqjb, a_s=a_s,
        b_l=b_l, b_s=b_s, theta_l=rng.uniform(0.1, 0.9),
        lambda_l=rng.uniform(0.05, 0.9) * b_l,
        c1=rng.uniform(5.0, 25.0), c2=rng.uniform(5.0, 25.0), alpha=rng.uniform(0.0, 1.0),
    )


def _draw_set_b(rng: np.random.Generator) -> MarketParams:
    r = rng.uniform(0.8, 1.5)
    b_s = rng.uniform(0.25, 0.7)
    b_l = r * b_s
    a_s = rng.uniform(50.0, 150.0)
    ajb = rng.uniform(0.4, 0.95) * r * a_s
    aqjb = rng.uniform(ajb, 4.0 / 3.0 * r * a_s)
    sum_j = ajb + aqjb
    half = sum_j / 2.0
    a1, a2 = _spread_pair(rng, max(4.0 / 3.0 * sum_j, 8.0 / 3.0 * r * a_s) * rng.uniform(1.0, 1.4))
    aib = half * rng.uniform(1.05, 1.6)
    aqib = half * rng.uniform(1.05, 1.6)
    return MarketParams(
        a_l_i1=a1, a_l_i2=a2, a_l_ib=aib, a_q_ib=aqib, a_l_jb=ajb, a_q_jb=aqjb, a_s=a_s,
        b_l=b_l, b_s=b_s, theta_l=rng.uniform(0.1, 0.9),
        lambda_l=rng.uniform(0.05, 0.9) * b_l,
        c1=rng.uniform(5.0, 25.0), c2=rng.uniform(5.0, 25.0), alpha=rng.uniform(0.0, 1.0),
    )


def _draw_set_e(rng: np.random.Generator) -> MarketParams:
    r = rng.uniform(0.8, 1.5)
    b_s = rng.uniform(0.25, 0.7)
    b_l = r * b_s
    a_s = rng.uniform(50.0, 150.0)
    sum_j = 2.0 * r * a_s * rng.uniform(0.55, 0.98)
    ajb, aqjb = _spread_pair(rng, sum_j, spread=0.3)
    floor = max(sum_j, 2.0 * r * a_s)
    aib, aqib = _spread_pair(rng, floor * rng.uniform(1.0, 1.5), spread=0.3)
    a1, a2 = _spread_pair(rng, floor * rng.uniform(1.0, 1.5))
    return MarketParams(
        a_l_i1=a1, a_l_i2=a2, a_l_ib=aib, a_q_ib=aqib, a_l_jb=ajb, a_q_jb=aqjb, a_s=a_s,
        b_l=b_l, b_s=b_s, theta_l=rng.uniform(0.1, 0.9),
        lambda_l=rng.uniform(0.05, 0.9) * b_l,
        c1=rng.uniform(5.0, 25.0), c2=rng.uniform(5.0, 25.0), alpha=rng.uniform(0.0, 1.0),
    )


def _draw_set_f(rng: np.random.Generator) -> MarketParams:
    r = rng.uniform(0.8, 1.5)
    b_s = rng.uniform(0.25, 0.7)
    b_l = r * b_s
    theta = rng.uniform(0.1, 0.9)
    a_s = rng.uniform(50.0, 150.0)
    sum_j = 2.0 * r * a_s * rng.uniform(1.02, 1.6)
    ajb, aqjb = _spread_pair(rng, sum_j, spread=0.3)
    a1, a2 = _spread_pair(rng, 2.0 * r * a_s * rng.uniform(0.4, 0.98))
    cap_ib = min((3.0 + theta) / 4.0 * sum_j, (3.0 + theta) / 2.0 * r * a_s)
    aib, aqib = _spread_pair(rng, cap_ib * rng.uniform(0.4, 0.98), spread=0.3)
    return MarketParams(
        a_l_i1=a1, a_l_i2=a2, a_l_ib=aib, a_q_ib=aqib, a_l_jb=ajb, a_q_jb=aqjb, a_s=a_s,
        b_l=b_l, b_s=b_s, theta_l=theta,
        lambda_l=rng.uniform(0.05, 0.9) * b_l,
        c1=rng.uniform(5.0, 25.0), c2=rng.uniform(5.0, 25.0), alpha=rng.uniform(0.0, 1.0),
    )


def _draw_set_c(rng: np.random.Generator) -> MarketParams | None:
    theta = rng.uniform(0.2, 0.8)
    r = rng.uniform(0.8, 1.2)
    b_s = rng.uniform(0.3, 0.6)
    b_l = r * b_s
    lam = rng.uniform(0.05, 0.35) * b_l
    alpha = rng.uniform(0.1, 0.5)
    ctot = rng.uniform(150.0, 400.0)
    a_s = ctot * (1.0 - alpha) * b_s * rng.uniform(0.4, 0.9)
    ajb = rng.uniform(r * a_s, ctot * b_l)
    aqjb = rng.uniform(max(2.0 * r * a_s - ajb, 0.55 * ajb), ajb)
    sum_j = ajb + aqjb
    fee = 0.5 * ctot * (2.0 * b_l + b_s) / (2.0 * b_l) * lam
    cap = sum_j - fee
    aib_hi = min(aqjb, (1.0 + theta) * sum_j / 4.0, 0.75 * cap, r * a_s * (1.0 + theta) / 2.0)
    if cap <= 0.0 or aib_hi <= 0.0:
        return None
    aib = rng.uniform(0.3, 1.0) * aib_hi
    aqib = rng.uniform(0.3 * aib, min(aib, cap - aib))
    a1, a2 = _spread_pair(rng, r * (1.0 + theta) * a_s * rng.uniform(0.3, 0.95))
    return MarketParams(
        a_l_i1=a1, a_l_i2=a2, a_l_ib=aib, a_q_ib=aqib, a_l_jb=ajb, a_q_jb=aqjb, a_s=a_s,
        b_l=b_l, b_s=b_s, theta_l=theta, lambda_l=lam,
        c1=ctot * 0.5, c2=ctot * 0.5, alpha=alpha,
    )


def _draw_set_d(rng: np.random.Generator) -> MarketParams | None:
    theta = rng.uniform(0.2, 0.8)
    r = rng.uniform(0.8, 1.2)
    b_s = rng.uniform(0.3, 0.6)
    b_l = r * b_s
    lam = rng.uniform(0.05, 0.35) * b_l
    alpha = rng.uniform(0.1, 0.5)
    ctot = rng.uniform(150.0, 400.0)
    a_s = ctot * (1.0 - alpha) * b_s * rng.uniform(0.4, 0.9)
    ajb = rng.uniform(r * a_s, ctot * b_l)
    aqjb = rng.uniform(max(2.0 * r * a_s - ajb, 0.4 * ajb), ajb)
    sum_j = ajb + aqjb
    fee = 0.5 * ctot * (2.0 * b_l + b_s) / (2.0 * b_l) * lam
    cap = (1.0 + theta) / 2.0 * (sum_j - fee)
    aib_hi = min(0.75 * cap, r * a_s * (1.0 + theta) / 2.0)
    if cap <= 0.0 or aib_hi <= 0.0:
        return None
    aib = rng.uniform(0.3, 1.0) * aib_hi
    aqib = rng.uniform(0.05, 0.95) * (cap - aib)
    a1, a2 = _spread_pair(rng, r * (1.0 + theta) * a_s * rng.uniform(0.3, 0.95))
    return MarketParams(
        a_l_i1=a1, a_l_i2=a2, a_l_ib=aib, a_q_ib=aqib, a_l_jb=ajb, a_q_jb=aqjb, a_s=a_s,
        b_l=b_l, b_s=b_s, theta_l=theta, lambda_l=lam,
        c1=ctot * 0.5, c2=ctot * 0.5, alpha=alpha,
    )


_DRAWERS = {
    "A": _draw_set_a,
    "B": _draw_set_b,
    "C": _draw_set_c,
    "D": _draw_set_d,
    "E": _draw_set_e,
    "F": _draw_set_f,
}

# the theorem whose regime the set certifies, and the subgame it lives in
SET_THEOREM = {"A": "T1", "B": "T2", "C": "T3", "D": "T4", "E": "T5a", "F": "T5b"}


def set_scenario(set_id: str):
    from bundlematch import Scenario

    return {
        "A": Scenario.bundled(True, True),
        "B": Scenario.bundled(False, True),
        "C": Scenario.bundled(True, True),
        "D": Scenario.bundled(True, False),
        "E": Scenario.no_bundle(),
        "F": Scenario.no_bundle(),
    }[set_id]


def draw_set_params(
    set_id: str,
    rng: np.random.Generator,
    max_tries: int = 5000,
    require_feasible: bool = True,
) -> MarketParams:
    """A random parameter point satisfying the named condition set.

    With require_feasible the matching closed form must also be feasible at
    the draw.  The sets are stated as sufficient for that, but empirically a
    small fraction of set-B draws violates the ordering or a demand sign, so
    the stratified draws condition on feasibility explicitly, as the oracle
    equivalence claims do.
    """
    import bundlematch as bm

    for _ in range(max_tries):
        try:
            params = _DRAWERS[set_id](rng)
        except InvalidParameterError:
            continue
        if params is None:
            continue
        if not check_condition_set(set_id, params).all_satisfied:
            continue
        if require_feasible:
            eq = getattr(bm, "eq_" + SET_THEOREM[set_id])(params)
            if not eq.feasible:
                continue
        return params
    raise RuntimeError(f"could not draw parameters satisfying condition set {set_id}")


def draw_valid_params(rng: np.random.Generator) -> MarketParams:
    """A random parameter point satisfying only the model's standing
    assumptions (no condition set targeted)."""
    while True:
        b_l = rng.uniform(0.1, 1.0)
        try:
            return MarketParams(
                a_l_i1=rng.uniform(0.0, 300.0),
                a_l_i2=rng.uniform(0.0, 300.0),
                a_l_ib=rng.uniform(0.0, 300.0),
                a_q_ib=rng.uniform(0.0, 300.0),
                a_l_jb=rng.uniform(0.0, 300.0),
                a_q_jb=rng.uniform(0.0, 300.0),
                a_s=rng.uniform(0.0, 300.0),
                b_l=b_l,
                b_s=rng.uniform(0.1, 1.0),
                theta_l=rng.uniform(0.02, 0.98),
                lambda_l=rng.uniform(0.02, 1.0) * b_l,
                c1=rng.uniform(0.0, 30.0),
                c2=rng.uniform(0.0, 30.0),
                alpha=rng.uniform(0.0, 1.0),
            )
        except InvalidParameterError:
            continue


def pinned_sweep_panels() -> list[tuple[SweepSpec, Panel, Path]]:
    """(spec, panel, pinned CSV) for each panel of the sweep specs pinned in
    SWEEP_EXPECTED: spec.cfg's files lie beside it, and each other spec's in
    the directory named after it."""
    panels = []
    for name in ("spec", "fixed", "fixed_default"):
        spec = load_sweep_spec(SWEEP_EXPECTED / f"{name}.cfg")
        directory = SWEEP_EXPECTED if name == "spec" else SWEEP_EXPECTED / name
        panels += [(spec, panel, directory / f"sweep_{panel.label}.csv") for panel in spec.panels]
    return panels


def panel_points(spec: SweepSpec, panel: Panel) -> list[tuple[float, float, MarketParams | None]]:
    """Each cell's axis values and parameter point, None where inadmissible,
    in CSV order, built from the baseline as `bundlematch sweep` builds them."""
    points = []
    for v1 in spec.axis1.values():
        for v2 in spec.axis2.values():
            overrides = {**panel.overrides, spec.axis1.name: v1, spec.axis2.name: v2}
            try:
                params = MarketParams.baseline().replace(**overrides)
            except InvalidParameterError:
                params = None
            points.append((v1, v2, params))
    return points
