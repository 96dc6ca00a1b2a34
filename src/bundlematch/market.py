"""Market primitives for a two-retailer complementary-goods pricing game.

Retailer 1 sells items 1 and 2 and, when it bundles (B=1), a bundle at its own
price; retailer 2 sells a bundle only.  Demand comes from three customer
segments with linear demand curves: loyal price-unaware, loyal price-aware,
and non-loyal price-aware (strategic).  Price-matching guarantees (PMGs) act
at the bundle level: they replace posted bundle prices by effective prices for
the price-aware segments before demands are evaluated.

Which segment pays which price, and retailer 1's share of strategic demand,
follow from one rule: a PMG acts only for the retailer posting the higher
price, so a regime structure is its price ordering plus whether that
retailer matches (RegimeStructure).  The six structures in STRUCTURES are
one per closed-form candidate T1-T5b; structure(scenario, regime) looks a
subgame's up, regime_structures(scenario) its pair, and every other module
derives prices, profits and derivatives from them.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


# the one feasibility tolerance: the slack within which a price ordering,
# the bundle-within-parts constraint or a nonnegativity counts as holding,
# for closed-form candidates and best responses alike
FEASIBILITY_TOL = 1e-9


class InvalidParameterError(ValueError):
    """A market parameter violates a model assumption."""


class InvalidPriceError(ValueError):
    """A price vector is malformed for the given scenario."""


class Regime(Enum):
    """Active price ordering.

    R1_HIGH: retailer 1's bundle-equivalent price (bundle price under B=1,
    item-price sum under B=0) is >= retailer 2's bundle price.  Ties are
    labelled R1_HIGH (Regime.of); both orderings produce identical demands
    at a tie.
    """

    R1_HIGH = "r1_high"
    R1_LOW = "r1_low"

    @staticmethod
    def of(r1_eq: float, pb2: float) -> "Regime":
        """The regime prices lie in: R1_HIGH when retailer 1's
        bundle-equivalent price r1_eq is >= pb2, so a tie is R1_HIGH."""
        return _HIGH if r1_eq >= pb2 else _LOW

    def holds(self, r1_eq: float, pb2: float) -> bool:
        """Whether retailer 1's bundle-equivalent price r1_eq lies on this
        regime's side of pb2, within FEASIBILITY_TOL."""
        if self is _HIGH:
            return r1_eq >= pb2 - FEASIBILITY_TOL
        return r1_eq <= pb2 + FEASIBILITY_TOL


# the members by module name: on CPython 3.11 reading an attribute of an
# Enum class costs about 200 ns, a module global about 30 ns
_HIGH, _LOW = Regime.R1_HIGH, Regime.R1_LOW

# builds the records of every evaluation, fields in declaration order: a
# NamedTuple's __new__ is a Python call around it (about 0.2 us, CPython 3.11)
_tuple_new = tuple.__new__


@dataclass(frozen=True)
class MarketParams:
    """Demand bases, sensitivities, complementarities, costs, and the
    strategic split.

    Demand bases are quantities; b_l and b_s are own-price sensitivities
    (quantity per currency); theta_l is the dimensionless item-level
    complementarity; lambda_l couples bundle demand to the gap between the
    bundle price and the item-price sum; alpha is the fraction of strategic
    demand served by retailer 1 when both retailers end up offering the same
    effective bundle price.
    """

    a_l_i1: float = 100.0
    a_l_i2: float = 100.0
    a_l_ib: float = 100.0
    a_q_ib: float = 100.0
    a_l_jb: float = 100.0
    a_q_jb: float = 100.0
    a_s: float = 100.0
    b_l: float = 0.4
    b_s: float = 0.4
    theta_l: float = 0.5
    lambda_l: float = 0.3
    c1: float = 10.0
    c2: float = 10.0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        values = _field_values(self)
        # NaN passes every comparison below as false, +inf every lower bound
        if not all(map(math.isfinite, values)):
            for name, value in zip(PARAM_FIELDS, values):
                if not math.isfinite(value):
                    raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        for name in ("a_l_i1", "a_l_i2", "a_l_ib", "a_q_ib", "a_l_jb", "a_q_jb", "a_s"):
            if not getattr(self, name) >= 0.0:
                raise InvalidParameterError(f"demand base {name} must be >= 0")
        if not self.b_l > 0.0:
            raise InvalidParameterError("own-price sensitivity b_l must be > 0")
        if not self.b_s > 0.0:
            raise InvalidParameterError("own-price sensitivity b_s must be > 0")
        if not 0.0 < self.theta_l < 1.0:
            raise InvalidParameterError("item complementarity theta_l must lie in (0, 1)")
        if not self.lambda_l > 0.0:
            raise InvalidParameterError("bundle complementarity lambda_l must be > 0")
        if self.b_l < self.lambda_l:
            raise InvalidParameterError(
                "b_l must be >= lambda_l (own-price effects dominate the bundle gap)"
            )
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise InvalidParameterError("unit costs c1, c2 must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidParameterError("strategic split alpha must lie in [0, 1]")

    @classmethod
    def baseline(cls, **overrides: float) -> "MarketParams":
        """Symmetric baseline: all bases 100, b_l=b_s=0.4, theta=0.5,
        lambda=0.3, c1=c2=10, alpha=0.5."""
        return cls(**overrides)

    def replace(self, **changes: float) -> "MarketParams":
        """A copy with `changes` applied, validated as a new instance is.
        Each field is set through object.__setattr__, as the frozen __init__
        does, without dataclasses.replace's field loop and keyword call.
        Nothing touches an instance __dict__: on CPython 3.11 that makes
        every later attribute read of the object slower."""
        if not changes.keys() <= _FIELD_SET:
            unknown = next(name for name in changes if name not in _FIELD_SET)
            raise TypeError(f"{type(self).__name__} has no field {unknown!r}")
        new = object.__new__(type(self))
        set_field, change = object.__setattr__, changes.get
        for name, value in zip(PARAM_FIELDS, _field_values(self)):
            set_field(new, name, change(name, value))
        new.__post_init__()
        return new

    @property
    def total_cost(self) -> float:
        return self.c1 + self.c2

    # shorthands used throughout the quadratic algebra
    @property
    def t1(self) -> float:
        return self.b_l + self.lambda_l

    @property
    def t2(self) -> float:
        return self.b_l * self.theta_l + self.lambda_l


# MarketParams' field names in declaration order, and a getter of their values
PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(MarketParams))
_FIELD_SET = frozenset(PARAM_FIELDS)
_field_values = operator.attrgetter(*PARAM_FIELDS)


@dataclass(frozen=True)
class Scenario:
    """Retailer 1's bundling flag plus each retailer's PMG flag.

    PMGs are meaningful only at the bundle level, so a no-bundling scenario is
    canonicalized with both PMG flags off.
    """

    bundling: int
    pmg_r1: bool = False
    pmg_r2: bool = False

    def __post_init__(self) -> None:
        if self.bundling not in (0, 1):
            raise InvalidParameterError("bundling flag must be 0 or 1")
        if self.bundling == 0 and (self.pmg_r1 or self.pmg_r2):
            object.__setattr__(self, "pmg_r1", False)
            object.__setattr__(self, "pmg_r2", False)

    @classmethod
    def bundled(cls, pmg_r1: bool, pmg_r2: bool) -> "Scenario":
        return cls(bundling=1, pmg_r1=pmg_r1, pmg_r2=pmg_r2)

    @classmethod
    def no_bundle(cls) -> "Scenario":
        return cls(bundling=0)

    def label(self) -> str:
        if self.bundling == 0:
            return "NoBundle"
        one = "CM" if self.pmg_r1 else "noCM"
        two = "CM" if self.pmg_r2 else "noCM"
        return f"{one},{two}"


def largest_magnitude(values: Iterable[float]) -> float:
    """The largest |value|, or NaN when any value is NaN (Python's max keeps
    a NaN only in first place), so a NaN shows wherever it lies."""
    largest = 0.0
    for v in values:
        a = abs(v)
        if a > largest:
            largest = a
        elif a != a:
            return a
    return largest


class PriceVector(NamedTuple):
    """Posted prices: retailer 1's item prices p1, p2, its bundle price pb1
    (None when bundling is off), and retailer 2's bundle price pb2."""

    p1: float
    p2: float
    pb1: float | None
    pb2: float

    def r1_bundle_equivalent(self) -> float:
        """The price a joint purchase at retailer 1 compares at: pb1 when a
        bundle is posted, the item-price sum otherwise."""
        return self.pb1 if self.pb1 is not None else self.p1 + self.p2

    def bundle_within_parts(self) -> bool:
        """Whether a posted bundle costs no more than its parts, within FEASIBILITY_TOL."""
        return self.pb1 is None or self.p1 + self.p2 >= self.pb1 - FEASIBILITY_TOL

    def present(self) -> tuple[float, ...]:
        if self.pb1 is None:
            return (self.p1, self.p2, self.pb2)
        return (self.p1, self.p2, self.pb1, self.pb2)

    def sup_distance(self, other: "PriceVector") -> float:
        """The largest |difference| of the present prices; NaN when any is."""
        a, b = self.present(), other.present()
        if len(a) != len(b):
            raise InvalidPriceError("cannot compare price vectors of different shapes")
        return largest_magnitude(map(operator.sub, a, b))

    def relative_distance(self, other: "PriceVector") -> float:
        """Sup-norm distance relative to this vector's largest price (at
        least 1); NaN when any difference is."""
        scale = max(1.0, largest_magnitude(self.present()))
        return self.sup_distance(other) / scale


class EffectivePrices(NamedTuple):
    """Bundle prices after PMG resolution.

    tilde_pb1 / tilde_pb2 are what loyal price-aware customers actually pay at
    each retailer; hat_pb is the lowest bundle-equivalent price in the market,
    which strategic customers buy at.
    """

    tilde_pb1: float
    tilde_pb2: float
    hat_pb: float


@dataclass(frozen=True)
class RegimeStructure:
    """Who pays what in one price-ordering regime of one subgame.

    Each of the six structures is the regime a closed-form candidate T1-T5b
    is derived in.  "r1's price" is retailer 1's bundle-equivalent price.
    matched says whether the retailer posting the higher price has a PMG:
    only that retailer's PMG can act, and it makes its loyal price-aware
    buyers pay the rival's lower price.  Strategic buyers pay the lower
    price.  The three flags below follow from regime and matched.  They are
    set once here, not read as properties, because every effective price
    and every scored candidate reads them (README.md, record rule).
    """

    theorem_id: str
    condition_set: str
    bundling: int
    regime: Regime
    matched: bool
    r1_matched: bool = field(init=False)  # retailer 1's loyal price-aware buyers pay pb2
    r2_matched: bool = field(init=False)  # retailer 2's loyal price-aware buyers pay r1's price
    strategic_at_r1: bool = field(init=False)  # strategic buyers pay r1's price, else pb2

    def __post_init__(self) -> None:
        low = self.regime is _LOW
        object.__setattr__(self, "r1_matched", self.matched and not low)
        object.__setattr__(self, "r2_matched", self.matched and low)
        object.__setattr__(self, "strategic_at_r1", low)

    def strategic_share(self, alpha: float) -> float:
        """Retailer 1's share of strategic demand: the split alpha when the
        dearer retailer matches, else all of it to the cheaper one."""
        if self.matched:
            return alpha
        return 1.0 if self.strategic_at_r1 else 0.0

    def own_strategic_weights(self, alpha: float) -> tuple[float, float]:
        """Weight of strategic demand in each retailer's own-price derivative,
        (retailer 1, retailer 2): the retailer's share when strategic buyers
        pay its price, else zero."""
        share = self.strategic_share(alpha)
        if self.strategic_at_r1:
            return share, 0.0
        return 0.0, 1.0 - share

    def effective_prices(self, prices: PriceVector) -> EffectivePrices:
        """Effective prices under this structure, whatever ordering the
        prices satisfy.  profits.profit_r1 and profit_r2 copy the ones each
        retailer's profit reads."""
        r1_eq = prices.r1_bundle_equivalent()
        pb2 = prices.pb2
        return _tuple_new(EffectivePrices, (
            pb2 if self.r1_matched else r1_eq,  # tilde_pb1
            r1_eq if self.r2_matched else pb2,  # tilde_pb2
            r1_eq if self.strategic_at_r1 else pb2,  # hat_pb
        ))


# In R1_HIGH retailer 2 posts the low price, so only retailer 1's PMG can
# act, and retailer 1 serves strategic demand only by matching (alpha).
# R1_LOW mirrors it.  Without bundling no PMG exists and the cheap side
# takes the whole strategic segment.  An exact tie is R1_HIGH and takes its
# split: splitting alpha at ties retailer 1 reaches only by posting (not
# matching) would create kinks where retailer 2's best response fails to
# exist (it would undercut rather than concede its strategic sales).  At a
# tie every segment pays the one posted price, so every structure gives
# the same effective prices there.
STRUCTURES: dict[str, RegimeStructure] = {
    s.theorem_id: s
    for s in (
        RegimeStructure("T1", "A", 1, _HIGH, True),
        RegimeStructure("T2", "B", 1, _HIGH, False),
        RegimeStructure("T3", "C", 1, _LOW, True),
        RegimeStructure("T4", "D", 1, _LOW, False),
        RegimeStructure("T5a", "E", 0, _HIGH, False),
        RegimeStructure("T5b", "F", 0, _LOW, False),
    )
}

# keyed by (bundling, pmg_r1, pmg_r2, regime is R1_HIGH): plain values hash
# several times faster than the dataclass and the enum
_BOTH = (False, True)
_TABLE: dict[tuple[int, bool, bool, bool], RegimeStructure] = {
    (0, False, False, True): STRUCTURES["T5a"],
    (0, False, False, False): STRUCTURES["T5b"],
    **{(1, r1, r2, True): STRUCTURES["T1" if r1 else "T2"] for r1 in _BOTH for r2 in _BOTH},
    **{(1, r1, r2, False): STRUCTURES["T3" if r2 else "T4"] for r1 in _BOTH for r2 in _BOTH},
}

def structure(scenario: Scenario, regime: Regime) -> RegimeStructure:
    """The regime structure of a subgame: the one place the PMG flags meet a
    price ordering."""
    return _TABLE[scenario.bundling, scenario.pmg_r1, scenario.pmg_r2, regime is _HIGH]


def regime_structures(scenario: Scenario) -> tuple[RegimeStructure, RegimeStructure]:
    """A subgame's (R1_HIGH, R1_LOW) structures: the regimes of its two
    closed-form candidates."""
    b, r1, r2 = scenario.bundling, scenario.pmg_r1, scenario.pmg_r2
    return _TABLE[b, r1, r2, True], _TABLE[b, r1, r2, False]


class DemandProfile(NamedTuple):
    """The seven segment demands at a price vector.

    Values are the raw linear forms and may be negative; nonnegativity is an
    equilibrium admissibility condition checked by the selection layer, not a
    truncation applied here.
    """

    d_l_i1: float
    d_l_i2: float
    d_l_ib: float
    d_q_ib: float
    d_l_jb: float
    d_q_jb: float
    d_s: float


def validate_prices(scenario: Scenario, prices: PriceVector) -> None:
    """Raise InvalidPriceError unless the prices fit the scenario and are finite."""
    if scenario.bundling == 1 and prices.pb1 is None:
        raise InvalidPriceError("bundle price pb1 is required when bundling is on")
    if scenario.bundling == 0 and prices.pb1 is not None:
        raise InvalidPriceError("bundle price pb1 must be absent when bundling is off")
    for value in prices.present():
        if not math.isfinite(value):
            raise InvalidPriceError(f"prices must be finite, got {value!r}")


def structure_at(scenario: Scenario, prices: PriceVector) -> RegimeStructure:
    """The structure of the regime the prices lie in (Regime.of), once they
    pass validate_prices."""
    validate_prices(scenario, prices)
    return structure(scenario, Regime.of(prices.r1_bundle_equivalent(), prices.pb2))


def effective_prices(scenario: Scenario, prices: PriceVector) -> EffectivePrices:
    """Resolve PMGs into the effective bundle prices faced by price-aware
    customers, in the regime the prices lie in (Regime.of).

    A retailer with a PMG charges the rival's bundle price whenever the rival
    posts less; strategic customers face the market minimum; under B=0
    retailer 1's bundle-equivalent price is the item-price sum and no PMGs
    apply.  Under a presumed regime, whatever ordering the prices satisfy,
    they resolve through structure(scenario, regime).effective_prices.
    """
    return structure_at(scenario, prices).effective_prices(prices)


def demands(params: MarketParams, prices: PriceVector, eff: EffectivePrices) -> DemandProfile:
    """Evaluate all seven segment demands at a price vector.

    `eff` must have been computed from the same prices, in their own regime
    or a presumed one.  Whether a bundle is posted is read off prices.pb1,
    which every public entry ties to the scenario.  Demands are affine in
    prices; negative values are returned as-is.  profits.profit_r1 copies
    retailer 1's five expressions and profit_r2 retailer 2's three, in the
    same operand order.
    """
    p = params
    p1, p2, pb2 = prices.p1, prices.p2, prices.pb2
    if prices.pb1 is not None:
        pb1 = prices.pb1
        gap = p.lambda_l * (pb1 - p1 - p2)
        d_l_i1 = p.a_l_i1 - p.b_l * p1 - p.b_l * p.theta_l * p2 + gap
        d_l_i2 = p.a_l_i2 - p.b_l * p.theta_l * p1 - p.b_l * p2 + gap
        d_l_ib = p.a_l_ib - p.b_l * pb1 + p.lambda_l * (p1 + p2 - pb1)
        d_q_ib = p.a_q_ib - p.b_l * eff.tilde_pb1 + p.lambda_l * (p1 + p2 - eff.tilde_pb1)
    else:
        s = p1 + p2
        d_l_i1 = p.a_l_i1 - p.b_l * p1 - p.b_l * p.theta_l * p2
        d_l_i2 = p.a_l_i2 - p.b_l * p.theta_l * p1 - p.b_l * p2
        d_l_ib = p.a_l_ib - p.b_l * s
        d_q_ib = p.a_q_ib - p.b_l * s
    d_l_jb = p.a_l_jb - p.b_l * pb2
    d_q_jb = p.a_q_jb - p.b_l * eff.tilde_pb2
    d_s = p.a_s - p.b_s * eff.hat_pb
    return _tuple_new(DemandProfile, (d_l_i1, d_l_i2, d_l_ib, d_q_ib, d_l_jb, d_q_jb, d_s))
