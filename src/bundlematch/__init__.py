"""Nash equilibria of a two-retailer complementary-goods pricing game with
mixed bundling and price-matching guarantees.

Everything runs in pure Python: the closed forms, the selection, the
table, the sweeps and the best-response oracle.
"""

from .conditions import (
    ConditionCheck,
    ConditionReport,
    UnknownSetError,
    check_condition_set,
)
from .equilibria import (
    DegenerateParamsError,
    EquilibriumResult,
    candidate_theorems,
    eq_T1,
    eq_T2,
    eq_T3,
    eq_T4,
    eq_T5a,
    eq_T5b,
)
from .market import (
    DemandProfile,
    EffectivePrices,
    InvalidParameterError,
    InvalidPriceError,
    MarketParams,
    PriceVector,
    Regime,
    RegimeStructure,
    Scenario,
    demands,
    effective_prices,
    structure,
)
from .oracle import (
    OracleOutcome,
    best_response_r1,
    best_response_r2,
    find_fixed_point,
    find_fixed_points,
)
from .policy import (
    PolicyComparison,
    SubgameSolution,
    compare_policies,
    solve_subgame,
)
from .profits import ProfitPair, profits, quadratic_r2

__all__ = [
    "ConditionCheck",
    "ConditionReport",
    "DegenerateParamsError",
    "DemandProfile",
    "EffectivePrices",
    "EquilibriumResult",
    "InvalidParameterError",
    "InvalidPriceError",
    "MarketParams",
    "OracleOutcome",
    "PolicyComparison",
    "PriceVector",
    "ProfitPair",
    "Regime",
    "RegimeStructure",
    "Scenario",
    "SubgameSolution",
    "UnknownSetError",
    "best_response_r1",
    "best_response_r2",
    "candidate_theorems",
    "check_condition_set",
    "compare_policies",
    "demands",
    "effective_prices",
    "eq_T1",
    "eq_T2",
    "eq_T3",
    "eq_T4",
    "eq_T5a",
    "eq_T5b",
    "find_fixed_point",
    "find_fixed_points",
    "profits",
    "quadratic_r2",
    "solve_subgame",
    "structure",
]
