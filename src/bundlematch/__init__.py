"""Nash equilibria of a two-retailer complementary-goods pricing game with
mixed bundling and price-matching guarantees.

The closed forms, the selection, the table and the sweeps run in pure
Python, so importing the package does not load numpy.  Only the
best-response oracle (bundlematch.oracle), which solves stacked arrays,
imports it.  The oracle's exports below are resolved on first access,
which imports bundlematch.oracle and with it numpy.
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
    SingularSystemError,
    demands,
    effective_prices,
    structure,
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
    "SingularSystemError",
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

# resolved on first access (PEP 562), so that importing the package does not
# import the oracle or numpy
_ORACLE_EXPORTS = frozenset(
    {
        "OracleOutcome",
        "best_response_r1",
        "best_response_r2",
        "find_fixed_point",
        "find_fixed_points",
    }
)


def __getattr__(name: str) -> object:
    if name in _ORACLE_EXPORTS:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
