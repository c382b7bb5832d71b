"""Renewable virtual power plant scheduling and storage-equivalence sizing.

The package builds mixed-integer linear models for a portfolio of renewable
units (plus flexible demand) and for a fleet of identical storage modules,
both trading day-ahead energy and secondary reserve capacity.  Price and
quantity uncertainty is handled with integer budgets; a solver-free oracle
evaluates worst cases and audits schedules; the sizing loop finds the
smallest storage fleet matching the portfolio's aggregation advantage.

`backends` loads scipy's HiGHS binding when it is imported, so it and
`sizing`, which needs it, load on first use of one of their names: `rvpp`
and its model-building modules import without the binding, and the console
entry point (`rvpp.__main__`) can report a missing binding with exit 2.
The binding is the one part of scipy rvpp loads, straight from its file:
`import rvpp.cli` takes about 0.25 s and 40 MB, where importing it through
`scipy.optimize` took 0.82 s and 79 MB (medians of 10 runs, 2-vCPU VM).
"""

import importlib

from .domain import (
    REGIMES,
    SEASONS,
    STRATEGIES,
    ZERO_BUDGETS,
    BudgetSet,
    CspUnit,
    DrsUnit,
    EsUnit,
    FdUnit,
    MarketScenario,
    NdrsUnit,
    PeriodGrid,
    Portfolio,
    ThermalStoreParams,
    strategy_budgets,
    validate_budgets,
    validate_portfolio,
    validate_scenario,
)
from .milp import (
    BackendError,
    Constraint,
    LinearExpression,
    Model,
    ModelError,
    Solution,
    SolverUnavailableError,
    Variable,
    solve,
)
from .oracle import (
    Realization,
    audit_robust_feasibility,
    replay_schedule,
    worst_case_profit,
)
from .scenario_io import (
    ResultRow,
    ResultsTable,
    ScenarioBundle,
    ScenarioFormatError,
    SeriesRow,
    default_scenario_path,
    load_scenario,
    save_scenario,
    scale_flexible_demand,
    write_results,
)
from .scheduler import (
    DecodeError,
    ModelBuildError,
    RvppSchedule,
    build_deterministic_rvpp,
    build_robust_rvpp,
    extract_rvpp_schedule,
)
from .storage import (
    EsSchedule,
    build_deterministic_es,
    build_robust_es,
    extract_es_schedule,
)

__version__ = "0.1.0"

_NEEDS_HIGHS = {
    "ScipyHighsBackend": "backends",
    **dict.fromkeys(
        (
            "GapReport",
            "ScheduleError",
            "SizingError",
            "SizingResult",
            "aggregation_gap",
            "audited_schedule",
            "price_only_budgets",
            "size_es_to_match",
        ),
        "sizing",
    ),
}


def __getattr__(name: str):
    if name not in _NEEDS_HIGHS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_NEEDS_HIGHS[name]}", __name__), name)


__all__ = [
    "BackendError",
    "BudgetSet",
    "Constraint",
    "CspUnit",
    "DecodeError",
    "DrsUnit",
    "EsSchedule",
    "EsUnit",
    "FdUnit",
    "GapReport",
    "LinearExpression",
    "MarketScenario",
    "Model",
    "ModelBuildError",
    "ModelError",
    "NdrsUnit",
    "PeriodGrid",
    "Portfolio",
    "REGIMES",
    "Realization",
    "ResultRow",
    "ResultsTable",
    "RvppSchedule",
    "SEASONS",
    "STRATEGIES",
    "ScenarioBundle",
    "ScenarioFormatError",
    "ScheduleError",
    "ScipyHighsBackend",
    "SeriesRow",
    "SizingError",
    "SizingResult",
    "Solution",
    "SolverUnavailableError",
    "ThermalStoreParams",
    "Variable",
    "ZERO_BUDGETS",
    "audit_robust_feasibility",
    "audited_schedule",
    "aggregation_gap",
    "build_deterministic_es",
    "build_deterministic_rvpp",
    "build_robust_es",
    "build_robust_rvpp",
    "default_scenario_path",
    "extract_es_schedule",
    "extract_rvpp_schedule",
    "load_scenario",
    "price_only_budgets",
    "replay_schedule",
    "save_scenario",
    "scale_flexible_demand",
    "size_es_to_match",
    "solve",
    "strategy_budgets",
    "validate_budgets",
    "validate_portfolio",
    "validate_scenario",
    "worst_case_profit",
    "write_results",
]
