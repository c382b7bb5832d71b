"""Renewable virtual power plant scheduling and storage-equivalence sizing.

The package builds mixed-integer linear models for a portfolio of renewable
units (plus flexible demand) and for a fleet of identical storage modules
(a storage-only portfolio), both trading day-ahead energy and secondary
reserve capacity.  Price and quantity uncertainty is handled with integer
budgets; a solver-free oracle evaluates worst cases and audits schedules;
the sizing loop finds the smallest storage fleet matching the portfolio's
aggregation advantage.

One rule serves every public name: `_HOME` maps it to the submodule that
defines it, and that submodule is imported the first time the name is read
(the lazy loading of Scientific Python SPEC 1).  A bare `import rvpp` loads
no submodule, no numpy and no yaml.  Only `backends`, and `sizing` through
it, need scipy's HiGHS binding, so everything else imports without it and
the console entry point (`rvpp.__main__`) can report a missing binding with
exit 2.  The binding is the one part of scipy rvpp loads, straight from its
file.  `backends` also keeps `hashlib` (which loads OpenSSL's libcrypto)
and `importlib.metadata` (the email and zip modules) off the import path,
so neither the parent nor a forked worker carries them.  In a fresh
interpreter on a 2-vCPU VM, `import rvpp` plus `load_scenario` takes about
0.07 s, against 0.18 s when every submodule was imported up front;
`import rvpp.cli` takes about 0.14 s and 35 MB, against 0.18 s and 41 MB
with `hashlib` and `importlib.metadata` imported, and 0.82 s and 79 MB with
the binding imported through `scipy.optimize`.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    name: module
    for module, names in {
        "backends": "ScipyHighsBackend",
        "datasets": "default_scenario_path",
        "domain": """REGIMES SEASONS STRATEGIES ZERO_BUDGETS BudgetSet CspUnit DrsUnit EsUnit FdUnit
            MarketScenario NdrsUnit PeriodGrid Portfolio ThermalStoreParams strategy_budgets
            validate_budgets validate_portfolio validate_scenario""",
        "milp": """BackendError Constraint LinearExpression Model ModelError Solution
            SolverUnavailableError Variable solve""",
        "oracle": "Realization audit_robust_feasibility nominal_profit replay_schedule worst_case_profit",
        "scenario_io": """ResultRow ResultsTable ScenarioBundle ScenarioFormatError SeriesRow
            load_scenario save_scenario scale_flexible_demand write_results""",
        "scheduler": """DecodeError ModelBuildError RvppSchedule build_deterministic_rvpp
            build_robust_rvpp extract_rvpp_schedule""",
        "sizing": """GapReport ScheduleError SizingError SizingResult aggregation_gap
            audited_schedule price_only_budgets size_es_to_match""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
