"""Aggregation-gap measurement and storage-equivalence sizing.

The gap is the robust profit of the aggregated portfolio minus the sum of the
units' stand-alone robust profits.  Sizing answers: how many identical
storage modules does a price-robust fleet need before its day profit covers
that gap?  Every fleet row is positively homogeneous in the continuous
columns and module_count, so the fleet's robust profit is exactly N times the
one-module profit p1 and the answer is ceil(gap / p1).  A profit-floor row
added to the fleet model then verifies the boundary: the chosen count covers
the gap and one module fewer does not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .backends import ScipyHighsBackend
from .domain import (
    BudgetSet,
    CspUnit,
    DrsUnit,
    EsUnit,
    FdUnit,
    MarketScenario,
    NdrsUnit,
    Portfolio,
)
from .milp import SENSE_GE, LinearExpression, solve
from .scheduler import build_robust_rvpp, extract_rvpp_schedule
from .storage import EsFleet, EsSchedule, build_robust_es, extract_es_schedule


class SizingError(RuntimeError):
    """Raised when no fleet within the module cap can cover the gap."""


@dataclass(frozen=True)
class GapReport:
    """Unpacks as (rvpp_profit, sum_individual, gap)."""

    rvpp_profit: float
    sum_individual: float
    per_unit: tuple[tuple[str, float], ...]

    @property
    def gap(self) -> float:
        return self.rvpp_profit - self.sum_individual

    def __iter__(self):
        return iter((self.rvpp_profit, self.sum_individual, self.gap))


@dataclass(frozen=True)
class SizingResult:
    """Minimal fleet whose robust profit covers the lower-bound target.

    iterations counts fleet solves: 1 when a single module covers the target,
    otherwise at most 3.  minimality_checked records that module_count - 1
    was solved and found infeasible (trivially true at 1).  per_unit and
    rvpp_profit are filled when the target came from an aggregation-gap
    report rather than a bare number.  schedule is the decoded profit-floor
    solve at module_count; it is None when one module covered the target in
    the unfloored solve, so no floored model was solved.
    """

    lower_bound_profit: float
    module_count: int
    fleet_e_max: float
    es_objective: float
    iterations: int
    minimality_checked: bool
    per_unit: tuple[tuple[str, float], ...] = ()
    rvpp_profit: float | None = None
    schedule: EsSchedule | None = None

    def fleet(self, module: EsUnit) -> EsFleet:
        return EsFleet(module, self.module_count)


def _singleton(unit) -> Portfolio:
    if isinstance(unit, DrsUnit):
        return Portfolio(drs=(unit,))
    if isinstance(unit, NdrsUnit):
        return Portfolio(ndrs=(unit,))
    if isinstance(unit, CspUnit):
        return Portfolio(csp=(unit,))
    if isinstance(unit, FdUnit):
        return Portfolio(fd=(unit,))
    raise TypeError(f"not a portfolio unit: {type(unit).__name__}")


def _budgets_for(budgets: BudgetSet, names: set[str]) -> BudgetSet:
    kept = tuple((n, g) for n, g in budgets.gamma_per_unit if n in names)
    return replace(budgets, gamma_per_unit=kept)


def price_only_budgets(budgets: BudgetSet) -> BudgetSet:
    return replace(budgets, gamma_per_unit=())


def individual_profit(
    unit,
    scenario: MarketScenario,
    budgets: BudgetSet,
    **build_kwargs,
) -> float:
    """Stand-alone robust profit of one unit facing the same markets.

    The unit keeps its own quantity budget and the full price budgets; other
    units' budgets are dropped along with the units themselves.
    """
    portfolio = _singleton(unit)
    b = _budgets_for(budgets, {unit.name})
    m = build_robust_rvpp(portfolio, scenario, b, **build_kwargs)
    sol = solve(m, ScipyHighsBackend())
    if sol.status != "optimal":
        raise SizingError(f"stand-alone solve for {unit.name!r} ended {sol.status}")
    return extract_rvpp_schedule(m, sol, portfolio).objective_value


def aggregation_gap(
    portfolio: Portfolio,
    scenario: MarketScenario,
    budgets: BudgetSet,
    **build_kwargs,
) -> GapReport:
    """Aggregated robust profit vs the sum of stand-alone robust profits."""
    budgets = _budgets_for(budgets, set(portfolio.unit_names()))
    m = build_robust_rvpp(portfolio, scenario, budgets, **build_kwargs)
    sol = solve(m, ScipyHighsBackend())
    if sol.status != "optimal":
        raise SizingError(f"aggregated solve ended {sol.status}")
    rvpp = extract_rvpp_schedule(m, sol, portfolio).objective_value
    per_unit = []
    for unit in portfolio.all_units():
        per_unit.append((unit.name, individual_profit(unit, scenario, budgets, **build_kwargs)))
    total = sum(v for _, v in per_unit)
    return GapReport(rvpp_profit=rvpp, sum_individual=total, per_unit=tuple(per_unit))


def _fleet_covers(
    count: int,
    module: EsUnit,
    scenario: MarketScenario,
    budgets: BudgetSet,
    gap: float | None,
    build_kwargs: dict,
) -> EsSchedule | None:
    """Solve the price-robust fleet with a profit-floor row at gap (no row
    when gap is None); returns the decoded schedule, or None when the floor
    is not met."""
    m = build_robust_es(EsFleet(module, count), scenario, budgets, **build_kwargs)
    if gap is not None:
        m.add_constraint("profit_floor", m.objective, SENSE_GE, gap)
    sol = solve(m, ScipyHighsBackend())
    if sol.status == "infeasible" and gap is not None:
        return None
    if sol.status != "optimal":
        raise SizingError(f"fleet solve at {count} modules ended {sol.status}")
    return extract_es_schedule(m, sol)


def size_es_to_match(
    gap: float,
    module: EsUnit,
    scenario: MarketScenario,
    budgets: BudgetSet,
    max_modules: int = 2000,
    **build_kwargs,
) -> SizingResult:
    """Smallest module_count whose robust fleet profit reaches the gap.

    budgets must be effectively price-only; any per-unit entries are dropped
    here because the fleet has no quantity streams.  The count is computed
    from the one-module profit p1, not searched for, and costs at most three
    fleet solves.  SizingError is raised when p1 is not positive, when the
    count exceeds max_modules, and when the floor-row solves contradict the
    linear scaling count * p1.
    """
    if max_modules < 1:
        raise ValueError("max_modules must be at least 1")
    b = price_only_budgets(budgets)
    iterations = 0

    def covers(count: int, floor: float | None = gap) -> EsSchedule | None:
        nonlocal iterations
        iterations += 1
        return _fleet_covers(count, module, scenario, b, floor, build_kwargs)

    def result(count: int, es: EsSchedule, floored: bool = True) -> SizingResult:
        return SizingResult(
            lower_bound_profit=gap,
            module_count=count,
            fleet_e_max=module.e_max * count,
            es_objective=es.objective_value,
            iterations=iterations,
            minimality_checked=True,
            schedule=es if floored else None,
        )

    def cap_error() -> SizingError:
        return SizingError(f"no fleet of up to {max_modules} modules covers the gap {gap:.6g}")

    one = covers(1, None)
    p1 = one.objective_value
    if p1 >= gap:
        return result(1, one, floored=False)
    if p1 <= 0.0:
        raise SizingError(
            f"per-module value {p1:.6g} of {module.name!r} is not positive, "
            f"so no fleet covers the gap {gap:.6g}"
        )
    ratio = gap / p1
    if ratio > max_modules:
        raise cap_error()
    # Fleet profit is count * p1, so the answer is ceil(ratio).  Float rounding
    # can move it one module only where ratio sits next to a whole number, and
    # the floor-row solve at the nearest whole number settles which side wins;
    # together with one neighbour it also verifies minimality.
    nearest = round(ratio)
    es = covers(nearest)
    if es is not None:
        if nearest > 1 and covers(nearest - 1) is not None:
            raise SizingError(
                f"fleet profit departs from module_count x {p1:.6g}: "
                f"{nearest - 1} modules already cover the gap {gap:.6g}"
            )
        return result(nearest, es)
    if nearest + 1 > max_modules:
        raise cap_error()
    es = covers(nearest + 1)
    if es is None:
        raise SizingError(
            f"fleet profit departs from module_count x {p1:.6g}: "
            f"{nearest + 1} modules do not cover the gap {gap:.6g}"
        )
    return result(nearest + 1, es)
