"""Aggregation-gap measurement and storage-equivalence sizing.

The gap is the robust profit of the aggregated portfolio minus the sum of the
units' stand-alone robust profits.  Sizing answers: how many identical
storage modules does a price-robust fleet need before its day profit covers
that gap?  The fleet is a storage-only portfolio, and the N-module fleet is
the module's `EsUnit.scaled(N)`.  Every storage row is positively
homogeneous in the continuous columns and the fleet's ratings, so the
N-module optimum is N times the one-module optimum.  Sizing therefore solves
one module for its profit p1, takes the smallest N with N * p1 >= gap,
checks (N - 1) * p1 < gap by arithmetic, and returns the one-module schedule
scaled by N (`RvppSchedule.scaled`).

Each model is named by a `Solve` key: the market scenario, the portfolio (the
cell's, one unit's stand-alone portfolio, or the storage module's) and the
budgets.  `gap_solves` and `module_solve`
plan the keys of a gap and of a fleet; `GapReport.of` and `sized_from_module`
turn solved keys into numbers.  `aggregation_gap` and `size_es_to_match`
solve their keys with `Solve.run`; the command-line sweep plans the same keys
for many cells and solves each distinct one once.

Every schedule comes from `audited_schedule`, which replays it against the
raw inputs and audits a robust one against its dominant quantity
realization before its profit is used.  Every sized fleet comes from
`sized_from_module`, which replays the scaled schedule
against `module.scaled(N)` and re-prices its objective before the fleet is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import backends
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
from .milp import FEASIBILITY_TOL, STATUS_INFEASIBLE, STATUS_LIMIT, STATUS_OPTIMAL, Model, Solution, solve
from .oracle import audit_robust_feasibility, nominal_profit, replay_schedule, worst_case_profit
from .scheduler import RvppSchedule, build_deterministic_rvpp, build_robust_rvpp, extract_rvpp_schedule

# The largest fleet sizing returns; a larger need raises SizingError.
MAX_MODULES = 2000


class SizingError(RuntimeError):
    """Raised when no fleet within the module cap can cover the gap."""


class ScheduleError(RuntimeError):
    """A solve did not yield a replayed, audited schedule."""


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

    @classmethod
    def of(cls, solved, key: Solve, units: tuple[Solve, ...]) -> GapReport:
        """The gap of key's portfolio over its units' stand-alone keys, where
        solved(key) gives a key's schedule."""
        rvpp = solved(key).objective_value
        per_unit = tuple((k.subject.unit_names()[0], solved(k).objective_value) for k in units)
        return cls(rvpp_profit=rvpp, sum_individual=sum(v for _, v in per_unit), per_unit=per_unit)


@dataclass(frozen=True)
class SizingResult:
    """Minimal fleet whose robust profit covers the lower-bound target.

    iterations counts fleet solves; it is always 1, the one-module solve.
    minimality_checked records that (module_count - 1) * p1 < target <=
    module_count * p1 held in floating point (trivially true at 1).
    schedule is the one-module schedule scaled to module_count.
    """

    lower_bound_profit: float
    module_count: int
    fleet_e_max: float
    es_objective: float
    iterations: int
    minimality_checked: bool
    schedule: RvppSchedule


class Solve(NamedTuple):
    """What defines one model: its market scenario, portfolio and budgets.
    Equal keys are the same model."""

    scenario: MarketScenario
    subject: Portfolio  # a cell's portfolio, one unit's alone, or the storage module's
    budgets: BudgetSet | None  # None: the deterministic model

    def weight(self) -> int:
        """0 robust portfolios, 1 deterministic ones, 2 single units and the module."""
        if len(self.subject.all_units()) == 1:
            return 2
        return 0 if self.budgets is not None else 1

    def label(self) -> str:
        return "+".join(self.subject.unit_names())

    def run(self) -> RvppSchedule:
        """The audited schedule; see audited_schedule."""
        return audited_schedule(self.subject, self.scenario, self.budgets)


# The Portfolio field of each unit class.
_CLASS_FIELD = {DrsUnit: "drs", NdrsUnit: "ndrs", CspUnit: "csp", FdUnit: "fd", EsUnit: "es"}


def _budgets_for(budgets: BudgetSet, names: set[str]) -> BudgetSet:
    kept = tuple((n, g) for n, g in budgets.gamma_per_unit if n in names)
    return replace(budgets, gamma_per_unit=kept)


def price_only_budgets(budgets: BudgetSet) -> BudgetSet:
    return replace(budgets, gamma_per_unit=())


def stand_alone(unit, budgets: BudgetSet) -> tuple[Portfolio, BudgetSet]:
    """The one-unit portfolio and budgets a unit faces when it bids alone.

    The unit keeps its own quantity budget and the full price budgets; other
    units' budgets are dropped along with the units themselves.
    """
    return Portfolio(**{_CLASS_FIELD[type(unit)]: (unit,)}), _budgets_for(budgets, {unit.name})


def _solved(m: Model) -> Solution:
    """m solved to optimality in a fresh session, else ScheduleError.

    This is the one place a non-optimal status becomes an error.  A time-limit
    hit names the model, the limit and the MIP gap HiGHS had reached.  An
    infeasible model names the rows of the session's feasibility relaxation
    (see ScipyHighsBackend.relaxed_rows), largest violation first, at most
    five.  Any other status is named as it is.
    """
    backend = backends.ScipyHighsBackend()
    sol = solve(m, backend)
    if sol.status == STATUS_OPTIMAL:
        return sol
    if sol.status == STATUS_LIMIT:
        raise ScheduleError(
            f"model {m.name!r} hit the {backends.SOLVE_TIME_LIMIT_S:g} s time limit "
            f"at mip_gap {backend.last_run.mip_gap:.3g}"
        )
    detail = ""
    if sol.status == STATUS_INFEASIBLE:
        rows = sorted(backend.relaxed_rows().items(), key=lambda row: row[1], reverse=True)[:5]
        if rows:
            named = ", ".join(f"{name} (slack {slack:.4g})" for name, slack in rows)
            detail = f"; relaxing these rows restores feasibility: {named}"
    raise ScheduleError(f"solve ended {sol.status}{detail}")


def _require_clean_replay(what: str, schedule, subject, scenario: MarketScenario) -> None:
    """ScheduleError naming the constraint family with the largest replay
    residual, when that residual is above FEASIBILITY_TOL."""
    family, worst = max(replay_schedule(schedule, subject, scenario).items(), key=lambda item: item[1])
    if worst > FEASIBILITY_TOL:
        raise ScheduleError(f"{what} residual {worst:.3g} in {family} above {FEASIBILITY_TOL}")


def audited_schedule(portfolio: Portfolio, scenario: MarketScenario, budgets: BudgetSet | None) -> RvppSchedule:
    """Build, solve, decode, replay and audit one portfolio schedule.

    budgets None builds the deterministic model.  ScheduleError names what
    failed: the solve (see _solved), the replay residual and its constraint
    family, or the first robust violation.
    """
    if budgets is None:
        m = build_deterministic_rvpp(portfolio, scenario)
    else:
        m = build_robust_rvpp(portfolio, scenario, budgets)
    schedule = extract_rvpp_schedule(m, _solved(m))
    _require_clean_replay("replay", schedule, portfolio, scenario)
    if budgets is not None:
        violations = audit_robust_feasibility(schedule, portfolio, scenario, budgets)
        if violations:
            raise ScheduleError("robust audit failed: " + violations[0])
    return schedule


def gap_solves(
    portfolio: Portfolio,
    scenario: MarketScenario,
    budgets: BudgetSet,
) -> tuple[Solve, tuple[Solve, ...]]:
    """The portfolio's key and one stand-alone key per unit; budget entries
    naming units outside the portfolio are dropped."""
    budgets = _budgets_for(budgets, set(portfolio.unit_names()))
    units = tuple(Solve(scenario, *stand_alone(u, budgets)) for u in portfolio.all_units())
    return Solve(scenario, portfolio, budgets), units


def aggregation_gap(portfolio: Portfolio, scenario: MarketScenario, budgets: BudgetSet) -> GapReport:
    """Aggregated robust profit vs the sum of stand-alone robust profits."""
    return GapReport.of(Solve.run, *gap_solves(portfolio, scenario, budgets))


def _module_count(gap: float, p1: float, module: EsUnit) -> int:
    """Smallest N with N * p1 >= gap in floating point."""
    if not math.isfinite(gap):
        raise SizingError(f"the gap {gap} is not finite, so no fleet size follows from it")
    if p1 >= gap:
        return 1
    if p1 <= 0.0:
        raise SizingError(
            f"per-module value {p1:.6g} of {module.name!r} is not positive, "
            f"so no fleet covers the gap {gap:.6g}"
        )
    # Tested before any division so that a tiny p1 cannot overflow ceil().
    if gap > MAX_MODULES * p1:
        raise SizingError(f"no fleet of up to {MAX_MODULES} modules covers the gap {gap:.6g}")
    # The rounded quotient can put ceil() one module off where gap / p1 sits
    # next to a whole number; the products settle it.
    count = math.ceil(gap / p1)
    if (count - 1) * p1 >= gap:
        count -= 1
    elif count * p1 < gap:
        count += 1
    return count


def module_solve(module: EsUnit, scenario: MarketScenario, budgets: BudgetSet) -> Solve:
    """The one-module storage key; any per-unit budgets are dropped."""
    return Solve(scenario, Portfolio(es=(module,)), price_only_budgets(budgets))


def sized_from_module(gap: float, one: RvppSchedule, key: Solve) -> SizingResult:
    """The smallest fleet covering gap, by arithmetic on one, the schedule of
    the one-module key.

    The scaled schedule is replayed against the fleet of module.scaled(count),
    and its objective is re-priced twice against that fleet: by the worst case of
    its flows under the price-only budgets, and as its nominal profit less its
    price duals' penalty (the worst case reads flows only, so it cannot see a
    wrong dual).  ScheduleError names the residual and its constraint family,
    or a price that disagrees.
    """
    (module,), scenario, budgets = key.subject.es, key.scenario, key.budgets
    p1 = one.objective_value
    count = _module_count(gap, p1, module)
    schedule, fleet = one.scaled(count), Portfolio(es=(module.scaled(count),))
    _require_clean_replay("storage replay", schedule, fleet, scenario)
    objective = schedule.objective_value
    checks = {"its worst-case re-pricing": worst_case_profit(schedule, fleet, scenario, budgets)[0]}
    if schedule.artifacts is not None:
        checks["its price duals"] = nominal_profit(schedule, fleet, scenario) - schedule.artifacts.price_penalty_total()
    for source, profit in checks.items():
        if abs(profit - objective) > FEASIBILITY_TOL * max(1.0, abs(objective)):
            raise ScheduleError(f"sized fleet objective {objective:.10g} but {source} gives {profit:.10g}")
    return SizingResult(
        lower_bound_profit=gap,
        module_count=count,
        fleet_e_max=fleet.es[0].e_max,
        es_objective=schedule.objective_value,
        iterations=1,
        minimality_checked=count == 1 or (count - 1) * p1 < gap <= count * p1,
        schedule=schedule,
    )


def size_es_to_match(gap: float, module: EsUnit, scenario: MarketScenario, budgets: BudgetSet) -> SizingResult:
    """Smallest module_count whose robust fleet profit reaches the gap.

    budgets must be effectively price-only; any per-unit entries are dropped
    here because the fleet has no quantity streams.  One module is solved for
    its profit p1; the count follows from p1 by arithmetic and the schedule by
    scaling, so no other fleet is solved.  The returned schedule is replayed
    and re-priced as sized_from_module describes.  SizingError is raised when
    p1 is not positive and when the count would exceed MAX_MODULES;
    ScheduleError when the one-module solve does not end optimal.
    """
    key = module_solve(module, scenario, budgets)
    return sized_from_module(gap, key.run(), key)
