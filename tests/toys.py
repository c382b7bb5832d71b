"""Hand-sized portfolios, markets, and solve helpers shared by the tests."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from rvpp import (
    ZERO_BUDGETS,
    BudgetSet,
    EsUnit,
    MarketScenario,
    NdrsUnit,
    PeriodGrid,
    Portfolio,
    RvppSchedule,
    ScipyHighsBackend,
    build_robust_rvpp,
    extract_rvpp_schedule,
    solve,
)
from rvpp.domain import WIND
from rvpp.scheduler import dominant_subset


def series(value, T: int) -> tuple[float, ...]:
    """Broadcast a scalar to T periods; pass sequences through."""
    if np.ndim(value) == 0:
        return (float(value),) * T
    if len(value) != T:
        raise ValueError(f"series of length {len(value)} for {T} periods")
    return tuple(float(v) for v in value)


def market(
    T: int = 24,
    dam=10.0,
    dam_down=0.0,
    dam_up=0.0,
    sr_up=0.0,
    sr_up_dev=0.0,
    sr_dn=0.0,
    sr_dn_dev=0.0,
    dt: float = 1.0,
) -> MarketScenario:
    return MarketScenario(
        grid=PeriodGrid(T, dt),
        dam_price=series(dam, T),
        dam_price_down_dev=series(dam_down, T),
        dam_price_up_dev=series(dam_up, T),
        sr_up_price=series(sr_up, T),
        sr_up_price_dev=series(sr_up_dev, T),
        sr_dn_price=series(sr_dn, T),
        sr_dn_price_dev=series(sr_dn_dev, T),
    )


def wind(T: int = 24, upper=40.0, dev=0.0, name: str = "wf", op_cost: float = 0.0) -> NdrsUnit:
    return NdrsUnit(name, WIND, 0.0, op_cost, series(upper, T), series(dev, T))


def wind_only(T: int = 24, upper=40.0, dev=0.0, **market_kwargs):
    """One curtailable wind farm and a market; the workhorse toy."""
    return Portfolio(ndrs=(wind(T, upper, dev),)), market(T=T, **market_kwargs)


def battery(
    name: str = "mod",
    charge: float = 0.5,
    discharge: float = 0.5,
    e_max: float = 1.0,
    e_min: float = 0.1,
    eff: float = 0.95,
    op_cost: float = 0.0,
) -> EsUnit:
    return EsUnit(name, charge, discharge, e_max, e_min, eff, eff, op_cost)


def solve_rvpp(portfolio, scenario, budgets: BudgetSet = ZERO_BUDGETS):
    """Build, solve, and decode in one step (by default the deterministic
    model); asserts the solve is optimal."""
    m = build_robust_rvpp(portfolio, scenario, budgets)
    sol = solve(m, ScipyHighsBackend())
    assert sol.status == "optimal", f"rvpp solve ended {sol.status}"
    return extract_rvpp_schedule(m, sol)


def solve_es(unit: EsUnit, scenario, budgets: BudgetSet = ZERO_BUDGETS):
    """solve_rvpp for the storage-only portfolio of unit."""
    return solve_rvpp(Portfolio(es=(unit,)), scenario, budgets)


def unscale_dam_penalty(monkeypatch) -> None:
    """Make RvppSchedule.scaled leave the energy-price penalty unscaled."""
    real = RvppSchedule.scaled

    def unscaled_dam_penalty(self, n):
        out = real(self, n)
        return replace(out, price_penalty={**out.price_penalty, "dam": self.price_penalty["dam"]})

    monkeypatch.setattr(RvppSchedule, "scaled", unscaled_dam_penalty)


def halving_dam_penalty(decode):
    """decode, with the energy-price penalty halved: every flow still holds,
    so only the re-pricing through the price duals can see it."""

    def tampered(model, solution):
        schedule = decode(model, solution)
        schedule.price_penalty["dam"] /= 2.0
        return schedule

    return tampered


def breaking_fd_envelope(decode):
    """decode, with each flexible-demand unit's upward reserve, and the
    market's, raised by the unit's consumption plus 1 MW.  The three balances
    still hold, but consumption less upward reserve falls at least 1 MW below
    p_min, so of the replay's families only fd_envelope breaks."""

    def tampered(model, solution):
        schedule = decode(model, solution)
        for name in schedule.fd_profile:
            lift = schedule.dispatch[name] + 1.0
            schedule.reserve_up[name] = schedule.reserve_up[name] + lift
            schedule.r_up = schedule.r_up + lift
        return schedule

    return tampered


def nan_in_hydro_dispatch(decode):
    """decode, with hydro's first-period dispatch NaN.  A NaN compares false
    with every number, so only a gate that fails closed can see it."""

    def tampered(model, solution):
        schedule = decode(model, solution)
        dispatch = schedule.dispatch["hydro"].copy()
        dispatch[0] = np.nan
        schedule.dispatch["hydro"] = dispatch
        return schedule

    return tampered


def lifting_to_the_nominal_ceiling(decode, unit: NdrsUnit, gamma: int):
    """decode, with unit's dispatch and the market's sale raised by the same
    amount in the first period of unit's dominant realization under gamma,
    up to its nominal forecast less its upward reserve.  The balances and
    every replay family still hold, but that realization no longer fits, so
    only the robust audit can see it."""

    def tampered(model, solution):
        schedule = decode(model, solution)
        t = dominant_subset(unit.forecast_deviation, gamma)[0]
        dispatch = schedule.dispatch[unit.name].copy()
        lift = unit.forecast_upper[t] - schedule.reserve_up[unit.name][t] - dispatch[t]
        dispatch[t] += lift
        schedule.dispatch[unit.name] = dispatch
        schedule.p_da = schedule.p_da + lift * (np.arange(len(dispatch)) == t)
        return schedule

    return tampered
