"""Hand-sized portfolios, markets, and solve helpers shared by the tests."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from rvpp import (
    BudgetSet,
    EsUnit,
    MarketScenario,
    NdrsUnit,
    PeriodGrid,
    Portfolio,
    RvppSchedule,
    ScipyHighsBackend,
    build_deterministic_rvpp,
    build_robust_rvpp,
    extract_rvpp_schedule,
    solve,
)
from rvpp.domain import WIND


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
    **extra,
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
        **extra,
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


def solve_rvpp(portfolio, scenario, budgets: BudgetSet | None = None):
    """Build, solve, and decode in one step; asserts the solve is optimal."""
    if budgets is None:
        m = build_deterministic_rvpp(portfolio, scenario)
    else:
        m = build_robust_rvpp(portfolio, scenario, budgets)
    sol = solve(m, ScipyHighsBackend())
    assert sol.status == "optimal", f"rvpp solve ended {sol.status}"
    return extract_rvpp_schedule(m, sol)


def solve_es(unit: EsUnit, scenario, budgets: BudgetSet | None = None):
    """solve_rvpp for the storage-only portfolio of unit."""
    return solve_rvpp(Portfolio(es=(unit,)), scenario, budgets)


def unscale_mu_dam(monkeypatch) -> None:
    """Make RvppSchedule.scaled leave the energy-price dual unscaled."""
    real = RvppSchedule.scaled

    def unscaled_mu_dam(self, n):
        out = real(self, n)
        return replace(out, artifacts=replace(out.artifacts, mu_dam=self.artifacts.mu_dam))

    monkeypatch.setattr(RvppSchedule, "scaled", unscaled_mu_dam)


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
