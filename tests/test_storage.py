"""Storage MILP: arbitrage economics, SOC physics, price robustness."""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from rvpp import (
    BudgetSet,
    DecodeError,
    ModelBuildError,
    Portfolio,
    ScipyHighsBackend,
    ZERO_BUDGETS,
    build_robust_rvpp,
    extract_rvpp_schedule,
    nominal_profit,
    replay_schedule,
    solve,
    worst_case_profit,
)
from rvpp.domain import _declared
from toys import battery, market, solve_es, solve_rvpp


def test_two_period_arbitrage_closed_form():
    """Buy half a module at a zero price, sell it back through both
    efficiencies: 70 * 0.5 * 0.95^2 = 31.5875."""
    sched = solve_es(battery(), market(2, dam=[0.0, 70.0]))
    assert sched.objective_value == pytest.approx(31.5875, abs=1e-6)
    np.testing.assert_allclose(sched.ts_soc["mod"], [0.1, 0.575, 0.1], atol=1e-7)
    assert sched.ts_charge["mod"][0] == pytest.approx(0.5, abs=1e-8)
    assert sched.ts_discharge["mod"][1] == pytest.approx(0.5 * 0.95**2, abs=1e-8)


def test_two_cycles_double_the_value():
    sched = solve_es(battery(), market(4, dam=[0.0, 70.0, 0.0, 70.0]))
    assert sched.objective_value == pytest.approx(2 * 31.5875, abs=1e-6)


def test_flat_prices_mean_no_trading():
    sched = solve_es(battery(), market(6, dam=25.0))
    assert sched.objective_value == pytest.approx(0.0, abs=1e-9)
    assert np.abs(sched.p_da).max() <= 1e-9


def test_splitting_each_period_in_two_keeps_the_value(bundle):
    """Operating cost is paid per MWh, so the shipped spring module earns
    the same over 48 half-hour periods as over 24 hours at the same prices
    (reserve prices zeroed: they pay per MW and period)."""
    _, spring = bundle.cell("spring", "favorable")
    zeros = (0.0,) * 24
    coarse = replace(spring, sr_up_price=zeros, sr_dn_price=zeros)
    fine = replace(
        coarse,
        grid=replace(coarse.grid, period_count=48, delta_t=0.5),
        **{f: tuple(v for v in getattr(coarse, f) for _ in (0, 1)) for f in (
            "dam_price", "dam_price_down_dev", "dam_price_up_dev",
            "sr_up_price", "sr_up_price_dev", "sr_dn_price", "sr_dn_price_dev",
        )},
    )
    value = solve_es(bundle.es_module, coarse).objective_value
    assert value > 1.0
    assert solve_es(bundle.es_module, fine).objective_value == pytest.approx(value, rel=1e-9)


def _two_halves(vec) -> tuple[float, ...]:
    return tuple(v for v in vec for _ in (0, 1))


def _split_periods(item):
    """A unit or market for 48 half-hour periods where item has 24 hours: each
    period's values twice, and min-up and min-down windows twice as long."""
    changes = {}
    for name, spec in _declared(type(item)).items():
        if spec.kind == "series":
            changes[name] = _two_halves(getattr(item, name))
        elif spec.kind == "profiles":
            changes[name] = tuple(map(_two_halves, getattr(item, name)))
        elif name in ("min_up", "min_down"):
            changes[name] = 2 * getattr(item, name)
    return replace(item, **changes)


@pytest.mark.parametrize("season", ["winter", "spring"])
def test_splitting_each_period_in_two_keeps_each_unit_value(bundle, season):
    """The same holds for each shipped unit bidding alone: costs are paid per
    MWh or per event, and a CSP start draws the same heat at any period
    length (reserve prices zeroed: they pay per MW and period)."""
    portfolio, market_cell = bundle.cell(season, "favorable")
    zeros = (0.0,) * 24
    coarse = replace(market_cell, sr_up_price=zeros, sr_dn_price=zeros)
    fine = replace(_split_periods(coarse), grid=replace(coarse.grid, period_count=48, delta_t=0.5))
    for kind in ("drs", "ndrs", "csp", "fd"):
        for unit in getattr(portfolio, kind):
            value = solve_rvpp(Portfolio(**{kind: (unit,)}), coarse).objective_value
            split = solve_rvpp(Portfolio(**{kind: (_split_periods(unit),)}), fine).objective_value
            assert split == pytest.approx(value, rel=1e-9), unit.name


@pytest.mark.parametrize("season", ["winter", "spring", "summer", "autumn"])
def test_splitting_each_period_of_the_whole_portfolio_in_two(bundle, season):
    """The whole deterministic portfolio over 48 half-hour periods, with
    reserve prices halved and min-up/down windows doubled.  The coarse
    optimum, each period repeated, is feasible there at the same value, so
    the fine optimum is never lower.  On the shipped file it is higher in
    winter, spring and summer (by 83.54, 22.20 and 2.20) and equal in autumn."""
    portfolio, coarse = bundle.cell(season, "favorable")
    kinds = ("drs", "ndrs", "csp", "fd")
    fine_portfolio = Portfolio(**{kind: tuple(map(_split_periods, getattr(portfolio, kind))) for kind in kinds})
    halved = {f: tuple(v / 2 for v in getattr(coarse, f)) for f in ("sr_up_price", "sr_dn_price")}
    fine = replace(_split_periods(replace(coarse, **halved)), grid=replace(coarse.grid, period_count=48, delta_t=0.5))
    value = solve_rvpp(portfolio, coarse).objective_value
    assert solve_rvpp(fine_portfolio, fine).objective_value >= value - 1e-9 * abs(value)


def test_value_is_linear_in_module_count():
    # Every fleet rating scales with the count and all rows are homogeneous,
    # so the optimum scales exactly, minimum-power rows and price duals
    # included.  Storage sizing computes its module count and its schedule
    # from this.  Alternative optima may differ in flows, so the scaled
    # schedule is replayed against the larger fleet, not compared with its
    # solve array by array.
    s = market(12, dam=[10, 40, 5, 35, 20, 45, 8, 30, 25, 50, 15, 12], dam_down=4.0, dam_up=3.0)
    min_power = replace(battery(), charge_p_min=0.1, discharge_p_min=0.15)
    for module, budgets in product((battery(), min_power), (ZERO_BUDGETS, BudgetSet(gamma_dam=3))):
        one = solve_es(module, s, budgets)
        for n in (2, 3, 7):
            case = (module, budgets, n)
            vn = solve_es(module.scaled(n), s, budgets).objective_value
            assert vn == pytest.approx(n * one.objective_value, rel=1e-9), case
            scaled, fleet = one.scaled(n), Portfolio(es=(module.scaled(n),))
            assert scaled.objective_value == pytest.approx(vn, rel=1e-9), case
            assert max(replay_schedule(scaled, fleet, s).values()) <= 1e-6, case
            penalty = sum(scaled.price_penalty.values())
            nominal = nominal_profit(scaled, fleet, s)
            assert nominal - penalty == pytest.approx(scaled.objective_value, rel=1e-9), case


def test_soc_cyclic_and_modes_exclusive_randomized():
    rng = np.random.default_rng(1105)
    for trial in range(6):
        T = int(rng.integers(4, 14))
        s = market(
            T,
            dam=rng.uniform(0.0, 60.0, size=T).round(2),
            sr_up=float(rng.uniform(0.0, 6.0)),
            sr_dn=float(rng.uniform(0.0, 6.0)),
            dt=float(rng.choice([0.5, 1.0])),
        )
        fleet = Portfolio(es=(battery().scaled(int(rng.integers(1, 4))),))
        sched = solve_rvpp(fleet, s)
        soc = sched.ts_soc["mod"]
        assert abs(soc[0] - soc[-1]) <= 1e-9, f"trial {trial}"
        assert np.minimum(sched.ts_charge["mod"], sched.ts_discharge["mod"]).max() <= 1e-9, f"trial {trial}"
        residuals = replay_schedule(sched, fleet, s)
        assert max(residuals.values()) <= 1e-7, f"trial {trial}: {residuals}"


def test_objective_non_increasing_in_price_budget():
    s = market(8, dam=[5, 45, 10, 40, 8, 42, 12, 38], dam_down=6.0, dam_up=4.0, sr_up=3.0, sr_up_dev=1.0)
    prev = float("inf")
    for gamma in range(9):
        sched = solve_es(battery(), s, BudgetSet(gamma_dam=gamma, gamma_sr_up=gamma))
        assert sched.objective_value <= prev + 1e-8
        prev = sched.objective_value


def test_zero_budget_matches_deterministic():
    """At zero budgets the objective is the schedule's nominal profit, which
    is also its worst case, and the price duals cost nothing."""
    s = market(6, dam=[5, 45, 10, 40, 8, 42], dam_down=6.0, sr_up=3.0, sr_up_dev=1.0)
    fleet = Portfolio(es=(battery(),))
    rob = solve_es(battery(), s, ZERO_BUDGETS)
    assert rob.objective_value == pytest.approx(nominal_profit(rob, fleet, s), abs=1e-9)
    assert rob.objective_value == pytest.approx(worst_case_profit(rob, fleet, s, BudgetSet())[0], abs=1e-9)
    assert sum(rob.price_penalty.values()) == 0.0


def test_full_dam_budget_stops_arbitrage_not_reserves():
    # Selling price degrades to zero everywhere, buying only gets dearer:
    # trading cannot pay, capacity income still can.
    s = market(6, dam=20.0, dam_down=20.0, dam_up=10.0, sr_up=5.0, sr_dn=4.0)
    sched = solve_es(battery(), s, BudgetSet(gamma_dam=6))
    assert sched.ts_discharge["mod"].max() <= 1e-9
    assert sched.r_up.sum() > 0.1
    assert sched.objective_value > 0.0


def test_robust_objective_equals_worst_case_profit():
    s = market(8, dam=[5, 45, 10, 40, 8, 42, 12, 38], dam_down=6.0, dam_up=4.0, sr_up=3.0, sr_up_dev=1.0)
    budgets = BudgetSet(gamma_dam=3, gamma_sr_up=2)
    sched = solve_es(battery(), s, budgets)
    wc, worst = worst_case_profit(sched, Portfolio(es=(battery(),)), s, budgets)
    assert sched.objective_value == pytest.approx(wc, abs=1e-7)
    assert len(worst["dam"][0]) == 3


def test_per_unit_budgets_rejected_for_storage():
    with pytest.raises(ModelBuildError, match="price budgets only"):
        build_robust_rvpp(Portfolio(es=(battery(),)), market(4), BudgetSet(gamma_per_unit={"mod": 2}))


def test_up_reserve_reserves_no_state_of_charge_margin():
    """Up-reserve-only day: both margin rows use the down share, which is
    zero, so the up reserve blocks no floor headroom."""
    s = market(4, dam=[0.0, 70.0, 0.0, 70.0], sr_up=8.0)
    sched = solve_es(battery(), s)
    assert sched.r_up.sum() > 0.0
    assert sched.sigma["mod"][0] == pytest.approx(0.0, abs=1e-9)
    assert sched.objective_value == pytest.approx(70.015, abs=1e-6)


def test_decode_rejects_tampered_mode():
    m = build_robust_rvpp(Portfolio(es=(battery(),)), market(4, dam=[0, 70, 0, 70]), ZERO_BUDGETS)
    sol = solve(m, ScipyHighsBackend())
    tampered = replace(sol, values=sol.values.copy())
    tampered.values[m.variable("mode__mod_t00").index] = 0.3
    with pytest.raises(DecodeError, match="non-integral"):
        extract_rvpp_schedule(m, tampered)


def test_decode_rejects_simultaneous_flow():
    """Discharging while charging breaks the energy balance in the decoder,
    and mode exclusivity in the replay."""
    fleet, s = Portfolio(es=(battery(),)), market(2, dam=[0, 70])
    m = build_robust_rvpp(fleet, s, ZERO_BUDGETS)
    sol = solve(m, ScipyHighsBackend())
    tampered = replace(sol, values=sol.values.copy())
    tampered.values[m.variable("pdis__mod_t00").index] = 0.2
    with pytest.raises(DecodeError, match="balance row bal_id_t00"):
        extract_rvpp_schedule(m, tampered)
    sched = extract_rvpp_schedule(m, sol)
    sched.ts_discharge["mod"] = sched.ts_discharge["mod"] + [0.2, 0.0]
    assert replay_schedule(sched, fleet, s)["mode_exclusivity"] == pytest.approx(0.2, abs=1e-9)


def test_fleet_ratings_derive_from_module():
    fleet = battery().scaled(3)
    assert fleet.e_max == pytest.approx(3.0)
    assert fleet.e_min == pytest.approx(0.3)
    assert fleet.charge_p_max == pytest.approx(1.5)
    assert fleet.discharge_eff == pytest.approx(0.95)
    with pytest.raises(ValueError, match="module_count"):
        battery().scaled(0)


@pytest.mark.parametrize("bad, field", [(market(4, sr_up_dev=-1.0), "sr_up_price_dev")])
def test_builders_validate_the_market(bad, field):
    fleet = Portfolio(es=(battery(),))
    with pytest.raises(ModelBuildError, match=field):
        build_robust_rvpp(fleet, bad, BudgetSet(gamma_sr_up=1))
    with pytest.raises(ModelBuildError, match=field):
        build_robust_rvpp(fleet, bad, ZERO_BUDGETS)
