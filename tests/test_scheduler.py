"""Portfolio scheduling MILP: deterministic economics, robust budgets, decoding."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from rvpp import (
    BudgetSet,
    CspUnit,
    DecodeError,
    DrsUnit,
    FdUnit,
    MarketScenario,
    ModelBuildError,
    Portfolio,
    ScipyHighsBackend,
    ThermalStoreParams,
    ZERO_BUDGETS,
    aggregation_gap,
    build_robust_rvpp,
    extract_rvpp_schedule,
    nominal_profit,
    size_es_to_match,
    solve,
    strategy_budgets,
    worst_case_profit,
)
from rvpp.domain import _declared
from rvpp.scheduler import dominant_subset
from toys import market, solve_rvpp, wind, wind_only


def test_wind_only_revenue_arithmetic():
    # 24 periods x 40 MW x 10 EUR/MWh, no costs, no reserves.
    portfolio, scenario = wind_only()
    sched = solve_rvpp(portfolio, scenario)
    assert sched.objective_value == pytest.approx(9600.0, abs=1e-7)
    assert nominal_profit(sched, portfolio, scenario) == pytest.approx(9600.0, abs=1e-7)
    assert sched.price_penalty == {"dam": 0.0, "sr_up": 0.0, "sr_dn": 0.0}
    np.testing.assert_allclose(sched.p_da, 40.0, atol=1e-8)


def test_binary_count_matches_commitment_structure(bundle):
    # Two committed DRS units and one CSP block contribute on/start/stop per
    # period; each flexible-demand unit adds one binary per selectable profile.
    portfolio, scenario = bundle.cell("winter", "favorable")
    m = build_robust_rvpp(portfolio, scenario, ZERO_BUDGETS)
    T = scenario.grid.period_count
    committed = len(portfolio.drs) + len(portfolio.csp)
    profiles = sum(len(u.profiles) for u in portfolio.fd)
    assert m.binary_count() == T * 3 * committed + profiles == 219


def test_fd_picks_the_cheaper_profile():
    T = 6
    load = FdUnit("ld", profiles=((3.0,) * T, (2.0,) * T), deviation=(0.0,) * T)
    sched = solve_rvpp(Portfolio(fd=(load,)), market(T, dam=15.0))
    assert sched.fd_profile["ld"] == 1
    # Consumption shows up as negative traded energy.
    assert sched.p_da.max() < 0.0


@pytest.mark.parametrize("floors", [(2.0, 2.0, 2.0), (3.0, 2.0, 2.0)])
def test_tied_profiles_read_as_the_lowest_index(floors):
    """The picks carry no cost, so HiGHS may pick any tied profile; the
    decoder reports the first profile the dispatch meets."""
    T = 6
    load = FdUnit("ld", profiles=tuple((f,) * T for f in floors), deviation=(0.0,) * T)
    sched = solve_rvpp(Portfolio(fd=(load,)), market(T, dam=15.0))
    assert sched.fd_profile["ld"] == floors.index(2.0)
    assert sched.objective_value == pytest.approx(-180.0, abs=1e-7)


def mixed_toy():
    T = 12
    hydro = DrsUnit("h1", 8.0, 2.0, 10.0, 5.0, 3.0, min_up=2, min_down=1)
    load = FdUnit("ld", profiles=((3.0,) * T, (2.0,) * T), deviation=(0.3,) * T)
    portfolio = Portfolio(drs=(hydro,), ndrs=(wind(T, upper=6.0, dev=1.0),), fd=(load,))
    scenario = market(
        T,
        dam=[10, 12, 9, 14, 20, 25, 18, 15, 22, 28, 16, 11],
        dam_down=2.0,
        dam_up=1.0,
        sr_up=3.0,
        sr_up_dev=0.5,
        sr_dn=2.0,
        sr_dn_dev=0.4,
    )
    return portfolio, scenario


def test_zero_budget_matches_deterministic():
    """At zero budgets the objective is the schedule's nominal profit, which
    is also its worst case, and the price duals cost nothing."""
    portfolio, scenario = mixed_toy()
    rob = solve_rvpp(portfolio, scenario, ZERO_BUDGETS)
    assert rob.objective_value == pytest.approx(nominal_profit(rob, portfolio, scenario), abs=1e-9)
    assert rob.objective_value == pytest.approx(worst_case_profit(rob, portfolio, scenario, BudgetSet())[0], abs=1e-9)
    assert sum(rob.price_penalty.values()) == 0.0


def test_objective_non_increasing_in_budget():
    rng = np.random.default_rng(41)
    T = 6
    for _ in range(3):
        prices = rng.uniform(5.0, 40.0, size=T).round(2)
        portfolio, scenario = wind_only(
            T=T, upper=15.0, dev=4.0, dam=prices, dam_down=3.0, sr_up=2.0, sr_up_dev=1.0
        )
        prev = float("inf")
        for gamma in range(T + 1):
            b = BudgetSet(gamma_dam=gamma, gamma_sr_up=gamma, gamma_per_unit={"wf": gamma})
            sched = solve_rvpp(portfolio, scenario, b)
            assert sched.objective_value <= prev + 1e-7
            prev = sched.objective_value


def test_full_dam_budget_halves_flat_revenue():
    # Deviation equal to half the price on every period: with gamma = T the
    # adversary degrades all of them, so revenue is exactly halved.
    portfolio, scenario = wind_only(dam=10.0, dam_down=5.0)
    sched = solve_rvpp(portfolio, scenario, BudgetSet(gamma_dam=24))
    assert sched.objective_value == pytest.approx(4800.0, abs=1e-6)


def test_price_penalties_equal_dominant_losses():
    T = 10
    prices = [12, 25, 8, 30, 22, 14, 28, 9, 17, 21]
    portfolio, scenario = wind_only(
        T=T, upper=20.0, dam=prices, dam_down=4.0, sr_up=2.0, sr_up_dev=1.0, sr_dn=1.5, sr_dn_dev=0.8
    )
    budgets = BudgetSet(gamma_dam=3, gamma_sr_up=2, gamma_sr_down=1)
    sched = solve_rvpp(portfolio, scenario, budgets)
    dt = scenario.grid.delta_t

    losses = {
        "dam": np.asarray(scenario.dam_price_down_dev) * np.maximum(sched.p_da, 0.0) * dt,
        "sr_up": np.asarray(scenario.sr_up_price_dev) * sched.r_up,
        "sr_dn": np.asarray(scenario.sr_dn_price_dev) * sched.r_dn,
    }
    for stream, gamma in (("dam", 3), ("sr_up", 2), ("sr_dn", 1)):
        pick = list(dominant_subset(losses[stream], gamma))
        assert sched.price_penalty[stream] == pytest.approx(losses[stream][pick].sum(), abs=1e-7)

    assert sched.objective_value == pytest.approx(
        nominal_profit(sched, portfolio, scenario) - sum(sched.price_penalty.values()), abs=1e-6
    )


def test_quantity_budgets_equal_a_hand_tightened_deterministic_model():
    # Ties at the largest deviation: the adversary takes the earliest tied
    # periods.  With prices only nominal, the robust model must price exactly
    # like a deterministic one whose forecasts lose those deviations.
    T = 8
    wind_dev = (2.0, 3.0, 3.0, 1.0, 3.0, 0.0, 2.0, 3.0)
    sf_dev = (0.0, 4.0, 6.0, 6.0, 6.0, 4.0, 0.0, 0.0)
    fd_dev = (0.5, 0.5, 0.2, 0.5, 0.2, 0.2, 0.5, 0.2)
    picked = {"wf": (1, 2, 4), "cs": (2, 3), "ld": (0, 1)}
    csp = CspUnit(
        "cs", 10.0, 2.0, 0.4, 0.1, 1.0, min_up=1, min_down=1,
        sf_upper=(0.0, 10.0, 20.0, 25.0, 25.0, 15.0, 5.0, 0.0),
        sf_deviation=sf_dev,
        store=ThermalStoreParams(0.0, 40.0, 15.0, 15.0, 0.95, 0.95),
    )
    load = FdUnit("ld", profiles=((3.0,) * T, (1.5, 1.5, 2.5, 3.5, 3.5, 2.5, 1.5, 1.5)),
                  deviation=fd_dev, p_min=1.0, p_max=6.0)
    portfolio = Portfolio(ndrs=(wind(T, upper=8.0, dev=wind_dev),), csp=(csp,), fd=(load,))
    scenario = market(T, dam=[20, 35, 30, 18, 45, 40, 25, 22], sr_up=4.0, sr_dn=3.0)
    budgets = BudgetSet(gamma_per_unit={name: len(ts) for name, ts in picked.items()})

    def realized(dev, name):
        return np.array([dev[t] if t in picked[name] else 0.0 for t in range(T)])

    zeros = (0.0,) * T
    by_hand = Portfolio(
        ndrs=(wind(T, upper=8.0 - realized(wind_dev, "wf"), dev=0.0),),
        csp=(replace(csp, sf_upper=csp.sf_upper - realized(sf_dev, "cs"), sf_deviation=zeros),),
        fd=(replace(load, profiles=[p + realized(fd_dev, "ld") for p in load.profiles], deviation=zeros),),
    )
    robust = solve_rvpp(portfolio, scenario, budgets)
    reference = solve_rvpp(by_hand, scenario)
    assert robust.objective_value == pytest.approx(reference.objective_value, abs=1e-6)
    assert robust.objective_value < solve_rvpp(portfolio, scenario).objective_value - 1.0


def test_robust_shipped_cell_adds_no_binaries_and_no_big_constants(bundle):
    portfolio, scenario = bundle.cell("winter", "unfavorable")
    robust = build_robust_rvpp(portfolio, scenario, strategy_budgets("balanced", portfolio))
    assert robust.binary_count() == build_robust_rvpp(portfolio, scenario, ZERO_BUDGETS).binary_count()
    largest = max(max([abs(con.rhs)] + [abs(c) for _, c in con.expr.terms]) for con in robust.constraints)
    assert largest < 1.0e5


def test_buying_survives_a_zero_downward_energy_deviation(bundle):
    # The spring/favorable/optimistic portfolio buys in periods 15 and 16
    # (indices 14 and 15).  A bought MWh loses only on the upward deviation,
    # so the downward one there cannot move the objective, down to 0 included.
    portfolio, scenario = bundle.cell("spring", "favorable")
    budgets = strategy_budgets("optimistic", portfolio)
    buying = [14, 15]
    shipped = solve_rvpp(portfolio, scenario, budgets)
    assert max(shipped.p_da[buying]) < 0
    for value in (1e-6, 0.0):
        down = [value if t in buying else d for t, d in enumerate(scenario.dam_price_down_dev)]
        schedule = solve_rvpp(portfolio, replace(scenario, dam_price_down_dev=down), budgets)
        assert schedule.objective_value == pytest.approx(shipped.objective_value, rel=1e-9), value
        assert max(schedule.p_da[buying]) < 0, value


def _money_doubled(portfolio: Portfolio, scenario):
    """Every price series, price deviation and unit cost doubled."""
    prices = {name: [2.0 * v for v in getattr(scenario, name)] for name in _declared(MarketScenario)}
    costs = ("op_cost", "startup_cost", "shutdown_cost")

    def doubled(u):
        return replace(u, **{c: 2.0 * getattr(u, c) for c in costs if hasattr(u, c)})

    groups = {cls: tuple(map(doubled, getattr(portfolio, cls))) for cls in ("drs", "ndrs", "csp", "fd")}
    return Portfolio(**groups), replace(scenario, **prices)


@pytest.mark.parametrize("strategy", ["optimistic", "pessimistic"])
@pytest.mark.parametrize("regime", ["favorable", "unfavorable"])
def test_doubling_money_doubles_the_robust_objective(bundle, regime, strategy):
    portfolio, scenario = bundle.cell("spring", regime)
    budgets = strategy_budgets(strategy, portfolio)
    schedule = solve_rvpp(portfolio, scenario, budgets)
    doubled = _money_doubled(portfolio, scenario)
    twice = solve_rvpp(*doubled, budgets).objective_value
    assert twice == pytest.approx(2.0 * schedule.objective_value, rel=1e-9)

    # Doubling is exact in binary floating point, so the oracle prices one
    # fixed schedule at exactly twice the money.
    assert nominal_profit(schedule, *doubled) == 2.0 * nominal_profit(schedule, portfolio, scenario)
    worst, _ = worst_case_profit(schedule, portfolio, scenario, budgets)
    assert worst_case_profit(schedule, *doubled, budgets)[0] == 2.0 * worst

    # Fleet value doubles with the module's op_cost, so the fleet covering a
    # doubled gap has as many modules.
    module, gap = bundle.es_module, aggregation_gap(portfolio, scenario, budgets).gap
    count = size_es_to_match(gap, module, scenario, budgets).module_count
    dear = replace(module, op_cost=2.0 * module.op_cost)
    assert size_es_to_match(2.0 * gap, dear, doubled[1], budgets).module_count == count


def run_lengths(flags) -> list[int]:
    lengths, n = [], 0
    for f in flags:
        if f:
            n += 1
        elif n:
            lengths.append(n)
            n = 0
    if n:
        lengths.append(n)
    return lengths


def test_commitment_windows_and_transition_identity():
    T = 12
    unit = DrsUnit("gen", 10.0, 4.0, 50.0, 20.0, 15.0, min_up=3, min_down=2)
    prices = [5, 30, 5, 5, 30, 30, 5, 5, 5, 30, 30, 5]
    sched = solve_rvpp(Portfolio(drs=(unit,)), market(T, dam=prices))
    on = sched.on["gen"]
    start = sched.start["gen"]
    stop = sched.stop["gen"]
    assert on.sum() > 0
    prev = 0
    for t in range(T):
        assert start[t] - stop[t] == on[t] - prev
        assert start[t] + stop[t] <= 1
        prev = on[t]
    # Completed down gaps respect min_down; every up run inside the day
    # respects min_up (the last run may be cut short only by the horizon).
    ups = run_lengths(on)
    for length in ups[:-1]:
        assert length >= 3
    if on[-1] == 0:
        assert ups[-1] >= 3
    for gap in run_lengths(1 - on)[1 if on[0] == 0 else 0 : -1 if on[-1] == 0 else None]:
        assert gap >= 2


def cap_toy(dt: float):
    hydro = DrsUnit("h1", 10.0, 0.0, 0.0, 0.0, 1.0, daily_energy_limit=20.0)
    return Portfolio(drs=(hydro,)), market(8, dam=30.0, sr_up=20.0, dt=dt)


def test_daily_cap_reserve_term_scaling():
    """The cap row charges reserve capacity delta_t-scaled, as energy.

    With delta_t = 0.5 twice the reserve MW fit under the cap (all 20 MWh to
    reserve: 40 MW x 20 EUR = 800).  At delta_t = 1 reserve and energy weigh
    alike, and energy is the better use (20 MWh x 29 EUR = 580).
    """
    p, s = cap_toy(dt=0.5)
    assert solve_rvpp(p, s).objective_value == pytest.approx(800.0, abs=1e-6)
    p, s = cap_toy(dt=1.0)
    assert solve_rvpp(p, s).objective_value == pytest.approx(580.0, abs=1e-6)


def test_daily_cap_limits_dispatched_energy():
    p, s = cap_toy(dt=0.5)
    sched = solve_rvpp(p, s)
    dt = 0.5
    used = sched.dispatch["h1"].sum() * dt + sched.r_up.sum() * dt
    assert used <= 20.0 + 1e-6
    unlimited = Portfolio(drs=(DrsUnit("h1", 10.0, 0.0, 0.0, 0.0, 1.0),))
    assert solve_rvpp(unlimited, s).objective_value > sched.objective_value + 1.0


def test_empty_portfolio_rejected():
    with pytest.raises(ModelBuildError, match="no units"):
        build_robust_rvpp(Portfolio(), market(4), ZERO_BUDGETS)


def test_invalid_inputs_rejected_with_reason():
    p = Portfolio(ndrs=(wind(T=4, upper=10.0, dev=11.0),))
    with pytest.raises(ModelBuildError, match="forecast_deviation"):
        build_robust_rvpp(p, market(4), ZERO_BUDGETS)


def test_budget_for_unknown_unit_rejected():
    portfolio, scenario = wind_only(T=4)
    with pytest.raises(ModelBuildError, match="unknown unit"):
        build_robust_rvpp(portfolio, scenario, BudgetSet(gamma_per_unit={"ghost": 1}))


def test_decode_requires_optimal_status():
    portfolio, scenario = wind_only(T=4)
    m = build_robust_rvpp(portfolio, scenario, ZERO_BUDGETS)
    pda0 = m.variable("pda_t00")
    m.add_rows(1, [("impossible", ">=", 1.0e9, [(pda0.index, 1.0)])])
    sol = solve(m, ScipyHighsBackend())
    assert sol.status == "infeasible"
    with pytest.raises(DecodeError, match="status"):
        extract_rvpp_schedule(m, sol)


def test_decode_rejects_fractional_binaries():
    T = 4
    gen = DrsUnit("gen", 10.0, 0.0, 0.0, 0.0, 1.0)
    load = FdUnit("ld", profiles=((3.0,) * T, (2.0,) * T), deviation=(0.0,) * T)
    for portfolio, tampering in (
        (Portfolio(drs=(gen,)), {"on__gen_t00": 0.4}),
        (Portfolio(fd=(load,)), {"prof__ld_m0": 0.4, "prof__ld_m1": 0.6}),
    ):
        m = build_robust_rvpp(portfolio, market(T, dam=15.0), ZERO_BUDGETS)
        sol = solve(m, ScipyHighsBackend())
        tampered = replace(sol, values=sol.values.copy())
        for name, value in tampering.items():
            tampered.values[m.variable(name).index] = value
        with pytest.raises(DecodeError, match="non-integral"):
            extract_rvpp_schedule(m, tampered)


def test_decode_requires_exactly_one_profile():
    T = 4
    load = FdUnit("ld", profiles=((3.0,) * T, (2.0,) * T), deviation=(0.0,) * T)
    portfolio = Portfolio(fd=(load,))
    m = build_robust_rvpp(portfolio, market(T, dam=15.0), ZERO_BUDGETS)
    sol = solve(m, ScipyHighsBackend())
    tampered = replace(sol, values=sol.values.copy())
    tampered.values[m.variable("prof__ld_m0").index] = 1.0
    tampered.values[m.variable("prof__ld_m1").index] = 1.0
    with pytest.raises(DecodeError, match="exactly one chosen profile"):
        extract_rvpp_schedule(m, tampered)


def test_decode_checks_model_kind():
    portfolio, scenario = wind_only(T=4)
    m = build_robust_rvpp(portfolio, scenario, ZERO_BUDGETS)
    sol = solve(m, ScipyHighsBackend())
    from rvpp import Model, Solution

    with pytest.raises(DecodeError, match="not built by a portfolio"):
        extract_rvpp_schedule(Model("bare"), Solution("optimal", 0.0, {}))
    assert len(extract_rvpp_schedule(m, sol).p_da) == 4
