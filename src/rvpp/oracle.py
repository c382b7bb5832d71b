"""Schedule-side checks that never touch a solver.

nominal_profit prices a fixed schedule from the raw inputs; it is the one
place a schedule is priced.  worst_case_profit takes that price under the
most damaging budget realization (per price stream, the Gamma periods with
the largest loss, ties to the earliest period) and returns each stream's
periods and loss, the oracle side of the schedule's price_penalty.
audit_robust_feasibility replays each quantity stream's dominant
realization against a robust schedule.  replay_schedule recomputes every
deterministic constraint family from raw arrays and returns the largest
violation of each family in _FAMILIES, the family list; DRS and CSP units
go through one committed-unit block (commitment logic, min-up and min-down
windows, the on-gated envelope), the other unit classes through their own.
All four work purely on decoded schedules of a portfolio (a storage fleet
is a storage-only portfolio) and read the horizon from the scenario, so
they form an independent cross-check of the MILP layer.
"""

from __future__ import annotations

import numpy as np

from .domain import PRICE_STREAMS, BudgetSet, MarketScenario, Portfolio
from .milp import FEASIBILITY_TOL
from .scheduler import RvppSchedule, dominant_subset


def _flows(schedule: RvppSchedule, portfolio: Portfolio, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Per period the traded, sold and bought MW of a schedule of portfolio,
    and its cost in EUR: op_cost * dt per MW of output (a storage unit's
    discharge), plus the start and stop costs of dispatchable units."""
    p = schedule.p_da
    cost = sum(u.op_cost * dt * schedule.dispatch[u.name].sum() for u in portfolio.drs + portfolio.ndrs + portfolio.csp)
    cost += sum(u.op_cost * dt * schedule.ts_discharge[u.name].sum() for u in portfolio.es)
    for u in portfolio.drs:
        cost += u.startup_cost * schedule.start[u.name].sum() + u.shutdown_cost * schedule.stop[u.name].sum()
    return p, np.maximum(p, 0.0), np.maximum(-p, 0.0), float(cost)


def nominal_profit(schedule: RvppSchedule, portfolio: Portfolio, scenario: MarketScenario) -> float:
    """Profit of a fixed schedule of portfolio at nominal prices: energy at
    dam_price * dt, reserve capacity at its price per MW and period, less
    the cost _flows gives."""
    dt = scenario.grid.delta_t
    traded, _, _, cost = _flows(schedule, portfolio, dt)
    reserves = np.dot(scenario.sr_up_price, schedule.r_up) + np.dot(scenario.sr_dn_price, schedule.r_dn)
    return float(np.dot(scenario.dam_price, traded) * dt) + float(reserves) - cost


def _price_losses(schedule, portfolio, scenario: MarketScenario) -> dict[str, np.ndarray]:
    """Per price stream of PRICE_STREAMS, the loss in each period if that
    period's price deviates against the schedule."""
    dt = scenario.grid.delta_t
    _, sold, bought, _ = _flows(schedule, portfolio, dt)
    return {
        "dam": np.asarray(scenario.dam_price_down_dev) * sold * dt
        + np.asarray(scenario.dam_price_up_dev) * bought * dt,
        "sr_up": np.asarray(scenario.sr_up_price_dev) * schedule.r_up,
        "sr_dn": np.asarray(scenario.sr_dn_price_dev) * schedule.r_dn,
    }


def worst_case_profit(
    schedule: RvppSchedule, portfolio: Portfolio, scenario: MarketScenario, budgets: BudgetSet
) -> tuple[float, dict[str, tuple[tuple[int, ...], float]]]:
    """nominal_profit of the fixed schedule less the losses of its most
    damaging realization, and that realization: per price stream of
    PRICE_STREAMS, its degraded periods and its loss.

    Per price stream the loss is separable across periods, so the worst
    cardinality-Gamma subset is exactly the Gamma largest per-period losses
    (ties broken toward the earlier period).  At a robust optimum a stream's
    loss equals its RvppSchedule.price_penalty.  Quantity streams do not
    change the revenue of a fixed schedule; they are audited separately.
    """
    worst = {}
    for stream, loss in _price_losses(schedule, portfolio, scenario).items():
        pick = dominant_subset(loss, getattr(budgets, PRICE_STREAMS[stream]))
        worst[stream] = pick, float(loss[list(pick)].sum())
    return nominal_profit(schedule, portfolio, scenario) - sum(lost for _, lost in worst.values()), worst


def _stream_rows(schedule: RvppSchedule, portfolio: Portfolio):
    """Per uncertain stream: (name, deviation, slack available before violation).

    slack[t] is how much of the deviation the schedule can absorb at t; a
    realization degrading period t breaks the stream iff deviation[t] exceeds
    slack[t].
    """
    rows = []
    for u in portfolio.ndrs:
        slack = np.asarray(u.forecast_upper) - schedule.dispatch[u.name] - schedule.reserve_up[u.name]
        rows.append((u.name, np.asarray(u.forecast_deviation), slack, "dispatch plus upward reserve"))
    for u in portfolio.csp:
        slack = np.asarray(u.sf_upper) - schedule.sf_power[u.name]
        rows.append((u.name, np.asarray(u.sf_deviation), slack, "solar-field draw"))
    for u in portfolio.fd:
        profile = np.asarray(u.profiles[schedule.fd_profile[u.name]])
        slack = schedule.dispatch[u.name] - profile
        rows.append((u.name, np.asarray(u.deviation), slack, "consumption margin over the chosen profile"))
    return rows


def _balance_gaps(schedule: RvppSchedule, portfolio: Portfolio) -> list[tuple[str, str, np.ndarray]]:
    """(replay family, audit label, per-period absolute residual) of the three
    market balances.  A storage unit's net output is its discharge less its
    charge."""
    gen = [u.name for u in portfolio.drs] + [u.name for u in portfolio.ndrs] + [u.name for u in portfolio.csp]
    fd = [u.name for u in portfolio.fd]
    zeros = np.zeros_like(schedule.p_da)
    total = sum((schedule.dispatch[n] for n in gen), zeros.copy()) - sum(
        (schedule.dispatch[n] for n in fd), zeros.copy()
    )
    total += sum((schedule.ts_discharge[u.name] - schedule.ts_charge[u.name] for u in portfolio.es), zeros.copy())
    names = portfolio.unit_names()
    total_up = total + sum((schedule.reserve_up[n] for n in names), zeros.copy())
    total_dn = total - sum((schedule.reserve_dn[n] for n in names), zeros.copy())
    return [
        ("balance_id", "energy balance", np.abs(total - schedule.p_da)),
        ("balance_up", "upward-activation balance", np.abs(total_up - schedule.p_da - schedule.r_up)),
        ("balance_dn", "downward-activation balance", np.abs(total_dn - schedule.p_da + schedule.r_dn)),
    ]


def audit_robust_feasibility(
    schedule: RvppSchedule,
    portfolio: Portfolio,
    scenario: MarketScenario,
    budgets: BudgetSet,
) -> list[str]:
    """Replay each quantity stream's dominant realization against a fixed
    portfolio schedule.

    The dominant realization degrades the Gamma periods with the largest
    deviations (ties to the earliest period); it is the one the budget
    model promises to absorb, so an optimal robust schedule passes at any
    budget.  The market balance is re-verified as well.  Returns
    human-readable violations; an empty list is a pass, and a NaN is no pass.
    """
    out: list[str] = []
    for _, label, gap in _balance_gaps(schedule, portfolio):
        worst = int(gap.argmax())
        if not gap[worst] <= FEASIBILITY_TOL:  # argmax picks a NaN first
            out.append(f"{label} off by {gap[worst]:.3e} at period {worst + 1}")
    for name, deviation, slack, what in _stream_rows(schedule, portfolio):
        for t in dominant_subset(deviation, budgets.unit_budget(name)):
            if not deviation[t] <= slack[t] + FEASIBILITY_TOL:
                out.append(
                    f"{name}: {what} exceeds the degraded limit by "
                    f"{deviation[t] - slack[t]:.6g} at period {t + 1} "
                    f"(dominant realization)"
                )
    return out


# The families replay_schedule reports, in its key order; one no unit has reads 0.
_FAMILIES = (
    "balance_id", "balance_up", "balance_dn", "nonnegativity",
    "commitment_logic", "min_up", "min_down",
    "drs_envelope", "drs_daily_energy",
    "ndrs_envelope",
    "csp_thermal_balance", "csp_envelope", "ts_recursion", "ts_bounds",
    "fd_envelope",
    "mode_exclusivity", "charge_envelope", "discharge_envelope", "soc_recursion", "soc_bounds",
    "reserve_energy_up", "reserve_energy_dn", "soc_margins", "sigma_range",
)


def replay_schedule(
    schedule: RvppSchedule,
    portfolio: Portfolio,
    scenario: MarketScenario,
) -> dict[str, float]:
    """Max violation per deterministic constraint family of _FAMILIES, in
    that order, from raw arrays.

    DRS and CSP units share one committed-unit block, each class with its
    own (p_min, p_max) and envelope family.  A storage unit's reserves are
    replayed on the side its mode selects: in a charging period both sit on
    the charge side, else on the discharge side, as the model's mode-gated
    rows force.
    """
    T = scenario.grid.period_count
    dt = scenario.grid.delta_t
    res = dict.fromkeys(_FAMILIES, 0.0)

    def note(family: str, *violations) -> None:
        """Raise family's residual to the largest of violations (arrays or
        numbers); a NaN stays, and -0.0 reads 0.0."""
        for v in violations:
            res[family] = float(np.asarray(v).max(initial=res[family])) + 0.0

    for family, _, gap in _balance_gaps(schedule, portfolio):
        note(family, gap)

    note("nonnegativity", -schedule.r_up, -schedule.r_dn)
    for name in schedule.reserve_up:
        note("nonnegativity", -schedule.reserve_up[name], -schedule.reserve_dn[name])

    committed = [(u, u.p_min, u.p_max, "drs_envelope") for u in portfolio.drs]
    committed += [(u, u.turbine_p_min, u.turbine_p_max, "csp_envelope") for u in portfolio.csp]
    for u, p_min, p_max, envelope in committed:
        on, su, sd = (getattr(schedule, f)[u.name].astype(float) for f in ("on", "start", "stop"))
        prev = np.concatenate(([0.0], on[:-1]))
        note("commitment_logic", np.abs(on - prev - su + sd), su + sd - 1.0)
        for family, window, moves, free in (("min_up", u.min_up, su, on), ("min_down", u.min_down, sd, 1.0 - on)):
            if window >= 2:
                moved = np.array([moves[max(0, t - window + 1) : t + 1].sum() for t in range(T)])
                note(family, moved - free)
        p = schedule.dispatch[u.name]
        note(envelope, p + schedule.reserve_up[u.name] - p_max * on, p_min * on - (p - schedule.reserve_dn[u.name]))

    for u in portfolio.drs:
        if u.daily_energy_limit is not None:
            used = float((schedule.dispatch[u.name] * dt + schedule.reserve_up[u.name] * dt).sum())
            note("drs_daily_energy", used - u.daily_energy_limit)

    for u in portfolio.ndrs:
        p = schedule.dispatch[u.name]
        note("ndrs_envelope", p + schedule.reserve_up[u.name] - np.asarray(u.forecast_upper),
             u.p_min - (p - schedule.reserve_dn[u.name]))

    for u in portfolio.csp:
        st = u.store
        sf = schedule.sf_power[u.name]
        ch = schedule.ts_charge[u.name]
        dis = schedule.ts_discharge[u.name]
        soc = schedule.ts_soc[u.name]
        su = schedule.start[u.name].astype(float)
        lhs = schedule.dispatch[u.name] / u.turbine_eff - sf - dis + ch + u.startup_loss * u.turbine_p_max / dt * su
        note("csp_thermal_balance", np.abs(lhs))
        note("csp_envelope", sf - np.asarray(u.sf_upper))
        expected = soc[:-1] + st.charge_eff * dt * ch - dis * dt / st.discharge_eff
        note("ts_recursion", np.abs(expected - soc[1:]), abs(soc[0] - soc[-1]))
        note("ts_bounds", st.e_min - soc, soc - st.e_max, ch - st.charge_p_max, dis - st.discharge_p_max)

    for u in portfolio.fd:
        p = schedule.dispatch[u.name]
        profile = np.asarray(u.profiles[schedule.fd_profile[u.name]])
        note("fd_envelope", profile - p, u.p_min - (p - schedule.reserve_up[u.name]),
             p + schedule.reserve_dn[u.name] - u.p_max)

    for u in portfolio.es:
        ch, dis, soc = schedule.ts_charge[u.name], schedule.ts_discharge[u.name], schedule.ts_soc[u.name]
        r_up, r_dn = schedule.reserve_up[u.name], schedule.reserve_dn[u.name]
        charging = schedule.mode[u.name].astype(float)
        idle = 1.0 - charging
        (sigma_dn,) = schedule.sigma[u.name]
        span = u.e_max - u.e_min
        note("mode_exclusivity", np.minimum(ch, dis))
        note("charge_envelope", u.charge_p_min * charging - (ch - charging * r_up),
             ch + charging * r_dn - u.charge_p_max * charging)
        note("discharge_envelope", dis + idle * r_up - u.discharge_p_max * idle,
             u.discharge_p_min * idle - (dis - idle * r_dn))
        expected = soc[:-1] + u.charge_eff * dt * ch - dis * dt / u.discharge_eff
        note("soc_recursion", np.abs(expected - soc[1:]), abs(soc[0] - soc[-1]))
        note("soc_bounds", u.e_min - soc, soc - u.e_max)
        note("reserve_energy_up", float((r_up * dt / u.discharge_eff).sum()) - span)
        note("reserve_energy_dn", float((r_dn * u.charge_eff * dt).sum()) - sigma_dn * span)
        note("soc_margins", u.e_min + sigma_dn * span - soc[1:], soc[1:] - (u.e_max - sigma_dn * span))
        note("sigma_range", -sigma_dn, sigma_dn - 1.0)
    return res
