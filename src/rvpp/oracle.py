"""Schedule-side checks that never touch a solver.

nominal_profit prices a fixed schedule from the raw inputs; it is the one
place a schedule is priced.  worst_case_profit takes that price under the
most damaging budget realization (per stream, the Gamma periods with the
largest loss, ties to the earliest period).  audit_robust_feasibility
replays each quantity stream's dominant realization against a robust
schedule.  replay_schedule recomputes every deterministic constraint family
from raw arrays.  All four work purely on decoded schedules of a portfolio
(a storage fleet is a storage-only portfolio) and read the horizon from the
scenario, so they form an independent cross-check of the MILP layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BudgetSet, MarketScenario, Portfolio
from .milp import FEASIBILITY_TOL
from .scheduler import RvppSchedule, dominant_subset


@dataclass
class Realization:
    """The most damaging price outcome of a fixed schedule: per price stream
    the degraded-period subset and the loss."""

    dam_subset: tuple[int, ...]
    sr_up_subset: tuple[int, ...]
    sr_dn_subset: tuple[int, ...]
    dam_loss: float
    sr_up_loss: float
    sr_dn_loss: float

    def price_loss_total(self) -> float:
        return self.dam_loss + self.sr_up_loss + self.sr_dn_loss


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


def _price_losses(schedule, portfolio, scenario: MarketScenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per price stream and period, the loss if that period's price deviates against the schedule."""
    dt = scenario.grid.delta_t
    _, sold, bought, _ = _flows(schedule, portfolio, dt)
    dam = np.asarray(scenario.dam_price_down_dev) * sold * dt + np.asarray(scenario.dam_price_up_dev) * bought * dt
    sr_up = np.asarray(scenario.sr_up_price_dev) * schedule.r_up
    sr_dn = np.asarray(scenario.sr_dn_price_dev) * schedule.r_dn
    return dam, sr_up, sr_dn


def worst_case_profit(
    schedule: RvppSchedule, portfolio: Portfolio, scenario: MarketScenario, budgets: BudgetSet
) -> tuple[float, Realization]:
    """nominal_profit of the fixed schedule less the losses of its most
    damaging realization.

    Per price stream the loss is separable across periods, so the worst
    cardinality-Gamma subset is exactly the Gamma largest per-period losses
    (ties broken toward the earlier period).  Quantity streams do not change
    the revenue of a fixed schedule; they are audited separately.
    """
    dam_vec, up_vec, dn_vec = _price_losses(schedule, portfolio, scenario)
    dam_pick = dominant_subset(dam_vec, budgets.gamma_dam)
    up_pick = dominant_subset(up_vec, budgets.gamma_sr_up)
    dn_pick = dominant_subset(dn_vec, budgets.gamma_sr_down)
    dam_loss = float(dam_vec[list(dam_pick)].sum()) if dam_pick else 0.0
    up_loss = float(up_vec[list(up_pick)].sum()) if up_pick else 0.0
    dn_loss = float(dn_vec[list(dn_pick)].sum()) if dn_pick else 0.0

    realization = Realization(
        dam_subset=dam_pick,
        sr_up_subset=up_pick,
        sr_dn_subset=dn_pick,
        dam_loss=dam_loss,
        sr_up_loss=up_loss,
        sr_dn_loss=dn_loss,
    )
    return nominal_profit(schedule, portfolio, scenario) - realization.price_loss_total(), realization


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
    human-readable violations; an empty list is a pass.
    """
    out: list[str] = []
    for _, label, gap in _balance_gaps(schedule, portfolio):
        worst = int(gap.argmax())
        if gap[worst] > FEASIBILITY_TOL:
            out.append(f"{label} off by {gap[worst]:.3e} at period {worst + 1}")
    for name, deviation, slack, what in _stream_rows(schedule, portfolio):
        for t in dominant_subset(deviation, budgets.unit_budget(name)):
            if deviation[t] > slack[t] + FEASIBILITY_TOL:
                out.append(
                    f"{name}: {what} exceeds the degraded limit by "
                    f"{deviation[t] - slack[t]:.6g} at period {t + 1} "
                    f"(dominant realization)"
                )
    return out


# The storage families replay_schedule reports.
_ES_FAMILIES = (
    "mode_exclusivity",
    "charge_envelope",
    "discharge_envelope",
    "soc_recursion",
    "soc_bounds",
    "reserve_energy_up",
    "reserve_energy_dn",
    "soc_margins",
    "sigma_range",
)


def _max_residual(values: np.ndarray) -> float:
    return float(np.maximum(values, 0.0).max()) if values.size else 0.0


def replay_schedule(
    schedule: RvppSchedule,
    portfolio: Portfolio,
    scenario: MarketScenario,
) -> dict[str, float]:
    """Max violation per deterministic constraint family, from raw arrays.

    A storage unit's reserves are replayed on the side its mode selects: in
    a charging period both sit on the charge side, else on the discharge
    side, as the model's mode-gated rows force.
    """
    T = scenario.grid.period_count
    dt = scenario.grid.delta_t
    res: dict[str, float] = {}

    for family, _, gap in _balance_gaps(schedule, portfolio):
        res[family] = float(gap.max())

    nonneg = [schedule.r_up, schedule.r_dn]
    for name in schedule.reserve_up:
        nonneg += [schedule.reserve_up[name], schedule.reserve_dn[name]]
    res["nonnegativity"] = max(_max_residual(-v) for v in nonneg)

    commit_res = [0.0]
    minup_res = [0.0]
    mindown_res = [0.0]
    for u in tuple(portfolio.drs) + tuple(portfolio.csp):
        on = schedule.on[u.name].astype(float)
        su = schedule.start[u.name].astype(float)
        sd = schedule.stop[u.name].astype(float)
        prev = np.concatenate(([0.0], on[:-1]))
        commit_res.append(float(np.abs(on - prev - su + sd).max()))
        commit_res.append(_max_residual(su + sd - 1.0))
        if u.min_up >= 2:
            for t in range(T):
                window = su[max(0, t - u.min_up + 1) : t + 1].sum()
                minup_res.append(max(0.0, window - on[t]))
        if u.min_down >= 2:
            for t in range(T):
                window = sd[max(0, t - u.min_down + 1) : t + 1].sum()
                mindown_res.append(max(0.0, window - (1.0 - on[t])))
    res["commitment_logic"] = max(commit_res)
    res["min_up"] = max(minup_res)
    res["min_down"] = max(mindown_res)

    drs_env = [0.0]
    drs_energy = [0.0]
    for u in portfolio.drs:
        on = schedule.on[u.name].astype(float)
        p = schedule.dispatch[u.name]
        drs_env.append(_max_residual(p + schedule.reserve_up[u.name] - u.p_max * on))
        drs_env.append(_max_residual(u.p_min * on - (p - schedule.reserve_dn[u.name])))
        if u.daily_energy_limit is not None:
            used = float((p * dt + schedule.reserve_up[u.name] * dt).sum())
            drs_energy.append(max(0.0, used - u.daily_energy_limit))
    res["drs_envelope"] = max(drs_env)
    res["drs_daily_energy"] = max(drs_energy)

    ndrs_res = [0.0]
    for u in portfolio.ndrs:
        p = schedule.dispatch[u.name]
        ndrs_res.append(
            _max_residual(p + schedule.reserve_up[u.name] - np.asarray(u.forecast_upper))
        )
        ndrs_res.append(_max_residual(u.p_min - (p - schedule.reserve_dn[u.name])))
    res["ndrs_envelope"] = max(ndrs_res)

    csp_bal = [0.0]
    csp_env = [0.0]
    ts_rec = [0.0]
    ts_bounds = [0.0]
    for u in portfolio.csp:
        st = u.store
        p = schedule.dispatch[u.name]
        sf = schedule.sf_power[u.name]
        ch = schedule.ts_charge[u.name]
        dis = schedule.ts_discharge[u.name]
        soc = schedule.ts_soc[u.name]
        on = schedule.on[u.name].astype(float)
        su = schedule.start[u.name].astype(float)
        lhs = p / u.turbine_eff - sf - dis + ch + u.startup_loss * u.turbine_p_max / dt * su
        csp_bal.append(float(np.abs(lhs).max()))
        csp_env.append(_max_residual(p + schedule.reserve_up[u.name] - u.turbine_p_max * on))
        csp_env.append(_max_residual(u.turbine_p_min * on - (p - schedule.reserve_dn[u.name])))
        csp_env.append(_max_residual(sf - np.asarray(u.sf_upper)))
        expected = soc[:-1] + st.charge_eff * dt * ch - dis * dt / st.discharge_eff
        ts_rec.append(float(np.abs(expected - soc[1:]).max()))
        ts_rec.append(abs(soc[0] - soc[-1]))
        ts_bounds.append(_max_residual(st.e_min - soc))
        ts_bounds.append(_max_residual(soc - st.e_max))
        ts_bounds.append(_max_residual(ch - st.charge_p_max))
        ts_bounds.append(_max_residual(dis - st.discharge_p_max))
    res["csp_thermal_balance"] = max(csp_bal)
    res["csp_envelope"] = max(csp_env)
    res["ts_recursion"] = max(ts_rec)
    res["ts_bounds"] = max(ts_bounds)

    fd_res = [0.0]
    for u in portfolio.fd:
        p = schedule.dispatch[u.name]
        profile = np.asarray(u.profiles[schedule.fd_profile[u.name]])
        fd_res.append(_max_residual(profile - p))
        fd_res.append(_max_residual(u.p_min - (p - schedule.reserve_up[u.name])))
        fd_res.append(_max_residual(p + schedule.reserve_dn[u.name] - u.p_max))
    res["fd_envelope"] = max(fd_res)

    es_res: dict[str, list[float]] = {family: [0.0] for family in _ES_FAMILIES}
    for u in portfolio.es:
        ch, dis, soc = schedule.ts_charge[u.name], schedule.ts_discharge[u.name], schedule.ts_soc[u.name]
        r_up, r_dn = schedule.reserve_up[u.name], schedule.reserve_dn[u.name]
        charging = schedule.mode[u.name].astype(float)
        idle = 1.0 - charging
        sigma_up, sigma_dn = schedule.sigma[u.name]
        span = u.e_max - u.e_min
        es_res["mode_exclusivity"].append(float(np.minimum(ch, dis).max()))
        es_res["charge_envelope"] += [
            _max_residual(u.charge_p_min * charging - (ch - charging * r_up)),
            _max_residual(ch + charging * r_dn - u.charge_p_max * charging),
        ]
        es_res["discharge_envelope"] += [
            _max_residual(dis + idle * r_up - u.discharge_p_max * idle),
            _max_residual(u.discharge_p_min * idle - (dis - idle * r_dn)),
        ]
        expected = soc[:-1] + u.charge_eff * dt * ch - dis * dt / u.discharge_eff
        es_res["soc_recursion"] += [float(np.abs(expected - soc[1:]).max()), abs(soc[0] - soc[-1])]
        es_res["soc_bounds"] += [_max_residual(u.e_min - soc), _max_residual(soc - u.e_max)]
        es_res["reserve_energy_up"].append(float((r_up * dt / u.discharge_eff).sum()) - sigma_up * span)
        es_res["reserve_energy_dn"].append(float((r_dn * u.charge_eff * dt).sum()) - sigma_dn * span)
        es_res["soc_margins"] += [
            _max_residual(u.e_min + sigma_dn * span - soc[1:]),
            _max_residual(soc[1:] - (u.e_max - sigma_dn * span)),
        ]
        es_res["sigma_range"] += [-sigma_up, -sigma_dn, sigma_up - 1.0, sigma_dn - 1.0]
    res.update((family, max(values)) for family, values in es_res.items())
    return res
