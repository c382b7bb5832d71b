"""Day-ahead + secondary-reserve scheduling MILPs for an aggregated portfolio.

One builder (build_robust_rvpp, through _build_core) writes the model in one
pass from the budgets of uncertainty; ZERO_BUDGETS gives the deterministic
model, as a zero budget adds no column and cuts nothing.  It writes every
unit class, storage included (storage.add_es_unit writes a storage unit's
own rows), so a storage fleet is a storage-only portfolio.  Price streams are
protected through their dual penalty columns (the objective pays
Gamma*mu + sum(xi) per stream), with one dual row per piece of a period's
loss: the energy loss, max(down*dt*p_da, -up*dt*p_da), has two.  The
adversary of a generation/demand stream does not depend on the schedule, so
it is fixed before the solve: the Gamma largest deviations (ties to the
earliest period) come off the right-hand side of the stream's coupling rows
as constants, which is exactly the realization the audit replays.

The core appends whole families of T columns and rows to the model store
(milp.Model) and keeps the portfolio and their id ranges on the model (tags
"portfolio", "cols", "balance" and "duals"); the decoder slices the solved
vector with them, so names are made only for diagnostics.  A decoded
schedule holds the solver's decisions, objective and per-stream price
penalties, not money: oracle.nominal_profit prices it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import (
    PRICE_STREAMS,
    BudgetSet,
    MarketScenario,
    Portfolio,
    validate_budgets,
    validate_portfolio,
)
from .milp import (
    BINARY,
    FEASIBILITY_TOL,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Model,
    Solution,
)
from .storage import add_es_unit

# RvppSchedule per-unit fields decoded from continuous and from binary columns.
_UNIT_SERIES = ("dispatch", "reserve_up", "reserve_dn", "sf_power", "ts_charge", "ts_discharge", "sigma")
_UNIT_BINARIES = ("on", "start", "stop", "mode")
# The per-unit fields RvppSchedule.scaled multiplies.
_SCALED_SERIES = ("dispatch", "reserve_up", "reserve_dn", "ts_charge", "ts_discharge", "ts_soc")


class ModelBuildError(ValueError):
    """Raised when a builder receives inconsistent inputs."""


class DecodeError(RuntimeError):
    """Raised when a solution cannot be decoded into a schedule."""


@dataclass
class RvppSchedule:
    """Decoded first-stage decisions.

    dispatch holds electrical output per unit (for flexible demand it holds
    consumption).  on/start/stop cover committed units only.  ts_charge,
    ts_discharge and ts_soc hold each store's flows and levels: a CSP block's
    thermal tank, and a storage unit, which has no dispatch entry.  ts_soc has
    T+1 points; index 0 is the start-of-day store level, which equals index T
    by the cyclic coupling.  A storage unit's reserve_up and reserve_dn sum its
    charge and discharge sides, mode is 1 while it charges, and sigma holds
    its down-reserve envelope fraction sigma_dn as a one-point array.
    objective_value is the solver objective.  price_penalty maps each price
    stream of domain.PRICE_STREAMS to its budget dual's penalty
    Gamma*mu + sum(xi), 0 for a stream with a zero budget; at the optimum it
    equals the stream's loss in oracle.worst_case_profit.  The schedule
    carries no price: oracle.nominal_profit prices it from the raw inputs.
    layer_seconds is how long sizing.audited_schedule took per layer.
    """

    p_da: np.ndarray
    r_up: np.ndarray
    r_dn: np.ndarray
    dispatch: dict[str, np.ndarray]
    reserve_up: dict[str, np.ndarray]
    reserve_dn: dict[str, np.ndarray]
    on: dict[str, np.ndarray]
    start: dict[str, np.ndarray]
    stop: dict[str, np.ndarray]
    fd_profile: dict[str, int]
    sf_power: dict[str, np.ndarray]
    ts_charge: dict[str, np.ndarray]
    ts_discharge: dict[str, np.ndarray]
    ts_soc: dict[str, np.ndarray]
    mode: dict[str, np.ndarray]
    sigma: dict[str, np.ndarray]
    objective_value: float
    price_penalty: dict[str, float]
    layer_seconds: dict[str, float] = field(default_factory=dict)

    def scaled(self, n: int) -> RvppSchedule:
        """The same schedule for a storage-only portfolio whose units are each
        scaled(n).

        Every storage row is positively homogeneous in the continuous columns
        and the units' ratings, so flows, reserves, state of charge, the
        objective and each price stream's penalty scale by n; mode and the
        sigma envelope fraction do not.  Other unit classes do not scale so.
        """
        price_penalty = {stream: n * v for stream, v in self.price_penalty.items()}
        per_unit = {f: {name: n * v for name, v in getattr(self, f).items()} for f in _SCALED_SERIES}
        market = {f: n * getattr(self, f) for f in ("p_da", "r_up", "r_dn", "objective_value")}
        return replace(self, price_penalty=price_penalty, **market, **per_unit)


def dominant_subset(deviation, gamma: int) -> tuple[int, ...]:
    """Indices of the gamma largest deviations, ties broken toward earlier periods."""
    order = sorted(range(len(deviation)), key=lambda t: (-deviation[t], t))
    return tuple(sorted(order[:gamma]))


def _require_valid(portfolio: Portfolio, scenario: MarketScenario) -> None:
    if portfolio.is_empty():
        raise ModelBuildError("portfolio has no units")
    violations = validate_portfolio(portfolio, scenario)
    if violations:
        raise ModelBuildError("invalid inputs: " + "; ".join(violations[:5]))


def _per_t(tag: str, unit: str) -> str:
    """The name template of a unit's per-period family: tag__unit_tNN."""
    return f"{tag}__{Model.escape(unit)}_t{{:02d}}"


def _lag(ids: range, d: int) -> tuple[list[int], list[float]]:
    """Period t's column d periods back, and coefficient 1 where t >= d and 0
    (a dropped term) where that period is before the day."""
    T = len(ids)
    return [ids[(t - d) % T] for t in range(T)], [float(t >= d) for t in range(T)]


def _add_commitment(m: Model, name: str, T: int, min_up: int, min_down: int, start_cost=0.0, stop_cost=0.0):
    """Three-binary commitment logic with start/stop exclusivity and min windows.

    Every unit starts the day off, so running in period 1 takes a start.
    """
    on = m.add_columns(_per_t("on", name), T, BINARY)
    start = m.add_columns(_per_t("start", name), T, BINARY, cost=-start_cost)
    stop = m.add_columns(_per_t("stop", name), T, BINARY, cost=-stop_cost)
    prev, before = _lag(on, 1)
    logic = [(on, 1.0), (start, -1.0), (stop, 1.0), (prev, [-c for c in before])]
    excl = [(start, 1.0), (stop, 1.0)]
    m.add_rows(T, [(_per_t("logic", name), SENSE_EQ, 0.0, logic), (_per_t("excl", name), SENSE_LE, 1.0, excl)])
    for tag, window, moves, sign, rhs in (("minup", min_up, start, -1.0, 0.0), ("mindown", min_down, stop, 1.0, 1.0)):
        if window >= 2:
            terms = [_lag(moves, d) for d in range(window)] + [(on, sign)]
            m.add_rows(T, [(_per_t(tag, name), SENSE_LE, rhs, terms)])
    return on, start, stop


def _add_price_dual(m: Model, tag: str, gamma: int, T: int, pieces: list[list[tuple[range, list[float]]]]):
    """Budget dual of one price stream, returned as its (mu, xi) columns;
    nothing is added, and None returned, when gamma is 0.

    pieces lists the pieces of the per-period revenue loss, each as (column
    ids, coefficients) terms over the T periods; the loss is the largest piece.
    The objective pays gamma*mu + sum(xi) and each piece gets a row mu + xi_t
    >= piece, so at the optimum the penalty equals the gamma largest losses.
    The rows run piece by piece, each over all periods.
    """
    if gamma == 0:
        return None
    (mu,) = m.add_columns(f"mu_{tag}", 1, cost=-float(gamma))
    xi = m.add_columns(f"xi_{tag}_t{{:02d}}", T, cost=-1.0)
    for k, piece in enumerate(pieces):
        terms = [(mu, 1.0), (xi, 1.0)] + [(ids, [-c for c in coefs]) for ids, coefs in piece]
        m.add_rows(T, [(f"rob_{tag}_dual{k or ''}_t{{:02d}}", SENSE_GE, 0.0, terms)])
    return mu, xi


def _build_core(m: Model, portfolio: Portfolio, scenario: MarketScenario, budgets: BudgetSet) -> Model:
    """The whole portfolio model in one pass.

    Each generation/demand stream with a positive budget loses its fixed
    adversary's deviations (dominant_subset) from the right-hand side of its
    coupling row; each price stream with a positive budget gets its dual
    columns (_add_price_dual).  Every column gets its objective cost as it is
    added.

    Tags the model with its portfolio and budgets; the column ids,
    keyed like the RvppSchedule fields they decode into (per-unit fields map
    unit name -> per-period column ids; "profiles" holds each flexible-demand
    unit's profile picks, "fd_floor" its per-period consumption-floor row
    ids, "ts_soc" the T store levels, "es_reserves" a storage unit's four
    reserve families, see storage.add_es_unit); the balance row ids; and the
    price duals, each domain.PRICE_STREAMS stream's _add_price_dual result.
    """
    T, dt = scenario.grid.period_count, scenario.grid.delta_t

    def cuts(name: str, deviation) -> list[float]:
        picked = dominant_subset(deviation, budgets.unit_budget(name))
        return [deviation[t] if t in picked else 0.0 for t in range(T)]

    p_da = m.add_columns("pda_t{:02d}", T, lower=-math.inf, cost=[v * dt for v in scenario.dam_price])
    r_up = m.add_columns("rup_t{:02d}", T, cost=scenario.sr_up_price)
    r_dn = m.add_columns("rdn_t{:02d}", T, cost=scenario.sr_dn_price)
    cols: dict = {"p_da": p_da, "r_up": r_up, "r_dn": r_dn}
    cols.update((f, {}) for f in _UNIT_SERIES + _UNIT_BINARIES + ("ts_soc", "profiles", "fd_floor", "es_reserves"))
    # The terms of the three market balances: energy, upward and downward reserve.
    id_terms: list = [(p_da, -1.0)]
    up_terms: list = [(p_da, -1.0), (r_up, -1.0)]
    dn_terms: list = [(p_da, -1.0), (r_dn, 1.0)]

    def flows(name: str, sign: float, op_cost: float, upper: float = math.inf):
        """A unit's dispatch and reserve columns, booked into the objective
        at op_cost and into the three balances.  Dispatch enters with sign
        (+1 generation, -1 demand); reserves enter alike for both, since a
        demand's upward reserve is a consumption cut."""
        disp = m.add_columns(_per_t("disp", name), T, upper=upper, cost=-op_cost * dt)
        ru = m.add_columns(_per_t("rup", name), T, upper=upper)
        rd = m.add_columns(_per_t("rdn", name), T, upper=upper)
        cols["dispatch"][name], cols["reserve_up"][name], cols["reserve_dn"][name] = disp, ru, rd
        id_terms.append((disp, sign))
        up_terms.extend([(disp, sign), (ru, 1.0)])
        dn_terms.extend([(disp, sign), (rd, -1.0)])
        return disp, ru, rd

    def committed(u, kind: str, p_min: float, p_max: float, start_cost: float = 0.0, stop_cost: float = 0.0):
        """A committed unit's commitment, and its envelope rows: dispatch
        plus up reserve within on * p_max, dispatch less down reserve at
        least on * p_min.  The caller writes them into its period block."""
        on, start, stop = _add_commitment(m, u.name, T, u.min_up, u.min_down, start_cost, stop_cost)
        cols["on"][u.name], cols["start"][u.name], cols["stop"][u.name] = on, start, stop
        disp, ru, rd = cols["dispatch"][u.name], cols["reserve_up"][u.name], cols["reserve_dn"][u.name]
        return start, [
            (_per_t(f"{kind}_up", u.name), SENSE_LE, 0.0, [(disp, 1.0), (ru, 1.0), (on, -p_max)]),
            (_per_t(f"{kind}_dn", u.name), SENSE_GE, 0.0, [(disp, 1.0), (rd, -1.0), (on, -p_min)]),
        ]

    for u in portfolio.drs:
        disp, ru, _ = flows(u.name, 1.0, u.op_cost, u.p_max)
        _, envelope = committed(u, "drs", u.p_min, u.p_max, u.startup_cost, u.shutdown_cost)
        m.add_rows(T, envelope)
        if u.daily_energy_limit is not None:
            energy = [(i, dt) for i in disp] + [(i, dt) for i in ru]
            m.add_rows(1, [(f"drs_energy__{Model.escape(u.name)}", SENSE_LE, u.daily_energy_limit, energy)])

    for u in portfolio.ndrs:
        disp, ru, rd = flows(u.name, 1.0, u.op_cost)
        ceiling = [f - c for f, c in zip(u.forecast_upper, cuts(u.name, u.forecast_deviation))]
        m.add_rows(T, [
            (_per_t("ndrs_cap", u.name), SENSE_LE, ceiling, [(disp, 1.0), (ru, 1.0)]),
            (_per_t("ndrs_floor", u.name), SENSE_GE, u.p_min, [(disp, 1.0), (rd, -1.0)]),
        ])

    for u in portfolio.csp:
        st = u.store
        disp, _, _ = flows(u.name, 1.0, u.op_cost, u.turbine_p_max)
        sf = m.add_columns(_per_t("sf", u.name), T, upper=u.sf_upper)
        tsch = m.add_columns(_per_t("tsch", u.name), T, upper=st.charge_p_max)
        tsdis = m.add_columns(_per_t("tsdis", u.name), T, upper=st.discharge_p_max)
        tse = m.add_columns(_per_t("tse", u.name), T, lower=st.e_min, upper=st.e_max)
        start, envelope = committed(u, "csp", u.turbine_p_min, u.turbine_p_max)
        for key, handles in (("sf_power", sf), ("ts_charge", tsch), ("ts_discharge", tsdis), ("ts_soc", tse)):
            cols[key][u.name] = handles
        ceiling = [f - c for f, c in zip(u.sf_upper, cuts(u.name, u.sf_deviation))]
        balance = [(disp, 1.0 / u.turbine_eff), (sf, -1.0), (tsdis, -1.0), (tsch, 1.0)]
        balance.append((start, u.startup_loss * u.turbine_p_max / dt))
        # tse[t - 1] at t = 0 is tse[T - 1]: the store is cyclic.
        recursion = [(tse, 1.0), (_lag(tse, 1)[0], -1.0), (tsch, -st.charge_eff * dt), (tsdis, dt / st.discharge_eff)]
        m.add_rows(T, [
            (_per_t("sf_cap", u.name), SENSE_LE, ceiling, [(sf, 1.0)]),
            (_per_t("csp_bal", u.name), SENSE_EQ, 0.0, balance),
            *envelope,
            (_per_t("ts_rec", u.name), SENSE_EQ, 0.0, recursion),
        ])

    for u in portfolio.fd:
        disp, ru, rd = flows(u.name, -1.0, 0.0, u.p_max)
        picks = m.add_columns(f"prof__{Model.escape(u.name)}_m{{}}", len(u.profiles), BINARY)
        cols["profiles"][u.name] = picks
        m.add_rows(1, [(f"fd_profile__{Model.escape(u.name)}", SENSE_EQ, 1.0, [(w, 1.0) for w in picks])])
        floor = [(w, u.profiles[j]) for j, w in enumerate(picks)] + [(disp, -1.0)]
        block = m.add_rows(T, [
            (_per_t("fd_floor", u.name), SENSE_LE, [-c for c in cuts(u.name, u.deviation)], floor),
            (_per_t("fd_res_dn", u.name), SENSE_GE, u.p_min, [(disp, 1.0), (ru, -1.0)]),
            (_per_t("fd_res_up", u.name), SENSE_LE, u.p_max, [(disp, 1.0), (rd, 1.0)]),
        ])
        cols["fd_floor"][u.name] = block[0::3]

    for u in portfolio.es:
        es = add_es_unit(m, u, T, dt)
        for key, handles in es.items():
            cols[key][u.name] = handles
        pch, pdis, (ruc, rud, rdc, rdd) = es["ts_charge"], es["ts_discharge"], es["es_reserves"]
        net = [(pdis, 1.0), (pch, -1.0)]
        id_terms += net
        up_terms += net + [(ruc, 1.0), (rud, 1.0)]
        dn_terms += net + [(rdc, -1.0), (rdd, -1.0)]

    balance = m.add_rows(T, [(f"bal_{fam}_t{{:02d}}", SENSE_EQ, 0.0, terms) for fam, terms in (
        ("id", id_terms), ("up", up_terms), ("dn", dn_terms))])

    # Energy loses down*dt*p_da when sold and up*dt*|p_da| when bought:
    # the larger of two linear pieces.
    down, up = scenario.dam_price_down_dev, scenario.dam_price_up_dev
    dam_losses = [[(p_da, [d * dt for d in down])], [(p_da, [-u * dt for u in up])]]
    duals = {
        "dam": _add_price_dual(m, "dam", budgets.gamma_dam, T, dam_losses),
        "sr_up": _add_price_dual(m, "srup", budgets.gamma_sr_up, T, [[(r_up, scenario.sr_up_price_dev)]]),
        "sr_dn": _add_price_dual(m, "srdn", budgets.gamma_sr_down, T, [[(r_dn, scenario.sr_dn_price_dev)]]),
    }

    m.tags.update(
        kind="rvpp", portfolio=portfolio, budgets=budgets, cols=cols, balance=balance, duals=duals
    )
    return m


def build_robust_rvpp(portfolio: Portfolio, scenario: MarketScenario, budgets: BudgetSet) -> Model:
    """Single-level robust counterpart under budget uncertainty.

    Price streams (energy, both reserve capacities) contribute objective
    penalties Gamma*mu + sum(xi); the energy stream's loss in period t,
    max(down*dt*p_da, -up*dt*p_da), takes one dual row per piece.  Each
    generation/demand stream with a positive budget loses its Gamma largest
    deviations (dominant_subset) from the right-hand side of its coupling
    rows: the forecast ceiling of a non-dispatchable unit, the solar-field
    ceiling of a CSP block, and the consumption floor of flexible demand (on
    every profile, since exactly one is chosen).  That adversary does not
    depend on the schedule, so it enters as constants and adds no columns.
    Streams with a zero budget are left deterministic, so ZERO_BUDGETS
    builds the deterministic model at nominal prices.  A storage unit has
    no quantity stream, so a per-unit budget naming one is an input error.
    """
    _require_valid(portfolio, scenario)
    bad = validate_budgets(budgets, scenario.grid, portfolio)
    if bad:
        raise ModelBuildError("invalid budgets: " + "; ".join(bad))
    return _build_core(Model(name="rvpp"), portfolio, scenario, budgets)


def _values(values: np.ndarray, lower: np.ndarray, ids) -> np.ndarray:
    """Solved values of continuous columns: a column floored at 0 reads no
    less than 0, and -0.0 reads 0.0."""
    out = values[ids] + 0.0
    out[(lower[ids] == 0.0) & (out < 0.0)] = 0.0
    return out


def _binaries(m: Model, values: np.ndarray, ids) -> np.ndarray:
    """Solved values of binary columns, each within FEASIBILITY_TOL of 0 or 1."""
    v = values[ids]
    r = np.round(v)
    off = np.flatnonzero(np.abs(v - r) > FEASIBILITY_TOL)
    if off.size:
        raise DecodeError(f"binary {m.col_name(ids[off[0]])!r} is non-integral: {float(v[off[0]])}")
    return r.astype(int)


def extract_rvpp_schedule(m: Model, sol: Solution) -> RvppSchedule:
    """Decode a solved model into arrays, re-verifying balance and integrality.

    The portfolio is the one the model was built for (its "portfolio" tag).
    A flexible-demand unit reports the lowest-index profile whose floor rows
    the decoded dispatch meets, so tied profiles read the same whichever one
    HiGHS picked.  Raises DecodeError on non-optimal status, fractional
    binaries (profile picks included), a flexible-demand unit without exactly
    one chosen profile, or balance residuals above 1e-6.
    """
    if m.tags.get("kind") != "rvpp":
        raise DecodeError("model was not built by a portfolio scheduling builder")
    if sol.status != "optimal":
        raise DecodeError(f"cannot decode a solution with status {sol.status!r}")
    portfolio: Portfolio = m.tags["portfolio"]
    cols = m.tags["cols"]

    arrays = m.arrays()

    def read(ids) -> np.ndarray:
        return _values(sol.values, arrays.lower, ids)

    p_da, r_up, r_dn = (read(cols[key]) for key in ("p_da", "r_up", "r_dn"))
    series = {f: {name: read(c) for name, c in cols[f].items()} for f in _UNIT_SERIES}
    binaries = {f: {name: _binaries(m, sol.values, c) for name, c in cols[f].items()} for f in _UNIT_BINARIES}
    for name, (ruc, rud, rdc, rdd) in cols["es_reserves"].items():
        series["reserve_up"][name] = read(ruc) + read(rud)
        series["reserve_dn"][name] = read(rdc) + read(rdd)
    dispatch = series["dispatch"]
    ts_soc = {}
    for name, c in cols["ts_soc"].items():
        levels = read(c)
        ts_soc[name] = np.concatenate(([levels[-1]], levels))
    fd_profile: dict[str, int] = {}
    for u in portfolio.fd:
        chosen = [j for j, pick in enumerate(_binaries(m, sol.values, cols["profiles"][u.name])) if pick]
        if len(chosen) != 1:
            raise DecodeError(f"{u.name}: expected exactly one chosen profile, got {chosen}")
        limit = arrays.row_upper[cols["fd_floor"][u.name]] + FEASIBILITY_TOL
        fd_profile[u.name] = next(
            j
            for j, profile in enumerate(u.profiles)
            if j == chosen[0] or all(p - d <= lim for p, d, lim in zip(profile, dispatch[u.name], limit))
        )

    balance = m.tags["balance"]
    activity = np.bincount(arrays.rows, weights=arrays.vals * sol.values[arrays.cols], minlength=len(arrays.row_lower))
    residual = np.abs(activity[balance] - arrays.row_lower[balance])  # balance rows are equalities
    if residual.max(initial=0.0) > FEASIBILITY_TOL:
        r = int(np.flatnonzero(residual > FEASIBILITY_TOL)[0])
        raise DecodeError(f"balance row {m.row_name(balance[r])} violated by {float(residual[r])}")

    # The "duals" tag maps each price stream to its _add_price_dual result; a
    # stream without a budget has no dual and pays no penalty.
    price_penalty = dict.fromkeys(PRICE_STREAMS, 0.0)
    for stream, handles in m.tags["duals"].items():
        if handles is not None:
            gamma = getattr(m.tags["budgets"], PRICE_STREAMS[stream])
            price_penalty[stream] = gamma * float(sol.values[handles[0]]) + float(read(handles[1]).sum())

    return RvppSchedule(
        p_da=p_da,
        r_up=r_up,
        r_dn=r_dn,
        **series,
        **binaries,
        fd_profile=fd_profile,
        ts_soc=ts_soc,
        objective_value=sol.objective_value,
        price_penalty=price_penalty,
    )
