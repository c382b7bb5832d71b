"""Day-ahead + secondary-reserve scheduling MILPs for an aggregated portfolio.

One core (_build_core) builds the model in one pass and takes the budgets of
uncertainty, None meaning deterministic; at zero budgets the robust model is
its deterministic twin.  Both public builders call it.  Price streams are
protected through their dual penalty columns (the objective pays
Gamma*mu + sum(xi) per stream), with one dual row per piece of a period's
loss: the energy loss, max(down*dt*p_da, -up*dt*p_da), has two.  The
adversary of a generation/demand stream does not depend on the schedule, so
it is fixed before the solve: the Gamma largest deviations (ties to the
earliest period) come off the right-hand side of the stream's coupling rows
as constants, which is exactly the realization the audit replays.

The core keeps the portfolio and the columns and rows it creates on the
model (tags "portfolio", "cols", "balance" and "duals"); the decoder reads the
solution through those handles, so column names serve only the diagnostics.
A decoded schedule holds the solver's decisions and objective, not money:
oracle.nominal_profit prices it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    BudgetSet,
    MarketScenario,
    Portfolio,
    validate_budgets,
    validate_portfolio,
)
from .milp import (
    BINARY,
    FEASIBILITY_TOL,
    MAXIMIZE,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    LinearExpression,
    Model,
    Solution,
    Variable,
)

# Objective weight -PROFILE_TIE_EPS * j on flexible-demand profile j.  It is
# below HiGHS's mip_abs_gap, so it cannot decide a tie: it only steers the
# search (dropping it slows the winter solves).  The decoder decides ties and
# removes the term from reported objectives.
PROFILE_TIE_EPS = 1.0e-9

# RvppSchedule per-unit fields decoded from continuous and from binary columns.
_UNIT_SERIES = ("dispatch", "reserve_up", "reserve_dn", "sf_power", "ts_charge", "ts_discharge")
_UNIT_BINARIES = ("on", "start", "stop")


class ModelBuildError(ValueError):
    """Raised when a builder receives inconsistent inputs."""


class DecodeError(RuntimeError):
    """Raised when a solution cannot be decoded into a schedule."""


@dataclass
class PriceRobustArtifacts:
    """Dual prices of the three price streams attached to a robust schedule.

    mu/xi follow the usual budget-dualization roles: per stream, the objective
    penalty Gamma*mu + sum(xi) equals the worst-case revenue loss at the
    optimum.
    """

    budgets: BudgetSet
    mu_dam: float
    xi_dam: np.ndarray
    mu_sr_up: float
    xi_sr_up: np.ndarray
    mu_sr_dn: float
    xi_sr_dn: np.ndarray

    def dam_penalty(self) -> float:
        return self.budgets.gamma_dam * self.mu_dam + float(self.xi_dam.sum())

    def sr_up_penalty(self) -> float:
        return self.budgets.gamma_sr_up * self.mu_sr_up + float(self.xi_sr_up.sum())

    def sr_dn_penalty(self) -> float:
        return self.budgets.gamma_sr_down * self.mu_sr_dn + float(self.xi_sr_dn.sum())

    def price_penalty_total(self) -> float:
        """Objective give-up for price uncertainty; the per-unit duals live in
        constraints only and carry no objective weight."""
        return self.dam_penalty() + self.sr_up_penalty() + self.sr_dn_penalty()


@dataclass
class RvppSchedule:
    """Decoded first-stage decisions.

    dispatch holds electrical output per unit (for flexible demand it holds
    consumption).  on/start/stop cover committed units only.  ts_soc has T+1
    points; index 0 is the start-of-day store level, which equals index T by
    the cyclic coupling.  objective_value is the solver objective with the
    profile tie-break term removed.  The schedule carries no price:
    oracle.nominal_profit prices it from the raw inputs.
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
    objective_value: float
    artifacts: PriceRobustArtifacts | None = None


def _t2(t: int) -> str:
    return f"{t:02d}"


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


def _add_commitment(m: Model, name: str, T: int, min_up: int, min_down: int):
    """Three-binary commitment logic with start/stop exclusivity and min windows.

    Every unit starts the day off, so running in period 1 takes a start.
    """
    on = [m.add_variable(f"on__{name}_t{_t2(t)}", BINARY) for t in range(T)]
    start = [m.add_variable(f"start__{name}_t{_t2(t)}", BINARY) for t in range(T)]
    stop = [m.add_variable(f"stop__{name}_t{_t2(t)}", BINARY) for t in range(T)]
    for t in range(T):
        terms = [(on[t].index, 1.0), (start[t].index, -1.0), (stop[t].index, 1.0)]
        if t > 0:
            terms.append((on[t - 1].index, -1.0))
        m.add_constraint(f"logic__{name}_t{_t2(t)}", LinearExpression.from_terms(terms), SENSE_EQ, 0.0)
        m.add_constraint(
            f"excl__{name}_t{_t2(t)}",
            LinearExpression.from_terms([(start[t].index, 1.0), (stop[t].index, 1.0)]),
            SENSE_LE,
            1.0,
        )
    if min_up >= 2:
        for t in range(T):
            window = range(max(0, t - min_up + 1), t + 1)
            terms = [(start[i].index, 1.0) for i in window] + [(on[t].index, -1.0)]
            m.add_constraint(f"minup__{name}_t{_t2(t)}", LinearExpression.from_terms(terms), SENSE_LE, 0.0)
    if min_down >= 2:
        for t in range(T):
            window = range(max(0, t - min_down + 1), t + 1)
            terms = [(stop[i].index, 1.0) for i in window] + [(on[t].index, 1.0)]
            m.add_constraint(f"mindown__{name}_t{_t2(t)}", LinearExpression.from_terms(terms), SENSE_LE, 1.0)
    return on, start, stop


def _add_price_dual(
    m: Model, obj: list[tuple[int, float]], tag: str, gamma: int, losses: list[list[list[tuple[int, float]]]]
) -> tuple[Variable, list[Variable]] | None:
    """Budget dual of one price stream, returned as its (mu, xi) columns;
    nothing is added, and None returned, when gamma is 0.

    losses[t] lists the pieces of period t's revenue loss, each a list of
    (column id, coefficient) terms; the loss is the largest piece.  The
    objective pays gamma*mu + sum(xi) and each piece gets a row mu + xi_t >=
    piece, so at the optimum the penalty equals the gamma largest losses.
    The rows run piece by piece, each over all periods.
    """
    if gamma == 0:
        return None
    mu = m.add_variable(f"mu_{tag}")
    xi = [m.add_variable(f"xi_{tag}_t{_t2(t)}") for t in range(len(losses))]
    obj.append((mu.index, -float(gamma)))
    obj += [(x.index, -1.0) for x in xi]
    for k in range(max(map(len, losses))):
        for t, pieces in enumerate(losses):
            if k < len(pieces):
                terms = [(mu.index, 1.0), (xi[t].index, 1.0)] + [(i, -c) for i, c in pieces[k]]
                name = f"rob_{tag}_dual{k or ''}_t{_t2(t)}"
                m.add_constraint(name, LinearExpression.from_terms(terms), SENSE_GE, 0.0)
    return mu, xi


def _build_core(m: Model, portfolio: Portfolio, scenario: MarketScenario, budgets: BudgetSet | None) -> Model:
    """The whole portfolio model in one pass; budgets None is deterministic.

    Each generation/demand stream with a positive budget loses its fixed
    adversary's deviations (dominant_subset) from the right-hand side of its
    coupling row; each price stream with a positive budget gets its dual
    columns (_add_price_dual) before the one objective is set.

    Tags the model with its portfolio, scenario and budgets; the columns,
    keyed like the RvppSchedule fields they decode into (per-unit fields map
    unit name -> per-period columns; "profiles" holds each flexible-demand
    unit's profile picks, "fd_floor" its per-period consumption-floor rows,
    "ts_soc" the T store levels); the balance rows; and the price duals (None
    when deterministic).
    """
    grid = scenario.grid
    T = grid.period_count
    dt = grid.delta_t

    def cuts(name: str, deviation) -> list[float]:
        gamma = 0 if budgets is None else budgets.unit_budget(name)
        picked = dominant_subset(deviation, gamma) if gamma > 0 else ()
        return [deviation[t] if t in picked else 0.0 for t in range(T)]

    p_da = [m.add_variable(f"pda_t{_t2(t)}", lower=-math.inf, upper=math.inf) for t in range(T)]
    r_up = [m.add_variable(f"rup_t{_t2(t)}") for t in range(T)]
    r_dn = [m.add_variable(f"rdn_t{_t2(t)}") for t in range(T)]
    cols: dict = {"p_da": p_da, "r_up": r_up, "r_dn": r_dn}
    for field in _UNIT_SERIES + _UNIT_BINARIES + ("ts_soc", "profiles", "fd_floor"):
        cols[field] = {}

    obj: list[tuple[int, float]] = []
    for t in range(T):
        obj.append((p_da[t].index, scenario.dam_price[t] * dt))
        obj.append((r_up[t].index, scenario.sr_up_price[t]))
        obj.append((r_dn[t].index, scenario.sr_dn_price[t]))

    id_terms: list[list[tuple[int, float]]] = [[] for _ in range(T)]
    up_terms: list[list[tuple[int, float]]] = [[] for _ in range(T)]
    dn_terms: list[list[tuple[int, float]]] = [[] for _ in range(T)]

    def flows(name: str, sign: float, op_cost: float, upper: float = math.inf):
        """A unit's dispatch and reserve columns, booked into the objective
        at op_cost and into the three balances.  Dispatch enters with sign
        (+1 generation, -1 demand); reserves enter alike for both, since a
        demand's upward reserve is a consumption cut."""
        disp = [m.add_variable(f"disp__{name}_t{_t2(t)}", upper=upper) for t in range(T)]
        ru = [m.add_variable(f"rup__{name}_t{_t2(t)}", upper=upper) for t in range(T)]
        rd = [m.add_variable(f"rdn__{name}_t{_t2(t)}", upper=upper) for t in range(T)]
        cols["dispatch"][name], cols["reserve_up"][name], cols["reserve_dn"][name] = disp, ru, rd
        for t in range(T):
            obj.append((disp[t].index, -op_cost * dt))
            id_terms[t].append((disp[t].index, sign))
            up_terms[t] += [(disp[t].index, sign), (ru[t].index, 1.0)]
            dn_terms[t] += [(disp[t].index, sign), (rd[t].index, -1.0)]
        return disp, ru, rd

    def committed(u, kind: str, p_min: float, p_max: float):
        """A committed unit's commitment, and envelope(t), which writes period
        t's rows: dispatch plus up reserve within on * p_max, dispatch less
        down reserve at least on * p_min."""
        on, start, stop = _add_commitment(m, u.name, T, u.min_up, u.min_down)
        cols["on"][u.name], cols["start"][u.name], cols["stop"][u.name] = on, start, stop
        disp, ru, rd = cols["dispatch"][u.name], cols["reserve_up"][u.name], cols["reserve_dn"][u.name]

        def envelope(t: int) -> None:
            m.add_constraint(
                f"{kind}_up__{u.name}_t{_t2(t)}",
                LinearExpression.from_terms([(disp[t].index, 1.0), (ru[t].index, 1.0), (on[t].index, -p_max)]),
                SENSE_LE,
                0.0,
            )
            m.add_constraint(
                f"{kind}_dn__{u.name}_t{_t2(t)}",
                LinearExpression.from_terms([(disp[t].index, 1.0), (rd[t].index, -1.0), (on[t].index, -p_min)]),
                SENSE_GE,
                0.0,
            )

        return start, stop, envelope

    for u in portfolio.drs:
        disp, ru, _ = flows(u.name, 1.0, u.op_cost, u.p_max)
        start, stop, envelope = committed(u, "drs", u.p_min, u.p_max)
        for t in range(T):
            envelope(t)
            obj.append((start[t].index, -u.startup_cost))
            obj.append((stop[t].index, -u.shutdown_cost))
        if u.daily_energy_limit is not None:
            terms = [(disp[t].index, dt) for t in range(T)]
            terms += [(ru[t].index, dt) for t in range(T)]
            m.add_constraint(
                f"drs_energy__{u.name}",
                LinearExpression.from_terms(terms),
                SENSE_LE,
                u.daily_energy_limit,
            )

    for u in portfolio.ndrs:
        disp, ru, rd = flows(u.name, 1.0, u.op_cost)
        cut = cuts(u.name, u.forecast_deviation)
        for t in range(T):
            m.add_constraint(
                f"ndrs_cap__{u.name}_t{_t2(t)}",
                LinearExpression.from_terms([(disp[t].index, 1.0), (ru[t].index, 1.0)]),
                SENSE_LE,
                u.forecast_upper[t] - cut[t],
            )
            m.add_constraint(
                f"ndrs_floor__{u.name}_t{_t2(t)}",
                LinearExpression.from_terms([(disp[t].index, 1.0), (rd[t].index, -1.0)]),
                SENSE_GE,
                u.p_min,
            )

    for u in portfolio.csp:
        st = u.store
        disp, _, _ = flows(u.name, 1.0, u.op_cost, u.turbine_p_max)
        sf = [m.add_variable(f"sf__{u.name}_t{_t2(t)}", upper=u.sf_upper[t]) for t in range(T)]
        tsch = [m.add_variable(f"tsch__{u.name}_t{_t2(t)}", upper=st.charge_p_max) for t in range(T)]
        tsdis = [m.add_variable(f"tsdis__{u.name}_t{_t2(t)}", upper=st.discharge_p_max) for t in range(T)]
        tse = [m.add_variable(f"tse__{u.name}_t{_t2(t)}", lower=st.e_min, upper=st.e_max) for t in range(T)]
        start, _, envelope = committed(u, "csp", u.turbine_p_min, u.turbine_p_max)
        for field, handles in (("sf_power", sf), ("ts_charge", tsch), ("ts_discharge", tsdis), ("ts_soc", tse)):
            cols[field][u.name] = handles
        cut = cuts(u.name, u.sf_deviation)
        for t in range(T):
            m.add_constraint(
                f"sf_cap__{u.name}_t{_t2(t)}",
                LinearExpression.from_terms([(sf[t].index, 1.0)]),
                SENSE_LE,
                u.sf_upper[t] - cut[t],
            )
            m.add_constraint(
                f"csp_bal__{u.name}_t{_t2(t)}",
                LinearExpression.from_terms(
                    [
                        (disp[t].index, 1.0 / u.turbine_eff),
                        (sf[t].index, -1.0),
                        (tsdis[t].index, -1.0),
                        (tsch[t].index, 1.0),
                        (start[t].index, u.startup_loss * u.turbine_p_max / dt),
                    ]
                ),
                SENSE_EQ,
                0.0,
            )
            envelope(t)
            prev = tse[t - 1].index if t > 0 else tse[T - 1].index
            m.add_constraint(
                f"ts_rec__{u.name}_t{_t2(t)}",
                LinearExpression.from_terms(
                    [
                        (tse[t].index, 1.0),
                        (prev, -1.0),
                        (tsch[t].index, -st.charge_eff * dt),
                        (tsdis[t].index, dt / st.discharge_eff),
                    ]
                ),
                SENSE_EQ,
                0.0,
            )

    for u in portfolio.fd:
        disp, ru, rd = flows(u.name, -1.0, 0.0, u.p_max)
        picks = [m.add_variable(f"prof__{u.name}_m{j}", BINARY) for j in range(len(u.profiles))]
        cols["profiles"][u.name] = picks
        m.add_constraint(
            f"fd_profile__{u.name}",
            LinearExpression.from_terms([(w.index, 1.0) for w in picks]),
            SENSE_EQ,
            1.0,
        )
        for j, w in enumerate(picks):
            obj.append((w.index, -PROFILE_TIE_EPS * j))
        cut = cuts(u.name, u.deviation)
        cols["fd_floor"][u.name] = floor = []
        for t in range(T):
            terms = [(w.index, u.profiles[j][t]) for j, w in enumerate(picks)]
            terms.append((disp[t].index, -1.0))
            floor.append(
                m.add_constraint(
                    f"fd_floor__{u.name}_t{_t2(t)}", LinearExpression.from_terms(terms), SENSE_LE, -cut[t]
                )
            )
            m.add_constraint(
                f"fd_res_dn__{u.name}_t{_t2(t)}",
                LinearExpression.from_terms([(disp[t].index, 1.0), (ru[t].index, -1.0)]),
                SENSE_GE,
                u.p_min,
            )
            m.add_constraint(
                f"fd_res_up__{u.name}_t{_t2(t)}",
                LinearExpression.from_terms([(disp[t].index, 1.0), (rd[t].index, 1.0)]),
                SENSE_LE,
                u.p_max,
            )

    balance: list[Constraint] = []
    for t in range(T):
        for fam, terms in (
            ("id", id_terms[t] + [(p_da[t].index, -1.0)]),
            ("up", up_terms[t] + [(p_da[t].index, -1.0), (r_up[t].index, -1.0)]),
            ("dn", dn_terms[t] + [(p_da[t].index, -1.0), (r_dn[t].index, 1.0)]),
        ):
            balance.append(m.add_constraint(f"bal_{fam}_t{_t2(t)}", LinearExpression.from_terms(terms), SENSE_EQ, 0.0))

    duals = None
    if budgets is not None:
        # Energy loses down*dt*p_da when sold and up*dt*|p_da| when bought:
        # the larger of two linear pieces.
        down, up = scenario.dam_price_down_dev, scenario.dam_price_up_dev
        dam_losses = [[[(p_da[t].index, down[t] * dt)], [(p_da[t].index, -up[t] * dt)]] for t in range(T)]
        up_losses = [[[(r_up[t].index, scenario.sr_up_price_dev[t])]] for t in range(T)]
        dn_losses = [[[(r_dn[t].index, scenario.sr_dn_price_dev[t])]] for t in range(T)]
        duals = {
            "dam": _add_price_dual(m, obj, "dam", budgets.gamma_dam, dam_losses),
            "sr_up": _add_price_dual(m, obj, "srup", budgets.gamma_sr_up, up_losses),
            "sr_dn": _add_price_dual(m, obj, "srdn", budgets.gamma_sr_down, dn_losses),
        }

    m.set_objective(LinearExpression.from_terms(obj), MAXIMIZE)
    m.tags.update(
        kind="rvpp", scenario=scenario, portfolio=portfolio, budgets=budgets, cols=cols, balance=balance, duals=duals
    )
    return m


def build_deterministic_rvpp(portfolio: Portfolio, scenario: MarketScenario) -> Model:
    """Deterministic day-ahead + reserve scheduling MILP at nominal prices."""
    _require_valid(portfolio, scenario)
    return _build_core(Model(name="rvpp_det"), portfolio, scenario, None)


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
    Streams with a zero budget are left deterministic.
    """
    _require_valid(portfolio, scenario)
    bad = validate_budgets(budgets, scenario.grid, portfolio)
    if bad:
        raise ModelBuildError("invalid budgets: " + "; ".join(bad))
    return _build_core(Model(name="rvpp_robust"), portfolio, scenario, budgets)


def _values(sol: Solution, cols: list[Variable]) -> np.ndarray:
    """Solved values of continuous columns: a column floored at 0 reads no
    less than 0, and -0.0 reads 0.0."""
    out = np.empty(len(cols))
    for t, var in enumerate(cols):
        v = sol.value_of(var)
        if var.lower == 0.0 and v < 0.0:
            v = 0.0
        out[t] = v + 0.0
    return out


def _binaries(sol: Solution, cols: list[Variable]) -> np.ndarray:
    """Solved values of binary columns, each within FEASIBILITY_TOL of 0 or 1."""
    out = np.empty(len(cols), dtype=int)
    for t, var in enumerate(cols):
        v = sol.value_of(var)
        r = round(v)
        if abs(v - r) > FEASIBILITY_TOL:
            raise DecodeError(f"binary {var.name!r} is non-integral: {v}")
        out[t] = int(r)
    return out


def _price_duals(m: Model, sol: Solution, T: int) -> PriceRobustArtifacts | None:
    """The price duals of a robust model (None for a deterministic one); a
    stream without a budget reads 0.  The "duals" tag maps each stream's
    PriceRobustArtifacts suffix to its _add_price_dual result."""
    duals = m.tags.get("duals")
    if duals is None:
        return None
    read = {}
    for stream, handles in duals.items():
        read[f"mu_{stream}"] = 0.0 if handles is None else sol.value_of(handles[0])
        read[f"xi_{stream}"] = np.zeros(T) if handles is None else _values(sol, handles[1])
    return PriceRobustArtifacts(budgets=m.tags["budgets"], **read)


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
    scenario: MarketScenario = m.tags["scenario"]
    portfolio: Portfolio = m.tags["portfolio"]
    cols = m.tags["cols"]

    p_da, r_up, r_dn = (_values(sol, cols[key]) for key in ("p_da", "r_up", "r_dn"))
    series = {field: {name: _values(sol, c) for name, c in cols[field].items()} for field in _UNIT_SERIES}
    binaries = {field: {name: _binaries(sol, c) for name, c in cols[field].items()} for field in _UNIT_BINARIES}
    dispatch = series["dispatch"]
    ts_soc = {}
    for name, c in cols["ts_soc"].items():
        levels = _values(sol, c)
        ts_soc[name] = np.concatenate(([levels[-1]], levels))
    fd_profile: dict[str, int] = {}
    perturb = 0.0
    for u in portfolio.fd:
        chosen = [j for j, pick in enumerate(_binaries(sol, cols["profiles"][u.name])) if pick]
        if len(chosen) != 1:
            raise DecodeError(f"{u.name}: expected exactly one chosen profile, got {chosen}")
        perturb += -PROFILE_TIE_EPS * chosen[0]
        limit = [row.rhs + FEASIBILITY_TOL for row in cols["fd_floor"][u.name]]
        fd_profile[u.name] = next(
            j
            for j, profile in enumerate(u.profiles)
            if j == chosen[0] or all(p - d <= lim for p, d, lim in zip(profile, dispatch[u.name], limit))
        )

    for con in m.tags["balance"]:
        res = con.residual(sol.values)
        if res > FEASIBILITY_TOL:
            raise DecodeError(f"balance row {con.name} violated by {res}")

    return RvppSchedule(
        p_da=p_da,
        r_up=r_up,
        r_dn=r_dn,
        **series,
        **binaries,
        fd_profile=fd_profile,
        ts_soc=ts_soc,
        objective_value=sol.objective_value - perturb,
        artifacts=_price_duals(m, sol, scenario.grid.period_count),
    )
