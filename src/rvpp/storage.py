"""Storage scheduling MILPs for the same two markets.

The builders take the fleet as one EsUnit.  An n-module fleet is the
module's EsUnit.scaled(n): power and energy limits scale with the count,
efficiencies and costs do not.  Charging and discharging are mode-exclusive
per period; reserve offers split into a charge-side part (backing off
charging) and a discharge-side part.  Daily reserve energy is fenced by two
envelope fractions of the energy span: sigma_up bounds the up-reserve energy,
sigma_dn the down-reserve energy, and sigma_dn alone also keeps both
state-of-charge margins, above the floor and below the ceiling.  The
state of charge is cyclic: the recursion wraps period 1 back onto period T,
so the day starts and ends at the same level.

As in scheduler, one core (_build_es_core) builds the model in one pass and
takes the budgets, None meaning deterministic; the fleet has price budgets
only, and at zero budgets the robust model is its deterministic twin.  The
core keeps the fleet and the columns it creates on the model (tags "fleet",
"cols" and "duals") and the decoder reads the solution through them; it
returns decisions, and oracle.nominal_profit prices them against the fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import BudgetSet, EsUnit, MarketScenario, validate_budgets, validate_es, validate_scenario
from .milp import (
    BINARY,
    FEASIBILITY_TOL,
    MAXIMIZE,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    LinearExpression,
    Model,
    Solution,
)
from .scheduler import (
    DecodeError,
    ModelBuildError,
    PriceRobustArtifacts,
    _add_price_dual,
    _binaries,
    _price_duals,
    _t2,
    _values,
)


@dataclass
class EsSchedule:
    """Decoded fleet schedule.

    soc has T+1 points; index 0 is the start-of-day level and equals index T
    by the cyclic recursion.  mode is 1 while charging.  objective_value for
    robust runs is oracle.nominal_profit minus the price penalties.
    """

    charge: np.ndarray
    discharge: np.ndarray
    net: np.ndarray
    r_up_charge: np.ndarray
    r_up_discharge: np.ndarray
    r_dn_charge: np.ndarray
    r_dn_discharge: np.ndarray
    r_up: np.ndarray
    r_dn: np.ndarray
    mode: np.ndarray
    soc: np.ndarray
    sigma_up: float
    sigma_dn: float
    objective_value: float
    artifacts: PriceRobustArtifacts | None = None

    def scaled(self, n: int) -> EsSchedule:
        """The same schedule for a fleet n times as large.

        Every fleet row is positively homogeneous in the continuous columns and
        the fleet's ratings, so flows, reserves, state of charge, the objective
        and price duals scale by n; mode and the sigma envelope fractions do
        not.
        """
        artifacts = self.artifacts
        if artifacts is not None:
            artifacts = replace(artifacts, **{f: n * getattr(artifacts, f) for f in _SCALED_DUALS})
        return replace(self, artifacts=artifacts, **{f: n * getattr(self, f) for f in _SCALED_FIELDS})


# EsSchedule per-period fields decoded from continuous columns of the same key.
_FLOW_FIELDS = (
    "charge",
    "discharge",
    "net",
    "r_up_charge",
    "r_up_discharge",
    "r_dn_charge",
    "r_dn_discharge",
    "r_up",
    "r_dn",
)
_SCALED_FIELDS = _FLOW_FIELDS + ("soc", "objective_value")
_SCALED_DUALS = ("mu_dam", "xi_dam", "mu_sr_up", "xi_sr_up", "mu_sr_dn", "xi_sr_dn")


def _build_es_core(m: Model, fleet: EsUnit, scenario: MarketScenario, budgets: BudgetSet | None) -> Model:
    """The whole fleet model in one pass; budgets None is deterministic.

    Each price stream with a positive budget gets its dual columns
    (_add_price_dual) before the one objective is set.  Tags the model with
    the fleet, its columns keyed like the EsSchedule fields they decode into
    ("soc" holds the T levels) and the price duals (None when deterministic).
    """
    T = scenario.grid.period_count
    dt = scenario.grid.delta_t
    eta_c = fleet.charge_eff
    eta_d = fleet.discharge_eff
    span = fleet.e_max - fleet.e_min

    pch = [m.add_variable(f"pch_t{_t2(t)}", upper=fleet.charge_p_max) for t in range(T)]
    pdis = [m.add_variable(f"pdis_t{_t2(t)}", upper=fleet.discharge_p_max) for t in range(T)]
    net = [m.add_variable(f"net_t{_t2(t)}", lower=-math.inf, upper=math.inf) for t in range(T)]
    ruc = [m.add_variable(f"ruc_t{_t2(t)}") for t in range(T)]
    rud = [m.add_variable(f"rud_t{_t2(t)}") for t in range(T)]
    rdc = [m.add_variable(f"rdc_t{_t2(t)}") for t in range(T)]
    rdd = [m.add_variable(f"rdd_t{_t2(t)}") for t in range(T)]
    rup = [m.add_variable(f"rup_t{_t2(t)}") for t in range(T)]
    rdn = [m.add_variable(f"rdn_t{_t2(t)}") for t in range(T)]
    mode = [m.add_variable(f"mode_t{_t2(t)}", BINARY) for t in range(T)]
    soc = [m.add_variable(f"soc_t{_t2(t)}", lower=fleet.e_min, upper=fleet.e_max) for t in range(T)]
    sigma_up = m.add_variable("sigma_up", upper=1.0)
    sigma_dn = m.add_variable("sigma_dn", upper=1.0)

    obj: list[tuple[int, float]] = []
    for t in range(T):
        obj.append((net[t].index, scenario.dam_price[t] * dt))
        obj.append((rup[t].index, scenario.sr_up_price[t]))
        obj.append((rdn[t].index, scenario.sr_dn_price[t]))
        obj.append((pdis[t].index, -fleet.op_cost * dt))

        m.add_constraint(
            f"es_ch_lo_t{_t2(t)}",
            LinearExpression.from_terms(
                [(pch[t].index, 1.0), (ruc[t].index, -1.0), (mode[t].index, -fleet.charge_p_min)]
            ),
            SENSE_GE,
            0.0,
        )
        m.add_constraint(
            f"es_ch_hi_t{_t2(t)}",
            LinearExpression.from_terms(
                [(pch[t].index, 1.0), (rdc[t].index, 1.0), (mode[t].index, -fleet.charge_p_max)]
            ),
            SENSE_LE,
            0.0,
        )
        m.add_constraint(
            f"es_dis_hi_t{_t2(t)}",
            LinearExpression.from_terms(
                [(pdis[t].index, 1.0), (rud[t].index, 1.0), (mode[t].index, fleet.discharge_p_max)]
            ),
            SENSE_LE,
            fleet.discharge_p_max,
        )
        m.add_constraint(
            f"es_dis_lo_t{_t2(t)}",
            LinearExpression.from_terms(
                [(pdis[t].index, 1.0), (rdd[t].index, -1.0), (mode[t].index, fleet.discharge_p_min)]
            ),
            SENSE_GE,
            fleet.discharge_p_min,
        )
        m.add_constraint(
            f"es_net_t{_t2(t)}",
            LinearExpression.from_terms(
                [(net[t].index, 1.0), (pdis[t].index, -1.0), (pch[t].index, 1.0)]
            ),
            SENSE_EQ,
            0.0,
        )
        m.add_constraint(
            f"es_rup_t{_t2(t)}",
            LinearExpression.from_terms(
                [(rup[t].index, 1.0), (ruc[t].index, -1.0), (rud[t].index, -1.0)]
            ),
            SENSE_EQ,
            0.0,
        )
        m.add_constraint(
            f"es_rdn_t{_t2(t)}",
            LinearExpression.from_terms(
                [(rdn[t].index, 1.0), (rdc[t].index, -1.0), (rdd[t].index, -1.0)]
            ),
            SENSE_EQ,
            0.0,
        )
        prev = soc[t - 1].index if t > 0 else soc[T - 1].index
        m.add_constraint(
            f"es_soc_t{_t2(t)}",
            LinearExpression.from_terms(
                [
                    (soc[t].index, 1.0),
                    (prev, -1.0),
                    (pch[t].index, -eta_c * dt),
                    (pdis[t].index, dt / eta_d),
                ]
            ),
            SENSE_EQ,
            0.0,
        )
        m.add_constraint(
            f"es_floor_t{_t2(t)}",
            LinearExpression.from_terms([(soc[t].index, 1.0), (sigma_dn.index, -span)]),
            SENSE_GE,
            fleet.e_min,
        )
        m.add_constraint(
            f"es_head_t{_t2(t)}",
            LinearExpression.from_terms([(soc[t].index, 1.0), (sigma_dn.index, span)]),
            SENSE_LE,
            fleet.e_max,
        )

    m.add_constraint(
        "es_env_up",
        LinearExpression.from_terms(
            [(rup[t].index, dt / eta_d) for t in range(T)] + [(sigma_up.index, -span)]
        ),
        SENSE_LE,
        0.0,
    )
    m.add_constraint(
        "es_env_dn",
        LinearExpression.from_terms(
            [(rdn[t].index, eta_c * dt) for t in range(T)] + [(sigma_dn.index, -span)]
        ),
        SENSE_LE,
        0.0,
    )
    cols = {
        "charge": pch,
        "discharge": pdis,
        "net": net,
        "r_up_charge": ruc,
        "r_up_discharge": rud,
        "r_dn_charge": rdc,
        "r_dn_discharge": rdd,
        "r_up": rup,
        "r_dn": rdn,
        "soc": soc,
        "mode": mode,
        "sigma_up": sigma_up,
        "sigma_dn": sigma_dn,
    }

    duals = None
    if budgets is not None:
        dam_losses = [
            [[(pdis[t].index, scenario.dam_price_down_dev[t] * dt), (pch[t].index, scenario.dam_price_up_dev[t] * dt)]]
            for t in range(T)
        ]
        up_losses = [[[(rup[t].index, scenario.sr_up_price_dev[t])]] for t in range(T)]
        dn_losses = [[[(rdn[t].index, scenario.sr_dn_price_dev[t])]] for t in range(T)]
        duals = {
            "dam": _add_price_dual(m, obj, "dam", budgets.gamma_dam, dam_losses),
            "sr_up": _add_price_dual(m, obj, "srup", budgets.gamma_sr_up, up_losses),
            "sr_dn": _add_price_dual(m, obj, "srdn", budgets.gamma_sr_down, dn_losses),
        }

    m.set_objective(LinearExpression.from_terms(obj), MAXIMIZE)
    m.tags.update(kind="es", fleet=fleet, scenario=scenario, budgets=budgets, cols=cols, duals=duals)
    return m


def _require_valid_es(fleet: EsUnit, scenario: MarketScenario) -> None:
    problems = validate_es(fleet) + validate_scenario(scenario)
    if problems:
        raise ModelBuildError("invalid inputs: " + "; ".join(problems[:5]))


def build_deterministic_es(fleet: EsUnit, scenario: MarketScenario) -> Model:
    """Deterministic fleet scheduling MILP at nominal prices."""
    _require_valid_es(fleet, scenario)
    return _build_es_core(Model(name="es_det"), fleet, scenario, None)


def build_robust_es(fleet: EsUnit, scenario: MarketScenario, budgets: BudgetSet) -> Model:
    """Price-robust counterpart; the fleet has no quantity uncertainty.

    Only the three price streams may carry budgets (the energy stream's loss
    is priced on gross charge and discharge volumes, so buying exposure and
    selling exposure degrade together); a nonzero per-unit budget is an
    input error.
    """
    _require_valid_es(fleet, scenario)
    bad = validate_budgets(budgets, scenario.grid)
    if bad:
        raise ModelBuildError("invalid budgets: " + "; ".join(bad))
    nonzero = [name for name, g in budgets.gamma_per_unit if g != 0]
    if nonzero:
        raise ModelBuildError(
            f"storage accepts price budgets only; per-unit budgets set for {nonzero}"
        )
    return _build_es_core(Model(name="es_robust"), fleet, scenario, budgets)


def extract_es_schedule(m: Model, sol: Solution) -> EsSchedule:
    """Decode a solved fleet model, re-verifying mode exclusivity and the
    state-of-charge recursion (both within 1e-6)."""
    if m.tags.get("kind") != "es":
        raise DecodeError("model was not built by a storage builder")
    if sol.status != "optimal":
        raise DecodeError(f"cannot decode a solution with status {sol.status!r}")
    fleet: EsUnit = m.tags["fleet"]
    scenario: MarketScenario = m.tags["scenario"]
    T = scenario.grid.period_count
    dt = scenario.grid.delta_t

    cols = m.tags["cols"]
    flows = {field: _values(sol, cols[field]) for field in _FLOW_FIELDS}
    charge, discharge = flows["charge"], flows["discharge"]
    mode = _binaries(sol, cols["mode"])

    for t in range(T):
        if charge[t] > FEASIBILITY_TOL and discharge[t] > FEASIBILITY_TOL:
            raise DecodeError(
                f"period {t + 1} both charges ({charge[t]}) and discharges ({discharge[t]})"
            )

    levels = _values(sol, cols["soc"])
    soc = np.concatenate(([levels[-1]], levels))
    for t in range(T):
        expected = soc[t] + fleet.charge_eff * dt * charge[t] - discharge[t] * dt / fleet.discharge_eff
        if abs(expected - soc[t + 1]) > FEASIBILITY_TOL:
            raise DecodeError(
                f"state-of-charge recursion broken at period {t + 1}: "
                f"{soc[t + 1]} vs expected {expected}"
            )

    return EsSchedule(
        **flows,
        mode=mode,
        soc=soc,
        sigma_up=float(sol.value_of(cols["sigma_up"])),
        sigma_dn=float(sol.value_of(cols["sigma_dn"])),
        objective_value=sol.objective_value,
        artifacts=_price_duals(m, sol, T),
    )
