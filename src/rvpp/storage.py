"""A storage unit's columns and rows in the portfolio model.

A storage unit (EsUnit) is one more unit class of scheduler._build_core,
which calls add_es_unit for each unit of Portfolio.es and books the unit
into the three market balances: its net flow (discharge less charge), its
upward reserve and its downward reserve.  An n-module fleet is the module's
EsUnit.scaled(n): power and energy limits scale with the count,
efficiencies and costs do not.

Charging and discharging are mode-exclusive per period; reserve offers split
into a charge-side part (backing off charging) and a discharge-side part.
Daily reserve energy is fenced by two envelope fractions of the energy span:
sigma_up bounds the up-reserve energy, sigma_dn the down-reserve energy, and
sigma_dn alone also keeps both state-of-charge margins, above the floor and
below the ceiling.  The state of charge is cyclic: the recursion wraps
period 1 back onto period T, so the day starts and ends at the same level.
"""

from __future__ import annotations

from .domain import EsUnit
from .milp import BINARY, SENSE_EQ, SENSE_GE, SENSE_LE, LinearExpression, Model


def add_es_unit(m: Model, u: EsUnit, T: int, dt: float) -> dict:
    """Write u's columns and its own rows into m, and return the columns.

    They are keyed like the RvppSchedule fields they decode into: ts_charge,
    ts_discharge and ts_soc (the T levels), mode (1 while charging) and
    sigma ([sigma_up, sigma_dn]); es_reserves holds the up reserve on the
    charge and the discharge side, then the down reserve on each side.
    """
    eta_c, eta_d, span = u.charge_eff, u.discharge_eff, u.e_max - u.e_min

    def columns(tag: str, **kwargs) -> list:
        return [m.add_variable(f"{tag}__{u.name}_t{t:02d}", **kwargs) for t in range(T)]

    def row(name: str, terms, sense: str, rhs: float = 0.0) -> None:
        expr = LinearExpression.from_terms((var.index, coef) for var, coef in terms)
        m.add_constraint(f"es_{name}__{u.name}", expr, sense, rhs)

    pch = columns("pch", upper=u.charge_p_max)
    pdis = columns("pdis", upper=u.discharge_p_max)
    ruc, rud, rdc, rdd = columns("ruc"), columns("rud"), columns("rdc"), columns("rdd")
    mode = columns("mode", kind=BINARY)
    soc = columns("soc", lower=u.e_min, upper=u.e_max)
    sigma_up, sigma_dn = (m.add_variable(f"sigma_{side}__{u.name}", upper=1.0) for side in ("up", "dn"))

    for t in range(T):
        at = f"_t{t:02d}"
        row("ch_lo" + at, [(pch[t], 1.0), (ruc[t], -1.0), (mode[t], -u.charge_p_min)], SENSE_GE)
        row("ch_hi" + at, [(pch[t], 1.0), (rdc[t], 1.0), (mode[t], -u.charge_p_max)], SENSE_LE)
        row("dis_hi" + at, [(pdis[t], 1.0), (rud[t], 1.0), (mode[t], u.discharge_p_max)], SENSE_LE, u.discharge_p_max)
        row("dis_lo" + at, [(pdis[t], 1.0), (rdd[t], -1.0), (mode[t], u.discharge_p_min)], SENSE_GE, u.discharge_p_min)
        # soc[t - 1] at t = 0 is soc[T - 1]: the cyclic wrap.
        row("soc" + at, [(soc[t], 1.0), (soc[t - 1], -1.0), (pch[t], -eta_c * dt), (pdis[t], dt / eta_d)], SENSE_EQ)
        row("floor" + at, [(soc[t], 1.0), (sigma_dn, -span)], SENSE_GE, u.e_min)
        row("head" + at, [(soc[t], 1.0), (sigma_dn, span)], SENSE_LE, u.e_max)
    row("env_up", [(r[t], dt / eta_d) for t in range(T) for r in (ruc, rud)] + [(sigma_up, -span)], SENSE_LE)
    row("env_dn", [(r[t], eta_c * dt) for t in range(T) for r in (rdc, rdd)] + [(sigma_dn, -span)], SENSE_LE)
    return {
        "ts_charge": pch,
        "ts_discharge": pdis,
        "ts_soc": soc,
        "mode": mode,
        "sigma": [sigma_up, sigma_dn],
        "es_reserves": (ruc, rud, rdc, rdd),
    }
