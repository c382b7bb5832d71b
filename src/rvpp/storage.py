"""A storage unit's columns and rows in the portfolio model.

A storage unit (EsUnit) is one more unit class of scheduler._build_core,
which calls add_es_unit for each unit of Portfolio.es (it appends the unit's
column families and its block of per-period row families to the model
store) and books the unit into the three market balances: its net flow, its
upward reserve and its downward reserve.  An n-module fleet is the module's
EsUnit.scaled(n): power and energy limits scale with the count,
efficiencies and costs do not.

Charging and discharging are mode-exclusive per period; reserve offers split
into a charge-side part (backing off charging) and a discharge-side part.
The daily up-reserve energy is fenced by the energy span.  The down-reserve
energy is fenced by the fraction sigma_dn of that span, and the same share
also keeps both state-of-charge margins, above the floor and below the
ceiling.  The state of charge is cyclic: the recursion wraps period 1 back
onto period T, so the day starts and ends at the same level.
"""

from __future__ import annotations

from .domain import EsUnit
from .milp import BINARY, SENSE_EQ, SENSE_GE, SENSE_LE, Model


def add_es_unit(m: Model, u: EsUnit, T: int, dt: float) -> dict:
    """Write u's columns, their objective costs and u's own rows into m, and
    return the column ids.

    They are keyed like the RvppSchedule fields they decode into: ts_charge,
    ts_discharge and ts_soc (the T levels), mode (1 while charging) and
    sigma ([sigma_dn]); es_reserves holds the up reserve on the charge and
    the discharge side, then the down reserve on each side.
    """
    eta_c, eta_d, span = u.charge_eff, u.discharge_eff, u.e_max - u.e_min
    n = m.escape(u.name)

    def columns(tag: str, **kwargs) -> range:
        return m.add_columns(f"{tag}__{n}_t{{:02d}}", T, **kwargs)

    pch = columns("pch", upper=u.charge_p_max)
    pdis = columns("pdis", upper=u.discharge_p_max, cost=-u.op_cost * dt)
    ruc, rud, rdc, rdd = columns("ruc"), columns("rud"), columns("rdc"), columns("rdd")
    mode = columns("mode", kind=BINARY)
    soc = columns("soc", lower=u.e_min, upper=u.e_max)
    (sigma_dn,) = m.add_columns(f"sigma_dn__{n}", 1, upper=1.0)

    def row(name: str, sense: str, rhs: float, terms) -> tuple:
        return f"es_{name}_t{{:02d}}__{n}", sense, rhs, terms

    # soc[t - 1] at t = 0 is soc[T - 1]: the cyclic wrap.
    previous = [soc[t - 1] for t in range(T)]
    m.add_rows(T, [
        row("ch_lo", SENSE_GE, 0.0, [(pch, 1.0), (ruc, -1.0), (mode, -u.charge_p_min)]),
        row("ch_hi", SENSE_LE, 0.0, [(pch, 1.0), (rdc, 1.0), (mode, -u.charge_p_max)]),
        row("dis_hi", SENSE_LE, u.discharge_p_max, [(pdis, 1.0), (rud, 1.0), (mode, u.discharge_p_max)]),
        row("dis_lo", SENSE_GE, u.discharge_p_min, [(pdis, 1.0), (rdd, -1.0), (mode, u.discharge_p_min)]),
        row("soc", SENSE_EQ, 0.0, [(soc, 1.0), (previous, -1.0), (pch, -eta_c * dt), (pdis, dt / eta_d)]),
        row("floor", SENSE_GE, u.e_min, [(soc, 1.0), (sigma_dn, -span)]),
        row("head", SENSE_LE, u.e_max, [(soc, 1.0), (sigma_dn, span)]),
    ])
    up = [(r[t], dt / eta_d) for t in range(T) for r in (ruc, rud)]
    dn = [(r[t], eta_c * dt) for t in range(T) for r in (rdc, rdd)] + [(sigma_dn, -span)]
    m.add_rows(1, [(f"es_env_up__{n}", SENSE_LE, span, up), (f"es_env_dn__{n}", SENSE_LE, 0.0, dn)])
    return {
        "ts_charge": pch,
        "ts_discharge": pdis,
        "ts_soc": soc,
        "mode": mode,
        "sigma": [sigma_dn],
        "es_reserves": (ruc, rud, rdc, rdd),
    }
