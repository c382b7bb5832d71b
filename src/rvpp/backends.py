"""The solver backend: HiGHS through scipy.optimize.milp.

A ScipyHighsBackend is one solve session: load one model, optimize, then
query status, objective_value and values.  milp.solve only calls those
methods (and reads name), so tests hand it a subclass that lies.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from .milp import (
    BINARY,
    MAXIMIZE,
    SENSE_GE,
    SENSE_LE,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    BackendError,
    Model,
)


class ScipyHighsBackend:
    """HiGHS via scipy.optimize.milp.

    The MIP gap is forced to zero (scipy's default 1e-4 relative gap is far
    too loose for the equality-style cross-checks run on every solution).
    """

    name = "scipy"

    def __init__(self) -> None:
        self._model: Model | None = None
        self._result = None
        self._status: str | None = None

    def load(self, model: Model) -> None:
        if self._model is not None:
            raise BackendError("backend session already holds a model")
        self._model = model

    def optimize(self) -> None:
        model = self._model
        if model is None:
            raise BackendError("optimize() before load()")
        n = len(model.variables)
        sign = -1.0 if model.direction == MAXIMIZE else 1.0
        c = np.zeros(n)
        for index, coef in model.objective.terms:
            c[index] += sign * coef
        integrality = np.zeros(n)
        lower = np.empty(n)
        upper = np.empty(n)
        for var in model.variables:
            lower[var.index] = var.lower
            upper[var.index] = var.upper
            if var.kind == BINARY:
                integrality[var.index] = 1
        constraints = []
        if model.constraints:
            rows: list[int] = []
            cols: list[int] = []
            data: list[float] = []
            lo = np.empty(len(model.constraints))
            hi = np.empty(len(model.constraints))
            for r, con in enumerate(model.constraints):
                for index, coef in con.expr.terms:
                    rows.append(r)
                    cols.append(index)
                    data.append(coef)
                bound = con.rhs - con.expr.constant
                if con.sense == SENSE_LE:
                    lo[r], hi[r] = -np.inf, bound
                elif con.sense == SENSE_GE:
                    lo[r], hi[r] = bound, np.inf
                else:
                    lo[r], hi[r] = bound, bound
            a = sparse.csc_array((data, (rows, cols)), shape=(len(model.constraints), n))
            constraints.append(optimize.LinearConstraint(a, lo, hi))
        self._result = optimize.milp(
            c,
            constraints=constraints,
            integrality=integrality,
            bounds=optimize.Bounds(lower, upper),
            options={"mip_rel_gap": 0.0},
        )
        self._status = _map_scipy_status(self._result, model)

    def status(self) -> str:
        if self._status is None:
            raise BackendError("status() before optimize()")
        return self._status

    def objective_value(self) -> float:
        if self._status != STATUS_OPTIMAL:
            raise BackendError(f"no objective in status {self._status!r}")
        model = self._model
        assert model is not None and self._result is not None
        sign = -1.0 if model.direction == MAXIMIZE else 1.0
        return sign * float(self._result.fun) + model.objective.constant

    def values(self) -> dict[int, float]:
        if self._status != STATUS_OPTIMAL:
            raise BackendError(f"no values in status {self._status!r}")
        assert self._result is not None
        return {i: float(v) for i, v in enumerate(self._result.x)}


def _map_scipy_status(result, model: Model) -> str:
    # scipy.optimize.milp status codes: 0 optimal, 1 iteration/time limit,
    # 2 infeasible, 3 unbounded, 4 other.
    code = int(result.status)
    if code == 0:
        return STATUS_OPTIMAL
    if code == 1:
        return STATUS_LIMIT
    if code == 2:
        return STATUS_INFEASIBLE
    if code == 3:
        return STATUS_UNBOUNDED
    message = str(getattr(result, "message", ""))
    # HiGHS reports some unbounded MIPs through the catch-all code.
    if "unbounded" in message.lower():
        return STATUS_UNBOUNDED
    raise BackendError(f"scipy backend failed on model {model.name!r}: {message or 'unknown error'}")
