"""The solver backend: one HiGHS session through scipy's HiGHS binding.

A ScipyHighsBackend is one solve session: load one model, optimize, then
query status, objective_value and values.  milp.solve only calls those
methods (and reads name), so tests hand it a subclass that lies.

The session drives `scipy.optimize._highspy._core._Highs` itself rather than
`scipy.optimize.milp`, which cannot switch off HiGHS's RINS and RENS
heuristics.  Every session gets the same options, HIGHS_OPTIONS plus the
SOLVE_TIME_LIMIT_S time limit.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import sparse

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
    SolverUnavailableError,
)

try:
    import scipy.optimize._highspy._core as _core
except ImportError as exc:
    raise SolverUnavailableError(
        f"rvpp needs scipy>=1.15 for its HiGHS binding (scipy.optimize._highspy._core); "
        f"installed scipy is {scipy.__version__}: {exc}"
    ) from exc

# The MIP gap is zero because the equality-style cross-checks run on every
# solution need the optimum, not scipy's default 1e-4 relative gap.  RINS and
# RENS are off: on the robust portfolios HiGHS spent most of its time in
# them after it already held the optimum.  Restarts stay on, since turning
# them off slows the many one-node robust models of the sizing sweeps.
HIGHS_OPTIONS = {
    "log_to_console": False,
    "mip_rel_gap": 0.0,
    "mip_heuristic_run_rins": False,
    "mip_heuristic_run_rens": False,
}
# Far above the slowest solve of the default sweep (about 10 s).  A hit fails
# the cell; it never yields a number.
SOLVE_TIME_LIMIT_S = 600.0

_STATUS = {
    _core.HighsModelStatus.kOptimal: STATUS_OPTIMAL,
    _core.HighsModelStatus.kInfeasible: STATUS_INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: STATUS_UNBOUNDED,
    _core.HighsModelStatus.kUnboundedOrInfeasible: STATUS_UNBOUNDED,
    _core.HighsModelStatus.kTimeLimit: STATUS_LIMIT,
    _core.HighsModelStatus.kIterationLimit: STATUS_LIMIT,
}


def session_options() -> dict:
    """The options every session runs with: HIGHS_OPTIONS and the time limit."""
    return {**HIGHS_OPTIONS, "time_limit": SOLVE_TIME_LIMIT_S}


@dataclass(frozen=True)
class SolveRecord:
    """What one optimize() handed to HiGHS and what HiGHS reported back.

    digest: blake2b of the arrays and options handed to HiGHS; equal models
    hash equal.  mip_node_count and mip_gap are HiGHS's info values.
    """

    model: str
    rows: int
    cols: int
    nnz: int
    binaries: int
    digest: str
    status: str
    mip_node_count: int
    mip_gap: float
    assembly_s: float
    highs_s: float


class ScipyHighsBackend:
    """One HiGHS session with session_options() applied."""

    name = "scipy"

    def __init__(self) -> None:
        self.highs = _core._Highs()
        for key, value in session_options().items():
            if self.highs.setOptionValue(key, value) != _core.HighsStatus.kOk:
                raise BackendError(f"HiGHS rejected option {key}={value!r}")
        self.last_run: SolveRecord | None = None
        self._model: Model | None = None
        self._status: str | None = None

    def load(self, model: Model) -> None:
        if self._model is not None:
            raise BackendError("backend session already holds a model")
        self._model = model

    def optimize(self) -> None:
        model = self._model
        if model is None:
            raise BackendError("optimize() before load()")
        started = time.perf_counter()
        n = len(model.variables)
        sign = -1.0 if model.direction == MAXIMIZE else 1.0
        c = np.zeros(n)
        for index, coef in model.objective.terms:
            c[index] += sign * coef
        integrality = np.zeros(n, dtype=np.int32)
        lower = np.empty(n)
        upper = np.empty(n)
        for var in model.variables:
            lower[var.index] = var.lower
            upper[var.index] = var.upper
            if var.kind == BINARY:
                integrality[var.index] = 1
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
        assembled = time.perf_counter()
        highs = self.highs
        loaded = highs.passModel(
            n, a.shape[0], a.nnz, 1, 1, 0.0, c, lower, upper, lo, hi,
            a.indptr.astype(np.int32), a.indices.astype(np.int32), a.data, integrality,
        )
        if loaded == _core.HighsStatus.kError:
            raise BackendError(f"HiGHS could not load model {model.name!r}")
        highs.run()
        ran = time.perf_counter()
        model_status = highs.getModelStatus()
        if model_status not in _STATUS:
            raise BackendError(
                f"HiGHS failed on model {model.name!r}: {highs.modelStatusToString(model_status)}"
            )
        self._status = _STATUS[model_status]
        info = highs.getInfo()
        self.last_run = SolveRecord(
            model=model.name,
            rows=a.shape[0],
            cols=n,
            nnz=a.nnz,
            binaries=int(integrality.sum()),
            digest=_digest(c, integrality, lower, upper, a, lo, hi),
            status=self._status,
            mip_node_count=int(info.mip_node_count),
            mip_gap=float(info.mip_gap),
            assembly_s=assembled - started,
            highs_s=ran - assembled,
        )

    def status(self) -> str:
        if self._status is None:
            raise BackendError("status() before optimize()")
        return self._status

    def objective_value(self) -> float:
        if self._status != STATUS_OPTIMAL:
            raise BackendError(f"no objective in status {self._status!r}")
        model = self._model
        assert model is not None
        sign = -1.0 if model.direction == MAXIMIZE else 1.0
        return sign * float(self.highs.getInfo().objective_function_value) + model.objective.constant

    def values(self) -> dict[int, float]:
        if self._status != STATUS_OPTIMAL:
            raise BackendError(f"no values in status {self._status!r}")
        return {i: float(v) for i, v in enumerate(self.highs.getSolution().col_value)}


def _digest(c, integrality, lower, upper, a, lo, hi) -> str:
    h = hashlib.blake2b(digest_size=16)
    parts = [c, integrality, lower, upper]
    if a.shape[0]:
        parts += [a.data, a.indices, a.indptr, a.shape, lo, hi]
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        h.update(b"|")
    h.update(repr(sorted(session_options().items())).encode())
    return h.hexdigest()
