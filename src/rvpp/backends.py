"""The solver backend: one HiGHS session through scipy's HiGHS binding.

A ScipyHighsBackend is one solve session: load one model, optimize, then
query status, objective_value and values, or relaxed_rows after an
infeasible end.  milp.solve calls five methods (load, optimize, status,
values, objective_value) and reads name, so tests hand it a subclass that
lies.

The session drives `scipy.optimize._highspy._core._Highs` itself rather than
`scipy.optimize.milp`, which cannot switch off HiGHS's RINS and RENS
heuristics.  Every session gets the same options, HIGHS_OPTIONS plus the
SOLVE_TIME_LIMIT_S time limit.

The binding is loaded straight from its file inside the installed scipy and
registered in sys.modules under its own name, so the `scipy.optimize`
package (about 320 scipy modules, sparse and linalg included) is never
imported.  On a 2-vCPU VM this took `import rvpp.cli` from 0.82 s to 0.25 s
and its resident set from 79 MB to 40 MB (medians of 10 runs).  optimize
hands passModel the model store's arrays (Model.arrays), with no per-term
loop and nothing to check: the store has already summed every repeated
column of a row.  Only the CSC column pointers are built, as scipy.sparse
builds them.

Two standard-library modules stay off the import path too, so neither the
parent nor a forked worker carries them.  `import hashlib` loads OpenSSL's
libcrypto (about 3.7 MB resident), so the model digest takes blake2b from
`_blake2`, CPython's builtin module: `hashlib.blake2b` is that same
function, so every digest is unchanged.  `importlib.metadata` brings in the
email and zip modules (about 0.9 MB), so it is imported only where a missing
binding names the installed scipy.  Without the two, `import rvpp.cli`
leaves a 35 MB resident set instead of 41 MB (medians of 10 runs).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import time
from _blake2 import blake2b
from dataclasses import dataclass

import numpy as np

from .milp import (
    FEASIBILITY_TOL,
    MAXIMIZE,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    BackendError,
    Model,
    SolverUnavailableError,
)

_BINDING = "scipy.optimize._highspy._core"


def _load_binding():
    """scipy's HiGHS extension module, without importing scipy.optimize.

    An entry already in sys.modules is reused (None means hidden, as for any
    import); otherwise the module is loaded from scipy's `optimize/_highspy`
    folder and registered under its own name, so a later
    `from scipy.optimize._highspy import _core` gets the same object.
    """
    if _BINDING in sys.modules:
        module = sys.modules[_BINDING]
        if module is None:
            raise ModuleNotFoundError(f"import of {_BINDING} halted; None in sys.modules", name=_BINDING)
        return module
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    folders = [os.path.join(root, "optimize", "_highspy") for root in roots or ()]
    spec = importlib.machinery.PathFinder.find_spec(_BINDING, folders)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {_BINDING!r}", name=_BINDING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_BINDING] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_BINDING]
        raise
    return module


def _installed_scipy() -> str:
    import importlib.metadata

    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return "none"


try:
    _core = _load_binding()
except ImportError as exc:
    raise SolverUnavailableError(
        f"rvpp needs scipy>=1.15 for its HiGHS binding ({_BINDING}); "
        f"installed scipy is {_installed_scipy()}: {exc}"
    ) from exc

# Read from the binding itself: scipy's version would cost an import.
HIGHS_VERSION = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"

# The MIP gap is zero because the equality-style cross-checks run on every
# solution need the optimum, not scipy's default 1e-4 relative gap.  RINS and
# RENS are off: on the robust portfolios HiGHS spent most of its time in
# them after it already held the optimum.  Restarts and the feasibility-jump
# heuristic are off together: the robust portfolios restarted up to three
# times after the optimum was found, each time rerunning the root heuristics.
# Restarts off alone slow the one-node sizing models; feasibility jump off
# repays that, and the pair cuts the robust ladder's solve time by about 40 %.
HIGHS_OPTIONS = {
    "log_to_console": False,
    "mip_rel_gap": 0.0,
    "mip_heuristic_run_rins": False,
    "mip_heuristic_run_rens": False,
    "mip_allow_restart": False,
    "mip_heuristic_run_feasibility_jump": False,
}
# Far above the slowest solve of the default sweep (about 4 s).  A hit fails
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
    hash equal.  mip_node_count, lp_iterations (simplex iterations, summed
    over every LP of a MIP) and mip_gap are HiGHS's info values; a model
    with no binary column has no node count and no gap, so both are None.
    """

    model: str
    rows: int
    cols: int
    nnz: int
    binaries: int
    digest: str
    status: str
    mip_node_count: int | None
    lp_iterations: int
    mip_gap: float | None
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
        arrays = model.arrays()
        n, m = len(arrays.lower), len(arrays.row_lower)
        sign = -1.0 if model.direction == MAXIMIZE else 1.0
        # + 0.0 turns the -0.0 of a negated zero cost into 0.0.
        c = arrays.cost * sign + 0.0
        bounds, row_bounds = (arrays.lower, arrays.upper), (arrays.row_lower, arrays.row_upper)
        a_data, a_indices, a_indptr = _csc(arrays)
        nnz = len(a_data)
        assembled = time.perf_counter()
        highs = self.highs
        loaded = highs.passModel(
            n, m, nnz, 1, 1, 0.0, c, *bounds, *row_bounds, a_indptr, a_indices, a_data, arrays.integrality,
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
        binaries = int(arrays.integrality.sum())
        self.last_run = SolveRecord(
            model=model.name,
            rows=m,
            cols=n,
            nnz=nnz,
            binaries=binaries,
            digest=_digest(c, arrays.integrality, *bounds, a_data, a_indices, a_indptr, (m, n), *row_bounds),
            status=self._status,
            mip_node_count=int(info.mip_node_count) if binaries else None,
            lp_iterations=int(info.simplex_iteration_count),
            mip_gap=float(info.mip_gap) if binaries else None,
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
        # + 0.0 turns a -0.0 from HiGHS into 0.0.
        return sign * float(self.highs.getInfo().objective_function_value) + 0.0

    def values(self) -> np.ndarray:
        """The solved column vector."""
        if self._status != STATUS_OPTIMAL:
            raise BackendError(f"no values in status {self._status!r}")
        return np.array(self.highs.getSolution().col_value)

    def relaxed_rows(self) -> dict[str, float]:
        """{row name: violation} of the cheapest relaxation that restores
        feasibility, for each violation above FEASIBILITY_TOL.

        Valid only after optimize() ended infeasible.  HiGHS's feasibility
        relaxation runs in this session: it relaxes no column bound (negative
        penalties), prices each unit a row leaves its bounds at 1, and keeps
        binaries binary; this is Chinneck's elastic filter.  It is not an
        irreducible infeasible subsystem, and equal-cost relaxations may tie.
        The session's model is left unchanged.
        """
        if self._status != STATUS_INFEASIBLE:
            raise BackendError(f"no relaxation in status {self._status!r}")
        model = self._model
        assert model is not None
        highs = self.highs
        relaxed = highs.feasibilityRelaxation(-1.0, -1.0, 1.0)
        solution = highs.getSolution()
        if relaxed != _core.HighsStatus.kOk or not solution.value_valid:
            raise BackendError(f"HiGHS could not relax infeasible model {model.name!r}: {relaxed}")
        lp = highs.getLp()
        row = np.asarray(solution.row_value)
        violation = np.maximum(np.asarray(lp.row_lower_) - row, row - np.asarray(lp.row_upper_))
        violated = np.flatnonzero(violation > FEASIBILITY_TOL)
        return {model.row_name(r): float(violation[r]) for r in violated}


def _csc(arrays):
    """(data, indices, indptr) of the model's matrix in CSC form: what
    `scipy.sparse.csc_array((data, (rows, cols)))` gives, since Model.arrays()
    runs column by column, rows ascending, with no (row, column) pair twice."""
    indptr = np.zeros(len(arrays.lower) + 1, dtype=np.int32)
    np.cumsum(np.bincount(arrays.cols, minlength=len(arrays.lower)), out=indptr[1:])
    return arrays.vals, arrays.rows, indptr


def _digest(c, integrality, lower, upper, data, indices, indptr, shape, lo, hi) -> str:
    h = blake2b(digest_size=16)
    parts = [c, integrality, lower, upper]
    if shape[0]:
        parts += [data, indices, indptr, shape, lo, hi]
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        h.update(b"|")
    h.update(repr(sorted(session_options().items())).encode())
    return h.hexdigest()
