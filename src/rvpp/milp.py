"""Mixed-integer linear model construction and solve orchestration.

The model IR holds what a backend reads: variables and constraints in
insertion order, which fixes the column and row order handed to HiGHS, so
repeated builds of the same model give identical arrays.  Names serve the
decoders and the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

CONTINUOUS = "continuous"
BINARY = "binary"

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "="
_SENSES = (SENSE_LE, SENSE_GE, SENSE_EQ)

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

FEASIBILITY_TOL = 1.0e-6
OPTIMALITY_REL_TOL = 1.0e-5

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_LIMIT = "limit"

class ModelError(ValueError):
    """Raised for malformed model input (bad bounds, unknown ids, non-finite data)."""


class BackendError(RuntimeError):
    """Raised when a backend misbehaves (bad status, bound-violating values)."""


class SolverUnavailableError(ImportError):
    """Raised when `rvpp.backends` is imported without scipy's HiGHS binding."""


@dataclass(frozen=True)
class Variable:
    """A single decision column.

    index: position in the model's column order (also the id used in expressions).
    kind: CONTINUOUS or BINARY.  Bounds are closed; binaries stay within [0, 1]
    but may be pinned tighter (e.g. fixed to 1).
    """

    index: int
    name: str
    kind: str
    lower: float
    upper: float


@dataclass(frozen=True)
class LinearExpression:
    """Sum of coef * variable terms, kept in insertion order."""

    terms: tuple[tuple[int, float], ...] = ()

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, float]]) -> "LinearExpression":
        merged: dict[int, float] = {}
        for index, coef in terms:
            merged[index] = merged.get(index, 0.0) + float(coef)
        kept = tuple((i, c) for i, c in merged.items() if c != 0.0)
        return LinearExpression(kept)

    def value(self, values: Mapping[int, float]) -> float:
        total = 0.0
        for index, coef in self.terms:
            total += coef * values[index]
        return total


@dataclass(frozen=True)
class Constraint:
    name: str
    expr: LinearExpression
    sense: str
    rhs: float

    def residual(self, values: Mapping[int, float]) -> float:
        """Violation magnitude at the given point (0 when satisfied)."""
        lhs = self.expr.value(values)
        if self.sense == SENSE_LE:
            return max(0.0, lhs - self.rhs)
        if self.sense == SENSE_GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


@dataclass
class Solution:
    status: str
    objective_value: float
    values: dict[int, float]

    def value_of(self, var: Variable) -> float:
        return self.values[var.index]


class Model:
    """Ordered container for variables, constraints, and one linear objective."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinearExpression = LinearExpression()
        self.direction: str = MAXIMIZE
        # Free-form build metadata (scenario handles, decode hints).  Not handed to the backend.
        self.tags: dict = {}
        self._by_name: dict[str, Variable] = {}
        self._constraint_names: set[str] = set()

    def add_variable(
        self,
        name: str,
        kind: str = CONTINUOUS,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> Variable:
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r} for {name!r}")
        if name in self._by_name:
            raise ModelError(f"duplicate variable name {name!r}")
        lower = float(lower)
        upper = float(upper)
        if math.isnan(lower) or math.isnan(upper):
            raise ModelError(f"NaN bound on variable {name!r}")
        if kind == BINARY:
            lower = max(lower, 0.0)
            upper = min(upper, 1.0)
        if lower > upper:
            raise ModelError(f"inverted bounds on {name!r}: [{lower}, {upper}]")
        var = Variable(len(self.variables), name, kind, lower, upper)
        self.variables.append(var)
        self._by_name[name] = var
        return var

    def add_constraint(self, name: str, expr: LinearExpression, sense: str, rhs: float) -> Constraint:
        if sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {sense!r} for {name!r}")
        if name in self._constraint_names:
            raise ModelError(f"duplicate constraint name {name!r}")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise ModelError(f"non-finite rhs on constraint {name!r}")
        for index, coef in expr.terms:
            if index < 0 or index >= len(self.variables):
                raise ModelError(f"constraint {name!r} references unknown variable id {index}")
            if not math.isfinite(coef):
                raise ModelError(f"non-finite coefficient in constraint {name!r}")
        con = Constraint(name, expr, sense, rhs)
        self.constraints.append(con)
        self._constraint_names.add(name)
        return con

    def set_objective(self, expr: LinearExpression, direction: str = MAXIMIZE) -> None:
        if direction not in (MAXIMIZE, MINIMIZE):
            raise ModelError(f"unknown objective direction {direction!r}")
        for index, coef in expr.terms:
            if index < 0 or index >= len(self.variables):
                raise ModelError(f"objective references unknown variable id {index}")
            if not math.isfinite(coef):
                raise ModelError("non-finite objective coefficient")
        self.objective = expr
        self.direction = direction

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"no variable named {name!r}") from None

    def binary_count(self) -> int:
        return sum(1 for v in self.variables if v.kind == BINARY)


def solve(model: Model, backend) -> Solution:
    """Run the backend and cross-check what it returns.

    On an optimal status every value is validated against its bounds (within
    1e-6) and the objective is recomputed from the values; a backend whose
    reported objective disagrees beyond 1e-5 relative is rejected.  Any other
    status comes back with a NaN objective and no values; the caller decides
    what it means.
    """
    backend.load(model)
    backend.optimize()
    status = backend.status()
    if status not in (STATUS_OPTIMAL, STATUS_INFEASIBLE, STATUS_UNBOUNDED, STATUS_LIMIT):
        raise BackendError(f"backend {backend.name!r} reported unknown status {status!r}")
    if status != STATUS_OPTIMAL:
        return Solution(status, math.nan, {})
    values = dict(backend.values())
    for var in model.variables:
        try:
            val = values[var.index]
        except KeyError:
            raise BackendError(f"backend {backend.name!r} returned no value for {var.name!r}") from None
        if val < var.lower - FEASIBILITY_TOL or val > var.upper + FEASIBILITY_TOL:
            raise BackendError(
                f"backend {backend.name!r} violates bounds on {var.name!r}: "
                f"{val} outside [{var.lower}, {var.upper}]"
            )
    reported = backend.objective_value()
    recomputed = model.objective.value(values)
    scale = max(1.0, abs(reported), abs(recomputed))
    if abs(reported - recomputed) > OPTIMALITY_REL_TOL * scale:
        raise BackendError(
            f"backend {backend.name!r} objective {reported} disagrees with "
            f"recomputed {recomputed}"
        )
    return Solution(STATUS_OPTIMAL, reported, values)

