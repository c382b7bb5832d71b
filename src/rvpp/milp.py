"""Mixed-integer linear model construction, LP text export, and solve orchestration.

The model IR is solver-agnostic: variables and constraints are stored in
insertion order, which fixes both the LP text layout and the column order
handed to backends, so repeated builds of the same model are byte-identical.
"""

from __future__ import annotations

import math
import re
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

# LP text takes a name with no whitespace (str.isspace) and none of these
# operator characters.  A leading digit is tested apart with str.isdigit,
# which, unlike the pattern's \d, also rejects digits such as "²".
_LP_NAME = re.compile(r"[^\s+\-:<>=\\]+")


def _lp_safe(name: str) -> bool:
    return _LP_NAME.fullmatch(name) is not None and not name[0].isdigit()


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
    """Sum of coef * variable terms plus a constant, kept in insertion order."""

    terms: tuple[tuple[int, float], ...] = ()
    constant: float = 0.0

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, float]], constant: float = 0.0) -> "LinearExpression":
        merged: dict[int, float] = {}
        for index, coef in terms:
            merged[index] = merged.get(index, 0.0) + float(coef)
        kept = tuple((i, c) for i, c in merged.items() if c != 0.0)
        return LinearExpression(kept, float(constant))

    def value(self, values: Mapping[int, float]) -> float:
        total = self.constant
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
        # Free-form build metadata (scenario handles, decode hints).  Not exported.
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
        if not _lp_safe(name):
            raise ModelError(f"variable name is not LP-safe: {name!r}")
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
        if not _lp_safe(name):
            raise ModelError(f"constraint name is not LP-safe: {name!r}")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise ModelError(f"non-finite rhs on constraint {name!r}")
        if not math.isfinite(expr.constant):
            raise ModelError(f"non-finite constant in constraint {name!r}")
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


def _fmt(x: float) -> str:
    """Shortest exact decimal form; round-trips through float()."""
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return repr(float(x) + 0.0)


def _write_expr(expr: LinearExpression, variables: list[Variable]) -> str:
    parts: list[str] = []
    for index, coef in expr.terms:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(coef))} {variables[index].name}")
    if expr.constant != 0.0:
        sign = "-" if expr.constant < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(expr.constant))}")
    if not parts:
        return "0"
    text = " ".join(parts)
    if text.startswith("+ "):
        text = text[2:]
    return text


def export_lp_text(model: Model) -> str:
    """Serialize to LP text (CPLEX-style dialect, insertion order, byte-stable).

    All variable bounds are written explicitly; binaries are additionally listed
    in a Binaries section.  A row's constant is moved to its right-hand side,
    since LP readers take none on the left.  The text is read by HiGHS.
    """
    lines: list[str] = []
    lines.append("Maximize" if model.direction == MAXIMIZE else "Minimize")
    lines.append(f" obj: {_write_expr(model.objective, model.variables)}")
    lines.append("Subject To")
    for con in model.constraints:
        lhs = _write_expr(LinearExpression(con.expr.terms), model.variables)
        lines.append(f" {con.name}: {lhs} {con.sense} {_fmt(con.rhs - con.expr.constant)}")
    lines.append("Bounds")
    for var in model.variables:
        if var.lower == -math.inf and var.upper == math.inf:
            lines.append(f" {var.name} free")
        elif var.lower == var.upper:
            lines.append(f" {var.name} = {_fmt(var.lower)}")
        else:
            lines.append(f" {_fmt(var.lower)} <= {var.name} <= {_fmt(var.upper)}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


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

