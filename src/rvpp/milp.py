"""Mixed-integer linear models as one flat store, and solve orchestration.

A Model holds what HiGHS takes, in flat lists: column bounds, integrality
and costs, row bounds, and the matrix as (row, column, value) entries.
Builders append whole families: add_columns T columns, add_rows a block of
row families interleaved period by period; each column gets its objective
cost as it is added.  Insertion order fixes the column and row order handed
to HiGHS, so repeated builds give identical arrays.  A column repeated in a
row is summed and a zero coefficient is dropped.  A single column or row is
a family of one, its literal name escaped (Model.escape).

A family keeps its name template; names are made only when a diagnostic or
a test asks.  A template given twice is refused when it is added; two that
spell one name (x_t00 beside x_t{:02d}) are refused when every name is made,
by the read views variables and constraints or by variable(name).  The
build path never makes them.  Variable, LinearExpression and Constraint are
the records those views return.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "="
_SENSES = (SENSE_LE, SENSE_GE, SENSE_EQ)

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
    """Sum of coef * variable terms, by ascending variable id."""

    terms: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class Constraint:
    name: str
    expr: LinearExpression
    sense: str
    rhs: float


@dataclass
class Solution:
    """values is the solved column vector; empty unless status is optimal."""

    status: str
    objective_value: float
    values: np.ndarray


class ModelArrays(NamedTuple):
    """A model as numpy arrays.  The matrix entries (rows, cols, vals) run
    column by column, rows ascending, repeats summed and zeros dropped."""

    cost: np.ndarray
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _per_item(value, count: int, what: str, template: str, finite: bool = True) -> list:
    """value as count numbers: a number repeated, or a sequence of count numbers.
    With finite, a value that is not finite raises ModelError naming its item."""
    if isinstance(value, (int, float)):
        out = [float(value)] * count
        bad = finite and not math.isfinite(value)
    else:
        out = list(value)
        if len(out) != count:
            raise ModelError(f"{what} of {template!r} has {len(out)} entries for {count} items")
        bad = finite and not all(map(math.isfinite, out))
    if bad:
        raise ModelError(f"non-finite {what} in {template.format(_first(map(math.isfinite, out)))!r}")
    return out


def _first(flags) -> int:
    return next(i for i, ok in enumerate(flags) if not ok)


class _Names:
    """The names of one namespace (columns or rows), kept as templates.

    A block of K templates over count periods names items start, start + 1,
    ... period by period: item start + t*K + k is templates[k].format(t).  A
    literal name is its own template, braces doubled (Model.escape).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._starts: list[int] = []
        self._blocks: list[tuple[str, ...]] = []
        self._taken: set[str] = set()
        self._index: dict[str, int] | None = None

    def add(self, start: int, templates: tuple[str, ...]) -> None:
        """Record a block's templates; a template given before raises ModelError."""
        for template in templates:
            if template in self._taken:
                raise ModelError(f"duplicate {self.kind} name {template.format(0)!r}")
            self._taken.add(template)
        self._starts.append(start)
        self._blocks.append(templates)
        self._index = None

    def name(self, item: int) -> str:
        b = bisect_right(self._starts, item) - 1
        t, k = divmod(item - self._starts[b], len(self._blocks[b]))
        return self._blocks[b][k].format(t)

    def index(self, total: int) -> dict[str, int]:
        """{name: item} of all total items, made once per change; a name
        spelled twice (x_t00 beside the template x_t{:02d}) raises ModelError."""
        if self._index is None:
            index: dict[str, int] = {}
            for start, end, templates in zip(self._starts, self._starts[1:] + [total], self._blocks):
                for item in range(start, end):
                    t, k = divmod(item - start, len(templates))
                    name = templates[k].format(t)
                    if index.setdefault(name, item) != item:
                        raise ModelError(f"duplicate {self.kind} name {name!r}")
            self._index = index
        return self._index


class Model:
    """Flat store of columns, rows and matrix entries, and one linear objective,
    always maximized (every cost an rvpp builder writes is a profit)."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        # Free-form build metadata (scenario handles, decode hints).  Not handed to the backend.
        self.tags: dict = {}
        # Per column, per row, and per matrix entry, in insertion order.
        self._lower, self._upper, self._integrality, self._cost = [], [], [], []
        self._row_lower, self._row_upper = [], []
        self._entry_rows, self._entry_cols, self._entry_vals = [], [], []
        self._col_names, self._row_names = _Names("variable"), _Names("constraint")
        self._arrays: ModelArrays | None = None

    @staticmethod
    def escape(text: str) -> str:
        """text with its braces doubled, to stand for itself in a name template."""
        return text.replace("{", "{{").replace("}", "}}")

    def add_columns(
        self, template: str, count: int, kind: str = CONTINUOUS, lower=0.0, upper=math.inf, cost=0.0
    ) -> range:
        """Append count columns named template.format(t); return their ids.

        lower, upper and cost are each one number or count numbers.
        """
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r} for {template.format(0)!r}")
        lo = _per_item(lower, count, "lower bound", template, finite=False)
        hi = _per_item(upper, count, "upper bound", template, finite=False)
        costs = _per_item(cost, count, "cost", template)
        if kind == BINARY:  # clipped into [0, 1]; a NaN stays for the check below
            lo = [0.0 if v < 0.0 else v for v in lo]
            hi = [1.0 if v > 1.0 else v for v in hi]
        if not all(map(operator.le, lo, hi)):
            t = _first(map(operator.le, lo, hi))
            raise ModelError(f"NaN or inverted bounds on {template.format(t)!r}: [{lo[t]}, {hi[t]}]")
        start = len(self._lower)
        self._col_names.add(start, (template,))
        self._lower += lo
        self._upper += hi
        self._integrality += [int(kind == BINARY)] * count
        self._cost += costs
        self._arrays = None
        return range(start, start + count)

    def add_rows(self, count: int, families) -> range:
        """Append count periods of interleaved rows; return the block's row ids.

        families holds (template, sense, rhs, terms) per family; row t of
        family k is named template.format(t) and has row id start + t*K + k,
        K = len(families), so family k's ids are the result[k::K].  rhs is
        one number or count numbers.  terms holds (ids, coef) pairs: ids is
        one column id or count of them (one per row), coef one number or
        count numbers.
        """
        start, width = len(self._row_lower), len(families)
        lower, upper = [0.0] * (width * count), [0.0] * (width * count)
        rows, cols, vals = [], [], []
        for k, (template, sense, rhs, terms) in enumerate(families):
            if sense not in _SENSES:
                raise ModelError(f"unknown constraint sense {sense!r} for {template.format(0)!r}")
            rhs = _per_item(rhs, count, "rhs", template)
            lower[k::width] = [-math.inf] * count if sense == SENSE_LE else rhs
            upper[k::width] = [math.inf] * count if sense == SENSE_GE else rhs
            family_rows = range(start + k, start + width * count, width)
            for ids, coef in terms:
                ids = [ids] * count if isinstance(ids, int) else ids
                coef = [coef] * count if isinstance(coef, (int, float)) else coef
                if len(ids) != count or len(coef) != count:
                    raise ModelError(f"a term of {template.format(0)!r} has {len(ids)} ids, {len(coef)} coefficients")
                rows += family_rows
                cols += ids
                vals += coef

        def named(i: int) -> str:  # the row of entry i
            t, k = divmod(rows[i] - start, width)
            return families[k][0].format(t)

        n = len(self._lower)
        if cols and (min(cols) < 0 or max(cols) >= n):
            i = _first(0 <= j < n for j in cols)
            raise ModelError(f"constraint {named(i)!r} references unknown variable id {cols[i]}")
        if not all(map(math.isfinite, vals)):
            raise ModelError(f"non-finite coefficient in constraint {named(_first(map(math.isfinite, vals)))!r}")
        self._row_names.add(start, tuple(f[0] for f in families))
        self._row_lower += lower
        self._row_upper += upper
        self._entry_rows += rows
        self._entry_cols += cols
        self._entry_vals += vals
        self._arrays = None
        return range(start, start + width * count)

    def arrays(self) -> ModelArrays:
        """The store as numpy arrays, made once per change."""
        if self._arrays is None:
            vals = np.array(self._entry_vals, dtype=float)
            keep = vals != 0.0
            rows, cols = (np.array(e, dtype=np.int32)[keep] for e in (self._entry_rows, self._entry_cols))
            order = np.lexsort((rows, cols))
            rows, cols, vals = rows[order], cols[order], vals[keep][order]
            summed = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if summed.any():
                heads = np.flatnonzero(np.concatenate(([True], ~summed)))
                rows, cols, vals = rows[heads], cols[heads], np.add.reduceat(vals, heads)
                keep = vals != 0.0
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
            bounds = map(np.array, (self._lower, self._upper, self._row_lower, self._row_upper))
            integrality = np.array(self._integrality, dtype=np.int32)
            self._arrays = ModelArrays(np.array(self._cost), integrality, *bounds, rows, cols, vals)
        return self._arrays

    def col_name(self, index: int) -> str:
        return self._col_names.name(int(index))

    def row_name(self, index: int) -> str:
        return self._row_names.name(int(index))

    def _variable(self, index: int, name: str) -> Variable:
        kind = BINARY if self._integrality[index] else CONTINUOUS
        return Variable(index, name, kind, self._lower[index], self._upper[index])

    @property
    def variables(self) -> list[Variable]:
        return [self._variable(j, name) for name, j in self._col_names.index(len(self._lower)).items()]

    @property
    def constraints(self) -> list[Constraint]:
        names = list(self._row_names.index(len(self._row_lower)))
        arrays = self.arrays()
        order = np.argsort(arrays.rows, kind="stable")
        rows = arrays.rows[order]
        terms = list(zip(arrays.cols[order].tolist(), arrays.vals[order].tolist()))
        ends = np.searchsorted(rows, np.arange(len(self._row_lower)), side="right").tolist()
        out, begin = [], 0
        for r, (lo, hi, end) in enumerate(zip(self._row_lower, self._row_upper, ends)):
            sense = SENSE_LE if lo == -math.inf else SENSE_GE if hi == math.inf else SENSE_EQ
            expr = LinearExpression(tuple(terms[begin:end]))
            out.append(Constraint(names[r], expr, sense, hi if sense == SENSE_LE else lo))
            begin = end
        return out

    def variable(self, name: str) -> Variable:
        try:
            return self._variable(self._col_names.index(len(self._lower))[name], name)
        except KeyError:
            raise ModelError(f"no variable named {name!r}") from None

    def binary_count(self) -> int:
        return sum(self._integrality)


def solve(model: Model, backend) -> Solution:
    """Maximize the model's objective with the backend and cross-check what it returns.

    On an optimal status every value is validated against its bounds (within
    1e-6) and the objective is recomputed from the values; a backend whose
    reported objective disagrees beyond 1e-5 relative is rejected, and so is
    a NaN value or objective.  Any other status comes back with a NaN
    objective and no values; the caller decides what it means.
    """
    backend.load(model)
    backend.optimize()
    status = backend.status()
    if status not in (STATUS_OPTIMAL, STATUS_INFEASIBLE, STATUS_UNBOUNDED, STATUS_LIMIT):
        raise BackendError(f"backend {backend.name!r} reported unknown status {status!r}")
    if status != STATUS_OPTIMAL:
        return Solution(status, math.nan, np.empty(0))
    arrays = model.arrays()
    values = np.asarray(backend.values(), dtype=float)
    if len(values) != len(arrays.lower):
        raise BackendError(f"backend {backend.name!r} returned {len(values)} values for {len(arrays.lower)} columns")
    outside = ~((values >= arrays.lower - FEASIBILITY_TOL) & (values <= arrays.upper + FEASIBILITY_TOL))
    if outside.any():
        j = int(np.flatnonzero(outside)[0])
        raise BackendError(
            f"backend {backend.name!r} violates bounds on {model.col_name(j)!r}: "
            f"{float(values[j])} outside [{float(arrays.lower[j])}, {float(arrays.upper[j])}]"
        )
    reported = backend.objective_value()
    recomputed = float(arrays.cost @ values)
    scale = max(1.0, abs(reported), abs(recomputed))
    if not abs(reported - recomputed) <= OPTIMALITY_REL_TOL * scale:
        raise BackendError(
            f"backend {backend.name!r} objective {reported} disagrees with "
            f"recomputed {recomputed}"
        )
    return Solution(STATUS_OPTIMAL, reported, values)
