"""Linear/mixed-integer program representation with a built-in solver.

The built-in solver is a dense two-phase primal simplex plus depth-first
branch-and-bound over binary variables. It targets desk-scale instances
(hundreds of rows/columns); correctness and determinism are preferred over
speed. The simplex solves a batch of same-shape LPs at once, each taking
exactly the pivots it would take alone; a single LP is the batch of one. An
external solver can be plugged in through MPS export / solution import
driven by a command template.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

INF = math.inf

FEAS_TOL = 1e-6
INT_TOL = 1e-6
PIVOT_TOL = 1e-9
# Bytes of simplex tableau one batch may hold at once; a larger batch of LPs
# is solved in chunks of this size. 1 MiB holds a dozen CLA fits of a 20-bus
# feeder: larger chunks save little time and add resident memory.
BATCH_BYTES = 1 << 20

EXTERNAL_SOLVER_ENV = "GRIDEVAC_SOLVER_CMD"


class ProgramError(ValueError):
    """Malformed program: duplicate names, unknown variables, bad bounds."""


@dataclass
class Variable:
    name: str
    kind: str = "continuous"  # 'continuous' | 'binary'
    lower: float = 0.0
    upper: float = INF


@dataclass
class Constraint:
    name: str
    terms: Dict[str, float]
    relation: str  # '<=' | '>=' | '=='
    rhs: float


@dataclass
class Solution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded' | 'limit'
    values: Dict[str, float] = field(default_factory=dict)
    objective: float = math.nan
    gap: float = 0.0
    duals: Optional[Dict[str, float]] = None
    message: str = ""
    nodes: int = 0


class Program:
    def __init__(self, name: str = "prog", sense: str = "min"):
        if sense not in ("min", "max"):
            raise ProgramError(f"objective sense {sense!r} must be 'min' or 'max'")
        self.name = name
        self.sense = sense
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: Dict[str, float] = {}
        self._var_index: Dict[str, int] = {}
        self._con_names: set = set()

    def add_variable(self, name: str, kind: str = "continuous",
                     lower: float = 0.0, upper: float = INF) -> str:
        if name in self._var_index:
            raise ProgramError(f"duplicate variable name {name!r}")
        if kind not in ("continuous", "binary"):
            raise ProgramError(f"variable {name!r}: unknown kind {kind!r}")
        if kind == "binary":
            lower, upper = 0.0, 1.0
        if lower > upper:
            raise ProgramError(f"variable {name!r}: lower {lower} > upper {upper}")
        self._var_index[name] = len(self.variables)
        self.variables.append(Variable(name, kind, float(lower), float(upper)))
        return name

    def add_constraint(self, name: str, terms: Dict[str, float],
                       relation: str, rhs: float) -> str:
        if name in self._con_names:
            raise ProgramError(f"duplicate constraint name {name!r}")
        if relation not in ("<=", ">=", "=="):
            raise ProgramError(f"constraint {name!r}: bad relation {relation!r}")
        for v in terms:
            if v not in self._var_index:
                raise ProgramError(f"constraint {name!r}: unknown variable {v!r}")
        self._con_names.add(name)
        self.constraints.append(
            Constraint(name, {v: float(c) for v, c in terms.items() if c != 0.0},
                       relation, float(rhs))
        )
        return name

    def set_objective(self, terms: Dict[str, float], sense: Optional[str] = None) -> None:
        for v in terms:
            if v not in self._var_index:
                raise ProgramError(f"objective: unknown variable {v!r}")
        self.objective = {v: float(c) for v, c in terms.items() if c != 0.0}
        if sense is not None:
            if sense not in ("min", "max"):
                raise ProgramError(f"objective sense {sense!r}")
            self.sense = sense

    @property
    def binaries(self) -> List[str]:
        return [v.name for v in self.variables if v.kind == "binary"]

    def check_feasible(self, values: Dict[str, float], tol: float = FEAS_TOL) -> Optional[str]:
        """Return the name of a violated constraint/bound, or None if feasible."""
        for v in self.variables:
            x = values.get(v.name, 0.0)
            if x < v.lower - tol or x > v.upper + tol:
                return f"bound:{v.name}"
            if v.kind == "binary" and min(abs(x), abs(x - 1.0)) > tol:
                return f"integrality:{v.name}"
        for con in self.constraints:
            lhs = sum(c * values.get(v, 0.0) for v, c in con.terms.items())
            if con.relation == "<=" and lhs > con.rhs + tol:
                return con.name
            if con.relation == ">=" and lhs < con.rhs - tol:
                return con.name
            if con.relation == "==" and abs(lhs - con.rhs) > tol:
                return con.name
        return None

    def objective_value(self, values: Dict[str, float]) -> float:
        return sum(c * values.get(v, 0.0) for v, c in self.objective.items())


# ---------------------------------------------------------------------------
# Dense two-phase primal simplex
# ---------------------------------------------------------------------------

@dataclass
class _StdForm:
    """min c'y  s.t.  A y = b, y >= 0, built from a Program.

    Tracks how each standard-form column maps back to original variables and
    how each row maps back to original constraints (for duals).
    """
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    # per original variable: ('shift', col, offset) | ('mirror', col, offset) |
    # ('split', col_pos, col_neg) | ('fixed', value)
    var_map: List[tuple]
    row_flip: List[float]  # +1/-1 per row, original-constraint rows first
    n_orig_rows: int
    obj_const: float
    sense_flip: float  # +1 if program was min, -1 if max


def _standardize(prog: Program, bound_override: Optional[Dict[str, Tuple[float, float]]] = None
                 ) -> Optional[_StdForm]:
    """Convert to equality standard form. Returns None if a bound is inconsistent."""
    override = bound_override or {}
    sense_flip = 1.0 if prog.sense == "min" else -1.0

    var_map: List[tuple] = []
    ncol = 0
    extra_rows: List[Tuple[Dict[int, float], float]] = []  # upper-bound rows on std cols
    obj_const = 0.0
    c_entries: Dict[int, float] = {}

    for var in prog.variables:
        lo, up = override.get(var.name, (var.lower, var.upper))
        if lo > up + 1e-12:
            return None
        coef = sense_flip * prog.objective.get(var.name, 0.0)
        if abs(up - lo) <= 1e-12:
            var_map.append(("fixed", float(lo)))
            obj_const += coef * lo
        elif lo > -INF:
            col = ncol
            ncol += 1
            var_map.append(("shift", col, float(lo)))
            obj_const += coef * lo
            c_entries[col] = coef
            if up < INF:
                extra_rows.append(({col: 1.0}, up - lo))
        elif up < INF:
            col = ncol
            ncol += 1
            var_map.append(("mirror", col, float(up)))  # x = up - y
            obj_const += coef * up
            c_entries[col] = -coef
        else:
            cp, cn = ncol, ncol + 1
            ncol += 2
            var_map.append(("split", cp, cn))
            c_entries[cp] = coef
            c_entries[cn] = -coef

    def expand(terms: Dict[str, float]) -> Tuple[Dict[int, float], float]:
        row: Dict[int, float] = {}
        const = 0.0
        for vname, coef in terms.items():
            vi = prog._var_index[vname]
            m = var_map[vi]
            if m[0] == "fixed":
                const += coef * m[1]
            elif m[0] == "shift":
                row[m[1]] = row.get(m[1], 0.0) + coef
                const += coef * m[2]
            elif m[0] == "mirror":
                row[m[1]] = row.get(m[1], 0.0) - coef
                const += coef * m[2]
            else:
                row[m[1]] = row.get(m[1], 0.0) + coef
                row[m[2]] = row.get(m[2], 0.0) - coef
        return row, const

    rows: List[Tuple[Dict[int, float], str, float]] = []
    for con in prog.constraints:
        row, const = expand(con.terms)
        rows.append((row, con.relation, con.rhs - const))
    n_orig_rows = len(rows)
    for row, rhs in extra_rows:
        rows.append((dict(row), "<=", rhs))

    m = len(rows)
    nslack = sum(1 for _, rel, _ in rows if rel != "==")
    A = np.zeros((m, ncol + nslack))
    b = np.zeros(m)
    row_flip = []
    si = ncol
    for i, (row, rel, rhs) in enumerate(rows):
        flip = 1.0
        srow = dict(row)
        if rel == "<=":
            srow[si] = 1.0
            si += 1
        elif rel == ">=":
            srow[si] = -1.0
            si += 1
        if rhs < 0:
            flip = -1.0
            rhs = -rhs
            srow = {j: -v for j, v in srow.items()}
        for j, v in srow.items():
            A[i, j] = v
        b[i] = rhs
        row_flip.append(flip)

    c = np.zeros(ncol + nslack)
    for j, v in c_entries.items():
        c[j] = v
    return _StdForm(A=A, b=b, c=c, var_map=var_map, row_flip=row_flip,
                    n_orig_rows=n_orig_rows, obj_const=obj_const, sense_flip=sense_flip)


def _pivot(tab: np.ndarray, basis: np.ndarray, lps: np.ndarray, rows: np.ndarray,
           cols: np.ndarray, sparse: bool = False) -> None:
    """Pivot tableau ``lps[i]`` of the batch ``tab`` (B, m+1, n+1) on
    (``rows[i]``, ``cols[i]``), in place.

    A full pivot subtracts piv * prow from every row, piv being the pivot
    column with a zero at the pivot row and prow the scaled pivot row. With
    ``sparse``, which the caller may pass only while no constraint row of
    these tableaux holds a -0.0, only the columns where prow is nonzero are
    updated. While piv is finite that is exact: a skipped entry x would
    become x - piv * (+-0) = x, x not being -0.0, except in the pivot row,
    where a full pivot turns a -0.0 into +0.0 (written as prow + 0.0). Both
    kinds of pivot leave no -0.0 in a constraint row.
    """
    k = np.arange(lps.size)
    prow = tab[lps, rows] / tab[lps, rows, cols][:, None]
    piv = tab[lps, :, cols]
    piv[k, rows] = 0.0
    if sparse and np.isfinite(piv).all():
        tab[lps, rows] = prow + 0.0
        i, j = np.nonzero(prow)
        tab[lps[i], :, j] -= piv[i] * prow[i, j][:, None]
    else:
        tab[lps, rows] = prow
        tab[lps] -= piv[:, :, None] * prow[:, None, :]
    basis[lps, rows] = cols


def _run_simplex(tab: np.ndarray, basis: np.ndarray, n: int, max_iter: int,
                 alive: Optional[np.ndarray] = None) -> np.ndarray:
    """Minimize every tableau of a batch on its cost row, in place.

    ``tab`` is (B, m+1, n+1): constraint rows, then the cost row, with the
    right-hand side in column n; ``basis`` (B, m) holds each row's basic
    column, and rows whose ``alive`` entry is False take no part. Returns a
    status per LP: 'optimal' | 'unbounded' | 'limit'.

    Each LP pivots as it would alone: Dantzig rule by default, switching for
    good to Bland's rule once its objective stalls (degeneracy guard); ties
    always break on the lowest index, so the pivot sequence is deterministic.
    An LP leaves the batch when it stops. All LPs start together, so they
    share the iteration count and the cap ``max_iter``.
    """
    B, m = basis.shape
    if alive is None:
        alive = np.ones((B, m), dtype=bool)
    status = np.full(B, "limit", dtype=object)
    # Sparse pivots need a live constraint row free of -0.0, which every
    # pivot keeps so (see _pivot); dead rows are never read.
    negative_zero = tab[:, :m].view(np.int64) == np.int64(-2 ** 63)
    sparse = not (negative_zero.any(axis=2) & alive).any()
    # The LPs still running; the per-LP state below follows it.
    lps = k = np.arange(B)
    live = alive
    bland = np.zeros(B, dtype=bool)
    stall = np.zeros(B, dtype=int)
    last_obj = tab[:, m, n].copy()
    stall_cap = 2 * (alive.sum(axis=1) + n)
    for _ in range(max_iter):
        costs = tab[lps, m, :n]
        if bland.any():
            neg = costs < -PIVOT_TOL
            col = np.where(bland, neg.argmax(axis=1), costs.argmin(axis=1))
            optimal = np.where(bland, ~neg.any(axis=1), costs[k, col] >= -PIVOT_TOL)
        else:
            col = costs.argmin(axis=1)
            optimal = costs[k, col] >= -PIVOT_TOL
        colv = tab[lps, :m, col]
        ratios = np.full((lps.size, m), np.inf)
        np.divide(tab[lps, :m, n], colv, out=ratios, where=(colv > PIVOT_TOL) & live)
        best = ratios.min(axis=1) if m else np.full(lps.size, np.inf)
        stop = optimal | ~np.isfinite(best)
        if stop.any():
            status[lps[stop]] = np.where(optimal[stop], "optimal", "unbounded")
            go = ~stop
            if not go.any():
                break
            lps, live, col, ratios, best = lps[go], live[go], col[go], ratios[go], best[go]
            bland, stall, last_obj, stall_cap = bland[go], stall[go], last_obj[go], stall_cap[go]
            k = np.arange(lps.size)
        cand = ratios <= (best + 1e-12)[:, None]
        row = cand.argmax(axis=1)
        if bland.any():
            lowest = np.where(cand, basis[lps], np.iinfo(basis.dtype).max).argmin(axis=1)
            row = np.where(bland, lowest, row)
        _pivot(tab, basis, lps, row, col, sparse)
        obj = tab[lps, m, n]
        same = np.abs(obj - last_obj) <= 1e-12
        stall = (stall + 1) * same
        bland |= stall > stall_cap
        last_obj = np.where(same, last_obj, obj)
    return status


def _start_basis(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each row's starting basic column, or -1 where it needs an artificial.

    A column with a single nonzero, a clean +1, and zero cost can start basic
    in its row; among several for one row the last column wins.
    """
    B, m, n = A.shape
    basis = np.full((B, m), -1)
    if not m:
        return basis
    nz = A != 0.0
    row = nz.argmax(axis=1)  # (B, n): the row of a unit column's nonzero
    lp, j = np.nonzero((nz.sum(axis=1) == 1) & (c == 0.0))
    one = A[lp, row[lp, j], j] == 1.0
    np.maximum.at(basis, (lp[one], row[lp[one], j[one]]), j[one])
    return basis


def _solve_group(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray,
                 max_iter: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-phase simplex over LPs that share their starting ``basis`` (G, m).

    Returns (status, y, alive); ``basis`` is updated in place to each LP's
    final basis, and ``alive`` marks the rows phase 1 kept (a redundant row
    whose artificial cannot leave the basis is dropped).
    """
    G, m, n = A.shape
    status = np.full(G, "optimal", dtype=object)
    alive = np.ones((G, m), dtype=bool)
    art = np.nonzero(basis[0] < 0)[0]
    n_art = art.size
    tab = np.zeros((G, m + 1, n + n_art + 1))
    tab[:, :m, :n] = A
    tab[:, :m, -1] = b
    if n_art:
        basis[:, art] = n + np.arange(n_art)
        tab[:, art, n + np.arange(n_art)] = 1.0
        tab[:, m, n:-1] = 1.0
        for i in art:  # price out the initial basis
            tab[:, m] -= tab[:, i]
        phase1 = _run_simplex(tab, basis, n + n_art, max_iter)
        status[phase1 != "optimal"] = "limit"
        status[(phase1 == "optimal") & (-tab[:, m, -1] > 1e-7)] = "infeasible"
        # Drive remaining artificials out of the basis.
        for g in np.nonzero((status == "optimal") & (basis >= n).any(axis=1))[0]:
            for i in np.nonzero(basis[g] >= n)[0]:
                cols = np.nonzero(np.abs(tab[g, i, :n]) > PIVOT_TOL)[0]
                if cols.size:
                    _pivot(tab, basis, np.array([g]), np.array([i]), cols[:1])
                else:
                    alive[g, i] = False  # redundant row
    go = np.nonzero(status == "optimal")[0]
    y = np.zeros((G, n))
    if not go.size:
        return status, y, alive
    if go.size < G:
        tab = tab[go]
    # Drop the artificial columns: the right-hand side moves to column n.
    tab[:, :, n] = tab[:, :, -1]
    tab = tab[:, :, :n + 1]
    gbasis, galive, gc = basis[go], alive[go], c[go]

    # Phase 2.
    tab[:, m] = 0.0
    tab[:, m, :n] = gc
    cost = np.take_along_axis(gc, np.where(galive, gbasis, 0), axis=1)
    cost[~galive] = 0.0
    for i in range(m):
        sel = cost[:, i] != 0.0
        if sel.any():
            tab[sel, m] -= cost[sel, i, None] * tab[sel, i]
    phase2 = _run_simplex(tab, gbasis, n, max_iter, galive)
    status[go] = phase2
    basis[go] = gbasis
    g, i = np.nonzero(galive & (gbasis < n) & (phase2 == "optimal")[:, None])
    y[go[g], gbasis[g, i]] = tab[g, i, n]
    return status, y, alive


def two_phase_batches(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                       max_iter: Optional[int] = None
                       ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                           np.ndarray, np.ndarray]]:
    """Solve min c'y, Ay=b, y>=0 for a batch of LPs of one shape.

    ``A`` is (B, m, n) (a broadcast view is fine), ``b`` (B, m) and ``c``
    (n,) or (B, n). Every LP takes exactly the pivots it would take alone.
    The batch runs in chunks of at most BATCH_BYTES of tableau; within a
    chunk, LPs that share a starting basis run together, and their results
    are yielded as soon as they are solved, as (lps, status, y, basis,
    alive): the LPs' indices in the batch, a status per LP ('optimal' |
    'infeasible' | 'unbounded' | 'limit'), their optimal points (zero rows
    elsewhere), and each LP's final basis and the rows it kept.
    """
    B, m, n = A.shape
    c = np.broadcast_to(c, (B, n))
    if max_iter is None:
        max_iter = 200 * (m + n + 10)
    chunk = max(1, BATCH_BYTES // (8 * (m + 1) * (n + m + 1)))
    for lo in range(0, B, chunk):
        part = slice(lo, min(lo + chunk, B))
        start = _start_basis(A[part], c[part])
        groups: Dict[bytes, List[int]] = {}
        for g, row in enumerate(start):
            groups.setdefault(row.tobytes(), []).append(g)
        for members in groups.values():
            lps = np.arange(B)[part][members]
            if len(members) == start.shape[0]:  # the whole chunk: keep views
                gA, gb, gc = A[part], b[part], c[part]
            else:
                gA, gb, gc = A[lps], b[lps], c[lps]
            basis = start[members]
            status, y, alive = _solve_group(gA, gb, gc, basis, max_iter)
            yield lps, status, y, basis, alive


def _two_phase(std: _StdForm, max_iter: Optional[int] = None
               ) -> Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]:
    """Solve min c'y, Ay=b, y>=0: the batch of one. Returns (status, y, duals_y)."""
    ((_, status, y, basis, alive),) = two_phase_batches(
        std.A[None], std.b[None], std.c, max_iter)
    if status[0] != "optimal":
        return (status[0], None, None)
    # Duals from the final basis: solve B' yd = c_B on the *original* rows.
    duals = None
    if alive.all():
        B = std.A[:, basis[0]]
        try:
            duals = np.linalg.solve(B.T, std.c[basis[0]])
        except np.linalg.LinAlgError:
            duals = None
    return ("optimal", y[0], duals)


def _solution_from_std(prog: Program, std: _StdForm, status: str,
                       y: Optional[np.ndarray],
                       duals_y: Optional[np.ndarray]) -> Solution:
    if status != "optimal":
        return Solution(status=status, message=f"simplex terminated with status {status}")
    values: Dict[str, float] = {}
    for var, m in zip(prog.variables, std.var_map):
        if m[0] == "fixed":
            values[var.name] = m[1]
        elif m[0] == "shift":
            values[var.name] = m[2] + float(y[m[1]])
        elif m[0] == "mirror":
            values[var.name] = m[2] - float(y[m[1]])
        else:
            values[var.name] = float(y[m[1]] - y[m[2]])
    duals = None
    if duals_y is not None:
        duals = {
            con.name: std.sense_flip * std.row_flip[i] * float(duals_y[i])
            for i, con in enumerate(prog.constraints)
        }
    return Solution(status="optimal", values=values,
                    objective=prog.objective_value(values), duals=duals)


def solve_lp(prog: Program,
             bound_override: Optional[Dict[str, Tuple[float, float]]] = None,
             _allow_binaries: bool = False, backend: str = "builtin") -> Solution:
    """Solve a pure LP.

    backend 'builtin' runs the two-phase primal simplex; 'highs' delegates to
    scipy's HiGHS wrapper (same contract, much faster on larger programs).
    """
    if prog.binaries and not _allow_binaries:
        raise ProgramError("solve_lp requires a program without binaries; use solve_milp")
    if backend == "highs":
        return _solve_highs(prog, bound_override, relax_binaries=True)
    std = _standardize(prog, bound_override)
    if std is None:
        return Solution(status="infeasible", message="inconsistent bound overrides")
    status, y, duals_y = _two_phase(std)
    return _solution_from_std(prog, std, status, y, duals_y)


def _to_arrays(prog: Program,
               bound_override: Optional[Dict[str, Tuple[float, float]]] = None):
    import numpy as _np

    override = bound_override or {}
    n = len(prog.variables)
    idx = prog._var_index
    c = _np.zeros(n)
    for vname, coef in prog.objective.items():
        c[idx[vname]] = coef
    if prog.sense == "max":
        c = -c
    m = len(prog.constraints)
    A = _np.zeros((m, n))
    lb = _np.empty(m)
    ub = _np.empty(m)
    for i, con in enumerate(prog.constraints):
        for vname, coef in con.terms.items():
            A[i, idx[vname]] = coef
        if con.relation == "<=":
            lb[i], ub[i] = -_np.inf, con.rhs
        elif con.relation == ">=":
            lb[i], ub[i] = con.rhs, _np.inf
        else:
            lb[i] = ub[i] = con.rhs
    vlo = _np.array([override.get(v.name, (v.lower, v.upper))[0] for v in prog.variables])
    vup = _np.array([override.get(v.name, (v.lower, v.upper))[1] for v in prog.variables])
    return c, A, lb, ub, vlo, vup


def _solve_highs(prog: Program,
                 bound_override: Optional[Dict[str, Tuple[float, float]]] = None,
                 relax_binaries: bool = False, node_limit: Optional[int] = None
                 ) -> Solution:
    from scipy.optimize import Bounds, LinearConstraint, milp as _milp

    c, A, lb, ub, vlo, vup = _to_arrays(prog, bound_override)
    if np.any(vlo > vup + 1e-12):
        return Solution(status="infeasible", message="inconsistent bound overrides")
    integrality = np.array(
        [0 if relax_binaries or v.kind != "binary" else 1 for v in prog.variables]
    )
    # A zero gap proves the optimum, not just a point within 1e-4 of it: the
    # scheduling program's tie-break between equal-gamma schedules is worth
    # less than HiGHS's default relative gap.
    options = {"mip_rel_gap": 0.0}
    if node_limit is not None:
        options["node_limit"] = int(node_limit)
    res = _milp(
        c=c,
        constraints=LinearConstraint(A, lb, ub) if len(prog.constraints) else (),
        integrality=integrality,
        bounds=Bounds(vlo, np.minimum(vup, 1e30)),
        options=options,
    )
    status_map = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded", 4: "limit"}
    status = status_map.get(res.status, "limit")
    if res.x is None:
        return Solution(status=status, message=str(res.message))
    values = {v.name: float(x) for v, x in zip(prog.variables, res.x)}
    gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
    return Solution(status=status, values=values,
                    objective=prog.objective_value(values), gap=gap,
                    message=str(res.message))


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def solve_milp(prog: Program, node_limit: int = 200000,
               gap_tol: float = 1e-6, backend: str = "highs") -> Solution:
    """Branch-and-bound on binary variables.

    backend 'builtin' is the depth-first B&B below: LP relaxations replace
    binaries with [0,1] bounds (fixed variables are removed before the
    simplex runs), branching picks the most fractional binary, and the child
    on the rounded-nearest side is explored first; all tie breaks use
    declaration order, so solves are deterministic. backend 'highs' (the
    default) delegates to scipy's HiGHS MILP solver behind the identical
    contract, at a zero relative gap.
    """
    if backend == "highs":
        sol = _solve_highs(prog, node_limit=node_limit)
        if sol.status == "optimal":
            # Snap binaries and guard against solver tolerance artifacts.
            bad = prog.check_feasible(sol.values)
            if bad is not None:
                raise ProgramError(f"external backend returned infeasible point ({bad})")
        return sol
    binaries = prog.binaries
    if not binaries:
        sol = solve_lp(prog)
        return sol

    maximize = prog.sense == "max"
    better = (lambda a, b: a > b + gap_tol) if maximize else (lambda a, b: a < b - gap_tol)

    incumbent: Optional[Dict[str, float]] = None
    inc_obj = -INF if maximize else INF
    # Stack entries: (fixes, parent_bound); LIFO gives DFS.
    root_bound = INF if maximize else -INF
    stack: List[Tuple[Dict[str, Tuple[float, float]], float]] = [({}, root_bound)]
    nodes = 0
    status = "optimal"

    while stack:
        if nodes >= node_limit:
            status = "limit"
            break
        fixes, parent_bound = stack.pop()
        if incumbent is not None and not better(parent_bound, inc_obj):
            continue
        nodes += 1
        rel = solve_lp(prog, bound_override=fixes, _allow_binaries=True)
        if rel.status == "infeasible":
            continue
        if rel.status == "unbounded":
            return Solution(status="unbounded", nodes=nodes,
                            message="LP relaxation unbounded")
        if rel.status == "limit":
            status = "limit"
            continue
        bound = rel.objective
        if incumbent is not None and not better(bound, inc_obj):
            continue
        frac_var = None
        frac_dist = -1.0
        for name in binaries:
            x = rel.values[name]
            d = abs(x - round(x))
            if d > INT_TOL and abs(d - 0.5) < abs(0.5 - frac_dist) - 1e-15:
                # most fractional: distance-to-integer closest to 0.5
                frac_var = name
                frac_dist = d
        if frac_var is None:
            # Integral relaxation: candidate incumbent.
            vals = dict(rel.values)
            for name in binaries:
                vals[name] = float(round(vals[name]))
            obj = prog.objective_value(vals)
            if incumbent is None or better(obj, inc_obj):
                incumbent = vals
                inc_obj = obj
            continue
        x = rel.values[frac_var]
        first = 1.0 if x >= 0.5 else 0.0
        far = {**fixes, frac_var: (1.0 - first, 1.0 - first)}
        near = {**fixes, frac_var: (first, first)}
        stack.append((far, bound))
        stack.append((near, bound))

    if incumbent is None:
        if status == "limit":
            return Solution(status="limit", nodes=nodes,
                            message="node limit reached without incumbent")
        return Solution(status="infeasible", nodes=nodes)
    gap = 0.0
    if status == "limit" and stack:
        open_bounds = [b for _, b in stack]
        best_open = max(open_bounds) if maximize else min(open_bounds)
        if math.isfinite(best_open):
            gap = abs(best_open - inc_obj)
        else:
            gap = INF
    return Solution(status="optimal" if status == "optimal" else "limit",
                    values=incumbent, objective=inc_obj, gap=gap, nodes=nodes)


# ---------------------------------------------------------------------------
# MPS export / solution import / external solver
# ---------------------------------------------------------------------------

_MPS_NAME_RE = re.compile(r"^[A-Za-z0-9_]{1,8}$")


def _name_table(prog: Program) -> Tuple[Dict[str, str], bool]:
    """Map program names to MPS-safe (<=8 char) names; flag if remapped."""
    names = [v.name for v in prog.variables] + [c.name for c in prog.constraints]
    if all(_MPS_NAME_RE.match(n) for n in names) and len(set(names)) == len(names):
        return {n: n for n in names}, False
    table = {}
    for i, v in enumerate(prog.variables):
        table[v.name] = f"X{i:07d}"
    for i, c in enumerate(prog.constraints):
        table[c.name] = f"R{i:07d}"
    return table, True


def export_mps(prog: Program, path: str) -> None:
    """Write fixed-format MPS with OBJSENSE; binaries appear as BV bounds.

    If any name exceeds MPS's 8-character field, all names are remapped and
    the mapping is written to a sidecar ``<path>.names.json``.
    """
    table, remapped = _name_table(prog)
    lines = []
    lines.append(f"NAME          {prog.name[:60]}")
    lines.append("OBJSENSE")
    lines.append(f"    {'MAX' if prog.sense == 'max' else 'MIN'}")
    lines.append("ROWS")
    lines.append(" N  COST")
    rel_code = {"<=": "L", ">=": "G", "==": "E"}
    for con in prog.constraints:
        lines.append(f" {rel_code[con.relation]}  {table[con.name]}")
    lines.append("COLUMNS")
    col_rows: Dict[str, List[Tuple[str, float]]] = {v.name: [] for v in prog.variables}
    for vname, coef in prog.objective.items():
        col_rows[vname].append(("COST", coef))
    for con in prog.constraints:
        for vname, coef in con.terms.items():
            col_rows[vname].append((table[con.name], coef))
    for var in prog.variables:
        entries = col_rows[var.name]
        for k in range(0, len(entries), 2):
            pair = entries[k:k + 2]
            fields = "".join(f"  {row:<8}  {val:< .11E}" for row, val in pair)
            lines.append(f"    {table[var.name]:<8}{fields}")
    lines.append("RHS")
    rhs_entries = [(table[c.name], c.rhs) for c in prog.constraints if c.rhs != 0.0]
    for k in range(0, len(rhs_entries), 2):
        pair = rhs_entries[k:k + 2]
        fields = "".join(f"  {row:<8}  {val:< .11E}" for row, val in pair)
        lines.append(f"    RHS     {fields}")
    lines.append("BOUNDS")
    for var in prog.variables:
        vn = table[var.name]
        if var.kind == "binary":
            lines.append(f" BV BND       {vn}")
            continue
        lo, up = var.lower, var.upper
        if lo == 0.0 and up == INF:
            continue
        if lo == -INF and up == INF:
            lines.append(f" FR BND       {vn}")
            continue
        if lo == -INF:
            lines.append(f" MI BND       {vn}")
        elif lo != 0.0:
            lines.append(f" LO BND       {vn}  {lo:< .11E}")
        if up < INF:
            lines.append(f" UP BND       {vn}  {up:< .11E}")
    lines.append("ENDATA")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if remapped:
        with open(str(path) + ".names.json", "w") as fh:
            json.dump({short: orig for orig, short in table.items()}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")


def import_solution(prog: Program, sol_path: str,
                    names_path: Optional[str] = None) -> Solution:
    """Parse a ``name value`` solution file and validate it against the program."""
    mapping: Dict[str, str] = {}
    if names_path and os.path.exists(names_path):
        with open(names_path) as fh:
            mapping = json.load(fh)
    known = {v.name for v in prog.variables}
    values = {v.name: 0.0 for v in prog.variables}
    with open(sol_path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ProgramError(f"{sol_path}:{lineno}: expected '<name> <value>'")
            name = mapping.get(parts[0], parts[0])
            if name not in known:
                raise ProgramError(f"{sol_path}:{lineno}: unknown variable {parts[0]!r}")
            try:
                values[name] = float(parts[1])
            except ValueError as exc:
                raise ProgramError(f"{sol_path}:{lineno}: bad value {parts[1]!r}") from exc
    bad = prog.check_feasible(values)
    if bad is not None:
        raise ProgramError(f"imported solution violates {bad}")
    return Solution(status="optimal", values=values,
                    objective=prog.objective_value(values))


def solve_external(prog: Program, cmd_template: Optional[str] = None,
                   workdir: str = ".") -> Solution:
    """Solve via an external command; template substitutes {mps} and {sol}."""
    if cmd_template is None:
        cmd_template = os.environ.get(EXTERNAL_SOLVER_ENV)
    if not cmd_template:
        raise ProgramError(
            f"no external solver configured (set {EXTERNAL_SOLVER_ENV} or pass a template)"
        )
    mps = os.path.join(workdir, f"{prog.name}.mps")
    sol = os.path.join(workdir, f"{prog.name}.sol")
    export_mps(prog, mps)
    cmd = cmd_template.format(mps=mps, sol=sol)
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ProgramError(
            f"external solver failed (exit {proc.returncode}): {proc.stderr.strip()[:500]}"
        )
    names = mps + ".names.json"
    return import_solution(prog, sol, names if os.path.exists(names) else None)
