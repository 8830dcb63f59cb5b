"""Linear/mixed-integer program representation with a built-in solver.

The built-in solver is a dense two-phase primal simplex plus depth-first
branch-and-bound over binary variables. It targets desk-scale instances
(hundreds of rows/columns); correctness and determinism are preferred over
speed. An external solver can be plugged in through MPS export / solution
import driven by a command template.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

INF = math.inf

FEAS_TOL = 1e-6
INT_TOL = 1e-6
PIVOT_TOL = 1e-9

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


def _pivot(tab: np.ndarray, basis: List[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    piv = tab[:, col].copy()
    piv[row] = 0.0
    tab -= piv[:, None] * tab[row]
    basis[row] = col


def _run_simplex(tab: np.ndarray, basis: List[int], m: int, n: int,
                 max_iter: int) -> str:
    """Minimize using the cost row tab[m]; returns 'optimal'|'unbounded'|'limit'.

    Dantzig rule by default; permanently switches to Bland's rule once the
    objective stalls (degeneracy guard). Ties always break on the lowest
    index, so the pivot sequence is deterministic.
    """
    bland = False
    stall = 0
    last_obj = tab[m, n]
    for _ in range(max_iter):
        costs = tab[m, :n]
        if bland:
            neg = np.nonzero(costs < -PIVOT_TOL)[0]
            if neg.size == 0:
                return "optimal"
            col = int(neg[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -PIVOT_TOL:
                return "optimal"
        ratios = np.full(m, np.inf)
        pos = tab[:m, col] > PIVOT_TOL
        ratios[pos] = tab[:m, n][pos] / tab[:m, col][pos]
        best = ratios.min() if m else np.inf
        if not np.isfinite(best):
            return "unbounded"
        cand = np.nonzero(ratios <= best + 1e-12)[0]
        if bland and cand.size > 1:
            row = int(min(cand, key=lambda i: basis[i]))
        else:
            row = int(cand[0])
        _pivot(tab, basis, row, col)
        if abs(tab[m, n] - last_obj) <= 1e-12:
            stall += 1
            if stall > 2 * (m + n):
                bland = True
        else:
            stall = 0
            last_obj = tab[m, n]
    return "limit"


def _two_phase(std: _StdForm, max_iter: Optional[int] = None
               ) -> Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]:
    """Solve min c'y, Ay=b, y>=0. Returns (status, y, duals_y)."""
    A, b, c = std.A, std.b, std.c
    m, n = A.shape
    if max_iter is None:
        max_iter = 200 * (m + n + 10)

    # Rows whose slack column is a clean +1 unit column can start basic;
    # the rest get artificials.
    basis: List[int] = [-1] * m
    nnz = np.count_nonzero(A, axis=0)
    unit_cols = np.nonzero((nnz == 1) & (c == 0.0))[0]
    taken = set()
    for j in unit_cols[::-1]:
        i = int(np.argmax(np.abs(A[:, j])))
        if A[i, j] == 1.0 and basis[i] == -1 and j not in taken:
            basis[i] = int(j)
            taken.add(int(j))
    art_rows = [i for i in range(m) if basis[i] == -1]

    n_art = len(art_rows)
    if n_art:
        A1 = np.hstack([A, np.zeros((m, n_art))])
        for k, i in enumerate(art_rows):
            A1[i, n + k] = 1.0
            basis[i] = n + k
        c1 = np.zeros(n + n_art)
        c1[n:] = 1.0
        tab = np.zeros((m + 1, n + n_art + 1))
        tab[:m, :-1] = A1
        tab[:m, -1] = b
        tab[m, :-1] = c1
        # Price out the initial basis.
        for i in range(m):
            if c1[basis[i]] != 0.0:
                tab[m] -= c1[basis[i]] * tab[i]
        status = _run_simplex(tab, basis, m, n + n_art, max_iter)
        if status != "optimal":
            return ("limit", None, None)
        if -tab[m, -1] > 1e-7:
            return ("infeasible", None, None)
        # Drive remaining artificials out of the basis.
        drop_rows = []
        for i in range(m):
            if basis[i] >= n:
                cols = np.nonzero(np.abs(tab[i, :n]) > PIVOT_TOL)[0]
                if cols.size:
                    _pivot(tab, basis, i, int(cols[0]))
                else:
                    drop_rows.append(i)  # redundant row
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tab = np.vstack([tab[keep], tab[m:]])
            basis = [basis[i] for i in keep]
            m = len(keep)
        tab = np.hstack([tab[:, :n], tab[:, -1:]])
    else:
        tab = np.zeros((m + 1, n + 1))
        tab[:m, :-1] = A
        tab[:m, -1] = b

    # Phase 2.
    tab[m, :] = 0.0
    tab[m, :n] = c[:n]
    for i in range(m):
        if c[basis[i]] != 0.0:
            tab[m] -= c[basis[i]] * tab[i]
    status = _run_simplex(tab, basis, m, n, max_iter)
    if status == "unbounded":
        return ("unbounded", None, None)
    if status == "limit":
        return ("limit", None, None)

    y = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            y[basis[i]] = tab[i, -1]
    # Duals from the final basis: solve B' yd = c_B on the *original* rows.
    duals = None
    if m == std.A.shape[0]:
        B = std.A[:, basis]
        try:
            duals = np.linalg.solve(B.T, std.c[basis])
        except np.linalg.LinAlgError:
            duals = None
    return ("optimal", y, duals)


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
    options = {}
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
               gap_tol: float = 1e-6, backend: str = "auto") -> Solution:
    """Branch-and-bound on binary variables.

    backend 'builtin' is the depth-first B&B below: LP relaxations replace
    binaries with [0,1] bounds (fixed variables are removed before the
    simplex runs), branching picks the most fractional binary, and the child
    on the rounded-nearest side is explored first; all tie breaks use
    declaration order, so solves are deterministic. backend 'highs' (the
    'auto' choice when scipy is importable) delegates to scipy's HiGHS MILP
    solver behind the identical contract.
    """
    if backend == "auto":
        try:
            import scipy.optimize  # noqa: F401

            backend = "highs"
        except ImportError:
            backend = "builtin"
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
