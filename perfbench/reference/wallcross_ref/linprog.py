"""Exact linear programming over the rationals.

Small dense two-phase simplex with Bland's rule, which is all the torus
optimizations in this package need (a handful of free variables, a few
dozen constraints). Variables are free; internally each splits into a
difference of two non-negative parts. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

_FLIP = {"<=": ">=", ">=": "<=", "==": "=="}


class InfeasibleError(Exception):
    pass


class UnboundedError(Exception):
    pass


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col]:
            f = tableau[i][col]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[row])]
    basis[row] = col


def _simplex(tableau, basis, cost, banned=frozenset()):
    """Maximize cost*y in place. Bland's rule, so no cycling."""
    m = len(tableau)
    ncols = len(cost)
    while True:
        cbar = list(cost)
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                row = tableau[i]
                for j in range(ncols):
                    if row[j]:
                        cbar[j] -= cb * row[j]
        enter = -1
        for j in range(ncols):
            if j not in banned and cbar[j] > 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnboundedError("objective is unbounded above")
        _pivot(tableau, basis, leave, enter)


def _solve_free(objective, constraints, n):
    """Maximize objective over free variables subject to constraints.

    Returns (value, x). Each constraint is (coeffs, rel, rhs) with rel one
    of "<=", ">=", "==".
    """
    rows = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != n:
            raise ValueError(f"constraint arity {len(coeffs)}, expected {n}")
        if rel not in _FLIP:
            raise ValueError(f"unknown relation {rel!r}")
        a = []
        for x in coeffs:
            f = Fraction(x)
            a.append(f)
            a.append(-f)
        r = Fraction(rhs)
        if r < 0:
            a = [-v for v in a]
            r = -r
            rel = _FLIP[rel]
        rows.append((a, rel, r))

    ny = 2 * n
    nslack = sum(1 for _, rel, _ in rows if rel != "==")
    nart = sum(1 for _, rel, _ in rows if rel != "<=")
    ncols = ny + nslack + nart
    zero = Fraction(0)

    tableau = []
    basis = []
    art_cols = set()
    si = ny
    ai = ny + nslack
    for a, rel, r in rows:
        row = a + [zero] * (nslack + nart) + [r]
        if rel == "<=":
            row[si] = Fraction(1)
            basis.append(si)
            si += 1
        elif rel == ">=":
            row[si] = Fraction(-1)
            si += 1
            row[ai] = Fraction(1)
            basis.append(ai)
            art_cols.add(ai)
            ai += 1
        else:
            row[ai] = Fraction(1)
            basis.append(ai)
            art_cols.add(ai)
            ai += 1
        tableau.append(row)

    if art_cols:
        cost1 = [zero] * ncols
        for j in art_cols:
            cost1[j] = Fraction(-1)
        _simplex(tableau, basis, cost1)
        residue = sum(
            tableau[i][-1] for i in range(len(tableau)) if basis[i] in art_cols
        )
        if residue > 0:
            raise InfeasibleError("constraints have no solution")
        # pivot leftover artificials out; a row with no other nonzero
        # entry is redundant and can be dropped
        keep = []
        for i in range(len(tableau)):
            if basis[i] in art_cols:
                piv = next(
                    (j for j in range(ny + nslack) if tableau[i][j]), None
                )
                if piv is None:
                    continue
                _pivot(tableau, basis, i, piv)
            keep.append(i)
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]

    cost2 = [zero] * ncols
    for k in range(n):
        f = Fraction(objective[k])
        cost2[2 * k] = f
        cost2[2 * k + 1] = -f
    _simplex(tableau, basis, cost2, banned=art_cols)

    y = [zero] * ncols
    for i, b in enumerate(basis):
        y[b] = tableau[i][-1]
    x = [y[2 * k] - y[2 * k + 1] for k in range(n)]
    value = sum(Fraction(objective[k]) * x[k] for k in range(n))
    return value, x


def lp_max(objective, constraints, n=None, lex_vertex=True):
    """Maximize a linear objective exactly; variables are free rationals.

    Returns (optimum, vertex). With lex_vertex (the default) the vertex is
    pinned down deterministically: among all optimal points it maximizes
    x0, then x1, and so on, each found by one more LP solve. Raises
    InfeasibleError / UnboundedError as appropriate.
    """
    if n is None:
        n = len(objective)
    obj = [Fraction(x) for x in objective]
    if len(obj) != n:
        raise ValueError("objective arity mismatch")
    value, x = _solve_free(obj, list(constraints), n)
    if not lex_vertex:
        return value, x
    cons = list(constraints) + [(obj, "==", value)]
    out = []
    for i in range(n):
        ei = [Fraction(int(j == i)) for j in range(n)]
        vi, _ = _solve_free(ei, cons, n)
        cons.append((ei, "==", vi))
        out.append(vi)
    return value, out
