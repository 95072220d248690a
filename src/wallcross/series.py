"""Truncated power series in one parameter, with exact coefficients.

A series is a plain tuple of its N coefficients, of s^0 .. s^(N-1); every
product stays within that window. Orders at or past N are only ever
reported as lower bounds ("at least N") by the callers, never as exact
values. A branch the package builds holds ints (`inflection.local_branch`
solves it over Z, with its own powers, so `series_substitute` only
re-checks it); a line of `curves.restrict`, base + s * direction, may hold
Fractions; the products here keep the arithmetic of their inputs.

`pivot_orders` reads vanishing orders off the coefficient rows of a span of
series by one forward fraction-free elimination: it keeps only the pivot
columns, and builds no reduced rows and no determinant.
"""

from __future__ import annotations

from .rationals import cleared


def _mul(a, b):
    """Product of two series of one truncation, within that window."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            if y:
                out[i + j] += x * y
    return tuple(out)


def series_substitute(poly, branch):
    """Evaluate a Polynomial on a tuple of series, one per variable, into
    one series of the same truncation."""
    if len(branch) != poly.nvars:
        raise ValueError("need one series per variable")
    n = len(branch[0])
    if not n or any(len(s) != n for s in branch):
        raise ValueError("branch series must share a nonzero truncation")
    caches = [{1: s} for s in branch]

    def power(i, e):
        cache = caches[i]
        if e not in cache:
            cache[e] = _mul(power(i, e - 1), branch[i])
        return cache[e]

    total = [0] * n
    for exp, c in poly.terms.items():
        term = None
        for i, e in enumerate(exp):
            if e:
                term = power(i, e) if term is None else _mul(term, power(i, e))
        if term is None:
            total[0] += c
        else:
            for k, x in enumerate(term):
                if x:
                    total[k] += c * x
    return tuple(total)


def pivot_orders(rows):
    """Pivot columns of the row span of an exact matrix.

    Returns (orders, deficiency): the sorted pivot column indices, and the
    number of rows beyond the rank. When the rows are coefficient vectors of
    truncated series, the pivot columns are exactly the vanishing orders
    realized by the span, and each deficient row stands for an order at or
    past the truncation.

    Each row is scaled to integers by `rationals.cleared`, and the
    pivots come from forward fraction-free elimination (Bareiss 1968): each
    step divides exactly by the previous pivot, so every entry stays an
    integer. The pivot columns of an echelon form are those of the reduced
    form, so no back-substitution is done.
    """
    if not rows:
        raise ValueError("empty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    mat = [cleared(row)[1] for row in rows]
    pivots = []
    prev = 1
    for col in range(len(mat[0])):
        r = len(pivots)
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[col]
        for i in range(r + 1, len(mat)):
            f = mat[i][col]
            mat[i] = [(p * a - f * b) // prev for a, b in zip(mat[i], top)]
        prev = p
        pivots.append(col)
    return pivots, len(rows) - len(pivots)
