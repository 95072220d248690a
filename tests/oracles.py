"""Oracles that only the tests use: independent routes to quantities the
package computes another way."""

from fractions import Fraction

from wallcross.curves import FrameChange, Surface
from wallcross.inflection import local_branch
from wallcross.polynomials import poly_det
from wallcross.series import series_substitute


def intersection_multiplicity(curve, aux, N=None):
    """Order of vanishing of an auxiliary form along the branch at p.

    Returns (value, exact). exact=False means the form vanishes through the
    whole window, so the multiplicity is >= value (the branch lies on a
    component of the auxiliary curve)."""
    if aux.is_zero():
        raise ValueError("auxiliary form is zero")
    if curve.surface is Surface.P2:
        total = aux.total_degree() * curve.degree
    else:
        e1 = max(e[0] + e[1] for e in aux.terms)
        e2 = max(e[2] + e[3] for e in aux.terms)
        total = (e1 + e2) * curve.degree
    if N is None:
        N = total + 1
    branch = local_branch(curve, N)
    val = series_substitute(aux, branch)
    o = val.order()
    if o is None:
        return N, False
    return o, True


def classical_hessian(poly):
    """Determinant of the matrix of second partials of a ternary form."""
    if poly.nvars != 3:
        raise ValueError("expected a 3-variable form")
    rows = [
        [poly.partial_derivative(i).partial_derivative(j) for j in range(3)]
        for i in range(3)
    ]
    return poly_det(rows)


def gauss_jordan(rows):
    """Gauss-Jordan elimination on Fractions, (reduced, pivots, det) with
    det the signed product of the pivots."""
    mat = [[Fraction(x) for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    det = Fraction(1)
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            det = -det
        det *= mat[r][col]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots, det


def _matrix_inverse(m):
    n = len(m)
    aug = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    reduced, pivots, _ = gauss_jordan(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def frame_inverse(frame):
    """The inverse frame, its matrices inverted by Gauss-Jordan elimination
    rather than through the adjugate."""
    inv = _matrix_inverse
    if frame.surface is Surface.P2:
        return FrameChange(frame.surface, inv(frame.mx))
    if not frame.swap:
        return FrameChange(frame.surface, inv(frame.mx), inv(frame.my))
    return FrameChange(frame.surface, inv(frame.my), inv(frame.mx), swap=True)
