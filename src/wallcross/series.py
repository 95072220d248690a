"""Truncated power series in one parameter, with exact coefficients.

A TruncatedSeries holds the coefficients of s^0 .. s^(N-1); every operation
stays within that window. Orders at or past N are only ever reported as
lower bounds ("at least N") by the callers, never as exact values.
Coefficients follow rationals.canonical: ints when integral, Fractions
otherwise.

`pivot_orders` reads vanishing orders off the coefficient rows of a span of
series by one forward fraction-free elimination: it keeps only the pivot
columns, and builds no reduced rows and no determinant.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub

from .rationals import canonical


def _canonical(values):
    return tuple(c if type(c) is int else canonical(c) for c in values)


class TruncatedSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(canonical(c) for c in coeffs)
        if not cs:
            raise ValueError("series needs at least one coefficient")
        self.coeffs = cs

    @classmethod
    def _raw(cls, coeffs):
        """A series on a non-empty tuple of coefficients that are already
        canonical; results of the arithmetic below are built this way."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    @property
    def truncation(self):
        return len(self.coeffs)

    @classmethod
    def zero(cls, n):
        if n < 1:
            raise ValueError("series needs at least one coefficient")
        return cls._raw((0,) * n)

    @classmethod
    def const(cls, value, n):
        return cls._raw((canonical(value),) + (0,) * (n - 1))

    @classmethod
    def parameter(cls, n):
        if n < 2:
            raise ValueError("truncation too short to hold the parameter")
        return cls._raw((0, 1) + (0,) * (n - 2))

    def order(self):
        """Index of the first nonzero coefficient, or None if all shown
        coefficients vanish (order >= truncation)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self):
        return self.order() is None

    def _check(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.truncation != other.truncation:
            raise ValueError("truncation mismatch")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        self._check(other)
        return TruncatedSeries._raw(_canonical(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return TruncatedSeries._raw(_canonical(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncatedSeries._raw(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries._raw(_canonical(a * other for a in self.coeffs))
        self._check(other)
        n = self.truncation
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                if b:
                    out[i + j] += a * b
        return TruncatedSeries._raw(_canonical(out))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = TruncatedSeries.const(1, self.truncation)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)})"


def series_substitute(poly, branch):
    """Evaluate a Polynomial on a tuple of series, one per variable."""
    if len(branch) != poly.nvars:
        raise ValueError("need one series per variable")
    n = branch[0].truncation
    if any(s.truncation != n for s in branch):
        raise ValueError("branch series must share a truncation")
    caches = [{1: s} for s in branch]

    def power(i, e):
        cache = caches[i]
        if e not in cache:
            cache[e] = power(i, e - 1) * branch[i]
        return cache[e]

    total = [0] * n
    for exp, c in poly.terms.items():
        term = None
        for i, e in enumerate(exp):
            if e:
                term = power(i, e) if term is None else term * power(i, e)
        if term is None:
            total[0] += c
        else:
            for k, x in enumerate(term.coeffs):
                if x:
                    total[k] += c * x
    return TruncatedSeries._raw(_canonical(total))


def pivot_orders(rows):
    """Pivot columns of the row span of an exact matrix.

    Returns (orders, deficiency): the sorted pivot column indices, and the
    number of rows beyond the rank. When the rows are coefficient vectors of
    truncated series, the pivot columns are exactly the vanishing orders
    realized by the span, and each deficient row stands for an order at or
    past the truncation.

    Each row is scaled to integers by the lcm of its denominators, and the
    pivots come from forward fraction-free elimination (Bareiss 1968): each
    step divides exactly by the previous pivot, so every entry stays an
    integer. The pivot columns of an echelon form are those of the reduced
    form, so no back-substitution is done.
    """
    if not rows:
        raise ValueError("empty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    mat = []
    for row in rows:
        c = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (c // x.denominator) for x in row])
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
