"""Sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples (fixed arity, non-negative
entries) to nonzero coefficients: an int when the coefficient is integral
and a Fraction otherwise (rationals.canonical), never a float. Everything
here is exact, and integer inputs keep the arithmetic in integers. Forms
are substituted into by `curves.move_curve` or `series.series_substitute`.

There is one gcd, the subresultant pseudo-remainder sequence (Brown and
Traub, 1971). It treats the polynomials as univariate in one chosen
variable over the others: each full pseudo-remainder is divided exactly by
g*h^delta (g the previous leading coefficient, h the previous subresultant
scalar), and the content is taken out once, at the end. The squarefree
split is built on it.

No computation of the package calls the gcd, the squarefree split, the
resultant, the determinant or the rational-root search any more (the
special locus reads its components off the lines through the marked
point); they stay public because the benchmark traces them by name, and
the tests use them as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import add, index

from .errors import InternalError
from .rationals import canonical, primitive, quotient


def _canonical_terms(acc):
    """The nonzero entries of a coefficient accumulator, made canonical."""
    return {e: c if type(c) is int else canonical(c) for e, c in acc.items() if c}


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coeff in items:
            exp = tuple(map(index, exp))
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has arity {len(exp)}, expected {nvars}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            acc[exp] = acc.get(exp, 0) + canonical(coeff)
        self.nvars = nvars
        self.terms = _canonical_terms(acc)

    # -- queries ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def variables(self):
        """Indices of variables that actually occur."""
        out = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    out.add(i)
        return out

    def total_degree(self):
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def leading(self):
        """(exponent, coefficient) of the lex-largest term, or None if zero."""
        if not self.terms:
            return None
        exp = max(self.terms)
        return exp, self.terms[exp]

    def coefficient_in(self, i, k):
        """The coefficient of variable i to the power k, with slot i zeroed."""
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == k:
                e = list(exp)
                e[i] = 0
                out[tuple(e)] = c
        return self._raw(self.nvars, out)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for exp, c in other.terms.items():
            s = acc.get(exp, 0) + c
            if s:
                acc[exp] = s if type(s) is int else canonical(s)
            else:
                del acc[exp]
        return self._raw(self.nvars, acc)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._raw(self.nvars, {})
            return self._raw(
                self.nvars, _canonical_terms({e: c * other for e, c in self.terms.items()})
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        acc = {}
        get = acc.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        return self._raw(self.nvars, _canonical_terms(acc))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return constant(self.nvars, other)
        if isinstance(other, Polynomial):
            if self.nvars != other.nvars:
                raise ValueError("arity mismatch")
            return other
        return NotImplemented

    @classmethod
    def _raw(cls, nvars, terms):
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point):
        """The value at a point, as a Fraction. The products run on the
        canonical coordinates, so an integral point stays in ints."""
        if len(point) != self.nvars:
            raise ValueError(f"point has arity {len(point)}, expected {self.nvars}")
        pt = [canonical(x) for x in point]
        total = 0
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(pt, exp):
                if e:
                    v *= x ** e
            total += v
        return Fraction(total)

    def partial_derivative(self, i):
        if not 0 <= i < self.nvars:
            raise ValueError("no such variable")
        acc = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                acc[tuple(e)] = c * exp[i]
        return self._raw(self.nvars, _canonical_terms(acc))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"v{i}^{e}" if e > 1 else f"v{i}" for i, e in enumerate(exp) if e
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return "Poly(" + " + ".join(bits) + ")"


def zero(nvars):
    return Polynomial(nvars)


def constant(nvars, c):
    return Polynomial(nvars, {(0,) * nvars: c})


def variable(nvars, i):
    exp = [0] * nvars
    exp[i] = 1
    return Polynomial(nvars, {tuple(exp): 1})


def monomial(nvars, exp, c=1):
    return Polynomial(nvars, {tuple(exp): c})


def linear_form(nvars, slots, coeffs):
    """sum(coeffs[k] * x_(slots[k])): a linear form in some of the variables."""
    form = {}
    for s, c in zip(slots, coeffs):
        if c:
            e = [0] * nvars
            e[s] = 1
            form[tuple(e)] = canonical(c)
    return Polynomial._raw(nvars, form)


def exact_divide(f, g):
    """Return f/g if g divides f exactly, else None.

    Standard lex division on one remainder, updated in place; because the
    quotient's terms appear as leading terms of the intermediate
    remainders, one non-divisible leading term proves the division is
    inexact and we bail out.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.nvars != g.nvars:
        raise ValueError("arity mismatch")
    ge, gc = g.leading()
    divisor = g.terms.items()
    q = {}
    r = dict(f.terms)
    while r:
        re = max(r)
        de = tuple(a - b for a, b in zip(re, ge))
        if any(x < 0 for x in de):
            return None
        c = quotient(r[re], gc)
        q[de] = c
        for e, gcoef in divisor:
            e = tuple(map(add, de, e))
            s = r.get(e, 0) - c * gcoef
            if s:
                r[e] = s if type(s) is int else canonical(s)
            else:
                del r[e]
    return Polynomial._raw(f.nvars, q)


def primitive_normalized(f):
    """Scale by a positive rational so coefficients are coprime integers,
    then flip sign if needed so the lex-leading coefficient is positive."""
    if f.is_zero():
        return f
    nums = dict(zip(f.terms, primitive(f.terms.values())))
    if nums[max(nums)] < 0:
        nums = {e: -n for e, n in nums.items()}
    return Polynomial._raw(f.nvars, nums)


def exact_quotient(f, g, what):
    """f/g, raising InternalError when g does not divide f: for divisions
    that the algebra guarantees to be exact."""
    q = exact_divide(f, g)
    if q is None:
        raise InternalError(f"{what}: {g!r} does not divide {f!r}")
    return q


def _content_primitive_wrt(f, v):
    """(content, primitive part) of f seen as univariate in variable v."""
    coeffs = [f.coefficient_in(v, k) for k in range(f.degree_in(v) + 1)]
    cont = zero(f.nvars)
    for c in coeffs:
        if c.is_zero():
            continue
        cont = poly_gcd(cont, c)
        if not cont.variables():
            break
    return cont, exact_quotient(f, cont, f"content in variable {v}")


def _pseudo_rem(a, b, v):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b wrt variable v
    (deg_v a >= deg_v b >= 1)."""
    n = b.degree_in(v)
    lcb = b.coefficient_in(v, n)
    r = a
    for k in range(a.degree_in(v), n - 1, -1):
        lcr = r.coefficient_in(v, k)
        shift = [0] * a.nvars
        shift[v] = k - n
        r = lcb * r - lcr * monomial(a.nvars, shift) * b
    return r


def _prs_gcd(a, b, v):
    """gcd of two polynomials primitive wrt v, via the subresultant PRS."""
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    g = h = constant(a.nvars, 1)
    while True:
        delta = a.degree_in(v) - b.degree_in(v)
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            return _content_primitive_wrt(b, v)[1]
        if r.degree_in(v) == 0:
            # common divisors would have v-degree 0, but b is primitive
            return constant(a.nvars, 1)
        a, b = b, exact_quotient(r, g * h ** delta, "subresultant remainder")
        g = a.coefficient_in(v, a.degree_in(v))
        if delta:
            h = exact_quotient(g ** delta, h ** (delta - 1), "subresultant scalar")


def poly_gcd(f, g):
    """Greatest common divisor, primitive with positive lex-leading coefficient.

    Pairs that share no variable give 1. Every other pair is seen as
    univariate in the shared variable of least degree: the gcd of the two
    contents (by recursion) times the subresultant PRS gcd of the two
    primitive parts."""
    if f.nvars != g.nvars:
        raise ValueError("arity mismatch")
    if f.is_zero():
        return primitive_normalized(g)
    if g.is_zero():
        return primitive_normalized(f)
    common = f.variables() & g.variables()
    if not common:
        return constant(f.nvars, 1)
    v = min(common, key=lambda i: (max(f.degree_in(i), g.degree_in(i)), i))
    cf, pf = _content_primitive_wrt(f, v)
    cg, pg = _content_primitive_wrt(g, v)
    c = poly_gcd(cf, cg)
    h = _prs_gcd(pf, pg, v)
    return primitive_normalized(c * h)


def squarefree_decompose(f):
    """Write f as a product of pairwise-coprime squarefree factors with
    multiplicities, up to a rational constant. Returns [(factor, mult), ...]
    with each factor primitive; constants give an empty list.

    This is the characteristic-zero bookkeeping: with c = gcd(f, all
    partials) equal to the product of primes to one less power, the usual
    univariate recursion peels off the primes of each multiplicity in turn.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if not f.variables():
        return []
    c = f
    for i in sorted(f.variables()):
        c = poly_gcd(c, f.partial_derivative(i))
    w = primitive_normalized(exact_quotient(f, c, "squarefree: f by gcd(f, partials)"))
    out = []
    i = 1
    while w.variables():
        y = poly_gcd(w, c)
        a = primitive_normalized(exact_quotient(w, y, f"squarefree part {i}"))
        if a.variables():
            out.append((a, i))
        c = primitive_normalized(exact_quotient(c, y, f"squarefree cofactor {i}"))
        w = y
        i += 1
    return out


def poly_det(rows):
    """Determinant of a square matrix of Polynomials, by fraction-free
    elimination (Bareiss 1968): step k replaces each entry below and right
    of the pivot by a 2x2 minor divided exactly by the previous pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(r) for r in rows]
    sign = 1
    prev = constant(m[0][0].nvars, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                return zero(prev.nvars)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_quotient(
                    pivot * m[i][j] - m[i][k] * m[k][j], prev, "Bareiss step"
                )
        prev = pivot
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def resultant(f, g, v):
    """Resultant of f and g with respect to variable v (Sylvester
    determinant, by `poly_det`), a Polynomial in the remaining variables.

    Nothing in the package calls it. It stays for the elimination oracle
    of the tests, which finds singular points with it, and for the traced
    run of perfbench, which reads a row under this name."""
    if f.is_zero() or g.is_zero():
        return zero(f.nvars)
    m, n = f.degree_in(v), g.degree_in(v)
    if m == 0 and n == 0:
        return constant(f.nvars, 1)
    fc = [f.coefficient_in(v, k) for k in range(m + 1)]
    gc = [g.coefficient_in(v, k) for k in range(n + 1)]
    size = m + n
    z = zero(f.nvars)
    mat = []
    for r in range(n):
        row = [z] * size
        for k in range(m + 1):
            row[r + (m - k)] = fc[k]
        mat.append(row)
    for r in range(m):
        row = [z] * size
        for k in range(n + 1):
            row[r + (n - k)] = gc[k]
        mat.append(row)
    return poly_det(mat)


# Largest integer whose divisors the rational root search enumerates.
DIVISOR_SEARCH_LIMIT = 10 ** 12


def divisors(n):
    """Sorted positive divisors of n >= 1, or None if n exceeds
    DIVISOR_SEARCH_LIMIT."""
    if n < 1:
        raise ValueError("need a positive integer")
    if n > DIVISOR_SEARCH_LIMIT:
        return None
    small, large = [], []
    d = 1
    r = isqrt(n)
    while d <= r:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(coeffs):
    """All rational roots of sum(coeffs[i] * t**i), or None if the divisor
    search would be too expensive to do exactly. Raises on the zero polynomial."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    ints = primitive(cs)
    roots = set()
    k = 0
    while ints[k] == 0:
        k += 1
    if k > 0:
        roots.add(Fraction(0))
    core = ints[k:]
    if len(core) == 1:
        return sorted(roots)
    d0 = divisors(abs(core[0]))
    dn = divisors(abs(core[-1]))
    if d0 is None or dn is None:
        return None

    def value(t):
        acc = Fraction(0)
        for c in reversed(core):
            acc = acc * t + c
        return acc

    for q in dn:
        for p in d0:
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if value(cand) == 0:
                    roots.add(cand)
    return sorted(roots)
