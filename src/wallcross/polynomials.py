"""Sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples (fixed arity, non-negative
entries) to nonzero coefficients: an int when the coefficient is integral
and a Fraction otherwise (rationals.canonical), never a float. Everything
here is exact, and integer inputs keep the arithmetic in integers. The gcd
first tries to settle a coprime pair by modular images (Brown, 1971): for
each variable the two inputs share, it maps them to F_p[v], p = 2^61 - 1,
at a fixed point where both leading coefficients in v survive, and a
constant image gcd in every such variable proves the gcd is 1. Every pair
the images do not settle runs the subresultant pseudo-remainder sequence
(Brown and Traub, 1971), the only code that computes a nonconstant gcd. It
treats the polynomials as univariate in one chosen variable over the
others: each full pseudo-remainder is divided exactly by g*h^delta (g the
previous leading coefficient, h the previous subresultant scalar), and the
content is taken out once, at the end.

The squarefree split is built on that gcd, after one certificate: f is
squarefree when the same images prove f coprime to g = sum(lambda_i *
df/dx_i) for fixed integers lambda_i. This is sound because a square
factor q^2 of f puts q in every partial, hence in g. The certificate fails
on some squarefree inputs, when g = 0 or, in two variables u, v, when f
has a factor h(lambda_2 u - lambda_1 v), and those run the recursion, as
does every input with a repeated factor. It replaces gcd(f, df/dx_i), which is nontrivial on a
squarefree f with a factor free of x_i and would send it to the PRS.

No computation of the package calls the gcd, the squarefree split, the
resultant, the determinant or the rational-root search any more (the
special locus reads its components off the lines through the marked
point); they stay public because the benchmark traces them by name, and
the tests use them as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul

from .errors import InternalError
from .rationals import canonical, quotient


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
            exp = tuple(int(e) for e in exp)
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

    # -- evaluation and substitution --------------------------------------

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

    def substitute(self, subs):
        """Plug a polynomial in for each variable. All subs share one arity.

        When every substitution is a single term c_i * y^(a_i), a term
        c * x^e goes to the single term c * prod(c_i^e_i) * y^(sum e_i a_i).
        Otherwise the products run on packed exponents: an exponent vector
        of the result is one int, digit j in a radix above every exponent
        of variable j the result can reach, so multiplying terms adds ints.
        Both paths give the terms in the same order."""
        if len(subs) != self.nvars:
            raise ValueError("need one substitution per variable")
        m = subs[0].nvars
        if any(s.nvars != m for s in subs):
            raise ValueError("substitutions must share an arity")
        if all(len(s.terms) == 1 for s in subs):
            singles = [next(iter(s.terms.items())) for s in subs]
            columns = list(zip(*(a for a, _ in singles)))
            acc = {}
            for exp, c in self.terms.items():
                for (_, ci), e in zip(singles, exp):
                    if e:
                        c *= ci ** e
                key = tuple(sum(map(mul, exp, col)) for col in columns)
                acc[key] = acc.get(key, 0) + c
            return Polynomial._raw(m, _canonical_terms(acc))
        top = [max((e[i] for e in self.terms), default=0) for i in range(self.nvars)]
        radix = 1 + max(
            sum(k * s.degree_in(j) for k, s in zip(top, subs) if k and s) for j in range(m)
        )
        places = [radix ** (m - 1 - j) for j in range(m)]
        packed = [
            {sum(map(mul, e, places)): c for e, c in s.terms.items()} for s in subs
        ]
        powers = [[{0: 1}] for _ in range(self.nvars)]

        def power(i, e):
            cache = powers[i]
            while len(cache) <= e:
                cache.append(_packed_product(cache[-1], packed[i]))
            return cache[e]

        acc = {}
        for exp, c in self.terms.items():
            term = {0: 1}
            for i, e in enumerate(exp):
                if e:
                    term = _packed_product(term, power(i, e))
            for k, tc in term.items():
                acc[k] = acc.get(k, 0) + c * tc
        unpacked = {tuple(k // p % radix for p in places): c for k, c in acc.items()}
        return Polynomial._raw(m, _canonical_terms(unpacked))

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


def _packed_product(a, b):
    """Product of two polynomials held as {packed exponent: coefficient}."""
    acc = {}
    get = acc.get
    right = b.items()
    for e1, c1 in a.items():
        for e2, c2 in right:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return _canonical_terms(acc)


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
    den = lcm(*(c.denominator for c in f.terms.values()))
    nums = {e: c.numerator * (den // c.denominator) for e, c in f.terms.items()}
    g = gcd(*nums.values())
    if nums[max(nums)] < 0:
        g = -g
    return Polynomial._raw(f.nvars, {e: n // g for e, n in nums.items()})


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


# The coprimality filter of poly_gcd works in F_p for the Mersenne prime
# p = 2^61 - 1. Its fixed point k gives variable i the value
# IMAGE_SEEDS[k]^(i + 1) mod p.
IMAGE_PRIME = 2 ** 61 - 1
IMAGE_SEEDS = (0x0545F4914F6CDD1D, 0x1E3779B97F4A7C15, 0x1851F42D4C957F2D)


def _image_point(k, nvars):
    """Fixed point k of the coprimality filter, one residue per variable."""
    return [pow(IMAGE_SEEDS[k], i + 1, IMAGE_PRIME) for i in range(nvars)]


def _image(f, v, k):
    """f mapped to F_p[v] at fixed point k, coefficients low to high, or None
    when a denominator vanishes mod p or the leading coefficient in v does."""
    p = IMAGE_PRIME
    point = _image_point(k, f.nvars)
    out = [0] * (f.degree_in(v) + 1)
    for exp, c in f.terms.items():
        if type(c) is int:
            x = c
        elif c.denominator % p:
            x = c.numerator * pow(c.denominator, -1, p)
        else:
            return None
        for i, e in enumerate(exp):
            if e and i != v:
                x = x * pow(point[i], e, p) % p
        out[exp[v]] = (out[exp[v]] + x) % p
    return out if out[-1] else None


def _image_gcd_degree(a, b):
    """Degree of the gcd in F_p[v] of two images with nonzero leading terms."""
    p = IMAGE_PRIME
    while b:
        inv = pow(b[-1], -1, p)
        a = a[:]
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] = (a[shift + j] - q * y) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _coprime_by_images(f, g, common):
    """True when images in F_p prove that f and g have no nonconstant
    common factor; False when they do not settle it.

    For each variable v in common, f and g are mapped to F_p[v] at the first
    fixed point where no denominator and neither leading coefficient in v
    vanishes mod p. Soundness: let h be a primitive integer polynomial
    generating gcd(f, g). By Gauss's lemma D*f = h*q with q integral, D the
    common denominator of f, and D is a unit mod p. lc_v(h) divides lc_v(D*f),
    which does not vanish at the point mod p, so the image of h keeps its
    v-degree there, and it divides both images. A degree-0 image gcd thus
    forces deg_v h = 0. A nonconstant h involves some variable that occurs in
    both f and g, so degree 0 for every v in common means h is constant. A
    variable with no usable point, or with a nonconstant image gcd, leaves
    the question to the subresultant PRS."""
    for v in sorted(common):
        for k in range(len(IMAGE_SEEDS)):
            a, b = _image(f, v, k), _image(g, v, k)
            if a is not None and b is not None:
                break
        else:
            return False
        if _image_gcd_degree(a, b):
            return False
    return True


def poly_gcd(f, g):
    """Greatest common divisor, primitive with positive lex-leading coefficient.

    A pair with a one-term operand c * x^a, a nonzero constant included,
    has the gcd prod x_i^b_i, b_i the smaller of a_i and the lowest
    exponent of x_i in the other operand, since every divisor of a
    monomial is one. Pairs that images in F_p
    prove coprime (_coprime_by_images) give 1 at once; every other pair
    runs the content split and the subresultant PRS."""
    if f.nvars != g.nvars:
        raise ValueError("arity mismatch")
    if f.is_zero():
        return primitive_normalized(g)
    if g.is_zero():
        return primitive_normalized(f)
    if len(g.terms) == 1:
        f, g = g, f
    if len(f.terms) == 1:
        (a,) = f.terms
        return Polynomial._raw(f.nvars, {tuple(map(min, a, *g.terms)): 1})
    common = f.variables() & g.variables()
    if not common or _coprime_by_images(f, g, common):
        return constant(f.nvars, 1)
    v = min(common, key=lambda i: (max(f.degree_in(i), g.degree_in(i)), i))
    cf, pf = _content_primitive_wrt(f, v)
    cg, pg = _content_primitive_wrt(g, v)
    c = poly_gcd(cf, cg)
    h = _prs_gcd(pf, pg, v)
    return primitive_normalized(c * h)


def _directional_derivative(f):
    """sum(lambda_i * df/dx_i) for the fixed integers lambda_i =
    IMAGE_SEEDS[2]^(i + 1) mod p."""
    lam = _image_point(2, f.nvars)
    g = zero(f.nvars)
    for i in f.variables():
        g = g + f.partial_derivative(i) * lam[i]
    return g


def squarefree_decompose(f):
    """Write f as a product of pairwise-coprime squarefree factors with
    multiplicities, up to a rational constant. Returns [(factor, mult), ...]
    with each factor primitive; constants give an empty list.

    An input that images in F_p prove coprime to one directional derivative
    is squarefree and returns at once (see the module docstring). Every
    other input runs the characteristic-zero bookkeeping: with c = gcd(f,
    all partials) equal to the product of primes to one less power, the
    usual univariate recursion peels off the primes of each multiplicity in
    turn.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    vf = f.variables()
    if not vf:
        return []
    g = _directional_derivative(f)
    if g and _coprime_by_images(f, g, vf & g.variables()):
        return [(primitive_normalized(f), 1)]
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
    den = 1
    for c in cs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in cs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
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
