import random
from fractions import Fraction

import pytest

from wallcross import polynomials
from wallcross.errors import InternalError
from wallcross.polynomials import (
    Polynomial,
    constant,
    divisors,
    exact_divide,
    monomial,
    poly_det,
    poly_gcd,
    primitive_normalized,
    rational_roots,
    resultant,
    squarefree_decompose,
    variable,
    zero,
)

from oracles import binary_form_roots, substitute


def _random_poly(rng, nvars, max_deg, nterms):
    terms = {}
    for _ in range(nterms):
        exp = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.randint(-4, 4)
    return Polynomial(nvars, {e: c for e, c in terms.items() if c})


def test_arithmetic_and_evaluate():
    x0, x1 = variable(2, 0), variable(2, 1)
    f = (x0 + 2 * x1) * (x0 - x1)
    assert f.evaluate((3, 1)) == (3 + 2) * (3 - 1)
    assert (f - f).is_zero()
    assert f.total_degree() == 2
    g = substitute(f, [x1, x0])  # swap the variables
    assert g.evaluate((1, 3)) == f.evaluate((3, 1))


def test_exponents_must_be_integers():
    # a float exponent is refused, not truncated to v0 + 3*v1^2
    for exp in ((1.5, 0), (0, 2.9), (1.0, 2), (Fraction(1), 2), ("1", 2)):
        with pytest.raises(TypeError):
            Polynomial(2, {exp: 1, (0, 1): 3})
    assert Polynomial(2, [((1, 0), 1), ((0, 2), 3)]).terms == {(1, 0): 1, (0, 2): 3}


def test_exact_divide_round_trip():
    x0, x1, x2 = (variable(3, i) for i in range(3))
    g = x0 * x2 - x1 * x1
    f = g * (x0 + 5 * x1 - x2) * Fraction(3, 7)
    q = exact_divide(f, g)
    assert q is not None and q * g == f
    assert exact_divide(f + monomial(3, (0, 0, 1)), g) is None


def test_gcd_known_factor():
    x0, x1, x2 = (variable(3, i) for i in range(3))
    common = (x0 + x1) * (x0 - x2)
    f1 = common * (x0 * x0 + x1 * x2)
    f2 = common * (x1 + x2)
    assert poly_gcd(f1, f2) == primitive_normalized(common)


def test_gcd_random_products():
    rng = random.Random(11)
    done = 0
    while done < 25:
        f = _random_poly(rng, 2, 2, 3)
        g = _random_poly(rng, 2, 2, 3)
        h = _random_poly(rng, 2, 2, 2)
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        lhs = poly_gcd(f * h, g * h)
        rhs = primitive_normalized(poly_gcd(f, g) * h)
        assert lhs == rhs
        # the gcd really divides both inputs
        assert exact_divide(f * h, lhs) is not None
        assert exact_divide(g * h, lhs) is not None
        done += 1


def test_gcd_remainders_stay_primitive(monkeypatch):
    # a plane sextic whose gcd with its x0-partial ran through remainders
    # with millions of bits when only the polynomial content was divided out
    f = Polynomial(3, {(5, 1, 0): -3, (4, 2, 0): 2, (4, 1, 1): -3, (1, 2, 3): -1,
                       (1, 0, 5): 2, (0, 5, 1): -2})
    bits = []
    pseudo_rem = polynomials._pseudo_rem

    def spy(a, b, v):
        r = pseudo_rem(a, b, v)
        bits.extend(abs(c.numerator).bit_length() for c in r.terms.values())
        return r

    monkeypatch.setattr(polynomials, "_pseudo_rem", spy)
    assert poly_gcd(f, f.partial_derivative(0)) == Polynomial(3, {(0, 0, 0): 1})
    assert bits and max(bits) < 2000


def test_inexact_division_raises_internal_error(monkeypatch):
    x0, x1 = variable(2, 0), variable(2, 1)
    f = (x0 + x1) * (x0 - 2 * x1)
    with pytest.raises(InternalError, match="does not divide"):
        polynomials.exact_quotient(f, x0 + 3 * x1, "test")
    # inputs with constant contents, so the first division by a nonconstant
    # polynomial is the subresultant step's g * h^delta
    a = x1 * x0 ** 4 + 3 * x0 ** 3 + x0 ** 2 + x1 * x0 + 1
    b = x1 * x0 ** 3 + x0 ** 2 + 2 * x0 + 5
    exact_divide = polynomials.exact_divide

    def refuse_nonconstant(f, g):
        return exact_divide(f, g) if not g.variables() else None

    monkeypatch.setattr(polynomials, "exact_divide", refuse_nonconstant)
    with pytest.raises(InternalError, match="subresultant"):
        polynomials._prs_gcd(a, b, 0)


def test_squarefree_decompose_line_and_conic():
    x0, x1, x2 = (variable(3, i) for i in range(3))
    line = x0 + x1
    conic = x0 * x2 - x1 * x1
    f = line * line * conic
    dec = squarefree_decompose(f)
    assert sorted(dec, key=lambda p: p[1]) == [
        (primitive_normalized(conic), 1),
        (primitive_normalized(line), 2),
    ]


def test_squarefree_decompose_more_shapes():
    x0, x1 = variable(2, 0), variable(2, 1)
    assert squarefree_decompose(x0 ** 3) == [(x0, 3)]
    # a squarefree product stays in one factor
    f = (x0 + x1) * (x0 - x1)
    assert squarefree_decompose(f) == [(primitive_normalized(f), 1)]
    dec = squarefree_decompose((x0 + x1) ** 2 * (x0 - x1) ** 3 * x1)
    by_mult = {m: p for p, m in dec}
    assert by_mult[1] == x1
    assert by_mult[2] == x0 + x1
    assert by_mult[3] == x0 - x1


def test_squarefree_recombines():
    rng = random.Random(23)
    x0, x1 = variable(2, 0), variable(2, 1)
    basis = [x0, x1, x0 + x1, x0 - 2 * x1]
    for _ in range(20):
        f = Polynomial(2, {(0, 0): rng.randint(1, 5)})
        for b in basis:
            f = f * b ** rng.randint(0, 2)
        if not f.variables():
            continue
        prod = Polynomial(2, {(0, 0): 1})
        for factor, mult in squarefree_decompose(f):
            prod = prod * factor ** mult
        assert primitive_normalized(prod) == primitive_normalized(f)


def test_resultant_detects_common_roots():
    t = variable(1, 0)
    f = (t - 2) * (t - 3)
    g = (t - 2) * (t - 5)
    h = (t + 1) * (t - 7)
    assert resultant(f, g, 0).is_zero()
    assert not resultant(f, h, 0).is_zero()


def test_resultant_sylvester_small():
    x0, x1 = variable(2, 0), variable(2, 1)
    r = resultant(x0 - x1, x0 + x1, 0)
    assert r == 2 * x1 or r == -2 * x1


def test_rational_roots_known():
    # (2t - 1)(t + 3)(t - 7)
    t = variable(1, 0)
    f = (2 * t - 1) * (t + 3) * (t - 7)
    coeffs = [f.terms.get((k,), Fraction(0)) for k in range(4)]
    assert rational_roots(coeffs) == sorted([Fraction(1, 2), Fraction(-3), Fraction(7)])
    assert rational_roots([0, -2, 1]) == [0, 2]
    assert rational_roots([1, 0, 1]) == []
    with pytest.raises(ValueError):
        rational_roots([0, 0])


def test_rational_roots_aborts_on_huge_constants():
    big = 2 ** 61 - 1
    assert rational_roots([big, 0, 1]) is None


def test_binary_form_roots_with_infinity():
    # u*v*(u - v): coefficient of u^i v^(3-i)
    coeffs = [0, -1, 1, 0]
    roots = binary_form_roots(coeffs)
    assert set(roots) == {(0, 1), (1, 1), (1, 0)}


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(10 ** 13) is None


def test_poly_det():
    x0, x1 = variable(2, 0), variable(2, 1)
    d = poly_det([[x0, x1], [x1, x0]])
    assert d == x0 * x0 - x1 * x1


def _random_product(rng, nvars):
    """A random polynomial with repeated factors, times a constant."""
    f = Polynomial(nvars, {(0,) * nvars: rng.choice((1, -2, 3))})
    for _ in range(rng.randint(1, 2)):
        g = _random_poly(rng, nvars, 2, 3)
        if g.variables():
            f = f * g ** rng.randint(1, 3)
    return f


def _to_sympy(sympy, f):
    gens = sympy.symbols(f"v0:{f.nvars}")
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
    return sympy.Poly.from_dict(terms, gens)


def _from_sympy(p, nvars):
    return Polynomial(nvars, {e: Fraction(int(c.p), int(c.q)) for e, c in p.as_dict().items()})


def _multiplicity_groups(pairs):
    """{multiplicity: primitive product of the factors of that multiplicity}."""
    groups = {}
    for factor, mult in pairs:
        groups[mult] = groups[mult] * factor if mult in groups else factor
    return {m: primitive_normalized(g) for m, g in groups.items()}


def _sympy_squarefree_groups(sympy, f):
    _, pairs = _to_sympy(sympy, f).sqf_list()
    return _multiplicity_groups(
        (_from_sympy(p, f.nvars), m) for p, m in pairs if p.total_degree() > 0
    )


def test_gcd_and_squarefree_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    done = 0
    while done < 30:
        nvars = rng.choice((2, 3))
        f = _random_product(rng, nvars)
        g = _random_product(rng, nvars)
        h = _random_poly(rng, nvars, 2, 3) ** 2
        if not f.variables() or not g.variables() or h.is_zero():
            continue
        want = _from_sympy(sympy.gcd(_to_sympy(sympy, f * h), _to_sympy(sympy, g * h)), nvars)
        assert poly_gcd(f * h, g * h) == primitive_normalized(want)
        dec = squarefree_decompose(f)
        assert [m for _, m in dec] == sorted({m for _, m in dec})
        assert dict((m, p) for p, m in dec) == _sympy_squarefree_groups(sympy, f)
        done += 1


def _squarefree_corpus(rng):
    """Seeded polynomials in 2 and 3 variables, as (kind, f): squarefree
    ones, ones with repeated factors, squarefree ones with a factor free of
    one variable, the lines u - v - c and v - k*u - c times a random factor,
    and factors of the form h(lam_2 u - lam_1 v) for a fixed integer
    direction lam."""
    lam = (5, -3)
    u, v = variable(2, 0), variable(2, 1)
    pool_chart = Polynomial(2, {  # (5, 5) on the quadric at ((0:1), (0:1))
        (5, 5): 3, (5, 3): 3, (4, 5): -2, (3, 3): 3, (3, 1): 2, (2, 1): 3, (0, 4): 1, (0, 1): 3,
    })
    out = [("free factor", pool_chart), ("fixed direction", lam[1] * u - lam[0] * v)]
    for i in range(60):
        nvars = 2 + i % 2
        x = [variable(nvars, j) for j in range(nvars)]
        q = _random_poly(rng, nvars, 3, 4)
        if not q.variables():
            continue
        kind = ("squarefree", "repeated", "free factor", "line", "fixed direction")[i % 5]
        if kind == "repeated":
            f = _random_product(rng, nvars)
        elif kind == "free factor":
            f = q * (x[rng.randrange(nvars)] - rng.randint(-3, 3))
        elif kind == "line":
            c, k = rng.randint(-3, 3), rng.randint(-3, 3)
            line = x[0] - x[1] - c if i % 2 else x[1] - k * x[0] - c
            f = q * line ** rng.randint(1, 2)
        elif kind == "fixed direction":
            f = (q if nvars == 2 else constant(2, 1)) * (lam[1] * u - lam[0] * v + rng.randint(-3, 3))
        else:
            f = q
        if i % 3 == 0:
            f = f * Fraction(1, rng.randint(2, 6))
        if f.variables():
            out.append((kind, f))
    return out


def test_squarefree_matches_sympy():
    sympy = pytest.importorskip("sympy")
    seen = {}
    for kind, f in _squarefree_corpus(random.Random(43)):
        dec = squarefree_decompose(f)
        assert dict((m, p) for p, m in dec) == _sympy_squarefree_groups(sympy, f), (kind, f)
        seen.setdefault(kind, set()).add([m for _, m in dec] == [1])
    # every kind holds squarefree inputs, and the repeated factors and the
    # powers of lines hold inputs that are not
    assert all(True in sq for sq in seen.values())
    assert all(False in seen[k] for k in ("repeated", "line"))


def _fractional(rng, f):
    """f with each coefficient divided by a small random positive integer."""
    return Polynomial(f.nvars, {e: Fraction(c, rng.randint(1, 6)) for e, c in f.terms.items()})


def _gcd_pairs(rng, count):
    """Seeded pairs in 2, 3 and 4 variables, cycling through three kinds:
    no planted factor (mostly coprime), a planted common factor, and a
    common factor in one variable only, which lies in the content with
    respect to every other variable. Every second pair has Fraction
    coefficients."""
    pairs = []
    while len(pairs) < count:
        i = len(pairs)
        nvars = 2 + i % 3
        kind = i // 3 % 3
        f = _random_poly(rng, nvars, 2, 3)
        g = _random_poly(rng, nvars, 2, 3)
        if kind == 1:
            h = _random_poly(rng, nvars, 2, 2)
        elif kind == 2:
            h = variable(nvars, rng.randrange(nvars)) + rng.randint(-3, 3)
        else:
            h = constant(nvars, 1)
        if not (f.variables() and g.variables()) or h.is_zero():
            continue
        f, g = f * h, g * h
        if i % 2:
            f, g = _fractional(rng, f), _fractional(rng, g)
        pairs.append((f, g))
    return pairs


def _one_term_pairs(rng, count):
    """Seeded pairs (c * x^a, g) in 2, 3 and 4 variables: g random, or a
    random polynomial times a power product that it then shares with the
    monomial, or a single term itself; every second pair has Fraction
    coefficients."""
    pairs = []
    while len(pairs) < count:
        i = len(pairs)
        nvars = 2 + i % 3
        a = tuple(rng.randint(0, 3) for _ in range(nvars))
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        g = _random_poly(rng, nvars, 3, 1 if i % 5 == 4 else rng.randint(1, 4))
        if i % 3 == 1:
            g = g * monomial(nvars, [rng.randint(0, 2) for _ in range(nvars)])
        if g.is_zero():
            continue
        f = monomial(nvars, a, c)
        if i % 2:
            f, g = _fractional(rng, f), _fractional(rng, g)
        pairs.append((f, g))
    return pairs


def _content_pairs():
    """Pairs in 3 variables whose common factor lies in x_j only, so in the
    content with respect to every other variable."""
    y = [variable(3, i) for i in range(3)]
    pairs = []
    for j in range(3):
        a, b = (y[i] for i in range(3) if i != j)
        h = y[j] + 1
        pairs.append((h * (a + b + 1), h * (a - b + 2)))
    return pairs


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    one_term = _one_term_pairs(random.Random(47), 240)
    pairs = _gcd_pairs(random.Random(31), 60) + _content_pairs() + one_term
    for f, g in pairs:
        want = primitive_normalized(
            _from_sympy(sympy.gcd(_to_sympy(sympy, f), _to_sympy(sympy, g)), f.nvars)
        )
        assert poly_gcd(f, g) == poly_gcd(g, f) == want, (f, g)
    # the monomial operands meet both shared power products and coprime partners
    gcds = [poly_gcd(f, g) for f, g in one_term]
    assert sum(1 for h in gcds if h.variables()) >= 80
    assert sum(1 for h in gcds if not h.variables()) >= 20


def test_prs_remainders_are_subresultants(monkeypatch):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    x = sympy.symbols("v0:2")
    remainders = []
    exact_quotient = polynomials.exact_quotient

    def spy(f, g, what):
        q = exact_quotient(f, g, what)
        if what == "subresultant remainder":
            remainders.append(q)
        return q

    monkeypatch.setattr(polynomials, "exact_quotient", spy)
    pairs = []
    while len(pairs) < 20:
        a = _random_poly(rng, 2, 5, 6)
        b = _random_poly(rng, 2, 4, 5)
        if not 1 <= b.degree_in(0) <= a.degree_in(0):
            continue
        if any(polynomials._content_primitive_wrt(p, 0)[0].variables() for p in (a, b)):
            continue
        pairs.append((a, b))
    # degrees 5, 3, 2, 1 in v0: the gap of 2 at the first step makes the
    # next divisor g * h with h = g^2, which no random pair above reaches
    v0, v1 = variable(2, 0), variable(2, 1)
    pairs.append((v0 ** 5 + v1 * v0 ** 2 + 3 * v0 + v1, v1 * v0 ** 3 + 2 * v0 ** 2 - v0 + 1))
    for a, b in pairs:
        remainders.clear()
        polynomials._prs_gcd(a, b, 0)
        pa, pb = (_to_sympy(sympy, p).as_expr() for p in (a, b))
        prs = sympy.subresultants(pa, pb, x[0])
        want = [_from_sympy(sympy.Poly(s, *x), 2) for s in prs[2:]]
        assert len(remainders) <= len(want)
        for got, sub in zip(remainders, want):
            assert got in (sub, -sub)


# -- coefficient representation ---------------------------------------------


def _assert_canonical(f):
    """Every coefficient is an int, or a Fraction with denominator > 1."""
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (f, c)


def _random_rational_poly(rng, nvars, max_deg, nterms):
    """Like _random_poly, with some coefficients p/q for q in 1..3; q = 1
    and p/q that reduce to integers are passed in as Fractions on purpose."""
    f = _random_poly(rng, nvars, max_deg, nterms)
    return Polynomial(
        nvars,
        {e: Fraction(c, rng.randint(1, 3)) if rng.random() < 0.5 else c
         for e, c in f.terms.items()},
    )


def test_coefficients_are_ints_or_proper_fractions():
    rng = random.Random(17)
    for make in (_random_poly, _random_rational_poly):
        for _ in range(40):
            nvars = rng.choice((2, 3))
            f = make(rng, nvars, 3, 4)
            g = make(rng, nvars, 2, 3)
            if not f.variables() or not g.variables():
                continue
            results = [
                f + g, f - g, f * g, f * Fraction(3, 1), f * Fraction(1, 2), -f,
                f + Fraction(4, 2), g ** 2,
                substitute(f, [g] + [variable(nvars, i) for i in range(1, nvars)]),
                f.partial_derivative(0),
                exact_divide(f * g, g), exact_divide(Fraction(2, 3) * f * g, f),
                primitive_normalized(f), poly_gcd(f * g, g * g),
            ]
            results.extend(p for p, _ in squarefree_decompose(f * g * g))
            for r in results:
                _assert_canonical(r)
            assert exact_divide(f * g, g) == f
            assert all(type(c) is int for c in primitive_normalized(f).terms.values())
    # integral results of Fraction arithmetic come back as ints
    half = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 1)})
    assert half.terms[(0, 1)] == 3 and type(half.terms[(0, 1)]) is int
    assert all(type(c) is int for c in (half * 2).terms.values())
    assert all(type(c) is int for c in (half + half).terms.values())


def test_exact_divide_quotients():
    x0, x1 = variable(2, 0), variable(2, 1)
    f = (3 * x0 + 2 * x1) * (2 * x0 - x1)
    q = exact_divide(f, 2 * x0 - x1)
    assert q == 3 * x0 + 2 * x1
    assert all(type(c) is int for c in q.terms.values())
    q = exact_divide(f, 4 * x0 - 2 * x1)
    assert q.terms == {(1, 0): Fraction(3, 2), (0, 1): 1}
    assert type(q.terms[(0, 1)]) is int
    assert exact_divide(f, x0 + x1) is None
    assert exact_divide(zero(2), x0).is_zero()


# -- determinants and resultants ---------------------------------------------


def _cofactor_det(rows):
    """Cofactor expansion along the first row: the oracle for poly_det."""
    if len(rows) == 1:
        return rows[0][0]
    total = zero(rows[0][0].nvars)
    for j, a in enumerate(rows[0]):
        if a:
            term = a * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


def test_poly_det_matches_cofactor_expansion():
    rng = random.Random(23)
    x0, x1 = variable(2, 0), variable(2, 1)
    # a zero pivot forces a row swap
    assert poly_det([[zero(2), x0], [x1, zero(2)]]) == -(x0 * x1)
    for _ in range(80):
        n = rng.randint(1, 5)
        nvars = rng.choice((1, 2, 3))
        make = rng.choice((_random_poly, _random_rational_poly))
        rows = [[make(rng, nvars, 2, rng.randint(0, 3)) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[-1] = list(rows[0])  # singular
        det = poly_det(rows)
        assert det == _cofactor_det(rows)
        _assert_canonical(det)


def test_resultant_matches_cofactor_sylvester_and_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    pairs = []
    while len(pairs) < 25:
        nvars = rng.choice((2, 3))
        f = _random_poly(rng, nvars, 4, 5)
        g = _random_poly(rng, nvars, 3, 4)
        if f.degree_in(0) >= 1 and g.degree_in(0) >= 1:
            pairs.append((f, g))
    got = [resultant(f, g, 0) for f, g in pairs]
    monkeypatch.setattr(polynomials, "poly_det", _cofactor_det)
    assert got == [resultant(f, g, 0) for f, g in pairs]
    for r, (f, g) in zip(got, pairs):
        gens = sympy.symbols(f"v0:{f.nvars}")
        want = sympy.resultant(
            _to_sympy(sympy, f).as_expr(), _to_sympy(sympy, g).as_expr(), gens[0]
        )
        want = _from_sympy(sympy.Poly(want, *gens), f.nvars)
        assert r in (want, -want)
