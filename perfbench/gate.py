"""Output gate: golden comparison and an independent certificate check.

Verdicts are serialized here, field by field, so that the gate does not
depend on the package's own JSON code; CLI calls are compared on exit code
and byte-exact standard output. Every Unstable or StrictlySemistable
certificate is re-checked from the certificate and the moved curve alone:
the curve is moved by the certificate's frame with the polynomial
arithmetic below and mu is evaluated on its support, without calling the
package.
"""

import json
from fractions import Fraction


def _rows(m):
    return None if m is None else [[str(Fraction(x)) for x in row] for row in m]


def verdict_output(v):
    cert = v.certificate
    if cert is not None:
        frame = cert["frame"]
        cert = {
            "frame": {"mx": _rows(frame.mx), "my": _rows(frame.my), "swap": frame.swap},
            "lambda": [str(w) for w in cert["lambda"].weights],
            "mu": str(cert["mu"]),
        }
    doc = {
        "status": v.status,
        "t": str(v.t),
        "certificate": cert,
        "citations": list(v.citations),
        "notes": list(v.notes),
        "undecided": v.undecided,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cli_output(result):
    code, stdout = result
    return json.dumps([code, stdout])


# -- independent mu ---------------------------------------------------------


def _inverse(m):
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _linear_form(coeffs, slots, nvars):
    form = {}
    for c, s in zip(coeffs, slots):
        if c:
            e = [0] * nvars
            e[s] = 1
            form[tuple(e)] = Fraction(c)
    return form


def _moved_support(curve_doc, frame):
    """Support and marked point of C o g^-1 and g(p) for the frame g."""
    surface = curve_doc["surface"]
    point = [Fraction(c) for c in curve_doc["point"]]
    terms = {tuple(t["exp"]): Fraction(t["coeff"]) for t in curve_doc["terms"]}
    if surface == "p2":
        nvars = 3
        inv = _inverse(frame.mx)
        subs = [_linear_form(inv[i], (0, 1, 2), 3) for i in range(3)]
        new_point = [sum(Fraction(a) * x for a, x in zip(row, point)) for row in frame.mx]
    else:
        nvars = 4
        inv_x, inv_y = _inverse(frame.mx), _inverse(frame.my)
        # Without the swap g(x, y) = (mx x, my y); with it g(x, y) =
        # (my y, mx x), so x = mx^-1 y' and y = my^-1 x'.
        x_slots, y_slots = ((2, 3), (0, 1)) if frame.swap else ((0, 1), (2, 3))
        subs = [_linear_form(inv_x[i], x_slots, 4) for i in range(2)]
        subs += [_linear_form(inv_y[i], y_slots, 4) for i in range(2)]
        u = [sum(Fraction(a) * x for a, x in zip(row, point[:2])) for row in frame.mx]
        v = [sum(Fraction(a) * x for a, x in zip(row, point[2:])) for row in frame.my]
        new_point = v + u if frame.swap else u + v
    one = {(0,) * nvars: Fraction(1)}
    moved = {}
    for exp, c in terms.items():
        term = {k: c * x for k, x in one.items()}
        for i, e in enumerate(exp):
            for _ in range(e):
                term = _mul(term, subs[i])
        for k, x in term.items():
            s = moved.get(k, 0) + x
            if s:
                moved[k] = s
            else:
                moved.pop(k, None)
    return surface, new_point, list(moved)


def independent_mu(curve_doc, certificate, t):
    """mu of the certificate's subgroup on the moved curve at slope t:
    the minimum over point coordinates p_l != 0 and support monomials m
    of t * w(l) - w(m)."""
    surface, point, support = _moved_support(curve_doc, certificate["frame"])
    weights = [Fraction(w) for w in certificate["lambda"].weights]
    if surface == "p2":
        literal = weights
        point_weights = [literal[l] for l in range(3) if point[l] != 0]
    else:
        r0, r1 = weights
        literal = [-r0, r0, -r1, r1]
        point_weights = [literal[l] + literal[2 + m]
                         for l in range(2) if point[l] != 0
                         for m in range(2) if point[2 + m] != 0]
    t = Fraction(t)
    return min(t * pw - sum(e * w for e, w in zip(exp, literal))
               for pw in point_weights for exp in support)


def certificate_problem(curve_doc, verdict):
    """None when the verdict's certificate holds, else what is wrong."""
    cert = verdict.certificate
    if cert is None:
        if verdict.status == "Unstable":
            return "Unstable verdict without a certificate"
        return None
    mu = independent_mu(curve_doc, cert, verdict.t)
    if mu != cert["mu"]:
        return f"certificate mu {cert['mu']} but recomputed {mu}"
    if verdict.status == "Unstable" and not mu > 0:
        return f"Unstable certificate with mu {mu}"
    if verdict.status == "StrictlySemistable":
        if mu != 0 or all(w == 0 for w in cert["lambda"].weights):
            return f"zero certificate with mu {mu} or a trivial subgroup"
    return None
