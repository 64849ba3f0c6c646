"""Exhaustive verification sweeps: one CSV-shaped row per checked case.

Families:

- ``all_hypersurfaces``: every form of degree d on P^n over each GF(q),
  with its point count against Serre's bound d q^(n-1) + pi(n-2).
- ``constructions``: the extremal spreads, flowers and arrangements, which
  must meet their bounds exactly.
- ``identity_grid``: the pi recursion and difference identities.
- ``lemma_grid``: the restriction and affine margins, which must be >= 0.

The forms of degree d on P^n are the codewords of the projective
Reed-Muller code PRM_q(d, n), and a form's point count is |P^n| minus the
weight of its codeword. The hypersurface sweep walks them incrementally:
consecutive forms differ in a few coefficients, so each form costs |P^n|
list lookups per changed coefficient instead of a fresh evaluation at
every point. Field elements are the ints of `gf.FieldSpec`; the sweep
reaches their coefficients over GF(p) only through `FieldSpec.coeffs`, and
re-encodes them so that one lookup adds two values: it needs no q x q
table and makes no call per point.
"""

from .bounds import (
    bound_equidimensional,
    bound_linear_arrangement,
    bound_serre,
    restriction_margin,
)
from .constructions import (
    build_extremal_arrangement,
    build_flower,
    build_partial_spread,
)
from .errors import InvalidSpecError
from .gf import FieldSpec, field_from_order
from .mpoly import Polynomial, monomials_of_degree
from .projgeom import enumerate_points, pi

SWEEP_FAMILIES = ("all_hypersurfaces", "constructions", "identity_grid",
                  "lemma_grid")


def _row(kind, n, q, bound, count="", tight="", dims="", degs="",
         hypotheses="") -> dict:
    return {"kind": kind, "n": n, "q": q, "dims": dims, "degs": degs,
            "bound": bound, "count": count, "tight": tight,
            "hypotheses": hypotheses}


def _zero_counts(field: FieldSpec, n: int, degree: int):
    """Point counts on P^n of the degree-d forms up to scalars: the points
    of P^(m-1) for the m monomials of `monomials_of_degree(n + 1, d)`, in
    the order `enumerate_points(m - 1, field)` walks them.

    A value is held as `field.digit_code(2p - 1)` writes it: its
    coefficient vector over GF(p) as the digits of an int in base 2p - 1.
    The sum of two such codes has every digit below 2p - 1, so it never
    carries, and one lookup in `reduce`, which takes each digit mod p,
    turns it back into the code of the field sum. Zero encodes as 0.
    `reduce` has (2p - 1)^k entries: 2p - 1 over a prime field, and at
    most 81 over the extensions `field_from_order` builds (q <= 16).
    When the coefficient of monomial i goes from a to b, the column of i
    scaled by b - a is added to the values at the points, one
    `reduce[v + s]` pass. A scaled column is built the first time its
    step b - a occurs. In the odometer order of the forms only a few
    distinct steps occur (at most three over a prime field, five over
    GF(4), GF(8), GF(9) and GF(16)).
    """
    p, base, nvars = field.p, 2 * field.p - 1, n + 1
    weights = [base ** i for i in range(field.k)]
    encode = field.digit_code(base)
    reduce = [sum(x // w % base % p * w for w in weights)
              for x in range(base ** field.k)]
    points = list(enumerate_points(n, field))
    monos = monomials_of_degree(nvars, degree)
    columns = [[Polynomial(field, nvars, {u: 1}).evaluate(P) for P in points]
               for u in monos]
    scaled = {}  # (i, c): the encoded column of monomial i times c

    vals = [0] * len(points)
    held = (0,) * len(monos)
    for coeffs in enumerate_points(len(monos) - 1, field):
        for i, (a, b) in enumerate(zip(held, coeffs)):
            if a != b:
                key = (i, field.sub(b, a))
                step = scaled.get(key)
                if step is None:
                    step = scaled[key] = [encode[field.mul(key[1], v)]
                                          for v in columns[i]]
                vals = [reduce[v + s] for v, s in zip(vals, step)]
        held = coeffs
        yield vals.count(0)


def _hypersurface_rows(n: int, degree: int, qs, budget: int) -> list:
    plans = []
    for q in qs:  # every q is checked before any q is swept
        field = field_from_order(q)
        m = len(monomials_of_degree(n + 1, degree))
        nforms, npoints = (q ** m - 1) // (q - 1), pi(n, q)
        if nforms * npoints > budget:
            raise InvalidSpecError(
                f"sweep would evaluate {nforms}x{npoints} pairs, "
                f"over the {budget} budget")
        plans.append((field, bound_serre(n, degree, q)))
    rows = []
    for field, cap in plans:
        for c in _zero_counts(field, n, degree):
            rows.append(_row("serre", n, field.q, cap, c, c == cap,
                             dims=str(n - 1), degs=str(degree),
                             hypotheses="hypersurface"))
    return rows


def _construction_rows(qs) -> list:
    rows = []
    for q in qs:
        field = field_from_order(q)
        made = [
            build_partial_spread(3, 1, q ** 2 + 1, field),
            build_partial_spread(3, 1, 2, field),
            build_flower(4, 2, 3, field),
            build_flower(3, 2, 2, field),
        ]
        if q == 2:
            made.append(build_partial_spread(5, 2, 3, field))
        for spec in made:
            r, d = len(spec.members), spec.dims[0]
            cap = bound_equidimensional(spec.n, q, d, r).total
            c = spec.point_count()
            rows.append(_row("equidimensional", spec.n, q, cap, c, c == cap,
                             dims=";".join([str(d)] * r),
                             degs=";".join(["1"] * r),
                             hypotheses="irredundant=verified"))
        for dims, n in (([2, 1], 3), ([2, 2], 4), ([1, 1], 3)):
            arr = build_extremal_arrangement(dims, n, field)
            cap = bound_linear_arrangement(dims, n, q).total
            c = arr.point_count()
            rows.append(_row("linear_arrangement", n, q, cap, c, c == cap,
                             dims=";".join(str(d) for d in arr.dims),
                             degs=";".join(["1"] * len(dims)),
                             hypotheses="irredundant=verified"))
    return rows


def _identity_rows(qs, max_index: int, budget: int) -> list:
    nrows = (max_index + 1) * (max_index + 4) // 2  # both kinds, per q
    if len(qs) * nrows > budget:
        raise InvalidSpecError(f"sweep would build {len(qs)}x{nrows} rows, "
                               f"over the {budget} budget")
    rows = []
    for q in qs:
        for k in range(0, max_index + 1):
            lhs = pi(k, q)
            rhs = q * pi(k - 1, q) + 1
            rows.append(_row("pi_recursion", k, q, lhs, rhs, lhs == rhs))
        for k in range(0, max_index + 1):
            for el in range(0, k + 1):
                lhs = pi(k, q) - pi(el, q)
                rhs = q * (pi(k - 1, q) - pi(el - 1, q))
                rows.append(_row("pi_difference", k, q, lhs, rhs, lhs == rhs,
                                 dims=f"{k};{el}"))
    return rows


def _lemma_rows(qs, max_index: int) -> list:
    rows = []
    n_top = min(max_index, 8)
    for q in qs:
        for d in range(1, 7):
            for n in range(d + 1, n_top + 1):
                for delta in range(2, 11):
                    m = restriction_margin(n, q, d, delta)
                    rows.append(_row("restriction_margin", n, q, m.margin,
                                     tight=m.margin == 0, dims=str(d),
                                     degs=str(delta),
                                     hypotheses="dim>=1;degree>=2"))
                m = restriction_margin(n, q, d, 2)
                rows.append(_row("affine_margin", n, q, m.affine_margin,
                                 tight=m.affine_margin == 0, dims=str(d)))
    return rows


def sweep_rows(family: str, n=None, degree=None, qs=(2,), max_index=12,
               budget=10 ** 7):
    """Rows for one sweep family plus the violation subset (both lists)."""
    qs = list(qs)
    if not qs:
        raise InvalidSpecError("no field sizes to sweep")
    if family == "all_hypersurfaces":
        if n is None or degree is None:
            raise InvalidSpecError("all_hypersurfaces needs --n and --degree")
        rows = _hypersurface_rows(n, degree, qs, budget)
        bad = [r for r in rows if r["count"] > r["bound"]]
    elif family == "constructions":
        rows = _construction_rows(qs)
        bad = [r for r in rows if not r["tight"] or r["count"] > r["bound"]]
    elif family == "identity_grid":
        rows = _identity_rows(qs, max_index, budget)
        bad = [r for r in rows if not r["tight"]]
    else:
        rows = _lemma_rows(qs, max_index)
        bad = [r for r in rows if r["bound"] < 0]
    return rows, bad
