"""A small finite-field and polynomial kit of the benchmark's own.

It builds the benchmark's inputs and recomputes the answers they are checked
against. It shares no code with `fqpoints`: elements are ints 0..q-1 (the
base-p packing of the coefficient vector over GF(p)), extension fields use
q x q tables, and polynomials are dicts from exponent tuples to such ints.
"""

import itertools
import math

# Monic irreducible moduli, ascending coefficients. They are written into
# every document, so the program's own built-in choice is never relied on.
MODULI = {(2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
          (3, 2): (2, 2, 1)}


def factor_order(q):
    """(p, k) with p**k == q; q must be a prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = round(math.log(q, p))
    if p ** k != q:
        raise ValueError(f"{q} is not a prime power")
    return p, k


class Field:
    """GF(q) on ints 0..q-1; extension arithmetic goes through tables."""

    def __init__(self, q):
        self.q = q
        self.p, self.k = factor_order(q)
        if self.k == 1:
            self.modulus = None
            self.mul_table = None
            return
        self.modulus = MODULI[(self.p, self.k)]
        vecs = [self.vector(x) for x in range(q)]
        self.mul_table = [[self.pack(self._vec_mul(a, b)) for b in vecs]
                          for a in vecs]
        self.add_table = [[self.pack([(s + t) % self.p for s, t in zip(a, b)])
                           for b in vecs] for a in vecs]

    def vector(self, x):
        return [(x // self.p ** i) % self.p for i in range(self.k)]

    def pack(self, vec):
        return sum(c * self.p ** i for i, c in enumerate(vec))

    def _vec_mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, s in enumerate(a):
            for j, t in enumerate(b):
                prod[i + j] += s * t
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            for j in range(k + 1):
                prod[i - k + j] -= c * self.modulus[j]
        return [c % p for c in prod[:k]]

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self.add_table[a][b]

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        return self.mul_table[a][b]

    def neg(self, a):
        return self.mul(a, self.p - 1)

    def text(self, x):
        """An element as the program's polynomial grammar writes it."""
        if self.k == 1:
            return str(x)
        parts = []
        for i, c in enumerate(self.vector(x)):
            if c:
                power = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
                parts.append(str(c) if i == 0 else
                             (power if c == 1 else f"{c}*{power}"))
        return "+".join(parts) if parts else "0"

    def field_line(self):
        if self.k == 1:
            return f"field p={self.p} k=1"
        terms = []
        for e in range(self.k, -1, -1):
            c = self.modulus[e]
            power = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
            if c:
                terms.append(str(c) if not power else
                             (power if c == 1 else f"{c}*{power}"))
        mod = "+".join(terms)
        return f"field p={self.p} k={self.k} modulus={mod}"


def pi(j, q):
    """|P^j(F_q)|, zero for j < 0."""
    return (q ** (j + 1) - 1) // (q - 1) if j >= 0 else 0


def monomials(nvars, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars)
            if sum(e) == degree]


def poly_add(F, f, g):
    out = dict(f)
    for e, c in g.items():
        s = F.add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(F, f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = F.add(out.get(e, 0), F.mul(c1, c2))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def substitute(F, f, rows):
    """f(x) with x_j replaced by sum_m rows[j][m] * x_m."""
    nvars = len(rows)
    linear = [{tuple(int(t == m) for t in range(nvars)): c
               for m, c in enumerate(row) if c} for row in rows]
    total = {}
    for exps, coeff in f.items():
        term = {(0,) * nvars: coeff}
        for j, e in enumerate(exps):
            for _ in range(e):
                term = poly_mul(F, term, linear[j])
        total = poly_add(F, total, term)
    return total


def poly_text(F, f):
    """Polynomial text in the program's grammar, terms in a fixed order."""
    parts = []
    for exps in sorted(f, reverse=True):
        factors = [f"x{j}" if e == 1 else f"x{j}^{e}"
                   for j, e in enumerate(exps) if e]
        c = F.text(f[exps])
        if "+" in c:
            c = f"({c})"
        if not factors:
            parts.append(c)
        else:
            parts.append("*".join(factors if c == "1" else [c] + factors))
    return "+".join(parts) if parts else "0"


def points(F, n):
    """Normalized points of P^n: first nonzero coordinate 1."""
    for lead in range(n + 1):
        for tail in itertools.product(range(F.q), repeat=n - lead):
            yield (0,) * lead + (1,) + tail


def _compile(F, f):
    return [(c, tuple((j, e) for j, e in enumerate(exps) if e))
            for exps, c in f.items()]


def vanishes(F, compiled, pt):
    if F.k == 1:
        p = F.p
        return sum(c * math.prod(pt[j] ** e for j, e in mono)
                   for c, mono in compiled) % p == 0
    mul, add = F.mul_table, F.add_table
    total = 0
    for c, mono in compiled:
        for j, e in mono:
            for _ in range(e):
                c = mul[c][pt[j]]
        total = add[total][c]
    return total == 0


def count_union(F, n, components):
    """|X(F_q)| for X the union of components, each a list of polynomials."""
    compiled = [[_compile(F, g) for g in gens] for gens in components]
    return sum(1 for pt in points(F, n)
               if any(all(vanishes(F, g, pt) for g in gens)
                      for gens in compiled))


def ci_hilbert_values(n, degrees, count):
    """h(0..count-1) of a complete intersection of the given degrees in
    P^n: the series prod(1 - z^d) / (1 - z)^(n+1)."""
    num = [1]
    for d in degrees:
        nxt = num + [0] * d
        for i, c in enumerate(num):
            nxt[i + d] -= c
        num = nxt
    return [sum(c * math.comb(t - j + n, n) for j, c in enumerate(num)
                if t >= j) for t in range(count)]
