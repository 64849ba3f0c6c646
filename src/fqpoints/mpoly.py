"""Sparse multivariate polynomials over a finite field.

Monomials are exponent tuples; a polynomial maps exponent tuples to nonzero
field elements, the ints of `gf.FieldSpec`. A term order is a sort key:
LEX or GREVLEX (graded reverse lex), both with x0 > x1 > .... The grammar
accepts +, -, *, ^ with parentheses, integer literals (reduced mod p here
and nowhere else), variables x0..x{nvars-1}, and the extension generator
`a`. Each multiplication the parser makes is capped at TERM_WORK_CAP
coefficient products, each expanded power at DEGREE_CAP, and the nesting
of parentheses and unary minus signs at NESTING_CAP levels.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FieldMismatchError,
    NotHomogeneousError,
    ParseError,
    UnknownVariableError,
    WrongFieldError,
)
from .gf import FieldSpec

Exps = tuple

# Largest total degree the parser expands a power to; hilbert() caps the
# range of its Hilbert function at the same value.
DEGREE_CAP = 1000
# Most coefficient products one multiplication in the parser may take; a
# power is checked at each of its square-and-multiply steps.
TERM_WORK_CAP = 300_000
# Deepest nesting of parentheses and unary minus signs the parser follows;
# each level is a few Python frames, so this keeps it clear of the
# interpreter's recursion limit.
NESTING_CAP = 100


Order = Callable[[Exps], tuple]


def LEX(u: Exps) -> Exps:
    return u


def GREVLEX(u: Exps) -> tuple:
    """Total degree first, then the smaller last exponent wins."""
    return (sum(u), tuple(-e for e in reversed(u)))


class Polynomial:
    """Immutable-by-convention sparse polynomial tied to a field and nvars."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldSpec, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.terms = terms  # Exps -> nonzero field element

    @classmethod
    def from_terms(cls, field: FieldSpec, nvars: int,
                   items: Iterable[tuple]) -> "Polynomial":
        acc: dict = {}
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise DimensionMismatchError(
                    f"exponent tuple {exps} does not fit {nvars} variables")
            cur = acc.get(exps)
            coeff = coeff if cur is None else field.add(cur, coeff)
            if coeff:
                acc[exps] = coeff
            elif exps in acc:
                del acc[exps]
        return cls(field, nvars, acc)

    @classmethod
    def zero(cls, field: FieldSpec, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: FieldSpec, nvars: int, value) -> "Polynomial":
        return cls.from_terms(field, nvars, [((0,) * nvars, value)])

    @classmethod
    def variable(cls, field: FieldSpec, nvars: int, index: int) -> "Polynomial":
        exps = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(field, nvars, {exps: 1})

    # -- structure --

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    @property
    def homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_monomial(self, order: Order = GREVLEX) -> Exps:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order)

    # -- arithmetic --

    def _check(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")
        if self.nvars != other.nvars:
            raise DimensionMismatchError("polynomials in different variable counts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        add = self.field.add
        acc = dict(self.terms)
        for e, c in other.terms.items():
            cur = acc.get(e)
            s = c if cur is None else add(cur, c)
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return Polynomial(self.field, self.nvars, acc)

    def __neg__(self) -> "Polynomial":
        neg = self.field.neg
        return Polynomial(self.field, self.nvars,
                          {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        add, mul = self.field.add, self.field.mul
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = mul(c1, c2)
                cur = acc.get(e)
                s = prod if cur is None else add(cur, prod)
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        return Polynomial(self.field, self.nvars, acc)

    # -- evaluation and substitution --

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.nvars:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.nvars}")
        F = self.field
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(point, exps):
                if e:
                    term = F.mul(term, F.pow(v, e))
            total = F.add(total, term)
        return total

    def compose_linear(self, rows: Sequence[Sequence], new_nvars: int) -> "Polynomial":
        """Substitute x_j <- sum_m rows[j][m] * y_m (a linear change of variables)."""
        if len(rows) != self.nvars:
            raise DimensionMismatchError("need one substitution row per variable")
        linear = [linear_form(self.field, row) for row in rows]
        powers: dict = {}

        def power(j, e):
            if e == 0:
                return Polynomial.constant(self.field, new_nvars, 1)
            got = powers.get((j, e))
            if got is None:
                got = power(j, e - 1) * linear[j]
                powers[(j, e)] = got
            return got

        total = Polynomial.zero(self.field, new_nvars)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(self.field, new_nvars, coeff)
            for j, e in enumerate(exps):
                if e:
                    term = term * power(j, e)
            total = total + term
        return total

    # -- comparison, hashing, printing --

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=GREVLEX, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for j, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{j}")
                elif e > 1:
                    factors.append(f"x{j}^{e}")
            ctext = self.field.text(coeff)
            if "+" in ctext:
                ctext = f"({ctext})"
            if not factors:
                parts.append(ctext)
            elif ctext == "1":
                parts.append("*".join(factors))
            else:
                parts.append(ctext + "*" + "*".join(factors))
        return "+".join(parts)

    def __repr__(self):
        return f"<poly {self} over {self.field}>"


# --- linear forms <-> coefficient vectors ---

def linear_form(field: FieldSpec, vector: Sequence) -> Polynomial:
    """The linear form sum_i vector[i] * x_i in len(vector) variables."""
    nvars = len(vector)
    return Polynomial.from_terms(field, nvars, [
        (tuple(1 if j == i else 0 for j in range(nvars)), c)
        for i, c in enumerate(vector)])


def form_vector(f: Polynomial) -> tuple:
    """The coefficient vector of a linear form; inverse of linear_form."""
    vec = [0] * f.nvars
    for exps, c in f.terms.items():
        vec[exps.index(1)] = c
    return tuple(vec)


# --- parsing ---

_OPS = set("+-*^()")


def _tokenize(text: str) -> list:
    s = text.replace("**", "^")
    tokens = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            tokens.append(("num", int(s[i:j])))
            i = j
        elif ch == "x":
            j = i + 1
            while j < len(s) and s[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable needs an index at position {i} in {text!r}")
            tokens.append(("var", int(s[i + 1:j])))
            i = j
        elif ch == "a":
            tokens.append(("gen", None))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens, field, nvars, source):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.nvars = nvars
        self.source = source
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Polynomial:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Polynomial:
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = self.times(node, self.factor())
        return node

    def times(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """a * b, refused before it starts when it would take more than
        TERM_WORK_CAP coefficient products."""
        if len(a.terms) * len(b.terms) > TERM_WORK_CAP:
            raise BudgetExceededError(
                f"product of {len(a.terms)} by {len(b.terms)} terms in "
                f"{self.source!r} is over the cap of {TERM_WORK_CAP} "
                f"term products")
        return a * b

    def nested(self, parse) -> Polynomial:
        """parse(), one nesting level deeper; refused past NESTING_CAP."""
        if self.depth == NESTING_CAP:
            raise ParseError(
                f"parentheses and signs nested deeper than {NESTING_CAP} "
                f"levels in {self.source!r}")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def factor(self) -> Polynomial:
        if self.peek() == "-":
            self.take()
            return -self.nested(self.factor)
        node = self.base()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not (isinstance(tok, tuple) and tok[0] == "num"):
                raise ParseError(f"exponent must be an integer in {self.source!r}")
            exp = tok[1]
            # a monomial's power is one term; anything longer expands
            if len(node.terms) > 1 and node.degree() * exp > DEGREE_CAP:
                raise BudgetExceededError(
                    f"power of degree {node.degree() * exp} in "
                    f"{self.source!r} is over the cap {DEGREE_CAP}")
            result = Polynomial.constant(self.field, self.nvars, 1)
            while exp:
                if exp & 1:
                    result = self.times(result, node)
                exp >>= 1
                if exp:
                    node = self.times(node, node)
            node = result
        return node

    def base(self) -> Polynomial:
        tok = self.take()
        if tok == "(":
            node = self.nested(self.expr)
            if self.take() != ")":
                raise ParseError(f"unbalanced parentheses in {self.source!r}")
            return node
        if isinstance(tok, tuple):
            kind, val = tok
            if kind == "num":  # the one place an int literal is reduced
                return Polynomial.constant(self.field, self.nvars,
                                           val % self.field.p)
            if kind == "var":
                if not 0 <= val < self.nvars:
                    raise UnknownVariableError(
                        f"x{val} out of range for {self.nvars} variables")
                return Polynomial.variable(self.field, self.nvars, val)
            if kind == "gen":
                if self.field.k == 1:
                    raise WrongFieldError(
                        "generator symbol `a` used over a prime field")
                return Polynomial.constant(self.field, self.nvars, self.field.gen())
        raise ParseError(f"unexpected token {tok!r} in {self.source!r}")


def parse_poly(text: str, field: FieldSpec, nvars: int) -> Polynomial:
    """Parse polynomial text; coefficients reduce into the field, so the
    result can be canonically zero (e.g. `2*x0` over GF(2))."""
    try:
        tokens = _tokenize(text)
    except ValueError:  # a number past the digit limit, or not ASCII
        raise ParseError(f"unreadable number in {text!r}") from None
    if not tokens:
        raise ParseError("empty polynomial text")
    parser = _Parser(tokens, field, nvars, text)
    poly = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input from token {parser.peek()!r} in {text!r}")
    return poly


# --- affine charts ---

def dehomogenize(f: Polynomial, i: int) -> Polynomial:
    """Set x_i = 1 in the homogeneous f and rename the remaining variables
    to x0..x{n-2} by closing the gap."""
    if not f.homogeneous:
        raise NotHomogeneousError("dehomogenize needs a homogeneous input")
    if not 0 <= i < f.nvars:
        raise DimensionMismatchError(f"chart index {i} out of range")
    return Polynomial.from_terms(
        f.field, f.nvars - 1,
        ((exps[:i] + exps[i + 1:], c) for exps, c in f.terms.items()))


# --- monomials ---

def monomials_of_degree(nvars: int, degree: int) -> list:
    """All exponent tuples of the given total degree, deterministic order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    if nvars < 1:
        raise DimensionMismatchError("need at least one variable")
    rec((), degree, nvars)
    return out
