"""Projective spaces over finite fields: points, subspaces, hyperplanes.

Points are coordinate tuples normalized so the first nonzero entry is 1.
A hyperplane is its dual form w, the tuple of coefficients of the linear
form vanishing on it, normalized the same way; a point x lies on it when
w . x = 0. Other subspaces are stored as RREF bases of their underlying
linear spaces, which makes equality and hashing canonical. A point lies on
a subspace when every one of the subspace's dual forms (a basis of the
linear forms vanishing on it, computed once and cached) vanishes at the
point. q-ary counts use pi(j) = |P^j(F_q)|, with pi(j) = 0 for negative j.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .errors import BadPointError, InconsistentFiltersError
from .gf import FieldSpec
from .mpoly import linear_form, parse_poly


def pi(j: int, q: int) -> int:
    """Number of points of P^j over GF(q); zero for j < 0."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q}")
    if j < 0:
        return 0
    return (q ** (j + 1) - 1) // (q - 1)


def _normalized_tuples(field: FieldSpec, length: int) -> Iterator[tuple]:
    """All length-tuples with first nonzero entry 1, leading-1 position first."""
    els = list(field.elements())
    for lead in range(length):
        for tail in itertools.product(els, repeat=length - lead - 1):
            yield (0,) * lead + (1,) + tail


def normalize_point(field: FieldSpec, coords: Sequence[int]) -> tuple:
    """coords scaled so the first nonzero entry is 1: the point's tuple."""
    lead = next((v for v in coords if v), None)
    if lead is None:
        raise BadPointError("projective point needs a nonzero coordinate")
    inv = field.inv(lead)
    return tuple(field.mul(v, inv) for v in coords)


def point_text(field: FieldSpec, point: Sequence[int]) -> str:
    """`(1:0:a)`: the text `point_from_text` reads back."""
    return "(" + ":".join(field.text(c) for c in point) + ")"


def point_from_text(text: str, field: FieldSpec, n: int) -> tuple:
    """Parse `(1:0:2)` or `1,0,2` into the normalized tuple of a P^n point.
    One pair of parentheses around the whole text is dropped."""
    s = text.strip()
    if s[:1] == "(" and s[-1:] == ")":
        depth = 0
        for ch in s[:-1]:
            depth += (ch == "(") - (ch == ")")
            if not depth:
                break  # the first "(" closes before the end: not enclosing
        else:
            s = s[1:-1]
    sep = ":" if ":" in s else ","
    parts = [part.strip() for part in s.split(sep)]
    if len(parts) != n + 1:
        raise BadPointError(f"expected {n + 1} coordinates, got {len(parts)}")
    # each coordinate is a constant expression such as 2, -1 or a+1
    for part in parts:
        if "x" in part:
            raise BadPointError(f"point coordinate {part!r} is not a constant")
    coords = [parse_poly(part, field, 0).evaluate(()) for part in parts]
    return normalize_point(field, coords)


def enumerate_points(n: int, field: FieldSpec) -> Iterator[tuple]:
    """All pi(n) points of P^n, deterministic order, normalized."""
    if n < 0:
        raise ValueError("ambient dimension must be nonnegative")
    yield from _normalized_tuples(field, n + 1)


# --- exact linear algebra over a FieldSpec ---

def _dot(field: FieldSpec, w: Sequence[int], v: Sequence[int]) -> int:
    """sum_i w_i * v_i: the linear form w evaluated at the vector v."""
    if field.k == 1:
        return sum(a * b for a, b in zip(w, v)) % field.p
    total = 0
    for a, b in zip(w, v):
        if a and b:  # normalized forms and points have many zeros
            total = field.add(total, field.mul(a, b))
    return total


def rref(rows: Sequence[Sequence[int]], field: FieldSpec):
    """(reduced row echelon rows without zero rows, pivot column list)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(v, inv) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(a, field.mul(f, b))
                          for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows, field: FieldSpec) -> int:
    return len(rref(rows, field)[0])


def nullspace(rows: Sequence[Sequence[int]], field: FieldSpec,
              ncols: int) -> list:
    """RREF basis of {v : M v = 0} for the row matrix M."""
    red, pivots = rref(rows, field) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(red[i][f])
        basis.append(tuple(vec))
    if not basis:
        return []
    return rref(basis, field)[0]


class LinearSubspace:
    """A projective linear subspace, canonically an RREF basis of rows."""

    __slots__ = ("field", "n", "rows", "_dual")

    def __init__(self, field: FieldSpec, n: int, rows: tuple):
        self.field = field
        self.n = n
        self.rows = rows
        self._dual = None

    @classmethod
    def from_spanning(cls, field: FieldSpec, rows: Sequence[Sequence[int]]) -> "LinearSubspace":
        if not rows:
            raise ValueError("need at least one spanning row")
        n = len(rows[0]) - 1
        red, _ = rref(rows, field)
        if not red:
            raise ValueError("spanning rows are all zero")
        return cls(field, n, tuple(red))

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    def dual_forms(self) -> tuple:
        """Basis of linear forms vanishing on the subspace (n - dim of them)."""
        if self._dual is None:
            self._dual = tuple(nullspace(self.rows, self.field, self.n + 1))
        return self._dual

    def contains(self, point: Sequence[int]) -> bool:
        """Every dual form vanishes at the point (any coordinate vector)."""
        return not any(_dot(self.field, w, point) for w in self.dual_forms())

    def contains_subspace(self, other: "LinearSubspace") -> bool:
        return all(self.contains(row) for row in other.rows)

    def points(self) -> Iterator[tuple]:
        F = self.field
        for combo in _normalized_tuples(F, len(self.rows)):
            coords = [0] * (self.n + 1)
            for c, row in zip(combo, self.rows):
                if c:
                    coords = [F.add(a, F.mul(c, b)) for a, b in zip(coords, row)]
            yield tuple(coords)

    def intersection(self, other: "LinearSubspace") -> Optional["LinearSubspace"]:
        """The intersection subspace, or None when it is empty."""
        stacked = list(self.dual_forms()) + list(other.dual_forms())
        sol = nullspace(stacked, self.field, self.n + 1)
        if not sol:
            return None
        return LinearSubspace(self.field, self.n, tuple(sol))

    def form_polynomials(self) -> list:
        """dual_forms as linear Polynomial objects."""
        return [linear_form(self.field, w) for w in self.dual_forms()]

    def __eq__(self, other):
        if not isinstance(other, LinearSubspace):
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.n, self.rows))

    def __repr__(self):
        basis = "; ".join(
            "(" + ",".join(self.field.text(c) for c in row) + ")"
            for row in self.rows)
        return f"<subspace dim {self.dim} of P^{self.n}: {basis}>"


def enumerate_hyperplanes(n: int, field: FieldSpec,
                          through: Optional[tuple] = None,
                          excluding_containing: Optional[LinearSubspace] = None
                          ) -> Iterator[tuple]:
    """The normalized dual forms of the hyperplanes of P^n, in the order of
    `enumerate_points`, with incidence filters.

    `through` keeps hyperplanes on a point, `excluding_containing` drops
    those containing a subspace. When both are given the point must lie on
    the excluded subspace; that is the configuration the counting identities
    cover.
    """
    if through is not None and excluding_containing is not None:
        if not excluding_containing.contains(through):
            raise InconsistentFiltersError(
                "through-point must lie on the subspace being excluded")
    for w in _normalized_tuples(field, n + 1):
        if through is not None and _dot(field, w, through):
            continue
        if excluding_containing is not None and not any(
                _dot(field, w, row) for row in excluding_containing.rows):
            continue
        yield w
