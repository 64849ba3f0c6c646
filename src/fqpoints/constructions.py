"""Builders for extremal unions of linear subspaces.

Every builder returns a `LinearUnion`: partial spreads (pairwise disjoint
d-subspaces, needs 2d < n), flowers (d-subspaces pairwise meeting in a fixed
common core, needs n <= 2d), and mixed-dimension arrangements. All three
are arrangements in extremal position, so each meets the arrangement bound
exactly. Every builder re-checks its output with exact rank arithmetic and,
at desk scale, by enumerating the union.
"""

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import InfeasibleError, InvalidSpecError
from .gf import FieldSpec, find_irreducible, upoly_rem
from .projgeom import LinearSubspace, pi, rank

# Most candidate subspaces the first-fit spread packer scans.
SCAN_BUDGET = 500_000
# Most placements the extremal-arrangement backtracking search tries.
ARRANGEMENT_STEPS = 200_000


def _unit_row(length: int, position: int) -> list:
    row = [0] * length
    row[position] = 1
    return row


def _meet_dim(a: LinearSubspace, b: LinearSubspace) -> int:
    """Dimension of the intersection, -1 when it is empty."""
    return a.dim + b.dim + 1 - rank(a.rows + b.rows, a.field)


def _union_point_count(members: Sequence[LinearSubspace]) -> int:
    seen = set()
    for m in members:
        seen.update(m.points())
    return len(seen)


def _elem_json(field: FieldSpec, c: int):
    coeffs = field.coeffs(c)
    return coeffs[0] if field.k == 1 else list(coeffs)


def _rows_json(sub: LinearSubspace) -> list:
    return [[_elem_json(sub.field, c) for c in row] for row in sub.rows]


def _field_json(field: FieldSpec) -> dict:
    modulus = list(field.modulus) if field.modulus else None
    return {"p": field.p, "k": field.k, "modulus": modulus}


def _modulus_text(field: FieldSpec) -> str:
    parts = []
    for e in range(field.k, -1, -1):
        c = field.modulus[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
            continue
        power = "x" if e == 1 else f"x^{e}"
        parts.append(power if c == 1 else f"{c}*{power}")
    return "+".join(parts)


def _extremal_after(first: LinearSubspace, earlier: Sequence[LinearSubspace],
                    cand: LinearSubspace, n: int) -> bool:
    """cand meets `first` in dimension max(d0 + d - n, -1), the least P^n
    allows, and meets each of `earlier` only inside `first`."""
    if _meet_dim(first, cand) != max(first.dim + cand.dim - n, -1):
        return False
    return all(_meet_dim(prev, cand) < 0
               or first.contains_subspace(prev.intersection(cand))
               for prev in earlier)


@dataclass(frozen=True)
class LinearUnion:
    """A union of linear subspaces of P^n in extremal position.

    Every later member meets members[0] in the least dimension P^n allows,
    max(d0 + di - n, -1), and two later members meet only inside members[0].
    The union then has pi(d0) + sum_{i>=1} (pi(di) - pi(d0 + di - n)) points,
    the arrangement bound. kind "spread": all dims d with 2d < n, so the
    members are pairwise disjoint. kind "flower": all dims d with
    d < n <= 2d, every member through the (2d - n)-dimensional core, so any
    two meet exactly there. kind "arrangement": dims decreasing."""

    kind: str
    n: int
    members: tuple
    core: Optional[LinearSubspace] = None

    @property
    def dims(self) -> tuple:
        return tuple(m.dim for m in self.members)

    @property
    def field(self) -> FieldSpec:
        return self.members[0].field

    @property
    def q(self) -> int:
        return self.field.q

    def validate(self) -> None:
        if not self.members:
            raise InvalidSpecError(f"{self.kind} has no members")
        if self.kind not in ("spread", "flower", "arrangement"):
            raise InvalidSpecError(f"unknown union kind {self.kind!r}")
        n, dims = self.n, self.dims
        d = dims[0]
        if any(m.n != n for m in self.members):
            raise InvalidSpecError("member shape mismatch")
        if self.kind == "arrangement":
            if any(a < b for a, b in zip(dims, dims[1:])):
                raise InvalidSpecError("dims must be sorted decreasing")
        elif any(e != d for e in dims):
            raise InvalidSpecError("member shape mismatch")
        if self.kind == "spread" and 2 * d >= n:
            raise InvalidSpecError(f"spread needs 2d < n, got d={d} n={n}")
        if self.kind == "flower":
            if not d < n <= 2 * d:
                raise InvalidSpecError(
                    f"flower needs d < n <= 2d, got d={d} n={n}")
            if self.core is None or self.core.dim != 2 * d - n:
                raise InvalidSpecError("core dimension is off")
            if not all(m.contains_subspace(self.core) for m in self.members):
                raise InvalidSpecError("petal misses the core")
        first = self.members[0]
        for i, m in enumerate(self.members[1:], start=1):
            if not _extremal_after(first, self.members[1:i], m, n):
                raise InvalidSpecError(
                    f"member {i} is not in extremal position")

    def point_count(self) -> int:
        d0, q = self.dims[0], self.q
        return pi(d0, q) + sum(pi(d, q) - pi(d0 + d - self.n, q)
                               for d in self.dims[1:])

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "q": self.q,
               "field": _field_json(self.field),
               "members": [_rows_json(m) for m in self.members],
               "count": self.point_count()}
        if self.kind == "arrangement":
            out["dims"] = list(self.dims)
            return out
        out["d"] = self.dims[0]
        if self.kind == "flower":
            out["core_dim"] = self.core.dim
            out["core"] = _rows_json(self.core)
            out["petals"] = out.pop("members")
        return out

    def to_variety_doc(self) -> str:
        """A loadable variety document with one linear component per member."""
        field = self.field
        head = f"field p={field.p} k={field.k}"
        if field.k > 1:
            head += f" modulus={_modulus_text(field)}"
        lines = [head, f"space n={self.n}"]
        for i, m in enumerate(self.members, start=1):
            lines.append(f"component name=L{i} dim={m.dim} deg=1 irreducible=yes")
            lines.extend(f"poly {f}" for f in m.form_polynomials())
        return "\n".join(lines) + "\n"


def _mul_matrix(field: FieldSpec, modulus, lam, m: int) -> list:
    """Row t holds the coefficients of lam * x^t reduced mod the modulus."""
    rows = []
    for t in range(m):
        rem = list(upoly_rem([0] * t + list(lam), modulus, field))
        rows.append(rem + [0] * (m - len(rem)))
    return rows


def _field_reduction_members(n: int, d: int, r: int,
                             field: FieldSpec) -> list:
    m = d + 1
    capacity = field.q ** m + 1
    if r > capacity:
        raise InfeasibleError(
            f"spread of P^{n} holds at most {capacity} members",
            achieved=capacity)
    modulus = find_irreducible(field, m)
    members = []
    elems = list(field.elements())
    for lam in itertools.product(elems, repeat=m):
        if len(members) == r:
            break
        mat = _mul_matrix(field, modulus, lam, m)
        rows = [_unit_row(m, t) + mat[t] for t in range(m)]
        members.append(LinearSubspace.from_spanning(field, rows))
    if len(members) < r:  # r == capacity: add the vertical member
        rows = [[0] * m + _unit_row(m, t) for t in range(m)]
        members.append(LinearSubspace.from_spanning(field, rows))
    return members


def enumerate_subspaces(n: int, dim: int, field: FieldSpec
                        ) -> Iterator[LinearSubspace]:
    """All dim-subspaces of P^n in reduced-echelon order. Desk scale only."""
    k = dim + 1
    elems = list(field.elements())
    for pivots in itertools.combinations(range(n + 1), k):
        free = [(i, j) for i in range(k) for j in range(n + 1)
                if j > pivots[i] and j not in pivots]
        for values in itertools.product(elems, repeat=len(free)):
            rows = [_unit_row(n + 1, pivots[i]) for i in range(k)]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield LinearSubspace(field, n, tuple(tuple(r) for r in rows))


def build_partial_spread(n: int, d: int, r: int,
                         field: FieldSpec) -> LinearUnion:
    """r pairwise-disjoint d-subspaces of P^n (needs 2d < n, r >= 1).

    n = 2d+1 uses the field-reduction spread (capacity q^(d+1)+1); other
    shapes fall back to first-fit packing over echelon-ordered candidates,
    which makes no optimality claim."""
    if d < 0 or 2 * d >= n:
        raise InvalidSpecError(f"spread needs 0 <= 2d < n, got d={d} n={n}")
    if r < 1:
        raise InvalidSpecError("need at least one member")
    if n == 2 * d + 1:
        members = _field_reduction_members(n, d, r, field)
    else:
        members = []
        scanned = 0
        for cand in enumerate_subspaces(n, d, field):
            if len(members) == r:
                break
            scanned += 1
            if scanned > SCAN_BUDGET:
                raise InfeasibleError(
                    f"packer stopped after {SCAN_BUDGET} candidates with "
                    f"{len(members)} members", achieved=len(members))
            if all(_meet_dim(cand, m) < 0 for m in members):
                members.append(cand)
        if len(members) < r:
            raise InfeasibleError(
                f"packer found only {len(members)} disjoint members",
                achieved=len(members))
    spec = LinearUnion("spread", n, tuple(members))
    spec.validate()
    if pi(n, field.q) <= 10 ** 6:
        assert _union_point_count(spec.members) == spec.point_count()
    return spec


def build_flower(n: int, d: int, r: int, field: FieldSpec) -> LinearUnion:
    """r d-subspaces of P^n through a common (2d-n)-core, meeting pairwise
    exactly there (needs d < n <= 2d, r >= 2).

    Petals are lifts of a spread in the quotient by the core: disjointness
    downstairs is exactly the pairwise-core condition upstairs."""
    if not (0 < d < n <= 2 * d):
        raise InvalidSpecError(f"flower needs d < n <= 2d, got d={d} n={n}")
    if r < 2:
        raise InvalidSpecError("flower needs at least two petals")
    capacity = field.q ** (n - d) + 1
    if r > capacity:
        raise InfeasibleError(
            f"quotient spread holds at most {capacity} members",
            achieved=capacity)
    core_rows = 2 * d - n + 1
    ambient_rows = n + 1
    sub = build_partial_spread(2 * (n - d) - 1, n - d - 1, r, field)
    core = LinearSubspace.from_spanning(
        field, [_unit_row(ambient_rows, ambient_rows - core_rows + t)
                for t in range(core_rows)])
    pad = (0,) * core_rows
    petals = []
    for member in sub.members:
        rows = [tuple(row) + pad for row in member.rows] + list(core.rows)
        petals.append(LinearSubspace.from_spanning(field, rows))
    spec = LinearUnion("flower", n, tuple(petals), core)
    spec.validate()
    if pi(n, field.q) <= 10 ** 6:
        assert _union_point_count(spec.members) == spec.point_count()
    return spec


def _arrangement_candidates(n: int, d1: int, di: int,
                            field: FieldSpec) -> list:
    """Deterministic menu for one member: a forced slice of the first member
    plus a graph over a window of the complementary coordinates."""
    c = max(di + d1 + 1 - n, 0)
    w = di + 1 - c
    length = n + 1
    k_rows = [_unit_row(length, d1 - c + 1 + t) for t in range(c)]
    out = []
    for offset in range(n - d1 - w + 1):
        for alpha in field.elements():
            rows = []
            for t in range(w):
                row = _unit_row(length, d1 + 1 + offset + t)
                if alpha:
                    row[t] = alpha
                rows.append(row)
            out.append(LinearSubspace.from_spanning(field, k_rows + rows))
    return out


def build_extremal_arrangement(dims: Sequence[int], n: int,
                               field: FieldSpec) -> LinearUnion:
    """An arrangement of linear subspaces of the given dimensions whose
    point count equals the arrangement bound.

    The first member is a coordinate subspace; the rest are placed by
    backtracking so each meets the first in the least possible dimension
    and later pairs overlap only inside the first member."""
    if len(dims) < 2:
        raise InvalidSpecError("need at least two members")
    if any(d < 0 or d >= n for d in dims):
        raise InvalidSpecError("each dimension must satisfy 0 <= d < n")
    ds = tuple(sorted(dims, reverse=True))
    d1 = ds[0]
    first = LinearSubspace.from_spanning(
        field, [_unit_row(n + 1, t) for t in range(d1 + 1)])
    menus = [_arrangement_candidates(n, d1, di, field) for di in ds[1:]]

    chosen: list = []
    best_depth = 0
    steps = 0

    def place(i: int) -> bool:
        nonlocal best_depth, steps
        if i == len(menus):
            return True
        for cand in menus[i]:
            steps += 1
            if steps > ARRANGEMENT_STEPS:
                raise InfeasibleError(
                    f"search stopped after {ARRANGEMENT_STEPS} placements",
                    achieved=1 + best_depth)
            if _extremal_after(first, chosen, cand, n):
                chosen.append(cand)
                best_depth = max(best_depth, len(chosen))
                if place(i + 1):
                    return True
                chosen.pop()
        return False

    if not place(0):
        raise InfeasibleError(
            f"placed {1 + best_depth} of {len(ds)} members",
            achieved=1 + best_depth)

    spec = LinearUnion("arrangement", n, (first,) + tuple(chosen))
    spec.validate()
    got, target = _union_point_count(spec.members), spec.point_count()
    assert got == target, f"built {got} points, bound says {target}"
    return spec
