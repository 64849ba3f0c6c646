"""Builders for extremal unions of linear subspaces.

Three shapes: partial spreads (pairwise disjoint d-subspaces, needs 2d < n),
flowers (d-subspaces pairwise meeting in a fixed common core, needs n <= 2d),
and mixed-dimension arrangements whose point count meets the arrangement
bound exactly. Every builder re-checks its output with exact rank arithmetic
and, at desk scale, by enumerating the union.
"""

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .bounds import bound_linear_arrangement
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


def _subspace_disjoint(a: LinearSubspace, b: LinearSubspace) -> bool:
    stacked = list(a.rows) + list(b.rows)
    return rank(stacked, a.field) == len(a.rows) + len(b.rows)


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


def _variety_doc(field: FieldSpec, n: int, members) -> str:
    """A loadable variety document with one linear component per member."""
    head = f"field p={field.p} k={field.k}"
    if field.k > 1:
        head += f" modulus={_modulus_text(field)}"
    lines = [head, f"space n={n}"]
    for i, m in enumerate(members, start=1):
        lines.append(f"component name=L{i} dim={m.dim} deg=1 irreducible=yes")
        lines.extend(f"poly {f}" for f in m.form_polynomials())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SpreadSpec:
    """r pairwise-disjoint d-subspaces of P^n. Invariant: 2d < n."""

    n: int
    d: int
    members: tuple

    @property
    def field(self) -> FieldSpec:
        return self.members[0].field

    @property
    def q(self) -> int:
        return self.field.q

    def validate(self) -> None:
        if not self.members:
            raise InvalidSpecError("spread has no members")
        if 2 * self.d >= self.n:
            raise InvalidSpecError(
                f"spread needs 2d < n, got d={self.d} n={self.n}")
        for m in self.members:
            if m.dim != self.d or m.n != self.n:
                raise InvalidSpecError("member shape mismatch")
        for a, b in itertools.combinations(self.members, 2):
            if not _subspace_disjoint(a, b):
                raise InvalidSpecError("members intersect")

    def point_count(self) -> int:
        return len(self.members) * pi(self.d, self.q)

    def to_json_dict(self) -> dict:
        return {
            "kind": "spread", "n": self.n, "d": self.d, "q": self.q,
            "field": _field_json(self.field),
            "members": [_rows_json(m) for m in self.members],
            "count": self.point_count(),
        }

    def to_variety_doc(self) -> str:
        return _variety_doc(self.field, self.n, self.members)


@dataclass(frozen=True)
class FlowerSpec:
    """r d-subspaces of P^n pairwise meeting exactly in a (2d-n)-core."""

    n: int
    d: int
    core: LinearSubspace
    petals: tuple

    @property
    def field(self) -> FieldSpec:
        return self.core.field

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def core_dim(self) -> int:
        return 2 * self.d - self.n

    def validate(self) -> None:
        if len(self.petals) < 2:
            raise InvalidSpecError("flower needs at least two petals")
        if not (self.d < self.n <= 2 * self.d):
            raise InvalidSpecError(
                f"flower needs d < n <= 2d, got d={self.d} n={self.n}")
        if self.core.dim != self.core_dim:
            raise InvalidSpecError("core dimension is off")
        for petal in self.petals:
            if petal.dim != self.d or petal.n != self.n:
                raise InvalidSpecError("petal shape mismatch")
            if not petal.contains_subspace(self.core):
                raise InvalidSpecError("petal misses the core")
        for a, b in itertools.combinations(self.petals, 2):
            inter = a.intersection(b)
            if inter is None or inter.rows != self.core.rows:
                raise InvalidSpecError("petals do not meet exactly in the core")

    def point_count(self) -> int:
        r, c = len(self.petals), self.core_dim
        return r * (pi(self.d, self.q) - pi(c, self.q)) + pi(c, self.q)

    def to_json_dict(self) -> dict:
        return {
            "kind": "flower", "n": self.n, "d": self.d,
            "core_dim": self.core_dim, "q": self.q,
            "field": _field_json(self.field),
            "core": _rows_json(self.core),
            "petals": [_rows_json(p) for p in self.petals],
            "count": self.point_count(),
        }

    def to_variety_doc(self) -> str:
        return _variety_doc(self.field, self.n, self.petals)


@dataclass(frozen=True)
class ArrangementSpec:
    """Mixed-dimension union meeting the arrangement bound with equality.

    Behaves as a sequence of LinearSubspace; members[0] is the largest."""

    n: int
    dims: tuple
    members: tuple
    count: int

    def __iter__(self) -> Iterator[LinearSubspace]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i):
        return self.members[i]

    @property
    def field(self) -> FieldSpec:
        return self.members[0].field

    @property
    def q(self) -> int:
        return self.field.q

    def validate(self) -> None:
        first = self.members[0]
        if tuple(m.dim for m in self.members) != self.dims:
            raise InvalidSpecError("member dimensions disagree with dims")
        if any(self.dims[i] < self.dims[i + 1]
               for i in range(len(self.dims) - 1)):
            raise InvalidSpecError("dims must be sorted decreasing")
        for i, m in enumerate(self.members[1:], start=2):
            floor = self.dims[0] + m.dim - self.n
            inter = first.intersection(m)
            got = -1 if inter is None else inter.dim
            if got < floor:
                raise InvalidSpecError("intersection dimension below floor")
            if got != max(floor, -1):
                raise InvalidSpecError(
                    f"member {i} meets the first in dimension {got}, "
                    f"needs {max(floor, -1)} to stay extremal")
        for a, b in itertools.combinations(self.members[1:], 2):
            inter = a.intersection(b)
            if inter is not None and not first.contains_subspace(inter):
                raise InvalidSpecError(
                    "later members overlap outside the first")

    def point_count(self) -> int:
        return self.count

    def to_json_dict(self) -> dict:
        return {
            "kind": "arrangement", "n": self.n, "dims": list(self.dims),
            "q": self.q, "field": _field_json(self.field),
            "members": [_rows_json(m) for m in self.members],
            "count": self.count,
        }

    def to_variety_doc(self) -> str:
        return _variety_doc(self.field, self.n, self.members)


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
                         field: FieldSpec) -> SpreadSpec:
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
            if all(_subspace_disjoint(cand, m) for m in members):
                members.append(cand)
        if len(members) < r:
            raise InfeasibleError(
                f"packer found only {len(members)} disjoint members",
                achieved=len(members))
    spec = SpreadSpec(n=n, d=d, members=tuple(members))
    spec.validate()
    if pi(n, field.q) <= 10 ** 6:
        assert _union_point_count(spec.members) == spec.point_count()
    return spec


def build_flower(n: int, d: int, r: int, field: FieldSpec) -> FlowerSpec:
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
    spec = FlowerSpec(n=n, d=d, core=core, petals=tuple(petals))
    spec.validate()
    if pi(n, field.q) <= 10 ** 6:
        assert _union_point_count(spec.petals) == spec.point_count()
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
                               field: FieldSpec) -> ArrangementSpec:
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

    def fits(cand: LinearSubspace, di: int) -> bool:
        floor = max(di + d1 + 1 - n, 0) - 1
        inter = first.intersection(cand)
        if (-1 if inter is None else inter.dim) != floor:
            return False
        for prev in chosen:
            if prev.rows == cand.rows:
                return False
            both = prev.intersection(cand)
            if both is not None and not first.contains_subspace(both):
                return False
        return True

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
            if fits(cand, ds[i + 1]):
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

    members = (first,) + tuple(chosen)
    target = bound_linear_arrangement(list(ds), n, field.q).total
    got = _union_point_count(members)
    assert got == target, f"built {got} points, bound says {target}"
    spec = ArrangementSpec(n=n, dims=ds, members=members, count=got)
    spec.validate()
    return spec
