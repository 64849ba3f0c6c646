"""Bipartite incidence censuses between variety points and hyperplanes.

Both censuses fix a base point P and count incidences (Q, H) between a set
of variety points and a pencil of hyperplanes through P. The double-counting
identities they check are exact statements about enumerated data, so a
failure localizes to a concrete hyperplane.
"""

from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .bounds import bound_projective
from .errors import (
    ComponentIsHyperplaneError,
    NotLinearError,
    PointNotOnComponentError,
    PointNotOnVarietyError,
)
from .mpoly import linear_form
from .projgeom import enumerate_hyperplanes, pi, point_text
from .variety import (
    Variety,
    _zero_tally,
    classify_components,
    dimension_degree_sequences,
    rational_points,
)


@dataclass(frozen=True)
class IncidenceCensus:
    regime: str  # "spanning" | "linear_component"
    n: int
    q: int
    base_point: str  # the point as point_text prints it
    v1_size: int
    v2_size: int
    edge_count: int
    per_point_valency: int
    valencies: tuple  # (hyperplane form text, valency) in pencil order
    identities: dict
    section_bound: Optional[int] = None
    violations: tuple = ()
    extra: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.identities.values()) and not self.violations

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok,
                "extra": {k: str(v) for k, v in self.extra.items()}}

    def trace(self) -> list:
        """The counting chain with concrete numbers, one line per step."""
        lines = [
            f"regime {self.regime} over q={self.q}, base point {self.base_point}",
            f"|V1| = {self.v1_size}, |V2| = {self.v2_size}",
            f"edges = {self.edge_count} = |V1| * {self.per_point_valency} "
            f"(per-point valency)",
        ]
        for name, holds in self.identities.items():
            lines.append(f"check {name}: {'ok' if holds else 'FAILED'}")
        if self.section_bound is not None:
            cap = self.section_bound - 1
            lines.append(
                f"section bound {self.section_bound}: valencies capped at {cap}, "
                f"max seen {max((v for _, v in self.valencies), default=0)}")
        if "derived_count_bound" in self.extra:
            lines.append(
                f"count chain gives |X| <= {self.extra['derived_count_bound']}, "
                f"observed {self.extra['observed_count']}")
        for v in self.violations:
            lines.append(f"VIOLATION {v}")
        return lines


def _pencil_incidences(X: Variety, P: tuple, budget: int, L=None):
    """(V1, pencil, valencies, edges) at base point P.

    V1 is X(F_q) minus P, or minus the subspace L when one is given; the
    pencil is the hyperplanes through P (not containing L); a valency is the
    number of V1 points on one pencil member, in pencil order: the number
    of zeros of the member's dual form, a linear polynomial, over V1. A P
    outside X(F_q) raises PointNotOnVarietyError."""
    pts = rational_points(X, budget=budget)
    if P not in pts:
        raise PointNotOnVarietyError(
            f"{point_text(X.field, P)} is not a rational point of X")
    v1 = [Q for Q in pts if (Q != P if L is None else not L.contains(Q))]
    pencil = list(enumerate_hyperplanes(X.n, X.field, through=P,
                                        excluding_containing=L))
    forms = [linear_form(X.field, w) for w in pencil]
    valencies = tuple(zip(map(str, forms), _zero_tally(X.field, v1, forms)))
    return v1, pencil, valencies, sum(v for _, v in valencies)


def census_through_point(X: Variety, P: tuple,
                         budget: int = 10 ** 7) -> IncidenceCensus:
    """Census of incidences between X(F_q) \\ {P} and the pencil of
    hyperplanes through P.

    Always checks the double-counting identity (every Q != P lies on exactly
    pi_{n-2} pencil members). When the classification puts every component
    outside every hyperplane, additionally caps each valency by the section
    bound minus one and replays the derived count bound."""
    n, q = X.n, X.q
    v1, pencil, valencies, edges = _pencil_incidences(X, P, budget)
    per_point = pi(n - 2, q)
    identities = {
        "pencil_size_is_pi_n_minus_1": len(pencil) == pi(n - 1, q),
        "edge_identity": edges == len(v1) * per_point,
    }
    section_bound = None
    violations = []
    extra = {}
    cls = classify_components(X, _points=v1 + [P])
    extra["classification"] = cls.regime
    if cls.regime == "spanning":
        seq, hyp = dimension_degree_sequences(X)
        rep = bound_projective(seq, n, q, mode="section", hypotheses=hyp)
        section_bound = rep.total
        for form_text, v in valencies:
            if v > section_bound - 1:
                violations.append((form_text, v, section_bound - 1))
        identities["valency_sum_capped"] = (
            edges <= pi(n - 1, q) * (section_bound - 1))
        count = len(v1) + 1
        extra["observed_count"] = count
        if section_bound < pi(n - 1, q):
            derived = 1 + Fraction(pi(n - 1, q) * (section_bound - 1),
                                   per_point)
            extra["derived_count_bound"] = derived
            identities["derived_bound_covers_count"] = count <= derived
        else:
            ambient = bound_projective(seq, n, q, hypotheses=hyp).total
            extra["ambient_bound"] = ambient
            identities["ambient_bound_reaches_whole_space"] = (
                ambient >= pi(n, q))
    return IncidenceCensus(
        regime="spanning", n=n, q=q, base_point=point_text(X.field, P),
        v1_size=len(v1), v2_size=len(pencil), edge_count=edges,
        per_point_valency=per_point, valencies=valencies,
        identities=identities, section_bound=section_bound,
        violations=tuple(violations), extra=extra)


def census_linear_component(X: Variety, component_name: str,
                            P: tuple,
                            budget: int = 10 ** 7) -> IncidenceCensus:
    """Census of incidences between (X \\ L)(F_q) and the hyperplanes
    through P that do not contain the linear component L.

    Needs L linear of dimension below n-1 and P a point of L. Checks the
    pencil size pi_{n-1} - pi_{n-d-1} and the per-point valency
    pi_{n-2} - pi_{n-d-2}."""
    comp = X.component(component_name)
    if not comp.is_linear or comp.empty:
        raise NotLinearError(f"component {component_name!r} is not linear")
    n, q = X.n, X.q
    d = comp.dim
    if d >= n - 1:
        raise ComponentIsHyperplaneError(
            f"component {component_name!r} has dimension {d}; the census "
            f"needs room for hyperplanes not containing it")
    L = comp.subspace()
    if not L.contains(P):
        raise PointNotOnComponentError(f"{point_text(X.field, P)} is not on "
                                       f"component {component_name!r}")
    v1, pencil, valencies, edges = _pencil_incidences(X, P, budget, L)
    per_point = pi(n - 2, q) - pi(n - d - 2, q)
    identities = {
        "pencil_size_is_difference_of_pis":
            len(pencil) == pi(n - 1, q) - pi(n - d - 1, q),
        "edge_identity": edges == len(v1) * per_point,
    }
    return IncidenceCensus(
        regime="linear_component", n=n, q=q, base_point=point_text(X.field, P),
        v1_size=len(v1), v2_size=len(pencil), edge_count=edges,
        per_point_valency=per_point, valencies=valencies,
        identities=identities,
        extra={"component": component_name, "component_dim": d})
