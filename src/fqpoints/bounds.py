"""Exact point-count bounds from (dimension, degree) data.

Everything here is integer arithmetic on pi(j) = |P^j(F_q)| with pi = 0 at
negative indices. Evaluators take explicit dimension/degree sequences so
they can be driven from a loaded variety, a construction certificate, or
bare numbers; reports carry the per-component terms, the tail, and the
hypotheses the caller claims.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    BadSequenceError,
    BudgetExceededError,
    DimensionTooLargeError,
    TooFewComponentsError,
)
from .gf import prime_power
from .projgeom import pi


@dataclass(frozen=True)
class BoundTerm:
    name: str
    dim: int
    degree: int
    term: int


@dataclass(frozen=True)
class BoundReport:
    kind: str
    n: int
    q: int
    per_component: tuple
    tail: int
    total: int
    hypotheses: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def dims(self) -> list:
        return [t.dim for t in self.per_component]

    def degs(self) -> list:
        return [t.degree for t in self.per_component]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "q": self.q,
            "per_component": [
                {"name": t.name, "dim": t.dim, "deg": t.degree, "term": t.term}
                for t in self.per_component],
            "tail": self.tail,
            "total": self.total,
            "hypotheses": dict(self.hypotheses),
            "extra": dict(self.extra),
        }


def _check_q(q: int, n: int):
    """q is a prime power, and pi(n) over q is short enough to print."""
    if not isinstance(q, int) or q < 2:
        raise BadSequenceError(f"q must be an integer >= 2, got {q}")
    if prime_power(q) is None:
        raise BadSequenceError(f"q must be a prime power, got {q}")
    digits = int(n * math.log10(q)) + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
    if limit and digits > limit:
        raise BudgetExceededError(
            f"pi({n}) over GF({q}) has {digits} or more decimal digits, "
            f"over the {limit}-digit limit for printed integers")


def _norm_components(components: Sequence, n: int) -> list:
    """Normalize to (name, dim, degree) triples and validate ranges."""
    if n < 1:
        raise BadSequenceError(f"ambient dimension must be >= 1, got {n}")
    out = []
    if not components:
        raise TooFewComponentsError("need at least one component")
    for idx, item in enumerate(components):
        if len(item) == 3:
            name, d, delta = item
        else:
            d, delta = item
            name = f"c{idx + 1}"
        if not isinstance(d, int) or not isinstance(delta, int):
            raise BadSequenceError(f"component {name}: dim/deg must be ints")
        if d < 0:
            raise BadSequenceError(f"component {name}: negative dimension {d}")
        if d > n - 1:
            raise DimensionTooLargeError(
                f"component {name}: dim {d} does not fit inside P^{n}")
        if delta < 1:
            raise BadSequenceError(f"component {name}: degree must be >= 1")
        out.append((name, d, delta))
    return out


def bound_affine(components: Sequence, n: int, q: int,
                 hypotheses: Optional[dict] = None) -> BoundReport:
    """Upper bound sum delta_i q^(d_i) for affine varieties in A^n."""
    _check_q(q, n)
    comps = _norm_components(components, n)
    terms = tuple(BoundTerm(name, d, delta, delta * q ** d)
                  for name, d, delta in comps)
    total = sum(t.term for t in terms)
    return BoundReport("affine", n, q, terms, 0, total,
                       dict(hypotheses or {}))


def bound_projective(components: Sequence, n: int, q: int,
                     mode: str = "ambient",
                     hypotheses: Optional[dict] = None) -> BoundReport:
    """The main projective bound, or its hyperplane-section variant.

    ambient: sum delta_i (pi(d_i) - pi(2 d_i - n)) + pi(2D - n)
    section: the same with every pi index lowered by one, which bounds
             |X meet H| for any hyperplane H containing no component of X.
    """
    _check_q(q, n)
    if mode not in ("ambient", "section"):
        raise ValueError(f"unknown mode {mode!r}")
    comps = _norm_components(components, n)
    shift = 0 if mode == "ambient" else 1
    terms = tuple(
        BoundTerm(name, d, delta,
                  delta * (pi(d - shift, q) - pi(2 * d - n - shift, q)))
        for name, d, delta in comps)
    D = max(d for _, d, _ in comps)
    tail = pi(2 * D - n - shift, q)
    total = sum(t.term for t in terms) + tail
    kind = "projective" if mode == "ambient" else "section"
    report = BoundReport(kind, n, q, terms, tail, total,
                         dict(hypotheses or {}))
    return report


def bound_equidimensional(n: int, q: int, d: int, delta: int,
                          hypotheses: Optional[dict] = None) -> BoundReport:
    """Equidimensional specialization: delta (pi(d) - pi(2d-n)) + pi(2d-n)."""
    inner = bound_projective([("all", d, delta)], n, q, "ambient", hypotheses)
    return BoundReport("equidimensional", n, q, inner.per_component,
                       inner.tail, inner.total, inner.hypotheses, inner.extra)


def bound_serre(n: int, delta: int, q: int) -> int:
    """The hypersurface bound delta q^(n-1) + pi(n-2)."""
    _check_q(q, n)
    if n < 1:
        raise BadSequenceError(f"ambient dimension must be >= 1, got {n}")
    if delta < 1:
        raise BadSequenceError(f"degree must be >= 1, got {delta}")
    return delta * q ** (n - 1) + pi(n - 2, q)


def bound_linear_arrangement(dims: Sequence[int], n: int, q: int) -> BoundReport:
    """Exact count of an arrangement of r >= 2 linear subspaces in general
    position: the largest meets each other member in the minimal possible
    dimension. Value: pi(d1) + sum_{i>=2} (pi(d_i) - pi(d_i + d1 - n)) with
    d1 the largest input dimension. Also reports the gap below the general
    projective bound for the same dimension data."""
    _check_q(q, n)
    if len(dims) < 2:
        raise TooFewComponentsError("arrangement bound needs r >= 2 subspaces")
    order = sorted(range(len(dims)), key=lambda i: (-dims[i], i))
    sorted_dims = [dims[i] for i in order]
    comps = _norm_components([(d, 1) for d in sorted_dims], n)
    d1 = sorted_dims[0]
    terms = [BoundTerm("m1", d1, 1, pi(d1, q))]
    for i, d in enumerate(sorted_dims[1:], start=2):
        terms.append(BoundTerm(f"m{i}", d, 1,
                               pi(d, q) - pi(d + d1 - n, q)))
    total = sum(t.term for t in terms)
    gap = sum(pi(d + d1 - n, q) - pi(2 * d - n, q) for d in sorted_dims[1:])
    projective = bound_projective([(d, 1) for d in sorted_dims], n, q).total
    return BoundReport(
        "linear_arrangement", n, q, tuple(terms), 0, total,
        {"configuration":
             "largest member meets each other member in dimension d_i+d1-n"},
        {"gap_below_projective": gap,
         "projective_bound": projective,
         "input_order": ",".join(str(i) for i in order)})


def bound_conjectural(components: Sequence, n: int, q: int) -> BoundReport:
    """A sharper candidate bound obtained by sorting dimensions decreasingly
    and discounting each component against the largest one. Conjectural:
    reports carry the status and nothing in this package asserts it."""
    _check_q(q, n)
    comps = _norm_components(components, n)
    comps = sorted(comps, key=lambda t: -t[1])
    d1 = comps[0][1]
    terms = tuple(BoundTerm(name, d, delta,
                            delta * (pi(d, q) - pi(d + d1 - n, q)))
                  for name, d, delta in comps)
    tail = pi(2 * d1 - n, q)
    total = sum(t.term for t in terms) + tail
    projective = bound_projective(
        [(d, delta) for _, d, delta in comps], n, q).total
    return BoundReport("conjectural", n, q, terms, tail, total,
                       {"status": "conjectural"},
                       {"projective_bound": projective,
                        "slack_below_projective": projective - total})


def tubular_count(d: int, delta: int, q: int) -> int:
    """Exact size of a tubular set: delta q^d + pi(d-1)."""
    _check_q(q, d)
    if d < 0:
        raise BadSequenceError(f"dimension must be >= 0, got {d}")
    if delta < 1:
        raise BadSequenceError(f"degree must be >= 1, got {delta}")
    return delta * q ** d + pi(d - 1, q)


def tubular_report(n: int, q: int, d: int, delta: int) -> BoundReport:
    """Tubular count wrapped with the equidimensional bound for comparison."""
    count = tubular_count(d, delta, q)
    comparison = bound_equidimensional(n, q, d, delta)
    term = BoundTerm("tube", d, delta, count)
    return BoundReport("tubular", n, q, (term,), 0, count,
                       {"exact": "yes"},
                       {"equidimensional_bound": comparison.total,
                        "slack_below_bound": comparison.total - count})


@dataclass(frozen=True)
class MarginReport:
    """Slacks that justify bounding a component one dimension down.

    margin: ambient-term bound minus the hyperplane-restricted bound,
        delta (pi(s+1) - pi(s)) - pi(s+1) at s = 2d - n; nonnegative for
        delta >= 2, zero when s + 1 < 0.
    affine_margin: pi(d) - pi(2d - n) - q^d, the slack of the projective
        term over the affine one; nonnegative for 0 <= d <= n-1.
    """

    n: int
    q: int
    dim: int
    degree: int
    margin: int
    affine_margin: int


def restriction_margin(n: int, q: int, d: int, delta: int) -> MarginReport:
    _check_q(q, n)
    if d < 1:
        raise BadSequenceError(f"dimension must be >= 1, got {d}")
    if d > n - 1:
        raise DimensionTooLargeError(f"dim {d} does not fit inside P^{n}")
    if delta < 2:
        raise BadSequenceError(
            f"restriction margin is stated for degree >= 2, got {delta}")
    s = 2 * d - n
    margin = delta * (pi(s + 1, q) - pi(s, q)) - pi(s + 1, q)
    affine_margin = pi(d, q) - pi(s, q) - q ** d
    return MarginReport(n, q, d, delta, margin, affine_margin)


def csv_row(report: BoundReport, count="", tight="") -> dict:
    """One row of the sweep CSV schema for this report."""
    return {
        "kind": report.kind,
        "n": report.n,
        "q": report.q,
        "dims": ";".join(str(d) for d in report.dims()),
        "degs": ";".join(str(d) for d in report.degs()),
        "bound": report.total,
        "count": count,
        "tight": tight,
        "hypotheses": ";".join(
            f"{k}={v}" for k, v in sorted(report.hypotheses.items())),
    }


CSV_FIELDS = ["kind", "n", "q", "dims", "degs", "bound", "count", "tight",
              "hypotheses"]
