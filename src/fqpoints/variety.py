"""Projective varieties over small finite fields, from text descriptions.

A variety document names a field, an ambient projective space, and a list of
components, each given by homogeneous generators. Loading runs the Groebner
pipeline per component (dimension and degree from Hilbert data), screens the
decomposition for containments, and keeps enough structure for the counting,
bound, and census layers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    BudgetExceededError,
    DeclarationMismatchError,
    DegenerateComponentError,
    NotHomogeneousError,
    ParseError,
    UnknownComponentError,
)
from .gf import FieldSpec, make_field
from .groebner import GroebnerBasis, HilbertData, Ideal, buchberger, hilbert, normal_form
from .mpoly import (DEGREE_CAP, GREVLEX, Polynomial, dehomogenize,
                    form_vector, linear_form, parse_poly)
from .projgeom import (LinearSubspace, _dot, enumerate_hyperplanes,
                       enumerate_points, nullspace, pi)

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class Component:
    """One component: its ideal, basis, Hilbert data, and linear structure."""

    name: str
    ideal: Ideal
    gb: GroebnerBasis
    hilbert: HilbertData
    dim: int
    degree: int
    irreducible_declared: bool
    hyperplane_forms: tuple  # degree-1 elements of the reduced basis
    is_linear: bool

    @property
    def empty(self) -> bool:
        return self.dim == -1

    def subspace(self) -> LinearSubspace:
        if not self.is_linear:
            raise ValueError(f"component {self.name} is not linear")
        mat = [form_vector(f) for f in self.hyperplane_forms]
        sol = nullspace(mat, self.ideal.field, self.ideal.nvars)
        return LinearSubspace(self.ideal.field, self.ideal.nvars - 1, tuple(sol))


@dataclass(frozen=True)
class Variety:
    """A union of named components in a common P^n over a common field."""

    field: FieldSpec
    n: int
    components: tuple
    irredundancy: str  # "verified" | "unverified" | "violated"
    containments: tuple  # (inner_name, outer_name) certified pairs

    @property
    def q(self) -> int:
        return self.field.q

    def component(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise UnknownComponentError(f"no component named {name!r}")


@dataclass(frozen=True)
class PointCount:
    value: int
    method: str
    n: int
    q: int


def _build_component(name: str, texts: Sequence[str], field: FieldSpec,
                     nvars: int, declared_dim: Optional[int],
                     declared_deg: Optional[int],
                     irreducible_declared: bool) -> Component:
    gens = []
    for t in texts:
        g = parse_poly(t, field, nvars)
        if g.is_zero():
            continue  # canonical zero: drop, e.g. 2*x0 over GF(2)
        if not g.homogeneous:
            raise NotHomogeneousError(
                f"component {name}: generator {t!r} is not homogeneous")
        gens.append(g)
    if not gens:
        raise DegenerateComponentError(
            f"component {name} has the zero ideal and fills the ambient space")
    ideal = Ideal(field, nvars, tuple(gens))
    gb = buchberger(ideal, GREVLEX)
    hd = hilbert(gb)
    if hd.dim == nvars - 1:
        raise DegenerateComponentError(
            f"component {name} has full ambient dimension")
    if declared_dim is not None and declared_dim != hd.dim:
        raise DeclarationMismatchError(
            f"component {name}: declared dim={declared_dim}, computed {hd.dim}")
    if declared_deg is not None and declared_deg != hd.degree:
        raise DeclarationMismatchError(
            f"component {name}: declared deg={declared_deg}, computed {hd.degree}")
    # linear exactly when the reduced basis is the RREF of linear forms
    linear_forms = tuple(g for g in gb.basis if g.degree() == 1)
    return Component(name, ideal, gb, hd, hd.dim, hd.degree,
                     irreducible_declared, linear_forms,
                     len(linear_forms) == len(gb.basis))


def _parse_kv(parts: Sequence[str], line_no: int) -> dict:
    out = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"line {line_no}: expected key=value, got {part!r}")
        key, _, val = part.partition("=")
        out[key.strip()] = val.strip()
    return out


def _int_value(kv: dict, key: str, line_no: int) -> Optional[int]:
    """kv[key] as an int; None when the key is absent."""
    try:
        return int(kv[key]) if key in kv else None
    except ValueError:
        raise ParseError(f"line {line_no}: {key}= must be an integer, "
                         f"got {kv[key]!r}") from None


def load_variety(text: str) -> Variety:
    """Parse and validate a variety document. See the package README for the
    format: `field`, `space`, then `component` blocks with `poly` lines."""
    field_spec = None
    n = None
    blocks = []  # (name, declared_dim, declared_deg, irred, [poly texts])
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        if head == "field":
            kv = _parse_kv(rest, line_no)
            if "p" not in kv or "k" not in kv:
                raise ParseError(f"line {line_no}: field needs p= and k=")
            try:  # a bad k or modulus
                field_spec = make_field(_int_value(kv, "p", line_no),
                                        _int_value(kv, "k", line_no),
                                        kv.get("modulus"))
            except ValueError as exc:
                raise ParseError(f"line {line_no}: {exc}") from None
        elif head == "space":
            kv = _parse_kv(rest, line_no)
            if "n" not in kv:
                raise ParseError(f"line {line_no}: space needs n=")
            n = _int_value(kv, "n", line_no)
            if n < 1:
                raise ParseError(f"line {line_no}: ambient dimension must be >= 1")
            # hilbert() needs t up to at least 2(n + 1) for any component
            if 2 * (n + 1) > DEGREE_CAP:
                raise BudgetExceededError(
                    f"line {line_no}: ambient dimension n={n} needs Hilbert "
                    f"values past the cap t = {DEGREE_CAP}; n is at most "
                    f"{DEGREE_CAP // 2 - 1}")
        elif head == "component":
            kv = _parse_kv(rest, line_no)
            if "name" not in kv:
                raise ParseError(f"line {line_no}: component needs name=")
            irred_txt = kv.get("irreducible", "")
            if irred_txt not in ("", "yes", "declared"):
                raise ParseError(
                    f"line {line_no}: irreducible must be yes or declared")
            blocks.append((kv["name"],
                           _int_value(kv, "dim", line_no),
                           _int_value(kv, "deg", line_no),
                           irred_txt in ("yes", "declared"),
                           []))
        elif head == "poly":
            if not blocks:
                raise ParseError(f"line {line_no}: poly before any component")
            blocks[-1][4].append(line[len("poly"):].strip())
        else:
            raise ParseError(f"line {line_no}: unknown directive {head!r}")
    if field_spec is None:
        raise ParseError("document has no field line")
    if n is None:
        raise ParseError("document has no space line")
    if not blocks:
        raise ParseError("document has no components")
    names = [b[0] for b in blocks]
    if len(set(names)) != len(names):
        raise ParseError("component names must be unique")
    components = tuple(
        _build_component(name, texts, field_spec, n + 1, ddim, ddeg, irred)
        for name, ddim, ddeg, irred, texts in blocks)
    containments = _containment_screen(components)
    has_empty = any(c.empty for c in components)
    if containments or has_empty:
        irredundancy = "violated"
    elif len(components) == 1 or all(c.is_linear for c in components):
        irredundancy = "verified"
    else:
        irredundancy = "unverified"
    return Variety(field_spec, n, components, irredundancy, containments)


def load_variety_file(path) -> Variety:
    with open(path, "r", encoding="utf-8") as fh:
        return load_variety(fh.read())


def _containment_screen(components: tuple) -> tuple:
    """Certified containments X_i inside X_j: every generator of I_j reduces
    to zero against the basis of I_i (an ideal-inclusion certificate)."""
    found = []
    for ci in components:
        if ci.empty:
            continue
        for cj in components:
            if cj is ci or cj.empty:
                continue
            if all(normal_form(g, list(ci.gb.basis), ci.gb.order).is_zero()
                   for g in cj.ideal.gens):
                found.append((ci.name, cj.name))
    return tuple(found)


# --- point counting ---

# Points per block of the evaluation kernel. A block's point tuples,
# coordinate columns, masks and cached power and term columns are all the
# kernel holds at once, so its memory does not grow with pi(n). Counts run
# about as fast at 1024 as at 4096, with a quarter of that memory.
BLOCK = 1024


@functools.lru_cache(maxsize=8)
def _zero_mask_kernel(F: FieldSpec):
    """The evaluation kernel over F: a function (points, polys) that yields
    each polynomial's zero mask over the points, a list of bools in point
    order. Its tables are built once per field and hold O(q) entries.

    The points are taken as coordinate columns, and each term is evaluated
    on a whole column at once: a few list passes per term, not a call per
    point. A factor x^e is taken as x^e' with e' = (e - 1) mod (q - 1) + 1,
    since x^q = x on F_q. Over a prime field a term is an integer column
    product reduced mod p, and the terms an integer sum with one % p per
    point. Over an extension a term is carried in the log domain, log c +
    sum e' log x_j, where log 0 is a sentinel so negative that a term with a
    zero factor stays negative, and one lookup maps it back to the term's
    `F.digit_code(base)`. In characteristic 2 the base is 2, the code is the
    packed int itself, and terms add by XOR. Otherwise the base exceeds
    t(p - 1), for t the most terms of any polynomial in the call, so the
    codes add as plain ints with no carry, and a sum is zero when each of
    its k digits is 0 mod p. Power and term columns are cached per call, so
    polynomials that share terms (the members of a pencil) share them."""
    p, q, k = F.p, F.q, F.k
    if k > 1:
        log, exp = F.log_exp()
        values = {}  # base: the digit codes of g^0, ..., g^(q - 2)

    def masks(points, polys):
        m = len(points)
        if not m:
            yield from ([] for _ in polys)
            return
        cols = list(zip(*points))
        if k > 1:
            terms_most = max((len(f.terms) for f in polys), default=1)
            base = 2 if p == 2 else 1 << (terms_most * (p - 1)).bit_length()
            value = values.get(base)
            if value is None:
                code = F.digit_code(base)
                value = values[base] = [code[v] for v in exp[:q - 1]]
            weights = [base ** i for i in range(1, k)]
        # each other factor adds at most (q - 1)(q - 2), so a term with a
        # zero factor stays negative
        zero = -q * q * len(cols)
        powers, terms = {}, {}

        def power(j, e):  # x_j^e, or e * log x_j, as a column
            got = powers.get((j, e))
            if got is None:
                if e == 1:
                    got = cols[j] if k == 1 else [log[x] if x else zero
                                                  for x in cols[j]]
                elif k == 1:
                    got = [pow(x, e, p) for x in cols[j]]
                else:
                    got = [e * v for v in power(j, 1)]
                powers[j, e] = got
            return got

        def term(c, factors):
            got = terms.get((c, factors))
            if got is not None:
                return got
            if not factors:
                got = [c if k == 1 else value[log[c]]] * m
            elif k == 1:
                (j, e), *rest = factors
                got = power(j, e)
                if c != 1:
                    got = [c * v % p for v in got]
                for j, e in rest:
                    got = [a * b % p for a, b in zip(got, power(j, e))]
            else:
                (j, e), *rest = factors
                got = [log[c] + v for v in power(j, e)]
                for j, e in rest:
                    got = [a + b for a, b in zip(got, power(j, e))]
                got = [value[v % (q - 1)] if v >= 0 else 0 for v in got]
            terms[c, factors] = got
            return got

        for f in polys:
            total = None
            for u, c in f.terms.items():
                t = term(c, tuple((j, (e - 1) % (q - 1) + 1)
                                  for j, e in enumerate(u) if e))
                if total is None:
                    total = t
                elif p == 2 and k > 1:
                    total = [a ^ b for a, b in zip(total, t)]
                else:
                    total = [a + b for a, b in zip(total, t)]
            if total is None:
                yield [True] * m
            elif k == 1:
                yield [not v % p for v in total]
            elif p == 2:
                yield [not v for v in total]
            else:
                on = [not v % base % p for v in total]
                for w in weights:
                    on = [a and not v // w % base % p
                          for a, v in zip(on, total)]
                yield on

    return masks


def _union_mask(kernel, points: list, gens_per_component: Sequence) -> list:
    """Whether each point is a zero of every generator of some one
    component: membership in the union of the components' zero sets."""
    masks = kernel(points, [g for gens in gens_per_component for g in gens])
    hit = [False] * len(points)
    for gens in gens_per_component:
        on = [True] * len(points)
        for _ in gens:
            on = [a and b for a, b in zip(on, next(masks))]
        hit = [a or b for a, b in zip(hit, on)]
    return hit


def _zero_tally(F: FieldSpec, points: list, polys: Sequence) -> list:
    """The number of zeros of each polynomial among the points."""
    kernel = _zero_mask_kernel(F)
    counts = [0] * len(polys)
    for start in range(0, len(points), BLOCK):
        block = points[start:start + BLOCK]
        for i, mask in enumerate(kernel(block, polys)):
            counts[i] += mask.count(True)
    return counts


def _union_points(field: FieldSpec, n: int, gens_per_component: Sequence,
                  budget: int) -> list:
    total = pi(n, field.q)
    if total > budget:
        raise BudgetExceededError(
            f"P^{n}(F_{field.q}) has {total} points, over budget {budget}")
    kernel = _zero_mask_kernel(field)
    points = enumerate_points(n, field)
    out = []
    while block := list(itertools.islice(points, BLOCK)):
        out.extend(itertools.compress(
            block, _union_mask(kernel, block, gens_per_component)))
    return out


def rational_points(X: Variety, budget: int = DEFAULT_BUDGET) -> list:
    """All rational points of the union, enumeration order, exact."""
    return _union_points(X.field, X.n, [c.ideal.gens for c in X.components],
                         budget)


def count_points(target: Union[Variety, Ideal],
                 budget: int = DEFAULT_BUDGET) -> PointCount:
    """Exact rational point count by exhaustive enumeration."""
    if isinstance(target, Ideal):
        n = target.nvars - 1
        pts = _union_points(target.field, n, [target.gens], budget)
        return PointCount(len(pts), "enumeration", n, target.field.q)
    return PointCount(len(rational_points(target, budget)),
                      "enumeration", target.n, target.q)


# --- classification against the spanning hypothesis ---

@dataclass(frozen=True)
class ComponentClass:
    name: str
    dim: int
    degree: int
    is_linear: bool
    hyperplane_status: str  # "contained" | "clear_verified" | "clear_declared" | "unknown"
    witness: Optional[str]  # a containing hyperplane's form, when contained
    method: str


@dataclass(frozen=True)
class Classification:
    components: tuple
    regime: str  # "spanning" | "linear_exceptions" | "general"
    spanning_quality: str  # "verified" | "declared" | "none"


def _hyperplane_points(F: FieldSpec, w: tuple,
                       free: Sequence[tuple]) -> Iterator[tuple]:
    """The normalized points of the hyperplane {w . x = 0}, w normalized.

    With i the leading position of w (w_i = 1), the other coordinates t run
    over `free`, the normalized points of P^(n-1), and x_i = -sum_{j>i} w_j
    x_j, so each point comes once. Only a point whose coordinates before i
    are zero and whose x_i is nonzero needs rescaling."""
    i = w.index(1)
    tail = w[i + 1:]
    for t in free:
        xi = F.neg(_dot(F, tail, t[i:]))
        x = t[:i] + (xi,) + t[i:]
        if xi and not any(t[:i]):
            inv = F.inv(xi)
            x = tuple(F.mul(c, inv) for c in x)
        yield x


def _linear_factor_sweep(f: Polynomial,
                         zeros: Optional[set] = None) -> Optional[Polynomial]:
    """The first normalized linear form dividing f, or None. Exact: a
    geometric component of a hypersurface lies in a rational hyperplane
    exactly when the form has a rational linear divisor.

    For degree d <= q the divisor test is a point test (Serre's bound). If
    f does not vanish on H = {l = 0}, then f restricted to H ~ P^(n-1) is a
    nonzero form of degree d and has at most d*q^(n-2) + pi(n-3) <
    pi(n-1) zeros there; for n = 1, H is one point. So l | f exactly when
    every F_q-point of H is a zero of f, and the forms are tried against
    the zero set of f, one hyperplane point at a time, with no division.
    For d > q that count can reach pi(n-1) with l not dividing f (x0^q*x1 -
    x0*x1^q vanishes on all of P^n), so each form is tried by normal_form.
    `zeros`, when given, is the zero set of f, already enumerated.
    """
    F, n = f.field, f.nvars - 1
    total = pi(n, F.q)
    if total > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"the linear-divisor search over P^{n}(F_{F.q}) tries {total} "
            f"forms, over budget {DEFAULT_BUDGET}")
    if f.degree() > F.q:
        for w in enumerate_hyperplanes(n, F):
            ell = linear_form(F, w)
            if normal_form(f, [ell], GREVLEX).is_zero():
                return ell
        return None
    if zeros is None:
        zeros = set(_union_points(F, n, [[f]], DEFAULT_BUDGET))
    if len(zeros) < pi(n - 1, F.q):
        return None
    free = list(enumerate_points(n - 1, F))
    for w in enumerate_hyperplanes(n, F):
        if all(x in zeros for x in _hyperplane_points(F, w, free)):
            return linear_form(F, w)
    return None


def classify_components(X: Variety, _points=None) -> Classification:
    """Per-component hyperplane-containment status and the census regime.

    `_points`, when given, is X(F_q); a one-component variety cut out by one
    form hands it to the divisor search as that form's zero set."""
    out = []
    for comp in X.components:
        if comp.empty:
            out.append(ComponentClass(comp.name, comp.dim, comp.degree,
                                      comp.is_linear, "clear_verified", None,
                                      "empty"))
            continue
        if comp.hyperplane_forms:
            out.append(ComponentClass(
                comp.name, comp.dim, comp.degree, comp.is_linear,
                "contained", str(comp.hyperplane_forms[0]), "degree_one_slice"))
            continue
        if len(comp.ideal.gens) == 1:
            whole = _points is not None and len(X.components) == 1
            ell = _linear_factor_sweep(comp.ideal.gens[0],
                                       set(_points) if whole else None)
            if ell is not None:
                out.append(ComponentClass(
                    comp.name, comp.dim, comp.degree, comp.is_linear,
                    "contained", str(ell), "linear_factor_sweep"))
            else:
                out.append(ComponentClass(
                    comp.name, comp.dim, comp.degree, comp.is_linear,
                    "clear_verified", None, "linear_factor_sweep"))
            continue
        status = "clear_declared" if comp.irreducible_declared else "unknown"
        out.append(ComponentClass(comp.name, comp.dim, comp.degree,
                                  comp.is_linear, status, None,
                                  "degree_one_slice"))
    contained = [c for c in out if c.hyperplane_status == "contained"]
    unknown = [c for c in out if c.hyperplane_status == "unknown"]
    if not contained and not unknown:
        quality = ("verified" if all(c.hyperplane_status == "clear_verified"
                                     for c in out) else "declared")
        regime = "spanning"
    elif all(c.is_linear for c in contained) and not unknown:
        quality = "none"
        regime = "linear_exceptions"
    else:
        quality = "none"
        regime = "general"
    return Classification(tuple(out), regime, quality)


# --- affine charts ---

@dataclass(frozen=True)
class AffineComponent:
    name: str
    dim: int
    degree: int
    gens: tuple  # affine polynomials in n variables


@dataclass(frozen=True)
class AffineChart:
    """The decomposition of X along a hyperplane: points on H, points off H
    (the affine chart), and per-component affine equations for the parts
    not inside H. Dimensions and degrees persist to the chart."""

    field: FieldSpec
    n: int
    components_off: tuple
    components_on: tuple  # names of components inside H
    projective_count: int
    section_count: int
    affine_count: int

    def count_affine_by_chart(self, budget: int = DEFAULT_BUDGET) -> int:
        """Independent recount: evaluate the affine equations over F^n."""
        if self.field.q ** self.n > budget:
            raise BudgetExceededError("affine enumeration over budget")
        els = list(self.field.elements())
        count = 0
        for point in itertools.product(els, repeat=self.n):
            for comp in self.components_off:
                if not any(g.evaluate(point) for g in comp.gens):
                    count += 1
                    break
        return count


def affine_chart(X: Variety, form: Polynomial,
                 budget: int = DEFAULT_BUDGET) -> AffineChart:
    """Split X along the hyperplane {form = 0}; form is a linear Polynomial."""
    if form.is_zero() or form.degree() != 1 or not form.homogeneous:
        raise ValueError("chart needs a nonzero linear form")
    F, nvars = X.field, X.n + 1
    w = form_vector(form)
    pivot = next(i for i, c in enumerate(w) if c)
    inv = F.inv(w[pivot])
    # substitution x_j <- row_j(y) with l(x(y)) = y_pivot
    rows = [[int(m == j) for m in range(nvars)] for j in range(nvars)]
    rows[pivot] = [F.neg(F.mul(c, inv)) for c in w]
    rows[pivot][pivot] = inv
    off, on = [], []
    for comp in X.components:
        if normal_form(form, list(comp.gb.basis), comp.gb.order).is_zero():
            on.append(comp.name)
            continue
        affine_gens = tuple(
            dehomogenize(g.compose_linear(rows, nvars), pivot)
            for g in comp.ideal.gens)
        off.append(AffineComponent(comp.name, comp.dim, comp.degree, affine_gens))
    pts = rational_points(X, budget)
    section = _zero_tally(F, pts, [form])[0]
    return AffineChart(X.field, X.n, tuple(off), tuple(on),
                       len(pts), section, len(pts) - section)


# --- lifting to bound inputs ---

def dimension_degree_sequences(X: Variety):
    """((name, dim, degree) per nonempty component, hypotheses dict)."""
    seq = [(c.name, c.dim, c.degree) for c in X.components if not c.empty]
    hypotheses = {"irredundant": X.irredundancy}
    empties = [c.name for c in X.components if c.empty]
    if empties:
        hypotheses["empty_components"] = ";".join(empties)
    if X.containments:
        hypotheses["containments"] = ";".join(
            f"{a}<{b}" for a, b in X.containments)
    return seq, hypotheses
