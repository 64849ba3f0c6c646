"""The benchmark's workloads: seeded CLI jobs and the checks on their answers.

A workload makes rounds. One round is a fixed mix of job
slots; the seed and the round number fill in the slots' content (variety
documents, points, parameters, argument order), so two rounds cost about the
same but no argv repeats within a run. Each job carries the data its check
needs; the checks recompute answers with `gfint` and closed formulas, never
with `fqpoints` itself.
"""

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import gfint
from gfint import pi


@dataclass
class Job:
    """One CLI call. `check(expect, exit_code, stdout)` returns None when the
    answer is right, else a one-line description of what is wrong.
    `known_failure` is stderr text that marks a documented defect."""

    argv: list
    check: object
    expect: dict = field(default_factory=dict)
    known_failure: str = ""


# --- shared helpers ---

def _doc(F, n, components):
    """A variety document; components are (name, [polynomial dicts])."""
    lines = [F.field_line(), f"space n={n}"]
    for name, gens in components:
        lines.append(f"component name={name}")
        lines += ["poly " + gfint.poly_text(F, g) for g in gens]
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _unit(nvars, i, d=1):
    return tuple(d if j == i else 0 for j in range(nvars))


def _random_form(rng, F, nvars, degree, terms):
    """A form with `terms` random monomials and nonzero coefficients."""
    monos = gfint.monomials(nvars, degree)
    return {m: rng.randrange(1, F.q) for m in rng.sample(monos, terms)}


def _budget(r, slot):
    """A --budget far above any job's need, distinct for each job of a run.
    It keeps argvs apart where no document path does."""
    return str(10 ** 7 + 1000 * r + slot)


def _want_count(expect):
    if "count" in expect:
        return expect["count"]
    F = gfint.Field(expect["q"])
    return gfint.count_union(F, expect["n"], expect["components"])


def _csv_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got}, want {want}"


# --- bound formulas (the paper's, written out again) ---

def _projective_total(comps, n, q, shift=0):
    D = max(d for d, _ in comps)
    return (sum(delta * (pi(d - shift, q) - pi(2 * d - n - shift, q))
                for d, delta in comps) + pi(2 * D - n - shift, q))


def _arrangement_total(dims, n, q):
    ds = sorted(dims, reverse=True)
    return pi(ds[0], q) + sum(pi(d, q) - pi(d + ds[0] - n, q) for d in ds[1:])


def _conjectural_total(comps, n, q):
    d1 = max(d for d, _ in comps)
    return (sum(delta * (pi(d, q) - pi(d + d1 - n, q)) for d, delta in comps)
            + pi(2 * d1 - n, q))


def bound_total(kind, n, q, comps=(), dims=(), d=None, delta=None):
    if kind == "projective":
        return _projective_total(comps, n, q)
    if kind == "section":
        return _projective_total(comps, n, q, shift=1)
    if kind == "affine":
        return sum(de * q ** di for di, de in comps)
    if kind == "conjectural":
        return _conjectural_total(comps, n, q)
    if kind == "equidimensional":
        return _projective_total([(d, delta)], n, q)
    if kind == "tubular":
        return delta * q ** d + pi(d - 1, q)
    if kind == "serre":
        return delta * q ** (n - 1) + pi(n - 2, q)
    return _arrangement_total(dims, n, q)


# --- checks ---

def check_count(expect, rc, out):
    if rc != 0:
        return f"exit {rc}"
    return _mismatch("count", json.loads(out)["count"], _want_count(expect))


def check_census(expect, rc, out):
    if rc != 0:
        return f"exit {rc}"
    got = json.loads(out)
    n, q = expect["n"], expect["q"]
    count = _want_count(expect)
    dl = expect.get("linear_dim")
    if dl is None:  # through a point: every other point, the whole pencil
        want = {"ok": True, "v1_size": count - 1, "v2_size": pi(n - 1, q),
                "edge_count": (count - 1) * pi(n - 2, q)}
    else:  # the points off L, the hyperplanes through P not containing L
        v1 = count - pi(dl, q)
        want = {"ok": True, "v1_size": v1,
                "v2_size": pi(n - 1, q) - pi(n - dl - 1, q),
                "edge_count": v1 * (pi(n - 2, q) - pi(n - dl - 2, q))}
    return _mismatch("census", {k: got.get(k) for k in want}, want)


def check_construct(expect, rc, out):
    if rc != 0:
        return f"exit {rc}"
    if not os.path.isfile(expect["path"]):
        return "no document written"
    with open(expect["path"], encoding="utf-8") as fh:
        dims = sorted(int(word[4:]) for line in fh
                      if line.startswith("component")
                      for word in line.split() if word.startswith("dim="))
    return _mismatch("member dims", dims, sorted(expect["dims"]))


def check_bound(expect, rc, out):
    if rc != 0:
        return f"exit {rc}"
    got = json.loads(out)
    key = "bound" if expect["kind"] == "serre" else "total"
    return _mismatch("bound", got[key], expect["total"])


def check_hypersurface_sweep(expect, rc, out):
    """Every form up to scalar once; each point lies on the forms of one
    hyperplane of the coefficient space, so the counts sum to
    pi(n) (q^(m-1) - 1) / (q - 1)."""
    if rc != 0:
        return f"exit {rc}"
    n, d, q = expect["n"], expect["d"], expect["q"]
    m = math.comb(n + d, d)
    rows = _csv_rows(out)
    got = (len(rows), sum(int(r["count"]) for r in rows),
           {(int(r["n"]), int(r["q"]), int(r["bound"])) for r in rows})
    want = ((q ** m - 1) // (q - 1),
            pi(n, q) * (q ** (m - 1) - 1) // (q - 1),
            {(n, q, d * q ** (n - 1) + pi(n - 2, q))})
    return _mismatch("rows, count sum, (n, q, bound)", got, want)


def _construction_rows(q):
    shapes = [("equidimensional", 3, (q * q + 1) * pi(1, q)),
              ("equidimensional", 3, 2 * pi(1, q)),
              ("equidimensional", 4, 3 * (pi(2, q) - 1) + 1),
              ("equidimensional", 3, 2 * (pi(2, q) - pi(1, q)) + pi(1, q))]
    if q == 2:
        shapes.append(("equidimensional", 5, 3 * pi(2, q)))
    for dims, n in (([2, 1], 3), ([2, 2], 4), ([1, 1], 3)):
        shapes.append(("linear_arrangement", n, _arrangement_total(dims, n, q)))
    return [(kind, n, q, total, total) for kind, n, total in shapes]


def _identity_rows(q, top):
    rows = [("pi_recursion", k, q, pi(k, q), q * pi(k - 1, q) + 1)
            for k in range(top + 1)]
    rows += [("pi_difference", k, q, pi(k, q) - pi(el, q),
              q * (pi(k - 1, q) - pi(el - 1, q)))
             for k in range(top + 1) for el in range(k + 1)]
    return rows


def _lemma_rows(q, top):
    rows = []
    for d in range(1, 7):
        for n in range(d + 1, min(top, 8) + 1):
            s = 2 * d - n
            for delta in range(2, 11):
                margin = delta * (pi(s + 1, q) - pi(s, q)) - pi(s + 1, q)
                rows.append(("restriction_margin", n, q, margin, ""))
            rows.append(("affine_margin", n, q,
                         pi(d, q) - pi(s, q) - q ** d, ""))
    return rows


def check_grid_sweep(expect, rc, out):
    if rc != 0:
        return f"exit {rc}"
    table = {"constructions": lambda q: _construction_rows(q),
             "identity_grid": lambda q: _identity_rows(q, expect["top"]),
             "lemma_grid": lambda q: _lemma_rows(q, expect["top"])}
    want = sorted(row for q in expect["qs"]
                  for row in table[expect["family"]](q))
    got = sorted((r["kind"], int(r["n"]), int(r["q"]), int(r["bound"]),
                  int(r["count"]) if r["count"] else "")
                  for r in _csv_rows(out))
    return _mismatch(f"{expect['family']} rows", got, want)


def check_hilbert(expect, rc, out):
    if rc != 0:
        return f"exit {rc}"
    got = json.loads(out)["components"][expect["component"]]
    n, degs = expect["n"], expect["degrees"]
    values = got["values"]
    want = (n - len(degs), math.prod(degs),
            gfint.ci_hilbert_values(n, degs, len(values)))
    return _mismatch("dim, degree, values",
                     (got["dim"], got["degree"], values), want)


# --- sweep_hypersurfaces ---

# (n, degree, q, in the tiny mix). One round is every entry once. Six
# entries are cheaper and six dearer than the three of 0.2-0.3 s, so the
# median stays among like jobs that are long enough to average out noise.
HYPERSURFACE_MIX = [
    (2, 2, 2, True), (1, 4, 3, True), (1, 3, 4, True), (1, 3, 5, False),
    (1, 2, 8, False), (1, 2, 9, False),
    (2, 2, 3, False), (1, 4, 4, False), (1, 4, 5, False),
    (1, 2, 16, False), (2, 3, 2, False), (1, 3, 8, False), (1, 3, 9, False),
    (3, 2, 2, False), (2, 2, 4, False),
]


def sweep_round(rng, r, workdir, tiny):
    jobs = []
    for slot, (n, d, q, small) in enumerate(HYPERSURFACE_MIX):
        if tiny and not small:
            continue
        argv = ["sweep", "--family", "all_hypersurfaces", "--n", str(n),
                "--degree", str(d), "--qs", str(q), "--format", "csv",
                "--budget", _budget(r, slot)]
        jobs.append(Job(argv, check_hypersurface_sweep,
                        {"n": n, "d": d, "q": q}))
    rng.shuffle(jobs)
    return jobs


# --- count_census ---

# Counted documents, forms of 6 random terms: (n, q, form degrees, in the
# tiny mix). Twelve jobs of a round are cheaper and ten dearer than the
# eight counts in P^3(F_9) and P^3(F_8), which hold the median; the four
# q = 9 censuses below are the dearest jobs and hold the tail.
COUNT_SLOTS = [(3, 5, (3,), True)] + [(3, 9, (3,), False)] * 4 + [
    (3, 9, (2, 2), False)] * 3 + [
    (3, 8, (2, 2), False), (3, 16, (2,), False), (4, 7, (3,), False),
    (4, 7, (2, 2), False), (5, 5, (2, 3), False)]
# Census through a point of a quadric surface in P^3, and census of
# (quadric surface + a line) around the line: (kind, q, in the tiny mix).
CENSUS_SLOTS = [("point", 5, True), ("point", 7, False)] + [
    ("point", 9, False)] * 4 + [("linear", 5, True), ("linear", 7, False)]
ARRANGEMENTS = [((2, 1), 3), ((2, 2), 4), ((1, 1), 3), ((2, 2, 1), 4),
                ((2, 1, 1), 4), ((3, 1), 4), ((1, 1, 1), 3), ((2, 1, 0), 3)]
BOUND_KINDS = ["projective", "section", "affine", "conjectural",
               "equidimensional", "tubular", "serre", "linear_arrangement"]
COUNT_FIELDS = (2, 3, 5, 7, 8, 9, 16)


def _construct_jobs(rng, tag, workdir):
    """Spread, flower and arrangement documents, and the counts on them."""
    r = rng.randrange(2, 11)  # lines of P^3(F_3): at most q^2 + 1
    made = [(["spread", "--n", "3", "--d", "1", "--r", str(r)],
             3, [1] * r, r * pi(1, 3))]
    r = rng.randrange(2, 7)  # planes of P^4(F_3) through a point
    made.append((["flower", "--n", "4", "--d", "2", "--r", str(r)],
                 3, [2] * r, r * (pi(2, 3) - 1) + 1))
    dims, n = rng.choice(ARRANGEMENTS)
    made.append((["arrangement", "--dims", ",".join(map(str, dims)),
                  "--n", str(n)], 3, list(dims),
                 _arrangement_total(dims, n, 3)))
    builds, counts = [], []
    for i, (args, q, dims, total) in enumerate(made):
        path = os.path.join(workdir, f"{tag}_construct{i}.var")
        builds.append(Job(["construct"] + args + ["--q", str(q), "--emit",
                                                  "var", "--out", path],
                          check_construct, {"path": path, "dims": dims}))
        counts.append(Job(["count", "--variety", path], check_count,
                          {"count": total}))
    return builds, counts


def _bound_job(rng, q, budget):
    kind = rng.choice(BOUND_KINDS)
    n = rng.randrange(3, 8)
    argv = ["bound", "--kind", kind, "--n", str(n), "--q", str(q),
            "--budget", budget]
    comps, dims, d, delta = (), (), None, None
    if kind in ("projective", "section", "affine", "conjectural"):
        comps = [(rng.randrange(0, n), rng.randrange(1, 6))
                 for _ in range(rng.randrange(1, 4))]
        argv += ["--components", ",".join(f"{a}:{b}" for a, b in comps)]
    elif kind == "linear_arrangement":
        dims = [rng.randrange(0, n) for _ in range(rng.randrange(2, 5))]
        argv += ["--dims", ",".join(map(str, dims))]
    else:
        d = rng.randrange(1, n) if kind != "serre" else None
        delta = rng.randrange(1, 6)
        argv += (["--d", str(d)] if d is not None else []) + [
            "--delta", str(delta)]
    total = bound_total(kind, n, q, comps, dims, d, delta)
    return Job(argv, check_bound, {"kind": kind, "total": total})


def _lower_unitriangular(rng, F, nvars):
    """Ones on the diagonal, random nonzero entries below it."""
    return [[int(a == b) or (rng.randrange(1, F.q) if a > b else 0)
             for b in range(nvars)] for a in range(nvars)]


def _hyperbolic_quadric(rng, F):
    """(form, i): x0*x1 - x2*x3 in random coordinates, so it has exactly
    (q+1)^2 points and census cost does not hang on the draw; e_i is on it."""
    f = {(1, 1, 0, 0): 1, (0, 0, 1, 1): F.neg(1)}
    f = gfint.substitute(F, f, _lower_unitriangular(rng, F, 4))  # fixes e3
    perm = rng.sample(range(4), 4)
    scale = rng.randrange(1, F.q)
    moved = {}
    for exps, c in f.items():
        new = [0] * 4
        for j, e in enumerate(exps):
            new[perm[j]] = e
        moved[tuple(new)] = F.mul(scale, c)
    return moved, perm[3]


def count_census_round(rng, r, workdir, tiny):
    tag = f"r{r}"
    builds, jobs = _construct_jobs(rng, tag, workdir)
    if tiny:
        jobs = jobs[:1]
    for i, (n, q, degs, small) in enumerate(COUNT_SLOTS):
        if tiny and not small:
            continue
        F = gfint.Field(q)
        gens = [_random_form(rng, F, n + 1, d, 6) for d in degs]
        path = os.path.join(workdir, f"{tag}_count{i}.var")
        _write(path, _doc(F, n, [("X", gens)]))
        jobs.append(Job(["count", "--variety", path], check_count,
                        {"q": q, "n": n, "components": [gens]}))
    for i, (kind, q, small) in enumerate(CENSUS_SLOTS):
        if tiny and not small:
            continue
        F = gfint.Field(q)
        surface, base = _hyperbolic_quadric(rng, F)
        comps = [("S", [surface])]
        argv = ["census", "--variety", "", "--point",
                ":".join("1" if j == base else "0" for j in range(4))]
        expect = {"q": q, "n": 3}
        if kind == "linear":  # the line through e_base and e_other
            other = rng.choice([j for j in range(4) if j != base])
            line = [{_unit(4, j): 1} for j in range(4)
                    if j not in (base, other)]
            comps.append(("L", line))
            argv += ["--linear-component", "L"]
            expect["linear_dim"] = 1
        expect["components"] = [gens for _, gens in comps]
        path = os.path.join(workdir, f"{tag}_census{i}.var")
        _write(path, _doc(F, 3, comps))
        argv[2] = path
        jobs.append(Job(argv, check_census, expect))
    jobs.append(_bound_job(rng, rng.choice(COUNT_FIELDS), _budget(r, 0)))
    qs = rng.sample([2, 3], 2)
    jobs.append(Job(["sweep", "--family", "constructions",
                     "--qs", ",".join(map(str, qs)), "--budget", _budget(r, 10)],
                    check_grid_sweep, {"family": "constructions", "qs": qs}))
    for family, tops in (("identity_grid", range(8, 15)),
                         ("lemma_grid", range(6, 13))):
        qs = rng.sample([2, 3, 4, 5, 7, 8, 9], 3)
        top = rng.choice(tops)
        jobs.append(Job(["sweep", "--family", family,
                         "--qs", ",".join(map(str, qs)),
                         "--max-index", str(top)],
                        check_grid_sweep,
                        {"family": family, "qs": qs, "top": top}))
    rng.shuffle(builds)
    rng.shuffle(jobs)
    return builds + jobs  # documents are built before they are counted


# --- hilbert_ideals ---

# Complete intersections: (n, q, degrees, in the tiny mix). With the four
# quadrics below, six jobs of a round are cheaper and six dearer than the
# five of about 0.1 s, which hold the median; the two sets of four quadrics
# in P^5 are the dearest and hold the tail.
CI_SLOTS = [(4, 7, (2, 2), True), (4, 4, (3, 3), True),
            (5, 7, (2, 2, 2), False), (5, 4, (2, 2, 2), False),
            (5, 9, (2, 2, 2), False), (6, 9, (2, 3), False),
            (6, 101, (2, 3), False),
            (5, 32003, (2, 2, 2), False), (6, 4, (2, 2, 2), False),
            (6, 7, (2, 2, 2), False), (6, 32003, (2, 2, 2), False),
            (5, 101, (2, 2, 2, 2), False), (5, 101, (2, 2, 2, 2), False)]
# x0^2 + x1*x2 in P^n; P^29 is the documented "did not stabilize" defect.
QUADRIC_NS = (10, 22, 28, 29)
HILBERT_FIELDS = (7, 101, 32003, 4, 9)


def _triangular_ci(rng, F, n, degrees, terms=8):
    """Forms x_i^(d_i) + (random terms in x_i..x_n of lower x_i-degree),
    then a random change of coordinates of determinant 1. The quotient is
    finite over k[x_c..x_n], so the forms are a complete intersection:
    dim n - c, degree prod(d_i), Hilbert series
    prod(1 - z^d_i) / (1 - z)^(n+1)."""
    nvars = n + 1
    gens = []
    for i, d in enumerate(degrees):
        monos = [m for m in gfint.monomials(nvars, d)
                 if not any(m[:i]) and m[i] < d]
        g = {m: rng.randrange(1, F.q)
             for m in rng.sample(monos, min(terms, len(monos)))}
        g[_unit(nvars, i, d)] = 1
        gens.append(g)
    lower = _lower_unitriangular(rng, F, nvars)
    upper = [list(row) for row in zip(*_lower_unitriangular(rng, F, nvars))]
    change = [[0] * nvars for _ in range(nvars)]
    for a in range(nvars):
        for b in range(nvars):
            for c in range(nvars):
                change[a][b] = F.add(change[a][b],
                                     F.mul(lower[a][c], upper[c][b]))
    return [gfint.substitute(F, g, change) for g in gens]


def hilbert_round(rng, r, workdir, tiny):
    tag = f"r{r}"
    jobs = []
    for i, (n, q, degs, small) in enumerate(CI_SLOTS):
        if tiny and not small:
            continue
        F = gfint.Field(q)
        path = os.path.join(workdir, f"{tag}_ci{i}.var")
        _write(path, _doc(F, n, [("V", _triangular_ci(rng, F, n, degs))]))
        jobs.append(Job(["hilbert", "--variety", path, "--component", "V"],
                        check_hilbert,
                        {"component": "V", "n": n, "degrees": list(degs)}))
    for n in QUADRIC_NS:
        if tiny and n not in (10, 29):
            continue
        F = gfint.Field(rng.choice(HILBERT_FIELDS))
        path = os.path.join(workdir, f"{tag}_quadric{n}.var")
        _write(path, f"{F.field_line()}\nspace n={n}\n"
                     "component name=Q\npoly x0^2+x1*x2\n")
        jobs.append(Job(["hilbert", "--variety", path], check_hilbert,
                        {"component": "Q", "n": n, "degrees": [2]},
                        known_failure="did not stabilize" if n == 29 else ""))
    rng.shuffle(jobs)
    return jobs


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is written in BENCHMARK.json."""

    name: str
    make_round: object  # (rng, round number, work directory, tiny) -> jobs
    fields: tuple  # every field order the workload's jobs use


WORKLOADS = {w.name: w for w in (
    Workload("sweep_hypersurfaces", sweep_round,
             tuple(sorted({q for _, _, q, _ in HYPERSURFACE_MIX}))),
    Workload("count_census", count_census_round, COUNT_FIELDS),
    Workload("hilbert_ideals", hilbert_round, HILBERT_FIELDS),
)}
