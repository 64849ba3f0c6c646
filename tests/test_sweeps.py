"""Hypersurface sweeps against a brute-force reference, Serre's bound,
and the sweep command's input checks."""

import contextlib
import io
import itertools
from math import comb

import pytest

import fqpoints.sweeps
from fqpoints.bounds import bound_serre
from fqpoints.cli import main
from fqpoints.gf import field_from_order
from fqpoints.mpoly import Polynomial, monomials_of_degree
from fqpoints.projgeom import enumerate_points, pi
from fqpoints.sweeps import sweep_rows


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def brute_counts(n, d, q):
    """Each form evaluated afresh at every point: the reference the
    incremental sweep must match."""
    field = field_from_order(q)
    points = list(enumerate_points(n, field))
    monos = monomials_of_degree(n + 1, d)
    els = list(field.elements())
    counts = []
    for lead in range(len(monos)):  # first nonzero coefficient is 1
        for tail in itertools.product(els, repeat=len(monos) - lead - 1):
            coeffs = (0,) * lead + (1,) + tail
            f = Polynomial(field, n + 1,
                           {u: c for u, c in zip(monos, coeffs) if c})
            counts.append(sum(1 for P in points if not f.evaluate(P)))
    return counts


@pytest.mark.parametrize("n, d, q", [(1, 3, 2), (2, 2, 2), (2, 2, 3),
                                     (1, 2, 4), (2, 1, 4), (1, 2, 5),
                                     (1, 2, 9), (1, 1, 16)])
def test_hypersurface_counts_match_brute_force(n, d, q):
    rows, bad = sweep_rows("all_hypersurfaces", n=n, degree=d, qs=(q,))
    assert [r["count"] for r in rows] == brute_counts(n, d, q)
    m = comb(n + d, d)
    assert len(rows) == (q ** m - 1) // (q - 1)
    # each point kills the forms of one hyperplane of coefficient space
    assert sum(r["count"] for r in rows) == \
        pi(n, q) * (q ** (m - 1) - 1) // (q - 1)
    assert not bad


@pytest.mark.parametrize("n, d, q", [(1, 1, 2), (1, 2, 2), (2, 1, 2),
                                     (2, 2, 2), (2, 2, 3), (3, 2, 2),
                                     (1, 3, 3), (2, 1, 3), (1, 2, 4),
                                     (1, 4, 4), (2, 2, 4), (1, 2, 5),
                                     (1, 5, 5), (1, 3, 7), (1, 2, 8),
                                     (1, 2, 9)])
def test_serre_bound_is_attained_for_degree_at_most_q(n, d, q):
    rows, _ = sweep_rows("all_hypersurfaces", n=n, degree=d, qs=(q,))
    assert max(r["count"] for r in rows) == bound_serre(n, d, q)
    assert any(r["tight"] for r in rows)


def test_budget_is_checked_for_every_q_before_any_sweep(monkeypatch):
    calls = []
    monkeypatch.setattr(fqpoints.sweeps, "_zero_counts",
                        lambda *args, **kw: calls.append(args) or iter(()))
    code, out, err = run(["sweep", "--family", "all_hypersurfaces",
                          "--n", "2", "--degree", "3", "--qs", "3,16",
                          "--budget", "1000000"])
    assert (code, out) == (2, "")
    assert err == ("error: sweep would evaluate 73300775185x273 pairs, "
                   "over the 1000000 budget\n")
    assert calls == []


@pytest.mark.parametrize("qs", ["", ",", " , "])
@pytest.mark.parametrize("family", ["all_hypersurfaces", "identity_grid"])
def test_empty_field_list_is_rejected(family, qs):
    code, out, err = run(["sweep", "--family", family, "--n", "1",
                          "--degree", "1", "--qs", qs])
    assert (code, out) == (2, "")
    assert "no field sizes" in err


def test_rows_over_the_bound_exit_1(monkeypatch):
    # with the Serre bound patched to one below the true maximum, every
    # form at the maximum is a violation: stderr counts them, exit is 1
    rows, bad = sweep_rows("all_hypersurfaces", n=2, degree=2, qs=(3,))
    top = max(r["count"] for r in rows)
    assert not bad and top == bound_serre(2, 2, 3)
    over = sum(1 for r in rows if r["count"] == top)
    monkeypatch.setattr(fqpoints.sweeps, "bound_serre",
                        lambda n, d, q: top - 1)
    code, out, err = run(["sweep", "--family", "all_hypersurfaces",
                          "--n", "2", "--degree", "2", "--qs", "3"])
    assert code == 1
    assert err == f"{over} violation(s) found\n"
    assert out.count("\n") == len(rows) + 1
