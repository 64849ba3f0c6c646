"""Full pipeline on one variety: load, resolve invariants, count, bound.

The running example is the twisted cubic in P^3, the image of
(s:t) -> (s^3 : s^2 t : s t^2 : t^3).  Its ideal is generated by the
three 2x2 minors of a 2x3 matrix of coordinates.  We load it from a
variety document, compute a Groebner basis and the Hilbert polynomial,
count its rational points over a few fields, and compare against the
projective bound.  A generic hyperplane section drops the dimension by
one and keeps the degree, and the section bound caps its size.
"""

from fqpoints.bounds import bound_projective, bound_serre
from fqpoints.groebner import hyperplane_section
from fqpoints.mpoly import linear_form
from fqpoints.projgeom import enumerate_hyperplanes, pi
from fqpoints.variety import (
    count_points, dimension_degree_sequences, load_variety, rational_points)

DOC_TEMPLATE = """\
field p={p} k={k}{modulus}
space n=3
component name=curve dim=1 deg=3 irreducible=yes
  poly x0*x2 - x1^2
  poly x0*x3 - x1*x2
  poly x1*x3 - x2^2
"""


def main():
    for p, k, modulus in ((2, 1, ""), (3, 1, ""), (2, 2, " modulus=x^2+x+1")):
        X = load_variety(DOC_TEMPLATE.format(p=p, k=k, modulus=modulus))
        q = X.q
        seq, hyp = dimension_degree_sequences(X)
        print(f"q={q}: (dim, deg) sequence {seq}")

        # the Hilbert machinery certifies dim 1, deg 3 independently of
        # the declared header values
        comp = X.component("curve")
        hd = comp.hilbert
        print(f"  Hilbert: dim={hd.dim} degree={hd.degree} "
              f"values[:6]={hd.values[:6]}")

        count = count_points(X)
        report = bound_projective(seq, X.n, q)
        print(f"  |X(F_{q})| = {count.value}  vs bound {report.total} "
              f"(= 3*(pi(1)-pi(-1)) + pi(-1) = 3*{pi(1, q)})")
        assert count.value == q + 1
        assert report.total == 3 * (q + 1)

        # a curve of degree 3 in P^3 is also a hypersurface-free case of
        # the ambient Serre count for comparison
        print(f"  Serre bound for a cubic surface in P^3 would be "
              f"{bound_serre(3, 3, q)}; the curve sits far below it")

    # hyperplane sections: every section of the cubic is a degree-3
    # zero-dimensional scheme, so it has at most 3 rational points
    print()
    X = load_variety(DOC_TEMPLATE.format(p=3, k=1, modulus=""))
    comp = X.component("curve")
    section = bound_projective(
        dimension_degree_sequences(X)[0], X.n, X.q, mode="section")
    print(f"section bound over F_3: {section.total}")
    pts = rational_points(X)
    sizes = []
    for w in enumerate_hyperplanes(3, X.field):
        form = linear_form(X.field, w)
        _, hd = hyperplane_section(comp.ideal, form)
        assert hd.dim == 0 and hd.degree == 3
        size = sum(1 for P in pts if not form.evaluate(P))
        sizes.append(size)
        assert size <= section.total
    hist = {s: sizes.count(s) for s in sorted(set(sizes))}
    print(f"section sizes over all {len(sizes)} hyperplanes: {hist}")
    print("every section is within the section bound. ok")


if __name__ == "__main__":
    main()
