"""Sweep every plane cubic over F_2 and audit the hypersurface bound.

A degree-delta hypersurface in P^n has at most

    delta * q^(n-1) + pi(n-2)

rational points.  There are (2^10 - 1) nonzero cubic forms in three
variables over F_2, each its own projective curve, so the claim can be
checked exhaustively.  sweep_rows returns one CSV-shaped row per
form together with the list of violations (empty, or the run fails).
The same runner handles the construction, identity, and margin
families; this script summarizes the cubic sweep and prints the tight
cases.
"""

from collections import Counter

from fqpoints.sweeps import sweep_rows


def main():
    rows, bad = sweep_rows("all_hypersurfaces", n=2, degree=3, qs=(2,))
    assert not bad, bad[:3]
    print(f"{len(rows)} cubic forms swept over F_2, 0 violations")

    counts = Counter(r["count"] for r in rows)
    print("point-count histogram:")
    for value in sorted(counts):
        print(f"  {value:>2} points: {counts[value]:>4} forms")

    bound = rows[0]["bound"]
    tight = [r for r in rows if r["tight"]]
    print(f"bound is {bound}; {len(tight)} forms meet it exactly")

    # the tight forms are the products of three concurrent lines: a
    # pencil of three lines through one point covers 3*2 + 1 = 7 points,
    # all of P^2(F_2), matching the [1, 1, 1] arrangement
    for r in tight[:3]:
        print(f"  tight: dims={r['dims']} degs={r['degs']} "
              f"count={r['count']}")

    # the construction sweep replays the extremal families and insists
    # on tightness everywhere
    rows, bad = sweep_rows("constructions", qs=(2, 3))
    assert not bad
    kinds = Counter(r["kind"] for r in rows)
    print(f"\nconstruction sweep: {len(rows)} rows, all tight "
          f"({dict(kinds)})")

    # identity and margin grids: bounds vs counts as lhs vs rhs
    rows, bad = sweep_rows("identity_grid", qs=(2, 3, 4, 5), max_index=10)
    assert not bad
    print(f"identity grid: {len(rows)} identities re-derived, 0 failures")

    rows, bad = sweep_rows("lemma_grid", qs=(2, 3, 4, 5), max_index=8)
    assert not bad
    neg = min(r["bound"] for r in rows)
    print(f"margin grid: {len(rows)} rows, smallest margin {neg} (>= 0)")


if __name__ == "__main__":
    main()
