"""Command-line front end.

Subcommands: count, hilbert, bound, construct, census, sweep. All output is
deterministic (fixed enumeration orders, sorted JSON keys, no timestamps).
Exit codes: 0 success, 1 a verified inequality failed on the data, 2 bad
usage or bad input.
"""

import argparse
import csv
import functools
import io
import json
import operator
import sys

from .bounds import (
    CSV_FIELDS,
    bound_affine,
    bound_conjectural,
    bound_equidimensional,
    bound_linear_arrangement,
    bound_projective,
    bound_serre,
    csv_row,
    tubular_report,
)
from .constructions import (
    build_extremal_arrangement,
    build_flower,
    build_partial_spread,
)
from .errors import InvalidSpecError, ToolkitError
from .gf import field_from_order
from .incidence import census_linear_component, census_through_point
from .projgeom import point_from_text
from .sweeps import SWEEP_FAMILIES, sweep_rows
from .variety import count_points, load_variety_file

BOUND_KINDS = ("affine", "projective", "section", "equidimensional",
               "serre", "linear_arrangement", "conjectural", "tubular")


def _emit(text: str, out: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(rows) -> str:
    """Rows in CSV_FIELDS order. csv writes each value as str() and None as
    an empty cell; only the `tight` flag, a bool or "", reads yes/no."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    cells = operator.itemgetter(*CSV_FIELDS)
    tight = CSV_FIELDS.index("tight")
    for row in rows:
        line = list(cells(row))
        if isinstance(line[tight], bool):
            line[tight] = "yes" if line[tight] else "no"
        writer.writerow(line)
    return buf.getvalue()


def _parse_components(text: str) -> list:
    out = []
    for chunk in text.split(","):
        d, _, delta = chunk.partition(":")
        try:
            out.append((int(d), int(delta)))
        except ValueError:  # also a number too long to read
            raise InvalidSpecError(
                f"bad component {chunk!r}, want dim:degree like 2:3") from None
    return out


def _parse_ints(text: str, what: str) -> list:
    try:
        return [int(c) for c in text.split(",") if c.strip() != ""]
    except ValueError:
        raise InvalidSpecError(f"bad {what} list {text!r}") from None


def cmd_count(args) -> int:
    X = load_variety_file(args.variety)
    res = count_points(X, budget=args.budget)
    _emit(_json_text({"count": res.value, "method": res.method,
                      "n": res.n, "q": res.q}), args.out)
    return 0


def cmd_hilbert(args) -> int:
    X = load_variety_file(args.variety)
    wanted = [X.component(args.component)] if args.component else X.components
    comps = {comp.name: comp.hilbert.to_json_dict() for comp in wanted}
    _emit(_json_text({"n": X.n, "q": X.q, "components": comps}), args.out)
    return 0


def cmd_bound(args) -> int:
    kind, n, q = args.kind, args.n, args.q
    if kind in ("affine", "projective", "section", "conjectural"):
        if not args.components:
            raise InvalidSpecError(f"--kind {kind} needs --components")
        comps = _parse_components(args.components)
        if kind == "affine":
            rep = bound_affine(comps, n, q)
        elif kind == "conjectural":
            rep = bound_conjectural(comps, n, q)
        else:
            mode = "section" if kind == "section" else "ambient"
            rep = bound_projective(comps, n, q, mode=mode)
    elif kind == "linear_arrangement":
        if not args.dims:
            raise InvalidSpecError("--kind linear_arrangement needs --dims")
        rep = bound_linear_arrangement(_parse_ints(args.dims, "dims"), n, q)
    elif kind == "equidimensional":
        rep = bound_equidimensional(n, q, _need(args.d, "--d"),
                                    _need(args.delta, "--delta"))
    elif kind == "tubular":
        rep = tubular_report(n, q, _need(args.d, "--d"),
                             _need(args.delta, "--delta"))
    else:  # serre
        total = bound_serre(n, _need(args.delta, "--delta"), q)
        row = {"kind": "serre", "n": n, "q": q, "dims": str(n - 1),
               "degs": str(args.delta), "bound": total, "count": "",
               "tight": "", "hypotheses": "hypersurface"}
        if args.format == "csv":
            _emit(_csv_text([row]), args.out)
        else:
            _emit(_json_text(row), args.out)
        return 0
    if args.format == "csv":
        _emit(_csv_text([csv_row(rep)]), args.out)
    else:
        _emit(_json_text(rep.to_json_dict()), args.out)
    return 0


def _need(value, flag):
    if value is None:
        raise InvalidSpecError(f"this bound kind needs {flag}")
    return value


def cmd_construct(args) -> int:
    field = field_from_order(args.q)
    if args.shape == "spread":
        spec = build_partial_spread(args.n, _need(args.d, "--d"),
                                    _need(args.r, "--r"), field)
    elif args.shape == "flower":
        spec = build_flower(args.n, _need(args.d, "--d"),
                            _need(args.r, "--r"), field)
    else:
        if not args.dims:
            raise InvalidSpecError("arrangement needs --dims")
        spec = build_extremal_arrangement(
            _parse_ints(args.dims, "dims"), args.n, field)
    if args.emit == "json":
        _emit(_json_text(spec.to_json_dict()), args.out)
    else:
        doc = spec.to_variety_doc()
        header = (f"# {args.shape} n={args.n} q={args.q}, "
                  f"{spec.point_count()} points\n")
        _emit(header + doc, args.out)
    return 0


def cmd_census(args) -> int:
    X = load_variety_file(args.variety)
    P = point_from_text(args.point, X.field, X.n)
    if args.linear_component:
        census = census_linear_component(X, args.linear_component, P,
                                         budget=args.budget)
    else:
        census = census_through_point(X, P, budget=args.budget)
    text = _json_text(census.to_json_dict())
    if args.trace:
        text += "".join(line + "\n" for line in census.trace())
    _emit(text, args.out)
    return 0 if census.ok else 1


def cmd_sweep(args) -> int:
    qs = _parse_ints(args.qs, "q")
    rows, bad = sweep_rows(args.family, n=args.n, degree=args.degree,
                           qs=qs, max_index=args.max_index,
                           budget=args.budget)
    if args.format == "json":
        _emit(_json_text(rows), args.out)
    else:
        _emit(_csv_text(rows), args.out)
    if bad:
        sys.stderr.write(f"{len(bad)} violation(s) found\n")
        return 1
    return 0


@functools.cache  # parsing keeps no state, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fqpoints",
        description="Exact point counts and bounds for varieties over F_q.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="", help="write output here")
        p.add_argument("--budget", type=int, default=10 ** 7,
                       help="enumeration cap in points")

    p = sub.add_parser("count", help="count rational points of a variety file")
    p.add_argument("--variety", required=True)
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("hilbert", help="Hilbert data per component")
    p.add_argument("--variety", required=True)
    p.add_argument("--component", default="")
    common(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("bound", help="evaluate a point-count bound")
    p.add_argument("--kind", required=True, choices=BOUND_KINDS)
    p.add_argument("--components", default="",
                   help="comma list of dim:degree pairs, e.g. 2:3,1:1")
    p.add_argument("--dims", default="", help="comma list of dimensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("construct", help="build an extremal configuration")
    p.add_argument("shape", choices=("spread", "flower", "arrangement"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--dims", default="")
    p.add_argument("--emit", choices=("var", "json"), default="var")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("census", help="incidence census at a base point")
    p.add_argument("--variety", required=True)
    p.add_argument("--point", required=True, help="e.g. (1:0:0:0)")
    p.add_argument("--linear-component", default="",
                   help="census X minus this component instead")
    p.add_argument("--trace", action="store_true")
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("sweep", help="exhaustive verification sweeps")
    p.add_argument("--family", required=True, choices=SWEEP_FAMILIES)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--qs", default="2", help="comma list of field sizes")
    p.add_argument("--max-index", type=int, default=12)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    common(p)
    p.set_defaults(func=cmd_sweep)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
