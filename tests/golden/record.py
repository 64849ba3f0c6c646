"""Record the golden CLI transcripts that tests/test_golden.py compares.

    PYTHONPATH=src python tests/golden/record.py

Each case is one `fqpoints` argv, run in-process through `fqpoints.cli.main`.
Its stdout goes to `<name>.out`; its argv, exit code and stderr go to
`index.json`. An argv entry that starts with `inputs/` names a variety
document under `tests/golden/inputs/` and is resolved against this
directory, so the transcripts do not depend on the working directory.
The transcripts pin the output of the commit they were recorded at, so a
change that alters one byte of them fails the test.

The same run records the stdout of each script in `demos/`, executed
in-process as `__main__`, to `demos/<script stem>.out` here;
tests/test_demos.py compares them.

Re-record only when an output is meant to change, and give the reason in
CHANGES.md. A run that rewrites a transcript without such a reason undoes
the check the transcripts exist for.
"""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEMO_SOURCES = HERE.parents[1] / "demos"
DEMO_OUTPUTS = HERE / "demos"

HYPER = ["sweep", "--family", "all_hypersurfaces"]


def _hyper(n, d, q, fmt="csv", *extra):
    return HYPER + ["--n", str(n), "--degree", str(d), "--qs", str(q),
                    "--format", fmt, *extra]


BOUND_ARGS = [
    ("affine", ["--components", "1:3,1:1", "--n", "3", "--q", "2"]),
    ("projective", ["--components", "1:3,1:1", "--n", "3", "--q", "2"]),
    ("section", ["--components", "2:2,1:1", "--n", "3", "--q", "3"]),
    ("equidimensional", ["--n", "4", "--q", "2", "--d", "2", "--delta", "3"]),
    ("serre", ["--n", "3", "--q", "2", "--delta", "3"]),
    ("linear_arrangement", ["--dims", "2,1", "--n", "3", "--q", "2"]),
    ("conjectural", ["--components", "2:2,1:1", "--n", "4", "--q", "4"]),
    ("tubular", ["--n", "4", "--q", "3", "--d", "2", "--delta", "2"]),
]

CONSTRUCT_ARGS = [
    ("spread", ["--n", "3", "--d", "1", "--r", "5", "--q", "2"]),
    ("flower", ["--n", "4", "--d", "2", "--r", "3", "--q", "4"]),
    ("arrangement", ["--dims", "2,1", "--n", "3", "--q", "3"]),
]

CASES = [
    *((f"hyper_{n}_{d}_{q}", _hyper(n, d, q))
      for n, d, q in ((2, 3, 2), (3, 2, 2), (2, 2, 3), (1, 3, 4), (1, 2, 8),
                      (1, 2, 9), (1, 2, 16), (1, 1, 101))),
    ("hyper_2_2_3_json", _hyper(2, 2, 3, "json")),
    ("hyper_1_2_9_json", _hyper(1, 2, 9, "json")),
    ("constructions", ["sweep", "--family", "constructions", "--qs", "2,3"]),
    ("identity_grid", ["sweep", "--family", "identity_grid",
                       "--qs", "2,3,4,5,7,8,9", "--max-index", "12"]),
    ("lemma_grid", ["sweep", "--family", "lemma_grid", "--qs", "2,3,4,5"]),
    ("error_budget", _hyper(3, 3, 2, "csv", "--budget", "1000")),
    ("error_n0", _hyper(0, 2, 2)),
    ("error_degree0", _hyper(2, 0, 3)),
    ("error_q6", _hyper(2, 2, 6)),
    ("error_empty_qs", _hyper(1, 1, "")),
    ("count_twisted_cubic", ["count", "--variety",
                             "inputs/twisted_cubic.var"]),
    ("count_gf4", ["count", "--variety", "inputs/gf4_conic.var"]),
    *((f"hilbert_{name}", ["hilbert", "--variety", f"inputs/{name}.var"])
      for name in ("twisted_cubic", "gf4_conic", "empty", "quadric_p28",
                   "fifth_powers", "quadric_p29", "huge_power")),
    ("hilbert_component", ["hilbert", "--variety", "inputs/twisted_cubic.var",
                           "--component", "curve"]),
    *((f"bound_{kind}_{fmt}", ["bound", "--kind", kind, *args,
                               "--format", fmt])
      for kind, args in BOUND_ARGS for fmt in ("json", "csv")),
    ("bound_error_q6", ["bound", "--kind", "projective", "--components", "1:3",
                        "--n", "3", "--q", "6"]),
    *((f"construct_{shape}_{emit}", ["construct", shape, *args,
                                     "--emit", emit])
      for shape, args in CONSTRUCT_ARGS for emit in ("var", "json")),
    ("census_trace", ["census", "--variety", "inputs/twisted_cubic.var",
                      "--point", "1:0:0:0", "--trace"]),
    ("census_linear_component", ["census", "--variety", "inputs/two_lines.var",
                                 "--point", "0:0:1:0",
                                 "--linear-component", "L1"]),
    ("census_trace_gf9", ["census", "--variety",
                          "inputs/gf9_quadric_line.var", "--point", "1:0:a:0",
                          "--trace"]),
    ("census_linear_component_gf4", ["census", "--variety",
                                     "inputs/gf4_quadric_line.var",
                                     "--point", "0:1:a:1",
                                     "--linear-component", "L"]),
    ("count_gf8", ["count", "--variety", "inputs/gf8_cubic.var"]),
    ("count_gf16", ["count", "--variety", "inputs/gf16_surface.var"]),
    ("construct_spread_q9_json", ["construct", "spread", "--n", "3", "--d",
                                  "1", "--r", "4", "--q", "9",
                                  "--emit", "json"]),
    ("hilbert_gf4096_conics", ["hilbert", "--variety",
                               "inputs/gf4096_conics.var"]),
    ("census_trace_gf3_reducible", ["census", "--variety",
                                    "inputs/gf3_reducible_quadric.var",
                                    "--point", "1:0:0:2", "--trace"]),
    ("census_trace_gf2_cubic", ["census", "--variety",
                                "inputs/gf2_cubic_plane.var",
                                "--point", "0:1:1:0", "--trace"]),
    ("census_trace_gf5_quadric", ["census", "--variety",
                                  "inputs/gf5_quadric.var",
                                  "--point", "1:0:0:0", "--trace"]),
]


def resolve(argv):
    """argv with each `inputs/...` entry made absolute under HERE."""
    return [str(HERE / a) if a.startswith("inputs/") else a for a in argv]


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    from fqpoints.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolve(argv))
    return code, out.getvalue(), err.getvalue()


def run_demo(script):
    """stdout of one demo script, run in-process as `__main__`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(script), run_name="__main__")
    return out.getvalue()


def record():
    index = {}
    for name, argv in CASES:
        code, out, err = run(argv)
        (HERE / f"{name}.out").write_bytes(out.encode())
        index[name] = {"argv": argv, "exit": code, "stderr": err}
        print(f"{name}: exit {code}, {len(out)} bytes", file=sys.stderr)
    lines = [f" {json.dumps(name)}: {json.dumps(index[name], sort_keys=True)}"
             for name in sorted(index)]
    (HERE / "index.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    DEMO_OUTPUTS.mkdir(exist_ok=True)
    for script in sorted(DEMO_SOURCES.glob("*.py")):
        out = run_demo(script)
        (DEMO_OUTPUTS / f"{script.stem}.out").write_bytes(out.encode())
        print(f"demo {script.stem}: {len(out)} bytes", file=sys.stderr)


if __name__ == "__main__":
    record()
