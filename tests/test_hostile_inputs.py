"""Hostile inputs end in exit 0 or 2, never in a traceback.

The table mixes the probes that once ended in a traceback or ran out of
memory with a seeded sample of mutations: every option `build_parser()`
declares, on a few valid base command lines, set to an out-of-range,
malformed or overlong value, and documents that break the grammar one
rule at a time. Each case runs alone in a forked child with an
address-space rlimit set in the child only and a timeout, so a case that
would exhaust memory or hang fails here instead of taking the run down.
An exit of 2 must print exactly one `error:` line.
"""

import argparse
import os
import random
import resource
import signal
import sys
import time
import traceback

from fqpoints.cli import build_parser, main

ADDRESS_SPACE = 2 * 1024 ** 3
TIMEOUT_S = 3.0
NINES = "9" * 300
TOO_LONG = "9" * 5000  # past the interpreter's 4,300 digits read
P = "1000000007"

DOC = ("field p=2 k=1\nspace n=3\ncomponent name=curve\n"
       "poly x0*x2-x1^2\npoly x0*x3-x1*x2\npoly x1*x3-x2^2\n")
GOOD = {"field": "field p=2 k=1", "space": "space n=3"}

PROBES = [
    ["bound", "--kind", "serre", "--delta", NINES, "--n", "13300", "--q", "2"],
    ["bound", "--kind", "affine", "--components", f"3999:{NINES}",
     "--n", "4000", "--q", "11"],
    ["bound", "--kind", "tubular", "--d", "4000", "--delta", NINES,
     "--n", "4001", "--q", "11"],
    ["sweep", "--family", "identity_grid", "--qs", P, "--max-index", "600"],
    ["construct", "spread", "--n", "3", "--d", "1", "--r", "5", "--q", P],
    ["construct", "flower", "--n", "4", "--d", "2", "--r", "3", "--q", P],
    ["construct", "arrangement", "--dims", "2,1", "--n", "3", "--q", P],
    ["sweep", "--family", "constructions", "--qs", P],
]

BASES = [
    ["count", "--variety", "{doc}"],
    ["hilbert", "--variety", "{doc}", "--component", "curve"],
    ["census", "--variety", "{doc}", "--point", "1:0:0:0"],
    ["bound", "--kind", "projective", "--components", "1:2", "--n", "3",
     "--q", "2"],
    ["bound", "--kind", "tubular", "--d", "1", "--delta", "2", "--n", "3",
     "--q", "2"],
    ["construct", "spread", "--n", "3", "--d", "1", "--r", "2", "--q", "2"],
    ["construct", "arrangement", "--dims", "2,1", "--n", "3", "--q", "2"],
    ["sweep", "--family", "all_hypersurfaces", "--n", "1", "--degree", "2",
     "--qs", "2"],
    ["sweep", "--family", "identity_grid", "--qs", "2", "--max-index", "4"],
]
INT_VALUES = ["0", "-1", NINES, TOO_LONG, "1.5"]
TEXT_VALUES = ["", "-1", ",,", "1:2:3", "²", NINES, TOO_LONG + ":1",
               "((", "1:0:0:x0", "{tmp}"]

# each document breaks one rule of the grammar, or asks for too much
DOCUMENTS = [
    "",
    "field p=2 k=1\n",
    "field p=4 k=1\nspace n=3\ncomponent name=a\npoly x0\n",
    f"field p={NINES} k=1\nspace n=3\ncomponent name=a\npoly x0\n",
    f"field p=2 k={NINES}\nspace n=3\ncomponent name=a\npoly x0\n",
    "field p=2 k=2 modulus=x^99999999999+1\nspace n=3\n",
    "field p=2 k=2 modulus=x^2+x\nspace n=3\ncomponent name=a\npoly x0\n",
    "{field}\nspace n=0\ncomponent name=a\npoly x0\n",
    f"{{field}}\nspace n={NINES}\ncomponent name=a\npoly x0\n",
    "{field}\n{space}\npoly x0\n",
    "{field}\n{space}\ncomponent dim=1\npoly x0\n",
    "{field}\n{space}\ncomponent name=a dim=x\npoly x0\n",
    "{field}\n{space}\ncomponent name=a\ncomponent name=a\npoly x0\n",
    "{field}\n{space}\ncomponent name=a\npoly x0*x1+x2\n",
    "{field}\n{space}\ncomponent name=a\npoly x9\n",
    "{field}\n{space}\ncomponent name=a\npoly a*x0\n",
    "{field}\n{space}\ncomponent name=a\npoly 0\n",
    "{field}\n{space}\ncomponent name=a\npoly 1\n",
    f"{{field}}\n{{space}}\ncomponent name=a\npoly x0^{NINES}\n",
    "{field}\n{space}\ncomponent name=a\npoly (x0+x1)^5000\n",
    "{field}\n{space}\ncomponent name=a\npoly " + "(" * 300 + "x0"
    + ")" * 300 + "\n",
    f"{{field}}\n{{space}}\ncomponent name=a\npoly {TOO_LONG}*x0\n",
    f"{{field}}\n{{space}}\ncomponent name=a\npoly x{TOO_LONG}\n",
    "{field}\n{space}\ncomponent name=a\npoly x0 x1\n",
    "{field}\n{space}\nsurface name=a\n",
]


def _mutations() -> list:
    """Each base with one of its subcommand's options set hostile."""
    top = build_parser()
    subs = next(a for a in top._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    out = []
    for base in BASES:
        for action in subs[base[0]]._actions:
            if not action.option_strings or action.nargs == 0:
                continue  # a positional, --help or a switch
            flag = action.option_strings[0]
            if action.choices:
                values = ["nope"]
            elif action.type is int:
                values = INT_VALUES
            else:
                values = TEXT_VALUES
            for value in values:
                argv = list(base)
                if flag in argv:
                    argv[argv.index(flag) + 1] = value
                else:
                    argv += [flag, value]
                out.append(argv)
    return out


def _table() -> list:
    rng = random.Random(20261018)
    docs = rng.sample(DOCUMENTS, 12)
    cases = [(argv, None) for argv in PROBES]
    cases += [(argv, None) for argv in rng.sample(_mutations(), 20)]
    cases += [(["count", "--variety", "{doc}"], doc) for doc in docs]
    return cases


def _in_child(argv: list, tmp) -> tuple:
    """(exit code or None on timeout, stdout, stderr) of main(argv), run
    in a forked child under the address-space rlimit."""
    out, err = tmp / "out", tmp / "err"
    pid = os.fork()
    if pid == 0:  # the child: limit itself, run, report, never return
        code = 1
        try:
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            cap = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else \
                min(ADDRESS_SPACE, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
            os.chdir(tmp)  # an --out value names a file here
            sys.stdout, sys.stderr = open(out, "w"), open(err, "w")
            try:
                code = main(argv)
            except Exception:  # as the interpreter would print it
                traceback.print_exc()
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
    deadline = time.monotonic() + TIMEOUT_S
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return None, "", ""
        time.sleep(0.002)
    return (os.waitstatus_to_exitcode(done[1]), out.read_text(),
            err.read_text())


def test_hostile_inputs_exit_cleanly(tmp_path):
    start = time.perf_counter()
    table = _table()
    assert len(table) <= 40
    failures = []
    for i, (argv, doc) in enumerate(table):
        path = tmp_path / f"case{i}.var"
        path.write_text((DOC if doc is None else doc).format(**GOOD))
        argv = [a.replace("{doc}", str(path)).replace("{tmp}", str(tmp_path))
                for a in argv]
        code, out, err = _in_child(argv, tmp_path)
        errors = sum("error:" in line for line in err.splitlines())
        if code not in (0, 2) or "Traceback" in err or \
                (code == 2 and errors != 1):
            failures.append((argv[:8], doc and doc[:60], code, err[-300:]))
    assert failures == []
    assert time.perf_counter() - start < 5
