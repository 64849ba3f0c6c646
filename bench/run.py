"""The fqpoints benchmark: seeded CLI workloads, timed end to end and traced
layer by layer.

    python3 bench/run.py --workload count_census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1   # every workload, one by one

Each job is one in-process call to `fqpoints.cli.main(argv)` with stdout and
stderr captured, in a closed loop: one client, one thread. Jobs run in whole
rounds until the measured time reaches --seconds. Every answer is checked;
checks and input generation between rounds are not timed. With --trace 1
untraced and traced rounds alternate, and the per-layer metrics come from
the traced ones. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it holds run metadata.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 5
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

END_TO_END_UNITS = {"jobs_per_s": "jobs/s", "job_ms_p50": "ms",
                    "job_ms_tail": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def git_revision():
    """HEAD's commit id read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program():
    """Import fqpoints afresh from the checkout's src/ and return its cli."""
    for name in [n for n in sys.modules
                 if n == "fqpoints" or n.startswith("fqpoints.")]:
        del sys.modules[name]
    cli = importlib.import_module("fqpoints.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fqpoints came from {cli.__file__}, not {SRC}")
    return cli


def round_rng(workload, seed, r):
    return random.Random(f"{workload}/{seed}/{r}")


def setup(workload, seed, workdir, tiny):
    """One set-up: import the program, make round 0's jobs, and build each
    field the workload uses once."""
    import_program()
    jobs = workload.make_round(round_rng(workload.name, seed, 0), 0,
                               str(workdir), tiny)
    gf = sys.modules["fqpoints.gf"]
    for q in workload.fields:
        gf.field_from_order(q)
    return jobs


def run_job(job):
    """(seconds, outcome, problem); outcome is ok, known or failed. The
    program is looked up at each call, so a tracer's wrappers are used."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["fqpoints.cli"].main
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(job.argv)
    except Exception as exc:  # a raise is a failed job, not a stopped run
        return time.perf_counter() - t0, "failed", f"raised {exc!r}"
    seconds = time.perf_counter() - t0
    try:
        problem = job.check(job.expect, rc, out.getvalue())
    except Exception as exc:  # an unreadable answer fails its check
        problem = f"unreadable answer: {exc!r}"
    if problem is None:
        return seconds, "ok", None
    if job.known_failure and job.known_failure in err.getvalue():
        return seconds, "known", problem
    return seconds, "failed", problem


class Tally:
    """Job times and outcomes of a run."""

    def __init__(self):
        self.times = []
        self.outcomes = {"ok": 0, "known": 0, "failed": 0}
        self.problems = []

    def run_round(self, jobs):
        """Run jobs in order; return their summed wall time."""
        total = 0.0
        for job in jobs:
            seconds, outcome, problem = run_job(job)
            total += seconds
            self.times.append(seconds)
            self.outcomes[outcome] += 1
            if problem:
                self.problems.append((outcome, " ".join(job.argv), problem))
        return total

    @property
    def attempted(self):
        return len(self.times)


def tail(times):
    """(value, percentile): the highest percentile of `times` with at least
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(name, seed, seconds, trace, tiny=False, workdir=None,
                 rounds_hook=None):
    """Run one workload; return (result line, metadata, report lines).
    `rounds_hook(jobs)` may alter each round's jobs before they run."""
    workload = workloads.WORKLOADS[name]
    workdir = Path(workdir or BENCH_DIR / "_work" / f"{name}-{os.getpid()}")
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            jobs = setup(workload, seed, workdir, tiny)
            setup_times.append(time.perf_counter() - t0)
        tally = Tally()
        tracer = Tracer() if trace else None
        plain_s = traced_s = 0.0
        r = traced_rounds = 0
        while True:
            if rounds_hook:
                rounds_hook(jobs)
            gc.collect()
            if tracer and r % 2:
                tracer.start()
                try:
                    traced_s += tally.run_round(jobs)
                finally:
                    tracer.stop()
                traced_rounds += 1
            else:
                plain_s += tally.run_round(jobs)
            r += 1
            if plain_s + traced_s >= seconds and (not tracer or r >= 2):
                break
            jobs = workload.make_round(round_rng(name, seed, r), r,
                                       str(workdir), tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    failed, known = tally.outcomes["failed"], tally.outcomes["known"]
    error_rate = (failed + known) / tally.attempted
    meta = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(bool(trace)), "tiny": tiny, "rounds": r,
            "jobs": tally.attempted, "known_failures": known,
            "error_rate": error_rate, "git_revision": git_revision(),
            "nproc": os.cpu_count(), "python": platform.python_version()}
    lines = [f"{name}: seed {seed}, {r} rounds, {tally.attempted} jobs, "
             f"{failed} failed, {known} known failures"]
    shown = set()
    for outcome, argv, problem in tally.problems:
        if outcome == "failed" or outcome not in shown:  # one known example
            lines.append(f"  {outcome.upper()} {argv}: {problem}")
            shown.add(outcome)
    if tracer:
        values, absent = tracer.metrics(traced_rounds)
        values["trace.overhead_ratio"] = (traced_s / traced_rounds) / (
            plain_s / (r - traced_rounds))  # per round: mixes are alike
        values["error_rate"] = error_rate
        units = {m[0]: m[1] for m in METRICS}
        units.update({"trace.overhead_ratio": "ratio",
                      "error_rate": "fraction"})
        meta["absent"] = absent
        shares = tracer.layer_self()
        total_self = sum(shares.values()) or 1.0
        lines.append("  self-time shares: " + ", ".join(
            f"{layer} {100 * s / total_self:.1f}%"
            for layer, s in sorted(shares.items(), key=lambda kv: -kv[1])))
    else:
        p50 = statistics.median(tally.times)
        tail_s, pct = tail(tally.times)
        values = {"jobs_per_s": tally.attempted / plain_s,
                  "job_ms_p50": 1000 * p50, "job_ms_tail": 1000 * tail_s,
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
        meta["job_ms_tail_percentile"] = round(pct, 2)
        meta["setup_s_samples"] = setup_times
        lines.append(f"  error_rate {error_rate:.4g} fraction "
                     f"({failed + known} of {tally.attempted} jobs)")
    for key, value in values.items():
        extra = (f" (p{meta['job_ms_tail_percentile']} of "
                 f"{tally.attempted} jobs)" if key == "job_ms_tail" else "")
        lines.append(f"  {key} {value:.6g} {units[key]}{extra}")
    result = {"correct": failed == 0, "attempted": tally.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    return result, meta, lines


def run_all(args):
    """Each workload in a fresh process; print each one's report."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900, cwd=ROOT)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit {proc.returncode}")
            status = 1
        print(proc.stdout, end="")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few of each workload's cheapest jobs")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    if not (SRC / "fqpoints" / "cli.py").is_file():
        sys.stderr.write(f"error: no program source at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    result, meta, lines = run_workload(args.workload, args.seed, args.seconds,
                                       args.trace, args.tiny)
    print("\n".join(lines))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
