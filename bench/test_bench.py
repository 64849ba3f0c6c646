"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gfint  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_cli(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=300)
    return proc


@pytest.fixture(scope="module")
def tiny_runs():
    """Last stdout line of a tiny run per (workload, trace)."""
    out = {}
    for name, trace in itertools.product(workloads.WORKLOADS, (0, 1)):
        proc = bench_cli("--workload", name, "--seed", "3", "--seconds",
                         "0.01", "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[name, trace] = json.loads(lines[-1])
        out[name, trace]["meta"] = json.loads(lines[-2])["meta"]
    return out


def test_spec_names_match_the_code():
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == {**{m[0]: m[1] for m in METRICS},
                         "trace.overhead_ratio": "ratio",
                         "error_rate": "fraction"}


def test_tiny_runs_emit_every_metric(tiny_runs):
    for (name, trace), result in tiny_runs.items():
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        meta = result["meta"]
        for key in ("git_revision", "nproc", "python", "seed", "jobs"):
            assert key in meta
        if not trace:
            assert 0 < meta["job_ms_tail_percentile"] <= 100
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_known_defect_counts_in_error_rate_only(tiny_runs):
    result = tiny_runs["hilbert_ideals", 1]
    meta = result["meta"]
    assert meta["known_failures"] == meta["rounds"]  # the P^29 quadric
    assert result["failed"] == 0
    assert result["metrics"]["error_rate"]["value"] == pytest.approx(
        meta["known_failures"] / meta["jobs"])
    assert tiny_runs["count_census", 1]["metrics"]["error_rate"]["value"] == 0


def test_traced_counts_follow_the_layers(tiny_runs):
    def value(name, trace_metric):
        return tiny_runs[name, 1]["metrics"][trace_metric]["value"]

    assert value("sweep_hypersurfaces", "groebner.buchberger.calls") == 0
    for metric in ("gf.mul.calls", "mpoly.evaluate.calls",
                   "mpoly.enumerate_forms.forms", "cli.main.calls"):
        assert value("sweep_hypersurfaces", metric) > 0
    assert value("hilbert_ideals", "mpoly.evaluate.calls") == 0
    assert value("hilbert_ideals", "projgeom.enumerate_points.points") == 0
    for metric in ("groebner.buchberger.calls", "groebner.normal_form.calls",
                   "groebner.hilbert.calls", "mpoly.leading_monomial.calls"):
        assert value("hilbert_ideals", metric) > 0
    for metric in ("projgeom.contains.calls", "incidence.census.calls",
                   "variety.rational_points.points_per_s",
                   "constructions.build.calls", "bounds.calls"):
        assert value("count_census", metric) > 0
    for name in workloads.WORKLOADS:
        assert value(name, "trace.overhead_ratio") > 1


@pytest.mark.parametrize("name, field", [("hilbert_ideals", "degrees"),
                                         ("count_census", "count")])
def test_a_wrong_expected_answer_raises_error_rate(name, field, tmp_path):
    def spoil(jobs):
        job = next(j for j in jobs
                   if field in j.expect and not j.known_failure)
        if field == "degrees":
            job.expect["degrees"] = job.expect["degrees"] + [2]
        else:
            job.expect["count"] += 1

    result, meta, lines = run.run_workload(name, 5, 0.01, 0, tiny=True,
                                           workdir=tmp_path / "w",
                                           rounds_hook=spoil)
    assert result["failed"] == meta["rounds"] >= 1
    assert not result["correct"]
    assert meta["error_rate"] > meta["known_failures"] / meta["jobs"]
    assert any(line.lstrip().startswith("FAILED") for line in lines)


def test_tracer_restores_the_program_and_reports_absent_names(monkeypatch):
    run.import_program()
    groebner = sys.modules["fqpoints.groebner"]
    variety = sys.modules["fqpoints.variety"]
    poly = sys.modules["fqpoints.mpoly"].Polynomial
    before = (variety.buchberger, poly.evaluate, poly.__dict__["from_terms"])
    monkeypatch.delattr(groebner, "hilbert")
    tracer = Tracer()
    tracer.start()
    assert variety.buchberger is not before[0]  # a `from .x import y` copy
    assert poly.evaluate is not before[1]
    tracer.stop()
    assert (variety.buchberger, poly.evaluate,
            poly.__dict__["from_terms"]) == before
    values, absent = tracer.metrics(1)
    assert "groebner.hilbert.calls" in absent
    assert values["groebner.hilbert.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = bench_cli("--workload", "hilbert_ideals", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_field_kit_is_a_field():
    for q in (4, 8, 9, 16):
        F = gfint.Field(q)
        for a, b, c in itertools.product(range(q), repeat=3):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert all(1 in (F.mul(a, b) for b in range(q)) for a in range(1, q))


def test_sweep_identity_on_a_hand_count():
    # conics in P^1 over GF(2): 7 forms; each of the 3 points kills 3
    out = "kind,n,q,dims,degs,bound,count,tight,hypotheses\n" + "".join(
        f"serre,1,2,0,2,2,{c},,hypersurface\n" for c in (2, 1, 1, 1, 1, 2, 1))
    expect = {"n": 1, "d": 2, "q": 2}
    assert workloads.check_hypersurface_sweep(expect, 0, out) is None
    assert workloads.check_hypersurface_sweep(
        expect, 0, out.replace(",2,2,", ",2,1,", 1)) is not None
