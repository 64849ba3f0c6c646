"""End-to-end runs of the command-line surface."""

import csv
import io
import json
import sys
import time

import pytest

from fqpoints.cli import main, sweep_rows
from fqpoints.bounds import CSV_FIELDS


@pytest.fixture
def cubic_file(tmp_path, twisted_cubic_doc):
    path = tmp_path / "cubic.var"
    path.write_text(twisted_cubic_doc)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_subcommand(capsys, cubic_file):
    code, out, _ = run(capsys, ["count", "--variety", cubic_file])
    assert code == 0
    data = json.loads(out)
    assert data == {"count": 3, "method": "enumeration", "n": 3, "q": 2}


def test_hilbert_subcommand(capsys, cubic_file):
    code, out, _ = run(capsys, ["hilbert", "--variety", cubic_file])
    assert code == 0
    data = json.loads(out)
    comp = data["components"]["curve"]
    assert (comp["dim"], comp["degree"]) == (1, 3)


def test_bound_subcommand_json(capsys):
    code, out, _ = run(capsys, ["bound", "--kind", "projective",
                                "--components", "1:3", "--n", "3", "--q", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 9
    assert data["per_component"][0]["term"] == 9


def test_bound_subcommand_csv(capsys):
    code, out, _ = run(capsys, ["bound", "--kind", "linear_arrangement",
                                "--dims", "2,1", "--n", "3", "--q", "2",
                                "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["kind"] == "linear_arrangement"
    assert rows[0]["bound"] == "9"
    assert rows[0]["dims"] == "2;1"
    assert list(rows[0]) == CSV_FIELDS


def test_bound_serre_and_usage_errors(capsys):
    code, out, _ = run(capsys, ["bound", "--kind", "serre", "--n", "3",
                                "--q", "2", "--delta", "2"])
    assert code == 0 and json.loads(out)["bound"] == 11
    code, _, err = run(capsys, ["bound", "--kind", "serre", "--n", "3",
                                "--q", "2"])
    assert code == 2 and "delta" in err
    code, _, err = run(capsys, ["bound", "--kind", "projective", "--n", "3",
                                "--q", "2"])
    assert code == 2
    code, _, err = run(capsys, ["bound", "--kind", "projective",
                                "--components", "oops", "--n", "3", "--q", "2"])
    assert code == 2 and "dim:degree" in err


def test_construct_flower_var_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "flower.var"
    code, _, _ = run(capsys, ["construct", "flower", "--n", "4", "--d", "2",
                              "--r", "3", "--q", "2", "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# flower n=4 q=2, 19 points")
    code, out, _ = run(capsys, ["count", "--variety", str(out_file)])
    assert code == 0 and json.loads(out)["count"] == 19


def test_construct_json_and_infeasible(capsys):
    code, out, _ = run(capsys, ["construct", "spread", "--n", "3", "--d", "1",
                                "--r", "5", "--q", "2", "--emit", "json"])
    assert code == 0
    assert json.loads(out)["count"] == 15
    code, _, err = run(capsys, ["construct", "spread", "--n", "3", "--d", "1",
                                "--r", "6", "--q", "2"])
    assert code == 2 and "5" in err


def test_construct_arrangement(capsys):
    code, out, _ = run(capsys, ["construct", "arrangement", "--n", "3",
                                "--q", "2", "--dims", "2,1", "--emit", "json"])
    assert code == 0
    assert json.loads(out)["count"] == 9


def test_census_subcommand(capsys, cubic_file):
    code, out, _ = run(capsys, ["census", "--variety", cubic_file,
                                "--point", "(1:0:0:0)", "--trace"])
    assert code == 0
    head, _, tail = out.partition("}\n")
    data = json.loads(head + "}")
    assert data["edge_count"] == 6 and data["ok"] is True
    assert "regime spanning" in tail
    code, _, err = run(capsys, ["census", "--variety", cubic_file,
                                "--point", "(0:1:0:0)"])
    assert code == 2 and "not a rational point" in err


def test_sweep_cubic_forms_p2(capsys):
    code, out, _ = run(capsys, ["sweep", "--family", "all_hypersurfaces",
                                "--n", "2", "--degree", "3", "--qs", "2"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1023
    assert all(int(r["count"]) <= int(r["bound"]) == 7 for r in rows)
    assert any(r["tight"] == "yes" for r in rows)


def test_sweep_conics_up_to_scalar(capsys):
    rows, bad = sweep_rows("all_hypersurfaces", n=2, degree=2, qs=(3,))
    assert len(rows) == 364 and not bad
    assert all(r["count"] <= r["bound"] == 7 for r in rows)


def test_sweep_identity_and_lemma_grids(capsys):
    code, out, _ = run(capsys, ["sweep", "--family", "identity_grid",
                                "--qs", "2,3,4,5,7,8,9", "--max-index", "12"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["tight"] == "yes" for r in rows)
    code, out, _ = run(capsys, ["sweep", "--family", "lemma_grid",
                                "--qs", "2,3"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(int(r["bound"]) >= 0 for r in rows)


def test_sweep_constructions_all_tight(capsys):
    code, out, _ = run(capsys, ["sweep", "--family", "constructions",
                                "--qs", "2,3"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["tight"] == "yes" for r in rows)


def test_sweep_budget_and_usage(capsys):
    code, _, err = run(capsys, ["sweep", "--family", "all_hypersurfaces",
                                "--n", "3", "--degree", "3", "--qs", "2",
                                "--budget", "1000"])
    assert code == 2 and "budget" in err
    code, _, _ = run(capsys, ["sweep", "--family", "all_hypersurfaces"])
    assert code == 2
    code, _, _ = run(capsys, ["nonsense"])
    assert code == 2


def test_outputs_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, ["sweep", "--family", "identity_grid",
                                  "--qs", "2,3", "--max-index", "8",
                                  "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("doc, line", [
    ("field p=x k=1\nspace n=2\ncomponent name=a\npoly x0\n", 1),
    ("field p=2 k=0\nspace n=2\ncomponent name=a\npoly x0\n", 1),
    ("field p=2 k=1\nspace n=2\ncomponent name=a dim=zz\npoly x0\n", 3),
], ids=["field_p_not_an_int", "field_k_zero", "component_dim_not_an_int"])
def test_bad_document_value_names_its_line(capsys, tmp_path, doc, line):
    path = tmp_path / "bad.var"
    path.write_text(doc)
    code, out, err = run(capsys, ["count", "--variety", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("point", ["1:0:0", "0:0:0:0", "((1:0:0:0",
                                   "(1:0:0:0", "1:0:0:x0+1", "1:0:0:x0"],
                         ids=["wrong_arity", "all_zero", "two_open",
                              "unclosed", "variable_sum", "variable"])
def test_bad_census_point_exits_2(capsys, cubic_file, point):
    code, out, err = run(capsys, ["census", "--variety", cubic_file,
                                  "--point", point])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, flags", [
    ("census", ["--point", "0:0:0:1", "--linear-component", "Q"]),
    ("hilbert", ["--component", "Q"]),
])
def test_unknown_component_exits_2(capsys, cubic_file, command, flags):
    code, out, err = run(capsys, [command, "--variety", cubic_file, *flags])
    assert (code, out, err) == (2, "", "error: no component named 'Q'\n")


def test_bound_over_a_large_prime_field_exits_0_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["bound", "--kind", "projective",
                                "--components", "1:1", "--n", "3",
                                "--q", "1000000000000000003"])
    assert time.perf_counter() - start < 2
    assert code == 0 and json.loads(out)["total"] == 1000000000000000004


def test_count_over_a_large_prime_field_exits_2_quickly(capsys, tmp_path):
    path = tmp_path / "bigp.var"
    path.write_text("field p=1000000000000000003 k=1\nspace n=2\n"
                    "component name=a\npoly x0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["count", "--variety", str(path)])
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err.startswith("error: P^2(F_1000000000000000003) has ")


def test_probable_prime_past_the_exact_bound_exits_2(capsys):
    code, out, err = run(capsys, ["bound", "--kind", "projective",
                                  "--components", "1:1", "--n", "3",
                                  "--q", str(2 ** 89 - 1)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_expanded_power_over_the_degree_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "power.var"
    path.write_text("field p=2 k=1\nspace n=1\ncomponent name=a\n"
                    "poly (x0+x1)^100000\n")
    code, out, err = run(capsys, ["count", "--variety", str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: power of degree 100000 in '(x0+x1)^100000' "
                   "is over the cap 1000\n")


def test_power_over_the_term_work_cap_exits_2_quickly(capsys, tmp_path):
    # within the degree cap, but about 235k terms mod 101 once expanded
    path = tmp_path / "terms.var"
    path.write_text("field p=101 k=1\nspace n=2\ncomponent name=a\n"
                    "poly (x0+x1+x2)^1000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["hilbert", "--variety", str(path)])
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err.startswith("error: product of ")
    assert "'(x0+x1+x2)^1000' is over the cap of 300000 term products" in err


@pytest.mark.parametrize("text", ["(" * 10_000 + "x0" + ")" * 10_000,
                                  "-" * 10_000 + "x0"],
                         ids=["parentheses", "minus_signs"])
def test_deeply_nested_document_exits_2(capsys, tmp_path, text):
    path = tmp_path / "deep.var"
    path.write_text(f"field p=2 k=1\nspace n=1\ncomponent name=a\n"
                    f"poly {text}\n")
    for command in ("count", "hilbert"):
        code, out, err = run(capsys, [command, "--variety", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: parentheses and signs nested deeper "
                              "than 100 levels in ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_census_point_exits_2(capsys, cubic_file):
    point = "1:" + "(" * 10_000 + "0" + ")" * 10_000 + ":0:0"
    code, out, err = run(capsys, ["census", "--variety", cubic_file,
                                  "--point", point])
    assert (code, out) == (2, "")
    assert err.startswith("error: parentheses and signs nested deeper "
                          "than 100 levels in ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_ambient_dimension_past_the_hilbert_cap_exits_2_quickly(capsys,
                                                                tmp_path):
    # hilbert() needs t up to 2(n + 1) > 1000 for any component once
    # n >= 500, so the space line refuses n before any polynomial is built
    path = tmp_path / "huge.var"
    path.write_text("field p=2 k=1\nspace n=1000000000\ncomponent name=a\n"
                    "poly x0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["count", "--variety", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: line 2: ambient dimension n=1000000000 needs "
                   "Hilbert values past the cap t = 1000; n is at most 499\n")


def test_ambient_dimension_499_still_loads(capsys, tmp_path):
    path = tmp_path / "unit.var"
    path.write_text("field p=2 k=1\nspace n=499\ncomponent name=a\n"
                    "poly 1\n")
    code, out, _ = run(capsys, ["hilbert", "--variety", str(path)])
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["q"]) == (499, 2)
    assert data["components"]["a"] == {
        "degree": 0, "dim": -1, "empty": True, "poly": [[0, 1]],
        "values": [0] * 1001}
    path.write_text("field p=2 k=1\nspace n=499\ncomponent name=a\n"
                    "poly x0\n")
    code, out, err = run(capsys, ["hilbert", "--variety", str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: Hilbert function range t = 0..1001 is over the "
                   "cap t = 1000\n")


def test_variable_in_a_census_point_says_what_is_wrong(capsys, cubic_file):
    code, out, err = run(capsys, ["census", "--variety", cubic_file,
                                  "--point", "1:0:0:x0"])
    assert (code, out) == (2, "")
    assert err == "error: point coordinate 'x0' is not a constant\n"


def test_identity_grid_past_the_budget_exits_2_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["sweep", "--family", "identity_grid",
                                  "--max-index", "20000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: sweep would build 1x200050002 rows, "
                   "over the 10000000 budget\n")
    # (M + 1)(M + 4)/2 rows per q, checked for all qs together
    code, _, err = run(capsys, ["sweep", "--family", "identity_grid",
                                "--max-index", "12", "--qs", "2,3",
                                "--budget", "207"])
    assert (code, err) == (2, "error: sweep would build 2x104 rows, "
                              "over the 207 budget\n")
    code, out, _ = run(capsys, ["sweep", "--family", "identity_grid",
                                "--max-index", "12", "--qs", "2,3",
                                "--budget", "208"])
    assert code == 0 and out.count("\n") == 1 + 208


def test_extension_field_over_the_order_cap_exits_2_quickly(capsys,
                                                            tmp_path):
    path = tmp_path / "gf2_20.var"
    path.write_text("field p=2 k=20 modulus=x^20+x^3+1\nspace n=1\n"
                    "component name=a\npoly x0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["count", "--variety", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: GF(2^20) is over the extension order "
                   "cap of 65536\n")


@pytest.mark.parametrize("argv, n, q, digits", [
    (["--kind", "serre", "--delta", "3", "--n", "500",
      "--q", "1000000007"], 500, 1000000007, 4501),
    (["--kind", "linear_arrangement", "--dims", "19999,3", "--n", "20000",
      "--q", "2", "--format", "csv"], 20000, 2, 6021),
], ids=["serre", "linear_arrangement"])
def test_bound_too_long_to_print_exits_2_quickly(capsys, argv, n, q, digits):
    start = time.perf_counter()
    code, out, err = run(capsys, ["bound", *argv])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()  # 4300 unless set otherwise
    assert err == (f"error: pi({n}) over GF({q}) has {digits} or more "
                   f"decimal digits, over the {limit}-digit limit for "
                   "printed integers\n")
