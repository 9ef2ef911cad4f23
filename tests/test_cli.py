import json
from collections import Counter

import pytest

from qe6 import adjoint as aj, checks, cli, frt, rmatrix as rm, schubert as sc
from qe6.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_example(capsys):
    code, out, _ = run(capsys, "nf", "Y[12]*Y[e]", "--algebra", "w")
    assert code == 0
    assert out.strip() == "q*Y[e]*Y[12]"


def test_nf_affine_and_twisted(capsys):
    code, out, _ = run(capsys, "nf", "Zd[e]*Z[12]", "--algebra", "what")
    assert code == 0 and out.strip() == "Zd[e]*Z[12]"
    code, out, _ = run(capsys, "nf", "Zd[e]*Z[12]", "--algebra", "what", "--twisted")
    assert code == 0 and out.strip() == "q*Zd[e]*Z[12]"


@pytest.mark.parametrize("expr, want", [
    ("-Y[e]", "-Y[e]"),
    ("-2*Y[e]", "-2*Y[e]"),
    ("-(q+1)*Y[e]", "(-q - 1)*Y[e]"),
])
def test_nf_expression_may_start_with_a_sign(capsys, expr, want):
    # the options parse in any position around it, and `--` still works
    for argv in (("nf", expr, "--algebra", "w"),
                 ("nf", "--algebra", "w", expr),
                 ("nf", "--algebra", "w", "--", expr)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, want + "\n", "")


def test_nf_signed_expression_with_twisted_and_help(capsys):
    code, out, _ = run(capsys, "nf", "--twisted", "-Zd[e]*Z[12]", "--algebra", "what")
    assert code == 0 and out.strip() == "-q*Zd[e]*Z[12]"
    code, out, _ = run(capsys, "nf", "-Y[e]", "-h")
    assert code == 0 and out.startswith("usage: qe6 nf")


def test_nf_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "nf", "Y[12", "--algebra", "w")
    assert code == 2
    assert "error" in err


def test_nf_unexpected_token_is_named_once(capsys):
    code, out, err = run(capsys, "nf", "2**Y[12]", "--algebra", "w")
    assert (code, out, err) == (2, "", "error: unexpected token '*'\n")


@pytest.mark.parametrize("argv", [
    ("nf", "Y[12]*", "--algebra", "w"),
    ("nf", "(", "--algebra", "w"),
    ("nf", "q^", "--algebra", "w"),
    ("decompose", "--algebra", "w", "--degree", "-1"),
    ("relations", "--frt-two-rows", "e", "e"),
    ("relations", "--frt-two-rows", "e", "1234"),
    ("verify", "--max-degree", "-5"),
    ("verify", "--max-degree", "4"),
    ("dump", "classes", "--format", "csv"),
    ("nf", "(" * 1000 + "Y[e]" + ")" * 1000, "--algebra", "w"),
    ("nf", "--algebra", "w"),
])
def test_truncated_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_2(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    # a second expression is left over, whatever its first character
    assert main(["nf", "Y[e]", "-Y[e]", "--algebra", "w"]) == 2
    assert "unrecognized arguments: -Y[e]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify", "--mode", "modular"),
    ("decompose", "--algebra", "w", "--degree", "2", "--seed", "1"),
    ("decompose", "--algebra", "w", "--degree", "2", "--mode", "exact"),
    ("verify", "--mode", "exact"),
])
def test_retired_flags_exit_2(capsys, argv):
    # every suite is exact and decompose draws nothing: these flags are
    # rejected, even with their old default values, never recorded and ignored
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


def test_verify_rootdata_report(capsys):
    code, out, err = run(capsys, "verify", "--suite", "rootdata", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["report_version"] == 1
    assert doc["suite"] == "rootdata"
    assert doc["passed"] is True
    assert all(c["status"] in ("pass", "fail")
               for c in doc["checks"])
    assert all(c["paper_ref"] for c in doc["checks"])
    assert all(c["elapsed_ms"] == 0 for c in doc["checks"])
    assert "pass" in err


def test_verify_deterministic_reports(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "rootdata", "--seed", "7")
    _, out2, _ = run(capsys, "verify", "--suite", "rootdata", "--seed", "7")
    assert out1 == out2


def test_schubert_report_does_not_depend_on_the_seed(capsys):
    # no check draws from the seed: the reports differ in the header alone
    bodies = set()
    for seed in (1, 105, 2026):
        code, out, _ = run(capsys, "verify", "--suite", "schubert", "--seed", str(seed))
        header = '\n  "seed": %d,\n' % seed
        assert code == 0 and header in out
        bodies.add(out.replace(header, "\n"))
    assert len(bodies) == 1


def test_verify_decides_each_shared_fact_once_per_run(monkeypatch, capsys):
    # the facts live for one run: perfbench times verify's rounds in one
    # process, where facts kept across runs would time cache hits.  The
    # rewriting-heavy facts give way to passing stand-ins.  Each count is of
    # computations, so a process cache fails: the fact table is the only
    # reuse, and a degree-3 quotient is counted by its semisimple_dim call
    calls = Counter()

    def counted(module, name, result=None):
        real = getattr(module, name)

        def stand_in(*args):
            calls[name] += 1
            return real(*args) if result is None else result
        monkeypatch.setattr(module, name, stand_in)

    counted(sc, "rule_failures")
    counted(sc, "confluence_check", {"overlaps_checked": 0, "failures": [], "ok": True})
    counted(aj, "module_algebra_failures", [])
    counted(rm, "commutant_failures", [])
    counted(rm, "coeff_check")
    # 14 named vectors and Y_e; 16 row tables and 80 pair tables, each
    # template's twice; the quotients of w and what; the generator matrices
    # of w and what (operator-relations reads both, module-isomorphism w)
    counted(aj, "hw_certificate")
    counted(aj, "generator_matrices")
    counted(frt, "row_coefficients")
    counted(frt, "semisimple_dim")
    for _ in range(2):
        calls.clear()
        assert main(["verify"]) == 0
        assert calls == {"rule_failures": 2, "confluence_check": 2,
                         "module_algebra_failures": 2, "commutant_failures": 1,
                         "coeff_check": 1, "hw_certificate": 15,
                         "row_coefficients": 98, "semisimple_dim": 2,
                         "generator_matrices": 2}
    capsys.readouterr()
    # the Hilbert series read the rule tables alone, so that each confluence
    # verdict is first read by its own check
    calls.clear()
    for check in checks.schubert_checks(3, "exact", None)[:2]:
        assert check.fn()[0] == "pass"
    assert calls == {"rule_failures": 2}


def test_verify_max_degree_reaches_the_decompositions(monkeypatch, capsys, passing_pbw):
    # the finite algebra is decomposed through one degree more than the affine
    monkeypatch.setattr(cli, "Facts", lambda: passing_pbw)
    code, out, _ = run(capsys, "verify", "--suite", "adjoint", "--max-degree", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_degree"] == 1 and doc["passed"] is True
    degrees = {c["claim_id"]: [d["degree"] for d in c["details"]["degrees"]]
               for c in doc["checks"] if c["claim_id"].startswith("decomposition-")}
    assert degrees == {"decomposition-finite": [0, 1, 2],
                       "decomposition-affine-evidence": [0, 1]}


def test_verify_timings_flag(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rootdata", "--timings")
    assert code == 0
    doc = json.loads(out)
    assert any(c["elapsed_ms"] >= 0 for c in doc["checks"])


def test_relations_algebra(capsys):
    code, out, _ = run(capsys, "relations", "--algebra", "w")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 120
    assert set(doc[0]) == {"lhs", "rhs"}


def test_relations_frt_row(capsys):
    code, out, _ = run(capsys, "relations", "--frt-row", "e")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 240
    assert set(doc[0]) == {"rows", "cols", "vector"}
    assert all(item["rows"] == ["e", "e"] for item in doc)


def test_relations_frt_two_rows(capsys):
    code, out, _ = run(capsys, "relations", "--frt-two-rows", "12", "e")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 512
    assert {tuple(item["rows"]) for item in doc} == {("12", "e"), ("e", "12")}


def test_relations_requires_one_selector(capsys):
    code, _, err = run(capsys, "relations")
    assert code == 2 and "error" in err


def test_dump_rmatrix_json(capsys):
    code, out, _ = run(capsys, "dump", "rmatrix", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["basis"]) == 256 and len(doc["entries"]) == 606


def test_dump_rmatrix_csv(capsys):
    code, out, _ = run(capsys, "dump", "rmatrix", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "row,col,row_first,row_second,col_first,col_second,value"


def test_dump_classes(capsys):
    code, out, _ = run(capsys, "dump", "classes")
    assert code == 0
    assert len(json.loads(out)) == 106


@pytest.mark.parametrize("algebra, top", [("w", 30), ("what", 8)])
def test_decompose_rejects_a_degree_above_its_maximum(capsys, monkeypatch, algebra, top):
    # rejected before any work; the top degree itself reaches the (here
    # stubbed) decomposition, which the large degrees never do
    called = []
    monkeypatch.setattr("qe6.adjoint.decompose_degree",
                        lambda *args: called.append(args) or {"verdict": "pass"})
    for degree in (top + 1, 99):
        code, out, err = run(capsys, "decompose", "--algebra", algebra, "--degree", str(degree))
        assert code == 2 and out == ""
        assert err == "error: --degree must be between 0 and %d for --algebra %s\n" % (
            top, algebra)
    assert called == []
    assert run(capsys, "decompose", "--algebra", algebra, "--degree", str(top))[0] == 0
    assert called == [(algebra, top, aj.hw_certificate)]


def test_decompose_cli(capsys):
    code, out, _ = run(capsys, "decompose", "--algebra", "w", "--degree", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["component_dim"] == 136 and doc["verdict"] == "pass"


def test_hwv_theta(capsys):
    code, out, _ = run(capsys, "hwv", "--check", "theta")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["weight"] == [0, 0, 0, 0, 1]
    assert doc[0]["span_dim"] == 10


def test_hwv_all(capsys):
    code, out, _ = run(capsys, "hwv", "--check", "all")
    doc = json.loads(out)
    assert code == 0 and len(doc) == 14
    assert all(r["status"] == "pass" and r["span_dim"] == r["expected_span_dim"] for r in doc)


def test_hwv_unknown(capsys):
    code, _, err = run(capsys, "hwv", "--check", "omega99")
    assert code == 2
