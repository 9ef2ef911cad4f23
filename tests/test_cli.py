import json

import pytest

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


def test_nf_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "nf", "Y[12", "--algebra", "w")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("nf", "Y[12]*", "--algebra", "w"),
    ("nf", "(", "--algebra", "w"),
    ("nf", "q^", "--algebra", "w"),
    ("decompose", "--algebra", "w", "--degree", "-1"),
    ("relations", "--frt-two-rows", "e", "e"),
    ("relations", "--frt-two-rows", "e", "1234"),
    ("verify", "--max-degree", "-5"),
    ("verify", "--max-degree", "4"),
])
def test_truncated_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_2(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("verify", "--mode", "modular"),
    ("decompose", "--algebra", "w", "--degree", "2", "--seed", "1"),
    ("decompose", "--algebra", "w", "--degree", "2", "--mode", "exact"),
])
def test_retired_flags_exit_2(capsys, argv):
    # every suite is exact and decompose draws nothing: these flags are
    # rejected, never recorded and ignored
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


def test_hwv_unknown(capsys):
    code, _, err = run(capsys, "hwv", "--check", "omega99")
    assert code == 2
