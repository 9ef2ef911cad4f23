"""Acceptance gate: the nine top-line criteria, one test each.

The verify suites decide every claim; criteria 1-8 assert over the reports
that `qe6 verify --suite <name> --timings` writes.  Each asserts the status
of every check behind it, the literals the source states (read from the
check details), and a wall-time bound on the checks' summed elapsed_ms.
Every test prints one pass/fail line (visible with -s or in captured output).
"""

import contextlib
import functools
import io
import json
import time

from qe6.cli import main as cli_main

PASS = "pass"


@functools.cache
def _suite(name):
    """{claim_id: check} of one suite's report, run once per pytest run.
    The per-check progress lines on stderr are dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli_main(["verify", "--suite", name, "--timings"])
    return {check["claim_id"]: check for check in json.loads(out.getvalue())["checks"]}


def _check(claim):
    suite, claim_id = claim.split(".", 1)
    return _suite(suite)[claim_id]


def _details(claim):
    return _check(claim)["details"]


def _verdicts(claims, status=PASS):
    """Whether every named check reports `status`, and their summed seconds."""
    checks = [_check(claim) for claim in claims]
    ok = all(check["status"] == status for check in checks)
    return ok, sum(check["elapsed_ms"] for check in checks) / 1000


def _line(num, ok, text, elapsed):
    print("criterion %d: %s - %s (%.1fs)" % (num, "PASS" if ok else "FAIL",
                                             text, elapsed))
    assert ok, "criterion %d failed: %s" % (num, text)


def test_criterion_1_root_data_census():
    ok, elapsed = _verdicts([
        "rootdata.radical-root-census", "rootdata.pairing-class-size-law",
        "rootdata.pair-class-census", "rootdata.equivalence-definitions-agree",
        "rootdata.octet-height-table", "rootdata.poset-grading"])
    ok = ok and _details("rootdata.radical-root-census")["radical_count"] == 16
    census = _details("rootdata.pair-class-census")
    ok = ok and (census["singletons"], census["pairs"], census["octets"]) == (16, 80, 10)
    ok = ok and _details("rootdata.octet-height-table")["rows"] == 10
    ok = ok and elapsed < 1.0
    _line(1, ok, "root-data census, pairing law, class census, published octet table",
          elapsed)


def test_criterion_2_pbw_hilbert_confluence():
    ok, elapsed = _verdicts([
        "schubert.hilbert-series-finite", "schubert.hilbert-series-affine",
        "schubert.confluence-finite", "schubert.confluence-affine"])
    ok = ok and _details("schubert.hilbert-series-finite")["dims"] == [1, 16, 136, 816, 3876]
    ok = ok and _details("schubert.hilbert-series-affine")["dims"] == [1, 32, 528, 5984]
    ok = ok and elapsed < 120
    _line(2, ok, "PBW dimension counts and degree-3 confluence for both algebras",
          elapsed)


def test_criterion_3_adjoint_suite():
    ok, elapsed = _verdicts([
        "adjoint.module-algebra-axiom", "adjoint.operator-relations",
        "adjoint.highest-weight-vectors", "adjoint.submodule-span-dimensions",
        "adjoint.dimension-identity", "adjoint.decomposition-finite",
        "schubert.theta-central-with-top-generator"])
    spans = _details("adjoint.submodule-span-dimensions")["spans"]
    ok = ok and spans[0] == {"vector": "theta", "dim": 10, "expected": 10}
    ok = ok and len(spans) == 14 and all(r["dim"] == r["expected"] for r in spans)
    ok = ok and _details("adjoint.dimension-identity")["degrees_checked"] == 31
    degrees = _details("adjoint.decomposition-finite")["degrees"]
    ok = ok and [r["degree"] for r in degrees] == [0, 1, 2, 3, 4]
    ok = ok and all(r["verdict"] == "pass" for r in degrees)
    ok = ok and elapsed < 300
    _line(3, ok, "module-algebra axiom, highest-weight table, span dimensions, "
                 "commutation, dimension identity, full decomposition to degree 4",
          elapsed)


def test_criterion_4_conjecture_evidence():
    # omega-linear-dependence passes only when the relation holds with q^-4
    # and the published q^-2 variant does not vanish
    ok, elapsed = _verdicts(["adjoint.decomposition-affine-evidence",
                             "adjoint.omega-linear-dependence"])
    evidence = _details("adjoint.decomposition-affine-evidence")
    ok = ok and [(r["degree"], r["hw_vector_count"]) for r in evidence["degrees"]] == [
        (0, 1), (1, 2), (2, 7), (3, 14)]
    ok = ok and all(r["verdict"] == "pass" for r in evidence["degrees"])
    ok = ok and "evidence" in evidence["statement"]
    ok = ok and _details("adjoint.omega-linear-dependence")["holds"] is True
    ok = ok and elapsed < 600
    _line(4, ok, "conjecture evidence: highest-weight counts at degree <= 3 and "
                 "the exact monomial dependence relation", elapsed)


def test_criterion_5_half_spin_representation():
    ok, elapsed = _verdicts([
        "spinrep.spin-defining-relations", "spinrep.spin-irreducible",
        "spinrep.module-isomorphism", "spinrep.root-vector-squares-vanish"])
    ok = ok and elapsed < 10
    _line(5, ok, "exact defining relations, irreducibility with spin highest "
                 "weight, module isomorphism", elapsed)


def test_criterion_6_r_matrix():
    ok, elapsed = _verdicts([
        "rmatrix.qexp-linear-coefficient", "rmatrix.coefficient-table",
        "rmatrix.support-triangularity", "rmatrix.braid-relation",
        "rmatrix.module-map", "rmatrix.negative-eigenspace"])
    ok = ok and _details("rmatrix.coefficient-table")["entries_checked"] == 65536
    braid = _details("rmatrix.braid-relation")
    ok = ok and braid["columns_checked"] == 91 and braid["commutant_failures"] == []
    eig = _details("rmatrix.negative-eigenspace")
    ok = ok and eig["kernel_dim"] == 120
    ok = ok and eig["seed_in_kernel"] and eig["relation_span_dim"] == 120
    module_map = _details("rmatrix.module-map")
    ok = ok and module_map["invertible"]
    ok = ok and module_map["eigenvalues"] == ["-1", "q^2", "q^-6"]
    ok = ok and elapsed < 300
    _line(6, ok, "coefficient table on all 65536 entries, support condition, "
                 "braid relation on the 91 dominant columns, module map with "
                 "eigenvalues -1, q^2, q^-6, negative eigenspace", elapsed)


def test_criterion_7_frt_presentations_and_ranks():
    ok, elapsed = _verdicts(["frt.row-presentations", "frt.two-row-presentations",
                             "frt.proof-matrix-ranks"])
    rows = _details("frt.row-presentations")
    ok = ok and rows["rows"] == 16 and rows["degree2_dims"] == [126]
    ok = ok and _details("frt.two-row-presentations")["pairs"] == 80
    ranks = _details("frt.proof-matrix-ranks")
    ok = ok and ranks["rank_straightening"] == 5 and ranks["rank_two_row"] == 9
    ok = ok and ranks["octet_matrices_identical"]
    ok = ok and ranks["two_row_matches_assembled_form"]
    # entrywise comparison with the printed display: one established misprint
    # (row 4, col 6 printed as 1; the printed variant would have rank 6,
    # contradicting the stated rank 5), every other cell agrees
    ok = ok and ranks["display_diffs"] == [
        {"row": 4, "col": 6, "printed": "1", "derived": "q - q^-1"}]
    ok = ok and ranks["display_rank_as_printed"] == 6
    ok = ok and elapsed < 600
    _line(7, ok, "row and two-row relation spans for all 16 rows and 80 pairs, "
                 "proof-matrix ranks 5 and 9 re-derived from the braiding "
                 "(printed display matches up to one documented misprint)",
          elapsed)


def test_criterion_8_homomorphism_kernel_theorems():
    ok, elapsed = _verdicts(["frt.row-homomorphism-kernel",
                             "frt.two-row-homomorphism-kernel"])
    row = _details("frt.row-homomorphism-kernel")
    ok = ok and row["rows"] == row["faces"] == 16 and row["degree2_quotient"] == 126
    ok = ok and row["degree3_quotient"] == 672
    pair = _details("frt.two-row-homomorphism-kernel")
    ok = ok and pair["pairs"] == pair["faces"] == 80
    ok = ok and pair["kernel_module_rank"] == 30 and pair["degree3_quotient"] == 5088
    ok = ok and elapsed < 1200
    _line(8, ok, "row and two-row homomorphism/kernel theorems for all 16 rows "
                 "and 80 pairs, exact in every degree (degree-3 quotients "
                 "672 and 5088)", elapsed)


def test_criterion_9_deterministic_reports(capsys):
    t0 = time.monotonic()
    code1 = cli_main(["verify", "--suite", "rootdata", "--seed", "2718"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "--suite", "rootdata", "--seed", "2718"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    doc = json.loads(out1)
    ok = ok and doc["report_version"] == 1 and doc["seed"] == 2718
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _line(9, ok, "two same-seed runs produce byte-identical reports", elapsed)
