import random

import pytest

from qe6 import checks
from qe6 import rootdata as rd
from qe6.qcoeff import Q, QINV, qpow
from qe6 import schubert as sc
from qe6 import adjoint as aj
from qe6 import spinrep as sp
from qe6.linalg import Echelon

M = rd.mask_of
W = sc.presentation("w")
WH = sc.presentation("what")


def test_ad_on_generators():
    y0 = sc.NCPoly.gen(W.rank(0))
    assert aj.ad_F(2, y0, W) == sc.NCPoly({(W.rank(M([1, 2])),): -QINV})
    assert aj.ad_E(2, y0, W).is_zero()
    assert aj.ad_K(2, y0, W) == sc.NCPoly({(W.rank(0),): Q})
    assert aj.ad_K(2, y0, W, inverse=True) == sc.NCPoly({(W.rank(0),): QINV})


def test_theta_is_highest_weight():
    ok, lam = aj.is_highest_weight(aj.theta(), W)
    assert ok and lam == (0, 0, 0, 0, 1)


def test_top_generator_is_highest_weight():
    ok, lam = aj.is_highest_weight(sc.NCPoly.gen(W.rank(0)), W)
    assert ok and lam == (1, 0, 0, 0, 0)


def test_non_highest_weight():
    ok, lam = aj.is_highest_weight(sc.NCPoly.gen(W.rank(M([1, 2]))), W)
    assert not ok and lam is None
    with pytest.raises(ValueError):
        aj.is_highest_weight(sc.NCPoly(), W)


def test_raising_lands_on_top():
    x = aj.ad_E(2, sc.NCPoly.gen(W.rank(M([1, 2]))), W)
    assert x == sc.NCPoly({(W.rank(0),): -Q})


def test_omega_construction_small():
    assert aj.build_omega(1) == sc.NCPoly.gen(WH.rank(0))
    assert aj.build_omega(2) == sc.NCPoly.gen(WH.rank(0, delta=True))
    om3 = aj.build_omega(3)
    assert len(om3) == 4
    assert sc.q_degree(om3, WH) == rd.wadd(rd.WT[M([1, 2, 3, 4])], rd.THETA)
    om4 = aj.build_omega(4)
    assert len(om4) == 8
    assert sc.q_degree(om4, WH)[0] == 1  # one delta generator per term


def test_omega_highest_weight_table():
    for k in range(1, 14):
        om = aj.build_omega(k)
        ok, lam = aj.is_highest_weight(om, WH)
        want_lam, want_deg = aj.OMEGA_EXPECTED[k]
        assert ok, k
        assert lam == want_lam, k
        assert len(next(iter(om))) == want_deg, k


def test_submodule_span_dims_small():
    assert len(aj.submodule_span(sc.NCPoly.gen(W.rank(0)), W)) == 16
    assert len(aj.submodule_span(aj.theta(), W)) == 10
    assert len(aj.submodule_span(sc.NCPoly.one(), W)) == 1
    assert len(aj.submodule_span(aj.build_omega(9), WH)) == 45
    assert len(aj.submodule_span(aj.build_omega(12), WH)) == 1


def test_weyl_dim():
    assert aj.weyl_dim((1, 0, 0, 0, 0)) == 16
    assert aj.weyl_dim((0, 0, 0, 0, 1)) == 10
    assert aj.weyl_dim((0, 0, 0, 0, 0)) == 1
    assert aj.weyl_dim((0, 1, 0, 0, 0)) == 16
    assert aj.weyl_dim((0, 0, 1, 0, 0)) == 120
    assert aj.weyl_dim((0, 0, 0, 1, 0)) == 45
    with pytest.raises(ValueError):
        aj.weyl_dim((1, 0, 0, 0))
    with pytest.raises(ValueError):
        aj.weyl_dim((-1, 0, 0, 0, 0))


def test_weyl_dim_matches_closed_form():
    for m in range(4):
        for n in range(3):
            lam = (m, 0, 0, 0, n)
            assert aj.weyl_dim(lam) == aj.closed_form_dim(m, n)


def test_identity_check():
    assert aj.identity_check(0)
    assert aj.identity_check(1)
    assert aj.identity_check(2)
    assert aj.closed_form_dim(2, 0) + aj.closed_form_dim(0, 1) == 136
    for d in range(31):
        assert aj.identity_check(d)


def test_module_algebra_sample():
    rng = random.Random(99)
    assert aj.module_algebra_failures(W, 30, rng) == []
    assert aj.module_algebra_failures(WH, 30, rng) == []


def test_operator_relations_on_spans():
    assert sp.relation_failures(aj.generator_matrices(W)) == []
    assert sp.relation_failures(aj.generator_matrices(WH)) == []


def test_decompose_finite_low_degrees():
    for d in (0, 1, 2):
        rep = aj.decompose_degree("w", d)
        assert rep["verdict"] == "pass"
        assert rep["component_dim"] == [1, 16, 136][d]
    rep = aj.decompose_degree("w", 2)
    dims = sorted(aj.weyl_dim(tuple(rd.inner(rd.ALPHA[i], tuple(b["weight"]))
                                    for i in rd.IPRIME))
                  for b in rep["blocks"] if b["hw_dim"])
    assert dims == [10, 126]


def test_decompose_affine_evidence_low_degrees():
    for d, hw in ((0, 1), (1, 2), (2, 7)):
        rep = aj.decompose_degree("what", d)
        assert rep["verdict"] == "pass"
        assert rep["hw_vector_count"] == hw
        assert "evidence" in rep["statement"]


def _stacked_hw_dims(algebra, d):
    """Reference: each weight block's hw_dim from the exact rank of all five
    raising operators stacked on its normal words."""
    pres = sc.presentation(algebra)
    blocks = {}
    for word in sc.normal_words(pres, d):
        blocks.setdefault(pres.weight_of_word(word), []).append(word)
    dims = {}
    for mu, words in blocks.items():
        ech = Echelon()
        for word in words:
            ech.add({(i, tw): c for i in rd.IPRIME
                     for tw, c in aj.ad_E(i, sc.NCPoly.from_word(word), pres).items()})
        dims[mu] = len(words) - ech.rank
    return dims


@pytest.mark.parametrize("algebra, top", [("w", 3), ("what", 2)])
def test_hw_dims_match_the_stacked_rank_reference(algebra, top):
    for d in range(top + 1):
        ref = _stacked_hw_dims(algebra, d)
        rep = aj.decompose_degree(algebra, d)
        got = {tuple(b["weight"]): b["hw_dim"] for b in rep["blocks"]}
        assert set(got) <= set(ref)
        assert {mu: got.get(mu, 0) for mu in ref} == ref
        assert all(b["certified"] for b in rep["blocks"])


def _mutated_candidates(monkeypatch, change):
    """Apply `change` to the finite algebra's degree-2 candidates."""
    real = aj.hw_candidates_w
    monkeypatch.setattr(aj, "hw_candidates_w",
                        lambda d: change(dict(real(d))) if d == 2 else real(d))


def test_dropped_candidate_fails_the_dimension_count(monkeypatch):
    # without theta the exhibited vectors span 126 of the 136 dimensions
    _mutated_candidates(monkeypatch, lambda c: {k: v for k, v in c.items() if k != (0, 1)})
    rep = aj.decompose_degree("w", 2)
    assert rep["verdict"] == "fail"
    assert (rep["weyl_dim_total"], rep["component_dim"]) == (126, 136)
    assert rep["mismatched_blocks"] == [] and rep["candidate_failures"] == []
    assert not any(b["certified"] for b in rep["blocks"])


def test_duplicated_candidate_is_a_mismatched_block(monkeypatch):
    # the count still closes, so the block's hw_dim of 1 is proved, and the
    # two candidates predicted there are one too many
    _mutated_candidates(monkeypatch, lambda c: {**c, (9, 9): c[(0, 1)]})
    rep = aj.decompose_degree("w", 2)
    assert rep["verdict"] == "fail"
    assert rep["weyl_dim_total"] == rep["component_dim"] == 136
    theta_mu = list(sc.q_degree(aj.theta(), W))
    assert [(b["weight"], b["hw_dim"], b["expected_hw"], b["certified"])
            for b in rep["mismatched_blocks"]] == [(theta_mu, 1, 2, True)]
    status, details = checks._chk_decompose("w", 2)()
    assert status == "fail"
    assert details["degrees"][-1]["mismatched_blocks"] == rep["mismatched_blocks"]


def test_candidate_not_killed_by_raising_fails(monkeypatch):
    word = (W.rank(0), W.rank(M([1, 2])))
    _mutated_candidates(monkeypatch, lambda c: {**c, (0, 1): sc.NCPoly.from_word(word)})
    rep = aj.decompose_degree("w", 2)
    assert rep["verdict"] == "fail"
    assert rep["candidate_failures"] == [
        {"monomial": [0, 1], "reason": "not a highest weight vector"}]
    status, details = checks._chk_decompose("w", 2)()
    assert status == "fail"
    assert details["degrees"][-1]["candidate_failures"] == rep["candidate_failures"]


def test_omega_monomial_counts():
    assert [len(aj.omega_monomial_exponents(d)) for d in range(4)] == [1, 2, 7, 14]
    # r5 r9 = 0 first bites at degree 6
    with_relation = aj.omega_monomial_exponents(6)
    assert all(r[4] * r[8] == 0 for r in with_relation)


def test_omega_dependence_coefficients():
    p59 = sc.multiply(aj.build_omega(5), aj.build_omega(9), WH)
    p311 = sc.multiply(aj.build_omega(3), aj.build_omega(11), WH)
    p410 = sc.multiply(aj.build_omega(4), aj.build_omega(10), WH)
    assert (p59 + p311.scale(qpow(-6)) - p410.scale(qpow(-4))).is_zero()
    # the published remark prints q^-2 on the last product; that variant does
    # not vanish in these conventions
    assert not (p59 + p311.scale(qpow(-6)) - p410.scale(qpow(-2))).is_zero()
