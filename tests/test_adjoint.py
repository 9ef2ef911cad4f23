import json
import random
from collections import Counter
from functools import partial
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from qe6 import checks
from qe6.cli import main
from qe6 import rootdata as rd
from qe6.qcoeff import LaurentPoly, ONE, Q, QINV, neg_qpow, qpow
from qe6 import schubert as sc
from qe6 import adjoint as aj
from qe6 import spinrep as sp
from qe6.linalg import Echelon, SparseMat

M = rd.mask_of
W = sc.presentation("w")
WH = sc.presentation("what")


def test_ad_on_generators():
    y0 = sc.NCPoly.gen(W.rank(0))
    assert aj.ad_F(2, y0, W) == sc.NCPoly({(W.rank(M([1, 2])),): -QINV})
    assert aj.ad_E(2, y0, W).is_zero()
    assert aj.ad_K(2, y0, W) == sc.NCPoly({(W.rank(0),): Q})
    assert aj.ad_K(2, y0, W, inverse=True) == sc.NCPoly({(W.rank(0),): QINV})


def ref_images(op, i, x, pres):
    """Reference: the free images of ad_E ("E") or ad_F ("F") as LaurentPoly
    terms, each coefficient times -q^e, before any rewriting."""
    tab = aj._tables(pres)
    pairs = tab.pairs[i]
    moves = (tab.raises if op == "E" else tab.lowers)[i]
    acc = sc.NCPoly()
    for word, coeff in x.items():
        for k, g in enumerate(word):
            if moves[g] is None:
                continue
            if op == "E":
                e = 1 - sum(pairs[h] for h in word[:k])
            else:
                e = sum(pairs[h] for h in word[k + 1:]) - 1
            acc.iadd_term(word[:k] + (moves[g],) + word[k + 1:],
                          coeff * LaurentPoly.term(-1, e))
    return acc


def ref_ad(op, i, x, pres):
    return sc.normal_form(ref_images(op, i, x, pres), pres)


LAURENT = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), min_size=1,
                          max_size=3).map(LaurentPoly).filter(bool)


def _cancelling_pair(op, i, word, pres, coeff):
    """`word` and a second word whose free images under ad_E or ad_F cancel
    at one word, or None when `word` offers no such pair with unit
    coefficients there."""
    tab = aj._tables(pres)
    for j in range(len(word)):
        for k in range(len(word)):
            if j == k or tab.lowers[i][word[j]] is None or tab.raises[i][word[k]] is None:
                continue
            # lowering letter j and raising letter k of w1 gives w2; ad_F
            # lowers w2 at k and ad_E raises it at j to w1's image at j or k
            w2 = list(word)
            w2[j] = tab.lowers[i][word[j]]
            w2[k] = tab.raises[i][word[k]]
            img = list(word)
            img[j if op == "F" else k] = w2[j if op == "F" else k]
            img = tuple(img)
            u1 = ref_images(op, i, sc.NCPoly.from_word(word), pres)[img]
            u2 = ref_images(op, i, sc.NCPoly.from_word(w2), pres)[img]
            if u1.is_unit() and u2.is_unit():
                x = sc.NCPoly({tuple(word): coeff, tuple(w2): -coeff * u1 * u2 ** -1})
                assert img not in ref_images(op, i, x, pres)
                return x
    return None


@st.composite
def homogeneous(draw):
    """A homogeneous element: a Laurent multiple of a cached highest-weight
    vector, Laurent multiples of rearrangements of one word with a letter
    the operator moves, or two words whose free images cancel at one word."""
    pres = draw(st.sampled_from((W, WH)))
    i = draw(st.sampled_from(rd.IPRIME))
    op = draw(st.sampled_from("EF"))
    kind = draw(st.sampled_from(("vector", "words", "cancelling")))
    if kind == "vector":
        vec = aj.theta() if pres is W else aj.build_omega(draw(st.integers(1, 11)))
        return op, i, vec.scale(draw(LAURENT)), pres
    tab = aj._tables(pres)
    moves = (tab.raises if op == "E" else tab.lowers)[i]
    movable = [g for g in range(pres.ngens) if moves[g] is not None]
    word = draw(st.lists(st.integers(0, pres.ngens - 1), max_size=4))
    word.insert(draw(st.integers(0, len(word))), draw(st.sampled_from(movable)))
    x = None
    if kind == "cancelling":
        x = _cancelling_pair(op, i, word, pres, draw(LAURENT))
    if x is None:
        x = sc.NCPoly()
        for _ in range(draw(st.integers(1, 3))):
            x.iadd_term(tuple(draw(st.permutations(word))), draw(LAURENT))
    return op, i, x, pres


@settings(max_examples=200, deadline=None)
@given(homogeneous())
def test_fused_operators_match_the_reference(case):
    op, i, x, pres = case
    fused = aj.ad_E if op == "E" else aj.ad_F
    assert fused(i, x, pres) == ref_ad(op, i, x, pres)


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


def reference_omega(k):
    """Omega 6-13 with every product straightened on its own by multiply and
    the straightened products summed, as the formulas are printed."""
    o = aj.build_omega

    def mul(x, y):
        return sc.multiply(x, y, WH)

    def aF(seq, x):
        return aj.ad_F_word(seq, x, WH)

    if k == 6:
        return mul(aF([2], o(1)), o(2)) - mul(o(1), aF([2], o(2))).scale(Q)
    if k == 7:
        o3, o2 = o(3), o(2)
        return (mul(aF([2, 4, 5, 6], o3), o2)
                - mul(aF([4, 5, 6], o3), aF([2], o2)).scale(Q)
                + mul(aF([5, 6], o3), aF([4, 2], o2)).scale(qpow(2))
                - mul(aF([6], o3), aF([5, 4, 2], o2)).scale(qpow(3))
                + mul(o3, aF([6, 5, 4, 2], o2)).scale(qpow(4)))
    if k == 8:
        o1, o5 = o(1), o(5)
        return (mul(o1, aF([2, 4, 5, 6], o5))
                - mul(aF([2], o1), aF([4, 5, 6], o5)).scale(QINV)
                + mul(aF([4, 2], o1), aF([5, 6], o5)).scale(qpow(-2))
                - mul(aF([5, 4, 2], o1), aF([6], o5)).scale(qpow(-3))
                + mul(aF([6, 5, 4, 2], o1), o5).scale(qpow(-4)))
    if k in (9, 10, 11):
        a, b = (o(m) for m in {9: (3, 4), 10: (3, 5), 11: (4, 5)}[k])
        return mul(a, aF([6], b)) - mul(aF([6], a), b).scale(QINV)
    if k == 12:
        o3, o5 = o(3), o(5)
        full = [6, 5, 4, 3, 2, 4, 5, 6]
        terms = [(full, [], 0), (full[1:], [6], 1), (full[2:], [5, 6], 2),
                 (full[3:], [4, 5, 6], 3), (full[4:], [3, 4, 5, 6], 4),
                 ([3, 4, 5, 6], [2, 4, 5, 6], 4), ([4, 5, 6], [3, 2, 4, 5, 6], 5),
                 ([5, 6], [4, 3, 2, 4, 5, 6], 6), ([6], [5, 4, 3, 2, 4, 5, 6], 7),
                 ([], full, 8)]
        out = sc.NCPoly()
        for wl, wr, e in terms:
            out = out + mul(aF(wl, o3), aF(wr, o5)).scale(neg_qpow(e))
        return out
    assert k == 13
    o3, o11 = o(3), o(11)
    return (mul(o3, aF([6, 5], o11))
            - mul(aF([6], o3), aF([5], o11)).scale(QINV)
            + mul(aF([5, 6], o3), o11).scale(qpow(-2)))


@pytest.mark.parametrize("k", range(6, 14))
def test_omega_matches_the_product_by_product_reference(k):
    got = aj.build_omega(k)
    assert got and got == reference_omega(k)


# the work, not the time: rewrites allowed to the one normal_form of a row
OMEGA_REWRITE_BUDGET = 1000


@pytest.mark.parametrize("k", sorted(aj.OMEGA_CHAINS))
def test_omega_chain_free_sum_is_nearly_normal(k, monkeypatch):
    want = aj.build_omega(k)  # builds both factors before the budget is set
    monkeypatch.setattr(aj, "normal_form", partial(sc.normal_form, budget=OMEGA_REWRITE_BUDGET))
    assert aj.build_omega.__wrapped__(k) == want


# the printed chains of Omega 12 and 13, plain factor on the left: their
# free sums need 1636 and 10822 rewrites
PRINTED_ROWS = {
    12: (3, 5, (6, 5, 4, 3, 2, 4, 5, 6), qpow(8), (((2, 4, 5, 6), (3, 4, 5, 6), qpow(4)),)),
    13: (3, 11, (6, 5), ONE, ()),
}


@pytest.mark.parametrize("k", sorted(PRINTED_ROWS))
def test_plain_factor_on_the_left_exceeds_the_rewrite_budget(k, monkeypatch):
    aj.build_omega(k)
    monkeypatch.setitem(aj.OMEGA_CHAINS, k, PRINTED_ROWS[k])
    assert aj.build_omega.__wrapped__(k) == aj.build_omega(k)
    monkeypatch.setattr(aj, "normal_form", partial(sc.normal_form, budget=OMEGA_REWRITE_BUDGET))
    with pytest.raises(sc.RewriteDepthError):
        aj.build_omega.__wrapped__(k)


@pytest.mark.parametrize("a, b, unit", [(3, 11, ONE), (4, 10, -ONE), (5, 9, qpow(-2))],
                         ids=["3-11", "4-10", "5-9"])
def test_omega13_from_each_degree2_by_degree4_pair(a, b, unit, monkeypatch):
    # the (6, 5) chain with s = 1 on each pair whose products
    # omega-linear-dependence relates gives a unit multiple of Omega 13
    want = aj.build_omega(13).scale(unit)
    monkeypatch.setitem(aj.OMEGA_CHAINS, 13, (a, b, (6, 5), ONE, ()))
    assert aj.build_omega.__wrapped__(13) == want


def test_omega_highest_weight_table():
    for k in range(1, 14):
        om = aj.build_omega(k)
        ok, lam = aj.is_highest_weight(om, WH)
        _, want_lam, want_deg = aj.NAMED_VECTORS["omega%d" % k]
        assert ok, k
        assert lam == want_lam, k
        assert len(next(iter(om))) == want_deg, k


def _named(name):
    return aj.theta() if name == "theta" else aj.build_omega(int(name[5:]))


def test_submodule_span_dims_small():
    # the brute-force reference for hw_certificate's span dimensions: the
    # closed cyclic span of every named vector, Omega 13's included
    assert len(aj.submodule_span(sc.NCPoly.gen(W.rank(0)), W)) == 16
    assert len(aj.submodule_span(sc.NCPoly.one(), W)) == 1
    dims = []
    for name, (algebra, _, _) in aj.NAMED_VECTORS.items():
        dims.append(len(aj.submodule_span(_named(name), sc.presentation(algebra))))
        assert dims[-1] == aj.hw_certificate(name)["span_dim"], name
    assert dims == [10, 16, 16, 10, 10, 10, 120, 16, 16, 45, 45, 45, 1, 120]


def test_weyl_dim():
    assert rd.weyl_dim((1, 0, 0, 0, 0)) == 16
    assert rd.weyl_dim((0, 0, 0, 0, 1)) == 10
    assert rd.weyl_dim((0, 0, 0, 0, 0)) == 1
    assert rd.weyl_dim((0, 1, 0, 0, 0)) == 16
    assert rd.weyl_dim((0, 0, 1, 0, 0)) == 120
    assert rd.weyl_dim((0, 0, 0, 1, 0)) == 45
    with pytest.raises(ValueError):
        rd.weyl_dim((1, 0, 0, 0))
    with pytest.raises(ValueError):
        rd.weyl_dim((-1, 0, 0, 0, 0))


@pytest.mark.parametrize("pres, d", [(W, 2), (W, 3), (WH, 2)], ids=["w-2", "w-3", "what-2"])
def test_semisimple_dim_of_a_whole_graded_piece(pres, d):
    # the normal words of each dominant weight are a basis of that weight
    # space of the degree-d piece, whose dimension is the normal-word count;
    # without the ad_E ranks the count would be too large
    by_mu = {}
    for word in combinations_with_replacement(range(pres.ngens - 1, -1, -1), d):
        mu = pres.weight_of_word(word)
        if min(rd.pairings(mu)) >= 0:
            by_mu.setdefault(mu, []).append(sc.NCPoly.from_word(word))
    assert aj.semisimple_dim(by_mu, pres) == sc.hilbert_dim(pres, d)
    assert sum(len(vecs) * rd.weyl_dim(rd.pairings(mu))
               for mu, vecs in by_mu.items()) > sc.hilbert_dim(pres, d)


def test_weyl_dim_matches_closed_form():
    """A proof that closed_form_dim(m, n) = weyl_dim((m, 0, 0, 0, n)) for all
    m, n >= 0.  Both sides are polynomials of degree at most 20 in each of m
    and n: weyl_dim is a product over the 20 positive roots of D5 of factors
    of degree at most 1 in each, and closed_form_dim has degree 10 in m and 8
    in n.  Their difference vanishes on the 21 x 21 grid below, and such a
    polynomial is zero: for each n of the grid it has 21 roots in m, so each
    of its coefficients in m has 21 roots in n."""
    for m in range(21):
        for n in range(21):
            assert rd.weyl_dim((m, 0, 0, 0, n)) == aj.closed_form_dim(m, n)


def test_identity_check():
    assert aj.identity_check(0)
    assert aj.identity_check(1)
    assert aj.identity_check(2)
    assert aj.closed_form_dim(2, 0) + aj.closed_form_dim(0, 1) == 136
    for d in range(31):
        assert aj.identity_check(d)


def sampled_module_algebra_failures(pres, samples, rng):
    """Reference: the module-algebra axiom spot-checked on `samples` random
    pairs of words of degree 1 or 2 (the first with a random q-power
    coefficient), as the check did before it was decided from the
    relations."""
    fails = []
    n = pres.ngens
    for t in range(samples):
        dx = rng.randrange(1, 3)
        dy = rng.randrange(1, 3)
        x = sc.NCPoly.from_word(tuple(rng.randrange(n) for _ in range(dx)),
                                qpow(rng.randrange(-2, 3)))
        y = sc.NCPoly.from_word(tuple(rng.randrange(n) for _ in range(dy)))
        xy = sc.multiply(x, y, pres)
        i = rd.IPRIME[rng.randrange(5)]
        lhs_e = aj.ad_E(i, xy, pres)
        rhs_e = (sc.multiply(aj.ad_K(i, x, pres, inverse=True), aj.ad_E(i, y, pres), pres)
                 + sc.multiply(aj.ad_E(i, x, pres), y, pres))
        if lhs_e != rhs_e:
            fails.append(("E", i, t))
        lhs_f = aj.ad_F(i, xy, pres)
        rhs_f = (sc.multiply(x, aj.ad_F(i, y, pres), pres)
                 + sc.multiply(aj.ad_F(i, x, pres), aj.ad_K(i, y, pres), pres))
        if lhs_f != rhs_f:
            fails.append(("F", i, t))
    return fails


def test_module_algebra_sample():
    rng = random.Random(99)
    for pres in (W, WH):
        assert sampled_module_algebra_failures(pres, 30, rng) == []
        assert aj.module_algebra_failures(pres) == []


def _mutated_rule(pres, pair, index, change):
    """A copy of `pres` with term `index`, (coeff, word), of the rule for
    `pair` replaced by change(coeff, word)."""
    rules = dict(pres.rules)
    items = list(rules[pair])
    items[index] = change(*items[index])
    rules[pair] = tuple(items)
    return sc.AlgebraPresentation(pres.algebra_id, pres.ngens, pres.gen_mask,
                                  pres.gen_delta, rules)


# a correction term of the first rule of "w" that has one, and the epsilon
# term of the first mixed rule of "what" that has one
@pytest.mark.parametrize("algebra, pair, index", [("w", (0, 9), 1), ("what", (0, 25), -1)],
                         ids=["w", "what"])
def test_module_algebra_axiom_fails_on_a_mutated_rule(monkeypatch, algebra, pair, index):
    pres = sc.presentation(algebra)
    mutant = _mutated_rule(pres, pair, index, lambda coeff, word: (coeff * Q, word))
    fails = aj.module_algebra_failures(mutant)
    labels = [pres.gen_label[g] for g in pair]
    assert {f["operator"] for f in fails if f["relation"] == labels} == {"E", "F"}
    assert all(f["operator"] in "EF" and f["i"] in rd.IPRIME for f in fails)
    real = sc.presentation
    monkeypatch.setattr(sc, "presentation", lambda a: mutant if a == algebra else real(a))
    facts = checks.Facts()
    status, details = facts(checks._chk_module_algebra)
    assert status == "fail"
    assert (details["relations"], details["applications"]) == (616, 6160)
    assert details["failures"] == fails[:5]
    # the certificates rest on the axiom
    suite = {c.claim_id: c.fn for c in checks.adjoint_checks(3, "exact", None, facts)}
    assert suite["highest-weight-vectors"]() == (
        "fail", {"failed_premises": ["module-algebra-axiom"]})


def test_inhomogeneous_relation_fails():
    # the swapped term of Y_a Y_b moved to the word Y_b Y_b: another weight
    pair = (0, 9)
    mutant = _mutated_rule(W, pair, 0, lambda coeff, word: (coeff, (word[0], word[0])))
    labels = [W.gen_label[g] for g in pair]
    assert {"relation": labels, "operator": "K", "i": None} in aj.module_algebra_failures(mutant)


def test_operator_relations_on_spans():
    assert sp.relation_failures(aj.generator_matrices(W)) == []
    assert sp.relation_failures(aj.generator_matrices(WH)) == []


def _operator_relations_check(monkeypatch):
    """The operator-relations check, and the dimensions of the actions it
    hands to relation_failures."""
    sizes = []
    real = sp.relation_failures
    monkeypatch.setattr(sp, "relation_failures",
                        lambda mats: sizes.append(mats[("K", 2)].nrows) or real(mats))
    fn, = [c.fn for c in checks.adjoint_checks(3, "exact", random.Random(0))
           if c.claim_id == "operator-relations"]
    return fn, sizes


def test_operator_relations_certify_the_affine_span_by_two_copies(monkeypatch):
    # every affine generator matrix is diag(A, A) for the finite one A, so
    # the relations run on the 16-dimensional span alone
    fn, sizes = _operator_relations_check(monkeypatch)
    assert fn() == ("pass", {"failures": []})
    assert sizes == [16]


@pytest.mark.parametrize("kind", ["E", "Kinv"])
def test_operator_relations_fall_back_when_a_shifted_block_differs(monkeypatch, kind):
    # one entry of the Zd block of an affine matrix times q: the copies
    # differ, and the check names what the 32-dimensional action fails
    real = aj.generator_matrices

    def mutated(pres):
        mats = real(pres)
        if pres is WH:
            mat = mats[(kind, 3)]
            (r, c), v = max(mat.entries.items())
            assert r >= 16 and c >= 16
            mats[(kind, 3)] = SparseMat(32, 32, {**mat.entries, (r, c): v * Q})
        return mats

    want = sp.relation_failures(mutated(WH))
    monkeypatch.setattr(aj, "generator_matrices", mutated)
    fn, sizes = _operator_relations_check(monkeypatch)
    status, details = fn()
    assert want and status == "fail" and details == {"failures": want[:5]}
    assert sizes == [16, 32]


def test_generator_matrices_are_the_action(monkeypatch):
    # the generator-span matrices are read off ad_F itself, so ad_F times q
    # breaks the E-F commutators and the F intertwining with the spin module
    real = aj.ad_F
    monkeypatch.setattr(aj, "ad_F", lambda i, x, pres: real(i, x, pres).scale(Q))
    rng = random.Random(0)
    adjoint = {c.claim_id: c.fn for c in checks.adjoint_checks(3, "exact", rng)}
    spin = {c.claim_id: c.fn for c in checks.spinrep_checks(3, "exact", rng)}
    status, details = adjoint["operator-relations"]()
    assert status == "fail" and "commutator E2 F2" in details["failures"]
    status, details = spin["module-isomorphism"]()
    assert status == "fail"
    assert details["failures"] == ["F%d does not intertwine" % i for i in rd.IPRIME]


def test_decompose_finite_low_degrees():
    for d in (0, 1, 2):
        rep = aj.decompose_degree("w", d, aj.hw_certificate)
        assert rep["verdict"] == "pass"
        assert rep["component_dim"] == [1, 16, 136][d]
    rep = aj.decompose_degree("w", 2, aj.hw_certificate)
    dims = sorted(rd.weyl_dim(rd.pairings(tuple(b["weight"])))
                  for b in rep["blocks"] if b["hw_dim"])
    assert dims == [10, 126]


def test_decompose_affine_evidence_low_degrees():
    for d, hw in ((0, 1), (1, 2), (2, 7)):
        rep = aj.decompose_degree("what", d, aj.hw_certificate)
        assert rep["verdict"] == "pass"
        assert rep["hw_vector_count"] == hw
        assert "evidence" in rep["statement"]


def _normal_words(pres, d):
    """Reference: the degree-d normal words, the non-increasing tuples."""
    return combinations_with_replacement(range(pres.ngens - 1, -1, -1), d)


def _stacked_hw_dims(algebra, d):
    """Reference: each weight block's hw_dim from the exact rank of all five
    raising operators stacked on its normal words."""
    pres = sc.presentation(algebra)
    blocks = {}
    for word in _normal_words(pres, d):
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
        rep = aj.decompose_degree(algebra, d, aj.hw_certificate)
        got = {tuple(b["weight"]): b["hw_dim"] for b in rep["blocks"]}
        assert set(got) <= set(ref)
        assert {mu: got.get(mu, 0) for mu in ref} == ref
        assert all(b["certified"] for b in rep["blocks"])


def _mutated_candidates(monkeypatch, where, change):
    """Apply `change` to the candidates of `where`, (algebra, degree)."""
    real = aj.hw_candidates
    monkeypatch.setattr(aj, "hw_candidates", lambda algebra, d: (
        change(dict(real(algebra, d))) if (algebra, d) == where else real(algebra, d)))


def test_dropped_candidate_fails_the_dimension_count(monkeypatch):
    # without theta the exhibited vectors span 126 of the 136 dimensions
    _mutated_candidates(monkeypatch, ("w", 2),
                        lambda c: {k: v for k, v in c.items() if k != (0, 1)})
    rep = aj.decompose_degree("w", 2, aj.hw_certificate)
    assert rep["verdict"] == "fail"
    assert (rep["weyl_dim_total"], rep["component_dim"]) == (126, 136)
    assert rep["mismatched_blocks"] == [] and rep["candidate_failures"] == []
    assert not any(b["certified"] for b in rep["blocks"])


def test_zero_candidate_fails(monkeypatch):
    _mutated_candidates(monkeypatch, ("w", 2), lambda c: {**c, (0, 1): sc.NCPoly()})
    rep = aj.decompose_degree("w", 2, aj.hw_certificate)
    assert rep["verdict"] == "fail"
    assert rep["candidate_failures"] == [{"monomial": [0, 1], "reason": "the product is zero"}]
    status, details = checks._chk_decompose("w", 2, checks.Facts())
    assert status == "fail"
    assert details["degrees"][-1]["candidate_failures"] == rep["candidate_failures"]


def _theta_replaced_by(monkeypatch, vec):
    """Patch Theta to `vec`; return the w degree-2 decomposition report."""
    monkeypatch.setattr(aj, "theta", lambda: vec)
    rep = aj.decompose_degree("w", 2, aj.hw_certificate)
    assert rep["verdict"] == "fail"
    assert rep["candidate_failures"] == [
        {"monomial": [0, 1], "reason": "uses a factor that failed its certificate: theta"}]
    status, details = checks._chk_decompose("w", 2, checks.Facts())
    assert status == "fail"
    assert details["degrees"][-1]["candidate_failures"] == rep["candidate_failures"]
    return rep


def test_candidate_not_killed_by_raising_fails(monkeypatch):
    # the candidate (0, 1) is Theta itself; a degree-2 word in its place is
    # not killed by every ad_E, so Theta fails its certificate
    word = (W.rank(0), W.rank(M([1, 2])))
    _theta_replaced_by(monkeypatch, sc.NCPoly.from_word(word))
    cert = aj.hw_certificate("theta")
    assert cert["nonzero"] and not cert["highest_weight"] and cert["degree"] == 2


def test_candidate_of_another_degree_fails(monkeypatch):
    # Y_e^3 is killed by every ad_E and has a dominant weight, but it is not
    # of degree 2
    _theta_replaced_by(monkeypatch, sc.NCPoly.from_word((W.rank(0),) * 3))
    cert = aj.hw_certificate("theta")
    assert cert["highest_weight"] and cert["degree"] == 3 and not cert["ok"]


def test_duplicated_candidate_is_a_mismatched_block(monkeypatch):
    # Omega_5 Omega_9, which r5 r9 = 0 leaves out, duplicates a combination
    # of Omega_3 Omega_11 and Omega_4 Omega_10 in its block; the count still
    # closes, so the block's hw_dim of 2 is proved, and the three candidates
    # predicted there are one too many
    key = (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0)
    p59 = sc.multiply(aj.build_omega(5), aj.build_omega(9), WH)
    _mutated_candidates(monkeypatch, ("what", 6), lambda c: {**c, key: p59})
    status, details = checks._chk_decompose("what", 6, checks.Facts())
    rep = details["degrees"][-1]
    assert status == "fail" and rep["degree"] == 6 and rep["verdict"] == "fail"
    assert rep["weyl_dim_total"] == rep["component_dim"] == 2324784
    assert [(b["weight"], b["hw_dim"], b["expected_hw"], b["certified"])
            for b in rep["mismatched_blocks"]] == [(list(sc.q_degree(p59, WH)), 2, 3, True)]
    assert rep["candidate_failures"] == []


def test_decomposition_hands_only_factors_to_ad_E(monkeypatch):
    # each factor of degree <= d is certified once per call, and no product
    # candidate reaches a raising operator
    seen = []
    real = aj.ad_E
    monkeypatch.setattr(aj, "ad_E", lambda i, x, pres: seen.append(x) or real(i, x, pres))
    for algebra, top in (("w", 4), ("what", 3)):
        factors = [aj._factor(name)[0] for name in aj.FACTORS[algebra]]
        degrees = [aj._factor(name)[1][2] for name in aj.FACTORS[algebra]]
        for d in range(top + 1):
            seen.clear()
            assert aj.decompose_degree(algebra, d, aj.hw_certificate)["verdict"] == "pass"
            assert len(seen) == 5 * sum(deg <= d for deg in degrees)
            assert all(x in factors for x in seen)


@pytest.mark.parametrize("algebra, top", [("w", 4), ("what", 3)])
def test_component_dim_is_the_enumerated_word_count(algebra, top):
    # reference: the normal words grouped by weight, which decompose_degree
    # enumerated before it took the dimension from hilbert_dim
    pres = sc.presentation(algebra)
    for d in range(top + 1):
        blocks = Counter(pres.weight_of_word(word) for word in _normal_words(pres, d))
        rep = aj.decompose_degree(algebra, d, aj.hw_certificate)
        assert sum(blocks.values()) == rep["component_dim"]
        assert all(tuple(b["weight"]) in blocks for b in rep["blocks"])


@pytest.mark.parametrize("algebra, top", [("w", 4), ("what", 3)])
def test_candidates_pass_the_raising_reference(algebra, top):
    # reference for the factor certificates: each candidate, handed to
    # is_highest_weight itself, is killed by every ad_E, and its own weight
    # is the one decompose_degree reads off its key
    pres = sc.presentation(algebra)
    for d in range(top + 1):
        blocks = {tuple(b["weight"]): b["expected_hw"]
                  for b in aj.decompose_degree(algebra, d, aj.hw_certificate)["blocks"]}
        weights = Counter()
        for vec in aj.hw_candidates(algebra, d).values():
            ok, lam = aj.is_highest_weight(vec, pres)
            assert ok and min(lam) >= 0
            weights[sc.q_degree(vec, pres)] += 1
        assert weights == blocks


def test_candidate_counts():
    assert [len(aj.hw_candidates("w", d)) for d in range(6)] == [1, 1, 2, 2, 3, 3]
    assert [len(aj.hw_candidates("what", d)) for d in range(4)] == [1, 2, 7, 14]
    # r5 r9 = 0 first bites at degree 6, where it drops Omega_5 Omega_9
    # alone from the 133 monomials
    with_relation = aj.hw_candidates("what", 6)
    assert all(r[4] * r[8] == 0 for r in with_relation)
    assert len(with_relation) == 132
    assert (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0) not in with_relation


def _omega_dependence():
    suite = {c.claim_id: c.fn for c in checks.adjoint_checks(3, "exact", random.Random(0))}
    return suite["omega-linear-dependence"]()


def test_omega_dependence_coefficients():
    # the relation holds with q^-4 on Omega_4 Omega_10; the published remark
    # prints q^-2 there, and that variant does not vanish in these conventions
    status, details = _omega_dependence()
    assert status == "pass" and details["holds"] is True
    assert details["relation"] == (
        "omega5*omega9 = -q^-6 omega3*omega11 + q^-4 omega4*omega10")


def test_omega_dependence_fails_on_a_rescaled_omega(monkeypatch):
    # Omega_10 scaled by q moves the q^-4 coefficient to q^-3
    build = aj.build_omega
    monkeypatch.setattr(aj, "build_omega",
                        lambda k: build(k).scale(Q) if k == 10 else build(k))
    status, details = _omega_dependence()
    assert status == "fail" and details["holds"] is False


def test_certificates_decide_both_checks():
    suite = {c.claim_id: c.fn for c in checks.adjoint_checks(3, "exact", random.Random(0))}
    status, details = suite["highest-weight-vectors"]()
    assert status == "pass" and [r["k"] for r in details["vectors"]] == list(range(1, 14))
    status, details = suite["submodule-span-dimensions"]()
    assert status == "pass" and "highest-weight theorem" in details["decided_by"]
    assert [r["vector"] for r in details["spans"]] == list(aj.NAMED_VECTORS)
    assert all(r["dim"] == r["expected"] for r in details["spans"])


def _mutate(monkeypatch, mutant):
    """Patch one named vector or its table row; returns the vector's name."""
    for k in range(1, 14):
        aj.build_omega(k)  # warm the cache so no mutant leaks into a later Omega
    build = aj.build_omega
    if mutant == "zero":
        monkeypatch.setattr(aj, "theta", sc.NCPoly)
        return "theta"
    if mutant == "not-killed":
        vec = aj.ad_F(6, build(3), WH)
        monkeypatch.setattr(aj, "build_omega", lambda k: vec if k == 3 else build(k))
        return "omega3"
    if mutant == "weight":
        # the other spin weight: same Weyl dimension, same degree
        monkeypatch.setitem(aj.NAMED_VECTORS, "omega1", ("what", (0, 1, 0, 0, 0), 1))
        return "omega1"
    # Omega 6 has Omega 13's weight, at degree 2 instead of 6
    monkeypatch.setattr(aj, "build_omega", lambda k: build(6) if k == 13 else build(k))
    return "omega13"


@pytest.mark.parametrize("mutant", ["zero", "not-killed", "weight", "degree"])
def test_certificate_mutants_fail(monkeypatch, capsys, passing_pbw, mutant):
    name = _mutate(monkeypatch, mutant)
    cert = aj.hw_certificate(name)
    assert not cert["ok"]
    assert cert["nonzero"] == (mutant != "zero")
    assert cert["highest_weight"] == (mutant in ("weight", "degree"))
    # the decomposition at the vector's degree fails every candidate that
    # uses it as a factor, and only those
    algebra, _, degree = aj.NAMED_VECTORS[name]
    k = aj.FACTORS[algebra].index(name)
    rep = aj.decompose_degree(algebra, degree, aj.hw_certificate)
    assert rep["verdict"] == "fail"
    assert rep["candidate_failures"] == [
        {"monomial": list(key), "reason": "uses a factor that failed its certificate: %s" % name}
        for key in aj.hw_candidates(algebra, degree) if key[k]]
    suite = {c.claim_id: c.fn for build in (checks.adjoint_checks, checks.frt_checks)
             for c in build(3, "exact", random.Random(0), passing_pbw)}
    assert suite["highest-weight-vectors"]()[0] == "fail"
    # verify decomposes the affine algebra through degree 3 only
    claim = "decomposition-finite" if algebra == "w" else "decomposition-affine-evidence"
    assert suite[claim]()[0] == ("fail" if degree <= 3 else "pass")
    status, details = suite["submodule-span-dimensions"]()
    assert status == "fail" and len(details["spans"]) == 14
    # the kernel checks rest on the certificates of their tops
    for top, claim, premise in (("theta", "row-homomorphism-kernel", "theta-certificate"),
                                ("omega3", "two-row-homomorphism-kernel",
                                 "omega3-5-certificates")):
        if name == top:
            assert suite[claim]() == ("fail", {"failed_premises": [premise]})
    capsys.readouterr()
    assert main(["hwv", "--check", name]) == 1
    row, = json.loads(capsys.readouterr().out)
    assert row["vector"] == name and row["status"] == "fail"
    assert main(["hwv", "--check", "all"]) == 1
    capsys.readouterr()
