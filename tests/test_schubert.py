import random
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from qe6 import adjoint as aj
from qe6 import checks
from qe6 import rmatrix as rm
from qe6 import rootdata as rd
from qe6.qcoeff import ONE, ZERO, Q, QHAT, LaurentPoly, qpow
from qe6 import schubert as sc

M = rd.mask_of
W = sc.presentation("w")
WH = sc.presentation("what")


def Y(m, coeff=ONE):
    return sc.NCPoly.gen(W.rank(m), coeff)


def Z(m):
    return sc.NCPoly.gen(WH.rank(m))


def Zd(m):
    return sc.NCPoly.gen(WH.rank(m, delta=True))


def nf(x, pres=W):
    return sc.normal_form(x, pres)


def test_simple_swap():
    got = nf(Y(M([1, 2])).free_mul(Y(0)))
    assert got == sc.NCPoly({(W.rank(0), W.rank(M([1, 2]))): Q})


def test_already_normal():
    word = (W.rank(0), W.rank(M([1, 2])))
    assert nf(sc.NCPoly.from_word(word)) == sc.NCPoly.from_word(word)


def test_octet_straightening_hand_derived():
    # fully straightened by hand from the published relation and the height
    # table: Y1234 Ye = Ye Y1234 + qhat Y12 Y34 - qhat/q Y13 Y24 + qhat/q^2 Y23 Y14
    got = nf(Y(M([1, 2, 3, 4])).free_mul(Y(0)))
    expected = sc.NCPoly()
    expected[(W.rank(0), W.rank(M([1, 2, 3, 4])))] = ONE
    expected[(W.rank(M([1, 2])), W.rank(M([3, 4])))] = QHAT
    expected[(W.rank(M([1, 3])), W.rank(M([2, 4])))] = -QHAT * qpow(-1)
    expected[(W.rank(M([2, 3])), W.rank(M([1, 4])))] = QHAT * qpow(-2)
    assert got == expected


def test_incomparable_pair_commutes():
    a, b = Y(M([2, 3])), Y(M([1, 4]))
    assert nf(a.free_mul(b)) == nf(b.free_mul(a))


def test_mixed_diagonal_rule():
    m = M([1, 2])
    got = nf(Z(m).free_mul(Zd(m)), WH)
    assert got == sc.NCPoly({(WH.rank(m, True), WH.rank(m)): Q * Q})


def test_mixed_rule_with_correction():
    m12 = M([1, 2])
    got = nf(Z(m12).free_mul(Zd(0)), WH)
    expected = sc.NCPoly({(WH.rank(0, True), WH.rank(m12)): Q})
    expected = expected + nf(sc.NCPoly.from_word((WH.rank(0), WH.rank(m12, True)), QHAT), WH)
    assert got == expected


def test_mixed_rule_epsilon_and_no_lex_filter():
    # the raw rule for (1234, e) carries the swap, seven corrections, and the
    # epsilon term: nine summands
    rule = WH.rules[(WH.rank(M([1, 2, 3, 4])), WH.rank(0, True))]
    assert len(rule) == 9


def test_multiply_unit_and_power():
    x = nf(Y(M([1, 2])).free_mul(Y(0)))
    assert sc.multiply(sc.NCPoly.one(), x, W) == x
    m = M([2, 3, 4, 5])
    sq = sc.multiply(Y(m), Y(m), W)
    assert sq == sc.NCPoly.from_word((W.rank(m), W.rank(m)))


def test_associativity_instance():
    a, b, c = Y(M([1, 2])), Y(0), Y(M([1, 2]))
    left = sc.multiply(sc.multiply(a, b, W), c, W)
    right = sc.multiply(a, sc.multiply(b, c, W), W)
    assert left == right
    # one swap fires: the pair (Y_e, Y_12) is already ordered
    assert left == sc.NCPoly(
        {(W.rank(0), W.rank(M([1, 2])), W.rank(M([1, 2]))): Q})


def test_q_degree():
    assert sc.q_degree(Y(0), W) == rd.THETA
    assert sc.q_degree(Zd(M([1, 2])), WH) == rd.wadd(rd.WT[M([1, 2])], rd.DELTA)
    with pytest.raises(ValueError):
        sc.q_degree(Y(0) + Y(M([1, 2])), W)
    with pytest.raises(ValueError):
        sc.q_degree(sc.NCPoly(), W)


def test_hilbert_dims():
    assert [sc.hilbert_dim(W, d) for d in range(5)] == [1, 16, 136, 816, 3876]
    assert [sc.hilbert_dim(WH, d) for d in range(4)] == [1, 32, 528, 5984]
    # reference: the normal words among all words are the non-increasing tuples
    for pres, top in ((W, 3), (WH, 2)):
        for d in range(top + 1):
            words = set(combinations_with_replacement(range(pres.ngens - 1, -1, -1), d))
            assert words == set(filter(pres.is_normal, product(range(pres.ngens), repeat=d)))
            assert len(words) == sc.hilbert_dim(pres, d)


def test_rule_table_decides_pbw():
    for pres in (W, WH):
        assert sc.rule_failures(pres) == []
    assert sc.confluence_check(W) == {"overlaps_checked": 4096, "failures": [], "ok": True}


def _schubert_check(claim_id):
    suite = {c.claim_id: c.fn for c in checks.schubert_checks(3, "exact", random.Random(0))}
    return suite[claim_id]()


# a rule of "w" with correction terms, and a mixed rule of "what" with its
# epsilon term; the heads are (a, b) = (0, 9) and (0, 25)
PAIRS = {"w": (0, 9), "what": (0, 25)}


def _drop(rules, a, b):
    del rules[(a, b)]


def _on_normal_pair(rules, a, b):
    rules[(b, a)] = rules[(a, b)]


def _term_outside(rules, a, b):
    (c0, swap), (c1, (u, _v)), *rest = rules[(a, b)]
    rules[(a, b)] = ((c0, swap), (c1, (u, b)), *rest)


def _non_unit_swap(rules, a, b):
    (c0, swap), *rest = rules[(a, b)]
    rules[(a, b)] = ((c0 * (ONE + Q), swap), *rest)


@pytest.mark.parametrize("algebra", ["w", "what"])
@pytest.mark.parametrize("change, named, reason", [
    (_drop, lambda a, b: (a, b), "no rule"),
    (_on_normal_pair, lambda a, b: (b, a), "a rule on a normal pair"),
    (_term_outside, lambda a, b: (a, b), "a term has a letter outside (a, b)"),
    (_non_unit_swap, lambda a, b: (a, b), "the first term is not a unit times the swap"),
], ids=["missing-rule", "normal-pair-rule", "term-outside", "non-unit-swap"])
def test_rule_table_mutant_fails_hilbert(monkeypatch, algebra, change, named, reason):
    # the mutant is built on a copy of the rules; the cached presentation
    # is left as it is
    pres = sc.presentation(algebra)
    rules = dict(pres.rules)
    change(rules, *PAIRS[algebra])
    mutant = sc.AlgebraPresentation(pres.algebra_id, pres.ngens, pres.gen_mask,
                                    pres.gen_delta, rules)
    real = sc.presentation
    monkeypatch.setattr(sc, "presentation", lambda a: mutant if a == algebra else real(a))
    want = [{"pair": [pres.gen_label[g] for g in named(*PAIRS[algebra])], "reason": reason}]
    assert sc.rule_failures(mutant) == want
    status, details = _schubert_check(
        "hilbert-series-finite" if algebra == "w" else "hilbert-series-affine")
    assert status == "fail" and details["failures"] == want
    assert sc.rule_failures(real(algebra)) == []


def _perturbed(pres):
    """`pres` with the second term of its PAIRS rule times q."""
    a, b = PAIRS[pres.algebra_id]
    rules = dict(pres.rules)
    (c0, swap), (c1, word), *rest = rules[(a, b)]
    rules[(a, b)] = ((c0, swap), (c1 * Q, word), *rest)
    return sc.AlgebraPresentation(pres.algebra_id, pres.ngens, pres.gen_mask,
                                  pres.gen_delta, rules)


def test_perturbed_coefficient_fails_confluence(monkeypatch):
    # a correction coefficient times q keeps the rule table's shape, so only
    # the overlaps catch it, among them (a, 1, b) with a < 1 < b
    a, b = PAIRS["w"]
    mutant = _perturbed(W)
    monkeypatch.setattr(sc, "presentation", lambda alg: mutant)
    assert sc.rule_failures(mutant) == []
    assert _schubert_check("hilbert-series-finite")[0] == "pass"
    status, details = _schubert_check("confluence-finite")
    assert status == "fail" and details["overlaps_checked"] == 4096
    assert (a, 1, b) in details["failures"]
    status, details = _schubert_check("termination-random")
    assert status == "fail" and "w" in details["failing_algebras"]


@pytest.mark.parametrize("algebra, decomposition, kernel", [
    ("w", "decomposition-finite", "row-homomorphism-kernel"),
    ("what", "decomposition-affine-evidence", "two-row-homomorphism-kernel"),
], ids=["w", "what"])
def test_perturbed_coefficient_fails_what_rests_on_pbw(monkeypatch, algebra,
                                                       decomposition, kernel):
    # the decomposition counts a basis with hilbert_dim, and the kernel check
    # rests on PBW too: both fail on the perturbation, naming the premise
    real = sc.presentation
    mutant = _perturbed(real(algebra))
    assert sc.rule_failures(mutant) == []
    monkeypatch.setattr(sc, "presentation", lambda alg: mutant if alg == algebra else real(alg))
    facts = checks.Facts()
    suite = {c.claim_id: c.fn for build in (checks.adjoint_checks, checks.frt_checks)
             for c in build(3, "exact", None, facts)}
    for claim in (decomposition, kernel):
        status, details = suite[claim]()
        assert status == "fail" and "pbw-" + algebra in details["failed_premises"]
    assert not facts(sc.confluence_check, mutant)["ok"]


@pytest.mark.parametrize("seed", [2026, 1, 105])
def test_halved_corrections_fail_laurent_closure(monkeypatch, seed):
    # a set of rules drawn from the seed keeps its unit swap but halves its
    # other terms, so normal forms leave the Laurent subring Z[q, q^-1]
    # while still being LaurentPoly objects; only rules with an odd
    # correction value are drawn, so each halved rule leaves Z.  The check
    # names exactly the halved rules, in table order, up to five
    real = sc.reduced_rules
    rng = random.Random(seed)
    halve = {}
    for pres, low in ((W, 1), (WH, 0)):
        odd = sorted(head for head, terms in real(pres).items()
                     if any(v % 2 for word, items in terms if word != head[::-1]
                            for _, v in items))
        halve[pres.algebra_id] = set(rng.sample(odd, rng.randrange(low, 5)))

    @cache
    def halved(pres):
        chosen = halve[pres.algebra_id]
        return {head: tuple((word, items if head not in chosen or word == head[::-1]
                             else tuple((e, Fraction(v, 2)) for e, v in items))
                            for word, items in terms)
                for head, terms in real(pres).items()}

    monkeypatch.setattr(sc, "reduced_rules", halved)
    status, details = checks._chk_laurent_closure()
    want = [{"algebra": pres.algebra_id, "pair": [pres.gen_label[g] for g in head]}
            for pres in (W, WH) for head in sorted(halve[pres.algebra_id])]
    assert status == "fail" and details["failures"] == want[:5]


def test_single_overlap_by_hand():
    r12, r0 = W.rank(M([1, 2])), W.rank(0)
    x = sc.NCPoly.from_word((r12, r0, r12))
    want = sc.NCPoly({(r0, r12, r12): Q})
    assert sc.normal_form(x, W, "left") == want
    assert sc.normal_form(x, W, "right") == want


def test_strategy_independence_random():
    rng = random.Random(17)
    for pres in (W, WH):
        for _ in range(40):
            word = tuple(rng.randrange(pres.ngens) for _ in range(rng.randrange(2, 6)))
            x = sc.NCPoly.from_word(word)
            assert sc.normal_form(x, pres, "left") == sc.normal_form(x, pres, "right")


def test_rewrite_budget_guard():
    # Y12 Y1234 Ye rewrites two words: (Y1234, Ye), then (Y12, Ye)
    x = sc.parse_expr("Y[12]*Y[1234]*Y[e]", W)
    with pytest.raises(sc.RewriteDepthError):
        sc.normal_form(x, W, budget=1)
    assert sc.normal_form(x, W, budget=2) == nf(x)


def test_seed_105_termination_word_within_budget():
    # a degree-6 word of the affine algebra on which rewriting each word
    # again whenever it reappeared took over 10**6 steps
    text = "Z[45]*Z[2345]*Zd[12]*Zd[35]*Zd[12]*Zd[23]"
    x = sc.NCPoly.from_word((3, 0, 30, 21, 30, 28))
    assert sc.parse_expr(text, WH) == x
    left = sc.normal_form(x, WH, "left", budget=10 ** 4)
    assert left == sc.normal_form(x, WH, "right", budget=10 ** 4)


def _cancelling_sum():
    # the first word's rewrites meet the other four words with opposite
    # coefficients; the normal form is zero
    u = sc.parse_expr("Y[2345]*Y[1234]*Y[e]", W)
    c = sc.parse_expr("Y[45]*Y[e]", W)
    return u.free_mul(c) - nf(u).free_mul(c)


@pytest.mark.parametrize("build, pres, least, terms", [
    (lambda: sc.parse_expr("Z[45]*Z[2345]*Zd[12]*Zd[35]*Zd[12]*Zd[23]", WH), WH, 6833, 745),
    (lambda: sc.parse_expr("Y[45]*Y[35]*Y[2345]*Y[14]*Y[e]*Y[12]", W), W, 429, 58),
    (_cancelling_sum, W, 7, 0),
], ids=["seed-105", "w-degree-6", "cancelling-sum"])
def test_rewrite_budget_counts_distinct_nonzero_words(build, pres, least, terms):
    # the smallest budget that suffices is the number of distinct non-normal
    # words reached with a nonzero summed coefficient (the cancelling sum
    # reaches 14 counting its zero sums); nf-mix's refusals rest on it
    x = build()
    assert len(sc.normal_form(x, pres, budget=least)) == terms
    with pytest.raises(sc.RewriteDepthError):
        sc.normal_form(x, pres, budget=least - 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((W, WH)).flatmap(
    lambda pres: st.tuples(st.just(pres),
                           st.lists(st.integers(0, pres.ngens - 1), max_size=8).map(tuple))))
def test_weight_of_word_is_the_folded_letter_weights(case):
    pres, word = case
    folded = (0,) * 7
    for g in word:
        folded = rd.wadd(folded, pres.gen_weight[g])
    assert pres.weight_of_word(word) == folded


def test_weight_of_the_empty_word():
    assert W.weight_of_word(()) == WH.weight_of_word(()) == (0,) * 7


def test_twist_factors():
    m12 = M([1, 2])
    assert sc.twist_factor(WH.gen_weight[WH.rank(0, True)],
                           WH.gen_weight[WH.rank(m12)]) == Q
    assert sc.twist_factor(WH.gen_weight[WH.rank(m12)],
                           WH.gen_weight[WH.rank(0, True)]) == ONE
    assert sc.twist_factor(WH.gen_weight[WH.rank(m12, True)],
                           WH.gen_weight[WH.rank(0, True)]) == Q * Q


def test_twisted_product_examples():
    m12 = M([1, 2])
    plain = sc.multiply(Zd(0), Z(m12), WH)
    assert sc.multiply_twisted(Zd(0), Z(m12), WH) == plain.scale(Q)
    assert sc.multiply_twisted(Z(m12), Zd(0), WH) == sc.multiply(Z(m12), Zd(0), WH)


def test_twisted_associativity_random():
    rng = random.Random(23)
    for _ in range(15):
        words = [tuple(rng.randrange(WH.ngens) for _ in range(rng.randrange(1, 3)))
                 for _ in range(3)]
        x, y, z = (sc.NCPoly.from_word(w) for w in words)
        assert (sc.multiply_twisted(sc.multiply_twisted(x, y, WH), z, WH)
                == sc.multiply_twisted(x, sc.multiply_twisted(y, z, WH), WH))


def _twisted_associativity(monkeypatch, twist=sc.twist_factor, pres=WH):
    # twisted-associativity with a passing PBW verdict, so that only the
    # grading and the twist decide
    monkeypatch.setattr(sc, "twist_factor", twist)
    monkeypatch.setattr(sc, "presentation", lambda a: pres)
    return checks._chk_twisted_associativity(lambda a: True)


@pytest.mark.parametrize("twist, bilinear", [
    (lambda x, y: qpow(x[0] * y[1] ** 2), False),
    (lambda x, y: qpow(x[0] * y[1] + (x[0] != 0 and y[1] != 0)), False),
    (lambda x, y: qpow(x[0] * y[1]) + 1, False),
    (lambda x, y: qpow(x[0] * y[1] + x[1] * y[0]), True),
], ids=["squared", "plus-one-on-nonzero", "no-power-of-q", "symmetrized"])
def test_twisted_associativity_decides_bilinearity(monkeypatch, twist, bilinear):
    status, details = _twisted_associativity(monkeypatch, twist)
    assert (status == "pass") == bilinear
    assert (details["non_additive_triples"] == 0) == bilinear
    assert details["inhomogeneous_terms"] == 0
    # alpha_0 and alpha_1 are (1, 2) on Zd and (0, 1) on Z: the non-bilinear
    # twists scale Zd[e] Z[e] Z[e] differently in the two bracketings
    x, y, z = Zd(0), Z(0), Z(0)
    lhs = sc.multiply_twisted(sc.multiply_twisted(x, y, WH), z, WH)
    assert (lhs == sc.multiply_twisted(x, sc.multiply_twisted(y, z, WH), WH)) == bilinear


def test_twisted_associativity_needs_homogeneous_rules(monkeypatch):
    # a term (1, 1) between the letters of (0, 25) keeps the rule table's
    # shape but not its weight
    a, b = PAIRS["what"]
    rules = dict(WH.rules)
    rules[(a, b)] += ((ONE, (1, 1)),)
    assert WH.weight_of_word((1, 1)) != WH.weight_of_word((a, b))
    mutant = sc.AlgebraPresentation("what", WH.ngens, WH.gen_mask, WH.gen_delta, rules)
    assert sc.rule_failures(mutant) == []
    status, details = _twisted_associativity(monkeypatch, pres=mutant)
    assert status == "fail" and details["inhomogeneous_terms"] == 1
    assert details["non_additive_triples"] == 0


def test_twisted_associativity_needs_unique_normal_forms():
    status, details = checks._chk_twisted_associativity(lambda a: a != "what")
    assert status == "fail" and not details["normal_forms_unique"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, WH.ngens - 1), min_size=1, max_size=5).map(tuple))
def test_twist_is_the_folded_twisted_product(word):
    w = sc.NCPoly.from_word(word)
    folded = sc.NCPoly.gen(word[0])
    for g in word[1:]:
        folded = sc.multiply_twisted(folded, sc.NCPoly.gen(g), WH)
    assert sc.normal_form(sc.twist(w, WH), WH) == folded
    assert sc.twist(sc.twist(w, WH), WH, inverse=True) == w


def test_termination_witness_in_rules():
    # every correction term of every rule sits strictly higher in its class
    for pres in (W, WH):
        for (a, b), items in pres.rules.items():
            ia = pres.gen_mask[a]
            jb = pres.gen_mask[b]
            h0 = rd.HT_PAIR[(ia, jb)]
            for _, (u, v) in items[1:]:
                assert rd.HT_PAIR[(pres.gen_mask[u], pres.gen_mask[v])] > h0


def test_rules_raise_the_first_letter():
    # normal_form's lexicographic work order rests on this: rewriting an
    # out-of-order pair (a, b) yields only pairs whose first letter exceeds a
    for pres in (W, WH):
        for (a, b), items in pres.rules.items():
            assert a < b
            assert all(u > a for _, (u, _v) in items)


def lifo_normal_form(x, pres, budget=10 ** 5):
    """Reference rewriter: takes pending words last in, first out, and
    rewrites the leftmost out-of-order pair."""
    out = sc.NCPoly()
    pending = dict(x)
    steps = 0
    while pending:
        word, coeff = pending.popitem()
        idx = next((i for i in range(len(word) - 1) if word[i] < word[i + 1]), None)
        if idx is None:
            out.iadd_term(word, coeff)
            continue
        steps += 1
        assert steps <= budget
        for rc, pair in pres.rules[(word[idx], word[idx + 1])]:
            w2 = word[:idx] + pair + word[idx + 2:]
            acc = pending.get(w2, ZERO) + coeff * rc
            if acc:
                pending[w2] = acc
            else:
                pending.pop(w2, None)
    return out


LAURENT = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), min_size=1,
                          max_size=3).map(LaurentPoly)


@st.composite
def ncpolys(draw):
    pres = draw(st.sampled_from((W, WH)))
    words = st.lists(st.integers(0, pres.ngens - 1), min_size=0,
                     max_size=5 if pres is W else 4).map(tuple)
    x = sc.NCPoly()
    for word, coeff in draw(st.lists(st.tuples(words, LAURENT), max_size=3)):
        x.iadd_term(word, coeff)
    return x, pres


@settings(max_examples=200, deadline=None)
@given(ncpolys())
def test_normal_form_properties(case):
    x, pres = case
    left = sc.normal_form(x, pres, "left")
    assert sc.normal_form(x, pres, "right") == left
    assert sc.normal_form(left, pres) == left
    assert all(pres.is_normal(w) for w in left)
    assert lifo_normal_form(x, pres) == left


@pytest.mark.parametrize("pres", [W, WH], ids=["w", "what"])
def test_reduced_rules_are_the_normal_forms_of_the_heads(pres, published_form):
    table = sc.reduced_rules(pres)
    assert table is sc.reduced_rules(pres)
    assert table.keys() == pres.rules.keys()
    for (a, b), items in published_form(table).items():
        assert items[0][1] == (b, a)
        assert sc.NCPoly({w: c for c, w in items}) == lifo_normal_form(
            sc.NCPoly.from_word((a, b)), pres)


@pytest.mark.parametrize("pres", [W, WH], ids=["w", "what"])
def test_reduced_rules_keep_the_rule_table_facts(pres, published_form):
    reduced = sc.AlgebraPresentation(pres.algebra_id, pres.ngens, pres.gen_mask,
                                     pres.gen_delta, published_form(sc.reduced_rules(pres)))
    assert sc.rule_failures(reduced) == []
    for (a, b), items in reduced.rules.items():
        assert a < b
        assert all(u > a for _, (u, _v) in items)


def test_mutant_presentation_gets_its_own_reduced_rules(published_form):
    # the perturbed coefficient of test_perturbed_coefficient_fails_confluence
    a, b = PAIRS["w"]
    mutant = _perturbed(W)
    table = sc.reduced_rules(mutant)
    assert table is not sc.reduced_rules(W)
    assert table[(a, b)] != sc.reduced_rules(W)[(a, b)]
    for head, items in published_form(table).items():
        assert sc.NCPoly({w: c for c, w in items}) == lifo_normal_form(
            sc.NCPoly.from_word(head), mutant)


@pytest.mark.parametrize("strategy", ["left", "right"])
def test_a_normal_word_produced_again_is_summed(strategy):
    # a mutant table whose rule produces (0, 0), a normal word already
    # taken: the second coefficient is added to the first, not stored over it
    rules = {(0, 1): (((1, 0), ((1, 1),)), ((0, 0), ((1, 1),)))}   # q (1, 0) + q (0, 0)
    got = sc._rewrite({(0, 0): {0: 1}, (0, 1): {0: 1}}, rules, strategy, 10)
    assert got == sc.NCPoly({(0, 0): 1 + Q, (1, 0): Q})


def test_parse_and_format_round_trip():
    examples = ["Y[12]*Y[e]", "q*Y[e]*Y[12]", "(q^2 - 1)*Y[23]*Y[14] + Y[e]",
                "q^-3*Y[45] - 2*Y[12]"]
    for text in examples:
        x = sc.parse_expr(text, W)
        back = sc.parse_expr(sc.format_poly(x, W), W)
        assert back == x
    # a scalar prints without a "*1", whatever its number of terms
    for text, printed in [("q", "q"), ("q - q^-1", "(q - q^-1)"), ("2*q - 3", "(2*q - 3)"),
                          ("Y[12] + q^2 - 1", "(q^2 - 1) + Y[12]")]:
        x = sc.parse_expr(text, W)
        assert sc.format_poly(x, W) == printed
        assert sc.parse_expr(printed, W) == x
    z = sc.parse_expr("Zd[e]*Z[12]", WH)
    assert z == Zd(0).free_mul(Z(M([1, 2])))
    with pytest.raises(ValueError):
        sc.parse_expr("Z[12]", W)
    with pytest.raises(ValueError):
        sc.parse_expr("Y[12", W)


@st.composite
def normal_forms(draw):
    pres = draw(st.sampled_from((W, WH)))
    words = st.lists(st.integers(0, pres.ngens - 1), max_size=3).map(tuple)
    x = sc.NCPoly()
    for word, coeff in draw(st.lists(st.tuples(words, LAURENT), max_size=4)):
        x.iadd_term(word, coeff)
    return sc.normal_form(x, pres), pres


@settings(max_examples=100, deadline=None)
@given(normal_forms())
def test_format_parse_normal_form_round_trip(case):
    nf, pres = case
    assert sc.normal_form(sc.parse_expr(sc.format_poly(nf, pres), pres), pres) == nf


# --- the reference printer -----------------------------------------------------
# The printer format_poly and LaurentPoly.__str__ replaced, kept as the
# reference: each appends " %s %s" pieces in a loop, and format_poly formats
# a one-term coefficient inline.

def reference_laurent_str(c):
    if not c.c:
        return "0"
    parts = []
    for e in sorted(c.c, reverse=True):
        v = c.c[e]
        sign = "-" if v < 0 else "+"
        av = abs(v)
        if e == 0:
            body = str(av)
        else:
            qp = "q" if e == 1 else "q^%d" % e
            body = qp if av == 1 else "%d*%s" % (av, qp)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


def reference_format_poly(x, pres):
    if not x:
        return "0"
    parts = []
    for word in sorted(x, key=lambda w: (len(w), w)):
        c = x[word]
        if len(c.c) == 1:
            ((e, v),) = c.c.items()
            sign = "-" if v < 0 else "+"
            av = abs(v)
            coeff = "" if (av == 1 and e == 0) else \
                ("q" if e == 1 else "q^%d" % e) if av == 1 else \
                ("%d" % av if e == 0 else "%d*%s" % (av, "q" if e == 1 else "q^%d" % e))
        else:
            sign = "+"
            coeff = "(%s)" % reference_laurent_str(c)
        gens = "*".join(pres.gen_label[g] for g in word)
        parts.append((sign, coeff + "*" + gens if coeff and gens else coeff or gens or "1"))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def _seeded_normal_forms(seed, count):
    """Normal forms of 1-3 random words of degree 0-3, in w and what, with
    coefficients of 1-4 terms (coefficients +-1, +-2, +-7, exponents -3..3)."""
    rng = random.Random(seed)
    for _ in range(count):
        pres = rng.choice((W, WH))
        x = sc.NCPoly()
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.randrange(pres.ngens) for _ in range(rng.randint(0, 3)))
            coeff = LaurentPoly({rng.randint(-3, 3): rng.choice((-1, 1)) * rng.choice((1, 1, 2, 7))
                                 for _ in range(rng.randint(1, 4))})
            x.iadd_term(word, coeff)
        yield sc.normal_form(x, pres), pres


def test_printer_matches_the_reference_on_normal_forms():
    for x, pres in _seeded_normal_forms(38, 400):
        assert sc.format_poly(x, pres) == reference_format_poly(x, pres)
        for c in x.values():
            assert str(c) == reference_laurent_str(c)


def test_printer_matches_the_reference_on_omega_and_the_braiding():
    for k in range(1, 14):
        omega = aj.build_omega(k)
        assert sc.format_poly(omega, WH) == reference_format_poly(omega, WH)
        for c in omega.values():
            assert str(c) == reference_laurent_str(c)
    for c in rm.build_rhat().entries.values():
        assert str(c) == reference_laurent_str(c)
        assert str(-c) == reference_laurent_str(-c)


# --- the reference parser ------------------------------------------------------
# The parser parse_expr replaced, kept as the reference: a tokenizer that scans
# one character at a time, and a recursive-descent parser that makes an NCPoly
# per factor and multiplies factors with free_mul.

_GEN_KINDS = ("Zd", "Z", "Y")


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*()^":
            toks.append((ch, ch))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j])))
            i = j
            continue
        for kind in _GEN_KINDS:
            if text.startswith(kind + "[", i):
                j = text.find("]", i)
                if j < 0:
                    raise ValueError("unterminated generator label in %r" % text)
                toks.append(("gen", (kind, text[i + len(kind) + 1:j])))
                i = j + 1
                break
        else:
            if ch == "q":
                toks.append(("q", "q"))
                i += 1
            else:
                raise ValueError("unexpected character %r in expression" % ch)
    return toks


class _Parser:
    def __init__(self, toks, pres):
        self.toks = toks
        self.pos = 0
        self.pres = pres

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        if self.pos == len(self.toks):
            raise ValueError("unexpected end of expression")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        acc = self.parse_term().scale(LaurentPoly.from_int(sign))
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    sign = -sign
            acc = acc + self.parse_term().scale(LaurentPoly.from_int(sign))
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            if self.peek() == "*":
                self.take()
                acc = acc.free_mul(self.parse_factor())
            elif self.peek() in ("q", "num", "gen", "("):
                acc = acc.free_mul(self.parse_factor())
            else:
                return acc

    def _exponent(self):
        if self.peek() != "^":
            return 1
        self.take()
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        kind, val = self.take()
        if kind != "num":
            raise ValueError("expected an integer exponent")
        return sign * val

    def parse_factor(self):
        kind, val = self.take()
        if kind == "q":
            return sc.NCPoly.from_word((), qpow(self._exponent()))
        if kind == "num":
            return sc.NCPoly.from_word((), LaurentPoly.from_int(val))
        if kind == "gen":
            gk, lab = val
            mask = rd.parse_label(lab)
            want_delta = gk == "Zd"
            if self.pres.algebra_id == "w":
                if gk != "Y":
                    raise ValueError("generator %s[%s] does not live in this algebra" % (gk, lab))
                g = self.pres.rank(mask)
            else:
                if gk == "Y":
                    raise ValueError("Y generators do not live in the affine algebra")
                g = self.pres.rank(mask, delta=want_delta)
            return sc.NCPoly.gen(g)
        if kind == "(":
            inner = self.parse_expr()
            if self.peek() != ")":
                raise ValueError("missing closing parenthesis")
            self.take()
            return inner
        raise ValueError("unexpected token %r" % val)


def reference_parse(text, pres):
    parser = _Parser(_tokenize(text), pres)
    out = parser.parse_expr()
    if parser.pos != len(parser.toks):
        raise ValueError("trailing tokens in expression %r" % text)
    return out


def _outcome(parse, text, pres):
    """The parsed element, or the message of the ValueError raised."""
    try:
        return parse(text, pres)
    except ValueError as exc:
        return "ValueError: %s" % exc


SPACE = st.sampled_from(("", "", " ", "  ", "\t", "\n "))


@st.composite
def factor_texts(draw, pres, depth):
    kinds = ["gen", "gen", "q", "num"] + (["paren"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "gen":
        kind_text, digits = pres.gen_label[draw(st.integers(0, pres.ngens - 1))][:-1].split("[")
        if digits != "e":
            digits = "".join(draw(st.permutations(digits)))
        return "%s[%s]" % (kind_text, digits)
    if kind == "q":
        if draw(st.booleans()):
            return "q"
        return "q%s^%s%s%s%d" % (draw(SPACE), draw(SPACE), "-" * draw(st.integers(0, 3)),
                                 draw(SPACE), draw(st.integers(0, 9)))
    if kind == "num":
        return str(draw(st.integers(0, 12)))
    wrap = draw(st.integers(1, 3))
    return "(" * wrap + draw(expr_texts(pres, depth + 1)) + ")" * wrap


@st.composite
def expr_texts(draw, pres, depth=0):
    text = draw(SPACE)
    for k in range(draw(st.integers(1, 3))):
        text += draw(st.text("+-", min_size=0 if k == 0 else 1, max_size=4)) + draw(SPACE)
        for m in range(draw(st.integers(1, 3))):
            factor = draw(factor_texts(pres, depth))
            if m:
                sep = draw(st.sampled_from(("*", " * ", " ", "")))
                # juxtaposed digits would read as one number or exponent
                text += " " if sep == "" and factor[0].isdigit() else sep
            text += factor
        text += draw(SPACE)
    return text


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((W, WH)).flatmap(lambda pres: st.tuples(st.just(pres), expr_texts(pres))))
def test_parse_expr_matches_the_reference_parser(case):
    # the whole grammar: nesting, implicit products, sign runs, q^--k,
    # whitespace and labels in any digit order
    pres, text = case
    want = reference_parse(text, pres)
    got = sc.parse_expr(text, pres)
    assert got == want
    assert all(c for c in got.values())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((W, WH)), st.text("YZd[]()12345eq^+-* 0", max_size=16))
def test_parse_expr_accepts_and_rejects_what_the_reference_does(pres, text):
    assert _outcome(sc.parse_expr, text, pres) == _outcome(reference_parse, text, pres)


@pytest.mark.parametrize("text, pres", [
    ("Y[12", W), ("Y[12]*", W), ("(", W), ("q^", W), ("q^Y[e]", W), ("()", W),
    ("Y[12])", W), ("Y[123]", W), ("Y[11]", W), ("Y[12] $", W), ("Z[12]", W),
    ("Y[e]", WH), ("2**Y[12]", W), ("Y[e] + )", W),
], ids=lambda v: v.algebra_id if isinstance(v, sc.AlgebraPresentation) else v)
def test_malformed_input_is_rejected_by_both_parsers(text, pres):
    with pytest.raises(ValueError) as ref:
        reference_parse(text, pres)
    with pytest.raises(ValueError) as got:
        sc.parse_expr(text, pres)
    assert str(got.value) == str(ref.value)


def test_parse_expr_nesting_cap():
    deep = sc.MAX_NESTING
    assert sc.parse_expr("(" * deep + "Y[e]" + ")" * deep, W) == Y(0)
    for depth in (deep + 1, 1000):
        with pytest.raises(ValueError, match="deeper than %d" % deep):
            sc.parse_expr("(" * depth + "Y[e]" + ")" * depth, W)
