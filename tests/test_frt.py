import json
import random
from functools import cache

import pytest

from qe6 import checks
from qe6 import rootdata as rd
from qe6.qcoeff import ONE, Q, QHAT, QINV, qpow, neg_qpow, accumulate
from qe6.qcoeff import LaurentPoly
from qe6.linalg import Echelon, spans_equal
from qe6 import frt
from qe6.rmatrix import rhat_coeff
from qe6.schubert import NCPoly, presentation, twist, multiply, hilbert_dim, q_degree
from qe6 import adjoint as aj

M = rd.mask_of


def test_relation_trivial_cases():
    m12 = M([1, 2])
    assert frt.frt_relation(m12, m12, m12, m12) == {}
    # same-row relation: q^2 X_SI X_SJ on one side
    vec = frt.frt_relation(0, 0, m12, 0)
    assert vec[((0, m12), (0, 0))] == ONE
    assert vec[((0, 0), (0, m12))] == -Q


def test_two_row_relation_lhs_coefficients():
    # the left side of the mixed equation carries coefficients q qhat and q;
    # an incomparable column pair keeps the right side off those words
    s, t = frt.admissible_pairs()[0]
    i, j = M([2, 3]), M([1, 4])
    vec = frt.frt_relation(s, t, i, j)
    assert vec[((s, i), (t, j))] == Q * QHAT
    assert vec[((t, i), (s, j))] == Q
    # the mirrored equation has the plain q alone on its left side
    vec2 = frt.frt_relation(t, s, i, j)
    assert vec2[((s, i), (t, j))] == Q


def _reference_relation(s, t, i, j):
    """frt_relation with one rhat_coeff lookup per class member."""
    vec = {}
    for (k, l), _ in rd.class_of(t, s):
        coeff = rhat_coeff(k, l, t, s)
        if coeff:
            accumulate(vec, ((k, i), (l, j)), coeff)
    for (k, l), _ in rd.class_of(i, j):
        coeff = rhat_coeff(i, j, k, l)
        if coeff:
            accumulate(vec, ((s, l), (t, k)), -coeff)
    return vec


def _reference_straight_vector(i, j, row_a, row_b, mixed):
    """_straight_vector built term by term with the rows attached."""
    vec = {((row_a, i), (row_b, j)): ONE}
    power = rd.INNER_WT[(i, j)] - (1 if mixed else 0)
    accumulate(vec, ((row_b, j), (row_a, i)), -qpow(power))
    h0 = rd.HT_PAIR[(i, j)]
    for (l, m), h in rd.class_of(i, j):
        if l == i or not rd.LEQ[(i, l)]:
            continue
        if not mixed and rd.LEXCODE[m] > rd.LEXCODE[l]:
            continue
        accumulate(vec, ((row_a, l), (row_b, m)), -QHAT * neg_qpow(h - h0 - 1))
    if mixed and rd.EPS[(i, j)]:
        accumulate(vec, ((row_a, j), (row_b, i)), -QHAT * QINV)
    return vec


# every row pair a presentation builds relations for: equal rows, and each
# admissible pair in both orders
_ROW_PAIRS = ([(s, s) for s in rd.ALL_MASKS]
              + [p for s, t in frt.admissible_pairs() for p in ((s, t), (t, s))])


def test_frt_relation_matches_the_per_member_reference():
    for s, t in _ROW_PAIRS:
        for i in rd.ALL_MASKS:
            for j in rd.ALL_MASKS:
                assert frt.frt_relation(s, t, i, j) == _reference_relation(s, t, i, j)


def test_straight_vector_matches_the_term_by_term_reference():
    # the stated sets use every (i, j) with rows attached; equal rows can put
    # two terms on one word, which must be summed
    s, t = frt.admissible_pairs()[0]
    rows = [(s, s), (t, t), (s, t), (t, s)]
    collided = 0
    for i in rd.ALL_MASKS:
        for j in rd.ALL_MASKS:
            for mixed in (False, True):
                for a, b in rows:
                    vec = frt._straight_vector(i, j, a, b, mixed)
                    assert vec == _reference_straight_vector(i, j, a, b, mixed)
                    collided += len(vec) < len(frt._straight_template(i, j, mixed))
    assert collided


def test_bihomogeneity():
    rng = random.Random(12)
    masks = rd.ALL_MASKS
    for _ in range(25):
        s, t, i, j = (masks[rng.randrange(16)] for _ in range(4))
        vec = frt.frt_relation(s, t, i, j)
        if not vec:
            continue
        rows = {rd.wadd(rd.WT[a[0]], rd.WT[b[0]]) for a, b in vec}
        cols = {rd.wadd(rd.WT[a[1]], rd.WT[b[1]]) for a, b in vec}
        assert len(rows) == 1 and len(cols) == 1


def test_row_presentation_block_structure():
    rep = frt.row_presentation(0)
    assert rep["ok"]
    assert rep["degree2_dim"] == 126
    by_size = {}
    for block in rep["blocks"]:
        by_size.setdefault(block["size"], []).append(block["rank"])
    assert set(by_size[1]) == {0}          # singleton columns: no relation
    assert set(by_size[2]) == {1}
    assert set(by_size[8]) == {5}          # octet columns reduce to five equations


def test_row_presentation_all_rows_match_stated():
    for s in rd.ALL_MASKS[:4]:
        rep = frt.row_presentation(s)
        assert rep["ok"] and rep["degree2_dim"] == 126


def test_admissible_pairs():
    pairs = frt.admissible_pairs()
    assert len(pairs) == 80
    for s, t in pairs:
        assert bin(s ^ t).count("1") == 2 and rd.LEQ[(s, t)]


def test_two_row_presentation():
    s, t = frt.admissible_pairs()[0]
    rep = frt.two_row_presentation(s, t)
    assert rep["ok"]
    assert rep["degree2_dim"] == 498
    mixed_octets = [b for b in rep["groups"]["mixed"] if b["size"] == 8]
    assert len(mixed_octets) == 10
    assert all(b["rank"] == 9 for b in mixed_octets)
    with pytest.raises(ValueError):
        frt.two_row_presentation(0, M([1, 2]))  # wrong order
    with pytest.raises(ValueError):
        frt.two_row_presentation(M([1, 2]), M([3, 4]))  # symmetric difference 4


def test_mixed_singleton_and_pair_relations():
    # published reductions: X_SI X_TI = q X_TI X_SI, and for I < J the two
    # relations X_SJ X_TI = X_TI X_SJ and X_SI X_TJ = X_TJ X_SI + qhat X_SJ X_TI
    s, t = frt.admissible_pairs()[0]
    m12 = M([1, 2])
    ech = Echelon()
    ech.add_all([frt.frt_relation(s, t, m12, m12), frt.frt_relation(t, s, m12, m12)])
    assert ech.rank == 1
    assert ech.contains({((s, m12), (t, m12)): ONE, ((t, m12), (s, m12)): -Q})
    i, j = m12, 0
    ech = Echelon()
    for a, b in ((i, j), (j, i)):
        ech.add(frt.frt_relation(s, t, a, b))
        ech.add(frt.frt_relation(t, s, a, b))
    assert ech.rank == 2
    assert ech.contains({((s, j), (t, i)): ONE, ((t, i), (s, j)): -ONE})
    assert ech.contains({((s, i), (t, j)): ONE, ((t, j), (s, i)): -ONE,
                         ((s, j), (t, i)): -QHAT})


def test_rank_checks():
    rep = frt.rank_checks()
    assert rep["ok"]
    assert rep["octet_matrices_identical"]
    assert rep["rank_straightening"] == 5
    assert rep["rank_two_row"] == 9
    assert rep["plain_rank_unitriangular"] == 8
    assert rep["two_row_matches_assembled_form"]
    # the printed display differs from the derivation in exactly one cell,
    # and as printed the rank claim would fail
    assert rep["display_diffs"] == [
        {"row": 4, "col": 6, "printed": "1", "derived": "q - q^-1"}]
    assert rep["display_rank_as_printed"] == 6


def _carried(vec, rows, pres):
    """A cell-algebra vector after the inverse twist, with generator g at
    X[rows[gen_delta[g]], gen_mask[g]]."""
    return {tuple((rows[pres.gen_delta[g]], pres.gen_mask[g]) for g in word): c
            for word, c in twist(vec, pres, inverse=True).items()}


def _class_index(carried):
    ((_, i0), (_, j0)) = next(iter(carried))
    return rd._CLASS_KEY[(i0, j0)]


def test_theta_image_supplies_the_extra_relations():
    # per octet class: the straightening relations alone span rank 4; the
    # transported kernel vector is not among them, but together with the
    # published extra relation the span closes at rank 5
    s = 0
    vecs = frt.kernel_module("w")
    assert len(vecs) == 10
    by_class = {}
    for vec in vecs:
        carried = _carried(vec, (s,), presentation("w"))
        by_class[_class_index(carried)] = carried
    assert len(by_class) == 10
    for ci, carried in by_class.items():
        cls = rd.CLASSES[ci]
        stated = frt.stated_row_relations(s, cls)
        straightening, extra = stated[:-1], stated[-1]
        ech = Echelon()
        ech.add_all(straightening)
        assert ech.rank == 4
        assert not ech.contains(carried)
        assert ech.add(extra)
        assert ech.contains(carried)


def test_row_sweep_failure_detail_is_json(monkeypatch):
    computed = frt.row_presentation

    def first_row_bad(s):
        rep = computed(s)
        rep["blocks"][0]["stated_ok"] = rep["ok"] = False
        return rep

    monkeypatch.setattr(frt, "row_presentation", first_row_bad)
    status, details = checks._chk_row_sweep(checks.Facts())
    assert status == "fail"
    assert details["blocks_bad"] == [{"class_head": ("e", "e"), "rank": 0,
                                      "stated_count": 0}]
    json.dumps(details)


def _times_q_at_first(vec):
    word = min(vec)
    return {w: c * Q if w == word else c for w, c in vec.items()}


# each mutant rewrites the stated set of a size-8 class, whose octet
# relation comes last
_OCTET_MUTANTS = pytest.mark.parametrize("mutate", [
    lambda stated: stated[:-1],
    lambda stated: stated[:-1] + [_times_q_at_first(stated[-1])],
], ids=["octet-dropped", "octet-entry-times-q"])


@_OCTET_MUTANTS
def test_row_presentation_rejects_mutated_stated_set(monkeypatch, mutate):
    # a dropped relation leaves the stated span inside the computed one at
    # lower rank; an entry times q keeps the rank but leaves the span
    stated = frt.stated_row_relations
    monkeypatch.setattr(frt, "stated_row_relations", lambda s, cls: (
        mutate(stated(s, cls)) if cls.size == 8 else stated(s, cls)))
    rep = frt.row_presentation(0)
    assert not rep["ok"]
    assert {b["size"] for b in rep["blocks"] if not b["stated_ok"]} == {8}


@_OCTET_MUTANTS
def test_block_cache_is_order_independent(monkeypatch, mutate):
    # blocks are cached by their full numbered content: a mutant met after
    # a clean call is still flagged, and a clean call after it still passes
    s, t = frt.admissible_pairs()[0]
    assert frt.row_presentation(s)["ok"] and frt.two_row_presentation(s, t)["ok"]
    stated = frt.stated_row_relations
    monkeypatch.setattr(frt, "stated_row_relations", lambda row, cls: (
        mutate(stated(row, cls)) if cls.size == 8 else stated(row, cls)))
    assert {b["size"] for b in frt.row_presentation(s)["blocks"] if not b["stated_ok"]} == {8}
    groups = frt.two_row_presentation(s, t)["groups"]
    assert {g: {b["size"] for b in blocks if not b["stated_ok"]}
            for g, blocks in groups.items()} == {"S": {8}, "T": {8}, "mixed": set()}
    monkeypatch.undo()
    assert frt.row_presentation(s)["ok"] and frt.two_row_presentation(s, t)["ok"]


def test_block_cache_holds_six_eliminations(monkeypatch):
    # a fresh cache for this test: the 16 rows hold 3 distinct numbered
    # blocks and the 80 pairs 3 more, each block holding its key's echelon
    eliminated = cache(frt._eliminated.__wrapped__)
    monkeypatch.setattr(frt, "_eliminated", eliminated)
    blocks = [b for s in rd.ALL_MASKS for b in frt.row_presentation(s)["blocks"]]
    assert eliminated.cache_info().currsize == 3
    blocks += [b for s, t in frt.admissible_pairs()
               for group in frt.two_row_presentation(s, t)["groups"].values()
               for b in group]
    assert eliminated.cache_info().currsize == len({id(b["echelon"]) for b in blocks}) == 6


def _recorded_keys(monkeypatch):
    # the keys _relation_block hands to _eliminated, in call order
    keys = []
    eliminated = frt._eliminated

    def record(vecs, computed):
        keys.append(vecs)
        return eliminated(vecs, computed)

    monkeypatch.setattr(frt, "_eliminated", record)
    return keys


def _coefficient_ids(key):
    # a numbered vector is flat: its words' numbers, then its coefficients
    return [id(c) for vec in key for c in vec[len(vec) // 2:]]


def test_copies_of_a_block_hold_the_same_coefficient_objects(monkeypatch):
    keys = _recorded_keys(monkeypatch)
    (s, t), (u, v) = frt.admissible_pairs()[:2]
    frt.row_presentation(s)
    frt.row_presentation(t)
    frt.two_row_presentation(s, t)
    frt.two_row_presentation(u, v)
    n = len(rd.CLASSES)
    row_s, row_t, mixed_st, mixed_uv = keys[:n], keys[n:2 * n], keys[4 * n:5 * n], keys[-n:]
    for copies in ((row_s, row_t), (mixed_st, mixed_uv)):
        for a, b in zip(*copies):
            assert a == b
            assert _coefficient_ids(a) == _coefficient_ids(b)
    # one object per value across all of them: braiding, straightening and
    # octet coefficients, and the sums where two words meet
    coeffs = [c for key in keys for vec in key for c in vec[len(vec) // 2:]]
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) > 12


def test_fresh_coefficient_objects_match_the_same_blocks(monkeypatch):
    # identity only speeds a hit up: relations whose coefficients are equal
    # values in fresh objects fill a fresh cache with the same six blocks,
    # and the canonical presentations then hit those same echelons
    eliminated = cache(frt._eliminated.__wrapped__)
    monkeypatch.setattr(frt, "_eliminated", eliminated)
    relation = frt.frt_relation
    monkeypatch.setattr(frt, "frt_relation", lambda a, b, i, j: {
        w: LaurentPoly(dict(c.c)) for w, c in relation(a, b, i, j).items()})

    def presentations():
        return ([frt.row_presentation(s) for s in rd.ALL_MASKS]
                + [frt.two_row_presentation(s, t) for s, t in frt.admissible_pairs()[:4]])

    def blocks(rep):
        groups = rep["groups"] if "groups" in rep else {"S": rep["blocks"]}
        return [b for group in groups.values() for b in group]

    fresh = presentations()
    args = next((0, 0, i, j) for cls in rd.CLASSES for i, j in cls.members
                if relation(0, 0, i, j))
    assert all(x == y and x is not y for x, y in zip(frt.frt_relation(*args).values(),
                                                     relation(*args).values()))
    assert eliminated.cache_info().currsize == 6
    monkeypatch.setattr(frt, "frt_relation", relation)
    canonical = presentations()
    assert eliminated.cache_info().currsize == 6
    for a, b in zip(fresh, canonical):
        assert (a["ok"], a["degree2_dim"]) == (b["ok"], b["degree2_dim"])
        for x, y in zip(blocks(a), blocks(b), strict=True):
            assert x["echelon"] is y["echelon"]
            assert (x["rank"], x["stated_ok"]) == (y["rank"], y["stated_ok"])


def _flagged(blocks):
    return [b["class_head"] for b in blocks if not b["stated_ok"]]


@pytest.mark.parametrize("size", [2, 8])
def test_only_the_mutated_block_is_flagged(monkeypatch, size):
    # blocks of one shape with other coefficients share no elimination: one
    # entry times q fails its own block, and every block of the same shape
    # still passes
    target = rd.OCTETS[0] if size == 8 else next(c for c in rd.CLASSES if c.size == 2)
    head = tuple(rd.label(m) for m in target.members[0])
    s, t = frt.admissible_pairs()[0]
    stated = frt.stated_row_relations
    monkeypatch.setattr(frt, "stated_row_relations", lambda row, cls: (
        [_times_q_at_first(v) if k == 0 else v for k, v in enumerate(stated(row, cls))]
        if (row, cls) == (s, target) else stated(row, cls)))
    assert _flagged(frt.row_presentation(s)["blocks"]) == [head]
    groups = frt.two_row_presentation(s, t)["groups"]
    assert {g: _flagged(b) for g, b in groups.items()} == {"S": [head], "T": [], "mixed": []}

    monkeypatch.undo()
    relation = frt.frt_relation
    monkeypatch.setattr(frt, "frt_relation", lambda a, b, i, j: (
        _times_q_at_first(relation(a, b, i, j))
        if (a, b, (i, j)) == (s, t, target.members[0]) else relation(a, b, i, j)))
    groups = frt.two_row_presentation(s, t)["groups"]
    assert {g: _flagged(b) for g, b in groups.items()} == {"S": [], "T": [], "mixed": [head]}


def _own_elimination(computed, stated):
    ech = Echelon()
    ech.add_all(computed)
    return ech.rows, ech.rank, spans_equal(ech, stated)


def _renamed_rows(block):
    """The block's shared echelon rows, renamed from numbers to its words."""
    words = sorted(block["numbering"], key=block["numbering"].get)
    assert words == sorted(words)    # the numbering keeps the word order
    return {words[c]: {words[k]: v for k, v in row.items()}
            for c, row in block["echelon"].rows.items()}


def test_shared_blocks_equal_their_own_elimination():
    def check(blocks, computed, stated):
        for cls, block in zip(rd.CLASSES, blocks):
            own = _own_elimination(computed(cls), stated(cls))
            assert (_renamed_rows(block), block["rank"], block["stated_ok"]) == own

    def row_relations(s):
        return lambda cls: [frt.frt_relation(s, s, i, j) for (i, j), _ in cls]

    for s in rd.ALL_MASKS:
        check(frt.row_presentation(s)["blocks"], row_relations(s),
              lambda cls: frt.stated_row_relations(s, cls))
    for s, t in frt.admissible_pairs()[:3]:
        groups = frt.two_row_presentation(s, t)["groups"]
        for row, group in ((s, "S"), (t, "T")):
            check(groups[group], row_relations(row),
                  lambda cls: frt.stated_row_relations(row, cls))
        check(groups["mixed"],
              lambda cls: [frt.frt_relation(a, b, i, j) for a, b in ((s, t), (t, s))
                           for (i, j), _ in cls],
              lambda cls: frt.stated_mixed_relations(s, t, cls))


def test_two_row_sweep_failure_names_blocks(monkeypatch):
    computed = frt.two_row_presentation

    def first_mixed_bad(s, t):
        rep = computed(s, t)
        rep["groups"]["mixed"][0]["stated_ok"] = rep["ok"] = False
        return rep

    monkeypatch.setattr(frt, "two_row_presentation", first_mixed_bad)
    s, t = frt.admissible_pairs()[0]
    status, details = checks._chk_two_row_sweep(checks.Facts())
    assert status == "fail"
    (failure,) = details["failures"]
    assert failure["rows"] == (rd.label(s), rd.label(t))
    assert failure["dim"] == 498
    assert failure["blocks_bad"] == [{"class_head": ("e", "e"), "rank": 1,
                                      "stated_count": 1, "group": "mixed"}]
    json.dumps(details)


def test_psi_s_single_row():
    rep = frt.psi_S_check(0)
    assert rep["ok"]
    assert rep["rows"] == ("e",)
    assert rep["degree2_dim"] == 126
    assert rep["degree2_quotient_dim"] == 126
    assert rep["relations_carried"] and rep["kernel_vectors_carried"]
    assert rep["kernel_failures"] == 0 and rep["kernel_module_rank"] == 10
    assert rep["relations_match_stated"] and rep["blocks_bad"] == []


def _all_weights_quotient_dim(algebra):
    """The reference: every product g.v and v.g of a generator with a
    kernel_module vector, ranked exactly weight by weight."""
    pres = presentation(algebra)
    blocks = {}
    for vec in frt.kernel_module(algebra):
        for g in range(pres.ngens):
            gen = NCPoly.gen(g)
            for prod in (multiply(gen, vec, pres), multiply(vec, gen, pres)):
                if prod:
                    blocks.setdefault(q_degree(prod, pres), Echelon()).add(prod)
    return hilbert_dim(pres, 3) - sum(ech.rank for ech in blocks.values())


def test_degree3_quotient_dims():
    # exact cross-check of both kernel theorems at degree 3: the cell algebra
    # modulo its kernel-module ideal, counted on dominant weights and equal
    # to the rank of every product
    assert frt.degree3_quotient_dim("w") == 672 == _all_weights_quotient_dim("w")
    assert frt.degree3_quotient_dim("what") == 5088 == _all_weights_quotient_dim("what")


def test_degree3_quotient_multiplies_only_dominant_weights(monkeypatch):
    # 6 and 36 (generator, vector) pairs of dominant weight, both orders
    weights = []
    real = frt.multiply

    def spy(x, y, pres):
        weights.append(rd.pairings(rd.wadd(q_degree(x, pres), q_degree(y, pres))))
        return real(x, y, pres)

    monkeypatch.setattr(frt, "multiply", spy)
    for algebra, want, products in (("w", 672, 12), ("what", 5088, 72)):
        weights.clear()
        assert frt.degree3_quotient_dim(algebra) == want
        assert len(weights) == products and min(map(min, weights)) >= 0


def test_degree3_quotient_sees_a_dropped_top_vector(monkeypatch):
    # without its top, the rest of the kernel module is no submodule
    real = frt.kernel_module
    monkeypatch.setattr(frt, "kernel_module", lambda algebra: real(algebra)[1:])
    assert frt.degree3_quotient_dim("w") == 816
    assert frt.degree3_quotient_dim("what") == 5232


def test_degree3_quotient_needs_the_raising_ranks(monkeypatch):
    # h_mu without the ad_E rank counts every dominant vector as a top
    monkeypatch.setattr(aj, "ad_E", lambda i, x, pres: NCPoly())
    assert frt.degree3_quotient_dim("w") == 608
    assert frt.degree3_quotient_dim("what") == 4704


def test_row_kernel_check_compares_the_degree3_quotient(monkeypatch):
    # without the ad_E rank the quotient reads 608, not the closed form's 672
    monkeypatch.setattr(aj, "ad_E", lambda i, x, pres: NCPoly())
    status, details = checks._chk_psi_s_sweep(checks.Facts())
    assert status == "fail" and details["degree3_quotient"] == 608
    assert aj.closed_form_dim(3, 0) == 672


def test_face_certificate():
    assert all(rd.is_face((s,)) for s in rd.ALL_MASKS)
    assert all(rd.is_face(pair) for pair in frt.admissible_pairs())
    # two moves apart, a third weight pairs as high with the sum
    far = [(s, t) for s in rd.ALL_MASKS for t in rd.ALL_MASKS
           if s < t and bin(s ^ t).count("1") == 4]
    assert len(far) == 40
    assert not any(rd.is_face(pair) for pair in far)


def test_row_kernel_check_fails_off_a_face(monkeypatch):
    is_face = rd.is_face
    monkeypatch.setattr(rd, "is_face", lambda rows: rows != (0,) and is_face(rows))
    status, details = checks._chk_psi_s_sweep(checks.Facts())
    assert status == "fail"
    assert details["faces"] == 15 and details["non_faces"] == ["e"]
    json.dumps(details)


def test_psi_st_single_pair():
    s, t = frt.admissible_pairs()[0]
    rep = frt.psi_ST_check(s, t)
    assert rep["ok"]
    assert rep["rows"] == (rd.label(s), rd.label(t))
    assert rep["degree2_dim"] == 498
    assert rep["degree2_quotient_dim"] == 498
    assert rep["relations_carried"] and rep["kernel_vectors_carried"]
    assert rep["kernel_failures"] == 0
    assert rep["relations_match_stated"] and rep["blocks_bad"] == []
    # the three ten-dimensional kernel modules are independent
    assert rep["kernel_module_rank"] == 30


def test_omega4_image_supplies_the_mixed_extra_relation():
    # per octet class: the mixed straightening relations span rank 8; the
    # transported mixed kernel vector joins only once the published
    # alternating-sum relation is added
    s, t = frt.admissible_pairs()[0]
    pres = presentation("what")
    mixed = [vec for vec in frt.kernel_module("what")
             if sum(pres.gen_delta[g] for g in next(iter(vec))) == 1]
    assert len(mixed) == 10
    carried0 = _carried(mixed[0], (s, t), pres)
    cls = rd.CLASSES[_class_index(carried0)]
    assert cls.size == 8
    stated = frt.stated_mixed_relations(s, t, cls)
    straightening, extra = stated[:-1], stated[-1]
    ech = Echelon()
    ech.add_all(straightening)
    assert ech.rank == 8
    assert not ech.contains(carried0)
    assert ech.add(extra)
    assert ech.contains(carried0)


_ROWS = {"row-e": (0,), "pair-0": frt.admissible_pairs()[0]}


def _kernel_check(rows):
    return frt.psi_S_check(*rows) if len(rows) == 1 else frt.psi_ST_check(*rows)


@pytest.mark.parametrize("rows", _ROWS.values(), ids=_ROWS.keys())
def test_kernel_check_names_a_rule_that_does_not_carry(monkeypatch, rows):
    rules = frt.rule_relation_vectors
    # the first rule whose vector has more than one word; one entry times q
    # moves it off the relation span
    target = []

    def one_rule_bad(pres):
        out = rules(pres)
        n = next(n for n, (_, vec) in enumerate(out) if len(vec) > 1)
        target.append(tuple(pres.gen_label[g] for g in out[n][0]))
        out[n] = (out[n][0], _times_q_at_first(out[n][1]))
        return out

    monkeypatch.setattr(frt, "rule_relation_vectors", one_rule_bad)
    rep = _kernel_check(rows)
    assert not rep["ok"] and not rep["relations_carried"]
    assert rep["relation_failures"] == target
    # named by generator labels, not by internal generator codes
    assert target == [("Y[2345]", "Y[1345]") if len(rows) == 1 else ("Z[2345]", "Z[1345]")]
    assert rep["kernel_failures"] == 0 and rep["degree2_equal"]
    json.dumps(rep)


# the first module vector of each group: Theta's span for a row; for a pair
# Omega 3 (S), Omega 4 (mixed) and Omega 5 (T), ten vectors each
@pytest.mark.parametrize("rows,index", [
    (_ROWS["row-e"], 0), (_ROWS["pair-0"], 0), (_ROWS["pair-0"], 10),
    (_ROWS["pair-0"], 20),
], ids=["row-e", "pair-0-S", "pair-0-mixed", "pair-0-T"])
def test_kernel_check_counts_a_module_vector_that_does_not_carry(monkeypatch, rows,
                                                                index):
    module = frt.kernel_module
    monkeypatch.setattr(frt, "kernel_module", lambda algebra: tuple(
        _times_q_at_first(vec) if n == index else vec
        for n, vec in enumerate(module(algebra))))
    rep = _kernel_check(rows)
    assert not rep["ok"] and not rep["kernel_vectors_carried"]
    assert rep["kernel_failures"] == 1
    assert rep["relations_carried"]
    json.dumps(rep)


@pytest.mark.parametrize("foreign", [False, True], ids=["empty-block", "foreign-word"])
@pytest.mark.parametrize("rows", _ROWS.values(), ids=_ROWS.keys())
def test_kernel_check_rejects_a_word_outside_the_block(monkeypatch, rows, foreign):
    # X[e, e] X[e, e] occurs in no relation, so its class block numbers no
    # word: alone it is not carried, and added to a module vector it puts
    # that vector outside its own block
    pres = presentation("w" if len(rows) == 1 else "what")
    e = next(g for g in range(pres.ngens)
             if pres.gen_mask[g] == 0 and not pres.gen_delta[g])
    module = frt.kernel_module
    monkeypatch.setattr(frt, "kernel_module", lambda algebra: (
        ({**module(algebra)[0], (e, e): ONE} if foreign else {(e, e): ONE}),)
        + module(algebra)[1:])
    rep = _kernel_check(rows)
    assert rep["relations_carried"] and rep["kernel_failures"] == 1
    assert not rep["kernel_vectors_carried"] and not rep["ok"]


@pytest.mark.parametrize("rows", _ROWS.values(), ids=_ROWS.keys())
def test_kernel_check_counts_the_module_by_rank(monkeypatch, rows):
    # a repeated vector changes no dimension; a dropped one still carries
    # but leaves the quotient one dimension above the rows' relations
    module = frt.kernel_module
    monkeypatch.setattr(frt, "kernel_module",
                        lambda algebra: module(algebra) + module(algebra)[:1])
    assert _kernel_check(rows)["ok"]
    monkeypatch.setattr(frt, "kernel_module", lambda algebra: module(algebra)[1:])
    rep = _kernel_check(rows)
    assert rep["relations_carried"] and rep["kernel_failures"] == 0
    assert rep["degree2_quotient_dim"] == rep["degree2_dim"] + 1
    assert not rep["degree2_equal"] and not rep["ok"]


def test_kernel_modules():
    assert len(frt.kernel_module("w")) == 10
    assert Echelon().add_all(frt.kernel_module("w")) == 10
    assert Echelon().add_all(frt.kernel_module("what")) == 30
    # Omega 3, 4 and 5 in turn: no, one and two Zd letters per word
    pres = presentation("what")
    assert [sum(pres.gen_delta[g] for g in next(iter(vec)))
            for vec in frt.kernel_module("what")] == [0] * 10 + [1] * 10 + [2] * 10


# --- the four sweep checks: one template each, certified by coefficients -----

_ROW_SETS = {"rows": [(s,) for s in rd.ALL_MASKS], "pairs": frt.admissible_pairs()}
_SWEEPS = {"row-presentations": checks._chk_row_sweep,
           "two-row-presentations": checks._chk_two_row_sweep,
           "row-homomorphism-kernel": checks._chk_psi_s_sweep,
           "two-row-homomorphism-kernel": checks._chk_psi_st_sweep}


def _echelon_content(ech):
    return ech.rank, {c: dict(row) for c, row in ech.rows.items()}


def test_template_reference_full_sweep():
    # test-only reference for the template checks: every row set's concrete
    # kernel report, which includes its presentation's verdict and
    # dimension, is the template's but for `rows`, and so is its table.
    # The sweeps only read the cached echelons, which the template row and
    # pair hold all of (test_block_cache_holds_six_eliminations)
    groups = frt.two_row_presentation(*_ROW_SETS["pairs"][0])["groups"].values()
    echelons = {id(b["echelon"]): b["echelon"] for blocks in groups for b in blocks}
    assert len(echelons) == 6
    before = [_echelon_content(ech) for ech in echelons.values()]
    for row_sets, check in ((_ROW_SETS["rows"], frt.psi_S_check),
                            (_ROW_SETS["pairs"], frt.psi_ST_check)):
        template = dict(check(*row_sets[0]), rows=None)
        assert template["ok"]
        table = frt.row_coefficients(row_sets[0])
        for rows in row_sets:
            rep = check(*rows)
            assert rep["rows"] == tuple(map(rd.label, rows))
            assert dict(rep, rows=None) == template
            assert frt.row_coefficients(rows) == table
    assert [_echelon_content(ech) for ech in echelons.values()] == before


def test_row_coefficient_tables():
    q2 = Q * Q
    assert frt.row_coefficients((0,)) == {(0, 0, 0, 0): q2}
    assert frt.row_coefficients(frt.admissible_pairs()[0]) == {
        (0, 0, 0, 0): q2, (1, 1, 1, 1): q2, (0, 1, 0, 1): Q, (1, 0, 1, 0): Q,
        (1, 0, 0, 1): q2 - ONE}


def _outside_keys(table):
    """The keys of a row_coefficients table that name a row outside its
    row set, by label."""
    return [key for key in table if any(isinstance(x, str) for x in key)]


def test_far_pairs_differ_from_the_template():
    # two moves apart: other coefficients, and for every one of the 80
    # ordered pairs a nonzero coefficient at a class member with a row
    # outside the pair, keyed by that row's label
    template = frt.row_coefficients(frt.admissible_pairs()[0])
    far = [(s, t) for s in rd.ALL_MASKS for t in rd.ALL_MASKS
           if s != t and bin(s ^ t).count("1") == 4]
    tables = [frt.row_coefficients(pair) for pair in far]
    assert len(far) == 80 and template not in tables
    outside = [pair for pair in far
               if any(frt.rhat_coeff(k, l, a, b) and not {k, l} <= set(pair)
                      for a in pair for b in pair for (k, l), _ in rd.class_of(a, b))]
    assert [bool(_outside_keys(table)) for table in tables] == [True] * 80
    assert outside == far
    comparable = [table for pair, table in zip(far, tables) if rd.LEQ[pair]]
    assert len(comparable) == 30
    # their coefficients within the pair fall into three tables; with the
    # outside rows named, each of the 30 is its own
    inside = [{k: v for k, v in table.items() if k not in _outside_keys(table)}
              for table in comparable]
    assert len({tuple(sorted(map(repr, table.items()))) for table in inside}) == 3
    assert len({tuple(sorted(map(repr, table.items()))) for table in comparable}) == 30


def test_row_coefficients_keep_every_outside_coefficient():
    # e and 1234 are two moves apart: each nonzero R^kl_ab with a, b in the
    # pair and k or l outside it keeps its own entry
    pair = (0, M([1, 2, 3, 4]))
    outside = {(a, b, k, l): frt.rhat_coeff(k, l, a, b)
               for a in pair for b in pair for (k, l), _ in rd.class_of(a, b)
               if frt.rhat_coeff(k, l, a, b) and not {k, l} <= set(pair)}
    table = frt.row_coefficients(pair)
    keys = _outside_keys(table)
    assert len(keys) == len(outside) > 1
    key = {row: pair.index(row) if row in pair else rd.label(row) for row in rd.ALL_MASKS}
    assert {k: table[k] for k in keys} == {
        tuple(key[row] for row in idx): coeff for idx, coeff in outside.items()}


def _times_q_at(monkeypatch, index):
    """frt.rhat_coeff with the one coefficient R^kl_ab, index (k, l, a, b),
    times q: a row-side coefficient of the rows a, b, and a column-side one
    of every row set."""
    coeff = frt.rhat_coeff
    monkeypatch.setattr(frt, "rhat_coeff", lambda *idx: (
        coeff(*idx) * Q if idx == index else coeff(*idx)))
    # frt_relation reads the braiding through a process-wide table; a fresh
    # one, built from the mutated coefficient, serves this test alone
    monkeypatch.setattr(frt, "_braiding_tables", cache(frt._braiding_tables.__wrapped__))


M23, M14, M12 = M([2, 3]), M([1, 4]), M([1, 2])


@pytest.mark.parametrize("index,rows,key,value,template,failing", [
    ((M23,) * 4, (M23,), (0, 0, 0, 0), "q^3", "q^2",
     {"row-presentations", "row-homomorphism-kernel"}),
    ((M14, M12, M12, M14), (M14, M12), (1, 0, 0, 1), "q^3 - q", "q^2 - 1",
     {"two-row-presentations", "two-row-homomorphism-kernel"}),
], ids=["row-23", "pair-14-12"])
def test_sweeps_name_a_row_set_whose_coefficient_differs(monkeypatch, index, rows,
                                                         key, value, template, failing):
    # the coefficient is column-side for the template too, whose concrete
    # check then fails; the certificate still names the row set
    _times_q_at(monkeypatch, index)
    if len(rows) == 1:
        assert not frt.psi_S_check(*rows)["ok"] and not frt.psi_S_check(0)["ok"]
    else:
        assert not frt.psi_ST_check(*frt.admissible_pairs()[0])["ok"]
    for claim in failing:
        status, details = _SWEEPS[claim](checks.Facts())
        assert status == "fail", claim
        named = [d for d in details["coefficients_differ"]
                 if d["rows"] == tuple(map(rd.label, rows))]
        assert named == [{"rows": tuple(map(rd.label, rows)), "coefficient": key,
                          "value": value, "template_value": template}], claim
        json.dumps(details)


@pytest.mark.parametrize("claim", _SWEEPS)
def test_sweeps_fail_on_a_differing_table_alone(monkeypatch, claim):
    # the template passes; the last row set's table gains an entry
    last = _ROW_SETS["rows" if claim.startswith("row") else "pairs"][-1]
    tables = frt.row_coefficients
    monkeypatch.setattr(frt, "row_coefficients", lambda rows: (
        {**tables(rows), (0, 0, None, None): Q} if rows == last else tables(rows)))
    status, details = _SWEEPS[claim](checks.Facts())
    assert status == "fail"
    assert details["coefficients_differ"] == [
        {"rows": tuple(map(rd.label, last)), "coefficient": (0, 0, None, None),
         "value": "q", "template_value": "0"}]
    json.dumps(details)


def test_rank_checks_compare_every_pair(monkeypatch):
    # pair (14, 12) is the eighth admissible pair; its two-row matrix holds
    # R^{14,12}_{12,14}
    assert frt.admissible_pairs().index((M14, M12)) == 7
    _times_q_at(monkeypatch, (M14, M12, M12, M14))
    rep = frt.rank_checks()
    assert not rep["two_row_consistent_across_pairs"] and not rep["ok"]
    status, details = checks._chk_rank_facts()
    assert status == "fail" and details["two_row_consistent_across_pairs"] is False


def _two_rows_consistent_reference():
    """Every admissible pair derives the template pair's 16x16 matrix: the
    80-matrix comparison that two_row_consistent_across_pairs decides from
    two coefficients per pair."""
    a = frt.derive_octet_matrix(rd.OCTETS[0])
    mats = [frt.derive_two_row_matrix(a, s, t) for s, t in frt.admissible_pairs()]
    return all(m == mats[0] for m in mats[1:])


@pytest.mark.parametrize("index", [None, (M14, M12, M12, M14), (M12, M14, M12, M14),
                                   (M12, M12, M12, M12)],
                         ids=["true", "flip-coefficient", "straight-coefficient",
                              "unread-coefficient"])
def test_two_row_consistency_matches_the_80_matrix_reference(monkeypatch, index):
    # pair (14, 12) reads rhat_coeff(14, 12, 12, 14) and
    # rhat_coeff(12, 14, 12, 14); no pair reads the diagonal R^{12,12}_{12,12}
    if index is not None:
        _times_q_at(monkeypatch, index)
    want = _two_rows_consistent_reference()
    assert frt.rank_checks()["two_row_consistent_across_pairs"] == want
    assert want == (index is None or index == (M12, M12, M12, M12))


@pytest.mark.parametrize("claim", _SWEEPS)
def test_sweep_checks_build_one_presentation(monkeypatch, claim):
    builds = []
    for name in ("row_presentation", "two_row_presentation"):
        build = getattr(frt, name)
        monkeypatch.setattr(frt, name, lambda *rows, build=build: (
            builds.append(rows), build(*rows))[1])
    status, details = _SWEEPS[claim](checks.Facts())
    assert status == "pass"
    assert len(builds) == 1
    assert details["template"] == (("e",) if claim.startswith("row") else ("12", "e"))


def test_relation_vector_json():
    vec = frt.frt_relation(0, 0, M([1, 2]), 0)
    doc = frt.relation_vector_json(vec)
    assert all(set(item) == {"first", "second", "coeff"} for item in doc)
