from collections import defaultdict
from fractions import Fraction

import pytest

from qe6 import rootdata as rd

M = rd.mask_of


def test_weight_examples():
    assert rd.WT[0] == rd.THETA == (0, 1, 2, 2, 3, 2, 1)
    assert rd.WT[M([1, 2])] == rd.wsub(rd.THETA, rd.ALPHA[2])
    assert rd.WT[M([2, 3, 4, 5])] == rd.ALPHA[1]


# alpha_1..alpha_6 in the Euclidean model of E6, over e_1..e_5 and sqrt(3) e_6
_HALF = Fraction(1, 2)
ALPHA_E = {
    1: (_HALF, -_HALF, -_HALF, -_HALF, -_HALF, -_HALF),
    2: (1, 1, 0, 0, 0, 0),
    3: (-1, 1, 0, 0, 0, 0),
    4: (0, -1, 1, 0, 0, 0),
    5: (0, 0, -1, 1, 0, 0),
    6: (0, 0, 0, -1, 1, 0),
}


def _euclidean(coords):
    """sum_i c_i alpha_i over alpha_1..alpha_6 in the Euclidean model."""
    return tuple(sum(Fraction(c) * ALPHA_E[i][k] for i, c in enumerate(coords, start=1))
                 for k in range(6))


def test_euclidean_model_has_the_gram_matrix():
    # the sixth coordinate is over sqrt(3) e_6, so it weighs 3 in the form
    for i, a in ALPHA_E.items():
        for j, b in ALPHA_E.items():
            assert sum(x * y for x, y in zip(a[:5], b[:5])) + 3 * a[5] * b[5] == rd.GRAM[i][j]


def test_alpha_coordinates_rebuild_each_euclidean_vector():
    # the subset I has Euclidean vector theta - sum_{i in I} e_i, with theta
    # = alpha_1 + 2 alpha_2 + 2 alpha_3 + 3 alpha_4 + 2 alpha_5 + alpha_6
    theta = _euclidean((1, 2, 2, 3, 2, 1))
    for m in rd.ALL_MASKS:
        vec = tuple(x - (k + 1 in rd.members(m)) for k, x in enumerate(theta))
        assert rd.WT[m][0] == 0
        assert _euclidean(rd.WT[m][1:]) == vec


def test_weights_are_injective_roots_above_cominuscule_node():
    weights = {rd.WT[m] for m in rd.ALL_MASKS}
    assert len(weights) == 16
    for w in weights:
        assert rd.inner(w, w) == 2
        assert w[1] == 1 and w[0] == 0


def test_roots_of_sub_diagrams():
    e6 = rd.roots(range(1, 7))
    d5 = rd.roots(rd.IPRIME)
    assert len(e6) == 72 and len(d5) == 40 and d5 < e6
    assert all(rd.inner(r, r) == 2 for r in e6)
    # the radical roots are the positive E6 roots with alpha_1 coefficient 1
    assert {r for r in e6 if r[1] == 1} == {rd.WT[m] for m in rd.ALL_MASKS}


def test_inner_examples():
    for m in rd.ALL_MASKS:
        assert rd.inner(rd.WT[m], rd.WT[m]) == 2
    assert rd.inner(rd.WT[M([1, 2])], rd.WT[0]) == 1
    assert rd.inner(rd.WT[M([1, 2, 3, 4])], rd.WT[0]) == 0


def test_pairing_law_exhaustive():
    for a in rd.ALL_MASKS:
        for b in rd.ALL_MASKS:
            sym = bin(a ^ b).count("1")
            assert rd.INNER_WT[(a, b)] == 2 - sym // 2
            assert rd.class_of(a, b).size == {2: 1, 1: 2, 0: 8}[rd.INNER_WT[(a, b)]]


def test_null_root_isotropic():
    for i in range(7):
        assert rd.inner(rd.DELTA, rd.ALPHA[i]) == 0
    assert rd.inner(rd.DELTA, rd.DELTA) == 0


def test_leq_examples():
    assert rd.leq_B(M([1, 2]), 0)
    assert not rd.leq_B(M([1, 4]), M([2, 3]))
    assert not rd.leq_B(M([2, 3]), M([1, 4]))
    for m in rd.ALL_MASKS:
        assert rd.leq_B(m, m)


def test_leq_matches_chain_reachability():
    # brute-force oracle: transitive closure of single simple-root covers
    covers = defaultdict(set)
    for a in rd.ALL_MASKS:
        for b in rd.ALL_MASKS:
            if rd.wsub(rd.WT[b], rd.WT[a]) in [rd.ALPHA[i] for i in rd.IPRIME]:
                covers[a].add(b)
    reach = {a: {a} for a in rd.ALL_MASKS}
    changed = True
    while changed:
        changed = False
        for a in rd.ALL_MASKS:
            for b in list(reach[a]):
                for c in covers[b]:
                    if c not in reach[a]:
                        reach[a].add(c)
                        changed = True
    for a in rd.ALL_MASKS:
        for b in rd.ALL_MASKS:
            assert rd.leq_B(a, b) == (b in reach[a])


def test_height_examples():
    assert rd.HEIGHT_B[M([2, 3, 4, 5])] == 1
    assert rd.HEIGHT_B[0] == 11
    assert rd.HEIGHT_B[M([1, 2])] == 10
    assert sorted(rd.HEIGHT_B.values())[0] == 1


def test_height_grades_covers():
    for a in rd.ALL_MASKS:
        for b in rd.ALL_MASKS:
            if rd.wsub(rd.WT[b], rd.WT[a]) in [rd.ALPHA[i] for i in rd.IPRIME]:
                assert rd.HEIGHT_B[b] == rd.HEIGHT_B[a] + 1


def test_lex_code():
    assert rd.lex_code(0) == 0
    assert rd.lex_code(M([1, 2])) == 12
    assert rd.lex_code(M([1, 2, 3, 4])) == 1234


def test_labels():
    assert rd.label(0) == "e"
    assert rd.label(M([1, 2])) == "12"
    assert rd.parse_label("1234") == M([1, 2, 3, 4])
    assert rd.parse_label("e") == 0
    with pytest.raises(ValueError):
        rd.parse_label("135")  # odd cardinality
    with pytest.raises(ValueError):
        rd.parse_label("16")


def test_class_examples():
    assert rd.class_of(0, 0).members == ((0, 0),)
    c = rd.class_of(M([1, 2]), 0)
    assert sorted(c.members) == sorted([(M([1, 2]), 0), (0, M([1, 2]))])
    c = rd.class_of(M([1, 2, 3, 4]), 0)
    assert c.size == 8


def test_class_census_partition():
    sizes = [c.size for c in rd.CLASSES]
    assert sizes.count(1) == 16
    assert sizes.count(2) == 80
    assert sizes.count(8) == 10
    assert sum(sizes) == 256


def test_union_intersection_matches_weight_sums():
    by_sum = defaultdict(set)
    for a in rd.ALL_MASKS:
        for b in rd.ALL_MASKS:
            by_sum[rd.wadd(rd.WT[a], rd.WT[b])].add((a, b))
    assert (sorted(map(sorted, by_sum.values()))
            == sorted(sorted(c.members) for c in rd.CLASSES))


def test_pair_heights():
    m1234 = M([1, 2, 3, 4])
    assert rd.HT_PAIR[(m1234, 0)] == 1
    assert rd.HT_PAIR[(0, m1234)] == 7
    assert rd.HT_PAIR[(M([2, 3]), M([1, 4]))] == 4
    assert rd.HT_PAIR[(M([1, 4]), M([2, 3]))] == 4
    assert rd.HT_PAIR[(M([1, 2]), 0)] == 1
    assert rd.HT_PAIR[(0, M([1, 2]))] == 2
    for c in rd.OCTETS:
        assert sorted(c.heights) == [1, 2, 3, 4, 4, 5, 6, 7]


def test_epsilon():
    m1234 = M([1, 2, 3, 4])
    assert rd.epsilon(m1234, 0) == 1
    assert rd.epsilon(0, m1234) == 0
    assert rd.epsilon(M([1, 2]), 0) == 0
    for m in rd.ALL_MASKS:
        assert rd.epsilon(m, m) == 0


def test_classes_json_shape():
    rows = rd.classes_json()
    assert len(rows) == 106
    row = rows[0]
    assert set(row[0]) == {"first", "second", "height"}
