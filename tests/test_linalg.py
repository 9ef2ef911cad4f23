import random

from qe6.qcoeff import LaurentPoly, ONE, Q, QINV, QHAT, qpow
from qe6.linalg import (SparseMat, Echelon, EchelonMod, spans_equal, rank_mod,
                        bareiss_rank, row_normalize, cyclic_span)
from qe6 import rootdata as rd
from qe6 import spinrep as sp


def test_sparse_mat_ops():
    a = SparseMat(2, 2, {(0, 0): Q, (0, 1): ONE})
    b = SparseMat(2, 2, {(0, 0): QINV, (1, 0): ONE})
    prod = a.mul(b)
    assert prod.get(0, 0) == ONE + ONE
    assert a.add(b).get(0, 0) == Q + QINV
    assert a.sub(a).is_zero()
    eye = SparseMat.identity(2)
    assert a.mul(eye) == a and eye.mul(a) == a
    assert a.kron(eye).nrows == 4
    assert a.apply({0: ONE, 1: Q}) == {0: Q + Q}


def test_echelon_rank_and_membership():
    rows = [{0: ONE, 1: Q}, {0: Q, 1: Q * Q}, {1: ONE, 2: QHAT}]
    ech = Echelon()
    ech.add_all(rows)
    assert ech.rank == 2
    assert ech.contains({0: Q * Q, 1: qpow(3)})
    assert not ech.contains({2: ONE})


def test_spans_equal():
    a = [{0: ONE, 1: ONE}, {1: ONE, 2: ONE}]
    b = [{0: ONE, 2: -ONE}, {1: ONE, 2: ONE}]
    assert spans_equal(a, b)
    assert not spans_equal(a, [{0: ONE}])


def test_bareiss_rank_matches_random_modular():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randrange(2, 6)
        mat = [[LaurentPoly({rng.randrange(-2, 3): rng.randrange(-3, 4)})
                for _ in range(n)] for _ in range(n + 1)]
        rank = bareiss_rank(mat)
        rows = [{c: v for c, v in enumerate(row) if v} for row in mat]
        ech = Echelon()
        ech.add_all(rows)
        assert rank == ech.rank
        assert rank_mod(rows, 12345, (1 << 61) - 1) <= rank


def test_rank_mod_lower_bound_generically_tight():
    rows = [{0: Q - QINV}, {1: ONE}]
    # q = 1 kills the first row: the modular rank dips below the true rank
    assert rank_mod(rows, 1, 97) == 1
    assert rank_mod(rows, 5, 97) == 2


def test_row_normalize():
    row = {0: LaurentPoly({3: 2, 4: 4}), 1: LaurentPoly({2: -6})}
    out = row_normalize(row)
    assert out[0] == LaurentPoly({1: 1, 2: 2})
    assert out[1] == LaurentPoly({0: -3})


def test_echelon_mod():
    p = 97
    ech = EchelonMod(p)
    assert ech.add({0: 1, 1: 2})
    assert ech.add({1: 1})
    assert not ech.add({0: 1, 1: 3})
    assert ech.rank == 2


def test_cyclic_span():
    grade = lambda v: rd.WT[sp.SPIN_BASIS[min(v)]]
    lower = [sp.chevalley_action("F", i).apply for i in rd.IPRIME]
    assert cyclic_span({}, lower, grade) == []
    top = {sp.SPIN_INDEX[0]: ONE}
    span = cyclic_span(top, lower, grade)
    assert len(span) == 16 and span[0] == top
    # swap: e0 -> q e1 -> q^2 e0, and q^2 e0 is already in the span
    swap = lambda v: {1 - k: c * Q for k, c in v.items()}
    assert cyclic_span({0: ONE}, [swap], lambda v: 0) == [{0: ONE}, {1: Q}]
