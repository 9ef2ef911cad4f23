import random

from hypothesis import given, strategies as st

from qe6.qcoeff import LaurentPoly, ONE, ZERO, Q, QINV, QHAT, qpow
from qe6.linalg import (SparseMat, Echelon, EchelonMod, spans_equal, rank_mod,
                        bareiss_rank, dense_rank, row_normalize, cyclic_span)
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
    ech = Echelon()
    ech.add_all([{0: ONE, 1: ONE}, {1: ONE, 2: ONE}])
    assert spans_equal(ech, [{0: ONE, 2: -ONE}, {1: ONE, 2: ONE}])
    assert not spans_equal(ech, [{0: ONE}])
    # inside the span but of lower rank
    assert not spans_equal(ech, [{0: ONE, 2: -ONE}])
    # the right rank but outside the span
    assert not spans_equal(ech, [{0: ONE, 2: -ONE}, {1: ONE, 2: Q}])


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


# --- property tests of both eliminators -------------------------------------

NCOLS = 5
P = 1000000007

# entries: units +-q^k, which reduce in place, and non-units, which
# cross-multiply
entry = st.one_of(
    st.builds(LaurentPoly.term, st.sampled_from([1, -1]), st.integers(-3, 3)),
    st.dictionaries(st.integers(-3, 3), st.integers(-4, 4),
                    min_size=2, max_size=3).map(LaurentPoly))
sparse_row = st.dictionaries(st.integers(0, NCOLS - 1), entry, max_size=NCOLS)


@st.composite
def laurent_rows(draw):
    """Random sparse rows, some of them combinations of earlier ones, so that
    rank-deficient sets are common."""
    rows = draw(st.lists(sparse_row, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        fa, fb = draw(entry), draw(entry)
        combo = {}
        for row, f in ((a, fa), (b, fb)):
            for k, v in row.items():
                combo[k] = combo.get(k, ZERO) + f * v
        rows.append({k: v for k, v in combo.items() if v})
    return draw(st.permutations(rows))


@given(laurent_rows(), st.data())
def test_echelon_rank_matches_bareiss(rows, data):
    ech = Echelon()
    rank = ech.add_all(rows)
    assert rank == ech.rank
    dense = [[row.get(c, ZERO) for c in range(NCOLS)] for row in rows]
    assert rank == bareiss_rank(dense) == dense_rank(dense)
    assert all(ech.contains(row) for row in rows)
    assert rank_mod(rows, 12345, P) <= rank
    # rank_mod reorders its rows; the order they come in cannot matter
    assert rank_mod(data.draw(st.permutations(rows)), 12345, P) == rank_mod(rows, 12345, P)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, NCOLS - 1)), entry),
       sparse_row)
def test_apply_matches_mul_by_a_column(entries, vec):
    mat = SparseMat(4, NCOLS, entries)
    col = SparseMat(NCOLS, 1, {(c, 0): x for c, x in vec.items()})
    want = {r: v for (r, _), v in mat.mul(col).entries.items()}
    assert mat.apply(vec) == want
    # the second call reads the column index the first one built
    assert mat.apply(vec) == want


mod_rows = st.lists(st.dictionaries(st.integers(0, NCOLS - 1), st.integers(0, 6),
                                    max_size=NCOLS), max_size=7)


@given(mod_rows, st.data())
def test_echelon_mod_rank_ignores_order_and_scaling(rows, data):
    p = 7
    ech = EchelonMod(p)
    rank = ech.add_all(rows)
    shuffled = data.draw(st.permutations(rows))
    factors = data.draw(st.lists(st.integers(1, p - 1), min_size=len(rows),
                                 max_size=len(rows)))
    scaled = [{k: v * f for k, v in row.items()} for row, f in zip(shuffled, factors)]
    assert EchelonMod(p).add_all(scaled) == rank
    # stored pivot rows are monic
    assert all(base[c] == 1 for c, base in ech.rows.items())
