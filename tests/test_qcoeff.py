import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from qe6.linalg import SparseMat
from qe6.qcoeff import (LaurentPoly, ONE, ZERO, Q, QINV,
                        qpow, neg_qpow, qhat, accumulate)
from qe6.schubert import NCPoly

# Laurent polynomials with up to four terms, exponents in [-6, 6]
laurent = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                          max_size=4).map(LaurentPoly)


def test_ring_examples():
    a = Q + QINV
    b = Q - QINV
    assert a + b == LaurentPoly({1: 2})
    assert b * a == LaurentPoly({2: 1, -2: -1})
    assert ZERO * LaurentPoly({5: 1, 0: -3}) == ZERO


@pytest.mark.parametrize("value", [Q + QINV, neg_qpow(3)],
                         ids=["LaurentPoly", "unit"])
def test_accumulate_drops_zero_sums(value):
    terms = {}
    accumulate(terms, "x", value)
    assert terms == {"x": value}
    accumulate(terms, "x", value)
    assert terms == {"x": value + value}
    accumulate(terms, "x", -(value + value))
    assert terms == {}
    accumulate(terms, "y", value - value)
    assert terms == {}


def test_equality():
    # an int is the constant polynomial; any other object that is not a
    # LaurentPoly is unequal
    assert ONE == 1 and ZERO == 0 and Q != 1 and ONE != 2
    assert (Q == "q") is False
    a, b = LaurentPoly({2: 3, -1: -1}), LaurentPoly({-1: -1, 2: 3})
    assert a is not b and a == b and not a != b
    assert a != LaurentPoly({2: 3})


def test_qhat():
    assert qhat() == Q - QINV
    assert qhat().eval_mod(1, 5) == 0
    # the degree-1 coefficient of the truncating q-exponential
    assert Q * (ONE - qpow(-2)) == qhat()


def test_eval_mod():
    a = Q + QINV
    assert a.eval_mod(2, 7) == 6
    assert ZERO.eval_mod(3, 11) == 0
    assert (Q - QINV).eval_mod(1, 5) == 0
    with pytest.raises(ValueError):
        a.eval_mod(7, 7)


def test_eval_mod_is_ring_hom():
    rng = random.Random(5)
    p = 1000003
    for _ in range(40):
        a = LaurentPoly({rng.randrange(-6, 7): rng.randrange(-9, 10) for _ in range(4)})
        b = LaurentPoly({rng.randrange(-6, 7): rng.randrange(-9, 10) for _ in range(4)})
        q0 = rng.randrange(1, p)
        assert (a * b).eval_mod(q0, p) == a.eval_mod(q0, p) * b.eval_mod(q0, p) % p
        assert (a + b).eval_mod(q0, p) == (a.eval_mod(q0, p) + b.eval_mod(q0, p)) % p


@settings(max_examples=200, deadline=None)
@given(laurent, laurent, laurent)
def test_commutativity_distributivity_random(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a - b == a + (-b) and a - a == ZERO


@settings(max_examples=200, deadline=None)
@given(laurent, laurent)
def test_cached_hash_is_the_content_hash(a, b):
    # the hash is kept on first use, so no operation may change a dict that
    # a polynomial wraps: operands and results hash as fresh copies do
    hashes = hash(a), hash(b)
    for p in (a + b, a - b, a * b, -a, 3 * a, a ** 2):
        assert hash(p) == hash(LaurentPoly(dict(p.c)))
    assert hashes == (hash(LaurentPoly(dict(a.c))), hash(LaurentPoly(dict(b.c))))


def test_constants_hash_as_their_ints():
    # a constant equals its int, so the two must hash alike
    for n in (0, 1, -1, 5):
        assert hash(LaurentPoly.from_int(n)) == hash(n)
    assert 1 in {ONE} and ONE in {1}


def _reference_product(a, b):
    """The product term by term, zero sums dropped at the end."""
    c = {}
    for ea, va in a.c.items():
        for eb, vb in b.c.items():
            c[ea + eb] = c.get(ea + eb, 0) + va * vb
    return {e: v for e, v in c.items() if v}


monomial = st.builds(LaurentPoly.term, st.integers(-9, 9).filter(bool), st.integers(-6, 6))


@settings(max_examples=200, deadline=None)
@given(st.one_of(laurent, monomial), st.one_of(laurent, monomial))
def test_products_store_no_zero_and_match_the_reference(a, b):
    # one-term and longer factors take the same product loop; the monomial
    # inputs keep the one-term case drawn often
    for p in (a * b, b * a):
        assert all(p.c.values())
        assert p.c == _reference_product(a, b)
    cancelling = (a + b) * (a - b)
    assert all(cancelling.c.values())
    assert cancelling == a * a - b * b


def _sharing(data, x, keys, value):
    """A dict y drawn to share keys with the dict x: each key of x is left
    out, given x's own value (so that x - y cancels there) or a value drawn
    by value(x's value), and up to two keys drawn from `keys` are added with
    value(None)."""
    y = {}
    for k, v in x.items():
        choice = data.draw(st.sampled_from(("absent", "same", "other")))
        if choice != "absent":
            y[k] = v if choice == "same" else value(v)
    for k in data.draw(st.lists(keys, max_size=2)):
        y.setdefault(k, value(None))
    return y


def _flat(x):
    """{(key, exponent): value} of a LaurentPoly (key ()), NCPoly or SparseMat."""
    if isinstance(x, LaurentPoly):
        return {((), e): v for e, v in x.c.items()}
    entries = x.entries if isinstance(x, SparseMat) else x
    return {(k, e): v for k, c in entries.items() for e, v in c.c.items()}


exponents = st.integers(-6, 6)
words = st.lists(st.integers(0, 3), max_size=3).map(tuple)
cells = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("LaurentPoly", "NCPoly", "SparseMat")), st.data())
def test_differences_store_no_zero_and_match_the_reference(kind, data):
    # y shares keys, and inside them exponents, with x, so that some
    # entries of x - y cancel in part and some in full
    ints = lambda old: data.draw(st.integers(-9, 9))
    if kind == "LaurentPoly":
        x = data.draw(laurent)
        y = LaurentPoly(_sharing(data, x.c, exponents, ints))
    else:
        keys = words if kind == "NCPoly" else cells
        poly = lambda old: LaurentPoly(_sharing(data, old.c if old else {}, exponents, ints))
        xd = data.draw(st.dictionaries(keys, laurent, max_size=4))
        yd = _sharing(data, xd, keys, poly)
        if kind == "NCPoly":
            x, y = (NCPoly({k: c for k, c in d.items() if c}) for d in (xd, yd))
        else:
            x, y = SparseMat(3, 3, xd), SparseMat(3, 3, yd)
    diff = x.sub(y) if kind == "SparseMat" else x - y
    fx, fy = _flat(x), _flat(y)
    want = {k: fx.get(k, 0) - fy.get(k, 0) for k in fx.keys() | fy.keys()}
    assert _flat(diff) == {k: v for k, v in want.items() if v}
    if kind != "LaurentPoly":
        assert all((diff.entries if kind == "SparseMat" else diff).values())


@given(laurent, laurent)
def test_exact_div(a, b):
    assume(b)
    assert (a * b).exact_div(b) == a


@settings(max_examples=200, deadline=None)
@given(laurent, laurent, st.integers(-8, 8))
def test_inexact_division_raises(a, b, k):
    # the units are +-q^k, so a non-unit b never divides a * b + q^k
    assume(b and not (len(b.c) == 1 and abs(next(iter(b.c.values()))) == 1))
    with pytest.raises(ValueError):
        (a * b + qpow(k)).exact_div(b)


def test_exact_div_examples():
    p = (Q + 3) * (QINV - 7) * (qpow(5) + Q - 2)
    assert p.exact_div(Q + 3) == (QINV - 7) * (qpow(5) + Q - 2)
    with pytest.raises(ValueError):
        (Q + ONE).exact_div(Q - ONE)
    with pytest.raises(ZeroDivisionError):
        Q.exact_div(ZERO)


def test_neg_qpow():
    assert neg_qpow(0) == ONE
    assert neg_qpow(1) == LaurentPoly({1: -1})
    assert neg_qpow(-3) == LaurentPoly({-3: -1})
    assert neg_qpow(2) == qpow(2)


def test_json_round_trip():
    a = Q - QINV
    assert a.to_json() == {"-1": "-1", "1": "1"}


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(Q - QINV) == "q - q^-1"
    assert str(LaurentPoly({0: -2, 2: 3})) == "3*q^2 - 2"
