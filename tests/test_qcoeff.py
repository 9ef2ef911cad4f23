import random

import pytest

from qe6.qcoeff import (LaurentPoly, RatFunc, ONE, ZERO, Q, QINV, QHAT,
                        qpow, neg_qpow, qint, qhat, accumulate)


def test_ring_examples():
    a = Q + QINV
    b = Q - QINV
    assert a + b == LaurentPoly({1: 2})
    assert b * a == LaurentPoly({2: 1, -2: -1})
    assert ZERO * LaurentPoly({5: 1, 0: -3}) == ZERO


@pytest.mark.parametrize("value", [Q + QINV, RatFunc(QHAT, qint(2))],
                         ids=["LaurentPoly", "RatFunc"])
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


def test_qint():
    assert qint(1) == ONE
    assert qint(2) == Q + QINV
    assert qint(0) == ZERO
    with pytest.raises(ValueError):
        qint(-1)


def test_qhat():
    assert qhat() == Q - QINV
    assert qhat().eval_mod(1, 5) == 0
    assert qhat() * qint(2) == qpow(2) - qpow(-2)
    # the degree-1 coefficient of the truncating q-exponential
    assert Q * (ONE - qpow(-2)) == qhat()


def test_qint_qhat_identity():
    for n in range(1, 51):
        assert qint(n) * QHAT == qpow(n) - qpow(-n)


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


def test_commutativity_distributivity_random():
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (LaurentPoly({rng.randrange(-5, 6): rng.randrange(-5, 6)
                                for _ in range(3)}) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_exact_div():
    p = (Q + 3) * (QINV - 7) * (qpow(5) + Q - 2)
    assert p.exact_div(Q + 3) == (QINV - 7) * (qpow(5) + Q - 2)
    with pytest.raises(ValueError):
        (Q + ONE).exact_div(Q - ONE)


def test_neg_qpow():
    assert neg_qpow(0) == ONE
    assert neg_qpow(1) == LaurentPoly({1: -1})
    assert neg_qpow(-3) == LaurentPoly({-3: -1})
    assert neg_qpow(2) == qpow(2)


def test_ratfunc_canonical():
    x = RatFunc(QHAT, qint(2))
    y = RatFunc(QHAT * (Q + QINV), qint(2) * (Q + QINV))
    assert x == y
    assert x.num == y.num and x.den == y.den
    assert x.den.min_exp() == 0
    # denominator leading coefficient is positive
    assert x.den.c[x.den.max_exp()] > 0
    assert RatFunc(ZERO, qint(7)) == 0
    with pytest.raises(ZeroDivisionError):
        RatFunc(ONE, ZERO)


def test_ratfunc_cross_multiplication_random():
    rng = random.Random(3)
    for _ in range(25):
        num = LaurentPoly({rng.randrange(-4, 5): rng.randrange(-6, 7) for _ in range(3)})
        den = LaurentPoly({rng.randrange(-4, 5): rng.randrange(-6, 7) for _ in range(3)})
        scale = LaurentPoly({rng.randrange(-3, 4): rng.randrange(1, 5)})
        if not num or not den or not scale:
            continue
        a = RatFunc(num, den)
        b = RatFunc(num * scale, den * scale)
        assert a == b
        assert a.num * b.den == b.num * a.den


def test_ratfunc_field_ops():
    x = RatFunc(ONE, Q + QINV)
    assert x + x == RatFunc(LaurentPoly({0: 2}), Q + QINV)
    assert x * x.inv() == 1
    assert (x - x) == 0
    assert (RatFunc(Q) / RatFunc(Q + ONE)) * RatFunc(Q + ONE) == RatFunc(Q)


def test_json_round_trip():
    a = Q - QINV
    assert a.to_json() == {"-1": "-1", "1": "1"}
    assert LaurentPoly.from_json(a.to_json()) == a
    r = RatFunc(QHAT, qint(2))
    assert RatFunc.from_json(r.to_json()) == r


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(Q - QINV) == "q - q^-1"
    assert str(LaurentPoly({0: -2, 2: 3})) == "3*q^2 - 2"
