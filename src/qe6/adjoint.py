"""Adjoint module-algebra structure on the cell algebras.

The rank-5 subalgebra acts through the coproduct: lowering and raising
operators move a generator along the radical-root family while the group-like
generators contribute q-power factors on the flanks.  On top of the action sit
highest-weight detection, the named highest-weight vectors (Theta and the
thirteen Omegas), cyclic submodule spans, the Weyl dimension formula, and the
degree-by-degree decomposition reports.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb

from .qcoeff import LaurentPoly, ONE, Q, QINV, qpow
from . import rootdata as rd
from .schubert import (NCPoly, presentation, normal_form, multiply, q_degree,
                       hilbert_dim, normal_words)
from .linalg import Echelon, SparseMat, cyclic_span

NEG_Q = LaurentPoly.term(-1, 1)
NEG_QINV = LaurentPoly.term(-1, -1)


class _ActionTables:
    __slots__ = ("pairs", "raises", "lowers")

    def __init__(self, pres):
        self.pairs = {}
        self.raises = {}
        self.lowers = {}
        for i in rd.IPRIME:
            self.pairs[i] = tuple(rd.inner(rd.ALPHA[i], w) for w in pres.gen_weight)
            up = []
            down = []
            for g in range(pres.ngens):
                m = pres.gen_mask[g]
                dlt = pres.gen_delta[g]
                tgt = rd.RAISE[(m, i)]
                up.append(None if tgt is None else pres.rank(tgt, dlt))
                tgt = rd.LOWER[(m, i)]
                down.append(None if tgt is None else pres.rank(tgt, dlt))
            self.raises[i] = tuple(up)
            self.lowers[i] = tuple(down)


@cache
def _tables(pres):
    return _ActionTables(pres)


def ad_E(i, x, pres):
    """Raising part of the adjoint action, extended by the coproduct rule."""
    tab = _tables(pres)
    pairs = tab.pairs[i]
    raises = tab.raises[i]
    acc = NCPoly()
    for word, coeff in x.items():
        exp = 0
        for k, g in enumerate(word):
            tgt = raises[g]
            if tgt is not None:
                acc.iadd_term(word[:k] + (tgt,) + word[k + 1:],
                              coeff * LaurentPoly.term(-1, exp + 1))
            exp -= pairs[g]
    return normal_form(acc, pres)


def ad_F(i, x, pres):
    """Lowering part of the adjoint action."""
    tab = _tables(pres)
    pairs = tab.pairs[i]
    lowers = tab.lowers[i]
    acc = NCPoly()
    for word, coeff in x.items():
        total = sum(pairs[g] for g in word)
        run = 0
        for k, g in enumerate(word):
            run += pairs[g]
            tgt = lowers[g]
            if tgt is not None:
                acc.iadd_term(word[:k] + (tgt,) + word[k + 1:],
                              coeff * LaurentPoly.term(-1, total - run - 1))
    return normal_form(acc, pres)


def ad_K(i, x, pres, inverse=False):
    tab = _tables(pres)
    pairs = tab.pairs[i]
    out = NCPoly()
    for word, coeff in x.items():
        e = sum(pairs[g] for g in word)
        out[word] = coeff * qpow(-e if inverse else e)
    return out


def ad_F_word(indices, x, pres):
    """ad(F_{i1} ... F_{ik}) x; the rightmost index acts first."""
    for i in reversed(tuple(indices)):
        x = ad_F(i, x, pres)
    return x


def _pairings(mu):
    """Pairing vector (c2, ..., c6) of a 7-coordinate weight."""
    return tuple(rd.inner(rd.ALPHA[i], mu) for i in rd.IPRIME)


def dominant_weight(x, pres):
    """Pairing vector (c2, ..., c6) of a homogeneous element."""
    return _pairings(q_degree(x, pres))


def is_highest_weight(x, pres):
    """True plus the dominant weight when all raising operators kill x."""
    if not x:
        raise ValueError("the zero element is not a highest weight vector")
    for i in rd.IPRIME:
        if ad_E(i, x, pres):
            return False, None
    return True, dominant_weight(x, pres)


# --- the named highest-weight vectors ---------------------------------------

def _printed_quadratic(pairs_with_coeffs, left_of, right_of, pres):
    acc = NCPoly()
    for (a, b), coeff in pairs_with_coeffs:
        acc.iadd_term((left_of(a), right_of(b)), coeff)
    return normal_form(acc, pres)


def _quad_pairs():
    m = rd.mask_of
    return [((m([1, 2, 3, 4]), 0), ONE),
            ((m([3, 4]), m([1, 2])), NEG_Q),
            ((m([2, 4]), m([1, 3])), Q * Q),
            ((m([2, 3]), m([1, 4])), LaurentPoly.term(-1, 3))]


@cache
def theta():
    """The degree-2 highest-weight vector of the 16-generator algebra."""
    pres = presentation("w")
    return _printed_quadratic(_quad_pairs(), pres.rank, pres.rank, pres)


@cache
def build_omega(k):
    """The k-th conjectured highest-weight generator in the affine algebra."""
    pres = presentation("what")
    Zr = pres.rank
    Zdr = lambda m: pres.rank(m, delta=True)

    def mul(x, y):
        return multiply(x, y, pres)

    def aF(seq, x):
        return ad_F_word(seq, x, pres)

    if k == 1:
        out = NCPoly.gen(Zr(0))
    elif k == 2:
        out = NCPoly.gen(Zdr(0))
    elif k == 3:
        out = _printed_quadratic(_quad_pairs(), Zr, Zr, pres)
    elif k == 4:
        acc = NCPoly()
        for (a, b), h in rd.class_of(rd.mask_of([1, 2, 3, 4]), 0):
            acc.iadd_term((Zr(a), Zdr(b)), LaurentPoly.term(-1 if h & 1 else 1, h))
        out = normal_form(acc, pres)
    elif k == 5:
        out = _printed_quadratic(_quad_pairs(), Zdr, Zdr, pres)
    elif k == 6:
        o1, o2 = build_omega(1), build_omega(2)
        out = mul(aF([2], o1), o2) - mul(o1, aF([2], o2)).scale(Q)
    elif k == 7:
        o3, o2 = build_omega(3), build_omega(2)
        out = (mul(aF([2, 4, 5, 6], o3), o2)
               - mul(aF([4, 5, 6], o3), aF([2], o2)).scale(Q)
               + mul(aF([5, 6], o3), aF([4, 2], o2)).scale(qpow(2))
               - mul(aF([6], o3), aF([5, 4, 2], o2)).scale(qpow(3))
               + mul(o3, aF([6, 5, 4, 2], o2)).scale(qpow(4)))
    elif k == 8:
        o1, o5 = build_omega(1), build_omega(5)
        out = (mul(o1, aF([2, 4, 5, 6], o5))
               - mul(aF([2], o1), aF([4, 5, 6], o5)).scale(QINV)
               + mul(aF([4, 2], o1), aF([5, 6], o5)).scale(qpow(-2))
               - mul(aF([5, 4, 2], o1), aF([6], o5)).scale(qpow(-3))
               + mul(aF([6, 5, 4, 2], o1), o5).scale(qpow(-4)))
    elif k in (9, 10, 11):
        left, right = {9: (3, 4), 10: (3, 5), 11: (4, 5)}[k]
        a, b = build_omega(left), build_omega(right)
        out = mul(a, aF([6], b)) - mul(aF([6], a), b).scale(QINV)
    elif k == 12:
        o3, o5 = build_omega(3), build_omega(5)
        full = [6, 5, 4, 3, 2, 4, 5, 6]
        terms = [
            (full, [], ONE),
            (full[1:], [6], NEG_Q),
            (full[2:], [5, 6], qpow(2)),
            (full[3:], [4, 5, 6], LaurentPoly.term(-1, 3)),
            (full[4:], [3, 4, 5, 6], qpow(4)),
            ([3, 4, 5, 6], [2, 4, 5, 6], qpow(4)),
            ([4, 5, 6], [3, 2, 4, 5, 6], LaurentPoly.term(-1, 5)),
            ([5, 6], [4, 3, 2, 4, 5, 6], qpow(6)),
            ([6], [5, 4, 3, 2, 4, 5, 6], LaurentPoly.term(-1, 7)),
            ([], full, qpow(8)),
        ]
        out = NCPoly()
        for wl, wr, c in terms:
            out = out + mul(aF(wl, o3), aF(wr, o5)).scale(c)
    elif k == 13:
        o3, o11 = build_omega(3), build_omega(11)
        out = (mul(o3, aF([6, 5], o11))
               - mul(aF([6], o3), aF([5], o11)).scale(QINV)
               + mul(aF([5, 6], o3), o11).scale(qpow(-2)))
    else:
        raise ValueError("omega index must be 1..13")
    return out


OMEGA_EXPECTED = {
    # k: (dominant weight as (c2..c6), nonnegative-grading degree)
    1: ((1, 0, 0, 0, 0), 1), 2: ((1, 0, 0, 0, 0), 1),
    3: ((0, 0, 0, 0, 1), 2), 4: ((0, 0, 0, 0, 1), 2), 5: ((0, 0, 0, 0, 1), 2),
    6: ((0, 0, 1, 0, 0), 2),
    7: ((0, 1, 0, 0, 0), 3), 8: ((0, 1, 0, 0, 0), 3),
    9: ((0, 0, 0, 1, 0), 4), 10: ((0, 0, 0, 1, 0), 4), 11: ((0, 0, 0, 1, 0), 4),
    12: ((0, 0, 0, 0, 0), 4),
    13: ((0, 0, 1, 0, 0), 6),
}


def submodule_span(x, pres):
    """Basis of the span of all lowering-word images of a vector: its cyclic
    span under every ad(F_i), graded by q_degree (x first)."""
    ops = [lambda v, i=i: ad_F(i, v, pres) for i in rd.IPRIME]
    return cyclic_span(x, ops, lambda v: q_degree(v, pres))


# --- Weyl dimension formula --------------------------------------------------

D5_POSITIVE_ROOTS = tuple(sorted(r for r in rd.roots(rd.IPRIME)
                                  if all(c >= 0 for c in r)))
assert len(D5_POSITIVE_ROOTS) == 20


def weyl_dim(lam):
    """Exact dimension of the irreducible with dominant weight (c2, ..., c6)."""
    if len(lam) != 5 or any(c < 0 for c in lam):
        raise ValueError("dominant weight needs five nonnegative coordinates")
    shifted = {i: c + 1 for i, c in zip(rd.IPRIME, lam)}
    num = Fraction(1)
    for root in D5_POSITIVE_ROOTS:
        top = sum(shifted[i] * root[i] for i in rd.IPRIME)
        bot = sum(root[i] for i in rd.IPRIME)
        num *= Fraction(top, bot)
    assert num.denominator == 1
    return int(num)


def closed_form_dim(m, n):
    """Product formula for the dimension of the (m, n) component."""
    val = Fraction(m + 3, 105) * comb(m + 5, 5) * comb(n + 4, 4) * comb(n + m + 7, 4)
    assert val.denominator == 1
    return int(val)


def identity_check(d):
    """Degree-d dimension bookkeeping: the two-parameter sum collapses to a
    single binomial coefficient."""
    total = sum(closed_form_dim(d - 2 * n, n) for n in range(d // 2 + 1))
    return total == comb(15 + d, 15)


# --- degree-by-degree decomposition ------------------------------------------

def hw_candidates_w(d):
    """The products Y_empty^m Theta^n of total degree d, keyed by (m, n)."""
    pres = presentation("w")
    g0 = pres.rank(0)
    out = {}
    th_pow = NCPoly.one()
    for n in range(d // 2 + 1):
        m = d - 2 * n
        vec = NCPoly.from_word((g0,) * m)
        out[(m, n)] = multiply(vec, th_pow, pres) if n else vec
        th_pow = multiply(th_pow, theta(), pres)
    return out


OMEGA_DEGREES = {k: OMEGA_EXPECTED[k][1] for k in range(1, 14)}


def omega_monomial_exponents(d):
    """Exponent tuples (r1..r13) of total degree d with r5 r9 = 0."""
    out = []

    def rec(k, left, acc):
        if k == 14:
            if left == 0:
                out.append(tuple(acc))
            return
        step = OMEGA_DEGREES[k]
        for r in range(left // step + 1):
            acc.append(r)
            rec(k + 1, left - r * step, acc)
            acc.pop()

    rec(1, d, [])
    return [r for r in out if r[4] * r[8] == 0]


def hw_candidates_what(d):
    pres = presentation("what")
    out = {}
    for exps in omega_monomial_exponents(d):
        vec = NCPoly.one()
        for k, r in enumerate(exps, start=1):
            for _ in range(r):
                vec = multiply(vec, build_omega(k), pres)
        out[exps] = vec
    return out


def decompose_degree(algebra, d):
    """Prove the degree-d module decomposition from exhibited highest-weight
    vectors and the Weyl dimension count.

    For the finite algebra the decomposition is a theorem; for the affine one
    the report is evidence for the conjectured highest-weight monomial basis
    and is labeled as such.

    The degree-d part M has the degree-d normal words as a basis, and it is a
    finite-dimensional type-1 U_q(so10)-module, hence semisimple (Jantzen,
    Lectures on Quantum Groups, ch. 5; the fact ybe_check rests on too).  So
    the highest-weight vectors of weight lambda span a space whose dimension
    is the multiplicity m_lambda of L(lambda) in M.  The candidates that every
    ad_E kills, that have dominant weight lambda and that are independent in
    their weight block number c_lambda <= m_lambda.  Hence
    dim M = sum m_lambda weyl_dim(lambda) >= sum c_lambda weyl_dim(lambda),
    and equality (the report's weyl_dim_total == component_dim) forces
    m_lambda = c_lambda for every lambda, including every lambda with no
    candidate.  No rank of a raising operator is needed.  Each block's
    hw_dim is its c_lambda, certified exactly when the count closes.
    """
    pres = presentation(algebra)
    block_dims = Counter(pres.weight_of_word(word) for word in normal_words(pres, d))
    total = sum(block_dims.values())

    cands = hw_candidates_w(d) if algebra == "w" else hw_candidates_what(d)
    by_mu = {}
    cand_fail = []
    for key, vec in cands.items():
        if not vec or any(ad_E(i, vec, pres) for i in rd.IPRIME):
            reason = "not a highest weight vector"
        elif (mu := q_degree(vec, pres)) not in block_dims:
            reason = "not of degree %d" % d
        elif min(_pairings(mu)) < 0:
            reason = "weight is not dominant"
        else:
            by_mu.setdefault(mu, []).append(vec)
            continue
        cand_fail.append({"monomial": list(key), "reason": reason})

    found = {mu: Echelon().add_all(vecs) for mu, vecs in sorted(by_mu.items())}
    weyl_total = sum(weyl_dim(_pairings(mu)) * c for mu, c in found.items())
    certified = weyl_total == total
    blocks = [{"weight": list(mu), "dim": block_dims[mu], "hw_dim": c,
               "expected_hw": len(by_mu[mu]), "certified": certified}
              for mu, c in found.items()]
    mismatches = [b for b in blocks if b["hw_dim"] != b["expected_hw"]]
    ok = (not cand_fail and not mismatches and total == hilbert_dim(pres, d)
          and certified)
    report = {
        "algebra": algebra,
        "degree": d,
        "mode": "exact",
        "component_dim": total,
        "expected_component_dim": hilbert_dim(pres, d),
        "hw_vector_count": sum(found.values()),
        "expected_hw_count": len(cands),
        "weyl_dim_total": weyl_total,
        "blocks": blocks,
        "candidate_failures": cand_fail,
        "mismatched_blocks": mismatches,
        "verdict": "pass" if ok else "fail",
    }
    if algebra == "what":
        report["statement"] = ("evidence for the conjectured decomposition at degree <= %d;"
                               " not a proof" % d)
    return report


# --- operator-level consistency on the generator span ------------------------

def generator_matrices(pres):
    """Matrices of the adjoint generators on the span of the algebra generators."""
    n = pres.ngens
    tab = _tables(pres)
    mats = {}
    for i in rd.IPRIME:
        e = {}
        f = {}
        k = {}
        kinv = {}
        for g in range(n):
            tgt = tab.raises[i][g]
            if tgt is not None:
                e[(tgt, g)] = NEG_Q
            tgt = tab.lowers[i][g]
            if tgt is not None:
                f[(tgt, g)] = NEG_QINV
            pe = tab.pairs[i][g]
            k[(g, g)] = qpow(pe)
            kinv[(g, g)] = qpow(-pe)
        mats[("E", i)] = SparseMat(n, n, e)
        mats[("F", i)] = SparseMat(n, n, f)
        mats[("K", i)] = SparseMat(n, n, k)
        mats[("Kinv", i)] = SparseMat(n, n, kinv)
    return mats


def module_algebra_failures(pres, samples, rng):
    """Spot-check the module-algebra axiom on `samples` random pairs of words
    of degree 1 or 2 (the first with a random q-power coefficient)."""
    fails = []
    n = pres.ngens
    for t in range(samples):
        dx = rng.randrange(1, 3)
        dy = rng.randrange(1, 3)
        x = NCPoly.from_word(tuple(rng.randrange(n) for _ in range(dx)),
                             qpow(rng.randrange(-2, 3)))
        y = NCPoly.from_word(tuple(rng.randrange(n) for _ in range(dy)))
        xy = multiply(x, y, pres)
        i = rd.IPRIME[rng.randrange(5)]
        lhs_e = ad_E(i, xy, pres)
        rhs_e = (multiply(ad_K(i, x, pres, inverse=True), ad_E(i, y, pres), pres)
                 + multiply(ad_E(i, x, pres), y, pres))
        if lhs_e != rhs_e:
            fails.append(("E", i, t))
        lhs_f = ad_F(i, xy, pres)
        rhs_f = (multiply(x, ad_F(i, y, pres), pres)
                 + multiply(ad_F(i, x, pres), ad_K(i, y, pres), pres))
        if lhs_f != rhs_f:
            fails.append(("F", i, t))
    return fails
