"""Adjoint module-algebra structure on the cell algebras.

The rank-5 subalgebra acts through the coproduct: lowering and raising
operators move a generator along the radical-root family while the group-like
generators contribute q-power factors on the flanks.  On top of the action sit
highest-weight detection, the named vectors (Theta and the thirteen Omegas,
Omega 6-13 from one chain rule) with one table of their weights and degrees,
cyclic submodule spans, the dimension of a submodule from its dominant
weights (semisimple_dim), the named vectors' highest-weight certificates
(span dimensions by theorem), and the degree-by-degree decomposition reports.
The generator-span matrices (generator_matrices) are the action itself on
degree 1, read off ad_E, ad_F and ad_K, so the operator relations and the
half-spin module isomorphism are checked on the operators everything else
uses.  The certificates rest on rootdata's weights and facts (a)-(c).
"""

from fractions import Fraction
from functools import cache
from math import comb

from .qcoeff import LaurentPoly, ONE, Q, qpow, neg_qpow
from . import rootdata as rd
from .schubert import (NCPoly, presentation, normal_form, multiply, q_degree,
                       hilbert_dim, rule_relation_vectors)
from .linalg import Echelon, SparseMat, cyclic_span

NEG_Q = LaurentPoly.term(-1, 1)


class _ActionTables:
    __slots__ = ("pairs", "raises", "lowers")

    def __init__(self, pres):
        self.pairs = dict(zip(rd.IPRIME, zip(*map(rd.pairings, pres.gen_weight))))
        self.raises = {}
        self.lowers = {}
        for i in rd.IPRIME:
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


def _add_image(acc, word, k, tgt, coeff, exp):
    """Add -coeff * q^exp into acc, {word: {exponent: int}} with no zero
    values, at `word` with its letter k replaced by `tgt`; `coeff` is a raw
    exponent dict too."""
    img = word[:k] + (tgt,) + word[k + 1:]
    terms = acc.get(img)
    if terms is None:
        acc[img] = {e + exp: -v for e, v in coeff.items()}
        return
    for e, v in coeff.items():
        e += exp
        v = terms.get(e, 0) - v
        if v:
            terms[e] = v
        else:
            del terms[e]


def _normal_images(acc, pres):
    """Normal form of the images `_add_image` summed into acc."""
    return normal_form(NCPoly({w: LaurentPoly._raw(c) for w, c in acc.items() if c}), pres)


def ad_E(i, x, pres):
    """Raising part of the adjoint action, extended by the coproduct rule."""
    tab = _tables(pres)
    pairs = tab.pairs[i]
    raises = tab.raises[i]
    acc = {}
    for word, coeff in x.items():
        exp = 0
        for k, g in enumerate(word):
            tgt = raises[g]
            if tgt is not None:
                _add_image(acc, word, k, tgt, coeff.c, exp + 1)
            exp -= pairs[g]
    return _normal_images(acc, pres)


def ad_F(i, x, pres):
    """Lowering part of the adjoint action."""
    tab = _tables(pres)
    pairs = tab.pairs[i]
    lowers = tab.lowers[i]
    acc = {}
    for word, coeff in x.items():
        total = sum(map(pairs.__getitem__, word))
        run = 0
        for k, g in enumerate(word):
            run += pairs[g]
            tgt = lowers[g]
            if tgt is not None:
                _add_image(acc, word, k, tgt, coeff.c, total - run - 1)
    return _normal_images(acc, pres)


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


def is_highest_weight(x, pres):
    """True plus the dominant weight when all raising operators kill x."""
    if not x:
        raise ValueError("the zero element is not a highest weight vector")
    for i in rd.IPRIME:
        if ad_E(i, x, pres):
            return False, None
    return True, rd.pairings(q_degree(x, pres))


# --- the named highest-weight vectors ---------------------------------------

def _printed_quadratic(pairs_with_coeffs, left_of, right_of):
    """The printed quadratic as a free (unstraightened) polynomial."""
    acc = NCPoly()
    for (a, b), coeff in pairs_with_coeffs:
        acc.iadd_term((left_of(a), right_of(b)), coeff)
    return acc


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
    return normal_form(_printed_quadratic(_quad_pairs(), pres.rank, pres.rank), pres)


# Omega_k, k >= 6, as (a, b, w, s, extra): the chain
#   s * sum_{m=0..|w|} (-q^-1)^m ad_F_word(w[:m] reversed, Omega_a)
#                                * ad_F_word(w[m:], Omega_b)
# plus the extra splits (left word, right word, coefficient).  The chain
# misses Omega_12's one extra split because F_2 and F_3 commute.
#
# In every row the left factor Omega_a is the one whose words lead in the
# PBW order: normal words are non-increasing, the delta-shifted letters
# rank above the plain ones, and ad_F keeps each letter's shift, so every
# product of the free sum starts with the factor that holds more delta
# letters and is normal, or nearly, before the one normal_form.  Rows 6-12
# are the printed chains, whose left factor holds fewer delta letters,
# flipped: (a, b, w) -> (b, a, w reversed), each extra split's two words
# swapped.  A flip gives a unit multiple of the printed Omega, and s undoes it.
# Omega_13 is printed on the pair (3, 11); its row takes (5, 9), whose
# chain gives q^-2 Omega_13.
OMEGA_CHAINS = {
    6: (2, 1, (2,), Q, ()),
    7: (2, 3, (2, 4, 5, 6), Q, ()),
    8: (5, 1, (6, 5, 4, 2), qpow(-3), ()),
    9: (4, 3, (6,), -ONE, ()),
    10: (5, 3, (6,), -qpow(2), ()),
    11: (5, 4, (6,), -ONE, ()),
    12: (5, 3, (6, 5, 4, 2, 3, 4, 5, 6), qpow(2), (((3, 4, 5, 6), (2, 4, 5, 6), qpow(-2)),)),
    13: (5, 9, (6, 5), qpow(2), ()),
}


@cache
def build_omega(k):
    """The k-th conjectured highest-weight generator in the affine algebra:
    Omega 1-5 as printed, Omega 6-13 by the chain rule of OMEGA_CHAINS.

    Each Omega is summed as a free (unstraightened) polynomial and then
    straightened once: normal_form is linear, so words shared by the
    products of a composite Omega are rewritten once, and words whose
    summed coefficient cancels are never rewritten.  Because each row puts
    its delta-leading factor on the left (see OMEGA_CHAINS), the free sum
    is nearly normal already: Omega 6-13 together take 729 rewrites, where
    the printed order, plain factor on the left, takes 13403.
    """
    pres = presentation("what")
    Zr = pres.rank
    Zdr = lambda m: pres.rank(m, delta=True)
    if k == 1:
        out = NCPoly.gen(Zr(0))
    elif k == 2:
        out = NCPoly.gen(Zdr(0))
    elif k == 3:
        out = _printed_quadratic(_quad_pairs(), Zr, Zr)
    elif k == 4:
        out = NCPoly()
        for (a, b), h in rd.class_of(rd.mask_of([1, 2, 3, 4]), 0):
            out.iadd_term((Zr(a), Zdr(b)), LaurentPoly.term(-1 if h & 1 else 1, h))
    elif k == 5:
        out = _printed_quadratic(_quad_pairs(), Zdr, Zdr)
    elif k in OMEGA_CHAINS:
        a, b, w, s, extra = OMEGA_CHAINS[k]
        oa, ob = build_omega(a), build_omega(b)
        splits = [(w[:m][::-1], w[m:], s * neg_qpow(-m)) for m in range(len(w) + 1)]
        out = NCPoly()
        for left, right, c in splits + list(extra):
            # products stay free until the one normal_form
            term = ad_F_word(left, oa, pres).free_mul(ad_F_word(right, ob, pres))
            out = out + term.scale(c)
    else:
        raise ValueError("omega index must be 1..13")
    return normal_form(out, pres)


NAMED_VECTORS = {
    # name: (algebra, dominant weight as (c2..c6), nonnegative-grading degree)
    "theta": ("w", (0, 0, 0, 0, 1), 2),
    "omega1": ("what", (1, 0, 0, 0, 0), 1), "omega2": ("what", (1, 0, 0, 0, 0), 1),
    "omega3": ("what", (0, 0, 0, 0, 1), 2), "omega4": ("what", (0, 0, 0, 0, 1), 2),
    "omega5": ("what", (0, 0, 0, 0, 1), 2), "omega6": ("what", (0, 0, 1, 0, 0), 2),
    "omega7": ("what", (0, 1, 0, 0, 0), 3), "omega8": ("what", (0, 1, 0, 0, 0), 3),
    "omega9": ("what", (0, 0, 0, 1, 0), 4), "omega10": ("what", (0, 0, 0, 1, 0), 4),
    "omega11": ("what", (0, 0, 0, 1, 0), 4), "omega12": ("what", (0, 0, 0, 0, 0), 4),
    "omega13": ("what", (0, 0, 1, 0, 0), 6),
}


def submodule_span(x, pres):
    """Basis of the span of all lowering-word images of a vector: its cyclic
    span under every ad(F_i), graded by q_degree (x first)."""
    ops = [lambda v, i=i: ad_F(i, v, pres) for i in rd.IPRIME]
    return cyclic_span(x, ops, lambda v: q_degree(v, pres))


def semisimple_dim(by_mu, pres):
    """dim M of a submodule M of a graded piece, from its dominant weights
    only: `by_mu` maps each dominant 7-coordinate weight mu of M to vectors
    spanning M_mu.  By fact (b) (rootdata docstring), dim M is the sum
    of h_mu weyl_dim(mu), h_mu the dimension of the vectors of M_mu that
    every ad_E kills: the rank of M_mu minus the rank of the five ad_E
    stacked, one (i, word) column each, on its echelon rows."""
    total = 0
    for mu, vecs in by_mu.items():
        ech = Echelon()
        ech.add_all(vecs)
        raised = Echelon().add_all({(i, w): c for i in rd.IPRIME
                                    for w, c in ad_E(i, row, pres).items()}
                                   for row in ech.rows.values())
        total += (ech.rank - raised) * rd.weyl_dim(rd.pairings(mu))
    return total


# each algebra's candidate factors in key order; "y_e" is Y_empty of "w"
FACTORS = {"w": ("y_e", "theta"), "what": tuple("omega%d" % k for k in range(1, 14))}


def _factor(name):
    """A named vector or Y_empty, and its (algebra, weight, degree) entry."""
    if name == "y_e":
        return NCPoly.gen(presentation("w").rank(0)), ("w", (1, 0, 0, 0, 0), 1)
    return theta() if name == "theta" else build_omega(int(name[5:])), NAMED_VECTORS[name]


def hw_certificate(name):
    """Highest-weight certificate of a named vector v or of Y_empty ("y_e"):
    whether v is nonzero, whether every ad_E kills it, its weight lambda and
    degree, and the dimension of its cyclic span U.v, decided by theorem
    instead of closing the span (tests keep the closure as the reference).

    The graded piece holding v is a finite-dimensional type-1
    U_q(so10)-module, so if v is nonzero and every ad_E kills it,
    U.v = L(lambda), of dimension weyl_dim(lambda), by fact (a) of the
    semisimplicity argument in the rootdata docstring.  `ok` holds when all
    that applies and lambda and the degree are the tabulated ones.
    """
    vec, (algebra, want, degree) = _factor(name)
    pres = presentation(algebra)
    killed, lam = is_highest_weight(vec, pres) if vec else (False, None)
    deg = len(next(iter(vec))) if vec else None
    return {"nonzero": bool(vec), "highest_weight": killed,
            "weight": list(lam) if killed else None, "expected_weight": list(want),
            "degree": deg, "span_dim": rd.weyl_dim(lam) if killed and min(lam) >= 0 else None,
            "expected_span_dim": rd.weyl_dim(want),
            "ok": killed and lam == want and deg == degree}


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

def hw_candidates(algebra, d):
    """The highest-weight candidates of degree d: the products of the
    algebra's FACTORS, each taken as often as its key says and multiplied
    in from the left: keys (m, n) for Y_empty^m Theta^n, and (r1..r13) with
    r5 r9 = 0 for the Omegas (Omega_5 Omega_9 lies in the span of
    Omega_3 Omega_11 and Omega_4 Omega_10)."""
    pres = presentation(algebra)
    factors = [(vec, entry[2]) for vec, entry in map(_factor, FACTORS[algebra])]
    keys = [((), 0)]
    for _, step in factors:
        keys = [(key + (r,), used + r * step) for key, used in keys
                for r in range((d - used) // step + 1)]
    out = {}
    for key, used in keys:
        if used != d or algebra == "what" and key[4] * key[8]:
            continue
        vec = NCPoly.one()
        for (factor, _), r in zip(factors, key):
            for _ in range(r):
                vec = multiply(vec, factor, pres)
        out[key] = vec
    return out


def decompose_degree(algebra, d, certify):
    """Prove the degree-d module decomposition from exhibited highest-weight
    vectors and the Weyl dimension count.  The caller supplies each factor's
    certificate as certify(name): hw_certificate, or a verify run's facts.

    For either algebra the report proves the decomposition at degree d,
    given the PBW basis; for the affine one it is evidence for the
    conjectured decomposition in every degree, and its statement says so.

    The degree-d part M has the degree-d normal words as a basis, and it is a
    finite-dimensional type-1 U_q(so10)-module, so by fact (b) of the
    semisimplicity argument in the rootdata docstring the highest-weight
    vectors of weight lambda span a space whose dimension is the
    multiplicity m_lambda of L(lambda) in M.  Each factor of degree
    <= d is certified (certify).  The action is a module-algebra
    action (module_algebra_failures), so a nonzero product of certified
    factors is killed by every ad_E, of dominant weight sum r_k
    weight(factor_k): no candidate goes to ad_E.  The candidates of weight
    lambda independent in their block number c_lambda <= m_lambda.  Hence
    dim M = sum m_lambda weyl_dim(lambda) >= sum c_lambda weyl_dim(lambda),
    and equality (the report's weyl_dim_total == component_dim) forces
    m_lambda = c_lambda for every lambda, including every lambda with no
    candidate.  No rank of a raising operator is needed.  Each block's
    hw_dim is its c_lambda, certified exactly when the count closes.

    dim M is hilbert_dim(pres, d), the number of degree-d normal words; that
    they are a basis is the PBW theorem, which the count rests on, decided by
    schubert.rule_failures and confluence_check.  No word is enumerated.
    """
    pres = presentation(algebra)
    total = hilbert_dim(pres, d)
    names = FACTORS[algebra]
    # the 7-coordinate weight of each certified factor of degree <= d
    weights = {name: q_degree(vec, pres)
               for name, (vec, entry) in zip(names, map(_factor, names))
               if entry[2] <= d and certify(name)["ok"]}

    cands = hw_candidates(algebra, d)
    by_mu = {}
    cand_fail = []
    for key, vec in cands.items():
        failed = [name for name, r in zip(names, key) if r and name not in weights]
        if failed:
            reason = "uses a factor that failed its certificate: %s" % ", ".join(failed)
        elif not vec:
            reason = "the product is zero"
        else:
            mu = tuple(sum(r * weights[name][c] for name, r in zip(names, key) if r)
                       for c in range(7))
            by_mu.setdefault(mu, []).append(vec)
            continue
        cand_fail.append({"monomial": list(key), "reason": reason})

    found = {mu: Echelon().add_all(vecs) for mu, vecs in sorted(by_mu.items())}
    weyl_total = sum(rd.weyl_dim(rd.pairings(mu)) * c for mu, c in found.items())
    certified = weyl_total == total
    blocks = [{"weight": list(mu), "hw_dim": c,
               "expected_hw": len(by_mu[mu]), "certified": certified}
              for mu, c in found.items()]
    mismatches = [b for b in blocks if b["hw_dim"] != b["expected_hw"]]
    ok = not cand_fail and not mismatches and certified
    report = {
        "algebra": algebra,
        "degree": d,
        "component_dim": total,
        "hw_vector_count": sum(found.values()),
        "expected_hw_count": len(cands),
        "weyl_dim_total": weyl_total,
        "blocks": blocks,
        "candidate_failures": cand_fail,
        "mismatched_blocks": mismatches,
        "verdict": "pass" if ok else "fail",
    }
    if algebra == "what":
        report["statement"] = ("proved at degree %d given the PBW basis; evidence for the"
                               " conjectured decomposition in every degree" % d)
    return report


# --- operator-level consistency on the generator span ------------------------

def generator_matrices(pres):
    """The adjoint action on the span of the algebra generators, as
    {(kind, i): SparseMat} for kind in E, F, K, Kinv: column g is ad_E,
    ad_F or ad_K (Kinv: inverse=True) applied to generator g itself."""
    n = pres.ngens
    acts = {"E": ad_E, "F": ad_F, "K": ad_K,
            "Kinv": lambda i, x, pres: ad_K(i, x, pres, inverse=True)}
    mats = {}
    for kind, act in acts.items():
        for i in rd.IPRIME:
            # the action keeps the degree: each image word is one generator h
            entries = {(h, g): c for g in range(n)
                       for (h,), c in act(i, NCPoly.gen(g), pres).items()}
            mats[(kind, i)] = SparseMat(n, n, entries)
    return mats


def module_algebra_failures(pres):
    """Decide the module-algebra axiom from the defining relations; returns
    the failures, [] when it holds.

    ad_E and ad_F act letter by letter through the coproduct rule, so on
    the free algebra they are twisted derivations,
    ad_E(xy) = ad_K^-1(x) ad_E(y) + ad_E(x) y and
    ad_F(xy) = x ad_F(y) + ad_F(x) ad_K(y), and ad_K is an automorphism.
    They descend to the algebra, the free algebra modulo the ideal I of its
    relations, exactly when they map I into I.  ad_K scales a
    weight-homogeneous relation r; by the twisted Leibniz rule ad_E(a r b)
    and ad_F(a r b) lie in I once ad_E(r) and ad_F(r) do, and an image with
    normal form 0 lies in I.  So the axiom holds when every relation of
    rule_relation_vectors is homogeneous and every ad_E(i) and ad_F(i),
    i in IPRIME, sends it to 0.  A failure names the rule's pair, the
    operator ("K": not homogeneous, with i None) and i.
    """
    fails = []
    for (a, b), rel in rule_relation_vectors(pres):
        pair = [pres.gen_label[a], pres.gen_label[b]]
        if len({pres.weight_of_word(word) for word in rel}) != 1:
            fails.append({"relation": pair, "operator": "K", "i": None})
        for i in rd.IPRIME:
            for name, act in (("E", ad_E), ("F", ad_F)):
                if act(i, rel, pres):
                    fails.append({"relation": pair, "operator": name, "i": i})
    return fails
