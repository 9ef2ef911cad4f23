"""The quantum exterior algebra and the 16-dimensional half-spin representation.

Basis vectors of the module are indexed by the even subsets in lex-code order.
All sign/power bookkeeping of the exterior algebra is one count: a
descending adjacent pair contributes one factor of (-q), so a basis product
picks up (-q)^(number of inversions), counted by _inversions.  The
representing matrices are assembled from that count plus the displayed closed
formulas, and every defining relation of the rank-5 quantized enveloping
algebra is then checked as an exact 16x16 matrix identity.  Irreducibility is
the highest-weight certificate of the top vector; phi_check(mats, gen_mask)
tests the module isomorphism against adjoint.generator_matrices, which is the
adjoint action itself on the generator span (degree 1).
"""

from functools import cache

from .qcoeff import QHAT, qpow, neg_qpow, Q, QINV
from . import rootdata as rd
from .linalg import SparseMat

SPIN_BASIS = rd.BSETS
SPIN_INDEX = {m: i for i, m in enumerate(SPIN_BASIS)}
DIM = 16


def _inversions(mask_left, mask_right):
    inv = 0
    for j in rd.members(mask_right):
        inv += bin(mask_left >> j).count("1")
    return inv


def _sign(x):
    return (x > 0) - (x < 0)


def _c_exp(i, j, mask):
    return _sign(i - j) * (i + j - 3 - 2 * bin(mask).count("1"))


@cache
def rho_matrix(kind, i, j=None):
    """Matrix of one root vector or group-like generator on the spin module.

    kind "E" with (i, j), i != j: moves index j to index i.
    kind "Eprime" with (i, j), i != j: annihilates the pair {i, j} when i < j,
    creates it when i > j.
    kind "K" with i in the acting index set: diagonal q-powers.
    """
    entries = {}
    if kind == "K":
        if i not in rd.IPRIME:
            raise ValueError("K index must lie in the acting diagram")
        for col, mask in enumerate(SPIN_BASIS):
            entries[(col, col)] = qpow(rd.inner(rd.ALPHA[i], rd.WT[mask]))
    elif kind == "E":
        if i == j:
            raise ValueError("root-vector indices must differ")
        bit_i, bit_j = 1 << (i - 1), 1 << (j - 1)
        for col, mask in enumerate(SPIN_BASIS):
            if not mask & bit_j:
                continue
            base = mask & ~bit_j
            if base & bit_i:
                continue
            # u_mask = (-q)^{-a} u_base v_j;  u_base v_i = (-q)^b u_target
            a = _inversions(base, bit_j)
            b = _inversions(base, bit_i)
            exp = (i - j - _sign(i - j)) + b - a
            entries[(SPIN_INDEX[base | bit_i], col)] = neg_qpow(exp)
    elif kind == "Eprime":
        if i == j:
            raise ValueError("root-vector indices must differ")
        bit_i, bit_j = 1 << (i - 1), 1 << (j - 1)
        if i < j:
            for col, mask in enumerate(SPIN_BASIS):
                if mask & bit_i and mask & bit_j:
                    base = mask & ~(bit_i | bit_j)
                    a = _inversions(base, bit_i | bit_j)
                    exp = _c_exp(i, j, base) - a
                    entries[(SPIN_INDEX[base], col)] = neg_qpow(exp)
        else:
            for col, mask in enumerate(SPIN_BASIS):
                if mask & (bit_i | bit_j):
                    continue
                b = _inversions(mask, bit_i | bit_j)
                exp = _c_exp(i, j, mask) + b
                entries[(SPIN_INDEX[mask | bit_i | bit_j], col)] = neg_qpow(exp)
    else:
        raise ValueError("unknown generator kind %r" % (kind,))
    return SparseMat(DIM, DIM, entries)


def chevalley_action(kind, i):
    """Simple generators identified among the root vectors by their degree."""
    if i not in rd.IPRIME:
        raise ValueError("index %r outside the acting diagram" % (i,))
    if kind == "K":
        return rho_matrix("K", i)
    if kind == "Kinv":
        mat = rho_matrix("K", i)
        return SparseMat(DIM, DIM, {k: qpow(-v.max_exp()) for k, v in mat.entries.items()})
    if kind not in ("E", "F"):
        raise ValueError("unknown generator kind %r" % (kind,))
    if i == 2:
        pair = (1, 2) if kind == "E" else (2, 1)
        return rho_matrix("Eprime", *pair)
    pair = (i - 2, i - 1) if kind == "E" else (i - 1, i - 2)
    return rho_matrix("E", *pair)


def k_exponents():
    """K_i acts on u_m by q^k[n][m], i the n-th index of IPRIME: the
    exponents, read off the diagonal action."""
    return [[chevalley_action("K", i).get(m, m).max_exp() for m in range(DIM)]
            for i in rd.IPRIME]


def generator_matrices():
    """Matrices of the Chevalley generators on the spin module, keyed by
    (kind, i) with kind in E, F, K, Kinv."""
    return {(k, i): chevalley_action(k, i)
            for k in ("E", "F", "K", "Kinv") for i in rd.IPRIME}


def relation_failures(mats):
    """Defining relations of the acting algebra as exact matrix identities on
    any module, given its generator matrices {(kind, i): SparseMat} (kind in
    E, F, K, Kinv).  Returns the names of the failed relations."""
    fails = []
    n = mats[("K", rd.IPRIME[0])].nrows
    ident = SparseMat.identity(n)
    zero = SparseMat(n, n)
    for i in rd.IPRIME:
        if mats[("K", i)].mul(mats[("Kinv", i)]) != ident:
            fails.append("K%d inverse" % i)
        for j in rd.IPRIME:
            aij = rd.GRAM[i][j]
            ki, ej, fj = mats[("K", i)], mats[("E", j)], mats[("F", j)]
            if ki.mul(ej) != ej.mul(ki).scale(qpow(aij)):
                fails.append("K%d E%d scaling" % (i, j))
            if ki.mul(fj) != fj.mul(ki).scale(qpow(-aij)):
                fails.append("K%d F%d scaling" % (i, j))
            ei = mats[("E", i)]
            comm = ei.mul(fj).sub(fj.mul(ei)).scale(QHAT)
            want = mats[("K", i)].sub(mats[("Kinv", i)]) if i == j else zero
            if comm != want:
                fails.append("commutator E%d F%d" % (i, j))
            if i != j:
                for kind in ("E", "F"):
                    a, b = mats[(kind, i)], mats[(kind, j)]
                    if aij == 0:
                        ok = a.mul(b) == b.mul(a)
                    else:
                        ok = (a.mul(a).mul(b)
                              .sub(a.mul(b).mul(a).scale(Q + QINV))
                              .add(b.mul(a).mul(a))).is_zero()
                    if not ok:
                        fails.append("serre %s%d %s%d" % (kind, i, kind, j))
    return fails


def weight_support_failures():
    """Each raising matrix must move weight spaces by exactly its simple root,
    and the module's weights, read off the K_i (k_exponents), must be the
    D5 pairings of the radical-root family: the 16 positive E6 roots with
    alpha_1-coefficient 1, paired by the Gram form, not through rd.WT."""
    fails = []
    for i in rd.IPRIME:
        for (r, c), _ in chevalley_action("E", i).entries.items():
            if rd.WT[SPIN_BASIS[r]] != rd.wadd(rd.WT[SPIN_BASIS[c]], rd.ALPHA[i]):
                fails.append("E%d moves %s to %s" % (i, rd.label(SPIN_BASIS[c]),
                                                     rd.label(SPIN_BASIS[r])))
    radical = sorted(rd.pairings(r) for r in rd.roots(range(1, 7)) if r[1] == 1)
    if sorted(zip(*k_exponents())) != radical:
        fails.append("weight multiset differs from the radical-root family")
    return fails


def irreducibility_check():
    """Irreducibility with the spin highest weight by fact (a) of the
    rootdata docstring (tests keep the lowering closure as the reference):
    the module is type 1 (relation_failures), so u_e, of weight lambda
    (k_exponents) and killed by every E_i, spans L(lambda), all 16
    dimensions when lambda is the spin weight, pairings(WT[0])."""
    top = SPIN_INDEX[0]
    fails = ["E%d does not kill the top vector" % i for i in rd.IPRIME
             if any(c == top for (_, c) in chevalley_action("E", i).entries)]
    lam = tuple(k[top] for k in k_exponents())
    dim = rd.weyl_dim(lam) if min(lam) >= 0 else None
    if lam != rd.pairings(rd.WT[0]) or dim != DIM:
        fails.append("top weight %s (dimension %s) is not the spin weight" % (lam, dim))
    return not fails, fails


def phi_scalars():
    """Diagonal scalars (-q)^(ht(empty) - ht(I)) of the module isomorphism."""
    top = rd.HEIGHT_B[0]
    return {m: neg_qpow(top - rd.HEIGHT_B[m]) for m in SPIN_BASIS}


def phi_check(mats, gen_mask):
    """The diagonal rescaling phi intertwines the adjoint action on the span
    of the 16 cell generators with the half-spin matrices, for every
    Chevalley generator.  `mats` is that action as {(kind, i): SparseMat}
    (adjoint.generator_matrices, read off ad_E, ad_F and ad_K on each
    generator), and generator g spans the subset
    gen_mask[g]; phi sends it to phi_scalars()[gen_mask[g]] u_gen_mask[g]."""
    scal = phi_scalars()
    phi = SparseMat(DIM, len(gen_mask),
                    {(SPIN_INDEX[m], g): scal[m] for g, m in enumerate(gen_mask)})
    fails = []
    for kind in ("E", "F", "K"):
        for i in rd.IPRIME:
            if chevalley_action(kind, i).mul(phi) != phi.mul(mats[(kind, i)]):
                fails.append("%s%d does not intertwine" % (kind, i))
    return not fails, fails
