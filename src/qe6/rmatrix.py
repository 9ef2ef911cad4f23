"""Braiding operator on the tensor square of the spin module.

The operator is assembled exactly as an ordered product of twenty q-exponential
factors (each truncating after its linear term because the root vectors square
to zero on the module), followed by the weight-pairing diagonal and the flip.
Everything downstream is then checked against it: the closed coefficient
table, the braid identity, module-map equivariance, and the eigenspace that
recovers the quadratic relations of the 16-generator cell algebra.

16 (x) 16 = 120 + 126 + 10 is multiplicity-free and the braiding acts on each
summand by a signed power of q, so it satisfies the cubic
(R + 1)(R - q^2)(R - q^-6) = 0.  That identity, checked exactly, is the
invertibility proof: its constant term is q^-4, a unit, so
R^-1 = -q^4 (R^2 + (1 - q^2 - q^-6) R + (q^-4 - q^2 - q^-6)) over Z[q, q^-1].

Three of the checks rest on one module-map argument.  V is a type-1
U_q(so10)-module (the spinrep defining-relation check) on which each K_i
acts diagonally by powers of q, so basis tensors are weight vectors.  Each
tensor power of V is a finite-dimensional type-1 module, so by fact (c) of
the semisimplicity argument in the rootdata docstring a map that commutes
with every F_j vanishes once it kills the basis tensors of dominant weight
(dominant_failures).  The braiding commutes with the coproduct action of
every generator (commutant_failures: the diagonal K_i entry by entry, F_i
as matrix products, and E_i on the dominant basis pairs by this argument).
The braid identity: by coassociativity R12 R23 R12 - R23 R12 R23 is a
module map of V (x) V (x) V, checked on its 91 dominant basis triples
(5 weights).  The cubic above: a polynomial in the braiding, checked on the
11 dominant basis pairs of V (x) V (3 weights).  The eigenspace: the seed
is a highest-weight vector, so its cyclic module is irreducible of Weyl
dimension 120, and it lies in the kernel of the module map R + 1 once the
seed does.  Each check applies the braiding to tens of vectors instead of
multiplying matrices.
"""

from functools import cache, partial, reduce
from operator import add

from .qcoeff import ONE, ZERO, QHAT, Q, qpow, neg_qpow, accumulate
from . import rootdata as rd
from .linalg import SparseMat, Echelon, dense_rank, sum_products
from .spinrep import (SPIN_BASIS, SPIN_INDEX, DIM, rho_matrix, chevalley_action,
                      k_exponents, phi_scalars)
from .schubert import presentation, rule_relation_vectors

TDIM = DIM * DIM


def tensor_index(mask_a, mask_b):
    return SPIN_INDEX[mask_a] * DIM + SPIN_INDEX[mask_b]


def tensor_masks(idx):
    return SPIN_BASIS[idx // DIM], SPIN_BASIS[idx % DIM]


def pair_label(idx):
    a, b = tensor_masks(idx)
    return [rd.label(a), rd.label(b)]


_FACTOR_ORDER = [(4, 5), (3, 5), (2, 5), (1, 5), (3, 4), (2, 4), (1, 4),
                 (2, 3), (1, 3), (1, 2)]

@cache
def build_rhat():
    """The exact 256x256 braiding matrix on the lex-ordered pair basis.

    Each q-exponential factor is I + N with N = (q - q^{-1}) E_ij (x) E_ji
    (or its primed twin) acting on the module: the series stops at its
    linear term because the square of every root vector acts as zero there.
    N has 16 nonzeros, so a factor is applied as acc + N acc, which equals
    (I + N) acc.
    """
    acc = SparseMat.identity(TDIM)
    # rightmost factor acts first: all primed factors, then the plain ones
    for kind in ("Eprime", "E"):
        for i, j in reversed(_FACTOR_ORDER):
            n = rho_matrix(kind, i, j).kron(rho_matrix(kind, j, i)).scale(QHAT)
            acc = acc.add(n.mul(acc))
    # weight-pairing diagonal, then the flip of tensor legs
    entries = {}
    for (r, c), v in acc.entries.items():
        a, b = tensor_masks(r)
        scaled = v * qpow(rd.INNER_WT[(a, b)])
        entries[(tensor_index(b, a), c)] = scaled
    return SparseMat(TDIM, TDIM, entries)


def rhat_coeff(mask_i, mask_j, mask_k, mask_l):
    """Coefficient of u_L (x) u_K in the image of u_I (x) u_J."""
    return build_rhat().get(tensor_index(mask_l, mask_k),
                            tensor_index(mask_i, mask_j))


def closed_form_coeff(mask_i, mask_j, mask_k, mask_l, printed_variant=False):
    """The case-analysis coefficient table.

    The default corrects a sign misprint in the published flip case: the term
    there reads (-q)^(ht(I,J)-ht(K,L)+1) but consistency (and this
    construction) force q^(ht(I,J)-ht(K,L)+1).  Passing printed_variant=True
    evaluates the literal published expression instead.
    """
    if (mask_i | mask_j, mask_i & mask_j) != (mask_k | mask_l, mask_k & mask_l):
        return ZERO
    if not rd.LEQ[(mask_i, mask_k)]:
        return ZERO
    if (mask_k, mask_l) == (mask_i, mask_j):
        return qpow(rd.INNER_WT[(mask_i, mask_j)])
    delta = rd.HT_PAIR[(mask_i, mask_j)] - rd.HT_PAIR[(mask_k, mask_l)] + 1
    if (mask_k, mask_l) == (mask_j, mask_i):
        size = rd.class_of(mask_i, mask_j).size
        if size == 8:
            term = neg_qpow(delta) if printed_variant else qpow(delta)
            return QHAT * (Q - term)
        return QHAT * Q
    return QHAT * neg_qpow(delta)


def coeff_check():
    """Entrywise comparison of the construction against the coefficient table
    on every in-class entry, and the support condition in the same pass: a
    nonzero entry anywhere but at a comparable pair K >= I inside one class
    is a support violation.

    Also evaluates the literal printed flip-case expression and reports where
    it departs, pinning the misprint down to exactly the comparable flip
    positions inside the size-8 classes.
    """
    rhat = build_rhat()
    mismatches = []
    printed_diffs = []
    allowed = set()
    for cls in rd.CLASSES:
        for (mi, mj), _ in cls:
            col = tensor_index(mi, mj)
            for (mk, ml), _ in cls:
                row = tensor_index(ml, mk)
                if rd.LEQ[(mi, mk)]:
                    allowed.add((row, col))
                got = rhat.get(row, col)
                want = closed_form_coeff(mi, mj, mk, ml)
                if got != want:
                    mismatches.append({"I": rd.label(mi), "J": rd.label(mj),
                                       "K": rd.label(mk), "L": rd.label(ml),
                                       "got": str(got), "want": str(want)})
                printed = closed_form_coeff(mi, mj, mk, ml, printed_variant=True)
                if printed != want:
                    printed_diffs.append({"I": rd.label(mi), "J": rd.label(mj),
                                          "K": rd.label(mk), "L": rd.label(ml),
                                          "constructed": str(want),
                                          "printed_expression": str(printed)})
    violations = [{"row": pair_label(r), "col": pair_label(c)}
                  for r, c in rhat.entries if (r, c) not in allowed]
    return {
        "entries_checked": TDIM * TDIM,
        "mismatches": mismatches,
        "support_violations": violations,
        "support_ok": not violations,
        "printed_flip_diff_count": len(printed_diffs),
        "printed_flip_diffs": printed_diffs[:4],
        "ok": not mismatches and not violations,
    }


def dominant_tuples(n):
    """The basis tuples (a_1, ..., a_n) of V^(x)n of dominant weight, in lex
    order, each with its weight: the summed K_i exponents (k_exponents), all
    >= 0.  Prefixes are grouped by weight, so each sum is formed once a group."""
    wts = list(zip(*k_exponents()))
    level = {(0,) * len(rd.IPRIME): [()]}
    for step in range(n):
        grown = {}
        for weight, tups in level.items():
            for a, wt in enumerate(wts):
                total = tuple(map(add, weight, wt))
                if step < n - 1 or min(total) >= 0:
                    grown.setdefault(total, []).extend(tup + (a,) for tup in tups)
        level = grown
    return sorted((tup, weight) for weight, tups in level.items() for tup in tups)


def dominant_failures(tuples, differs):
    """Lazily, each (tuple, weight) of `tuples` (from dominant_tuples) whose
    basis tensor the module map D does not kill: differs(vec) is D(vec), or
    true exactly when D(vec) != 0.  D = 0 when it yields none (fact (c))."""
    for tup, weight in tuples:
        if differs({reduce(lambda idx, a: idx * DIM + a, tup): ONE}):
            yield tup, weight


def apply_r12(rhat, vec):
    """R12 = rhat (x) 1 applied to a vector {index: LaurentPoly} of
    V (x) V (x) V, through rhat's nonzeros indexed by column."""
    return sum_products(rhat.by_col(),
                        ((idx // DIM, x, idx % DIM) for idx, x in vec.items()), DIM)


def apply_r23(rhat, vec):
    """R23 = 1 (x) rhat applied to a vector of V (x) V (x) V, as apply_r12."""
    return sum_products(rhat.by_col(),
                        ((idx % TDIM, x, idx // TDIM * TDIM) for idx, x in vec.items()))


def ybe_check(failures):
    """The braid identity R12 R23 R12 = R23 R12 R23 on V (x) V (x) V, exactly,
    by the module-map argument of the module docstring.

    (a) `failures` is commutant_failures of the braiding.  When it is empty,
    R12 and R23 commute with the action of every generator on
    V (x) V (x) V, the coproduct being coassociative and an algebra map, and
    so does D = R12 R23 R12 - R23 R12 R23.

    (b) D kills every basis triple u_a (x) u_b (x) u_c of dominant weight
    (dominant_failures): 91 of the 4096, across 5 weights.  R12 and R23 act
    through the braiding's nonzeros (apply_r12, apply_r23), under the
    raw-accumulate rule of the qcoeff module docstring.

    The report names the first failing triple with its weight, and the
    generators that fail (a).
    """
    rhat = build_rhat()
    r12, r23 = partial(apply_r12, rhat), partial(apply_r23, rhat)
    columns = dominant_tuples(3)
    failing = [{"triple": [rd.label(SPIN_BASIS[x]) for x in triple], "weight": list(weight)}
               for triple, weight in dominant_failures(
                   columns, lambda e: r12(r23(r12(e))) != r23(r12(r23(e))))]
    return {"ok": not failures and not failing,
            "commutant_failures": failures,
            "columns_checked": len(columns),
            "dominant_weights": len({weight for _, weight in columns}),
            "failing_columns": len(failing),
            "first_failure": failing[0] if failing else None}


@cache
def coproduct_action(kind, i):
    """Action of one Chevalley generator on the tensor square, built once."""
    eye = SparseMat.identity(DIM)
    if kind == "E":
        return (chevalley_action("Kinv", i).kron(chevalley_action("E", i))
                .add(chevalley_action("E", i).kron(eye)))
    if kind == "F":
        return (eye.kron(chevalley_action("F", i))
                .add(chevalley_action("F", i).kron(chevalley_action("K", i))))
    if kind == "K":
        return chevalley_action("K", i).kron(chevalley_action("K", i))
    raise ValueError(kind)


def class_kernel_dim(mat):
    """Exact kernel dimension of a 256x256 matrix supported, like the
    braiding, inside the pair-class blocks.  A block is ranked once per
    call however often it recurs: the ten octet blocks of the braiding plus
    a scalar are all equal."""
    ranks = {}
    dim = 0
    for cls in rd.CLASSES:
        idxs = [tensor_index(a, b) for (a, b) in cls.members]
        block = tuple(tuple(mat.get(r, c) for c in idxs) for r in idxs)
        if block not in ranks:
            ranks[block] = dense_rank(block)
        dim += len(idxs) - ranks[block]
    return dim


def commutant_failures(rhat):
    """Names of the generators E_i, F_i, K_i (i in IPRIME) whose coproduct
    action on the tensor square does not commute with `rhat`, in that order.

    Delta(K_i) = K_i (x) K_i is diagonal, q^k_r on pair r, so
    (K R - R K)_rc = (q^k_r - q^k_c) R_rc, which over the domain
    Z[q, q^-1] vanishes exactly when R_rc = 0 or k_r = k_c: K_i is tested
    entry by entry.  F_i is tested as matrix products.

    When every K_j and F_j commutes with R, D = R E_i - E_i R commutes with
    every F_j: the coproduct is an algebra map, so on V (x) V
    E_i F_j - F_j E_i = delta_ij [K_i], and R commutes with
    [K_i] = (K_i - K_i^-1)/(q - q^-1).  So by the module docstring's
    argument D = 0 once it kills the 11 dominant basis pairs, and E_i is
    tested on those (dominant_failures).  Otherwise E_i is tested as matrix
    products, like F_i.
    """
    k_fails = []
    for i, exps in zip(rd.IPRIME, k_exponents()):
        pair = [x + y for x in exps for y in exps]
        if any(pair[r] != pair[c] for r, c in rhat.entries):
            k_fails.append("K%d" % i)
    f_fails = ["F%d" % i for i in rd.IPRIME
               if not coproduct_action("F", i).commutes_with(rhat)]
    pairs = dominant_tuples(2)

    def commutes(e):
        if k_fails or f_fails:
            return e.commutes_with(rhat)
        return not any(dominant_failures(
            pairs, lambda v: rhat.apply(e.apply(v)) != e.apply(rhat.apply(v))))
    e_fails = ["E%d" % i for i in rd.IPRIME if not commutes(coproduct_action("E", i))]
    return e_fails + f_fails + k_fails


# the braiding's eigenvalues on the summands 120, 126 and 10 of 16 (x) 16
EIGENVALUES = (-ONE, qpow(2), qpow(-6))


def equivariance_check(failures):
    """The braiding commutes with the whole acting algebra and is invertible:
    the cubic, the product of (braiding - lambda) over EIGENVALUES, is
    exactly zero.

    `failures` is commutant_failures of the braiding.  When it is empty the
    cubic, a polynomial in the braiding, is a module map of V (x) V, so (as
    in ybe_check) it is zero once it kills the 11 dominant basis pairs
    (dominant_failures), each carried through the three factors as a vector.
    `invertible` holds when both hold."""
    rhat = build_rhat()

    def cubic(vec):
        for lam in EIGENVALUES:
            image = rhat.apply(vec)
            for k, v in vec.items():
                accumulate(image, k, -lam * v)
            vec = image
        return vec

    pairs = dominant_tuples(2)
    invertible = not failures and not any(dominant_failures(pairs, cubic))
    return {"ok": invertible,
            "commutant_failures": failures,
            "invertible": invertible,
            "columns_checked": len(pairs),
            "eigenvalues": [str(lam) for lam in EIGENVALUES]}


def transported_relation_vectors():
    """Quadratic relations of the 16-generator cell algebra, carried into the
    tensor square through the module isomorphism."""
    pres = presentation("w")
    scal = phi_scalars()
    vectors = []
    for pair, vec in rule_relation_vectors(pres):
        out = {}
        for (g, h), c in vec.items():
            a, b = pres.gen_mask[g], pres.gen_mask[h]
            out[tensor_index(a, b)] = c * scal[a] * scal[b]
        vectors.append((pair, out))
    return vectors


def generator_vector():
    """u_12 (x) u_e - q u_e (x) u_12, the seed of the negative eigenspace."""
    m12 = rd.mask_of([1, 2])
    return {tensor_index(m12, 0): ONE, tensor_index(0, m12): -Q}


def eigen_split(failures):
    """Kernel of (braiding + 1): dimension, seed membership, module closure,
    and equality with the transported quadratic relation span.

    `failures` is commutant_failures of the braiding.  The seed's cyclic
    module U.seed is decided by a highest-weight certificate, not spanned.
    When the seed is nonzero, of one weight lambda and killed by every
    Delta(E_i), U.seed is L(lambda), of dimension rootdata.weyl_dim(lambda),
    by fact (a) of the semisimplicity argument in the rootdata docstring
    (closure_dim, None without the certificate).  When also
    `failures` is empty, R + 1 is a module map, so U.seed lies in its kernel
    once the seed does (closure_in_kernel).
    """
    rhat = build_rhat()
    mplus = rhat.add(SparseMat.identity(TDIM))
    kernel_dim = class_kernel_dim(mplus)
    seed = generator_vector()
    seed_in = not mplus.apply(seed)
    k = k_exponents()
    weights = {tuple(e[idx // DIM] + e[idx % DIM] for e in k)
               for idx, x in seed.items() if x}
    lam = weights.pop() if len(weights) == 1 else None
    highest = (lam is not None and min(lam) >= 0 and
               not any(coproduct_action("E", i).apply(seed) for i in rd.IPRIME))
    closure_dim = rd.weyl_dim(lam) if highest else None
    closure_in_kernel = seed_in and not failures

    def key_of(vec):
        a, b = tensor_masks(min(vec))
        return rd.wadd(rd.WT[a], rd.WT[b])

    relations = transported_relation_vectors()
    rel_ech = {}
    rel_rank = 0
    rel_in_kernel = True
    for _, vec in relations:
        if mplus.apply(vec):
            rel_in_kernel = False
        ech = rel_ech.setdefault(key_of(vec), Echelon())
        if ech.add(vec):
            rel_rank += 1
    ok = (kernel_dim == 120 and seed_in and closure_dim == 120 and
          closure_in_kernel and rel_rank == 120 and rel_in_kernel)
    return {
        "kernel_dim": kernel_dim,
        "expected_kernel_dim": 120,
        "seed_in_kernel": seed_in,
        "closure_dim": closure_dim,
        "closure_in_kernel": closure_in_kernel,
        "relation_span_dim": rel_rank,
        "relations_in_kernel": rel_in_kernel,
        "complement_dim": TDIM - kernel_dim,
        "ok": ok,
    }


def rhat_json():
    rhat = build_rhat()
    return {
        "basis": [pair_label(i) for i in range(TDIM)],
        "entries": [{"r": r, "c": c, "value": v.to_json()}
                    for (r, c), v in sorted(rhat.entries.items())],
    }


def rhat_csv():
    rhat = build_rhat()
    lines = ["row,col,row_first,row_second,col_first,col_second,value"]
    for (r, c), v in sorted(rhat.entries.items()):
        ra, rb = pair_label(r)
        ca, cb = pair_label(c)
        lines.append("%d,%d,%s,%s,%s,%s,%s" % (r, c, ra, rb, ca, cb, str(v).replace(" ", "")))
    return "\n".join(lines) + "\n"
