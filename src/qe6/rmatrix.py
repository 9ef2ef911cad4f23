"""Braiding operator on the tensor square of the spin module.

The operator is assembled exactly as an ordered product of twenty q-exponential
factors (each truncating after its linear term because the root vectors square
to zero on the module), followed by the weight-pairing diagonal and the flip.
Everything downstream is then checked against it: the closed coefficient
table, the braid identity, module-map equivariance, and the eigenspace that
recovers the quadratic relations of the 16-generator cell algebra.

The braid identity is proved without forming an operator on the triple
tensor power.  The braiding commutes with the coproduct action of every
generator (commutant_failures, shared with equivariance_check), so by
coassociativity R12 R23 R12 - R23 R12 R23 is a module map of
V (x) V (x) V.  That module is semisimple and each summand is generated by a
highest-weight vector of dominant weight, so the difference vanishes once it
kills the dominant weight spaces: 91 basis triples across 5 weights.

16 (x) 16 = 120 + 126 + 10 is multiplicity-free and the braiding acts on each
summand by a signed power of q, so it satisfies the cubic
(R + 1)(R - q^2)(R - q^-6) = 0.  That identity, checked exactly, is the
invertibility proof: its constant term is q^-4, a unit, so
R^-1 = -q^4 (R^2 + (1 - q^2 - q^-6) R + (q^-4 - q^2 - q^-6)) over Z[q, q^-1].
"""

from functools import cache
from itertools import product

from .qcoeff import ONE, ZERO, QHAT, Q, qpow, neg_qpow, accumulate
from . import rootdata as rd
from .linalg import SparseMat, Echelon, bareiss_rank, cyclic_span
from .spinrep import SPIN_BASIS, SPIN_INDEX, DIM, rho_matrix, chevalley_action, phi_scalars

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
    """Entrywise comparison of the construction against the coefficient table.

    Also evaluates the literal printed flip-case expression and reports where
    it departs, pinning the misprint down to exactly the comparable flip
    positions inside the size-8 classes.
    """
    rhat = build_rhat()
    mismatches = []
    printed_diffs = []
    seen = set()
    for cls in rd.CLASSES:
        for (mi, mj), _ in cls:
            col = tensor_index(mi, mj)
            for (mk, ml), _ in cls:
                row = tensor_index(ml, mk)
                seen.add((row, col))
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
    stray = [k for k in rhat.entries if k not in seen]
    support_ok = not stray
    return {
        "entries_checked": TDIM * TDIM,
        "mismatches": mismatches,
        "support_violations": [
            {"row": pair_label(r), "col": pair_label(c)} for r, c in stray],
        "support_ok": support_ok,
        "printed_flip_diff_count": len(printed_diffs),
        "printed_flip_diffs": printed_diffs[:4],
        "ok": not mismatches and support_ok,
    }


def support_check():
    """Nonzero entries only connect comparable pairs inside one class."""
    rhat = build_rhat()
    bad = []
    for (row, col) in rhat.entries:
        mk_l, mk_k = tensor_masks(row)
        mi, mj = tensor_masks(col)
        same_class = (mi | mj, mi & mj) == (mk_k | mk_l, mk_k & mk_l)
        if not (same_class and rd.LEQ[(mi, mk_k)]):
            bad.append({"row": pair_label(row), "col": pair_label(col)})
    return {"ok": not bad, "violations": bad}


def ybe_check(failures):
    """The braid identity R12 R23 R12 = R23 R12 R23 on V (x) V (x) V, exactly.

    (a) The braiding commutes with the coproduct action of E_i, F_i and K_i
    on V (x) V (commutant_failures).  The coproduct is coassociative and an
    algebra map, so R12 and R23 both commute with the action of every
    generator on V (x) V (x) V, and so does their difference
    D = R12 R23 R12 - R23 R12 R23.

    (b) D kills every basis triple u_a (x) u_b (x) u_c of dominant weight: the
    summed exponents of the diagonal K_i, read from the same action as in
    (a), are all >= 0.  R12 and R23 act through the braiding's nonzeros,
    indexed once by column.

    V is a type-1 U_q(so10)-module (the spinrep defining-relation check) on
    which each K_i acts diagonally by powers of q, so the basis triples are
    weight vectors.  Finite-dimensional type-1 modules over Q(q) are
    semisimple (Jantzen, Lectures on Quantum Groups, ch. 5), and each summand
    of V (x) V (x) V is generated by a highest-weight vector, whose weight is
    dominant.  D is a module map by (a) and kills the dominant weight spaces
    by (b), so it kills every summand: D = 0.  Of the 4096 triples, 91 are
    dominant, across 5 weights.  `failures` is commutant_failures of the
    braiding, the result of (a).  The report names the first failing triple
    with its weight, and the generators that fail (a).
    """
    by_col = build_rhat().by_col()

    def r12(vec):
        out = {}
        for idx, x in vec.items():
            pair, c = divmod(idx, DIM)
            for row, v in by_col.get(pair, ()):
                accumulate(out, row * DIM + c, v * x)
        return out

    def r23(vec):
        out = {}
        for idx, x in vec.items():
            a, pair = divmod(idx, TDIM)
            for row, v in by_col.get(pair, ()):
                accumulate(out, a * TDIM + row, v * x)
        return out

    k_exps = [[chevalley_action("K", i).get(m, m).max_exp() for m in range(DIM)]
              for i in rd.IPRIME]
    columns = 0
    weights = set()
    failing = []
    for a, b, c in product(range(DIM), repeat=3):
        weight = [exps[a] + exps[b] + exps[c] for exps in k_exps]
        if min(weight) < 0:
            continue
        columns += 1
        weights.add(tuple(weight))
        e = {(a * DIM + b) * DIM + c: ONE}
        if r12(r23(r12(e))) != r23(r12(r23(e))):
            failing.append({"triple": [rd.label(SPIN_BASIS[x]) for x in (a, b, c)],
                            "weight": weight})
    return {"ok": not failures and not failing,
            "commutant_failures": failures,
            "columns_checked": columns,
            "dominant_weights": len(weights),
            "failing_columns": len(failing),
            "first_failure": failing[0] if failing else None}


def coproduct_action(kind, i):
    """Action of one Chevalley generator on the tensor square."""
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
    braiding, inside the pair-class blocks."""
    dim = 0
    for cls in rd.CLASSES:
        idxs = [tensor_index(a, b) for (a, b) in cls.members]
        dim += len(idxs) - bareiss_rank([[mat.get(r, c) for c in idxs] for r in idxs])
    return dim


def commutant_failures(rhat):
    """Names of the generators E_i, F_i, K_i (i in IPRIME) whose coproduct
    action on the tensor square does not commute with `rhat`."""
    return ["%s%d" % (kind, i) for kind in ("E", "F", "K") for i in rd.IPRIME
            if not coproduct_action(kind, i).commutes_with(rhat)]


# the braiding's eigenvalues on the summands 120, 126 and 10 of 16 (x) 16
EIGENVALUES = (-ONE, qpow(2), qpow(-6))


def equivariance_check(failures):
    """The braiding commutes with the whole acting algebra and is invertible:
    the product of (braiding - lambda) over EIGENVALUES is exactly zero.
    `failures` is commutant_failures of the braiding."""
    rhat = build_rhat()
    eye = SparseMat.identity(TDIM)
    cubic = eye
    for lam in EIGENVALUES:
        cubic = cubic.mul(rhat.sub(eye.scale(lam)))
    invertible = cubic.is_zero()
    return {"ok": not failures and invertible,
            "commutant_failures": failures,
            "invertible": invertible,
            "eigenvalues": [str(lam) for lam in EIGENVALUES]}


def transported_relation_vectors():
    """Quadratic relations of the 16-generator cell algebra, carried into the
    tensor square through the module isomorphism."""
    from .schubert import presentation, rule_relation_vectors
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


def eigen_split():
    """Kernel of (braiding + 1): dimension, seed membership, module closure,
    and equality with the transported quadratic relation span."""
    rhat = build_rhat()
    mplus = rhat.add(SparseMat.identity(TDIM))
    kernel_dim = class_kernel_dim(mplus)
    seed = generator_vector()
    seed_in = not mplus.apply(seed)

    def key_of(vec):
        a, b = tensor_masks(min(vec))
        return rd.wadd(rd.WT[a], rd.WT[b])

    # closure of the seed under the tensor-square action
    ops = [coproduct_action(k, i).apply for k in ("E", "F") for i in rd.IPRIME]
    closure = cyclic_span(seed, ops, key_of)
    closure_in_kernel = all(not mplus.apply(v) for v in closure)

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
    ok = (kernel_dim == 120 and seed_in and len(closure) == 120 and
          closure_in_kernel and rel_rank == 120 and rel_in_kernel)
    return {
        "kernel_dim": kernel_dim,
        "expected_kernel_dim": 120,
        "seed_in_kernel": seed_in,
        "closure_dim": len(closure),
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
