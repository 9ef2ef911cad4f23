"""Relation engine for the universal bialgebra built on the braiding.

Degree-2 generators are matrix entries X[row, col] indexed by two subsets.
Quadratic relations come straight from the braiding coefficients; they are
bihomogeneous, so every computation happens inside small (row class, column
class) blocks.  On top sit the row and two-row subalgebra presentations, the
rank facts from the published proofs, and the homomorphism/kernel checks that
tie the rows back to the (twisted) quantum Schubert cell algebras.

Every relation reads the braiding from one table per pair class, built once
from the braiding matrix (_braiding_tables), and every stated straightening
relation attaches its rows to a template built from root data alone
(_straight_template).  The braiding's coefficients repeat from block to
block (every row class has coefficient q^2, every admissible pair
(q^2 - 1, q), and all octet matrices are equal), so the 318 blocks of a
two-row presentation are copies of six blocks up to an order-preserving
renaming of their words.  A process eliminates each distinct block once
(_eliminated; the 96 row and two-row presentations share 6), and every copy
holds that echelon over word numbers with its own numbering of its words
(_relation_block).  This is exact: elimination and span comparison look at
words only through their order, so a renamed copy has the renamed echelon
and the same verdict.

Coefficients are canonical: every coefficient a relation vector holds is the
one object of its value (_canonical), and a sum where two words of a
relation meet comes from one cached add (_sum), so copies of a block hold
the same objects and a hit of _eliminated compares its key by identity.
Equality is still by value: an equal coefficient held in another object
matches the same key, only more slowly.

Both kernel theorems are one routine, _kernel_check, over a tuple of rows:
one row for the cell algebra "w" (psi_S_check), an admissible pair for the
twisted affine "what" (psi_ST_check).  Rows enter the relations only
through the braiding coefficients of row_coefficients, one table for all
16 rows and one for all 80 admissible pairs, so the verify suite decides
each sweep on a template row set and certifies the others by their tables.
Their degree-3 cross-check, degree3_quotient_dim, counts the kernel ideal
on its dominant weights alone (adjoint.semisimple_dim).  Both are verdicts,
kept by verify's fact table (checks.Facts) for one run, never cached here.
"""

from functools import cache

from .qcoeff import ONE, ZERO, QHAT, Q, QINV, qpow, neg_qpow, accumulate_all
from . import rootdata as rd
from .linalg import Echelon, dense_rank, spans_equal
from .rmatrix import rhat_coeff
from .schubert import (presentation, rule_relation_vectors, NCPoly, multiply,
                       hilbert_dim, q_degree, twist, correction_terms)
from .adjoint import theta, submodule_span, build_omega, semisimple_dim


@cache
def _canonical(coeff):
    """The one object of coeff's value that relation vectors hold."""
    return coeff


@cache
def _sum(a, b):
    """a + b as its canonical object: the add where words of a relation meet."""
    return _canonical(a + b)


@cache
def _braiding_tables():
    """The braiding read once, class by class, for frt_relation: two dicts
    over all 256 ordered pairs.  The row side maps (a, b) to the nonzero
    (k, l, R^kl_ab) over (k, l) in class_of(a, b); the column side maps
    (i, j) to the nonzero (k, l, -R^ij_kl), negated once here.  Both list
    (k, l) in class order, and both hold canonical coefficients (24 distinct
    values).  R^kl_ab is rhat_coeff(k, l, a, b); R is zero off its class
    (bihomogeneity), so these 976 lookups read all of it."""
    row_side, col_side = {}, {}
    for cls in rd.CLASSES:
        for a, b in cls.members:
            for k, l in cls.members:
                coeff = rhat_coeff(k, l, a, b)
                if coeff:
                    row_side.setdefault((a, b), []).append((k, l, _canonical(coeff)))
                    col_side.setdefault((k, l), []).append((a, b, _canonical(-coeff)))
    return row_side, col_side


def frt_relation(s, t, i, j):
    """One defining relation of the ambient bialgebra, as a sparse vector
    over degree-2 words ((row, col), (row, col)):

        sum over (k, l) in class_of(t, s) of R^kl_ts X[k, i] X[l, j]
      - sum over (k, l) in class_of(i, j) of R^ij_kl X[s, l] X[t, k].

    The first sum's coefficients are read from the row side of
    _braiding_tables at (t, s), the second's, already negated, from its
    column side at (i, j).  Within a sum the words are distinct; a word of
    the second sum can meet one of the first, so it is accumulated."""
    row_side, col_side = _braiding_tables()
    vec = {((k, i), (l, j)): coeff for k, l, coeff in row_side[(t, s)]}
    accumulate_all(vec, ((((s, l), (t, k)), coeff) for k, l, coeff in col_side[(i, j)]),
                   _sum)
    return vec


# --- stated relation sets (built from root data only, independent of R) ------

@cache
def _straight_template(i, j, mixed):
    """The terms of _straight_vector over row positions, from root data
    only: ((x, l, y, m), coefficient) for the word ((rows[x], l),
    (rows[y], m)), rows = (row_a, row_b).  Terms that meet on one word,
    here or once rows are attached, are summed, never overwritten.  The
    coefficients are canonical."""
    power = rd.INNER_WT[(i, j)] - (1 if mixed else 0)
    terms = {(0, i, 1, j): _canonical(ONE)}
    accumulate_all(terms, [((1, j, 0, i), _canonical(-qpow(power)))]
                   + [((0, l, 1, m), _canonical(-coeff))
                      for (l, m), coeff in correction_terms(i, j, mixed)], _sum)
    return tuple(terms.items())


def _straight_vector(i, j, row_a, row_b, mixed):
    """Stated straightening relation with rows attached to each factor."""
    rows = (row_a, row_b)
    vec = {}
    accumulate_all(vec, ((((rows[x], l), (rows[y], m)), coeff)
                         for (x, l, y, m), coeff in _straight_template(i, j, mixed)), _sum)
    return vec


@cache
def _octet_power(h):
    """(-q)^h, the coefficients of the octet relations, as canonical objects."""
    return _canonical(neg_qpow(h))


def stated_row_relations(s, cls):
    """Published single-row relations supported on one column class."""
    out = [_straight_vector(i, j, s, s, mixed=False)
           for i, j in cls.members if not rd.LEQ[(j, i)]]
    if cls.size == 8:
        _, _, pairs = octet_pattern(cls)
        out.append({((s, i), (s, j)): _octet_power(h) for h, (i, j) in enumerate(pairs[:4])})
    return out


def stated_mixed_relations(s, t, cls):
    """Published two-row mixed relations supported on one column class."""
    out = [_straight_vector(i, j, s, t, mixed=True) for i, j in cls.members]
    if cls.size == 8:
        out.append({((s, i), (t, j)): _octet_power(h)
                    for (i, j), h in zip(cls.members, cls.heights)})
    return out


def _vector(flat):
    """The sparse vector {number: coefficient} of a flat numbered vector."""
    half = len(flat) // 2
    return dict(zip(flat[:half], flat[half:]))


@cache
def _eliminated(vecs, computed):
    """The echelon (read, never added to) of a numbered block's first
    `computed` vectors, and whether they span what the rest, its stated
    ones, do (_relation_block)."""
    ech = Echelon()
    ech.add_all(map(_vector, vecs[:computed]))
    return ech, spans_equal(ech, list(map(_vector, vecs[computed:])))


def _relation_block(cls, computed, stated):
    """One column-class block: the echelon of the computed relations and the
    verdict that they span the same space as the stated ones.

    The block's words are numbered in sorted order (its `numbering`, word
    -> number).  The block is keyed by the count of its computed vectors
    and by one tuple of its computed and stated vectors over those numbers,
    each flat: its words' numbers, then its coefficients, in the order the
    vector holds its terms.  So every block with one key holds the one
    Echelon that _eliminated keeps for the process.  A key is exact: equal
    keys are equal blocks up to the numbering.  Copies of a block are built
    by one code path in one order, so they share a key; equal content held
    in another order would only be eliminated again.  Echelon and
    spans_equal compare words only by order, and the numbering keeps the
    order, so the echelon over numbers, renamed by the numbering, is the
    block's own echelon, and the rank and the verdict are the block's own.
    A vector is in the block's span exactly when its words are all numbered
    and its numbered vector is in the echelon: reduction never removes a
    word that no echelon row holds.
    """
    vecs = computed + stated
    words = sorted(set().union(*vecs))
    number = dict(zip(words, range(len(words))))
    get = number.__getitem__
    ech, stated_ok = _eliminated(tuple([(*map(get, vec), *vec.values()) for vec in vecs]),
                                 len(computed))
    return {"class_head": cls.head, "size": cls.size, "rank": ech.rank,
            "stated_count": len(stated), "stated_ok": stated_ok, "echelon": ech,
            "numbering": number}


def failing_blocks(blocks):
    """The blocks whose computed span differs from the stated one, without
    their echelons."""
    return [{k: b[k] for k in ("class_head", "rank", "stated_count")}
            for b in blocks if not b["stated_ok"]]


def _row_presentation(s):
    blocks = [_relation_block(cls, [frt_relation(s, s, i, j) for i, j in cls.members],
                              stated_row_relations(s, cls))
              for cls in rd.CLASSES]
    return {"row": rd.label(s),
            "degree2_dim": sum(b["size"] - b["rank"] for b in blocks),
            "blocks": blocks, "ok": all(b["stated_ok"] for b in blocks)}


def row_presentation(s):
    """Blockwise relation bases of one row subalgebra, with the span-equality
    verdict against the published relation set and the degree-2 dimension."""
    return _row_presentation(s)


def row_coefficients(rows):
    """{(key a, key b, key k, key l): R^kl_ab != 0} over rows a, b of `rows`
    and (k, l) in class_of(a, b); a row's key is its position in `rows`, or
    its label (a string, never a position) for a row outside `rows`.

    Rows enter frt_relation only through its first sum, as these
    coefficients; its second sum, the stated relations, _kernel_check and
    kernel_module use rows only as labels of words.  So row sets with equal
    tables and no label key have the same presentation and kernel reports up
    to renaming rows, which changes no span, containment or rank.  A label
    key puts another row's word into a computed relation, which then spans
    no stated set: a passing template has none.  is_face is not covered.
    The coefficients are read from the row side of _braiding_tables.
    """
    key = {row: rows.index(row) if row in rows else rd.label(row) for row in rd.ALL_MASKS}
    row_side = _braiding_tables()[0]
    return {(key[a], key[b], key[k], key[l]): coeff
            for a in rows for b in rows for k, l, coeff in row_side[(a, b)]}


def admissible(s, t):
    """True when rows S and T differ by one move (|S delta T| = 2) and S < T."""
    return s != t and bin(s ^ t).count("1") == 2 and rd.LEQ[(s, t)]


def admissible_pairs():
    """All admissible (S, T)."""
    return [(s, t) for s in rd.ALL_MASKS for t in rd.ALL_MASKS if admissible(s, t)]


def two_row_presentation(s, t):
    """Blockwise relation bases of a two-row subalgebra and the span-equality
    verdict against the published set; requires an admissible (S, T).  The S
    and T groups are the blocks of the two row presentations; the mixed group
    has one block of the same form per column class."""
    if not admissible(s, t):
        raise ValueError("rows must differ by one move with S < T")
    row_s, row_t = _row_presentation(s), _row_presentation(t)
    mixed = [_relation_block(cls, [frt_relation(a, b, i, j) for a, b in ((s, t), (t, s))
                                   for i, j in cls.members],
                             stated_mixed_relations(s, t, cls))
             for cls in rd.CLASSES]
    dim = (row_s["degree2_dim"] + row_t["degree2_dim"]
           + sum(2 * b["size"] - b["rank"] for b in mixed))
    return {"rows": (rd.label(s), rd.label(t)), "degree2_dim": dim,
            "groups": {"S": row_s["blocks"], "T": row_t["blocks"], "mixed": mixed},
            "ok": row_s["ok"] and row_t["ok"] and all(b["stated_ok"] for b in mixed)}


# --- the published proof matrices --------------------------------------------

@cache
def octet_pattern(cls):
    """Monomial pattern of one size-8 class: firsts/seconds of the X vector
    (A1 a1, ..., A4 a4, a4 A4, ..., a1 A1) and the row-to-pair assignment.

    Heights pin the pairs of heights 1..3; of the two mutually-reversed
    height-4 members, the published table lists first the one whose first
    component has the larger lex code, and that one plays (a4, A4)."""
    by_height = {}
    for (i, j), h in cls:
        by_height.setdefault(h, []).append((i, j))
    a = {h: by_height[h][0][0] for h in (1, 2, 3)}
    A = {h: by_height[h][0][1] for h in (1, 2, 3)}
    a[4], A[4] = next(p for p in by_height[4]
                      if rd.LEXCODE[p[0]] > rd.LEXCODE[p[1]])
    firsts = [A[1], A[2], A[3], A[4], a[4], a[3], a[2], a[1]]
    seconds = [a[1], a[2], a[3], a[4], A[4], A[3], A[2], A[1]]
    pairs = [(a[1], A[1]), (a[2], A[2]), (a[3], A[3]), (a[4], A[4]),
             (A[4], a[4]), (A[3], a[3]), (A[2], a[2]), (A[1], a[1])]
    return firsts, seconds, pairs


def derive_octet_matrix(cls):
    """The 8x8 coefficient matrix of one octet class, read off the braiding."""
    firsts, seconds, pairs = octet_pattern(cls)
    return [[rhat_coeff(i, j, seconds[c], firsts[c]) for c in range(8)]
            for (i, j) in pairs]


def printed_octet_matrix():
    """The straightening matrix as printed in the source proof (including its
    one misprinted cell at row 4, column 6)."""
    qh, one, z = QHAT, ONE, ZERO
    return [
        [one, qh, -qh * QINV, qh * qpow(-2), qh * qpow(-2), -qh * qpow(-3),
         qh * qpow(-4), qh * (Q - qpow(-5))],
        [z, one, qh, -qh * QINV, -qh * QINV, qh * qpow(-2),
         qh * (Q - qpow(-3)), qh * qpow(-4)],
        [z, z, one, qh, qh, qh * qh, qh * qpow(-2), -qh * qpow(-3)],
        [z, z, z, one, z, one, -qh * QINV, qh * qpow(-2)],
        [z, z, z, z, one, qh, -qh * QINV, qh * qpow(-2)],
        [z, z, z, z, z, one, qh, -qh * QINV],
        [z, z, z, z, z, z, one, qh],
        [z, z, z, z, z, z, z, one],
    ]


def _skew(n, value):
    return [[value if r + c == n - 1 else ZERO for c in range(n)] for r in range(n)]


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def derive_two_row_matrix(octet_matrix, s, t):
    """The 16x16 mixed-block coefficient matrix of an octet class for an
    admissible row pair (S, T): the class's derive_octet_matrix in both
    diagonal blocks, adjusted by the pair's two braiding coefficients."""
    qhat_q = rhat_coeff(s, t, t, s)       # flip coefficient of the row class
    q_diag = rhat_coeff(t, s, t, s)       # straight coefficient
    mat = [[ZERO] * 16 for _ in range(16)]
    for r, row in enumerate(octet_matrix):
        mat[r][:8] = row
        mat[8 + r][8:] = row
        mat[r][7 - r] = mat[r][7 - r] - qhat_q
        mat[r][8 + 7 - r] = -q_diag
        mat[8 + r][7 - r] = -q_diag
    return mat


def assembled_two_row_matrix(a):
    """[[A - Skew(q qhat), Skew(-q)], [Skew(-q), A]] built from a derived A."""
    top = [row_a[:8] + row_s[:] for row_a, row_s in
           zip(_mat_sub(a, _skew(8, Q * QHAT)), _skew(8, -Q))]
    bottom = [row_s[:] + row_a[:8] for row_s, row_a in zip(_skew(8, -Q), a)]
    return top + bottom


def rank_checks():
    """Ranks of the proof matrices, their re-derivation from the braiding,
    and the comparison with the printed display.

    derive_two_row_matrix reads a pair (S, T) only through its two braiding
    coefficients rhat_coeff(S, T, T, S) and rhat_coeff(T, S, T, S), so the
    two-row matrix is derived for the first admissible pair alone.  Every
    pair derives the same matrix exactly when its two coefficients equal
    that pair's: the first shifts a fixed entry of A, the second is an entry
    of the matrix.  The four ranks are exact (dense_rank)."""
    derived = [derive_octet_matrix(c) for c in rd.OCTETS]
    consistent = all(m == derived[0] for m in derived[1:])
    a = derived[0]
    printed = printed_octet_matrix()
    diffs = [{"row": r + 1, "col": c + 1, "printed": str(printed[r][c]),
              "derived": str(a[r][c])}
             for r in range(8) for c in range(8) if printed[r][c] != a[r][c]]
    rank_a = dense_rank(_mat_sub(a, _skew(8, Q * Q)))
    rank_printed = dense_rank(_mat_sub(printed, _skew(8, Q * Q)))
    pairs = admissible_pairs()
    coeffs = [(rhat_coeff(s, t, t, s), rhat_coeff(t, s, t, s)) for s, t in pairs]
    two_row = derive_two_row_matrix(a, *pairs[0])
    assembled = assembled_two_row_matrix(a)
    two_rank = dense_rank(two_row)
    pairs_consistent = all(c == coeffs[0] for c in coeffs[1:])
    return {
        "octet_matrices_identical": consistent,
        "rank_straightening": rank_a,
        "rank_two_row": two_rank,
        "two_row_matches_assembled_form": two_row == assembled,
        "two_row_consistent_across_pairs": pairs_consistent,
        "display_diffs": diffs,
        "display_rank_as_printed": rank_printed,
        "plain_rank_unitriangular": dense_rank(a),
        "ok": (consistent and rank_a == 5 and two_rank == 9
               and two_row == assembled and pairs_consistent),
    }


# --- homomorphism and kernel checks -------------------------------------------

# a carried vector's group, by the rows its words use (bit n for rows[n])
_GROUPS = {1: "S", 2: "T", 3: "mixed"}


@cache
def kernel_module(algebra):
    """The degree-2 adjoint submodule that generates the kernel of the row
    map, in words of the cell algebra's generators: Theta's span for "w",
    the spans of Omega 3, 4 and 5 for "what"."""
    pres = presentation(algebra)
    tops = [theta()] if algebra == "w" else [build_omega(k) for k in (3, 4, 5)]
    return tuple(vec for top in tops for vec in submodule_span(top, pres))


def _kernel_check(rows, frt_rep, groups):
    """Homomorphism and kernel checks of a cell algebra onto the subalgebra
    of the FRT rows `rows`: one row s for "w", an admissible pair (s, t) for
    the twisted affine "what".  `frt_rep` is the rows' presentation and
    `groups` its blocks by group name.

    Generator g goes to X[rows[gen_delta[g]], gen_mask[g]] after the inverse
    twist.  On "w" every gen_delta is False and the twist is the identity
    (every weight of "w" has alpha_0 coordinate 0), so a row is a pair with
    one row.  A carried vector is checked in the block of its column class
    in the group of the rows it uses (_GROUPS), numbered by the block's
    numbering; a word outside the block puts it outside the span.

    (a) every defining relation carries into the computed relation span;
    (b) so does every vector of kernel_module; (c) degree-2 dimensions
    agree, the quotient being hilbert_dim(2) minus the module's rank.

    With the rows a face (rootdata.is_face) this decides every degree.  The
    rules are independent (each relation's head (a, b) outranks its other
    words in the order of schubert.rule_failures, and the heads are
    distinct) and the module vectors lie on normal words, so by
    (a)-(c) they span the relation space of the rows: 120 + 10 = 256 - 126
    dimensions for a row, 496 + 30 = 1024 - 498 for a pair.  The relations
    are homogeneous in row-weight sum, so on a face the row subalgebra is
    the free algebra on the rows modulo these relations, in every degree.
    The twist rescales words by units, changing no rank.
    """
    pres = presentation("w" if len(rows) == 1 else "what")
    module = kernel_module(pres.algebra_id)
    image = [(rows[d], m) for d, m in zip(pres.gen_delta, pres.gen_mask)]
    bit = {row: 1 << n for n, row in enumerate(rows)}
    by_key = {(name, b["class_head"]): b for name, blocks in groups.items() for b in blocks}

    def carried(vec):
        out = {(image[g], image[h]): c
               for (g, h), c in twist(vec, pres, inverse=True).items()}
        ((r1, i), (r2, j)) = next(iter(out))
        block = by_key[_GROUPS[bit[r1] | bit[r2]], rd.class_of(i, j).head]
        number = block["numbering"]
        if not number.keys() >= out.keys():
            return False
        return block["echelon"].contains({number[w]: c for w, c in out.items()})

    hom_fails = [tuple(pres.gen_label[g] for g in pair)
                 for pair, vec in rule_relation_vectors(pres) if not carried(vec)]
    kernel_fails = sum(not carried(vec) for vec in module)
    kernel_rank = Echelon().add_all(module)
    result = {
        "rows": tuple(rd.label(r) for r in rows),
        "relations_carried": not hom_fails,
        "relation_failures": hom_fails[:5],
        "kernel_vectors_carried": not kernel_fails,
        "kernel_failures": kernel_fails,
        "kernel_module_rank": kernel_rank,
        "degree2_dim": frt_rep["degree2_dim"],
        "degree2_quotient_dim": hilbert_dim(pres, 2) - kernel_rank,
        "relations_match_stated": frt_rep["ok"],
        "blocks_bad": [dict(b, group=g) for g, blocks in groups.items()
                       for b in failing_blocks(blocks)],
    }
    result["degree2_equal"] = result["degree2_dim"] == result["degree2_quotient_dim"]
    result["ok"] = (not hom_fails and not kernel_fails and
                    result["degree2_equal"] and frt_rep["ok"])
    return result


def psi_S_check(s):
    """Row homomorphism and kernel checks: _kernel_check on the row s."""
    row = row_presentation(s)
    return _kernel_check((s,), row, {"S": row["blocks"]})


def psi_ST_check(s, t):
    """Two-row homomorphism and kernel checks: _kernel_check on the
    admissible pair (s, t)."""
    two = two_row_presentation(s, t)
    return _kernel_check((s, t), two, two["groups"])


def degree3_quotient_dim(algebra):
    """Degree-3 dimension of the cell algebra ("w" or "what") modulo the
    ideal of its kernel_module K, from the products of dominant weight only.

    K = U.v over the certified highest-weight tops v (adjoint.hw_certificate,
    fact (a) of the rootdata docstring) is a submodule, and so is the ideal's
    degree-3 part I_3 = A_1.K + K.A_1, because multiplication is a module map
    (adjoint.module_algebra_failures).  So by fact (b) dim I_3 is
    adjoint.semisimple_dim of its dominant weight spaces, each spanned by
    the products g.v and v.g of its weight.  Pairings add like weights, so
    dominance is decided before multiplying.  The twist rescales words by
    units, changing no rank.  (Tests keep ranking every product as the
    reference.)"""
    pres = presentation(algebra)
    gens = [(NCPoly.gen(g), w, rd.pairings(w)) for g, w in enumerate(pres.gen_weight)]
    by_mu = {}
    for vec in kernel_module(algebra):
        weight = q_degree(vec, pres)
        pairings = rd.pairings(weight)
        for gen, gen_weight, gen_pairings in gens:
            if min(map(sum, zip(pairings, gen_pairings))) >= 0:
                by_mu.setdefault(rd.wadd(weight, gen_weight), []).extend(
                    (multiply(gen, vec, pres), multiply(vec, gen, pres)))
    return hilbert_dim(pres, 3) - semisimple_dim(by_mu, pres)


def relation_vector_json(vec):
    return [{"first": [rd.label(r), rd.label(c)],
             "second": [rd.label(r2), rd.label(c2)],
             "coeff": coeff.to_json()}
            for ((r, c), (r2, c2)), coeff in sorted(vec.items())]
