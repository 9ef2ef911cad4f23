"""Exact sparse linear algebra over the Laurent coefficient ring.

Rank and span questions are answered fraction-free.  Echelon reduces a row
by a unit pivot (+-q^k) in place, subtracting the pivot row times the row's
leading coefficient over the pivot; only a non-unit pivot cross-multiplies.
Residues are re-normalized by their integer content and a power of q (units
or contents, so row spans over the fraction field are preserved).
spans_equal compares a built Echelon with a row list by rank and one-way
containment; dense_rank ranks the small proof matrices and braiding blocks
with it.

Every cyclic submodule is closed by cyclic_span, one Echelon per weight.

rank_mod and EchelonMod rank rows specialized at q = q0 over GF(p).  No
check calls them: they remain only for the degree-3 ranks that perfbench's
frt-spans workload times and for their own tests, until that workload stops
using them (ROADMAP items 1 and 3).  Likewise no check calls dense Bareiss
elimination (bareiss_echelon, bareiss_rank) any more: it remains as the
reference the Echelon tests compare with and as a layer name perfbench
traces.
"""

from math import gcd

from .qcoeff import LaurentPoly, ONE, ZERO, accumulate


class SparseMat:
    """Immutable-by-convention sparse matrix with LaurentPoly entries.

    The nonzeros indexed by column are built on first use and kept, which
    is sound only because the entries never change after construction.
    mul and apply sum through sum_products, under the raw-accumulate rule
    of the qcoeff module docstring."""

    __slots__ = ("nrows", "ncols", "entries", "_by_col")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self._by_col = None
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    self.entries[(r, c)] = v

    @classmethod
    def _raw(cls, nrows, ncols, entries):
        self = cls.__new__(cls)
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries
        self._by_col = None
        return self

    @classmethod
    def identity(cls, n):
        return cls._raw(n, n, {(i, i): ONE for i in range(n)})

    def __eq__(self, other):
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and \
            self.entries == other.entries

    def get(self, r, c):
        return self.entries.get((r, c), ZERO)

    def add(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            accumulate(out, k, v)
        return SparseMat._raw(self.nrows, self.ncols, out)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, s):
        if not s:
            return SparseMat._raw(self.nrows, self.ncols, {})
        return SparseMat._raw(self.nrows, self.ncols,
                              {k: v * s for k, v in self.entries.items()})

    def mul(self, other):
        """The product self * other, through self's cached column index;
        entry (r, c) is summed under the key c * nrows + r.  An entry of
        other whose row index is no nonzero column of self is skipped before
        it reaches sum_products: the N of each q-exponential factor in
        build_rhat has 16 nonzeros in 256 columns."""
        assert self.ncols == other.nrows
        n = self.nrows
        cols = self.by_col()
        summed = sum_products(cols, ((k, w, c * n) for (k, c), w in other.entries.items()
                                     if k in cols))
        return SparseMat._raw(n, other.ncols,
                              {(key % n, key // n): v for key, v in summed.items()})

    def kron(self, other):
        on, om = other.nrows, other.ncols
        out = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in other.entries.items():
                out[(r1 * on + r2, c1 * om + c2)] = v1 * v2
        return SparseMat._raw(self.nrows * on, self.ncols * om, out)

    def by_col(self):
        """The nonzeros as {column: [(row, value), ...]}, built once."""
        if self._by_col is None:
            self._by_col = {}
            for (r, c), v in self.entries.items():
                self._by_col.setdefault(c, []).append((r, v))
        return self._by_col

    def apply(self, vec):
        """Apply to a column vector given as {row_index: LaurentPoly}."""
        return sum_products(self.by_col(), ((c, x, 0) for c, x in vec.items()))

    def commutes_with(self, other):
        return self.mul(other) == other.mul(self)

    def is_zero(self):
        return not self.entries


def sum_products(cols, terms, stride=1):
    """The sparse vector {offset + row * stride: sum of v * x} over the
    terms (col, x, offset) and the nonzeros (row, v) of cols.get(col), a
    column index as SparseMat.by_col builds.  The one multiply-accumulate
    of SparseMat.mul, SparseMat.apply and rmatrix.ybe_check, under the
    raw-accumulate rule of the qcoeff module docstring."""
    acc = {}
    for col, x, offset in terms:
        xs = x.c.items()
        for row, v in cols.get(col, ()):
            key = offset + row * stride
            dst = acc.get(key)
            if dst is None:
                dst = acc[key] = {}
            for e1, v1 in v.c.items():
                for e2, v2 in xs:
                    e = e1 + e2
                    dst[e] = dst.get(e, 0) + v1 * v2
    out = {}
    for key, dst in acc.items():
        if 0 in dst.values():
            dst = {e: v for e, v in dst.items() if v}
        if dst:
            out[key] = LaurentPoly._raw(dst)
    return out


# --- sparse row utilities ---------------------------------------------------

def row_normalize(row):
    """Strip the integer content and the common power of q from a sparse row."""
    if not row:
        return row
    g = 0
    shift = None
    for v in row.values():
        for e, c in v.c.items():
            g = gcd(g, c)
            if shift is None or e < shift:
                shift = e
    if g == 1 and not shift:
        return row
    out = {}
    for k, v in row.items():
        out[k] = LaurentPoly._raw({e - shift: x // g for e, x in v.c.items()})
    return out


class Echelon:
    """Incremental fraction-free row echelon over the Laurent ring.

    add() returns True when the row enlarges the span.  Rows are kept with
    their minimal column as pivot.  A unit pivot reduces a row in place by
    row -= (f * piv**-1) * base; a non-unit pivot cross-multiplies, so no
    fractions ever appear.  The residue is normalized once, on return.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, row):
        row = {k: v for k, v in row.items() if v}
        while row:
            c = min(row)
            base = self.rows.get(c)
            if base is None:
                break
            f = row.pop(c)
            piv = base[c]
            if piv.is_unit():
                g = -f * piv ** -1
                for k, v in base.items():
                    if k != c:
                        accumulate(row, k, g * v)
                continue
            out = {}
            for k in set(row) | set(base):
                if k == c:
                    continue
                v = row.get(k, ZERO) * piv - base.get(k, ZERO) * f
                if v:
                    out[k] = v
            row = row_normalize(out)
        return row_normalize(row)

    def contains(self, row):
        return not self.residue(row)

    def add(self, row):
        res = self.residue(row)
        if not res:
            return False
        self.rows[min(res)] = res
        return True

    def add_all(self, rows):
        grew = 0
        for row in rows:
            if self.add(row):
                grew += 1
        return grew


class EchelonMod:
    """Row echelon over GF(p) for rows given as {col: int}.

    add() scales each new pivot row to pivot 1, so a reduction step needs
    no inverse.
    """

    __slots__ = ("p", "rows")

    def __init__(self, p):
        self.p = p
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, row):
        p = self.p
        row = {k: v % p for k, v in row.items() if v % p}
        while row:
            c = min(row)
            base = self.rows.get(c)
            if base is None:
                return row
            f = row.pop(c)
            for k, v in base.items():
                if k == c:
                    continue
                w = (row.get(k, 0) - f * v) % p
                if w:
                    row[k] = w
                elif k in row:
                    del row[k]
        return row

    def add(self, row):
        res = self.residue(row)
        if not res:
            return False
        p = self.p
        c = min(res)
        inv = pow(res[c], p - 2, p)
        self.rows[c] = {k: v * inv % p for k, v in res.items()}
        return True

    def add_all(self, rows):
        grew = 0
        for row in rows:
            if self.add(row):
                grew += 1
        return grew


def spans_equal(ech, rows):
    """Exact equality of ech's span and the span of `rows` over the fraction
    field: the rows have rank ech.rank and each lies in ech's span (equal
    dimension plus one-way inclusion)."""
    return Echelon().add_all(rows) == ech.rank and all(ech.contains(r) for r in rows)


def cyclic_span(seed, ops, grade):
    """Basis of the span of all images of `seed` under words in `ops`.

    `ops` are linear maps on vectors (sparse dicts) that send homogeneous
    vectors to homogeneous ones; `grade(v)` is the grade of a nonzero
    homogeneous v.  Returns the vectors that enlarged the span, seed first,
    in breadth-first order.
    """
    basis = []
    echelons = {}
    images = [seed]
    while True:
        grew = [v for v in images
                if v and echelons.setdefault(grade(v), Echelon()).add(v)]
        if not grew:
            return basis
        basis += grew
        images = (op(v) for v in grew for op in ops)


def dense_rank(mat):
    """Exact rank of a dense list-of-lists matrix by Echelon.  Rows go in
    last first and columns are numbered from the right (a rank is unchanged
    by reordering either): the braiding's class blocks and the FRT proof
    matrices carry a unit toward the right end of each lower row, so in
    this order most pivots are units and few rows are cross-multiplied."""
    width = len(mat[0]) if mat else 0
    return Echelon().add_all({width - 1 - c: v for c, v in enumerate(row) if v}
                             for row in reversed(mat))


def rank_mod(rows, q0, p):
    """Rank of Laurent rows specialized at q = q0 over GF(p) (a lower bound
    on the exact rank, with equality for all but finitely many q0).  This is
    the only place rows are specialized.

    Rows go in shortest first, which keeps the pivot rows short and so
    every later reduction cheap; a rank does not depend on the order in
    which its rows are added.  Only references are sorted: each row is
    specialized as it goes in."""
    ech = EchelonMod(p)
    for row in sorted(rows, key=len):
        spec = {}
        for k, v in row.items():
            x = v.eval_mod(q0, p)
            if x:
                spec[k] = x
        ech.add(spec)
    return ech.rank


# --- dense Bareiss elimination ----------------------------------------------

def bareiss_echelon(mat):
    """Fraction-free Gaussian elimination on a dense list-of-lists copy.

    Returns (rank, pivots, reduced matrix).  All divisions are exact by the
    Bareiss identity, which keeps intermediate entries determinant-sized.
    """
    m = [list(row) for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    prev = ONE
    rank = 0
    pivots = []
    for col in range(ncols):
        piv_row = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv_row = r
                break
        if piv_row is None:
            continue
        m[rank], m[piv_row] = m[piv_row], m[rank]
        piv = m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            for c in range(ncols):
                v = m[r][c] * piv - m[rank][c] * f
                if prev is not ONE and v:
                    v = v.exact_div(prev)
                m[r][c] = v
            m[r][col] = ZERO
        prev = piv
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots, m


def bareiss_rank(mat):
    return bareiss_echelon(mat)[0]
