"""Root data for D5 inside E6 and its affine extension.

The 16 even subsets of {1,...,5} index the radical roots used everywhere else.
This module owns the exact weight arithmetic (7 integer coordinates over the
simple roots alpha_0..alpha_6), the partial order on subsets, the equivalence
classes and heights on pairs, and the epsilon predicate of the mixed relations.

Subsets are 5-bit masks (bit i-1 <-> element i).  A subset I has weight
theta - sum_{i in I} e_i in the Euclidean model of E6, read off in integer
alpha-coordinates (_compute_wt); no Euclidean vector is ever formed.

The weights of U_q(so10)-modules live here too (pairings, weyl_dim), with
the one argument every module certificate rests on, semisimplicity.  Each
module a certificate decides is a finite-dimensional type-1
U_q(so10)-module M: a graded piece of a cell algebra under the adjoint
action, or a tensor power of the half-spin module V.  Such an M is
semisimple (Jantzen, Lectures on Quantum Groups, ch. 5): a direct sum of
irreducibles L(lambda), lambda dominant, with dim L(lambda) =
weyl_dim(lambda).  Three facts follow.
(a) A nonzero v of weight lambda that every E_i kills spans U.v = L(lambda):
    U.v is a highest-weight module, hence indecomposable, and semisimple as
    a submodule of M.
(b) The multiplicity m_lambda of L(lambda) in M is the dimension of the
    vectors of weight lambda that every E_i kills, and
    dim M = sum m_lambda weyl_dim(lambda).
(c) Each summand L(lambda) is U^-.v_lambda for such a v_lambda, of dominant
    weight, so a map of M that commutes with every F_j vanishes once it
    kills the dominant weight spaces.
"""

from math import prod
from operator import mul

NODES = range(7)          # simple roots alpha_0 .. alpha_6
IPRIME = (2, 3, 4, 5, 6)  # D5 sub-diagram

# symmetric Gram matrix of the affine diagram (simply laced, edges below)
_EDGES = {(0, 2), (1, 3), (3, 4), (4, 5), (5, 6), (2, 4)}
GRAM = [[2 if i == j else (-1 if (min(i, j), max(i, j)) in _EDGES else 0)
         for j in NODES] for i in NODES]


def inner(x, y):
    """Exact symmetric bilinear form on alpha-coordinate vectors."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = GRAM[i]
            for j, yj in enumerate(y):
                if yj:
                    total += xi * row[j] * yj
    return total


def wadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def wsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


ALPHA = tuple(tuple(1 if j == i else 0 for j in NODES) for i in NODES)


def roots(nodes):
    """Root system of the sub-diagram on `nodes`: the closure of its simple
    roots under the simple reflections s_i, i in `nodes`.  s_i r =
    r - (r, alpha_i) alpha_i changes only coordinate i, by the pairing of r
    with row i of GRAM."""
    nodes = tuple(nodes)
    found = set()
    new = {ALPHA[i] for i in nodes}
    while new:
        found |= new
        new = {r[:i] + (r[i] - sum(map(mul, r, GRAM[i])),) + r[i + 1:]
               for r in new for i in nodes} - found
    return frozenset(found)


ELEMS = (1, 2, 3, 4, 5)
ALL_MASKS = tuple(m for m in range(32) if bin(m).count("1") % 2 == 0)


def members(mask):
    return tuple(i for i in ELEMS if mask >> (i - 1) & 1)


def mask_of(elems):
    m = 0
    for i in elems:
        m |= 1 << (i - 1)
    return m


def label(mask):
    """Subset label used in all I/O: sorted digit string, empty set = 'e'."""
    return "".join(str(i) for i in members(mask)) or "e"


def parse_label(text):
    if text == "e":
        return 0
    if not text or not all(ch in "12345" for ch in text) or len(set(text)) != len(text):
        raise ValueError("bad subset label %r" % (text,))
    m = mask_of(int(ch) for ch in text)
    if m not in WT:
        raise ValueError("subset %r does not have even cardinality" % (text,))
    return m


def lex_code(mask):
    """Decimal code of a subset: its digits in increasing order read as a number.

    Equals sum 10^{j-1} i_j over the decreasing enumeration i_1 > ... > i_l;
    the empty set codes to 0.
    """
    code = 0
    for i in members(mask):
        code = code * 10 + i
    return code


# the highest root alpha_1 + 2 alpha_2 + 2 alpha_3 + 3 alpha_4 + 2 alpha_5 + alpha_6
THETA = (0, 1, 2, 2, 3, 2, 1)


def _compute_wt(mask):
    """theta - sum_{i in mask} e_i in alpha-coordinates.  e_1 + e_2 = alpha_2
    and e_{j+1} - e_j = alpha_{j+2}, so e_i = (alpha_2 - alpha_3)/2 + alpha_3
    + ... + alpha_{i+1}, and |mask| is even:
    theta - (|mask|/2)(alpha_2 - alpha_3) - sum_{i in mask} (alpha_3 + ... + alpha_{i+1})."""
    elems = members(mask)
    wt = list(THETA)
    wt[2] -= len(elems) // 2
    wt[3] += len(elems) // 2
    for i in elems:
        for k in range(3, i + 2):
            wt[k] -= 1
    return tuple(wt)


# weight of each subset in alpha-coordinates (the alpha_0 coordinate is 0)
WT = {m: _compute_wt(m) for m in ALL_MASKS}
WT_TO_MASK = {WT[m]: m for m in ALL_MASKS}

DELTA = wadd(ALPHA[0], THETA)

LEXCODE = {m: lex_code(m) for m in ALL_MASKS}
BSETS = tuple(sorted(ALL_MASKS, key=LEXCODE.get))       # basis order for dumps / spin rep
HEIGHT_B = {m: sum(WT[m]) for m in ALL_MASKS}   # grades the poset from 1 to 11
TOT_ORDER = tuple(sorted(ALL_MASKS, key=lambda m: (HEIGHT_B[m], LEXCODE[m])))
TOT_RANK = {m: r for r, m in enumerate(TOT_ORDER)}

INNER_WT = {(a, b): inner(WT[a], WT[b]) for a in ALL_MASKS for b in ALL_MASKS}


def leq_B(a, b):
    """a <= b in the radical-root order: wt(b) - wt(a) has nonnegative coordinates."""
    wa, wb = WT[a], WT[b]
    return all(wb[k] >= wa[k] for k in range(7))


LEQ = {(a, b): leq_B(a, b) for a in ALL_MASKS for b in ALL_MASKS}


class PairClass:
    """One equivalence class of pairs under wt(I)+wt(J) = wt(K)+wt(L)."""

    __slots__ = ("members", "heights", "head")

    def __init__(self, mem, heights):
        self.members = tuple(mem)
        self.heights = tuple(heights)
        self.head = tuple(map(label, self.members[0]))    # first member, labelled

    @property
    def size(self):
        return len(self.members)

    def height_of(self, pair):
        return self.heights[self.members.index(pair)]

    def __iter__(self):
        return iter(zip(self.members, self.heights))


def _build_classes():
    groups = {}
    for a in ALL_MASKS:
        for b in ALL_MASKS:
            groups.setdefault((a | b, a & b), []).append((a, b))
    classes = []
    key_of = {}
    for mem in groups.values():
        # grade by the strict order on first components; minimal height is 1
        ht = {}
        for pair in sorted(mem, key=lambda p: HEIGHT_B[p[0]]):
            below = [ht[p] for p in mem if p != pair and LEQ[(p[0], pair[0])]]
            ht[pair] = 1 + max(below, default=0)
        mem = sorted(mem, key=lambda p: (ht[p], LEXCODE[p[0]]))
        cls = PairClass(mem, [ht[p] for p in mem])
        for p in mem:
            key_of[p] = len(classes)
        classes.append(cls)
    return classes, key_of


CLASSES, _CLASS_KEY = _build_classes()
HT_PAIR = {p: CLASSES[k].height_of(p) for p, k in _CLASS_KEY.items()}


def class_of(a, b):
    return CLASSES[_CLASS_KEY[(a, b)]]


def epsilon(a, b):
    """1 iff a < b strictly and the weights are orthogonal."""
    return 1 if (a != b and LEQ[(a, b)] and INNER_WT[(a, b)] == 0) else 0


EPS = {(a, b): epsilon(a, b) for a in ALL_MASKS for b in ALL_MASKS}


def is_face(rows):
    """True when the weights of `rows` are the only maximisers of the pairing
    with their sum over the sixteen weights.  Then n subsets whose weights
    add up to a sum of n weights of `rows` all lie in `rows`."""
    total = tuple(map(sum, zip(*(WT[r] for r in rows))))
    score = {m: inner(WT[m], total) for m in ALL_MASKS}
    top = max(score.values())
    return {m for m, v in score.items() if v == top} == set(rows)

# octet classes sorted the way the big table lists them (by first member label)
OCTETS = tuple(sorted((c for c in CLASSES if c.size == 8),
                      key=lambda c: LEXCODE[c.members[0][0]]))

# raising/lowering moves inside the radical-root family, per D5 node
RAISE = {(m, i): WT_TO_MASK.get(wadd(WT[m], ALPHA[i]))
         for m in ALL_MASKS for i in IPRIME}
LOWER = {(m, i): WT_TO_MASK.get(wsub(WT[m], ALPHA[i]))
         for m in ALL_MASKS for i in IPRIME}


def classes_json():
    """Class table as JSON-ready rows of {first, second, height}."""
    rows = []
    for cls in CLASSES:
        rows.append([{"first": label(a), "second": label(b), "height": h}
                     for (a, b), h in cls])
    return rows


def pairings(mu):
    """The D5 weight (c2, ..., c6) of a 7-coordinate weight, c_i = (alpha_i, mu)."""
    return tuple(inner(ALPHA[i], mu) for i in IPRIME)


D5_POSITIVE_ROOTS = tuple(sorted(r for r in roots(IPRIME) if all(c >= 0 for c in r)))
assert len(D5_POSITIVE_ROOTS) == 20
# the product of the pairings (rho, alpha), each alpha's height
_HEIGHT_PRODUCT = prod(sum(root[i] for i in IPRIME) for root in D5_POSITIVE_ROOTS)


def weyl_dim(lam):
    """Exact dimension of the irreducible with dominant weight (c2, ..., c6):
    the product of (lam + rho, alpha) over the positive roots, divided
    exactly by the product of their heights (rho, alpha)."""
    if len(lam) != 5 or any(c < 0 for c in lam):
        raise ValueError("dominant weight needs five nonnegative coordinates")
    shifted = {i: c + 1 for i, c in zip(IPRIME, lam)}
    num = prod(sum(shifted[i] * root[i] for i in IPRIME) for root in D5_POSITIVE_ROOTS)
    dim, rem = divmod(num, _HEIGHT_PRODUCT)
    assert not rem
    return dim
