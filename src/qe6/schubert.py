"""The two quantum Schubert cell algebras as terminating rewriting systems.

The 16-generator algebra ("w") and its 32-generator affine partner ("what")
are presented by straightening rules: a rule exists for every adjacent
generator pair that is out of order, and its correction terms sit strictly
higher in the pair-class grading, which is what makes rewriting terminate.
Normal words are non-increasing in a fixed total order on generators; in the
affine algebra every delta-shifted generator precedes every plain one.
"""

from functools import cache
from heapq import heapify, heappop, heappush
from math import comb
from itertools import product

from .qcoeff import LaurentPoly, ONE, QHAT, qpow, neg_qpow, accumulate
from . import rootdata as rd


class RewriteDepthError(RuntimeError):
    """Raised when a normal-form computation exceeds its step budget.

    This signals a termination bug in the rule table, never expected input.
    """


class NCPoly(dict):
    """Noncommutative polynomial: {word tuple: LaurentPoly}, no zero values.

    Words are tuples of encoded generators; the encoding belongs to the
    presentation the polynomial lives over.
    """

    __slots__ = ()

    @classmethod
    def from_word(cls, word, coeff=ONE):
        p = cls()
        if coeff:
            p[tuple(word)] = coeff
        return p

    @classmethod
    def gen(cls, g, coeff=ONE):
        return cls.from_word((g,), coeff)

    @classmethod
    def one(cls):
        return cls.from_word((), ONE)

    iadd_term = accumulate

    def __add__(self, other):
        out = NCPoly(self)
        for w, c in other.items():
            out.iadd_term(w, c)
        return out

    def __sub__(self, other):
        out = NCPoly(self)
        for w, c in other.items():
            out.iadd_term(w, -c)
        return out

    def __neg__(self):
        return NCPoly({w: -c for w, c in self.items()})

    def scale(self, s):
        if not s:
            return NCPoly()
        return NCPoly({w: c * s for w, c in self.items()})

    def free_mul(self, other):
        """Concatenation product with no normalization."""
        out = NCPoly()
        for w1, c1 in self.items():
            for w2, c2 in other.items():
                out.iadd_term(w1 + w2, c1 * c2)
        return out

    def is_zero(self):
        return not self


class AlgebraPresentation:
    """Generators, straightening rules, and gradings of one cell algebra."""

    __slots__ = ("algebra_id", "ngens", "gen_mask", "gen_delta", "gen_weight",
                 "gen_label", "rules")

    def __init__(self, algebra_id, ngens, gen_mask, gen_delta, rules):
        self.algebra_id = algebra_id
        self.ngens = ngens
        self.gen_mask = gen_mask
        self.gen_delta = gen_delta
        self.gen_weight = tuple(
            rd.wadd(rd.WT[m], rd.DELTA) if dlt else rd.WT[m]
            for m, dlt in zip(gen_mask, gen_delta))
        kind = "Y" if algebra_id == "w" else None
        self.gen_label = tuple(
            ("%s[%s]" % (kind or ("Zd" if dlt else "Z"), rd.label(m)))
            for m, dlt in zip(gen_mask, gen_delta))
        self.rules = rules

    def rank(self, mask, delta=False):
        r = rd.TOT_RANK[mask]
        return r + 16 if delta else r

    def is_normal(self, word):
        return all(word[i] >= word[i + 1] for i in range(len(word) - 1))

    def weight_of_word(self, word):
        if not word:
            return (0,) * 7
        return tuple(map(sum, zip(*map(self.gen_weight.__getitem__, word))))


def _straighten_items(I, J, lex_filter, left_of, right_of):
    """Rule right-hand side for the pair (I, J): the swapped leading term plus
    the graded correction terms of its equivalence class."""
    items = [(qpow(rd.INNER_WT[(I, J)]), (right_of(J), left_of(I)))]
    h0 = rd.HT_PAIR[(I, J)]
    for (L, M), h in rd.class_of(I, J):
        if L == I or not rd.LEQ[(I, L)]:
            continue
        if lex_filter and rd.LEXCODE[M] > rd.LEXCODE[L]:
            continue
        items.append((QHAT * neg_qpow(h - h0 - 1), (left_of(L), right_of(M))))
    return items


def _build_w():
    order = rd.TOT_ORDER
    rules = {}
    ident = lambda m: rd.TOT_RANK[m]
    for a in range(16):
        for b in range(a + 1, 16):
            rules[(a, b)] = tuple(_straighten_items(order[a], order[b], True, ident, ident))
    return AlgebraPresentation("w", 16, order, (False,) * 16, rules)


def _build_what():
    order = rd.TOT_ORDER
    plain = lambda m: rd.TOT_RANK[m]
    shifted = lambda m: rd.TOT_RANK[m] + 16
    rules = {}
    for a in range(16):
        for b in range(a + 1, 16):
            I, J = order[a], order[b]
            rules[(a, b)] = tuple(_straighten_items(I, J, True, plain, plain))
            rules[(a + 16, b + 16)] = tuple(_straighten_items(I, J, True, shifted, shifted))
    # mixed rules exist for every pair, with the epsilon term and no lex filter
    for x in range(16):
        for y in range(16):
            I, J = order[x], order[y]
            items = _straighten_items(I, J, False, plain, shifted)
            if rd.EPS[(I, J)]:
                items.append((QHAT * qpow(-1), (plain(J), shifted(I))))
            rules[(x, y + 16)] = tuple(items)
    return AlgebraPresentation(
        "what", 32, order + order, (False,) * 16 + (True,) * 16, rules)


@cache
def presentation(algebra_id):
    return _build_w() if algebra_id == "w" else _build_what()


REWRITE_BUDGET = 10 ** 6


def normal_form(x, pres, strategy="left", budget=REWRITE_BUDGET):
    """Straighten to the PBW normal form.

    `strategy` picks which out-of-order pair of a word is rewritten: the
    leftmost ("left") or the rightmost; the result is strategy-independent.

    Pending words are taken smallest first in lexicographic order, their
    coefficients summed until then as raw {exponent: int} dicts; a word
    becomes a LaurentPoly term only when it comes out normal.  Every rule
    rewrites an out-of-order pair (a, b), a < b, into pairs whose first
    letter exceeds a, so each rewrite produces only words larger than the
    one it took.  The words taken therefore increase strictly, each distinct
    word is rewritten once with its full coefficient, and the loop ends
    because there are finitely many words of each length.  Only the speed
    rests on this: a word produced again after it was taken would be taken
    again.

    `budget` bounds the number of words rewritten, which is the number of
    distinct non-normal words reached with a nonzero summed coefficient;
    exceeding it raises RewriteDepthError.
    """
    return _rewrite({w: dict(c.c) for w, c in x.items() if c}, pres, strategy, budget)


def _rewrite(pending, pres, strategy, budget):
    """normal_form's loop over `pending`, {word: {exponent: int}}, which it
    consumes; a dict may hold zero values and sum to zero."""
    rules = pres.rules
    out = NCPoly()
    # each key of `pending` has exactly one entry in `heap`
    heap = list(pending)
    heapify(heap)
    steps = 0
    left = strategy == "left"
    while heap:
        word = heappop(heap)
        coeff = pending.pop(word)
        if not all(coeff.values()):
            coeff = {e: v for e, v in coeff.items() if v}
            if not coeff:
                continue
        idx = None
        n1 = len(word) - 1
        rng = range(n1) if left else range(n1 - 1, -1, -1)
        for i in rng:
            if word[i] < word[i + 1]:
                idx = i
                break
        if idx is None:
            out.iadd_term(word, LaurentPoly._raw(coeff))
            continue
        steps += 1
        if steps > budget:
            raise RewriteDepthError("rewrite budget exceeded (%d steps)" % budget)
        pre = word[:idx]
        suf = word[idx + 2:]
        terms = coeff.items()
        for rc, pair in rules[(word[idx], word[idx + 1])]:
            w2 = pre + pair + suf
            acc = pending.get(w2)
            if acc is None:
                acc = pending[w2] = {}
                heappush(heap, w2)
            for e1, v1 in rc.c.items():
                for e2, v2 in terms:
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + v1 * v2
    return out


def multiply(x, y, pres):
    return normal_form(x.free_mul(y), pres)


def q_degree(x, pres):
    """Common root-lattice degree of a homogeneous element (7 coordinates)."""
    if not x:
        raise ValueError("the zero element has no degree")
    words = iter(x)
    deg = pres.weight_of_word(next(words))
    for w in words:
        if pres.weight_of_word(w) != deg:
            raise ValueError("element is not homogeneous")
    return deg


def hilbert_dim(pres, d):
    """Number of degree-d ordered words: the PBW dimension count."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return comb(pres.ngens - 1 + d, d)


def normal_words(pres, d):
    """All degree-d normal words (non-increasing encoded tuples)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = pres.ngens
    if d == 0:
        yield ()
        return
    word = [n - 1] * d

    def rec(pos, top):
        if pos == d:
            yield tuple(word)
            return
        for g in range(top, -1, -1):
            word[pos] = g
            yield from rec(pos + 1, g)

    yield from rec(0, n - 1)


def confluence_check(pres, d=3):
    """Diamond test at degree d: every word must reach the same normal form
    under both rewriting strategies, and the normal-word count must equal the
    PBW dimension.  Returns a report dict; failures identify the word."""
    if d < 3:
        raise ValueError("the overlap test needs degree >= 3")
    failures = []
    n = pres.ngens
    checked = 0
    for word in product(range(n), repeat=d):
        checked += 1
        x = NCPoly.from_word(word)
        nf_l = normal_form(x, pres, "left")
        nf_r = normal_form(x, pres, "right")
        if nf_l != nf_r:
            failures.append(word)
    count = sum(1 for _ in normal_words(pres, d))
    expected = hilbert_dim(pres, d)
    return {
        "algebra": pres.algebra_id,
        "degree": d,
        "overlaps_checked": checked,
        "failures": failures,
        "normal_word_count": count,
        "expected_count": expected,
        "ok": not failures and count == expected,
    }


def twist_factor(deg_x, deg_y):
    """Bicharacter value on a pair of degrees: q^(a0(x) * a1(y))."""
    return qpow(deg_x[0] * deg_y[1])


def twist(x, pres, inverse=False):
    """Rescale each word g_1 ... g_n of x by the twist cocycle
    q^(sum_{a<b} a0(g_a) a1(g_b)) (the twist_factor of every ordered pair of
    its letters), or by the inverse.  The normal form of twist(w) is the
    twisted product of the letters of w."""
    out = NCPoly()
    for word, coeff in x.items():
        exp = 0
        left0 = 0
        for g in word:
            exp += left0 * pres.gen_weight[g][1]
            left0 += pres.gen_weight[g][0]
        out[word] = coeff * qpow(-exp if inverse else exp) if exp else coeff
    return out


def multiply_twisted(x, y, pres):
    """Product in the cocycle-twisted algebra (meaningful for 'what')."""
    f = twist_factor(q_degree(x, pres), q_degree(y, pres))
    return multiply(x, y, pres).scale(f)


def rule_relation_vectors(pres):
    """The defining relations as free degree-2 vectors {word: coeff}.

    Each rule (a, b) -> rhs yields the vector (a, b) - rhs.  The inverse
    twist of each vector is a defining relation of the twisted algebra.
    """
    out = []
    for (a, b), items in sorted(pres.rules.items()):
        vec = {(a, b): ONE}
        for rc, pair in items:
            accumulate(vec, pair, -rc)
        out.append(((a, b), vec))
    return out


# --- text grammar -----------------------------------------------------------

def format_coeff(c):
    s = str(c)
    if len(c.c) > 1:
        return "(%s)" % s
    return s


def format_poly(x, pres):
    if not x:
        return "0"
    parts = []
    for word in sorted(x, key=lambda w: (len(w), w)):
        c = x[word]
        gens = "*".join(pres.gen_label[g] for g in word) or "1"
        if len(c.c) == 1:
            ((e, v),) = c.c.items()
            sign = "-" if v < 0 else "+"
            av = abs(v)
            coeff = "" if (av == 1 and e == 0) else \
                ("q" if e == 1 else "q^%d" % e) if av == 1 else \
                ("%d" % av if e == 0 else "%d*%s" % (av, "q" if e == 1 else "q^%d" % e))
            body = gens if not coeff else (coeff + "*" + gens if word else coeff)
        else:
            sign = "+"
            body = "%s*%s" % (format_coeff(c), gens)
        parts.append((sign, body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


_GEN_KINDS = ("Zd", "Z", "Y")


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*()^":
            toks.append((ch, ch))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j])))
            i = j
            continue
        for kind in _GEN_KINDS:
            if text.startswith(kind + "[", i):
                j = text.find("]", i)
                if j < 0:
                    raise ValueError("unterminated generator label in %r" % text)
                toks.append(("gen", (kind, text[i + len(kind) + 1:j])))
                i = j + 1
                break
        else:
            if ch == "q":
                toks.append(("q", "q"))
                i += 1
            else:
                raise ValueError("unexpected character %r in expression" % ch)
    return toks


class _Parser:
    def __init__(self, toks, pres):
        self.toks = toks
        self.pos = 0
        self.pres = pres

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        if self.pos == len(self.toks):
            raise ValueError("unexpected end of expression")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        acc = self.parse_term().scale(LaurentPoly.from_int(sign))
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    sign = -sign
            acc = acc + self.parse_term().scale(LaurentPoly.from_int(sign))
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            if self.peek() == "*":
                self.take()
                acc = acc.free_mul(self.parse_factor())
            elif self.peek() in ("q", "num", "gen", "("):
                acc = acc.free_mul(self.parse_factor())
            else:
                return acc

    def _exponent(self):
        if self.peek() != "^":
            return 1
        self.take()
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        kind, val = self.take()
        if kind != "num":
            raise ValueError("expected an integer exponent")
        return sign * val

    def parse_factor(self):
        kind, val = self.take()
        if kind == "q":
            return NCPoly.from_word((), qpow(self._exponent()))
        if kind == "num":
            return NCPoly.from_word((), LaurentPoly.from_int(val))
        if kind == "gen":
            gk, lab = val
            mask = rd.parse_label(lab)
            want_delta = gk == "Zd"
            if self.pres.algebra_id == "w":
                if gk != "Y":
                    raise ValueError("generator %s[%s] does not live in this algebra" % (gk, lab))
                g = self.pres.rank(mask)
            else:
                if gk == "Y":
                    raise ValueError("Y generators do not live in the affine algebra")
                g = self.pres.rank(mask, delta=want_delta)
            return NCPoly.gen(g)
        if kind == "(":
            inner = self.parse_expr()
            if self.peek() != ")":
                raise ValueError("missing closing parenthesis")
            self.take()
            return inner
        raise ValueError("unexpected token %r" % ((kind, val),))


def parse_expr(text, pres):
    """Parse the CLI expression grammar into a free NCPoly (not normalized)."""
    parser = _Parser(_tokenize(text), pres)
    out = parser.parse_expr()
    if parser.pos != len(parser.toks):
        raise ValueError("trailing tokens in expression %r" % text)
    return out
