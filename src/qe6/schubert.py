"""The two quantum Schubert cell algebras as terminating rewriting systems.

The 16-generator algebra ("w") and its 32-generator affine partner ("what")
are presented by straightening rules, one for every generator pair that is
out of order; rule_failures checks that rewriting terminates, and with
confluence_check that the normal words are a basis (PBW).  Normal words are
non-increasing in a fixed total order on generators; in the affine algebra
every delta-shifted generator precedes every plain one.  Rewriting uses the
inter-reduced table of reduced_rules, whose confluence decides PBW for the
published rules (rule_failures).
"""

import re
from functools import cache
from heapq import heapify, heappop, heappush
from math import comb
from itertools import combinations, product

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
                 "gen_label", "gen_index", "rules")

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
        self.gen_index = {lab: g for g, lab in enumerate(self.gen_label)}
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


def correction_terms(I, J, mixed):
    """The published correction terms ((L, M), QHAT (-q)^(h - h0 - 1)) of the
    pair (I, J) of height h0: its class members (L, M) of height h with L
    above I, unless `mixed` only those with LEXCODE[M] <= LEXCODE[L], and
    ((J, I), QHAT q^-1) for a mixed pair with EPS.  The rules of both cell
    algebras and the stated FRT relations read them here."""
    h0 = rd.HT_PAIR[(I, J)]
    for (L, M), h in rd.class_of(I, J):
        if L == I or not rd.LEQ[(I, L)]:
            continue
        if not mixed and rd.LEXCODE[M] > rd.LEXCODE[L]:
            continue
        yield (L, M), QHAT * neg_qpow(h - h0 - 1)
    if mixed and rd.EPS[(I, J)]:
        yield (J, I), QHAT * qpow(-1)


@cache
def presentation(algebra_id):
    """One rule per out-of-order pair of plain (and in "what" of shifted)
    generators, and in "what" one per plain-shifted pair: the pair goes to
    the swapped leading term plus the correction terms."""
    order = rd.TOT_ORDER
    plain = lambda m: rd.TOT_RANK[m]
    shifted = lambda m: rd.TOT_RANK[m] + 16
    kinds = [(plain, plain, False)]
    if algebra_id != "w":
        kinds += [(shifted, shifted, False), (plain, shifted, True)]
    rules = {}
    for left_of, right_of, mixed in kinds:
        for a, I in enumerate(order):
            for b, J in enumerate(order):
                if mixed or a < b:
                    rule = [(qpow(rd.INNER_WT[(I, J)]), (right_of(J), left_of(I)))]
                    for (L, M), coeff in correction_terms(I, J, mixed):
                        rule.append((coeff, (left_of(L), right_of(M))))
                    rules[(left_of(I), right_of(J))] = tuple(rule)
    if algebra_id == "w":
        return AlgebraPresentation("w", 16, order, (False,) * 16, rules)
    return AlgebraPresentation("what", 32, order + order, (False,) * 16 + (True,) * 16, rules)


REWRITE_BUDGET = 10 ** 6


@cache
def reduced_rules(pres):
    """The inter-reduced rule table: each head (a, b) of pres.rules maps to
    N(ab), its degree-2 normal form under the published rules, as
    ((coeff, word), ...) with the swap (b, a) first.  Built on the first
    rewrite over pres, not with it, so a mutant table that cannot be reduced
    still reaches rule_failures; why its confluence proves PBW for the
    published rules is stated there."""
    published = _compile(pres.rules)
    out = {}
    for head in pres.rules:
        nf = _rewrite({head: {0: 1}}, published, "left", REWRITE_BUDGET)
        swap = head[::-1]
        out[head] = tuple(sorted(((c, w) for w, c in nf.items()), key=lambda t: t[1] != swap))
    return out


@cache
def compiled_rules(pres):
    """reduced_rules(pres) in the form _rewrite reads, built once per
    presentation."""
    return _compile(reduced_rules(pres))


def _compile(rules):
    """A rule table in the form _rewrite reads: each term (coeff, word)
    becomes (word, the (exponent, value) items of coeff)."""
    return {head: tuple((word, tuple(c.c.items())) for c, word in items)
            for head, items in rules.items()}


def normal_form(x, pres, strategy="left", budget=REWRITE_BUDGET):
    """Straighten to the PBW normal form, rewriting with reduced_rules(pres).

    `strategy` picks which out-of-order pair of a word is rewritten: the
    leftmost ("left") or the rightmost; the result is strategy-independent.

    Pending words are taken smallest first in lexicographic order; a word
    becomes a LaurentPoly term only when it comes out normal.  Every rule
    rewrites an out-of-order pair (a, b), a < b, into the swap and pairs of
    letters strictly between a and b (rule_failures), so into pairs whose
    first letter exceeds a: each rewrite produces only words larger than
    the one it took.  The words taken therefore increase strictly, each
    distinct word is rewritten once with its full coefficient, and the loop
    ends because there are finitely many words of each length.  Only the
    speed rests on this: a word produced again after it was taken would be
    taken again.

    `budget` bounds the number of words rewritten, which is the number of
    distinct non-normal words reached with a nonzero summed coefficient;
    exceeding it raises RewriteDepthError.  Why the reduced table gives the
    normal form of the published rules is stated in rule_failures.
    """
    pending = {}
    for w, c in x.items():
        if c.c:
            pending[w] = dict(c.c)
    return _rewrite(pending, compiled_rules(pres), strategy, budget)


def _rewrite(pending, rules, strategy, budget):
    """normal_form's loop over `pending`, {word: {exponent: int}}, which it
    consumes; a dict may hold zero values and sum to zero.  `rules` maps each
    out-of-order pair to ((word, coefficient items), ...), as compiled_rules
    does.  Coefficients follow the raw-accumulate rule of the qcoeff module
    docstring, with the zero-prune done when a word is taken.  The loop reads
    its callables from locals and fills new dicts with plain loops, as a
    comprehension is a function call on CPython 3.10 and 3.11."""
    out = NCPoly()
    # each key of `pending` has exactly one entry in `heap`
    heap = list(pending)
    heapify(heap)
    pop, push, take, get = heappop, heappush, pending.pop, pending.get
    keep, new = out.setdefault, LaurentPoly.__new__
    steps = 0
    left = strategy == "left"
    while heap:
        word = pop(heap)
        coeff = take(word)
        if not all(coeff.values()):
            coeff = {e: v for e, v in coeff.items() if v}
            if not coeff:
                continue
        n1 = len(word) - 1
        if left:
            i = 0
            while i < n1 and word[i] >= word[i + 1]:
                i += 1
        else:
            i = n1 - 1
            while i >= 0 and word[i] >= word[i + 1]:
                i -= 1
        if not 0 <= i < n1:
            # a normal word is taken once unless a rule table (a mutant)
            # produces it again after it was taken
            c = new(LaurentPoly)
            c.c = coeff
            if keep(word, c) is not c:
                out.iadd_term(word, c)
            continue
        steps += 1
        if steps > budget:
            raise RewriteDepthError("rewrite budget exceeded (%d steps)" % budget)
        pre = word[:i]
        suf = word[i + 2:]
        if len(coeff) == 1:
            ((e2, v2),) = coeff.items()
            for pair, items in rules[(word[i], word[i + 1])]:
                w2 = pre + pair + suf
                acc = get(w2)
                if acc is None:
                    # one term times a rule coefficient: distinct exponents
                    acc = pending[w2] = {}
                    push(heap, w2)
                    for e1, v1 in items:
                        acc[e1 + e2] = v1 * v2
                else:
                    for e1, v1 in items:
                        e = e1 + e2
                        acc[e] = acc.get(e, 0) + v1 * v2
            continue
        terms = coeff.items()
        for pair, items in rules[(word[i], word[i + 1])]:
            w2 = pre + pair + suf
            acc = get(w2)
            if acc is None:
                acc = pending[w2] = {}
                push(heap, w2)
            for e1, v1 in items:
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
    """Number of degree-d normal words: the PBW dimension (rule_failures)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return comb(pres.ngens - 1 + d, d)


def rule_failures(pres):
    """The rule-table facts behind the PBW basis, as failures naming the pair:

    - every pair a < b has exactly one rule, and no other pair has one;
    - each rule's first term is the swap (b, a) with a unit coefficient +-q^k;
    - every other term's letters lie strictly between a and b.

    Compare words by length, then by letter counts read from the smallest
    letter (more of a smaller letter ranks higher), then lexicographically
    (a smaller letter ranks higher).  This order is compatible with
    concatenation, and each length holds finitely many words, so it has no
    infinite descending chain.  Given the facts, every rule strictly lowers
    it: the head (a, b) has the counts of its swap (b, a) and precedes it
    lexicographically; every other term lacks the letter a, which the head
    holds, and no term holds a smaller letter.  So rewriting terminates,
    and the irreducible words are the non-increasing ones.  By Bergman's
    diamond lemma (Adv. Math. 29, 1978) they form a basis exactly when every
    ambiguity resolves.  The heads are distinct pairs, so the only
    ambiguities are the overlaps (a, b, c), a < b < c, which
    confluence_check resolves among all degree-3 words.  The unit swap
    coefficient is the Levendorskii-Soibelman form: each relation can be
    solved over the Laurent ring for either order of its pair.

    Rewriting, confluence_check included, uses the inter-reduced table of
    reduced_rules, which sends each head ab to N(ab), its normal form under
    these rules.  Its confluence proves PBW for the published rules: it has
    the same heads, so the same irreducible words; N(ab) - ab lies in the
    ideal of the published relations, and ab - rhs(ab) in that of the
    reduced ones (by induction up the order: rhs(ab) reaches N(ab) by rules
    on heads below ab), so the ideals agree; every word of N(ab) lies below
    ab in the order above, being reached by rules that lower it; and the
    table keeps the three facts above (the swap is never produced again,
    since every other word holds letters strictly between a and b only).
    """
    rules = pres.rules
    pairs = set(combinations(range(pres.ngens), 2))
    out = []
    for a, b in sorted(pairs | rules.keys()):
        items = rules.get((a, b))
        if items is None:
            reason = "no rule"
        elif (a, b) not in pairs:
            reason = "a rule on a normal pair"
        elif not (items and items[0][1] == (b, a) and items[0][0].is_unit()):
            reason = "the first term is not a unit times the swap"
        elif any(not a < g < b for _, word in items[1:] for g in word):
            reason = "a term has a letter outside (a, b)"
        else:
            continue
        out.append({"pair": [pres.gen_label[a], pres.gen_label[b]], "reason": reason})
    return out


def confluence_check(pres):
    """Diamond test at degree 3: every word must reach the same normal form
    under both rewriting strategies.  The words include every overlap
    ambiguity of rule_failures.  Rewriting uses reduced_rules; rule_failures
    states why its confluence decides PBW for the published rules.  Returns a
    report dict; failures identify the word."""
    n = pres.ngens
    failures = []
    for word in product(range(n), repeat=3):
        x = NCPoly.from_word(word)
        if normal_form(x, pres, "left") != normal_form(x, pres, "right"):
            failures.append(word)
    return {"overlaps_checked": n ** 3, "failures": failures, "ok": not failures}


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
        if len(c.c) == 1:
            ((e, v),) = c.c.items()
            sign = "-" if v < 0 else "+"
            av = abs(v)
            coeff = "" if (av == 1 and e == 0) else \
                ("q" if e == 1 else "q^%d" % e) if av == 1 else \
                ("%d" % av if e == 0 else "%d*%s" % (av, "q" if e == 1 else "q^%d" % e))
        else:
            sign = "+"
            coeff = format_coeff(c)
        gens = "*".join(pres.gen_label[g] for g in word)
        parts.append((sign, coeff + "*" + gens if coeff and gens else coeff or gens or "1"))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


# a number, a generator label up to the first "]", or any other single
# character, which the parser rejects unless it is one of + - * ( ) ^ q
_TOKEN = re.compile(r"\d+|(?:Zd|Z|Y)\[[^\]]*\]|\S")
MAX_NESTING = 100     # one _parse_sum frame per level: well under the recursion limit


def parse_expr(text, pres):
    """Parse the CLI expression grammar into a free NCPoly (not normalized).

        expr   := signs term (sign signs term)*      signs: a run of + and -
        term   := factor ("*"? factor)*
        factor := "q" ("^" "-"* digits)? | digits | generator | "(" expr ")"

    Generators are Y[..] in "w", Z[..] and Zd[..] in "what", their subset
    labels in any digit order; whitespace is free; parentheses nest at most
    MAX_NESTING deep.  Terms are summed over raw {exponent: int} dicts and
    zero sums dropped.  Raises ValueError on malformed input.
    """
    toks = _TOKEN.findall(text)
    try:
        terms, i = _parse_sum(toks, 0, pres, 0)
        if i != len(toks):
            raise ValueError("trailing tokens in expression %r" % text)
    except ValueError:
        _reject_characters(text)
        raise
    out = NCPoly()
    for word, coeff in terms.items():
        if not all(coeff.values()):
            coeff = {e: v for e, v in coeff.items() if v}
            if not coeff:
                continue
        out[word] = LaurentPoly._raw(coeff)
    return out


def _reject_characters(text):
    """Raise for the first character that starts no token, if any."""
    for m in _TOKEN.finditer(text):
        ch = m.group()
        if len(ch) == 1 and not ch.isdecimal() and ch not in "+-*()^q":
            if text.startswith(("Zd[", "Z[", "Y["), m.start()):
                raise ValueError("unterminated generator label in %r" % text)
            raise ValueError("unexpected character %r in expression" % ch)


def _generator(tok, pres):
    """The generator of a label outside pres.gen_index (unsorted or invalid)."""
    kind, lab = tok[:-1].split("[", 1)
    mask = rd.parse_label(lab)
    if (kind == "Y") != (pres.algebra_id == "w"):
        raise ValueError("Y generators do not live in the affine algebra" if kind == "Y"
                         else "generator %s does not live in this algebra" % tok)
    return pres.rank(mask, delta=kind == "Zd")


def _parse_sum(toks, i, pres, depth):
    """Parse `expr` from toks[i]; return ({word: {exponent: int}}, next i).

    A term is c*q^e times the product `poly` of its factors up to its last
    parenthesis, then the generators since (`word`)."""
    n = len(toks)
    index = pres.gen_index
    acc = {}
    while True:
        sign = 1
        while i < n and toks[i] in ("-", "+"):
            if toks[i] == "-":
                sign = -sign
            i += 1
        word, e, c, poly = [], 0, sign, {(): {0: 1}}
        want = True                             # a factor must come next
        while True:
            t = toks[i] if i < n else ""        # "" is the end of the text
            g = index.get(t)
            if g is not None:
                word.append(g)
            elif t == "*" and not want:
                want = True
                i += 1
                continue
            elif t == "q":
                if i + 1 < n and toks[i + 1] == "^":
                    i += 2
                    s = 1
                    while i < n and toks[i] == "-":
                        s = -s
                        i += 1
                    if i == n or not toks[i].isdecimal():
                        raise ValueError("expected an integer exponent" if i < n
                                         else "unexpected end of expression")
                    e += s * int(toks[i])
                else:
                    e += 1
            elif t.isdecimal():
                c *= int(t)
            elif t == "(":
                if depth == MAX_NESTING:
                    raise ValueError("parentheses nest deeper than %d" % MAX_NESTING)
                inner, i = _parse_sum(toks, i + 1, pres, depth + 1)
                if i == n or toks[i] != ")":
                    raise ValueError("missing closing parenthesis")
                poly = _free_product(poly, tuple(word), inner, {})
                word = []
            elif len(t) > 1:
                word.append(_generator(t, pres))
            elif want:
                raise ValueError("unexpected token %r" % t if t
                                 else "unexpected end of expression")
            else:
                break
            want = False
            i += 1
        _free_product(poly, tuple(word), {(): {e: c}}, acc)
        if i == n or toks[i] not in ("-", "+"):
            return acc, i


def _free_product(left, middle, right, out):
    """Add left * middle * right into `out`, all over raw coefficients."""
    for w1, c1 in left.items():
        w1 += middle
        for w2, c2 in right.items():
            dst = out.setdefault(w1 + w2, {})
            for e1, v1 in c1.items():
                for e2, v2 in c2.items():
                    dst[e1 + e2] = dst.get(e1 + e2, 0) + v1 * v2
    return out
