"""Exact coefficient arithmetic: Laurent polynomials in q over Z.

Everything downstream (rewriting, representation matrices, R-matrix entries,
relation spans) is computed over these coefficients; no floating point anywhere.

The raw-accumulate rule of the hot loops, schubert._rewrite,
linalg.sum_products (SparseMat.mul and apply, rmatrix.ybe_check),
adjoint._add_image (ad_E and ad_F) and schubert.parse_expr: partial
products are summed as raw {exponent: int} dicts, one per output entry, and
one LaurentPoly is made per output entry at the end, with zero sums dropped.
No LaurentPoly is built, added or pruned per partial product.
"""

from operator import add


class LaurentPoly:
    """Laurent polynomial in q with arbitrary-precision integer coefficients.

    Stored as a dict {exponent: coefficient} with no zero values.  Immutable,
    with the hash kept on first use: no dict that _raw wraps (or
    schubert._rewrite, which sets c itself) may change later.
    """

    __slots__ = ("c", "_hash")

    def __init__(self, c=None):
        self.c = {e: v for e, v in c.items() if v} if c else {}

    @classmethod
    def _raw(cls, c):
        # internal: trusts c to be pruned already
        self = cls.__new__(cls)
        self.c = c
        return self

    @classmethod
    def from_int(cls, n):
        return cls._raw({0: n} if n else {})

    @classmethod
    def term(cls, coeff, exp):
        return cls._raw({exp: coeff} if coeff else {})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if type(other) is LaurentPoly:
            return self.c == other.c
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            # a constant equals its int, so it hashes as that int
            c = self.c
            self._hash = hash(c.get(0, 0)) if c.keys() <= {0} else hash(frozenset(c.items()))
            return self._hash

    def __neg__(self):
        return LaurentPoly._raw({e: -v for e, v in self.c.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return LaurentPoly._raw(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, 0) - v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return LaurentPoly._raw(c)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPoly._raw({e: v * other for e, v in self.c.items()})
        a, b = self.c, other.c
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a shift and a scale: distinct exponents, no zero product
            ((ea, va),) = a.items()
            return LaurentPoly._raw({ea + eb: va * vb for eb, vb in b.items()})
        c = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                w = c.get(e, 0) + va * vb
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        return LaurentPoly._raw(c)

    __rmul__ = __mul__

    def is_unit(self):
        """True for the units +-q^k of the Laurent ring."""
        if len(self.c) != 1:
            return False
        (v,) = self.c.values()
        return v == 1 or v == -1

    def __pow__(self, n):
        if n < 0:
            if self.is_unit():
                ((e, v),) = self.c.items()
                return LaurentPoly._raw({e * n: -1 if (v == -1 and n & 1) else 1})
            raise ValueError("negative power of a non-unit Laurent polynomial")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def min_exp(self):
        return min(self.c) if self.c else 0

    def max_exp(self):
        return max(self.c) if self.c else 0

    def exact_div(self, other):
        """Exact division in the Laurent ring; raises ValueError if inexact."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return ZERO
        sa, sb = self.min_exp(), other.min_exp()
        rem = {e - sa: v for e, v in self.c.items()}
        den = {e - sb: v for e, v in other.c.items()}
        dmax = max(den)
        dlead = den[dmax]
        quot = {}
        while rem:
            rmax = max(rem)
            if rmax < dmax:
                raise ValueError("inexact polynomial division")
            qc, r = divmod(rem[rmax], dlead)
            if r:
                raise ValueError("inexact polynomial division")
            qe = rmax - dmax
            quot[qe] = qc
            for e, v in den.items():
                ee = e + qe
                w = rem.get(ee, 0) - qc * v
                if w:
                    rem[ee] = w
                elif ee in rem:
                    del rem[ee]
        return LaurentPoly._raw({e + sa - sb: v for e, v in quot.items() if v})

    def eval_mod(self, q0, p):
        """Evaluate at q = q0 in the field of p elements; q0 must be invertible."""
        if q0 % p == 0:
            raise ValueError("q must be evaluated at an invertible residue")
        acc = 0
        for e, v in self.c.items():
            acc = (acc + v * pow(q0, e, p)) % p
        return acc

    def to_json(self):
        return {str(e): str(v) for e, v in sorted(self.c.items())}

    def __str__(self):
        return strip_lead(terms_text(self.c)) if self.c else "0"

    __repr__ = __str__


def terms_text(c, gens=""):
    """The terms of the sum c*gens, for a LaurentPoly's dict c and gens a
    printed word or "", as " + a - b ...": highest exponent first, a
    coefficient 1 printed only without a word.  The one monomial format of
    LaurentPoly and schubert.format_poly; strip_lead makes it a sum."""
    tail = "*" + gens if gens else ""
    out = []
    for e in sorted(c, reverse=True):
        v = c[e]
        if v < 0:
            sign, v = " - ", -v
        else:
            sign = " + "
        if e:
            qp = "q" if e == 1 else "q^%d" % e
            out.append(sign + qp + tail if v == 1 else "%s%d*%s%s" % (sign, v, qp, tail))
        else:
            out.append(sign + gens if v == 1 and gens else "%s%d%s" % (sign, v, tail))
    return "".join(out)


def strip_lead(text):
    """The sum " + a - b ..." as printed, "a - b ..."; " - a ..." gives "-a ..."."""
    return text[3:] if text[1] == "+" else "-" + text[3:]


ZERO = LaurentPoly.from_int(0)
ONE = LaurentPoly.from_int(1)
Q = LaurentPoly.term(1, 1)
QINV = LaurentPoly.term(1, -1)


def qpow(k):
    """The monomial q^k."""
    return LaurentPoly.term(1, k)


def neg_qpow(k):
    """(-q)^k, for any integer k."""
    return LaurentPoly.term(-1 if k & 1 else 1, k)


def qhat():
    """The ubiquitous relation coefficient q - q^{-1}."""
    return LaurentPoly._raw({1: 1, -1: -1})


QHAT = qhat()


def accumulate(terms, key, value):
    """Add value into terms[key], deleting the key when the sum is zero: the
    one-term form of accumulate_all."""
    accumulate_all(terms, ((key, value),))


def accumulate_all(terms, items, add=add):
    """Add each value of the (key, value) items into terms[key] as
    add(old, value), deleting a key whose sum is zero.

    `terms` is a sparse vector {key: coefficient} that stores no zero
    coefficient; the coefficients are LaurentPoly values.  The one
    sparse-accumulate helper: callers that add many terms pass them all in
    one call.  frt passes an `add` that returns one object per value.
    """
    for key, value in items:
        old = terms.get(key)
        if old is not None:
            value = add(old, value)
        if value:
            terms[key] = value
        elif old is not None:
            del terms[key]
