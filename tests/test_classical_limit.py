"""The classical limit q = 1 as a second oracle.

Evaluation at q = 1 sends a Laurent polynomial to the sum of its
coefficients.  At q = 1 the braiding becomes the flip of the tensor legs,
and every straightening rule of both cell algebras becomes the commutation
ab = ba: each correction term carries a factor q - q^-1.  Evaluation is a
ring map, so it commutes with rewriting: at q = 1 every normal form is the
commutative product, each word sorted non-increasing.
"""

import random

import pytest

from qe6 import rmatrix as rm
from qe6 import schubert as sc
from qe6.linalg import SparseMat
from qe6.qcoeff import LaurentPoly


def at_one(coeff):
    return sum(coeff.c.values())


def flip_failures(rhat):
    """The (row, col) where `rhat` at q = 1 differs from the flip
    u_a (x) u_b -> u_b (x) u_a, over all 256^2 entries."""
    flip = {(rm.tensor_index(b, a), rm.tensor_index(a, b))
            for a in rm.SPIN_BASIS for b in rm.SPIN_BASIS}
    return sorted({key for key, v in rhat.entries.items() if at_one(v) != (key in flip)}
                  | {key for key in flip if key not in rhat.entries})


def commutation_failures(rules):
    """The heads (a, b) of a rule table, {head: ((coeff, word), ...)}, whose
    rule at q = 1 is not ab = ba."""
    fails = []
    for head, terms in rules.items():
        value = {}
        for coeff, word in terms:
            value[word] = value.get(word, 0) + at_one(coeff)
        if {w: v for w, v in value.items() if v} != {head[::-1]: 1}:
            fails.append(head)
    return fails


def test_braiding_at_one_is_the_flip():
    assert flip_failures(rm.build_rhat()) == []


def test_a_negated_braiding_entry_moves_off_the_flip():
    rhat = rm.build_rhat()
    key = (rm.tensor_index(0, 0), rm.tensor_index(0, 0))
    mutant = SparseMat(rm.TDIM, rm.TDIM, {**rhat.entries, key: -rhat.entries[key]})
    assert flip_failures(mutant) == [key]


@pytest.mark.parametrize("algebra, count", [("w", 120), ("what", 496)])
def test_every_rule_at_one_is_a_commutation(algebra, count):
    pres = sc.presentation(algebra)
    assert len(pres.rules) == len(sc.reduced_rules(pres)) == count
    assert commutation_failures(pres.rules) == []
    assert commutation_failures(sc.reduced_rules(pres)) == []


@pytest.mark.parametrize("algebra", ["w", "what"])
def test_a_negated_swap_coefficient_fails_the_commutation(algebra):
    pres = sc.presentation(algebra)
    head = next(iter(pres.rules))
    (coeff, swap), *rest = pres.rules[head]
    assert swap == head[::-1]
    mutant = {**pres.rules, head: ((-coeff, swap), *rest)}
    assert commutation_failures(mutant) == [head]


def sorted_at_one(x):
    """x at q = 1 in the commutative polynomial ring: each word sorted
    non-increasing, the values of its coefficients at q = 1 summed."""
    out = {}
    for word, coeff in x.items():
        key = tuple(sorted(word, reverse=True))
        out[key] = out.get(key, 0) + at_one(coeff)
    return {w: v for w, v in out.items() if v}


def seeded_sums(pres, seed, count=150):
    """Sums of 1-3 words of one degree 2-5 with Laurent coefficients of 1-3
    terms; a word after the first permutes the first word's letters half of
    the time, so that sorted words meet and their coefficients are summed."""
    rng = random.Random(seed)
    for _ in range(count):
        first = [rng.randrange(pres.ngens) for _ in range(rng.randint(2, 5))]
        x = sc.NCPoly()
        for _ in range(rng.randint(1, 3)):
            word = rng.sample(first, len(first)) if rng.random() < 0.5 else \
                [rng.randrange(pres.ngens) for _ in first]
            coeff = LaurentPoly({rng.randint(-3, 3): rng.randint(-3, 3)
                                 for _ in range(rng.randint(1, 3))})
            x.iadd_term(tuple(word), coeff)
        yield x


def sort_failures(pres, strategy, seed):
    """The seeded sums whose normal form at q = 1 is not sorted_at_one."""
    return [x for x in seeded_sums(pres, seed)
            if sorted_at_one(sc.normal_form(x, pres, strategy)) != sorted_at_one(x)]


@pytest.mark.parametrize("strategy", ["left", "right"])
@pytest.mark.parametrize("algebra", ["w", "what"])
def test_normal_form_at_one_is_the_sorted_sum(algebra, strategy):
    pres = sc.presentation(algebra)
    assert sort_failures(pres, strategy, "%s-%s" % (algebra, strategy)) == []


@pytest.mark.parametrize("algebra", ["w", "what"])
def test_a_negated_compiled_swap_moves_a_normal_form_at_one(algebra, monkeypatch):
    pres = sc.presentation(algebra)
    real = sc.compiled_rules(pres)
    head = next(iter(real))
    (swap, items), *rest = real[head]
    mutant = {**real, head: ((swap, tuple((e, -v) for e, v in items)), *rest)}
    monkeypatch.setattr(sc, "compiled_rules", lambda p: mutant)
    assert sort_failures(pres, "left", "%s-left" % algebra) != []
