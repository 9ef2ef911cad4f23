import pytest

from qe6 import rootdata as rd
from qe6.qcoeff import ONE, Q, neg_qpow, qpow
from qe6.linalg import SparseMat, cyclic_span
from qe6 import spinrep as sp
from qe6 import adjoint as aj
from qe6 import schubert as sc
from qe6 import checks

M = rd.mask_of


def test_rho_examples():
    m12 = M([1, 2])
    # the pair annihilator sends u_12 to u_e with coefficient (-q)^0 = 1
    assert sp.rho_matrix("Eprime", 1, 2).get(sp.SPIN_INDEX[0], sp.SPIN_INDEX[m12]) == ONE
    # diagonal group-likes
    assert sp.rho_matrix("K", 2).get(sp.SPIN_INDEX[0], sp.SPIN_INDEX[0]) == Q
    # E(i, j) kills vectors without index j
    col = sp.SPIN_INDEX[0]
    assert all(c != col for (_, c) in sp.rho_matrix("E", 1, 2).entries)
    with pytest.raises(ValueError):
        sp.rho_matrix("E", 2, 2)
    with pytest.raises(ValueError):
        sp.rho_matrix("K", 1)


def test_chevalley_degrees():
    # F_2 u_e is u_12 on the nose
    f2 = sp.chevalley_action("F", 2)
    assert f2.get(sp.SPIN_INDEX[M([1, 2])], sp.SPIN_INDEX[0]) == ONE
    # E_6 support: only columns whose subset contains 5 but not 4
    for (_, c) in sp.chevalley_action("E", 6).entries:
        mask = sp.SPIN_BASIS[c]
        assert mask & (1 << 4) and not mask & (1 << 3)


def test_defining_relations():
    assert sp.relation_failures(sp.generator_matrices()) == []


def test_defining_relations_detect_a_rescaled_generator():
    # E2 -> q E2 keeps the K scaling and Serre relations but breaks [E2, F2]
    mats = sp.generator_matrices()
    mats[("E", 2)] = mats[("E", 2)].scale(Q)
    assert sp.relation_failures(mats) == ["commutator E2 F2"]


def test_weight_structure():
    assert sp.weight_support_failures() == []
    ok, fails = sp.irreducibility_check()
    assert ok and not fails


def test_weight_multiset_detects_a_changed_k_exponent(monkeypatch):
    # K_2 with its exponent on u_e raised by one; the E moves stay as they are
    real = sp.chevalley_action
    k2 = real("K", 2)
    top = sp.SPIN_INDEX[0]
    mutant = SparseMat(sp.DIM, sp.DIM, {**k2.entries, (top, top): k2.get(top, top) * Q})
    monkeypatch.setattr(sp, "chevalley_action",
                        lambda kind, i: mutant if (kind, i) == ("K", 2) else real(kind, i))
    assert sp.weight_support_failures() == [
        "weight multiset differs from the radical-root family"]


def test_lowering_closure_of_the_top_vector_is_the_reference():
    # the span irreducibility_check decides by theorem, closed by brute force
    ops = [sp.chevalley_action("F", i).apply for i in rd.IPRIME]
    span = cyclic_span({sp.SPIN_INDEX[0]: ONE}, ops, lambda v: rd.WT[sp.SPIN_BASIS[min(v)]])
    assert len(span) == sp.DIM == rd.weyl_dim(rd.pairings(rd.WT[0]))


def _top_weight_mutant(monkeypatch, lam):
    """Every K_i acting on u_e by q^lam[n], i the n-th node; the rest as it is."""
    real = sp.chevalley_action
    top = sp.SPIN_INDEX[0]
    mutants = {i: SparseMat(sp.DIM, sp.DIM, {**real("K", i).entries, (top, top): qpow(c)})
               for i, c in zip(rd.IPRIME, lam)}
    monkeypatch.setattr(sp, "chevalley_action",
                        lambda kind, i: mutants[i] if kind == "K" else real(kind, i))


def _raising_mutant(monkeypatch):
    """E_3 with an extra entry u_e -> u_e, so it no longer kills u_e."""
    real = sp.chevalley_action
    top = sp.SPIN_INDEX[0]
    e3 = SparseMat(sp.DIM, sp.DIM, {**real("E", 3).entries, (top, top): ONE})
    monkeypatch.setattr(sp, "chevalley_action",
                        lambda kind, i: e3 if (kind, i) == ("E", 3) else real(kind, i))


@pytest.mark.parametrize("mutant, want", [
    ("not-killed", ["E3 does not kill the top vector"]),
    # the K_2 mutant of the weight-multiset test: weight and dimension both move
    ((2, 0, 0, 0, 0), ["top weight (2, 0, 0, 0, 0) (dimension 126) is not the spin weight"]),
    # L(0, 1, 0, 0, 0) is 16-dimensional too: only the weight comparison sees it
    ((0, 1, 0, 0, 0), ["top weight (0, 1, 0, 0, 0) (dimension 16) is not the spin weight"]),
], ids=["not-killed", "k2-raised", "other-16"])
def test_spin_certificate_mutants_fail(monkeypatch, mutant, want):
    if mutant == "not-killed":
        _raising_mutant(monkeypatch)
    else:
        _top_weight_mutant(monkeypatch, mutant)
    assert sp.irreducibility_check() == (False, want)
    check, = [c for c in checks.spinrep_checks(3, "exact", None)
              if c.claim_id == "spin-irreducible"]
    assert check.fn()[0] == "fail"


def test_root_vector_squares_vanish():
    for i in range(1, 6):
        for j in range(1, 6):
            if i != j:
                for kind in ("E", "Eprime"):
                    m = sp.rho_matrix(kind, i, j)
                    assert m.mul(m).is_zero()


def test_phi_intertwines():
    pres = sc.presentation("w")
    ok, fails = sp.phi_check(aj.generator_matrices(pres), pres.gen_mask)
    assert ok and not fails


def test_phi_check_detects_a_rescaled_generator():
    # E3 -> q E3 on the generator span breaks exactly the E3 intertwining
    pres = sc.presentation("w")
    mats = aj.generator_matrices(pres)
    mats[("E", 3)] = mats[("E", 3)].scale(Q)
    assert sp.phi_check(mats, pres.gen_mask) == (False, ["E3 does not intertwine"])


def test_phi_scalars():
    scal = sp.phi_scalars()
    assert scal[0] == ONE
    assert scal[M([1, 2])] == neg_qpow(1)
