import json
from itertools import product

import pytest

from qe6 import rootdata as rd
from qe6.checks import rmatrix_checks
from qe6.report import FAIL
from qe6.qcoeff import ONE, Q, QHAT, qpow
from qe6.linalg import SparseMat, bareiss_rank, cyclic_span
from qe6 import rmatrix as rm
from qe6 import spinrep as sp

M = rd.mask_of


def _commutant():
    return rm.commutant_failures(rm.build_rhat())


def phi_factor(i, j, primed):
    """One full ordered q-exponential factor, identity plus its linear term."""
    kind = "Eprime" if primed else "E"
    first = sp.rho_matrix(kind, i, j)
    second = sp.rho_matrix(kind, j, i)
    return SparseMat.identity(rm.TDIM).add(first.kron(second).scale(QHAT))


def reference_rhat():
    """The braiding as the product of the twenty full 256x256 factors, the
    rightmost acting first, then the weight-pairing diagonal and the flip."""
    acc = SparseMat.identity(rm.TDIM)
    for primed in (True, False):
        for i, j in reversed(rm._FACTOR_ORDER):
            acc = phi_factor(i, j, primed).mul(acc)
    entries = {}
    for (r, c), v in acc.entries.items():
        a, b = rm.tensor_masks(r)
        entries[(rm.tensor_index(b, a), c)] = v * qpow(rd.INNER_WT[(a, b)])
    return SparseMat(rm.TDIM, rm.TDIM, entries)


def test_build_rhat_matches_the_full_factor_product():
    want = reference_rhat()
    got = rm.build_rhat()
    assert len(want.entries) == len(got.entries) == 606
    assert got == want


def test_phi_factor_shape():
    f = phi_factor(1, 2, primed=False)
    assert f.nrows == f.ncols == 256
    # identity on u_e (x) u_e: the correction needs index 2 in the first leg
    idx = rm.tensor_index(0, 0)
    assert f.get(idx, idx) == ONE
    assert all(c != idx for (_, c) in f.entries if _ != idx)


def test_diagonal_entries():
    for m in rd.ALL_MASKS:
        assert rm.rhat_coeff(m, m, m, m) == Q * Q
    m12, m34 = M([1, 2]), M([3, 4])
    assert rm.rhat_coeff(m12, m34, m12, m34) == qpow(rd.INNER_WT[(m12, m34)])


def test_hand_derived_entries():
    m12, m34 = M([1, 2]), M([3, 4])
    m24, m13 = M([2, 4]), M([1, 3])
    # two-path flip computed by hand through the ordered factor product
    assert rm.rhat_coeff(m34, m12, m12, m34) == QHAT * (Q - qpow(-3))
    assert rm.rhat_coeff(m24, m13, m13, m24) == QHAT * QHAT
    # single-factor move
    assert rm.rhat_coeff(m24, m13, M([2, 3]), M([1, 4])) == QHAT
    # annihilation-creation move across the primed block
    assert rm.rhat_coeff(m34, m12, 0, M([1, 2, 3, 4])) == QHAT * qpow(-4)
    # size-2 flip
    assert rm.rhat_coeff(m12, 0, 0, m12) == QHAT * Q
    # strictly-below entries vanish
    assert not rm.rhat_coeff(0, m12, m12, 0)


def test_closed_form_matches_construction_everywhere():
    rep = rm.coeff_check()
    assert rep["ok"]
    assert rep["mismatches"] == []
    assert rep["support_ok"]
    # the printed flip-case expression differs in exactly the 30 comparable
    # flip positions of the ten octet classes
    assert rep["printed_flip_diff_count"] == 30


def test_support_condition():
    rep = rm.coeff_check()
    assert rep["ok"] and not rep["support_violations"]


def test_support_violations_name_every_entry_off_the_support(monkeypatch):
    # one entry strictly below the order inside its class (the vanishing
    # coefficient of u_e (x) u_12 on itself) and one between two classes
    m12 = M([1, 2])
    off = {(rm.tensor_index(0, m12), rm.tensor_index(0, m12)),
           (rm.tensor_index(0, 0), rm.tensor_index(m12, 0))}
    mutant = rm.build_rhat().add(SparseMat(rm.TDIM, rm.TDIM, dict.fromkeys(off, ONE)))
    monkeypatch.setattr(rm, "build_rhat", lambda: mutant)
    suite = {c.claim_id: c.fn for c in rmatrix_checks(3, "exact", None)}
    status, details = suite["support-triangularity"]()
    assert status == FAIL
    assert ({(tuple(v["row"]), tuple(v["col"])) for v in details["violations"]}
            == {(tuple(rm.pair_label(r)), tuple(rm.pair_label(c))) for r, c in off})
    status, details = suite["coefficient-table"]()
    assert status == FAIL and not details["support_ok"] and len(details["mismatches"]) == 1


def test_nonzero_count():
    assert len(rm.build_rhat().entries) == 606


def test_ybe():
    # reference: the full identity as products of 4096x4096 matrices
    eye = SparseMat.identity(rm.DIM)
    r12 = rm.build_rhat().kron(eye)
    r23 = eye.kron(rm.build_rhat())
    assert r12.mul(r23.mul(r12)) == r23.mul(r12.mul(r23))
    rep = rm.ybe_check(_commutant())
    assert rep["ok"]
    assert rep["columns_checked"] == 91
    assert rep["dominant_weights"] == 5
    assert rep["commutant_failures"] == []
    assert rep["failing_columns"] == 0 and rep["first_failure"] is None


def test_braiding_legs_match_the_kron_products():
    # ybe_check's R12 and R23 against the 4096x4096 matrices, on each of the
    # 91 dominant triples and on the multi-term vectors of the two chains
    rhat = rm.build_rhat()
    eye = SparseMat.identity(rm.DIM)
    r12, r23 = rhat.kron(eye), eye.kron(rhat)
    for (a, b, c), _ in rm.dominant_tuples(3):
        e = {(a * rm.DIM + b) * rm.DIM + c: ONE}
        for _ in range(3):
            got12, got23 = rm.apply_r12(rhat, e), rm.apply_r23(rhat, e)
            assert got12 == r12.apply(e) and got23 == r23.apply(e)
            assert all(v for v in got12.values()) and all(v for v in got23.values())
            e = r23.apply(got12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dominant_tuples_match_the_filtered_product(n):
    exps = rm.k_exponents()
    want = []
    for tup in product(range(rm.DIM), repeat=n):
        weight = tuple(sum(e[a] for a in tup) for e in exps)
        if min(weight) >= 0:
            want.append((tup, weight))
    assert rm.dominant_tuples(n) == want
    assert len(want) == {1: 1, 2: 11, 3: 91}[n]


def _one_entry_mutant():
    rhat = rm.build_rhat()
    key = min(k for k in rhat.entries if k[0] != k[1])
    return rhat.add(SparseMat(rm.TDIM, rm.TDIM, {key: ONE}))


@pytest.mark.parametrize("name", ["plus_one", "square"])
def test_equivariant_mutants_fail_on_dominant_columns(monkeypatch, name):
    # R + 1 and R^2 commute with the action, so only the dominant columns can
    # catch them; a failing column is a column of the full difference
    rhat = rm.build_rhat()
    mutant = rhat.add(SparseMat.identity(rm.TDIM)) if name == "plus_one" else rhat.mul(rhat)
    monkeypatch.setattr(rm, "build_rhat", lambda: mutant)
    rep = rm.ybe_check(_commutant())
    assert not rep["ok"]
    assert rep["commutant_failures"] == []
    assert rep["failing_columns"] > 0


def test_braid_relation_failure_names_its_reproducer(monkeypatch):
    mutant = _one_entry_mutant()
    monkeypatch.setattr(rm, "build_rhat", lambda: mutant)
    check, = [c for c in rmatrix_checks(3, "exact", None)
              if c.claim_id == "braid-relation"]
    status, details = check.fn()
    assert status == FAIL
    assert details["first_failure"] == {"triple": ["12", "e", "e"],
                                        "weight": [1, 0, 1, 0, 0]}
    assert details["commutant_failures"] == ["E2", "E4", "F2", "F4"]
    assert json.loads(json.dumps(details)) == details


def test_equivariance_and_inverse():
    rep = rm.equivariance_check(_commutant())
    assert rep["ok"]
    assert rep["commutant_failures"] == []
    assert rep["invertible"]
    assert rep["columns_checked"] == 11
    assert len({w for _, w in rm.dominant_tuples(2)}) == 3
    assert rep["eigenvalues"] == ["-1", "q^2", "q^-6"]
    # reference: the cubic as the full product of 256x256 matrices
    rhat = rm.build_rhat()
    eye = SparseMat.identity(rm.TDIM)
    cubic = eye
    for lam in rm.EIGENVALUES:
        cubic = cubic.mul(rhat.sub(eye.scale(lam)))
    assert cubic.is_zero()
    # the inverse read off the cubic identity, over the Laurent ring
    inverse = (rhat.mul(rhat)
               .add(rhat.scale(ONE - qpow(2) - qpow(-6)))
               .add(eye.scale(qpow(-4) - qpow(2) - qpow(-6)))
               .scale(-qpow(4)))
    assert rhat.mul(inverse) == eye


@pytest.mark.parametrize("name", ["plus_one", "square", "ten_summand"])
def test_equivariant_mutants_fail_the_cubic(monkeypatch, name):
    # polynomials in R commute with the action, so only the dominant pairs
    # can catch them; R + (R + 1)(R - q^2) keeps the eigenvalues on 120 and
    # 126 and moves the one on 10, whose dominant pairs come last
    rhat = rm.build_rhat()
    eye = SparseMat.identity(rm.TDIM)
    mutant = {"plus_one": lambda: rhat.add(eye),
              "square": lambda: rhat.mul(rhat),
              "ten_summand": lambda: rhat.add(rhat.add(eye).mul(rhat.sub(eye.scale(qpow(2)))))
              }[name]()
    monkeypatch.setattr(rm, "build_rhat", lambda: mutant)
    check, = [c for c in rmatrix_checks(3, "exact", None) if c.claim_id == "module-map"]
    status, details = check.fn()
    assert status == FAIL
    assert details["commutant_failures"] == []
    assert not details["invertible"]


def test_one_entry_mutant_fails_the_cubic_identity(monkeypatch):
    mutant = _one_entry_mutant()
    monkeypatch.setattr(rm, "build_rhat", lambda: mutant)
    rep = rm.equivariance_check(_commutant())
    assert not rep["ok"]
    assert not rep["invertible"]
    # the braid relation check rejects it through the shared commutant
    braid = rm.ybe_check(_commutant())
    assert not braid["ok"]
    assert braid["commutant_failures"] == rep["commutant_failures"] != []
    # and so does the eigenspace check: R + 1 is no module map
    eig = rm.eigen_split(_commutant())
    assert not eig["ok"] and not eig["closure_in_kernel"]


def test_a_failed_commutant_fails_every_module_map_check():
    # the module-map argument needs the commutant: with a failure passed in,
    # no check may pass on the true braiding
    assert not rm.ybe_check(["E2"])["ok"]
    assert not rm.equivariance_check(["E2"])["invertible"]
    eig = rm.eigen_split(["E2"])
    assert not eig["ok"] and not eig["closure_in_kernel"]


def test_k_commutation_is_decided_entry_by_entry():
    # an entry from u_12 (x) u_e to u_e (x) u_e joins weights that differ by
    # alpha_2, which pairs nonzero with alpha_2 and alpha_4 only
    mutant = _k_joining_mutant()
    fails = rm.commutant_failures(mutant)
    assert [name for name in fails if name[0] == "K"] == ["K2", "K4"]
    for mat in (rm.build_rhat(), _one_entry_mutant(), mutant):
        fails = rm.commutant_failures(mat)
        for i in rd.IPRIME:
            assert ("K%d" % i in fails) == (not rm.coproduct_action("K", i).commutes_with(mat))


def _all_products_commutant(rhat):
    """The commutant's reference: every Delta(E_i), Delta(F_i) and
    Delta(K_i) tested as two full 256x256 products."""
    return ["%s%d" % (kind, i) for kind in ("E", "F", "K") for i in rd.IPRIME
            if not rm.coproduct_action(kind, i).commutes_with(rhat)]


def _k_joining_mutant():
    m12 = M([1, 2])
    joins = {(rm.tensor_index(0, 0), rm.tensor_index(m12, 0)): ONE}
    return rm.build_rhat().add(SparseMat(rm.TDIM, rm.TDIM, joins))


def _top_to_lowest_mutant():
    # u_e (x) u_e to the lowest pair u_2345 (x) u_2345: no Delta(F_j) reaches
    # the top pair and every one kills the lowest, so only K and E fail
    low = M([2, 3, 4, 5])
    joins = {(rm.tensor_index(low, low), rm.tensor_index(0, 0)): ONE}
    return rm.build_rhat().add(SparseMat(rm.TDIM, rm.TDIM, joins))


def _ten_summand_mutant():
    rhat, eye = rm.build_rhat(), SparseMat.identity(rm.TDIM)
    return rhat.add(rhat.add(eye).mul(rhat.sub(eye.scale(qpow(2)))))


_BRAIDING_MUTANTS = {
    "true": rm.build_rhat,
    "one_entry": _one_entry_mutant,
    "k_joining": _k_joining_mutant,
    "top_to_lowest": _top_to_lowest_mutant,
    "plus_one": lambda: rm.build_rhat().add(SparseMat.identity(rm.TDIM)),
    "square": lambda: rm.build_rhat().mul(rm.build_rhat()),
    "ten_summand": _ten_summand_mutant,
}


def _counted_products(monkeypatch):
    """A list that grows by one at each full-product commutation test."""
    products = []
    real = SparseMat.commutes_with
    monkeypatch.setattr(SparseMat, "commutes_with",
                        lambda self, other: products.append(1) or real(self, other))
    return products


@pytest.mark.parametrize("name", _BRAIDING_MUTANTS)
def test_commutant_matches_the_all_products_reference(monkeypatch, name):
    # E_i goes to full products only when a K_j or F_j fails; otherwise it is
    # decided on the 11 dominant pairs, and the names must not change
    mat = _BRAIDING_MUTANTS[name]()
    want = _all_products_commutant(mat)
    products = _counted_products(monkeypatch)
    assert rm.commutant_failures(mat) == want
    assert len(products) == (5 if not any(f[0] in "FK" for f in want) else 10)
    assert (want == []) == (name in ("true", "plus_one", "square", "ten_summand"))


def test_coproduct_action_satisfies_the_defining_relations():
    # the hypothesis of the dominant-pair test of E_i: the coproduct makes
    # V (x) V a module, so E_i F_j - F_j E_i = delta_ij [K_i] holds there
    mats = {(kind, i): rm.coproduct_action(kind, i)
            for kind in ("E", "F", "K") for i in rd.IPRIME}
    for i in rd.IPRIME:
        kinv = sp.chevalley_action("Kinv", i)
        mats[("Kinv", i)] = kinv.kron(kinv)
    assert sp.relation_failures(mats) == []


def test_dominant_pairs_catch_a_raising_action_that_does_not_commute(monkeypatch):
    # Delta(E_2) replaced by the opposite coproduct: K and F still commute,
    # so E_2 is decided on the dominant pairs alone, and they see it fail
    e, kinv = sp.chevalley_action("E", 2), sp.chevalley_action("Kinv", 2)
    opposite = e.kron(kinv).add(SparseMat.identity(rm.DIM).kron(e))
    real = rm.coproduct_action
    monkeypatch.setattr(rm, "coproduct_action", lambda kind, i: (
        opposite if (kind, i) == ("E", 2) else real(kind, i)))
    products = _counted_products(monkeypatch)
    assert rm.commutant_failures(rm.build_rhat()) == ["E2"]
    assert len(products) == 5
    assert _all_products_commutant(rm.build_rhat()) == ["E2"]


def test_suite_computes_the_commutant_once_per_pass(monkeypatch):
    real = rm.commutant_failures
    calls = []
    monkeypatch.setattr(rm, "commutant_failures",
                        lambda rhat: calls.append(1) or real(rhat))
    for passes in (1, 2):
        checks = [c for c in rmatrix_checks(3, "exact", None)
                  if c.claim_id in ("braid-relation", "module-map", "negative-eigenspace")]
        assert [c.fn()[0] for c in checks] == ["pass", "pass", "pass"]
        assert len(calls) == passes


def test_eigenspace_dimensions():
    # 120 + 126 + 10 = 256: the braiding is diagonalizable, one eigenvalue
    # per summand of the multiplicity-free tensor square
    rhat = rm.build_rhat()
    eye = SparseMat.identity(rm.TDIM)
    dims = [rm.class_kernel_dim(rhat.sub(eye.scale(lam))) for lam in rm.EIGENVALUES]
    assert dims == [120, 126, 10]


def _block_by_block_kernel_dim(mat):
    dim = 0
    for cls in rd.CLASSES:
        idxs = [rm.tensor_index(a, b) for (a, b) in cls.members]
        dim += len(idxs) - bareiss_rank([[mat.get(r, c) for c in idxs] for r in idxs])
    return dim


@pytest.mark.parametrize("name", ["plus_one", "mutant", "mutant_plus_one"])
def test_class_kernel_dim_matches_the_block_by_block_sum(name):
    # equal blocks are ranked once; a changed block must not be merged
    eye = SparseMat.identity(rm.TDIM)
    mat = rm.build_rhat() if name == "plus_one" else _one_entry_mutant()
    if name != "mutant":
        mat = mat.add(eye)
    want = {"plus_one": 120, "mutant": 0, "mutant_plus_one": 119}[name]
    assert rm.class_kernel_dim(mat) == _block_by_block_kernel_dim(mat) == want


def test_eigen_split():
    rep = rm.eigen_split(_commutant())
    assert rep["ok"]
    assert rep["kernel_dim"] == 120
    assert rep["complement_dim"] == 136
    assert rep["seed_in_kernel"]
    assert rep["closure_dim"] == 120
    assert rep["closure_in_kernel"]
    assert rep["relation_span_dim"] == 120
    # reference: the closure of the seed under the tensor-square action
    mplus = rm.build_rhat().add(SparseMat.identity(rm.TDIM))
    ops = [rm.coproduct_action(k, i).apply for k in ("E", "F") for i in rd.IPRIME]
    closure = cyclic_span(rm.generator_vector(), ops,
                          lambda v: rd.wadd(*(rd.WT[m] for m in rm.tensor_masks(min(v)))))
    assert len(closure) == 120
    assert all(not mplus.apply(v) for v in closure)


@pytest.mark.parametrize("name", ["not_in_kernel", "lowered", "two_weights"])
def test_seed_not_of_highest_weight_fails_the_eigenspace_check(monkeypatch, name):
    # u_e (x) u_12 alone is not raised to zero by E_2; Delta(F_4) of the seed
    # lies in the kernel but is not raised to zero by E_4; the seed plus
    # u_e (x) u_e is raised to zero but has two weights
    if name == "not_in_kernel":
        seed = {rm.tensor_index(0, M([1, 2])): ONE}
    elif name == "lowered":
        seed = rm.coproduct_action("F", 4).apply(rm.generator_vector())
    else:
        seed = {**rm.generator_vector(), rm.tensor_index(0, 0): ONE}
    monkeypatch.setattr(rm, "generator_vector", lambda: seed)
    check, = [c for c in rmatrix_checks(3, "exact", None)
              if c.claim_id == "negative-eigenspace"]
    status, details = check.fn()
    assert status == FAIL
    assert details["closure_dim"] is None
    assert details["seed_in_kernel"] == (name == "lowered")


def test_dump_shapes():
    doc = rm.rhat_json()
    assert len(doc["basis"]) == 256
    assert len(doc["entries"]) == 606
    csv = rm.rhat_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("row,col")
    assert len(lines) == 607
