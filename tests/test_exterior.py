import itertools

import numpy as np
import pytest

from spin42.clifford import SIGMA
from spin42.errors import (
    GradeMismatch,
    GradeOverflow,
    IndexOutOfRange,
    NotSelfDual,
)
from spin42.exterior import (
    KVector,
    basis_bivector,
    basis_kvector,
    herm_inner,
    hodge_star,
    is_decomposable,
    kv_add,
    kv_norm,
    kv_scale,
    phi,
    phi_inverse,
    scalar,
    selfdual_split,
    vector,
    wedge,
)
from spin42 import forms, suites
from spin42.forms import DEFAULT_TOL, Q_DIAG, q_bilinear, q_form
from spin42.sampling import random_kvector, random_null_vec6, random_nonnull_vec6

E = [None] + [vector(np.eye(4)[i]) for i in range(4)]
VOL = basis_kvector((1, 2, 3, 4))
# entries (i, j), i < j, in the increasing-index order of bivector coefficients
_UPPER = np.triu_indices(4, 1)


def _dev(a: KVector, b: KVector) -> float:
    return kv_norm(kv_add(a, kv_scale(-1.0, b)))


def test_wedge_of_two_vectors():
    b = wedge(E[1], E[2])
    assert b.comps[0, 1] == 1 and b.comps[1, 0] == -1
    assert np.count_nonzero(b.comps) == 2
    assert kv_norm(wedge(E[1], E[1])) == 0.0


def test_wedge_top_grade_and_volume():
    assert wedge(basis_kvector((1, 2)), basis_kvector((3, 4))).comps[0, 1, 2, 3] == 1
    assert wedge(basis_kvector((1, 3)), basis_kvector((2, 4))).comps[0, 1, 2, 3] == -1
    assert VOL.comps[0, 1, 2, 3] == 1 and VOL.comps[1, 0, 2, 3] == -1


def test_wedge_grade_overflow():
    with pytest.raises(GradeOverflow):
        wedge(basis_kvector((1, 2, 3)), basis_kvector((1, 2)))


def test_wedge_scalar_acts_as_scaling():
    b = wedge(scalar(3.0), E[2])
    assert np.array_equal(b.comps, 3.0 * E[2].comps)


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(21)
    for p, q in [(1, 1), (1, 2), (2, 2), (1, 3), (0, 2)]:
        a = random_kvector(rng, p)
        b = random_kvector(rng, q)
        assert _dev(wedge(a, b), kv_scale((-1.0) ** (p * q), wedge(b, a))) < 1e-12


def test_wedge_associativity():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = random_kvector(rng, 1)
        b = random_kvector(rng, 1)
        d = random_kvector(rng, 2)
        assert _dev(wedge(wedge(a, b), d), wedge(a, wedge(b, d))) < 1e-12


def test_herm_inner_on_basis():
    assert herm_inner(E[1], E[1]) == 1
    assert herm_inner(E[3], E[3]) == -1
    assert herm_inner(E[1], E[3]) == 0
    assert herm_inner(basis_kvector((1, 2)), basis_kvector((1, 2))) == 1
    assert herm_inner(basis_kvector((1, 3)), basis_kvector((1, 3))) == -1
    assert herm_inner(VOL, VOL) == 1


def test_herm_inner_conjugates_second_argument():
    a = kv_scale(1j, E[1])
    assert herm_inner(a, E[1]) == 1j
    assert herm_inner(E[1], a) == -1j


def test_herm_inner_hermitian_property():
    rng = np.random.default_rng(23)
    for k in range(5):
        u = random_kvector(rng, k)
        v = random_kvector(rng, k)
        assert herm_inner(u, v) == pytest.approx(np.conj(herm_inner(v, u)), abs=1e-12)


def test_herm_inner_grade_mismatch():
    with pytest.raises(GradeMismatch):
        herm_inner(E[1], basis_kvector((1, 2)))


def test_basis_bivector_index_range():
    with pytest.raises(IndexOutOfRange):
        basis_bivector(7)
    with pytest.raises(IndexOutOfRange):
        basis_kvector((5,))


def test_basis_bivector_gram_is_minus_q():
    es = [basis_bivector(a) for a in range(1, 7)]
    for a in range(6):
        for b in range(6):
            want = -Q_DIAG[a] if a == b else 0.0
            assert herm_inner(es[a], es[b]) == pytest.approx(want, abs=1e-12)


def test_basis_bivector_gram_exact_before_normalization():
    # with the 1/sqrt(2) factor stripped the arithmetic stays on the
    # integer lattice and the Gram matrix is -2 Q with zero error
    for a in range(6):
        for b in range(6):
            v = herm_inner(KVector(2, SIGMA[a][_UPPER]), KVector(2, SIGMA[b][_UPPER]))
            assert v == (complex(-2.0 * Q_DIAG[a]) if a == b else 0j)


def test_basis_bivector_frobenius_orthogonal():
    for a in range(6):
        for b in range(6):
            frob = np.sum(SIGMA[a] * np.conj(SIGMA[b]))
            assert frob == (4.0 if a == b else 0.0)


def test_hodge_star_fixes_basis_bivectors_exactly():
    for a in range(1, 7):
        e = basis_bivector(a)
        assert np.array_equal(hodge_star(e).comps, e.comps)


def test_hodge_star_monomial_values():
    assert _dev(hodge_star(scalar(1.0)), VOL) == 0.0
    assert _dev(hodge_star(E[1]), basis_kvector((2, 3, 4))) == 0.0
    assert _dev(hodge_star(basis_kvector((1, 2))), basis_kvector((3, 4))) == 0.0


def test_hodge_star_defining_relation_all_monomials():
    for k in range(5):
        for ci in itertools.combinations(range(1, 5), k):
            for cj in itertools.combinations(range(1, 5), k):
                x, y = basis_kvector(ci), basis_kvector(cj)
                lhs = wedge(x, hodge_star(y)).comps[0, 1, 2, 3]
                assert lhs == pytest.approx(herm_inner(x, y), abs=1e-14)


def test_hodge_star_is_antilinear():
    assert _dev(hodge_star(kv_scale(1j, basis_bivector(1))),
                kv_scale(-1j, basis_bivector(1))) == 0.0
    rng = np.random.default_rng(24)
    for k in range(5):
        y = random_kvector(rng, k)
        lam = complex(rng.normal(), rng.normal())
        assert _dev(hodge_star(kv_scale(lam, y)),
                    kv_scale(np.conj(lam), hodge_star(y))) < 1e-12


def test_hodge_star_square_signs():
    rng = np.random.default_rng(25)
    for k in range(5):
        sign = (-1.0) ** (k * (4 - k))
        for _ in range(10):
            y = random_kvector(rng, k)
            assert _dev(hodge_star(hodge_star(y)), kv_scale(sign, y)) < 1e-12


def test_hodge_star_pairing_symmetry():
    rng = np.random.default_rng(26)
    for k in range(5):
        sign = (-1.0) ** (k * (4 - k))
        for _ in range(10):
            y = random_kvector(rng, k)
            x = random_kvector(rng, 4 - k)
            assert herm_inner(x, hodge_star(y)) == pytest.approx(
                sign * herm_inner(y, hodge_star(x)), abs=1e-12
            )


def test_selfdual_split_on_eigenvectors():
    e1 = basis_bivector(1)
    sd, asd = selfdual_split(e1)
    assert _dev(sd, e1) == 0.0 and kv_norm(asd) == 0.0
    sd, asd = selfdual_split(kv_scale(1j, e1))
    assert kv_norm(sd) == 0.0 and _dev(asd, kv_scale(1j, e1)) == 0.0


def test_selfdual_split_recombines():
    rng = np.random.default_rng(27)
    for _ in range(20):
        b = random_kvector(rng, 2)
        sd, asd = selfdual_split(b)
        assert _dev(kv_add(sd, asd), b) < 1e-13
        assert _dev(hodge_star(sd), sd) < 1e-12
        assert _dev(hodge_star(asd), kv_scale(-1.0, asd)) < 1e-12
    with pytest.raises(GradeMismatch):
        selfdual_split(E[1])


def test_phi_on_basis_vectors():
    for a in range(6):
        x = np.zeros(6)
        x[a] = 1.0
        assert _dev(phi(x), basis_bivector(a + 1)) == 0.0
    assert kv_norm(phi(np.zeros(6))) == 0.0


def test_phi_inverse_roundtrip():
    x = np.array([1.0, 2, 3, 4, 5, 6])
    assert np.max(np.abs(phi_inverse(phi(x)) - x)) < 1e-12
    rng = np.random.default_rng(28)
    for _ in range(100):
        x = rng.normal(size=6) * 3
        assert np.max(np.abs(phi_inverse(phi(x)) - x)) < 1e-12


def test_phi_inverse_on_basis_bivector():
    x = phi_inverse(basis_bivector(3))
    assert np.max(np.abs(x - np.eye(6)[2])) < 1e-15


def test_phi_inverse_rejects_non_selfdual():
    with pytest.raises(NotSelfDual):
        phi_inverse(kv_scale(1j, basis_bivector(1)))
    with pytest.raises(NotSelfDual):
        phi_inverse(wedge(E[1], E[2]))


def test_phi_isometry_with_sign_flip():
    rng = np.random.default_rng(29)
    for _ in range(100):
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        assert herm_inner(phi(x), phi(y)) == pytest.approx(
            -q_bilinear(x, y), abs=1e-12
        )
        assert herm_inner(phi(x), phi(x)).real == pytest.approx(
            -q_form(x), abs=1e-12
        )


def test_null_vectors_have_decomposable_image():
    rng = np.random.default_rng(30)
    for _ in range(200):
        x = random_null_vec6(rng)
        assert is_decomposable(phi(x), tol=1e-9)
        # phi(x) ^ phi(x) = -Q(x) vol, and Q(x) = 0 here
        sq = wedge(phi(x), phi(x))
        assert kv_norm(sq) < 1e-9 * kv_norm(phi(x)) ** 2


def test_nonnull_vectors_have_indecomposable_image():
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = random_nonnull_vec6(rng)
        assert not is_decomposable(phi(x), tol=1e-9)


def test_phi_square_tracks_quadratic_form():
    rng = np.random.default_rng(32)
    for _ in range(50):
        x = rng.normal(size=6)
        sq = wedge(phi(x), phi(x))
        assert _dev(sq, kv_scale(-q_form(x), VOL)) < 1e-12


def test_decomposable_examples():
    assert is_decomposable(wedge(E[1], E[2]))
    mixed = kv_add(wedge(E[1], E[2]), wedge(E[3], E[4]))
    assert not is_decomposable(mixed)
    assert is_decomposable(KVector(2, np.zeros(6, dtype=complex)))
    with pytest.raises(GradeMismatch):
        is_decomposable(E[1])


@pytest.mark.parametrize("k,coeffs", [
    (2, SIGMA[0]),  # a full antisymmetric 4x4 array, not coefficients
    (0, np.asarray(1.0 + 0j)),
    (1, np.zeros(6)),
    (5, np.zeros(1)),
    (-1, np.zeros(1)),
])
def test_kvector_rejects_malformed_input(k, coeffs):
    with pytest.raises(ValueError):
        KVector(k, coeffs)


def test_kvector_equality_is_exact_and_unhashable():
    a = KVector(1, [1, 0, 0, 0])
    assert (a == KVector(1, [1, 0, 0, 0])) is True
    assert (a != KVector(1, [1, 0, 0, 1e-300])) is True
    assert a != KVector(3, [1, 0, 0, 0])  # same coefficients, another grade
    assert a != scalar(1.0) and a != [1, 0, 0, 0]
    assert wedge(E[1], E[2]) == basis_kvector((1, 2))
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_exterior_suite_tells_minus_q_from_plus_q(monkeypatch):
    # the suite checks phi(x) ^ phi(x) = -Q(x) e1234 on non-null x, so the
    # +Q variant fails it; on null x both signs read Q(x) = 0
    for seed in range(5):
        assert suites.suite_exterior(seed, 200, DEFAULT_TOL).passed
    monkeypatch.setattr(suites, "_q", lambda x: -forms._q(x))
    for seed in range(5):
        assert not suites.suite_exterior(seed, 200, DEFAULT_TOL).passed
