import numpy as np
import pytest

from spin42.clifford import AntilinearOp, vector_from_op
from spin42.errors import ActionLeavesSpan, InvalidEntity, NotNormalized
from spin42.forms import G4, Q6, q_form
from spin42.sampling import random_spin_element, random_unit_q_vec6
from spin42.spin import (
    ConformalMatrix6,
    SpinElement,
    covering_matrix,
    is_so_plus,
    is_su22,
    spin_from_vector_pair,
    spin_generate,
    vector_action,
)

E6 = np.eye(6)
I4 = np.eye(4, dtype=complex)


def test_is_su22_examples():
    assert is_su22(I4)
    assert is_su22(-I4)
    assert is_su22(1j * I4)
    assert not is_su22(2.0 * I4)  # preserves G only up to scale
    assert not is_su22(np.diag([1, 1, 1, -1.0]))  # det -1
    assert not is_su22(np.eye(3))
    assert not is_su22(np.full((4, 4), np.nan))


def test_pair_of_equal_vectors_gives_scalar():
    s = spin_from_vector_pair(E6[0], E6[0])
    assert np.array_equal(s.m, I4)
    s = spin_from_vector_pair(E6[3], E6[3])
    assert np.array_equal(s.m, -I4)


def test_pair_requires_unit_q():
    with pytest.raises(NotNormalized):
        spin_from_vector_pair(2.0 * E6[0], E6[0])
    with pytest.raises(NotNormalized):
        spin_from_vector_pair(E6[0], np.zeros(6))


def test_pair_rejects_opposite_q_signs():
    # Q(e1) = +1, Q(e4) = -1: the composite flips the sign of the
    # pseudo-Hermitian form and is not a group element
    with pytest.raises(NotNormalized):
        spin_from_vector_pair(E6[0], E6[3])


def test_mixed_sign_composite_flips_g():
    from spin42.clifford import x_matrix

    m = x_matrix(E6[0]).m @ np.conj(x_matrix(E6[3]).m)
    assert np.array_equal(m @ G4 @ m.conj().T, -G4)


def test_spin_generate_empty_is_identity():
    s = spin_generate([])
    assert np.array_equal(s.m, I4)


def test_spin_generate_matches_manual_product():
    rng = np.random.default_rng(40)
    pairs = [
        (random_unit_q_vec6(rng, sign=+1), random_unit_q_vec6(rng, sign=+1))
        for _ in range(3)
    ]
    s = spin_generate(pairs)
    m = I4
    for x, xp in pairs:
        m = m @ spin_from_vector_pair(x, xp).m
    assert np.max(np.abs(s.m - m)) < 1e-12
    assert is_su22(s.m, tol=1e-8)


def test_generated_elements_are_members():
    rng = np.random.default_rng(41)
    for _ in range(50):
        s = random_spin_element(rng)
        assert is_su22(s.m, tol=1e-8)


def test_vector_action_of_identity():
    rng = np.random.default_rng(42)
    x = rng.normal(size=6)
    assert np.array_equal(vector_action(SpinElement(I4), x), x)


def test_scalar_i_acts_as_minus_one():
    rng = np.random.default_rng(43)
    s = SpinElement(1j * I4)
    for _ in range(20):
        x = rng.normal(size=6)
        assert np.array_equal(vector_action(s, x), -x)


def test_covering_special_values_exact():
    assert np.array_equal(covering_matrix(SpinElement(-I4)).l, E6)
    assert np.array_equal(covering_matrix(SpinElement(1j * I4)).l, -E6)


def test_covering_kernel_on_vectors_is_plus_minus_one():
    # of the four scalars {1, -1, i, -i} in the group, only +-1 act
    # trivially on vectors; +-i reverse every vector
    for lam, expected in [(1, E6), (-1, E6), (1j, -E6), (-1j, -E6)]:
        assert np.array_equal(covering_matrix(SpinElement(lam * I4)).l, expected)


def test_action_preserves_q():
    rng = np.random.default_rng(44)
    for _ in range(100):
        s = random_spin_element(rng)
        x = rng.normal(size=6)
        assert q_form(vector_action(s, x)) == pytest.approx(
            q_form(x), rel=1e-8, abs=1e-8
        )


def test_covering_matrices_land_in_identity_component():
    rng = np.random.default_rng(45)
    for _ in range(100):
        s = random_spin_element(rng)
        l = covering_matrix(s)
        assert is_so_plus(l, tol=1e-8)
        assert np.max(np.abs(l.l @ Q6 @ l.l.T - Q6)) < 1e-8 * max(
            1.0, np.max(np.abs(l.l)) ** 2
        )


def test_covering_is_a_homomorphism():
    rng = np.random.default_rng(46)
    for _ in range(50):
        s1 = random_spin_element(rng)
        s2 = random_spin_element(rng)
        prod = SpinElement(s1.m @ s2.m)
        lhs = covering_matrix(prod).l
        rhs = covering_matrix(s1).l @ covering_matrix(s2).l
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale


def test_covering_is_two_to_one():
    rng = np.random.default_rng(47)
    for _ in range(20):
        s = random_spin_element(rng)
        neg = SpinElement(-s.m)
        assert np.array_equal(covering_matrix(s).l, covering_matrix(neg).l)


def test_rotation_pair_rotates_by_twice_the_angle():
    th = 0.3
    s = spin_from_vector_pair(E6[0], np.array([np.cos(th), np.sin(th), 0, 0, 0, 0]))
    l = covering_matrix(s).l
    block = np.array([[np.cos(2 * th), np.sin(2 * th)],
                      [-np.sin(2 * th), np.cos(2 * th)]])
    assert np.max(np.abs(l[:2, :2] - block)) < 1e-12
    assert np.max(np.abs(l[2:, 2:] - np.eye(4))) < 1e-12
    assert np.max(np.abs(l[:2, 2:])) == 0.0 and np.max(np.abs(l[2:, :2])) == 0.0


def test_boost_pair_boosts_by_twice_the_rapidity():
    t = 0.4
    s = spin_from_vector_pair(
        E6[4], np.array([0, 0, 0, 0, np.cosh(t), np.sinh(t)])
    )
    l = covering_matrix(s).l
    block = np.array([[np.cosh(2 * t), -np.sinh(2 * t)],
                      [-np.sinh(2 * t), np.cosh(2 * t)]])
    assert np.max(np.abs(l[np.ix_([4, 5], [4, 5])] - block)) < 1e-12
    assert np.max(np.abs(l[:4, :4] - np.eye(4))) < 1e-12
    assert is_so_plus(l)


def test_negative_plane_rotation():
    ph = 0.25
    s = spin_from_vector_pair(
        E6[3], np.array([0, 0, 0, np.cos(ph), 0, np.sin(ph)])
    )
    l = covering_matrix(s).l
    block = np.array([[np.cos(2 * ph), np.sin(2 * ph)],
                      [-np.sin(2 * ph), np.cos(2 * ph)]])
    assert np.max(np.abs(l[np.ix_([3, 5], [3, 5])] - block)) < 1e-12


def test_is_so_plus_rejections():
    assert is_so_plus(E6)
    assert not is_so_plus(np.diag([-1.0, 1, 1, 1, 1, 1]))  # det -1
    # in the full orthogonal group but the wrong component: reverses one
    # positive and one negative axis
    flip = np.diag([-1.0, 1, 1, -1, 1, 1])
    assert abs(np.linalg.det(flip) - 1.0) == 0.0
    assert np.array_equal(flip @ Q6 @ flip.T, Q6)
    assert not is_so_plus(flip)
    # pi rotation of the negative plane stays in the component
    assert is_so_plus(np.diag([1.0, 1, 1, -1, 1, -1]))
    assert not is_so_plus(np.eye(5))
    assert not is_so_plus(2.0 * E6)


def test_non_member_raises_action_leaves_span():
    with pytest.raises(ActionLeavesSpan):
        covering_matrix(SpinElement(np.diag([2.0, 1, 1, 0.5]).astype(complex)))


def test_conformal_matrix_wrapper():
    l = covering_matrix(SpinElement(I4))
    assert isinstance(l, ConformalMatrix6)
    assert is_so_plus(l)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_raises(bad):
    m = I4.copy()
    m[0, 0] = bad
    with pytest.raises(InvalidEntity):
        covering_matrix(SpinElement(m))
    with pytest.raises(InvalidEntity):
        vector_action(SpinElement(m), E6[0])
    with pytest.raises(InvalidEntity):
        vector_action(SpinElement(I4), np.array([bad, 0, 0, 0, 1, 1]))
    with pytest.raises(InvalidEntity):
        vector_from_op(AntilinearOp(m))
