import numpy as np
import pytest

from spin42.clifford import AntilinearOp, vector_from_op
from spin42.errors import ActionLeavesSpan, InvalidEntity, NotNormalized
from spin42.forms import G4, Q6, SCALE_MAX, q_form
from spin42.sampling import random_spin_element, random_unit_q_vec6
from spin42.exterior import _READ, _SIGMA_COEFFS
from spin42.spin import (
    ConformalMatrix6,
    SpinElement,
    _covering,
    _members,
    _minors,
    _su22_devs,
    _vector_action,
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


def _boost(rapidity: float) -> np.ndarray:
    """The element of SU(2,2) that boosts spinor slots 1 and 3 against
    each other: a member at every rapidity, with max |m| = cosh t."""
    m = I4.copy()
    m[0, 0] = m[2, 2] = np.cosh(rapidity)
    m[0, 2] = m[2, 0] = np.sinh(rapidity)
    return m


@pytest.mark.parametrize("entry", [1e77, 1e155, 1e200, 1.7e308, 1.7e308 + 1.7e308j])
def test_is_su22_refuses_huge_matrices_without_an_overflow(entry):
    # past max |m| = 2^250 the deviations are those of m over a power of
    # two; the pytest configuration makes any RuntimeWarning an error
    m = I4.copy()
    m[0, 0] = entry
    assert not is_su22(m)
    assert not is_su22(m[[1, 0, 2, 3]])


def test_su22_deviations_keep_their_bits_below_the_scale_bound():
    # boosts from max |m| of 1e69 to 5e303 are past SCALE_MAX: their
    # deviations read NaN, formed from no product of their entries
    for rapidity in (160.0, 176.0, 177.0, 178.0, 200.0, 400.0, 700.0):
        gdev, ddev = _su22_devs(_boost(rapidity))
        assert np.isnan(gdev) and np.isnan(ddev)
        assert not is_su22(_boost(rapidity))
    # rows in range read the same bits in a stack with refused rows as
    # alone, and as the formula
    rng = np.random.default_rng(26)
    small = np.stack([random_spin_element(rng).m for _ in range(4)] + [2.0 * I4])
    stack = np.concatenate([small, [_boost(300.0), 1e200 * I4]])
    gdev, ddev = _su22_devs(stack)
    s2 = np.maximum(1.0, abs(small).max(axis=(-2, -1))) ** 2
    want_g = abs((small * np.diag(G4)) @ small.mT.conj() - G4).max(axis=(-2, -1)) / s2
    want_d = abs(np.array([np.linalg.det(m) for m in small]) - 1.0) / (s2 * s2)
    assert np.array_equal(gdev[:5], want_g) and np.array_equal(gdev[:5], _su22_devs(small)[0])
    assert np.array_equal(ddev[:5], _su22_devs(small)[1])
    assert np.allclose(ddev[:5], want_d, rtol=0, atol=1e-15)
    assert np.isnan(gdev[5:]).all() and np.isnan(ddev[5:]).all()


def _spinor_boost(a: float, i: int = 0, j: int = 2) -> np.ndarray:
    """The member of SU(2,2) that boosts spinor slots i and j against each
    other with off-diagonal entry a, as a caller writes it."""
    m = I4.copy()
    m[i, i] = m[j, j] = np.sqrt(1.0 + a * a)
    m[i, j] = m[j, i] = a
    return m


def test_span_residual_grows_with_the_square_of_the_entries():
    # the 2x2 minors of a boost cancel, so the span residual of a column is
    # eps s^2, s = max |m|, however small the column's operator comes out;
    # boosts of every plane, alone and between two random members
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    worst_matrix, worst_column = 0.0, 0.0
    for a in np.logspace(0, 6, 25):
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
            u = random_spin_element(rng, n=2)
            for m in (_spinor_boost(a, i, j), u[0] @ _spinor_boost(a, i, j) @ u[1]):
                w = _minors(m) @ _SIGMA_COEFFS.T
                residual = abs(_SIGMA_COEFFS.T @ (_READ @ w).imag).max(axis=0)
                s = max(1.0, abs(m).max())
                worst_matrix = max(worst_matrix, residual.max() / (eps * s * s))
                worst_column = max(worst_column,
                                   (residual / (eps * np.maximum(1.0, abs(w).max(axis=0)))).max())
    assert worst_matrix <= 64.0
    assert worst_column >= 1e9


@pytest.mark.parametrize("a", [1e4, 1e5, 3e5, 1e6])
def test_strong_boost_passes_the_span_gate(a):
    m = _spinor_boost(a)
    assert is_su22(m)
    s = SpinElement(m)
    l = covering_matrix(s).l
    for b, e in enumerate(E6):
        assert np.array_equal(vector_action(s, e), l[:, b])


def test_span_gate_still_refuses_non_members():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ActionLeavesSpan, match="real generator combination"):
        covering_matrix(SpinElement(m))
    # a phase off the real line leaves the span at the strong boost's scale
    with pytest.raises(ActionLeavesSpan, match="real generator combination"):
        covering_matrix(SpinElement(np.exp(1e-3j) * _spinor_boost(1e5)))
    with pytest.raises(ActionLeavesSpan, match="quadric invariants"):
        covering_matrix(SpinElement(2.0 * I4))


def test_huge_matrices_answer_or_raise_without_an_overflow():
    # the pytest configuration makes any RuntimeWarning an error
    with pytest.raises(ActionLeavesSpan):
        covering_matrix(SpinElement(np.diag([1e155, 1e155, 1, 1]).astype(complex)))
    assert not is_so_plus(np.diag([1e200, 1, 1, 1, 1, 1]))
    assert not is_so_plus(np.diag([1e200, 1e-200, 1, 1, 1, 1]))
    # rank 2, with null rows e0 + e3 and e1 + e5: l Q l^T and det l are 0,
    # and the negative-plane minor is positive
    null_rows = np.zeros((6, 6))
    null_rows[3, [0, 3]] = null_rows[5, [1, 5]] = 1.0
    assert not is_so_plus(1e200 * null_rows)
    # every 2x2 minor is 0, so L(M) = 0; past SCALE_MAX no minor is formed
    for c in (1e30, 1e100, 1e300):
        with pytest.raises(ActionLeavesSpan, match="past the stated scale"):
            covering_matrix(SpinElement(np.full((4, 4), c, dtype=complex)))
    # two boosts in disjoint planes: L(M) has entries up to 2 a^2 + 1; a
    # boost is answered at 1e3 and refused past SCALE_MAX
    for a in (1e3, 1e30, 1e100):
        m = _spinor_boost(a, 0, 2) @ _spinor_boost(a, 1, 3)
        if a < SCALE_MAX:
            assert is_su22(m)
            assert abs(abs(covering_matrix(SpinElement(m)).l).max() - (2 * a * a + 1)) <= 1e-12 * a * a
            assert np.isfinite(vector_action(SpinElement(m), E6[0])).all()
            continue
        assert not is_su22(m)
        with pytest.raises(ActionLeavesSpan, match="past the stated scale"):
            covering_matrix(SpinElement(m))
        with pytest.raises(ActionLeavesSpan, match="past the stated scale"):
            vector_action(SpinElement(m), E6[0])
    huge = I4.copy()
    huge[[0, 1, 2, 3, 0, 2, 1, 3], [0, 1, 2, 3, 2, 0, 3, 1]] = 1e160
    with pytest.raises(ActionLeavesSpan, match=r"past the stated scale \(max \|m_ij\| 1e\+160"):
        covering_matrix(SpinElement(huge))


def test_covering_rows_in_range_keep_their_bits_beside_refused_rows():
    rng = np.random.default_rng(27)
    small = random_spin_element(rng, n=3)
    big = _spinor_boost(1e40, 0, 2) @ _spinor_boost(1e40, 1, 3)
    stack = np.concatenate([small, big[None]])
    with pytest.raises(ActionLeavesSpan, match="group element at row 3 is past the stated scale"):
        _covering(stack, 1e-9)
    with pytest.raises(ActionLeavesSpan, match="group element at row 3 is past the stated scale"):
        _covering(np.concatenate([small, np.full((1, 4, 4), 1e100, dtype=complex)]), 1e-9)
    x = rng.normal(size=6)
    with pytest.raises(ActionLeavesSpan, match="group element at row 3 is past the stated scale"):
        _vector_action(stack, x, 1e-9)
    # the rows in range keep their bits beside the refused row, as in a
    # stack of the same length in range (the determinant's signed sum
    # rounds with the stack's length)
    gdev, ddev = _su22_devs(stack)
    want_g, want_d = _su22_devs(np.concatenate([small, small[:1]]))
    assert np.array_equal(gdev[:3], want_g[:3]) and np.array_equal(ddev[:3], want_d[:3])
    assert list(_members(stack, 1e-9)) == [True, True, True, False]
    for i in range(3):
        assert np.array_equal(_covering(small, 1e-9)[i], covering_matrix(SpinElement(small[i])).l)


def _boost_at(top: float) -> np.ndarray:
    """The single-plane boost whose largest entry is top: m[0, 0] = m[2, 2]
    = top and m[0, 2] = m[2, 0] = sqrt(top^2 - 1)."""
    m = I4.copy()
    m[0, 0] = m[2, 2] = top
    m[0, 2] = m[2, 0] = np.sqrt(top * top - 1.0)
    return m


def test_every_kernel_answers_at_the_scale_bound_and_refuses_past_it():
    rng = np.random.default_rng(30)
    x = rng.normal(size=6)
    small = random_spin_element(rng, n=3)
    at = _boost_at(SCALE_MAX)
    assert abs(at).max() == SCALE_MAX
    s = SpinElement(at)
    assert is_su22(at) and _members(at, 1e-9)
    l = covering_matrix(s).l
    assert np.array_equal(vector_action(s, x), _vector_action(at, x, 1e-9))
    assert np.array_equal(l, _covering(at, 1e-9))
    stack = np.concatenate([small, at[None]])
    assert np.array_equal(_covering(stack, 1e-9)[3], l)
    assert _members(stack, 1e-9).all()

    past = _boost_at(np.nextafter(SCALE_MAX, np.inf))
    assert not is_su22(past) and not _members(past, 1e-9)
    message = r"group element is past the stated scale \(max \|m_ij\| 1\.04858e\+06 > SCALE_MAX = 2\^20\)"
    with pytest.raises(ActionLeavesSpan, match=message):
        covering_matrix(SpinElement(past))
    with pytest.raises(ActionLeavesSpan, match=message):
        vector_action(SpinElement(past), x)
    stack = np.concatenate([small, past[None], small])
    with pytest.raises(ActionLeavesSpan, match="group element at row 3 is past the stated scale"):
        _covering(stack, 1e-9)
    with pytest.raises(ActionLeavesSpan, match="group element at row 3 is past the stated scale"):
        _vector_action(stack, x, 1e-9)
    assert list(_members(stack, 1e-9)) == [True] * 3 + [False] + [True] * 3
    with pytest.raises(ActionLeavesSpan, match=r"group element at index \(1, 0\) is past"):
        _covering(stack[:6].reshape(2, 3, 4, 4), 1e-9)


def test_a_product_past_the_scale_bound_is_not_generated():
    # x = (c, 0, 0, s, 0, 0) with c^2 - s^2 = 1 exactly: the composite of
    # (e1, x) has max |m| just past 2^(n - 1)
    def pair(n):
        c, s = (2.0 ** n + 2.0 ** -n) / 2, (2.0 ** n - 2.0 ** -n) / 2
        return E6[0], np.array([c, 0.0, 0.0, s, 0.0, 0.0])
    assert abs(spin_generate([pair(10)] * 2).m).max() <= SCALE_MAX
    with pytest.raises(NotNormalized, match="product failed the membership checks"):
        spin_generate([pair(11)] * 2)
    with pytest.raises(NotNormalized, match="composite 0 is past the stated scale"):
        spin_generate([pair(21)])


def test_single_plane_boosts_are_accurate_to_eps_s_squared_up_to_the_bound():
    # the exact covering of a boost in spinor plane (i, j), entries c =
    # sqrt(1 + a^2) and a, is I plus boosts (c - 1, +-a) in two coordinate
    # planes; its entries round at eps s^2 through M's cancelling minors,
    # s = c, which is 2^-12 at SCALE_MAX.  The law held with a ratio up to
    # 1.0 on these boosts, and a = 2^26 (refused) would read 0.5 e1 for e1
    eps = np.finfo(float).eps
    top = np.sqrt(SCALE_MAX ** 2 - 1.0)
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
        pattern = covering_matrix(SpinElement(_spinor_boost(0.75, i, j))).l
        stretched = np.diag(np.diag(pattern) == 1.25)
        sign = np.round((pattern - np.diag(np.diag(pattern))) / 0.75)
        for a in np.append(np.logspace(-2, np.log10(top), 60), top):
            m = _spinor_boost(a, i, j)
            c = m[i, i].real
            assert c <= SCALE_MAX
            exact = E6 + (c - 1.0) * stretched + a * sign
            law = 2.0 * eps * max(1.0, c) ** 2
            assert abs(covering_matrix(SpinElement(m)).l - exact).max() <= law
            for b in np.flatnonzero(~stretched.diagonal()):
                assert abs(vector_action(SpinElement(m), E6[b]) - E6[b]).max() <= law
        with pytest.raises(ActionLeavesSpan, match="past the stated scale"):
            vector_action(SpinElement(_spinor_boost(2.0 ** 26, i, j)), E6[0])


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
