import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spin42.errors import NotNull, ZeroVector
from spin42.forms import (
    Q_DIAG,
    ProjectiveNullLine,
    canonicalize,
    g_form,
    is_null,
    projectivize,
    q_bilinear,
    q_form,
)
from spin42.sampling import random_nonnull_vec6, random_null_vec6

E = np.eye(6)


def test_q_form_basis_values():
    assert q_form(E[0]) == 1.0
    assert q_form(E[3]) == -1.0
    assert q_form(E[5]) == -1.0
    assert q_form([1, 0, 0, 1, 0, 0]) == 0.0


def test_q_bilinear_diagonal_and_cross():
    assert q_bilinear(E[0], E[0]) == 1.0
    assert q_bilinear(E[0], E[1]) == 0.0
    assert q_bilinear(E[4], E[5]) == 0.0
    assert q_bilinear(E[5], E[5]) == -1.0


def test_q_bilinear_symmetric_and_consistent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.normal(size=6), rng.normal(size=6)
        assert q_bilinear(x, y) == pytest.approx(q_bilinear(y, x), abs=1e-12)
        assert q_bilinear(x, x) == pytest.approx(q_form(x), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_polarization_identity(a, b, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=6), rng.normal(size=6)
    lhs = q_form(a * x + b * y)
    rhs = a * a * q_form(x) + 2 * a * b * q_bilinear(x, y) + b * b * q_form(y)
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_g_form_signature_and_null_spinor():
    assert g_form([1, 0, 0, 0], [1, 0, 0, 0]) == 1
    assert g_form([0, 0, 1, 0], [0, 0, 1, 0]) == -1
    assert g_form([1, 0, 0, 1], [1, 0, 0, 1]) == 0


def test_g_form_sesquilinear():
    rng = np.random.default_rng(1)
    s = rng.normal(size=4) + 1j * rng.normal(size=4)
    t = rng.normal(size=4) + 1j * rng.normal(size=4)
    lam = 0.7 - 2.1j
    assert g_form(lam * s, t) == pytest.approx(lam * g_form(s, t), abs=1e-12)
    assert g_form(s, lam * t) == pytest.approx(np.conj(lam) * g_form(s, t), abs=1e-12)
    assert g_form(s, t) == pytest.approx(np.conj(g_form(t, s)), abs=1e-12)


def test_canonicalize_scales_largest_to_one():
    assert np.array_equal(canonicalize([0, 0, 0, 0, 2, -2]), [0, 0, 0, 0, 1, -1])
    assert np.array_equal(canonicalize([0, 0, 0, 0, -1, -1]), [0, 0, 0, 0, 1, 1])


def test_canonicalize_tie_breaks_on_first_index():
    rep = canonicalize([-2.0, 2.0, 0, 0, 0, 0])
    assert np.array_equal(rep, [1, -1, 0, 0, 0, 0])


def test_canonicalize_clears_negative_zero():
    rep = canonicalize([0.0, 0, 0, 0, -1.0, 1.0])
    # scaling by a negative number must not leave -0.0 behind
    assert all(str(c) != "-0.0" for c in rep)


def test_projectivize_scale_invariance():
    rng = np.random.default_rng(2)
    from spin42.sampling import random_null_vec6

    for _ in range(200):
        x = random_null_vec6(rng)
        lam = rng.uniform(-1e3, 1e3)
        if abs(lam) < 1e-3:
            continue
        a = projectivize(x)
        assert projectivize(lam * x) == a
        assert projectivize(a.rep) == a  # idempotent


def test_projectivize_rejects_bad_input():
    with pytest.raises(ZeroVector):
        projectivize(np.zeros(6))
    with pytest.raises(NotNull):
        projectivize([1, 0, 0, 0, 0, 0])


def test_null_flag_is_scale_free():
    x = np.array([1.0, 0, 0, 1, 0, 0])
    assert is_null(x) and is_null(1e6 * x) and is_null(1e-6 * x)
    assert not is_null(E[0])


def test_class_equality_is_componentwise():
    a = projectivize([2, 0, 0, 2, 0, 0])
    b = projectivize([-3, 0, 0, -3, 0, 0])
    assert a == b
    assert a.same_class([1, 0, 0, 1, 0, 0])
    assert not a.same_class([0, 1, 1, 0, 0, 0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(1e-6, 1e6),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_null_flag_is_scale_invariant(seed, lam, sign):
    rng = np.random.default_rng(seed)
    x = random_null_vec6(rng)
    y = random_nonnull_vec6(rng)
    assert is_null(sign * lam * x)
    assert not is_null(sign * lam * y)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
    side=st.sampled_from([0.9, 1.1]),
)
def test_null_flag_on_both_sides_of_the_threshold(seed, tol, side):
    """x + d e with x null and e orthogonal to x for both the Euclidean and
    the Q pairing has Q = Q(x) + d^2 Q(e) and ||.||^2 = ||x||^2 + d^2 ||e||^2,
    so d can put |Q| at side * tol * ||.||^2 exactly."""
    rng = np.random.default_rng(seed)
    x = random_null_vec6(rng)
    basis, _ = np.linalg.qr(np.stack([x, Q_DIAG * x], axis=1))
    e = rng.normal(size=6)
    e = e - basis @ (basis.T @ e)
    qe = q_form(e)
    assume(abs(qe) >= 0.01 * np.dot(e, e))
    ratio = np.sign(qe) * side * tol
    d = np.sqrt(ratio * np.dot(x, x) / (qe - ratio * np.dot(e, e)))
    z = x + d * e
    assert abs(q_form(z)) / np.dot(z, z) == pytest.approx(side * tol, rel=0.01)
    assert is_null(z, tol) == (side < 1.0)
