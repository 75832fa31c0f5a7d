"""Every public function that delegates to a `_`-prefixed kernel still
validates its input: non-finite entries raise InvalidEntity and a wrong
shape raises ValueError, whichever argument carries them.  The kernels'
own post-condition gates judge a stack row by row, name the first row
that fails, and fail on NaN."""

import numpy as np
import pytest

from spin42 import sampling
from spin42.clifford import det4, x_matrix
from spin42.errors import ActionLeavesSpan, InvalidEntity, NotSelfDual
from spin42.exterior import KVector, _phi, _phi_inverse, is_decomposable, phi, phi_inverse
from spin42.forms import (
    RESIDUAL_FLOOR,
    canonicalize,
    g_form,
    is_null,
    projectivize,
    q_bilinear,
    q_form,
)
from spin42.isotropic import (
    IsotropicPlaneE,
    dual_isotropic_basis,
    four_idempotents,
    idempotent_pair,
    partner_null_vector,
    plane_to_spinor_line,
    spinor_line,
)
from spin42.spin import (
    SpinElement,
    _covering,
    _so_plus,
    _su22_devs,
    covering_matrix,
    is_so_plus,
    is_su22,
    spin_from_vector_pair,
    vector_action,
)

X1 = np.array([1.0, 0, 0, 1, 0, 0])
X2 = np.array([0.0, 1, 0, 0, 0, 1])
E1 = np.eye(6)[0]
S1 = np.array([1.0, 0, 0, 1], dtype=complex)

# (name, call, valid argument): the argument under test is the one passed
# to call; the other arguments are valid.
CASES = [
    ("q_form", q_form, X1),
    ("q_bilinear/x", lambda x: q_bilinear(x, X2), X1),
    ("q_bilinear/y", lambda y: q_bilinear(X1, y), X2),
    ("is_null", is_null, X1),
    ("canonicalize", canonicalize, X1),
    ("projectivize", projectivize, X1),
    ("partner_null_vector", partner_null_vector, X1),
    ("idempotent_pair/x", idempotent_pair, X1),
    ("idempotent_pair/y", lambda y: idempotent_pair(X1, y), partner_null_vector(X1)),
    ("dual_isotropic_basis/x1", lambda x: dual_isotropic_basis(IsotropicPlaneE(x, X2)), X1),
    ("dual_isotropic_basis/x2", lambda x: dual_isotropic_basis(IsotropicPlaneE(X1, x)), X2),
    ("four_idempotents/x1", lambda x: four_idempotents(IsotropicPlaneE(x, X2)), X1),
    ("four_idempotents/x2", lambda x: four_idempotents(IsotropicPlaneE(X1, x)), X2),
    ("plane_to_spinor_line/x1", lambda x: plane_to_spinor_line(IsotropicPlaneE(x, X2)), X1),
    ("plane_to_spinor_line/x2", lambda x: plane_to_spinor_line(IsotropicPlaneE(X1, x)), X2),
    ("spin_from_vector_pair/x", lambda x: spin_from_vector_pair(x, E1), E1),
    ("spin_from_vector_pair/xp", lambda x: spin_from_vector_pair(E1, x), E1),
    ("x_matrix", x_matrix, X1),
    ("phi", phi, X1),
    ("is_decomposable", lambda c: is_decomposable(KVector(2, c)), phi(X1).coeffs),
    ("phi_inverse", lambda c: phi_inverse(KVector(2, c)), phi(X1).coeffs),
    ("g_form/s", lambda s: g_form(s, S1), S1),
    ("g_form/t", lambda t: g_form(S1, t), S1),
    ("spinor_line", spinor_line, S1),
    ("det4", det4, np.eye(4, dtype=complex)),
]


@pytest.mark.parametrize("call,good", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_public_wrappers_validate_their_input(call, good):
    call(good)
    for bad in (np.nan, np.inf, -np.inf):
        arg = np.array(good)
        arg[0] = bad
        with pytest.raises(InvalidEntity):
            call(arg)
    with pytest.raises(ValueError):
        call(np.array(good)[:-1])


def _spin_stack(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([sampling.random_spin_element(rng).m for _ in range(n)])


def test_phi_inverse_gate_names_the_first_bivector_off_the_star():
    b = _phi(np.random.default_rng(1).normal(size=(10, 6)))
    b[7, 0] += 1.0
    b[9, 0] += 1.0
    with pytest.raises(NotSelfDual, match=r"at row 7 "):
        _phi_inverse(b, 1e-9)


def test_covering_gate_names_the_first_matrix_off_the_group():
    m = _spin_stack(6)
    m[3] = 2.0 * np.eye(4)
    with pytest.raises(ActionLeavesSpan, match=r"action matrix at row 3 violates the quadric"):
        _covering(m, RESIDUAL_FLOOR)


def test_a_nan_row_is_never_accepted():
    m = _spin_stack(5, seed=2)
    m[2, 1, 1] = np.nan
    with pytest.raises(InvalidEntity):
        covering_matrix(SpinElement(m[2]))
    with pytest.raises(InvalidEntity):
        vector_action(SpinElement(m[2]), np.eye(6)[0])
    assert not is_su22(m[2])
    # the span gate judges each column's operator: matrix 2, column 0
    with pytest.raises(ActionLeavesSpan, match=r"at index \(2, 0\) "):
        _covering(m, RESIDUAL_FLOOR)
    gdev, ddev = _su22_devs(m)
    member = (gdev <= RESIDUAL_FLOOR) & (ddev <= RESIDUAL_FLOOR)
    assert list(member) == [True, True, False, True, True]

    l = np.stack([covering_matrix(SpinElement(row)).l for row in _spin_stack(4, seed=3)])
    l[1, 0, 0] = np.nan
    assert not is_so_plus(l[1])
    # numpy's LU determinant warns on the NaN row; the verdict is still False
    with np.errstate(invalid="ignore"):
        assert list(_so_plus(l, RESIDUAL_FLOOR)) == [True, False, True, True]

    b = _phi(np.random.default_rng(4).normal(size=(4, 6)))
    b[3, 2] = np.nan
    with pytest.raises(InvalidEntity):
        phi_inverse(KVector(2, b[3]))
    with pytest.raises(NotSelfDual, match="at row 3 "):
        _phi_inverse(b, 1e-9)
