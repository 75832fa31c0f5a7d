"""Every public function that delegates to a `_`-prefixed kernel still
validates its input: non-finite entries raise InvalidEntity and a wrong
shape raises ValueError, whichever argument carries them.  The kernels'
own post-condition gates judge a stack row by row, name the first row
that fails, and fail on NaN."""

import numpy as np
import pytest

from spin42 import sampling
from spin42.clifford import det4, x_matrix
from spin42.errors import (
    ActionLeavesSpan,
    InvalidEntity,
    NotIsotropicSpinor,
    NotNormalized,
    NotNull,
    NotSelfDual,
    RankFailure,
    Unclassifiable,
    ZeroVector,
)
from spin42.exterior import (
    KVector,
    _decomposable,
    _phi,
    _phi_inverse,
    is_decomposable,
    phi,
    phi_inverse,
)
from spin42.forms import (
    RESIDUAL_FLOOR,
    ProjectiveNullLine,
    _canon,
    _null_gate,
    _projective,
    canonicalize,
    g_form,
    is_null,
    projectivize,
    q_bilinear,
    q_form,
)
from spin42.isotropic import (
    IsotropicPlaneE,
    SpinorPlane,
    _dual_basis,
    _isotropic_gate,
    _isotropic_plane,
    _line_plane,
    _plane_line,
    _spinor_plane,
    _svd_rank,
    dual_isotropic_basis,
    four_idempotents,
    idempotent_pair,
    image_basis,
    isotropic_plane,
    null_to_spinor_plane,
    partner_null_vector,
    plane_from_spinor_plane,
    plane_to_spinor_line,
    spinor_line,
    spinor_line_to_plane,
)
from spin42.liesphere import _contact, _extract, conformal_inversion, lie_extract
from spin42.spin import (
    SpinElement,
    _composites,
    _covering,
    _so_plus,
    _su22_devs,
    covering_matrix,
    is_so_plus,
    is_su22,
    spin_from_vector_pair,
    spin_generate,
    vector_action,
)

X1 = np.array([1.0, 0, 0, 1, 0, 0])
X2 = np.array([0.0, 1, 0, 0, 0, 1])
E1 = np.eye(6)[0]
S1 = np.array([1.0, 0, 0, 1], dtype=complex)
P = null_to_spinor_plane(X1)

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
    ("null_to_spinor_plane", null_to_spinor_plane, X1),
    ("isotropic_plane/x1", lambda x: isotropic_plane(x, X2), X1),
    ("isotropic_plane/x2", lambda x: isotropic_plane(X1, x), X2),
    ("spinor_line_to_plane", spinor_line_to_plane, S1),
    ("plane_from_spinor_plane/b1", lambda b: plane_from_spinor_plane(SpinorPlane(b, P.b2)), P.b1),
    ("plane_from_spinor_plane/b2", lambda b: plane_from_spinor_plane(SpinorPlane(P.b1, b)), P.b2),
    ("conformal_inversion", lambda r: conformal_inversion(ProjectiveNullLine(r)), X1),
    ("spin_generate/x", lambda x: spin_generate([(E1, E1), (x, E1)]), E1),
    ("spin_generate/xp", lambda x: spin_generate([(E1, x)]), E1),
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


def _null_stack(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([sampling.random_null_vec6(rng) for _ in range(n)])


def _plane_stack(n, seed=0):
    rng = np.random.default_rng(seed)
    planes = [sampling.random_isotropic_plane(rng) for _ in range(n)]
    return np.stack([p.x1 for p in planes]), np.stack([p.x2 for p in planes])


def _spinor_stack(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([sampling.random_isotropic_spinor(rng) for _ in range(n)])


def test_form_gates_name_the_first_failing_row():
    x = _null_stack(8)
    x[5] = 0.0
    x[6] = 0.0
    with pytest.raises(ZeroVector, match="at row 5$"):
        _null_gate(x, 1e-9)
    with pytest.raises(ZeroVector, match="at row 5$"):
        _canon(x)
    x = _null_stack(8)
    x[3, 0] += 1.0
    with pytest.raises(NotNull, match=r"Q\(x\) at row 3 = "):
        _projective(x, 1e-9)


def test_isotropic_gates_name_the_first_failing_row():
    v = _spinor_stack(6)
    v[4] = 0.0
    with pytest.raises(ZeroVector, match="at row 4$"):
        _isotropic_gate(v, 1e-9)
    v = _spinor_stack(6)
    v[2, 0] *= 2.0
    with pytest.raises(NotIsotropicSpinor, match=r"\(v\|v\) at row 2 = "):
        _line_plane(v, 1e-9)

    x1, x2 = _plane_stack(6)
    with pytest.raises(ZeroVector, match="isotropic plane at row 1 "):
        _isotropic_plane(x1, np.where(np.arange(6)[:, None] == 1, 0.0, x2), 1e-9)
    with pytest.raises(RankFailure, match="isotropic plane basis at row 2 has rank 1, not 2"):
        _isotropic_plane(x1, np.where(np.arange(6)[:, None] == 2, 3.0 * x1, x2), 1e-9)
    bent = x2.copy()
    bent[3, 0] += 1.0
    with pytest.raises(NotNull, match="plane at row 3 is not totally isotropic"):
        _isotropic_plane(x1, bent, 1e-9)
    # a plane scaled down keeps its rank; its composite falls below tol
    small = x1.copy()
    small[5] *= 1e-6
    with pytest.raises(RankFailure, match="composite operator at row 5 has largest singular"):
        _plane_line(small, x2 * np.where(np.arange(6)[:, None] == 5, 1e-6, 1.0), 1e-9)
    # e1, e2 span a plane on which Q is positive: no null dual basis exists
    x1[4], x2[4] = np.eye(6)[0], np.eye(6)[1]
    with pytest.raises(RankFailure, match="dual basis at row 4 failed the pairing checks"):
        _dual_basis(x1, x2, 1e-9)


def test_rank_gates_name_the_first_failing_row():
    x = _null_stack(5)
    x[3] = np.eye(6)[0]
    with pytest.raises(RankFailure, match=r"X\(x\) at row 3 has rank 4, not 2"):
        _spinor_plane(x, 1e-9)
    m = np.stack([np.outer(e, e) for e in np.eye(4)])
    m[2, 3, 3] = 1.0
    with pytest.raises(RankFailure, match="image at row 2 has rank 2, not 1"):
        _svd_rank(m, 1e-9, 1, "image")
    # every rank from 0 to past the matrix size is judged by the count
    assert image_basis(np.zeros((4, 4)), 0).shape == (4, 0)
    with pytest.raises(RankFailure, match="image has rank 4, not 5"):
        image_basis(np.eye(4), 5)


def test_extract_and_pair_gates_name_the_first_failing_row():
    reps = np.array([[0, 0, 0, 0, 1.0, 1.0], [0.5, 0, 0, 1.0, 1.0, 1.0], [1.0, 0, 0, 0, 1.0, 1.0]])
    with pytest.raises(Unclassifiable, match="class at row 2 at infinity"):
        _extract(reps, 1e-9)
    e = np.eye(6)
    v = np.stack([np.stack([e[0], e[1]]), np.stack([e[0], 2.0 * e[1]])])
    with pytest.raises(NotNormalized, match="both vectors at row 1 "):
        _composites(v, 1e-9)
    # Q(e1) = 1 and Q(e4) = -1: the second pair's composite is off the group
    with pytest.raises(NotNormalized, match="composite at row 1 is not pseudo-unitary"):
        spin_generate([(e[0], e[1]), (e[0], e[3])])
    with pytest.raises(NotNormalized, match="composite is not pseudo-unitary"):
        spin_from_vector_pair(e[0], e[3])


def test_a_nan_row_is_never_accepted_by_the_isotropic_and_liesphere_kernels():
    x = _null_stack(4)
    x[1, 2] = np.nan
    with pytest.raises(ZeroVector, match="at row 1$"):
        _null_gate(x, 1e-9)
    v = _spinor_stack(4)
    v[3, 0] = np.nan
    with pytest.raises(ZeroVector, match="at row 3$"):
        _isotropic_gate(v, 1e-9)
    x1, x2 = _plane_stack(4)
    x2[2, 5] = np.nan
    with pytest.raises(ZeroVector, match="at row 2 "):
        _isotropic_plane(x1, x2, 1e-9)
    b = _phi(x)
    assert list(_decomposable(b, 1e-9)) == [True, False, True, True]
    raw = np.array([[0, 0, 0, 1.0, -1.0, 0], [np.nan, 0, 0, 1.0, -1.0, 0]])
    assert list(_contact(raw, raw[0], 1e-9)) == [True, False]
    # a NaN class has no finite normal form: the entity constructor refuses it
    kind, coords = _extract(raw, 1e-9)
    assert np.isnan(coords[1, 0]) and np.isfinite(coords[0]).all()
    with pytest.raises(InvalidEntity):
        lie_extract(ProjectiveNullLine(raw[1]))
