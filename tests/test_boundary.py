"""Every public function that delegates to a `_`-prefixed kernel still
validates its input: non-finite entries raise InvalidEntity and a wrong
shape raises ValueError, whichever argument carries them."""

import numpy as np
import pytest

from spin42.clifford import x_matrix
from spin42.errors import InvalidEntity
from spin42.exterior import phi
from spin42.forms import canonicalize, g_form, is_null, projectivize, q_bilinear, q_form
from spin42.isotropic import (
    IsotropicPlaneE,
    dual_isotropic_basis,
    four_idempotents,
    idempotent_pair,
    partner_null_vector,
    plane_to_spinor_line,
    spinor_line,
)
from spin42.spin import spin_from_vector_pair

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
    ("g_form/s", lambda s: g_form(s, S1), S1),
    ("g_form/t", lambda t: g_form(S1, t), S1),
    ("spinor_line", spinor_line, S1),
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
