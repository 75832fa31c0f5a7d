"""Exact oracle: the structural identities recomputed in sympy.

The generator tables are read from the package and converted entry by
entry to exact Gaussian integers; everything else (the Levi-Civita
symbol, the determinant, the Hodge star on bivectors and its fixed
subspace) is rebuilt here from its definition, so no float and no
package kernel takes part in the verdicts.
"""

import itertools

import numpy as np
import sympy as sp
from sympy.combinatorics import Permutation

from spin42.clifford import GAMMA, SIGMA
from spin42.forms import G_DIAG, Q_DIAG

Q = sp.diag(*[int(q) for q in Q_DIAG])
G = sp.diag(*[int(g) for g in G_DIAG])
PAIRS = list(itertools.combinations(range(4), 2))


def _exact(table: np.ndarray) -> list:
    """Each 4x4 slice as a sympy Matrix of Gaussian integers."""
    assert np.array_equal(table, np.round(table.real) + 1j * np.round(table.imag))
    return [sp.Matrix(4, 4, [sp.Integer(int(z.real)) + sp.I * sp.Integer(int(z.imag))
                             for z in m.reshape(-1)]) for m in table]


GAMMA_X = _exact(GAMMA)
SIGMA_X = _exact(SIGMA)


def test_anticommutators_exact():
    checked = 0
    for a, b in itertools.product(range(6), repeat=2):
        anti = GAMMA_X[a] * GAMMA_X[b].conjugate() + GAMMA_X[b] * GAMMA_X[a].conjugate()
        assert anti == 2 * Q[a, b] * sp.eye(4)
        checked += 1
    assert checked == 36


def test_sigma_selfduality_exact():
    # conj(Sigma^ij) = 1/2 eps^{ijkl} G_km G_ln Sigma^mn with eps^{1234} = +1
    for s in SIGMA_X:
        rhs = sp.Matrix(4, 4, lambda i, j: sp.Rational(1, 2) * sum(
            sp.LeviCivita(i, j, k, l) * G[k, k] * G[l, l] * s[k, l]
            for k, l in itertools.product(range(4), repeat=2)))
        assert s.conjugate() == rhs


def test_det_is_squared_form_symbolically():
    xs = sp.symbols("x1:7", real=True)
    x_op = sum((xa * g for xa, g in zip(xs, GAMMA_X)), sp.zeros(4, 4))
    q = sum(Q[a, a] * xs[a] ** 2 for a in range(6))
    assert sp.expand(x_op.det() - q ** 2) == 0


def _star_matrix() -> sp.Matrix:
    """Matrix S of the antilinear star on the bivector monomials e_ij
    (i < j): star(sum c_J e_J) = sum_M (S conj(c))_M e_M, solved from
    e_I ^ star(e_J) = (e_I | e_J) e1^e2^e3^e4 for all I, J."""
    def sign(p):
        return Permutation(list(p)).signature()

    wedge = sp.Matrix(6, 6, lambda r, c: sign(PAIRS[r] + PAIRS[c])
                      if not set(PAIRS[r]) & set(PAIRS[c]) else 0)
    herm = sp.diag(*[G[i, i] * G[j, j] for i, j in PAIRS])
    return wedge.inv() * herm


def test_hermitian_form_on_star_fixed_bivectors_has_signature_2_4():
    s = _star_matrix()
    assert all(e.is_real for e in s) and s * s == sp.eye(6)  # star squares to +1
    # c = a + i b is fixed when S (a - i b) = a + i b: S a = a and S b = -b
    fixed = s.eigenvects()
    basis = [v for val, _, vecs in fixed if val == 1 for v in vecs]
    basis += [sp.I * v for val, _, vecs in fixed if val == -1 for v in vecs]
    assert len(basis) == 6  # a real 6-dimensional subspace
    herm = sp.diag(*[G[i, i] * G[j, j] for i, j in PAIRS])
    gram = sp.Matrix(6, 6, lambda r, c: (basis[c].H * herm * basis[r])[0])
    assert gram == gram.H and all(e.is_real for e in gram)
    eigs = gram.eigenvals(multiple=True)
    assert (sum(bool(e > 0) for e in eigs), sum(bool(e < 0) for e in eigs)) == (2, 4)
    # the package's basis bivectors lie in that subspace and pair to -2 Q:
    # +Q would need signature (4, 2), which no star-fixed frame has
    coeffs = [sp.Matrix([m[i, j] for i, j in PAIRS]) for m in SIGMA_X]
    for c in coeffs:
        assert s * c.conjugate() == c
    sigma_gram = sp.Matrix(6, 6, lambda a, b: (coeffs[b].H * herm * coeffs[a])[0])
    assert sigma_gram == -2 * Q
