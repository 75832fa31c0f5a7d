"""Pseudo-unitary spinor group and its covering of the (4,2) rotation group.

Group elements are det-1 matrices preserving the pseudo-Hermitian form;
they arise as even products of antilinear operators of unit-Q vectors.
The vector action is defined through the antisymmetric (bivector) factor:
with Sigma(x) = sum x^alpha Sigma_alpha,

    Sigma'(x) = M . Sigma(x) . M^T,     X' = Sigma'(x) . G,

which preserves antisymmetry for any M and, for pseudo-unitary M, keeps
X' inside the real generator span.  Reading the coefficients of X' back
off gives a 6x6 matrix L(M) in the identity component of the (4,2)
orthogonal group, and M -> L(M) is a homomorphism with L(-M) = L(M).
Note L(i I) = -I6, so the scalars acting trivially on vectors are {+1,-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    GAMMA,
    SIGMA,
    AntilinearOp,
    det4,
    gamma_coeffs,
    table_sum,
    vector_from_op,
)
from .errors import ActionLeavesSpan, NotInGammaSpan, NotNormalized
from .forms import DEFAULT_TOL, G4, Q6, RESIDUAL_FLOOR, _q, as_vec6, check_finite


@dataclass(frozen=True)
class SpinElement:
    """A 4x4 complex matrix with m G m^dagger = G and det m = 1."""

    m: np.ndarray


@dataclass(frozen=True)
class ConformalMatrix6:
    """A real 6x6 matrix with l Q l^T = Q and det l = 1."""

    l: np.ndarray


def is_su22(m, tol: float = DEFAULT_TOL) -> bool:
    """Membership of the pseudo-unitary group, judged at tol exactly."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4) or not np.isfinite(m).all():
        return False
    gdev = float(np.max(np.abs(m @ G4 @ m.conj().T - G4)))
    ddev = abs(det4(m) - 1.0)
    return gdev <= tol and ddev <= tol


def spin_from_vector_pair(x, xp, tol: float = DEFAULT_TOL) -> SpinElement:
    """Composite operator of two unit-Q vectors, X(x) . conj(X(x')).

    Requires |Q| = 1 on both inputs, and the two Q values must share a
    sign: for Q(x) Q(x') = -1 the composite satisfies m G m^dagger = -G,
    which no rescaling repairs, so such pairs are rejected.  tol judges
    |Q| = 1; the composite's membership is a post-condition.
    """
    x = as_vec6(x)
    xp = as_vec6(xp)
    qx, qxp = _q(x), _q(xp)
    if not (abs(abs(qx) - 1.0) <= tol and abs(abs(qxp) - 1.0) <= tol):
        raise NotNormalized(f"|Q| must be 1 on both vectors (got {qx:g}, {qxp:g})")
    m = table_sum(x, GAMMA) @ np.conj(table_sum(xp, GAMMA))
    if not is_su22(m, max(tol, RESIDUAL_FLOOR)):
        raise NotNormalized(
            "composite is not pseudo-unitary; Q-signs of the pair must agree"
        )
    return SpinElement(m)


def spin_generate(pairs, tol: float = DEFAULT_TOL) -> SpinElement:
    """Ordered product over a list of unit-Q vector pairs; the empty
    product is the identity.  tol judges each pair; the product's
    membership is a post-condition."""
    m = np.eye(4, dtype=complex)
    for x, xp in pairs:
        m = m @ spin_from_vector_pair(x, xp, tol).m
    if not is_su22(m, max(tol, RESIDUAL_FLOOR)):
        raise NotNormalized("generated product failed the membership checks")
    return SpinElement(m)


def vector_action(s: SpinElement, x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transform a 6-vector through the bivector factor and read the
    coefficients back; preserves Q.  Raises ActionLeavesSpan when the
    transformed operator leaves the real generator span, which signals a
    matrix that was never a group element (the span residual is a
    post-condition), and InvalidEntity on non-finite input."""
    x = as_vec6(x)
    m = check_finite(s.m, "group element")
    sig_t = m @ table_sum(x, SIGMA) @ m.T
    try:
        return vector_from_op(AntilinearOp(sig_t @ G4), tol=max(tol, RESIDUAL_FLOOR))
    except NotInGammaSpan as exc:
        raise ActionLeavesSpan(str(exc)) from exc


def covering_matrix(s: SpinElement, tol: float = DEFAULT_TOL) -> ConformalMatrix6:
    """6x6 matrix of the vector action, columns the images of the basis.

    Closed form, all six columns in one contraction: column b holds the
    generator coefficients of M Sigma_b M^T G, that is
    L[a, b] = Re tr(M Sigma_b M^T G Gamma_a^dagger) / 4.  Each column's
    span residual is checked against that column's own scale, exactly as
    vector_action checks one image, and raises ActionLeavesSpan; the span
    and quadric residuals are post-conditions.
    """
    m = check_finite(s.m, "group element")
    floor = max(tol, RESIDUAL_FLOOR)
    ops = m @ SIGMA @ (m.T @ G4)
    try:
        l = gamma_coeffs(ops, floor).T
    except NotInGammaSpan as exc:
        raise ActionLeavesSpan(str(exc)) from exc
    # gates are relative to the matrix scale: strong boosts legitimately
    # amplify rounding in l Q l^T without being any less orthogonal
    scale = max(1.0, float(np.max(np.abs(l))) ** 2)
    qdev = float(np.max(np.abs(l @ Q6 @ l.T - Q6)))
    ddev = abs(np.linalg.det(l) - 1.0)
    if not (qdev <= floor * scale and ddev <= floor * scale ** 3):
        raise ActionLeavesSpan(
            f"action matrix violates the quadric invariants (Q dev {qdev:g}, det dev {ddev:g})"
        )
    return ConformalMatrix6(l)


def is_so_plus(l, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the identity component: Q-orthogonal, det 1, and
    positive determinant on the negative-signature plane (coordinates 4
    and 6), each judged at tol exactly."""
    if isinstance(l, ConformalMatrix6):
        l = l.l
    l = np.asarray(l, dtype=float)
    if l.shape != (6, 6) or not np.isfinite(l).all():
        return False
    if not (float(np.max(np.abs(l @ Q6 @ l.T - Q6))) <= tol
            and abs(np.linalg.det(l) - 1.0) <= tol):
        return False
    minor = l[np.ix_([3, 5], [3, 5])]
    return float(np.linalg.det(minor)) > 0.0
