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

from .clifford import GAMMA, SIGMA, _det4, gamma_coeffs, table_sum
from .errors import ActionLeavesSpan, NotInGammaSpan, NotNormalized
from .forms import (
    DEFAULT_TOL,
    G4,
    G_DIAG,
    Q6,
    RESIDUAL_FLOOR,
    _q,
    all_rows,
    as_vec6,
    at_row,
    check_finite,
    first_failure,
)


@dataclass(frozen=True)
class SpinElement:
    """A 4x4 complex matrix with m G m^dagger = G and det m = 1."""

    m: np.ndarray


@dataclass(frozen=True)
class ConformalMatrix6:
    """A real 6x6 matrix with l Q l^T = Q and det l = 1."""

    l: np.ndarray


def _su22_devs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix deviations of a finite stack (..., 4, 4) from the group,
    relative to the scale s = max(1, max |m_ij|) at which their rounding
    grows: max |m G m^dagger - G| / s^2 and |det m - 1| / s^4."""
    s2 = np.maximum(1.0, abs(m).max(axis=(-2, -1))) ** 2
    gdev = abs((m * G_DIAG) @ m.mT.conj() - G4).max(axis=(-2, -1))
    ddev = abs(_det4(m) - 1.0)
    return gdev / s2, ddev / (s2 * s2)


def is_su22(m, tol: float = DEFAULT_TOL) -> bool:
    """Membership of the pseudo-unitary group: m G m^dagger = G judged at
    tol * s^2 and det m = 1 at tol * s^4, s = max(1, max |m_ij|), so a
    genuine strong boost is not rejected for its rounding."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4) or not np.isfinite(m).all():
        return False
    gdev, ddev = _su22_devs(m)
    return bool(gdev <= tol and ddev <= tol)


def _composites(v: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of spin_from_vector_pair on checked pairs (..., 2, 6): the
    composites X(x) . conj(X(x')) (..., 4, 4), after the |Q| = 1 gate of
    each vector at tol; the error names the first pair that fails it."""
    q = _q(v)
    ok = (abs(abs(q) - 1.0) <= tol).all(axis=-1)
    if not all_rows(ok):
        row = first_failure(~ok)
        raise NotNormalized(f"|Q| must be 1 on both vectors{at_row(row)}"
                            f" (got {q[row][0]:g}, {q[row][1]:g})")
    xs = table_sum(v, GAMMA)
    return xs[..., 0, :, :] @ np.conj(xs[..., 1, :, :])


def _members(m: np.ndarray, tol: float) -> np.ndarray:
    """Post-condition membership of computed matrices (..., 4, 4) at
    max(tol, RESIDUAL_FLOOR), relative to their scale as in is_su22."""
    gdev, ddev = _su22_devs(m)
    bound = max(tol, RESIDUAL_FLOOR)
    return (gdev <= bound) & (ddev <= bound)


def spin_from_vector_pair(x, xp, tol: float = DEFAULT_TOL) -> SpinElement:
    """Composite operator of two unit-Q vectors, X(x) . conj(X(x')).

    Requires |Q| = 1 on both inputs, and the two Q values must share a
    sign: for Q(x) Q(x') = -1 the composite satisfies m G m^dagger = -G,
    which no rescaling repairs, so such pairs are rejected.  tol judges
    |Q| = 1; the composite's membership is a post-condition.
    """
    m = _composites(np.stack([as_vec6(x), as_vec6(xp)]), tol)
    if not _members(m, tol):
        raise NotNormalized(
            "composite is not pseudo-unitary; Q-signs of the pair must agree"
        )
    return SpinElement(m)


def spin_generate(pairs, tol: float = DEFAULT_TOL) -> SpinElement:
    """Ordered product over a list of unit-Q vector pairs; the empty
    product is the identity.  tol judges each pair; the membership of
    each pair's composite and of the product are post-conditions, judged
    on one stack."""
    pairs = list(pairs)
    v = np.asarray(pairs, dtype=float) if pairs else np.empty((0, 2, 6))
    if v.shape != (len(pairs), 2, 6):
        raise ValueError(f"expected pairs of 6-vectors, got shape {v.shape}")
    composites = _composites(check_finite(v, "6-vector"), tol)
    m = np.eye(4, dtype=complex)
    for c in composites:
        m = m @ c
    member = _members(np.concatenate([composites, m[None]]), tol)
    if not all_rows(member[:-1]):
        row = first_failure(~member[:-1])
        raise NotNormalized(f"composite{at_row(row)} is not pseudo-unitary;"
                            " Q-signs of the pair must agree")
    if not member[-1]:
        raise NotNormalized("generated product failed the membership checks")
    return SpinElement(m)


def _span_coeffs(ops: np.ndarray, floor: float) -> np.ndarray:
    """gamma_coeffs of computed operators, whose leaving the span means the
    acting matrix was never a group element."""
    try:
        return gamma_coeffs(ops, floor)
    except NotInGammaSpan as exc:
        raise ActionLeavesSpan(str(exc)) from exc


def _vector_action(m: np.ndarray, x: np.ndarray, floor: float) -> np.ndarray:
    """Kernel of vector_action: finite stacks m (..., 4, 4) and x (..., 6)
    whose leading axes broadcast, to the images (..., 6)."""
    sig_t = m @ table_sum(x, SIGMA) @ m.mT
    return _span_coeffs(sig_t @ G4, floor)


def vector_action(s: SpinElement, x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transform a 6-vector through the bivector factor and read the
    coefficients back; preserves Q.  Raises ActionLeavesSpan when the
    transformed operator leaves the real generator span, which signals a
    matrix that was never a group element (the span residual is a
    post-condition), and InvalidEntity on non-finite input."""
    x = as_vec6(x)
    m = check_finite(s.m, "group element")
    return _vector_action(m, x, max(tol, RESIDUAL_FLOOR))


def _q_devs(l: np.ndarray) -> np.ndarray:
    """max |l Q l^T - Q| of each matrix of a stack (..., 6, 6)."""
    return abs(l @ Q6 @ l.mT - Q6).max(axis=(-2, -1))


def _covering(m: np.ndarray, floor: float) -> np.ndarray:
    """Kernel of covering_matrix: a finite stack (..., 4, 4) to the 6x6
    matrices L(M) (..., 6, 6).  Span residuals are judged per column and
    the quadric invariants per matrix; the error names the first failure."""
    ops = m[..., None, :, :] @ SIGMA @ (m.mT @ G4)[..., None, :, :]
    l = _span_coeffs(ops, floor).mT
    # gates are relative to the matrix scale: strong boosts legitimately
    # amplify rounding in l Q l^T without being any less orthogonal
    scale = np.maximum(1.0, abs(l).max(axis=(-2, -1))) ** 2
    qdev = _q_devs(l)
    ddev = abs(np.linalg.det(l) - 1.0)
    bad = ~((qdev <= floor * scale) & (ddev <= floor * scale ** 3))
    if bad.any():
        row = first_failure(bad)
        raise ActionLeavesSpan(
            f"action matrix{at_row(row)} violates the quadric invariants"
            f" (Q dev {qdev[row]:g}, det dev {ddev[row]:g})"
        )
    return l


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
    return ConformalMatrix6(_covering(m, max(tol, RESIDUAL_FLOOR)))


# the 2x2 block of coordinates 4 and 6, the negative-signature plane
_NEGATIVE_PLANE = (Ellipsis, *np.ix_([3, 5], [3, 5]))


def _so_plus(l: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of is_so_plus over a finite real stack (..., 6, 6)."""
    return ((_q_devs(l) <= tol) & (abs(np.linalg.det(l) - 1.0) <= tol)
            & (np.linalg.det(l[_NEGATIVE_PLANE]) > 0.0))


def is_so_plus(l, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the identity component: Q-orthogonal, det 1, and
    positive determinant on the negative-signature plane (coordinates 4
    and 6), each judged at tol exactly."""
    if isinstance(l, ConformalMatrix6):
        l = l.l
    l = np.asarray(l, dtype=float)
    if l.shape != (6, 6) or not np.isfinite(l).all():
        return False
    return bool(_so_plus(l, tol))
