"""Correspondences between null geometry in 6-space and isotropic spinor
subspaces.

A null 6-vector x acts as an antilinear operator with a 2-dimensional
kernel; that kernel is a maximal totally isotropic spinor plane, and the
assignment is a bijection onto such planes.  A maximal (2-dimensional)
Q-isotropic plane in 6-space determines an isotropic spinor *line* as the
image of the composite of its two basis operators, and conversely a spinor
line v determines the plane of all x whose operator annihilates v.  The
idempotent composites built from a null vector and a partner (normalized
so the pairing is 1/2 -- the value that actually makes x.y and y.x
idempotent) serve as executable cross-checks throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import GAMMA, table_sum
from .errors import NotIsotropicSpinor, NotNull, RankFailure, ZeroVector
from .forms import (
    DEFAULT_TOL,
    KERNEL_FLOOR,
    Q_DIAG,
    RANK_FLOOR,
    RESIDUAL_FLOOR,
    _g,
    _null_gate,
    _projective,
    _q,
    _qb,
    as_null_vec6,
    as_spinor,
    as_vec6,
)


@dataclass(frozen=True)
class SpinorPlane:
    """Two independent spinors spanning a totally isotropic plane."""

    b1: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class SpinorLine:
    """An isotropic spinor modulo complex scale."""

    rep: np.ndarray


@dataclass(frozen=True)
class IsotropicPlaneE:
    """Two independent 6-vectors spanning a maximal Q-isotropic plane."""

    x1: np.ndarray
    x2: np.ndarray


def _isotropic_gate(v: np.ndarray, tol: float) -> np.ndarray:
    """The input gate of a spinor line, on a checked spinor: nonzero
    (||v|| > tol) and isotropic (|(v|v)| <= tol ||v||^2)."""
    n2 = float(np.real(np.vdot(v, v)))
    if not np.sqrt(n2) > tol:
        raise ZeroVector("spinor line needs a nonzero representative")
    vv = _g(v, v)
    if not abs(vv) <= tol * n2:
        raise NotIsotropicSpinor(f"(v|v) = {vv:g} is not zero")
    return v


def _spinor_line(v: np.ndarray, tol: float) -> SpinorLine:
    v = _isotropic_gate(v, tol)
    k = int(np.argmax(np.abs(v)))
    return SpinorLine(v / v[k])


def spinor_line(v, tol: float = DEFAULT_TOL) -> SpinorLine:
    """Validate (at tol exactly) and canonicalize an isotropic spinor
    representative (largest-magnitude component scaled to 1)."""
    return _spinor_line(as_spinor(v), tol)


def _isotropic_plane(x1: np.ndarray, x2: np.ndarray, tol: float) -> IsotropicPlaneE:
    scale = float(np.linalg.norm(x1) * np.linalg.norm(x2))
    if not scale > tol:
        raise ZeroVector("isotropic plane needs nonzero basis vectors")
    s = np.linalg.svd(np.vstack([x1, x2]), compute_uv=False)
    if not s[1] > tol * s[0]:
        raise RankFailure("basis vectors are linearly dependent")
    for val in (_q(x1), _q(x2), _qb(x1, x2)):
        if not abs(val) <= tol * scale:
            raise NotNull(f"plane is not totally isotropic (pairing {val:g})")
    return IsotropicPlaneE(x1, x2)


def isotropic_plane(x1, x2, tol: float = DEFAULT_TOL) -> IsotropicPlaneE:
    """Validate a totally isotropic plane given by two basis vectors at
    tol exactly."""
    return _isotropic_plane(as_vec6(x1), as_vec6(x2), tol)


def _partner(x: np.ndarray) -> np.ndarray:
    beta = int(np.argmax(np.abs(x)))
    z = np.zeros(6)
    z[beta] = 1.0
    xz = _qb(x, z)
    return z / (2.0 * xz) - _q(z) * x / (4.0 * xz * xz)


def partner_null_vector(x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A second null vector y with (x, y) = 1/2 exactly; tol is the input
    gate of forms.as_null_vec6.

    Deterministic choice: take z = e_beta with beta the first index
    maximizing |(x, e_beta)|, then y = z / (2(x,z)) - (z,z) x / (4(x,z)^2).
    The pairing value 1/2 is what makes the composite operators of x and y
    idempotent.
    """
    return _partner(as_null_vec6(x, tol))


def _null_rows(m: np.ndarray, rel_tol: float, dim: int, what: str) -> np.ndarray:
    """Rows of vh in the SVD of m spanning its null space, whose dimension
    (singular values at most rel_tol times the largest) must be dim."""
    _, s, vh = np.linalg.svd(m)
    nullity = int(np.sum(s <= rel_tol * s[0]))
    if nullity != dim:
        raise RankFailure(f"{what} dimension {nullity} != {dim}")
    return vh[len(vh) - dim:]


def _annihilator_system(v: np.ndarray) -> np.ndarray:
    """The 8 x 6 real system of X(x) conj(v) = 0 in the real unknowns x."""
    cols = np.stack([GAMMA[a] @ np.conj(v) for a in range(6)], axis=1)
    return np.vstack([np.real(cols), np.imag(cols)])


def null_to_spinor_plane(x, tol: float = DEFAULT_TOL) -> SpinorPlane:
    """Kernel plane of the antilinear operator of a null vector; scale
    invariant, and totally isotropic for the spinor form.  tol is the
    input gate of forms.as_null_vec6; the kernel dimension is a
    post-condition at max(tol, KERNEL_FLOOR).

    The kernel of the antilinear operator is the conjugate of the matrix
    null space of X, which is why the null rows of vh are used *without*
    conjugation.
    """
    x = as_null_vec6(x, tol)
    b1, b2 = _null_rows(table_sum(x / np.linalg.norm(x), GAMMA),
                        max(tol, KERNEL_FLOOR), 2, "kernel")
    return SpinorPlane(b1, b2)


def plane_to_spinor_line(n: IsotropicPlaneE, tol: float = DEFAULT_TOL) -> SpinorLine:
    """Image line of the composite operator of the plane's basis pair.

    The composite X(x1) . conj(X(x2)) of a totally isotropic pair has rank
    exactly 1, and changing the basis rescales the operator by the change
    determinant, so the image line is an invariant of the plane.  The rank
    is a post-condition at max(tol, RANK_FLOOR); tol judges the line.
    """
    m = table_sum(as_vec6(n.x1), GAMMA) @ np.conj(table_sum(as_vec6(n.x2), GAMMA))
    u, s, _ = np.linalg.svd(m)
    if not (s[0] > tol and s[1] <= max(tol, RANK_FLOOR) * s[0]):
        raise RankFailure(
            f"composite operator rank is not 1 (singular values {s[:2]})"
        )
    return _spinor_line(u[:, 0], tol)


def spinor_line_to_plane(v, tol: float = DEFAULT_TOL) -> IsotropicPlaneE:
    """All x whose antilinear operator annihilates the given isotropic
    spinor: 8 real equations in the 6 real coefficients, with a solution
    space of dimension exactly 2.  tol judges the spinor; the dimension
    and the plane are post-conditions."""
    if isinstance(v, SpinorLine):
        v = v.rep
    system = _annihilator_system(_isotropic_gate(as_spinor(v), tol))
    x1, x2 = _null_rows(system, max(tol, RANK_FLOOR), 2, "solution space")
    return _isotropic_plane(x1, x2, max(tol, RESIDUAL_FLOOR))


def plane_from_spinor_plane(p: SpinorPlane, tol: float = DEFAULT_TOL):
    """The unique projective null class whose operator kernel is the given
    isotropic spinor plane (inverse of null_to_spinor_plane); the
    dimension and the class are post-conditions."""
    system = np.vstack([_annihilator_system(as_spinor(b)) for b in (p.b1, p.b2)])
    (x,) = _null_rows(system, max(tol, RANK_FLOOR), 1, "annihilator")
    return _projective(x, max(tol, RESIDUAL_FLOOR))


def _idempotents(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xm = table_sum(x, GAMMA)
    ym = table_sum(y, GAMMA)
    return xm @ np.conj(ym), ym @ np.conj(xm)


def idempotent_pair(x, y=None, tol: float = DEFAULT_TOL):
    """Composites P = x.y and Q = y.x for a null vector and a partner with
    (x, y) = 1/2; both are idempotent, sum to the identity, and have
    complex trace 2.  Returned as plain 4x4 matrices.  Without y, the
    partner is partner_null_vector(x, tol)."""
    x = as_vec6(x)
    y = _partner(_null_gate(x, tol)) if y is None else as_vec6(y)
    return _idempotents(x, y)


def _dual_basis(x1: np.ndarray, x2: np.ndarray, tol: float):
    rows = np.vstack([x1 * Q_DIAG, x2 * Q_DIAG])
    y1, *_ = np.linalg.lstsq(rows, np.array([1.0, 0.0]), rcond=None)
    y1 = y1 - (_q(y1) / 2.0) * x1
    y1 = y1 / 2.0
    rows2 = np.vstack([rows, y1 * Q_DIAG])
    y2, *_ = np.linalg.lstsq(rows2, np.array([0.0, 1.0, 0.0]), rcond=None)
    y2 = y2 - (_q(y2) / 2.0) * x2
    y2 = y2 / 2.0
    checks = [
        _qb(x1, y1) - 0.5,
        _qb(x2, y2) - 0.5,
        _qb(x1, y2),
        _qb(x2, y1),
        _qb(y1, y2),
        _q(y1),
        _q(y2),
    ]
    if not float(np.max(np.abs(checks))) <= max(tol, RESIDUAL_FLOOR):
        raise RankFailure("dual basis construction failed the pairing checks")
    return y1, y2


def dual_isotropic_basis(n: IsotropicPlaneE, tol: float = DEFAULT_TOL):
    """Null vectors y1, y2 with (x_i, y_j) = delta_ij / 2 and (y1, y2) = 0.

    Each y starts as a least-squares solution of the pairing constraints
    and is then corrected along the plane (which leaves the constraints
    untouched, since the plane pairs to zero with itself) to restore
    exact nullity.  The pairing checks are a post-condition.
    """
    return _dual_basis(as_vec6(n.x1), as_vec6(n.x2), tol)


def four_idempotents(n: IsotropicPlaneE, tol: float = DEFAULT_TOL):
    """The four commuting rank-1 idempotents R1..R4 of an isotropic plane:
    products of P_i = x_i.y_i and their complements Q_i = y_i.x_i over a
    dual basis.  They multiply to zero pairwise, sum to the identity, and
    each has complex trace 1; the image of R1 is the image line of the
    plane's composite operator.

    They are built over a Euclidean-orthonormal basis of the same plane: a
    nearly dependent basis makes the P_i far from orthogonal projectors,
    and the rounding in the products grows with ||R||^2."""
    q, _ = np.linalg.qr(np.stack([as_vec6(n.x1), as_vec6(n.x2)], axis=1))
    x1, x2 = q[:, 0], q[:, 1]
    y1, y2 = _dual_basis(x1, x2, tol)
    p1, q1 = _idempotents(x1, y1)
    p2, q2 = _idempotents(x2, y2)
    return p1 @ p2, p1 @ q2, q1 @ p2, q1 @ q2


def image_basis(m: np.ndarray, dim: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the image of a matrix, with the
    dimension asserted rather than inferred at max(tol, RANK_FLOOR)."""
    u, s, _ = np.linalg.svd(m)
    got = int(np.sum(s > max(tol, RANK_FLOOR) * s[0]))
    if got != dim:
        raise RankFailure(f"image dimension {got} != {dim}")
    return u[:, :dim]


def same_span(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether two sets of column vectors span the same subspace."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if a.shape != b.shape:
        return False
    stacked = np.hstack([a, b])
    s = np.linalg.svd(stacked, compute_uv=False)
    rank_a = int(np.sum(np.linalg.svd(a, compute_uv=False) > tol * s[0]))
    rank_all = int(np.sum(s > tol * s[0]))
    return rank_all == rank_a
