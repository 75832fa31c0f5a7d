"""Pseudo-unitary spinor group and its covering of the (4,2) rotation group.

Group elements are det-1 matrices preserving the pseudo-Hermitian form;
they arise as even products of antilinear operators of unit-Q vectors.
The vector action is defined through the antisymmetric (bivector) factor:
with Sigma(x) = sum x^alpha Sigma_alpha,

    Sigma'(x) = M . Sigma(x) . M^T,     X' = Sigma'(x) . G,

which preserves antisymmetry for any M and, for pseudo-unitary M, keeps
X' inside the real generator span.  On the pair coordinates of an
antisymmetric matrix (its entries [i, j], i < j) the map A -> M A M^T is
Lambda^2 M, the 6x6 matrix of 2x2 minors of M (exterior._pluecker of M's
row pairs), and the rows S_alpha of exterior._SIGMA_COEFFS are the pair
coordinates of the Sigma_alpha, with S S^H = 2 I (the paper's
identification of the 6-space with the self-dual bivectors).  So the
coefficients of X' are Re(conj(S) . Lambda^2 M . S^T x) / 2, read back
through exterior._READ = conj(S) / 2, and the 6x6 matrix

    L(M) = Re(conj(S) . Lambda^2 M . S^T) / 2

lies in the identity component of the (4,2) orthogonal group; M -> L(M)
is a homomorphism with L(-M) = L(M).  Note L(i I) = -I6, so the scalars
acting trivially on vectors are {+1,-1}.
"""

from __future__ import annotations

import numpy as np

from .clifford import _det4, _x_matrix
from .errors import ActionLeavesSpan, NotNormalized
from .exterior import _PAIRS, _READ, _SIGMA_COEFFS, _pluecker
from .forms import (
    DEFAULT_TOL,
    G4,
    G_DIAG,
    HUGE_NORM2,
    Q6,
    Q_DIAG,
    RESIDUAL_FLOOR,
    SCALE_MAX,
    Record,
    _at,
    _every,
    _finite,
    _q,
    as_vec6,
    check_finite,
    require,
)


class SpinElement(Record):
    """A 4x4 complex matrix with m G m^dagger = G and det m = 1."""

    __match_args__ = ("m",)

    def __init__(self, m: np.ndarray):
        object.__setattr__(self, "m", m)


class ConformalMatrix6(Record):
    """A real 6x6 matrix with l Q l^T = Q and det l = 1."""

    __match_args__ = ("l",)

    def __init__(self, l: np.ndarray):
        object.__setattr__(self, "l", l)


# Entry bound past which _so_plus answers False: no product of six entries
# of a 6x6 matrix, as in its determinant, may pass HUGE_NORM2^2 = 2^1000
_HUGE_ENTRY6 = HUGE_NORM2 ** (1 / 3)


def _su22_devs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix deviations of a finite stack (..., 4, 4) from the group,
    relative to the scale s = max(1, max |m_ij|) at which their rounding
    grows: max |m G m^dagger - G| / s^2 and |det m - 1| / s^4.  A matrix
    past SCALE_MAX reads NaN, which fails every gate, and no product of its
    entries is formed."""
    a = abs(m).max(axis=(-2, -1))
    fits = a <= SCALE_MAX
    if not _every(fits):
        m = np.where(fits[..., None, None], m, np.nan)
        a = np.where(fits, a, np.nan)
    s2 = np.maximum(1.0, a) ** 2
    gdev = abs((m * G_DIAG) @ m.mT.conj() - G4).max(axis=(-2, -1))
    ddev = abs(_det4(m) - 1.0)
    return gdev / s2, ddev / (s2 * s2)


def is_su22(m, tol: float = DEFAULT_TOL) -> bool:
    """Membership of the pseudo-unitary group: m G m^dagger = G judged at
    tol * s^2 and det m = 1 at tol * s^4, s = max(1, max |m_ij|), so a
    genuine strong boost is not rejected for its rounding.  False past
    s = SCALE_MAX, where covering_matrix and vector_action refuse."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4) or not _finite(m):
        return False
    gdev, ddev = _su22_devs(m)
    return bool(gdev <= tol and ddev <= tol)


def _composites(v: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of spin_from_vector_pair on checked pairs (..., 2, 6): the
    composites X(x) . conj(X(x')) (..., 4, 4), after the |Q| = 1 gate of
    each vector at tol; the error names the first pair that fails it."""
    q = _q(v)
    require((abs(abs(q) - 1.0) <= tol).all(axis=-1), NotNormalized,
            lambda i, at: f"|Q| must be 1 on both vectors{at} (got {q[i][0]:g}, {q[i][1]:g})")
    xs = _x_matrix(v)
    return xs[..., 0, :, :] @ np.conj(xs[..., 1, :, :])


def _members(m: np.ndarray, tol: float) -> np.ndarray:
    """Post-condition membership of computed matrices (..., 4, 4) at
    max(tol, RESIDUAL_FLOOR), judged as in is_su22 (False past SCALE_MAX)."""
    gdev, ddev = _su22_devs(m)
    bound = max(tol, RESIDUAL_FLOOR)
    return (gdev <= bound) & (ddev <= bound)


def _generate(v: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of spin_generate on checked pairs (..., k, 2, 6): the ordered
    products (..., 4, 4) of the k pair composites, from the first composite
    on (the identity when k = 0).  The membership of each composite and of
    the product is a post-condition judged on one stack; the error names
    the first failing composite, or the product, and its element.  For
    unit-Q pairs a composite within SCALE_MAX fails only when its pair's
    Q-signs differ: then m G m^dagger = -G, which no rescaling repairs."""
    k = v.shape[-3]
    c = _composites(v, tol)
    m = c[..., 0, :, :] if k else np.eye(4) + np.zeros(c.shape[:-3] + (4, 4), complex)
    for j in range(1, k):
        m = m @ c[..., j, :, :]

    def failed(index, at):
        element, j = _at(index[:-1]), index[-1]
        if j == k:
            return f"product{element} failed the membership checks"
        if abs(c[index]).max() > SCALE_MAX:
            return f"composite {j}{element} is past the stated scale SCALE_MAX = 2^20"
        return f"composite {j}{element} is not pseudo-unitary; the Q-signs of its pair must agree"
    require(_members(np.concatenate([c, m[..., None, :, :]], axis=-3), tol),
            NotNormalized, failed)
    return m


def spin_from_vector_pair(x, xp, tol: float = DEFAULT_TOL) -> SpinElement:
    """Composite operator of two unit-Q vectors, X(x) . conj(X(x')): the
    one-pair case of spin_generate, so the two Q values must share a sign."""
    return SpinElement(_generate(np.stack([as_vec6(x), as_vec6(xp)])[None], tol))


def spin_generate(pairs, tol: float = DEFAULT_TOL) -> SpinElement:
    """Ordered product over a list of unit-Q vector pairs; the empty
    product is the identity.  tol judges each pair; the membership of
    each pair's composite and of the product are post-conditions."""
    pairs = list(pairs)
    v = np.asarray(pairs, dtype=float) if pairs else np.empty((0, 2, 6))
    if v.shape != (len(pairs), 2, 6):
        raise ValueError(f"expected pairs of 6-vectors, got shape {v.shape}")
    return SpinElement(_generate(check_finite(v, "6-vector"), tol))


def _minors(m: np.ndarray) -> np.ndarray:
    """Lambda^2 M of a stack (..., 4, 4), as (..., 6, 6): row (i, j) holds
    the pair coordinates of M's rows i ^ j, the minors M[i, k] M[j, l] -
    M[i, l] M[j, k] over the column pairs k < l.  C-contiguous, as the
    products downstream round differently on a strided operand."""
    rows = m.take(_PAIRS[4], -2)
    return np.ascontiguousarray(_pluecker(rows[..., :6, :], rows[..., 6:, :]))


def _scale(m: np.ndarray) -> np.ndarray:
    """s = max(1, max |m_ij|) of each matrix of a finite stack (..., 4, 4):
    M's 2x2 minors round at eps s^2 when its entries cancel in them, as a
    strong boost's do, however small the transformed operator comes out.
    The covering kernels answer up to s = SCALE_MAX: ActionLeavesSpan names
    the first matrix past it.  A NaN matrix passes, to fail the span gate."""
    a = abs(m).max(axis=(-2, -1))
    if not _every(a <= SCALE_MAX):
        require(~(a > SCALE_MAX), ActionLeavesSpan,
                lambda i, at: f"group element{at} is past the stated scale"
                              f" (max |m_ij| {a[i]:g} > SCALE_MAX = 2^20)")
    return np.maximum(1.0, a)


def _read_back(w: np.ndarray, lead: tuple, bound: np.ndarray) -> np.ndarray:
    """Re c for the generator coefficients c = conj(S) w / 2 of transformed
    operators M Sigma M^T, given their pair coordinates as the columns of
    w (6, k), k = prod(lead).  Each column first passes the span gate: as
    S^T conj(S) = 2 I, S^T c = w, so w - S^T Re c = i S^T Im c is what
    reading the real coefficients back leaves, and max |S^T Im c| must be
    within bound (floor * s^2, s of _scale, broadcast against lead); an
    operator off the real generator span means the acting matrix was never
    a group element.  The error names the first failing column by its
    index in lead."""
    c = _READ @ w
    residual = abs(_SIGMA_COEFFS.T @ c.imag).max(axis=0).reshape(lead)
    require(residual <= bound, ActionLeavesSpan,
            lambda i, at: f"operator{at} is not a real generator combination"
                          f" (residual {residual[i]:g})")
    return c.real


def _vector_action(m: np.ndarray, x: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of vector_action: finite stacks m (..., 4, 4) and x (..., 6)
    whose leading axes broadcast, to the images (..., 6), after the scale
    gate (_scale) and span residuals judged per matrix at
    max(tol, RESIDUAL_FLOOR) s^2.  M Sigma(x) M^T has the pair coordinates
    w = Lambda^2 M . S^T x."""
    bound = max(tol, RESIDUAL_FLOOR) * _scale(m) ** 2
    w = (_minors(m) @ (x @ _SIGMA_COEFFS)[..., None])[..., 0]
    lead = w.shape[:-1]
    return _read_back(w.reshape(-1, 6).T, lead, bound).T.reshape(*lead, 6)


def vector_action(s: SpinElement, x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transform a 6-vector through the bivector factor and read the
    coefficients back; preserves Q.  Raises ActionLeavesSpan when the
    transformed operator leaves the real generator span, which signals a
    matrix that was never a group element (the span residual is a
    post-condition), and InvalidEntity on non-finite input.  The image is
    read off M's 2x2 minors, so each coordinate is known only to about
    eps * s^2 |x| in absolute terms, s = max(1, max |m_ij|); past
    s = SCALE_MAX = 2^20, where that reaches 2^-12 |x|, ActionLeavesSpan
    refuses the element."""
    x = as_vec6(x)
    m = check_finite(s.m, "group element")
    return _vector_action(m, x, tol)


def _q_devs(l: np.ndarray) -> np.ndarray:
    """max |l Q l^T - Q| of each matrix of a stack (..., 6, 6); l Q is
    l's columns times Q's diagonal."""
    return abs((l * Q_DIAG) @ l.mT - Q6).max(axis=(-2, -1))


def _covering(m: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of covering_matrix: a finite stack (..., 4, 4) to the 6x6
    matrices L(M) (..., 6, 6).  Column b of L(M) reads back
    w_b = Lambda^2 M . S_b.  The scale gate (_scale), then span residuals
    and the quadric invariants are judged per matrix, the last two at
    max(tol, RESIDUAL_FLOOR); the error names the first failure.  Below
    SCALE_MAX no product overflows: det L(M) has terms of twelve entries
    of M, at most 2^240."""
    lead = m.shape[:-2]
    floor = max(tol, RESIDUAL_FLOOR)
    bound = (floor * _scale(m) ** 2)[..., None]
    # rows (matrix, i) times S^T, regrouped as columns (matrix, b).  Every
    # product has a 6x6 factor, so no BLAS call is large enough to go
    # multithreaded: a threaded call stalls whole suites on a busy 2-vCPU host
    w = (_minors(m).reshape(-1, 6) @ _SIGMA_COEFFS.T).reshape(-1, 6, 6)
    c = _read_back(w.transpose(1, 0, 2).reshape(6, -1), (*lead, 6), bound)
    l = c.reshape(6, -1, 6).transpose(1, 0, 2).reshape(*lead, 6, 6)
    # gates are relative to the matrix scale: strong boosts legitimately
    # amplify rounding in l Q l^T without being any less orthogonal
    scale = np.maximum(1.0, abs(l).max(axis=(-2, -1))) ** 2
    qdev = _q_devs(l)
    ddev = abs(np.linalg.det(l) - 1.0)
    require((qdev <= floor * scale) & (ddev <= floor * scale ** 3), ActionLeavesSpan,
            lambda i, at: f"action matrix{at} violates the quadric invariants"
                          f" (Q dev {qdev[i]:g}, det dev {ddev[i]:g})")
    return l


def covering_matrix(s: SpinElement, tol: float = DEFAULT_TOL) -> ConformalMatrix6:
    """6x6 matrix of the vector action, columns the images of the basis.

    Closed form in bivector coordinates: column b holds the generator
    coefficients of M Sigma_b M^T G, whose pair coordinates are
    w_b = Lambda^2 M . S_b, so L = Re(conj(S) . Lambda^2 M . S^T) / 2, read
    off the 2x2 minors of M by two 6x6 products.  Each column's span
    residual, max |S^T Im c_b| with c_b = conj(S) w_b / 2, is checked
    against M's scale s = max(1, max |m_ij|) squared, at which the minors
    round, exactly as vector_action checks one image, and raises
    ActionLeavesSpan; the span and quadric residuals are post-conditions.
    Like the image of vector_action, each entry of L is known only to
    about eps * s^2 in absolute terms, and past s = SCALE_MAX = 2^20, where
    that reaches 2^-12, ActionLeavesSpan refuses the element.
    """
    m = check_finite(s.m, "group element")
    return ConformalMatrix6(_covering(m, tol))


# the 2x2 block of coordinates 4 and 6, the negative-signature plane
_NEGATIVE_PLANE = (Ellipsis, *np.ix_([3, 5], [3, 5]))


def _so_plus(l: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of is_so_plus over a finite real stack (..., 6, 6).  A matrix
    with an entry past _HUGE_ENTRY6 answers False without forming a product
    of its entries: tol is absolute, and its l Q l^T has terms past 2^333,
    each known only to 2^281."""
    fits = abs(l).max(axis=(-2, -1)) <= _HUGE_ENTRY6
    if not _every(fits):
        l = np.where(fits[..., None, None], l, 0.0)
    return (fits & (_q_devs(l) <= tol) & (abs(np.linalg.det(l) - 1.0) <= tol)
            & (np.linalg.det(l[_NEGATIVE_PLANE]) > 0.0))


def is_so_plus(l, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the identity component: Q-orthogonal, det 1, and
    positive determinant on the negative-signature plane (coordinates 4
    and 6), each judged at tol exactly."""
    if isinstance(l, ConformalMatrix6):
        l = l.l
    l = np.asarray(l, dtype=float)
    if l.shape != (6, 6) or not _finite(l):
        return False
    return bool(_so_plus(l, tol))
