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

import numpy as np

from .clifford import _x_matrix
from .errors import NotIsotropicSpinor, NotNull, RankFailure, ZeroVector
from .exterior import _READ, _pluecker
from .forms import (
    DEFAULT_TOL,
    HUGE_NORM2,
    Q_DIAG,
    RANK_FLOOR,
    RESIDUAL_FLOOR,
    ProjectiveNullLine,
    Record,
    _g,
    _null_gate,
    _projective,
    _q,
    _qb,
    _pivot,
    _rescaled,
    as_null_vec6,
    as_spinor,
    as_vec6,
    require,
)


class SpinorPlane(Record):
    """Two independent spinors spanning a totally isotropic plane."""

    __match_args__ = ("b1", "b2")

    def __init__(self, b1: np.ndarray, b2: np.ndarray):
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)


class SpinorLine(Record):
    """An isotropic spinor modulo complex scale."""

    __match_args__ = ("rep",)

    def __init__(self, rep: np.ndarray):
        object.__setattr__(self, "rep", rep)


class IsotropicPlaneE(Record):
    """Two independent 6-vectors spanning a maximal Q-isotropic plane."""

    __match_args__ = ("x1", "x2")

    def __init__(self, x1: np.ndarray, x2: np.ndarray):
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)


# The kernels below take checked arrays with any leading axes: spinors
# (..., 4), 6-vectors (..., 6), spinor planes (..., 2, 4).  Their gates
# judge every row and name the first that fails, through forms.require.


def _isotropic_gate(v: np.ndarray, tol: float) -> np.ndarray:
    """The input gate of a spinor line, on checked spinors: nonzero
    (||v|| > tol) and isotropic (|(v|v)| <= tol ||v||^2).  Returns v,
    divided by a power of two where ||v||^2 > HUGE_NORM2 (the same line)."""
    v, n2 = _rescaled(v)
    require(np.sqrt(n2) > tol, ZeroVector,
            lambda i, at: f"spinor line needs a nonzero representative{at}")
    vv = _g(v, v)
    require(abs(vv) <= tol * n2, NotIsotropicSpinor,
            lambda i, at: f"(v|v){at} = {vv[i]:g} is not zero")
    return v


def _over_pivot(x, y, a, b):
    """The real and imaginary parts of z conj(p) / |p|^2 for z = x + iy and
    p = a + ib, in real arithmetic on floats or arrays: for z = u p with u in
    {+-1, +-i} both are exact, so u comes out exactly (numpy's complex
    division need not give z / z = 1)."""
    n2 = a * a + b * b
    return (x * a + y * b) / n2, (y * a - x * b) / n2


def _spinor_line(v: np.ndarray, tol: float) -> np.ndarray:
    """Gated spinors scaled so the largest-magnitude component p is exactly
    1, through _over_pivot; a single spinor runs it on Python floats, which
    costs less than array operations on four entries."""
    v = _isotropic_gate(v, tol)
    if v.ndim == 1:
        zs = v.tolist()
        p = max(zs, key=abs)  # the first largest, as _pivot picks it
        return np.array([complex(*_over_pivot(z.real, z.imag, p.real, p.imag)) for z in zs])
    p = _pivot(v)
    re, im = _over_pivot(v.real, v.imag, p.real, p.imag)
    return re + 1j * im


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(v, v).real)


def _independent(a: np.ndarray, b: np.ndarray, scale: np.ndarray, bound: float, what: str,
                 names: tuple[str, str]) -> np.ndarray:
    """The rank gate of pairs a, b (..., n) whose norm products |a| |b| the
    caller gives as scale: |a ^ b| > bound |a| |b| on every row, with a and
    b called names in the message; returns a ^ b."""
    w = _pluecker(a, b)
    size = _norm(w)
    p, q = names
    require(size > bound * scale, RankFailure,
            lambda i, at: f"{what}{at} is zero or dependent"
                          f" (|{p} ^ {q}| = {size[i]:g}, |{p}| |{q}| = {scale[i]:g})")
    return w


def _isotropic_plane(x1: np.ndarray, x2: np.ndarray, tol: float) -> None:
    """The gate of a totally isotropic plane spanned by checked rows x1, x2
    (..., 6), at tol: nonzero rows (|x_i| > tol), independent (|x1 ^ x2| >
    tol |x1| |x2|), and each pairing (x_i, x_j) within tol |x_i| |x_j|.  A
    row whose squared norm passes HUGE_NORM2 is judged divided by its own
    power of two (the same plane), which no verdict can tell apart."""
    (x1, n1), (x2, n2) = _rescaled(x1), _rescaled(x2)
    r1, r2 = np.sqrt(n1), np.sqrt(n2)
    require((r1 > tol) & (r2 > tol), ZeroVector,
            lambda i, at: f"isotropic plane{at} needs nonzero basis vectors")
    scale = r1 * r2
    _independent(x1, x2, scale, tol, "isotropic plane basis", ("x1", "x2"))
    d1, d2, d12 = abs(_q(x1)) / n1, abs(_q(x2)) / n2, abs(_qb(x1, x2)) / scale
    require((d1 <= tol) & (d2 <= tol) & (d12 <= tol), NotNull,
            lambda i, at: f"plane{at} is not totally isotropic (largest pairing over the"
                          f" norms of its rows {np.maximum(np.maximum(d1, d2), d12)[i]:g})")


def isotropic_plane(x1, x2, tol: float = DEFAULT_TOL) -> IsotropicPlaneE:
    """Validate a totally isotropic plane given by two basis vectors at
    tol exactly."""
    x1, x2 = as_vec6(x1), as_vec6(x2)
    _isotropic_plane(x1, x2, tol)
    return IsotropicPlaneE(x1, x2)


def _partner(x: np.ndarray) -> np.ndarray:
    z = np.where(np.arange(6) == abs(x).argmax(axis=-1, keepdims=True), 1.0, 0.0)
    xz = _qb(x, z)[..., None]
    return z / (2.0 * xz) - _q(z)[..., None] * x / (4.0 * xz * xz)


def partner_null_vector(x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A second null vector y with (x, y) = 1/2 exactly; tol is the input
    gate of forms.as_null_vec6.

    Deterministic choice: take z = e_beta with beta the first index
    maximizing |(x, e_beta)|, then y = z / (2(x,z)) - (z,z) x / (4(x,z)^2).
    The pairing value 1/2 is what makes the composite operators of x and y
    idempotent.
    """
    x = as_vec6(x)
    g = _null_gate(x, tol)
    # g is x times a power of two r (often 1), and x's partner is r times g's
    k = abs(x).argmax()
    return _partner(g) * (g[k] / x[k])


def _spinor_plane(x: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of null_to_spinor_plane on gated null vectors (..., 6): the
    kernel bases (..., 2, 4), the first two columns of X(x) at unit length.
    They span the kernel as X(x) conj(X(x)) = Q(x) I, and by the tables
    they are orthogonal with norm |x|.  Post-conditions: the pair at
    max(tol, RANK_FLOOR), and |X(x) conj(b)| / |x| at max(tol, RESIDUAL_FLOOR)."""
    m = _x_matrix(x)
    c1, c2 = m[..., :, 0], m[..., :, 1]
    _independent(c1, c2, _norm(c1) * _norm(c2), max(tol, RANK_FLOOR), "X(x) column pair",
                 ("c1", "c2"))
    m = m / _norm(x)[..., None, None]
    b = m[..., :, :2].mT
    residual = abs(m @ np.conj(b).mT).max(axis=(-2, -1))
    require(residual <= max(tol, RESIDUAL_FLOOR), RankFailure,
            lambda i, at: f"X(x){at} does not annihilate its columns (residual {residual[i]:g})")
    return b


def null_to_spinor_plane(x, tol: float = DEFAULT_TOL) -> SpinorPlane:
    """Kernel plane of the antilinear operator of a null vector; scale
    invariant, and totally isotropic for the spinor form.  tol is the
    input gate of forms.as_null_vec6; the basis, a pair of columns of X(x)
    over |x| (orthonormal by the tables, not an SVD basis), is a
    post-condition."""
    b1, b2 = _spinor_plane(as_null_vec6(x, tol), tol)
    return SpinorPlane(b1, b2)


# the composite X(x1) conj(X(x2)) is quadratic in the basis, and the norms
# of its wedges of degree eight: _plane_line rescales rows past this bound
_COMPOSITE_NORM2 = np.sqrt(HUGE_NORM2)


def _plane_line(x1: np.ndarray, x2: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of plane_to_spinor_line on plane bases (..., 6): the
    canonical line representatives (..., 4).  Each row whose squared norm
    passes _COMPOSITE_NORM2 is divided by its own power of two, which
    leaves the plane and its line as they are."""
    x1, x2 = _rescaled(x1, _COMPOSITE_NORM2)[0], _rescaled(x2, _COMPOSITE_NORM2)[0]
    cols = (_x_matrix(x1) @ np.conj(_x_matrix(x2))).mT
    lengths = _norm(cols)
    largest = (*np.indices(lengths.shape[:-1], sparse=True), lengths.argmax(axis=-1))
    line, size = cols[largest], lengths[largest]
    wedge = _norm(_pluecker(cols, line[..., None, :])).max(axis=-1)
    require((size > tol) & (wedge <= max(tol, RANK_FLOOR) * size * size), RankFailure,
            lambda i, at: f"composite operator{at} is not of rank 1"
                          f" (largest column {size[i]:g}, largest wedge with it {wedge[i]:g})")
    return _spinor_line(line, tol)


def plane_to_spinor_line(n: IsotropicPlaneE, tol: float = DEFAULT_TOL) -> SpinorLine:
    """Image line of the composite X(x1) . conj(X(x2)) of the plane's basis
    pair, its largest column c: the composite of a totally isotropic pair
    has rank exactly 1, and a change of basis rescales it by the change
    determinant.  tol judges the line and |c|; the rank, every column's
    wedge with c within max(tol, RANK_FLOOR) |c|^2, is a post-condition."""
    return SpinorLine(_plane_line(as_vec6(n.x1), as_vec6(n.x2), tol))


def _line_bivector(v: np.ndarray, vbar: np.ndarray) -> np.ndarray:
    """The self-dual coordinates c = (v ^ w) conj(S)^T / 2 (..., 6) of
    v ^ w for w = (vbar_1, -vbar_0, 0, 0), bilinear in v and vbar (..., 4)."""
    w = vbar[..., [1, 0, 2, 3]] * np.array([1.0, -1.0, 0.0, 0.0])
    return _pluecker(v, w) @ _READ.T


# _line_bivector(v, conj(v)) as one (16, 6) table on v (x) conj(v)
_LINE_TABLE = _line_bivector(np.eye(4)[:, None, :], np.eye(4)[None, :, :]).reshape(16, 6)
_LINE_TABLE.setflags(write=False)


def _line_plane(v: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of spinor_line_to_plane on checked spinors (..., 4): the
    plane bases x1, x2 (..., 6), read off the Klein correspondence.  For an
    isotropic v, w = (conj(v_1), -conj(v_0), 0, 0) is G-orthogonal to v, so
    the self-dual coordinates c = (v ^ w) conj(S)^T / 2 of v ^ w split as
    c = x1 + i x2 with both x annihilating conj(v).  As G = diag(1, 1, -1,
    -1), isotropy gives |v_0|^2 + |v_1|^2 = |v|^2 / 2, and w is orthogonal
    to v, so w is never zero or parallel to v and |x1 ^ x2| = |v|^4 / 8,
    at least 1/8 once v is scaled to pivot 1.  Post-condition: the plane
    gate at max(tol, RESIDUAL_FLOOR)."""
    # c is quadratic in v: scaled to pivot 1 it has the scale of the tables,
    # whatever the norm, and a lattice spinor keeps an exact plane
    v = _spinor_line(v, tol)
    outer = v[..., :, None] * np.conj(v)[..., None, :]
    c = outer.reshape(*v.shape[:-1], 16) @ _LINE_TABLE
    x1, x2 = c.real, c.imag
    _isotropic_plane(x1, x2, max(tol, RESIDUAL_FLOOR))
    return x1, x2


def spinor_line_to_plane(v, tol: float = DEFAULT_TOL) -> IsotropicPlaneE:
    """All x whose antilinear operator annihilates the given isotropic
    spinor v: a plane read off the Klein correspondence, as the real and
    imaginary parts of the self-dual bivector v ^ w for a fixed choice of
    w G-orthogonal to v, with no linear solve.  The basis depends only on
    the line, is well independent (|x1 ^ x2| >= 1/8) and is not
    orthonormal.  tol judges the spinor; the plane is a post-condition."""
    if isinstance(v, SpinorLine):
        v = v.rep
    return IsotropicPlaneE(*_line_plane(as_spinor(v), tol))


def _spinor_plane_class(b: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of plane_from_spinor_plane on spinor plane bases (..., 2, 4):
    the canonical class representatives (..., 6).  The Pluecker bivector
    b1 ^ b2 of the kernel plane of X(x) is a complex multiple of phi(x), so
    its Sigma coefficients over their pivot are the class.  Gated at
    max(tol, RANK_FLOOR): the basis, and the imaginary residual left (a
    plane that is no kernel of a null class)."""
    bound = max(tol, RANK_FLOOR)
    b1, b2 = b[..., 0, :], b[..., 1, :]
    w = _independent(b1, b2, _norm(b1) * _norm(b2), bound, "spinor plane basis", ("b1", "b2"))
    c = w @ _READ.T
    c = c / _pivot(c)
    residual = abs(c.imag).max(axis=-1)
    require(residual <= bound, RankFailure,
            lambda i, at: f"spinor plane{at} is not the kernel of a null class"
                          f" (imaginary residual {residual[i]:g})")
    return _projective(c.real, max(tol, RESIDUAL_FLOOR))


def plane_from_spinor_plane(p: SpinorPlane, tol: float = DEFAULT_TOL):
    """The unique projective null class whose operator kernel is the given
    isotropic spinor plane (inverse of null_to_spinor_plane), read off the
    plane's Pluecker bivector; the independence of the basis, the
    kernel property and the class are post-conditions."""
    b = np.stack([as_spinor(p.b1), as_spinor(p.b2)])
    return ProjectiveNullLine(_spinor_plane_class(b, tol))


def _idempotents(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xm = _x_matrix(x)
    ym = _x_matrix(y)
    return xm @ np.conj(ym), ym @ np.conj(xm)


def idempotent_pair(x, y=None, tol: float = DEFAULT_TOL):
    """Composites P = x.y and Q = y.x for a null vector and a partner with
    (x, y) = 1/2; both are idempotent, sum to the identity, and have
    complex trace 2.  Returned as plain 4x4 matrices.  Without y, the
    partner is partner_null_vector(x, tol)."""
    if y is None:
        x = as_null_vec6(x, tol)  # a rescaled x and its partner give the same P and Q
        return _idempotents(x, _partner(x))
    return _idempotents(as_vec6(x), as_vec6(y))


def _gram_schmidt(x1: np.ndarray, x2: np.ndarray, tol: float):
    """X = [x1 x2] = qR for plane bases (..., 6), once the pair passes the
    rank gate at max(tol, RANK_FLOOR): the orthonormal columns q1, q2 and
    R's entries r11 = |x1|, r12 = q1.x2 and r22 = |x2 - r12 q1|.  One pass
    leaves q1.q2 of order eps kappa; a second ("twice is enough") leaves q
    orthonormal to rounding."""
    r11 = _norm(x1)
    _independent(x1, x2, r11 * _norm(x2), max(tol, RANK_FLOOR), "isotropic plane basis",
                 ("x1", "x2"))
    r11 = r11[..., None]
    q1 = x1 / r11
    r12 = np.vecdot(q1, x2)[..., None]
    u = x2 - r12 * q1
    s = np.vecdot(q1, u)[..., None]
    u, r12 = u - s * q1, r12 + s
    r22 = _norm(u)[..., None]
    return q1, u / r22, r11, r12, r22


# (x_i, y_j) = delta_ij / 2 and (y_i, y_j) = 0: rows [x1 x2 y1 y2] against y1, y2
_DUAL_PAIRINGS = np.eye(4, 2) / 2.0


def _dual_rows(x1, x2, z1, z2, tol: float):
    """Y = Q Z / 2 for Z = (X^+)^T (..., 6), corrected by Y <- Y - X (Y^T Q Y)
    and checked in rows [x1 x2 y1 y2] (..., 4, 6): y1, y2 (..., 6)."""
    rows = np.concatenate([v[..., None, :] for v in (x1, x2, z1, z2)], axis=-2)
    x, y = rows[..., :2, :], rows[..., 2:, :]
    y *= Q_DIAG / 2.0
    y -= (y @ (Q_DIAG * y).mT) @ x
    # the seven checks, and (y2, y1), which repeats (y1, y2)
    dev = abs(rows @ (Q_DIAG * y).mT - _DUAL_PAIRINGS).max(axis=(-2, -1))
    require(dev <= max(tol, RESIDUAL_FLOOR), RankFailure,
            lambda i, at: f"dual basis{at} failed the pairing checks (deviation {dev[i]:g})")
    return y[..., 0, :], y[..., 1, :]


def _dual_basis(x1: np.ndarray, x2: np.ndarray, tol: float):
    """Kernel of dual_isotropic_basis on plane bases (..., 6), with Z =
    q R^-T, that is z1 = (q1 - r12 z2) / r11 and z2 = q2 / r22."""
    q1, q2, r11, r12, r22 = _gram_schmidt(x1, x2, tol)
    z2 = q2 / r22
    return _dual_rows(x1, x2, (q1 - r12 * z2) / r11, z2, tol)


def dual_isotropic_basis(n: IsotropicPlaneE, tol: float = DEFAULT_TOL):
    """Null vectors y1, y2 with (x_i, y_j) = delta_ij / 2 and (y1, y2) = 0.

    With X = [x1 x2] and Q^2 = 1, the columns of Y = Q (X^+)^T / 2 are the
    minimum-norm solution of X^T Q Y = I / 2, and Y^T Q Y = 0 as
    X^T Q X = 0.  Gram-Schmidt X = qR gives (X^+)^T = q R^-T with R^-T
    written out: no normal equations square the condition number kappa.
    The correction Y <- Y - X (Y^T Q Y) cancels the first-order error of
    a computed X off the quadric.  The pairings (x_i, y_j) then err by
    about eps kappa and the nullities by eps |y|^2, about eps kappa^2, so
    for unit-scale bases the checks fail beyond kappa of about 1e4.  The
    basis passes the rank gate at max(tol, RANK_FLOOR); the seven pairing
    checks are a post-condition at max(tol, RESIDUAL_FLOOR).
    """
    return _dual_basis(as_vec6(n.x1), as_vec6(n.x2), tol)


def _four_idempotents(x1: np.ndarray, x2: np.ndarray, tol: float):
    """Kernel of four_idempotents on plane bases (..., 6): R1..R4, each
    (..., 4, 4)."""
    q1, q2, *_ = _gram_schmidt(x1, x2, tol)
    # q is orthonormal, so Z = (q^+)^T = q
    y1, y2 = _dual_rows(q1, q2, q1, q2, tol)
    (p1, p2), (c1, c2) = _idempotents(np.array([q1, q2]), np.array([y1, y2]))
    return p1 @ p2, p1 @ c2, c1 @ p2, c1 @ c2


def four_idempotents(n: IsotropicPlaneE, tol: float = DEFAULT_TOL):
    """The four commuting rank-1 idempotents R1..R4 of an isotropic plane:
    products of P_i = x_i.y_i and their complements Q_i = y_i.x_i over a
    dual basis.  They multiply to zero pairwise, sum to the identity, and
    each has complex trace 1; the image of R1 is the image line of the
    plane's composite operator.

    They are built over a Euclidean-orthonormal basis of the same plane: a
    nearly dependent basis makes the P_i far from orthogonal projectors,
    and the rounding in the products grows with ||R||^2.  That basis is q
    in X = qR, so (q^+)^T = q and its dual basis is Q q / 2, corrected and
    checked as in dual_isotropic_basis."""
    return _four_idempotents(as_vec6(n.x1), as_vec6(n.x2), tol)


def _pluecker_gap(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """|p/|p| - e^{it} q/|q|| at the aligned phase, for Pluecker vectors
    (..., k): the angle between their spans to first order; inf where p or
    q is zero or they are orthogonal."""
    ip = np.vecdot(q, p)
    lp, lq = _norm(p), _norm(q)
    diff = _norm((lq * abs(ip))[..., None] * p - (lp * ip)[..., None] * q)
    den = lp * lq * abs(ip)
    return np.divide(diff, den, out=np.full(np.shape(den), np.inf), where=den > 0)


def same_span(a: np.ndarray, b: np.ndarray, tol: float = RESIDUAL_FLOOR):
    """Whether two column pairs (..., n, 2) span the same plane, their
    _pluecker_gap at most tol: a bool for one pair of matrices, a bool array
    over leading axes for stacks.  A dependent pair matches nothing."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.shape[-1] != 2:
        raise ValueError(f"same_span compares column pairs, not {a.shape[-1]} columns")
    same = _pluecker_gap(_pluecker(a[..., 0], a[..., 1]), _pluecker(b[..., 0], b[..., 1])) <= tol
    return bool(same) if same.ndim == 0 else same
