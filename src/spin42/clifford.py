"""Antilinear generator algebra on the (2,2) spinor space.

Six constant 4x4 matrices Sigma_alpha (antisymmetric) and their partners
Gamma_alpha = Sigma_alpha . G realize the vectors of the (4,2) space as
antilinear operators f -> Gamma . conj(f).  The composite of two such
operators is complex linear, the anticommutators reproduce the quadratic
form, each generator is anti-self-adjoint for the pseudo-Hermitian form,
and det(X(x)) = Q(x)^2.  All table entries live on the {0, +-1, +-i}
lattice, so the structural identities hold with zero floating-point error.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, NotInGammaSpan
from .forms import (
    DEFAULT_TOL,
    G4,
    G_DIAG,
    Q_DIAG,
    Record,
    _q,
    as_spinor,
    as_vec6,
    check_finite,
    require,
)

_i = 1j

SIGMA = np.array([
    [[0, 0, -_i, 0], [0, 0, 0, _i], [_i, 0, 0, 0], [0, -_i, 0, 0]],
    [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
    [[0, 0, 0, _i], [0, 0, _i, 0], [0, -_i, 0, 0], [-_i, 0, 0, 0]],
    [[0, _i, 0, 0], [-_i, 0, 0, 0], [0, 0, 0, -_i], [0, 0, _i, 0]],
    [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
], dtype=complex)
SIGMA.setflags(write=False)

# Gamma_alpha = Sigma_alpha . G: G is diagonal, so column j of Sigma_alpha times G_j
GAMMA = SIGMA * G_DIAG
GAMMA.setflags(write=False)

# the generators as rows of flattened matrices (6, 16), and the conjugate
# transpose, which maps a flattened operator to its Frobenius pairings
_GAMMA_ROWS = GAMMA.reshape(6, 16)
_GAMMA_ROWS_H = np.ascontiguousarray(_GAMMA_ROWS.conj().T)


@lru_cache(maxsize=None)
def perm_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The permutations of range(n) as rows, in lexicographic order (the
    identity first), and the sign of each, (-1)^(number of inversions).
    This is the package's one source of permutation signs."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    inversions = np.zeros(len(perms), dtype=int)
    for a, b in itertools.combinations(range(n), 2):
        inversions += perms[:, a] > perms[:, b]
    signs = 1.0 - 2.0 * (inversions % 2)
    perms.setflags(write=False)
    signs.setflags(write=False)
    return perms, signs


def _levi_civita4() -> np.ndarray:
    perms, signs = perm_table(4)
    eps = np.zeros((4, 4, 4, 4))
    eps[tuple(perms.T)] = signs
    return eps


EPS4 = _levi_civita4()
EPS4.setflags(write=False)


class AntilinearOp(Record):
    """Matrix m of an antilinear map v -> m . conj(v)."""

    __match_args__ = ("m",)

    def __init__(self, m: np.ndarray):
        object.__setattr__(self, "m", m)


class LinearOp(Record):
    """Matrix m of a complex-linear map v -> m . v.

    Kept as a separate type from AntilinearOp: the composite of two
    antilinear maps is linear, and mixing the two kinds silently is the
    main notational hazard of this construction.
    """

    __match_args__ = ("m",)

    def __init__(self, m: np.ndarray):
        object.__setattr__(self, "m", m)


def gamma(alpha: int) -> AntilinearOp:
    """The alpha-th antilinear generator, alpha in 1..6."""
    if not 1 <= alpha <= 6:
        raise IndexOutOfRange(f"generator index {alpha} outside 1..6")
    return AntilinearOp(GAMMA[alpha - 1])


def apply(a: AntilinearOp, v) -> np.ndarray:
    """Act on a spinor: (a v)^i = m^i_j conj(v^j)."""
    v = as_spinor(v)
    return a.m @ np.conj(v)


def compose(a: AntilinearOp, b: AntilinearOp) -> LinearOp:
    """Composite antilinear-after-antilinear, which is complex linear:
    a(b(v)) = (A . conj(B)) v."""
    return LinearOp(a.m @ np.conj(b.m))


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Kernel of antilinear_adjoint over a stack of matrices (..., 4, 4)."""
    return G4 @ m.mT @ G4


def antilinear_adjoint(a: AntilinearOp) -> AntilinearOp:
    """Adjoint for the pseudo-Hermitian form: the unique a* with
    (a v | w) = (a* w | v) for all v, w.  In matrix form m* = G . m^T . G
    (for an antilinear operator the transpose appears, not the conjugate
    transpose)."""
    return AntilinearOp(_adjoint(a.m))


def _x_matrix(x: np.ndarray) -> np.ndarray:
    """Kernel of x_matrix: 6-vectors (..., 6) to their operators (..., 4, 4),
    as one 2-D matmul with the generator rows (a stacked x would run as a
    loop of one small matmul per stack entry)."""
    return (x.reshape(-1, 6) @ _GAMMA_ROWS).reshape(*x.shape[:-1], 4, 4)


def x_matrix(x) -> AntilinearOp:
    """The antilinear operator of a 6-vector, X = sum_alpha x^alpha Gamma_alpha."""
    return AntilinearOp(_x_matrix(as_vec6(x)))


def vector_from_op(a: AntilinearOp, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse of x_matrix on its image.

    The generators are orthogonal for the Frobenius pairing with
    <Gamma_a, Gamma_b> = 4 delta_ab, so the real least-squares fit has the
    closed form x^a = Re tr(m Gamma_a^dagger) / 4 and the residual check
    is sharp.  Raises NotInGammaSpan when a residual entry exceeds
    tol * max(1, max |m|), the gate of gamma_coeffs (a 1e-4 residual passes
    the default tol at scale 1e6), and InvalidEntity on non-finite input.
    """
    return gamma_coeffs(check_finite(np.asarray(a.m), "operator"), tol)


def gamma_coeffs(ms: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """vector_from_op on a stack of operator matrices (..., 4, 4) at once,
    returning the (..., 6) coefficients.  Each matrix's residual is judged
    against its own scale, max(1, max |m|), and the error names the first
    matrix that fails."""
    lead = ms.shape[:-2]
    flat = ms.reshape(-1, 16)
    coeffs = (flat @ _GAMMA_ROWS_H).real / 4.0
    residual = np.abs(flat - coeffs @ _GAMMA_ROWS).max(axis=1)
    ok = residual <= tol * np.maximum(1.0, np.abs(flat).max(axis=1))
    require(ok.reshape(lead), NotInGammaSpan,
            lambda i, at: f"operator{at} is not a real generator combination"
                          f" (residual {residual.reshape(lead)[i]:g})")
    return coeffs.reshape(*lead, 6)


# the index pairs i < j of spinors and of 6-vectors, in
# itertools.combinations order (the pairs of spinors are the grade-2
# monomials of exterior), as all the i's, then all the j's
_PAIRS = {n: np.array(list(itertools.combinations(range(n), 2))).T.ravel() for n in (4, 6)}


def _pluecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair coordinates a_i b_j - a_j b_i, i < j, of a ^ b (..., C(n, 2))
    for stacks a, b (..., n), n = 4 or 6; for spinors they are the grade-2
    coefficients of the wedge.  Each factor is gathered along the first
    axis of its transpose: one take for every shape, cheaper than
    a[..., pairs] and, over one leading axis, with its strided layout, by
    which the products downstream round."""
    pairs = _PAIRS[a.shape[-1]]
    k = len(pairs) // 2
    a, b = a.T.take(pairs, 0).T, b.T.take(pairs, 0).T
    return a[..., :k] * b[..., k:] - a[..., k:] * b[..., :k]


def _volume(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The e1234 coefficient of p ^ q for spinor bivector coefficients p, q
    (..., 6) in _PAIRS[4] order, whose leading axes broadcast:
    p01 q23 - p02 q13 + p03 q12 + p12 q03 - p13 q02 + p23 q01.  The six
    products are summed elementwise in that fixed order, so a row rounds
    alike alone and wherever it sits in a stack, and the pairing is exact
    while its products and partial sums are Gaussian integers below 2^53."""
    t = p * q[..., ::-1]
    return t[..., 0] - t[..., 1] + t[..., 2] + t[..., 3] - t[..., 4] + t[..., 5]


def _det4(m: np.ndarray) -> np.ndarray:
    """Kernel of det4 over a stack (..., 4, 4): the Laplace expansion along
    rows (0, 1 | 2, 3), det m e1234 = (m0 ^ m1) ^ (m2 ^ m3), as the Pluecker
    pairing of the coordinates of the two row pairs, both read off the
    even and the odd rows in one _pluecker call."""
    p = _pluecker(m[..., 0::2, :], m[..., 1::2, :])
    return _volume(p[..., 0, :], p[..., 1, :])


def det4(m) -> complex:
    """4x4 determinant as the Pluecker pairing of the row pairs (0, 1) and
    (2, 3), the Laplace expansion along rows.

    Exact on the {0,+-1,+-i} lattice of the generator tables (every
    product and partial sum is a small Gaussian integer, so there is no
    LU rounding), and perfectly adequate numerically at this size.
    Raises ValueError on another shape and InvalidEntity on non-finite
    entries.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return complex(_det4(check_finite(m, "matrix")))


class CheckReport(Record):
    """Outcome of one identity audit."""

    __match_args__ = ("checks_run", "max_deviation", "passed")

    def __init__(self, checks_run: int, max_deviation: float, passed: bool):
        object.__setattr__(self, "checks_run", checks_run)
        object.__setattr__(self, "max_deviation", max_deviation)
        object.__setattr__(self, "passed", passed)


def check_clifford_relations(tol: float = 0.0, gamma_table=None) -> CheckReport:
    """Audit all 36 anticommutators against 2 Q_ab I.

    With the shipped tables the deviation is exactly zero, so tol=0 passes.
    A custom gamma_table (same shape) can be audited for corruption tests.
    """
    table = GAMMA if gamma_table is None else np.asarray(gamma_table, dtype=complex)
    prod = table[:, None] @ np.conj(table)[None, :]  # [a, b] = table[a] conj(table[b])
    anti = prod + prod.transpose(1, 0, 2, 3)
    target = 2.0 * np.multiply.outer(np.diag(Q_DIAG), np.eye(4))
    devs = np.abs(anti - target).max(axis=(2, 3))
    # np.max keeps a NaN deviation, so a corrupted table fails the audit
    worst = float(devs.max())
    return CheckReport(checks_run=devs.size, max_deviation=worst, passed=worst <= tol)


@lru_cache(maxsize=None)
def _selfdual_tables() -> tuple[np.ndarray, np.ndarray]:
    """The constant contractions of 1/2 eps G G as 16 x 16 tables acting on
    flattened 4x4 matrices: S with (S sigma)_ij = 1/2 eps^{ijkl} G_km G_ln
    sigma_mn, and R with (R x)_ij = 1/2 eps^{imnk} G_mj G_nl x_lk.  Their
    entries are 0 and +-1/2, so both stay exact on the table lattice."""
    sd = 0.5 * np.einsum("ijkl,km,ln->ijmn", EPS4, G4, G4).reshape(16, 16)
    re = 0.5 * np.einsum("imnk,mj,nl->ijlk", EPS4, G4, G4).reshape(16, 16)
    sd.setflags(write=False)
    re.setflags(write=False)
    return sd, re


def check_sigma_selfduality(tol: float = 0.0) -> CheckReport:
    """Entrywise audit of conj(Sigma^ij) = 1/2 eps^{ijkl} G_km G_ln Sigma^mn
    with eps^{1234} = +1; exact for the shipped tables."""
    rhs = SIGMA.reshape(6, 16) @ _selfdual_tables()[0].T
    worst = float(np.max(np.abs(np.conj(SIGMA).reshape(6, 16) - rhs)))
    return CheckReport(checks_run=len(SIGMA), max_deviation=worst, passed=worst <= tol)


def _reality_residual(xm: np.ndarray) -> np.ndarray:
    """Kernel of reality_residual over a stack of operator matrices
    (..., 4, 4): the max entrywise deviation of each."""
    flat = xm.reshape(*xm.shape[:-2], 16)
    return np.abs(np.conj(flat) - flat @ _selfdual_tables()[1].T).max(axis=-1)


def reality_residual(x) -> float:
    """Max entrywise deviation in the reality condition
    conj(X)^i_j = 1/2 eps^{imnk} G_mj G_nl X^l_k."""
    return float(_reality_residual(x_matrix(x).m))


def check_x_reality(x, tol: float = 1e-12) -> CheckReport:
    dev = reality_residual(x)
    return CheckReport(checks_run=1, max_deviation=dev, passed=dev <= tol)


def _det_identity(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of det_identity over a stack of 6-vectors (..., 6): the
    complex det X(x) and Q(x)^2 of each."""
    return _det4(_x_matrix(x)), _q(x) ** 2


def det_identity(x) -> tuple[float, float]:
    """Return (det X(x) as a real number, Q(x)^2); the two must agree and
    the determinant's imaginary part must vanish."""
    d, q2 = _det_identity(as_vec6(x))
    return float(d.real), q2
