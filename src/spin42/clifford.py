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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, NotInGammaSpan
from .forms import DEFAULT_TOL, G4, Q_DIAG, _q, as_spinor, as_vec6, check_finite

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

GAMMA = np.array([
    [[0, 0, _i, 0], [0, 0, 0, -_i], [_i, 0, 0, 0], [0, -_i, 0, 0]],
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    [[0, 0, 0, -_i], [0, 0, -_i, 0], [0, -_i, 0, 0], [-_i, 0, 0, 0]],
    [[0, _i, 0, 0], [-_i, 0, 0, 0], [0, 0, 0, _i], [0, 0, -_i, 0]],
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
], dtype=complex)
GAMMA.setflags(write=False)


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


def table_sum(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_alpha x^alpha table[alpha] for a 6x4x4 table, as one matmul."""
    return (x @ table.reshape(6, 16)).reshape(4, 4)


@dataclass(frozen=True)
class AntilinearOp:
    """Matrix m of an antilinear map v -> m . conj(v)."""

    m: np.ndarray


@dataclass(frozen=True)
class LinearOp:
    """Matrix m of a complex-linear map v -> m . v.

    Kept as a separate type from AntilinearOp: the composite of two
    antilinear maps is linear, and mixing the two kinds silently is the
    main notational hazard of this construction.
    """

    m: np.ndarray


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


def antilinear_adjoint(a: AntilinearOp) -> AntilinearOp:
    """Adjoint for the pseudo-Hermitian form: the unique a* with
    (a v | w) = (a* w | v) for all v, w.  In matrix form m* = G . m^T . G
    (for an antilinear operator the transpose appears, not the conjugate
    transpose)."""
    return AntilinearOp(G4 @ a.m.T @ G4)


def x_matrix(x) -> AntilinearOp:
    """The antilinear operator of a 6-vector, X = sum_alpha x^alpha Gamma_alpha."""
    x = as_vec6(x)
    return AntilinearOp(table_sum(x, GAMMA))


def vector_from_op(a: AntilinearOp, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse of x_matrix on its image.

    The generators are orthogonal for the Frobenius pairing with
    <Gamma_a, Gamma_b> = 4 delta_ab, so the real least-squares fit has the
    closed form x^a = Re tr(m Gamma_a^dagger) / 4 and the residual check
    is sharp.  Raises NotInGammaSpan when the residual exceeds tol (an
    input gate, judged at tol exactly) and InvalidEntity on non-finite
    input.
    """
    return gamma_coeffs(check_finite(np.asarray(a.m), "operator"), tol)[0]


@lru_cache(maxsize=None)
def _gamma_rows() -> tuple[np.ndarray, np.ndarray]:
    """GAMMA as a 6 x 16 matrix of flattened generators, and its conjugate
    transpose, which maps a flattened operator to its Frobenius pairings."""
    rows = GAMMA.reshape(6, 16)
    return rows, np.ascontiguousarray(rows.conj().T)


def gamma_coeffs(ms: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """vector_from_op on a stack of n operator matrices (n x 4 x 4, or one
    4 x 4 matrix as n = 1) at once, returning the n x 6 coefficients.
    Each matrix's residual is judged against its own scale, max(1, max |m|)."""
    rows, rows_h = _gamma_rows()
    flat = ms.reshape(-1, 16)
    coeffs = (flat @ rows_h).real / 4.0
    residual = np.abs(flat - coeffs @ rows).max(axis=1)
    bad = ~(residual <= tol * np.maximum(1.0, np.abs(flat).max(axis=1)))
    if bad.any():
        first = float(residual[bad][0])
        raise NotInGammaSpan(
            f"operator is not a real generator combination (residual {first:g})"
        )
    return coeffs


def det4(m: np.ndarray) -> complex:
    """4x4 determinant by the Leibniz expansion over the permutation
    table: one gather of the 24 diagonals m[r, perm(r)], their products,
    and one signed sum.

    Exact on the {0,+-1,+-i} lattice of the generator tables (every
    product and partial sum is a small Gaussian integer, so there is no
    LU rounding), and perfectly adequate numerically at this size.
    """
    perms, signs = perm_table(4)
    return complex(np.prod(m[np.arange(4), perms], axis=1) @ signs)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity audit."""

    checks_run: int
    max_deviation: float
    passed: bool


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


def reality_residual(x) -> float:
    """Max entrywise deviation in the reality condition
    conj(X)^i_j = 1/2 eps^{imnk} G_mj G_nl X^l_k."""
    xm = x_matrix(x).m.reshape(16)
    rhs = _selfdual_tables()[1] @ xm
    return float(np.max(np.abs(np.conj(xm) - rhs)))


def check_x_reality(x, tol: float = 1e-12) -> CheckReport:
    dev = reality_residual(x)
    return CheckReport(checks_run=1, max_deviation=dev, passed=dev <= tol)


def det_identity(x) -> tuple[float, float]:
    """Return (det X(x) as a real number, Q(x)^2); the two must agree and
    the determinant's imaginary part must vanish."""
    x = as_vec6(x)
    d = det4(table_sum(x, GAMMA))
    return float(d.real), _q(x) ** 2
