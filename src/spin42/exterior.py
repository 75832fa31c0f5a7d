"""Exterior algebra of the spinor space with an antilinear Hodge star.

Grades run 0..4 over complex 4-space, and a grade-k element is stored as
its C(4,k) coefficients on the increasing-index monomials e_I.  The
pseudo-Hermitian form extends to each grade by the determinant rule
(conjugating the second argument), which makes the monomials orthogonal
with (e_I | e_I) = prod_{i in I} G_i, and the star operator is
*antilinear*, defined by

    x wedge (star y) = (x | y) e        for all x of the same grade as y,

with e = e1^e2^e3^e4 the volume element, which gives the closed form
star e_J = (e_J | e_J) sgn(J, J^c) e_{J^c}.  On bivectors the star squares
to +1 and splits the space into real 6-dimensional eigenspaces; the fixed
one is the real span of six basis bivectors E_alpha built from the
generator tables, and phi: x -> x^alpha E_alpha identifies the (4,2)
vector space with it.

Sign convention that matters downstream: the Gram matrix of the E_alpha
is (E_a | E_b) = -Q_ab.  The Hermitian form restricted to the self-dual
subspace has signature (2,4), so no star-fixed basis can have Gram +Q;
the minus sign is forced, and every identity in this package (the
decomposability criterion, the group action, the correspondences) is
stated and tested with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, sqrt
from types import MappingProxyType

import numpy as np

from .clifford import SIGMA, perm_table
from .errors import (
    GradeMismatch,
    GradeOverflow,
    IndexOutOfRange,
    NotRealCombination,
    NotSelfDual,
)
from .forms import DEFAULT_TOL, G_DIAG, as_vec6, at_row, check_finite, first_failure

_SQRT2 = np.sqrt(2.0)


# the increasing index tuples of each grade, in storage order
_COMBOS = tuple(tuple(itertools.combinations(range(4), k)) for k in range(5))


@lru_cache(maxsize=None)
def _reorderings(k: int) -> MappingProxyType:
    """Every ordered k-tuple of distinct indices, mapped to the storage
    position of its increasing-index monomial e_I and the sign s with
    e_i1 ^ ... ^ e_ik = s e_I."""
    perms, signs = perm_table(k)
    return MappingProxyType({
        tuple(combo[j] for j in perm): (pos, float(sign))
        for pos, combo in enumerate(_COMBOS[k]) for perm, sign in zip(perms, signs)})


@dataclass(frozen=True, eq=False)
class KVector:
    """Grade-k element stored as its C(4,k) complex coefficients on the
    increasing-index monomials e_I, I in itertools.combinations(range(4), k)
    order (grade 0 has one coefficient).  == is exact equality of grade and
    coefficients; a KVector is not hashable."""

    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.k not in range(5):
            raise ValueError(f"grade {self.k} outside 0..4")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (comb(4, self.k),):
            raise ValueError(f"grade-{self.k} coefficients of shape {coeffs.shape},"
                             f" not ({comb(4, self.k)},)")
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if not isinstance(other, KVector):
            return NotImplemented
        return self.k == other.k and bool(np.array_equal(self.coeffs, other.coeffs))

    @property
    def comps(self) -> np.ndarray:
        """Read-only full antisymmetric array, k axes of length 4 (0-d at
        grade 0): each coefficient signed over the permutations of I."""
        out = np.zeros((4,) * self.k, dtype=complex)
        for index, (pos, sign) in _reorderings(self.k).items():
            out[index] = sign * self.coeffs[pos]
        out.setflags(write=False)
        return out


def scalar(c) -> KVector:
    return KVector(0, [c])


def vector(v) -> KVector:
    return KVector(1, v)


def basis_kvector(indices) -> KVector:
    """Wedge of basis spinor directions, 1-based indices."""
    idx = []
    for i in indices:
        if not 1 <= i <= 4:
            raise IndexOutOfRange(f"basis index {i} outside 1..4")
        if len(idx) == 4:
            raise GradeOverflow("grades 4+1 exceed 4")
        idx.append(i - 1)
    k = len(idx)
    coeffs = np.zeros(comb(4, k), dtype=complex)
    # a repeated index is in no reordering: the wedge is zero
    pos, sign = _reorderings(k).get(tuple(idx), (0, 0.0))
    coeffs[pos] = sign
    return KVector(k, coeffs)


@lru_cache(maxsize=None)
def _wedge_table(p: int, q: int) -> np.ndarray:
    """Sign table with e_I ^ e_J = sum_M T[I, J, M] e_M over the monomials
    of grades p, q and p+q, with (I, J) flattened to one axis."""
    monomials = _reorderings(p + q)
    table = np.zeros((comb(4, p), comb(4, q), comb(4, p + q)), dtype=complex)
    for i, a in enumerate(_COMBOS[p]):
        for j, b in enumerate(_COMBOS[q]):
            if a + b in monomials:
                pos, sign = monomials[a + b]
                table[i, j, pos] = sign
    table = table.reshape(-1, comb(4, p + q))
    table.setflags(write=False)
    return table


def _wedge(p: int, q: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel of wedge: coefficient arrays (..., C(4,p)) and (..., C(4,q))
    whose leading axes broadcast, to (..., C(4,p+q)); the broadcast outer
    product, flattened, times the sign table."""
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(*outer.shape[:-2], -1) @ _wedge_table(p, q)


def wedge(a: KVector, b: KVector) -> KVector:
    """Graded product with the determinant normalization:
    (v ^ w)^{ij} = v^i w^j - v^j w^i for vectors."""
    p, q = a.k, b.k
    if p + q > 4:
        raise GradeOverflow(f"grades {p}+{q} exceed 4")
    return KVector(p + q, _wedge(p, q, a.coeffs, b.coeffs))


@lru_cache(maxsize=None)
def _weights(k: int) -> np.ndarray:
    """(e_I | e_I) = prod_{i in I} G_i for each grade-k monomial."""
    weights = np.array([np.prod(G_DIAG[list(combo)]) for combo in _COMBOS[k]])
    weights.setflags(write=False)
    return weights


def _herm(k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel of herm_inner on grade-k coefficient arrays (..., C(4,k))
    whose leading axes broadcast."""
    return (_weights(k) * a * np.conj(b)).sum(axis=-1)


def herm_inner(a: KVector, b: KVector) -> complex:
    """(a | b) = sum_I (e_I | e_I) a_I conj(b_I)."""
    if a.k != b.k:
        raise GradeMismatch(f"grades {a.k} and {b.k} differ")
    return complex(_herm(a.k, a.coeffs, b.coeffs))


# row alpha: the coefficients of Sigma_alpha, its entries [i, j] with i < j
_SIGMA_COEFFS = np.array([[sigma[combo] for combo in _COMBOS[2]] for sigma in SIGMA])
_SIGMA_COEFFS.setflags(write=False)


def basis_bivector(alpha: int) -> KVector:
    """E_alpha, with components Sigma_alpha / sqrt(2): star-fixed, and
    pairwise (E_a | E_b) = -Q_ab (see the module docstring for why the
    sign cannot be +)."""
    if not 1 <= alpha <= 6:
        raise IndexOutOfRange(f"bivector index {alpha} outside 1..6")
    return KVector(2, _SIGMA_COEFFS[alpha - 1] / _SQRT2)


@lru_cache(maxsize=None)
def _star_signs(k: int) -> np.ndarray:
    """s_J = (e_J | e_J) sgn(J, J^c), with e_J ^ e_{J^c} = sgn(J, J^c) e.
    In storage order the complement of the J-th monomial is the J-th from
    the end, so star e_J = s_J e_{J^c} reverses the coefficients."""
    n = comb(4, k)
    signs = _weights(k) * np.diag(_wedge_table(k, 4 - k).reshape(n, n)[:, ::-1]).real
    signs.setflags(write=False)
    return signs


def _star(k: int, c: np.ndarray) -> np.ndarray:
    """Kernel of hodge_star: grade-k coefficients (..., C(4,k)) to the
    grade-(4-k) coefficients of their stars."""
    return (_star_signs(k) * np.conj(c))[..., ::-1]


def hodge_star(y: KVector) -> KVector:
    """Antilinear star: grade k -> 4-k, with x ^ star(y) = (x|y) e."""
    return KVector(4 - y.k, _star(y.k, y.coeffs))


def kv_norm(a: KVector) -> float:
    """Frobenius norm of comps, where each coefficient appears k! times."""
    return sqrt(factorial(a.k)) * float(np.linalg.norm(a.coeffs))


def kv_add(a: KVector, b: KVector) -> KVector:
    if a.k != b.k:
        raise GradeMismatch(f"grades {a.k} and {b.k} differ")
    return KVector(a.k, a.coeffs + b.coeffs)


def kv_scale(c, a: KVector) -> KVector:
    return KVector(a.k, c * a.coeffs)


def selfdual_split(b: KVector) -> tuple[KVector, KVector]:
    """Split a bivector into its star-fixed and star-negated halves."""
    if b.k != 2:
        raise GradeMismatch("self-dual split is defined on bivectors")
    sb = hodge_star(b)
    return (
        KVector(2, (b.coeffs + sb.coeffs) / 2.0),
        KVector(2, (b.coeffs - sb.coeffs) / 2.0),
    )


def _phi(x: np.ndarray) -> np.ndarray:
    """Kernel of phi: real (..., 6) to complex bivector coefficients (..., 6)."""
    return x @ _SIGMA_COEFFS / _SQRT2


def phi(x) -> KVector:
    """Real-linear embedding of the 6-space into self-dual bivectors,
    phi(x) = x^alpha E_alpha."""
    return KVector(2, _phi(as_vec6(x)))


def _phi_inverse(b: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of phi_inverse on finite bivector coefficients (..., 6),
    returning the real coordinates (..., 6).  Both gates judge every row
    against tol * max(1, ||b||) and name the first row that fails them."""
    bound = tol * np.maximum(1.0, _SQRT2 * np.linalg.norm(b, axis=-1))
    dev = abs(_star(2, b) - b).max(axis=-1)
    bad = ~(dev <= bound)
    if bad.any():
        row = first_failure(bad)
        raise NotSelfDual(f"bivector{at_row(row)} is not fixed by the star"
                          f" (deviation {dev[row]:g})")
    x = np.real(b @ _SIGMA_COEFFS.conj().T) / _SQRT2
    dev = abs(b - _phi(x)).max(axis=-1)
    bad = ~(dev <= bound)
    if bad.any():
        row = first_failure(bad)
        raise NotRealCombination(f"bivector{at_row(row)} is outside the real basis span"
                                 f" (residual {dev[row]:g})")
    return x


def phi_inverse(b: KVector, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coordinates of a self-dual bivector in the E_alpha basis.

    The coefficient rows S_alpha of the Sigma_alpha are orthogonal with
    <S_a, S_b> = 2 delta_ab, so x^a = Re(conj(S_a) . b) / sqrt(2) is the
    exact projection; the residual then certifies that b really was a
    real combination; both gates are at tol * max(1, ||b||), and
    non-finite coefficients raise InvalidEntity.
    """
    if b.k != 2:
        raise GradeMismatch("phi_inverse is defined on bivectors")
    return _phi_inverse(check_finite(b.coeffs, "bivector"), tol)


def _decomposable(b: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of is_decomposable on finite bivector coefficients (..., 6):
    kv_norm(b ^ b) <= tol kv_norm(b)^2 per row, and every zero row."""
    n2 = 2.0 * np.vecdot(b, b).real
    ww = sqrt(factorial(4)) * abs(_wedge(2, 2, b, b)[..., 0])
    return (n2 == 0.0) | (ww <= tol * n2)


def is_decomposable(b: KVector, tol: float = DEFAULT_TOL) -> bool:
    """A bivector is a single wedge v ^ w exactly when b ^ b = 0; the
    threshold scales with ||b||^2 for scale invariance.  Non-finite
    coefficients raise InvalidEntity."""
    if b.k != 2:
        raise GradeMismatch("decomposability is defined on bivectors")
    return bool(_decomposable(check_finite(b.coeffs, "bivector"), tol))
