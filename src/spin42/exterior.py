"""Exterior algebra of the spinor space with an antilinear Hodge star.

Grades run 0..4 over complex 4-space, and a grade-k element is stored as
its C(4,k) coefficients on the increasing-index monomials e_I.  A
mixed-grade element of the whole algebra is stored as 16 coefficients,
the grade blocks in increasing order at offsets 0, 1, 5, 11 and 15 (the
graded layout).  The pseudo-Hermitian form extends to each grade by the
determinant rule (conjugating the second argument), which makes the
monomials orthogonal with (e_I | e_I) = prod_{i in I} G_i, and the star
operator is *antilinear*, defined by

    x wedge (star y) = (x | y) e        for all x of the same grade as y,

with e = e1^e2^e3^e4 the volume element, which gives the closed form
star e_J = (e_J | e_J) sgn(J, J^c) e_{J^c}.  The graded layout is
symmetric: slot 15 - s holds the complement of the monomial in slot s,
so the star of every grade at once is one sign vector times the
conjugate, reversed.  The wedge of two mixed-grade elements is a gather
over the 81 disjoint monomial pairs (I, J), each pair giving the single
monomial e_{I u J} with a sign, times one (81, 16) sign table built on
first use.  Each operation has this one graded kernel: a grade-k element
enters it through its block (`_graded`), and the grade-wise functions
read their result off the block of the result's grade.

On bivectors the star squares to +1 and splits the space into real
6-dimensional eigenspaces; the fixed one is the real span of six basis
bivectors E_alpha built from the generator tables, and phi: x ->
x^alpha E_alpha identifies the (4,2) vector space with it.

Sign convention that matters downstream: the Gram matrix of the E_alpha
is (E_a | E_b) = -Q_ab.  The Hermitian form restricted to the self-dual
subspace has signature (2,4), so no star-fixed basis can have Gram +Q;
the minus sign is forced, and every identity in this package (the
decomposability criterion, the group action, the correspondences) is
stated and tested with it.
"""

from __future__ import annotations

import itertools
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
from .forms import DEFAULT_TOL, G_DIAG, Record, as_vec6, check_finite, require

_SQRT2 = np.sqrt(2.0)


# the increasing index tuples of each grade, in storage order
_COMBOS = tuple(tuple(itertools.combinations(range(4), k)) for k in range(5))

# the index pairs i < j of spinors and of 6-vectors, in the same order (the
# pairs of spinors are _COMBOS[2]), as all the i's, then all the j's
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


# the graded layout: the 16 monomials grade by grade, grade k's block
# starting at slot _OFFSETS[k] and spanning the slots _BLOCKS[k]
_SLOTS = tuple(itertools.chain.from_iterable(_COMBOS))
_OFFSETS = tuple(itertools.accumulate((len(c) for c in _COMBOS[:4]), initial=0))
_BLOCKS = tuple(slice(start, start + len(c)) for start, c in zip(_OFFSETS, _COMBOS))
# the grade of each slot
_SLOT_GRADES = np.array([len(slot) for slot in _SLOTS])
_SLOT_GRADES.setflags(write=False)


@lru_cache(maxsize=None)
def _reorderings(k: int) -> MappingProxyType:
    """Every ordered k-tuple of distinct indices, mapped to the storage
    position of its increasing-index monomial e_I and the sign s with
    e_i1 ^ ... ^ e_ik = s e_I."""
    perms, signs = perm_table(k)
    return MappingProxyType({
        tuple(combo[j] for j in perm): (pos, float(sign))
        for pos, combo in enumerate(_COMBOS[k]) for perm, sign in zip(perms, signs)})


class KVector(Record):
    """Grade-k element stored as its C(4,k) complex coefficients on the
    increasing-index monomials e_I, I in itertools.combinations(range(4), k)
    order (grade 0 has one coefficient).  == is exact equality of grade and
    coefficients; a KVector is not hashable."""

    __match_args__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs: np.ndarray):
        if k not in range(5):
            raise ValueError(f"grade {k} outside 0..4")
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (comb(4, k),):
            raise ValueError(f"grade-{k} coefficients of shape {coeffs.shape},"
                             f" not ({comb(4, k)},)")
        object.__setattr__(self, "k", k)
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
def _wedge_table16() -> np.ndarray:
    """Real sign table W (16, 16, 16) with e_I ^ e_J = sum_M W[I, J, M] e_M
    over the slots of the graded layout."""
    table = np.zeros((16, 16, 16))
    for i, a in enumerate(_SLOTS):
        for j, b in enumerate(_SLOTS):
            k = len(a) + len(b)
            if k <= 4 and a + b in _reorderings(k):
                pos, sign = _reorderings(k)[a + b]
                table[i, j, _OFFSETS[k] + pos] = sign
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _wedge_pairs16() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 81 disjoint monomial pairs (I, J), as slot index arrays i and j,
    and their real rows W[I, J] (81, 16), each a single sign on slot I u J."""
    table = _wedge_table16()
    i, j = np.nonzero(table.any(axis=-1))
    return i, j, table[i, j]


def _wedge16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel of the graded wedge: complex mixed-grade stacks (..., 16) of
    one shape, to (..., 16).  The products over the 81 disjoint pairs are
    laid out pairs first, so their real and imaginary parts are one real
    (81, 2n) array, and go through the real sign rows as one real 2-D
    product of 16 x 81 x 2n multiply-adds (a complex product would cost
    twice that)."""
    i, j, rows = _wedge_pairs16()
    lead = a.shape[:-1]
    a, b = a.reshape(-1, 16).T, b.reshape(-1, 16).T
    pairs = np.take(a, i, axis=0) * np.take(b, j, axis=0)
    return (rows.T @ pairs.view(float)).view(complex).T.reshape(*lead, 16)


def _graded(k: int, c: np.ndarray) -> np.ndarray:
    """Grade-k coefficients (..., C(4,k)) placed into grade k's block of
    the graded layout (..., 16), with 0 in every other slot."""
    out = np.zeros((*c.shape[:-1], 16), dtype=complex)
    out[..., _BLOCKS[k]] = c
    return out


def wedge(a: KVector, b: KVector) -> KVector:
    """Graded product with the determinant normalization:
    (v ^ w)^{ij} = v^i w^j - v^j w^i for vectors."""
    p, q = a.k, b.k
    if p + q > 4:
        raise GradeOverflow(f"grades {p}+{q} exceed 4")
    return KVector(p + q, _wedge16(_graded(p, a.coeffs), _graded(q, b.coeffs))[_BLOCKS[p + q]])


@lru_cache(maxsize=None)
def _weights16() -> np.ndarray:
    """(e_I | e_I) = prod_{i in I} G_i for each slot of the graded layout."""
    weights = np.array([np.prod(G_DIAG[list(combo)]) for combo in _SLOTS])
    weights.setflags(write=False)
    return weights


def _herm16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Hermitian form, grade by grade orthogonal, on mixed-grade
    stacks (..., 16) whose leading axes broadcast."""
    return (_weights16() * a * np.conj(b)).sum(axis=-1)


def herm_inner(a: KVector, b: KVector) -> complex:
    """(a | b) = sum_I (e_I | e_I) a_I conj(b_I)."""
    if a.k != b.k:
        raise GradeMismatch(f"grades {a.k} and {b.k} differ")
    return complex(_herm16(_graded(a.k, a.coeffs), _graded(b.k, b.coeffs)))


# row alpha: the coefficients of Sigma_alpha, its entries [i, j] with i < j
_SIGMA_COEFFS = np.array([[sigma[combo] for combo in _COMBOS[2]] for sigma in SIGMA])
_SIGMA_COEFFS.setflags(write=False)

# _READ @ w = conj(S) w / 2, the generator coefficients of pair coordinates w:
# the rows of S are orthogonal with S S^H = 2 I
_READ = _SIGMA_COEFFS.conj() / 2.0
_READ.setflags(write=False)


def basis_bivector(alpha: int) -> KVector:
    """E_alpha, with components Sigma_alpha / sqrt(2): star-fixed, and
    pairwise (E_a | E_b) = -Q_ab (see the module docstring for why the
    sign cannot be +)."""
    if not 1 <= alpha <= 6:
        raise IndexOutOfRange(f"bivector index {alpha} outside 1..6")
    return KVector(2, _SIGMA_COEFFS[alpha - 1] / _SQRT2)


@lru_cache(maxsize=None)
def _star_signs16() -> np.ndarray:
    """s_J = (e_J | e_J) sgn(J, J^c) over the graded layout, with
    e_J ^ e_{J^c} = sgn(J, J^c) e.  Slot 15 - J holds the complement of
    slot J, so star e_J = s_J e_{J^c} reverses the 16 coefficients."""
    slots = np.arange(16)
    signs = _weights16() * _wedge_table16()[slots, 15 - slots, 15]
    signs.setflags(write=False)
    return signs


def _star16(c: np.ndarray) -> np.ndarray:
    """The star of every grade at once: mixed-grade stacks (..., 16) to
    the stacks of their stars, grade k's block going to grade 4 - k's."""
    return (_star_signs16() * np.conj(c))[..., ::-1]


def hodge_star(y: KVector) -> KVector:
    """Antilinear star: grade k -> 4-k, with x ^ star(y) = (x|y) e."""
    return KVector(4 - y.k, _star16(_graded(y.k, y.coeffs))[_BLOCKS[4 - y.k]])


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
    dev = abs(_star16(_graded(2, b))[..., _BLOCKS[2]] - b).max(axis=-1)
    require(dev <= bound, NotSelfDual,
            lambda i, at: f"bivector{at} is not fixed by the star (deviation {dev[i]:g})")
    x = np.real(b @ _SIGMA_COEFFS.conj().T) / _SQRT2
    res = abs(b - _phi(x)).max(axis=-1)
    require(res <= bound, NotRealCombination,
            lambda i, at: f"bivector{at} is outside the real basis span (residual {res[i]:g})")
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
    kv_norm(b ^ b) <= tol kv_norm(b)^2 per row, and every zero row; b ^ b
    is the volume slot 15 of the graded wedge."""
    n2 = 2.0 * np.vecdot(b, b).real
    g = _graded(2, b)
    ww = sqrt(factorial(4)) * abs(_wedge16(g, g)[..., 15])
    return (n2 == 0.0) | (ww <= tol * n2)


def is_decomposable(b: KVector, tol: float = DEFAULT_TOL) -> bool:
    """A bivector is a single wedge v ^ w exactly when b ^ b = 0; the
    threshold scales with ||b||^2 for scale invariance.  Non-finite
    coefficients raise InvalidEntity."""
    if b.k != 2:
        raise GradeMismatch("decomposability is defined on bivectors")
    return bool(_decomposable(check_finite(b.coeffs, "bivector"), tol))
