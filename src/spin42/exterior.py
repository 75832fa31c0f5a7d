"""Exterior algebra of the spinor space with an antilinear Hodge star.

Grades run 0..4 over complex 4-space.  The pseudo-Hermitian form extends
to each grade by the determinant rule (conjugating the second argument),
and the star operator is *antilinear*, defined by

    x wedge (star y) = (x | y) e        for all x of the same grade as y,

with e = e1^e2^e3^e4 the volume element.  On bivectors the star squares
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
from math import factorial

import numpy as np

from .clifford import SIGMA, perm_table, table_sum
from .errors import (
    GradeMismatch,
    GradeOverflow,
    IndexOutOfRange,
    NotRealCombination,
    NotSelfDual,
)
from .forms import DEFAULT_TOL, G_DIAG, as_vec6

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class KVector:
    """Grade-k element stored as a full antisymmetric array with k axes of
    length 4 (grade 0 is a 0-d array).  Full storage wastes a few entries
    but removes index-ordering bugs."""

    k: int
    comps: np.ndarray


def scalar(c) -> KVector:
    return KVector(0, np.asarray(c, dtype=complex))


def vector(v) -> KVector:
    v = np.asarray(v, dtype=complex)
    if v.shape != (4,):
        raise ValueError("grade-1 input must be a 4-vector")
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
    comps = np.zeros(4 ** k, dtype=complex)
    if len(set(idx)) == k:
        # +1 at the given index order, signed over its permutations
        perms, signs = perm_table(k)
        comps[np.array(idx, dtype=np.intp)[perms] @ _place_values(k)] = signs
    return KVector(k, comps.reshape((4,) * k))


def _combos(k: int):
    return list(itertools.combinations(range(4), k))


@lru_cache(maxsize=None)
def _place_values(k: int) -> np.ndarray:
    """Flat-index weight of each of the k axes of a (4,)*k tensor."""
    weights = 4 ** np.arange(k - 1, -1, -1)
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=None)
def _positions(k: int) -> np.ndarray:
    """Flat positions in a (4,)*k tensor of every permutation of every
    increasing index combination: entry [c, s] is combination c permuted
    by row s of perm_table(k).  Column 0 (the identity) holds the
    increasing-index monomials themselves."""
    perms, _ = perm_table(k)
    combos = np.array(_combos(k), dtype=np.intp)
    pos = combos[:, perms] @ _place_values(k)
    pos.setflags(write=False)
    return pos


def _coeffs_of(kv: KVector) -> np.ndarray:
    return kv.comps.reshape(-1)[_positions(kv.k)[:, 0]]


def _from_coeffs(k: int, coeffs) -> KVector:
    """The antisymmetric grade-k tensor with the given coefficients on the
    increasing-index monomials: each coefficient is scattered, signed, to
    every permutation of its indices."""
    coeffs = np.asarray(coeffs)
    _, signs = perm_table(k)
    comps = np.zeros(4 ** k, dtype=coeffs.dtype)
    comps[_positions(k)] = np.multiply.outer(coeffs, signs)
    return KVector(k, comps.reshape((4,) * k))


def wedge(a: KVector, b: KVector) -> KVector:
    """Graded product with the determinant normalization:
    (v ^ w)^{ij} = v^i w^j - v^j w^i for vectors.

    Each increasing-index coefficient is the signed sum of the outer
    product over the permutations of its indices, divided by p! q!."""
    p, q = a.k, b.k
    if p + q > 4:
        raise GradeOverflow(f"grades {p}+{q} exceed 4")
    t = np.multiply.outer(a.comps, b.comps).reshape(-1)
    _, signs = perm_table(p + q)
    coeffs = t[_positions(p + q)] @ signs / (factorial(p) * factorial(q))
    return _from_coeffs(p + q, coeffs)


@lru_cache(maxsize=None)
def _g_weight(k: int) -> np.ndarray:
    """G_DIAG on each of k axes, multiplied out: a (4,)*k tensor of +-1."""
    weight = np.ones(())
    for _ in range(k):
        weight = np.multiply.outer(weight, G_DIAG)
    weight.setflags(write=False)
    return weight


def herm_inner(a: KVector, b: KVector) -> complex:
    """(a | b) = (1/k!) G_{i1 j1} ... G_{ik jk} a^{i...} conj(b^{j...})."""
    if a.k != b.k:
        raise GradeMismatch(f"grades {a.k} and {b.k} differ")
    return complex(np.vdot(b.comps, _g_weight(a.k) * a.comps)) / factorial(a.k)


def basis_bivector(alpha: int) -> KVector:
    """E_alpha, with components Sigma_alpha / sqrt(2): star-fixed, and
    pairwise (E_a | E_b) = -Q_ab (see the module docstring for why the
    sign cannot be +)."""
    if not 1 <= alpha <= 6:
        raise IndexOutOfRange(f"bivector index {alpha} outside 1..6")
    return KVector(2, SIGMA[alpha - 1] / _SQRT2)


@lru_cache(maxsize=None)
def _star_matrix(k: int) -> np.ndarray:
    """Matrix S with star(y) = S . conj(coeffs(y)) in the increasing-index
    monomial basis, obtained by solving the defining relation
    e_I ^ (star e_J) = (e_I | e_J) e against all monomials."""
    rows = _combos(k)
    cols = _combos(4 - k)
    w = np.zeros((len(rows), len(cols)), dtype=complex)
    for ri, i_combo in enumerate(rows):
        ei = basis_kvector([i + 1 for i in i_combo])
        for ci, m_combo in enumerate(cols):
            em = basis_kvector([m + 1 for m in m_combo])
            w[ri, ci] = wedge(ei, em).comps[0, 1, 2, 3]
    rhs = np.zeros((len(rows), len(rows)), dtype=complex)
    for ri, i_combo in enumerate(rows):
        ei = basis_kvector([i + 1 for i in i_combo])
        for ji, j_combo in enumerate(rows):
            ej = basis_kvector([j + 1 for j in j_combo])
            rhs[ri, ji] = herm_inner(ei, ej)
    # columns of the solution are the star images of each monomial e_J
    return np.linalg.solve(w, rhs)


def hodge_star(y: KVector) -> KVector:
    """Antilinear star: grade k -> 4-k, with x ^ star(y) = (x|y) e."""
    s = _star_matrix(y.k)
    coeffs = s @ np.conj(_coeffs_of(y))
    return _from_coeffs(4 - y.k, coeffs)


def kv_norm(a: KVector) -> float:
    return float(np.linalg.norm(np.ravel(a.comps)))


def kv_add(a: KVector, b: KVector) -> KVector:
    if a.k != b.k:
        raise GradeMismatch(f"grades {a.k} and {b.k} differ")
    return KVector(a.k, a.comps + b.comps)


def kv_scale(c, a: KVector) -> KVector:
    return KVector(a.k, c * a.comps)


def selfdual_split(b: KVector) -> tuple[KVector, KVector]:
    """Split a bivector into its star-fixed and star-negated halves."""
    if b.k != 2:
        raise GradeMismatch("self-dual split is defined on bivectors")
    sb = hodge_star(b)
    return (
        KVector(2, (b.comps + sb.comps) / 2.0),
        KVector(2, (b.comps - sb.comps) / 2.0),
    )


def phi(x) -> KVector:
    """Real-linear embedding of the 6-space into self-dual bivectors,
    phi(x) = x^alpha E_alpha."""
    x = as_vec6(x)
    return KVector(2, table_sum(x, SIGMA) / _SQRT2)


def phi_inverse(b: KVector, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coordinates of a self-dual bivector in the E_alpha basis.

    The E_alpha are Frobenius-orthogonal with <E_a, E_b> = 2 delta_ab, so
    x^a = Re <b, E_a> / 2 is the exact projection; the residual then
    certifies that b really was a real combination.
    """
    if b.k != 2:
        raise GradeMismatch("phi_inverse is defined on bivectors")
    scale = max(1.0, kv_norm(b))
    sb = hodge_star(b)
    if float(np.max(np.abs(sb.comps - b.comps))) > tol * scale:
        raise NotSelfDual("bivector is not fixed by the star")
    coeffs = np.real(SIGMA.reshape(6, 16).conj() @ b.comps.reshape(16)) / (2.0 * _SQRT2)
    fit = table_sum(coeffs, SIGMA) / _SQRT2
    if float(np.max(np.abs(b.comps - fit))) > tol * scale:
        raise NotRealCombination("bivector is outside the real basis span")
    return coeffs


def is_decomposable(b: KVector, tol: float = DEFAULT_TOL) -> bool:
    """A bivector is a single wedge v ^ w exactly when b ^ b = 0; the
    threshold scales with ||b||^2 for scale invariance."""
    if b.k != 2:
        raise GradeMismatch("decomposability is defined on bivectors")
    n = kv_norm(b)
    if n == 0.0:
        return True
    return kv_norm(wedge(b, b)) <= tol * n * n
