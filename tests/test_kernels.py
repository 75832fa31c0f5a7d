"""Oracle tests for the table-driven kernels.

Each kernel is checked against a direct, loop-based construction written
here: the n!-transpose antisymmetrizer for the wedge, the per-column
vector action for the covering matrix, numpy's LU determinant and the
exact identity det X(x) = Q(x)^2 for det4.  Permutation signs in the
references come from counting inversions in this file, independently of
the package's permutation table.
"""

import itertools
from math import comb, factorial

import numpy as np
import pytest

from spin42.clifford import EPS4, GAMMA, det4, gamma_coeffs, perm_table, x_matrix
from spin42.errors import ActionLeavesSpan, NotInGammaSpan
from spin42.exterior import (
    KVector,
    _from_coeffs,
    basis_kvector,
    hodge_star,
    vector,
    wedge,
)
from spin42.forms import q_form
from spin42 import sampling
from spin42.sampling import random_kvector
from spin42.spin import SpinElement, covering_matrix, spin_generate, vector_action


def _parity_sign(perm) -> int:
    inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2))
    return -1 if inversions % 2 else 1


def _reference_wedge(a: KVector, b: KVector) -> np.ndarray:
    """n!(p!q!)^-1 times the average of the signed transposes of a (x) b."""
    t = np.tensordot(a.comps, b.comps, axes=0)
    n = t.ndim
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(n)):
        out += _parity_sign(perm) * np.transpose(t, perm)
    return out / (factorial(a.k) * factorial(b.k))


def _reference_antisymmetric(k: int, coeffs) -> np.ndarray:
    comps = np.zeros((4,) * k, dtype=complex)
    for c, combo in zip(coeffs, itertools.combinations(range(4), k)):
        for perm in itertools.permutations(range(k)):
            comps[tuple(combo[j] for j in perm)] = _parity_sign(perm) * c
    return comps


def _rel_dev(a, b) -> float:
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("n", range(5))
def test_perm_table_signs_match_inversion_parity(n):
    perms, signs = perm_table(n)
    assert [tuple(p) for p in perms] == list(itertools.permutations(range(n)))
    assert list(signs) == [_parity_sign(p) for p in itertools.permutations(range(n))]


def test_eps4_values_unchanged():
    expected = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        expected[perm] = _parity_sign(perm)
    assert np.array_equal(EPS4, expected)
    assert not EPS4.flags.writeable


@pytest.mark.parametrize("p,q", [(p, q) for p in range(5) for q in range(5 - p)])
def test_wedge_matches_reference_antisymmetrizer(p, q):
    rng = np.random.default_rng(100 + 10 * p + q)
    for _ in range(5):
        a = random_kvector(rng, p)
        b = random_kvector(rng, q)
        ab = wedge(a, b)
        assert ab.k == p + q
        assert _rel_dev(ab.comps, _reference_wedge(a, b)) <= 1e-13


def test_wedge_of_non_antisymmetric_input_matches_reference():
    # the antisymmetrizer only reads index tuples without repeats, and the
    # table visits each such tuple once
    rng = np.random.default_rng(5)
    a = KVector(2, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    b = vector(rng.normal(size=4) + 1j * rng.normal(size=4))
    assert _rel_dev(wedge(a, b).comps, _reference_wedge(a, b)) <= 1e-13


@pytest.mark.parametrize("k", range(5))
def test_from_coeffs_matches_reference_and_hodge_star_round_trips(k):
    rng = np.random.default_rng(k)
    coeffs = rng.normal(size=comb(4, k)) + 1j * rng.normal(size=comb(4, k))
    kv = _from_coeffs(k, coeffs)
    assert np.array_equal(kv.comps, _reference_antisymmetric(k, coeffs))
    sign = (-1.0) ** (k * (4 - k))
    assert _rel_dev(hodge_star(hodge_star(kv)).comps, sign * kv.comps) <= 1e-13


@pytest.mark.parametrize("indices", [(), (3,), (2, 1), (1, 3, 2), (4, 2, 3, 1), (2, 2), (1, 3, 1)])
def test_basis_kvector_is_the_sequential_wedge(indices):
    out = KVector(0, np.asarray(1.0 + 0j))
    for i in indices:
        out = KVector(out.k + 1, _reference_wedge(out, vector(np.eye(4)[i - 1])))
    kv = basis_kvector(indices)
    assert kv.k == len(indices)
    assert np.array_equal(kv.comps, out.comps)


@pytest.mark.parametrize("k", range(5))
def test_random_kvector_keeps_the_sampled_stream(k):
    # one complex(normal, normal) per increasing monomial, in order, with
    # scalar draws as the sampler made them before it was vectorized
    rng = np.random.default_rng(42 + k)
    expected = [complex(rng.normal(), rng.normal()) for _ in range(comb(4, k))]
    tail = rng.normal()
    rng = np.random.default_rng(42 + k)
    kv = random_kvector(rng, k)
    assert np.array_equal(kv.comps, _reference_antisymmetric(k, expected))
    assert rng.normal() == tail


def test_samplers_consume_the_same_draws():
    # the rejection loops of random_spin_element (through spin_generate,
    # is_su22 and det4) and random_isotropic_plane (through
    # covering_matrix) decide how many draws are taken; the next draw is
    # the one the loop-based kernels left behind
    rng = np.random.default_rng(2024)
    for _ in range(40):
        sampling.random_spin_element(rng)
        sampling.random_isotropic_plane(rng)
        for k in range(5):
            sampling.random_kvector(rng, k)
        sampling.random_null_vec6(rng)
    assert int(rng.integers(2**62)) == 2445473613299071877


def test_det4_matches_lu_determinant():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        # both expansions round at the scale of the Hadamard bound
        scale = float(np.prod(np.linalg.norm(m, axis=1)))
        assert abs(det4(m) - np.linalg.det(m)) <= 1e-12 * scale


def test_det4_is_exact_on_integer_vectors():
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = rng.integers(-6, 7, size=6).astype(float)
        d = det4(x_matrix(x).m)
        assert d == complex(q_form(x) ** 2)


def _boost_pair(rng, rapidity):
    """Unit-Q pair (x, x') with x = cosh(t) a + sinh(t) b for unit a in
    the positive directions and unit b in the negative ones; the
    composite's entries grow like e^t."""
    a = np.zeros(6)
    a[[0, 1, 2, 4]] = rng.normal(size=4)
    a /= np.linalg.norm(a)
    b = np.zeros(6)
    b[[3, 5]] = rng.normal(size=2)
    b /= np.linalg.norm(b)
    x = np.cosh(rapidity) * a + np.sinh(rapidity) * b
    xp = np.zeros(6)
    xp[[0, 1, 2, 4]] = rng.normal(size=4)
    return x, xp / np.linalg.norm(xp)


def test_covering_matrix_matches_column_actions_up_to_strong_boosts():
    rng = np.random.default_rng(9)
    largest = 0.0
    for rapidity in np.linspace(0.0, 2.3, 24):
        s = spin_generate([_boost_pair(rng, rapidity), _boost_pair(rng, rapidity)])
        norm = float(np.max(np.abs(s.m)))
        assert norm <= 50.0
        largest = max(largest, norm)
        cols = np.column_stack([vector_action(s, e) for e in np.eye(6)])
        assert float(np.max(np.abs(covering_matrix(s).l - cols))) <= 1e-12 * norm ** 2
    # the strong-boost regime that random_spin_element rejects is covered
    assert largest > 30.0


def test_covering_matrix_gates_still_raise():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ActionLeavesSpan, match="real generator combination"):
        covering_matrix(SpinElement(m))
    # 2 I keeps every column in the span but scales Q by 16
    with pytest.raises(ActionLeavesSpan, match="quadric invariants"):
        covering_matrix(SpinElement(2.0 * np.eye(4, dtype=complex)))


def test_span_residual_is_judged_per_matrix():
    # a residual of 1e-6 fails at tol 1e-9 against its own unit scale; it
    # would pass against the 1e6 scale of the other matrix in the stack
    ops = np.stack([1e6 * GAMMA[0], GAMMA[1] + 1e-6j * GAMMA[2]])
    with pytest.raises(NotInGammaSpan):
        gamma_coeffs(ops, 1e-9)
    assert np.array_equal(gamma_coeffs(ops[:1], 1e-9), [[1e6, 0, 0, 0, 0, 0]])
