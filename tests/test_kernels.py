"""Oracle tests for the table-driven kernels.

Each kernel is checked against a direct, loop-based construction written
here: the n!-transpose antisymmetrizer for the wedge, the full-tensor
formulas for the Hermitian form and the norm, the star solved from its
defining relation for the closed-form Hodge star, the per-column vector
action for the covering matrix, numpy's LU determinant and the exact
identity det X(x) = Q(x)^2 for det4, two chained least-squares solves
for the closed-form dual isotropic basis, the operator stack
M Sigma_b M^T G read back through gamma_coeffs for the covering and the
vector action read off the 2x2 minors, and the SVD null space of the
8 x 6 annihilator system for the Klein-correspondence plane of a spinor
line.  Permutation signs in the references come from counting inversions
in this file, independently of the package's permutation table.

The array kernels behind the public functions run over leading axes;
each is checked row by row against its public scalar function on stacks
of random rows.  The suites' blocks are checked to draw what their
sampler calls draw, in order, leaving the generator where those calls
would; the `selfdual` and `hodge` blocks also reproduce the per-sample
loops they replaced.
"""

import itertools
import warnings
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin42.clifford import (
    EPS4,
    GAMMA,
    SIGMA,
    AntilinearOp,
    _adjoint,
    _det4,
    _det_identity,
    _reality_residual,
    antilinear_adjoint,
    det4,
    det_identity,
    gamma,
    gamma_coeffs,
    perm_table,
    reality_residual,
    _x_matrix,
    x_matrix,
)
from spin42.errors import ActionLeavesSpan, NotInGammaSpan, NotIsotropicSpinor, ZeroVector
from spin42.exterior import (
    KVector,
    _BLOCKS,
    _decomposable,
    _graded,
    _herm16,
    _phi,
    _phi_inverse,
    _pluecker,
    _star16,
    _star_signs16,
    _wedge16,
    _wedge_pairs16,
    _wedge_table16,
    _weights16,
    basis_kvector,
    herm_inner,
    hodge_star,
    is_decomposable,
    kv_norm,
    phi,
    phi_inverse,
    wedge,
)
from spin42.forms import (
    G4,
    G_DIAG,
    Q_DIAG,
    RANK_FLOOR,
    RESIDUAL_FLOOR,
    ProjectiveNullLine,
    _canon,
    _g,
    _projective,
    _q,
    _qb,
    canonicalize,
    g_form,
    projectivize,
    q_bilinear,
    q_form,
)
from spin42.isotropic import (
    IsotropicPlaneE,
    SpinorPlane,
    _dual_basis,
    _four_idempotents,
    _isotropic_plane,
    _line_plane,
    _partner,
    _plane_line,
    _pluecker_gap,
    _spinor_line,
    _spinor_plane,
    _spinor_plane_class,
    dual_isotropic_basis,
    four_idempotents,
    isotropic_plane,
    null_to_spinor_plane,
    partner_null_vector,
    plane_from_spinor_plane,
    plane_to_spinor_line,
    same_span,
    spinor_line_to_plane,
)
from spin42.liesphere import (
    INFINITY,
    PLANE,
    POINT,
    SPHERE,
    Infinity,
    Plane,
    Point,
    Sphere,
    _contact,
    _extract,
    _inversion,
    _plane_rep,
    _sphere_rep,
    conformal_inversion,
    embed_rep,
    lie_extract,
    oriented_contact,
)
from spin42 import sampling
from spin42.sampling import random_kvector
from spin42.spin import (
    SpinElement,
    _covering,
    _generate,
    _minors,
    _so_plus,
    _su22_devs,
    _vector_action,
    covering_matrix,
    is_so_plus,
    is_su22,
    spin_from_vector_pair,
    spin_generate,
    vector_action,
)
from spin42.suites import (
    _exterior_block,
    _hodge_block,
    _isotropic_block,
    _liesphere_block,
    _selfdual_block,
    _spin_block,
)

from oracles import minors_reference, qr_pinv_four_idempotents, spinor_line


def _parity_sign(perm) -> int:
    inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2))
    return -1 if inversions % 2 else 1


def _reference_wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """n!(p!q!)^-1 times the average of the signed transposes of a (x) b,
    for full antisymmetric arrays a and b of grades p and q."""
    t = np.tensordot(a, b, axes=0)
    n = t.ndim
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(n)):
        out += _parity_sign(perm) * np.transpose(t, perm)
    return out / (factorial(a.ndim) * factorial(b.ndim))


def _reference_herm_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """(1/k!) G_{i1 j1} ... G_{ik jk} a^{i...} conj(b^{j...}) on full arrays."""
    weight = np.ones(())
    for _ in range(a.ndim):
        weight = np.multiply.outer(weight, G_DIAG)
    return complex(np.sum(weight * a * np.conj(b))) / factorial(a.ndim)


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
        assert _rel_dev(ab.comps, _reference_wedge(a.comps, b.comps)) <= 1e-13


@pytest.mark.parametrize("k", range(5))
def test_from_coeffs_matches_reference_and_hodge_star_round_trips(k):
    rng = np.random.default_rng(k)
    coeffs = rng.normal(size=comb(4, k)) + 1j * rng.normal(size=comb(4, k))
    kv = KVector(k, coeffs)
    assert np.array_equal(kv.comps, _reference_antisymmetric(k, coeffs))
    sign = (-1.0) ** (k * (4 - k))
    assert _rel_dev(hodge_star(hodge_star(kv)).comps, sign * kv.comps) <= 1e-13


@pytest.mark.parametrize("indices", [(), (3,), (2, 1), (1, 3, 2), (4, 2, 3, 1), (2, 2), (1, 3, 1)])
def test_basis_kvector_is_the_sequential_wedge(indices):
    out = np.asarray(1.0 + 0j)
    for i in indices:
        out = _reference_wedge(out, np.eye(4, dtype=complex)[i - 1])
    kv = basis_kvector(indices)
    assert kv.k == len(indices)
    assert np.array_equal(kv.comps, out)


def _reference_star_matrix(k: int) -> np.ndarray:
    """Matrix S with star(y) = S . conj(coeffs(y)), solved from the defining
    relation e_I ^ (star e_J) = (e_I | e_J) e against all monomials."""
    rows = np.eye(comb(4, k))
    cols = np.eye(comb(4, 4 - k))
    w = np.array([[_reference_wedge(_reference_antisymmetric(k, r),
                                    _reference_antisymmetric(4 - k, c))[0, 1, 2, 3]
                   for c in cols] for r in rows])
    rhs = np.array([[_reference_herm_inner(_reference_antisymmetric(k, r),
                                           _reference_antisymmetric(k, c))
                     for c in rows] for r in rows])
    # columns of the solution are the star images of each monomial e_J
    return np.linalg.solve(w, rhs)


@pytest.mark.parametrize("k", range(5))
def test_closed_form_star_matches_the_solved_star(k):
    s = _reference_star_matrix(k)
    for j, e_j in enumerate(np.eye(comb(4, k))):
        assert np.array_equal(hodge_star(KVector(k, e_j)).coeffs, s[:, j])
    # on the {0, +-1, +-i} lattice and its Gaussian-integer multiples the
    # closed form and the solved matrix agree exactly
    rng = np.random.default_rng(60 + k)
    for _ in range(20):
        c = rng.integers(-3, 4, size=comb(4, k)) + 1j * rng.integers(-3, 4, size=comb(4, k))
        assert np.array_equal(hodge_star(KVector(k, c)).coeffs, s @ np.conj(c))


@pytest.mark.parametrize("k", range(5))
def test_herm_inner_and_kv_norm_match_full_tensor_formulas(k):
    rng = np.random.default_rng(70 + k)
    for _ in range(10):
        a = random_kvector(rng, k)
        b = random_kvector(rng, k)
        ref = _reference_herm_inner(a.comps, b.comps)
        assert abs(herm_inner(a, b) - ref) <= 1e-13 * max(1.0, abs(ref))
        frob = float(np.linalg.norm(a.comps))
        assert abs(kv_norm(a) - frob) <= 1e-13 * frob


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


@pytest.mark.parametrize("n", [1, 7, 50])
@pytest.mark.parametrize("k", range(5))
def test_random_kvector_is_the_one_grade_graded_draw(k, n):
    # the literal v2 formula; random_kvector and the graded sampler make
    # the same draws, the graded rows holding 0 outside grade k's block
    seed = 300 + 10 * k + n
    rng = np.random.default_rng(seed)
    want = rng.normal(size=(n, 2 * comb(4, k))).view(complex)
    tail = rng.normal()
    rng = np.random.default_rng(seed)
    assert np.array_equal(random_kvector(rng, k, n=n), want) and rng.normal() == tail
    rng = np.random.default_rng(seed)
    graded = sampling._graded_kvectors(rng, np.full(n, k))
    assert np.array_equal(graded[:, _BLOCKS[k]], want) and rng.normal() == tail
    assert not np.delete(graded, _BLOCKS[k], axis=-1).any()


# the draw after _sampler_blocks(2024) under the numpy-pcg64/v2 stream
PINNED_V2_TAIL = 1154436117559003509


def _sampler_blocks(seed: int):
    """One block of each sampler, n = 40, and the draw that follows them."""
    rng = np.random.default_rng(seed)
    blocks = [sampling.random_spin_element(rng, n=40), sampling.random_isotropic_plane(rng, 40),
              *(random_kvector(rng, k, n=40) for k in range(5)),
              sampling.random_null_vec6(rng, n=40), sampling.random_nonnull_vec6(rng, n=40),
              *(sampling.random_unit_q_vec6(rng, sign, n=40) for sign in (-1, 0, 1)),
              sampling.random_isotropic_spinor(rng, 40), *sampling.random_plane(rng, n=40),
              *sampling.random_sphere(rng, n=40), sampling.random_point(rng, n=40)]
    return blocks, int(rng.integers(2**62))


def test_samplers_consume_the_same_draws():
    # the numpy-pcg64/v2 stream: a seed and a row count give the same
    # blocks and leave the generator at the same draw; the pinned draw
    # fixes how many candidates the rejection samplers take
    blocks, tail = _sampler_blocks(2024)
    again, tail_again = _sampler_blocks(2024)
    assert all(np.array_equal(a, b) for a, b in zip(blocks, again, strict=True))
    assert tail == tail_again == PINNED_V2_TAIL


def _reference_dual_basis(x1: np.ndarray, x2: np.ndarray):
    """y1 as the least-squares solution of (x1, y) = 1, (x2, y) = 0, then
    y2 of (x1, y) = 0, (x2, y) = 1, (y1, y) = 0; each is corrected along
    its own x to be null and halved."""
    rows = np.vstack([x1 * Q_DIAG, x2 * Q_DIAG])
    y1, *_ = np.linalg.lstsq(rows, np.array([1.0, 0.0]), rcond=None)
    y1 = (y1 - (q_form(y1) / 2.0) * x1) / 2.0
    rows2 = np.vstack([rows, y1 * Q_DIAG])
    y2, *_ = np.linalg.lstsq(rows2, np.array([0.0, 1.0, 0.0]), rcond=None)
    y2 = (y2 - (q_form(y2) / 2.0) * x2) / 2.0
    return y1, y2


def test_closed_form_dual_basis_matches_least_squares():
    rng = np.random.default_rng(80)
    for _ in range(500):
        n = sampling.random_isotropic_plane(rng)
        y1, y2 = dual_isotropic_basis(n)
        r1, r2 = _reference_dual_basis(n.x1, n.x2)
        scale = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
        assert max(np.max(np.abs(y1 - r1)), np.max(np.abs(y2 - r2))) <= 1e-9 * scale
        residuals = [q_bilinear(n.x1, y1) - 0.5, q_bilinear(n.x2, y2) - 0.5,
                     q_bilinear(n.x1, y2), q_bilinear(n.x2, y1), q_bilinear(y1, y2),
                     q_form(y1), q_form(y2)]
        assert np.max(np.abs(residuals)) <= 1e-12


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


def test_strong_boosts_are_members():
    # products of two boosted pairs reach max |m| of 1.5e3 to 3.9e3; their
    # rounding grows like |m|^2 and |m|^4, past what an absolute 1e-9 allows
    rng = np.random.default_rng(5)
    absolute_rejects = 0
    for _ in range(40):
        s = spin_generate([_boost_pair(rng, 4.5), _boost_pair(rng, 4.5)])
        m = s.m
        assert float(np.max(np.abs(m))) >= 1e3
        assert is_su22(m)
        assert not is_su22(2.0 * m)
        gdev = float(np.max(np.abs(m @ G4 @ m.conj().T - G4)))
        absolute_rejects += not (gdev <= 1e-9 and abs(np.linalg.det(m) - 1.0) <= 1e-9)
        # the covering's own gates are relative to its scale too
        covering_matrix(s)
    # an absolute gate at 1e-9 rejects 39 of these 40 genuine elements
    assert absolute_rejects > 0


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


@pytest.mark.parametrize("lead", [(), (1,), (65,), (3, 5)])
def test_minors_are_the_flat_gather_bit_for_bit_and_c_contiguous(lead):
    # the products of _vector_action and _covering round differently on a
    # strided operand, so the layout is part of the contract
    rng = np.random.default_rng(386)
    m = rng.normal(size=(*lead, 4, 4)) + 1j * rng.normal(size=(*lead, 4, 4))
    got = _minors(m)
    assert got.flags.c_contiguous
    assert got.shape == (*lead, 6, 6)
    assert np.array_equal(got, minors_reference(m))


def _operator_stack_covering(m: np.ndarray) -> np.ndarray:
    """L(M) as the generator coefficients of the (..., 6, 4, 4) operator
    stack M Sigma_b M^T G, read back column by column by gamma_coeffs."""
    ops = m[..., None, :, :] @ SIGMA @ (m.mT @ G4)[..., None, :, :]
    return gamma_coeffs(ops, RESIDUAL_FLOOR).mT


def _operator_stack_action(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    return gamma_coeffs(m @ np.tensordot(x, SIGMA, axes=(-1, 0)) @ m.mT @ G4, RESIDUAL_FLOOR)


def _lattice_elements(rng, n):
    """Products of one to three composites of integer unit-Q pairs: Gaussian
    integer matrices on which both coverings are exact."""
    box = np.array(list(itertools.product(range(-2, 3), repeat=6)), dtype=float)
    units = {q: box[_q(box) == q] for q in (1.0, -1.0)}
    out = []
    for _ in range(n):
        pairs = []
        for _ in range(rng.integers(1, 4)):
            vs = units[rng.choice([1.0, -1.0])]
            pairs.append(vs[rng.integers(len(vs), size=2)])
        out.append(spin_generate(pairs).m)
    return np.stack(out)


def test_covering_and_action_match_the_operator_stack_on_sampled_elements():
    rng = np.random.default_rng(190)
    m = sampling.random_spin_element(rng, n=ROWS)
    x = rng.normal(size=(ROWS, 6))
    s2 = np.maximum(1.0, abs(m).max(axis=(-2, -1))) ** 2
    l = _covering(m, RESIDUAL_FLOOR)
    assert (abs(l - _operator_stack_covering(m)).max(axis=(-2, -1)) <= 1e-13 * s2).all()
    image = _vector_action(m, x, RESIDUAL_FLOOR)
    scale = s2 * np.linalg.norm(x, axis=-1)
    assert (abs(image - _operator_stack_action(m, x)).max(axis=-1) <= 1e-13 * scale).all()


def test_covering_matches_the_operator_stack_on_strong_boosts():
    rng = np.random.default_rng(191)
    m = np.stack([spin_generate([_boost_pair(rng, t), _boost_pair(rng, t)]).m
                  for t in np.linspace(0.0, 4.5, 40)])
    s2 = np.maximum(1.0, abs(m).max(axis=(-2, -1))) ** 2
    assert s2.max() >= 1e6
    dev = abs(_covering(m, RESIDUAL_FLOOR) - _operator_stack_covering(m)).max(axis=(-2, -1))
    assert (dev <= 1e-13 * s2).all()


def test_covering_is_exact_on_gaussian_integer_elements_and_scalars():
    m = _lattice_elements(np.random.default_rng(192), 60)
    assert np.array_equal(m, np.round(m)) and abs(m).max() >= 10
    l = _covering(m, RESIDUAL_FLOOR)
    assert np.array_equal(l, _operator_stack_covering(m))
    assert np.array_equal(l, np.round(l))
    eye = np.eye(4, dtype=complex)
    scalars = np.stack([eye, -eye, 1j * eye, -1j * eye])
    assert np.array_equal(_covering(scalars, 0.0), np.array([1, 1, -1, -1])[:, None, None] * np.eye(6))


def test_scalar_elements_act_as_plus_or_minus_the_identity_exactly():
    rng = np.random.default_rng(193)
    x = rng.normal(size=(50, 6)) * 10.0 ** rng.uniform(-5, 5, size=(50, 1))
    for scalar, sign in ((1, 1), (-1, 1), (1j, -1), (-1j, -1)):
        s = SpinElement(scalar * np.eye(4, dtype=complex))
        for row in x:
            assert np.array_equal(vector_action(s, row), sign * row)
        assert np.array_equal(_vector_action(s.m, x, RESIDUAL_FLOOR), sign * x)


def test_span_gate_names_the_matrix_and_column_off_the_span():
    m = sampling.random_spin_element(np.random.default_rng(194), n=6)
    m[4] = _complex_rows(np.random.default_rng(195), 4, 4)
    assert abs(_operator_stack_covering(m[:4]) - _covering(m[:4], RESIDUAL_FLOOR)).max() <= 1e-12
    with pytest.raises(ActionLeavesSpan,
                       match=r"^operator at index \(4, 0\) is not a real generator combination"
                             r" \(residual [0-9.e+-]+\)$"):
        _covering(m, RESIDUAL_FLOOR)
    with pytest.raises(ActionLeavesSpan,
                       match=r"^operator at row 0 is not a real generator combination \(residual "):
        covering_matrix(SpinElement(m[4]))
    with pytest.raises(ActionLeavesSpan,
                       match=r"^operator is not a real generator combination \(residual "):
        vector_action(SpinElement(m[4]), np.eye(6)[0])
    with pytest.raises(ActionLeavesSpan, match=r"^operator at row 4 is not a real generator"):
        _vector_action(m, np.eye(6)[0], RESIDUAL_FLOOR)


ROWS = 200


def _complex_rows(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _spin_stack(rng, n):
    return np.stack([sampling.random_spin_element(rng).m for _ in range(n)])


def test_phi_kernel_rows_match_phi():
    x = np.random.default_rng(110).normal(size=(ROWS, 6))
    out = _phi(x)
    for i in range(ROWS):
        assert _rel_dev(out[i], phi(x[i]).coeffs) <= 1e-14


@pytest.mark.parametrize("k", range(5))
def test_star_and_herm_kernel_rows_match_the_public_functions(k):
    rng = np.random.default_rng(120 + k)
    a = _complex_rows(rng, ROWS, comb(4, k))
    b = _complex_rows(rng, ROWS, comb(4, k))
    star = _star16(_graded(k, a))[:, _BLOCKS[4 - k]]
    herm = _herm16(_graded(k, a), _graded(k, b))
    for i in range(ROWS):
        assert _rel_dev(star[i], hodge_star(KVector(k, a[i])).coeffs) <= 1e-14
        assert _rel_dev(herm[i], herm_inner(KVector(k, a[i]), KVector(k, b[i]))) <= 1e-14


@pytest.mark.parametrize("p,q", [(p, q) for p in range(5) for q in range(5 - p)])
def test_wedge_kernel_rows_match_wedge(p, q):
    rng = np.random.default_rng(130 + 10 * p + q)
    a = _complex_rows(rng, ROWS, comb(4, p))
    b = _complex_rows(rng, ROWS, comb(4, q))
    out = _wedge16(_graded(p, a), _graded(q, b))
    assert out.shape == (ROWS, 16)
    # e_I ^ e_J has grade p + q: every other block is zero
    assert np.count_nonzero(np.delete(out, _BLOCKS[p + q], axis=-1)) == 0
    out = out[:, _BLOCKS[p + q]]
    for i in range(ROWS):
        assert _rel_dev(out[i], wedge(KVector(p, a[i]), KVector(q, b[i])).coeffs) <= 1e-14


def test_phi_inverse_kernel_rows_match_phi_inverse():
    b = _phi(np.random.default_rng(140).normal(size=(ROWS, 6)))
    out = _phi_inverse(b, 1e-9)
    for i in range(ROWS):
        assert _rel_dev(out[i], phi_inverse(KVector(2, b[i]))) <= 1e-14


def test_det4_kernel_rows_match_det4():
    m = _complex_rows(np.random.default_rng(150), ROWS, 4, 4)
    out = _det4(m)
    for i in range(ROWS):
        assert _rel_dev(out[i], det4(m[i])) <= 1e-14


def test_su22_devs_rows_match_single_matrices_and_is_su22():
    rng = np.random.default_rng(160)
    m = _spin_stack(rng, ROWS)
    # every third row off the group: a small scaling or a random matrix
    m[::6] *= 1.0 + 1e-7
    m[3::6] = _complex_rows(rng, len(m[3::6]), 4, 4)
    gdev, ddev = _su22_devs(m)
    for i in range(ROWS):
        g, d = _su22_devs(m[i])
        assert _rel_dev(gdev[i], g) <= 1e-14 and _rel_dev(ddev[i], d) <= 1e-14
        for tol in (1e-12, 1e-9, 1e-6):
            assert is_su22(m[i], tol) == bool(gdev[i] <= tol and ddev[i] <= tol)


def test_covering_action_and_so_plus_kernel_rows_match_the_public_functions():
    rng = np.random.default_rng(170)
    m = _spin_stack(rng, ROWS)
    x = rng.normal(size=(ROWS, 6))
    l = _covering(m, RESIDUAL_FLOOR)
    image = _vector_action(m, x, RESIDUAL_FLOOR)
    for i in range(ROWS):
        assert _rel_dev(l[i], covering_matrix(SpinElement(m[i])).l) <= 1e-14
        assert _rel_dev(image[i], vector_action(SpinElement(m[i]), x[i])) <= 1e-14
    # det 1 and Q-orthogonal, but the sign flip of x1 and x4 reverses the
    # orientation of the negative plane: out of the identity component
    flip = np.diag([-1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
    l[1::2] = flip @ l[1::2]
    verdict = _so_plus(l, RESIDUAL_FLOOR)
    assert verdict[::2].all() and not verdict[1::2].any()
    for i in range(ROWS):
        assert verdict[i] == is_so_plus(l[i], RESIDUAL_FLOOR)


def test_selfdual_block_draws_the_per_sample_pairs():
    count = 57
    rng = np.random.default_rng(180)
    pairs = [(rng.normal(size=6), rng.normal(size=6)) for _ in range(count)]
    tail = rng.normal()
    rng = np.random.default_rng(180)
    x, y = _selfdual_block(rng, count)
    assert np.array_equal(x, [p[0] for p in pairs])
    assert np.array_equal(y, [p[1] for p in pairs])
    assert rng.normal() == tail


def _graded_draws(grades, flat) -> np.ndarray:
    """Rows (n, 16) in the graded layout, row i holding the next
    C(4, grades[i]) entries of flat in its grade's block and 0 in every
    other slot, placed one row at a time."""
    out = np.zeros((len(grades), 16), dtype=complex)
    start = 0
    for i, k in enumerate(grades):
        out[i, _BLOCKS[k]] = flat[start:start + comb(4, k)]
        start += comb(4, k)
    assert start == len(flat)
    return out


@pytest.mark.parametrize("n", [1, 7, 23])
def test_hodge_block_draws_every_grade_into_the_graded_layout(n):
    # row k*n + j has grade k: every y (grade k), then every x (grade
    # 4 - k), fills its grade block from one normal draw in row order, 16n
    # complex draws each, and lambda takes the 5n draws after them
    rng = np.random.default_rng(190 + n)
    flat = rng.normal(size=2 * 37 * n).view(complex)
    tail = rng.normal()
    rng = np.random.default_rng(190 + n)
    grades, y, lam, x = _hodge_block(rng, n)
    assert np.array_equal(grades, np.repeat(np.arange(5), n))
    assert np.array_equal(y, _graded_draws(grades, flat[:16 * n]))
    assert np.array_equal(x, _graded_draws(4 - grades, flat[16 * n:32 * n]))
    assert np.array_equal(lam, flat[32 * n:])
    assert rng.normal() == tail


def test_spin_block_draws_the_vectors_after_the_elements():
    n = 13
    rng = np.random.default_rng(200)
    elements = sampling.random_spin_element(rng, n=n)
    vectors = rng.normal(size=(n, 6))
    tail = rng.normal()
    rng = np.random.default_rng(200)
    m, x = _spin_block(rng, n)
    assert np.array_equal(m, elements) and np.array_equal(x, vectors)
    assert rng.normal() == tail


@pytest.mark.parametrize("k", range(5))
def test_star_defining_relation_is_exact_on_the_monomials(k):
    n = comb(4, k)
    eye = np.broadcast_to(_graded(k, np.eye(n)), (n, n, 16))
    lhs = _wedge16(eye.transpose(1, 0, 2), _star16(eye))
    # the volume element e1^e2^e3^e4 has the single coefficient 1 in slot 15
    gram = _herm16(eye.transpose(1, 0, 2), eye)
    assert lhs.shape == (n, n, 16) and np.count_nonzero(lhs[..., :15]) == 0
    assert np.max(np.abs(lhs[..., 15] - gram)) == 0.0


# The graded layout: the 16 coefficients of every grade, the grade blocks
# at offsets 0, 1, 5, 11 and 15.  Its wedge, star and Hermitian form are
# checked block by block, exactly on Gaussian-integer coefficients, against
# per-grade oracles written here: the wedge table built monomial by monomial,
# the star solved from its defining relation, and the weights of G_DIAG.

_GRADE_PAIRS = [(p, q) for p in range(5) for q in range(5 - p)]


def _reference_wedge_table(p: int, q: int) -> np.ndarray:
    """e_I ^ e_J over the monomials of grades p, q and p+q, (I, J) flattened:
    the sign of the permutation sorting I + J on e_{sorted(I + J)}, zero
    when I and J share an index."""
    combos = [list(itertools.combinations(range(4), k)) for k in range(5)]
    table = np.zeros((comb(4, p), comb(4, q), comb(4, p + q)), dtype=complex)
    for i, a in enumerate(combos[p]):
        for j, b in enumerate(combos[q]):
            joined = a + b
            if len(set(joined)) == len(joined):
                order = sorted(range(len(joined)), key=joined.__getitem__)
                table[i, j, combos[p + q].index(tuple(sorted(joined)))] = _parity_sign(order)
    return table.reshape(-1, comb(4, p + q))


def _reference_weights(k: int) -> np.ndarray:
    """(e_I | e_I) = prod_{i in I} G_i for the grade-k monomials."""
    return np.array([np.prod(G_DIAG[list(c)]) for c in itertools.combinations(range(4), k)])


def _gaussian_rows(rng, n: int, width: int = 16) -> np.ndarray:
    return rng.integers(-3, 4, size=(n, width)) + 1j * rng.integers(-3, 4, size=(n, width))


@pytest.mark.parametrize("p,q", _GRADE_PAIRS)
def test_graded_wedge_blocks_are_the_per_grade_tables(p, q):
    want = _reference_wedge_table(p, q)
    block = _wedge_table16()[_BLOCKS[p], _BLOCKS[q]]
    assert np.array_equal(block[..., _BLOCKS[p + q]].reshape(want.shape), want)
    # e_I ^ e_J has grade p + q: nothing lands outside that block
    assert np.count_nonzero(block) == np.count_nonzero(want)


def test_graded_wedge_gathers_the_81_disjoint_pairs():
    i, j, rows = _wedge_pairs16()
    assert len(i) == 81 == 3 ** 4 and rows.shape == (81, 16) and rows.dtype == float
    # each pair gives one monomial with a sign, and every other pair is zero
    assert np.array_equal(np.sort(abs(rows), axis=-1)[:, :-1], np.zeros((81, 15)))
    assert np.array_equal(abs(rows).max(axis=-1), np.ones(81))
    dense = np.zeros((16, 16, 16))
    dense[i, j] = rows
    assert np.array_equal(dense, _wedge_table16())


def test_graded_wedge_is_the_sum_of_the_per_grade_wedges():
    rng = np.random.default_rng(195)
    a, b = _gaussian_rows(rng, ROWS), _gaussian_rows(rng, ROWS)
    want = np.zeros((ROWS, 16), dtype=complex)
    for p, q in _GRADE_PAIRS:
        outer = a[:, _BLOCKS[p], None] * b[:, None, _BLOCKS[q]]
        want[:, _BLOCKS[p + q]] += outer.reshape(ROWS, -1) @ _reference_wedge_table(p, q)
    assert np.array_equal(_wedge16(a, b), want)
    # a stack of stacks is the stack of its rows
    assert np.array_equal(_wedge16(a.reshape(8, 25, 16), b.reshape(8, 25, 16)),
                          want.reshape(8, 25, 16))


@pytest.mark.parametrize("k", range(5))
def test_graded_star_and_form_are_the_per_grade_ones(k):
    rng = np.random.default_rng(196 + k)
    a, b = _gaussian_rows(rng, ROWS), _gaussian_rows(rng, ROWS)
    # the star reverses the 16 slots: grade k's block onto grade 4 - k's,
    # there the star solved from its defining relation
    a_k, b_k = a[:, _BLOCKS[k]], b[:, _BLOCKS[k]]
    assert np.array_equal(_star16(a)[:, _BLOCKS[4 - k]], np.conj(a_k) @ _reference_star_matrix(k).T)
    # the per-grade signs against the reference table: s_J is the weight of
    # e_J times the sign of e_J ^ e_{J^c}, its complement J-th from the end
    n = comb(4, k)
    weights = _reference_weights(k)
    pairing = np.diag(_reference_wedge_table(k, 4 - k).reshape(n, n)[:, ::-1]).real
    assert np.array_equal(_star_signs16()[_BLOCKS[k]], weights * pairing)
    only_k = np.zeros_like(a)
    only_k[:, _BLOCKS[k]] = a_k
    assert np.array_equal(_herm16(only_k, b), (weights * a_k * np.conj(b_k)).sum(axis=-1))
    assert np.array_equal(_weights16()[_BLOCKS[k]], weights)


def test_graded_form_is_orthogonal_across_grades():
    rng = np.random.default_rng(201)
    a, b = _gaussian_rows(rng, ROWS), _gaussian_rows(rng, ROWS)
    want = sum((_reference_weights(k) * a[:, _BLOCKS[k]] * np.conj(b[:, _BLOCKS[k]])).sum(axis=-1)
               for k in range(5))
    assert np.array_equal(_herm16(a, b), want)


@pytest.mark.parametrize("p,q", _GRADE_PAIRS)
def test_public_functions_are_blocks_of_the_graded_kernels(p, q):
    rng = np.random.default_rng(205 + 5 * p + q)
    a, c = _gaussian_rows(rng, 2, comb(4, p))
    (b,) = _gaussian_rows(rng, 1, comb(4, q))
    # the graded rows, placed slot by slot here
    ga, gb, gc = np.zeros((3, 16), dtype=complex)
    ga[_BLOCKS[p]], gb[_BLOCKS[q]], gc[_BLOCKS[p]] = a, b, c
    assert np.array_equal(_graded(p, a), ga) and np.array_equal(_graded(q, b), gb)
    ab = wedge(KVector(p, a), KVector(q, b))
    assert ab.k == p + q and np.array_equal(ab.coeffs, _wedge16(ga, gb)[_BLOCKS[p + q]])
    for k, x, gx in ((p, a, ga), (q, b, gb)):
        star = hodge_star(KVector(k, x))
        assert star.k == 4 - k and np.array_equal(star.coeffs, _star16(gx)[_BLOCKS[4 - k]])
    assert herm_inner(KVector(p, a), KVector(p, c)) == _herm16(ga, gc)


# The forms, isotropic, liesphere and decomposability kernels, row by row
# against their public scalar functions on stacks of sampled rows.


def _null_rows(rng, n=ROWS):
    return np.stack([sampling.random_null_vec6(rng) for _ in range(n)])


def _plane_rows(rng, n=ROWS):
    planes = [sampling.random_isotropic_plane(rng) for _ in range(n)]
    return np.stack([n.x1 for n in planes]), np.stack([n.x2 for n in planes])


def _spinor_rows(rng, n=ROWS):
    return np.stack([sampling.random_isotropic_spinor(rng) for _ in range(n)])


def test_form_kernel_rows_match_the_public_functions():
    rng = np.random.default_rng(300)
    x = rng.normal(size=(ROWS, 6))
    y = rng.normal(size=(ROWS, 6))
    s = _complex_rows(rng, ROWS, 4)
    t = _complex_rows(rng, ROWS, 4)
    null = _null_rows(rng)
    q, qb, g, canon, rep = _q(x), _qb(x, y), _g(s, t), _canon(x), _projective(null, 1e-9)
    for i in range(ROWS):
        # the one-dimensional case of the same vecdot: equal bit for bit
        assert q[i] == q_form(x[i]) and qb[i] == q_bilinear(x[i], y[i])
        assert g[i] == g_form(s[i], t[i])
        assert np.array_equal(canon[i], canonicalize(x[i]))
        assert np.array_equal(rep[i], projectivize(null[i]).rep)
    assert not rep.flags.writeable


def test_null_to_spinor_plane_and_partner_kernel_rows_match():
    rng = np.random.default_rng(310)
    x = _null_rows(rng)
    kernel = _spinor_plane(x, 1e-9)
    partner = _partner(x)
    back = _spinor_plane_class(kernel, 1e-9)
    for i in range(ROWS):
        plane = null_to_spinor_plane(x[i])
        assert np.array_equal(kernel[i], [plane.b1, plane.b2])
        assert np.array_equal(partner[i], partner_null_vector(x[i]))
        assert np.array_equal(back[i], plane_from_spinor_plane(plane).rep)


def _annihilator_system(v: np.ndarray) -> np.ndarray:
    """The 8 x 6 real systems (..., 8, 6) of X(x) conj(v) = 0 in the real
    unknowns x, for spinors v (..., 4): GAMMA as a 4 x 24 matrix whose
    product with conj(v), reshaped to (4, 6), has the columns Gamma_a conj(v)."""
    columns = GAMMA.transpose(2, 1, 0).reshape(4, 24)
    cols = (np.conj(v) @ columns).reshape(*v.shape[:-1], 4, 6)
    return np.concatenate([cols.real, cols.imag], axis=-2)


def test_annihilator_system_rows_match_the_column_construction():
    v = _complex_rows(np.random.default_rng(320), ROWS, 4)
    out = _annihilator_system(v)
    assert out.shape == (ROWS, 8, 6)
    for i in range(ROWS):
        cols = np.stack([GAMMA[a] @ np.conj(v[i]) for a in range(6)], axis=1)
        assert np.array_equal(out[i], np.vstack([cols.real, cols.imag]))


def _reference_spinor_plane_class(b: np.ndarray) -> np.ndarray:
    """The class of a spinor plane basis (2, 4) as the null row of the
    16 x 6 real system X(x) conj(b_i) = 0, i = 1, 2, whose rank must be 5,
    canonicalized."""
    _, s, vh = np.linalg.svd(_annihilator_system(b).reshape(16, 6))
    assert s[4] > RANK_FLOOR * s[0] and s[5] <= RANK_FLOOR * s[0]
    return canonicalize(vh[5])


def _assert_class_matches_the_annihilator_svd(plane: SpinorPlane) -> np.ndarray:
    b = np.stack([plane.b1, plane.b2])
    want = _reference_spinor_plane_class(b)
    got = plane_from_spinor_plane(plane).rep
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(_spinor_plane_class(b[None], 1e-9)[0], got)
    return got


_moduli = st.floats(0.25, 4.0)
_phases = st.floats(-np.pi, np.pi)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lam=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       r1=_moduli, t1=_phases, r2=_moduli, t2=_phases)
def test_pluecker_class_matches_the_annihilator_svd(seed, lam, r1, t1, r2, t2):
    x = sampling.random_null_vec6(np.random.default_rng(seed))
    plane = null_to_spinor_plane(x)
    # the orthonormal kernel basis, and a skewed, rescaled basis of the same plane
    s1, s2 = r1 * np.exp(1j * t1), r2 * np.exp(1j * t2)
    skewed = SpinorPlane(s1 * plane.b1, s2 * (plane.b2 + complex(*lam) * plane.b1))
    for p in (plane, skewed):
        got = _assert_class_matches_the_annihilator_svd(p)
        assert np.max(np.abs(got - canonicalize(x))) <= 1e-12


def test_pluecker_class_of_the_readme_class():
    x = np.array([1.0, 0, 0, 1, 0, 0])
    got = _assert_class_matches_the_annihilator_svd(null_to_spinor_plane(x))
    assert np.max(np.abs(got - x)) <= 1e-15


def test_pluecker_coordinates_of_spinors_are_exteriors_wedge():
    rng = np.random.default_rng(335)
    b1, b2 = _gaussian_rows(rng, ROWS, 4), _gaussian_rows(rng, ROWS, 4)
    # the spinor Pluecker coordinates in grade 1 ^ 1's block order
    graded = _wedge16(_graded(1, b1), _graded(1, b2))[:, _BLOCKS[2]]
    assert np.array_equal(_pluecker(b1, b2), graded)
    one = wedge(KVector(1, b1[0]), KVector(1, b2[0]))
    assert np.array_equal(_pluecker(b1[0], b2[0]), one.coeffs)


def test_the_first_two_columns_of_x_are_orthogonal_with_norm_x():
    # X(x)^dagger X(x) is quadratic in x: on every e_a and e_a + e_b it has
    # the diagonal |x|^2 and a zero (0, 1) entry exactly, so on every x
    e = np.eye(6)
    pairs = [e[a] + e[b] for a, b in itertools.combinations(range(6), 2)]
    for x in list(e) + pairs:
        m = _x_matrix(x)
        gram = np.conj(m.T) @ m
        assert gram[0, 1] == 0.0 and np.array_equal(np.diag(gram), np.full(4, x @ x))


# The retired SVD paths of the isotropic kernels, kept as their oracles.


def test_spinor_plane_column_pair_spans_the_svd_kernel():
    x = np.vstack([_null_rows(np.random.default_rng(360)), [[1.0, 0, 0, 1, 0, 0]]])
    kernel = _spinor_plane(x, 1e-9)
    # the null rows of the SVD of X(x / |x|), the kernel basis before the column pair
    _, s, vh = np.linalg.svd(_x_matrix(x / np.linalg.norm(x, axis=-1, keepdims=True)))
    assert (s[:, 1] > 0.5).all() and (s[:, 2] <= 1e-14).all()
    want = vh[:, 2:]
    gap = _pluecker_gap(_pluecker(kernel[:, 0], kernel[:, 1]), _pluecker(want[:, 0], want[:, 1]))
    assert gap.max() <= 1e-12
    assert np.max(np.abs(_g(kernel[:, :, None], kernel[:, None, :]))) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(kernel, axis=-1) - 1.0)) <= 1e-15


def test_plane_line_is_the_leading_left_singular_vector():
    x1, x2 = _plane_rows(np.random.default_rng(370))
    line = _plane_line(x1, x2, 1e-9)
    u, s, _ = np.linalg.svd(_x_matrix(x1) @ np.conj(_x_matrix(x2)))
    assert (s[:, 1] <= 1e-12 * s[:, 0]).all()
    assert _pluecker_gap(line, u[:, :, 0]).max() <= 1e-12


def _svd_line_plane(v: np.ndarray):
    """The null rows of the SVD of the 8 x 6 annihilator system of v, whose
    rank must be 4."""
    _, s, vh = np.linalg.svd(_annihilator_system(v))
    assert (s[..., 3] > RANK_FLOOR * s[..., 0]).all() and (s[..., 4] <= 1e-12 * s[..., 0]).all()
    return vh[..., 4, :], vh[..., 5, :]


def _lattice_spinors():
    """Every isotropic spinor with entries in {0, +-1, +-i}."""
    v = np.array(list(itertools.product([0, 1, -1, 1j, -1j], repeat=4)), dtype=complex)[1:]
    return v[_g(v, v) == 0]


@pytest.mark.parametrize("kind", ["random", "lattice", "small"])
def test_line_plane_spans_the_annihilator_svd_plane(kind):
    if kind == "lattice":
        v = _lattice_spinors()
    else:
        v = _spinor_rows(np.random.default_rng(380))
        if kind == "small":
            v = v * 1e-5 / np.linalg.norm(v, axis=-1, keepdims=True)
    x1, x2 = _line_plane(v, 1e-9)
    w1, w2 = _svd_line_plane(v)
    assert _pluecker_gap(_pluecker(x1, x2), _pluecker(w1, w2)).max() <= 1e-12
    # the bound |x1 ^ x2| = |v|^4 / 8 at pivot 1, so at least 1/8
    unit = _spinor_line(v, 1e-9)
    size = np.linalg.norm(_pluecker(x1, x2), axis=-1)
    assert size.min() >= 0.125 * (1.0 - 1e-12)
    assert np.max(np.abs(size / np.linalg.norm(unit, axis=-1) ** 4 - 0.125)) <= 1e-14
    residual = np.stack([_x_matrix(x) @ np.conj(unit)[..., None] for x in (x1, x2)])
    if kind == "lattice":
        assert len(v) > 100 and not residual.any()
    else:
        assert np.max(np.abs(residual)) <= 1e-14


def test_line_plane_gates_name_the_row_without_dividing():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = _spinor_rows(np.random.default_rng(381), 6)
        v[3] = 0.0
        v[5] = 0.0
        with pytest.raises(ZeroVector, match="at row 3$"):
            _line_plane(v, 1e-9)
        v = _spinor_rows(np.random.default_rng(381), 6)
        v[2, 0] *= 2.0
        with pytest.raises(NotIsotropicSpinor, match=r"\(v\|v\) at row 2 = "):
            _line_plane(v, 1e-9)
        with pytest.raises(ZeroVector):
            spinor_line_to_plane(np.zeros(4))
        # the plane of a lattice line is exact, and a spinor at norm 1.4e-5
        # is no zero vector: its plane is the same up to rounding
        want = [[0, 0, 0, 0, -0.5, -0.5], [0, 0, -0.5, 0.5, 0, 0]]
        plane = spinor_line_to_plane([1, 0, 1, 0])
        assert np.array_equal(np.stack([plane.x1, plane.x2]), want)
        plane = spinor_line_to_plane([1e-5, 0, 1e-5, 0])
        assert np.max(np.abs(np.stack([plane.x1, plane.x2]) - want)) <= 1e-15


@pytest.mark.parametrize("scale", [1.0, 1e-5])
def test_spinor_line_is_exact_on_scaled_lattice_lines(scale):
    # every lattice line times complex factors: the representative is the
    # lattice row over its pivot u in {+-1, +-i}, exactly, so the pivot and
    # every component equal to it come out exactly 1
    lattice = _lattice_spinors()
    pivot = np.take_along_axis(lattice, abs(lattice).argmax(axis=-1)[:, None], axis=-1)
    want = lattice * np.conj(pivot)
    assert np.array_equal(want[lattice == pivot], np.ones(np.count_nonzero(lattice == pivot)))
    factors = np.concatenate([[1.0], _complex_rows(np.random.default_rng(383), 3)]) * scale
    for factor in factors:
        v = factor * lattice
        unit = _spinor_line(v, 1e-9)
        assert np.array_equal(unit, want)
        # one spinor runs the same formula on floats: the same bits
        for row, got in zip(v[::7], unit[::7]):
            assert np.array_equal(_spinor_line(row, 1e-9), got)
    assert np.array_equal(spinor_line([1e-5, 0, 1e-5, 0]).rep, [1, 0, 1, 0])
    plane = spinor_line_to_plane([scale, 0, scale, 0])
    assert np.array_equal(np.stack([plane.x1, plane.x2]),
                          [[0, 0, 0, 0, -0.5, -0.5], [0, 0, -0.5, 0.5, 0, 0]])


def test_spinor_line_of_one_spinor_is_its_row_of_the_stack():
    v = _spinor_rows(np.random.default_rng(385))
    unit = _spinor_line(v, 1e-9)
    assert all(np.array_equal(_spinor_line(row, 1e-9), got) for row, got in zip(v, unit))
    pivot = np.take_along_axis(v, abs(v).argmax(axis=-1)[:, None], axis=-1)
    assert np.max(np.abs(unit - v / pivot)) <= 1e-15
    assert np.array_equal(np.take_along_axis(unit, abs(v).argmax(axis=-1)[:, None], axis=-1),
                          np.ones((len(v), 1)))


def test_table_sum_is_the_stacked_product_bit_for_bit():
    # _x_matrix is one 2-D product over the flattened leading axes, the
    # same bits as the stacked matmul it replaced
    rng = np.random.default_rng(384)
    for shape in [(6,), (1, 6), (7, 6), (3, 5, 6), (40, 2, 2, 6)] * 40:
        x = rng.normal(size=shape)
        want = (x @ GAMMA.reshape(6, 16)).reshape(*shape[:-1], 4, 4)
        assert np.array_equal(_x_matrix(x), want)


def test_four_idempotents_match_the_pseudo_inverse_dual_basis():
    # Gram-Schmidt and Householder QR give the same orthonormal basis up
    # to rounding and signs, and R1..R4 depend on neither; the largest
    # difference over these 200 rows is 7.5e-15
    x1, x2 = _plane_rows(np.random.default_rng(382))
    want = np.stack(qr_pinv_four_idempotents(x1, x2))
    assert np.abs(np.stack(_four_idempotents(x1, x2, 1e-9)) - want).max() <= 1e-14


def _svd_same_span(a, b, tol):
    """The retired same_span: [a b] has the numerical rank of a, both
    counted above tol times the largest singular value of [a b]."""
    s = np.linalg.svd(np.concatenate([a, b], axis=-1), compute_uv=False)
    cut = tol * s[..., :1]
    rank = np.count_nonzero(np.linalg.svd(a, compute_uv=False) > cut, axis=-1)
    return bool(np.count_nonzero(s > cut, axis=-1) == rank)


@pytest.mark.parametrize("dtype", [float, complex])
def test_same_span_keeps_the_svd_oracles_verdicts_on_tilted_planes(dtype):
    rng = np.random.default_rng(380)
    # a random unitary frame, and a mixing of the tilted basis
    frame = rng.normal(size=(6, 6)) + (dtype is complex) * 1j * rng.normal(size=(6, 6))
    frame, _ = np.linalg.qr(frame)
    mix = np.array([[1.0, 2.0], [-0.5, 3.0]])
    a = frame[:, :2]
    for tilt, same in ((1e-6, False), (5e-8, False), (1e-10, True)):
        b = (a + tilt * np.outer(frame[:, 2], [0.0, 1.0])) @ mix
        assert _svd_same_span(a, b, 1e-8) is same
        assert same_span(a, b, 1e-8) is same
        gap = _pluecker_gap(_pluecker(a[:, 0], a[:, 1]), _pluecker(b[:, 0], b[:, 1]))
        assert abs(gap - tilt) <= 1e-3 * tilt + 1e-14


def test_clifford_audit_kernels_match_the_public_audits_on_the_generators():
    e = np.eye(6)
    adjoint = _adjoint(GAMMA)
    twice = _adjoint(adjoint)
    residual = _reality_residual(_x_matrix(e))
    d, q2 = _det_identity(e)
    for a in range(6):
        g = gamma(a + 1)
        assert np.array_equal(adjoint[a], antilinear_adjoint(g).m)
        assert np.array_equal(twice[a], antilinear_adjoint(antilinear_adjoint(g)).m)
        assert residual[a] == reality_residual(e[a]) == 0.0
        assert (float(d[a].real), q2[a]) == det_identity(e[a]) == (1.0, 1.0)
        assert d[a].imag == 0.0


def test_clifford_audit_kernel_rows_match_the_public_audits():
    x = np.random.default_rng(330).normal(size=(ROWS, 6))
    m = _complex_rows(np.random.default_rng(331), ROWS, 4, 4)
    adjoint = _adjoint(m)
    residual = _reality_residual(_x_matrix(x))
    d, q2 = _det_identity(x)
    for i in range(ROWS):
        assert np.array_equal(adjoint[i], antilinear_adjoint(AntilinearOp(m[i])).m)
        assert residual[i] == reality_residual(x[i])
        d1, q21 = det_identity(x[i])
        assert q2[i] == q21 and _rel_dev(d[i].real, d1) <= 1e-14


def test_plane_and_line_kernel_rows_match():
    rng = np.random.default_rng(330)
    x1, x2 = _plane_rows(rng)
    v = _spinor_rows(rng)
    line = _plane_line(x1, x2, 1e-9)
    p1, p2 = _line_plane(v, 1e-9)
    unit = _spinor_line(v, 1e-9)
    for i in range(ROWS):
        plane = IsotropicPlaneE(x1[i], x2[i])
        assert np.array_equal(line[i], plane_to_spinor_line(plane).rep)
        back = spinor_line_to_plane(v[i])
        assert np.array_equal(p1[i], back.x1) and np.array_equal(p2[i], back.x2)
        assert np.array_equal(unit[i], spinor_line(v[i]).rep)
    # the gate of every row passes, and a single row is the scalar gate
    _isotropic_plane(x1, x2, RESIDUAL_FLOOR)
    isotropic_plane(x1[0], x2[0], RESIDUAL_FLOOR)


def test_dual_basis_and_four_idempotents_kernel_rows_match():
    rng = np.random.default_rng(340)
    x1, x2 = _plane_rows(rng)
    y1, y2 = _dual_basis(x1, x2, 1e-9)
    r = np.stack(_four_idempotents(x1, x2, 1e-9), axis=1)
    for i in range(ROWS):
        plane = IsotropicPlaneE(x1[i], x2[i])
        s1, s2 = dual_isotropic_basis(plane)
        assert _rel_dev(y1[i], s1) <= 1e-14 and _rel_dev(y2[i], s2) <= 1e-14
        assert _rel_dev(r[i], np.stack(four_idempotents(plane))) <= 1e-14


def test_same_span_over_rows():
    rng = np.random.default_rng(350)
    a = rng.normal(size=(ROWS, 6, 2))
    mix = rng.normal(size=(ROWS, 2, 2))
    b = a @ mix
    # every third pair spans another plane
    b[::3] = rng.normal(size=b[::3].shape)
    same = same_span(a, b)
    assert same.shape == (ROWS,) and same.dtype == bool
    assert not same[::3].any() and same[1::3].all() and same[2::3].all()
    for i in range(ROWS):
        assert same_span(a[i], b[i]) is bool(same[i])


def _entities(rng, n):
    makers = (sampling.random_point, sampling.random_sphere, sampling.random_plane)
    return [Infinity()] + [makers[i % 3](rng) for i in range(n - 1)]


def test_liesphere_kernel_rows_match_the_public_functions():
    rng = np.random.default_rng(360)
    ents = _entities(rng, ROWS)
    raw = np.stack([embed_rep(e) for e in ents])
    points = [e for e in ents if isinstance(e, Point)]
    spheres = [e for e in ents if isinstance(e, Sphere)]
    planes = [e for e in ents if isinstance(e, Plane)]
    assert np.array_equal(_sphere_rep(np.stack([p.p for p in points]), 0.0),
                          [embed_rep(p) for p in points])
    assert np.array_equal(
        _sphere_rep(np.stack([s.center for s in spheres]), np.array([s.signed_radius for s in spheres])),
        [embed_rep(s) for s in spheres])
    assert np.array_equal(
        _plane_rep(np.stack([h.normal for h in planes]), np.array([h.offset for h in planes])),
        [embed_rep(h) for h in planes])
    cls = _projective(raw, 1e-9)
    kind, coords = _extract(cls, 1e-9)
    inverted = _inversion(cls)
    contact = _contact(raw[:, None], raw[None, :], 1e-9)
    kinds = {Infinity: INFINITY, Point: POINT, Sphere: SPHERE, Plane: PLANE}
    for i, ent in enumerate(ents):
        one = ProjectiveNullLine(cls[i])
        back = lie_extract(one)
        assert kind[i] == kinds[type(back)] == kinds[type(ent)]
        if isinstance(back, Point):
            assert np.array_equal(back.p, coords[i, :3])
        elif isinstance(back, Sphere):
            assert np.array_equal(back.center, coords[i, :3])
            assert back.signed_radius == coords[i, 3]
        elif isinstance(back, Plane):
            assert np.array_equal(back.normal, coords[i, :3]) and back.offset == coords[i, 4]
        assert np.array_equal(inverted[i], conformal_inversion(one).rep)
        for j in range(0, ROWS, 17):
            assert contact[i, j] == oriented_contact(ent, ents[j])


def test_decomposable_kernel_rows_match_is_decomposable():
    rng = np.random.default_rng(370)
    x = np.concatenate([_null_rows(rng, ROWS // 2), rng.normal(size=(ROWS // 2, 6))])
    b = _phi(x)
    b[-1] = 0.0
    out = _decomposable(b, 1e-9)
    assert out[:ROWS // 2].all() and out[-1] and not out[ROWS // 2:-1].any()
    for i in range(ROWS):
        assert out[i] == is_decomposable(KVector(2, b[i]))


def _reference_spin_generate(pairs):
    """The sequential product of the pair composites X(x) conj(X(x'))."""
    m = np.eye(4, dtype=complex)
    for x, xp in pairs:
        m = m @ (x_matrix(x).m @ np.conj(x_matrix(xp).m))
    return m


def test_spin_generate_is_the_sequential_product_bit_for_bit():
    rng = np.random.default_rng(380)
    for npairs in (0, 1, 2, 3):
        for _ in range(100):
            pairs = []
            for _ in range(npairs):
                sign = int(rng.choice([-1, 1]))
                pairs.append((sampling.random_unit_q_vec6(rng, sign),
                              sampling.random_unit_q_vec6(rng, sign)))
            assert np.array_equal(spin_generate(pairs).m, _reference_spin_generate(pairs))
            if npairs == 1:
                assert np.array_equal(spin_from_vector_pair(*pairs[0]).m,
                                      _reference_spin_generate(pairs))


@pytest.mark.parametrize("npairs", [0, 1, 2, 3])
def test_generate_on_a_stack_is_spin_generate_row_by_row(npairs):
    # one kernel builds the sampler's stacks and the single elements, so
    # row i of a stack is the element of row i's pairs, bit for bit
    rng = np.random.default_rng(390 + npairs)
    signs = rng.choice([-1, 1], size=(50, npairs))
    v = np.empty((50, npairs, 2, 6))
    for sign in (-1, 1):
        pick = signs == sign
        v[pick] = sampling.random_unit_q_vec6(rng, sign, n=2 * int(pick.sum())).reshape(-1, 2, 6)
    m = _generate(v, 1e-9)
    assert m.shape == (50, 4, 4)
    for i in range(50):
        assert np.array_equal(m[i], spin_generate(v[i]).m)


@pytest.mark.parametrize("count", [7, 100])
def test_exterior_block_draws_each_factor_into_its_grade_block(count):
    # the wedge grades, then the factors a, b, d of every sample from one
    # normal draw in (factor, sample) order; the same for the Hermitian
    # grades and u, v; then the null and non-null vectors
    n = max(10, count // 10)
    rng = np.random.default_rng(400 + count)
    p = rng.integers(0, 3, size=n)
    q = rng.integers(0, 5 - p)
    r = rng.integers(0, 5 - p - q)
    wedge_grades = np.concatenate([p, q, r])
    wedge_flat = rng.normal(size=2 * sum(comb(4, g) for g in wedge_grades)).view(complex)
    k = rng.integers(0, 5, size=n)
    herm_flat = rng.normal(size=4 * sum(comb(4, g) for g in k)).view(complex)
    null = sampling.random_null_vec6(rng, n=max(1, count // 2))
    nonnull = sampling.random_nonnull_vec6(rng, n=max(1, count // 2))
    tail = rng.normal()
    rng = np.random.default_rng(400 + count)
    (wg, w), (hg, h), x, y = _exterior_block(rng, count)
    assert np.array_equal(wg, [p, q, r])
    assert (wg[0] <= 2).all() and (wg.sum(axis=0) <= 4).all()
    assert np.array_equal(w.reshape(-1, 16), _graded_draws(wedge_grades, wedge_flat))
    assert np.array_equal(hg, k) and h.shape == (2, n, 16)
    assert np.array_equal(h.reshape(-1, 16), _graded_draws(np.concatenate([k, k]), herm_flat))
    assert np.array_equal(x, null) and np.array_equal(y, nonnull)
    assert rng.normal() == tail


@pytest.mark.parametrize("count", [7, 100])
def test_isotropic_block_draws_its_three_sampler_blocks(count):
    rng = np.random.default_rng(410 + count)
    x = sampling.random_null_vec6(rng, n=max(4, count // 2))
    planes = sampling.random_isotropic_plane(rng, max(4, count // 4))
    v = sampling.random_isotropic_spinor(rng, max(4, count // 4))
    tail = rng.normal()
    rng = np.random.default_rng(410 + count)
    bx, bplanes, bv = _isotropic_block(rng, count)
    assert np.array_equal(bx, x) and np.array_equal(bplanes, planes) and np.array_equal(bv, v)
    assert rng.normal() == tail


@pytest.mark.parametrize("count", [7, 100])
def test_liesphere_block_draws_its_sampler_blocks(count):
    n, pairs = max(4, count // 4), max(8, count)
    rng = np.random.default_rng(420 + count)
    points = sampling.random_point(rng, n=n)
    spheres = sampling.random_sphere(rng, n=n)
    planes = sampling.random_plane(rng, n=n)
    inverted = sampling.random_sphere(rng, n=max(4, count // 2))
    far_plane = sampling.random_plane(rng)
    # the contact pairs: first spheres, tangency flags, tangent partners
    c1, r1 = sampling.random_sphere(rng, n=pairs)
    tangent = rng.random(pairs) < 0.5
    direction = sampling.unit_vec3(rng, pairs)
    r2 = rng.uniform(0.2, 3.0, size=pairs) * rng.choice([-1.0, 1.0], size=pairs)
    rng = np.random.default_rng(420 + count)
    block = _liesphere_block(rng, count)
    bpoints, bspheres, bplanes, binverted, bfar, bcontacts = block
    assert np.array_equal(bpoints, points)
    assert all(np.array_equal(a, b) for a, b in zip(bspheres + bplanes + binverted,
                                                    spheres + planes + inverted, strict=True))
    assert np.array_equal(bfar.normal, far_plane.normal) and bfar.offset == far_plane.offset
    bc1, br1, bc2, br2, verdict = bcontacts
    assert np.array_equal(bc1, c1) and np.array_equal(br1, r1)
    assert np.array_equal(verdict, tangent)
    assert np.array_equal(bc2[tangent], (c1 + (r1 - r2)[:, None] * direction)[tangent])
    assert np.array_equal(br2[tangent], r2[tangent])
    gap = np.vecdot(bc1 - bc2, bc1 - bc2) - (br1 - br2) ** 2
    assert (abs(gap[~tangent]) > 0.05).all()
    # the partners redrawn for the rows that are not tangent repeat, and so
    # does the generator's next draw
    rng_again = np.random.default_rng(420 + count)
    again = _liesphere_block(rng_again, count)
    assert all(np.array_equal(a, b) for a, b in zip(bcontacts, again[-1], strict=True))
    assert rng.normal() == rng_again.normal()
