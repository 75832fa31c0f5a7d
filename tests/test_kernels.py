"""Oracle tests for the table-driven kernels.

Each kernel is checked against a direct, loop-based construction written
here: the n!-transpose antisymmetrizer for the wedge, the full-tensor
formulas for the Hermitian form and the norm, the star solved from its
defining relation for the closed-form Hodge star, the per-column vector
action for the covering matrix, numpy's LU determinant and the exact
identity det X(x) = Q(x)^2 for det4, and two chained least-squares solves
for the closed-form dual isotropic basis.  Permutation signs in the references
come from counting inversions in this file, independently of the
package's permutation table.

The array kernels behind the public functions run over leading axes;
each is checked row by row against its public scalar function on stacks
of random rows, and the suites' block samplers are checked to draw the
same numbers as the per-sample calls they replace, leaving the generator
where those calls would.
"""

import itertools
from math import comb, factorial

import numpy as np
import pytest

from spin42.clifford import EPS4, GAMMA, _det4, det4, gamma_coeffs, perm_table, x_matrix
from spin42.errors import ActionLeavesSpan, NotInGammaSpan
from spin42.exterior import (
    KVector,
    _decomposable,
    _herm,
    _phi,
    _phi_inverse,
    _star,
    _wedge,
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
    _annihilator_system,
    _dual_basis,
    _four_idempotents,
    _isotropic_plane,
    _line_plane,
    _partner,
    _plane_line,
    _spinor_line,
    _spinor_plane,
    _spinor_plane_class,
    _svd_rank,
    dual_isotropic_basis,
    four_idempotents,
    image_basis,
    isotropic_plane,
    null_to_spinor_plane,
    partner_null_vector,
    plane_from_spinor_plane,
    plane_to_spinor_line,
    same_span,
    spinor_line,
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
    star = _star(k, a)
    herm = _herm(k, a, b)
    for i in range(ROWS):
        assert _rel_dev(star[i], hodge_star(KVector(k, a[i])).coeffs) <= 1e-14
        assert _rel_dev(herm[i], herm_inner(KVector(k, a[i]), KVector(k, b[i]))) <= 1e-14


@pytest.mark.parametrize("p,q", [(p, q) for p in range(5) for q in range(5 - p)])
def test_wedge_kernel_rows_match_wedge(p, q):
    rng = np.random.default_rng(130 + 10 * p + q)
    a = _complex_rows(rng, ROWS, comb(4, p))
    b = _complex_rows(rng, ROWS, comb(4, q))
    out = _wedge(p, q, a, b)
    assert out.shape == (ROWS, comb(4, p + q))
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


@pytest.mark.parametrize("k", range(5))
def test_hodge_block_draws_the_per_sample_kvectors(k):
    n = 23
    rng = np.random.default_rng(190 + k)
    ys, lams, xs = [], [], []
    for _ in range(n):
        ys.append(random_kvector(rng, k).coeffs)
        lams.append(complex(rng.normal(), rng.normal()))
        xs.append(random_kvector(rng, 4 - k).coeffs)
    tail = rng.normal()
    rng = np.random.default_rng(190 + k)
    y, lam, x = _hodge_block(rng, k, n)
    assert np.array_equal(y, ys) and np.array_equal(lam, lams) and np.array_equal(x, xs)
    assert rng.normal() == tail


def test_spin_block_draws_the_vectors_after_the_elements():
    n = 13
    rng = np.random.default_rng(200)
    elements = [sampling.random_spin_element(rng).m for _ in range(n)]
    vectors = [rng.normal(size=6) for _ in range(n)]
    tail = rng.normal()
    rng = np.random.default_rng(200)
    m, x = _spin_block(rng, n)
    assert np.array_equal(m, elements) and np.array_equal(x, vectors)
    assert rng.normal() == tail


@pytest.mark.parametrize("k", range(5))
def test_star_defining_relation_is_exact_on_the_monomials(k):
    eye = np.eye(comb(4, k), dtype=complex)
    lhs = _wedge(k, 4 - k, eye[:, None], _star(k, eye)[None, :])
    # the volume element e1^e2^e3^e4 has the single coefficient 1
    gram = _herm(k, eye[:, None], eye[None, :])
    assert lhs.shape == (len(eye), len(eye), 1)
    assert np.max(np.abs(lhs[..., 0] - gram)) == 0.0


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


def test_annihilator_system_rows_match_the_column_construction():
    v = _complex_rows(np.random.default_rng(320), ROWS, 4)
    out = _annihilator_system(v)
    assert out.shape == (ROWS, 8, 6)
    for i in range(ROWS):
        cols = np.stack([GAMMA[a] @ np.conj(v[i]) for a in range(6)], axis=1)
        assert np.array_equal(out[i], np.vstack([cols.real, cols.imag]))


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


def test_same_span_and_svd_rank_over_rows():
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
    m = rng.normal(size=(ROWS, 4, 1)) @ rng.normal(size=(ROWS, 1, 4))
    u, s, vh = _svd_rank(m, RANK_FLOOR, 1, "outer product")
    assert np.array_equal(image_basis(m, 1), u[..., :1])
    for i in range(ROWS):
        assert np.array_equal(_svd_rank(m[i], RANK_FLOOR, 1, "outer product")[1], s[i])


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


def _reference_contact_pair(rng):
    """The contact-pair draws as a loop that computes the gap twice."""
    s1 = sampling.random_sphere(rng)
    if rng.random() < 0.5:
        direction = sampling.unit_vec3(rng)
        r2 = rng.uniform(0.2, 3.0) * float(rng.choice([-1.0, 1.0]))
        s2 = Sphere(s1.center + (s1.signed_radius - r2) * direction, r2)
    else:
        while True:
            s2 = sampling.random_sphere(rng)
            gap = float(np.linalg.norm(s1.center - s2.center) ** 2
                        - (s1.signed_radius - s2.signed_radius) ** 2)
            if abs(gap) > 0.05:
                break
    gap = float(np.linalg.norm(s1.center - s2.center) ** 2
                - (s1.signed_radius - s2.signed_radius) ** 2)
    return s1, s2, abs(gap) <= 1e-9 * max(
        1.0, float(np.linalg.norm(s1.center - s2.center) ** 2))


@pytest.mark.parametrize("count", [7, 100])
def test_exterior_block_draws_the_per_sample_loops(count):
    rng = np.random.default_rng(400 + count)
    wedges, herms = {}, {}
    for _ in range(max(10, count // 10)):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 4 - p + 1))
        a = random_kvector(rng, p).coeffs
        b = random_kvector(rng, q).coeffs
        r = int(rng.integers(0, 4 - p - q + 1))
        wedges.setdefault((p, q, r), []).append((a, b, random_kvector(rng, r).coeffs))
    for _ in range(max(10, count // 10)):
        k = int(rng.integers(0, 5))
        herms.setdefault(k, []).append((random_kvector(rng, k).coeffs,
                                        random_kvector(rng, k).coeffs))
    half = max(1, count // 2)
    null = [sampling.random_null_vec6(rng) for _ in range(half)]
    nonnull = [sampling.random_nonnull_vec6(rng) for _ in range(half)]
    tail = rng.normal()
    rng = np.random.default_rng(400 + count)
    w, h, x, y = _exterior_block(rng, count)
    assert list(w) == list(wedges) and list(h) == list(herms)
    for key, rows in wedges.items():
        assert all(np.array_equal(w[key][f], [row[f] for row in rows]) for f in range(3))
    for key, rows in herms.items():
        assert all(np.array_equal(h[key][f], [row[f] for row in rows]) for f in range(2))
    assert np.array_equal(x, null) and np.array_equal(y, nonnull)
    assert rng.normal() == tail


@pytest.mark.parametrize("count", [7, 100])
def test_isotropic_block_draws_the_per_sample_loops(count):
    rng = np.random.default_rng(410 + count)
    x = [sampling.random_null_vec6(rng) for _ in range(max(4, count // 2))]
    planes = [sampling.random_isotropic_plane(rng) for _ in range(max(4, count // 4))]
    v = [sampling.random_isotropic_spinor(rng) for _ in range(max(4, count // 4))]
    tail = rng.normal()
    rng = np.random.default_rng(410 + count)
    bx, bplanes, bv = _isotropic_block(rng, count)
    assert np.array_equal(bx, x) and np.array_equal(bv, v)
    assert np.array_equal(bplanes, [[n.x1, n.x2] for n in planes])
    assert rng.normal() == tail


@pytest.mark.parametrize("count", [7, 100])
def test_liesphere_block_draws_the_per_sample_loops(count):
    rng = np.random.default_rng(420 + count)
    n = max(4, count // 4)
    points = [sampling.random_point(rng) for _ in range(n)]
    spheres = [sampling.random_sphere(rng) for _ in range(n)]
    planes = [sampling.random_plane(rng) for _ in range(n)]
    inverted = [sampling.random_sphere(rng) for _ in range(max(4, count // 2))]
    far_plane = sampling.random_plane(rng)
    contacts = [_reference_contact_pair(rng) for _ in range(max(8, count))]
    tail = rng.normal()
    rng = np.random.default_rng(420 + count)
    bpoints, bspheres, bplanes, binverted, bfar, bcontacts = _liesphere_block(rng, count)
    assert np.array_equal(bpoints, [p.p for p in points])
    assert np.array_equal(bspheres[0], [s.center for s in spheres])
    assert np.array_equal(bspheres[1], [s.signed_radius for s in spheres])
    assert np.array_equal(bplanes[0], [h.normal for h in planes])
    assert np.array_equal(bplanes[1], [h.offset for h in planes])
    assert np.array_equal(binverted[0], [s.center for s in inverted])
    assert np.array_equal(binverted[1], [s.signed_radius for s in inverted])
    assert np.array_equal(bfar.normal, far_plane.normal) and bfar.offset == far_plane.offset
    c1, r1, c2, r2, tangent = bcontacts
    assert np.array_equal(c1, [s1.center for s1, _, _ in contacts])
    assert np.array_equal(r1, [s1.signed_radius for s1, _, _ in contacts])
    assert np.array_equal(c2, [s2.center for _, s2, _ in contacts])
    assert np.array_equal(r2, [s2.signed_radius for _, s2, _ in contacts])
    assert list(tangent) == [t for _, _, t in contacts]
    assert rng.normal() == tail
