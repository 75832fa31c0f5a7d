"""Acceptance gate: the twelve numbered criteria this package commits to,
each run at its stated tolerance and sample count.  Tests print nothing
on success; the conftest summary reports one PASS/FAIL line per criterion.

Known red: the Gram-matrix clause of test_05 asserts (E_a | E_b) = +Q_ab,
but the computed Gram matrix is exactly -Q and the sign is forced (the
Hermitian form restricted to the star-fixed bivector space has signature
(2,4), so no star-fixed frame can produce +Q).  The clause is asserted as
stated and fails; every other clause of test_05 passes.  See errata id
"selfdual-gram-sign" and the module notes in exterior.py.
"""

import itertools
import subprocess
import sys

import numpy as np

from spin42.clifford import (
    GAMMA,
    antilinear_adjoint,
    check_clifford_relations,
    check_sigma_selfduality,
    check_x_reality,
    det_identity,
    gamma,
)
from spin42.exterior import (
    basis_bivector,
    herm_inner,
    hodge_star,
    is_decomposable,
    kv_add,
    kv_norm,
    kv_scale,
    phi,
)
from spin42.forms import Q6, g_form, q_bilinear, q_form, projectivize
from spin42.isotropic import (
    dual_isotropic_basis,
    four_idempotents,
    idempotent_pair,
    null_to_spinor_plane,
    partner_null_vector,
    plane_to_spinor_line,
    same_span,
    spinor_line_to_plane,
)
from spin42.liesphere import (
    Infinity,
    Point,
    Sphere,
    conformal_inversion,
    lie_embed,
    oriented_contact,
)
from spin42.sampling import (
    random_isotropic_plane,
    random_isotropic_spinor,
    random_nonnull_vec6,
    random_null_vec6,
    random_plane,
    random_point,
    random_sphere,
    random_spin_element,
)
from spin42.spin import covering_matrix, is_so_plus, is_su22, SpinElement, vector_action

from oracles import image_basis


def test_01_clifford_anticommutators_exact():
    report = check_clifford_relations(tol=0.0)
    assert report.checks_run == 36
    assert report.max_deviation == 0.0
    assert report.passed


def test_02_generators_anti_self_adjoint_exact():
    for a in range(1, 7):
        g = gamma(a)
        assert np.array_equal(antilinear_adjoint(g).m, -g.m)


def test_03_selfduality_and_reality():
    assert check_sigma_selfduality(tol=0.0).passed
    rng = np.random.default_rng(2023)
    for _ in range(1000):
        x = rng.normal(size=6) * 3
        assert check_x_reality(x, tol=1e-12).passed


def test_04_determinant_is_squared_form():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        x = rng.normal(size=6) * 2
        d, q2 = det_identity(x)
        assert abs(d - q2) <= 1e-9 * max(1.0, abs(q2))
    for a in range(6):
        assert det_identity(np.eye(6)[a]) == (1.0, 1.0)


def test_05_selfdual_basis_star_and_gram():
    es = [basis_bivector(a) for a in range(1, 7)]
    # star fixes every basis bivector
    for e in es:
        assert kv_norm(kv_add(hodge_star(e), kv_scale(-1.0, e))) <= 1e-12
    # star squares to (-1)^{k(4-k)} grade by grade
    rng = np.random.default_rng(2025)
    from spin42.sampling import random_kvector

    for k in range(5):
        sign = (-1.0) ** (k * (4 - k))
        for _ in range(20):
            y = random_kvector(rng, k)
            dev = kv_norm(kv_add(hodge_star(hodge_star(y)), kv_scale(-sign, y)))
            assert dev <= 1e-12 * max(1.0, kv_norm(y))
    # pairing symmetry of the star
    for k in range(5):
        sign = (-1.0) ** (k * (4 - k))
        for _ in range(20):
            y = random_kvector(rng, k)
            x = random_kvector(rng, 4 - k)
            lhs = herm_inner(x, hodge_star(y))
            rhs = sign * herm_inner(y, hodge_star(x))
            assert abs(lhs - rhs) <= 1e-12 * max(
                1.0, kv_norm(x) * kv_norm(y)
            )
    # Gram matrix of the basis, asserted with the +Q sign as stated above
    gram = np.array(
        [[herm_inner(es[a], es[b]) for b in range(6)] for a in range(6)]
    )
    assert np.max(np.abs(np.imag(gram))) <= 1e-12
    dev = float(np.max(np.abs(np.real(gram) - Q6)))
    assert dev <= 1e-12, (
        "computed Gram matrix is exactly -Q, not +Q (max deviation from +Q "
        f"is {dev:g}): the pseudo-Hermitian form restricted to the star-fixed "
        "bivector space has signature (2,4), so no star-fixed basis can have "
        "Gram +Q; the minus sign is forced.  All identities in this package "
        "are stated and verified with -Q.  See errata id 'selfdual-gram-sign'."
    )


def test_06_null_iff_decomposable():
    rng = np.random.default_rng(2026)
    wrong = 0
    for _ in range(500):
        x = random_null_vec6(rng)
        if not is_decomposable(phi(x), tol=1e-9):
            wrong += 1
    for _ in range(500):
        x = random_nonnull_vec6(rng)
        if is_decomposable(phi(x), tol=1e-9):
            wrong += 1
    assert wrong == 0


def test_07_isotropic_correspondences():
    rng = np.random.default_rng(2027)
    eye = np.eye(4)
    for _ in range(200):
        x = random_null_vec6(rng)
        plane = null_to_spinor_plane(x)  # raises unless the kernel is 2-dim
        ker = np.stack([plane.b1, plane.b2], axis=1)
        y = partner_null_vector(x)
        p, q = idempotent_pair(x, y)
        assert np.max(np.abs(p @ p - p)) <= 1e-8
        assert np.max(np.abs(p + q - eye)) <= 1e-8
        assert abs(np.trace(p) - 2.0) <= 1e-8
        assert same_span(image_basis(p, 2), ker, tol=1e-8)
    for _ in range(200):
        n = random_isotropic_plane(rng)
        line = plane_to_spinor_line(n)
        n2 = spinor_line_to_plane(line)
        assert same_span(np.stack([n.x1, n.x2], axis=1),
                         np.stack([n2.x1, n2.x2], axis=1), tol=1e-8)
    for _ in range(200):
        v = random_isotropic_spinor(rng)
        n = spinor_line_to_plane(v)  # raises unless the nullity is 2
        line = plane_to_spinor_line(n)
        overlap = abs(np.vdot(line.rep, v)) / (
            np.linalg.norm(line.rep) * np.linalg.norm(v)
        )
        assert abs(overlap - 1.0) <= 1e-8


def test_08_covering_homomorphism():
    rng = np.random.default_rng(2028)
    elements = [random_spin_element(rng) for _ in range(200)]
    for s in elements:
        assert is_su22(s.m, tol=1e-8)
        l = covering_matrix(s).l
        scale = max(1.0, float(np.max(np.abs(l))) ** 2)
        assert np.max(np.abs(l @ Q6 @ l.T - Q6)) <= 1e-8 * scale
        assert abs(np.linalg.det(l) - 1.0) <= 1e-8 * scale ** 3
        assert is_so_plus(l, tol=1e-8 * scale ** 3)
    for s1, s2 in zip(elements[:100], elements[100:]):
        lhs = covering_matrix(SpinElement(s1.m @ s2.m)).l
        rhs = covering_matrix(s1).l @ covering_matrix(s2).l
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))
    i4 = np.eye(4, dtype=complex)
    assert np.array_equal(covering_matrix(SpinElement(-i4)).l, np.eye(6))
    assert np.array_equal(covering_matrix(SpinElement(1j * i4)).l, -np.eye(6))


def test_09_lie_sphere_embeddings_are_null():
    rng = np.random.default_rng(2029)
    for maker in (random_point, random_sphere, random_plane):
        for _ in range(1000):
            cls = lie_embed(maker(rng))
            assert abs(q_form(cls.rep)) <= 1e-12
    assert q_form(lie_embed(Infinity()).rep) == 0.0


def test_10_myth_report_invariant_sphere():
    from spin42.liesphere import fixed_sphere_probe

    report = fixed_sphere_probe(100, rng=np.random.default_rng(2030))
    assert report.fixed_sphere_max_drift <= 1e-12
    assert report.min_matching_residual >= 0.1
    assert report.missing_confirmed
    assert conformal_inversion(lie_embed(Infinity())) == lie_embed(Point([0, 0, 0]))
    rng = np.random.default_rng(2031)
    makers = (random_point, random_sphere, random_plane)
    for i in range(500):
        if i % 4 == 3:
            cls = projectivize(random_null_vec6(rng))
        else:
            cls = lie_embed(makers[i % 3](rng))
        assert conformal_inversion(conformal_inversion(cls)) == cls


def test_11_contact_matches_euclidean_oracle():
    rng = np.random.default_rng(2032)
    disagreements = 0
    for _ in range(2000):
        c1 = rng.normal(size=3) * 2
        r1 = rng.uniform(0.2, 2.0) * (1.0 if rng.integers(0, 2) else -1.0)
        r2 = rng.uniform(0.2, 2.0) * (1.0 if rng.integers(0, 2) else -1.0)
        d = rng.normal(size=3)
        d = d / np.linalg.norm(d)
        if rng.integers(0, 2):
            c2 = c1 + abs(r1 - r2) * d  # tangent by construction
        else:
            c2 = c1 + (abs(r1 - r2) + rng.uniform(0.05, 2.0)) * d
        s1, s2 = Sphere(c1, r1), Sphere(c2, r2)
        euclid = abs(float(np.dot(c1 - c2, c1 - c2)) - (r1 - r2) ** 2) < 1e-9
        if oriented_contact(s1, s2, tol=1e-9) != euclid:
            disagreements += 1
    assert disagreements == 0


def test_12_cli_determinism():
    cmd = [sys.executable, "-m", "spin42", "verify", "--suite", "all",
           "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty machine output
    assert first.stderr == second.stderr
