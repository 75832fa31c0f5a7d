import numpy as np
import pytest

from spin42.clifford import apply, x_matrix
from spin42.errors import (
    InvalidEntity,
    NotIsotropicSpinor,
    NotNull,
    RankFailure,
    ZeroVector,
)
from spin42.forms import _null_gate, g_form, projectivize, q_bilinear, q_form
from spin42.isotropic import (
    IsotropicPlaneE,
    SpinorPlane,
    _isotropic_gate,
    dual_isotropic_basis,
    four_idempotents,
    idempotent_pair,
    isotropic_plane,
    null_to_spinor_plane,
    partner_null_vector,
    plane_from_spinor_plane,
    plane_to_spinor_line,
    same_span,
    spinor_line_to_plane,
)
from spin42.sampling import (
    random_isotropic_plane,
    random_isotropic_spinor,
    random_null_vec6,
)

from oracles import image_basis, spinor_line

E6 = np.eye(6)
I4 = np.eye(4)
X1 = np.array([1.0, 0, 0, 1, 0, 0])
X2 = np.array([0.0, 1, 0, 0, 0, 1])


def test_spinor_line_validation():
    line = spinor_line([1, 0, 0, 1])
    assert np.array_equal(line.rep, [1, 0, 0, 1])
    line = spinor_line([0, 2j, -2j, 0])
    assert np.allclose(line.rep, [0, 1, -1, 0], atol=1e-15)
    with pytest.raises(ZeroVector):
        spinor_line(np.zeros(4))
    with pytest.raises(NotIsotropicSpinor):
        spinor_line([1, 0, 0, 0])


def test_spinor_zero_gate_compares_the_norm():
    # ||v|| = 1.4e-5 > tol: a small isotropic spinor is a line, as the
    # 6-vector gates accept projectivize(1e-5 * (e1 + e4))
    v = np.array([1e-5, 0, 1e-5, 0])
    assert np.allclose(spinor_line(v).rep, [1, 0, 1, 0], atol=1e-15)
    assert isinstance(spinor_line_to_plane(v), IsotropicPlaneE)
    projectivize(1e-5 * X1)
    with pytest.raises(ZeroVector):
        spinor_line(np.array([1e-10, 0, 1e-10, 0]))


def test_isotropic_plane_validation():
    n = isotropic_plane(X1, X2)
    assert np.array_equal(n.x1, X1) and np.array_equal(n.x2, X2)
    with pytest.raises(RankFailure):
        isotropic_plane(X1, 2.0 * X1)
    with pytest.raises(NotNull):
        isotropic_plane(E6[0], E6[1])
    with pytest.raises(ZeroVector):
        isotropic_plane(np.zeros(6), X1)
    # two null vectors that pair nontrivially do not span an isotropic plane
    with pytest.raises(NotNull):
        isotropic_plane(E6[4] + E6[5], E6[4] - E6[5])


def test_partner_worked_examples():
    y = partner_null_vector(np.array([0.0, 0, 0, 0, 1, 1]))
    assert np.array_equal(y, [0, 0, 0, 0, 0.25, -0.25])
    y = partner_null_vector(X1)
    assert np.array_equal(y, [0.25, 0, 0, -0.25, 0, 0])


def test_partner_properties():
    rng = np.random.default_rng(50)
    for _ in range(100):
        x = random_null_vec6(rng)
        y = partner_null_vector(x)
        assert q_bilinear(x, y) == pytest.approx(0.5, abs=1e-12)
        assert abs(q_form(y)) < 1e-12 * max(1.0, np.linalg.norm(y) ** 2)


def test_partner_errors():
    with pytest.raises(ZeroVector):
        partner_null_vector(np.zeros(6))
    with pytest.raises(NotNull):
        partner_null_vector(E6[0])


def test_kernel_plane_worked_example():
    plane = null_to_spinor_plane(X1)
    want = np.array([[1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex).T
    got = np.stack([plane.b1, plane.b2], axis=1)
    assert same_span(got, want)


def test_kernel_vectors_are_annihilated():
    rng = np.random.default_rng(51)
    for _ in range(100):
        x = random_null_vec6(rng)
        plane = null_to_spinor_plane(x)
        scale = np.linalg.norm(x)
        for b in (plane.b1, plane.b2):
            assert np.max(np.abs(apply(x_matrix(x), b))) < 1e-9 * scale


def test_kernel_plane_is_isotropic():
    rng = np.random.default_rng(52)
    for _ in range(100):
        x = random_null_vec6(rng)
        plane = null_to_spinor_plane(x)
        for u in (plane.b1, plane.b2):
            for v in (plane.b1, plane.b2):
                assert abs(g_form(u, v)) < 1e-9


def test_kernel_plane_scale_invariant():
    rng = np.random.default_rng(53)
    x = random_null_vec6(rng)
    p1 = null_to_spinor_plane(x)
    p2 = null_to_spinor_plane(-7.5 * x)
    assert same_span(np.stack([p1.b1, p1.b2], axis=1),
                     np.stack([p2.b1, p2.b2], axis=1))


def test_kernel_requires_null_input():
    with pytest.raises(NotNull):
        null_to_spinor_plane(E6[0])
    with pytest.raises(ZeroVector):
        null_to_spinor_plane(np.zeros(6))


def test_idempotent_pair_properties():
    rng = np.random.default_rng(54)
    for _ in range(50):
        x = random_null_vec6(rng)
        p, q = idempotent_pair(x)
        assert np.max(np.abs(p @ p - p)) < 1e-9
        assert np.max(np.abs(q @ q - q)) < 1e-9
        assert np.max(np.abs(p + q - I4)) < 1e-9
        assert np.trace(p) == pytest.approx(2.0, abs=1e-9)
        assert np.trace(q) == pytest.approx(2.0, abs=1e-9)


def test_idempotent_image_is_kernel_plane():
    rng = np.random.default_rng(55)
    for _ in range(50):
        x = random_null_vec6(rng)
        plane = null_to_spinor_plane(x)
        p, _ = idempotent_pair(x)
        ker = np.stack([plane.b1, plane.b2], axis=1)
        assert same_span(image_basis(p, 2), ker)


def test_plane_to_line_worked_example():
    line = plane_to_spinor_line(isotropic_plane(X1, X2))
    assert np.max(np.abs(line.rep - np.array([0, 1, -1, 0]))) < 1e-9


def test_plane_to_line_is_isotropic_and_basis_independent():
    rng = np.random.default_rng(56)
    for _ in range(50):
        n = random_isotropic_plane(rng)
        line = plane_to_spinor_line(n)
        assert abs(g_form(line.rep, line.rep)) < 1e-8
        # recombining the basis leaves the line unchanged
        a, b, c, d = rng.normal(size=4)
        while abs(a * d - b * c) < 0.1:
            a, b, c, d = rng.normal(size=4)
        n2 = IsotropicPlaneE(a * n.x1 + b * n.x2, c * n.x1 + d * n.x2)
        line2 = plane_to_spinor_line(n2)
        overlap = abs(np.vdot(line.rep, line2.rep)) / (
            np.linalg.norm(line.rep) * np.linalg.norm(line2.rep)
        )
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_plane_to_line_rejects_rank_two_composite():
    with pytest.raises(RankFailure):
        plane_to_spinor_line(IsotropicPlaneE(E6[0], E6[1]))


def test_line_to_plane_roundtrips():
    rng = np.random.default_rng(57)
    for _ in range(50):
        n = random_isotropic_plane(rng)
        line = plane_to_spinor_line(n)
        n2 = spinor_line_to_plane(line)
        assert same_span(np.stack([n.x1, n.x2], axis=1),
                         np.stack([n2.x1, n2.x2], axis=1))
    for _ in range(50):
        v = random_isotropic_spinor(rng)
        n = spinor_line_to_plane(v)
        line = plane_to_spinor_line(n)
        overlap = abs(np.vdot(line.rep, v)) / (
            np.linalg.norm(line.rep) * np.linalg.norm(v)
        )
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_line_to_plane_solution_space_dimension():
    rng = np.random.default_rng(58)
    for _ in range(200):
        v = random_isotropic_spinor(rng)
        n = spinor_line_to_plane(v)  # raises unless the nullity is exactly 2
        for x in (n.x1, n.x2):
            assert np.max(np.abs(apply(x_matrix(x), v))) < 1e-8
        assert abs(q_form(n.x1)) < 1e-8
        assert abs(q_form(n.x2)) < 1e-8
        assert abs(q_bilinear(n.x1, n.x2)) < 1e-8


def test_line_to_plane_rejects_non_isotropic():
    with pytest.raises(NotIsotropicSpinor):
        spinor_line_to_plane(np.array([1.0, 0, 0, 0]))


def test_plane_from_spinor_plane_inverts_kernel():
    rng = np.random.default_rng(59)
    for _ in range(100):
        x = random_null_vec6(rng)
        back = plane_from_spinor_plane(null_to_spinor_plane(x))
        assert np.max(np.abs(back.rep - projectivize(x).rep)) < 1e-8


def test_plane_from_spinor_plane_rejects_bad_plane():
    # a non-isotropic spinor pair over-determines the system
    with pytest.raises(RankFailure):
        plane_from_spinor_plane(
            SpinorPlane(np.eye(4, dtype=complex)[0], np.eye(4, dtype=complex)[1])
        )


def test_dual_basis_worked_example():
    y1, y2 = dual_isotropic_basis(isotropic_plane(X1, X2))
    assert np.max(np.abs(y1 - np.array([0.25, 0, 0, -0.25, 0, 0]))) < 1e-12
    assert np.max(np.abs(y2 - np.array([0, 0.25, 0, 0, 0, -0.25]))) < 1e-12


def test_dual_basis_pairings():
    rng = np.random.default_rng(60)
    for _ in range(50):
        n = random_isotropic_plane(rng)
        y1, y2 = dual_isotropic_basis(n)
        assert q_bilinear(n.x1, y1) == pytest.approx(0.5, abs=1e-8)
        assert q_bilinear(n.x2, y2) == pytest.approx(0.5, abs=1e-8)
        assert abs(q_bilinear(n.x1, y2)) < 1e-8
        assert abs(q_bilinear(n.x2, y1)) < 1e-8
        assert abs(q_form(y1)) < 1e-8
        assert abs(q_form(y2)) < 1e-8
        assert abs(q_bilinear(y1, y2)) < 1e-8


def test_four_idempotents_algebra():
    import itertools

    rng = np.random.default_rng(61)
    planes = [isotropic_plane(X1, X2)] + [random_isotropic_plane(rng) for _ in range(20)]
    for n in planes:
        rs = four_idempotents(n)
        assert np.max(np.abs(sum(rs) - I4)) < 1e-8
        for r in rs:
            assert np.max(np.abs(r @ r - r)) < 1e-8
            assert np.trace(r) == pytest.approx(1.0, abs=1e-8)
        for ra, rb in itertools.combinations(rs, 2):
            assert np.max(np.abs(ra @ rb)) < 1e-8
            assert np.max(np.abs(rb @ ra)) < 1e-8


def test_four_idempotents_ill_conditioned_basis():
    import itertools

    rng = np.random.default_rng(63)
    for _ in range(10):
        n = random_isotropic_plane(rng)
        # a basis of the same plane with condition number about 1e7
        x2 = n.x1 + 1e-7 * n.x2
        assert np.linalg.cond(np.stack([n.x1, x2], axis=1)) >= 1e6
        rs = four_idempotents(IsotropicPlaneE(n.x1, x2))
        for ra, rb in itertools.combinations(rs, 2):
            assert np.max(np.abs(ra @ rb)) <= 1e-14
        line = plane_to_spinor_line(n)
        img = image_basis(rs[0], 1)
        overlap = abs(np.vdot(img[:, 0], line.rep)) / np.linalg.norm(line.rep)
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_dual_basis_ill_conditioned_basis():
    # Gram-Schmidt must keep q orthonormal: with q1.q2 of order eps kappa,
    # the pairings would err by eps kappa^2, about 1e-8 already at 1e3
    rng = np.random.default_rng(63)
    for _ in range(10):
        n = random_isotropic_plane(rng)
        for eps in (1e-3, 10 ** -3.5):
            x2 = n.x1 + eps * n.x2
            assert np.linalg.cond(np.stack([n.x1, x2], axis=1)) >= 0.1 / eps
            y1, y2 = dual_isotropic_basis(IsotropicPlaneE(n.x1, x2))
            pairs = [[q_bilinear(x, y) for y in (y1, y2)] for x in (n.x1, x2)]
            assert np.max(np.abs(np.array(pairs) - np.eye(2) / 2)) <= 1e-10
            assert max(abs(q_form(y1)), abs(q_form(y2)), abs(q_bilinear(y1, y2))) < 1e-8
        # at kappa about 1e7 |y| is about 1e6 / |x|, and rounding alone
        # leaves the nullities far above the gate: it raises
        with pytest.raises(RankFailure, match="pairing checks"):
            dual_isotropic_basis(IsotropicPlaneE(n.x1, n.x1 + 1e-7 * n.x2))


def test_first_idempotent_image_is_plane_line():
    rng = np.random.default_rng(62)
    for _ in range(20):
        n = random_isotropic_plane(rng)
        r1 = four_idempotents(n)[0]
        line = plane_to_spinor_line(n)
        img = image_basis(r1, 1)
        overlap = abs(np.vdot(img[:, 0], line.rep)) / np.linalg.norm(line.rep)
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_image_basis_asserts_dimension():
    with pytest.raises(RankFailure):
        image_basis(np.eye(4), 2)
    b = image_basis(np.diag([3.0, 2, 0, 0]), 2)
    assert b.shape == (4, 2)


def test_same_span_basics():
    a = np.stack([E6[0], E6[1]], axis=1)
    b = np.stack([E6[0] + E6[1], E6[0] - E6[1]], axis=1)
    c = np.stack([E6[0], E6[2]], axis=1)
    assert same_span(a, b)
    assert not same_span(a, c)
    assert not same_span(a, np.eye(6))
    # a dependent pair spans no plane, so it matches nothing, itself included
    line = np.stack([E6[0], 2.0 * E6[0]], axis=1)
    assert not same_span(line, line)
    assert not same_span(np.zeros((6, 2)), np.zeros((6, 2)))
    with pytest.raises(ValueError, match="column pairs"):
        same_span(np.eye(6)[:, :3], np.eye(6)[:, :3])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_raises(bad):
    x = np.array([bad, 0, 0, 0, 1, 1])
    v = np.array([bad, 1, -1, 0], dtype=complex)
    calls = [
        lambda: projectivize(x),
        lambda: partner_null_vector(x),
        lambda: null_to_spinor_plane(x),
        lambda: isotropic_plane(x, X2),
        lambda: spinor_line_to_plane(v),
        lambda: plane_from_spinor_plane(SpinorPlane(v, v)),
    ]
    for call in calls:
        with pytest.raises(InvalidEntity):
            call()


# Above sqrt(DBL_MAX) ~ 1.34e154 a squared norm overflows, and from about
# 1e77 the Pluecker norm of X(x)'s columns does.  The projective gates
# divide such inputs by a power of two, which keeps every output bit.
X0 = np.array([0.3, 0.4, 0.0, 0.5, 0.0, 0.0])
V0 = np.array([0.6, 0.8j, -0.28 + 0.96j, 0.0])  # |v0|^2 + |v1|^2 = |v2|^2 + |v3|^2 = 1


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_huge_inputs_are_answered_as_their_class(scale):
    assert np.array_equal(spinor_line_to_plane([scale, 0, scale, 0]).x1,
                          spinor_line_to_plane([1, 0, 1, 0]).x1)
    plane = null_to_spinor_plane([scale, 0, 0, scale, 0, 0])
    assert np.allclose(plane.b1, null_to_spinor_plane(X1).b1, atol=1e-15)
    assert projectivize([scale, 0, 0, scale, 0, 0]) == projectivize(X1)


@pytest.mark.parametrize("power", [200, 300, 600, 1000])
def test_power_of_two_rescaling_keeps_every_output_bit(power):
    v, s = V0, 2.0 ** power
    for a, b in ((spinor_line_to_plane(v * s), spinor_line_to_plane(v)),
                 (null_to_spinor_plane(X0 * s), null_to_spinor_plane(X0))):
        assert all(np.array_equal(p, q) for p, q in zip(vars(a).values(), vars(b).values()))
    assert np.array_equal(spinor_line(v * s).rep, spinor_line(v).rep)
    assert np.array_equal(projectivize(X0 * s).rep, projectivize(X0).rep)
    for p, q in zip(idempotent_pair(X0 * s), idempotent_pair(X0)):
        assert np.array_equal(p, q)
    assert np.array_equal(partner_null_vector(X0 * s), partner_null_vector(X0) / s)


@pytest.mark.parametrize("scale", [1e50, 1e77, 7.1e153, 1e155, 1e200, 2.0 ** 1000])
def test_huge_plane_bases_give_the_line_of_the_plane_at_scale_one(scale):
    # the composite overflows in its wedges from about 1e50 and the gate's
    # norms from about 1e154 (at 7.1e153 each row's squared norm, about
    # 1.0e308, is finite, and only their sum would overflow); each row is
    # rescaled on its own inside the kernels, and the plane keeps the
    # caller's vectors
    plane = isotropic_plane(scale * X1, scale * X2)
    assert np.array_equal(plane.x1, scale * X1) and np.array_equal(plane.x2, scale * X2)
    assert np.array_equal(plane_to_spinor_line(plane).rep,
                          plane_to_spinor_line(isotropic_plane(X1, X2)).rep)


@pytest.mark.parametrize("power", [170, 300, 600, 1000])
def test_power_of_two_plane_bases_keep_every_line_bit(power):
    rng = np.random.default_rng(387)
    s = 2.0 ** power
    for x1, x2 in random_isotropic_plane(rng, 8):
        want = plane_to_spinor_line(isotropic_plane(x1, x2)).rep
        assert np.array_equal(plane_to_spinor_line(isotropic_plane(s * x1, s * x2)).rep, want)
        assert np.array_equal(plane_to_spinor_line(IsotropicPlaneE(s * x1, x2)).rep, want)


def test_plane_gate_verdicts_do_not_depend_on_the_scale_of_one_row():
    # each pairing (x_i, x_j) is judged against tol |x_i| |x_j| and each row
    # against tol on its own, so neither scaling one row nor rescaling it
    # past HUGE_NORM2 flips a verdict
    plane = random_isotropic_plane(np.random.default_rng(5))
    x1, x2 = plane.x1, plane.x2
    bent = x2 + 1e-6 * np.eye(6)[0]
    for power in (-20, 0, 23, 100, 240, 250, 260, 500, 1000):
        s = 2.0 ** power
        for a, b in ((s * x1, x2), (x1, s * x2)):
            assert np.array_equal(isotropic_plane(a, b).x1, a)
        for a, b in ((s * x1, bent), (bent, s * x1), (x1, s * bent)):
            with pytest.raises(NotNull, match="is not totally isotropic"):
                isotropic_plane(a, b)
        with pytest.raises(ZeroVector, match="needs nonzero basis vectors"):
            isotropic_plane(2.0 ** -40 * x1, s * x2)


def test_huge_rows_of_a_stack_are_rescaled_alone():
    x = np.stack([X0, X0 * 2.0 ** 1000, X1])
    gated = _null_gate(x, 1e-9)
    assert np.array_equal(gated[[0, 2]], x[[0, 2]])
    assert np.array_equal(gated[1], X0)  # its largest entry, 0.5, is in [0.5, 1)
    v = np.stack([V0 * 2.0 ** 900, V0])
    gated = _isotropic_gate(v, 1e-9)
    assert np.array_equal(gated, np.stack([V0, V0]))


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_huge_non_null_inputs_are_refused_as_such(scale):
    with pytest.raises(NotNull):
        null_to_spinor_plane([scale, 0, 0, 0.1 * scale, 0, 0])
    with pytest.raises(NotIsotropicSpinor):
        spinor_line_to_plane([scale, 0, 0.1 * scale, 0])
