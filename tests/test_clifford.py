import numpy as np
import pytest

from spin42.clifford import (
    EPS4,
    GAMMA,
    SIGMA,
    AntilinearOp,
    _selfdual_tables,
    antilinear_adjoint,
    apply,
    check_clifford_relations,
    check_sigma_selfduality,
    check_x_reality,
    compose,
    det4,
    det_identity,
    gamma,
    reality_residual,
    vector_from_op,
    x_matrix,
)
from spin42.errors import IndexOutOfRange, NotInGammaSpan
from spin42.forms import G4, Q_DIAG, g_form, q_form

from oracles import GAMMA_TABLE

E6 = np.eye(6)


def test_table_shapes_and_lattice_entries():
    assert SIGMA.shape == GAMMA.shape == (6, 4, 4)
    allowed = {0, 1, -1, 1j, -1j}
    for t in (SIGMA, GAMMA):
        assert {complex(v) for v in t.reshape(-1)} <= allowed


def test_sigma_antisymmetric_exact():
    for a in range(6):
        assert np.array_equal(SIGMA[a].T, -SIGMA[a])


def test_gamma_is_sigma_times_g():
    for a in range(6):
        assert np.array_equal(GAMMA[a], SIGMA[a] @ G4)


def test_derived_gamma_is_the_typed_table():
    # GAMMA = SIGMA G_DIAG, the paper's table entry for entry, and read-only
    assert np.array_equal(GAMMA, GAMMA_TABLE)
    assert not GAMMA.flags.writeable


def test_gamma_two_and_six_printed_entries():
    g2 = gamma(2).m
    expected2 = np.zeros((4, 4), dtype=complex)
    expected2[0, 2] = expected2[1, 3] = expected2[2, 0] = expected2[3, 1] = 1
    assert np.array_equal(g2, expected2)
    g6 = gamma(6).m
    expected6 = np.zeros((4, 4), dtype=complex)
    expected6[0, 1], expected6[1, 0] = 1, -1
    expected6[2, 3], expected6[3, 2] = -1, 1
    assert np.array_equal(g6, expected6)


def test_gamma_index_range():
    with pytest.raises(IndexOutOfRange):
        gamma(0)
    with pytest.raises(IndexOutOfRange):
        gamma(7)


def test_apply_on_basis_spinors():
    assert np.array_equal(apply(gamma(2), [1, 0, 0, 0]), [0, 0, 1, 0])
    # the conjugation matters: gamma_1 applied to (i,0,0,0)
    out = apply(gamma(1), [1j, 0, 0, 0])
    assert np.array_equal(out, [0, 0, 1, 0])
    assert np.array_equal(apply(gamma(3), np.zeros(4)), np.zeros(4))


def test_apply_is_conjugate_linear():
    rng = np.random.default_rng(5)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    lam = 1.5 - 0.5j
    a = gamma(3)
    assert np.allclose(apply(a, lam * v), np.conj(lam) * apply(a, v), atol=1e-14)


def test_compose_squares_and_anticommutator():
    assert np.array_equal(compose(gamma(1), gamma(1)).m, np.eye(4))
    assert np.array_equal(compose(gamma(4), gamma(4)).m, -np.eye(4))
    anti = compose(gamma(1), gamma(2)).m + compose(gamma(2), gamma(1)).m
    assert np.array_equal(anti, np.zeros((4, 4)))


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(6)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    a, b = gamma(2), gamma(5)
    assert np.allclose(compose(a, b).m @ v, apply(a, apply(b, v)), atol=1e-14)


def test_adjoint_defining_identity():
    # (A v | w) = (A* w | v) for all v, w
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = AntilinearOp(m)
    astar = antilinear_adjoint(a)
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert g_form(apply(a, v), w) == pytest.approx(
            g_form(apply(astar, w), v), abs=1e-12
        )


def test_adjoint_examples_and_involution():
    for a in range(1, 7):
        assert np.array_equal(antilinear_adjoint(gamma(a)).m, -gamma(a).m)
    assert np.array_equal(antilinear_adjoint(AntilinearOp(G4)).m, G4)
    zero = AntilinearOp(np.zeros((4, 4), dtype=complex))
    assert np.array_equal(antilinear_adjoint(zero).m, zero.m)
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    twice = antilinear_adjoint(antilinear_adjoint(AntilinearOp(m)))
    assert np.array_equal(twice.m, m)


def test_x_matrix_display_entries():
    x = x_matrix(E6[3]).m  # pure fourth coordinate
    assert x[0, 1] == 1j and x[2, 3] == 1j
    assert np.array_equal(x_matrix(E6[0]).m, gamma(1).m)
    assert np.array_equal(x_matrix(np.zeros(6)).m, np.zeros((4, 4)))
    # full display for a generic integer vector
    v = np.array([1.0, 2, 3, 4, 5, 6])
    xm = x_matrix(v).m
    expected = np.array([
        [0, 4j + 6, 1j + 2, -3j - 5],
        [-4j - 6, 0, -3j + 5, -1j + 2],
        [1j + 2, -3j + 5, 0, 4j - 6],
        [-3j - 5, -1j + 2, -4j + 6, 0],
    ])
    assert np.array_equal(xm, expected)


def test_x_matrix_is_anti_self_adjoint():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.normal(size=6)
        a = x_matrix(x)
        assert np.max(np.abs(antilinear_adjoint(a).m + a.m)) < 1e-12


def test_vector_from_op_roundtrip():
    assert np.array_equal(vector_from_op(gamma(5)), E6[4])
    v = np.array([1.0, 2, 3, 4, 5, 6])
    assert np.array_equal(vector_from_op(x_matrix(v)), v)
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.normal(size=6)
        assert np.max(np.abs(vector_from_op(x_matrix(x)) - x)) < 1e-12


def test_vector_from_op_rejects_identity():
    with pytest.raises(NotInGammaSpan):
        vector_from_op(AntilinearOp(np.eye(4, dtype=complex)))


def test_vector_from_op_rejects_imaginary_combination():
    with pytest.raises(NotInGammaSpan):
        vector_from_op(AntilinearOp(1j * gamma(1).m))


def test_clifford_relations_report():
    rep = check_clifford_relations(tol=0.0)
    assert rep.passed and rep.max_deviation == 0.0 and rep.checks_run == 36
    corrupted = GAMMA.copy()
    corrupted[0] = 2 * corrupted[0]
    bad = check_clifford_relations(tol=1e-9, gamma_table=corrupted)
    assert not bad.passed and bad.max_deviation >= 2.0
    # a NaN deviation fails the audit instead of vanishing from the maximum
    corrupted = GAMMA.copy()
    corrupted[2, 0, 2] = np.nan
    bad = check_clifford_relations(tol=1e-9, gamma_table=corrupted)
    assert not bad.passed and np.isnan(bad.max_deviation)


def test_sigma_selfduality_exact():
    rep = check_sigma_selfduality(tol=0.0)
    assert rep.passed and rep.max_deviation == 0.0
    for a in range(6):
        assert reality_residual(E6[a]) == 0.0


def test_selfdual_tables_match_the_four_operand_contraction():
    sd, re = _selfdual_tables()
    assert set(np.unique(sd).tolist()) | set(np.unique(re).tolist()) <= {-0.5, 0.0, 0.5}
    ref = 0.5 * np.einsum("ijkl,km,ln,amn->aij", EPS4, G4, G4, SIGMA)
    assert np.array_equal((SIGMA.reshape(6, 16) @ sd.T).reshape(6, 4, 4), ref)
    rng = np.random.default_rng(13)
    for _ in range(20):
        xm = x_matrix(rng.normal(size=6)).m
        ref = 0.5 * np.einsum("imnk,mj,nl,lk->ij", EPS4, G4, G4, xm)
        got = (re @ xm.reshape(16)).reshape(4, 4)
        assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(xm))


def test_x_reality_basis_and_random():
    for a in range(6):
        assert check_x_reality(E6[a], tol=0.0).passed
    rng = np.random.default_rng(11)
    for _ in range(200):
        assert check_x_reality(rng.normal(size=6), tol=1e-12).passed


def test_clifford_square_law():
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = rng.normal(size=6)
        sq = compose(x_matrix(x), x_matrix(x)).m
        assert np.max(np.abs(sq - q_form(x) * np.eye(4))) < 1e-12 * max(
            1.0, abs(q_form(x))
        )


def test_det_identity_values():
    assert det_identity(E6[0]) == (1.0, 1.0)
    assert det_identity([1, 0, 0, 1, 0, 0]) == (0.0, 0.0)
    d, q2 = det_identity(np.ones(6))
    assert q2 == 4.0 and d == pytest.approx(4.0, abs=1e-12)


def test_det_identity_random_and_cross_check():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = rng.normal(size=6)
        d, q2 = det_identity(x)
        assert d == pytest.approx(q2, rel=1e-9, abs=1e-9)
        lu = np.linalg.det(x_matrix(x).m)
        assert abs(lu.imag) < 1e-9
        assert det4(x_matrix(x).m) == pytest.approx(lu, rel=1e-9, abs=1e-9)
