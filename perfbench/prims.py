"""Per-call micro-timings of the primitives, each checked once against an
independent oracle before it is timed."""

from __future__ import annotations

import itertools
import statistics
import timeit

import numpy as np

from spin42 import clifford, exterior, isotropic, liesphere, sampling, spin
from spin42.clifford import GAMMA, SIGMA

Q_DIAG = np.array([1.0, 1.0, 1.0, -1.0, 1.0, -1.0])
G4 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
REPEATS = 5
TARGET_REPEAT_S = 0.02  # each timeit repeat runs for about this long


def _levi_civita() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[a] > perm[b] for a in range(4) for b in range(a + 1, 4))
        eps[perm] = (-1) ** inversions
    return eps


def _close(a, b, tol=1e-9) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b))))
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= tol * scale


def _x_op(x) -> np.ndarray:
    return np.tensordot(x, GAMMA, axes=(0, 0))


def cases(seed: int):
    """(name, zero-argument call, oracle verdict on that call's result)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=6)
    q = float(x @ (Q_DIAG * x))
    b = exterior.phi(x)
    s = sampling.random_spin_element(rng)
    m = s.m
    null = sampling.random_null_vec6(rng)
    plane = sampling.random_isotropic_plane(rng)
    sphere = sampling.random_sphere(rng)

    def phi_ok(r):
        # antisymmetric, and the Frobenius-orthogonal generators
        # (<Sigma_a, Sigma_b> = 4 delta_ab) give back the coordinates
        coords = np.real(np.einsum("ij,aij->a", r.comps, np.conj(SIGMA))) * np.sqrt(2.0) / 4.0
        return _close(coords, x) and _close(r.comps, -r.comps.T)

    # wedge(phi(x), phi(x)) = -Q(x) e1^e2^e3^e4
    vol = -q * _levi_civita()
    # the action conjugates the vector's operator: X(x') = M X(x) conj(M)^-1
    acted = m @ _x_op(x) @ np.linalg.inv(np.conj(m))
    # closed-form covering matrix L[a,b] = Re tr(M Sigma_b M^T G Gamma_a^dagger)/4
    cover = np.real(np.einsum("ij,bjk,lk,lm,aim->ab", m, SIGMA, m, G4, np.conj(GAMMA))) / 4.0
    # Lie-sphere coordinates of a sphere, scaled so the first
    # largest-magnitude slot is +1
    c, r = sphere.center, sphere.signed_radius
    raw = np.array([*c, r, -(1.0 - c @ c + r * r) / 2.0, (1.0 + c @ c - r * r) / 2.0])
    rep = raw / raw[int(np.argmax(np.abs(raw)))]

    def kernel_ok(p):
        # a rank-2, G-isotropic plane annihilated by the operator of x
        basis = np.stack([p.b1, p.b2])
        return (np.linalg.matrix_rank(basis, tol=1e-9) == 2
                and _close(basis @ G4 @ np.conj(basis).T, np.zeros((2, 2)))
                and _close(_x_op(null / np.linalg.norm(null)) @ np.conj(basis).T,
                           np.zeros((4, 2))))

    def line_ok(line):
        # the operators of both plane vectors annihilate the line
        v = np.conj(line.rep)
        return _close(_x_op(plane.x1) @ v, np.zeros(4)) and _close(_x_op(plane.x2) @ v, np.zeros(4))

    return [
        ("phi", lambda: exterior.phi(x), phi_ok),
        ("hodge_star", lambda: exterior.hodge_star(b), lambda r: _close(r.comps, b.comps)),
        ("wedge", lambda: exterior.wedge(b, b), lambda r: _close(r.comps, vol)),
        ("det4", lambda: clifford.det4(m), lambda r: _close(r, np.linalg.det(m))),
        ("np_linalg_det", lambda: np.linalg.det(m), lambda r: _close(r, 1.0, 1e-8)),
        ("vector_action", lambda: spin.vector_action(s, x),
         lambda r: _close(_x_op(r), acted)),
        ("covering_matrix", lambda: spin.covering_matrix(s), lambda r: _close(r.l, cover)),
        ("null_to_spinor_plane", lambda: isotropic.null_to_spinor_plane(null), kernel_ok),
        ("plane_to_spinor_line", lambda: isotropic.plane_to_spinor_line(plane), line_ok),
        ("lie_embed", lambda: liesphere.lie_embed(sphere), lambda r: _close(r.rep, rep, 1e-12)),
    ]


def time_primitives(seed: int) -> tuple[dict, list[str]]:
    """Median per-call time in microseconds of REPEATS timeit repeats for
    each primitive, and the names whose result failed its oracle."""
    out = {}
    failed = []
    for name, call, oracle in cases(seed):
        if not oracle(call()):
            failed.append(name)
        timer = timeit.Timer(call)
        per_call = timer.timeit(1)
        number = max(1, int(TARGET_REPEAT_S / max(per_call, 1e-7)))
        times = timer.repeat(repeat=REPEATS, number=number)
        out[name] = statistics.median(times) / number * 1e6
    return out, failed
