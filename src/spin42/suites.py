"""Named property suites behind the `verify` command.

Each suite draws from a seeded generator, runs its identity checks, and
reports the worst deviation; boolean checks contribute 0 or 1.  Every
float suite draws its samples as blocks whose row i is sample i, from the
same sampler calls in the same order as a per-sample loop would make, and
runs each named check once on the whole block through the array kernels.
The `clifford` suite contains only checks that are exact on the
{0,+-1,+-i} table lattice, so it passes with tolerance 0 literally;
everything float-bearing lives in the other suites.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import errata, sampling
from .clifford import (
    GAMMA,
    SIGMA,
    antilinear_adjoint,
    check_clifford_relations,
    check_sigma_selfduality,
    det_identity,
    gamma,
    reality_residual,
)
from .exterior import (
    _decomposable,
    _herm,
    _phi,
    _phi_inverse,
    _star,
    _wedge,
    basis_bivector,
    basis_kvector,
    wedge,
)
from .forms import (
    DEFAULT_TOL,
    G4,
    Q6,
    Q_DIAG,
    RESIDUAL_FLOOR,
    _canon,
    _g,
    _null_gate,
    _projective,
    _q,
    _qb,
)
from .isotropic import (
    _four_idempotents,
    _idempotents,
    _line_plane,
    _partner,
    _plane_line,
    _spinor_plane,
    _spinor_plane_class,
    image_basis,
    same_span,
)
from .liesphere import (
    INVERSION_MATRIX,
    PLANE,
    POINT,
    SPHERE,
    Infinity,
    Point,
    Sphere,
    _contact,
    _extract,
    _inversion,
    _plane_rep,
    _sphere_rep,
    conformal_inversion,
    embed_rep,
    fixed_sphere_probe,
    is_at_infinity,
    lie_embed,
    lie_extract,
)
from .spin import (
    SpinElement,
    _covering,
    _members,
    _q_devs,
    _so_plus,
    _vector_action,
    covering_matrix,
)


@dataclass
class SuiteResult:
    suite_name: str
    checks_run: int
    max_deviation: float
    passed: bool
    errata_notes: list = field(default_factory=list)


class _Collector:
    def __init__(self):
        self.n = 0
        self.worst = 0.0

    def dev(self, value: float):
        self.bulk(1, value)

    def bulk(self, checks: int, worst: float):
        self.n += checks
        worst = float(worst)
        # max() would drop a NaN that follows a finite value; keep it
        if worst > self.worst or math.isnan(worst):
            self.worst = worst

    def ok(self, flag: bool):
        self.dev(0.0 if flag else 1.0)

    def result(self, name: str, tol: float, notes=()) -> SuiteResult:
        return SuiteResult(
            suite_name=name,
            checks_run=self.n,
            max_deviation=self.worst,
            passed=self.worst <= tol,
            errata_notes=list(notes),
        )


def _mat_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _kv_devs(k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kv_norm of the difference of grade-k coefficient arrays, per row."""
    return math.sqrt(math.factorial(k)) * np.linalg.norm(a - b, axis=-1)


def suite_clifford(seed: int, count: int, tol: float) -> SuiteResult:
    """Exact lattice identities of the generator tables."""
    c = _Collector()
    rel = check_clifford_relations(tol=tol)
    c.bulk(rel.checks_run, rel.max_deviation)
    for a in range(1, 7):
        g = gamma(a)
        c.dev(_mat_dev(antilinear_adjoint(g).m, -g.m))
        c.dev(_mat_dev(antilinear_adjoint(antilinear_adjoint(g)).m, g.m))
        c.dev(_mat_dev(GAMMA[a - 1], SIGMA[a - 1] @ G4))
        c.dev(reality_residual(np.eye(6)[a - 1]))
        d, q2 = det_identity(np.eye(6)[a - 1])
        c.dev(abs(d - q2))
    sd = check_sigma_selfduality(tol=tol)
    c.bulk(sd.checks_run, sd.max_deviation)
    c.dev(_mat_dev(covering_matrix(SpinElement(-np.eye(4, dtype=complex))).l, np.eye(6)))
    c.dev(_mat_dev(covering_matrix(SpinElement(1j * np.eye(4, dtype=complex))).l, -np.eye(6)))
    return c.result("clifford", tol, errata.notes("clifford"))


# Block samplers: row i of each array is sample i, drawn from exactly the
# draws that a loop of per-sample calls would make, in the same order.


def _selfdual_block(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample i's (x, y), the draws of two rng.normal(size=6) calls."""
    xy = rng.normal(size=(count, 2, 6))
    return xy[:, 0], xy[:, 1]


def _hodge_block(rng, k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample i's grade-k y (the draws of random_kvector(rng, k)), complex
    lambda (two normals) and grade-(4-k) x (random_kvector(rng, 4 - k))."""
    nk = 2 * math.comb(4, k)
    block = rng.normal(size=(n, nk + 2 + 2 * math.comb(4, 4 - k)))
    return (block[:, :nk].view(complex), block[:, nk:nk + 2].view(complex)[:, 0],
            block[:, nk + 2:].view(complex))


def _spin_block(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n group elements from random_spin_element, stacked (n, 4, 4), then
    the n vectors they act on (n, 6), drawn after all the elements."""
    m = np.stack([sampling.random_spin_element(rng).m for _ in range(n)])
    return m, rng.normal(size=(n, 6))


def _exterior_block(rng, count: int):
    """The draws of the exterior suite's per-sample loops, in their order:
    the wedge samples (grades p, q, r and grade-p, q, r coefficients a, b,
    d) grouped as {(p, q, r): (a, b, d) stacks}, the Hermitian samples
    (grade k, two grade-k coefficients) as {k: (u, v) stacks}, then the
    null and the non-null vectors as (n, 6) stacks."""
    n = max(10, count // 10)
    wedges = []
    for _ in range(n):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 4 - p + 1))
        a = sampling.random_kvector(rng, p).coeffs
        b = sampling.random_kvector(rng, q).coeffs
        r = int(rng.integers(0, 4 - p - q + 1))
        wedges.append(((p, q, r), a, b, sampling.random_kvector(rng, r).coeffs))
    herms = []
    for _ in range(n):
        k = int(rng.integers(0, 5))
        herms.append((k, sampling.random_kvector(rng, k).coeffs,
                      sampling.random_kvector(rng, k).coeffs))
    half = max(1, count // 2)
    null = np.stack([sampling.random_null_vec6(rng) for _ in range(half)])
    nonnull = np.stack([sampling.random_nonnull_vec6(rng) for _ in range(half)])
    return _grouped(wedges), _grouped(herms), null, nonnull


def _grouped(samples) -> dict:
    """Samples (key, *arrays) as {key: stacks of each array}, keys in
    order of first appearance."""
    groups = {}
    for key, *arrays in samples:
        groups.setdefault(key, []).append(arrays)
    return {key: tuple(np.stack(f) for f in zip(*rows)) for key, rows in groups.items()}


def _isotropic_block(rng, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of the isotropic suite's per-sample loops, in their
    order: null vectors (n, 6), isotropic plane bases (m, 2, 6) and
    isotropic spinors (m, 4)."""
    m = max(4, count // 4)
    x = np.stack([sampling.random_null_vec6(rng) for _ in range(max(4, count // 2))])
    planes = [sampling.random_isotropic_plane(rng) for _ in range(m)]
    v = np.stack([sampling.random_isotropic_spinor(rng) for _ in range(m)])
    return x, np.array([[n.x1, n.x2] for n in planes]), v


def _sphere_arrays(spheres) -> tuple[np.ndarray, np.ndarray]:
    """The centers (n, 3) and signed radii (n,) of n spheres."""
    return (np.stack([s.center for s in spheres]),
            np.array([s.signed_radius for s in spheres]))


def _liesphere_block(rng, count: int):
    """The draws of the liesphere suite's per-sample loops, in their
    order: points (n, 3); spheres and planes as (centers, radii) and
    (normals, offsets); the spheres to invert; the one plane checked at
    infinity; and the contact pairs as (centers1, radii1, centers2,
    radii2, tangent)."""
    n = max(4, count // 4)
    points = np.stack([sampling.random_point(rng).p for _ in range(n)])
    spheres = _sphere_arrays([sampling.random_sphere(rng) for _ in range(n)])
    drawn = [sampling.random_plane(rng) for _ in range(n)]
    planes = (np.stack([h.normal for h in drawn]), np.array([h.offset for h in drawn]))
    inverted = _sphere_arrays([sampling.random_sphere(rng) for _ in range(max(4, count // 2))])
    far_plane = sampling.random_plane(rng)
    s1, s2, tangent = zip(*(_contact_pair(rng) for _ in range(max(8, count))))
    contacts = (*_sphere_arrays(s1), *_sphere_arrays(s2), np.array(tangent))
    return points, spheres, planes, inverted, far_plane, contacts


def suite_selfdual(seed: int, count: int, tol: float) -> SuiteResult:
    """Basis bivectors: star-fixedness, the (negative) Gram identity, and
    the embedding/extraction of 6-vectors.  The basis checks are table
    products over the six E_alpha; each sample check runs once on the
    whole block of samples."""
    c = _Collector()
    rng = np.random.default_rng(seed)
    es = [basis_bivector(a) for a in range(1, 7)]
    e = np.stack([kv.coeffs for kv in es])
    comps = np.stack([kv.comps for kv in es])
    c.bulk(6, np.max(_kv_devs(2, _star(2, e), e)))
    c.bulk(36, np.max(np.abs(_herm(2, e[:, None], e[None, :]) + np.diag(Q_DIAG))))
    frob = np.einsum("aij,bij->ab", comps, np.conj(comps))
    c.bulk(36, np.max(np.abs(frob - 2.0 * np.eye(6))))
    x, y = _selfdual_block(rng, count)
    b = _phi(x)
    c.bulk(count, np.max(np.abs(_phi_inverse(b, DEFAULT_TOL) - x)))
    c.bulk(count, np.max(_kv_devs(2, _star(2, b), b)))
    c.bulk(count, np.max(_kv_devs(2, _star(2, 1j * b), -1j * b)))
    c.bulk(count, np.max(np.abs(_herm(2, b, _phi(y)) + np.sum(x * Q_DIAG * y, axis=-1))))
    return c.result("selfdual", tol, errata.notes("selfdual"))


def suite_exterior(seed: int, count: int, tol: float) -> SuiteResult:
    """Wedge algebra and the decomposability criterion for null vectors;
    the random-grade checks run once per grade combination on its stack
    of samples."""
    c = _Collector()
    wedges, herms, null, nonnull = _exterior_block(np.random.default_rng(seed), count)
    for (p, q, r), (a, b, d) in wedges.items():
        ab = _wedge(p, q, a, b)
        c.bulk(len(a), np.max(_kv_devs(p + q, ab, (-1.0) ** (p * q) * _wedge(q, p, b, a))))
        c.bulk(len(a), np.max(_kv_devs(p + q + r, _wedge(p + q, r, ab, d),
                                       _wedge(p, q + r, a, _wedge(q, r, b, d)))))
    for k, (u, v) in herms.items():
        c.bulk(len(u), np.max(abs(_herm(k, u, v) - np.conj(_herm(k, v, u)))))
    b = _phi(null)
    c.bulk(len(b), np.any(~_decomposable(b, DEFAULT_TOL)))
    # wedge(phi(x), phi(x)) = -Q(x) e1^e2^e3^e4
    c.bulk(len(b), np.max(_kv_devs(4, _wedge(2, 2, b, b), -_q(null)[:, None])))
    c.bulk(len(nonnull), np.any(_decomposable(_phi(nonnull), DEFAULT_TOL)))
    e12 = basis_kvector((1, 2))
    c.dev(abs(e12.comps[0, 1] - 1.0) + abs(e12.comps[1, 0] + 1.0))
    c.dev(_kv_devs(2, wedge(basis_kvector((1,)), basis_kvector((1,))).coeffs, 0.0))
    c.dev(abs(wedge(e12, basis_kvector((3, 4))).comps[0, 1, 2, 3] - 1.0))
    return c.result("exterior", tol)


def suite_hodge(seed: int, count: int, tol: float) -> SuiteResult:
    """The antilinear star: defining relation, square law, antilinearity,
    and the pairing symmetry.  The defining relation is checked on every
    pair of grade-k monomials as one table, e_I ^ star(e_J) against
    (e_I | e_J) e; each sample check runs once per grade on the whole
    block of samples."""
    c = _Collector()
    rng = np.random.default_rng(seed)
    for k in range(5):
        eye = np.eye(math.comb(4, k), dtype=complex)
        lhs = _wedge(k, 4 - k, eye[:, None], _star(k, eye)[None, :])
        rhs = _herm(k, eye[:, None], eye[None, :])[..., None]
        c.bulk(eye.size, np.max(_kv_devs(4, lhs, rhs)))
    for k in range(5):
        sign = (-1.0) ** (k * (4 - k))
        n = max(5, count // 20)
        y, lam, x = _hodge_block(rng, k, n)
        lam = lam[:, None]
        sy = _star(k, y)
        c.bulk(n, np.max(_kv_devs(k, _star(4 - k, sy), sign * y)))
        c.bulk(n, np.max(_kv_devs(4 - k, _star(k, lam * y), np.conj(lam) * sy)))
        c.bulk(n, np.max(np.abs(_herm(4 - k, x, sy) - sign * _herm(k, y, _star(4 - k, x)))))
    return c.result("hodge", tol)


def suite_spin(seed: int, count: int, tol: float) -> SuiteResult:
    """Group membership, the covering homomorphism, and its special
    values; each check runs once on the whole stack of elements."""
    c = _Collector()
    rng = np.random.default_rng(seed)
    n = max(4, count // 4)
    m, x = _spin_block(rng, n)
    c.bulk(n, np.any(~_members(m, RESIDUAL_FLOOR)))
    c.bulk(n, np.max(np.abs(m @ G4 @ m.mT.conj() - G4)))
    qx = np.sum(x * Q_DIAG * x, axis=-1)
    image = _vector_action(m, x, RESIDUAL_FLOOR)
    c.bulk(n, np.max(np.abs(np.sum(image * Q_DIAG * image, axis=-1) - qx)))
    l = _covering(m, RESIDUAL_FLOOR)
    c.bulk(n, np.any(~_so_plus(l, RESIDUAL_FLOOR)))
    c.bulk(n, np.max(_q_devs(l)))
    c.bulk(n, np.max(np.abs(_covering(-m, RESIDUAL_FLOOR) - l)))
    half = n // 2
    products = _covering(m[0:2 * half:2] @ m[1:2 * half:2], RESIDUAL_FLOOR)
    c.bulk(half, np.max(np.abs(products - l[0:2 * half:2] @ l[1:2 * half:2])))
    eye = np.eye(4, dtype=complex)
    special = _covering(np.stack([eye, -eye, 1j * eye]), RESIDUAL_FLOOR)
    c.bulk(3, np.max(np.abs(special - np.array([1.0, 1.0, -1.0])[:, None, None] * np.eye(6))))
    return c.result("spin", tol, errata.notes("spin"))


def suite_isotropic(seed: int, count: int, tol: float) -> SuiteResult:
    """Null-line/spinor-plane and plane/line correspondences with their
    idempotent cross-checks, each run once on the whole block."""
    c = _Collector()
    x, planes, v = _isotropic_block(np.random.default_rng(seed), count)
    eye = np.eye(4)
    n = len(x)
    # the input gate of null_to_spinor_plane and partner_null_vector
    x = _null_gate(x, DEFAULT_TOL)
    kernel = _spinor_plane(x, DEFAULT_TOL)
    c.bulk(4 * n, np.max(abs(_g(kernel[:, :, None], kernel[:, None, :]))))
    y = _partner(x)
    c.bulk(n, np.max(abs(_qb(x, y) - 0.5)))
    c.bulk(n, np.max(abs(_q(y))))
    p, q = _idempotents(x, y)
    c.bulk(n, np.max(abs(p @ p - p)))
    c.bulk(n, np.max(abs(q @ q - q)))
    c.bulk(n, np.max(abs(p + q - eye)))
    c.bulk(n, np.max(abs(np.trace(p, axis1=-2, axis2=-1) - 2.0)))
    c.bulk(n, np.any(~same_span(image_basis(p, 2), kernel.mT)))
    c.bulk(n, np.max(abs(_spinor_plane_class(kernel, DEFAULT_TOL) - _canon(x))))

    m = len(planes)
    x1, x2 = planes[:, 0], planes[:, 1]
    line = _plane_line(x1, x2, DEFAULT_TOL)
    c.bulk(m, np.max(abs(_g(line, line))))
    c.bulk(m, np.any(~same_span(planes.mT, np.stack(_line_plane(line, DEFAULT_TOL), axis=-1))))
    r = np.stack(_four_idempotents(x1, x2, DEFAULT_TOL))
    c.bulk(m, np.max(abs(r.sum(axis=0) - eye)))
    for ra, rb in itertools.combinations(r, 2):
        c.bulk(m, np.max(abs(ra @ rb)))
    c.bulk(4 * m, np.max(abs(np.trace(r, axis1=-2, axis2=-1) - 1.0)))

    line = _plane_line(*_line_plane(v, DEFAULT_TOL), DEFAULT_TOL)
    overlap = abs(np.vecdot(line, v)) / np.sqrt(np.vecdot(line, line).real * np.vecdot(v, v).real)
    c.bulk(len(v), np.max(abs(overlap - 1.0)))
    return c.result("isotropic", tol, errata.notes("isotropic"))


def suite_liesphere(seed: int, count: int, tol: float) -> SuiteResult:
    """Null embeddings, extraction roundtrips, inversion, contact; the
    sampled entities of each kind are checked as one stack."""
    c = _Collector()
    points, spheres, planes, inverted, far_plane, contacts = _liesphere_block(
        np.random.default_rng(seed), count)
    # (kind, raw embeddings, true coordinates, the extracted slots holding them)
    kinds = (
        (POINT, _sphere_rep(points, 0.0), points, [0, 1, 2]),
        (SPHERE, _sphere_rep(*spheres), np.column_stack(spheres), [0, 1, 2, 3]),
        (PLANE, _plane_rep(*planes), np.column_stack(planes), [0, 1, 2, 4]),
    )
    for kind, raw, truth, slots in kinds:
        n = len(raw)
        c.bulk(n, np.max(abs(_q(raw)) / np.maximum(1.0, np.vecdot(raw, raw))))
        found, back = _extract(_projective(raw, DEFAULT_TOL), DEFAULT_TOL)
        c.bulk(n, np.any(found != kind))
        c.bulk(n, np.max(abs(back[:, slots] - truth)))
    c.dev(abs(_q(embed_rep(Infinity()))))
    c.ok(isinstance(lie_extract(lie_embed(Infinity())), Infinity))
    cls = _projective(_sphere_rep(*inverted), DEFAULT_TOL)
    c.bulk(len(cls), np.max(abs(_inversion(_inversion(cls)) - cls)))
    c.dev(_mat_dev(INVERSION_MATRIX @ Q6 @ INVERSION_MATRIX.T, Q6))
    origin = lie_embed(Point(np.zeros(3)))
    c.dev(float(np.max(np.abs(conformal_inversion(lie_embed(Infinity())).rep
                              - origin.rep))))
    c.ok(is_at_infinity(lie_embed(Infinity())))
    c.ok(is_at_infinity(lie_embed(far_plane)))
    c.ok(not is_at_infinity(lie_embed(Point(np.array([1.0, 1.0, 1.0])))))
    c1, r1, c2, r2, tangent = contacts
    lie = _contact(_sphere_rep(c1, r1), _sphere_rep(c2, r2), DEFAULT_TOL)
    c.bulk(len(lie), np.any(lie != tangent))
    probe = fixed_sphere_probe(min(50, max(1, count // 4)),
                               rng=np.random.default_rng(seed + 1))
    c.dev(probe.fixed_sphere_max_drift)
    c.ok(probe.missing_confirmed)
    return c.result("liesphere", tol, errata.notes("liesphere"))


def _contact_pair(rng):
    """A sphere pair that is either tangent by construction or kept a
    safe margin away from tangency, plus the Euclidean oracle verdict."""
    s1 = sampling.random_sphere(rng)
    tangent = rng.random() < 0.5
    while True:
        if tangent:
            direction = sampling.unit_vec3(rng)
            r2 = rng.uniform(0.2, 3.0) * float(rng.choice([-1.0, 1.0]))
            s2 = Sphere(s1.center + (s1.signed_radius - r2) * direction, r2)
        else:
            s2 = sampling.random_sphere(rng)
        d2 = float(np.linalg.norm(s1.center - s2.center) ** 2)
        gap = d2 - (s1.signed_radius - s2.signed_radius) ** 2
        if tangent or abs(gap) > 0.05:
            return s1, s2, abs(gap) <= 1e-9 * max(1.0, d2)


SUITES = {
    "clifford": suite_clifford,
    "selfdual": suite_selfdual,
    "exterior": suite_exterior,
    "hodge": suite_hodge,
    "spin": suite_spin,
    "isotropic": suite_isotropic,
    "liesphere": suite_liesphere,
}

SUITE_ORDER = list(SUITES)


def run_suites(names, seed: int, count: int, tol: float):
    """Run the named suites (or all of them) and return the results in a
    fixed order."""
    if names == "all" or names == ["all"]:
        names = SUITE_ORDER
    elif isinstance(names, str):
        names = [names]
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        results.append(SUITES[name](seed, count, tol))
    return results
