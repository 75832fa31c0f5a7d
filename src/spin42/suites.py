"""Named property suites behind the `verify` command.

Each suite draws from a seeded generator, runs its identity checks, and
reports the worst deviation; boolean checks contribute 0 or 1.  The
`selfdual`, `hodge` and `spin` suites draw their samples as blocks whose
row i is sample i, from the same draws a per-sample loop would make, and
run each named check once on the whole block through the array kernels.
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
    _herm,
    _phi,
    _phi_inverse,
    _star,
    _wedge,
    basis_bivector,
    basis_kvector,
    herm_inner,
    is_decomposable,
    kv_add,
    kv_norm,
    kv_scale,
    phi,
    wedge,
)
from .forms import DEFAULT_TOL, G4, Q6, Q_DIAG, RESIDUAL_FLOOR, _canon, _g, _q, _qb
from .isotropic import (
    four_idempotents,
    idempotent_pair,
    image_basis,
    null_to_spinor_plane,
    partner_null_vector,
    plane_from_spinor_plane,
    plane_to_spinor_line,
    same_span,
    spinor_line_to_plane,
)
from .liesphere import (
    INVERSION_MATRIX,
    Infinity,
    Point,
    Sphere,
    conformal_inversion,
    embed_rep,
    fixed_sphere_probe,
    is_at_infinity,
    lie_embed,
    lie_extract,
    oriented_contact,
)
from .spin import (
    SpinElement,
    _covering,
    _q_devs,
    _so_plus,
    _su22_devs,
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


def _kv_dev(a, b) -> float:
    return kv_norm(kv_add(a, kv_scale(-1.0, b)))


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
    """Wedge algebra and the decomposability criterion for null vectors."""
    c = _Collector()
    rng = np.random.default_rng(seed)
    for _ in range(max(10, count // 10)):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 4 - p + 1))
        a = sampling.random_kvector(rng, p)
        b = sampling.random_kvector(rng, q)
        ab = wedge(a, b)
        ba = wedge(b, a)
        c.dev(_kv_dev(ab, kv_scale((-1.0) ** (p * q), ba)))
        r = int(rng.integers(0, 4 - p - q + 1))
        d = sampling.random_kvector(rng, r)
        c.dev(_kv_dev(wedge(wedge(a, b), d), wedge(a, wedge(b, d))))
    for _ in range(max(10, count // 10)):
        k = int(rng.integers(0, 5))
        u = sampling.random_kvector(rng, k)
        v = sampling.random_kvector(rng, k)
        c.dev(abs(herm_inner(u, v) - np.conj(herm_inner(v, u))))
    half = max(1, count // 2)
    for _ in range(half):
        x = sampling.random_null_vec6(rng)
        c.ok(is_decomposable(phi(x)))
        c.dev(_kv_dev(wedge(phi(x), phi(x)),
                      kv_scale(-_q(x), basis_kvector((1, 2, 3, 4)))))
    for _ in range(half):
        x = sampling.random_nonnull_vec6(rng)
        c.ok(not is_decomposable(phi(x)))
    e12 = basis_kvector((1, 2))
    c.dev(abs(e12.comps[0, 1] - 1.0) + abs(e12.comps[1, 0] + 1.0))
    c.dev(kv_norm(wedge(basis_kvector((1,)), basis_kvector((1,)))))
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
    gdev, ddev = _su22_devs(m)
    c.bulk(n, np.any(~((gdev <= RESIDUAL_FLOOR) & (ddev <= RESIDUAL_FLOOR))))
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
    idempotent cross-checks."""
    c = _Collector()
    rng = np.random.default_rng(seed)
    eye = np.eye(4)
    for _ in range(max(4, count // 2)):
        x = sampling.random_null_vec6(rng)
        plane = null_to_spinor_plane(x)
        for u in (plane.b1, plane.b2):
            for v in (plane.b1, plane.b2):
                c.dev(abs(_g(u, v)))
        y = partner_null_vector(x)
        c.dev(abs(_qb(x, y) - 0.5))
        c.dev(abs(_q(y)))
        p, q = idempotent_pair(x, y)
        c.dev(_mat_dev(p @ p, p))
        c.dev(_mat_dev(q @ q, q))
        c.dev(_mat_dev(p + q, eye))
        c.dev(abs(np.trace(p) - 2.0))
        ker = np.stack([plane.b1, plane.b2], axis=1)
        c.ok(same_span(image_basis(p, 2), ker))
        back = plane_from_spinor_plane(plane)
        c.dev(float(np.max(np.abs(back.rep - _canon(x)))))
    for _ in range(max(4, count // 4)):
        n = sampling.random_isotropic_plane(rng)
        line = plane_to_spinor_line(n)
        c.dev(abs(_g(line.rep, line.rep)))
        n2 = spinor_line_to_plane(line)
        c.ok(same_span(np.stack([n.x1, n.x2], axis=1),
                       np.stack([n2.x1, n2.x2], axis=1)))
        r1, r2, r3, r4 = four_idempotents(n)
        total = r1 + r2 + r3 + r4
        c.dev(_mat_dev(total, eye))
        for ra, rb in itertools.combinations((r1, r2, r3, r4), 2):
            c.dev(float(np.max(np.abs(ra @ rb))))
        for r in (r1, r2, r3, r4):
            c.dev(abs(np.trace(r) - 1.0))
    for _ in range(max(4, count // 4)):
        v = sampling.random_isotropic_spinor(rng)
        n = spinor_line_to_plane(v)
        line = plane_to_spinor_line(n)
        overlap = abs(np.vdot(line.rep, v)) / (
            np.linalg.norm(line.rep) * np.linalg.norm(v))
        c.dev(abs(overlap - 1.0))
    return c.result("isotropic", tol, errata.notes("isotropic"))


def suite_liesphere(seed: int, count: int, tol: float) -> SuiteResult:
    """Null embeddings, extraction roundtrips, inversion, contact."""
    c = _Collector()
    rng = np.random.default_rng(seed)
    makers = (sampling.random_point, sampling.random_sphere, sampling.random_plane)
    for make in makers:
        for _ in range(max(4, count // 4)):
            ent = make(rng)
            raw = embed_rep(ent)
            c.dev(abs(_q(raw)) / max(1.0, float(np.dot(raw, raw))))
            back = lie_extract(lie_embed(ent))
            c.ok(type(back) is type(ent))
            c.dev(_entity_dev(ent, back))
    c.dev(abs(_q(embed_rep(Infinity()))))
    c.ok(isinstance(lie_extract(lie_embed(Infinity())), Infinity))
    for _ in range(max(4, count // 2)):
        ent = sampling.random_sphere(rng)
        cls = lie_embed(ent)
        twice = conformal_inversion(conformal_inversion(cls))
        c.dev(float(np.max(np.abs(twice.rep - cls.rep))))
    c.dev(_mat_dev(INVERSION_MATRIX @ Q6 @ INVERSION_MATRIX.T, Q6))
    origin = lie_embed(Point(np.zeros(3)))
    c.dev(float(np.max(np.abs(conformal_inversion(lie_embed(Infinity())).rep
                              - origin.rep))))
    c.ok(is_at_infinity(lie_embed(Infinity())))
    c.ok(is_at_infinity(lie_embed(sampling.random_plane(rng))))
    c.ok(not is_at_infinity(lie_embed(Point(np.array([1.0, 1.0, 1.0])))))
    agree = 0
    for _ in range(max(8, count)):
        s1, s2, tangent = _contact_pair(rng)
        lie = oriented_contact(s1, s2)
        c.ok(lie == tangent)
        agree += int(lie == tangent)
    probe = fixed_sphere_probe(min(50, max(1, count // 4)),
                               rng=np.random.default_rng(seed + 1))
    c.dev(probe.fixed_sphere_max_drift)
    c.ok(probe.missing_confirmed)
    return c.result("liesphere", tol, errata.notes("liesphere"))


def _entity_dev(a, b) -> float:
    if isinstance(a, Infinity):
        return 0.0
    if isinstance(a, Point):
        return float(np.max(np.abs(a.p - b.p)))
    if isinstance(a, Sphere):
        return max(float(np.max(np.abs(a.center - b.center))),
                   abs(a.signed_radius - b.signed_radius))
    return max(float(np.max(np.abs(a.normal - b.normal))), abs(a.offset - b.offset))


def _contact_pair(rng):
    """A sphere pair that is either tangent by construction or kept a
    safe margin away from tangency, plus the Euclidean oracle verdict."""
    s1 = sampling.random_sphere(rng)
    if rng.random() < 0.5:
        direction = sampling.unit_vec3(rng)
        r2 = rng.uniform(0.2, 3.0) * float(rng.choice([-1.0, 1.0]))
        center2 = s1.center + (s1.signed_radius - r2) * direction
        s2 = Sphere(center2, r2)
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
