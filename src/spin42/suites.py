"""Named property suites behind the `verify` command.

Each suite draws from a seeded generator, runs its identity checks, and
reports the worst deviation; boolean checks contribute 0 or 1.  The
`clifford` suite contains only checks that are exact on the {0,+-1,+-i}
table lattice, so it passes with tolerance 0 literally; everything
float-bearing lives in the other suites.
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
    x_matrix,
)
from .exterior import (
    basis_bivector,
    basis_kvector,
    herm_inner,
    hodge_star,
    is_decomposable,
    kv_add,
    kv_norm,
    kv_scale,
    phi,
    phi_inverse,
    wedge,
)
from .forms import G4, Q6, Q_DIAG, _canon, _g, _q, _qb
from .isotropic import (
    IsotropicPlaneE,
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
from .spin import SpinElement, covering_matrix, is_so_plus, is_su22, vector_action


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


def suite_selfdual(seed: int, count: int, tol: float) -> SuiteResult:
    """Basis bivectors: star-fixedness, the (negative) Gram identity, and
    the embedding/extraction of 6-vectors."""
    c = _Collector()
    rng = np.random.default_rng(seed)
    es = [basis_bivector(a) for a in range(1, 7)]
    for a in range(6):
        c.dev(kv_norm(kv_add(hodge_star(es[a]), kv_scale(-1.0, es[a]))))
        for b in range(6):
            target = -Q_DIAG[a] if a == b else 0.0
            c.dev(abs(herm_inner(es[a], es[b]) - target))
            frob = np.sum(es[a].comps * np.conj(es[b].comps))
            c.dev(abs(frob - (2.0 if a == b else 0.0)))
    for _ in range(count):
        x = rng.normal(size=6)
        b = phi(x)
        c.dev(float(np.max(np.abs(phi_inverse(b) - x))))
        c.dev(kv_norm(kv_add(hodge_star(b), kv_scale(-1.0, b))))
        c.dev(kv_norm(kv_add(hodge_star(kv_scale(1j, b)), kv_scale(1j, b))))
        y = rng.normal(size=6)
        c.dev(abs(herm_inner(phi(x), phi(y)) - (-_qb(x, y))))
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
        c.dev(kv_norm(kv_add(ab, kv_scale(-((-1.0) ** (p * q)), ba))))
        r = int(rng.integers(0, 4 - p - q + 1))
        d = sampling.random_kvector(rng, r)
        c.dev(kv_norm(kv_add(wedge(wedge(a, b), d), kv_scale(-1.0, wedge(a, wedge(b, d))))))
    for _ in range(max(10, count // 10)):
        k = int(rng.integers(0, 5))
        u = sampling.random_kvector(rng, k)
        v = sampling.random_kvector(rng, k)
        c.dev(abs(herm_inner(u, v) - np.conj(herm_inner(v, u))))
    half = max(1, count // 2)
    for _ in range(half):
        x = sampling.random_null_vec6(rng)
        c.ok(is_decomposable(phi(x)))
        c.dev(kv_norm(kv_add(wedge(phi(x), phi(x)),
                             kv_scale(_q(x), basis_kvector((1, 2, 3, 4))))))
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
    and the pairing symmetry."""
    c = _Collector()
    rng = np.random.default_rng(seed)
    vol = basis_kvector((1, 2, 3, 4))
    for k in range(5):
        combos = list(itertools.combinations(range(1, 5), k))
        for ci in combos:
            for cj in combos:
                ei = basis_kvector(ci)
                ej = basis_kvector(cj)
                lhs = wedge(ei, hodge_star(ej))
                rhs = kv_scale(herm_inner(ei, ej), vol)
                c.dev(kv_norm(kv_add(lhs, kv_scale(-1.0, rhs))))
    for k in range(5):
        sign = (-1.0) ** (k * (4 - k))
        for _ in range(max(5, count // 20)):
            y = sampling.random_kvector(rng, k)
            c.dev(kv_norm(kv_add(hodge_star(hodge_star(y)), kv_scale(-sign, y))))
            lam = complex(rng.normal(), rng.normal())
            c.dev(kv_norm(kv_add(hodge_star(kv_scale(lam, y)),
                                 kv_scale(-np.conj(lam), hodge_star(y)))))
            x = sampling.random_kvector(rng, 4 - k)
            c.dev(abs(herm_inner(x, hodge_star(y)) -
                      sign * herm_inner(y, hodge_star(x))))
    return c.result("hodge", tol)


def suite_spin(seed: int, count: int, tol: float) -> SuiteResult:
    """Group membership, the covering homomorphism, and its special values."""
    c = _Collector()
    rng = np.random.default_rng(seed)
    elements = [sampling.random_spin_element(rng) for _ in range(max(4, count // 4))]
    for s in elements:
        c.ok(is_su22(s.m, 1e-8))
        c.dev(_mat_dev(s.m @ G4 @ s.m.conj().T, G4))
        x = rng.normal(size=6)
        c.dev(abs(_q(vector_action(s, x)) - _q(x)))
        l = covering_matrix(s)
        c.ok(is_so_plus(l, 1e-8))
        c.dev(_mat_dev(l.l @ Q6 @ l.l.T, Q6))
        c.dev(_mat_dev(covering_matrix(SpinElement(-s.m)).l, l.l))
    for s1, s2 in zip(elements[::2], elements[1::2]):
        prod = SpinElement(s1.m @ s2.m)
        c.dev(_mat_dev(covering_matrix(prod).l,
                       covering_matrix(s1).l @ covering_matrix(s2).l))
    c.dev(_mat_dev(covering_matrix(SpinElement(np.eye(4, dtype=complex))).l, np.eye(6)))
    c.dev(_mat_dev(covering_matrix(SpinElement(-np.eye(4, dtype=complex))).l, np.eye(6)))
    c.dev(_mat_dev(covering_matrix(SpinElement(1j * np.eye(4, dtype=complex))).l, -np.eye(6)))
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
