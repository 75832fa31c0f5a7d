"""Named property suites behind the `verify` command.

Each suite is a Python generator: it draws from a seeded numpy generator
and yields one (checks, deviations) item per identity check, the number
of checks it stands for and their deviations, a scalar or an array, where
a bool counts 1 for failed.  The `_suite` decorator folds the items into a SuiteResult:
it sums the counts and keeps the largest deviation, a NaN over any finite
one, and the suite passes when that deviation is within tol.  Every
float suite draws its samples as blocks whose row i is sample i (the
block samplers of `sampling`) and runs each named check once on the whole
block through the array kernels.
The `clifford` suite contains only checks that are exact on the
{0,+-1,+-i} table lattice, so it passes with tolerance 0 literally;
everything float-bearing lives in the other suites.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import errata, sampling
from .clifford import (
    GAMMA,
    SIGMA,
    _adjoint,
    _det_identity,
    _pluecker,
    _reality_residual,
    _x_matrix,
    check_clifford_relations,
    check_sigma_selfduality,
)
from .exterior import (
    _BLOCKS,
    _decomposable,
    _graded,
    _herm16,
    _phi,
    _phi_inverse,
    _star16,
    _wedge16,
    _wedge_table16,
    _weights16,
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
    Record,
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
    _pluecker_gap,
    _spinor_plane,
    _spinor_plane_class,
)
from .liesphere import (
    INVERSION_MATRIX,
    PLANE,
    POINT,
    SPHERE,
    Infinity,
    Point,
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
    _covering,
    _members,
    _q_devs,
    _so_plus,
    _vector_action,
)


class SuiteResult(Record):
    """Outcome of one suite; not hashable, since errata_notes is a list."""

    __match_args__ = ("suite_name", "checks_run", "max_deviation", "passed", "errata_notes")

    def __init__(self, suite_name: str, checks_run: int, max_deviation: float, passed: bool,
                 errata_notes: list | None = None):
        object.__setattr__(self, "suite_name", suite_name)
        object.__setattr__(self, "checks_run", checks_run)
        object.__setattr__(self, "max_deviation", max_deviation)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "errata_notes", [] if errata_notes is None else errata_notes)


def _suite(checks):
    """The suite of a generator of (checks, deviations) items, called as
    suite(seed, count, tol), under the generator's name."""
    name = checks.__name__.removeprefix("suite_")

    def run(seed: int, count: int, tol: float) -> SuiteResult:
        n, worst = 0, 0.0
        for k, devs in checks(seed, count):
            n += k
            dev = float(np.asarray(devs).max())
            # max() would drop a NaN that follows a finite value; keep it
            if dev > worst or math.isnan(dev):
                worst = dev
        return SuiteResult(name, n, worst, worst <= tol, errata.notes(name))

    run.__name__, run.__qualname__ = checks.__name__, checks.__qualname__
    run.__doc__ = checks.__doc__
    return run


# sqrt(k!), the kv_norm weight of a grade-k coefficient
_ROOT_FACTORIAL = np.sqrt([math.factorial(k) for k in range(5)])


def _kv_devs(k: int | np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kv_norm of the difference of grade-k coefficient arrays, per row; k
    is one grade or the grade of each row of graded stacks (..., 16)."""
    return _ROOT_FACTORIAL[k] * np.linalg.norm(a - b, axis=-1)


@_suite
def suite_clifford(seed: int, count: int):
    """Exact lattice identities of the generator tables; the generator
    audits run once on the stack of all six."""
    rel = check_clifford_relations()
    yield rel.checks_run, rel.max_deviation
    adjoint = _adjoint(GAMMA)
    yield 6, np.abs(adjoint + GAMMA)
    yield 6, np.abs(_adjoint(adjoint) - GAMMA)
    yield 6, np.abs(GAMMA - SIGMA @ G4)
    e = np.eye(6)
    yield 6, _reality_residual(_x_matrix(e))
    d, q2 = _det_identity(e)
    yield 6, np.abs(d.real - q2)
    sd = check_sigma_selfduality()
    yield sd.checks_run, sd.max_deviation
    # L(-I) = I and L(iI) = -I
    eye = np.eye(4, dtype=complex)
    special = _covering(np.stack([-eye, 1j * eye]), DEFAULT_TOL)
    yield 2, np.abs(special - np.array([1.0, -1.0])[:, None, None] * np.eye(6))


# Block samplers: row i of each array is sample i.  selfdual draws
# fixed-size normals, so its block reproduces a per-sample loop's draws;
# hodge and exterior draw their k-vectors of mixed grades straight into the
# graded layout (sampling._graded_kvectors); the other blocks are calls of
# the block samplers in `sampling`.


def _selfdual_block(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample i's (x, y), the draws of two rng.normal(size=6) calls."""
    xy = rng.normal(size=(count, 2, 6))
    return xy[:, 0], xy[:, 1]


def _hodge_block(rng, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The samples of every grade as one stack of 5n rows, row k*n + j
    being sample j of grade k: the grades (5n,); y of grade k and x of
    grade 4 - k in the graded layout (5n, 16), the y of all rows drawn
    before the x; then complex lambda (two normals) of each row."""
    k = np.repeat(np.arange(5), n)
    y, x = sampling._graded_kvectors(rng, np.stack([k, 4 - k]))
    return k, y, rng.normal(size=(5 * n, 2)).view(complex)[:, 0], x


def _spin_block(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n group elements (n, 4, 4), then the n vectors (n, 6) they act on."""
    return sampling.random_spin_element(rng, n=n), rng.normal(size=(n, 6))


def _exterior_block(rng, count: int):
    """The wedge samples as grades (3, n) and factors a, b, d in the
    graded layout (3, n, 16), then the Hermitian samples as grades (n,) and
    u, v (2, n, 16), each grade array drawn before its factors; then null
    and non-null vectors (n, 6)."""
    n = max(10, count // 10)
    p = rng.integers(0, 3, size=n)
    q = rng.integers(0, 5 - p)
    r = rng.integers(0, 5 - p - q)
    pqr = np.stack([p, q, r])
    wedges = pqr, sampling._graded_kvectors(rng, pqr)
    k = rng.integers(0, 5, size=n)
    herms = k, sampling._graded_kvectors(rng, np.stack([k, k]))
    half = max(1, count // 2)
    return (wedges, herms, sampling.random_null_vec6(rng, n=half),
            sampling.random_nonnull_vec6(rng, n=half))


def _isotropic_block(rng, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Null vectors (n, 6), isotropic plane bases (m, 2, 6) and isotropic
    spinors (m, 4)."""
    m = max(4, count // 4)
    return (sampling.random_null_vec6(rng, n=max(4, count // 2)),
            sampling.random_isotropic_plane(rng, m), sampling.random_isotropic_spinor(rng, m))


def _liesphere_block(rng, count: int):
    """Points (n, 3); spheres and planes as (centers, radii) and (normals,
    offsets); the spheres to invert; the one plane checked at infinity;
    and the contact pairs as (centers1, radii1, centers2, radii2,
    tangent)."""
    n = max(4, count // 4)
    return (sampling.random_point(rng, n=n), sampling.random_sphere(rng, n=n),
            sampling.random_plane(rng, n=n), sampling.random_sphere(rng, n=max(4, count // 2)),
            sampling.random_plane(rng), _contact_pairs(rng, max(8, count)))


@_suite
def suite_selfdual(seed: int, count: int):
    """Basis bivectors: star-fixedness, the (negative) Gram identity, and
    the embedding/extraction of 6-vectors.  The basis checks are table
    products over the six E_alpha; each sample check runs once on the
    whole block of samples, in the graded layout."""
    rng = np.random.default_rng(seed)
    es = [basis_bivector(a) for a in range(1, 7)]
    e = _graded(2, np.stack([kv.coeffs for kv in es]))
    comps = np.stack([kv.comps for kv in es])
    yield 6, _kv_devs(2, _star16(e), e)
    yield 36, np.abs(_herm16(e[:, None], e[None, :]) + np.diag(Q_DIAG))
    frob = np.einsum("aij,bij->ab", comps, np.conj(comps))
    yield 36, np.abs(frob - 2.0 * np.eye(6))
    x, y = _selfdual_block(rng, count)
    b = _phi(x)
    yield count, np.abs(_phi_inverse(b, DEFAULT_TOL) - x)
    b = _graded(2, b)
    yield count, _kv_devs(2, _star16(b), b)
    yield count, _kv_devs(2, _star16(1j * b), -1j * b)
    yield count, np.abs(_herm16(b, _graded(2, _phi(y))) + np.sum(x * Q_DIAG * y, axis=-1))


@_suite
def suite_exterior(seed: int, count: int):
    """Wedge algebra, decomposability and phi(x) ^ phi(x) = -Q(x) e1234;
    the random-grade checks run once on the graded stack of all samples."""
    wedges, herms, null, nonnull = _exterior_block(np.random.default_rng(seed), count)
    (p, q, r), (a, b, d) = wedges
    ab, ba, bd = _wedge16(np.stack([a, b, b]), np.stack([b, a, d]))
    yield len(a), _kv_devs(p + q, ab, (-1.0) ** (p * q)[:, None] * ba)
    abd, a_bd = _wedge16(np.stack([ab, a]), np.stack([d, bd]))
    yield len(a), _kv_devs(p + q + r, abd, a_bd)
    _, (u, v) = herms
    uv, vu = _herm16(np.stack([u, v]), np.stack([v, u]))
    yield len(u), abs(uv - np.conj(vu))
    yield len(null), ~_decomposable(_phi(null), DEFAULT_TOL)
    b = _phi(nonnull)
    yield len(b), _decomposable(b, DEFAULT_TOL)
    # wedge(phi(x), phi(x)) = -Q(x) e1^e2^e3^e4, where Q(x) != 0 tells -Q from +Q
    b = _graded(2, b)
    yield len(b), _kv_devs(4, _wedge16(b, b)[:, _BLOCKS[4]], -_q(nonnull)[:, None])
    e12 = basis_kvector((1, 2))
    yield 1, abs(e12.comps[0, 1] - 1.0) + abs(e12.comps[1, 0] + 1.0)
    yield 1, _kv_devs(2, wedge(basis_kvector((1,)), basis_kvector((1,))).coeffs, 0.0)
    yield 1, abs(wedge(e12, basis_kvector((3, 4))).comps[0, 1, 2, 3] - 1.0)


# the checks of the defining relation: the pairs of monomials of one grade
_SAME_GRADE_PAIRS = sum(math.comb(4, k) ** 2 for k in range(5))


@_suite
def suite_hodge(seed: int, count: int):
    """The antilinear star: defining relation, square law, antilinearity,
    and the pairing symmetry.  The defining relation is checked on every
    pair of monomials as one table, the volume coefficient of
    e_I ^ star(e_J) against (e_I | e_J); each sample check runs once on
    the graded stack of the samples of every grade."""
    rng = np.random.default_rng(seed)
    # across grades both sides vanish in the volume slot, so the table's
    # maximum is that of the same-grade pairs
    lhs = _wedge_table16()[:, :, 15] @ _star16(np.eye(16)).T
    yield _SAME_GRADE_PAIRS, _kv_devs(4, lhs[..., None], np.diag(_weights16())[..., None])
    k, y, lam, x = _hodge_block(rng, max(5, count // 20))
    n = len(k)
    sign = (-1.0) ** (k * (4 - k))
    lam = lam[:, None]
    sy, s_lam_y, sx = _star16(np.stack([y, lam * y, x]))
    yield n, _kv_devs(k, _star16(sy), sign[:, None] * y)
    yield n, _kv_devs(4 - k, s_lam_y, np.conj(lam) * sy)
    yield n, np.abs(_herm16(x, sy) - sign * _herm16(y, sx))


@_suite
def suite_spin(seed: int, count: int):
    """Group membership, the covering homomorphism, and its special
    values; each check runs once on the whole stack of elements."""
    rng = np.random.default_rng(seed)
    n = max(4, count // 4)
    m, x = _spin_block(rng, n)
    yield n, ~_members(m, DEFAULT_TOL)
    yield n, np.abs(m @ G4 @ m.mT.conj() - G4)
    qx = np.sum(x * Q_DIAG * x, axis=-1)
    image = _vector_action(m, x, DEFAULT_TOL)
    yield n, np.abs(np.sum(image * Q_DIAG * image, axis=-1) - qx)
    # one covering stack: the elements, their negatives, the products of
    # consecutive pairs, and the special values I, -I and iI
    half = n // 2
    eye = np.eye(4, dtype=complex)
    l, neg, products, special = np.split(_covering(np.concatenate([
        m, -m, m[0:2 * half:2] @ m[1:2 * half:2], np.stack([eye, -eye, 1j * eye])]),
        DEFAULT_TOL), [n, 2 * n, 2 * n + half])
    yield n, ~_so_plus(l, RESIDUAL_FLOOR)
    yield n, _q_devs(l)
    yield n, np.abs(neg - l)
    yield half, np.abs(products - l[0:2 * half:2] @ l[1:2 * half:2])
    yield 3, np.abs(special - np.array([1.0, 1.0, -1.0])[:, None, None] * np.eye(6))


@_suite
def suite_isotropic(seed: int, count: int):
    """Null-line/spinor-plane and plane/line correspondences with their
    idempotent cross-checks, each run once on the whole block."""
    x, planes, v = _isotropic_block(np.random.default_rng(seed), count)
    eye = np.eye(4)
    n = len(x)
    # the input gate of null_to_spinor_plane and partner_null_vector
    x = _null_gate(x, DEFAULT_TOL)
    kernel = _spinor_plane(x, DEFAULT_TOL)
    yield 4 * n, abs(_g(kernel[:, :, None], kernel[:, None, :]))
    y = _partner(x)
    yield n, abs(_qb(x, y) - 0.5)
    yield n, abs(_q(y))
    p, q = _idempotents(x, y)
    yield n, abs(p @ p - p)
    yield n, abs(q @ q - q)
    yield n, abs(p + q - eye)
    yield n, abs(np.trace(p, axis1=-2, axis2=-1) - 2.0)
    yield n, abs(p @ kernel.mT - kernel.mT)  # P fixes its image, the kernel plane
    yield n, abs(_spinor_plane_class(kernel, DEFAULT_TOL) - _canon(x))

    m = len(planes)
    x1, x2 = planes[:, 0], planes[:, 1]
    line = _plane_line(x1, x2, DEFAULT_TOL)
    yield m, abs(_g(line, line))
    yield m, _pluecker_gap(_pluecker(x1, x2), _pluecker(*_line_plane(line, DEFAULT_TOL)))
    r = np.stack(_four_idempotents(x1, x2, DEFAULT_TOL))
    yield m, abs(r.sum(axis=0) - eye)
    for ra, rb in itertools.combinations(r, 2):
        yield m, abs(ra @ rb)
    yield 4 * m, abs(np.trace(r, axis1=-2, axis2=-1) - 1.0)

    line = _plane_line(*_line_plane(v, DEFAULT_TOL), DEFAULT_TOL)
    yield len(v), _pluecker_gap(line, v)


@_suite
def suite_liesphere(seed: int, count: int):
    """Null embeddings, extraction roundtrips, inversion, contact; the
    sampled entities of each kind are checked as one stack."""
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
        yield n, abs(_q(raw)) / np.maximum(1.0, np.vecdot(raw, raw))
        found, back = _extract(_projective(raw, DEFAULT_TOL), DEFAULT_TOL)
        yield n, found != kind
        yield n, abs(back[:, slots] - truth)
    yield 1, abs(_q(embed_rep(Infinity())))
    yield 1, not isinstance(lie_extract(lie_embed(Infinity())), Infinity)
    cls = _projective(_sphere_rep(*inverted), DEFAULT_TOL)
    yield len(cls), abs(_inversion(_inversion(cls)) - cls)
    yield 1, np.abs(INVERSION_MATRIX @ Q6 @ INVERSION_MATRIX.T - Q6)
    origin = lie_embed(Point(np.zeros(3)))
    yield 1, np.abs(conformal_inversion(lie_embed(Infinity())).rep - origin.rep)
    yield 1, not is_at_infinity(lie_embed(Infinity()))
    yield 1, not is_at_infinity(lie_embed(far_plane))
    yield 1, is_at_infinity(lie_embed(Point(np.array([1.0, 1.0, 1.0]))))
    c1, r1, c2, r2, tangent = contacts
    lie = _contact(_sphere_rep(c1, r1), _sphere_rep(c2, r2), DEFAULT_TOL)
    yield len(lie), lie != tangent
    probe = fixed_sphere_probe(min(50, max(1, count // 4)),
                               rng=np.random.default_rng(seed + 1))
    yield 1, probe.fixed_sphere_max_drift
    yield 1, not probe.missing_confirmed


def _contact_pairs(rng, n: int):
    """n sphere pairs, each either tangent by construction or kept a safe
    margin away from tangency, plus the Euclidean oracle verdict:
    (centers1, radii1, centers2, radii2, tangent).  Every row draws a
    tangent partner; a row that is not tangent redraws its random partner
    until the gap clears the margin."""
    c1, r1 = sampling.random_sphere(rng, n=n)
    tangent = rng.random(n) < 0.5
    direction = sampling.unit_vec3(rng, n)
    r2 = rng.uniform(0.2, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    c2 = c1 + (r1 - r2)[:, None] * direction
    redraw = ~tangent
    while redraw.any():
        c2[redraw], r2[redraw] = sampling.random_sphere(rng, n=int(redraw.sum()))
        d2 = np.vecdot(c1 - c2, c1 - c2)
        redraw = ~tangent & ~(abs(d2 - (r1 - r2) ** 2) > 0.05)
    d2 = np.vecdot(c1 - c2, c1 - c2)
    return c1, r1, c2, r2, abs(d2 - (r1 - r2) ** 2) <= 1e-9 * np.maximum(1.0, d2)


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


def run_suites(name: str, seed: int, count: int, tol: float) -> list[SuiteResult]:
    """The results of one named suite, or of "all" of them in the fixed
    order; an unknown name raises KeyError."""
    return [SUITES[s](seed, count, tol) for s in (SUITE_ORDER if name == "all" else [name])]
