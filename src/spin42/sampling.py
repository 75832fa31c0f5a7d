"""Seeded random generators for property checks.

All generators take an explicit numpy Generator so every suite and test
is reproducible; the constructions stay inside the library's own
primitives (sphere embeddings for null vectors, even products of unit-Q
vectors for group elements, transported base planes for isotropic planes)
so the sampled objects satisfy their invariants by construction, not by
projection.

Every sampler draws blocks (the `numpy-pcg64/v3` stream).  Given a row
count n it returns stacked raw arrays whose row i is sample i; without n
it returns row 0 of the n = 1 block as the scalar type.  A rejection
sampler draws an oversized block of candidates and keeps the first n
accepted rows, drawing a further block for any shortfall.  The block sizes
follow from n alone, so each (seed, n) gives the same samples and leaves
the generator in the same state.  K-vectors of mixed grades are drawn by
one routine, _graded_kvectors, straight into the graded layout of
`exterior`; random_kvector is its one-grade case.  v3 changed only the
k-vector draws of the `exterior` and `hodge` suites; every public sampler
draws the same numbers as under v2.
"""

from __future__ import annotations

from math import ceil, sqrt

import numpy as np

from .exterior import _BLOCKS, _SLOT_GRADES, KVector
from .forms import DEFAULT_TOL, RESIDUAL_FLOOR, _q
from .isotropic import IsotropicPlaneE, _isotropic_plane
from .liesphere import Plane, Point, Sphere, _sphere_rep
from .spin import SpinElement, _covering, _generate

# exact integer null combinations mixed into the null sampler
_BASIS_NULLS = np.array([
    [0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
    [0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
])

# the base plane span{e1+e4, e5+e6} that random_isotropic_plane transports
_BASE_PLANE = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]])

# Measured acceptance of each rejection test on its candidates; they size
# the candidate blocks, so they are part of the stream.
_NONNULL_RATE = 0.9  # |Q(x)| >= 0.1 ||x||^2 on normal 6-vectors
_UNIT_Q_RATE = {0: 0.75, 1: 0.6, -1: 0.14}  # the same at 0.25, by requested sign
_SPIN_RATE = 0.8  # max |m_ij| <= 4 on products of two pairs
_MIXING_RATE = 0.8  # |det a| >= 0.1 on uniform 2x2 matrices


def _block_size(need: int, rate: float) -> int:
    """Candidates for `need` accepts at acceptance `rate`, with a margin of
    three binomial standard deviations; exactly `need` when rate is 1."""
    return ceil((need + 3.0 * sqrt(need * (1.0 - rate))) / rate)


def _first_accepted(draw, n: int, rate: float) -> np.ndarray:
    """The first n accepted rows of candidate blocks.  draw(size) returns
    `size` candidate rows and their accept mask; blocks are drawn until n
    rows are accepted."""
    rows, ok = draw(_block_size(n, rate))
    kept = rows[ok][:n]
    while len(kept) < n:
        rows, ok = draw(_block_size(n - len(kept), rate))
        kept = np.concatenate([kept, rows[ok][:n - len(kept)]])
    return kept


def _rows(n) -> int:
    """Rows to draw: n, or the one row the scalar form returns."""
    return 1 if n is None else n


def unit_vec3(rng, n=None) -> np.ndarray:
    """Unit 3-vectors: normalized normal draws, those with norm >= 1e-3."""
    def draw(size):
        v = rng.normal(size=(size, 3))
        return v, np.vecdot(v, v) >= 1e-6
    v = _first_accepted(draw, _rows(n), 1.0)
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    return v[0] if n is None else v


def random_point(rng, n=None):
    """Points uniform in the cube [-3, 3]^3, (n, 3)."""
    p = rng.uniform(-3.0, 3.0, size=(_rows(n), 3))
    return Point(p[0]) if n is None else p


def random_sphere(rng, n=None):
    """Spheres with centers uniform in the cube [-3, 3]^3 and |radius|
    uniform in [0.2, 3] with a uniform sign: (centers (n, 3), radii (n,))."""
    rows = _rows(n)
    center = rng.uniform(-3.0, 3.0, size=(rows, 3))
    radius = rng.uniform(0.2, 3.0, size=rows) * rng.choice([-1.0, 1.0], size=rows)
    return Sphere(center[0], radius[0]) if n is None else (center, radius)


def random_plane(rng, n=None):
    """Oriented planes with unit normals and offsets uniform in [-3, 3]:
    (normals (n, 3), offsets (n,))."""
    normal = unit_vec3(rng, _rows(n))
    offset = rng.uniform(-3.0, 3.0, size=len(normal))
    return Plane(normal[0], offset[0]) if n is None else (normal, offset)


def random_null_vec6(rng, n=None) -> np.ndarray:
    """Null 6-vectors: a point embedding, a sphere embedding (twice as
    likely) or an exact basis combination, at a random nonzero scale."""
    rows = _rows(n)
    kind = rng.integers(0, 4, size=rows)
    center, radius = random_sphere(rng, n=rows)
    basis = _BASIS_NULLS[rng.integers(0, len(_BASIS_NULLS), size=rows)]
    lam = rng.uniform(0.1, 4.0, size=rows) * rng.choice([-1.0, 1.0], size=rows)
    x = _sphere_rep(center, np.where(kind == 0, 0.0, radius))
    x = lam[:, None] * np.where((kind == 3)[:, None], basis, x)
    return x[0] if n is None else x


def random_nonnull_vec6(rng, n=None) -> np.ndarray:
    """6-vectors with |Q(x)| >= 0.1 ||x||^2, so nullity classifiers see no
    borderline cases."""
    def draw(size):
        x = rng.normal(size=(size, 6))
        return x, abs(_q(x)) >= 0.1 * np.vecdot(x, x)
    x = _first_accepted(draw, _rows(n), _NONNULL_RATE)
    return x[0] if n is None else x


def random_unit_q_vec6(rng, sign: int = 0, n=None) -> np.ndarray:
    """Vectors scaled to Q(x) = +1 or -1 (a requested sign, or whichever
    the candidate has), drawn with |Q(x)| >= 0.25 ||x||^2.  The margin
    keeps the scaled vector's Euclidean norm at most 2, which keeps group
    elements built from these vectors well conditioned."""
    def draw(size):
        x = rng.normal(size=(size, 6))
        q = _q(x)
        ok = abs(q) >= 0.25 * np.vecdot(x, x)
        return x, ok & (np.sign(q) == sign) if sign else ok
    x = _first_accepted(draw, _rows(n), _UNIT_Q_RATE[sign])
    x /= np.sqrt(abs(_q(x)))[:, None]
    return x[0] if n is None else x


def _spin_candidates(rng, size: int) -> tuple[np.ndarray, np.ndarray]:
    """`size` candidate elements (size, 4, 4) and the two vector pairs
    (size, 2, 2, 6) they are products of: each pair's Q-sign is uniform,
    and both of its vectors are drawn conditioned on that sign.  The
    products are spin._generate's, with its membership post-conditions."""
    signs = 2 * rng.integers(0, 2, size=(size, 2)) - 1
    v = np.empty((size, 2, 2, 6))
    for sign in (1, -1):
        pick = signs == sign
        v[pick] = random_unit_q_vec6(rng, sign, n=2 * int(pick.sum())).reshape(-1, 2, 6)
    return _generate(v, DEFAULT_TOL), v


def random_spin_element(rng, n=None):
    """Even products of two pairs of unit-Q vectors, (n, 4, 4); each pair
    shares a Q-sign, which is what pseudo-unitarity of the composite requires.
    Large-norm products (max |m_ij| > 4, strong boosts) are rejected so
    downstream post-condition checks at forms.RESIDUAL_FLOOR stay far
    from their thresholds.  The signs are drawn uniformly, but the
    rejection favours positive pairs: 54.3% of the pairs of accepted
    elements are positive (measured over 40 000 candidates)."""
    def draw(size):
        m, _ = _spin_candidates(rng, size)
        return m, abs(m).max(axis=(-2, -1)) <= 4.0
    m = _first_accepted(draw, _rows(n), _SPIN_RATE)
    return SpinElement(m[0]) if n is None else m


def random_isotropic_spinor(rng, n=None) -> np.ndarray:
    """Spinors with (v|v) = 0: balance the positive and negative halves of
    random complex 4-vectors (real parts drawn before imaginary parts)."""
    def draw(size):
        z = rng.normal(size=(size, 2, 4))
        z = (z[:, 0] + 1j * z[:, 1]).reshape(size, 2, 2)
        return z, (np.vecdot(z, z).real > 1e-6).all(axis=-1)
    z = _first_accepted(draw, _rows(n), 1.0)
    z = (z / np.sqrt(np.vecdot(z, z).real)[..., None]).reshape(-1, 4)
    return z[0] if n is None else z


def random_isotropic_plane(rng, n=None):
    """Maximal isotropic planes as bases (n, 2, 6): the base plane
    span{e1+e4, e5+e6} transported by random group elements, then mixed by
    2x2 matrices with |det| >= 0.1.  The planes are judged totally isotropic
    at forms.RESIDUAL_FLOOR; the error names the first failing row."""
    rows = _rows(n)
    l = _covering(random_spin_element(rng, n=rows), DEFAULT_TOL)

    def draw(size):
        a = rng.uniform(-1.0, 1.0, size=(size, 2, 2))
        return a, abs(np.linalg.det(a)) >= 0.1
    y = _first_accepted(draw, rows, _MIXING_RATE) @ (_BASE_PLANE @ l.mT)
    _isotropic_plane(y[:, 0], y[:, 1], RESIDUAL_FLOOR)
    return IsotropicPlaneE(y[0, 0], y[0, 1]) if n is None else y


def _graded_kvectors(rng, grades) -> np.ndarray:
    """Elements of the given grades (...) with complex normal coefficients,
    in the graded layout (..., 16): one (real, imaginary) pair of draws per
    slot of each row's grade block, rows and slots in increasing order, and
    0 in every other slot."""
    block = np.asarray(grades)[..., None] == _SLOT_GRADES
    out = np.zeros(block.shape, dtype=complex)
    out[block] = rng.normal(size=2 * int(block.sum())).view(complex)
    return out


def random_kvector(rng, k: int, n=None):
    """Grade-k elements with complex normal coefficients, (n, C(4, k)): the
    one-grade case of _graded_kvectors, so one (real, imaginary) pair of
    draws per increasing-index monomial, in increasing order."""
    coeffs = _graded_kvectors(rng, np.full(_rows(n), k))[:, _BLOCKS[k]]
    return KVector(k, coeffs[0]) if n is None else coeffs
