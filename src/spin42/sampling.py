"""Seeded random generators for property checks.

All generators take an explicit numpy Generator so every suite and test
is reproducible; the constructions stay inside the library's own
primitives (sphere embeddings for null vectors, even products of unit-Q
vectors for group elements, transported base planes for isotropic planes)
so the sampled objects satisfy their invariants by construction, not by
projection.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .exterior import KVector
from .forms import RESIDUAL_FLOOR, _q, q_form
from .liesphere import Plane, Point, Sphere, embed_rep
from .spin import SpinElement, covering_matrix, spin_generate
from .isotropic import IsotropicPlaneE, _isotropic_plane

# exact integer null combinations mixed into the null sampler
_BASIS_NULLS = np.array([
    [0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
    [0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
])


def unit_vec3(rng) -> np.ndarray:
    v = rng.normal(size=3)
    while np.linalg.norm(v) < 1e-3:
        v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_point(rng, scale: float = 3.0) -> Point:
    return Point(rng.uniform(-scale, scale, size=3))


def random_sphere(rng, scale: float = 3.0) -> Sphere:
    center = rng.uniform(-scale, scale, size=3)
    radius = rng.uniform(0.2, scale) * rng.choice([-1.0, 1.0])
    return Sphere(center, radius)


def random_plane(rng, scale: float = 3.0) -> Plane:
    return Plane(unit_vec3(rng), rng.uniform(-scale, scale))


def random_null_vec6(rng) -> np.ndarray:
    """Null 6-vector: a sphere/point embedding or an exact basis
    combination, at a random nonzero scale."""
    kind = rng.integers(0, 4)
    if kind == 0:
        x = embed_rep(random_point(rng))
    elif kind == 3:
        x = _BASIS_NULLS[rng.integers(0, len(_BASIS_NULLS))].copy()
    else:
        x = embed_rep(random_sphere(rng))
    lam = rng.uniform(0.1, 4.0) * rng.choice([-1.0, 1.0])
    return lam * x


def random_nonnull_vec6(rng, margin: float = 0.1) -> np.ndarray:
    """6-vector with |Q(x)| >= margin * ||x||^2, so nullity classifiers
    see no borderline cases.  The loop calls the public q_form once per
    draw, which perfbench's trace counts as the draws of this sampler."""
    while True:
        x = rng.normal(size=6)
        if abs(q_form(x)) >= margin * float(np.dot(x, x)):
            return x


def random_unit_q_vec6(rng, sign: int = 0, margin: float = 0.25) -> np.ndarray:
    """Vector scaled to Q(x) = +1 or -1 (a requested sign, or whichever
    the rejection sampler produces first).  The margin keeps the scaled
    vector's Euclidean norm bounded, which keeps group elements built
    from these vectors well conditioned."""
    while True:
        x = random_nonnull_vec6(rng, margin)
        q = _q(x)
        if sign != 0 and np.sign(q) != sign:
            continue
        return x / np.sqrt(abs(q))


def random_spin_element(rng, npairs: int = 2) -> SpinElement:
    """Even product of unit-Q vectors; each pair shares a Q-sign, which is
    what pseudo-unitarity of the composite requires.  Large-norm products
    (strong boosts) are rejected so downstream post-condition checks at
    forms.RESIDUAL_FLOOR stay far from their thresholds."""
    while True:
        pairs = []
        for _ in range(npairs):
            sign = int(rng.choice([-1, 1]))
            pairs.append(
                (random_unit_q_vec6(rng, sign), random_unit_q_vec6(rng, sign))
            )
        s = spin_generate(pairs)
        if float(np.max(np.abs(s.m))) <= 4.0:
            return s


def random_isotropic_spinor(rng) -> np.ndarray:
    """Spinor with (v|v) = 0: balance the positive and negative halves of
    a random complex 4-vector."""
    while True:
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = np.linalg.norm(z[:2])
        n = np.linalg.norm(z[2:])
        if p > 1e-3 and n > 1e-3:
            z[:2] /= p
            z[2:] /= n
            return z


def random_isotropic_plane(rng) -> IsotropicPlaneE:
    """Maximal isotropic plane: the base plane span{e1+e4, e5+e6}
    transported by a random group action (which preserves Q exactly
    enough), then recombined."""
    base = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]])
    l = covering_matrix(random_spin_element(rng)).l
    x1 = l @ base[0]
    x2 = l @ base[1]
    a = rng.uniform(-1.0, 1.0, size=(2, 2))
    while abs(np.linalg.det(a)) < 0.1:
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
    y1 = a[0, 0] * x1 + a[0, 1] * x2
    y2 = a[1, 0] * x1 + a[1, 1] * x2
    _isotropic_plane(y1, y2, RESIDUAL_FLOOR)
    return IsotropicPlaneE(y1, y2)


def random_kvector(rng, k: int):
    """Random grade-k element with complex normal coefficients: one
    (real, imaginary) pair of draws per increasing-index monomial, in
    increasing order."""
    return KVector(k, rng.normal(size=2 * comb(4, k)).view(complex))
