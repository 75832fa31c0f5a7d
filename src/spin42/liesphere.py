"""Oriented spheres, planes and points of R^3 + infinity as projective
null classes, with conformal inversion.

Coordinate layout for a sphere of center c and signed radius r:

    ( c,  r,  -(1 - c^2 + r^2)/2,  (1 + c^2 - r^2)/2 )

which is *identically* null: slots 5 and 6 satisfy v - w = -1 and
v + w = c^2 - r^2, so Q = (c^2 - r^2) + (v - w)(v + w) = 0 with no
condition on c, r.  (The variant with the last two slots exchanged fails
nullity for generic spheres; see the shipped errata notes.)  A point is
the r = 0 case, an oriented plane n.x = h embeds as (n, 1, h, h), and
infinity is (0, 0, 0, 0, 1, 1).

Conformal inversion negates slot 5.  Classes with equal 5th and 6th slots
form conformal infinity; among them the 2-sphere of classes (n, 1, 0, 0)
with |n| = 1 is pointwise fixed by the inversion yet is not the inversion
image of any Minkowski light-cone class -- matching a light-cone image
against it forces the overall scale to zero, a fact fixed_sphere_probe
measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidEntity, Unclassifiable
from .forms import (
    DEFAULT_TOL,
    ProjectiveNullLine,
    as_vec6,
    projectivize,
    q_bilinear,
)


@dataclass(frozen=True)
class Point:
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _vec3(self.p))


@dataclass(frozen=True)
class Infinity:
    pass


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    signed_radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec3(self.center))
        object.__setattr__(self, "signed_radius", float(self.signed_radius))


@dataclass(frozen=True)
class Plane:
    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _vec3(self.normal))
        object.__setattr__(self, "offset", float(self.offset))


LieEntity = Union[Point, Infinity, Sphere, Plane]

INVERSION_MATRIX = np.diag([1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
INVERSION_MATRIX.setflags(write=False)


def _vec3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise InvalidEntity(f"expected a 3-vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidEntity("non-finite 3-vector")
    return arr


def _validate(ent: LieEntity) -> None:
    if isinstance(ent, Sphere):
        if not np.isfinite(ent.signed_radius) or ent.signed_radius == 0.0:
            raise InvalidEntity("sphere radius must be finite and nonzero")
    elif isinstance(ent, Plane):
        if abs(np.linalg.norm(ent.normal) - 1.0) > 1e-12:
            raise InvalidEntity("plane normal must be a unit vector")
        if not np.isfinite(ent.offset):
            raise InvalidEntity("plane offset must be finite")
    elif not isinstance(ent, (Point, Infinity)):
        raise InvalidEntity(f"not a geometric entity: {ent!r}")


def embed_rep(ent: LieEntity) -> np.ndarray:
    """Raw (uncanonicalized) null 6-vector of an entity."""
    _validate(ent)
    if isinstance(ent, Infinity):
        return np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    if isinstance(ent, Point):
        c, r = ent.p, 0.0
    elif isinstance(ent, Sphere):
        c, r = ent.center, ent.signed_radius
    else:
        n, h = ent.normal, ent.offset
        return np.array([n[0], n[1], n[2], 1.0, h, h])
    c2 = float(np.dot(c, c))
    return np.array([
        c[0], c[1], c[2], r,
        -(1.0 - c2 + r * r) / 2.0,
        (1.0 + c2 - r * r) / 2.0,
    ])


def lie_embed(ent: LieEntity, tol: float = DEFAULT_TOL) -> ProjectiveNullLine:
    """Canonical projective null class of an entity; tol is the nullity
    and zero-norm gate of projectivize."""
    return projectivize(embed_rep(ent), tol)


def lie_extract(p: ProjectiveNullLine, tol: float = DEFAULT_TOL) -> LieEntity:
    """Inverse of lie_embed by normal-form matching on the canonical
    representative (whose largest component is 1, so the tolerances are
    absolute)."""
    a = p.rep
    finite_part = float(np.max(np.abs(a[:4])))
    if abs(a[4] - a[5]) <= tol:
        if finite_part <= tol:
            return Infinity()
        if abs(a[3]) <= tol:
            raise Unclassifiable(
                "class at infinity with no radius slot: no entity normal form fits"
            )
        return Plane(a[:3] / a[3], a[4] / a[3])
    # generic case: rescale so slot6 - slot5 = 1, the sphere/point gauge
    b = a / (a[5] - a[4])
    center = b[:3].copy()
    radius = float(b[3])
    if abs(radius) <= tol:
        return Point(center)
    return Sphere(center, radius)


def conformal_inversion(p: ProjectiveNullLine) -> ProjectiveNullLine:
    """Negate the 5th coordinate and re-canonicalize; an involution on
    classes, and a Q-isometry of the ambient space."""
    flipped = INVERSION_MATRIX @ p.rep
    return projectivize(flipped)


def is_at_infinity(p: ProjectiveNullLine, tol: float = DEFAULT_TOL) -> bool:
    return abs(p.rep[4] - p.rep[5]) <= tol


@dataclass(frozen=True)
class InfinityReport:
    """Outcome of the invariant-2-sphere probe."""

    sample_count: int
    fixed_sphere_max_drift: float
    missing_confirmed: bool
    min_matching_residual: float
    lightcone_image_class: str


def _lightcone_match_residual(a: np.ndarray) -> float:
    """Distance from a canonical class to the inverted light-cone family.

    Inverted light-cone classes carry the normal form (x, t, 1/2, 1/2)
    with (x, t) free, so the only binding equations are on slots 5 and 6:
    the best scale is mu = a5 + a6.  When that forces mu = 0 the whole
    candidate collapses and the finite block of a stays unmatched.
    """
    mu = a[4] + a[5]
    slot_res = float(np.hypot(mu / 2.0 - a[4], mu / 2.0 - a[5]))
    if abs(mu) < 1e-12:
        return float(np.linalg.norm(a[:4])) + slot_res
    return slot_res


def fixed_sphere_probe(samples: int, rng=None) -> InfinityReport:
    """Check, on `samples` unit normals n, that the classes (n, 1, 0, 0)
    are fixed by conformal inversion and outside the inverted light-cone
    image."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    max_drift = 0.0
    min_residual = np.inf
    for _ in range(samples):
        n = rng.normal(size=3)
        while np.linalg.norm(n) < 1e-3:
            n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        cls = projectivize(np.array([n[0], n[1], n[2], 1.0, 0.0, 0.0]))
        drift = float(np.max(np.abs(conformal_inversion(cls).rep - cls.rep)))
        max_drift = max(max_drift, drift)
        min_residual = min(min_residual, _lightcone_match_residual(cls.rep))
    return InfinityReport(
        sample_count=samples,
        fixed_sphere_max_drift=max_drift,
        missing_confirmed=bool(min_residual >= 0.1),
        min_matching_residual=float(min_residual),
        lightcone_image_class=(
            "slots 5 and 6 equal and nonzero: at infinity, never on the "
            "invariant 2-sphere (whose classes have both slots zero)"
        ),
    )


def oriented_contact(a: LieEntity, b: LieEntity, tol: float = DEFAULT_TOL) -> bool:
    """Oriented tangency: vanishing Q-pairing of the two embeddings.  For
    two spheres this is |c1 - c2|^2 = (r1 - r2)^2."""
    ra = embed_rep(a)
    rb = embed_rep(b)
    scale = float(np.linalg.norm(ra) * np.linalg.norm(rb))
    return abs(q_bilinear(ra, rb)) <= tol * max(scale, 1.0)
