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

import math
from typing import Union

import numpy as np

from .errors import InvalidEntity, Unclassifiable
from .forms import (
    DEFAULT_TOL,
    ProjectiveNullLine,
    Record,
    _projective,
    _qb,
    as_vec6,
    check_finite,
    projectivize,
    require,
)


class Point(Record):
    __match_args__ = ("p",)

    def __init__(self, p: np.ndarray):
        object.__setattr__(self, "p", _vec3(p))


class Infinity(Record):
    pass


class Sphere(Record):
    __match_args__ = ("center", "signed_radius")

    def __init__(self, center: np.ndarray, signed_radius: float):
        object.__setattr__(self, "center", _vec3(center))
        object.__setattr__(self, "signed_radius", float(signed_radius))


class Plane(Record):
    __match_args__ = ("normal", "offset")

    def __init__(self, normal: np.ndarray, offset: float):
        object.__setattr__(self, "normal", _vec3(normal))
        object.__setattr__(self, "offset", float(offset))


LieEntity = Union[Point, Infinity, Sphere, Plane]

# the inversion negates slot 5: its signs, and its matrix
_INVERSION_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
_INVERSION_SIGNS.setflags(write=False)
INVERSION_MATRIX = np.diag(_INVERSION_SIGNS)
INVERSION_MATRIX.setflags(write=False)


def _vec3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise InvalidEntity(f"expected a 3-vector, got shape {arr.shape}")
    return check_finite(arr, "3-vector")


# Kernels over leading axes: raw embeddings, the classification of
# canonical representatives, inversion and the contact pairing.


def _sphere_rep(c: np.ndarray, r) -> np.ndarray:
    """Raw null vectors (..., 6) of spheres with centers c (..., 3) and
    signed radii r (...); a point is r = 0."""
    c2 = np.vecdot(c, c)
    rep = np.empty(c.shape[:-1] + (6,))
    rep[..., :3] = c
    rep[..., 3] = r
    rep[..., 4] = -(1.0 - c2 + r * r) / 2.0
    rep[..., 5] = (1.0 + c2 - r * r) / 2.0
    return rep


def _plane_rep(n: np.ndarray, h) -> np.ndarray:
    """Raw null vectors (..., 6) of the oriented planes n.x = h."""
    rep = np.empty(n.shape[:-1] + (6,))
    rep[..., :3] = n
    rep[..., 3] = 1.0
    rep[..., 4] = h
    rep[..., 5] = h
    return rep


def _sphere_embedding(c: np.ndarray, r: float) -> np.ndarray:
    """_sphere_rep of one finite center and radius, refused where |c|^2 or
    r^2 overflows, which would put an infinite slot into the embedding."""
    if not (np.vdot(c, c) < np.inf and r * r < np.inf):  # np.vdot sets no overflow warning
        raise InvalidEntity("center or radius too large: its square overflows")
    return _sphere_rep(c, r)


def embed_rep(ent: LieEntity) -> np.ndarray:
    """Raw (uncanonicalized) null 6-vector of an entity."""
    if isinstance(ent, Infinity):
        return np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    if isinstance(ent, Point):
        return _sphere_embedding(ent.p, 0.0)
    if isinstance(ent, Sphere):
        if not math.isfinite(ent.signed_radius) or ent.signed_radius == 0.0:
            raise InvalidEntity("sphere radius must be finite and nonzero")
        return _sphere_embedding(ent.center, ent.signed_radius)
    if isinstance(ent, Plane):
        # the root of the dot product is np.linalg.norm's, without its wrapper
        if abs(math.sqrt(ent.normal.dot(ent.normal)) - 1.0) > 1e-12:
            raise InvalidEntity("plane normal must be a unit vector")
        if not math.isfinite(ent.offset):
            raise InvalidEntity("plane offset must be finite")
        return _plane_rep(ent.normal, ent.offset)
    raise InvalidEntity(f"not a geometric entity: {ent!r}")


def lie_embed(ent: LieEntity, tol: float = DEFAULT_TOL) -> ProjectiveNullLine:
    """Canonical projective null class of an entity; tol is the nullity
    and zero-norm gate of projectivize."""
    return projectivize(embed_rep(ent), tol)


# the kinds of _extract's rows
INFINITY, PLANE, POINT, SPHERE = range(4)


def _extract(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of lie_extract on canonical representatives (..., 6): the
    kind of each row and its normal-form coordinates (..., 6), a / a4 for
    a plane (n, 1, h, h) and a / (a6 - a5) for a sphere or point
    (c, r, ., .).  A row at infinity with no radius slot raises
    Unclassifiable, naming the row."""
    gap = a[..., 5] - a[..., 4]
    at_inf = abs(gap) <= tol
    finite_zero = abs(a[..., :4]).max(axis=-1) <= tol
    require(~at_inf | finite_zero | (abs(a[..., 3]) > tol), Unclassifiable,
            lambda i, at: f"class{at} at infinity with no radius slot: no entity normal form fits")
    # the sphere/point gauge rescales so slot6 - slot5 = 1
    coords = a / np.where(at_inf, np.where(finite_zero, 1.0, a[..., 3]), gap)[..., None]
    # at infinity, slot 4 in this gauge is within tol of 0 exactly when the
    # finite block is: the gauge 1 leaves it at most the block's largest
    # entry, and a plane's gauge makes it a4 / a4 = 1, while its block,
    # canonical so at most 1, exceeds tol.  With the kinds in the order of
    # range(4), a row's kind is SPHERE, less 2 at infinity, less 1 where
    # slot 4 is within tol of 0
    kind = SPHERE - 2 * at_inf - (abs(coords[..., 3]) <= tol)
    return kind, coords


def lie_extract(p: ProjectiveNullLine, tol: float = DEFAULT_TOL) -> LieEntity:
    """Inverse of lie_embed by normal-form matching on the canonical
    representative (whose largest component is 1, so the tolerances are
    absolute)."""
    kind, b = _extract(p.rep, tol)
    kind = int(kind)
    if kind == INFINITY:
        return Infinity()
    if kind == PLANE:
        return Plane(b[:3], b[4])
    if kind == POINT:
        return Point(b[:3])
    return Sphere(b[:3], b[3])


def _inversion(rep: np.ndarray) -> np.ndarray:
    """Kernel of conformal_inversion on class representatives (..., 6)."""
    return _projective(rep * _INVERSION_SIGNS, DEFAULT_TOL)


def conformal_inversion(p: ProjectiveNullLine) -> ProjectiveNullLine:
    """Negate the 5th coordinate and re-canonicalize; an involution on
    classes, and a Q-isometry of the ambient space."""
    return ProjectiveNullLine(_inversion(as_vec6(p.rep)))


def is_at_infinity(p: ProjectiveNullLine, tol: float = DEFAULT_TOL) -> bool:
    return bool(abs(p.rep[4] - p.rep[5]) <= tol)


class InfinityReport(Record):
    """Outcome of the invariant-2-sphere probe."""

    __match_args__ = ("sample_count", "fixed_sphere_max_drift", "missing_confirmed",
                      "min_matching_residual", "lightcone_image_class")

    def __init__(self, sample_count: int, fixed_sphere_max_drift: float,
                 missing_confirmed: bool, min_matching_residual: float,
                 lightcone_image_class: str):
        object.__setattr__(self, "sample_count", sample_count)
        object.__setattr__(self, "fixed_sphere_max_drift", fixed_sphere_max_drift)
        object.__setattr__(self, "missing_confirmed", missing_confirmed)
        object.__setattr__(self, "min_matching_residual", min_matching_residual)
        object.__setattr__(self, "lightcone_image_class", lightcone_image_class)


def _lightcone_match_residual(a: np.ndarray) -> np.ndarray:
    """Distance from canonical classes (..., 6) to the inverted light-cone
    family.

    Inverted light-cone classes carry the normal form (x, t, 1/2, 1/2)
    with (x, t) free, so the only binding equations are on slots 5 and 6:
    the best scale is mu = a5 + a6.  When that forces mu = 0 the whole
    candidate collapses and the finite block of a stays unmatched.
    """
    mu = a[..., 4] + a[..., 5]
    slot_res = np.hypot(mu / 2.0 - a[..., 4], mu / 2.0 - a[..., 5])
    collapsed = np.sqrt(np.vecdot(a[..., :4], a[..., :4])) + slot_res
    return np.where(abs(mu) < 1e-12, collapsed, slot_res)


def fixed_sphere_probe(samples: int, rng=None) -> InfinityReport:
    """Check, on `samples` unit normals n, that the classes (n, 1, 0, 0)
    are fixed by conformal inversion and outside the inverted light-cone
    image.  The normals are one block of sampling.unit_vec3."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    from .sampling import unit_vec3  # sampling builds on this module

    cls = _projective(_plane_rep(unit_vec3(rng, samples), 0.0), DEFAULT_TOL)
    min_residual = float(_lightcone_match_residual(cls).min())
    return InfinityReport(
        sample_count=samples,
        fixed_sphere_max_drift=float(abs(_inversion(cls) - cls).max()),
        missing_confirmed=bool(min_residual >= 0.1),
        min_matching_residual=min_residual,
        lightcone_image_class=(
            "slots 5 and 6 equal and nonzero: at infinity, never on the "
            "invariant 2-sphere (whose classes have both slots zero)"
        ),
    )


def _contact(ra: np.ndarray, rb: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of oriented_contact on raw embeddings (..., 6)."""
    scale = np.sqrt(np.vecdot(ra, ra)) * np.sqrt(np.vecdot(rb, rb))
    return abs(_qb(ra, rb)) <= tol * np.maximum(scale, 1.0)


def oriented_contact(a: LieEntity, b: LieEntity, tol: float = DEFAULT_TOL) -> bool:
    """Oriented tangency: vanishing Q-pairing of the two embeddings.  For
    two spheres this is |c1 - c2|^2 = (r1 - r2)^2."""
    return bool(_contact(embed_rep(a), embed_rep(b), tol))
