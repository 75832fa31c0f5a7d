"""Scalar forms and projective classes.

The ambient space is real 6-space with the signature (4,2) quadratic form
Q = diag(1, 1, 1, -1, 1, -1); the spinor space is complex 4-space with the
pseudo-Hermitian form G = diag(1, 1, -1, -1).  Everything downstream
(generator tables, bivectors, group actions, sphere coordinates) is built
over these two forms, so their conventions are frozen here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNull, ZeroVector

Q_DIAG = np.array([1.0, 1.0, 1.0, -1.0, 1.0, -1.0])
Q_DIAG.setflags(write=False)

Q6 = np.diag(Q_DIAG)
Q6.setflags(write=False)

G_DIAG = np.array([1.0, 1.0, -1.0, -1.0])
G_DIAG.setflags(write=False)

G4 = np.diag(G_DIAG).astype(complex)
G4.setflags(write=False)

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Numeric policy: absolute tolerance for residuals and a relative
    tolerance for rank decisions."""

    abs_tol: float = 1e-9
    rank_rel_tol: float = 1e-9

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rank_rel_tol > 0):
            raise ValueError("tolerances must be strictly positive")


def as_vec6(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (6,):
        raise ValueError(f"expected a 6-vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite components in 6-vector")
    return arr


def as_spinor(s) -> np.ndarray:
    arr = np.asarray(s, dtype=complex)
    if arr.shape != (4,):
        raise ValueError(f"expected a 4-spinor, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite components in spinor")
    return arr


def q_form(x) -> float:
    """Q(x) = x1^2 + x2^2 + x3^2 - x4^2 + x5^2 - x6^2."""
    x = as_vec6(x)
    return float(np.dot(x, Q_DIAG * x))


def q_bilinear(x, y) -> float:
    """The symmetric pairing (x, y) with (x, x) = Q(x)."""
    x = as_vec6(x)
    y = as_vec6(y)
    return float(np.dot(x, Q_DIAG * y))


def g_form(s, t) -> complex:
    """Pseudo-Hermitian form on spinors, conjugating the second argument."""
    s = as_spinor(s)
    t = as_spinor(t)
    return complex(np.dot(s, G_DIAG * np.conj(t)))


def is_null(x, tol: float = DEFAULT_TOL) -> bool:
    """Nullity relative to the squared Euclidean norm, so rescaling a null
    vector never flips its status."""
    x = as_vec6(x)
    n2 = float(np.dot(x, x))
    return abs(q_form(x)) <= tol * n2


def canonicalize(x) -> np.ndarray:
    """Scale so the largest-magnitude component becomes +1 (first such
    index on ties), and normalize -0.0 to +0.0."""
    x = as_vec6(x)
    k = int(np.argmax(np.abs(x)))
    if x[k] == 0.0:
        raise ZeroVector("cannot canonicalize the zero vector")
    rep = x / x[k]
    return rep + 0.0


@dataclass(frozen=True, eq=False)
class ProjectiveNullLine:
    """A point of the projective null quadric: the class of a null 6-vector
    modulo nonzero real scale, stored via its canonical representative."""

    rep: np.ndarray

    def same_class(self, other, tol: float = DEFAULT_TOL) -> bool:
        if isinstance(other, ProjectiveNullLine):
            other = other.rep
        other = canonicalize(other)
        return bool(np.max(np.abs(self.rep - other)) <= tol)

    def __eq__(self, other):
        if not isinstance(other, ProjectiveNullLine):
            return NotImplemented
        return self.same_class(other)


def projectivize(x, tol: float = DEFAULT_TOL) -> ProjectiveNullLine:
    """Canonical projective class of a nonzero null vector.

    Raises ZeroVector when the norm is below tolerance and NotNull when
    |Q(x)| exceeds tol * ||x||^2.
    """
    x = as_vec6(x)
    norm = float(np.linalg.norm(x))
    if norm <= tol:
        raise ZeroVector("cannot projectivize a (numerically) zero vector")
    if not is_null(x, tol):
        raise NotNull(f"Q(x) = {q_form(x):g} is not null at tolerance {tol:g}")
    rep = canonicalize(x)
    rep.setflags(write=False)
    return ProjectiveNullLine(rep)
