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

from .errors import InvalidEntity, NotNull, ZeroVector

Q_DIAG = np.array([1.0, 1.0, 1.0, -1.0, 1.0, -1.0])
Q_DIAG.setflags(write=False)

Q6 = np.diag(Q_DIAG)
Q6.setflags(write=False)

G_DIAG = np.array([1.0, 1.0, -1.0, -1.0])
G_DIAG.setflags(write=False)

G4 = np.diag(G_DIAG).astype(complex)
G4.setflags(write=False)

DEFAULT_TOL = 1e-9

# Tolerance policy: an input gate judges what the caller passed at `tol`
# exactly; a post-condition gate judges what the library computed from
# validated inputs at max(tol, FLOOR), never tighter than the gate its input
# passed.  Every gate is written so that a NaN deviation fails it.

# Rank cut on systems built from validated data: zero singular values are ~1e-15.
RANK_FLOOR = 1e-9
# Residuals of chained products of validated factors carry every step's rounding.
RESIDUAL_FLOOR = 1e-8
# Kernel singular values of X(x), x a unit vector null at tol, are ~tol; the rest ~1.
KERNEL_FLOOR = 1e-6


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Return arr, or raise InvalidEntity if any entry is NaN or infinite."""
    if not np.isfinite(arr).all():
        raise InvalidEntity(f"non-finite components in {what}")
    return arr


def as_vec6(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (6,):
        raise ValueError(f"expected a 6-vector, got shape {arr.shape}")
    return check_finite(arr, "6-vector")


def as_spinor(s) -> np.ndarray:
    arr = np.asarray(s, dtype=complex)
    if arr.shape != (4,):
        raise ValueError(f"expected a 4-spinor, got shape {arr.shape}")
    return check_finite(arr, "spinor")


# Kernels: the `_`-prefixed functions take arrays that already passed
# as_vec6/as_spinor (or that the library computed from such arrays) and do
# only the arithmetic; the public functions validate once and call them.


def _q(x: np.ndarray) -> float:
    return float(np.dot(x, Q_DIAG * x))


def _qb(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(x, Q_DIAG * y))


def _g(s: np.ndarray, t: np.ndarray) -> complex:
    return complex(np.dot(s, G_DIAG * np.conj(t)))


def _null(x: np.ndarray, tol: float) -> bool:
    return abs(_q(x)) <= tol * float(np.dot(x, x))


def _canon(x: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(x)))
    if x[k] == 0.0:
        raise ZeroVector("cannot canonicalize the zero vector")
    rep = x / x[k]
    return rep + 0.0


def q_form(x) -> float:
    """Q(x) = x1^2 + x2^2 + x3^2 - x4^2 + x5^2 - x6^2."""
    return _q(as_vec6(x))


def q_bilinear(x, y) -> float:
    """The symmetric pairing (x, y) with (x, x) = Q(x)."""
    return _qb(as_vec6(x), as_vec6(y))


def g_form(s, t) -> complex:
    """Pseudo-Hermitian form on spinors, conjugating the second argument."""
    return _g(as_spinor(s), as_spinor(t))


def is_null(x, tol: float = DEFAULT_TOL) -> bool:
    """Nullity relative to the squared Euclidean norm, so rescaling a null
    vector never flips its status."""
    return _null(as_vec6(x), tol)


def canonicalize(x) -> np.ndarray:
    """Scale so the largest-magnitude component becomes +1 (first such
    index on ties), and normalize -0.0 to +0.0."""
    return _canon(as_vec6(x))


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


def _null_gate(x: np.ndarray, tol: float) -> np.ndarray:
    if not float(np.linalg.norm(x)) > tol:
        raise ZeroVector("a null class needs a nonzero vector")
    if not _null(x, tol):
        raise NotNull(f"Q(x) = {_q(x):g} is not null at tolerance {tol:g}")
    return x


def as_null_vec6(x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The input gate of every null-class operation: ZeroVector when
    ||x|| <= tol, NotNull when |Q(x)| > tol * ||x||^2."""
    return _null_gate(as_vec6(x), tol)


def _projective(x: np.ndarray, tol: float) -> ProjectiveNullLine:
    rep = _canon(_null_gate(x, tol))
    rep.setflags(write=False)
    return ProjectiveNullLine(rep)


def projectivize(x, tol: float = DEFAULT_TOL) -> ProjectiveNullLine:
    """Canonical projective class of a nonzero null vector, gated at tol."""
    return _projective(as_vec6(x), tol)
