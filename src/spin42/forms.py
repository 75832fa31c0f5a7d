"""Scalar forms and projective classes.

The ambient space is real 6-space with the signature (4,2) quadratic form
Q = diag(1, 1, 1, -1, 1, -1); the spinor space is complex 4-space with the
pseudo-Hermitian form G = diag(1, 1, -1, -1).  Everything downstream
(generator tables, bivectors, group actions, sphere coordinates) is built
over these two forms, so their conventions are frozen here.
"""

from __future__ import annotations

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

# Rank cut on data built from validated inputs: zero singular values, wedges ~1e-15.
RANK_FLOOR = 1e-9
# Residuals of chained products of validated factors carry every step's rounding.
RESIDUAL_FLOOR = 1e-8
# Squared norms above which a projective gate rescales its input: the fourth
# power of a norm, as in the Pluecker norm of X(x)'s two columns, must not overflow.
HUGE_NORM2 = 2.0 ** 500
# Entry scale s = max(1, max |m_ij|) up to which the SU(2,2) kernels of
# `spin` answer.  They read their answers off M's 2x2 minors, which cancel
# under a strong boost and round at eps s^2, so eps * SCALE_MAX^2 = 2^-12
# is their stated absolute accuracy; past it is_su22 answers False and the
# covering kernels raise.  Below it no product of entries overflows.
SCALE_MAX = 2.0 ** 20


class Record:
    """Base of the package's frozen records: a class names its fields, in
    order, in __match_args__, and its own __init__ sets them through
    object.__setattr__, since assigning to or deleting an attribute raises
    dataclasses.FrozenInstanceError.  repr, == (between instances of the
    same class) and hash go field by field; == compares array fields by
    value (np.array_equal) and every other field with ==.  A record holding
    an array is not hashable, and a class that defines its own __eq__ is
    not hashable at all."""

    __match_args__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # identity first, as tuple == does: a record holding a NaN equals itself
        return all(a is b or (np.array_equal(a, b) if type(a) is np.ndarray else a == b)
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())


def _finite(arr: np.ndarray) -> bool:
    """Whether every entry of arr is finite: the verdict of check_finite,
    for gates that answer False rather than raise."""
    return np.vdot(arr, arr).real < np.inf or np.isfinite(arr).all()


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Return arr, or raise InvalidEntity if any entry is NaN or infinite.

    One np.vdot judges a finite input: its sum of squares |a_i|^2 is
    finite only if every entry is, since an infinite entry makes its term
    inf and a NaN makes it NaN, and no term is negative, so nothing can
    cancel an inf.  A sum that reads inf or NaN may also come from finite
    entries whose squares overflow (1e200, or a complex product's
    inf - inf), so only then is every entry asked.  np.vdot is not a
    ufunc and sets no overflow warning."""
    if not _finite(arr):
        raise InvalidEntity(f"non-finite components in {what}")
    return arr


def _at(index: tuple) -> str:
    """Where index is: " at row i" in a stack, " at index (i, j, ...)" over
    more leading axes, "" for one object."""
    if not index:
        return ""
    return f" at row {index[0]}" if len(index) == 1 else f" at index {index}"


def _every(ok: np.ndarray) -> bool:
    """Whether the mask ok holds on every row.  A single object's 0-d mask
    is read without a reduction, which costs about as much as a small
    kernel; an empty stack passes."""
    return ok.all() if ok.ndim else ok


def require(ok: np.ndarray, error: type[Exception], message) -> None:
    """The row gate of every kernel: nothing when the pass mask ok holds on
    every row (_every); otherwise raise error(message(index, _at(index)))
    for the first failing index.  A NaN comparison is False, so it fails
    the gate."""
    if _every(ok):
        return
    index = tuple(int(i) for i in np.argwhere(~ok)[0])
    raise error(message(index, _at(index)))


def _rescaled(x: np.ndarray, bound: float = HUGE_NORM2) -> tuple[np.ndarray, np.ndarray]:
    """The overflow policy of every projective gate: checked rows x (..., n)
    and their squared norms, without an overflow warning, with each row
    whose squared norm exceeds bound or overflows divided by the power of
    two that puts its largest real or imaginary part in [0.5, 1): exactly,
    so it is the same class.  The other rows keep every bit.  One row in
    range pays one np.vdot (not a ufunc, so it sets no overflow warning)
    and one comparison."""
    if x.ndim == 1:
        n2 = np.vdot(x, x).real
        if n2 <= bound:  # False on NaN and on an overflowed row
            return x, n2
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = np.vecdot(x, x).real
        fits = n2 <= bound  # False on NaN: a complex product can overflow to inf - inf
        if not fits.all():
            top = np.maximum(abs(x.real), abs(x.imag)).max(axis=-1)
            x = x * np.ldexp(1.0, np.where(fits, 0, -np.frexp(top)[1]))[..., None]
            n2 = np.vecdot(x, x).real
    return x, n2


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
# Every kernel runs over leading axes (a stack of n vectors is one call),
# and its gates name the first failing row through require.


def _q(x: np.ndarray) -> np.ndarray:
    return np.vecdot(x, Q_DIAG * x)


def _qb(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.vecdot(x, Q_DIAG * y)


def _g(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    # vecdot conjugates its first argument
    return np.vecdot(t, G_DIAG * s)


def _null(x: np.ndarray, tol: float) -> np.ndarray:
    x, n2 = _rescaled(x)
    return abs(_q(x)) <= tol * n2


def _pivot(x: np.ndarray) -> np.ndarray:
    """The first largest-magnitude component of each row, as (..., 1);
    a single row takes the cheaper plain gather."""
    k = abs(x).argmax(axis=-1, keepdims=True)
    return x[k] if x.ndim == 1 else np.take_along_axis(x, k, axis=-1)


def _canon(x: np.ndarray) -> np.ndarray:
    pivot = _pivot(x)
    require(pivot[..., 0] != 0.0, ZeroVector,
            lambda i, at: f"cannot canonicalize the zero vector{at}")
    return x / pivot + 0.0


def q_form(x) -> float:
    """Q(x) = x1^2 + x2^2 + x3^2 - x4^2 + x5^2 - x6^2."""
    return float(_q(as_vec6(x)))


def q_bilinear(x, y) -> float:
    """The symmetric pairing (x, y) with (x, x) = Q(x)."""
    return float(_qb(as_vec6(x), as_vec6(y)))


def g_form(s, t) -> complex:
    """Pseudo-Hermitian form on spinors, conjugating the second argument."""
    return complex(_g(as_spinor(s), as_spinor(t)))


def is_null(x, tol: float = DEFAULT_TOL) -> bool:
    """Nullity relative to the squared Euclidean norm, so rescaling a null
    vector never flips its status: a vector whose squared norm would
    overflow is judged divided by a power of two."""
    return bool(_null(as_vec6(x), tol))


def canonicalize(x) -> np.ndarray:
    """Scale so the largest-magnitude component becomes +1 (first such
    index on ties), and normalize -0.0 to +0.0."""
    return _canon(as_vec6(x))


class ProjectiveNullLine(Record):
    """A point of the projective null quadric: the class of a null 6-vector
    modulo nonzero real scale, stored via its canonical representative.
    == compares classes at DEFAULT_TOL; a ProjectiveNullLine is not
    hashable."""

    __match_args__ = ("rep",)

    def __init__(self, rep: np.ndarray):
        object.__setattr__(self, "rep", rep)

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
    x, n2 = _rescaled(x)
    require(np.sqrt(n2) > tol, ZeroVector,
            lambda i, at: f"a null class needs a nonzero vector{at}")
    q = _q(x)
    require(abs(q) <= tol * n2, NotNull,
            lambda i, at: f"Q(x){at} = {q[i]:g} is not null at tolerance {tol:g}")
    return x


def as_null_vec6(x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The input gate of every null-class operation: ZeroVector when
    ||x|| <= tol, NotNull when |Q(x)| > tol * ||x||^2.  Returns x, divided
    by a power of two where ||x||^2 > HUGE_NORM2: the same class, whose
    products no longer overflow."""
    return _null_gate(as_vec6(x), tol)


def _projective(x: np.ndarray, tol: float) -> np.ndarray:
    """The read-only canonical representatives (..., 6) of nonzero null
    vectors, gated at tol."""
    rep = _canon(_null_gate(x, tol))
    rep.setflags(write=False)
    return rep


def projectivize(x, tol: float = DEFAULT_TOL) -> ProjectiveNullLine:
    """Canonical projective class of a nonzero null vector, gated at tol."""
    return ProjectiveNullLine(_projective(as_vec6(x), tol))
