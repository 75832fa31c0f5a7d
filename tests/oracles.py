"""Factorisation oracles shared by the tests.

The library builds every basis in closed form (Pluecker coordinates,
Gram-Schmidt); these reference routines solve the same problems with
numpy's SVD, QR and pseudo-inverse, so the closed forms are checked
against an independent method.
"""

import numpy as np

from spin42.errors import RankFailure
from spin42.forms import DEFAULT_TOL, Q_DIAG, RANK_FLOOR
from spin42.isotropic import _idempotents


def image_basis(m: np.ndarray, dim: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the image of a matrix, or of each
    matrix of a stack, by SVD: the left singular vectors of the singular
    values above max(tol, RANK_FLOOR) times the largest, whose count must
    be dim on every matrix, else RankFailure."""
    u, s, _ = np.linalg.svd(m)
    rank = (s > max(tol, RANK_FLOOR) * s[..., :1]).sum(axis=-1)
    if np.any(rank != dim):
        raise RankFailure(f"image has rank {rank}, not {dim}")
    return u[..., :dim]


def qr_pinv_four_idempotents(x1: np.ndarray, x2: np.ndarray):
    """R1..R4 of plane bases x1, x2 (..., 6) over the QR factor q of
    [x1 x2], with the dual basis Y = Q (q^+)^T / 2 from numpy's pinv and
    the correction Y <- Y - q (Y^T Q Y)."""
    q, _ = np.linalg.qr(np.stack([x1, x2], axis=-1))
    y = Q_DIAG[:, None] * np.linalg.pinv(q).mT / 2.0
    y = y - q @ (y.mT @ (Q_DIAG[:, None] * y))
    p1, c1 = _idempotents(q[..., 0], y[..., 0])
    p2, c2 = _idempotents(q[..., 1], y[..., 1])
    return p1 @ p2, p1 @ c2, c1 @ p2, c1 @ c2
