"""Reference routines shared by the tests.

The library builds every basis in closed form (Pluecker coordinates,
Gram-Schmidt); the factorisation oracles here solve the same problems
with numpy's SVD, QR and pseudo-inverse, so the closed forms are checked
against an independent method.  to_json_reference writes JSON one number
at a time, the bytes the CLI's array-at-a-time serializer must match.
GAMMA_TABLE is the paper's Gamma table typed out entry by entry, which the
library derives as Sigma G, and minors_reference gathers the 2x2 minors
of Lambda^2 M from the flattened matrix, which the library reads off the
Pluecker coordinates of M's row pairs.
"""

import itertools
import json
import math

import numpy as np

from spin42.errors import RankFailure
from spin42.forms import DEFAULT_TOL, Q_DIAG, RANK_FLOOR
from spin42.isotropic import _idempotents

_i = 1j

GAMMA_TABLE = np.array([
    [[0, 0, _i, 0], [0, 0, 0, -_i], [_i, 0, 0, 0], [0, -_i, 0, 0]],
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    [[0, 0, 0, -_i], [0, 0, -_i, 0], [0, -_i, 0, 0], [-_i, 0, 0, 0]],
    [[0, _i, 0, 0], [-_i, 0, 0, 0], [0, 0, 0, _i], [0, 0, -_i, 0]],
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
], dtype=complex)

# the minor M[i, k] M[j, l] - M[i, l] M[j, k] of rows i < j and columns
# k < l, pairs in itertools.combinations order; the four factors of all 36
# minors are gathered from the flattened M in one take
_PAIR_I, _PAIR_J = np.array(list(itertools.combinations(range(4), 2))).T[:, :, None]
_MINOR_FACTORS = np.concatenate([4 * _PAIR_I + _PAIR_I.T, 4 * _PAIR_J + _PAIR_J.T,
                                 4 * _PAIR_I + _PAIR_J.T, 4 * _PAIR_J + _PAIR_I.T], axis=None)


def minors_reference(m: np.ndarray) -> np.ndarray:
    """Lambda^2 M of a stack (..., 4, 4), as (..., 6, 6), by one flat gather."""
    lead = m.shape[:-2]
    f = np.take(m.reshape(*lead, 16), _MINOR_FACTORS, axis=-1).reshape(*lead, 4, 6, 6)
    return f[..., 0, :, :] * f[..., 1, :, :] - f[..., 2, :, :] * f[..., 3, :, :]


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


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        return json.dumps(x)  # NaN, Infinity, -Infinity: what json.loads reads
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, ".17g")


def to_json_reference(obj) -> str:
    """Compact JSON with sorted keys, 17-significant-digit floats, and
    complex numbers as [re, im] pairs, one Python call per number."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{to_json_reference(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(to_json_reference(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return to_json_reference(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)},{_fmt_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")
