"""Reference routines shared by the tests.

The library builds every basis in closed form (Pluecker coordinates,
Gram-Schmidt); the factorisation oracles here solve the same problems
with numpy's SVD, QR and pseudo-inverse, so the closed forms are checked
against an independent method.  to_json_reference writes JSON one number
at a time, the bytes the CLI's array-at-a-time serializer must match.
GAMMA_TABLE is the paper's Gamma table typed out entry by entry, which the
library derives as Sigma G, and minors_reference gathers the 2x2 minors
of Lambda^2 M from the flattened matrix, which the library reads off the
Pluecker coordinates of M's row pairs.  argparse_reference is the
command-line parse the CLI once made with argparse, against which its
table-driven parse is checked.  spinor_line is the one-spinor wrapper of
the kernel isotropic._spinor_line, which no library function needs.
"""

import itertools
import json
import math
import os

import numpy as np

from spin42.errors import RankFailure
from spin42.forms import DEFAULT_TOL, Q_DIAG, RANK_FLOOR, as_spinor
from spin42.isotropic import SpinorLine, _idempotents, _spinor_line

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


def spinor_line(v, tol: float = DEFAULT_TOL) -> SpinorLine:
    """Validate (at tol exactly) and canonicalize an isotropic spinor
    representative (largest-magnitude component scaled to 1)."""
    return SpinorLine(_spinor_line(as_spinor(v), tol))


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


class ReferenceUsageError(Exception):
    """A command line the argparse reference refuses, in the words the CLI
    printed after "Error: "."""


def argparse_reference(prog: str):
    """The command-line parse the CLI made with the standard library's
    argparse: one parser with a subparser per command, built from the
    _Param records of spin42.cli._COMMANDS, whose error() rewords argparse's
    "argument --tol: ..." as "Invalid value for '--tol': ...".  Returns
    parse(args) -> (command, keyword arguments), which raises
    ReferenceUsageError for a refused line and prints the help of --help,
    then exits 0."""
    import argparse

    from spin42.cli import _COMMANDS, _DESCRIPTION, _HELP

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            if message.startswith("argument "):
                name, _, detail = message[len("argument "):].partition(": ")
                message = f"Invalid value for '{name}': {detail}"
            raise ReferenceUsageError(message)

    def argparse_type(convert):
        # the converters' ValueError text, as argparse prints an
        # ArgumentTypeError's
        def read(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return read

    parser = Parser(prog=prog, description=_DESCRIPTION, add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help", help=_HELP.help)
    commands = parser.add_subparsers(title="commands", dest="command", required=True)
    for name, (fn, params) in sorted(_COMMANDS.items()):
        doc = " ".join(fn.__doc__.split())
        sub = commands.add_parser(name, help=doc.split("; ")[0], description=doc,
                                  add_help=False, allow_abbrev=False)
        for p in params:
            if p is _HELP:
                continue
            kind = p.type and argparse_type(p.type)
            if not p.name.startswith("--"):
                sub.add_argument(p.dest, metavar=p.name, type=kind)
            elif p.type is None:
                sub.add_argument(p.name, dest=p.dest, action="store_true", help=p.help)
            else:
                sub.add_argument(p.name, dest=p.dest, type=kind, default=p.default,
                                 metavar=p.dest.upper(), help=f"{p.help}  [default: {p.default}]")
        sub.add_argument("--help", action="help", help=_HELP.help)

    def parse(args):
        # argparse converts a string default as it would the flag's text
        tol = os.environ.get("CMK_TOL") or str(DEFAULT_TOL)
        for command in commands.choices.values():
            command.set_defaults(tol=tol)
        namespace, extra = parser.parse_known_args(args)
        given = vars(namespace)
        name = given.pop("command")
        if extra:
            raise ReferenceUsageError(f"unrecognized arguments: {' '.join(extra)}")
        return name, given

    return parse
