"""Batch invariance of the array kernels the verify suites call.

Row i of a block must read the same bits whether its kernel runs on the
whole block, on any prefix of the block that holds row i, or on row i
alone, with no leading axis, as the public scalar functions pass it.  A
kernel whose rounding followed the length of its stack would report one
deviation for a sample in a full run and another for the same sample
replayed alone.

The kernels are listed by hand, one entry each: the kernel, a call that
fixes its other arguments, and the arrays of a block of ROWS rows that it
takes.  Blocks come from the samplers the suites draw from.  CI runs
this file a second time with one BLAS thread.
"""

import numpy as np
import pytest

from spin42 import sampling
from spin42.clifford import (
    _adjoint,
    _det4,
    _det_identity,
    _pluecker,
    _reality_residual,
    _volume,
    _x_matrix,
)
from spin42.exterior import (
    _decomposable,
    _graded,
    _herm16,
    _phi,
    _phi_inverse,
    _star16,
    _wedge16,
)
from spin42.forms import DEFAULT_TOL, RESIDUAL_FLOOR, _canon, _g, _null_gate, _projective, _q, _qb
from spin42.isotropic import (
    _four_idempotents,
    _idempotents,
    _line_plane,
    _partner,
    _plane_line,
    _pluecker_gap,
    _spinor_plane,
    _spinor_plane_class,
)
from spin42.liesphere import _contact, _extract, _inversion, _plane_rep, _sphere_rep
from spin42.spin import _covering, _members, _q_devs, _so_plus, _su22_devs, _vector_action
from spin42.suites import _kv_devs

ROWS = 120


def _blocks():
    """The named blocks, each an array whose axis 0 holds the ROWS rows."""
    rng = np.random.default_rng(20)
    m = sampling.random_spin_element(rng, n=ROWS)
    x, y = rng.normal(size=(2, ROWS, 6))
    null = sampling.random_null_vec6(rng, n=ROWS)
    planes = sampling.random_isotropic_plane(rng, ROWS)
    spinors = sampling.random_isotropic_spinor(rng, ROWS)
    grades = rng.integers(0, 5, size=(2, ROWS))
    a, b = sampling._graded_kvectors(rng, grades)
    complex_m = rng.normal(size=(ROWS, 4, 4)) + 1j * rng.normal(size=(ROWS, 4, 4))
    bivectors = rng.normal(size=(2, ROWS, 6)) + 1j * rng.normal(size=(2, ROWS, 6))
    kernel = _spinor_plane(null, DEFAULT_TOL)
    centers, radii = sampling.random_sphere(rng, n=ROWS)
    normals, offsets = sampling.random_plane(rng, n=ROWS)
    return {
        "m": m, "complex_m": complex_m, "x": x, "y": y, "null": null,
        "partner": _partner(null), "x1": planes[:, 0], "x2": planes[:, 1],
        "spinors": spinors, "kernel": kernel, "kernel_b1": kernel[:, 0],
        "k": grades[0], "a": a, "b": b, "p": bivectors[0], "q": bivectors[1],
        "xm": _x_matrix(x), "l": _covering(m, DEFAULT_TOL), "phi_x": _phi(x),
        "phi_null": _phi(null), "centers": centers, "radii": radii,
        "normals": normals, "offsets": offsets,
        "reps": _projective(np.concatenate([_sphere_rep(centers[:60], radii[:60]),
                                            _plane_rep(normals[60:], offsets[60:])]),
                            DEFAULT_TOL),
    }


BLOCKS = _blocks()

# (name, call, the blocks it takes)
KERNELS = [
    # clifford
    ("_adjoint", _adjoint, ["complex_m"]),
    ("_x_matrix", _x_matrix, ["x"]),
    ("_det4", _det4, ["complex_m"]),
    ("_det_identity", _det_identity, ["x"]),
    ("_reality_residual", _reality_residual, ["xm"]),
    ("_pluecker of spinors", _pluecker, ["p", "q"]),
    ("_pluecker of 6-vectors", _pluecker, ["x", "y"]),
    ("_volume", _volume, ["p", "q"]),
    # exterior
    ("_graded", lambda c: _graded(2, c), ["p"]),
    ("_wedge16", _wedge16, ["a", "b"]),
    ("_herm16", _herm16, ["a", "b"]),
    ("_star16", _star16, ["a"]),
    ("_phi", _phi, ["x"]),
    ("_phi_inverse", lambda c: _phi_inverse(c, DEFAULT_TOL), ["phi_x"]),
    ("_decomposable of null vectors", lambda c: _decomposable(c, DEFAULT_TOL), ["phi_null"]),
    ("_decomposable of bivectors", lambda c: _decomposable(c, DEFAULT_TOL), ["p"]),
    # forms
    ("_q", _q, ["x"]),
    ("_qb", _qb, ["x", "y"]),
    ("_g", _g, ["spinors", "kernel_b1"]),
    ("_canon", _canon, ["x"]),
    ("_null_gate", lambda v: _null_gate(v, DEFAULT_TOL), ["null"]),
    ("_projective", lambda v: _projective(v, DEFAULT_TOL), ["null"]),
    # isotropic
    ("_partner", _partner, ["null"]),
    ("_idempotents", _idempotents, ["null", "partner"]),
    ("_spinor_plane", lambda v: _spinor_plane(v, DEFAULT_TOL), ["null"]),
    ("_spinor_plane_class", lambda b: _spinor_plane_class(b, DEFAULT_TOL), ["kernel"]),
    ("_plane_line", lambda x1, x2: _plane_line(x1, x2, DEFAULT_TOL), ["x1", "x2"]),
    ("_line_plane", lambda v: _line_plane(v, DEFAULT_TOL), ["spinors"]),
    ("_four_idempotents", lambda x1, x2: _four_idempotents(x1, x2, DEFAULT_TOL), ["x1", "x2"]),
    ("_pluecker_gap", _pluecker_gap, ["p", "q"]),
    # liesphere
    ("_sphere_rep", _sphere_rep, ["centers", "radii"]),
    ("_plane_rep", _plane_rep, ["normals", "offsets"]),
    ("_extract", lambda r: _extract(r, DEFAULT_TOL), ["reps"]),
    ("_inversion", _inversion, ["reps"]),
    ("_contact", lambda r, s: _contact(r, s, DEFAULT_TOL), ["null", "partner"]),
    # spin
    ("_su22_devs", _su22_devs, ["m"]),
    ("_members", lambda m: _members(m, DEFAULT_TOL), ["m"]),
    ("_vector_action", lambda m, x: _vector_action(m, x, DEFAULT_TOL), ["m", "x"]),
    ("_covering", lambda m: _covering(m, DEFAULT_TOL), ["m"]),
    ("_q_devs", _q_devs, ["l"]),
    ("_so_plus", lambda l: _so_plus(l, RESIDUAL_FLOOR), ["l"]),
    # suites
    ("_kv_devs", _kv_devs, ["k", "a", "b"]),
]


def _parts(out) -> list[np.ndarray]:
    """The arrays of a kernel's result, one or a tuple of them."""
    return [np.asarray(o) for o in (out if isinstance(out, tuple) else (out,))]


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def _rows_differing(full: list[np.ndarray], out: list[np.ndarray], rows) -> list[int]:
    """The indices i in rows where some part of out, indexed by its
    position in rows, differs in its bits from row i of full."""
    return [i for pos, i in enumerate(rows)
            if any(_bits(f[i]) != _bits(o[pos]) for f, o in zip(full, out))]


@pytest.mark.parametrize("call,names", [k[1:] for k in KERNELS], ids=[k[0] for k in KERNELS])
def test_a_row_reads_the_same_bits_alone_and_in_every_prefix(call, names):
    args = [BLOCKS[n] for n in names]
    assert all(len(a) == ROWS for a in args)
    full = _parts(call(*args))
    assert all(len(f) == ROWS for f in full)
    alone = [_parts(call(*(a[i] for a in args))) for i in range(ROWS)]
    differ = _rows_differing(full, [np.stack(p) for p in zip(*alone)], range(ROWS))
    assert not differ, f"rows read alone differ from the block at {differ}"
    for length in range(1, ROWS):
        differ = _rows_differing(full, _parts(call(*(a[:length] for a in args))), range(length))
        assert not differ, f"rows of the {length}-row prefix differ at {differ}"
