"""Command-line surface: verification suites, coordinate conversions,
correspondence computations, inversion queries, and the infinity report.

All machine output is JSON on stdout with a fixed key order (sorted) and
floats printed with 17 significant digits, so identical seeds and flags
produce byte-identical output; diagnostics go to stderr.  Exit codes:
0 pass, 1 check failure, 2 usage error, 3 contract violation.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import errata
from .errors import InvalidEntity, NotNormalized, Spin42Error
from .forms import DEFAULT_TOL, Q6, as_vec6, g_form, projectivize, q_bilinear, q_form
from .isotropic import (
    isotropic_plane,
    null_to_spinor_plane,
    plane_to_spinor_line,
    spinor_line_to_plane,
)
from .liesphere import (
    Infinity,
    Plane,
    Point,
    Sphere,
    conformal_inversion,
    fixed_sphere_probe,
    lie_embed,
)
from .spin import SpinElement, covering_matrix, is_su22, vector_action
from .suites import SUITE_ORDER, run_suites

_GENERATOR = "numpy-pcg64"


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        return json.dumps(x)  # NaN, Infinity, -Infinity: what json.loads reads
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, ".17g")


def to_json(obj) -> str:
    """Compact JSON with sorted keys, 17-significant-digit floats, and
    complex numbers as [re, im] pairs."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{to_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist())
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


def _emit(obj) -> None:
    click.echo(to_json(obj))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"malformed JSON: {exc}") from exc


def _vec6_from_json(obj) -> np.ndarray:
    try:
        return as_vec6(obj)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"not a 6-vector: {exc}") from exc


def _complex_array(obj, shape) -> np.ndarray:
    def conv(v):
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise ValueError(f"complex entries are [re, im], got {v!r}")
            return complex(float(v[0]), float(v[1]))
        return complex(float(v), 0.0)

    try:
        arr = np.asarray(obj, dtype=object)
        flat = [conv(v) for v in arr.reshape(-1)]
        out = np.asarray(flat, dtype=complex).reshape(arr.shape[: len(shape)])
        if out.shape != shape:
            raise ValueError(f"expected shape {shape}, got {out.shape}")
        return out
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"bad complex array: {exc}") from exc


def _entity_from_json(obj):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InvalidEntity(
            'entity JSON must be one of {"point": ...}, {"infinity": true}, '
            '{"sphere": {...}}, {"plane": {...}}'
        )
    ((kind, body),) = obj.items()
    try:
        if kind == "infinity":
            return Infinity()
        if kind == "point":
            return Point(np.asarray(body, dtype=float))
        if kind == "sphere":
            return Sphere(np.asarray(body["center"], dtype=float), float(body["radius"]))
        if kind == "plane":
            return Plane(np.asarray(body["normal"], dtype=float), float(body["offset"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidEntity(f"malformed {kind}: {type(exc).__name__}: {exc}") from exc
    raise InvalidEntity(f"unknown entity kind {kind!r}")


class _Commands(click.Group):
    """Every command's library contract violation exits 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Spin42Error as exc:
            click.echo(f"contract violation: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)


def _spinor_json(v: np.ndarray):
    return [complex(c) for c in v]


# ---------------------------------------------------------------------------
# commands


_tol_option = click.option(
    "--tol", type=float, default=DEFAULT_TOL, show_default=True, envvar="CMK_TOL",
    help="Deviation tolerance (CMK_TOL env var; the flag wins).")


@click.group(cls=_Commands)
def main():
    """Spinorial model of the conformal compactification: verification
    suites and geometric queries."""


@main.command()
@click.option("--suite", type=click.Choice(SUITE_ORDER + ["all"]), default="all")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=200, show_default=True)
@_tol_option
@click.option("--json", "json_only", is_flag=True, help="Suppress the stderr summary.")
def verify(suite, seed, count, tol, json_only):
    """Run identity suites with a seeded generator; one JSON result per
    suite on stdout; exit 0 iff every suite passed."""
    if count < 1:
        raise click.UsageError("--count must be >= 1")
    _emit({"generator": _GENERATOR, "seed": seed, "count": count,
           "tol": tol, "suite": suite})
    results = run_suites(suite, seed=seed, count=count, tol=tol)
    all_passed = True
    for r in results:
        _emit({
            "suite_name": r.suite_name,
            "checks_run": r.checks_run,
            "max_deviation": r.max_deviation,
            "passed": r.passed,
            "errata_notes": r.errata_notes,
        })
        if not json_only:
            status = "PASS" if r.passed else "FAIL"
            click.echo(
                f"{r.suite_name}: {r.checks_run} checks, "
                f"max deviation {_fmt_float(r.max_deviation)} -> {status}",
                err=True,
            )
        all_passed = all_passed and r.passed
    sys.exit(0 if all_passed else 1)


@main.command()
@click.argument("entity_json")
@_tol_option
def embed(entity_json, tol):
    """Map an entity (point/sphere/plane/infinity JSON) to its canonical
    projective null class."""
    cls = lie_embed(_entity_from_json(_parse_json(entity_json)), tol)
    _emit({"class": cls.rep, "null_residual": abs(q_form(cls.rep))})


@main.command()
@click.argument("line_json")
@_tol_option
def invert(line_json, tol):
    """Conformal inversion of a projective null class (6-array JSON)."""
    x = _vec6_from_json(_parse_json(line_json))
    cls = conformal_inversion(projectivize(x, tol))
    _emit({"class": cls.rep, "null_residual": abs(q_form(cls.rep))})


@main.command()
@click.argument("direction",
                type=click.Choice(["null-to-plane", "plane-to-line", "line-to-plane"]))
@click.argument("payload_json")
@_tol_option
def correspond(direction, payload_json, tol):
    """Correspondences: null 6-vector -> spinor plane; isotropic plane ->
    spinor line; spinor line -> isotropic plane."""
    payload = _parse_json(payload_json)
    if direction == "null-to-plane":
        x = _vec6_from_json(payload)
        plane = null_to_spinor_plane(x, tol)
        residual = max(
            abs(g_form(u, v))
            for u in (plane.b1, plane.b2)
            for v in (plane.b1, plane.b2)
        )
        _emit({
            "basis": [_spinor_json(plane.b1), _spinor_json(plane.b2)],
            "isotropy_residual": residual,
        })
    elif direction == "plane-to-line":
        basis = payload.get("basis") if isinstance(payload, dict) else None
        if not (isinstance(basis, list) and len(basis) == 2):
            raise click.UsageError('payload must be {"basis": [vec6, vec6]}')
        x1, x2 = (_vec6_from_json(b) for b in basis)
        line = plane_to_spinor_line(isotropic_plane(x1, x2, tol), tol)
        _emit({
            "rep": _spinor_json(line.rep),
            "isotropy_residual": abs(g_form(line.rep, line.rep)),
        })
    else:
        v = _complex_array(payload, (4,))
        plane = spinor_line_to_plane(v, tol)
        residual = max(
            abs(q_form(plane.x1)), abs(q_form(plane.x2)),
            abs(q_bilinear(plane.x1, plane.x2)),
        )
        _emit({
            "basis": [plane.x1, plane.x2],
            "isotropy_residual": residual,
        })


@main.command()
@click.argument("matrix_json")
@click.argument("vec6_json")
@_tol_option
def act(matrix_json, vec6_json, tol):
    """Act on a 6-vector by a group element (4x4 complex matrix JSON,
    entries as numbers or [re, im] pairs); also returns the 6x6 covering
    matrix and its Q-residual.  tol judges the matrix's membership."""
    m = _complex_array(_parse_json(matrix_json), (4, 4))
    x = _vec6_from_json(_parse_json(vec6_json))
    if not is_su22(m, tol):
        raise NotNormalized("matrix fails the membership test")
    s = SpinElement(m)
    l = covering_matrix(s, tol)
    q_residual = float(np.max(np.abs(l.l @ Q6 @ l.l.T - Q6)))
    _emit({
        "vector": vector_action(s, x, tol),
        "covering": l.l,
        "q_residual": q_residual,
    })


@main.command(name="myth-report")
@click.option("--samples", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_tol_option
@click.option("--json", "json_only", is_flag=True, help="Suppress the stderr summary.")
def myth_report(samples, seed, tol, json_only):
    """Probe conformal infinity: the inversion-invariant 2-sphere of
    classes (n, 1, 0, 0) is confirmed fixed and absent from the inverted
    light-cone image."""
    if samples < 1:
        raise click.UsageError("--samples must be >= 1")
    report = fixed_sphere_probe(samples, rng=np.random.default_rng(seed))
    _emit({
        "sample_count": report.sample_count,
        "fixed_sphere_max_drift": report.fixed_sphere_max_drift,
        "missing_confirmed": report.missing_confirmed,
        "min_matching_residual": report.min_matching_residual,
        "lightcone_image_class": report.lightcone_image_class,
        "errata_notes": errata.notes("liesphere"),
    })
    passed = report.missing_confirmed and report.fixed_sphere_max_drift <= tol
    if not json_only:
        click.echo(
            f"invariant 2-sphere: {report.sample_count} samples, "
            f"max inversion drift {_fmt_float(report.fixed_sphere_max_drift)}, "
            f"light-cone matching residual >= "
            f"{_fmt_float(report.min_matching_residual)} -> "
            f"{'MISSING CONFIRMED' if report.missing_confirmed else 'NOT CONFIRMED'}",
            err=True,
        )
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
