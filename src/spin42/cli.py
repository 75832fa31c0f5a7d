"""Command-line surface: verification suites, coordinate conversions,
correspondence computations, inversion queries, and the infinity report.

All machine output is JSON on stdout with a fixed key order (sorted) and
floats printed with 17 significant digits, so identical seeds and flags
produce byte-identical output; diagnostics go to stderr.  Exit codes:
0 pass, 1 check failure, 2 usage error, 3 contract violation.

Each command's flags and arguments are one table of _Param records, from
which its command line is parsed and its usage and --help text rendered;
no argument-parsing library is loaded.  The package registers its layers
lazily, and the commands call them through their modules, so a command
runs only the layers it calls.
"""

from __future__ import annotations

import json
import os
import re
import sys
import textwrap
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of a str
from typing import Callable, NamedTuple

import numpy as np

from . import errata, isotropic, liesphere, spin, suites
from .errors import InvalidEntity, NotNormalized, Spin42Error
from .forms import DEFAULT_TOL, as_vec6, g_form, projectivize, q_bilinear, q_form

_GENERATOR = "numpy-pcg64/v3"


# ---------------------------------------------------------------------------
# deterministic JSON


def _numbers(obj):
    """obj written by one "%.17g" format nested as its shape when it is a
    float or complex array of at least one axis, a list of Python complex
    numbers, or a list of such arrays and lists; None for anything else,
    an empty list too.  A complex number is written as its [re, im] pair,
    -0.0 as "-0" and a non-finite number as nan, inf or -inf."""
    kind = type(obj)
    if kind is np.ndarray:
        dtype = obj.dtype
        if dtype.kind not in "fc" or not obj.ndim:
            return None
        flat, shape = obj.ravel(), obj.shape
        if dtype.kind == "c":  # as (..., 2) real pairs
            flat, shape = flat.view(flat.real.dtype), shape + (2,)
        text = "%.17g"
        for n in reversed(shape):
            text = "[" + ((text + ",") * n)[:-1] + "]"
        return text % tuple(flat.tolist())
    if kind is not list or not obj:
        return None
    first = type(obj[0])
    if first is complex:
        if not all(type(z) is complex for z in obj):
            return None
        text = "[" + ("[%.17g,%.17g]," * len(obj))[:-1] + "]"
        return text % tuple([v for z in obj for v in (z.real, z.imag)])
    if first is not list and first is not np.ndarray:
        return None
    parts = [_numbers(v) for v in obj]
    return None if None in parts else "[" + ",".join(parts) + "]"


def to_json(obj) -> str:
    """Compact JSON with sorted keys, 17-significant-digit floats, and
    complex numbers as [re, im] pairs.  A float or complex array, a list of
    complex numbers, or a list of such arrays and lists, is written by one
    "%.17g" format nested as its shape, in the bytes of writing each entry
    on its own; non-finite entries as NaN, Infinity and -Infinity, which
    json.loads reads."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{_json_str(str(k))}:{to_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    text = _numbers(obj)
    # a finite entry is written in digits, "-", ".", "e" and "+" only, and
    # -0.0 as "-0", the one token to start "-0" and end at "," or "]"
    if text and "n" not in text:
        return text.replace("-0,", "0,").replace("-0]", "0]")
    kind = type(obj)
    if kind is float or kind is np.float64:
        text = "%.17g" % (obj + 0.0)
        return json.dumps(float(obj)) if "n" in text else text
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(to_json, obj)) + "]"
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return to_json(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{to_json(obj.real)},{to_json(obj.imag)}]"
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


class UsageError(Exception):
    """A command line, or an argument's content, that the CLI refuses:
    exit 2, after the usage of the command, or of the program when no
    command was named."""


def _echo(text: str, stream=None) -> None:
    """One line to stdout, or to stream, flushed at once."""
    stream = stream or sys.stdout
    stream.write(text + "\n")
    stream.flush()


def _emit(obj) -> None:
    _echo(to_json(obj))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON: {exc}") from exc


def _vec6_from_json(obj) -> np.ndarray:
    try:
        return as_vec6(obj)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"not a 6-vector: {exc}") from exc


def _complex_array(obj, shape) -> np.ndarray:
    """Nested lists of exactly `shape`, whose entries at that depth are
    numbers or [re, im] pairs."""
    def entries(v, dims):
        if not dims:
            if isinstance(v, (list, tuple)):
                if len(v) != 2:
                    raise ValueError(f"complex entries are [re, im], got {v!r}")
                return [complex(float(v[0]), float(v[1]))]
            return [complex(float(v), 0.0)]
        if not isinstance(v, (list, tuple)) or len(v) != dims[0]:
            raise ValueError(f"expected shape {shape}")
        return [e for row in v for e in entries(row, dims[1:])]

    try:
        return np.array(entries(obj, shape), dtype=complex).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad complex array: {exc}") from exc


def _entity_from_json(obj):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InvalidEntity(
            'entity JSON must be one of {"point": ...}, {"infinity": true}, '
            '{"sphere": {...}}, {"plane": {...}}'
        )
    ((kind, body),) = obj.items()
    try:
        if kind == "infinity":
            if body is not True:
                raise ValueError(f"the body must be true, not {json.dumps(body)}")
            return liesphere.Infinity()
        if kind == "point":
            return liesphere.Point(np.asarray(body, dtype=float))
        if kind == "sphere":
            return liesphere.Sphere(np.asarray(body["center"], dtype=float),
                                    float(body["radius"]))
        if kind == "plane":
            return liesphere.Plane(np.asarray(body["normal"], dtype=float),
                                   float(body["offset"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidEntity(f"malformed {kind}: {type(exc).__name__}: {exc}") from exc
    raise InvalidEntity(f"unknown entity kind {kind!r}")


def _spinor_json(v: np.ndarray):
    return [complex(c) for c in v]


# ---------------------------------------------------------------------------
# parameters: each converter reads one command-line string, and the text of
# its ValueError follows "Invalid value for '<name>': "


def _at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid integer range.") from None
        if value < low:
            raise ValueError(f"{value} is not in the range x>={low}.")
        return value
    return integer


def _one_of(choices: list[str]) -> Callable[[str], str]:
    def choice(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return text
    return choice


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None
    # one comparison refuses a negative value and NaN alike
    if not value >= 0.0:
        raise ValueError(f"{value} is not a number >= 0")
    return value


class _Param(NamedTuple):
    """One flag or argument of a command.  name is how usage and errors
    show it ("--seed", or an argument's metavar); dest is the keyword it
    fills.  type reads its text, and None takes the text as it is (an
    argument) or makes an on/off switch (a flag)."""

    name: str
    dest: str
    type: Callable[[str], object] | None = None
    default: object = None
    help: str | None = None


# the default of --tol is read from CMK_TOL at each call (_parse)
_TOL = _Param("--tol", "tol", _tolerance, DEFAULT_TOL,
              "Deviation tolerance, >= 0 (CMK_TOL env var; the flag wins).")
_JSON = _Param("--json", "json_only", default=False, help="Suppress the stderr summary.")
_SEED = _Param("--seed", "seed", _at_least(0), 0, "Generator seed, an integer >= 0.")
_HELP = _Param("--help", "help", help="Show this message and exit.")
_DIRECTIONS = ["null-to-plane", "plane-to-line", "line-to-plane"]
# the names of suites.SUITE_ORDER, written out so that parsing and help do
# not run the suites module
_SUITES = ["clifford", "selfdual", "exterior", "hodge", "spin", "isotropic", "liesphere"]

# command name -> (function, its parameters and then --help)
_COMMANDS: dict[str, tuple[Callable, tuple[_Param, ...]]] = {}


def _command(*params: _Param, name: str | None = None):
    def register(fn):
        _COMMANDS[name or fn.__name__] = (fn, params + (_HELP,))
        return fn
    return register


_DESCRIPTION = ("Spinorial model of the conformal compactification: verification "
                "suites and geometric queries.")

# a negative number: an argument that fills a slot although it starts with
# "-" (matched through re's cache, so importing compiles nothing)
_NEGATIVE = r"-\d+$|-\d*\.\d+$"


def _value(p: _Param, text: str):
    try:
        return p.type(text)
    except ValueError as exc:
        raise UsageError(f"Invalid value for '{p.name}': {exc}") from None


def _parse(prog: str, command: str, args: list[str]) -> dict:
    """The keyword arguments of command for its arguments args, read by
    walking its _Param records left to right.  Flags match exactly, and
    --flag=value splits at the first "="; a valued flag takes the next
    argument whatever it starts with; "--" ends the flags, and the other
    arguments fill the argument slots in order.  Values are converted, and
    --help answered, where they stand; then an unset --tol reads CMK_TOL
    when it is not empty, and a missing or unrecognized argument is
    refused."""
    params = _COMMANDS[command][1]
    flags = {p.name: p for p in params if p.name[0] == "-"}
    slots = [p for p in params if p.name[0] != "-"]
    kwargs, extra = {}, []
    flags_ended = False
    rest = iter(args)
    for arg in rest:
        name, eq, text = arg.partition("=")
        p = None if flags_ended else flags.get(name)
        if p is None:
            if (flags_ended or arg[:1] != "-" or arg == "-" or " " in arg
                    or re.match(_NEGATIVE, arg)):
                if slots:
                    p = slots.pop(0)
                    kwargs[p.dest] = _value(p, arg) if p.type else arg
                else:
                    extra.append(arg)
            elif arg == "--":
                flags_ended = True
            else:
                extra.append(arg)
        elif p.type is None and eq:
            raise UsageError(f"Invalid value for '{name}': ignored explicit argument {text!r}")
        elif p is _HELP:
            _echo(_help(prog, command))
            sys.exit(0)
        elif p.type is None:
            kwargs[p.dest] = True
        else:
            if not eq:
                text = next(rest, None)
                if text is None:
                    raise UsageError(f"Invalid value for '{name}': expected one argument")
            kwargs[p.dest] = _value(p, text)
    for p in params:
        if p.name[0] == "-" and p.dest not in kwargs and p is not _HELP:
            env = os.environ.get("CMK_TOL") if p is _TOL else None
            kwargs[p.dest] = _value(p, env) if env else p.default
    if slots:
        raise UsageError("the following arguments are required: "
                         + ", ".join(p.name for p in slots))
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return kwargs


def _usage(prog: str, command: str | None) -> str:
    """The usage line of command, or of the program when command is None."""
    if command is None:
        return f"usage: {prog} [--help] {{{','.join(sorted(_COMMANDS))}}} ...\n"
    params = _COMMANDS[command][1]
    words = [f"[{p.name} {p.dest.upper()}]" if p.type else f"[{p.name}]"
             for p in params if p.name[0] == "-"]
    words += [p.name for p in params if p.name[0] != "-"]
    return f"usage: {prog} {command} {' '.join(words)}\n"


def _help(prog: str, command: str | None) -> str:
    """The --help text of command, or of the program when command is None:
    its usage, description and one row per command or parameter."""
    if command is None:
        description = _DESCRIPTION
        sections = {
            "options": [(_HELP.name, _HELP.help)],
            "commands": [(name, " ".join(fn.__doc__.split()).split("; ")[0])
                         for name, (fn, _) in sorted(_COMMANDS.items())],
        }
    else:
        fn, params = _COMMANDS[command]
        description = " ".join(fn.__doc__.split())
        sections = {
            "positional arguments": [(p.name, "") for p in params if p.name[0] != "-"],
            "options": [(f"{p.name} {p.dest.upper()}", f"{p.help} [default: {p.default}]")
                        if p.type else (p.name, p.help)
                        for p in params if p.name[0] == "-"],
        }
    lines = [_usage(prog, command) + "\n" + textwrap.fill(description, 79)]
    for title, rows in sections.items():
        if rows:
            indent = max(len(name) for name, _ in rows) + 4
            lines.append(f"\n{title}:")
            lines += [textwrap.fill(text, 79, initial_indent=f"  {name}".ljust(indent),
                                    subsequent_indent=" " * indent) or f"  {name}"
                      for name, text in rows]
    return "\n".join(lines)


def _run(args: list[str], prog: str) -> None:
    """Run the command args name.  A refused command line exits 2 and a
    library contract violation 3, each with one message on stderr."""
    command = None
    try:
        if args[:1] == ["--help"]:
            _echo(_help(prog, None))
            sys.exit(0)
        if not args:
            raise UsageError("the following arguments are required: command")
        if args[0] not in _COMMANDS:
            raise UsageError(f"Invalid value for 'command': invalid choice: {args[0]!r} "
                             f"(choose from {', '.join(map(repr, sorted(_COMMANDS)))})")
        command = args[0]
        _COMMANDS[command][0](**_parse(prog, command, args[1:]))
    except UsageError as exc:
        at = f"{prog} {command}" if command else prog
        _echo(f"{_usage(prog, command)}Try '{at} --help' for help.\n\nError: {exc}",
              sys.stderr)
        sys.exit(2)
    except Spin42Error as exc:
        _echo(f"contract violation: {type(exc).__name__}: {exc}", sys.stderr)
        sys.exit(3)


class _Main:
    """The `spin42` program.  main() runs it on sys.argv;
    main.main(args, prog_name=..., standalone_mode=...) on a given list.
    Standalone, an interrupt exits 1 after "Aborted!" and a closed stdout
    exits 1 quietly; otherwise both propagate."""

    def main(self, args=None, prog_name: str | None = None, standalone_mode: bool = True):
        args = sys.argv[1:] if args is None else list(args)
        prog = prog_name or os.path.basename(sys.argv[0])
        try:
            _run(args, prog)
        except KeyboardInterrupt:
            if not standalone_mode:
                raise
            _echo("\nAborted!", sys.stderr)
            sys.exit(1)
        except BrokenPipeError:
            if not standalone_mode:
                raise
            # the reader is gone: send what is still buffered nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)

    __call__ = main


main = _Main()


# ---------------------------------------------------------------------------
# commands


@_command(
    _Param("--suite", "suite", _one_of(_SUITES + ["all"]), "all",
           f"The suite to run: one of {', '.join(_SUITES)}, or all."),
    _SEED,
    _Param("--count", "count", _at_least(1), 200, "Samples per suite, an integer >= 1."),
    _TOL, _JSON)
def verify(suite, seed, count, tol, json_only):
    """Run identity suites with a seeded generator; one JSON result per
    suite on stdout; exit 0 iff every suite passed."""
    _emit({"generator": _GENERATOR, "seed": seed, "count": count,
           "tol": tol, "suite": suite})
    results = suites.run_suites(suite, seed=seed, count=count, tol=tol)
    all_passed = True
    for r in results:
        _emit(vars(r))
        if not json_only:
            status = "PASS" if r.passed else "FAIL"
            _echo(
                f"{r.suite_name}: {r.checks_run} checks, "
                f"max deviation {to_json(r.max_deviation)} -> {status}",
                sys.stderr,
            )
        all_passed = all_passed and r.passed
    sys.exit(0 if all_passed else 1)


@_command(_Param("ENTITY_JSON", "entity_json"), _TOL)
def embed(entity_json, tol):
    """Map an entity (point/sphere/plane/infinity JSON) to its canonical
    projective null class."""
    cls = liesphere.lie_embed(_entity_from_json(_parse_json(entity_json)), tol)
    _emit({"class": cls.rep, "null_residual": abs(q_form(cls.rep))})


@_command(_Param("LINE_JSON", "line_json"), _TOL)
def invert(line_json, tol):
    """Conformal inversion of a projective null class (6-array JSON)."""
    x = _vec6_from_json(_parse_json(line_json))
    cls = liesphere.conformal_inversion(projectivize(x, tol))
    _emit({"class": cls.rep, "null_residual": abs(q_form(cls.rep))})


@_command(_Param("{" + "|".join(_DIRECTIONS) + "}", "direction", _one_of(_DIRECTIONS)),
          _Param("PAYLOAD_JSON", "payload_json"), _TOL)
def correspond(direction, payload_json, tol):
    """Correspondences: null 6-vector -> spinor plane; isotropic plane ->
    spinor line; spinor line -> isotropic plane."""
    payload = _parse_json(payload_json)
    if direction == "null-to-plane":
        x = _vec6_from_json(payload)
        plane = isotropic.null_to_spinor_plane(x, tol)
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
            raise UsageError('payload must be {"basis": [vec6, vec6]}')
        x1, x2 = (_vec6_from_json(b) for b in basis)
        line = isotropic.plane_to_spinor_line(isotropic.isotropic_plane(x1, x2, tol), tol)
        _emit({
            "rep": _spinor_json(line.rep),
            "isotropy_residual": abs(g_form(line.rep, line.rep)),
        })
    else:
        v = _complex_array(payload, (4,))
        plane = isotropic.spinor_line_to_plane(v, tol)
        residual = max(
            abs(q_form(plane.x1)), abs(q_form(plane.x2)),
            abs(q_bilinear(plane.x1, plane.x2)),
        )
        _emit({
            "basis": [plane.x1, plane.x2],
            "isotropy_residual": residual,
        })


@_command(_Param("MATRIX_JSON", "matrix_json"), _Param("VEC6_JSON", "vec6_json"), _TOL)
def act(matrix_json, vec6_json, tol):
    """Act on a 6-vector by a group element (4x4 complex matrix JSON,
    entries as numbers or [re, im] pairs); also returns the 6x6 covering
    matrix and its Q-residual.  tol judges the matrix's membership."""
    m = _complex_array(_parse_json(matrix_json), (4, 4))
    x = _vec6_from_json(_parse_json(vec6_json))
    if not spin.is_su22(m, tol):
        raise NotNormalized("matrix fails the membership test")
    s = spin.SpinElement(m)
    l = spin.covering_matrix(s, tol)
    _emit({
        "vector": spin.vector_action(s, x, tol),
        "covering": l.l,
        "q_residual": float(spin._q_devs(l.l)),
    })


@_command(_Param("--samples", "samples", _at_least(1), 100,
                 "Points sampled on the invariant 2-sphere, an integer >= 1."),
          _SEED, _TOL, _JSON, name="myth-report")
def myth_report(samples, seed, tol, json_only):
    """Probe conformal infinity: the inversion-invariant 2-sphere of
    classes (n, 1, 0, 0) is confirmed fixed and absent from the inverted
    light-cone image."""
    report = liesphere.fixed_sphere_probe(samples, rng=np.random.default_rng(seed))
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
        _echo(
            f"invariant 2-sphere: {report.sample_count} samples, "
            f"max inversion drift {to_json(report.fixed_sphere_max_drift)}, "
            f"light-cone matching residual >= "
            f"{to_json(report.min_matching_residual)} -> "
            f"{'MISSING CONFIRMED' if report.missing_confirmed else 'NOT CONFIRMED'}",
            sys.stderr,
        )
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
