"""The three workloads: their set-up, one timed operation, one pass of
in-process operations for the traced run, and the oracles that check every
output.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.

- `verify` runs `spin42 verify --suite <name> --count 100 --json` in
  process through the CLI's entry point, one suite after the other, cycling
  through three seeds derived from the benchmark seed, so every seed
  repeats and its stdout must repeat byte for byte.  After the loop,
  `python -m spin42 verify --suite all --count 500 --json`, the user path,
  runs once per seed as a fresh process.
- `queries` answers single-object requests in process: embed, invert, the
  three correspondences and act, each calling the public functions the CLI
  calls and ending in `cli.to_json`.  Inputs come from spin42's seeded
  samplers during set-up.
- `cold_start` runs the README's CLI examples as fresh processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import click
import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from spin42 import DEFAULT_TOL, Infinity, Plane, Point, Sphere, sampling  # noqa: E402
from spin42.cli import main as cli_main, to_json  # noqa: E402
from spin42.clifford import GAMMA  # noqa: E402
from spin42.errors import Spin42Error  # noqa: E402
from spin42.forms import Q6, g_form, projectivize, q_bilinear, q_form  # noqa: E402
from spin42.isotropic import (  # noqa: E402
    isotropic_plane,
    null_to_spinor_plane,
    plane_to_spinor_line,
    same_span,
    spinor_line_to_plane,
)
from spin42.liesphere import conformal_inversion, lie_embed, lie_extract  # noqa: E402
from spin42.spin import SpinElement, covering_matrix, is_su22, vector_action  # noqa: E402
from trace_layers import NULL_TRACER  # noqa: E402

Q_DIAG = np.diag(Q6)
CHECK_TOL = 1e-8  # relative tolerance of the oracles
OP_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for fresh spin42 processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str]) -> tuple[int, str, float]:
    """`python -m spin42 <args>` as a fresh process: exit code, stdout and
    wall time from spawn to exit."""
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "spin42", *args], env=child_env(),
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        return -1, "", perf_counter() - start
    return proc.returncode, proc.stdout, perf_counter() - start


def invoke_cli(args: list[str]) -> tuple[int, str]:
    """The same command in this process, for the traced run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli_main.main(args, prog_name="spin42", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException:
            code = 2
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# oracles: each takes the request's input and the JSON text answering it


def _close(a, b, tol: float = CHECK_TOL) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    return a.shape == b.shape and bool(np.all(np.isfinite(a))) and (
        float(np.max(np.abs(a - b))) <= tol * scale)


def _cvec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _x_op(x) -> np.ndarray:
    return np.tensordot(np.asarray(x, dtype=float), GAMMA, axes=(0, 0))


def _null(x) -> bool:
    x = np.asarray(x, dtype=float)
    return abs(float(x @ (Q_DIAG * x))) <= CHECK_TOL * float(x @ x)


def _same_entity(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Infinity):
        return True
    if isinstance(a, Point):
        return _close(b.p, a.p)
    if isinstance(a, Sphere):
        return _close(b.center, a.center) and _close(b.signed_radius, a.signed_radius)
    return _close(b.normal, a.normal) and _close(b.offset, a.offset)


def oracle_embed(ent, text: str) -> bool:
    """The class is null and lie_extract gives the entity back."""
    out = json.loads(text)
    cls = np.asarray(out["class"], dtype=float)
    return (cls.shape == (6,) and _null(cls) and out["null_residual"] <= CHECK_TOL
            and _same_entity(ent, lie_extract(projectivize(cls))))


def oracle_invert(x, text: str) -> bool:
    """Inversion negates slot 5; the class is scaled so its first
    largest-magnitude slot is +1."""
    out = json.loads(text)
    y = np.array(x, dtype=float)
    y[4] = -y[4]
    want = y / y[int(np.argmax(np.abs(y)))]
    return _close(out["class"], want) and _null(out["class"])


def oracle_null_to_plane(x, text: str) -> bool:
    """A rank-2 spinor plane, isotropic under g_form, annihilated by the
    antilinear operator of x."""
    out = json.loads(text)
    basis = np.stack([_cvec(b) for b in out["basis"]])
    x = np.asarray(x, dtype=float)
    gram = np.array([[g_form(u, v) for v in basis] for u in basis])
    return (np.linalg.matrix_rank(basis, tol=1e-6) == 2 and _close(gram, np.zeros((2, 2)))
            and _close(_x_op(x / np.linalg.norm(x)) @ np.conj(basis).T, np.zeros((4, 2))))


def oracle_plane_to_line(pair, text: str) -> bool:
    """An isotropic line annihilated by the operators of both plane vectors,
    whose plane is the input plane again."""
    x1, x2 = pair
    out = json.loads(text)
    v = _cvec(out["rep"])
    if not (v.shape == (4,) and abs(g_form(v, v)) <= CHECK_TOL * float(np.vdot(v, v).real)):
        return False
    back = spinor_line_to_plane(v)
    scale = max(np.linalg.norm(x1), np.linalg.norm(x2))
    return (_close(_x_op(x1 / scale) @ np.conj(v), np.zeros(4))
            and _close(_x_op(x2 / scale) @ np.conj(v), np.zeros(4))
            and same_span(np.stack([x1, x2], axis=1), np.stack([back.x1, back.x2], axis=1)))


def oracle_line_to_plane(v, text: str) -> bool:
    """A rank-2 totally Q-isotropic plane of vectors whose operators
    annihilate the line."""
    out = json.loads(text)
    basis = np.asarray(out["basis"], dtype=float)
    if basis.shape != (2, 6) or np.linalg.matrix_rank(basis, tol=1e-6) != 2:
        return False
    gram = basis @ np.diag(Q_DIAG) @ basis.T
    return (_close(gram, np.zeros((2, 2)))
            and all(_close(_x_op(b) @ np.conj(v), np.zeros(4)) for b in basis))


def oracle_act(pair, text: str) -> bool:
    """L Q L^T = Q, Q(Lx) = Q(x), the vector is L x, and its operator is
    M X(x) conj(M)^-1."""
    m, x = pair
    out = json.loads(text)
    l = np.asarray(out["covering"], dtype=float)
    y = np.asarray(out["vector"], dtype=float)
    if l.shape != (6, 6) or y.shape != (6,):
        return False
    qx = float(x @ (Q_DIAG * x))
    qy = float(y @ (Q_DIAG * y))
    return (_close(l @ Q6 @ l.T, Q6) and abs(qy - qx) <= CHECK_TOL * max(1.0, float(y @ y))
            and _close(y, l @ x)
            and _close(_x_op(y), m @ _x_op(x) @ np.linalg.inv(np.conj(m))))


# ---------------------------------------------------------------------------
# request handlers: the bodies of the CLI's query commands


def q_embed(ent) -> str:
    cls = lie_embed(ent)
    return to_json({"class": cls.rep, "null_residual": abs(q_form(cls.rep))})


def q_invert(x) -> str:
    cls = conformal_inversion(projectivize(x, DEFAULT_TOL))
    return to_json({"class": cls.rep, "null_residual": abs(q_form(cls.rep))})


def q_null_to_plane(x) -> str:
    plane = null_to_spinor_plane(x, DEFAULT_TOL)
    residual = max(abs(g_form(u, v)) for u in (plane.b1, plane.b2) for v in (plane.b1, plane.b2))
    return to_json({"basis": [[complex(c) for c in plane.b1], [complex(c) for c in plane.b2]],
                    "isotropy_residual": residual})


def q_plane_to_line(pair) -> str:
    line = plane_to_spinor_line(isotropic_plane(*pair, DEFAULT_TOL), DEFAULT_TOL)
    return to_json({"rep": [complex(c) for c in line.rep],
                    "isotropy_residual": abs(g_form(line.rep, line.rep))})


def q_line_to_plane(v) -> str:
    plane = spinor_line_to_plane(v, DEFAULT_TOL)
    residual = max(abs(q_form(plane.x1)), abs(q_form(plane.x2)),
                   abs(q_bilinear(plane.x1, plane.x2)))
    return to_json({"basis": [plane.x1, plane.x2], "isotropy_residual": residual})


def q_act(pair) -> str:
    m, x = pair
    if not is_su22(m, max(DEFAULT_TOL, 1e-8)):
        raise Spin42Error("matrix fails the membership test")
    s = SpinElement(m)
    l = covering_matrix(s)
    q_residual = float(np.max(np.abs(l.l @ Q6 @ l.l.T - Q6)))
    return to_json({"vector": vector_action(s, x), "covering": l.l, "q_residual": q_residual})


def _plane_pair(n):
    return n.x1, n.x2


def _random_entity(rng):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Infinity()
    return (sampling.random_point, sampling.random_sphere, sampling.random_plane)[kind - 1](rng)


# kind -> (handler, oracle, input generator).  The generators look the
# samplers up on the module at call time, so the tracer sees those calls.
QUERY_KINDS = {
    "embed": (q_embed, oracle_embed, _random_entity),
    "invert": (q_invert, oracle_invert, lambda rng: sampling.random_null_vec6(rng)),
    "null-to-plane": (q_null_to_plane, oracle_null_to_plane,
                      lambda rng: sampling.random_null_vec6(rng)),
    "plane-to-line": (q_plane_to_line, oracle_plane_to_line,
                      lambda rng: _plane_pair(sampling.random_isotropic_plane(rng))),
    "line-to-plane": (q_line_to_plane, oracle_line_to_plane,
                      lambda rng: sampling.random_isotropic_spinor(rng)),
    "act": (q_act, oracle_act,
            lambda rng: (sampling.random_spin_element(rng).m, rng.normal(size=6))),
}


def _answer(handler, inp):
    try:
        return handler(inp)
    except Spin42Error:
        return None


def _oracle_ok(oracle, inp, text) -> bool:
    if text is None:
        return False
    try:
        return bool(oracle(inp, text))
    except (Spin42Error, ValueError, KeyError, TypeError):
        return False


# ---------------------------------------------------------------------------
# workloads


class Verify:
    """`spin42 verify`: one suite at a time in process at count 100 in
    the timed loop, and every suite at count 500 in fresh processes after
    it."""

    name = "verify"
    FRESH_PROCESSES = False  # whether the timed operations are fresh processes
    SUITES = ["clifford", "selfdual", "exterior", "hodge", "spin", "isotropic", "liesphere"]
    DISTINCT_SEEDS = 3
    COUNT = 500  # verify --count of the fresh-process runs and the traced pass
    # verify --count of the timed operation, which is one suite: short
    # operations let the fastest one of each suite fall into a quiet moment
    # of a shared host, and at 100 no
    # suite's loop size is raised by its floor (max(10, count // 10) and the
    # like), so the suites keep the shares of work they have at 500
    LOOP_COUNT = 100

    def __init__(self, seed: int, tracer=NULL_TRACER):
        r = random.Random(seed)
        self.seeds = [r.randrange(2 ** 31) for _ in range(self.DISTINCT_SEEDS)]  # verify --seed
        self.first_stdout: dict[tuple[int, int], str] = {}
        self.checks = 0
        self.suite_checks: dict[str, int] = {}
        self.cli_times: list[float] = []

    @staticmethod
    def _args(seed: int, count: int, suite: str = "all") -> list[str]:
        return ["verify", "--suite", suite, "--seed", str(seed), "--count", str(count), "--json"]

    def _check(self, code: int, stdout: str, seed: int, count: int, suite: str = "all") -> bool:
        """Exit 0, a header plus one passing line per suite, and the same
        bytes as the first run of this seed, count and suite."""
        if self.first_stdout.setdefault((seed, count, suite), stdout) != stdout or code != 0:
            return False
        names = self.SUITES if suite == "all" else [suite]
        lines = stdout.splitlines()
        if len(lines) != 1 + len(names):
            return False
        try:
            header = json.loads(lines[0])
            rows = [json.loads(line) for line in lines[1:]]
        except json.JSONDecodeError:
            return False
        ok = (header.get("seed") == seed and header.get("count") == count
              and header.get("suite") == suite
              and [r.get("suite_name") for r in rows] == names
              and all(r.get("passed") is True and isinstance(r.get("checks_run"), int)
                      and r["checks_run"] > 0 and r.get("max_deviation", 1.0) <= header["tol"]
                      for r in rows))
        if ok and count == self.LOOP_COUNT:
            self.checks += sum(r["checks_run"] for r in rows)
        if ok and count == self.COUNT and suite == "all":
            self.suite_checks = {r["suite_name"]: r["checks_run"] for r in rows}
        return ok

    def kind(self, i: int) -> str:
        return self.SUITES[i % len(self.SUITES)]

    def op(self, i: int) -> tuple[float, bool]:
        suite = self.kind(i)
        seed = self.seeds[i // len(self.SUITES) % len(self.seeds)]
        start = perf_counter()
        code, stdout = invoke_cli(self._args(seed, self.LOOP_COUNT, suite))
        elapsed = perf_counter() - start
        return elapsed, self._check(code, stdout, seed, self.LOOP_COUNT, suite)

    def run_pass(self, tracer=NULL_TRACER) -> tuple[int, int]:
        """One verify at count 500 in process at the first seed:
        (attempted, failed)."""
        seed = self.seeds[0]
        with tracer.installed(), tracer.span("op.verify"):
            code, stdout = invoke_cli(self._args(seed, self.COUNT))
        return 1, int(not self._check(code, stdout, seed, self.COUNT))

    def finish(self) -> tuple[int, int]:
        """The user path: one fresh-process verify at count 500 per seed,
        timed for the table: (attempted, failed)."""
        failed = 0
        for seed in self.seeds:
            code, stdout, elapsed = run_cli(self._args(seed, self.COUNT))
            self.cli_times.append(elapsed)
            failed += not self._check(code, stdout, seed, self.COUNT)
        return len(self.seeds), failed

    def summary(self, lat: list[float], wall: float) -> dict:
        return {"verify_s": (statistics.median(self.cli_times), "s"),
                "verify_checks_per_s": (self.checks / wall, "1/s")}


class Queries:
    """Seeded single-object requests, answered in process."""

    name = "queries"
    FRESH_PROCESSES = False
    PER_KIND = 60

    def __init__(self, seed: int, tracer=NULL_TRACER):
        self.seeds = [seed]  # of the numpy generator behind every input
        rng = np.random.default_rng(seed)
        with tracer.installed(), tracer.span("setup"):
            pool = [(kind, gen(rng)) for kind, (_, _, gen) in QUERY_KINDS.items()
                    for _ in range(self.PER_KIND)]
        self.pool = [pool[int(j)] for j in rng.permutation(len(pool))]
        self.handlers = [QUERY_KINDS[kind][0] for kind, _ in self.pool]
        # warm-up pass: first calls finish any lazy set-up, and the answers
        # become the reference every later answer must equal byte for byte
        self.reference = [_answer(h, inp) for h, (_, inp) in zip(self.handlers, self.pool)]
        self.matched = [0] * len(self.pool)

    def _compare(self, j: int, text) -> bool:
        ok = text is not None and text == self.reference[j]
        self.matched[j] += ok
        return ok

    def kind(self, i: int) -> str:
        return self.pool[i % len(self.pool)][0]

    def op(self, i: int) -> tuple[float, bool]:
        j = i % len(self.pool)
        handler = self.handlers[j]
        inp = self.pool[j][1]
        start = perf_counter()
        text = _answer(handler, inp)
        elapsed = perf_counter() - start
        return elapsed, self._compare(j, text)

    def run_pass(self, tracer=NULL_TRACER) -> tuple[int, int]:
        """Every pooled request once, in process: (attempted, failed)."""
        failed = 0
        with tracer.installed():
            for j, (kind, inp) in enumerate(self.pool):
                with tracer.span(f"op.{kind}"):
                    text = _answer(self.handlers[j], inp)
                failed += not self._compare(j, text)
        return len(self.pool), failed

    def finish(self) -> tuple[int, int]:
        """Oracle-check each reference answer (untimed); every request that
        returned a wrong reference counts as failed: (0, failed), as the
        requests were attempted in the loop."""
        failed = 0
        for j, (kind, inp) in enumerate(self.pool):
            if not _oracle_ok(QUERY_KINDS[kind][1], inp, self.reference[j]):
                failed += self.matched[j]
        return 0, failed

    def summary(self, lat: list[float], wall: float) -> dict:
        return {"queries_per_s": (len(lat) / wall, "1/s"),
                "query_p50_us": (quantile(lat, 0.50) * 1e6, "us"),
                "query_p99_us": (quantile(lat, 0.99) * 1e6, "us")}


_I4 = [[[0, 1], 0, 0, 0], [0, [0, 1], 0, 0], [0, 0, [0, 1], 0], [0, 0, 0, [0, 1]]]


def _literal_class(want):
    return lambda _inp, text: _close(json.loads(text)["class"], want, 0.0)


def _literal_act(_inp, text) -> bool:
    out = json.loads(text)
    return _close(out["vector"], [-1, -2, -3, -4, -5, -6], 0.0) and _close(
        out["covering"], -np.eye(6), 0.0)


# The README's CLI examples: (arguments, oracle input, oracles).  Outputs
# the README states are compared literally; the correspondences, whose
# bases depend on the SVD, are checked structurally.
README_CALLS = [
    (["embed", '{"infinity": true}'], Infinity(),
     [oracle_embed, _literal_class([0, 0, 0, 0, 1, 1])]),
    (["embed", '{"point": [0, 0, 0]}'], Point(np.zeros(3)),
     [oracle_embed, _literal_class([0, 0, 0, 0, 1, -1])]),
    (["embed", '{"sphere": {"center": [1,0,0], "radius": 2}}'], Sphere(np.array([1.0, 0, 0]), 2.0),
     [oracle_embed, _literal_class([0.5, 0, 0, 1, -1, -0.5])]),
    (["embed", '{"plane": {"normal": [0,0,1], "offset": 2}}'], Plane(np.array([0, 0, 1.0]), 2.0),
     [oracle_embed, _literal_class([0, 0, 0.5, 0.5, 1, 1])]),
    (["invert", "[0, 0, 0, 0, 1, 1]"], np.array([0, 0, 0, 0, 1.0, 1]),
     [oracle_invert, _literal_class([0, 0, 0, 0, 1, -1])]),
    (["invert", "[1, 0, 0, 1, 0, 0]"], np.array([1.0, 0, 0, 1, 0, 0]),
     [oracle_invert, _literal_class([1, 0, 0, 1, 0, 0])]),
    (["correspond", "null-to-plane", "[1, 0, 0, 1, 0, 0]"], np.array([1.0, 0, 0, 1, 0, 0]),
     [oracle_null_to_plane]),
    (["correspond", "plane-to-line", '{"basis": [[1,0,0,1,0,0],[0,1,0,0,0,1]]}'],
     (np.array([1.0, 0, 0, 1, 0, 0]), np.array([0, 1.0, 0, 0, 0, 1])), [oracle_plane_to_line]),
    (["correspond", "line-to-plane", "[0, 1, -1, 0]"], np.array([0, 1, -1, 0], dtype=complex),
     [oracle_line_to_plane]),
    (["act", json.dumps(_I4), "[1,2,3,4,5,6]"],
     (1j * np.eye(4), np.arange(1.0, 7.0)), [oracle_act, _literal_act]),
]


class ColdStart:
    """The README's CLI examples, each a fresh process, in a seeded order
    that runs every command equally often."""

    name = "cold_start"
    FRESH_PROCESSES = True

    def __init__(self, seed: int, tracer=NULL_TRACER):
        self.seeds = [seed]  # of the call order
        r = random.Random(seed)
        by_command: dict[str, list[int]] = {}
        for k, (args, _, _) in enumerate(README_CALLS):
            by_command.setdefault(args[0], []).append(k)
        for calls in by_command.values():
            r.shuffle(calls)
        # the README has four embed calls and one act call; cycling through
        # the calls would give act a quarter of embed's samples, and its
        # median, a quarter of op_ms, would be the noisiest part of it
        self.order = []
        for j in range(math.lcm(*map(len, by_command.values()))):
            commands = list(by_command)
            r.shuffle(commands)
            self.order += [by_command[c][j % len(by_command[c])] for c in commands]

    @staticmethod
    def _check(k: int, code: int, stdout: str) -> bool:
        _, inp, oracles = README_CALLS[k]
        return code == 0 and all(_oracle_ok(o, inp, stdout) for o in oracles)

    def kind(self, i: int) -> str:
        return README_CALLS[self.order[i % len(self.order)]][0][0]

    def op(self, i: int) -> tuple[float, bool]:
        k = self.order[i % len(self.order)]
        code, stdout, elapsed = run_cli(README_CALLS[k][0])
        return elapsed, self._check(k, code, stdout)

    def run_pass(self, tracer=NULL_TRACER) -> tuple[int, int]:
        """Every README call once, in process: (attempted, failed).  The
        oracles run after the tracer is removed."""
        outputs = []
        with tracer.installed():
            for k in dict.fromkeys(self.order):
                args = README_CALLS[k][0]
                with tracer.span(f"op.{args[0]}"):
                    outputs.append((k, *invoke_cli(args)))
        return len(outputs), sum(not self._check(*out) for out in outputs)

    def finish(self) -> tuple[int, int]:
        return 0, 0

    def summary(self, lat: list[float], wall: float) -> dict:
        return {"cli_p50_s": (statistics.median(lat), "s"),
                "cli_calls_per_s": (len(lat) / wall, "1/s")}


WORKLOADS = {w.name: w for w in (Verify, Queries, ColdStart)}


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)
