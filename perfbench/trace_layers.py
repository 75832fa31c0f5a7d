"""Span tracer that times spin42's layers from outside the library.

The tracer wraps the public functions named in LAYERS and rebinds every
module-level reference to them, in spin42's own modules and in this
benchmark's modules, because `suites`, `sampling`, `spin` and `cli` import
functions by name: a wrapper set only on the defining module would let
those calls escape the trace.  Module-level dicts (the suite registry) are
rebound too.

Each span is a name, a start, an end and the index of its parent span.
Spans are kept in flat arrays while the run lasts and written out once at
the end.  A call that re-enters the function of the innermost open span
(the recursion inside `cli.to_json`) is not given a span of its own.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent

# layer -> public functions timed as spans.  The suite functions are the
# `suites` layer; every sampling generator is listed so that the rejection
# loops can be counted (see ACCEPT_CHILD).
LAYERS = {
    "suites": ["suite_clifford", "suite_selfdual", "suite_exterior", "suite_hodge",
               "suite_spin", "suite_isotropic", "suite_liesphere"],
    "exterior": ["wedge", "hodge_star", "herm_inner", "is_decomposable", "phi",
                 "basis_kvector"],
    "spin": ["covering_matrix", "vector_action", "is_su22", "spin_generate"],
    "clifford": ["det4", "x_matrix", "vector_from_op"],
    "isotropic": ["null_to_spinor_plane", "plane_to_spinor_line",
                  "spinor_line_to_plane", "four_idempotents", "same_span"],
    "liesphere": ["lie_embed", "lie_extract", "conformal_inversion", "oriented_contact"],
    "forms": ["as_vec6", "q_form", "projectivize"],
    "sampling": ["unit_vec3", "random_point", "random_sphere", "random_plane",
                 "random_null_vec6", "random_nonnull_vec6", "random_unit_q_vec6",
                 "random_spin_element", "random_isotropic_spinor",
                 "random_isotropic_plane", "random_kvector"],
    "cli": ["to_json"],
}

# Rejection samplers: each loop iteration makes exactly one call of the
# named child directly inside the generator, so calls(generator) divided by
# those child calls is the share of draws that were accepted.  The 2x2 mixing
# matrix of random_isotropic_plane is tested by numpy.linalg.det, which is
# counted (not timed) while tracing.
ACCEPT_CHILD = {
    "sampling.random_spin_element": "spin.spin_generate",
    "sampling.random_nonnull_vec6": "forms.q_form",
    "sampling.random_unit_q_vec6": "sampling.random_nonnull_vec6",
    "sampling.random_isotropic_plane": "numpy.linalg.det",
}


class _NullTracer:
    """Stands in for a Tracer when nothing is traced."""

    def installed(self):
        return nullcontext()

    def span(self, name: str):
        return nullcontext()


NULL_TRACER = _NullTracer()


class Tracer:
    """Records nested spans around calls into spin42's layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # (name id of the innermost open span, counted name) -> calls
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._scanned = 0
        self._modules: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start[i] = perf_counter()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id = self.name_id
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        stack = self.stack
        name_id = self.name_id

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(name_id[stack[-1]] if stack else -1, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Trace calls into the layers while the block runs."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap every LAYERS function and rebind each module-level
        reference to it in spin42 and in this benchmark's modules."""
        import numpy.linalg

        import spin42.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer, fnames in LAYERS.items():
            mod = sys.modules[f"spin42.{layer}"]
            for fname in fnames:
                orig = getattr(mod, fname)
                wrappers[id(orig)] = self.wrap(f"{layer}.{fname}", orig)
        for mod in self._our_modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._set(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            self._set(val, key, wrappers[id(item)])
        self._set(numpy.linalg, "det", self.counter("numpy.linalg.det", numpy.linalg.det))

    def _our_modules(self) -> list:
        """spin42's modules and this benchmark's, found again only when the
        set of loaded modules has changed."""
        if self._scanned != len(sys.modules):
            self._scanned = len(sys.modules)
            self._modules = [
                mod for name, mod in list(sys.modules.items())
                if name.startswith("spin42")
                or os.path.dirname(os.path.abspath(getattr(mod, "__file__", None) or "/"))
                == str(BENCH_DIR)]
        return self._modules

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- analysis ---------------------------------------------------------

    def summary(self) -> tuple[dict, Counter]:
        """Calls, self time and total time per span name, grouped by the
        kind of the root span ("op", "setup": its name up to the first
        dot); and calls per (parent name, child name), spans and counters
        alike."""
        n = len(self.start)
        names = [self.names[k] for k in self.name_id]
        root = array("l", [0]) * n
        child_time = array("d", [0.0]) * n
        pairs: Counter = Counter()
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root[i] = i
            else:
                root[i] = root[p]
                child_time[p] += self.end[i] - self.start[i]
                pairs[(names[p], names[i])] += 1
        groups: dict[str, dict[str, list]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            group = groups.setdefault(names[root[i]].split(".", 1)[0], {})
            row = group.setdefault(names[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur - child_time[i]
            row[2] += dur
        for (pid, name), calls in self.counts.items():
            if pid >= 0:
                pairs[(self.names[pid], name)] += calls
        return ({g: {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]} for k, v in rows.items()}
                 for g, rows in groups.items()}, pairs)

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: index, name, parent index, start, end
        (seconds on the perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("index\tname\tparent\tstart\tend\n")
            f.writelines(f"{i}\t{names[k]}\t{p}\t{t0!r}\t{t1!r}\n" for i, (k, p, t0, t1) in
                         enumerate(zip(self.name_id, self.parent, self.start, self.end)))
