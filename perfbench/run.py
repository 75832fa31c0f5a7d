"""spin42 benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {verify,queries,cold_start} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
the same work with spans around every layer call and prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is the
JSON result {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 when every output passed its oracle, 1 when one did not, and 2 when the
checkout holds no spin42 sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 12
IMPORT_REPEATS = 3
PROBE_TIMEOUT_S = 60
CALIB_PERIOD_S = 0.25  # loop time between two measurements of the host's speed
CALIB_BURST = 5  # calibrations per measurement
# The calibrations' fastest times on the host the benchmark was written on
# (2-vCPU Xeon VM, Python 3.11, numpy 2.4), when no other tenant slowed it:
# the gated times are given at this speed of the host.
CALIB_REF_S = 2.5e-3
PROCESS_CALIB_REF_S = 0.14


def import_seconds(module: str) -> float:
    """Median time to import a module in a fresh interpreter that has the
    checkout's sources on its path."""
    import workloads

    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=workloads.child_env(),
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                             check=True).stdout)
        for _ in range(IMPORT_REPEATS))


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the end of the
    workload's set-up: imports, input generation and warm-up."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
                           str(seed)], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up of {workload} failed (exit {code})")
    return elapsed


def provenance(workload: str, seed: int, wl) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "workload_seeds": wl.seeds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, or the setting in the
    environment when the library cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git
    checkout (git itself is not run, so no enclosing repository is found)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------


def calibration_seconds() -> float:
    """Wall time of a fixed piece of work that does not use spin42: small
    numpy products and determinants and some interpreter work, the mix
    spin42 itself runs.  Other tenants of a shared host slow it as they
    slow spin42, so its time tells the host's speed at the moment."""
    mats = _CALIB_MATS
    start = perf_counter()
    total = 0.0
    for k in range(200):
        a = mats[k % len(mats)]
        b = a @ a.T + _CALIB_EYE
        total += float(_det(b[:4, :4])) + float(b.trace())
        total += sum({j: j * j for j in range(20)}.values()) * 1e-9
    return perf_counter() - start


def _calib_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return [rng.normal(size=(6, 6)) for _ in range(8)], np.eye(6), np.linalg.det


_CALIB_MATS, _CALIB_EYE, _det = _calib_inputs()


def process_calibration_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and click, the
    start every spin42 CLI process makes.  Other tenants slow starting a
    process (reading and mapping files) differently from in-process numpy
    work, so fresh-process operations are scaled by this calibration."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, click"], check=True,
                   timeout=PROBE_TIMEOUT_S)
    return perf_counter() - start


def host_scale(fresh_processes: bool = False) -> float:
    """The host's speed now relative to the reference: the reference time
    over the calibration's, the median of a burst of in-process
    calibrations, or one calibration process for operations that are fresh
    processes.  An operation's time multiplied by it is the time the
    operation would take on the reference host."""
    if fresh_processes:
        return PROCESS_CALIB_REF_S / process_calibration_seconds()
    return CALIB_REF_S / statistics.median(calibration_seconds() for _ in range(CALIB_BURST))


def run_untraced(wl, seconds: float, lat: list[float], scaled: list[float],
                 scales: list[float]) -> tuple[float, int]:
    """Closed loop of single operations for `seconds` of loop time, at least
    one.  Every CALIB_PERIOD_S the loop measures the host's speed (its clock
    stops meanwhile) and appends it to `scales`; each operation's wall time
    goes to `lat`, and, multiplied by the latest speed, to `scaled`.  Returns
    the loop's wall time without the calibrations, and the failed
    operations."""
    failed = 0
    start = perf_counter()
    due = start
    paused = 0.0
    while True:
        now = perf_counter()
        if now >= due:
            scales.append(host_scale(wl.FRESH_PROCESSES))
            due = perf_counter()
            paused += due - now
            due += CALIB_PERIOD_S
        elapsed, ok = wl.op(len(lat))
        lat.append(elapsed)
        scaled.append(elapsed * scales[-1])
        failed += not ok
        if perf_counter() - start - paused >= seconds:
            break
    return perf_counter() - start - paused, failed


def end_to_end(wl, workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    """Set-up time and the closed loop, both scaled to the reference speed
    of the host.  On a shared virtual machine other tenants slow all code
    by up to 2 times, for spells of seconds to over a minute, longer than
    a run.  A fixed calibration run just before is slowed alike, so each
    operation's time is multiplied by the host's speed measured just
    before it (by a calibration process when the operations are fresh
    processes), and each set-up's by the geometric mean of the in-process
    speeds just before and just after it.  `setup_s` is the median of the scaled fresh
    set-ups, which are spread evenly over the loop, whose clock stops while
    they run.  `op_ms` is, per operation kind, the median scaled time,
    combined over kinds by their geometric mean, so that each kind counts
    by its ratio.  The table also shows the raw medians and minima, the
    tail and the throughputs."""
    import workloads

    setup, setup_scaled, lat, scaled, scales = [], [], [], [], []
    wall = 0.0
    failed = 0
    for k in range(SETUP_REPEATS):
        before = host_scale()
        setup.append(setup_seconds(workload, seed))
        setup_scaled.append(setup[-1] * statistics.geometric_mean([before, host_scale()]))
        deadline = seconds * (k + 1) / SETUP_REPEATS
        if wall < deadline:
            w, f = run_untraced(wl, deadline - wall, lat, scaled, scales)
            wall += w
            failed += f
    attempted, f = wl.finish()
    attempted += len(lat)
    failed += f
    by_kind: dict[str, list[int]] = {}
    for i in range(len(lat)):
        by_kind.setdefault(wl.kind(i), []).append(i)

    def per_kind(stat, times):
        return statistics.geometric_mean(stat([times[i] for i in v]) for v in by_kind.values())

    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_ms": (per_kind(statistics.median, scaled) * 1e3, "ms"),
    }
    named = {**metrics,
             "host_speed": (statistics.median(scales), "ratio"),
             "setup_p50_s": (statistics.median(setup), "s"),
             "setup_min_s": (min(setup), "s"),
             "op_p50_ms": (per_kind(statistics.median, lat) * 1e3, "ms"),
             "op_min_ms": (per_kind(min, lat) * 1e3, "ms"),
             **wl.summary(lat, wall)}
    if len(by_kind) > 1:
        for kind, v in by_kind.items():
            named[f"{kind}.p50_ms"] = (statistics.median(lat[i] for i in v) * 1e3, "ms")
    if len(lat) >= 20:  # the highest percentile with ten samples beyond it
        q = 1.0 - 10.0 / len(lat)
        named[f"op_p{100 * q:.4g}_ms"] = (workloads.quantile(lat, q) * 1e3, "ms")
    named["samples"] = (len(lat), "count")
    named["failed_ratio"] = (failed / attempted, "ratio")
    return metrics, named, attempted, failed


def per_layer(wl, tracer, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Primitive timings, import times, and alternating untraced and traced
    passes for `seconds`.  Calls and self times are per traced pass, plus
    what the traced set-up did once; the overhead compares pass times."""
    import prims
    from trace_layers import ACCEPT_CHILD, LAYERS, NULL_TRACER

    prim_us, prim_failed = prims.time_primitives(seed)
    imports = {"cli.import_s": import_seconds("spin42.cli"),
               "numpy.import_s": import_seconds("numpy")}
    untraced, traced = [], []
    order = [(untraced, NULL_TRACER), (traced, tracer)]
    attempted = failed = 0
    start = perf_counter()
    while True:
        for times, tr in order:
            t = perf_counter()
            a, f = wl.run_pass(tr)
            times.append(perf_counter() - t)
            attempted += a
            failed += f
        order.reverse()  # alternate which side goes first, so drift hits both alike
        if perf_counter() - start >= seconds:
            break
    a, f = wl.finish()
    failed += f + len(prim_failed)
    attempted += a + len(prim_us)

    passes = len(traced)
    groups, pairs = tracer.summary()
    ops = groups.get("op", {})
    setup = groups.get("setup", {})
    out = {}
    for layer, fnames in LAYERS.items():
        for fname in fnames:
            key = f"{layer}.{fname}"
            per_pass = ops.get(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            once = setup.get(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            if layer == "suites":
                suite = fname.removeprefix("suite_")
                out[f"suites.{suite}.s"] = (per_pass["total_s"] / passes, "s")
                out[f"suites.{suite}.checks"] = (
                    getattr(wl, "suite_checks", {}).get(suite, 0), "count")
                continue
            out[f"{key}.calls"] = (per_pass["calls"] / passes + once["calls"], "count")
            out[f"{key}.self_s"] = (per_pass["self_s"] / passes + once["self_s"], "s")
    for gen, child in ACCEPT_CHILD.items():
        draws = pairs[(gen, child)]
        accepted = ops.get(gen, {}).get("calls", 0) + setup.get(gen, {}).get("calls", 0)
        out[f"{gen}.accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
    for name, value in imports.items():
        out[name] = (value, "s")
    for name, value in prim_us.items():
        out[f"prim.{name}.us"] = (value, "us")
    roots = [v for k, v in ops.items() if k.startswith("op.")]
    out["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    out["trace.unaccounted_share"] = (
        sum(r["self_s"] for r in roots) / sum(r["total_s"] for r in roots), "ratio")
    return out, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "queries", "cold_start"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spin42" / "__init__.py").is_file():
        print(f"no spin42 sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    import workloads  # puts the checkout's sources first on sys.path
    from trace_layers import NULL_TRACER, Tracer

    import spin42

    if Path(spin42.__file__).resolve().parent != (SRC / "spin42").resolve():
        print(f"spin42 imported from {spin42.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer or NULL_TRACER)
    print(f"spin42 benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, wl), sort_keys=True))
    if tracer:
        metrics, attempted, failed = per_layer(wl, tracer, args.seed, args.seconds)
        shown = metrics
        trace_file = ROOT / ".bench_build" / "trace" / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(trace_file)
        print(f"{len(tracer.start)} spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics, shown, attempted, failed = end_to_end(wl, args.workload, args.seed, args.seconds)
    for name, (value, unit) in shown.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
