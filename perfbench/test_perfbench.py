"""Self-test of the benchmark harness: tiny runs of every workload emit
every metric BENCHMARK.json names, with its unit, and corrupted outputs
are counted as failed.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import workloads  # first: puts the checkout's sources on sys.path
import prims
import run
from trace_layers import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def _tiny(name: str, tracer=None):
    cls = workloads.WORKLOADS[name]
    return cls(7, tracer) if tracer else cls(7)


@pytest.fixture(autouse=True)
def fewer_repeats(monkeypatch):
    monkeypatch.setattr(workloads.Verify, "COUNT", 20)
    monkeypatch.setattr(workloads.Verify, "LOOP_COUNT", 10)
    monkeypatch.setattr(workloads.Queries, "PER_KIND", 3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(prims, "REPEATS", 1)
    monkeypatch.setattr(prims, "TARGET_REPEAT_S", 0.001)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_named_with_units(name):
    metrics, named, attempted, failed = run.end_to_end(_tiny(name), name, 7, 0.01)
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert attempted >= 1 and failed == 0
    assert named["failed_ratio"][0] == 0


def test_gated_times_are_scaled_to_the_reference_speed(monkeypatch):
    # a host at half the reference speed: every gated time is halved
    monkeypatch.setattr(run, "calibration_seconds", lambda: 2 * run.CALIB_REF_S)
    metrics, named, _, _ = run.end_to_end(_tiny("queries"), "queries", 7, 0.01)
    assert named["host_speed"][0] == 0.5
    assert metrics["op_ms"][0] == pytest.approx(named["op_p50_ms"][0] / 2)
    assert metrics["setup_s"][0] == pytest.approx(named["setup_p50_s"][0] / 2)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_named_with_units(name):
    tracer = Tracer()
    wl = _tiny(name, tracer)
    metrics, attempted, failed = run.per_layer(wl, tracer, 7, 0.01)
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert attempted >= 1 and failed == 0
    value = {k: v for k, (v, _) in metrics.items()}
    if name == "verify":
        assert value["suites.isotropic.checks"] > 0 and value["exterior.wedge.calls"] > 0
        assert 0 < value["sampling.random_isotropic_plane.accept_ratio"] <= 1
    else:
        # neither the queries nor the README calls touch the exterior algebra
        assert value["exterior.wedge.calls"] == 0 and value["suites.spin.s"] == 0
    if name == "queries":
        assert value["sampling.random_spin_element.calls"] > 0  # traced set-up
    assert value["cli.to_json.calls"] > 0
    assert 0 <= value["trace.unaccounted_share"] < 1
    assert not hasattr(workloads.to_json, "__wrapped__")  # every wrapper is removed again


def test_tracer_rebinds_names_imported_by_name():
    import spin42.cli
    import spin42.suites

    tracer = Tracer()
    with tracer.installed():
        assert hasattr(spin42.cli.to_json, "__wrapped__")
        assert hasattr(spin42.suites.SUITES["spin"], "__wrapped__")
        assert hasattr(spin42.suites.sampling.random_kvector, "__wrapped__")
        assert hasattr(workloads.covering_matrix, "__wrapped__")
    assert not hasattr(spin42.suites.SUITES["spin"], "__wrapped__")


def _flip_first_vector_sign(handler):
    def corrupted(inp):
        out = json.loads(handler(inp))
        out["vector"][0] = -out["vector"][0]
        return workloads.to_json(out)
    return corrupted


def test_sign_flip_on_query_result_is_counted(monkeypatch):
    _, oracle, gen = workloads.QUERY_KINDS["act"]
    monkeypatch.setitem(workloads.QUERY_KINDS, "act",
                        (_flip_first_vector_sign(workloads.q_act), oracle, gen))
    wl = _tiny("queries")
    _, _, attempted, failed = run.end_to_end(wl, "queries", 7, 0.01)
    act_requests = sum(wl.pool[i % len(wl.pool)][0] == "act" for i in range(attempted))
    assert act_requests > 0 and failed == act_requests


def test_verify_output_must_repeat_byte_for_byte():
    wl = _tiny("verify")
    _, ok = wl.op(0)
    assert ok
    key = (wl.seeds[0], wl.LOOP_COUNT, wl.kind(0))
    good = wl.first_stdout[key]
    assert wl._check(0, good, *key)
    assert not wl._check(0, good.replace('"passed":true', '"passed":false', 1), *key)
    assert not wl._check(1, good, *key)
    assert not wl._check(0, good, wl.seeds[0], wl.LOOP_COUNT, wl.kind(1))


def test_verify_user_path_runs_each_seed_in_a_fresh_process():
    wl = _tiny("verify")
    assert wl.finish() == (len(wl.seeds), 0)
    assert len(wl.cli_times) == len(wl.seeds)
    assert {key for key in wl.first_stdout} == {(seed, wl.COUNT, "all") for seed in wl.seeds}


def test_cold_start_runs_every_command_equally_often():
    wl = workloads.ColdStart(7)
    kinds = [wl.kind(i) for i in range(len(wl.order))]
    assert {k: kinds.count(k) for k in kinds} == dict.fromkeys(
        ["embed", "invert", "correspond", "act"], len(wl.order) // 4)
    assert sorted(set(wl.order)) == list(range(len(workloads.README_CALLS)))


def test_wrong_literal_output_fails_cold_start(monkeypatch):
    monkeypatch.setattr(workloads, "README_CALLS", [
        (["embed", '{"point": [0, 0, 0]}'], workloads.Infinity(), workloads.README_CALLS[0][2]),
    ])
    wl = workloads.ColdStart(7)
    _, ok = wl.op(0)
    assert not ok


def test_result_line_and_missing_sources(tmp_path):
    out = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
                          "cold_start", "--seed", "3", "--seconds", "0.01", "--trace", "0"],
                         capture_output=True, text=True, timeout=120, cwd=run.ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0

    # a directory with only the benchmark's own files has nothing to measure
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bare = subprocess.run([sys.executable, str(tmp_path / run.BENCH_DIR.name / "run.py"),
                           "--workload", "verify", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=120,
                          cwd=tmp_path)
    assert bare.returncode != 0 and bare.stdout == ""
