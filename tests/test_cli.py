import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from spin42.cli import main, to_json
from spin42.isotropic import same_span
from spin42.suites import _Collector

runner = CliRunner()


def _lines(result):
    return [json.loads(line) for line in result.stdout.strip().splitlines()]


def _cvec(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def test_to_json_formatting():
    assert to_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert to_json(-0.0) == "0"
    assert to_json(0.1) == "0.10000000000000001"
    assert to_json(True) == "true"
    assert to_json(None) == "null"
    assert to_json(1 + 2j) == "[1,2]"
    assert to_json(np.array([1.0, 2.0])) == "[1,2]"
    # non-finite floats in the form json.loads reads back
    text = to_json([float("nan"), float("inf"), -np.inf])
    assert text == "[NaN,Infinity,-Infinity]"
    assert np.isnan(json.loads(text)[0]) and json.loads(text)[1:] == [np.inf, -np.inf]
    with pytest.raises(TypeError):
        to_json(object())


def test_verify_clifford_at_zero_tolerance():
    result = runner.invoke(main, ["verify", "--suite", "clifford", "--tol", "0",
                                  "--count", "50"])
    assert result.exit_code == 0
    header, suite = _lines(result)
    assert header["suite"] == "clifford"
    assert header["generator"] == "numpy-pcg64"
    assert header["tol"] == 0
    assert suite["suite_name"] == "clifford"
    assert suite["max_deviation"] == 0
    assert suite["passed"] is True
    assert suite["checks_run"] > 0


def test_verify_all_suites_pass():
    result = runner.invoke(main, ["verify", "--suite", "all", "--seed", "7",
                                  "--count", "60"])
    assert result.exit_code == 0
    rows = _lines(result)
    names = [r["suite_name"] for r in rows[1:]]
    assert names == ["clifford", "selfdual", "exterior", "hodge",
                     "spin", "isotropic", "liesphere"]
    assert all(r["passed"] for r in rows[1:])


def test_verify_unknown_suite_is_usage_error():
    result = runner.invoke(main, ["verify", "--suite", "nosuch"])
    assert result.exit_code == 2


def test_verify_count_must_be_positive():
    result = runner.invoke(main, ["verify", "--count", "0"])
    assert result.exit_code == 2


def test_verify_zero_tolerance_fails_float_suites():
    result = runner.invoke(main, ["verify", "--suite", "liesphere", "--tol", "0",
                                  "--count", "50"])
    assert result.exit_code == 1
    _, suite = _lines(result)
    assert suite["passed"] is False


def test_tol_env_var_and_flag_precedence():
    env = {"CMK_TOL": "0"}
    result = runner.invoke(main, ["verify", "--suite", "liesphere", "--count", "30"],
                           env=env)
    assert result.exit_code == 1
    result = runner.invoke(main, ["verify", "--suite", "liesphere", "--count", "30",
                                  "--tol", "1e-9"], env=env)
    assert result.exit_code == 0


def test_verify_json_flag_silences_summary():
    result = runner.invoke(main, ["verify", "--suite", "clifford", "--count", "20",
                                  "--json"])
    assert result.exit_code == 0
    assert result.stderr == ""
    result = runner.invoke(main, ["verify", "--suite", "clifford", "--count", "20"])
    assert "clifford" in result.stderr and "PASS" in result.stderr


def test_verify_checks_run_per_suite_is_unchanged():
    # the counts of the column-loop kernels; they follow from --count and
    # each suite's structure, and test_kernels pins the sampled draws
    result = runner.invoke(main, ["verify", "--suite", "all", "--seed", "42",
                                  "--count", "500", "--json"])
    checks = {r["suite_name"]: r["checks_run"] for r in _lines(result)[1:]}
    assert checks == {"clifford": 74, "selfdual": 2078, "exterior": 903,
                      "hodge": 445, "spin": 815, "isotropic": 4750,
                      "liesphere": 1884}
    assert sum(checks.values()) == 10949


@pytest.mark.parametrize("seed, count, checks", [(1988601454, 500, 4750),
                                                  (707791659, 100, 950)])
def test_verify_isotropic_ill_conditioned_seeds(seed, count, checks):
    # these seeds draw planes whose sampled bases are nearly dependent
    result = runner.invoke(main, ["verify", "--suite", "isotropic", "--seed",
                                  str(seed), "--count", str(count), "--json"])
    assert result.exit_code == 0
    _, suite = _lines(result)
    assert suite["passed"] is True and suite["checks_run"] == checks


def test_collector_keeps_nan():
    c = _Collector()
    c.dev(1e-12)
    c.dev(float("nan"))
    c.dev(1e-15)
    c.bulk(3, 0.5)
    res = c.result("x", 1e-9)
    assert res.checks_run == 6 and np.isnan(res.max_deviation) and not res.passed
    c = _Collector()
    c.bulk(2, float("nan"))
    c.dev(1.0)
    assert np.isnan(c.worst)


def test_verify_is_deterministic_across_processes():
    cmd = [sys.executable, "-m", "spin42", "verify", "--suite", "all",
           "--seed", "42", "--count", "40", "--json"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.count(b"\n") == 8  # header + 7 suites


def test_embed_infinity():
    result = runner.invoke(main, ["embed", '{"infinity": true}'])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    assert out["class"] == [0, 0, 0, 0, 1, 1]
    assert out["null_residual"] == 0


def test_embed_origin():
    result = runner.invoke(main, ["embed", '{"point": [0, 0, 0]}'])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["class"] == [0, 0, 0, 0, 1, -1]


def test_embed_plane_class():
    result = runner.invoke(
        main, ["embed", '{"plane": {"normal": [0, 0, 1], "offset": 2}}']
    )
    assert result.exit_code == 0
    assert json.loads(result.stdout)["class"] == [0, 0, 0.5, 0.5, 1, 1]


def test_embed_sphere():
    result = runner.invoke(
        main, ["embed", '{"sphere": {"center": [1, 0, 0], "radius": 2}}']
    )
    assert result.exit_code == 0
    # raw rep (1,0,0,2,-2,-1) rescaled so the leading largest slot is 1
    assert json.loads(result.stdout)["class"] == [0.5, 0, 0, 1, -1, -0.5]


def test_embed_contract_violations():
    result = runner.invoke(
        main, ["embed", '{"sphere": {"center": [0, 0, 0], "radius": 0}}']
    )
    assert result.exit_code == 3
    assert "contract violation" in result.stderr
    result = runner.invoke(main, ["embed", '{"blob": 1}'])
    assert result.exit_code == 3


def test_embed_tol_gates_nullity():
    sphere = '{"sphere": {"center": [0.1,0.2,0.3], "radius": 0.7}}'
    # the raw embedding rounds to Q = -6.05e-17, null at the default
    # tolerance and not at tolerance 0
    result = runner.invoke(main, ["embed", sphere])
    assert result.exit_code == 0
    assert result.stdout == (
        '{"class":[0.14285714285714288,0.28571428571428575,0.4285714285714286,'
        '1,-0.9642857142857143,0.46428571428571441],'
        '"null_residual":3.3986419121178422e-18}\n'
    )
    result = runner.invoke(main, ["embed", "--tol", "0", sphere])
    assert result.exit_code == 3
    assert "NotNull" in result.stderr


def test_embed_malformed_json_is_usage_error():
    result = runner.invoke(main, ["embed", "{not json"])
    assert result.exit_code == 2


def test_invert_swaps_infinity_and_origin():
    result = runner.invoke(main, ["invert", "[0, 0, 0, 0, 1, 1]"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["class"] == [0, 0, 0, 0, 1, -1]


def test_invert_fixed_class():
    result = runner.invoke(main, ["invert", "[1, 0, 0, 1, 0, 0]"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["class"] == [1, 0, 0, 1, 0, 0]


def test_invert_rejects_non_null():
    result = runner.invoke(main, ["invert", "[1, 0, 0, 0, 0, 0]"])
    assert result.exit_code == 3


def test_invert_rejects_wrong_shape():
    result = runner.invoke(main, ["invert", "[1, 2]"])
    assert result.exit_code == 2


def test_correspond_null_to_plane():
    result = runner.invoke(main, ["correspond", "null-to-plane", "[1, 0, 0, 1, 0, 0]"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    got = np.stack([_cvec(out["basis"][0]), _cvec(out["basis"][1])], axis=1)
    want = np.array([[1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex).T
    assert same_span(got, want)
    assert out["isotropy_residual"] < 1e-9


def test_correspond_plane_to_line():
    payload = '{"basis": [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 1]]}'
    result = runner.invoke(main, ["correspond", "plane-to-line", payload])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    rep = _cvec(out["rep"])
    want = np.array([0, 1, -1, 0], dtype=complex)
    overlap = abs(np.vdot(rep, want)) / (np.linalg.norm(rep) * np.linalg.norm(want))
    assert overlap == pytest.approx(1.0, abs=1e-9)
    assert out["isotropy_residual"] < 1e-9


def test_correspond_line_to_plane():
    result = runner.invoke(main, ["correspond", "line-to-plane", "[0, 1, -1, 0]"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    got = np.stack([np.array(out["basis"][0]), np.array(out["basis"][1])], axis=1)
    want = np.array([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 1]], dtype=float).T
    assert same_span(got, want)
    assert out["isotropy_residual"] < 1e-9


def test_correspond_contract_and_usage_errors():
    result = runner.invoke(main, ["correspond", "null-to-plane", "[1, 0, 0, 0, 0, 0]"])
    assert result.exit_code == 3
    result = runner.invoke(main, ["correspond", "sideways", "[1, 0, 0, 1, 0, 0]"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["correspond", "plane-to-line", "[1, 2, 3]"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["correspond", "line-to-plane", "[1, 0, 0, 0]"])
    assert result.exit_code == 3  # not isotropic
    result = runner.invoke(main, ["correspond", "plane-to-line",
                                  '{"basis": [[1, 0, 0, 1, 0, 0]]}'])
    assert result.exit_code == 2


_IDENTITY = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"


@pytest.mark.parametrize("args", [
    ["invert", "[NaN, 0, 0, 0, 1, 1]"],
    ["correspond", "null-to-plane", "[NaN, 0, 0, 0, 1, 1]"],
    ["correspond", "plane-to-line", '{"basis": [[Infinity,0,0,1,0,0],[0,1,0,0,0,1]]}'],
    ["correspond", "line-to-plane", "[[NaN, 0], 1, 0, 0]"],
    ["act", _IDENTITY, "[NaN, 0, 0, 0, 1, 1]"],
    ["act", "[[NaN,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]", "[1, 0, 0, 0, 0, 0]"],
    ["embed", '{"point": [NaN, 0, 0]}'],
    ["embed", '{"sphere": {"center": [0, 0, 0]}}'],
    ["embed", '{"plane": 5}'],
])
def test_non_finite_or_incomplete_payload_is_contract_violation(args):
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("contract violation") and result.stderr.count("\n") == 1


def test_act_identity():
    eye = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
    result = runner.invoke(main, ["act", eye, "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    assert out["vector"] == [1, 2, 3, 4, 5, 6]
    assert np.array_equal(np.array(out["covering"]), np.eye(6))
    assert out["q_residual"] == 0


def test_act_scalar_i_negates():
    i4 = json.dumps([[[0, 1] if r == c else 0 for c in range(4)] for r in range(4)])
    result = runner.invoke(main, ["act", i4, "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    assert out["vector"] == [-1, -2, -3, -4, -5, -6]
    assert np.array_equal(np.array(out["covering"]), -np.eye(6))


def test_act_rejects_non_member():
    two = "[[2,0,0,0],[0,2,0,0],[0,0,2,0],[0,0,0,2]]"
    result = runner.invoke(main, ["act", two, "[1, 0, 0, 0, 0, 0]"])
    assert result.exit_code == 3
    assert "membership" in result.stderr


def test_act_tol_gates_membership_exactly():
    def scalar_i(c):
        return json.dumps([[[0, c] if r == k else 0 for k in range(4)] for r in range(4)])

    # (1 + 3e-10) i I deviates by 6e-10 in m G m^dagger and 1.2e-9 in det
    near = scalar_i(1.0000000003)
    result = runner.invoke(main, ["act", "--tol", "1e-12", near, "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 3
    assert "membership" in result.stderr
    assert runner.invoke(main, ["act", near, "[1, 2, 3, 4, 5, 6]"]).exit_code == 3
    result = runner.invoke(main, ["act", "--tol", "1e-8", near, "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 0
    # --tol reaches the covering matrix and the action: their quadric
    # residual of 4e-5 passes at tol 1e-3
    result = runner.invoke(main, ["act", "--tol", "1e-3", scalar_i(1.00001),
                                  "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["q_residual"] == pytest.approx(4e-5, rel=1e-3)


def test_act_bad_matrix_shape_is_usage_error():
    result = runner.invoke(main, ["act", "[[1,0],[0,1]]", "[1, 0, 0, 0, 0, 0]"])
    assert result.exit_code == 2


def test_myth_report():
    result = runner.invoke(main, ["myth-report", "--samples", "20"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    assert out["missing_confirmed"] is True
    assert out["fixed_sphere_max_drift"] == 0
    assert out["min_matching_residual"] >= 0.1
    assert out["sample_count"] == 20
    assert any("slot" in note or "swap" in note for note in out["errata_notes"])
    assert "MISSING CONFIRMED" in result.stderr


def test_myth_report_sample_validation():
    result = runner.invoke(main, ["myth-report", "--samples", "0"])
    assert result.exit_code == 2


def test_myth_report_deterministic():
    a = runner.invoke(main, ["myth-report", "--samples", "15", "--seed", "3", "--json"])
    b = runner.invoke(main, ["myth-report", "--samples", "15", "--seed", "3", "--json"])
    assert a.stdout == b.stdout and a.exit_code == 0
