import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from oracles import ReferenceUsageError, argparse_reference, invoke, to_json_reference
import spin42.cli
from spin42.cli import main, to_json
from spin42.isotropic import same_span
from spin42.suites import _isotropic_block, _suite, run_suites

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
    # inside arrays: a NaN falls back to the per-number form, -0.0 is 0
    assert to_json(np.array([1.0, np.nan, -0.0])) == "[1,NaN,0]"
    assert to_json(np.array([-0.0, 0.25])) == "[0,0.25]"
    assert to_json(np.array([1 + 2j, -0.0 - 0.5j])) == "[[1,2],[0,-0.5]]"
    assert to_json(np.array([[1.0, 2.0], [3.0, 0.1]])) == "[[1,2],[3,0.10000000000000001]]"
    assert to_json(np.array([[np.inf, 1j]])) == "[[[Infinity,0],[0,1]]]"


# Edge values: signed zeros, the smallest subnormal and a larger one, the
# smallest normal, the largest float, 0.1, 2**53 + 1 (rounded to 2**53 in
# float64) and the non-finite values.
_EDGES64 = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, float(2**53 + 1),
            np.inf, -np.inf, np.nan]
_EDGES32 = [0.0, -0.0, 1e-45, 1e-40, 3.4028234663852886e38, 0.1, np.inf, -np.inf, np.nan]
_F64 = st.sampled_from(_EDGES64) | st.floats()
_F32 = st.sampled_from(_EDGES32) | st.floats(width=32)
_C = st.builds(complex, _F64, _F64)


@st.composite
def _arrays(draw, kinds=("f8", "f4", "c16", "c8", "i8", "bool"), min_dims=0):
    """float64, float32, complex128, complex64, int and bool arrays (or
    those of kinds) of min_dims to 3 axes, empty axes included, as they are
    or as a strided view."""
    shape = draw(array_shapes(min_dims=min_dims, max_dims=3, min_side=0, max_side=4))
    n = int(np.prod(shape))
    kind = draw(st.sampled_from(kinds))
    entries = {"f8": _F64, "f4": _F32, "c16": _F64, "c8": _F32, "bool": st.booleans(),
               "i8": st.integers(-2**63, 2**63 - 1)}[kind]
    flat = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(2)]
    if kind.startswith("c"):
        a = np.empty(n, dtype=kind)
        a.real, a.imag = flat  # complex(re, im) keeps an infinite part's partner
    else:
        a = np.array(flat[0], dtype=kind)
    a = a.reshape(shape)
    view = draw(st.sampled_from(["as is", "transposed", "every second", "reversed"]))
    if view == "transposed" or a.ndim == 0:
        return a.T
    return a[::2] if view == "every second" else a[..., ::-1]


_SCALARS = st.one_of(
    _F64, _C, st.integers(), st.just(2**53 + 1), st.booleans(), st.none(), st.text(max_size=3),
    st.builds(np.float64, _F64), st.builds(np.float32, _F32), st.builds(np.complex128, _C),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.bool_, st.booleans()),
)
_COMPLEX_LISTS = st.lists(_C, min_size=1, max_size=4)
# what the CLI's commands emit, each written by one format: lists of Python
# complex numbers, lists of such lists, and lists of float arrays
_NUMBER_LISTS = (_COMPLEX_LISTS | st.lists(_COMPLEX_LISTS, min_size=1, max_size=3)
                 | st.lists(_arrays(("f8", "f4", "c16", "c8"), min_dims=1), min_size=1, max_size=3))
_VALUES = st.recursive(
    _SCALARS | _arrays() | _NUMBER_LISTS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_to_json_writes_the_bytes_of_the_per_number_reference(obj):
    assert to_json(obj) == to_json_reference(obj)
    with pytest.raises(TypeError):
        to_json([obj, object()])


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("obj, text", [
    ([complex(-0.0, 1.0), complex(2.0, -0.0)], "[[0,1],[2,0]]"),
    ([[complex(-0.0, -0.0)], [complex(0.5, -1.0)]], "[[[0,0]],[[0.5,-1]]]"),
    ([[complex(_NAN, 1.0), complex(1.0, _INF)], [complex(-_INF, -0.0)]],
     "[[[NaN,1],[1,Infinity]],[[-Infinity,0]]]"),
    ([np.array([-0.0, 1.5]), np.array([[0.1, -0.0]])], "[[0,1.5],[[0.10000000000000001,0]]]"),
    ([np.array([_INF, -_INF, _NAN]), np.array([-0.0])], "[[Infinity,-Infinity,NaN],[0]]"),
    ([[complex(1.0, 2.0)], np.array([-0.0 - 0.0j])], "[[[1,2]],[[0,0]]]"),
    ([], "[]"),
    ([[], []], "[[],[]]"),
    ([np.zeros((2, 0))], "[[[],[]]]"),
    ([complex(1.0, 0.0), 1.0], "[[1,0],1]"),
    ([[complex(1.0, 0.0)], [1.0]], "[[[1,0]],[1]]"),
])
def test_to_json_number_lists_by_example(obj, text):
    assert to_json(obj) == to_json_reference(obj) == text


def test_to_json_writes_verify_results_in_the_per_number_bytes():
    for result in run_suites("all", seed=3, count=4, tol=1e-9):
        assert to_json(vars(result)) == to_json_reference(vars(result))


def test_verify_clifford_at_zero_tolerance():
    result = invoke(["verify", "--suite", "clifford", "--tol", "0", "--count", "50"])
    assert result.exit_code == 0
    header, suite = _lines(result)
    assert header["suite"] == "clifford"
    assert header["generator"] == "numpy-pcg64/v3"
    assert header["tol"] == 0
    assert suite["suite_name"] == "clifford"
    assert suite["max_deviation"] == 0
    assert suite["passed"] is True
    assert suite["checks_run"] == 74


@pytest.mark.parametrize("command", [["verify", "--suite", "exterior"], ["verify"],
                                     ["myth-report"]])
def test_negative_seed_is_a_usage_error(command):
    # numpy refuses a negative seed; the CLI refuses it first, as a usage
    # error (exit 2) and not as a failed check (exit 1)
    result = invoke([*command, "--seed", "-1"])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "Invalid value for '--seed'" in result.output


@pytest.mark.parametrize("tol", ["-1", "nan", "-inf"])
@pytest.mark.parametrize("command", [["verify", "--suite", "clifford"], ["myth-report"],
                                     ["embed", '{"point": [1, 2, 3]}']])
def test_negative_or_nan_tol_is_a_usage_error(command, tol):
    # a malformed tolerance is refused before any check runs, from the flag
    # and from CMK_TOL alike, as a usage error (exit 2) and not as a failed
    # check (exit 1) or a contract violation (exit 3)
    for args, env in (([*command, "--tol", tol], {}), (command, {"CMK_TOL": tol})):
        result = invoke(args, env=env)
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "Invalid value for '--tol'" in result.output


@pytest.mark.parametrize("tol", ["0", "inf"])
def test_zero_and_infinite_tol_are_valid(tol):
    result = invoke(["verify", "--suite", "clifford", "--tol", tol, "--json"])
    assert result.exit_code == 0
    header, suite = _lines(result)
    assert header["tol"] == float(tol) and suite["passed"] is True


def test_verify_all_suites_pass():
    result = invoke(["verify", "--suite", "all", "--seed", "7", "--count", "60"])
    assert result.exit_code == 0
    rows = _lines(result)
    names = [r["suite_name"] for r in rows[1:]]
    assert names == ["clifford", "selfdual", "exterior", "hodge",
                     "spin", "isotropic", "liesphere"]
    assert all(r["passed"] for r in rows[1:])


def test_verify_unknown_suite_is_usage_error():
    result = invoke(["verify", "--suite", "nosuch"])
    assert result.exit_code == 2


def test_verify_count_must_be_positive():
    result = invoke(["verify", "--count", "0"])
    assert result.exit_code == 2


def test_verify_zero_tolerance_fails_float_suites():
    result = invoke(["verify", "--suite", "liesphere", "--tol", "0", "--count", "50"])
    assert result.exit_code == 1
    _, suite = _lines(result)
    assert suite["passed"] is False


def test_tol_env_var_and_flag_precedence():
    env = {"CMK_TOL": "0"}
    result = invoke(["verify", "--suite", "liesphere", "--count", "30"], env=env)
    assert result.exit_code == 1
    result = invoke(["verify", "--suite", "liesphere", "--count", "30", "--tol", "1e-9"], env=env)
    assert result.exit_code == 0


def test_verify_json_flag_silences_summary():
    result = invoke(["verify", "--suite", "clifford", "--count", "20", "--json"])
    assert result.exit_code == 0
    assert result.stderr == ""
    result = invoke(["verify", "--suite", "clifford", "--count", "20"])
    assert "clifford" in result.stderr and "PASS" in result.stderr


def test_verify_checks_run_per_suite_is_unchanged():
    # the counts of the column-loop kernels; they follow from --count and
    # each suite's structure, and test_kernels pins the sampled draws
    result = invoke(["verify", "--suite", "all", "--seed", "42", "--count", "500", "--json"])
    checks = {r["suite_name"]: r["checks_run"] for r in _lines(result)[1:]}
    assert checks == {"clifford": 74, "selfdual": 2078, "exterior": 903,
                      "hodge": 445, "spin": 815, "isotropic": 4750,
                      "liesphere": 1884}
    assert sum(checks.values()) == 10949


# checks_run of each suite at counts 1, 7, 100 and 500; it follows from the
# count alone, whatever the seed
CHECKS_BY_COUNT = {
    "clifford": (74, 74, 74, 74), "selfdual": (82, 106, 478, 2078),
    "exterior": (36, 42, 183, 903), "hodge": (145, 145, 145, 445),
    "spin": (29, 29, 165, 815), "isotropic": (104, 104, 950, 4750),
    "liesphere": (57, 57, 384, 1884),
}


@pytest.mark.parametrize("column, count", enumerate([1, 7, 100, 500]))
def test_checks_run_per_suite_over_seeds_0_to_39(column, count):
    for seed in range(40):
        checks = {r.suite_name: r.checks_run for r in run_suites("all", seed, count, 1e-9)}
        assert checks == {name: row[column] for name, row in CHECKS_BY_COUNT.items()}, seed


# The seeds whose sampled plane bases are the worst conditioned in a search
# of seeds 0-7999 at count 500 and 0-39999 at count 100, with the bound
# sigma_2 / sigma_1 that the worst-conditioned seeds of the previous stream
# reached (1.40e-3 and 1.29e-3).
@pytest.mark.parametrize("seed, count, checks, ratio", [(0, 500, 4750, 1.40e-3),
                                                         (31210, 100, 950, 1.29e-3)])
def test_verify_isotropic_ill_conditioned_seeds(seed, count, checks, ratio):
    # these seeds draw planes whose sampled bases are nearly dependent
    _, planes, _ = _isotropic_block(np.random.default_rng(seed), count)
    s = np.linalg.svd(planes, compute_uv=False)
    assert (s[:, 1] / s[:, 0]).min() <= ratio
    result = invoke(["verify", "--suite", "isotropic", "--seed",
                     str(seed), "--count", str(count), "--json"])
    assert result.exit_code == 0
    _, suite = _lines(result)
    assert suite["passed"] is True and suite["checks_run"] == checks


def test_verify_all_suites_pass_on_seeds_0_to_49():
    # the benchmark's verify workload runs random seeds; a sampler or gate
    # that fails on an unlucky draw shows up on some seed of a sweep
    for seed in range(50):
        result = invoke(["verify", "--suite", "all", "--seed", str(seed),
                         "--count", "100", "--json"])
        assert result.exit_code == 0, (seed, result.stdout)


def test_suite_fold_keeps_nan():
    @_suite
    def suite_scalar(seed, count):
        yield 1, 1e-12
        yield 1, float("nan")
        yield 1, 1e-15
        yield 3, 0.5

    @_suite
    def suite_array(seed, count):
        yield 2, np.array([0.0, float("nan")])
        yield 1, 1.0
        yield 4, np.array([False, True, False])

    assert suite_scalar.__name__ == "suite_scalar" and not hasattr(suite_scalar, "__wrapped__")
    res = suite_scalar(0, 1, 1e-9)
    assert res.suite_name == "scalar" and res.errata_notes == []
    assert res.checks_run == 6 and np.isnan(res.max_deviation) and not res.passed
    res = suite_array(0, 1, np.inf)
    assert res.checks_run == 7 and np.isnan(res.max_deviation) and not res.passed

    # a bool deviation counts 1 for failed and 0 for passed
    @_suite
    def suite_flags(seed, count):
        yield 2, np.array([False, bool(count)])
        yield 1, 1e-12

    res = suite_flags(0, 1, 0.5)
    assert res.checks_run == 3 and res.max_deviation == 1.0 and not res.passed
    res = suite_flags(0, 0, 1e-9)
    assert res.max_deviation == 1e-12 and res.passed


def test_verify_is_deterministic_across_processes():
    cmd = [sys.executable, "-m", "spin42", "verify", "--suite", "all",
           "--seed", "42", "--count", "40", "--json"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.count(b"\n") == 8  # header + 7 suites


# The README's query examples and their stdout, byte for byte.
_README_QUERIES = [
    (["embed", '{"infinity": true}'], '{"class":[0,0,0,0,1,1],"null_residual":0}'),
    (["embed", '{"point": [0, 0, 0]}'], '{"class":[0,0,0,0,1,-1],"null_residual":0}'),
    (["embed", '{"sphere": {"center": [1,0,0], "radius": 2}}'],
     '{"class":[0.5,0,0,1,-1,-0.5],"null_residual":0}'),
    (["embed", '{"plane": {"normal": [0,0,1], "offset": 2}}'],
     '{"class":[0,0,0.5,0.5,1,1],"null_residual":0}'),
    (["invert", "[0, 0, 0, 0, 1, 1]"], '{"class":[0,0,0,0,1,-1],"null_residual":0}'),
    (["invert", "[1, 0, 0, 1, 0, 0]"], '{"class":[1,0,0,1,0,0],"null_residual":0}'),
    (["correspond", "null-to-plane", "[1, 0, 0, 1, 0, 0]"],
     '{"basis":[[[0,0],[0,-0.70710678118654746],[0,0.70710678118654746],[0,0]],'
     '[[0,0.70710678118654746],[0,0],[0,0],[0,-0.70710678118654746]]],'
     '"isotropy_residual":2.2371143170757382e-17}'),
    (["correspond", "plane-to-line", '{"basis": [[1,0,0,1,0,0],[0,1,0,0,0,1]]}'],
     '{"isotropy_residual":0,"rep":[[0,0],[1,0],[-1,0],[0,0]]}'),
    (["correspond", "line-to-plane", "[0, 1, -1, 0]"],
     '{"basis":[[0,-0.5,0,0,0,-0.5],[0.5,0,0,0.5,0,0]],"isotropy_residual":0}'),
    (["act", "[[[0,1],0,0,0],[0,[0,1],0,0],[0,0,[0,1],0],[0,0,0,[0,1]]]", "[1,2,3,4,5,6]"],
     '{"covering":[[-1,0,0,0,0,0],[0,-1,0,0,0,0],[0,0,-1,0,0,0],[0,0,0,-1,0,0],'
     '[0,0,0,0,-1,0],[0,0,0,0,0,-1]],"q_residual":0,"vector":[-1,-2,-3,-4,-5,-6]}'),
]


@pytest.mark.parametrize("args, stdout", _README_QUERIES)
def test_readme_query_stdout_is_pinned(args, stdout):
    result = invoke(args)
    assert result.exit_code == 0
    assert result.stdout == stdout + "\n"


def test_embed_infinity():
    result = invoke(["embed", '{"infinity": true}'])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    assert out["class"] == [0, 0, 0, 0, 1, 1]
    assert out["null_residual"] == 0


@pytest.mark.parametrize("body", ["false", "1", "null", "{}", '"true"', "[true]"])
def test_embed_refuses_an_infinity_body_other_than_true(body):
    result = invoke(["embed", f'{{"infinity": {body}}}'])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == ("contract violation: InvalidEntity: malformed infinity:"
                             f" ValueError: the body must be true, not {body}\n")


def test_embed_origin():
    result = invoke(["embed", '{"point": [0, 0, 0]}'])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["class"] == [0, 0, 0, 0, 1, -1]


def test_embed_plane_class():
    result = invoke(["embed", '{"plane": {"normal": [0, 0, 1], "offset": 2}}'])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["class"] == [0, 0, 0.5, 0.5, 1, 1]


def test_embed_sphere():
    result = invoke(["embed", '{"sphere": {"center": [1, 0, 0], "radius": 2}}'])
    assert result.exit_code == 0
    # raw rep (1,0,0,2,-2,-1) rescaled so the leading largest slot is 1
    assert json.loads(result.stdout)["class"] == [0.5, 0, 0, 1, -1, -0.5]


def test_embed_contract_violations():
    result = invoke(["embed", '{"sphere": {"center": [0, 0, 0], "radius": 0}}'])
    assert result.exit_code == 3
    assert "contract violation" in result.stderr
    result = invoke(["embed", '{"blob": 1}'])
    assert result.exit_code == 3


def test_huge_inputs_get_their_answers_or_the_overflow_named():
    plane = '{"basis": [[1e200,0,0,1e200,0,0],[0,1e200,0,0,0,1e200]]}'
    result = invoke(["correspond", "plane-to-line", plane])
    assert result.exit_code == 0
    assert result.stdout == '{"isotropy_residual":0,"rep":[[0,0],[1,0],[-1,0],[0,0]]}\n'
    for entity in ('{"point": [1e200, 0, 0]}', '{"sphere": {"center": [0,0,0], "radius": 1e200}}'):
        result = invoke(["embed", entity])
        assert result.exit_code == 3
        assert result.stderr == ("contract violation: InvalidEntity: center or radius"
                                 " too large: its square overflows\n")
    result = invoke(["embed", '{"point": [1e100, 0, 0]}'])
    assert result.stdout == '{"class":[2e-100,0,0,0,1,1],"null_residual":0}\n'


@pytest.mark.parametrize("entry", ["1e200", "NaN"])
def test_act_refuses_a_huge_or_nan_matrix_as_a_contract_violation(entry):
    # the pytest configuration makes any RuntimeWarning an error
    matrix = f"[[{entry},0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
    result = invoke(["act", matrix, "[1,2,3,4,5,6]"])
    assert result.exit_code == 3
    assert result.stderr == "contract violation: NotNormalized: matrix fails the membership test\n"


def test_embed_tol_gates_nullity():
    sphere = '{"sphere": {"center": [0.1,0.2,0.3], "radius": 0.7}}'
    # the raw embedding rounds to Q = -6.05e-17, null at the default
    # tolerance and not at tolerance 0
    result = invoke(["embed", sphere])
    assert result.exit_code == 0
    assert result.stdout == (
        '{"class":[0.14285714285714288,0.28571428571428575,0.4285714285714286,'
        '1,-0.9642857142857143,0.46428571428571441],'
        '"null_residual":3.3986419121178422e-18}\n'
    )
    result = invoke(["embed", "--tol", "0", sphere])
    assert result.exit_code == 3
    assert "NotNull" in result.stderr


def test_embed_malformed_json_is_usage_error():
    result = invoke(["embed", "{not json"])
    assert result.exit_code == 2


def test_invert_swaps_infinity_and_origin():
    result = invoke(["invert", "[0, 0, 0, 0, 1, 1]"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["class"] == [0, 0, 0, 0, 1, -1]


def test_invert_fixed_class():
    result = invoke(["invert", "[1, 0, 0, 1, 0, 0]"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["class"] == [1, 0, 0, 1, 0, 0]


def test_invert_rejects_non_null():
    result = invoke(["invert", "[1, 0, 0, 0, 0, 0]"])
    assert result.exit_code == 3


def test_invert_rejects_wrong_shape():
    result = invoke(["invert", "[1, 2]"])
    assert result.exit_code == 2


def test_correspond_null_to_plane():
    result = invoke(["correspond", "null-to-plane", "[1, 0, 0, 1, 0, 0]"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    got = np.stack([_cvec(out["basis"][0]), _cvec(out["basis"][1])], axis=1)
    want = np.array([[1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex).T
    assert same_span(got, want)
    assert out["isotropy_residual"] < 1e-9


def test_correspond_plane_to_line():
    payload = '{"basis": [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 1]]}'
    result = invoke(["correspond", "plane-to-line", payload])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    rep = _cvec(out["rep"])
    want = np.array([0, 1, -1, 0], dtype=complex)
    overlap = abs(np.vdot(rep, want)) / (np.linalg.norm(rep) * np.linalg.norm(want))
    assert overlap == pytest.approx(1.0, abs=1e-9)
    assert out["isotropy_residual"] < 1e-9


def test_correspond_line_to_plane():
    result = invoke(["correspond", "line-to-plane", "[0, 1, -1, 0]"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    got = np.stack([np.array(out["basis"][0]), np.array(out["basis"][1])], axis=1)
    want = np.array([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 1]], dtype=float).T
    assert same_span(got, want)
    assert out["isotropy_residual"] < 1e-9


def test_correspond_contract_and_usage_errors():
    result = invoke(["correspond", "null-to-plane", "[1, 0, 0, 0, 0, 0]"])
    assert result.exit_code == 3
    result = invoke(["correspond", "sideways", "[1, 0, 0, 1, 0, 0]"])
    assert result.exit_code == 2
    result = invoke(["correspond", "plane-to-line", "[1, 2, 3]"])
    assert result.exit_code == 2
    result = invoke(["correspond", "line-to-plane", "[1, 0, 0, 0]"])
    assert result.exit_code == 3  # not isotropic
    result = invoke(["correspond", "plane-to-line", '{"basis": [[1, 0, 0, 1, 0, 0]]}'])
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
    result = invoke(args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("contract violation") and result.stderr.count("\n") == 1


def test_act_identity():
    eye = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
    result = invoke(["act", eye, "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    assert out["vector"] == [1, 2, 3, 4, 5, 6]
    assert np.array_equal(np.array(out["covering"]), np.eye(6))
    assert out["q_residual"] == 0


def test_act_scalar_i_negates():
    i4 = json.dumps([[[0, 1] if r == c else 0 for c in range(4)] for r in range(4)])
    result = invoke(["act", i4, "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    assert out["vector"] == [-1, -2, -3, -4, -5, -6]
    assert np.array_equal(np.array(out["covering"]), -np.eye(6))


def test_act_rejects_non_member():
    two = "[[2,0,0,0],[0,2,0,0],[0,0,2,0],[0,0,0,2]]"
    result = invoke(["act", two, "[1, 0, 0, 0, 0, 0]"])
    assert result.exit_code == 3
    assert "membership" in result.stderr


def test_act_tol_gates_membership_exactly():
    def scalar_i(c):
        return json.dumps([[[0, c] if r == k else 0 for k in range(4)] for r in range(4)])

    # (1 + 3e-10) i I deviates by 6e-10 in m G m^dagger and 1.2e-9 in det
    near = scalar_i(1.0000000003)
    result = invoke(["act", "--tol", "1e-12", near, "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 3
    assert "membership" in result.stderr
    assert invoke(["act", near, "[1, 2, 3, 4, 5, 6]"]).exit_code == 3
    result = invoke(["act", "--tol", "1e-8", near, "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 0
    # --tol reaches the covering matrix and the action: their quadric
    # residual of 4e-5 passes at tol 1e-3
    result = invoke(["act", "--tol", "1e-3", scalar_i(1.00001), "[1, 2, 3, 4, 5, 6]"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["q_residual"] == pytest.approx(4e-5, rel=1e-3)


@pytest.mark.parametrize("mixed, pairs", [
    (["act", "[[[0,1],0,0,0],[0,[0,1],0,0],[0,0,[0,1],0],[0,0,0,[0,1]]]", "[1,2,3,4,5,6]"],
     ["act", json.dumps([[[0, int(r == c)] for c in range(4)] for r in range(4)]),
      "[1,2,3,4,5,6]"]),
    (["correspond", "line-to-plane", "[0, 1, -1, 0]"],
     ["correspond", "line-to-plane", "[[0,0],[1,0],[-1,0],[0,0]]"]),
], ids=["act", "line-to-plane"])
def test_complex_entries_written_all_as_pairs_read_as_the_mixed_form(mixed, pairs):
    # a payload whose every entry is a [re, im] pair is one axis deeper
    # than its shape; its entries are still read at the depth of the shape
    want, got = invoke(mixed), invoke(pairs)
    assert want.exit_code == got.exit_code == 0
    assert got.stdout == want.stdout


def test_act_bad_matrix_shape_is_usage_error():
    result = invoke(["act", "[[1,0],[0,1]]", "[1, 0, 0, 0, 0, 0]"])
    assert result.exit_code == 2


def test_myth_report():
    result = invoke(["myth-report", "--samples", "20"])
    assert result.exit_code == 0
    out = json.loads(result.stdout)
    assert out["missing_confirmed"] is True
    assert out["fixed_sphere_max_drift"] == 0
    assert out["min_matching_residual"] >= 0.1
    assert out["sample_count"] == 20
    assert any("slot" in note or "swap" in note for note in out["errata_notes"])
    assert "MISSING CONFIRMED" in result.stderr


def test_myth_report_sample_validation():
    result = invoke(["myth-report", "--samples", "0"])
    assert result.exit_code == 2


def test_myth_report_deterministic():
    a = invoke(["myth-report", "--samples", "15", "--seed", "3", "--json"])
    b = invoke(["myth-report", "--samples", "15", "--seed", "3", "--json"])
    assert a.stdout == b.stdout and a.exit_code == 0


# Each command's flags and the default its --help states.
_HELP = {
    "verify": {"--suite": "all", "--seed": "0", "--count": "200", "--tol": "1e-09",
               "--json": None},
    "embed": {"--tol": "1e-09"},
    "invert": {"--tol": "1e-09"},
    "correspond": {"--tol": "1e-09"},
    "act": {"--tol": "1e-09"},
    "myth-report": {"--samples": "100", "--seed": "0", "--tol": "1e-09", "--json": None},
}


@pytest.mark.parametrize("command", sorted(_HELP))
def test_help_names_every_flag_and_its_default(command):
    result = invoke([command, "--help"])
    assert result.exit_code == 0 and result.stderr == ""
    text = " ".join(result.stdout.split())  # the help wraps at the terminal width
    assert "--help" in text and "CMK_TOL" in text
    for flag, default in _HELP[command].items():
        assert flag in text
        if default is not None:
            assert f"[default: {default}]" in text


def test_program_help_lists_every_command():
    result = invoke(["--help"])
    assert result.exit_code == 0
    assert all(command in result.stdout for command in _HELP)
    # no command prints the same list to stderr, as a usage error
    result = invoke([])
    assert result.exit_code == 2 and result.stdout == ""
    assert all(command in result.stderr for command in _HELP)


@pytest.mark.parametrize("args", [
    ["verify", "--sui", "clifford"],  # no abbreviated flags
    ["verify", "--nosuch"],
    ["embed", "--suite", "all", '{"infinity": true}'],
    ["--nosuch"],
    ["nosuch"],
    ["verify", "extra"],
    ["embed"],
    ["verify", "--json=1"],
])
def test_unknown_abbreviated_or_missing_arguments_exit_2(args):
    result = invoke(args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stdout == "" and "Error: " in result.stderr


@pytest.mark.parametrize("args, env", [
    (["--tol", "-inf"], {}),
    (["--tol", "-1e-9"], {}),
    (["--tol=-1"], {}),
    (["--tol"], {}),
    ([], {"CMK_TOL": "nan"}),
    ([], {"CMK_TOL": "abc"}),
])
def test_tol_forms_argparse_reads_as_missing_are_invalid_values(args, env):
    # a value that starts with "-" and is not a plain number is read as a
    # missing value, and still named an invalid value of --tol
    result = invoke(["verify", "--suite", "clifford", *args], env=env)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "Invalid value for '--tol'" in result.output


def test_empty_cmk_tol_takes_the_default():
    result = invoke(["verify", "--suite", "clifford", "--count", "5", "--json"],
                    env={"CMK_TOL": ""})
    assert result.exit_code == 0 and _lines(result)[0]["tol"] == 1e-9


def test_usage_error_outside_standalone_mode_raises_system_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main.main(["verify", "--count", "0"], prog_name="spin42", standalone_mode=False)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spin42 verify ")
    assert err.endswith("Error: Invalid value for '--count': 0 is not in the range x>=1.\n")
    with pytest.raises(SystemExit) as info:
        main.main(["embed", "{not json"], prog_name="spin42", standalone_mode=False)
    assert info.value.code == 2


def test_importing_the_cli_loads_no_argument_parser():
    code = ("import sys, spin42.cli; "
            "print(sorted({'argparse', 'click'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader of stdout is gone before the first line is written
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "spin42", "invert", "[1, 0, 0, 1, 0, 0]"],
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == 1 and proc.stderr == b""


def test_interrupt_exits_1_standalone_and_propagates_otherwise(monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(spin42.suites, "run_suites", interrupted)
    with pytest.raises(SystemExit) as info:
        main.main(["verify", "--json"], prog_name="spin42")
    assert info.value.code == 1 and capsys.readouterr().err == "\nAborted!\n"
    with pytest.raises(KeyboardInterrupt):
        main.main(["verify", "--json"], prog_name="spin42", standalone_mode=False)


def test_console_script_runs_on_argv_under_its_own_name(monkeypatch, capsys):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["/usr/bin/spin42", "verify", "--seed", "-1"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: spin42 verify ")


# the README's examples, a help text and a usage error
_README_EXAMPLES = [
    ["verify", "--suite", "clifford", "--tol", "0"],
    ["embed", '{"infinity": true}'],
    ["embed", '{"point": [0, 0, 0]}'],
    ["embed", '{"sphere": {"center": [1,0,0], "radius": 2}}'],
    ["embed", '{"plane": {"normal": [0,0,1], "offset": 2}}'],
    ["invert", "[0, 0, 0, 0, 1, 1]"],
    ["invert", "[1, 0, 0, 1, 0, 0]"],
    ["correspond", "null-to-plane", "[1, 0, 0, 1, 0, 0]"],
    ["correspond", "plane-to-line", '{"basis": [[1,0,0,1,0,0],[0,1,0,0,0,1]]}'],
    ["correspond", "line-to-plane", "[0, 1, -1, 0]"],
    ["act", "[[[0,1],0,0,0],[0,[0,1],0,0],[0,0,[0,1],0],[0,0,0,[0,1]]]", "[1,2,3,4,5,6]"],
    ["myth-report", "--samples", "100"],
    ["verify", "--help"],
    ["--help"],
    ["verify", "--tol", "-1"],
]


@pytest.mark.parametrize("args", _README_EXAMPLES, ids=" ".join)
def test_invoke_prints_what_a_fresh_process_prints(args):
    proc = subprocess.run([sys.executable, "-m", "spin42", *args], capture_output=True)
    result = invoke(args, prog_name="python -m spin42")
    assert (result.exit_code, result.stdout.encode(), result.stderr.encode()) == (
        proc.returncode, proc.stdout, proc.stderr)


def test_act_accepts_a_strong_boost():
    # a boost whose 2x2 minors cancel to eps max|m|^2: a member the span
    # gate once refused (ActionLeavesSpan, residual 9.5e-07)
    c, a = repr(float(np.sqrt(1 + 1e10))), "100000.0"
    matrix = f"[[{c},0,{a},0],[0,1,0,0],[{a},0,{c},0],[0,0,0,1]]"
    result = invoke(["act", matrix, "[1,2,3,4,5,6]"])
    assert result.exit_code == 0, result.output
    assert np.isfinite(json.loads(result.stdout)["covering"]).all()


def test_act_refuses_a_huge_matrix_whose_covering_is_zero():
    # every 2x2 minor of a constant matrix is 0, so its covering is 0; past
    # SCALE_MAX the membership test refuses it before any minor is formed
    row = "[" + ",".join(["1e100"] * 4) + "]"
    result = invoke(["act", "[" + ",".join([row] * 4) + "]", "[1,2,3,4,5,6]"])
    assert result.exit_code == 3 and result.stdout == ""
    assert "NotNormalized" in result.stderr


# ---------------------------------------------------------------------------
# the command-line table and its parse


def _flags(params):
    return [p for p in params if p.name.startswith("-")]


def _slots(params):
    return [p for p in params if not p.name.startswith("-")]


@pytest.mark.parametrize("command", sorted(spin42.cli._COMMANDS))
def test_each_command_names_its_flags_and_arguments_once(command):
    params = spin42.cli._COMMANDS[command][1]
    flags = [p.name for p in _flags(params)]
    slots = [p.name for p in _slots(params)]
    assert len(set(flags)) == len(flags) and flags[-1] == "--help"
    assert len(set(slots)) == len(slots)
    assert len({p.dest for p in params}) == len(params)


@pytest.mark.parametrize("command", sorted(spin42.cli._COMMANDS))
def test_every_default_passes_its_own_converter(command):
    # so the [default: X] that --help prints is the value a bare call gets
    for p in _flags(spin42.cli._COMMANDS[command][1]):
        if p.type is not None:
            assert p.type(str(p.default)) == p.default, p.name


def test_running_commands_loads_no_argument_parser():
    code = ("import sys, runpy\n"
            "try:\n"
            "    runpy.run_module('spin42', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(sorted({'argparse', 'click'} & set(sys.modules)), file=sys.stderr)\n")
    for args in (["embed", '{"infinity": true}'],
                 ["verify", "--suite", "clifford", "--count", "5", "--json"]):
        proc = subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True, check=True)
        assert proc.stdout and proc.stderr.endswith("[]\n"), proc.stderr


# the modules a command runs: the package registers its layers lazily, and a
# registered module that has not run is an importlib.util._LazyModule, which
# type() reads without running it
_RUN_AT_IMPORT = {"spin42", "spin42.cli", "spin42.errors", "spin42.forms"}
_QUERY_LAYERS = [
    (["embed", '{"infinity": true}'], {"liesphere"}),
    (["invert", "[0, 0, 0, 0, 1, 1]"], {"liesphere"}),
    (["correspond", "null-to-plane", "[1, 0, 0, 1, 0, 0]"],
     {"clifford", "exterior", "isotropic"}),
    (["act", "[[[0,1],0,0,0],[0,[0,1],0,0],[0,0,[0,1],0],[0,0,0,[0,1]]]", "[1,2,3,4,5,6]"],
     {"clifford", "exterior", "spin"}),
    (["--help"], set()),
]


@pytest.mark.parametrize("args, layers", _QUERY_LAYERS, ids=[a[0] for a, _ in _QUERY_LAYERS])
def test_a_command_runs_only_the_layers_it_calls(args, layers):
    code = ("import sys, runpy, types\n"
            "try:\n"
            "    runpy.run_module('spin42', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(*sorted(n for n, m in sys.modules.items()\n"
            "              if n.startswith('spin42') and type(m) is types.ModuleType),\n"
            "      file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True)
    ran = set(proc.stderr.splitlines()[-1].split())
    assert proc.stdout and ran == _RUN_AT_IMPORT | {f"spin42.{n}" for n in layers}, ran


# values a flag or argument is given: the converters' edges, which a
# valued flag takes as its value however they start, and the texts that
# start with "-" and still fill an argument slot ("-" alone, text with a
# space, a negative number)
_EDGE_VALUES = ["-1", "-0", "-inf", "-1e-9", "-x", "", "-", "-x y"]
_GOOD_VALUES = {
    "--suite": ["clifford", "all"], "--seed": ["0", "3"], "--count": ["1", "7"],
    "--samples": ["1", "20"], "--tol": ["0", "1e-9", "inf", "0.5"],
    "{null-to-plane|plane-to-line|line-to-plane}": ["null-to-plane", "line-to-plane"],
}
_PAYLOADS = ['{"infinity": true}', "[1, 0, 0, 1, 0, 0]", "x"]


@st.composite
def _command_lines(draw):
    """A command and its arguments, drawn from the command's _Param records:
    its flags in any order, repeated or as --flag=value, its arguments
    (after "--" too), and maybe unknown or abbreviated flags, a valued
    flag without its value, an extra or a missing argument, or --help."""
    command = draw(st.sampled_from(sorted(spin42.cli._COMMANDS)))
    params = spin42.cli._COMMANDS[command][1]

    def value(p):
        edge = draw(st.integers(0, 3)) == 0
        return draw(st.sampled_from(_EDGE_VALUES if edge else _GOOD_VALUES.get(p.name, _PAYLOADS)))

    def flag(p):
        if p.type is None:
            return [p.name]
        if draw(st.booleans()):
            return [f"{p.name}={value(p)}"]
        return [p.name, value(p)]

    def unknown(p):
        return draw(st.sampled_from([
            [p.name[:-1]], [p.name[:-1], value(p)], ["--nosuch"], ["--nosuch=1"],
            [p.name + "=" + value(p)] if p.type is None else [p.name],
        ]))

    options = [p for p in _flags(params) if p.name != "--help"]
    pieces = [[value(p)] for p in _slots(params)]
    pieces += [flag(p) for p in draw(st.lists(st.sampled_from(options), max_size=5))]
    if draw(st.booleans()):
        pieces.append(["--"])
    pieces = draw(st.permutations(pieces))
    for _ in range(draw(st.integers(0, 2))):
        noise = draw(st.sampled_from(["unknown", "extra", "missing", "--help", "--", "end"]))
        at = draw(st.integers(0, len(pieces)))
        if noise == "unknown":
            pieces.insert(at, unknown(draw(st.sampled_from(options))))
        elif noise == "extra":
            pieces.insert(at, [value(params[0])])
        elif noise == "missing" and pieces:
            pieces.pop(at % len(pieces))
        elif noise in ("--help", "--"):
            pieces.insert(at, [noise])
        else:  # a valued flag with its value missing
            pieces.append([draw(st.sampled_from(options)).name])
    env = draw(st.sampled_from([None, "", "0", "1e-3", "-1", "abc"]))
    return command, [arg for piece in pieces for arg in piece], env


def _outcome(parse):
    """("ok", result), ("exit", code) or, from the reference, ("error",
    message) of parse(), and its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("ok", parse()), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return ("exit", exc.code), out.getvalue(), err.getvalue()
        except ReferenceUsageError as exc:
            return ("error", str(exc)), out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_table_parse_agrees_with_the_argparse_reference(line):
    command, args, env = line
    reference_parse = argparse_reference("spin42")
    fn, params = spin42.cli._COMMANDS[command]
    seen = []

    def record(**kwargs):
        seen.append(kwargs)

    record.__doc__ = fn.__doc__
    # Two readings argparse made are not kept.  A "--" that ends the line
    # ends nothing, and argparse refused it unless an argument's text took
    # it in ("verify --" was "unrecognized arguments: --"); the reference
    # reads the line without it.  And a "--" given as an argument's text
    # after the separator ("act -- [] --") argparse stripped to [].
    ref_args = args[:-1] if "--" in args and args.index("--") == len(args) - 1 else args
    environ = {} if env is None else {"CMK_TOL": env}
    with mock.patch.dict(os.environ, environ), \
            mock.patch.dict(spin42.cli._COMMANDS, {command: (record, params)}):
        if env is None:
            os.environ.pop("CMK_TOL", None)
        reference, _, _ = _outcome(lambda: reference_parse([command, *ref_args]))
        (kind, code), out, err = _outcome(
            lambda: main.main([command, *args], prog_name="spin42", standalone_mode=False))
    if reference[0] == "ok":
        expected = {k: "--" if v == [] else v for k, v in reference[1][1].items()}
        assert (kind, seen) == ("ok", [expected])
    elif reference == ("exit", 0):  # --help
        assert (kind, code, err, seen) == ("exit", 0, "", [])
        assert out.startswith(f"usage: spin42 {command} ") and "--help" in out
    else:
        assert (kind, code, out, seen) == ("exit", 2, "", [])
        assert "\n\nError: " in err, err
        message = reference[1]
        if message.startswith("Invalid value for '"):
            assert "Error: " + message.split(":")[0] in err, (message, err)


def test_lines_the_argparse_parse_read_otherwise():
    # a trailing "--" ends nothing (argparse: "unrecognized arguments: --")
    result = invoke(["verify", "--suite", "clifford", "--count", "1", "--json", "--"])
    assert result.exit_code == 0, result.output
    # a valued flag takes a dash text that converts (argparse: "expected one
    # argument"); -0e0 reads as 0
    result = invoke(["verify", "--suite", "clifford", "--count", "1", "--json", "--tol", "-0e0"])
    assert result.exit_code == 0 and _lines(result)[0]["tol"] == 0
    # "--" as an argument's text after the separator stays "--" and is
    # malformed JSON; argparse passed [] and json.loads raised TypeError
    identity = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
    result = invoke(["act", identity, "--", "--"])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "Error: malformed JSON" in result.stderr
