import ast
import errno
import gc
import io as stdlib_io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from effnum import cli, continuum, counting, density, io, simulate, states
from effnum.cli import build_parser, main
from effnum.errors import InvalidInput
from effnum.io import format_float, json_text

from conftest import FIXTURES, fresh_env

MANIFEST = json.loads((FIXTURES / "expected.json").read_text())

# Grids whose volume overflows: the first's cells, so its Riemann norm is
# inf * 0 = NaN; the second's total only, with a valid norm.
OVERFLOW_GRIDS = [
    {"d": 2, "shape": [2, 2], "spacing": [1e200, 1e200], "values": [[0, 0]] * 4},
    {"d": 1, "shape": [4], "spacing": [1e308], "values": [[5e-155, 0]] * 4},
]
# A grid whose cell densities, 1e308 each, overflow their exact sum.
OVERFLOW_SUM_GRID = {"d": 1, "shape": [2], "spacing": [1.0], "values": [[1e154, 0], [1e154, 0]]}


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(probe: str, *args: str, cwd=None) -> str:
    """stdout of ``probe`` run by a new interpreter that imports effnum from this tree."""
    return subprocess.run([sys.executable, "-c", probe, *args], env=fresh_env(), cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


def fixture_args(args: list[str]) -> list[str]:
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in args]


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=[" ".join(e["args"]) + ":" + e["key"] for e in MANIFEST]
)
def test_shipped_fixtures_reproduce_documented_values(entry, capsys):
    code, out, err = run(capsys, *fixture_args(entry["args"]), "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert abs(payload[entry["key"]] - entry["value"]) <= entry["atol"]


class TestFormats:
    def test_json_output_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "mu", FIXTURES / "state_p525.json", FIXTURES / "dec_singletons3.json",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mu_uncertainty_min"] == 2.5
        assert payload["block_probs"][1] == 0.25
        # re-rendering the parsed payload is a fixed point of the writer
        assert json_text(payload) + "\n" == out

    def test_seventeen_digit_floats(self):
        third = 1.0 / 3.0
        assert float(format_float(third)) == third
        assert format_float(third) == "0.33333333333333331"

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "qnum", FIXTURES / "density_werner.json", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eigenvalue_rank,eigenvalue"
        assert lines[1].startswith("0,0.625")
        assert any(line.startswith("qnum_min,2.5") for line in lines)

    def test_table_output_uses_one_based_labels(self, capsys):
        code, out, _ = run(
            capsys, "mu", FIXTURES / "state_p525.json", FIXTURES / "dec_singletons3.json"
        )
        assert code == 0
        assert "p[1]" in out and "p[0]" not in out

    def test_entangle_prints_both_sides(self, capsys):
        code, out, _ = run(
            capsys, "entangle", FIXTURES / "state_bell.json", "--dims", "2x2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["side_a"] == pytest.approx(2.0, abs=1e-10)
        assert payload["side_b"] == pytest.approx(2.0, abs=1e-10)
        assert payload["agreement"] <= 1e-9

    def test_simulate_estimate_is_consistent(self, capsys):
        code, out, _ = run(
            capsys, "simulate", FIXTURES / "state_p525.json",
            FIXTURES / "dec_singletons3.json",
            "--trials", "100000", "--seed", "404", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        runrec = payload["runs"][0]
        assert abs(runrec["estimate"] - 2.5) <= 5.0 * runrec["stderr"]

    def test_simulate_convergence_table(self, capsys):
        code, out, _ = run(
            capsys, "simulate", FIXTURES / "state_p525.json",
            FIXTURES / "dec_singletons3.json",
            "--trials", "1000,10000", "--seed", "7", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trials,estimate,stderr,exact,abs_error"
        assert len(lines) == 3

    def test_refine_emits_one_row_per_level(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "refine", FIXTURES / "problem_gaussian.json",
            "--levels", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,m_count,spacing,ratio"
        assert len(lines) == 6  # 4 levels + extrapolation row + header
        # spacings whose squared deviations underflow or overflow a double
        path = tmp_path / "problem.json"
        for doc, ratio in [
            ({"kind": "constant", "weights": [1, 1, 1], "base_spacing": 1e-300}, 1.0),
            ({"kind": "half-box-1d", "box": [0, 1e308], "base_cells": 4}, 0.5),
        ]:
            path.write_text(json.dumps(doc))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, "refine", path, "--format", "json")
            assert (code, err) == (0, "")
            payload = json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity
            assert (payload["extrapolated"], payload["residual"]) == (ratio, 0.0)


# Valid [re, im] arrays for each complex key, and ways to corrupt them.
COMPLEX_TEMPLATES = {
    "amps": [[0.6, 0.0], [0.8, 0.0]],
    "rows": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    "basis rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "values": [[1.0, 0.0], [1.0, 0.0]],
}


def _first_pair(value):
    while isinstance(value[0][0], list):
        value = value[0]
    return value[0]


def _set_first_number(number):
    def corrupt(template):
        value = json.loads(json.dumps(template))
        _first_pair(value)[0] = number
        return value
    return corrupt


def _reshape_first_pair(change):
    def corrupt(template):
        value = json.loads(json.dumps(template))
        pair = _first_pair(value)
        pair[:] = change(list(pair))
        return value
    return corrupt


CORRUPTIONS = {
    "string": _set_first_number("0.6"),
    "true": _set_first_number(True),
    "null": _set_first_number(None),
    "nan": _set_first_number(float("nan")),
    "infinity": _set_first_number(float("inf")),
    "beyond-float": _set_first_number(10**400),
    "ragged": _reshape_first_pair(lambda pair: pair[:1]),
    "triple": _reshape_first_pair(lambda pair: pair + [0.0]),
    "extra-nesting": _reshape_first_pair(lambda pair: [pair, pair]),
}


def complex_array_job(tmp_path, key: str, value) -> tuple[list, object]:
    """argv of a command that reads ``value`` under ``key``, and the file it is in."""
    path = tmp_path / "doc.json"
    if key == "amps":
        path.write_text(json.dumps({"dim": 2, "amps": value}))
        return ["entangle", path, "--dims", "1x2"], path
    if key == "rows":
        path.write_text(json.dumps({"dim": 2, "rows": value}))
        return ["qnum", path], path
    if key == "basis rows":
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"dim": 2, "amps": COMPLEX_TEMPLATES["amps"]}))
        path.write_text(json.dumps({"basis": {"rows": value}, "groups": [[0], [1]]}))
        return ["mu", state, path], path
    path.write_text(json.dumps({"d": 1, "shape": [2], "spacing": [0.5], "values": value}))
    return ["effvol", path], path


class TestExitCodes:
    def test_validation_failure_is_exit_two(self, capsys):
        state, dec = FIXTURES / "state_bad_norm.json", FIXTURES / "dec_singletons3.json"
        for command in ("mu", "simulate"):
            code, _, err = run(capsys, command, state, dec)
            assert code == 2
            assert err.startswith(f"error: {state}: state norm^2 ") and str(dec) not in err

    def test_density_invariant_failure_is_exit_three(self, capsys, tmp_path):
        bad = FIXTURES / "density_bad.json"
        code, _, err = run(capsys, "qnum", bad)
        assert code == 3
        assert err.startswith(f"error: {bad}: matrix is not positive semidefinite")
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": 2, "rows": [[[0.5, 0.0], [0.1, 0.0]],
                                                       [[0.0, 0.0], [0.5, 0.0]]]}))
        code, _, err = run(capsys, "qnum", path)
        assert code == 3
        assert err == f"error: {path}: matrix is not Hermitian: max |rho - rho^H| = 1.000e-01\n"

    def test_malformed_json_is_exit_two_with_line_number(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"dim": 2,\n  "amps": [[1, 0]\n}')
        code, _, err = run(capsys, "mu", bad, FIXTURES / "dec_singletons3.json")
        assert code == 2
        assert "broken.json:3" in err

    def test_missing_file_is_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "qnum", tmp_path / "nope.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["qnum", "check"])
    @pytest.mark.parametrize("kind, reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not-utf8", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_file_is_named_once(self, capsys, tmp_path, command, kind, reason):
        path = tmp_path / "doc.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert f"cannot read file: {reason}" in err and err.count(str(path)) == 1

    @pytest.mark.parametrize("command", ["check", "qnum"])
    def test_integer_beyond_the_conversion_limit_is_exit_two(self, capsys, tmp_path, command):
        # Python converts integer literals of at most 4,300 digits
        path = tmp_path / "big.json"
        path.write_text('{"dim": 1' + "0" * 5000 + ', "amps": [[1, 0]]}')
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert err.startswith("error: ") and err.count("error:") == 1
        assert err.count(str(path)) == 1

    def test_bad_alpha_is_exit_two(self, capsys):
        code, _, err = run(
            capsys, "qnum", FIXTURES / "density_werner.json", "--cf", "alpha=1.5"
        )
        assert code == 2

    @pytest.mark.parametrize("dim", ["x", 1.7])
    def test_non_integer_dim_is_exit_two(self, capsys, tmp_path, dim):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"dim": dim, "amps": [[1.0, 0.0]]}))
        code, _, err = run(capsys, "mu", state, FIXTURES / "dec_singletons3.json")
        assert code == 2
        assert "state.json" in err and "'dim'" in err

    def test_non_integer_trials_is_exit_two(self, capsys):
        code, _, err = run(
            capsys, "simulate", FIXTURES / "state_p525.json",
            FIXTURES / "dec_singletons3.json", "--trials", "abc",
        )
        assert code == 2
        assert err.startswith("error: --trials")

    @pytest.mark.parametrize("command, doc", [
        ("effvol", {"d": 1, "shape": [2], "spacing": ["x"], "values": [[1.0, 0.0], [0.0, 0.0]]}),
        ("refine", {"kind": "half-box-1d", "box": [0], "base_cells": 8}),
        ("refine", {"kind": "constant", "weights": "abc"}),
        ("dfd", {"kind": "explicit", "members": [{"n": 2, "p": ["a", 1]}]}),
        ("refine", {"kind": "gaussian-1d", "box": [0.0, 1.0], "center": 0.5,
                    "sigma": float("inf"), "base_cells": 8}),
        # well-formed fields that the constructors the readers call reject
        ("effvol", {"d": 1, "shape": [2], "spacing": [1], "values": [[1, 0], [1, 0]]}),
        ("effvol", {"d": 2, "shape": [2**62 + 1, 4], "spacing": [1, 1],
                    "values": [[0.5, 0]] * 4}),
        ("effvol", {"d": 2, "shape": [2**32, 2**32], "spacing": [1, 1],
                    "values": [[0.5, 0]] * 4}),
        ("effvol", OVERFLOW_GRIDS[0]),
        ("effvol", OVERFLOW_GRIDS[1]),
        ("refine", {"kind": "constant", "weights": [1, 2]}),
        ("refine", {"kind": "half-box-1d", "box": [1, 0], "base_cells": 4}),
        ("dfd", {"kind": "explicit", "members": [{"n": 2, "p": [0.5, 0.6]}]}),
    ], ids=["effvol-spacing", "refine-box", "refine-weights", "dfd-p", "refine-sigma-infinity",
            "effvol-norm", "effvol-cells-beyond-int64", "effvol-cells-2-to-64",
            "effvol-cell-volume-overflows", "effvol-total-volume-overflows",
            "refine-constant-weights", "refine-empty-box", "dfd-p-sum"])
    def test_malformed_float_field_is_exit_two(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
        assert err.count(str(path)) == 1

    def test_refine_level_error_names_the_file(self, capsys, tmp_path):
        # the reader accepts the problem; its levels are built after it returns
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"kind": "gaussian-1d", "box": [0.0, 1.0], "center": 0.5,
                                    "sigma": 1e-160, "base_cells": 4}))
        code, _, err = run(capsys, "refine", path)
        assert (code, err) == (2, f"error: {path}: intensity vanishes on the whole box\n")

    @pytest.mark.parametrize("center", [0.125, 0.5])
    def test_a_sigma_whose_square_underflows_is_rejected_by_name(self, capsys, tmp_path, center):
        # 2 * sigma * sigma is 0, so a sample on the center would be 0/0
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"kind": "gaussian-1d", "box": [0.0, 1.0], "center": center,
                                    "sigma": 1e-200, "base_cells": 4}))
        code, _, err = run(capsys, "refine", path)
        assert code == 2
        assert err == f"error: {path}: sigma must be positive with 2*sigma**2 > 0, got 1e-200\n"

    @pytest.mark.parametrize("doc, says", [
        ({"groups": [[0], [1.7], [2]]}, "groups"),
        ({"groups": [[0], [1], [2]], "eigtuples": [["a"], [1], [2]]}, "'eigtuples'"),
        ({"groups": [[0], [1], [2]], "eigtuples": [[1], [2], [1]]},
         "eigenvalue tuples 0 and 2 coincide"),
        ({"groups": [[0], [1], [2]], "basis": "foo"}, "'basis' must be \"identity\" or an object"),
        ({"groups": [[0], [1], [2]], "basis": 5}, "'basis' must be \"identity\" or an object"),
        ({"groups": [[0], [0], [2]]}, "blocks must partition {0,...,2}"),
        ({"groups": [[0], [1], [2]], "basis": {"rows": [[[1, 0], [1, 0], [0, 0]],
                                                         [[0, 0], [1, 0], [0, 0]],
                                                         [[0, 0], [0, 0], [1, 0]]]}},
         "basis columns are not orthonormal"),
    ], ids=["group-index", "eigtuples", "eigtuples-repeated", "basis-string", "basis-number",
            "not-a-partition", "basis-not-orthonormal"])
    def test_malformed_decomposition_is_exit_two(self, capsys, tmp_path, doc, says):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps(doc))
        for command in ("mu", "simulate"):
            code, _, err = run(capsys, command, FIXTURES / "state_p525.json", dec)
            assert code == 2
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {dec}: {says}")
            assert err.count(str(dec)) == 1 and "state_p525.json" not in err

    @pytest.mark.parametrize("key", ["amps", "rows", "basis rows", "values"])
    @pytest.mark.parametrize("corrupt", list(CORRUPTIONS), ids=list(CORRUPTIONS))
    def test_malformed_complex_array_is_exit_two(self, capsys, tmp_path, key, corrupt):
        template = COMPLEX_TEMPLATES[key]
        argv, doc_path = complex_array_job(tmp_path, key, template)
        assert run(capsys, *argv)[0] == 0  # the uncorrupted document is valid
        argv, doc_path = complex_array_job(tmp_path, key, CORRUPTIONS[corrupt](template))
        code, _, err = run(capsys, *argv)
        assert code == 2
        name = key.split()[-1]
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {doc_path}: '{name}' ")

    @pytest.mark.parametrize("depth", [33, 64, 65, 70, 900])
    @pytest.mark.parametrize("command, doc", [
        (["entangle", "--dims", "1x2"], '{"dim": 2, "amps": %s}'),
        (["qnum"], '{"dim": 2, "rows": %s}'),
        (["refine"], '{"kind": "constant", "weights": %s}'),
        (["check"], '{"dim": 2, "amps": %s}'),
        (["check"], '{"dim": 2, "rows": %s}'),
        (["check"], '{"kind": "constant", "weights": %s}'),
    ], ids=["entangle-amps", "qnum-rows", "refine-weights", "check-amps", "check-rows",
            "check-weights"])
    def test_array_nested_beyond_numpy_dimensions_is_exit_two(self, capsys, tmp_path,
                                                              command, doc, depth):
        # numpy allows 64 dimensions (32 before numpy 2)
        path = tmp_path / "deep.json"
        path.write_text(doc % ("[" * depth + "1.0" + "]" * depth))
        code, _, err = run(capsys, command[0], path, *command[1:])
        assert code == 2
        assert err.startswith("error: ") and err.count("error:") == 1

    def test_dfd_members_not_a_list_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": "explicit", "members": True}))
        code, _, err = run(capsys, "dfd", path)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: 'members'")

    def test_non_finite_density_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": 2, "rows": [[[float("nan"), 0.0], [0.0, 0.0]],
                                                       [[0.0, 0.0], [0.5, 0.0]]]}))
        code, _, err = run(capsys, "qnum", path)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: 'rows' ")

    @pytest.mark.parametrize("argv, docs, code", [
        (["entangle", "{0}", "--dims", "1x2"], [{"dim": 2, "amps": [[1e200, 0], [0, 0]]}], 2),
        (["qnum", "{0}"], [{"dim": 2, "rows": [[[0.5, 0], [1e308, 0]],
                                               [[-1e308, 0], [0.5, 0]]]}], 3),
        (["mu", "{0}", "{1}"], [{"dim": 2, "amps": [[1, 0], [0, 0]]},
                                {"basis": {"rows": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]},
                                 "groups": [[0], [1]]}], 2),
        (["refine", "{0}"], [{"kind": "constant", "weights": [1e308, 1e308]}], 2),
        (["dfd", "{0}"], [{"kind": "explicit", "members": [{"n": 2, "p": [1e308, 1e308]}]}], 2),
        (["effvol", "{0}"], [{"d": 1, "shape": [1], "spacing": [1e-300],
                              "values": [[1e160, 0]]}], 2),
        (["effvol", "{0}"], [OVERFLOW_SUM_GRID], 2),
        (["refine", "{0}"], [{"kind": "gaussian-1d", "box": [0.0, 1.0], "center": 0.413,
                              "sigma": 1e-200, "base_cells": 128}], 2),
        (["refine", "{0}"], [{"kind": "gaussian-1d", "box": [0.0, 1.0], "center": 0.413,
                              "sigma": 1e-160, "base_cells": 128}], 2),
    ], ids=["state-norm", "density-hermiticity", "basis-gram", "constant-weights",
            "family-p", "grid-norm", "grid-norm-sum", "gaussian-sigma",
            "gaussian-sigma-subnormal-variance"])
    def test_overflow_is_one_error_line(self, capsys, tmp_path, argv, docs, code):
        paths = []
        for i, doc in enumerate(docs):
            paths.append(tmp_path / f"doc{i}.json")
            paths[-1].write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the run
            got, _, err = run(capsys, *(a.format(*paths) for a in argv))
        assert got == code
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("exponents", [[-1, 2, 3], [0, 1, 2], [4, 5, 70]],
                             ids=["negative", "zero", "beyond-int64"])
    def test_uniform_power_exponent_out_of_range_is_exit_two(self, capsys, tmp_path, exponents):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": "uniform-power", "gamma": 0.5,
                                    "exponents": exponents}))
        code, _, err = run(capsys, "dfd", path)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: exponents")

    def test_uniform_power_caps_are_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "MAX_POWER_EXPONENT", 5)
        monkeypatch.setattr(io, "MAX_FAMILY_STATES", 2**3 + 2**4 + 2**5)
        path = tmp_path / "family.json"
        for exponents, code in (([3, 4, 5], 0), ([3, 4, 6], 2)):
            path.write_text(json.dumps({"kind": "uniform-power", "gamma": 0.5,
                                        "exponents": exponents}))
            assert run(capsys, "dfd", path)[0] == code
        monkeypatch.setattr(io, "MAX_FAMILY_STATES", 2**3 + 2**4 + 2**5 - 1)
        path.write_text(json.dumps({"kind": "uniform-power", "gamma": 0.5,
                                    "exponents": [3, 4, 5]}))
        code, _, err = run(capsys, "dfd", path)
        assert code == 2 and "more than 55 states" in err

    def test_refine_levels_beyond_the_cell_cap_is_exit_two(self, capsys):
        code, _, err = run(capsys, "refine", FIXTURES / "problem_halfbox.json", "--levels", "80")
        assert code == 2
        assert len(err.splitlines()) == 1 and "above the cap" in err

    def test_refine_cell_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(continuum, "MAX_REFINE_CELLS", 8 * 2**4)  # 8 base cells
        problem = FIXTURES / "problem_halfbox.json"
        assert run(capsys, "refine", problem, "--levels", "5")[0] == 0
        assert run(capsys, "refine", problem, "--levels", "6")[0] == 2

    def test_refine_spacing_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(continuum, "MIN_REFINE_SPACING", 2.0**-10)
        # constant weights, base spacing 1: level k has spacing 2**-(k - 1)
        constant = FIXTURES / "problem_constant.json"
        assert run(capsys, "refine", constant, "--levels", "11")[0] == 0
        code, _, err = run(capsys, "refine", constant, "--levels", "12")
        assert code == 2
        assert len(err.splitlines()) == 1 and "below the cap" in err
        # 8 base cells on [0, 1]: level k has spacing 2**-(k + 2)
        halfbox = FIXTURES / "problem_halfbox.json"
        assert run(capsys, "refine", halfbox, "--levels", "8")[0] == 0
        assert run(capsys, "refine", halfbox, "--levels", "9")[0] == 2

    def test_trial_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_TRIALS", 150)
        args = ["simulate", FIXTURES / "state_p525.json", FIXTURES / "dec_singletons3.json"]
        assert run(capsys, *args, "--trials", "150")[0] == 0
        code, _, err = run(capsys, *args, "--trials", "100,151")
        assert code == 2 and err == "error: trial count must lie in [1, 150], got 151\n"

    def test_trial_count_beyond_numpy_sizes_is_exit_two(self, capsys):
        code, _, err = run(capsys, "simulate", FIXTURES / "state_p525.json",
                           FIXTURES / "dec_singletons3.json", "--trials", str(10**20))
        assert code == 2 and len(err.splitlines()) == 1

    def test_success_is_exit_zero(self, capsys):
        code, _, _ = run(capsys, "qnum", FIXTURES / "density_mixed4.json")
        assert code == 0


class TestOutputFiles:
    def test_out_writes_the_rendered_text(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "qnum", FIXTURES / "density_werner.json",
            "--format", "json", "--out", target,
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["qnum_min"] == pytest.approx(2.5, abs=1e-10)

    def test_failures_leave_no_partial_output(self, capsys, tmp_path):
        target = tmp_path / "never.json"
        code, _, _ = run(
            capsys, "qnum", FIXTURES / "density_bad.json",
            "--format", "json", "--out", target,
        )
        assert code == 3
        assert not target.exists()

    @pytest.mark.parametrize("directory", [False, True], ids=["missing-directory", "directory"])
    def test_unwritable_target_is_exit_two_and_leaves_nothing(self, capsys, tmp_path, directory):
        target = tmp_path / "taken" if directory else tmp_path / "absent" / "x.json"
        if directory:
            target.mkdir()
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(
            capsys, "mu", FIXTURES / "state_bell.json", FIXTURES / "dec_pairs4.json",
            "--out", target,
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert sorted(tmp_path.rglob("*")) == before


class TestCheck:
    def test_kernel_and_fixture_screen_passes(self, capsys):
        files = [
            FIXTURES / name
            for name in (
                "state_bell.json",
                "density_werner.json",
                "dec_pairs4.json",
                "grid_halfbox.json",
                "problem_gaussian.json",
                "family_gamma05.json",
            )
        ]
        code, out, _ = run(capsys, "check", *files, "--cf", "alpha=0.5")
        assert code == 0
        assert "pass" in out

    def test_invalid_file_fails_the_check(self, capsys):
        code, _, err = run(capsys, "check", FIXTURES / "state_bad_norm.json")
        assert code == 2
        assert "INVALID" in err

    @pytest.mark.parametrize("doc", [
        [1, 2, 3],
        {"groups": []},
        {"dim": 2, "rows": [[[0.5, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        *OVERFLOW_GRIDS,
        OVERFLOW_SUM_GRID,
    ], ids=["array", "no-groups", "non-hermitian-density", "grid-cell-volume-overflows",
            "grid-total-volume-overflows", "grid-norm-sum-overflows"])
    def test_unloadable_document_fails_the_check(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert err.startswith("error: ") and f"{path}: INVALID (" in err
        assert err.count(str(path)) == 1  # the row names the file; its detail does not

    @pytest.mark.parametrize("eigtuples, says", [
        ([[1.0], [1.0]], "eigenvalue tuples 0 and 1 coincide"),
        ([[], []], "eigenvalue tuples 0 and 1 coincide"),
        ([[0.0], [1.0], [2.0]], "need one eigenvalue tuple per subspace: got 3 for 2 blocks"),
        ([[[0.0]], [[1.0]]], "eigenvalue tuples must be a table of finite numbers"),
    ], ids=["repeated", "empty", "count", "three-d"])
    def test_bad_labels_fail_the_check(self, capsys, tmp_path, eigtuples, says):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps({"groups": [[0], [1]], "eigtuples": eigtuples}))
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert f"{path}: INVALID ({says}" in err

    def test_check_rejects_the_constant_weights_refine_rejects(self, capsys, tmp_path):
        for weights, says in [([5, -1], "must be non-negative"), ([1, 2], "must sum to n=2")]:
            path = tmp_path / "problem.json"
            path.write_text(json.dumps({"kind": "constant", "weights": weights}))
            for command in ("check", "refine"):
                code, _, err = run(capsys, command, path)
                assert code == 2 and f"counting weights {says}" in err, (command, weights)

    @pytest.mark.parametrize("command", ["check", "qnum"])
    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf8", "nested-too-deeply"])
    def test_undecodable_file_is_exit_two(self, capsys, tmp_path, command, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert err.startswith("error: ") and str(path) in err

    def test_entropy_value_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "qnum", FIXTURES / "density_werner.json", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["entropy_min"] == pytest.approx(math.log(2.5), abs=1e-10)


class TestLogBase:
    def test_base_two_display_conversion(self, capsys):
        code, out, _ = run(
            capsys, "qnum", FIXTURES / "density_werner.json",
            "--log-base", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entropy_min"] == pytest.approx(math.log2(2.5), abs=1e-10)

    def test_bad_base_is_exit_two(self, capsys):
        code, _, _ = run(
            capsys, "qnum", FIXTURES / "density_werner.json", "--log-base", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("base", ["nan", "inf", "1e400"])
    def test_non_finite_base_is_exit_two(self, capsys, base):
        code, out, err = run(
            capsys, "qnum", FIXTURES / "density_werner.json", "--log-base", base
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --log-base must be a finite number > 1, got {base!r}\n"


def run_exiting(capsys, argv: list[str]) -> tuple[int, str, str]:
    """(code, stdout, stderr) of ``main(argv)``, argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    COMMANDS = ["mu", "qnum", "entangle", "effvol", "refine", "simulate", "dfd", "check"]

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_import_builds_no_parser(self):
        assert fresh_python("import effnum.cli as c; print(c._parser)") == "None\n"

    @pytest.mark.parametrize("command", [None] + COMMANDS)
    def test_help_matches_a_fresh_parser(self, capsys, command):
        argv = ([command] if command else []) + ["--help"]
        code, out, err = run_exiting(capsys, argv)
        with pytest.raises(SystemExit) as fresh:
            cli._new_parser().parse_args(argv)
        assert (code, fresh.value.code) == (0, 0)
        assert (out, err) == capsys.readouterr()
        assert out.startswith("usage: effnum" + (f" {command}" if command else ""))

    def test_calls_do_not_see_each_other(self, capsys, monkeypatch):
        bad = ["qnum", "--log-base"]
        sequence = [
            bad,
            ["--help"],
            ["mu", str(FIXTURES / "state_bell.json"), str(FIXTURES / "dec_pairs4.json"),
             "--format", "json"],
            bad,
        ]
        first = {}
        for argv in sequence:
            monkeypatch.setattr(cli, "_parser", None)
            first[tuple(argv)] = run_exiting(capsys, argv)
        assert first[tuple(bad)][0] == 2 and first[("--help",)][0] == 0
        assert first[tuple(sequence[2])][0] == 0
        monkeypatch.setattr(cli, "_parser", None)
        shared = build_parser()
        for argv in sequence:
            assert run_exiting(capsys, argv) == first[tuple(argv)]
        assert build_parser() is shared


class TestStartupImports:
    """A command loads only the modules it uses: numpy.random for simulate,
    fractions and dataclasses for none, and only the effnum submodules it
    runs.  Importing ``effnum.cli``, ``--help`` and a usage error load no
    numpy."""

    PROBE = """
import contextlib, io, json, sys
import effnum.cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = effnum.cli.main(argv)
    return [code, out.getvalue()]

qnum = run(["qnum", "density_werner.json"])
unused = sorted({"numpy.random", "fractions", "dataclasses"} & set(sys.modules))
print(json.dumps([qnum[0], unused, run(json.loads(sys.argv[1])), "numpy.random" in sys.modules]))
"""

    def test_qnum_leaves_them_unloaded_and_simulate_loads_numpy_random(self):
        golden = json.loads((FIXTURES / "golden.json").read_text())
        case = next(g for g in golden if g["argv"][0] == "simulate" and "json" in g["argv"])
        out = fresh_python(self.PROBE, json.dumps(case["argv"]), cwd=FIXTURES)
        qnum_code, unused, simulated, loaded = json.loads(out)
        assert (qnum_code, unused) == (0, [])
        assert simulated == [case["exit"], case["stdout"]] and loaded

    # the effnum submodules a probe has not loaded: each is registered lazily
    # and stays a stand-in until one of its attributes is read
    UNLOADED = """
import contextlib, io, json, sys, types
import effnum.cli

argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = effnum.cli.main(argv) if argv else 0
print(json.dumps([code, "numpy" in sys.modules,
                  sorted(name for name, module in sys.modules.items()
                         if name.startswith("effnum.") and type(module) is not types.ModuleType)]))
"""

    @pytest.mark.parametrize("argv, numpy, unloaded", [
        ([], False, ["continuum", "counting", "decode", "density", "entropy", "io", "simulate",
                     "states"]),
        (["qnum", "density_werner.json"], True, ["continuum", "entropy", "simulate"]),
        (["mu", "state_bell.json", "dec_pairs4.json"], True,
         ["continuum", "density", "entropy", "simulate"]),
    ], ids=["import", "qnum", "mu"])
    def test_a_command_loads_only_the_modules_it_runs(self, argv, numpy, unloaded):
        out = fresh_python(self.UNLOADED, json.dumps(argv), cwd=FIXTURES)
        assert json.loads(out) == [0, numpy, [f"effnum.{name}" for name in unloaded]]

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2)])
    def test_help_and_usage_errors_load_no_numpy(self, argv, code):
        # -X importtime lists every module imported on stderr; -W error turns
        # runpy's warning about a module imported before it runs into a failure
        done = subprocess.run([sys.executable, "-X", "importtime", "-W", "error",
                               "-m", "effnum.cli", *argv],
                              env=fresh_env(), capture_output=True, text=True)
        imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")]
        assert done.returncode == code and "effnum" in imported
        assert "usage: effnum" in done.stdout + done.stderr
        assert not [name for name in imported if name.split(".")[0] == "numpy"]


class TestExactSumCalls:
    """Long arrays are summed by exact_sums' numpy passes, never by fsum."""

    @pytest.fixture
    def fsum_lengths(self, monkeypatch):
        lengths = []

        def counted(values, _original=math.fsum):
            values = list(values)
            lengths.append(len(values))
            return _original(values)

        monkeypatch.setattr(math, "fsum", counted)
        return lengths

    def test_dfd_sums_no_long_list_with_fsum(self, capsys, tmp_path, fsum_lengths):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": "uniform-power", "gamma": 0.5,
                                    "exponents": list(range(2, 13))}))
        assert run(capsys, "dfd", path)[0] == 0
        assert fsum_lengths and max(fsum_lengths) <= counting.EXACT_SUM_CUTOFF

    def test_mu_sums_all_blocks_in_one_call(self, capsys, tmp_path, monkeypatch, fsum_lengths):
        calls, original = [], counting.exact_sums
        for module in (counting, states):
            def counted(*args, _module=module.__name__, **kwargs):
                calls.append(_module)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, "exact_sums", counted)
        n = 2**12
        amps = np.random.default_rng(12).standard_normal(n)
        amps /= math.sqrt(float(np.sum(amps**2)))
        state, dec = tmp_path / "state.json", tmp_path / "dec.json"
        state.write_text(json.dumps({"dim": n, "amps": [[a, 0.0] for a in amps.tolist()]}))
        dec.write_text(json.dumps({"groups": [[i, i + 1] for i in range(0, n, 2)]}))
        assert run(capsys, "mu", state, dec, "--cf", "alpha=0.5")[0] == 0
        # one call for the 2048 block probabilities, one per kernel's count
        assert calls == ["effnum.states", "effnum.counting", "effnum.counting"]
        assert max(fsum_lengths, default=0) <= counting.EXACT_SUM_CUTOFF


def table_reference(title: str, pairs: list) -> str:
    """The table, one (label, value) pair at a time."""
    width = max(len(label) for label, _ in pairs)
    lines = [title]
    for label, value in pairs:
        value = f"{value:.12g}" if isinstance(value, float) else value
        lines.append(f"  {label:<{width}}  {value}")
    return "\n".join(lines) + "\n"


def csv_reference(header: list, rows: list) -> str:
    """The csv text, one row and one cell at a time."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


class TestColumns:
    """Array entries render the bytes that one row per entry rendered."""

    def outputs(self, capsys, *argv) -> tuple[dict, str, str]:
        texts = {}
        for fmt in ("json", "table", "csv"):
            code, texts[fmt], err = run(capsys, *argv, "--format", fmt)
            assert code == 0, err
        payload = json.loads(texts["json"])
        # rendered again from plain lists, one float at a time
        assert json_text(payload) + "\n" == texts["json"]
        return payload, texts["table"], texts["csv"]

    def test_mu_with_1234_blocks(self, capsys, tmp_path):
        rng = np.random.default_rng(1234)
        dim = 1500  # 266 pairs and 968 singletons: labels p[1] to p[1234]
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        order = rng.permutation(dim).tolist()
        groups = [order[i:i + 2] for i in range(0, 532, 2)] + [[i] for i in order[532:]]
        state, dec = tmp_path / "state.json", tmp_path / "dec.json"
        state.write_text(json.dumps({"dim": dim, "amps": [[z.real, z.imag] for z in amps]}))
        dec.write_text(json.dumps({"groups": groups}))
        payload, table, csv = self.outputs(capsys, "mu", state, dec, "--cf", "alpha=0.5")
        probs = payload["block_probs"]
        assert len(probs) == 1234
        assert table == table_reference("measurement uncertainty (blocks 1-based)", [
            ("dimension N", dim), ("blocks M", 1234), ("kernel", payload["counting_function"]),
            *((f"p[{m + 1}]", p) for m, p in enumerate(probs)),
            ("mu-uncertainty", payload["mu_uncertainty"]),
            ("minimal (star)", payload["mu_uncertainty_min"]),
        ])
        assert csv == csv_reference(["block", "probability"], [
            *([m, p] for m, p in enumerate(probs)),
            ["mu_uncertainty", payload["mu_uncertainty"]],
            ["mu_uncertainty_min", payload["mu_uncertainty_min"]],
        ])

    def test_qnum_on_a_128_density(self, capsys, tmp_path):
        rng = np.random.default_rng(128)
        n = 128
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        rho = (q * rng.exponential(size=n)) @ q.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": n, "rows": [[[z.real, z.imag] for z in row]
                                                       for row in rho]}))
        payload, table, csv = self.outputs(capsys, "qnum", path, "--log-base", "2")
        spectrum = payload["spectrum"]
        assert len(spectrum) == n
        assert table == table_reference("density-matrix state content (ranks 1-based)", [
            ("dimension N", n), ("kernel", payload["counting_function"]),
            *((f"rho[{i + 1}]", v) for i, v in enumerate(spectrum)),
            ("state components", payload["qnum"]), ("minimal (star)", payload["qnum_min"]),
            ("entropy", payload["entropy"]), ("entropy (star)", payload["entropy_min"]),
        ])
        assert csv == csv_reference(["eigenvalue_rank", "eigenvalue"], [
            *([i, v] for i, v in enumerate(spectrum)),
            ["qnum", payload["qnum"]], ["qnum_min", payload["qnum_min"]],
        ])

    def test_renderers_match_their_per_entry_forms(self):
        values = np.concatenate([[0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, 1e300, -2.5],
                                 np.random.default_rng(5).random(1227)])
        pairs = [(f"weight[{i + 1}]", v) for i, v in enumerate(values.tolist())]
        # the array's last label, weight[1234], is the widest and sets the width
        assert "".join(io.table_chunks("t", [("a", 1.5), ("weight", values), "note"])) == (
            table_reference("t", [("a", 1.5)] + pairs)[:-1] + "\n  note\n")
        rows = [[i, v] for i, v in enumerate(values.tolist())]
        assert io.csv_text(["i", "v"], [values, ["x", 2.5]]) == csv_reference(
            ["i", "v"], rows + [["x", 2.5]])
        assert json_text({"v": values}) == json_text({"v": values.tolist()})
        empty = np.zeros(0)
        assert "".join(io.table_chunks("t", [("a", 1), ("w", empty)])) == "t\n  a  1\n"
        assert io.csv_text(["i", "v"], [empty]) == "i,v\n"
        assert json_text(empty) == "[]"


class TestStreamedRender:
    """A long column is rendered in chunks: the bytes of the whole-text
    renderers, written in turn to stdout or to the --out file, holding one
    chunk at a time."""

    N = 2**17

    def result(self) -> io.Result:
        values = np.random.default_rng(17).random(self.N) * 1e-3
        out = io.Result("mu", "a long column", ["block", "probability"])
        out.put("n", self.N, "dimension N")
        out.put("block_probs", values, "p", csv=True)
        out.put("mu_uncertainty", 1.25, "mu-uncertainty", csv=True)
        return out

    @staticmethod
    def whole_text(out: io.Result, fmt: str) -> str:
        """The output as the renderers built it before they yielded chunks:
        every line formatted, then joined once."""
        values = out.payload["block_probs"]
        if fmt == "json":
            array = "[" + ", ".join(map("{:.17g}".format, values.tolist())) + "]"
            return (f'{{\n  "command": "mu",\n  "n": {TestStreamedRender.N},\n'
                    f'  "block_probs": {array},\n  "mu_uncertainty": 1.25\n}}\n')
        if fmt == "csv":
            lines = ["block,probability", *map("{},{:.17g}".format, range(values.size),
                                               values.tolist()), "mu_uncertainty,1.25"]
            return "\n".join(lines) + "\n"
        width = len("mu-uncertainty")  # the longest label, longer than p[131072]
        pair = f"  {{:<{width}}}  {{:.12g}}".format
        lines = ["a long column", f"  {'dimension N':<{width}}  {TestStreamedRender.N}",
                 *map(pair, map("p[{}]".format, range(1, values.size + 1)), values.tolist()),
                 f"  {'mu-uncertainty':<{width}}  1.25"]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_chunks_join_to_the_whole_text(self, fmt):
        out = self.result()
        chunks = list(out.chunks(fmt))
        whole = self.whole_text(out, fmt)
        # the index of the first difference, not the diff of two 4 MB texts
        assert next((i for i, (a, b) in enumerate(zip("".join(chunks), whole)) if a != b),
                    None) is None
        assert "".join(chunks) == out.render(fmt) and len(out.render(fmt)) == len(whole)
        assert len(chunks) > self.N // 4096  # one chunk or more per 4,096 entries

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_rendering_to_a_sink_holds_one_chunk(self, fmt, tmp_path):
        # the whole-text renderers peaked at 14 (json) to 21 (table) MiB, the chunks at 0.5 MiB
        out = self.result()
        with open(tmp_path / "sink", "w") as sink:
            sink.writelines(out.chunks(fmt))  # warm-up: first-use caches
            gc.collect()
            tracemalloc.start()
            try:
                sink.writelines(out.chunks(fmt))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**20, peak

    def test_out_writes_the_bytes_of_stdout(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        amps = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
        amps /= np.linalg.norm(amps)
        state, dec = tmp_path / "state.json", tmp_path / "dec.json"
        state.write_text(json.dumps({"dim": self.N, "amps": np.stack([amps.real, amps.imag],
                                                                     -1).tolist()}))
        dec.write_text(json.dumps({"groups": [[i] for i in range(self.N)]}))
        for fmt in ("table", "csv", "json"):
            code, stdout, _ = run(capsys, "mu", state, dec, "--format", fmt)
            assert code == 0 and len(stdout) > 16 * self.N  # every entry is in it
            target = tmp_path / f"out.{fmt}"
            assert run(capsys, "mu", state, dec, "--format", fmt, "--out", target)[:2] == (0, "")
            assert hash(target.read_text()) == hash(stdout)  # no diff of 4 MB texts on failure
        assert not list(tmp_path.glob("*.tmp"))


@pytest.fixture
def seen(monkeypatch):
    """(decoder, gc.isenabled()) for each call of io._walk and io.json.loads."""
    states = []
    for owner, name in ((io, "_walk"), (io.json, "loads")):
        def spy(text, *args, _name=name, _original=getattr(owner, name), **kwargs):
            states.append((_name, gc.isenabled()))
            return _original(text, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return states


class TestOneDecodePerFile:
    @pytest.mark.parametrize("argv, decodes", [
        (["check", "state_bell.json", "density_werner.json", "dec_pairs4.json",
          "grid_gauss1d.json", "problem_constant.json", "family_explicit.json"], 6),
        (["mu", "state_bell.json", "dec_pairs4.json"], 2),
        (["simulate", "state_uniform4.json", "dec_singletons4.json", "--trials", "100"], 2),
        (["qnum", "density_werner.json"], 1),
        (["entangle", "state_bell.json", "--dims", "2x2"], 1),
        (["effvol", "grid_gauss1d.json"], 1),
        (["refine", "problem_constant.json"], 1),
        (["dfd", "family_explicit.json"], 1),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_each_file_is_decoded_once(self, capsys, monkeypatch, seen, argv, decodes):
        paths, load_json = [], io._load_json

        def spy(path):
            paths.append(path)
            return load_json(path)

        monkeypatch.setattr(io, "_load_json", spy)
        assert run(capsys, *fixture_args(argv))[0] == 0
        assert len(paths) == len(set(paths)) == decodes
        assert seen == [("_walk", False)] * decodes  # json.loads never runs on a valid file

    @pytest.mark.parametrize("command", ["qnum", "check"])
    def test_density_document_is_freed_before_eigh(self, capsys, monkeypatch, command):
        freed, freed_at_eigh = [], []
        walk, eigvalsh = io._walk, density._eigvalsh

        class Document(dict):
            def __del__(self):
                freed.append(True)

        def spy_eigvalsh(mat, sigma):
            freed_at_eigh.append(bool(freed))
            return eigvalsh(mat, sigma)

        monkeypatch.setattr(io, "_walk", lambda window: Document(walk(window)))
        monkeypatch.setattr(density, "_eigvalsh", spy_eigvalsh)
        assert run(capsys, command, FIXTURES / "density_werner.json")[0] == 0
        assert freed_at_eigh == [True]


@pytest.mark.skipif(cli._OPENBLAS is None, reason="numpy's BLAS is no OpenBLAS cli can find")
class TestBlasThreads:
    @pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)])
    def test_a_child_starts_numpy_on_the_count_the_variable_names(self, setting, threads):
        env = fresh_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if setting:
            env["OPENBLAS_NUM_THREADS"] = setting
        probe = "import effnum.cli as c, numpy; print(c._openblas_threads()[0]())"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == f"{threads}\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_main_holds_a_loaded_blas_at_that_count(self, capsys, monkeypatch, threads):
        get, seen, eigvalsh = cli._OPENBLAS[0], [], density._eigvalsh
        before = get()

        def spy(mat, sigma):
            seen.append(get())
            return eigvalsh(mat, sigma)

        monkeypatch.setattr(density, "_eigvalsh", spy)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert run(capsys, "qnum", FIXTURES / "density_werner.json")[0] == 0
        assert seen == [int(threads)] and get() == before


class TestLoadJsonPausesTheCollector:
    def test_restores_after_success(self, tmp_path, seen):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2]")
        assert gc.isenabled()
        assert io._load_json(path) == [1, 2]
        assert seen == [("_walk", False), ("loads", False)] and gc.isenabled()

    def test_restores_after_a_json_error(self, tmp_path, seen):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2")
        with pytest.raises(InvalidInput, match="invalid JSON"):
            io._load_json(path)
        assert seen == [("_walk", False), ("loads", False)] and gc.isenabled()

    def test_leaves_a_paused_collector_paused(self, tmp_path, seen):
        path = tmp_path / "doc.json"
        path.write_text("{}")
        gc.disable()
        try:
            assert io._load_json(path) == {}
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [("_walk", False), ("loads", False)]


def python_m_cli(*argv, **options) -> subprocess.CompletedProcess:
    """``python -m effnum.cli ARGV`` in a new interpreter importing this tree."""
    return subprocess.run([sys.executable, "-m", "effnum.cli", *map(str, argv)],
                          env=fresh_env(), **options)


class _FailingRaw(stdlib_io.RawIOBase):
    """A raw stream whose writes raise ``exc`` until ``exc`` is None."""

    def __init__(self, exc):
        self.exc = exc

    def writable(self):
        return True

    def write(self, data):
        if self.exc is not None:
            raise self.exc
        return len(data)


class TestProcessEntry:
    """``effnum`` and ``python -m effnum.cli`` run ``cli.run``: ``main``, its
    output flushed, then ``os._exit``; a write to stdout that fails is exit 2."""

    N = 2**14  # every format of mu's output is several pipe buffers long

    @pytest.fixture(scope="class")
    def long_job(self, tmp_path_factory):
        rng = np.random.default_rng(12)
        amps = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
        amps /= np.linalg.norm(amps)
        folder = tmp_path_factory.mktemp("long")
        state, dec = folder / "state.json", folder / "dec.json"
        state.write_text(json.dumps({"dim": self.N,
                                     "amps": np.stack([amps.real, amps.imag], -1).tolist()}))
        dec.write_text(json.dumps({"groups": [[i] for i in range(self.N)]}))
        return ["mu", state, dec]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_every_byte_reaches_a_pipe_and_a_file(self, capsys, tmp_path, long_job, fmt):
        code, expected, err = run(capsys, *long_job, "--format", fmt)
        assert (code, err) == (0, "") and len(expected) > 4 * 65536
        piped = python_m_cli(*long_job, "--format", fmt, capture_output=True, text=True)
        assert (piped.returncode, piped.stderr) == (0, "")
        assert hash(piped.stdout) == hash(expected)  # no diff of long texts on failure
        target = tmp_path / "out.txt"
        with open(target, "w") as sink:
            filed = python_m_cli(*long_job, "--format", fmt, stdout=sink)
        assert filed.returncode == 0 and hash(target.read_text()) == hash(expected)

    @pytest.mark.parametrize("argv, code, message", [
        (["mu", "state_bad_norm.json", "dec_singletons3.json"], 2,
         "error: state_bad_norm.json: state norm^2 must equal 1"),
        (["qnum", "density_bad.json"], 3,
         "error: density_bad.json: matrix is not positive semidefinite"),
        (["mu", "state_bell.json", "dec_pairs4.json", "--out", "/nonexistent/d/x.json"], 2,
         "error: cannot write /nonexistent/d/x.json: "),
    ], ids=["validation", "invariant", "unwritable-out"])
    def test_exit_codes_survive_the_exit(self, argv, code, message):
        done = python_m_cli(*argv, cwd=FIXTURES, capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (code, "")
        assert done.stderr.startswith(message) and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("exc", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                     OSError(errno.ENOSPC, "No space left on device")],
                             ids=["broken-pipe", "no-space"])
    @pytest.mark.parametrize("long", [False, True], ids=["at-flush", "while-writing"])
    def test_a_failed_write_is_exit_two(self, capsys, monkeypatch, long_job, exc, long):
        raw = _FailingRaw(exc)
        monkeypatch.setattr(sys, "stdout", stdlib_io.TextIOWrapper(stdlib_io.BufferedWriter(raw)))
        argv = long_job if long else ["mu", FIXTURES / "state_bell.json",
                                      FIXTURES / "dec_pairs4.json"]
        try:
            code, _, err = run(capsys, *argv)
        finally:
            raw.exc = None  # the stream's buffer may be flushed when it is collected
        assert code == 2
        assert err == f"error: cannot write standard output: {exc.strerror}\n"

    def test_run_flushes_and_passes_on_the_code(self, capsys, monkeypatch):
        calls = []

        class Exited(Exception):
            pass

        def exit_(code):
            calls.append(("exit", code))
            raise Exited

        class Sink(stdlib_io.StringIO):
            def flush(self):
                calls.append("flush")

        monkeypatch.setattr(os, "_exit", exit_)
        monkeypatch.setattr(sys, "stdout", Sink())
        for argv, code in ([["mu", "state_bell.json", "dec_pairs4.json"], 0],
                           [["qnum", "density_bad.json"], 3]):
            calls.clear()
            monkeypatch.setattr(sys, "argv", ["effnum", *fixture_args(argv)])
            with pytest.raises(Exited):
                cli.run()
            # main flushes what it wrote; run flushes stdout once more, then exits
            flushes = ["flush"] * (2 if code == 0 else 1)
            assert calls == flushes + [("exit", code)]
        capsys.readouterr()

    def test_a_full_device_is_one_error_line(self):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            done = python_m_cli("mu", "state_bell.json", "dec_pairs4.json", cwd=FIXTURES,
                                stdout=full, stderr=subprocess.PIPE, text=True)
        assert done.returncode == 2
        assert done.stderr == "error: cannot write standard output: No space left on device\n"

    def test_a_closed_pipe_is_one_error_line(self, long_job):
        child = subprocess.Popen([sys.executable, "-m", "effnum.cli", *map(str, long_job)],
                                 env=fresh_env(), stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        child.stdout.close()  # the child's output is longer than the pipe holds
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait() == 2
        assert err == "error: cannot write standard output: Broken pipe\n"

    def test_the_script_and_python_m_share_one_entry(self):
        pyproject = (FIXTURES.parents[1] / "pyproject.toml").read_text()
        script = re.search(r'^effnum = "effnum\.cli:(\w+)"$', pyproject, re.M).group(1)
        tree = ast.parse(pathlib.Path(cli.__file__).read_text())
        guard = next(node for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'")
        assert [ast.unparse(node) for node in guard.body] == [f"{script}()"]
        assert script != "main" and callable(getattr(cli, script))
