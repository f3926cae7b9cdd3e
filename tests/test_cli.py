import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from effnum import cli, continuum, counting, density, io, simulate, states
from effnum.cli import build_parser, main
from effnum.errors import InvalidInput
from effnum.io import format_float, json_text

from conftest import FIXTURES

MANIFEST = json.loads((FIXTURES / "expected.json").read_text())

# Grids whose volume overflows: the first's cells, so its Riemann norm is
# inf * 0 = NaN; the second's total only, with a valid norm.
OVERFLOW_GRIDS = [
    {"d": 2, "shape": [2, 2], "spacing": [1e200, 1e200], "values": [[0, 0]] * 4},
    {"d": 1, "shape": [4], "spacing": [1e308], "values": [[5e-155, 0]] * 4},
]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("doc, says", [
        ({"groups": [[0], [1.7], [2]]}, "groups"),
        ({"groups": [[0], [1], [2]], "eigtuples": [["a"], [1], [2]]}, "'eigtuples'"),
        ({"groups": [[0], [1], [2]], "basis": "foo"}, "'basis' must be \"identity\" or an object"),
        ({"groups": [[0], [1], [2]], "basis": 5}, "'basis' must be \"identity\" or an object"),
        ({"groups": [[0], [0], [2]]}, "blocks must partition {0,...,2}"),
        ({"groups": [[0], [1], [2]], "basis": {"rows": [[[1, 0], [1, 0], [0, 0]],
                                                         [[0, 0], [1, 0], [0, 0]],
                                                         [[0, 0], [0, 0], [1, 0]]]}},
         "basis columns are not orthonormal"),
    ], ids=["group-index", "eigtuples", "basis-string", "basis-number", "not-a-partition",
            "basis-not-orthonormal"])
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
    ], ids=["array", "no-groups", "non-hermitian-density", "grid-cell-volume-overflows",
            "grid-total-volume-overflows"])
    def test_unloadable_document_fails_the_check(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert err.startswith("error: ") and f"{path}: INVALID (" in err
        assert err.count(str(path)) == 1  # the row names the file; its detail does not

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
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = "import effnum.cli as c; print(c._parser)"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "None\n"

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
    """Columns render the bytes that one row per entry rendered."""

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
        column = io.Column("weight", values)
        pairs = [(f"weight[{i + 1}]", v) for i, v in enumerate(values.tolist())]
        # the column's last label, weight[1234], is the widest and sets the width
        assert io.table_text("t", [("a", 1.5), column, "note", None]) == (
            table_reference("t", [("a", 1.5)] + pairs)[:-1] + "\n  note\n")
        rows = [[i, v] for i, v in enumerate(values.tolist())]
        assert io.csv_text(["i", "v"], [column, ["x", 2.5]]) == csv_reference(
            ["i", "v"], rows + [["x", 2.5]])
        assert json_text({"v": values}) == json_text({"v": values.tolist()})
        empty = np.zeros(0)
        assert io.table_text("t", [("a", 1), io.Column("w", empty)]) == "t\n  a  1\n"
        assert io.csv_text(["i", "v"], [io.Column("w", empty)]) == "i,v\n"
        assert json_text(empty) == "[]"


@pytest.fixture
def seen(monkeypatch):
    """gc.isenabled() as json.loads saw it, call by call."""
    states, original = [], io.json.loads

    def spy(text, *args, **kwargs):
        states.append(gc.isenabled())
        return original(text, *args, **kwargs)

    monkeypatch.setattr(io.json, "loads", spy)
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
    def test_each_file_is_decoded_once(self, capsys, seen, argv, decodes):
        assert run(capsys, *fixture_args(argv))[0] == 0
        assert len(seen) == decodes

    @pytest.mark.parametrize("command", ["qnum", "check"])
    def test_density_document_is_freed_before_eigh(self, capsys, monkeypatch, command):
        freed, freed_at_eigh = [], []
        loads, eigh = io.json.loads, density._eigh

        class Document(dict):
            def __del__(self):
                freed.append(True)

        def spy_eigh(mat):
            freed_at_eigh.append(bool(freed))
            return eigh(mat)

        monkeypatch.setattr(io.json, "loads", lambda text: Document(loads(text)))
        monkeypatch.setattr(density, "_eigh", spy_eigh)
        assert run(capsys, command, FIXTURES / "density_werner.json")[0] == 0
        assert freed_at_eigh == [True]


class TestLoadJsonPausesTheCollector:
    def test_restores_after_success(self, tmp_path, seen):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2]")
        assert gc.isenabled()
        assert io._load_json(path) == [1, 2]
        assert seen == [False] and gc.isenabled()

    def test_restores_after_a_json_error(self, tmp_path, seen):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2")
        with pytest.raises(InvalidInput, match="invalid JSON"):
            io._load_json(path)
        assert seen == [False] and gc.isenabled()

    def test_leaves_a_paused_collector_paused(self, tmp_path, seen):
        path = tmp_path / "doc.json"
        path.write_text("{}")
        gc.disable()
        try:
            assert io._load_json(path) == {}
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False]
