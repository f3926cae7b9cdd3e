import json
import math

import numpy as np
import pytest

from effnum import continuum, counting, io, states
from effnum.cli import main
from effnum.io import format_float, json_text

from conftest import FIXTURES

MANIFEST = json.loads((FIXTURES / "expected.json").read_text())


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

    def test_refine_emits_one_row_per_level(self, capsys):
        code, out, _ = run(
            capsys, "refine", FIXTURES / "problem_gaussian.json",
            "--levels", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,m_count,spacing,ratio"
        assert len(lines) == 6  # 4 levels + extrapolation row + header


class TestExitCodes:
    def test_validation_failure_is_exit_two(self, capsys):
        code, _, err = run(
            capsys, "mu", FIXTURES / "state_bad_norm.json", FIXTURES / "dec_singletons3.json"
        )
        assert code == 2
        assert "norm" in err

    def test_density_invariant_failure_is_exit_three(self, capsys):
        code, _, err = run(capsys, "qnum", FIXTURES / "density_bad.json")
        assert code == 3
        assert "positive semidefinite" in err

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
    ], ids=["effvol-spacing", "refine-box", "refine-weights", "dfd-p", "refine-sigma-infinity"])
    def test_malformed_float_field_is_exit_two(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("doc", [
        {"groups": [[0], [1.7], [2]]},
        {"groups": [[0], [1], [2]], "eigtuples": [["a"], [1], [2]]},
    ], ids=["group-index", "eigtuples"])
    def test_malformed_decomposition_is_exit_two(self, capsys, tmp_path, doc):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps(doc))
        code, _, err = run(capsys, "mu", FIXTURES / "state_p525.json", dec)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {dec}: ")

    def test_non_finite_density_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": 2, "rows": [[[float("nan"), 0.0], [0.0, 0.0]],
                                                       [[0.0, 0.0], [0.5, 0.0]]]}))
        code, _, err = run(capsys, "qnum", path)
        assert code == 2
        assert err == "error: density matrix contains non-finite entries\n"

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

    @pytest.mark.parametrize("doc", [[1, 2, 3], {"groups": []}], ids=["array", "no-groups"])
    def test_unloadable_document_fails_the_check(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert err.startswith("error: ") and f"{path}: INVALID" in err

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
