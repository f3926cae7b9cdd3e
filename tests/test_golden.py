"""Golden snapshot of the CLI's output bytes.

Every distinct command in ``expected.json``, plus ``check`` on six valid
fixtures, runs through ``main()`` in each output format from inside the
fixtures directory, so only bare file names reach the output.  The exit
code and all non-numeric text must match the snapshot byte for byte;
numbers must agree to 1e-13 relative.

Regenerate the snapshot (only when an output change is intended) from
the repository root:  PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re

import pytest

from effnum.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden.json"
CHECKED = ["state_bell.json", "density_werner.json", "dec_pairs4.json",
           "grid_halfbox.json", "problem_gaussian.json", "family_gamma05.json"]
FORMATS = ("table", "csv", "json")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def commands() -> list[list[str]]:
    manifest = json.loads((FIXTURES / "expected.json").read_text())
    distinct = []
    for entry in manifest:
        if entry["args"] not in distinct:
            distinct.append(entry["args"])
    return distinct + [["check", *CHECKED, "--cf", "alpha=0.5"]]


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cases() -> list[list[str]]:
    return [args + ["--format", fmt] for args in commands() for fmt in FORMATS]


def split(text: str) -> tuple[list[str], list[float]]:
    """Text with every number cut out, and the numbers in order."""
    return NUMBER.split(text), [float(m) for m in NUMBER.findall(text)]


def assert_same_text(got: str, want: str) -> None:
    got_text, got_numbers = split(got)
    want_text, want_numbers = split(want)
    assert got_text == want_text
    for g, w in zip(got_numbers, want_numbers):
        assert math.isclose(g, w, rel_tol=1e-13, abs_tol=1e-15), (g, w)


def snapshot() -> dict[tuple[str, ...], dict]:
    return {tuple(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text())}


def test_snapshot_covers_every_case():
    assert sorted(snapshot()) == sorted(tuple(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_output_matches_snapshot(argv):
    want = snapshot()[tuple(argv)]
    got = invoke(argv)
    assert got["exit"] == want["exit"]
    assert_same_text(got["stdout"], want["stdout"])
    assert_same_text(got["stderr"], want["stderr"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([invoke(argv) for argv in cases()], indent=1) + "\n")
