"""The CLI contract on large inputs, one new interpreter per run.  A child's
``ru_maxrss`` starts from the resident size of the process that spawned it,
so ``bench/spawner.py``, a small process, starts each child and reads its
peak with ``os.wait4``.  A memory bound is on a gap: a command's peak on a
large input less its peak on a small one."""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import FIXTURES, fresh_env


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], -1).tolist()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> pathlib.Path:
    """A folder of the inputs, each large one from its own seeded generator."""
    folder = tmp_path_factory.mktemp("console")

    def write(name, doc):
        (folder / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))

    g = np.random.default_rng(1)
    r = g.standard_normal((512, 512)) + 1j * g.standard_normal((512, 512))
    r = r @ r.conj().T
    write("rho512.json", {"dim": 512, "rows": _pairs(r / np.trace(r).real)})
    n, g = 2**20, np.random.default_rng(2)
    a = g.standard_normal(n) + 1j * g.standard_normal(n)
    write("state.json", {"dim": n, "amps": _pairs(a / np.linalg.norm(a))})
    groups = g.permutation(n).reshape(-1, 2).tolist()
    write("dec.json", {"groups": groups})
    write("labels.json", {"groups": groups, "eigtuples": [[float(i)] for i in range(n // 2)]})
    w = np.random.default_rng(3).random(n)
    write("weights.json", {"kind": "constant", "weights": (n * (w / w.sum())).tolist()})
    g = np.random.default_rng(4)
    ps = [g.random(2**j) for j in range(10, 21)]
    write("members.json", {"kind": "explicit",
                           "members": [{"n": p.size, "p": (p / p.sum()).tolist()} for p in ps]})
    write("levels.json", '{"kind":"gaussian-1d","box":[0,1],"center":0.4,"sigma":0.1,'
                         '"base_cells":2}')
    write("family.json", '{"kind":"uniform-power","gamma":0.375,'
                         '"exponents":[10,11,12,13,14,15,16,17,18,19,20]}')
    write("header.json", '{"dim": 4097, "rows": [[[1.0, 0.0]]]}')
    write("norm.json", '{"dim":2,"amps":[[0.6,0],[0.6,0]]}')
    write("wide.json", {"d": 1, "shape": [2**17], "spacing": [2.0**-17],
                        "values": [[1.0, 0.0]] * 2**17})
    return folder


@pytest.fixture(scope="module")
def child(inputs):
    """``child(*args)``: (exit code, stdout, stderr, peak resident bytes) of
    ``python ARGS``, each name of an input or a fixture replaced by its path."""
    out, err = inputs / "stdout.txt", inputs / "stderr.txt"
    spawner = subprocess.Popen([sys.executable, pathlib.Path(__file__).parents[1] / "bench" /
                                "spawner.py"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               env=fresh_env(), text=True)

    def run(*args):
        argv = [str(inputs / a if (inputs / a).exists() else FIXTURES / a)
                if a.endswith(".json") else a for a in args]
        request = {"argv": [sys.executable, *argv], "stdout": str(out), "stderr": str(err)}
        spawner.stdin.write(json.dumps(request) + "\n")
        spawner.stdin.flush()
        reply = json.loads(spawner.stdout.readline())
        return reply["code"], out.read_text(), err.read_text(), reply["rss_kb"] * 1024

    yield run
    spawner.stdin.close()
    spawner.wait()
    spawner.stdout.close()


# (a command on a large input, the same command on a small one, the bound on
# the gap between their peaks in bytes)
GAPS = {
    "qnum-512": (["qnum", "rho512.json"], ["qnum", "density_werner.json"],
                 5 * 16 * 512 * 512 / 2),  # under 2.5 matrices of 16 N^2 bytes
    "mu-2^20": (["mu", "state.json", "dec.json"], ["mu", "state_bell.json", "dec_pairs4.json"],
                4 * 16 * 1048576),  # under 4 arrays of the 2^20 amplitudes, 16 bytes each
    "labels-2^19": (["mu", "state.json", "labels.json"], ["mu", "state.json", "dec.json"],
                    4 * 8 * 524288),  # under 4 arrays of the 2^19 one-number labels
    "weights-2^20": (["check", "weights.json"], ["check", "problem_constant.json"],
                     2 * 8 * 1048576),  # under 2 copies of the 2^20 weights
    # all members' 2^21 probabilities, 16 MiB, and one member's weights
    "members-2^10..2^20": (["dfd", "members.json"], ["dfd", "family_gamma05.json"],
                           4 * 8 * 1048576),
    "refine-20-levels": (["refine", "levels.json", "--levels", "20"],
                         ["refine", "problem_gaussian.json"],
                         2 * 8 * 1048576),  # under 2 copies of the finest level's 2^20 weights
    # the largest member's 2^20 weights are 8 MiB, mostly never written
    "uniform-power-2^10..2^20": (["dfd", "family.json"], ["dfd", "family_gamma05.json"],
                                 6 * 1048576),
}


@pytest.mark.parametrize("large, small, bound", list(GAPS.values()), ids=list(GAPS))
def test_a_large_input_peaks_within_its_gap(child, large, small, bound):
    code, _, err, rss = child("-m", "effnum.cli", *large)
    small_code, *_, small_rss = child("-m", "effnum.cli", *small)
    gap = rss - small_rss
    assert (code, small_code) == (0, 0) and gap < bound, (code, gap / 1e6, err)


LIBRARY = ("import sys, effnum as en; from effnum import io; psi = io.load_state(sys.argv[1]); "
           "dec, basis = io.load_decomposition(sys.argv[2], psi.dim); en.plugin_mu_estimate("
           "en.sample_outcomes(en.subspace_probs(psi, dec, basis), t=2**24, seed=7))")


@pytest.mark.parametrize("args", [
    ["-m", "effnum.cli", "simulate", "state_uniform4.json", "dec_singletons4.json",
     "--trials", "16777216", "--seed", "7"],
    ["-c", LIBRARY, "state_uniform4.json", "dec_singletons4.json"],
], ids=["cli", "library"])
def test_two_to_the_24_trials_peak_under_150_mb(child, args):
    code, _, err, rss = child(*args)
    peak_mb = rss / 1e6
    assert code == 0 and peak_mb < 150, (code, peak_mb, err)


# (argv, exit code, what stdout, stderr and the folder of inputs satisfy)
OUTCOMES = {
    "density-header-above-the-cap": (
        ["qnum", "header.json"], 2,
        lambda out, err, inputs: len(err.splitlines()) == 1 and err.startswith("error: ")),
    "state-named": (["mu", "norm.json", "dec_singletons3.json"], 2,
                    lambda out, err, inputs: str(inputs / "norm.json") in err),
    "effvol-2^17-cells": (
        ["effvol", "wide.json", "--cf", "alpha=0.5", "--format", "json"], 0,
        lambda out, err, inputs: json.loads(out)["effective_volume"] == 1.0),
    "uniform-power-gamma": (
        ["dfd", "family.json", "--format", "json"], 0,
        lambda out, err, inputs: abs(json.loads(out)["gamma"] - 0.375) <= 0.05),
}


@pytest.mark.parametrize("argv, code, holds", list(OUTCOMES.values()), ids=list(OUTCOMES))
def test_a_command_ends_as_the_contract_says(child, inputs, argv, code, holds):
    got, out, err, _ = child("-m", "effnum.cli", *argv)
    assert got == code and holds(out, err, inputs), (got, out[:200], err)
