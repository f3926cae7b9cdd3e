"""Self-test of the benchmark harness.

Run from the repository root:  python3 bench/selftest.py

Checks that (1) the same seed gives byte-identical inputs, (2) span call
counts repeat exactly and match the code as it stands, (3) uninstalling
the recorder restores every binding, and (4) the oracles accept every
``many-small`` job that is not a known defect.  Exits 1 on any failure.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import tracing
import workloads

SEED = workloads.TUNE_SEED
# Spans per job of the program as it stands; a change to these is a
# change to the program that a performance claim should name.
EXPECTED_PER_JOB = {
    "qnum": {"density.DensityMatrix": 1, "density.hermitian_eigen": 5},
    "entangle": {"density.DensityMatrix": 8, "density.hermitian_eigen": 4},
    "mu": {"states.subspace_probs": 3},
}


def traced_calls(cli, jobs) -> dict[str, int]:
    recorder = tracing.Recorder()
    recorder.install()
    try:
        run.inproc_pass(cli, jobs, recorder, tag="selftest.")
    finally:
        recorder.uninstall()
    return {name: entry["calls"] for name, entry in recorder.summary().items()}


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, "src")
    import effnum
    import effnum.cli as cli

    failures = []
    scratch = run.WORK / "selftest"
    for name in workloads.WORKLOADS:
        first = workloads.prepare(name, SEED, scratch / "a")[1]
        second = workloads.prepare(name, SEED, scratch / "b")[1]
        if first != second:
            failures.append(f"{name}: seed {SEED} gave different input digests")
    shutil.rmtree(scratch)

    jobs, _ = workloads.prepare("many-small", SEED, run.WORK / "inputs")
    for command, expected in EXPECTED_PER_JOB.items():
        job = next(j for j in jobs if j.command == command and j.exit_code == 0)
        counts = [traced_calls(cli, [job]) for _ in range(2)]
        if counts[0] != counts[1]:
            failures.append(f"{command}: span counts differ between two runs")
        for span, calls in expected.items():
            if counts[0][span] != calls:
                failures.append(f"{command}: {span} called {counts[0][span]} times, "
                                f"expected {calls}")
    if traced_calls(cli, jobs) != traced_calls(cli, jobs):
        failures.append("many-small: whole-pass span counts differ between two runs")

    leftovers = [f"{mod.__name__}.{key}" for mod in list(sys.modules.values())
                 if mod is not None and mod.__name__.startswith(effnum.__name__)
                 for key, value in vars(mod).items() if hasattr(value, "__wrapped__")]
    leftovers += [cls.__name__ for cls in (effnum.DensityMatrix, effnum.PureState)
                  if hasattr(cls.__init__, "__wrapped__")]
    if leftovers:
        failures.append(f"bindings left wrapped after uninstall: {leftovers}")

    for job, result in zip(jobs, run.inproc_pass(cli, jobs)):
        if job.defect is None and result["why"] is not None:
            failures.append(f"{' '.join(job.args)}: {result['why']}")

    for line in failures:
        print(f"FAIL {line}")
    print("selftest:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
