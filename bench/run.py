"""effnum benchmark: CLI wall time per workload, and a traced per-module split.

Usage, from the repository root:

    python3 bench/run.py --workload spectral --seed 1 --seconds 36 --trace 0

Workloads are ``spectral``, ``long-vector`` and ``many-small`` (see
``workloads.py``).  Inputs are generated from the seed into
``.bench_work/``; the package is run from the checkout's ``src`` with
``PYTHONPATH=src``, as the tests run it.  One client runs one job at a
time (closed loop); BLAS threading is left at the library default.

``--trace 0`` times the job list as sequential ``python -m effnum.cli``
subprocesses and through ``effnum.cli.main`` in this (warmed-up) process,
and prints the end-to-end metrics.  ``--trace 1`` repeats the in-process
pass with spans around each module's public calls and prints the
per-layer metrics.  Either way every output is checked against the
oracles, a report is written to ``.bench_work/results/`` and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
ROUNDS = 4                # rounds per run, started on an even schedule over --seconds
SETUP_PROBES = 3          # import-only children per round; setup_s is their median
TAIL_BEYOND = 10          # job_s.tail: highest percentile with this many job runs beyond it
DENSITY_COMMANDS = ("qnum", "entangle")

END_TO_END = {  # name -> (unit, better)
    "wall_s": ("s", "lower"),
    "job_s.p50": ("s", "lower"),
    "job_s.tail": ("s", "lower"),
    "inproc_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    units = {}
    for span in tracing.TARGETS:
        units[f"{span}.calls"] = ("count", "lower")
        units[f"{span}.self_s"] = ("s", "lower")
        units[f"{span}.errors"] = ("count", "lower")
    units.update({
        "io.load.in_mb": ("MB", "lower"),
        "io.load.mb_per_s": ("MB/s", "higher"),
        "io.render.out_mb": ("MB", "lower"),
        "io.render.mb_per_s": ("MB/s", "higher"),
        "density.decompositions_per_job": ("count", "lower"),
        "counting.effnum.elems": ("count", "lower"),
        "counting.effnum.ns_per_elem": ("ns", "lower"),
        "counting.validations_per_count": ("count", "lower"),
        "states.subspace_probs.blocks": ("count", "lower"),
        "continuum.effective_volume.cells": ("count", "lower"),
        "continuum.refine_sequence.cells": ("count", "lower"),
        "simulate.sample_outcomes.trials": ("count", "lower"),
        "simulate.plugin_mu_estimate.replicas": ("count", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
        "trace.coverage_frac": ("ratio", "higher"),
    })
    return units


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

class Spawner:
    """Client of ``spawner.py``, which runs the children (see its docstring)."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawner.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                                     text=True)

    def run(self, argv: list[str]) -> tuple[float, int, float, str, str]:
        """One child to completion: (seconds, exit code, max RSS in MB, stdout, stderr)."""
        out, err = WORK / "stdout.txt", WORK / "stderr.txt"
        request = {"argv": [sys.executable] + argv, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["s"], reply["code"], reply["rss_kb"] / 1024.0, out.read_text(), err.read_text()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def subprocess_job(spawner, job) -> dict:
    seconds, code, rss, out, err = spawner.run(["-m", "effnum.cli"] + job.args)
    return {"s": seconds, "rss_mb": rss, "why": oracles.verdict(job, code, out, err)}


def inproc_job(cli, job) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(job.args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a contract breach; record it as exit 1
            code = 1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return {"s": seconds, "why": oracles.verdict(job, code, out.getvalue(), err.getvalue())}


def inproc_pass(cli, jobs, recorder=None, tag: str = "") -> list[dict]:
    results = []
    for i, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = f"{tag}{i}"
        results.append(inproc_job(cli, job))
    return results


def warm_up(cli) -> None:
    """Pay one-time costs before timing: imports, parser construction, and
    the first LAPACK call (OpenBLAS starts its threads then)."""
    from effnum import counting, density

    cli.build_parser()
    density.quantum_effnum(density.DensityMatrix.maximally_mixed(256),
                           counting.CountingFunction.minimal())


def setup_probe(spawner) -> float:
    return spawner.run(["-c", "import effnum.cli"])[0]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tally(jobs, passes: list[list[dict]]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, failed outside the known defects, distinct reasons)."""
    attempted = failed = unexpected = 0
    reasons = set()
    for results in passes:
        for job, r in zip(jobs, results):
            attempted += 1
            if r["why"] is not None:
                failed += 1
                unexpected += job.defect is None
                tag = f"known defect: {job.defect}" if job.defect else "UNEXPECTED"
                reasons.add(f"{' '.join(job.args)} -> {r['why']} [{tag}]")
    return attempted, failed, unexpected, sorted(reasons)


def end_to_end(jobs, sub_passes, inproc_passes, setup, pick: str) -> tuple[dict, dict]:
    """Every statistic is over a sample count fixed by the workload, not by
    the speed of the code: ROUNDS subprocess runs and ROUNDS x repeats
    in-process runs of each job, and ROUNDS x SETUP_PROBES import probes.
    ``wall_s`` sums each job's median subprocess run; ``inproc_s`` sums each
    job's median or fastest in-process run, as ``pick`` says."""
    n = len(jobs)
    stat = min if pick == "fastest" else statistics.median
    sub = [statistics.median(p[i]["s"] for p in sub_passes) for i in range(n)]
    pooled = sorted(r["s"] for p in sub_passes for r in p)
    metrics = {
        "wall_s": sum(sub),
        "job_s.p50": statistics.median(sub),
        "job_s.tail": pooled[len(pooled) - 1 - TAIL_BEYOND],
        "inproc_s": sum(stat(p[i]["s"] for p in inproc_passes) for i in range(n)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["rss_mb"] for p in sub_passes for r in p),
    }
    notes = {
        "wall_s": f"sum over jobs of each job's median over {len(sub_passes)} subprocess runs",
        "job_s.p50": f"median over {n} jobs of each job's median subprocess time",
        "job_s.tail": f"p{100 * (1 - TAIL_BEYOND / len(pooled)):.1f} of {len(pooled)} job runs "
                      f"({n} jobs x {len(sub_passes)} rounds); {TAIL_BEYOND} runs beyond it",
        "inproc_s": f"sum over jobs of each job's {pick} of {len(inproc_passes)} "
                    "in-process runs",
        "setup_s": f"median of {len(setup)} 'import effnum.cli' children",
    }
    return metrics, notes


def per_layer(jobs, recorder, traced_passes: list[list[dict]], overhead: float) -> dict:
    """Span totals per traced pass, the counters, and the derived ratios."""
    n_traced = len(traced_passes)
    traced_total_s = sum(r["s"] for p in traced_passes for r in p)
    spans = recorder.summary()
    metrics = {}
    for name, entry in spans.items():
        metrics[f"{name}.calls"] = entry["calls"] / n_traced
        metrics[f"{name}.self_s"] = entry["self_s"] / n_traced
        metrics[f"{name}.errors"] = entry["errors"] / n_traced
    counts = {k: v / n_traced for k, v in recorder.counts.items()}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    in_mb = counts.get("io.load.in_bytes", 0.0) / 1e6
    out_mb = counts.get("io.render.out_bytes", 0.0) / 1e6
    elems = counts.get("counting.effnum.elems", 0.0)
    density_jobs = sum(j.command in DENSITY_COMMANDS for j in jobs)
    metrics.update({
        "io.load.in_mb": in_mb,
        "io.load.mb_per_s": ratio(in_mb, metrics["io.load.self_s"]),
        "io.render.out_mb": out_mb,
        "io.render.mb_per_s": ratio(out_mb, metrics["io.render.self_s"]),
        "density.decompositions_per_job": ratio(
            metrics["density.DensityMatrix.calls"] + metrics["density.hermitian_eigen.calls"],
            density_jobs),
        "counting.effnum.elems": elems,
        "counting.effnum.ns_per_elem": ratio(metrics["counting.effnum.self_s"] * 1e9, elems),
        "counting.validations_per_count": ratio(
            metrics["counting.ProbabilityVector.calls"] + metrics["counting.WeightVector.calls"],
            metrics["counting.effnum.calls"]),
        "trace.overhead_frac": overhead,
        "trace.coverage_frac": recorder.covered_s() / traced_total_s,
    })
    for key in ("states.subspace_probs.blocks", "continuum.effective_volume.cells",
                "continuum.refine_sequence.cells", "simulate.sample_outcomes.trials",
                "simulate.plugin_mu_estimate.replicas"):
        metrics[key] = counts.get(key, 0.0)
    return metrics


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threading": "library default (no thread variables set by the benchmark)",
        "load_model": "closed loop, one client, one job at a time",
    }


def provenance(name: str, seed: int, files: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(Path("src/effnum").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": src.hexdigest(), "workload": name, "seed": seed,
            "tune_seed": workloads.TUNE_SEED, "confirm_seed": workloads.CONFIRM_SEED,
            "generator": workloads.GENERATOR_ID, "inputs": files}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(jobs, seconds: float, repeats: int, pick: str) -> tuple[dict, dict, list, dict]:
    """ROUNDS rounds, each starting on an even schedule over ``seconds`` so
    that every job's runs span the whole run however fast the code is.  A
    round is SETUP_PROBES import probes, then each job once as a subprocess
    and ``repeats`` times in-process, one job after the other."""
    import effnum.cli as cli

    spawner = Spawner()
    try:
        warm_up(cli)
        setup, sub_passes, inproc_passes, round_s = [], [], [], []
        started = time.monotonic()
        for k in range(ROUNDS):
            time.sleep(max(0.0, started + k * seconds / ROUNDS - time.monotonic()))
            round_start = time.monotonic()
            setup += [setup_probe(spawner) for _ in range(SETUP_PROBES)]
            sub, inproc = [], [[] for _ in range(repeats)]
            for job in jobs:
                sub.append(subprocess_job(spawner, job))
                for results in inproc:
                    results.append(inproc_job(cli, job))
            sub_passes.append(sub)
            inproc_passes += inproc
            round_s.append(time.monotonic() - round_start)
        run_s = time.monotonic() - started
    finally:
        spawner.close()
    metrics, notes = end_to_end(jobs, sub_passes, inproc_passes, setup, pick)
    notes["run"] = (f"{run_s:.1f} s for {ROUNDS} rounds of "
                    f"{', '.join(f'{r:.1f}' for r in round_s)} s, one every {seconds / ROUNDS:.1f} s")
    per_job = [{"args": j.args, "subprocess_s": [p[i]["s"] for p in sub_passes],
                "inproc_s": [p[i]["s"] for p in inproc_passes]} for i, j in enumerate(jobs)]
    return metrics, notes, sub_passes + inproc_passes, {"jobs": per_job, "setup_s": setup}


def measure_traced(jobs, seconds: float, trace_path: Path) -> tuple[dict, dict, list, dict]:
    import effnum.cli as cli

    started = time.monotonic()
    warm_up(cli)
    recorder = tracing.Recorder()
    plain, traced = [], []
    while True:
        round_start = time.monotonic()
        if len(traced) % 2:  # alternate the order, so neither side always runs first
            plain.append(inproc_pass(cli, jobs))
        recorder.install()
        try:
            traced.append(inproc_pass(cli, jobs, recorder, tag=f"p{len(traced)}.j"))
        finally:
            recorder.uninstall()
        if len(plain) < len(traced):
            plain.append(inproc_pass(cli, jobs))
        now = time.monotonic()
        if now + (now - round_start) > started + seconds:
            break
    traced_s = statistics.median(sum(r["s"] for r in p) for p in traced)
    untraced_s = statistics.median(sum(r["s"] for r in p) for p in plain)
    metrics = per_layer(jobs, recorder, traced, traced_s / untraced_s - 1.0)
    largest = {}  # traced split of the job with the largest input, per density command
    for command in DENSITY_COMMANDS:
        sizes = [(Path(j.args[1]).stat().st_size, i) for i, j in enumerate(jobs)
                 if j.command == command and j.exit_code == 0]
        if sizes:
            i = max(sizes)[1]
            largest[" ".join(jobs[i].args)] = recorder.by_job(f"p0.j{i}")
    trace_path.write_text(json.dumps({
        "fields": ["name", "start_ns", "end_ns", "parent", "job", "error"],
        "jobs": [j.args for j in jobs], "spans": recorder.spans}))
    notes = {"passes": f"{len(traced)} traced and {len(plain)} untraced in-process pass(es); "
                       "per-layer values are per pass",
             "trace": str(trace_path)}
    return metrics, notes, plain + traced, {"largest_density_jobs_self_s": largest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.TUNE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "effnum" / "cli.py").is_file():
        print(f"error: no effnum sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    jobs, files = workloads.prepare(args.workload, args.seed, WORK / "inputs")
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, notes, passes, extra = measure_traced(jobs, args.seconds,
                                                       WORK / "results" / f"{stem}-spans.json")
        units = per_layer_units()
    else:
        metrics, notes, passes, extra = measure(jobs, args.seconds,
                                                *workloads.INPROC[args.workload])
        units = END_TO_END
    attempted, failed, unexpected, reasons = tally(jobs, passes)
    known = sum(j.defect is not None for j in jobs)
    notes["failed_frac"] = (f"{failed}/{attempted} = {failed / attempted:.4f}; "
                            f"{known} of {len(jobs)} jobs per pass are known defects")
    report = {"metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
              "notes": notes, "failures": reasons, "machine": machine_facts(),
              "provenance": provenance(args.workload, args.seed, files), **extra}
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(report, indent=1))

    print(f"effnum benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(jobs)} jobs per pass")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:.6g} {units[name][0]}")
    for key, text in notes.items():
        print(f"  note {key}: {text}")
    for reason in reasons:
        print(f"  failed: {reason}")
    print(f"  machine: {json.dumps(report['machine'])}")
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
