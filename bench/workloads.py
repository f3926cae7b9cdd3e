"""Seeded inputs and job lists for the three benchmark workloads.

Every input file is built from the workload seed with numpy's PCG64, so
the same seed gives byte-identical files (same machine and numpy build;
the densities go through LAPACK's QR).  Each job carries the exit code the
CLI contract asks for and, for successful jobs, reference values that the
oracles in ``oracles.py`` computed from the generated arrays without
calling ``effnum``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import oracles

GENERATOR_ID = "effnum-bench-inputs/1"
WORKLOADS = ("spectral", "long-vector", "many-small")
# Seed to tune on, and a second seed on which a later change confirms its claim.
TUNE_SEED = 1
CONFIRM_SEED = 1729
# In-process runs of each job per round, and which of a job's runs counts
# towards inproc_s.  many-small's jobs take milliseconds and run 20 times a
# run; the fastest is the least disturbed, as with timeit.  The others run
# 4 times, and of so few runs the median is steadier than an extreme.
INPROC = {"spectral": (1, "median"), "long-vector": (1, "median"), "many-small": (5, "fastest")}

FORMATS = ("table", "csv", "json")
KERNELS = ("star", "alpha=0.5")


@dataclass
class Job:
    """One ``effnum`` invocation with its expected outcome."""

    args: list[str]
    exit_code: int = 0
    expect: dict[str, float] = field(default_factory=dict)
    tol: float = 0.0            # absolute tolerance on top of oracles.RTOL
    defect: str | None = None   # known contract breach (ROADMAP item 3)

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def fmt(self) -> str:
        return self.args[self.args.index("--format") + 1]


def _cpairs(values) -> str:
    """JSON text of a complex vector or matrix as [re, im] pairs (exact repr)."""
    arr = np.asarray(values, dtype=complex)
    cells = [f"[{re!r}, {im!r}]" for re, im in
             np.stack([arr.real, arr.imag], axis=-1).reshape(-1, 2).tolist()]
    if arr.ndim == 1:
        return "[" + ", ".join(cells) + "]"
    n = arr.shape[1]
    return "[" + ", ".join("[" + ", ".join(cells[i:i + n]) + "]"
                           for i in range(0, len(cells), n)) + "]"


def _haar_state(rng, n: int) -> np.ndarray:
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return amps / math.sqrt(math.fsum((np.abs(amps) ** 2).tolist()))


def _haar_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _spectrum(rng, n: int, shape: str) -> np.ndarray:
    if shape == "full":
        lam = rng.exponential(size=n)
    elif shape == "low-rank":
        lam = np.zeros(n)
        lam[: max(1, n // 8)] = rng.exponential(size=max(1, n // 8))
    elif shape == "near-degenerate":
        lam = 1.0 + 1e-9 * rng.standard_normal(n)
    else:
        raise ValueError(shape)
    return lam / math.fsum(lam.tolist())


def _density(rng, n: int, shape: str) -> np.ndarray:
    u = _haar_unitary(rng, n)
    rho = (u * _spectrum(rng, n, shape)) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _dirichlet(rng, n: int) -> np.ndarray:
    g = rng.exponential(size=n)
    return g / math.fsum(g.tolist())


class Builder:
    """Writes one workload's files and collects its job list."""

    def __init__(self, name: str, seed: int, directory: Path):
        self.dir = directory
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.jobs: list[Job] = []
        self.files: dict[str, dict] = {}

    def write(self, stem: str, doc=None, text: str | None = None) -> str:
        data = (json.dumps(doc) if text is None else text).encode()
        path = self.dir / f"{stem}.json"
        path.write_bytes(data)
        self.files[path.name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        return str(path)

    def job(self, args: list[str], expect=None, exit_code: int = 0, defect: str | None = None,
            cf: str | None = None, tol=None) -> None:
        """Append a job; ``expect(cf)`` and ``tol(cf)`` give its reference values.

        Formats and kernels cycle in a fixed order over the job list, so
        every form of output and both kernels are exercised.
        """
        i = len(self.jobs)
        cf = KERNELS[i % len(KERNELS)] if cf is None else cf
        args = list(args) + ["--format", FORMATS[i % len(FORMATS)], "--cf", cf]
        values = expect(cf) if expect is not None else {}
        self.jobs.append(Job(args, exit_code, values, tol(cf) if tol else 0.0, defect))

    # -- reusable input writers ---------------------------------------------
    def state(self, stem: str, amps) -> str:
        return self.write(stem, text=f'{{"dim": {len(amps)}, "amps": {_cpairs(amps)}}}')

    def decomposition(self, stem: str, groups, eigtuples=None, basis=None) -> str:
        basis_text = '"identity"' if basis is None else f'{{"rows": {_cpairs(basis)}}}'
        text = f'{{"basis": {basis_text}, "groups": {json.dumps(np.asarray(groups).tolist())}'
        if eigtuples is not None:
            text += f', "eigtuples": {json.dumps(eigtuples)}'
        return self.write(stem, text=text + "}")

    def density(self, stem: str, rho) -> str:
        return self.write(stem, text=f'{{"dim": {rho.shape[0]}, "rows": {_cpairs(rho)}}}')

    def grid(self, stem: str, shape, values) -> str:
        head = json.dumps({"d": len(shape), "shape": list(shape),
                           "spacing": [1.0 / s for s in shape]})
        return self.write(stem, text=f'{head[:-1]}, "values": {_cpairs(values)}}}')

    def grid_values(self, shape) -> np.ndarray:
        """A normalized Gaussian blob with a random centre, width and phase ramp."""
        axes = [(np.arange(s) + 0.5) / s for s in shape]
        mesh = np.meshgrid(*axes, indexing="ij")
        centre = self.rng.uniform(0.35, 0.65, len(shape))
        width = self.rng.uniform(0.08, 0.2)
        r2 = sum((m - c) ** 2 for m, c in zip(mesh, centre))
        k = self.rng.uniform(-3.0, 3.0, len(shape))
        vals = np.exp(-r2 / (4 * width * width)) * np.exp(1j * sum(kk * m for kk, m in zip(k, mesh)))
        vals = vals.ravel()
        cell = 1.0 / math.prod(shape)
        return vals / math.sqrt(math.fsum((np.abs(vals) ** 2).tolist()) * cell)

    # -- composite jobs -----------------------------------------------------
    def qnum(self, stem: str, n: int, shape: str, log_base: str | None = None) -> None:
        rho = _density(self.rng, n, shape)
        path = self.density(stem, rho)
        args = ["qnum", path] + ([] if log_base is None else ["--log-base", log_base])
        lam = np.linalg.eigvalsh(rho)
        self.job(args, lambda cf: oracles.qnum(rho, cf, log_base or "e"),
                 tol=lambda cf: oracles.spectral_tol(lam, n, cf))

    def entangle(self, stem: str, a: int, b: int) -> None:
        amps = _haar_state(self.rng, a * b)
        path = self.state(stem, amps)
        schmidt = np.linalg.svd(amps.reshape(a, b), compute_uv=False) ** 2
        self.job(["entangle", path, "--dims", f"{a}x{b}"],
                 lambda cf: oracles.entangle(amps, a, b, cf),
                 tol=lambda cf: oracles.spectral_tol(schmidt, min(a, b), cf, max(a, b)))

    def mu(self, stem: str, n: int, block: int, basis: bool = False) -> None:
        amps = _haar_state(self.rng, n)
        groups = self.rng.permutation(n).reshape(-1, block)
        u = _haar_unitary(self.rng, n) if basis else None
        spath = self.state(f"{stem}_state", amps)
        dpath = self.decomposition(f"{stem}_dec", groups, basis=u)
        self.job(["mu", spath, dpath], lambda cf: oracles.mu(amps, groups, cf, basis=u))

    def simulate(self, stem: str, m: int, block: int, trials: str | None) -> None:
        amps = _haar_state(self.rng, m * block)
        groups = self.rng.permutation(m * block).reshape(m, block)
        labels = [[float(i)] for i in range(m)]
        seed = int(self.rng.integers(0, 2**31))
        spath = self.state(f"{stem}_state", amps)
        dpath = self.decomposition(f"{stem}_dec", groups, eigtuples=labels)
        counts = [100_000] if trials is None else [int(t) for t in trials.split(",")]
        args = ["simulate", spath, dpath, "--seed", str(seed)]
        args += [] if trials is None else ["--trials", trials]
        self.job(args, lambda cf: oracles.simulate(amps, groups, counts, seed, cf))

    def effvol(self, stem: str, shape) -> None:
        vals = self.grid_values(shape)
        path = self.grid(stem, shape, vals)
        self.job(["effvol", path], lambda cf: oracles.effvol(vals, shape, cf))

    def dfd_uniform(self, stem: str, exponents) -> None:
        gamma = float(self.rng.choice([0.25, 0.375, 0.5, 0.625, 0.75]))
        path = self.write(stem, {"kind": "uniform-power", "gamma": gamma,
                                 "exponents": list(exponents)})
        self.job(["dfd", path], lambda cf: oracles.dfd_uniform(gamma, exponents))

    def dfd_explicit(self, stem: str, sizes) -> None:
        members = [(n, _dirichlet(self.rng, n)) for n in sizes]
        path = self.write(stem, {"kind": "explicit",
                                 "members": [{"n": n, "p": p.tolist()} for n, p in members]})
        self.job(["dfd", path], lambda cf: oracles.dfd_explicit(members, cf))

    def refine_constant(self, stem: str, m: int, levels: int) -> None:
        weights = m * _dirichlet(self.rng, m)
        path = self.write(stem, {"kind": "constant", "weights": weights.tolist()})
        self.job(["refine", path, "--levels", str(levels)],
                 lambda cf: oracles.refine_constant(weights, levels, cf))

    def refine_gaussian(self, stem: str, base_cells: int, levels: int) -> None:
        centre = float(self.rng.uniform(0.3, 0.7))
        sigma = float(self.rng.uniform(0.05, 0.15))
        path = self.write(stem, {"kind": "gaussian-1d", "box": [0.0, 1.0], "center": centre,
                                 "sigma": sigma, "base_cells": base_cells})
        self.job(["refine", path, "--levels", str(levels)],
                 lambda cf: oracles.refine_gaussian(centre, sigma, base_cells, levels, cf))


def _spectral(b: Builder) -> None:
    for n, shape in ((128, "full"), (128, "low-rank"), (128, "near-degenerate"),
                     (256, "full"), (512, "full")):
        b.qnum(f"rho{n}_{shape}", n, shape, "2" if len(b.jobs) % 3 == 1 else None)
    for a, bb in ((16, 16), (8, 32)):
        b.entangle(f"psi{a}x{bb}", a, bb)


def _long_vector(b: Builder) -> None:
    b.mu("mu32768_single", 2**15, 1)
    b.mu("mu65536_pairs", 2**16, 2)
    b.dfd_uniform("family_uniform", list(range(10, 21)))
    b.dfd_explicit("family_dirichlet", [2**j for j in range(8, 16)])
    b.refine_gaussian("problem_gaussian", 2, 18)
    b.refine_constant("problem_constant", 1024, 18)
    b.effvol("grid32", (32, 32, 32))
    b.simulate("sim4096", 4096, 2, "1000000")


def _many_small(b: Builder) -> None:
    # successful jobs on fixture-sized inputs, every subcommand
    b.mu("mu4", 4, 1)
    b.mu("mu8_basis", 8, 2, basis=True)
    b.qnum("rho16", 16, "low-rank", "2")
    b.entangle("psi2x8", 2, 8)
    b.effvol("grid4x4x4", (4, 4, 4))
    b.refine_constant("problem_constant", 4, 5)
    b.dfd_uniform("family_uniform", list(range(2, 9)))
    b.simulate("sim4", 4, 1, None)
    checked = [b.jobs[i].args[1] for i in range(3)]
    b.job(["check"] + checked, lambda cf: {"files_ok": float(len(checked))})

    # error paths that hold the exit-code contract (2: invalid input, 3: invariant violated)
    bad_norm = b.state("state_bad_norm", np.array([1.0, 0.5]))
    not_psd = b.density("density_not_psd", np.diag([1.5, -0.5]))
    dec4 = b.jobs[0].args[2]
    b.job(["mu", bad_norm, dec4], exit_code=2)
    b.job(["qnum", not_psd], exit_code=3)

    # inputs that end in a traceback or are wrongly accepted (ROADMAP item 3)
    sim = next(j for j in b.jobs if j.command == "simulate")
    listdoc = b.write("check_list", [1, 2, 3])
    nogroups = b.write("check_no_groups", {"groups": []})
    dim_x = b.write("state_dim_x", {"dim": "x", "amps": [[1.0, 0.0]]})
    dim_frac = b.write("state_dim_frac", {"dim": 1.7, "amps": [[1.0, 0.0]]})
    dec1 = b.decomposition("dec1", [[0]])
    n1 = b.write("family_n1", {"kind": "explicit", "members": [
        {"n": 1, "p": [1.0]}, {"n": 2, "p": [0.5, 0.5]}, {"n": 4, "p": [0.25] * 4}]})
    b.job(["simulate", sim.args[1], sim.args[2], "--seed", "-1"], exit_code=2,
          defect="simulate --seed -1: OverflowError")
    b.job(["simulate", sim.args[1], sim.args[2], "--trials", "abc"], exit_code=2,
          defect="simulate --trials abc: ValueError")
    b.job(["check", listdoc], exit_code=2, defect="check on a JSON list: AttributeError")
    b.job(["check", nogroups], exit_code=2, defect='check on {"groups": []}: ValueError')
    b.job(["mu", dim_x, dec4], exit_code=2, defect='state with "dim": "x": ValueError')
    b.job(["dfd", n1], exit_code=2, defect="dfd member with n = 1: ZeroDivisionError")
    b.job(["mu", dim_frac, dec1], exit_code=2, defect='state with "dim": 1.7 is accepted')


BUILDERS = {"spectral": _spectral, "long-vector": _long_vector, "many-small": _many_small}


def prepare(name: str, seed: int, directory: Path) -> tuple[list[Job], dict]:
    """Write one workload's inputs into ``directory`` (emptied first).

    Returns the job list and the file manifest {name: {bytes, sha256}}.
    """
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    b = Builder(name, seed, directory)
    BUILDERS[name](b)
    manifest = {"generator": GENERATOR_ID, "workload": name, "seed": seed,
                "files": b.files, "jobs": [asdict(j) for j in b.jobs]}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return b.jobs, b.files
