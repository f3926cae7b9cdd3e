"""Reference values computed without ``effnum``, and checks of CLI output.

Each reference function returns the quantities a job must report, keyed
by the names ``extract`` reads from the output in any of the three
formats.  References use independent routes where one exists: LAPACK
``eigvalsh`` for density spectra, singular values of the reshaped
amplitudes for Schmidt weights, vectorized block sums for subspace
probabilities, and closed forms for uniform-power families and constant
refinement problems.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

RTOL = 1e-9
NEGATIVE_EIGENVALUE_TOL = 1e-10


def kernel(cf: str):
    if cf == "star":
        return lambda w: np.minimum(w, 1.0)
    alpha = float(cf.split("=", 1)[1])
    return lambda w: np.minimum(np.power(w, alpha), 1.0)


def count(weights, cf: str) -> float:
    return math.fsum(kernel(cf)(np.asarray(weights, dtype=float)).tolist())


def _pair(weights, cf: str) -> tuple[float, float]:
    return count(weights, cf), count(weights, "star")


def spectral_tol(lam, n: int, cf: str, d: int | None = None) -> float:
    """Absolute tolerance on a count from a d x d Hermitian spectrum ``lam``
    at weight scale n.

    A backward-stable eigensolver moves each eigenvalue by up to about
    d * eps * max(lam); the kernel min{w^alpha, 1} is alpha-Hoelder, so d
    eigenvalues can move the count by up to d * (n * that)^alpha.  Null
    eigenvalues make this real for alpha < 1: LAPACK returns them as
    +-1e-17, and their square roots differ between solvers.
    """
    alpha = 1.0 if cf == "star" else float(cf.split("=", 1)[1])
    d = len(lam) if d is None else d
    delta = 4 * d * np.finfo(float).eps * float(np.max(lam))
    return 2.0 * d * (n * delta) ** alpha


def qnum(rho: np.ndarray, cf: str, log_base: str) -> dict:
    lam = np.linalg.eigvalsh(rho)
    lam = np.where((lam < 0) & (lam >= -NEGATIVE_EIGENVALUE_TOL), 0.0, lam)
    lam = lam / lam.sum()
    value, minimal = _pair(rho.shape[0] * lam, cf)
    div = 1.0 if log_base == "e" else math.log(float(log_base))
    return {"value": value, "min": minimal,
            "entropy": math.log(value) / div, "entropy_min": math.log(minimal) / div}


def entangle(amps: np.ndarray, a: int, b: int, cf: str) -> dict:
    s = np.linalg.svd(amps.reshape(a, b), compute_uv=False)
    lam = s**2 / np.sum(s**2)
    value, minimal = _pair(min(a, b) * lam, cf)
    return {"side_a": value, "side_b": value, "side_a_min": minimal, "side_b_min": minimal}


def block_probs(amps: np.ndarray, groups, basis=None) -> np.ndarray:
    coords = amps if basis is None else basis.conj().T @ amps
    groups = np.asarray(groups)
    return (np.abs(coords[groups]) ** 2).sum(axis=1)


def mu(amps, groups, cf: str, basis=None) -> dict:
    p = block_probs(amps, groups, basis)
    value, minimal = _pair(len(p) * p, cf)
    return {"value": value, "min": minimal}


def simulate(amps, groups, trial_counts, seed: int, cf: str) -> dict:
    """Re-derive the documented sampler: Philox keyed by the seed, inverse CDF."""
    groups = np.asarray(groups)
    sq = np.abs(amps) ** 2
    p = np.array([math.fsum(sq[g].tolist()) for g in groups])
    m = len(p)
    out = {"exact": count(m * p, cf)}
    cumulative = np.cumsum(p)
    cumulative[-1] = max(cumulative[-1], 1.0)
    for i, t in enumerate(trial_counts):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        hits = np.bincount(np.searchsorted(cumulative, rng.random(t), side="right"), minlength=m)
        out[f"estimate.{i}"] = count(m * (hits / t), cf)
    return out


def effvol(values, shape, cf: str) -> dict:
    cell = 1.0 / math.prod(shape)
    dens = np.abs(values) ** 2  # total volume is 1
    value, minimal = _pair(dens, cf)
    return {"value": value * cell, "min": minimal * cell, "total": 1.0}


def _fit(xs, ys) -> tuple[float, float]:
    """Least-squares line through (xs, ys): (intercept, slope)."""
    slope, intercept = np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)
    return float(intercept), float(slope)


def dfd_uniform(gamma: float, exponents) -> dict:
    """Uniform on ceil(n^(1-gamma)) of n states: every weight is >= 1, so
    the count equals the support size for every kernel."""
    ratios = []
    for j in exponents:
        n = 2**j
        ratios.append(min(n, math.ceil(n ** (1.0 - gamma))) / n)
    return _dfd_fit([2**j for j in exponents], ratios)


def dfd_explicit(members, cf: str) -> dict:
    return _dfd_fit([n for n, _ in members], [count(n * p, cf) / n for n, p in members])


def _dfd_fit(sizes, ratios) -> dict:
    window = max(3, math.ceil(len(sizes) / 2))
    xs = [math.log2(n) for n in sizes[-window:]]
    ys = [math.log2(r) for r in ratios[-window:]]
    out = {"gamma": -_fit(xs, ys)[1]}
    out.update({f"ratio.{i}": r for i, r in enumerate(ratios)})
    return out


def refine_constant(weights, levels: int, cf: str) -> dict:
    """Every level carries the same weights, so the fit is flat."""
    ratio = count(weights, cf) / len(weights)
    out = {"extrapolated": ratio}
    out.update({f"ratio.{k}": ratio for k in range(levels)})
    return out


def refine_gaussian(centre, sigma, base_cells, levels, cf: str) -> dict:
    rows = []
    for k in range(levels):
        m = base_cells * 2**k
        x = (np.arange(m) + 0.5) / m
        vals = np.exp(-((x - centre) ** 2) / (2.0 * sigma * sigma))
        rows.append((1.0 / m, count(m * vals / vals.sum(), cf) / m))
    window = max(3, math.ceil(levels / 2))
    out = {"extrapolated": _fit([h for h, _ in rows[-window:]], [r for _, r in rows[-window:]])[0]}
    out.update({f"ratio.{k}": r for k, (_, r) in enumerate(rows)})
    return out


# ---------------------------------------------------------------------------
# reading values back from the output
# ---------------------------------------------------------------------------

_SCALARS = {  # canonical name -> (json key, csv row label, table label)
    "mu": {"value": ("mu_uncertainty", "mu_uncertainty", "mu-uncertainty"),
           "min": ("mu_uncertainty_min", "mu_uncertainty_min", "minimal (star)")},
    "qnum": {"value": ("qnum", "qnum", "state components"),
             "min": ("qnum_min", "qnum_min", "minimal (star)"),
             "entropy": ("entropy", None, "entropy"),
             "entropy_min": ("entropy_min", None, "entropy (star)")},
    "entangle": {"side_a": ("side_a", "side_a", "entanglement (A kept)"),
                 "side_b": ("side_b", "side_b", "entanglement (B kept)"),
                 "side_a_min": ("side_a_min", "side_a_min", "minimal (A kept)"),
                 "side_b_min": ("side_b_min", "side_b_min", "minimal (B kept)")},
    "effvol": {"value": ("effective_volume", "effective_volume", "effective volume"),
               "min": ("effective_volume_min", "effective_volume_min", "minimal (star)"),
               "total": ("total_volume", "total_volume", "box volume")},
}
_NUM = r"([-+0-9.eE]+|nan|inf)"
_ROW_PATTERNS = {  # table line patterns for the commands that print one row per step
    "refine": (re.compile(rf"level \d+: .* F = {_NUM}"), "ratio"),
    "dfd": (re.compile(rf"n = \d+\s+F = {_NUM}"), "ratio"),
    "simulate": (re.compile(rf"T = \d+\s+estimate = {_NUM}"), "estimate"),
}


def _table_pairs(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines()[1:]:
        parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        if len(parts) == 2:
            pairs[parts[0]] = parts[1]
    return pairs


def extract(command: str, fmt: str, text: str) -> dict[str, float]:
    """Read the canonical quantities of a successful job from its output."""
    if fmt == "json":
        doc = json.loads(text)
    elif fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
    out: dict[str, float] = {}
    if command in _SCALARS:
        if fmt == "table":
            pairs = _table_pairs(text)
        elif fmt == "csv":
            labelled = {r[0]: r[-1] for r in rows}
        for name, (jkey, ckey, tkey) in _SCALARS[command].items():
            if fmt == "json":
                out[name] = float(doc[jkey])
            elif fmt == "csv" and ckey is not None:
                out[name] = float(labelled[ckey])
            elif fmt == "table":
                out[name] = float(pairs[tkey])
        return out
    if command == "check":
        if fmt == "json":
            out["files_ok"] = float(sum(f["valid"] for f in doc["files"]))
        elif fmt == "csv":
            out["files_ok"] = float(sum(r[1] == "true" for r in rows if r[0].endswith(".json")))
        else:
            out["files_ok"] = float(sum(": ok (" in line for line in text.splitlines()))
        return out
    pattern, prefix = _ROW_PATTERNS[command]
    if fmt == "table":
        steps = [float(m.group(1)) for m in map(pattern.search, text.splitlines()) if m]
    elif fmt == "json":
        key, field = {"refine": ("levels", "ratio"), "dfd": ("steps", "ratio"),
                      "simulate": ("runs", "estimate")}[command]
        steps = [float(s[field]) for s in doc[key]]
    else:
        col = {"refine": 3, "dfd": 1, "simulate": 1}[command]
        steps = [float(r[col]) for r in rows if r[0].isdigit()]
    out.update({f"{prefix}.{i}": v for i, v in enumerate(steps)})
    if command == "refine":
        out["extrapolated"] = float(
            doc["extrapolated"] if fmt == "json"
            else next(r[3] for r in rows if r[0] == "extrapolated") if fmt == "csv"
            else re.search(rf"extrapolated F = {_NUM}", text).group(1))
    elif command == "dfd":
        out["gamma"] = float(
            doc["gamma"] if fmt == "json"
            else next(r[1] for r in rows if r[0] == "gamma") if fmt == "csv"
            else re.search(rf"gamma = {_NUM}", text).group(1))
    elif command == "simulate":
        out["exact"] = float(
            doc["exact"] if fmt == "json" else rows[0][3] if fmt == "csv"
            else re.search(rf"exact = {_NUM}", text).group(1))
    return out


def verdict(job, code: int, stdout: str, stderr: str) -> str | None:
    """None if the job met its contract, else a one-line reason."""
    if code != job.exit_code:
        return f"exit {code}, expected {job.exit_code}"
    if code != 0:
        if not stderr.startswith("error:") or "Traceback" in stderr:
            return "error exit without a one-line 'error:' message"
        return None
    try:
        got = extract(job.command, job.fmt, stdout)
    except (KeyError, ValueError, IndexError, StopIteration, AttributeError) as exc:
        return f"unreadable {job.fmt} output: {exc!r}"
    for name, want in job.expect.items():
        if name not in got:
            if job.fmt == "csv" and name.startswith("entropy"):
                continue  # qnum's csv carries no entropy rows
            return f"{name} missing from {job.fmt} output"
        if not math.isclose(got[name], want, rel_tol=RTOL, abs_tol=max(1e-12, job.tol)):
            return f"{name} = {got[name]!r}, reference {want!r}"
    return None
