"""Command-line frontend: each ``_cmd_*`` handler fills one ``io.Result``.
``main`` parses the kernel selector, and each handler its own arguments,
before any input file is read.

Exit codes: 0 success, 2 input validation failure, 3 domain invariant
violation, 4 numerical non-convergence.  Indices are 0-based in files and
in json/csv output, 1-based in the human-readable tables.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy has loaded, or
    None: another BLAS, or no /proc/self/maps to find it in."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy 2's scipy-openblas, numpy 1's openblas64_, a system OpenBLAS
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get and put:
                return get, put
    return None


# One BLAS thread unless the user sets OPENBLAS_NUM_THREADS: a command makes
# at most one eigenvalue-only solve, which a second thread does not speed up
# at the sizes it takes, while starting the thread pool slows every command's
# `import numpy`.  OpenBLAS reads the variable once, when numpy loads, so it is
# set before any command imports numpy; in a process that loaded numpy first,
# main sets the count itself for each command (_BlasThreads).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_OPENBLAS = _openblas_threads() if "numpy" in sys.modules else None

from . import continuum, counting, density, entropy, io, simulate, states
from .errors import ConvergenceError, InvalidInput, InvariantViolation


def _parse_counting_selector(text: str) -> counting.CountingFunction:
    """Parse the kernel selector ``--cf``: ``star`` or ``alpha=<x>``."""
    text = text.strip()
    if text == "star":
        return counting.CountingFunction.minimal()
    if text.startswith("alpha="):
        try:
            alpha = float(text[len("alpha="):])
        except ValueError as exc:
            raise InvalidInput(f"cannot parse exponent in selector {text!r}") from exc
        return counting.CountingFunction.canonical(alpha)
    raise InvalidInput(f'counting-function selector must be "star" or "alpha=<x>", got {text!r}')


def _parse_log_base(text: str) -> tuple[str, float]:
    """Entropies are natural-log internally; this is display-only."""
    text = text.strip()
    if text == "e":
        return "e", 1.0
    try:
        base = float(text)
    except ValueError as exc:
        raise InvalidInput(f'--log-base must be "e" or a number > 1, got {text!r}') from exc
    if not 1.0 < base < math.inf:
        raise InvalidInput(f"--log-base must be a finite number > 1, got {text!r}")
    return text, math.log(base)


def _parse_dims(text: str) -> density.BipartiteStructure:
    match = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not match:
        raise InvalidInput(f'--dims must look like "2x3", got {text!r}')
    return density.BipartiteStructure(int(match.group(1)), int(match.group(2)))


def _cmd_mu(args, c: counting.CountingFunction) -> io.Result:
    psi = io.load_state(args.state)
    dec, basis = io.load_decomposition(args.decomposition, psi.dim)
    probs = states.subspace_probs(psi, dec, basis)
    weights = counting.weights_from_probs(probs)
    out = io.Result("mu", "measurement uncertainty (blocks 1-based)", ["block", "probability"])
    out.put("n", psi.dim, "dimension N")
    out.put("m", dec.m_count, "blocks M")
    out.put("counting_function", c.label, "kernel")
    out.put("block_probs", probs.p, "p", csv=True)
    out.put("mu_uncertainty", counting.effnum(weights, c), "mu-uncertainty", csv=True)
    out.put("mu_uncertainty_min", counting.effnum(weights, counting.CountingFunction.minimal()),
            "minimal (star)", csv=True)
    return out


def _cmd_qnum(args, c: counting.CountingFunction) -> io.Result:
    base_label, divisor = _parse_log_base(args.log_base)
    rho = io.load_density(args.density)
    out = io.Result("qnum", "density-matrix state content (ranks 1-based)",
                    ["eigenvalue_rank", "eigenvalue"])
    out.put("n", rho.dim, "dimension N")
    out.put("counting_function", c.label, "kernel")
    out.payload["log_base"] = base_label
    out.put("spectrum", rho.spectrum, "rho", csv=True)
    weights = density.spectral_weights(rho)
    value = counting.effnum(weights, c)
    minimal = counting.effnum(weights, counting.CountingFunction.minimal())
    out.put("qnum", value, "state components", csv=True)
    out.put("qnum_min", minimal, "minimal (star)", csv=True)
    out.put("entropy", math.log(value) / divisor, "entropy")
    out.put("entropy_min", math.log(minimal) / divisor, "entropy (star)")
    return out


def _cmd_entangle(args, c: counting.CountingFunction) -> io.Result:
    bp = _parse_dims(args.dims)
    psi = io.load_state(args.state)
    # Both reductions share the Schmidt weights, so both sides read one
    # count per kernel and agree exactly; one SVD serves the whole command.
    weights = density.entanglement_weights(psi, bp)
    value = counting.effnum(weights, c)
    minimal = counting.effnum(weights, counting.CountingFunction.minimal())
    out = io.Result("entangle", "bipartite state sharing", ["quantity", "value"])
    out.payload["dims"] = [bp.dim_a, bp.dim_b]
    out.add(("partition", f"{bp.dim_a} x {bp.dim_b}"))
    out.put("counting_function", c.label, "kernel")
    out.put("side_a", value, "entanglement (A kept)", csv=True)
    out.put("side_b", value, "entanglement (B kept)", csv=True)
    out.put("agreement", 0.0, csv=True)
    out.add(("side agreement", f"{0.0:.3e}"))
    out.put("side_a_min", minimal, "minimal (A kept)", csv=True)
    out.put("side_b_min", minimal, "minimal (B kept)", csv=True)
    out.put("agreement_min", 0.0, csv=True)
    return out


def _cmd_effvol(args, c: counting.CountingFunction) -> io.Result:
    psi = io.load_grid_wavefunction(args.wavefunction)
    value = continuum.effective_volume(psi, c)
    minimal = continuum.effective_volume(psi, counting.CountingFunction.minimal())
    total = psi.grid.total_volume
    out = io.Result("effvol", "effective volume", ["quantity", "value"])
    out.put("d", psi.grid.d, "dimension D")
    out.put("cells", psi.grid.ncells, "cells")
    out.put("total_volume", total, csv=True)
    out.put("counting_function", c.label, "kernel")
    out.add(("box volume", total))
    out.put("effective_volume", value, "effective volume", csv=True)
    out.put("effective_volume_min", minimal, "minimal (star)", csv=True)
    out.put("fraction", value / total, "occupied fraction", csv=True)
    return out


def _cmd_refine(args, c: counting.CountingFunction) -> io.Result:
    problem, description = io.load_refine_problem(args.problem)
    # levels are built here, after the reader returns; their errors name the file too
    fit = io._named(args.problem, continuum.refine_sequence, problem, args.levels, c)
    out = io.Result("refine", f"refinement of {description} ({c.label})",
                    ["level", "m_count", "spacing", "ratio"])
    out.payload.update(problem=description, counting_function=c.label,
                       levels=[r._asdict() for r in fit.rows], extrapolated=fit.extrapolated,
                       residual=fit.residual, fit_order=fit.fit_order, fit_window=fit.window)
    for r in fit.rows:
        out.add(f"level {r.level}: M = {r.m_count:<8d} h = {r.spacing:<12.6g} F = {r.ratio:.12g}",
                list(r))
    out.add(f"extrapolated F = {fit.extrapolated:.12g} (order {fit.fit_order}, "
            f"window {fit.window}, residual {fit.residual:.3e})",
            ["extrapolated", "", "", fit.extrapolated])
    return out


def _cmd_simulate(args, c: counting.CountingFunction) -> io.Result:
    try:
        trial_counts = [int(t) for t in str(args.trials).split(",") if t]
    except ValueError as exc:
        raise InvalidInput(f"--trials must list integers, got {args.trials!r}") from exc
    if not trial_counts:
        raise InvalidInput("--trials must name at least one trial count")
    psi = io.load_state(args.state)
    dec, basis = io.load_decomposition(args.decomposition, psi.dim)
    probs = states.subspace_probs(psi, dec, basis)
    exact = counting.effnum(counting.weights_from_probs(probs), c)
    title = f"measurement simulation (seed {args.seed}, {simulate.GENERATOR_ID})"
    out = io.Result("simulate", title, ["trials", "estimate", "stderr", "exact", "abs_error"])
    out.payload.update(m=dec.m_count, seed=args.seed, generator=simulate.GENERATOR_ID,
                       counting_function=c.label, exact=exact, runs=[])
    for i, t in enumerate(trial_counts):
        est = simulate.plugin_mu_estimate(simulate.sample_outcomes(probs, t, args.seed, i), c)
        run = {"trials": t, "estimate": est.estimate, "stderr": est.stderr,
               "exact": exact, "abs_error": abs(est.estimate - exact)}
        out.payload["runs"].append(run)
        out.add(f"T = {t:<9d} estimate = {est.estimate:.12g} "
                f"+/- {est.stderr:.3e}   exact = {exact:.12g}", list(run.values()))
    return out


def _cmd_dfd(args, c: counting.CountingFunction) -> io.Result:
    family = io.load_dfd_family(args.family)
    fit = entropy.dfd_gamma_scan(family, c)
    out = io.Result("dfd", f"degree-of-freedom density scan ({c.label})", ["n", "ratio", "k_eq"])
    out.payload.update(counting_function=c.label, steps=[s._asdict() for s in fit.steps],
                       gamma=fit.gamma, residual=fit.residual, fit_window=fit.window)
    for s in fit.steps:
        out.add(f"n = {s.n:<9d} F = {s.ratio:<22.12g} k_eq = {s.k_eq:.12g}", list(s))
    out.add(f"gamma = {fit.gamma:.12g} (window {fit.window}, residual {fit.residual:.3e})",
            ["gamma", fit.gamma, ""])
    return out


def _cmd_check(args, c: counting.CountingFunction) -> io.Result:
    report = counting.validate_counting_function(c)
    out = io.Result("check", f"kernel {c.label}:", ["target", "passed", "detail"])
    out.payload.update(counting_function=c.label,
                       kernel_checks=[k._asdict() for k in report.checks],
                       kernel_passed=report.passed, files=[])
    out.add(report.summary().replace("\n", "\n  "))
    for k in report.checks:
        out.add(csv=list(k))
    for path in args.files:
        try:
            valid, detail = True, io.check_file(path)
        except (InvalidInput, InvariantViolation) as exc:  # quoted without the row's path
            valid, detail = False, str(exc).removeprefix(f"{path}:").lstrip()
        out.payload["files"].append({"path": path, "valid": valid, "detail": detail})
        out.add(f"{path}: {'ok' if valid else 'INVALID'} ({detail})", [path, valid, detail])
    if not report.passed or not all(f["valid"] for f in out.payload["files"]):
        raise InvalidInput(out.render("table")[:-1])
    return out


def _emit(chunks, out: str | None) -> None:
    """Write the output's chunks in turn to stdout, flushed, or to ``out``
    through ``out.tmp``, renamed once it is whole."""
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe or a full disk
            raise InvalidInput(f"cannot write standard output: {exc.strerror or exc}") from exc
        return
    tmp, opened = out + ".tmp", False
    try:
        with open(tmp, "w") as handle:
            opened = True
            handle.writelines(chunks)
        os.replace(tmp, out)
    except OSError as exc:
        if opened:  # a <out>.tmp this call could not open is not its to remove
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise InvalidInput(f"cannot write {out}: {exc.strerror or exc}") from exc


_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call (not at import) and
    shared by every later one: :func:`main` pays for the command, not for
    argparse.

    Sharing is safe because ``parse_args`` keeps nothing between calls: each
    call returns a new Namespace, and ``check``'s ``nargs="*"`` list is new
    too.  Callers get the shared parser and must not mutate it.
    """
    global _parser
    if _parser is None:
        _parser = _new_parser()
    return _parser


def _arg(*names, **options):
    return names, options


_COMMON = (
    _arg("--cf", default="star", help='counting kernel: "star" or "alpha=<x>" (default star)'),
    _arg("--format", choices=("table", "csv", "json"), default="table"),
    _arg("--out", default=None, help="write output to this path"),
)

# One row per subcommand: name, handler, help and its own arguments, which come before _COMMON.
_COMMANDS = (
    ("mu", _cmd_mu, "measurement uncertainty of a state", (_arg("state"), _arg("decomposition"))),
    ("qnum", _cmd_qnum, "state content of a density matrix", (
        _arg("density"),
        _arg("--log-base", default="e", dest="log_base",
             help='entropy display base: "e" (default), 2, or any base > 1'))),
    ("entangle", _cmd_entangle, "bipartite state sharing of a pure state", (
        _arg("state"), _arg("--dims", required=True, help="factor dimensions, e.g. 2x3"))),
    ("effvol", _cmd_effvol, "effective volume of a grid wave function", (_arg("wavefunction"),)),
    ("refine", _cmd_refine, "refinement scan with extrapolation",
     (_arg("problem"), _arg("--levels", type=int, default=5))),
    ("simulate", _cmd_simulate, "Monte Carlo measurement simulation", (
        _arg("state"), _arg("decomposition"),
        _arg("--trials", default="100000",
             help="trial count, or comma-separated list for a convergence table"),
        _arg("--seed", type=int, default=0))),
    ("dfd", _cmd_dfd, "degree-of-freedom density scan of a family", (_arg("family"),)),
    ("check", _cmd_check, "validate a kernel and input files", (_arg("files", nargs="*"),)),
)


def _new_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="effnum", description=(
        "Effective-number analysis of states, densities and distributions."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for names, options in arguments + _COMMON:
            p.add_argument(*names, **options)
        p.set_defaults(handler=handler)
    return parser


_EXIT_CODES = {InvalidInput: 2, InvariantViolation: 3, ConvergenceError: 4}


class _BlasThreads:
    """Holds an OpenBLAS that numpy loaded before this module at the count
    OPENBLAS_NUM_THREADS names while a command runs, and restores its own
    count after: in such a process, one that calls main itself, numpy's
    default count would otherwise serve every command."""

    def __enter__(self):
        want = os.environ.get("OPENBLAS_NUM_THREADS", "")
        self.before = None
        if _OPENBLAS is not None and want.isdigit() and int(want) >= 1:
            get, put = _OPENBLAS
            self.before = get()
            put(int(want))

    def __exit__(self, *exc_info):
        if self.before is not None:
            _OPENBLAS[1](self.before)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    import numpy as np  # after parsing: --help and usage errors load no numpy

    try:
        c = _parse_counting_selector(args.cf)  # before the handler reads any file
        # overflows give inf or NaN, which the checks reject without a warning
        with _BlasThreads(), np.errstate(all="ignore"):
            _emit(args.handler(args, c).chunks(args.format), args.out)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return 0


def run() -> None:
    """The process entry of ``effnum`` and ``python -m effnum.cli``: runs
    :func:`main`, flushes the output and ends the process with ``os._exit``.

    That skips the interpreter's teardown (a last collection over numpy's
    and effnum's objects, module cleanup, freeing every object), which
    comes after the output is written and costs a short command a tenth of
    its time; ``atexit`` handlers do not run.  argparse's ``SystemExit`` and an
    uncaught exception leave through the normal exit.
    """
    code = main()
    with contextlib.suppress(OSError):  # a stdout that failed was reported by main
        sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
