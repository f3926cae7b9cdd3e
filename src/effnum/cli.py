"""Command-line frontend.

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
from dataclasses import asdict, astuple

from . import continuum, density, entropy, simulate, states
from .counting import CountingFunction, effnum, validate_counting_function, weights_from_probs
from .errors import ConvergenceError, InvalidInput, InvariantViolation
from .io import (
    Column,
    check_file,
    csv_text,
    json_text,
    load_decomposition,
    load_density,
    load_dfd_family,
    load_grid_wavefunction,
    load_refine_problem,
    load_state,
    parse_counting_selector,
    table_text,
)


class Result:
    """One command's output, filled once: the JSON payload plus rows that
    :meth:`render` turns into the table or the csv text.

    A row is (table part, csv cells).  The table part is a (label, value)
    pair, aligned with the other pairs, a preformatted line, or None; the
    csv cells are None for a row shown only in the table.  A Column is
    both parts at once.
    """

    def __init__(self, command: str, title: str, header: list[str]):
        self.payload = {"command": command}
        self.title, self.header, self.rows = title, header, []

    def add(self, table, csv: list | None = None) -> None:
        self.rows.append((table, csv))

    def put(self, key: str, value, label: str | None = None, csv: bool = False) -> None:
        """Set a payload entry, shown in the table under ``label`` and as
        the csv row [key, value] if ``csv``."""
        self.payload[key] = value
        self.add((label, value) if label else None, [key, value] if csv else None)

    def column(self, key: str, label: str, values) -> None:
        """Set the payload entry ``key`` to a 1-d float array, shown as one
        table pair ``label[i]`` (1-based) and one csv row [i, value]
        (0-based) per entry."""
        self.payload[key] = values
        column = Column(label, values)
        self.add(column, column)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json_text(self.payload) + "\n"
        if fmt == "csv":
            return csv_text(self.header, [cells for _, cells in self.rows if cells is not None])
        return table_text(self.title, [table for table, _ in self.rows])


def _cmd_mu(args) -> Result:
    psi = load_state(args.state)
    dec, basis = load_decomposition(args.decomposition, psi.dim)
    c = parse_counting_selector(args.cf)
    probs = states.subspace_probs(psi, dec, basis)
    weights = weights_from_probs(probs)
    out = Result("mu", "measurement uncertainty (blocks 1-based)", ["block", "probability"])
    out.put("n", psi.dim, "dimension N")
    out.put("m", dec.m_count, "blocks M")
    out.put("counting_function", c.label, "kernel")
    out.column("block_probs", "p", probs.p)
    out.put("mu_uncertainty", effnum(weights, c), "mu-uncertainty", csv=True)
    out.put("mu_uncertainty_min", effnum(weights, CountingFunction.minimal()), "minimal (star)",
            csv=True)
    return out


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


def _cmd_qnum(args) -> Result:
    rho = load_density(args.density)
    c = parse_counting_selector(args.cf)
    base_label, divisor = _parse_log_base(args.log_base)
    out = Result("qnum", "density-matrix state content (ranks 1-based)",
                 ["eigenvalue_rank", "eigenvalue"])
    out.put("n", rho.dim, "dimension N")
    out.put("counting_function", c.label, "kernel")
    out.payload["log_base"] = base_label
    out.column("spectrum", "rho", rho.spectrum)
    value, minimal = density.quantum_effnum(rho, c), density.quantum_effnum_min(rho)
    out.put("qnum", value, "state components", csv=True)
    out.put("qnum_min", minimal, "minimal (star)", csv=True)
    out.put("entropy", math.log(value) / divisor, "entropy")
    out.put("entropy_min", math.log(minimal) / divisor, "entropy (star)")
    return out


def _parse_dims(text: str) -> density.BipartiteStructure:
    match = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not match:
        raise InvalidInput(f'--dims must look like "2x3", got {text!r}')
    return density.BipartiteStructure(int(match.group(1)), int(match.group(2)))


def _cmd_entangle(args) -> Result:
    psi = load_state(args.state)
    bp = _parse_dims(args.dims)
    c = parse_counting_selector(args.cf)
    # Both reductions share the Schmidt weights, so both sides read one
    # count per kernel and agree exactly; one SVD serves the whole command.
    weights = density.entanglement_weights(psi, bp)
    value, minimal = effnum(weights, c), effnum(weights, CountingFunction.minimal())
    out = Result("entangle", "bipartite state sharing", ["quantity", "value"])
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


def _cmd_effvol(args) -> Result:
    psi = load_grid_wavefunction(args.wavefunction)
    c = parse_counting_selector(args.cf)
    value = continuum.effective_volume(psi, c)
    minimal = continuum.effective_volume(psi, CountingFunction.minimal())
    total = psi.grid.total_volume
    out = Result("effvol", "effective volume", ["quantity", "value"])
    out.put("d", psi.grid.d, "dimension D")
    out.put("cells", psi.grid.ncells, "cells")
    out.put("total_volume", total, csv=True)
    out.put("counting_function", c.label, "kernel")
    out.add(("box volume", total))
    out.put("effective_volume", value, "effective volume", csv=True)
    out.put("effective_volume_min", minimal, "minimal (star)", csv=True)
    out.put("fraction", value / total, "occupied fraction", csv=True)
    return out


def _cmd_refine(args) -> Result:
    problem, description = load_refine_problem(args.problem)
    c = parse_counting_selector(args.cf)
    fit = continuum.refine_sequence(problem, args.levels, c)
    out = Result("refine", f"refinement of {description} ({c.label})",
                 ["level", "m_count", "spacing", "ratio"])
    out.payload.update(problem=description, counting_function=c.label,
                       levels=[asdict(r) for r in fit.rows], extrapolated=fit.extrapolated,
                       residual=fit.residual, fit_order=fit.fit_order, fit_window=fit.window)
    for r in fit.rows:
        out.add(f"level {r.level}: M = {r.m_count:<8d} h = {r.spacing:<12.6g} F = {r.ratio:.12g}",
                list(astuple(r)))
    out.add(f"extrapolated F = {fit.extrapolated:.12g} (order {fit.fit_order}, "
            f"window {fit.window}, residual {fit.residual:.3e})",
            ["extrapolated", "", "", fit.extrapolated])
    return out


def _cmd_simulate(args) -> Result:
    psi = load_state(args.state)
    dec, basis = load_decomposition(args.decomposition, psi.dim)
    c = parse_counting_selector(args.cf)
    try:
        trial_counts = [int(t) for t in str(args.trials).split(",") if t]
    except ValueError as exc:
        raise InvalidInput(f"--trials must list integers, got {args.trials!r}") from exc
    if not trial_counts:
        raise InvalidInput("--trials must name at least one trial count")
    probs = states.subspace_probs(psi, dec, basis)
    exact = effnum(weights_from_probs(probs), c)
    out = Result("simulate", f"measurement simulation (seed {args.seed}, {simulate.GENERATOR_ID})",
                 ["trials", "estimate", "stderr", "exact", "abs_error"])
    out.payload.update(m=dec.m_count, seed=args.seed, generator=simulate.GENERATOR_ID,
                       counting_function=c.label, exact=exact, runs=[])
    for i, t in enumerate(trial_counts):
        seq = simulate._sample(probs, t, args.seed, i)
        est = simulate.plugin_mu_estimate(seq, c)
        run = {"trials": t, "estimate": est.estimate, "stderr": est.stderr,
               "exact": exact, "abs_error": abs(est.estimate - exact)}
        out.payload["runs"].append(run)
        out.add(f"T = {t:<9d} estimate = {est.estimate:.12g} "
                f"+/- {est.stderr:.3e}   exact = {exact:.12g}", list(run.values()))
    return out


def _cmd_dfd(args) -> Result:
    family = load_dfd_family(args.family)
    c = parse_counting_selector(args.cf)
    fit = entropy.dfd_gamma_scan(family, c)
    out = Result("dfd", f"degree-of-freedom density scan ({c.label})", ["n", "ratio", "k_eq"])
    out.payload.update(counting_function=c.label, steps=[asdict(s) for s in fit.steps],
                       gamma=fit.gamma, residual=fit.residual, fit_window=fit.window)
    for s in fit.steps:
        out.add(f"n = {s.n:<9d} F = {s.ratio:<22.12g} k_eq = {s.k_eq:.12g}", list(astuple(s)))
    out.add(f"gamma = {fit.gamma:.12g} (window {fit.window}, residual {fit.residual:.3e})",
            ["gamma", fit.gamma, ""])
    return out


def _cmd_check(args) -> Result:
    c = parse_counting_selector(args.cf)
    report = validate_counting_function(c)
    out = Result("check", f"kernel {c.label}:", ["target", "passed", "detail"])
    out.payload.update(counting_function=c.label, kernel_checks=[asdict(k) for k in report.checks],
                       kernel_passed=report.passed, files=[])
    out.add(report.summary().replace("\n", "\n  "))
    for k in report.checks:
        out.add(None, list(astuple(k)))
    for path in args.files:
        try:
            valid, detail = True, check_file(path)
        except (InvalidInput, InvariantViolation) as exc:  # quoted without the row's path
            valid, detail = False, str(exc).removeprefix(f"{path}:").lstrip()
        out.payload["files"].append({"path": path, "valid": valid, "detail": detail})
        out.add(f"{path}: {'ok' if valid else 'INVALID'} ({detail})", [path, valid, detail])
    if not report.passed or not all(f["valid"] for f in out.payload["files"]):
        raise InvalidInput(out.render("table")[:-1])
    return out


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    tmp, opened = out + ".tmp", False
    try:
        with open(tmp, "w") as handle:
            opened = True
            handle.write(text)
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


def _new_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effnum",
        description="Effective-number analysis of states, densities and distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cf", default="star",
                       help='counting kernel: "star" or "alpha=<x>" (default star)')
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("mu", help="measurement uncertainty of a state")
    p.add_argument("state")
    p.add_argument("decomposition")
    common(p)
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("qnum", help="state content of a density matrix")
    p.add_argument("density")
    p.add_argument("--log-base", default="e", dest="log_base",
                   help='entropy display base: "e" (default), 2, or any base > 1')
    common(p)
    p.set_defaults(handler=_cmd_qnum)

    p = sub.add_parser("entangle", help="bipartite state sharing of a pure state")
    p.add_argument("state")
    p.add_argument("--dims", required=True, help="factor dimensions, e.g. 2x3")
    common(p)
    p.set_defaults(handler=_cmd_entangle)

    p = sub.add_parser("effvol", help="effective volume of a grid wave function")
    p.add_argument("wavefunction")
    common(p)
    p.set_defaults(handler=_cmd_effvol)

    p = sub.add_parser("refine", help="refinement scan with extrapolation")
    p.add_argument("problem")
    p.add_argument("--levels", type=int, default=5)
    common(p)
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("simulate", help="Monte Carlo measurement simulation")
    p.add_argument("state")
    p.add_argument("decomposition")
    p.add_argument("--trials", default="100000",
                   help="trial count, or comma-separated list for a convergence table")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("dfd", help="degree-of-freedom density scan of a family")
    p.add_argument("family")
    common(p)
    p.set_defaults(handler=_cmd_dfd)

    p = sub.add_parser("check", help="validate a kernel and input files")
    p.add_argument("files", nargs="*")
    common(p)
    p.set_defaults(handler=_cmd_check)

    return parser


_EXIT_CODES = {InvalidInput: 2, FileNotFoundError: 2, InvariantViolation: 3, ConvergenceError: 4}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.handler(args).render(args.format), args.out)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
