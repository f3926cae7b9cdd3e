"""In-memory spans around the calls into each ``effnum`` module.

The recorder wraps public functions and class constructors from outside
the package; nothing under ``src/`` changes.  A function is re-bound at
every module that holds it (``cli``, ``states``, ``density``, ``entropy``,
``continuum`` and ``simulate`` each import ``effnum`` from ``counting``);
a class is wrapped at its ``__init__``, so every construction is seen
wherever the class was imported.  Each span holds a name, start, end,
parent and job id; self time is its duration minus that of its children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

# Span name -> (module, attribute); a tuple of attributes shares one span.
TARGETS = {
    "cli.main": ("cli", "main"),
    "io.load": ("io", ("load_state", "load_density", "load_decomposition",
                       "load_grid_wavefunction", "load_refine_problem", "load_dfd_family")),
    "io.render": ("io", ("json_text", "csv_text")),
    "density.DensityMatrix": ("density", "DensityMatrix"),
    "density.hermitian_eigen": ("density", "hermitian_eigen"),
    "density.quantum_effnum": ("density", "quantum_effnum"),
    "density.partial_trace": ("density", "partial_trace"),
    "density.mu_entanglement": ("density", "mu_entanglement"),
    "counting.effnum": ("counting", "effnum"),
    "counting.ProbabilityVector": ("counting", "ProbabilityVector"),
    "counting.WeightVector": ("counting", "WeightVector"),
    "states.PureState": ("states", "PureState"),
    "states.OrthogonalDecomposition": ("states", "OrthogonalDecomposition"),
    "states.subspace_probs": ("states", "subspace_probs"),
    "entropy.dfd_gamma_scan": ("entropy", "dfd_gamma_scan"),
    "continuum.GridWaveFunction": ("continuum", "GridWaveFunction"),
    "continuum.effective_volume": ("continuum", "effective_volume"),
    "continuum.refine_sequence": ("continuum", "refine_sequence"),
    "simulate.sample_outcomes": ("simulate", "sample_outcomes"),
    "simulate.plugin_mu_estimate": ("simulate", "plugin_mu_estimate"),
}
# Only the outermost call of a recursive renderer is a span.
OUTERMOST_ONLY = {"io.render"}


def _file_bytes(args, kwargs, result) -> float:
    return float(Path(args[0]).stat().st_size)


# Work counted at a span boundary: span name -> (counter name, f(args, kwargs, result)).
COUNTERS = {
    "io.load": ("io.load.in_bytes", _file_bytes),
    "io.render": ("io.render.out_bytes", lambda a, k, r: float(len(r))),
    "counting.effnum": ("counting.effnum.elems", lambda a, k, r: float(a[0].w.size)),
    "states.subspace_probs": ("states.subspace_probs.blocks", lambda a, k, r: float(a[1].m_count)),
    "continuum.effective_volume": ("continuum.effective_volume.cells",
                                   lambda a, k, r: float(a[0].grid.ncells)),
    "continuum.refine_sequence": ("continuum.refine_sequence.cells",
                                  lambda a, k, r: float(sum(row.m_count for row in r.rows))),
    "simulate.sample_outcomes": ("simulate.sample_outcomes.trials",
                                 lambda a, k, r: float(r.t_count)),
    "simulate.plugin_mu_estimate": ("simulate.plugin_mu_estimate.replicas",
                                    lambda a, k, r: float(r.n_bootstrap)),
}


class Recorder:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, job, error]
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        counter = COUNTERS.get(name)
        outermost = name in OUTERMOST_ONLY
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            record = [name, clock(), 0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(record)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = 1
                raise
            finally:
                record[2] = clock()
                depth[name] -= 1
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "effnum" or k.startswith("effnum."))]
        for name, (module, attrs) in TARGETS.items():
            owner = sys.modules[f"effnum.{module}"]
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                original = getattr(owner, attr)
                if isinstance(original, type):
                    self._set(original, "__init__", self._wrap(name, original.__init__))
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and errors."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, job, error in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in TARGETS}
        for i, (name, start, end, parent, job, error) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_ns[i]) * 1e-9
            entry["errors"] += error
        return out

    def covered_s(self) -> float:
        """Seconds inside some span (root spans never overlap)."""
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent < 0) * 1e-9

    def by_job(self, job: str) -> dict[str, float]:
        """Self seconds per span name for one job."""
        sub = Recorder()
        idx = [i for i, s in enumerate(self.spans) if s[4] == job]
        remap = {old: new for new, old in enumerate(idx)}
        sub.spans = [s[:3] + [remap.get(s[3], -1)] + s[4:] for s in (self.spans[i] for i in idx)]
        return {k: v["self_s"] for k, v in sub.summary().items() if v["calls"]}
