"""JSON input formats and machine-readable output rendering.

All input files are JSON documents with complex numbers written as
``[re, im]`` pairs and 0-based indices.  Floating-point output in the
json/csv renderers carries 17 significant digits so values round-trip
exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .continuum import (
    Grid,
    GridWaveFunction,
    RefinementLevel,
    constant_refinement_problem,
    interval_refinement_problem,
)
from .counting import CountingFunction, ProbabilityVector
from .density import DensityMatrix
from .errors import InvalidInput
from .states import OrthogonalDecomposition, OrthonormalBasis, PureState


def parse_counting_selector(text: str) -> CountingFunction:
    """Parse the CLI kernel selector: ``star`` or ``alpha=<x>``."""
    text = text.strip()
    if text == "star":
        return CountingFunction.minimal()
    if text.startswith("alpha="):
        try:
            alpha = float(text[len("alpha="):])
        except ValueError as exc:
            raise InvalidInput(f"cannot parse exponent in selector {text!r}") from exc
        return CountingFunction.canonical(alpha)
    raise InvalidInput(f'counting-function selector must be "star" or "alpha=<x>", got {text!r}')


def _load_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"{path}: cannot read file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise InvalidInput(f"{path}: invalid JSON: nested too deeply") from exc


def _require(doc: dict, key: str, path) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise InvalidInput(f"{path}: missing required key {key!r}")
    return doc[key]


def _int_field(doc: dict, key: str, path, *, listed: bool = False):
    """``doc[key]`` as a JSON integer, or as a list of them if ``listed``.

    Anything else, a float, a string or a boolean, raises InvalidInput.
    """
    value = _require(doc, key, path)
    if listed and not isinstance(value, list):
        raise InvalidInput(f"{path}: {key!r} must be a list of JSON integers, got {value!r}")
    for v in value if listed else [value]:
        if type(v) is not int:  # bool subclasses int but is no JSON integer
            raise InvalidInput(f"{path}: {key!r} takes JSON integers only, got {v!r}")
    return value


def _complex_array(entries, path, what: str) -> np.ndarray:
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: {what} must be [re, im] pairs") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise InvalidInput(f"{path}: {what} must be [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def load_state(path: str | Path) -> PureState:
    """State file: {"dim": N, "amps": [[re, im], ...]}."""
    doc = _load_json(path)
    dim = _int_field(doc, "dim", path)
    amps = _complex_array(_require(doc, "amps", path), path, "amps")
    if amps.ndim != 1 or amps.size != dim:
        raise InvalidInput(f"{path}: expected {dim} amplitudes, got {amps.size}")
    return PureState(amps)


def load_density(path: str | Path) -> DensityMatrix:
    """Density file: {"dim": N, "rows": [[[re, im], ...], ...]} row-major."""
    doc = _load_json(path)
    dim = _int_field(doc, "dim", path)
    mat = _complex_array(_require(doc, "rows", path), path, "rows")
    if mat.shape != (dim, dim):
        raise InvalidInput(f"{path}: expected a {dim}x{dim} matrix, got shape {mat.shape}")
    return DensityMatrix(mat)


def load_decomposition(
    path: str | Path, dim: int
) -> tuple[OrthogonalDecomposition, OrthonormalBasis | None, np.ndarray | None]:
    """Decomposition file (0-based indices):

    {"basis": "identity" | {"rows": [[[re, im], ...], ...]},
     "groups": [[i, ...], ...],
     "eigtuples": [[x, ...], ...]}     # optional outcome labels
    """
    doc = _load_json(path)
    groups = _require(doc, "groups", path)
    try:
        blocks = tuple(tuple(int(i) for i in g) for g in groups)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: groups must be lists of integer indices") from exc
    dec = OrthogonalDecomposition(blocks, dim)

    basis_doc = doc.get("basis", "identity")
    if basis_doc == "identity":
        basis = None
    else:
        mat = _complex_array(_require(basis_doc, "rows", path), path, "basis rows")
        if mat.shape != (dim, dim):
            raise InvalidInput(f"{path}: basis must be a {dim}x{dim} matrix")
        basis = OrthonormalBasis(mat)

    eig = doc.get("eigtuples")
    eigtuples = None
    if eig is not None:
        eigtuples = np.atleast_2d(np.asarray(eig, dtype=float))
        if eigtuples.shape[0] != dec.m_count:
            raise InvalidInput(f"{path}: need one eigtuple per group")
    return dec, basis, eigtuples


def load_grid_wavefunction(path: str | Path) -> GridWaveFunction:
    """Grid wave-function file:

    {"d": D, "shape": [...], "spacing": [...], "values": [[re, im], ...]}
    with cells enumerated row-major; "origin" is optional.
    """
    doc = _load_json(path)
    d = _int_field(doc, "d", path)
    shape = tuple(_int_field(doc, "shape", path, listed=True))
    spacing = tuple(float(s) for s in _require(doc, "spacing", path))
    if len(shape) != d or len(spacing) != d:
        raise InvalidInput(f"{path}: shape/spacing must have {d} entries")
    origin = doc.get("origin")
    grid = Grid(shape=shape, spacing=spacing,
                origin=None if origin is None else tuple(float(x) for x in origin))
    values = _complex_array(_require(doc, "values", path), path, "values")
    return GridWaveFunction(grid=grid, values=values)


def load_refine_problem(path: str | Path) -> tuple[Callable[[int], RefinementLevel], str]:
    """Refinement-problem file; returns (problem, description).

    Kinds: {"kind": "constant", "weights": [...], "base_spacing": 1.0}
           {"kind": "half-box-1d", "box": [lo, hi], "base_cells": m}
           {"kind": "gaussian-1d", "box": [lo, hi], "center": c,
            "sigma": s, "base_cells": m}
    """
    doc = _load_json(path)
    kind = _require(doc, "kind", path)
    if kind == "constant":
        weights = np.asarray(_require(doc, "weights", path), dtype=float)
        spacing = float(doc.get("base_spacing", 1.0))
        return constant_refinement_problem(weights, spacing), "constant weights"
    if kind == "half-box-1d":
        lo, hi = (float(x) for x in _require(doc, "box", path))
        cells = _int_field(doc, "base_cells", path)
        mid = 0.5 * (lo + hi)

        def indicator(x: np.ndarray) -> np.ndarray:
            return (x < mid).astype(float)

        return interval_refinement_problem(indicator, (lo, hi), cells), "half-box indicator"
    if kind == "gaussian-1d":
        lo, hi = (float(x) for x in _require(doc, "box", path))
        center = float(_require(doc, "center", path))
        sigma = float(_require(doc, "sigma", path))
        cells = _int_field(doc, "base_cells", path)
        if sigma <= 0.0:
            raise InvalidInput(f"{path}: sigma must be positive")

        def gaussian(x: np.ndarray) -> np.ndarray:
            return np.exp(-((x - center) ** 2) / (2.0 * sigma * sigma))

        return interval_refinement_problem(gaussian, (lo, hi), cells), "1-d Gaussian intensity"
    raise InvalidInput(f"{path}: unknown problem kind {kind!r}")


def load_dfd_family(path: str | Path) -> list[tuple[int, ProbabilityVector]]:
    """Degree-of-freedom family file.

    {"kind": "uniform-power", "gamma": g, "exponents": [j, ...]} builds
    distributions uniform on ceil(n**(1-g)) of n = 2**j states;
    {"kind": "explicit", "members": [{"n": n, "p": [...]}, ...]} lists the
    distributions directly.
    """
    doc = _load_json(path)
    kind = _require(doc, "kind", path)
    if kind == "uniform-power":
        gamma = float(_require(doc, "gamma", path))
        if not 0.0 <= gamma <= 1.0:
            raise InvalidInput(f"{path}: gamma must lie in [0, 1]")
        exponents = _int_field(doc, "exponents", path, listed=True)
        family = []
        for j in exponents:
            n = 2**j
            support = min(n, math.ceil(n ** (1.0 - gamma)))
            p = np.zeros(n)
            p[:support] = 1.0 / support
            family.append((n, ProbabilityVector(p)))
        return family
    if kind == "explicit":
        members = _require(doc, "members", path)
        family = []
        for member in members:
            n = _int_field(member, "n", path)
            p = np.asarray(_require(member, "p", path), dtype=float)
            family.append((n, ProbabilityVector(p)))
        return family
    raise InvalidInput(f"{path}: unknown family kind {kind!r}")


def _load_decomposition_alone(path, doc: dict):
    """A decomposition checked against the smallest dimension its indices fill."""
    try:
        dim = 1 + max(int(i) for g in doc["groups"] for i in g)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: groups must be non-empty lists of integer indices") from exc
    return load_decomposition(path, dim)


# The input kinds in the order ``check_file`` tries them: (name, test on the
# document, loader of the path and document).  Loaders are looked up when
# called, so a wrapper re-bound on this module (bench/tracing.py) sees them.
SCHEMAS = (
    ("state", lambda doc: "amps" in doc, lambda path, doc: load_state(path)),
    ("density", lambda doc: "rows" in doc and "dim" in doc, lambda path, doc: load_density(path)),
    ("decomposition", lambda doc: "groups" in doc, _load_decomposition_alone),
    ("grid wave function", lambda doc: "values" in doc,
     lambda path, doc: load_grid_wavefunction(path)),
    ("refinement problem",
     lambda doc: doc.get("kind") in ("constant", "half-box-1d", "gaussian-1d"),
     lambda path, doc: load_refine_problem(path)),
    ("family", lambda doc: doc.get("kind") in ("uniform-power", "explicit"),
     lambda path, doc: load_dfd_family(path)),
)


def check_file(path: str | Path) -> str:
    """Load an input file of any kind and return the kind's name.

    The first kind in ``SCHEMAS`` whose test accepts the document decides;
    a document no kind accepts, a JSON array say, raises InvalidInput.
    """
    doc = _load_json(path)
    if isinstance(doc, dict):
        for name, accepts, load in SCHEMAS:
            if accepts(doc):
                load(path, doc)
                return name
    raise InvalidInput("unrecognized document schema")


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits: enough for exact double round-trip."""
    return f"{float(x):.17g}"


def _coerce(value: Any) -> Any:
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def json_text(obj: Any, indent: int = 0) -> str:
    """Serialize to JSON with floats at 17 significant digits."""
    obj = _coerce(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {json_text(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(_coerce(v), (dict, list, tuple)) for v in seq)
        if flat:
            return "[" + ", ".join(json_text(v) for v in seq) + "]"
        items = [f"{inner}{json_text(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def csv_text(header: list[str], rows: list[list[Any]]) -> str:
    """Render rows as CSV with 17-significant-digit floats."""
    def cell(value: Any) -> str:
        value = _coerce(value)
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_float(value)
        return str(value)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
