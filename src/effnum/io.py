"""JSON input formats and machine-readable output rendering.

All input files are JSON documents with complex numbers written as
``[re, im]`` pairs and 0-based indices.  ``_load_json`` alone decodes
files.  Each input kind has one reader of the decoded document alone, which
``load_<kind>`` and, through ``SCHEMAS``, ``check_file`` call through ``_named``:
the one place an error raised while reading a file gets the file's name.
Floating-point output in the json/csv renderers carries 17 significant
digits so values round-trip exactly.
"""

from __future__ import annotations

import gc
import json
import math
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .continuum import (
    Grid,
    GridWaveFunction,
    RefinementProblem,
    constant_refinement_problem,
    interval_refinement_problem,
)
from .counting import CountingFunction, ProbabilityVector
from .density import DensityMatrix
from .errors import EffnumError, InvalidInput
from .states import OrthogonalDecomposition, OrthonormalBasis, PureState

# A uniform-power member holds 2**j floats: exponents lie in
# [1, MAX_POWER_EXPONENT] and a family holds at most MAX_FAMILY_STATES.
MAX_POWER_EXPONENT = 24
MAX_FAMILY_STATES = 2 ** (MAX_POWER_EXPONENT + 1)


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


def _gc_paused(fn: Callable, *args) -> Any:
    """``fn(*args)`` with the cyclic garbage collector paused, then restored
    to its previous state.

    A decoded JSON document holds no reference cycles, nor do the tuples
    and arrays built from it, so a collection triggered by their many new
    objects would free nothing; it would only walk them, and the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args)
    finally:
        if enabled:
            gc.enable()


def _load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"{path}: cannot read file: {exc}") from exc
    try:
        return _gc_paused(json.loads, text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise InvalidInput(f"{path}: invalid JSON: nested too deeply") from exc


def _named(path, read: Callable, *args) -> Any:
    """``read(*args)``, re-raising an EffnumError as its own type with ``path`` in front."""
    try:
        return read(*args)
    except EffnumError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _require(doc: dict, key: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise InvalidInput(f"missing required key {key!r}")
    return doc[key]


def _int_field(doc: dict, key: str, *, listed: bool = False):
    """``doc[key]`` as a JSON integer, or as a list of them if ``listed``.

    Anything else, a float, a string or a boolean, raises InvalidInput.
    """
    value = _require(doc, key)
    if listed and not isinstance(value, list):
        raise InvalidInput(f"{key!r} must be a list of JSON integers, got {value!r}")
    for v in value if listed else [value]:
        if type(v) is not int:  # bool subclasses int but is no JSON integer
            raise InvalidInput(f"{key!r} takes JSON integers only, got {v!r}")
    return value


def _number_array(value) -> np.ndarray | None:
    """``value`` as a float array if it is a finite JSON number or rectangular
    lists, nested to any depth, of them; otherwise None.

    One pass per nesting level, each over a flat list: ``set(map(...))``
    checks the types and the lengths and ``np.fromiter`` converts, so
    nothing recurses and numpy never walks nested lists.  A string, a
    boolean, null, a ragged list, an integer beyond float range, NaN or
    Infinity (which Python's decoder accepts but JSON does not) gives None.
    """
    level, shape = [value], []
    while (kinds := set(map(type, level))) == {list}:
        lengths = set(map(len, level))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    if not kinds <= {int, float}:  # bool is neither
        return None
    try:
        arr = np.fromiter(level, float, len(level))
    except OverflowError:
        return None
    return arr.reshape(shape) if np.isfinite(arr).all() else None


def _float_array(value, key: str) -> np.ndarray:
    """``value`` as a float array: finite JSON numbers in rectangular lists."""
    arr = _number_array(value)
    if arr is None:
        raise InvalidInput(f"{key!r} takes finite JSON numbers only, got {value!r:.80}")
    return arr


def _float_field(doc: dict, key: str, *, listed: bool = False):
    """``doc[key]`` as a finite JSON number, or as a 1-d float array of them if ``listed``."""
    arr = _float_array(_require(doc, key), key)
    if arr.ndim != (1 if listed else 0):
        kind = "a list of JSON numbers" if listed else "a JSON number"
        raise InvalidInput(f"{key!r} must be {kind}, got {doc[key]!r:.80}")
    return arr if listed else float(arr)


def _index_groups(doc: dict) -> list[list[int]]:
    """``doc["groups"]``: lists of 0-based indices, each a JSON integer."""
    groups = _require(doc, "groups")
    if not (type(groups) is list and set(map(type, groups)) <= {list}
            and set(map(type, chain.from_iterable(groups))) <= {int}):
        raise InvalidInput("groups must be lists of JSON integer indices")
    return groups


def _complex_array(value, key: str, ndim: int) -> np.ndarray:
    """``value`` as an ``ndim``-dimensional complex array: rectangular lists
    of [re, im] pairs of finite JSON numbers, each pair read bit for bit."""
    arr = _number_array(value)
    if arr is None or arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        kind = "a list" if ndim == 1 else "rectangular lists"
        raise InvalidInput(f"{key!r} must be {kind} of [re, im] pairs of finite JSON numbers")
    return arr.view(complex)[..., 0]


def _state(doc: dict) -> PureState:
    dim = _int_field(doc, "dim")
    amps = _complex_array(_require(doc, "amps"), "amps", 1)
    if amps.size != dim:
        raise InvalidInput(f"expected {dim} amplitudes, got {amps.size}")
    return PureState(amps)


def load_state(path: str | Path) -> PureState:
    """State file: {"dim": N, "amps": [[re, im], ...]}."""
    return _named(path, _state, _load_json(path))


def _density(doc: dict) -> np.ndarray:
    """The document's matrix, checked for shape.  Build the DensityMatrix after
    this returns, so the parsed lists (several times its size) are gone by ``eigh``."""
    dim = _int_field(doc, "dim")
    mat = _complex_array(_require(doc, "rows"), "rows", 2)
    if mat.shape != (dim, dim):
        raise InvalidInput(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
    return mat


def load_density(path: str | Path) -> DensityMatrix:
    """Density file: {"dim": N, "rows": [[[re, im], ...], ...]} row-major."""
    return _named(path, DensityMatrix, _named(path, _density, _load_json(path)))


def _decomposition(doc: dict, dim: int | None = None):
    """(decomposition, basis or None) under ``dim``, which defaults to the
    smallest dimension the indices fill (``check`` has no state to go by)."""
    groups = _index_groups(doc)
    if dim is None:
        dim = 1 + max(chain.from_iterable(groups), default=-1)
    # one tuple per group, none of them in a cycle
    dec = _gc_paused(OrthogonalDecomposition, groups, dim)

    basis_doc = doc.get("basis", "identity")
    if basis_doc == "identity":
        basis = None
    elif isinstance(basis_doc, dict) and "rows" in basis_doc:
        mat = _complex_array(basis_doc["rows"], "rows", 2)
        if mat.shape != (dim, dim):
            raise InvalidInput(f"basis must be a {dim}x{dim} matrix")
        basis = OrthonormalBasis(mat)
    else:
        raise InvalidInput("'basis' must be \"identity\" or an object with 'rows'")

    eig = doc.get("eigtuples")
    if eig is not None:
        eigtuples = np.atleast_2d(_float_array(eig, "eigtuples"))
        if eigtuples.ndim != 2 or eigtuples.shape[0] != dec.m_count:
            raise InvalidInput("need one eigtuple per group")
    return dec, basis


def load_decomposition(
    path: str | Path, dim: int
) -> tuple[OrthogonalDecomposition, OrthonormalBasis | None]:
    """Decomposition file (0-based indices):

    {"basis": "identity" | {"rows": [[[re, im], ...], ...]},
     "groups": [[i, ...], ...],
     "eigtuples": [[x, ...], ...]}     # optional outcome labels, checked only
    """
    return _named(path, _decomposition, _load_json(path), dim)


def _grid_wavefunction(doc: dict) -> GridWaveFunction:
    d = _int_field(doc, "d")
    shape = tuple(_int_field(doc, "shape", listed=True))
    spacing = tuple(_float_field(doc, "spacing", listed=True).tolist())
    if len(shape) != d or len(spacing) != d:
        raise InvalidInput(f"shape/spacing must have {d} entries")
    origin = None
    if doc.get("origin") is not None:
        origin = tuple(_float_field(doc, "origin", listed=True).tolist())
    grid = Grid(shape=shape, spacing=spacing, origin=origin)
    values = _complex_array(_require(doc, "values"), "values", 1)
    return GridWaveFunction(grid=grid, values=values)


def load_grid_wavefunction(path: str | Path) -> GridWaveFunction:
    """Grid wave-function file:

    {"d": D, "shape": [...], "spacing": [...], "values": [[re, im], ...]}
    with cells enumerated row-major; "origin" is optional.
    """
    return _named(path, _grid_wavefunction, _load_json(path))


def _interval(doc: dict) -> tuple[float, float]:
    """``doc["box"]`` as the pair (lo, hi)."""
    box = _float_field(doc, "box", listed=True)
    if box.size != 2:
        raise InvalidInput(f"'box' must be [lo, hi], got {doc['box']!r}")
    return float(box[0]), float(box[1])


def _constant_problem(doc: dict):
    weights = _float_field(doc, "weights", listed=True)
    spacing = _float_field(doc, "base_spacing") if "base_spacing" in doc else 1.0
    return constant_refinement_problem(weights, spacing), "constant weights"


def _half_box_problem(doc: dict):
    lo, hi = _interval(doc)
    cells = _int_field(doc, "base_cells")
    mid = 0.5 * (lo + hi)

    def indicator(x: np.ndarray) -> np.ndarray:
        return (x < mid).astype(float)

    return interval_refinement_problem(indicator, (lo, hi), cells), "half-box indicator"


def _gaussian_problem(doc: dict):
    lo, hi = _interval(doc)
    center = _float_field(doc, "center")
    sigma = _float_field(doc, "sigma")
    cells = _int_field(doc, "base_cells")
    if sigma <= 0.0:
        raise InvalidInput("sigma must be positive")

    def gaussian(x: np.ndarray) -> np.ndarray:
        return np.exp(-((x - center) ** 2) / (2.0 * sigma * sigma))

    return interval_refinement_problem(gaussian, (lo, hi), cells), "1-d Gaussian intensity"


def _uniform_power_family(doc: dict):
    gamma = _float_field(doc, "gamma")
    if not 0.0 <= gamma <= 1.0:
        raise InvalidInput("gamma must lie in [0, 1]")
    exponents = _int_field(doc, "exponents", listed=True)
    for j in exponents:
        if not 1 <= j <= MAX_POWER_EXPONENT:
            raise InvalidInput(f"exponents must lie in [1, {MAX_POWER_EXPONENT}], got {j}")
    if sum(2**j for j in exponents) > MAX_FAMILY_STATES:
        raise InvalidInput(f"the family would hold more than {MAX_FAMILY_STATES} states")
    family = []
    for j in exponents:
        n = 2**j
        support = min(n, math.ceil(n ** (1.0 - gamma)))
        p = np.zeros(n)
        p[:support] = 1.0 / support
        family.append((n, ProbabilityVector(p)))
    return family


def _explicit_family(doc: dict):
    members = _require(doc, "members")
    if type(members) is not list:
        raise InvalidInput("'members' must be a list of objects")
    family = []
    for member in members:
        n = _int_field(member, "n")
        p = _float_field(member, "p", listed=True)
        family.append((n, ProbabilityVector(p)))
    return family


# Readers of the documents that name their "kind", by kind.
PROBLEM_KINDS = {"constant": _constant_problem, "half-box-1d": _half_box_problem,
                 "gaussian-1d": _gaussian_problem}
FAMILY_KINDS = {"uniform-power": _uniform_power_family, "explicit": _explicit_family}


def _reader(doc, kinds: dict) -> Callable | None:
    """The reader ``kinds`` holds for the document's "kind", or None."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    return kinds.get(kind) if type(kind) is str else None


def _read_kind(doc, kinds: dict, what: str):
    """The document read by the reader ``kinds`` holds for its "kind"."""
    read = _reader(doc, kinds)
    if read is None:
        raise InvalidInput(f"unknown {what} kind {_require(doc, 'kind')!r}")
    return read(doc)


_refine_problem = partial(_read_kind, kinds=PROBLEM_KINDS, what="problem")
_dfd_family = partial(_read_kind, kinds=FAMILY_KINDS, what="family")


def load_refine_problem(path: str | Path) -> tuple[RefinementProblem, str]:
    """Refinement-problem file; returns (problem, description).

    The problem is a ``RefinementProblem``: ``weights(k)`` builds level
    k's counting weights, and ``spacing(k)`` gives its spacing, checking
    the caps, without building it.

    Kinds: {"kind": "constant", "weights": [...], "base_spacing": 1.0}
           {"kind": "half-box-1d", "box": [lo, hi], "base_cells": m}
           {"kind": "gaussian-1d", "box": [lo, hi], "center": c,
            "sigma": s, "base_cells": m}
    """
    return _named(path, _refine_problem, _load_json(path))


def load_dfd_family(path: str | Path) -> list[tuple[int, ProbabilityVector]]:
    """Degree-of-freedom family file.

    {"kind": "uniform-power", "gamma": g, "exponents": [j, ...]} builds
    distributions uniform on ceil(n**(1-g)) of n = 2**j states, with
    1 <= j <= MAX_POWER_EXPONENT and at most MAX_FAMILY_STATES in all;
    {"kind": "explicit", "members": [{"n": n, "p": [...]}, ...]} lists the
    distributions directly.
    """
    return _named(path, _dfd_family, _load_json(path))


# The input kinds, (name, test on the document, reader), in the order ``check_file`` tries them.
SCHEMAS = (
    ("state", lambda doc: "amps" in doc, _state),
    ("density", lambda doc: "rows" in doc and "dim" in doc, _density),
    ("decomposition", lambda doc: "groups" in doc, _decomposition),
    ("grid wave function", lambda doc: "values" in doc, _grid_wavefunction),
    ("refinement problem", lambda doc: _reader(doc, PROBLEM_KINDS) is not None, _refine_problem),
    ("family", lambda doc: _reader(doc, FAMILY_KINDS) is not None, _dfd_family),
)


def _checked(doc) -> tuple[str, Any]:
    """(name, object) read by the first kind in ``SCHEMAS`` whose test accepts
    the document.  A document no kind accepts, a JSON array say, raises InvalidInput."""
    for name, accepts, read in SCHEMAS if isinstance(doc, dict) else ():
        if accepts(doc):
            return name, read(doc)
    raise InvalidInput("unrecognized document schema")


def check_file(path: str | Path) -> str:
    """Load an input file of any kind and return the kind's name.  A density's
    invariants are checked as in load_density, after its document is freed."""
    name, obj = _named(path, _checked, _load_json(path))
    if name == "density":
        _named(path, DensityMatrix, obj)
    return name


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits: enough for exact double round-trip."""
    return f"{float(x):.17g}"


class Column:
    """Rows for every entry of a 1-d float array, rendered in bulk: entry i
    is the table pair ``label[i + 1]`` and the csv row ``i,value``."""

    def __init__(self, label: str, values: np.ndarray):
        self.label, self.values = label, values


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
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        return "[" + ", ".join(map("{:.17g}".format, obj.tolist())) + "]"
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


def csv_text(header: list[str], rows: list) -> str:
    """Render rows, lists of cells or Columns, as CSV with
    17-significant-digit floats."""
    def cell(value: Any) -> str:
        value = _coerce(value)
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_float(value)
        return str(value)

    lines = [",".join(header)]
    for row in rows:
        if isinstance(row, Column):
            lines.extend(map("{},{:.17g}".format, range(row.values.size), row.values.tolist()))
        else:
            lines.append(",".join(map(cell, row)))
    return "\n".join(lines) + "\n"


def table_text(title: str, parts: list) -> str:
    """Render the title and one indented line per part: a (label, value)
    pair, aligned with the other pairs and with floats at 12 significant
    digits; a Column of such pairs; or a preformatted line.  A part that
    is None is skipped."""
    labels = [p[0] for p in parts if isinstance(p, tuple)]
    labels += [f"{p.label}[{p.values.size}]" for p in parts
               if isinstance(p, Column) and p.values.size]  # the last label is the longest
    width = max(map(len, labels), default=0)
    lines = [title]
    for part in parts:
        if isinstance(part, tuple):
            label, value = part
            value = f"{value:.12g}" if isinstance(value, float) else value
            lines.append(f"  {label:<{width}}  {value}")
        elif isinstance(part, Column):
            pair = f"  {{:<{width}}}  {{:.12g}}".format
            names = map(f"{part.label}[{{}}]".format, range(1, part.values.size + 1))
            lines.extend(map(pair, names, part.values.tolist()))
        elif part is not None:
            lines.append(f"  {part}")
    return "\n".join(lines) + "\n"
