"""JSON input formats and command output.

All input files are JSON documents with complex numbers written as
``[re, im]`` pairs and 0-based indices.  ``_load_json`` alone reads files,
by ``effnum.decode`` if it can and ``json.loads`` if not.  Each input kind
has one reader of the decoded document alone, which ``load_<kind>`` and,
through ``SCHEMAS``, ``check_file`` call through ``_named``: the one place
an error raised while reading a file gets the file's name.  A reader hands
the array it has just decoded to its value object by ``counting._fresh``,
so the object keeps it without a copy.  A command's output is one
``Result``, rendered as json, csv or a table in chunks, 4,096 lines of an
array at a time, so the whole text of a long output never exists.
"""

from __future__ import annotations

import gc
import json
import math
from functools import partial
from itertools import chain, count
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import continuum, counting, density, states
from .decode import _number_array, _walk, _Window
from .errors import EffnumError, InvalidInput

# A uniform-power member holds 2**j floats: exponents lie in
# [1, MAX_POWER_EXPONENT] and a family holds at most MAX_FAMILY_STATES.
MAX_POWER_EXPONENT = 24
MAX_FAMILY_STATES = 2 ** (MAX_POWER_EXPONENT + 1)


def _load_json(path: str | Path) -> Any:
    """The document in the file at ``path``, decoded with the cyclic garbage
    collector paused: a decoded document holds no reference cycles, so a
    collection triggered by its many new objects would only walk them.
    ``_walk`` decodes it from the open file if it can, ``json.loads`` from
    the file's whole text if not.  A file above ``decode.MAX_FILE_BYTES``,
    or a density of a declared size above its cap, is refused unread."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as file:  # the window stats it and refuses one above the cap
            doc = _named(path, lambda: _walk(_Window(file)))
        return json.loads(Path(path).read_text()) if doc is None else doc
    except InvalidInput:  # a size above its cap
        raise
    except (OSError, UnicodeDecodeError) as exc:  # a UnicodeDecodeError has no strerror
        reason = getattr(exc, "strerror", None) or exc
        raise InvalidInput(f"{path}: cannot read file: {reason}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer of more digits than Python converts
        raise InvalidInput(f"{path}: cannot decode JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInput(f"{path}: invalid JSON: nested too deeply") from exc
    finally:
        if enabled:
            gc.enable()


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


def _index_groups(doc: dict) -> list[list[int]] | states.Blocks:
    """``doc["groups"]``: lists of 0-based indices, each a JSON integer, or
    the ``Blocks`` that ``_walk`` decoded them into."""
    groups = _require(doc, "groups")
    if isinstance(groups, states.Blocks):
        return groups
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


def _state(doc: dict) -> states.PureState:
    dim = _int_field(doc, "dim")
    amps = _complex_array(_require(doc, "amps"), "amps", 1)
    if amps.size != dim:
        raise InvalidInput(f"expected {dim} amplitudes, got {amps.size}")
    return states.PureState(counting._fresh(amps))


def load_state(path: str | Path) -> states.PureState:
    """State file: {"dim": N, "amps": [[re, im], ...]}."""
    return _named(path, _state, _load_json(path))


def _density(doc: dict) -> np.ndarray:
    """The document's matrix, checked for shape: a complex view of the one
    float array ``_load_json`` wrote the rows into, handed over by
    ``counting._fresh``, so the DensityMatrix built from it checks and
    solves it in place and keeps it.  Build that DensityMatrix after this
    returns, so that the document is gone by the solve."""
    dim = _int_field(doc, "dim")
    mat = _complex_array(_require(doc, "rows"), "rows", 2)
    if mat.shape != (dim, dim):
        raise InvalidInput(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
    return counting._fresh(mat)


def load_density(path: str | Path) -> density.DensityMatrix:
    """Density file: {"dim": N, "rows": [[[re, im], ...], ...]} row-major."""
    return _named(path, density.DensityMatrix, _named(path, _density, _load_json(path)))


def _decomposition(doc: dict, dim: int | None = None):
    """(decomposition, basis or None) under ``dim``, which defaults to the
    smallest dimension the indices fill (``check`` has no state to go by)."""
    groups = _index_groups(doc)
    if dim is None:
        dim = 1 + (int(groups.indices.max(initial=-1)) if isinstance(groups, states.Blocks)
                   else max(chain.from_iterable(groups), default=-1))
    dec = states.OrthogonalDecomposition(groups, dim)

    basis_doc = doc.get("basis", "identity")
    if basis_doc == "identity":
        basis = None
    elif isinstance(basis_doc, dict) and "rows" in basis_doc:
        mat = _complex_array(basis_doc["rows"], "rows", 2)
        if mat.shape != (dim, dim):
            raise InvalidInput(f"basis must be a {dim}x{dim} matrix")
        basis = states.OrthonormalBasis(counting._fresh(mat))
    else:
        raise InvalidInput("'basis' must be \"identity\" or an object with 'rows'")

    eig = doc.get("eigtuples")
    if eig is not None:  # no command reads the labels; the library's setup checks them
        states.MeasurementSetup(dec, counting._fresh(_float_array(eig, "eigtuples")))
    return dec, basis


def load_decomposition(
    path: str | Path, dim: int
) -> tuple[states.OrthogonalDecomposition, states.OrthonormalBasis | None]:
    """Decomposition file (0-based indices):

    {"basis": "identity" | {"rows": [[[re, im], ...], ...]},
     "groups": [[i, ...], ...],
     "eigtuples": [[x, ...], ...]}     # optional: one distinct outcome label per group
    """
    return _named(path, _decomposition, _load_json(path), dim)


def _grid_wavefunction(doc: dict) -> continuum.GridWaveFunction:
    d = _int_field(doc, "d")
    shape = tuple(_int_field(doc, "shape", listed=True))
    spacing = tuple(_float_field(doc, "spacing", listed=True).tolist())
    if len(shape) != d or len(spacing) != d:
        raise InvalidInput(f"shape/spacing must have {d} entries")
    origin = None
    if doc.get("origin") is not None:
        origin = tuple(_float_field(doc, "origin", listed=True).tolist())
    grid = continuum.Grid(shape=shape, spacing=spacing, origin=origin)
    values = _complex_array(_require(doc, "values"), "values", 1)
    return continuum.GridWaveFunction(grid=grid, values=counting._fresh(values))


def load_grid_wavefunction(path: str | Path) -> continuum.GridWaveFunction:
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
    weights = counting._fresh(_float_field(doc, "weights", listed=True))
    spacing = _float_field(doc, "base_spacing") if "base_spacing" in doc else 1.0
    return continuum.constant_refinement_problem(weights, spacing), "constant weights"


def _half_box_problem(doc: dict):
    lo, hi = _interval(doc)
    cells = _int_field(doc, "base_cells")
    mid = 0.5 * (lo + hi)

    def indicator(x: np.ndarray) -> np.ndarray:
        return (x < mid).astype(float)

    problem = continuum.interval_refinement_problem(indicator, (lo, hi), cells)
    return problem, "half-box indicator"


def _gaussian_problem(doc: dict):
    lo, hi = _interval(doc)
    center = _float_field(doc, "center")
    sigma = _float_field(doc, "sigma")
    cells = _int_field(doc, "base_cells")
    two_var = 2.0 * sigma * sigma
    if not (sigma > 0.0 and two_var > 0.0):  # a tiny sigma's 2*sigma**2 underflows to 0
        raise InvalidInput(f"sigma must be positive with 2*sigma**2 > 0, got {sigma!r}")

    def gaussian(x: np.ndarray) -> np.ndarray:
        return np.exp(-((x - center) ** 2) / two_var)

    problem = continuum.interval_refinement_problem(gaussian, (lo, hi), cells)
    return problem, "1-d Gaussian intensity"


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
    # a scan builds each member when it reaches it, so it holds one at a time
    return ((2**j, _uniform_on_support(2**j, gamma)) for j in exponents)


def _uniform_on_support(n: int, gamma: float) -> counting.WeightVector:
    """The counting weights of the distribution uniform on the first
    ceil(n**(1-gamma)) of n states: n * (1 / support) on those, the bits of
    ``weights_from_probs``, and 0 on the rest, built without the
    probabilities."""
    support = min(n, math.ceil(n ** (1.0 - gamma)))
    w = np.zeros(n)
    w[:support] = n * (1.0 / support)
    return counting.WeightVector(counting._fresh(w))


def _explicit_family(doc: dict):
    members = _require(doc, "members")
    if type(members) is not list:
        raise InvalidInput("'members' must be a list of objects")
    family = []
    for member in members:
        n = _int_field(member, "n")
        p = _float_field(member, "p", listed=True)
        family.append((n, counting.ProbabilityVector(counting._fresh(p))))
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


def load_refine_problem(path: str | Path) -> tuple[continuum.RefinementProblem, str]:
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


def load_dfd_family(
    path: str | Path,
) -> Iterable[tuple[int, counting.ProbabilityVector | counting.WeightVector]]:
    """Degree-of-freedom family file, as (n_k, member) pairs to be read once.

    {"kind": "uniform-power", "gamma": g, "exponents": [j, ...]} gives
    distributions uniform on ceil(n**(1-g)) of n = 2**j states, with
    1 <= j <= MAX_POWER_EXPONENT and at most MAX_FAMILY_STATES in all.  Its
    parameters are checked here, and each member is built, as its counting
    weights, only when a scan reaches it; {"kind": "explicit", "members":
    [{"n": n, "p": [...]}, ...]} lists the distributions directly.
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
        _named(path, density.DensityMatrix, obj)
    return name


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits: enough for exact double round-trip."""
    return f"{float(x):.17g}"


class Result:
    """One command's output, filled once: the JSON payload, the parts of its
    table and the rows of its csv, rendered by :meth:`chunks`."""

    def __init__(self, command: str, title: str, header: list[str]):
        self.payload = {"command": command}
        self.title, self.header, self.table, self.csv = title, header, [], []

    def add(self, table=None, csv: list | None = None) -> None:
        if table is not None:
            self.table.append(table)
        if csv is not None:
            self.csv.append(csv)

    def put(self, key: str, value, label: str | None = None, csv: bool = False) -> None:
        """Set a payload entry, shown in the table under ``label`` and as
        the csv row [key, value] if ``csv``.  A 1-d float array is shown as
        one table pair ``label[i]`` (1-based) and one csv row i,value
        (0-based) per entry."""
        self.payload[key] = value
        row = value if isinstance(value, np.ndarray) else [key, value]
        self.add((label, value) if label else None, row if csv else None)

    def chunks(self, fmt: str) -> Iterator[str]:
        """The output in ``fmt`` as pieces of text to be written in turn."""
        if fmt == "json":
            return chain(json_chunks(self.payload), "\n")
        return (csv_chunks(self.header, self.csv) if fmt == "csv"
                else table_chunks(self.title, self.table))

    def render(self, fmt: str) -> str:
        return "".join(self.chunks(fmt))


def _lines(arr: np.ndarray, line: Callable, keys: Iterator, sep: str = "") -> Iterator[str]:
    """``line(entry, next(keys))`` per entry, joined by ``sep``, 4,096 entries a chunk."""
    for start in range(0, arr.size, step := counting.BLOCK // 16):
        yield sep * bool(start) + sep.join(map(line, arr[start:start + step].tolist(), keys))


def json_text(obj: Any) -> str:
    return "".join(json_chunks(obj))


def json_chunks(obj: Any, indent: int = 0) -> Iterator[str]:
    """Serialize to JSON with floats at 17 significant digits, in chunks."""
    if isinstance(obj, np.ndarray):
        yield from chain("[", _lines(obj, "{:.17g}".format, count(), ", "), "]")
    elif isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(obj.items()):
            yield f"{',' if i else '{'}\n{'  ' * (indent + 1)}{json.dumps(str(key))}: "
            yield from json_chunks(value, indent + 1)
        yield "\n" + "  " * indent + "}"
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
        for i, value in enumerate(obj):
            yield f"{',' if i else '['}\n{'  ' * (indent + 1)}"
            yield from json_chunks(value, indent + 1)
        yield "\n" + "  " * indent + "]"
    elif isinstance(obj, (list, tuple)):
        yield "[" + ", ".join(map(json_text, obj)) + "]"
    else:
        yield format_float(obj) if isinstance(obj, float) else json.dumps(obj)


def csv_text(header: list[str], rows: list) -> str:
    return "".join(csv_chunks(header, rows))


def csv_chunks(header: list[str], rows: list) -> Iterator[str]:
    """Render rows, lists of cells or 1-d float arrays, as CSV with
    17-significant-digit floats; an array's entry i is the row i,value."""
    yield ",".join(header) + "\n"
    for row in rows:
        if isinstance(row, np.ndarray):
            yield from _lines(row, "{1},{0:.17g}\n".format, count())
        else:  # a bool is true or false
            yield ",".join(str(v).lower() if isinstance(v, bool) else format_float(v)
                           if isinstance(v, float) else str(v) for v in row) + "\n"


def table_chunks(title: str, parts: list) -> Iterator[str]:
    """Render the title and one indented line per part: a (label, value)
    pair, aligned with the other pairs and with floats at 12 significant
    digits, or a preformatted line.  A pair whose value is a 1-d float
    array renders one pair ``label[i]`` (1-based) per entry."""
    # an array's last label is its longest; an empty array has none
    labels = [f"{label}[{value.size}]" if isinstance(value, np.ndarray) else label
              for label, value in (p for p in parts if isinstance(p, tuple))
              if not isinstance(value, np.ndarray) or value.size]
    width = max(map(len, labels), default=0)
    yield title + "\n"
    for part in parts:
        if not isinstance(part, tuple):
            yield f"  {part}\n"
            continue
        label, value = part
        if isinstance(value, np.ndarray):
            pair = f"  {{1:<{width}}}  {{0:.12g}}\n".format
            yield from _lines(value, pair, map(f"{label}[{{}}]".format, count(1)))
        else:
            value = f"{value:.12g}" if isinstance(value, float) else value
            yield f"  {label:<{width}}  {value}\n"
