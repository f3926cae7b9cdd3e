"""The streamed decode of a document's large lists against ``json.loads``.

``io._load_json`` reads the open file through a window and decodes the
lists ``decode.MEMBERS`` names -- a state's "amps", a grid's "values", a
density's "rows", a decomposition's "groups", its "eigtuples" and its
basis's "rows", a constant problem's "weights" and a family's members'
"p" -- a run of items at a time into arrays (``decode._walk``), and leaves
every other document to ``json.loads``.  The differential test writes documents of
each kind in many textual forms, valid and corrupt, and reads each twice:
as ``_load_json`` does, and with the walk switched off, so that
``json.loads`` decodes the whole document as before.
"""

from __future__ import annotations

import gc
import json
import tempfile
import time
import tracemalloc
from io import StringIO
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effnum import continuum, decode, io
from effnum.cli import main
from effnum.errors import InvalidInput
from effnum.states import DEFAULT_DIM_CAP, Blocks

SPACE = st.sampled_from(["", " ", "\n", "\t", "\r\n  ", "\n    "])

# Texts of one JSON number: integer and float forms, -0 and exponents.
NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "-0.0", "1", "0.5", "5e-1", "5E-1", "0.50", "1e0", "1E+0",
                     "2.5e-324", "1.7976931348623157e308", "1e-400"]),
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17e}".format),
)

# What the CLI fuzz puts in place of a number, and texts JSON forbids.
CORRUPT_NUMBERS = st.sampled_from(['"0.6"', "true", "null", "NaN", "Infinity", "-Infinity",
                                   "1" + "0" * 400, "1e400", "[]", "{}", "01", "1.", "+1"])


@st.composite
def _text(draw, node) -> str:
    """``node`` as JSON text with drawn whitespace: a list is an array, a
    tuple of (key text, node) pairs an object, a str is already JSON text."""
    if isinstance(node, str):
        return node
    if isinstance(node, tuple):
        items = [f"{key}{draw(SPACE)}:{draw(SPACE)}{draw(_text(v))}" for key, v in node]
        opening, closing = "{", "}"
    else:
        items, opening, closing = [draw(_text(v)) for v in node], "[", "]"
    if not items:
        return opening + draw(SPACE) + closing
    body = items[0] + "".join(draw(SPACE) + "," + draw(SPACE) + item for item in items[1:])
    return opening + draw(SPACE) + body + draw(SPACE) + closing


@st.composite
def matrices(draw):
    """Nested lists of number texts: an n x n matrix of [re, im] pairs,
    sometimes corrupted the way the CLI fuzz corrupts one."""
    n = draw(st.integers(1, 3))
    rows = [[[draw(NUMBERS), draw(NUMBERS)] for _ in range(n)] for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    corruption = draw(st.sampled_from(
        [None] * 6 + ["number", "ragged", "triple", "extra-nesting", "short-row", "long-row",
                      "uneven-rows", "empty-row", "number-row", "no-rows", "one-level", "deep",
                      "unclosed"]))
    if corruption == "number":
        rows[i][j][draw(st.integers(0, 1))] = draw(CORRUPT_NUMBERS)
    elif corruption == "ragged":
        rows[i][j] = rows[i][j][:1]
    elif corruption == "triple":
        rows[i][j].append("0.0")
    elif corruption == "extra-nesting":
        rows[i][j] = [rows[i][j], rows[i][j]]
    elif corruption == "short-row":
        rows[i].pop()
    elif corruption == "long-row":
        rows[i].append(["0", "0"])
    elif corruption == "uneven-rows":  # as many pairs in all, unequally shared
        rows[0].pop()
        rows[-1].append(["0", "0"])
    elif corruption == "empty-row":
        rows[i] = []
    elif corruption == "number-row":
        rows[i] = draw(NUMBERS)
    elif corruption == "no-rows":
        rows = []
    elif corruption == "one-level":
        rows = rows[i]
    elif corruption == "deep":  # numpy allows 64 dimensions
        for _ in range(draw(st.sampled_from([31, 62, 63, 70]))):
            rows = [rows]
    elif corruption == "unclosed":  # the matrix's closing bracket, dropped or replaced
        return draw(_text(rows))[:-1] + draw(st.sampled_from(["", "}", ",", "]]"]))
    return rows


@st.composite
def vectors(draw):
    """Nested lists of number texts: a list of [re, im] pairs, sometimes
    corrupted the way the CLI fuzz corrupts one."""
    rows = draw(matrices())
    return rows[0] if isinstance(rows, list) and rows and isinstance(rows[0], list) else rows


INDICES = st.one_of(st.integers(0, 3).map(str),
                    st.sampled_from(["-1", "0.0", "1e0", "true", '"0"', "null", str(2**63),
                                     "1" + "0" * 30]))


@st.composite
def index_lists(draw):
    """Lists of index texts, sometimes empty, not lists, or not a list."""
    groups = draw(st.lists(st.lists(INDICES, max_size=3), max_size=4))
    form = draw(st.sampled_from([None] * 6 + ["flat", "nested", "number"]))
    if form == "flat":
        return list(chain.from_iterable(groups))
    if form == "nested":
        return [groups]
    return "3" if form == "number" else groups


BASES = st.one_of(st.just('"identity"'), st.just('"x"'), st.just("{}"),
                  matrices().map(lambda rows: (('"rows"', rows),)),
                  matrices().map(lambda rows: (('"note"', '"]]"'), ('"rows"', rows))))


@st.composite
def documents(draw) -> str:
    """The text of a density, state, grid or decomposition document: its
    members in any order, some repeated or extra, sometimes not an object,
    truncated or with data after it."""
    dim = ('"dim"', draw(st.sampled_from(["2", "2.0", "-0", "3", '"2"'])))
    kind = draw(st.sampled_from(["density", "state", "grid", "decomposition"]))
    members = {
        "density": [dim, ('"rows"', draw(matrices()))],
        "state": [dim, ('"amps"', draw(vectors()))],
        "grid": [('"d"', "1"), ('"shape"', "[2]"), ('"spacing"', "[0.5]"),
                 ('"values"', draw(vectors()))],
        "decomposition": [('"groups"', draw(index_lists())), ('"basis"', draw(BASES))],
    }[kind]
    extras = [('"rows"', draw(matrices())), ('"\\u0072ows"', draw(matrices())),
              ('"rows"', '"x"'), ('"rows"', "{}"), ('"dim"', "1"), ('"note"', '"rows]]"'),
              ('"amps"', [["1", "0"]]), ('"amps"', draw(vectors())), ('"values"', "[[]]"),
              ('"groups"', draw(index_lists())), ('"basis"', draw(BASES)), ('""', "null")]
    members += draw(st.lists(st.sampled_from(extras), max_size=3))
    text = draw(SPACE) + draw(_text(tuple(draw(st.permutations(members)))))
    form = draw(st.sampled_from([None] * 8 + ["array", "trailing", "truncated", "bom"]))
    if form == "array":
        text = f"[{text}]"
    elif form == "trailing":
        text += draw(st.sampled_from([" x", "{}", ",", "]", "}", " 1", "\n\n", " // c"]))
    elif form == "truncated":
        text = text[:draw(st.integers(0, len(text)))]
    elif form == "bom":
        text = "\ufeff" + text
    return text + draw(SPACE)


def _seen(key, value):
    """A member as a reader sees it: a listed member's numbers as bits, and
    groups as their indices and sizes, whether ``_walk`` or ``json.loads``
    decoded them; any other member as its repr."""
    if key in ("amps", "values", "rows", "eigtuples", "weights", "p"):
        return _bits(decode._number_array(value))
    if key == "members" and type(value) is list:
        return [[(k, _seen(k, v)) for k, v in member.items()] if isinstance(member, dict)
                else repr(member) for member in value]
    if key == "groups":
        try:
            blocks = value if isinstance(value, Blocks) else Blocks(
                np.array(list(chain.from_iterable(value)), np.intp),
                np.array(list(map(len, value)), np.intp))
        except (TypeError, ValueError, OverflowError):  # not lists of integers
            return repr(value)
        return _bits(blocks.indices), _bits(blocks.sizes)
    if key == "basis" and isinstance(value, dict):
        return [(k, _seen(k, v)) for k, v in value.items()]
    return repr(value)


def _read(read, doc):
    """The arrays of what ``read`` makes of the document, or its error."""
    try:
        with np.errstate(all="ignore"):  # as the command line reads them
            made = read(doc)
    except InvalidInput as exc:
        return str(exc)
    return _arrays(made)


def _arrays(obj):
    if isinstance(obj, tuple):  # a decomposition and its basis or None
        return [_arrays(o) for o in obj]
    if obj is None or isinstance(obj, np.ndarray):
        return _bits(obj)
    return [(k, _bits(v)) for k, v in vars(obj).items() if isinstance(v, np.ndarray)]


def _outcome(path):
    """What the readers see of the file: each member, and what each
    reader of ``io.SCHEMAS`` makes of it; or the InvalidInput text."""
    try:
        doc = io._load_json(path)
    except InvalidInput as exc:
        return str(exc)
    if not isinstance(doc, dict):
        return repr(doc)
    members = [(k, _seen(k, v)) for k, v in doc.items()]
    return members, [_read(read, doc) for _, _, read in io.SCHEMAS[:4]]


def _bits(arr):
    return None if arr is None else (arr.dtype.str, arr.shape, arr.tobytes())


def _crossing(rows: str) -> str:
    """A density document whose "rows" text, ``rows``, starts 19 characters in."""
    return '{"dim": 2, "rows": ' + rows + "}"


def _pairs_text(n: int) -> str:
    return "[" + ", ".join(f"[{i % 7}.25, -0.5]" for i in range(n)) + "]"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(documents())
@example('{"dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]}}')  # "rows" closed by "}"
@example('{"rows": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]}, "dim": 2}')
# the first window ends inside the first row's 0.123456: the run reads more
@example(_crossing(" " * (decode.WINDOW_CHARS - 26)
                   + '[[[0.123456, 0], [0, 0]], [[0, 0], [0, 0]]]'))
# a row ends where the first window does: its lookahead reads more
@example(_crossing(" " * (decode.WINDOW_CHARS - 36) + '[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]'))
# the list's own "]" is the window's last character
@example(_crossing(" " * (decode.WINDOW_CHARS - 55) + '[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]'))
# a row runs past the first window and as much again: the window grows twice
@example(_crossing('[[[0.5, 0], [0, 0]],' + " " * (3 * decode.WINDOW_CHARS)
                   + '[[0, 0], [0.5, 0]]]'))
# a member other than a listed one runs past the first window: it reads the rest
@example('{"note": "' + "x" * decode.WINDOW_CHARS + '", "dim": 2, "rows": [[[1, 0], [0, 0]], '
         '[[0, 0], [0, 0]]]}')
# data after a document whose rows were read past the first window
@example(_crossing(" " * decode.WINDOW_CHARS + '[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]') + "x")
# "amps" of many runs, and one pair cut by the window's end
@example('{"dim": 6000, "amps": ' + _pairs_text(6000) + "}")
@example('{"dim": 2, "amps": [[0.5,' + " " * decode.WINDOW_CHARS + '0], [0, 0.5]]}')
# "]" in a string after the list, inside the run that ends the list
@example('{"amps": [[1, 0]], "note": "]]", "dim": 1}')
# a grid's values over several windows, one of them not a pair
@example('{"d": 1, "shape": [6000], "spacing": [1.0], "values": '
         + _pairs_text(6000)[:-1] + ", [1, 0, 0]]}")
# groups over several windows, and one index too large for the platform
@example('{"groups": [' + ", ".join(f"[{i}, {i + 1}]" for i in range(0, 20000, 2)) + "]}")
@example('{"groups": [' + "[0], " * 20000 + "[" + str(2**64) + "]]}")
# a basis's rows cross the first window, after groups
@example('{"groups": [[0], [1]], "basis": {"rows": ' + " " * (decode.WINDOW_CHARS - 40)
         + '[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}}')
def test_the_walk_reads_what_json_loads_reads(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        streamed = _outcome(path)
        with mock.patch.object(io, "_walk", lambda text: None):
            whole = _outcome(path)
    assert streamed == whole


def test_valid_rows_are_streamed():
    text = '{"dim": 2, "rows": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, -0]]], "dim": 2}'
    doc = decode._walk(decode._Window(StringIO(text)))
    assert list(doc) == ["dim", "rows"] and isinstance(doc["rows"], np.ndarray)
    assert decode._number_array(doc["rows"]) is doc["rows"]
    assert doc["rows"].tobytes() == decode._number_array(json.loads(text)["rows"]).tobytes()


class _Recording(StringIO):
    """Text in memory that records the size asked for by each read."""

    def __init__(self, text: str):
        super().__init__(text)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


def test_lists_are_read_in_pieces_and_any_other_member_at_once():
    n = 2**14
    # a density's "dim" is its declared size, which the cap limits
    for dim, member in ((128, {"rows": json.loads(_density_text(128, 1))["rows"]}),  # 0.8 MB
                        (n, {"amps": [[1.0, 0.0]] + [[0.0, 0.0]] * (n - 1)}),
                        (n, {"groups": [[i] for i in range(n)]}),
                        (n, {"basis": {"rows": json.loads(_density_text(64, 2))["rows"]}}),
                        (n, {"eigtuples": [[float(i)] for i in range(n)]}),
                        (n, {"weights": [1.0] * n}),
                        (n, {"members": [{"n": n, "p": [1 / n] * n}] * 2})):
        text = _Recording(json.dumps({"dim": dim, **member}))
        assert decode._walk(decode._Window(text))["dim"] == dim
        assert set(text.sizes) == {decode.WINDOW_CHARS}  # never the rest of the file at once
    text = _Recording(json.dumps({"dim": n, "labels": [[0.0]] * n}))
    assert decode._walk(decode._Window(text))["dim"] == n
    # "labels", a member no reader reads, ran past the window: the rest of the file, once
    assert text.sizes == [decode.WINDOW_CHARS, -1]


def test_groups_are_read_as_blocks(tmp_path):
    text = '{"groups": [[3, 0], [1], [2, 4]]}'
    groups = decode._walk(decode._Window(StringIO(text)))["groups"]
    assert isinstance(groups, Blocks)
    assert groups.indices.tolist() == [3, 0, 1, 2, 4] and groups.sizes.tolist() == [2, 1, 2]
    path = tmp_path / "dec.json"
    path.write_text(text)
    dec, basis = io.load_decomposition(path, 5)
    assert basis is None and dec.block.tolist() == [0, 1, 2, 0, 2]


def _density_text(n: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    pairs = np.stack([rho.real, rho.imag], axis=-1)
    return json.dumps({"dim": n, "rows": pairs.tolist()})


def test_reading_a_density_peaks_at_about_its_text(tmp_path):
    # decoding the whole document with json.loads peaked at 3.9 times the text,
    # and holding the whole text while the rows were walked at 2.0 times
    path = tmp_path / "rho.json"
    text = _density_text(256, 5)
    path.write_text(text)
    io.load_density(path)  # warm-up: first-use imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        io.load_density(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * len(text), peak / len(text)


def test_reading_a_density_holds_about_one_matrix(tmp_path):
    # with the rows kept apart and stacked, and the matrix copied for the
    # Hermiticity check, the solve and the stored copy, it peaked at 3.03
    # times; with a 1 MiB window refill read in pieces and joined, and the
    # Hermiticity check's blocks of 1 MiB, at 1.53
    n = 512
    path = tmp_path / "rho.json"
    path.write_text(_density_text(n, 7))
    io.load_density(path)  # warm-up: first-use imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        io.load_density(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 16 * n * n, peak / (16 * n * n)


def _pairs_json(values: np.ndarray) -> str:
    return json.dumps(np.stack([values.real, values.imag], axis=-1).tolist())


def _read_peak(read, path, small):
    """Bytes ``read(path)`` allocates at its peak, after ``read(small)``
    has warmed up first-use imports and caches."""
    read(small)
    gc.collect()
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_state_holds_about_one_array(tmp_path):
    # with "amps" decoded as a tree of Python lists it peaked at 12 times its array
    n = 2**20
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    path, small = tmp_path / "state.json", tmp_path / "small.json"
    path.write_text(f'{{"dim": {n}, "amps": {_pairs_json(amps / np.linalg.norm(amps))}}}')
    small.write_text('{"dim": 2, "amps": [[0.6, 0], [0, 0.8]]}')
    peak = _read_peak(io.load_state, path, small)
    assert peak < 2 * 16 * n, peak / (16 * n)


def test_reading_a_basis_holds_about_one_matrix(tmp_path):
    # with its rows decoded as a tree of Python lists, and U^H U and its
    # difference from I built whole, it peaked at 12.5 times its matrix
    n = 1024
    rng = np.random.default_rng(12)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    path, small = tmp_path / "dec.json", tmp_path / "small.json"
    groups = json.dumps([[i] for i in range(n)])
    path.write_text(f'{{"basis": {{"rows": {_pairs_json(u)}}}, "groups": {groups}}}')
    small.write_text('{"basis": {"rows": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}, '
                     '"groups": [[0], [1]]}')
    peak = _read_peak(lambda p: io.load_decomposition(p, n if p == path else 2), path, small)
    assert peak < 2 * 16 * n * n, peak / (16 * n * n)


def _pairs(*widths) -> list:
    """Rows of [re, im] pairs of the given widths, 0.5 on the diagonal."""
    return [[[0.5 if i == j else 0, 0] for j in range(w)] for i, w in enumerate(widths)]


# Rows that are not N rows of N pairs, which the readers refuse; (dim,
# rows, the error message).  ``_walk`` decodes equal rows of any count and
# refuses ragged ones, which ``json.loads`` then reads.
REFUSED_ROWS = {
    "three-rows-of-two": (2, _pairs(2, 2, 2), "expected a 2x2 matrix, got shape (3, 2)"),
    "two-rows-of-three": (3, _pairs(3, 3), "expected a 3x3 matrix, got shape (2, 3)"),
    "ragged": (2, _pairs(2, 1),
               "'rows' must be rectangular lists of [re, im] pairs of finite JSON numbers"),
}


def _refused_as_before(path, message, capsys):
    """Both commands exit 2 with the message the whole-document decode gave."""
    assert main(["qnum", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.endswith(f"  {path}: INVALID ({message})\n")


@pytest.mark.parametrize("case", list(REFUSED_ROWS))
def test_refused_rows_are_read_by_json_loads(tmp_path, capsys, case):
    dim, rows, message = REFUSED_ROWS[case]
    text = json.dumps({"dim": dim, "rows": rows})
    doc = decode._walk(decode._Window(StringIO(text)))
    if case == "ragged":
        assert doc is None
    else:
        assert _bits(doc["rows"]) == _bits(np.array(rows, float))
    path = tmp_path / "rho.json"
    path.write_text(text)
    _refused_as_before(path, message, capsys)


@pytest.mark.parametrize("extra", [-1, 1], ids=["a-row-short", "a-row-over"])
def test_misshapen_rows_are_refused_holding_about_one_matrix(tmp_path, extra):
    # sent to json.loads whole, either peaked at 12.1 matrices; decoded, at 1.4
    n = 256
    doc = json.loads(_density_text(n, 9))
    doc["rows"] = doc["rows"][:n - 1] if extra < 0 else doc["rows"] + doc["rows"][:1]
    path, small = tmp_path / "rho.json", tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    small.write_text('{"dim": 2, "rows": [[[1, 0], [0, 0]]]}')

    def refuse(p):
        with pytest.raises(InvalidInput, match=r"expected a \d+x\d+ matrix, got shape"):
            io.load_density(p)

    peak = _read_peak(refuse, path, small)
    assert peak < 3 * 16 * n * n, peak / (16 * n * n)


def test_rows_wider_than_the_cap_are_read_by_their_shape(tmp_path, capsys):
    wide = DEFAULT_DIM_CAP + 1
    # "dim" after "rows": a "dim" above the cap met first refuses the rows unread
    text = json.dumps({"rows": _pairs(wide, wide), "dim": wide})
    tracemalloc.start()
    try:
        rows = decode._walk(decode._Window(StringIO(text)))["rows"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (2, wide, 2) and not rows.any() and not rows.flags.writeable
    assert peak < 2**20 + 8 * len(text)  # no matrix, only a few rows' worth
    path = tmp_path / "rho.json"
    path.write_text(text)
    _refused_as_before(path, f"expected a {wide}x{wide} matrix, got shape (2, {wide})", capsys)


def test_a_family_member_is_sized_by_its_own_list(tmp_path, monkeypatch):
    # sized by the file after its start, the first member reserved 20 times its list
    first = []

    class Pile(decode._Pile):
        def __init__(self, *args):
            super().__init__(*args)
            first.append(len(self.arr))

    monkeypatch.setattr(decode, "_Pile", Pile)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"kind": "explicit",
                                "members": [{"n": n, "p": [1 / n] * n} for n in (2**12, 2**16)]}))
    with open(path) as file:
        members = decode._walk(decode._Window(file))["members"]
    assert [member["p"].size for member in members] == [2**12, 2**16]
    assert first[0] <= 2**12


def test_labels_wider_than_a_row_are_kept():
    # only rows are counted, not kept, above 2 x DEFAULT_DIM_CAP numbers
    labels = np.arange(2 * (2 * DEFAULT_DIM_CAP + 1), dtype=float).reshape(2, -1)
    text = json.dumps({"groups": [[0], [1]], "eigtuples": labels.tolist()})
    assert _bits(decode._walk(decode._Window(StringIO(text)))["eigtuples"]) == _bits(labels)


def test_a_declared_size_above_the_cap_is_refused_before_any_row(tmp_path, capsys):
    # every row decoded, this 134 MB file took 6.9 s to refuse
    wide = DEFAULT_DIM_CAP + 1
    row = "[" + ", ".join(["[0, 0]"] * wide) + "]"
    path = tmp_path / "rho.json"
    with open(path, "w") as file:
        file.write(f'{{"dim": {wide}, "rows": [')
        file.write(", ".join([row] * wide))
        file.write("]}")
    message = f"density matrix dimension {wide} exceeds the supported cap {DEFAULT_DIM_CAP}"
    main(["check", str(tmp_path / "absent.json")])  # warm-up: first-use imports and caches
    capsys.readouterr()
    gc.collect()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["qnum", str(path)])
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (2, f"error: {path}: {message}\n")
    assert seconds < 0.5 and peak < 64 * 2**20, (seconds, peak)
    _refused_as_before(path, message, capsys)


def test_a_file_above_the_byte_cap_is_refused_unread(tmp_path, capsys):
    path = tmp_path / "huge.json"
    with open(path, "wb") as file:  # sparse: no byte of it is written to disk
        file.truncate(decode.MAX_FILE_BYTES + 1)
    for argv in (["mu", str(path), str(path)], ["qnum", str(path)]):
        with mock.patch.object(decode._Window, "_read", side_effect=AssertionError("read")):
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {decode.MAX_FILE_BYTES + 1} bytes exceed the file cap "
            f"{decode.MAX_FILE_BYTES}\n")


@st.composite
def number_lists(draw, max_size=12):
    """A list of number texts, sometimes corrupted: a number JSON forbids,
    a nested list, no items, or a comma before its end."""
    items = draw(st.lists(NUMBERS, min_size=1, max_size=max_size))
    k = draw(st.integers(0, len(items) - 1))
    form = draw(st.sampled_from([None] * 6 + ["number", "nested", "empty", "trailing"]))
    if form == "number":
        items[k] = draw(CORRUPT_NUMBERS)
    elif form == "nested":
        items[k] = [items[k]]
    elif form == "empty":
        items = []
    elif form == "trailing":
        return draw(_text(items))[:-1] + "," + draw(SPACE) + "]"
    return items


@st.composite
def label_lists(draw):
    """Outcome labels: rows of equally many number texts, sometimes
    ragged, flat, corrupted, empty or with a comma before their end."""
    width = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(NUMBERS, min_size=width, max_size=width),
                         min_size=1, max_size=8))
    k = draw(st.integers(0, len(rows) - 1))
    form = draw(st.sampled_from([None] * 6 + ["ragged", "flat", "number", "empty", "trailing"]))
    if form == "ragged":
        rows[k] = rows[k] + ["0"]
    elif form == "flat":
        rows = list(chain.from_iterable(rows)) or ["0"]
    elif form == "number" and width:
        rows[k][0] = draw(CORRUPT_NUMBERS)
    elif form == "empty":
        rows = []
    elif form == "trailing":
        return draw(_text(rows))[:-1] + "," + draw(SPACE) + "]"
    return rows


@st.composite
def member_lists(draw):
    """A family's members, objects of "n" and "p" in either order, sometimes
    empty, with an item that is no object or a comma before their end."""
    members = []
    for n in draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)):
        p = draw(st.one_of(st.just([repr(1 / n)] * n), number_lists(6)))
        members.append(tuple(draw(st.permutations([('"n"', str(n)), ('"p"', p)]))))
    form = draw(st.sampled_from([None] * 6 + ["not-an-object", "empty", "trailing"]))
    if form == "not-an-object":
        members.insert(draw(st.integers(0, len(members))), draw(st.sampled_from(["3", "[]"])))
    elif form == "empty":
        members = []
    elif form == "trailing":
        return draw(_text(members))[:-1] + "," + draw(SPACE) + "]"
    return members


@st.composite
def listed_documents(draw) -> str:
    """The text of a constant problem, a decomposition with labels or an
    explicit family, members in any order."""
    kind = draw(st.sampled_from(["weights", "eigtuples", "members"]))
    if kind == "weights":
        members = [('"kind"', '"constant"'), ('"weights"', draw(number_lists()))]
        members += draw(st.sampled_from([[], [('"base_spacing"', "0.5")]]))
    elif kind == "eigtuples":
        labels = draw(label_lists())
        m = len(labels) if isinstance(labels, list) else 2
        members = [('"groups"', [[str(i)] for i in range(m)]), ('"eigtuples"', labels)]
    else:
        members = [('"kind"', '"explicit"'), ('"members"', draw(member_lists()))]
    return draw(SPACE) + draw(_text(tuple(draw(st.permutations(members))))) + draw(SPACE)


def _made(obj):
    """The arrays of a reader's object: a refinement problem's first level
    and its description, a family's members, or a decomposition's arrays."""
    if isinstance(obj, str):
        return obj
    if isinstance(obj, continuum.RefinementProblem):
        return _bits(obj.weights(1)), obj.spacing(1)
    if isinstance(obj, list):
        return [(n, _bits(member.p)) for n, member in obj]
    if isinstance(obj, tuple):
        return [_made(o) for o in obj]
    return _arrays(obj)


def _checked_outcome(path):
    """Each member as the readers see it, and the kind and object that
    ``io._checked`` reads from the document; or the InvalidInput text."""
    try:
        doc = io._load_json(path)
        members = [(k, _seen(k, v)) for k, v in doc.items()]
        with np.errstate(all="ignore"):  # as the command line reads them
            name, made = io._checked(doc)
    except InvalidInput as exc:
        return str(exc)
    return members, name, _made(made)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(listed_documents(), st.integers(1, 48))
# a run of plain numbers cut at each comma, and at the list's own "]"
@example('{"kind": "constant", "weights": [1, 2.5, 0.5]}', 1)
@example('{"kind": "constant", "weights": [1, 2.5, 0.5]}', 9)
@example('{"groups": [[0], [1]], "eigtuples": [[1.0, 2], [3, 4.0]]}', 1)
@example('{"kind": "explicit", "members": [{"p": [0.5, 0.5], "n": 2}, {"n": 1, "p": [1]}]}', 3)
def test_listed_numbers_are_read_as_json_loads_reads_them(text, run_chars):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        with mock.patch.object(decode, "RUN_CHARS", run_chars):
            streamed = _checked_outcome(path)
        with mock.patch.object(io, "_walk", lambda text: None):
            whole = _checked_outcome(path)
    assert streamed == whole


def test_a_list_of_numbers_is_cut_into_runs():
    n = 5000
    text = json.dumps({"kind": "constant", "weights": [float(i) for i in range(n)]})
    runs = []

    def run(text, i, depth):
        items, end = real(text, i, depth)
        runs.append(len(items))
        return items, end

    real = decode._run
    with mock.patch.object(decode, "_run", run):
        weights = decode._walk(decode._Window(StringIO(text)))["weights"]
    assert np.array_equal(weights, np.arange(n, dtype=float))
    # about RUN_CHARS of 8-character items per run, never the whole list
    assert len(runs) > 1 and max(runs) <= decode.RUN_CHARS // 6 and sum(runs) == n


# Listed members that the whole-document decode refuses: (command, document,
# the end of its error output, in which {path} is the file's path).
MALFORMED = {
    "ragged-eigtuples": ("check", '{"groups": [[0], [1]], "eigtuples": [[1.0], [2.0, 3.0]]}',
                         "  {path}: INVALID ('eigtuples' takes finite JSON numbers only, "
                         "got [[1.0], [2.0, 3.0]])\n"),
    "flat-eigtuples": ("check", '{"groups": [[0], [1]], "eigtuples": [1.0, 2.0]}',
                       "  {path}: INVALID (need one eigenvalue tuple per subspace: "
                       "got 1 for 2 blocks)\n"),
    "empty-eigtuples": ("check", '{"groups": [[0], [1]], "eigtuples": []}',
                        "  {path}: INVALID (need one eigenvalue tuple per subspace: "
                        "got 1 for 2 blocks)\n"),
    "trailing-eigtuples": ("check", '{"groups": [[0], [1]], "eigtuples": [[1.0], [2.0],]}',
                           "  {path}: INVALID (1:51: invalid JSON: Expecting value)\n"),
    "string-weight": ("refine", '{"kind": "constant", "weights": [1, "1"]}',
                      "error: {path}: 'weights' takes finite JSON numbers only, got [1, '1']\n"),
    "true-weight": ("refine", '{"kind": "constant", "weights": [1, true]}',
                    "error: {path}: 'weights' takes finite JSON numbers only, got [1, True]\n"),
    "empty-weights": ("refine", '{"kind": "constant", "weights": []}',
                      "error: {path}: weight vector must be non-empty\n"),
    "trailing-weights": ("refine", '{"kind": "constant", "weights": [1, 1,]}',
                         "error: {path}:1:39: invalid JSON: Expecting value\n"),
    "nan-p": ("dfd", '{"kind": "explicit", "members": [{"n": 2, "p": [0.5, NaN]}]}',
              "error: {path}: 'p' takes finite JSON numbers only, got [0.5, nan]\n"),
    "empty-p": ("dfd", '{"kind": "explicit", "members": [{"n": 2, "p": []}]}',
                "error: {path}: probability vector must be non-empty\n"),
    "trailing-p": ("dfd", '{"kind": "explicit", "members": [{"n": 2, "p": [0.5, 0.5,]}]}',
                   "error: {path}:1:58: invalid JSON: Expecting value\n"),
    "empty-members": ("dfd", '{"kind": "explicit", "members": []}',
                      "error: need at least 3 family members to fit a slope\n"),
    "trailing-members": ("dfd", '{"kind": "explicit", "members": [{"n": 2, "p": [0.5, 0.5]},]}',
                         "error: {path}:1:60: invalid JSON: Expecting value\n"),
    "number-member": ("dfd", '{"kind": "explicit", "members": [{"n": 2, "p": [0.5, 0.5]}, 3]}',
                      "error: {path}: missing required key 'n'\n"),
}


@pytest.mark.parametrize("run_chars", [4, decode.RUN_CHARS])
@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_listed_numbers_are_refused_as_before(tmp_path, capsys, case, run_chars):
    command, text, ending = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    with mock.patch.object(decode, "RUN_CHARS", run_chars):
        assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.endswith(ending.format(path=path))


@pytest.mark.parametrize("member", ["weights", "eigtuples"])
def test_a_long_list_of_numbers_peaks_at_about_its_array(tmp_path, member):
    # decoded whole by json.loads from the whole text, 2^18 weights peaked at 6.7
    # times their array and 2^18 one-number labels at 17.9 times
    n = 2**18
    values = np.random.default_rng(14).random(n)
    listed = values.tolist() if member == "weights" else values[:, None].tolist()
    path, small = tmp_path / "long.json", tmp_path / "small.json"
    path.write_text(json.dumps({member: listed}))
    small.write_text(json.dumps({member: listed[:4]}))
    peak = _read_peak(io._load_json, path, small)
    assert peak < 1.5 * 8 * n, peak / (8 * n)
