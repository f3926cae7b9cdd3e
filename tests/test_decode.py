"""The streamed decode of a density's "rows" against ``json.loads``.

``io._load_json`` reads the open file through a window and a top-level
"rows" member one row at a time (``io._walk``), and leaves every other
document to ``json.loads``.  The differential test writes density documents
in many textual forms, valid and corrupt, and reads each twice: as
``_load_json`` does, and with the walk switched off, so that ``json.loads``
decodes the whole document as before.
"""

from __future__ import annotations

import gc
import json
import tempfile
import tracemalloc
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effnum import io
from effnum.cli import main
from effnum.errors import InvalidInput
from effnum.states import DEFAULT_DIM_CAP

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
def documents(draw) -> str:
    """The text of a density document: its members in any order, some
    repeated or extra, sometimes not an object, truncated or with data
    after it."""
    members = [('"dim"', draw(st.sampled_from(["2", "2.0", "-0", "3", '"2"']))),
               ('"rows"', draw(matrices()))]
    extras = [('"rows"', draw(matrices())), ('"\\u0072ows"', draw(matrices())),
              ('"rows"', '"x"'), ('"rows"', "{}"), ('"dim"', "1"), ('"note"', '"rows"'),
              ('"amps"', [["1", "0"]]), ('"basis"', (('"rows"', draw(matrices())),)),
              ('""', "null")]
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


def _outcome(path):
    """What the readers see of the file: each member, "rows" read by
    ``_number_array``, and ``_density``'s matrix; or the InvalidInput text."""
    try:
        doc = io._load_json(path)
    except InvalidInput as exc:
        return str(exc)
    if not isinstance(doc, dict):
        return repr(doc)
    members = [(k, _bits(io._number_array(v)) if k == "rows" else repr(v))
               for k, v in doc.items()]
    try:
        matrix = _bits(io._density(doc))
    except InvalidInput as exc:
        matrix = str(exc)
    return members, matrix


def _bits(arr):
    return None if arr is None else (arr.dtype.str, arr.shape, arr.tobytes())


def _crossing(rows: str) -> str:
    """A density document whose "rows" text, ``rows``, starts 19 characters in."""
    return '{"dim": 2, "rows": ' + rows + "}"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(documents())
@example('{"dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]}}')  # "rows" closed by "}"
@example('{"rows": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]}, "dim": 2}')
# the head window ends inside the first row's 0.123456: the row reads ROW_CHARS more
@example(_crossing(" " * (io.HEAD_CHARS - 26) + '[[[0.123456, 0], [0, 0]], [[0, 0], [0, 0]]]'))
# a row ends where the head window does: its lookahead reads ROW_CHARS more
@example(_crossing(" " * (io.HEAD_CHARS - 36) + '[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]'))
# a row runs past the head window and ROW_CHARS more: it reads the rest
@example(_crossing('[[[0.5, 0], [0, 0]],' + " " * (io.HEAD_CHARS + io.ROW_CHARS) + '[[0, 0], [0.5, 0]]]'))
# a member other than "rows" runs past the head window: it reads the rest
@example('{"note": "' + "x" * io.HEAD_CHARS + '", "dim": 2, "rows": [[[1, 0], [0, 0]], '
         '[[0, 0], [0, 0]]]}')
# data after a document whose rows were read past the head window
@example(_crossing(" " * io.HEAD_CHARS + '[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]') + "x")
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
    doc = io._walk(io._Window(StringIO(text)))
    assert list(doc) == ["dim", "rows"] and isinstance(doc["rows"], np.ndarray)
    assert io._number_array(doc["rows"]) is doc["rows"]
    assert doc["rows"].tobytes() == io._number_array(json.loads(text)["rows"]).tobytes()


class _Recording(StringIO):
    """Text in memory that records the size asked for by each read."""

    def __init__(self, text: str):
        super().__init__(text)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


def test_rows_are_read_in_pieces_and_any_other_member_at_once():
    rows = _Recording(_density_text(128, 1))  # 0.8 MB
    assert isinstance(io._walk(io._Window(rows))["rows"], np.ndarray)
    assert set(rows.sizes) == {io.HEAD_CHARS}  # never the rest of the file at once
    n = 2**14
    amps = _Recording(json.dumps({"dim": n, "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * (n - 1)}))
    assert io._walk(io._Window(amps))["dim"] == n
    assert amps.sizes == [io.HEAD_CHARS, -1]  # "amps" ran past the head: the rest, once


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
    # Hermiticity check, the solve and the stored copy, it peaked at 3.03 times
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
    assert peak < 1.7 * 16 * n * n, peak / (16 * n * n)


def _pairs(*widths) -> list:
    """Rows of [re, im] pairs of the given widths, 0.5 on the diagonal."""
    return [[[0.5 if i == j else 0, 0] for j in range(w)] for i, w in enumerate(widths)]


# Rows that are not N rows of N pairs: ``_rows`` refuses them, and
# ``json.loads`` reads the file; (dim, rows, the error message).
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
    assert io._walk(io._Window(StringIO(text))) is None
    path = tmp_path / "rho.json"
    path.write_text(text)
    _refused_as_before(path, message, capsys)


def test_rows_wider_than_the_cap_are_read_by_their_shape(tmp_path, capsys):
    wide = DEFAULT_DIM_CAP + 1
    text = json.dumps({"dim": wide, "rows": _pairs(wide, wide)})
    tracemalloc.start()
    try:
        rows = io._walk(io._Window(StringIO(text)))["rows"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (2, wide, 2) and not rows.any() and not rows.flags.writeable
    assert peak < 2**20 + 8 * len(text)  # no matrix, only a few rows' worth
    path = tmp_path / "rho.json"
    path.write_text(text)
    _refused_as_before(path, f"expected a {wide}x{wide} matrix, got shape (2, {wide})", capsys)
