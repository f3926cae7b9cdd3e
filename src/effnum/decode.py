"""The decoder of JSON input files: a document's large lists, decoded a
run of items at a time into arrays.

``_walk`` reads an open file through a window (``_Window``) and decodes
each list that ``MEMBERS`` names -- a state's "amps", a grid's "values", a
density's or a basis's "rows", a decomposition's "groups" and
"eigtuples", a constant problem's "weights" and each "p" of a family's
"members" -- a run of items at a time into one array (two for "groups":
their indices and sizes), so neither the file's whole text nor a tree of
Python lists of a whole list exists at once.  The window is read
``WINDOW_CHARS`` at a time, and a run of flat items is cut at about
``RUN_CHARS``, a quarter of that: a run's copy in brackets and its Python
lists, about 10 times its text, are what a decode holds beyond its
arrays, while a larger read costs fewer calls.  It gives up, returning
None, on any document it cannot read so, which ``io._load_json`` then
reads with ``json.loads``.  ``_number_array`` reads numbers in nested
lists for it and for the readers of ``effnum.io``.
"""

from __future__ import annotations

import json
import math
import os
import re
from functools import partial
from itertools import chain
from typing import Any, Callable

import numpy as np

from .errors import InvalidInput
from .states import DEFAULT_DIM_CAP, Blocks, _check_dim_cap

_decode = json.JSONDecoder().raw_decode
_space = json.decoder.WHITESPACE.match
_item_end = re.compile(r"[,\]]").search
WINDOW_CHARS = 1 << 16  # the window is read this many characters at a time
RUN_CHARS = 1 << 14  # a run of flat items is cut at about this many characters
# Largest input file read: the largest document the caps accept is a density
# of DEFAULT_DIM_CAP**2 entries, each at most 54 characters at 17 significant
# digits ("[-1.2345678901234567e-05, -1.2345678901234567e-05], "), 0.9 GB.
MAX_FILE_BYTES = 64 * DEFAULT_DIM_CAP**2


class _Window:
    """An open text file read forward: ``text`` holds what has been read and
    not yet dropped, ``start`` is the offset of its first character in the
    file, and ``ended`` says whether ``text`` runs to the end of the file.
    A file above ``MAX_FILE_BYTES`` raises InvalidInput before any of it is
    read."""

    def __init__(self, file):
        self.file, self.text, self.start, self.ended = file, "", 0, False
        try:
            size = os.fstat(file.fileno()).st_size
        except OSError:  # a file in memory has no descriptor
            size = 0
        if size > MAX_FILE_BYTES:
            raise InvalidInput(f"{size} bytes exceed the file cap {MAX_FILE_BYTES}")

    def take(self, parse: Callable, i: int, size: int = -1, need: int = 0) -> tuple[Any, int]:
        """(value, index of the first non-space character after it) for
        ``parse(text, i) -> (value, end)``, once the value and that character
        lie in the window or the window runs to the end of the file.  Until
        then ``text[:i]`` is dropped and more is read: as much as the window
        keeps, and at least ``size``, so that a parse retried holds at least
        twice the text it failed on; or the rest of the file if ``size`` is
        -1.  Nor is ``parse`` tried before the window holds more than
        ``need`` characters from ``text[i]``, the length a value is expected
        to have.  At the end of the file, parse's ValueError propagates."""
        while True:
            try:
                if len(self.text) - i > need or self.ended:
                    value, end = parse(self.text, i)
                    end = _space(self.text, end).end()
                    if end < len(self.text) or self.ended:
                        return value, end
            except ValueError:  # a JSONDecodeError, or a member cut short
                if self.ended:
                    raise
            kept = self.text[i:]
            self._read(kept, size if size < 0 else max(size, len(kept)))
            i = 0

    def _read(self, kept: str, size: int) -> None:
        """Make the window ``kept`` and ``size`` more characters, read at
        once, or the rest of the file if ``size`` is -1.  The old window is
        freed first."""
        self.start += len(self.text) - len(kept)
        self.text = ""
        more = self.file.read(size)
        self.text, self.ended = kept + more, size < 0 or len(more) < size


def _value(text: str, i: int) -> tuple[Any, int]:
    """The JSON value at the first non-space character from ``text[i]``."""
    return _decode(text, _space(text, i).end())


def _key(text: str, i: int) -> tuple[str, int]:
    """(key, the index after its colon) of the object member whose key is at
    the first non-space character from ``text[i]``."""
    i = _space(text, i).end()
    if not text.startswith('"', i):
        raise ValueError("not a key")
    key, i = json.decoder.scanstring(text, i + 1)
    i = _space(text, i).end()
    if not text.startswith(":", i):
        raise ValueError("not a key")
    return key, i + 1


def _nothing(text: str, i: int) -> tuple[None, int]:
    return None, i


def _walk(window: _Window) -> dict | None:
    """The JSON object the ``window``'s file holds, decoded by ``_object``,
    so that neither the lists of a large member nor the file's whole text
    exist at once.  None for any other file or on any doubt: not a
    non-empty object, invalid JSON, trailing data, or a list ``_items``
    refuses.  A density whose "dim", met before its "rows", exceeds
    ``DEFAULT_DIM_CAP`` raises InvalidInput before any row is decoded."""
    try:
        i = window.take(_nothing, 0, WINDOW_CHARS)[1]
        doc, i = _object(window, i, MEMBERS)
        return doc if i == len(window.text) else None
    except InvalidInput:  # a declared size above its cap
        raise
    # a JSONDecodeError, an integer too long to convert or too large for an
    # index, a UnicodeDecodeError, or a list _items refuses
    except (ValueError, OverflowError, RecursionError):
        return None


def _object(window: _Window, i: int, members: dict) -> tuple[dict, int]:
    """(the object at ``window.text[i]``, the index of the first non-space
    character after it), decoded member by member: a member ``members``
    names is a list decoded by ``_items``, an object decoded by ``_object``
    with the table it gives, or a list of such objects (a one-table list),
    and any other is decoded at once,
    reading the rest of the file if it runs past the window.  No reader
    quotes such a list in an error message."""
    if not window.text.startswith("{", i):
        raise ValueError("not an object")
    doc = {}
    while True:  # window.text[i] is the "{" or "," before a member
        key, i = window.take(_key, i + 1, WINDOW_CHARS)
        how = members.get(key)
        if key == "rows" and members is MEMBERS and type(dim := doc.get("dim")) is int:
            _check_dim_cap(dim, "density matrix")  # a declared size, checked before any row
        if isinstance(how, dict) and window.text.startswith("{", i):
            value, i = _object(window, i, how)
        elif isinstance(how, list) and window.text.startswith("[", i):
            value, i = _objects(window, i, *how)
        elif isinstance(how, tuple):
            value, i = _items(window, i, *how)
        else:
            value, i = window.take(_value, i)
        doc[key] = value  # a repeated key keeps its first place and last value
        if not window.text.startswith(",", i):
            break
    if not window.text.startswith("}", i):
        raise ValueError("not an object")
    return doc, window.take(_nothing, i + 1, WINDOW_CHARS)[1]


def _objects(window: _Window, i: int, members: dict) -> tuple[list, int]:
    """(the list of objects at ``window.text[i]``, the index of the first
    non-space character after it), each object decoded by ``_object`` with
    the table ``members``.  ValueError for an empty list or any item that
    is not an object."""
    docs = []
    while True:  # window.text[i] is the "[" or "," before an object
        doc, i = _object(window, window.take(_nothing, i + 1, WINDOW_CHARS)[1], members)
        docs.append(doc)
        if not window.text.startswith(",", i):
            break
    if not window.text.startswith("]", i):
        raise ValueError("not a list of objects")
    return docs, window.take(_nothing, i + 1, WINDOW_CHARS)[1]


def _run(text: str, i: int, depth: int) -> tuple[list, int]:
    """(the next items, the index after them) of the list of items nested
    ``depth`` deep whose "[" or "," before an item is ``text[i]``.  A row
    of pairs (depth 2) is long enough to be a run by itself and is decoded
    where it lies.  Flat items are cut within ``RUN_CHARS``, or after the
    first item if it is longer: plain numbers (depth 0) at the list's own
    "]" or else at the last ",", lists of numbers or indices (depth 1) at
    the last "]".  The items are decoded by one ``raw_decode`` of their
    text in brackets; a cut in the wrong place, in a string say, fails the
    decode or the readers' checks.  If the list's own "]" closes them, the
    index is that of the "]".  ValueError if no item ends in the window
    (for lists, before its last character)."""
    if depth == 2:
        row, end = _value(text, i + 1)
        return [row], end
    i += 1
    if depth == 0:
        stop = min(len(text), i + RUN_CHARS)
        cut = text.find("]", i, stop)
        cut = cut if cut >= 0 else text.rfind(",", i, stop)
        if cut < 0 and (after := _item_end(text, stop)):  # one number longer than a run
            cut = after.start()
    else:
        last = len(text) - 1
        cut = text.rfind("]", i, min(last, i + RUN_CHARS)) + 1 or text.find("]", i, last) + 1
    if cut <= 0:
        raise ValueError("no item ends in the window")
    run = "[" + text[i:cut] + "]"
    items, end = _decode(run)
    return items, (cut if end == len(run) else i + end - 2)


def _numbers(items: list) -> tuple[np.ndarray]:
    """A run of items as one float array, read by ``_number_array``."""
    arr = _number_array(items)
    if arr is None:
        raise ValueError("not finite JSON numbers in rectangular lists")
    return (arr,)


def _indices(items: list) -> tuple[np.ndarray, np.ndarray]:
    """A run of lists of JSON integers as (their entries, their lengths)."""
    flat = list(chain.from_iterable(items)) if set(map(type, items)) == {list} else [None]
    if not set(map(type, flat)) <= {int}:  # bool is no JSON integer
        raise ValueError("not lists of JSON integers")
    # beyond the platform's integer range, np.array raises OverflowError
    return np.array(flat, np.intp), np.fromiter(map(len, items), np.intp, len(items))


class _Pile:
    """Runs of equal-shaped items written one after another into one array,
    first sized for its first run or for ``expect`` items, if more, and
    grown by a quarter when a run overflows it; ``array`` cuts it to the
    items written.  No reader takes a row of more than 2 x
    ``DEFAULT_DIM_CAP`` numbers (a row wider than the cap), so items of
    more than ``bound`` numbers are counted, not kept: ``array`` is then a
    read-only zero array of their shape, which holds no memory."""

    def __init__(self, run: np.ndarray, expect: int, bound: float = math.inf):
        self.shape, self.count = run.shape[1:], 0
        self.kept = math.prod(self.shape) <= bound
        if self.kept:
            self.arr = np.empty((max(expect, len(run)), *self.shape), run.dtype)

    def add(self, run: np.ndarray) -> None:
        if run.shape[1:] != self.shape:
            raise ValueError("items of unequal shape")
        end = self.count + len(run)
        if self.kept:
            if end > len(self.arr):  # no view of arr exists, so it may move
                self.arr.resize((max(end, len(self.arr) * 5 // 4), *self.shape), refcheck=False)
            self.arr[self.count:end] = run
        self.count = end

    def array(self) -> np.ndarray:
        if not self.kept:
            return np.broadcast_to(np.zeros(self.shape), (self.count, *self.shape))
        self.arr.resize((self.count, *self.shape), refcheck=False)
        return self.arr


def _items(window: _Window, i: int, depth: int, convert: Callable,
           build: Callable | None = None) -> tuple[Any, int]:
    """(the list at ``window.text[i]``, the index of the first non-space
    character after it) for a list of items nested ``depth`` deep: decoded
    a run at a time (``_run``), each run turned into arrays by ``convert``
    and written into one ``_Pile`` per array, so the list never exists as
    Python objects.  The list is ``build(*arrays)``, or the one array.

    A list of rows is a matrix: its first row's width N sizes it for N
    rows, and the readers check its shape.  Any other list is first sized
    by its first run, and grows as more runs are read.  ValueError for an
    empty list, a trailing comma, items ``convert`` refuses or items of
    unequal shape."""
    if not window.text.startswith("[", i):
        raise ValueError("not a list")
    piles, need = None, 0
    while True:  # window.text[i] is the "[" or "," before a run
        before = window.start + i
        items, i = window.take(partial(_run, depth=depth), i, WINDOW_CHARS, need)
        if depth == 2:  # a row is decoded once the window holds the last row's length
            need = window.start + i - before
        if not items:
            raise ValueError("an empty list, or a comma before its end")
        runs = convert(items)
        if piles is None:
            width = runs[0].shape[1] if depth == 2 and runs[0].ndim > 1 else 0
            bound = 2 * DEFAULT_DIM_CAP if depth == 2 else math.inf
            piles = [_Pile(run, width, bound) for run in runs]
        for pile, run in zip(piles, runs):
            pile.add(run)
        if not window.text.startswith(",", i):
            break
    if not window.text.startswith("]", i):
        raise ValueError("not a list of items")
    arrays = [pile.array() for pile in piles]
    return (build(*arrays) if build else arrays[0]), window.take(_nothing, i + 1, WINDOW_CHARS)[1]


# The members ``_walk`` decodes as lists of items, by key: (depth, convert,
# build) for ``_items``, the table of an object one level down, or that
# table in a list for a list of such objects.  Depth 0 is a list of plain
# numbers, 1 a list of lists of numbers or indices, each cut into runs of
# about RUN_CHARS, and 2 a list of matrix rows, one run per row.  Runs are
# smaller than the WINDOW_CHARS read, so that a run's copy and lists stay
# a fraction of the window's text.
MEMBERS = {
    "amps": (1, _numbers),
    "values": (1, _numbers),
    "rows": (2, _numbers),
    "groups": (1, _indices, Blocks),
    "eigtuples": (1, _numbers),
    "weights": (0, _numbers),
    "basis": {"rows": (2, _numbers)},
    "members": [{"p": (0, _numbers)}],
}


def _number_array(value) -> np.ndarray | None:
    """``value`` as a float array if it is a finite JSON number or rectangular
    lists, nested to any depth, of them; otherwise None.  It reads a small
    member, or one run of a large list's items for ``_walk``.

    One pass per nesting level, each over a flat list: ``set(map(...))``
    checks the types and the lengths and ``np.fromiter`` converts, so
    nothing recurses and numpy never walks nested lists.  A string, a
    boolean, null, a ragged list, an integer beyond float range, NaN or
    Infinity (which Python's decoder accepts but JSON does not) gives None.
    """
    if isinstance(value, np.ndarray):  # a list that _walk has decoded
        return value
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
        arr = np.fromiter(level, float, len(level)).reshape(shape)
    except (OverflowError, ValueError):  # beyond float range; more dimensions than numpy allows
        return None
    return arr if np.isfinite(arr).all() else None
