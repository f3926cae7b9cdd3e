"""Fuzz of the command line: mutated input documents and arguments.

Each example takes one command from ``expected.json`` (or ``check``),
writes its fixture documents to a temporary directory with mutations
applied to nodes of each (a string, a boolean, null, NaN, an integer
beyond float range, a ragged list, an extra level of nesting, ...), varies
its arguments, and runs ``main()``.  One test mutates at most one node
per document, the other two or three, so that a check that passes one
broken field is not the only one reached.  The exit code must be one of the
documented ones, 0, 2, 3 or 4, and no exception may escape.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from effnum.cli import main

from conftest import FIXTURES

EXIT_CODES = {0, 2, 3, 4}


def _commands() -> list[list[str]]:
    distinct = []
    for entry in json.loads((FIXTURES / "expected.json").read_text()):
        if entry["args"] not in distinct:
            distinct.append(entry["args"])
    return distinct + [["check", "state_bell.json", "dec_pairs4.json", "grid_halfbox.json",
                        "problem_gaussian.json", "family_explicit.json"]]


COMMANDS = _commands()

# Replacements for a node: every JSON type, the non-JSON constants Python's
# decoder accepts, integers beyond int64 and float range, and empty or
# ragged lists.  Each draw is a copy, so a later mutation of the same
# document cannot change the list itself.
ATOMS = st.sampled_from([
    "x", "0.5", "", True, False, None, math.nan, math.inf, -math.inf,
    0, 1, -1, 2, 0.5, -0.5, 1e300, 5e-324, 2**63, -(2**63) - 1, 10**400, -(10**400),
    [], [[]], [1, [2]], [[1.0, 0.0], [1.0]], {}, {"kind": "explicit"},
]).map(copy.deepcopy)

# Argument values: valid ones and each kind of invalid one.  Large level
# and trial counts are rejected before anything is built.
OPTIONS = {
    "--cf": ["star", "alpha=0.5", "alpha=2", "alpha=0", "alpha=-1", "alpha=nan",
             "alpha=inf", "alpha=", "beta"],
    "--format": ["table", "csv", "json"],
    "--levels": ["-1", "0", "2", "3", "5", "1100", str(10**9), str(10**400), "x"],
    "--trials": ["0", "-5", "150", "100,200", str(2**24 + 1), str(10**20), "abc", ""],
    "--seed": ["-1", "0", "7", str(2**64), "x"],
    "--dims": ["2x2", "1x4", "4x1", "0x4", "3x3", "2x2x1", "x"],
    "--log-base": ["e", "2", "10", "1", "0.5", "-2", "nan", "abc"],
}
APPLIES = {"--levels": "refine", "--trials": "simulate", "--seed": "simulate",
           "--dims": "entangle", "--log-base": "qnum"}


def _nodes(doc, path=()):
    """Paths to every node of a JSON document, the root included."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(doc, path, op: str, atom):
    if not path:
        return atom if op == "replace" else [doc]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    if op == "replace":
        parent[key] = atom
    elif op == "nest":
        parent[key] = [node]
    elif op == "truncate" and isinstance(node, (list, dict)) and node:
        node.pop(next(iter(node)) if isinstance(node, dict) else -1)
    elif op == "extend" and isinstance(node, list):
        node.append(node[0] if node else atom)
    else:
        del parent[key]
    return doc


@st.composite
def jobs(draw, mutations=st.integers(0, 1)):
    """(argv, {file name: document}) with ``mutations`` nodes of each
    document mutated."""
    args = list(draw(st.sampled_from(COMMANDS)))
    files = {}
    for i, arg in enumerate(args):
        if arg.endswith(".json"):
            doc = json.loads((FIXTURES / arg).read_text())
            for _ in range(draw(mutations)):
                path = draw(st.sampled_from(list(_nodes(doc))))
                op = draw(st.sampled_from(["replace", "replace", "nest", "truncate",
                                           "extend", "delete"]))
                doc = _mutate(doc, path, op, draw(ATOMS))
            files[f"doc{i}.json"] = doc
            args[i] = f"doc{i}.json"
    for option, values in OPTIONS.items():
        if APPLIES.get(option, args[0]) == args[0] and draw(st.booleans()):
            if option in args:
                args[args.index(option) + 1] = draw(st.sampled_from(values))
            else:
                args += [option, draw(st.sampled_from(values))]
    return args, files


def _run(job) -> None:
    args, files = job
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            (Path(tmp) / name).write_text(json.dumps(doc))
        argv = [str(Path(tmp) / a) if a in files else a for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects an option value with exit 2
                code = exc.code
    assert code in EXIT_CODES, (argv, files, err.getvalue())
    if code:
        assert err.getvalue().count("error:") >= 1, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(jobs())
def test_main_keeps_the_exit_code_contract(job):
    _run(job)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(jobs(mutations=st.integers(2, 3)))
def test_main_keeps_the_exit_code_contract_with_several_mutations(job):
    _run(job)
