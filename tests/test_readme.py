"""The README's library quick start runs, and prints what its comments say.

Each expression statement commented with a number, or with ``log`` and a
number, must evaluate to that value within 1e-12; so a change that
renames or removes a name the quick start uses fails here.
"""

import ast
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
VALUE_COMMENT = re.compile(r"#\s*(log )?(\d+\.\d+)")


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_matches_its_comments():
    source = quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = VALUE_COMMENT.search(lines[stmt.end_lineno - 1])
        if comment:
            log, number = comment.groups()
            expected = math.log(float(number)) if log else float(number)
            assert abs(value - expected) <= 1e-12, (lines[stmt.end_lineno - 1], value)
            checked.append(comment.group(0).lstrip("# "))
    assert checked == ["2.5", "log 2.5", "2.0", "2.0"]
