"""`output.py` is the package's only file writer.

Its atomic temp-file + rename is what keeps a crashed run from leaving a
half-written bundle member, so no other module may open a file for writing.
"""

import ast
from pathlib import Path

import pytest

import gravkick

PACKAGE = Path(gravkick.__file__).resolve().parent
WRITER = "output.py"


def _mode(call: ast.Call) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return call.args[1] if len(call.args) > 1 else None


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    is_open = isinstance(func, ast.Name) and func.id == "open"
    is_fdopen = (isinstance(func, ast.Attribute) and func.attr == "fdopen"
                 and isinstance(func.value, ast.Name) and func.value.id == "os")
    if not (is_open or is_fdopen):
        return False
    mode = _mode(call)
    if mode is None:
        return False  # both default to "r"
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a computed mode cannot be shown to be read-only
    return any(flag in mode.value for flag in "wax+")


def file_writes(source: str) -> list[int]:
    """Line numbers of the calls in `source` that open a file for writing."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _writes(node)]


@pytest.mark.parametrize("source, expected", [
    ('open(p, "w", encoding="utf-8")', [1]),
    ('open(p, mode="a")', [1]),
    ('open(p, "r+")', [1]),
    ('os.fdopen(fd, "x")', [1]),
    ("Path(p).write_text(t)", [1]),
    ("p.write_bytes(b)", [1]),
    ("open(p, m)", [1]),
    ('open(p)\nopen(p, "r")\nopen(p, "rb")\nfh.write(t)', []),
])
def test_detector(source, expected):
    assert file_writes(source) == expected


def test_only_output_writes_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert file_writes((PACKAGE / WRITER).read_text(encoding="utf-8"))  # the detector sees it
    writers = {path.name: lines for path in modules if path.name != WRITER
               if (lines := file_writes(path.read_text(encoding="utf-8")))}
    assert writers == {}, f"modules other than {WRITER} open files for writing: {writers}"
