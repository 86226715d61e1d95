"""CSV formatting conventions and atomic file writes.

All tabular output is UTF-8, newline-terminated rows, mandatory header,
scientific notation with 9 significant digits.  Files land via temp file +
rename so a crashed run never leaves a half-written bundle member.
"""

from __future__ import annotations

import os
import tempfile


def format_value(value: object) -> str:
    """CSV cell: floats in 9-significant-digit scientific form, None as n/a."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.8e}"
    return str(value)


def table_csv(header: str, row_format: str, rows) -> str:
    """The header line, then `row_format % row` for each row, newline-terminated."""
    lines = [header]
    lines.extend(row_format % row for row in rows)
    return "\n".join(lines) + "\n"


def summary_csv(rows: list[tuple[str, object]]) -> str:
    return table_csv("quantity,value", "%s,%s",
                     ((name, format_value(value)) for name, value in rows))


def write_text_atomic(path: str, text: str) -> None:
    """Write `text` to `path` atomically (same-directory temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_bundle(out_dir: str, files: dict[str, str]) -> list[str]:
    """Write a fully materialized bundle; content is built before any I/O."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        write_text_atomic(path, text)
        written.append(path)
    return written
