"""CSV formatting conventions and atomic file writes.

All tabular output is UTF-8 with newline-terminated rows under a header line.  Table
floats are in scientific notation with 9 significant digits, except in wavefunction.csv:
it opens with a `# units=..., W=...` line and writes floats as %r, up to 17 significant
digits.  summary.csv values may also be text, integers or n/a.  Files land via temp
file + rename so a crashed run never leaves a half-written bundle member.
"""

from __future__ import annotations

import os


def format_value(value: object) -> str:
    """CSV cell: floats in 9-significant-digit scientific form, None as n/a."""
    if value is None:
        return "n/a"
    if isinstance(value, int):  # bool included, written as 0 or 1
        return str(int(value))
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
    """Write `text` to `path` atomically (same-directory temp file + rename).

    The temp file is created as open() creates a file: the kernel gives it 0o666 less
    the umask, and the umask is never changed."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_bundle(out_dir: str, files: dict[str, str]) -> None:
    """Write a fully materialized bundle; content is built before any I/O."""
    for name, text in files.items():
        write_text_atomic(os.path.join(out_dir, name), text)
