"""`output.table_csv` against a per-row reference that formats each cell by its Python type."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gravkick.output import table_csv

# zeros, the least subnormal and normal doubles, and the top of the range
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            1.7976931348623157e308]
COLUMN_KINDS = {
    "float64": st.one_of(st.floats(width=64), st.sampled_from(EXTREMES)),
    "int64": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "bool": st.booleans(),
}


def reference_csv(header: str, columns: list[np.ndarray], float_format: str) -> str:
    """One line per row, its cells formatted one by one: "%d" for an int or bool, else
    `float_format`."""
    lines = [header]
    for i in range(len(columns[0])):
        cells = [column[i].item() for column in columns]
        lines.append(",".join(("%d" if isinstance(cell, int) else float_format) % cell
                              for cell in cells))
    return "".join(line + "\n" for line in lines)


@st.composite
def tables(draw):
    rows = draw(st.integers(min_value=0, max_value=12))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5))
    return [np.array(draw(st.lists(COLUMN_KINDS[kind], min_size=rows, max_size=rows)), dtype=kind)
            for kind in kinds]


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from(["%.8e", "%r"]))
def test_table_csv_matches_the_per_row_reference(columns, float_format):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    assert table_csv(header, columns, float_format) == reference_csv(header, columns, float_format)


def test_default_float_format_is_nine_significant_digits():
    columns = [np.array([0.1, -0.0]), np.array([3, -4]), np.array([True, False])]
    assert table_csv("x,n,flag", columns) == "x,n,flag\n1.00000000e-01,3,1\n-0.00000000e+00,-4,0\n"
