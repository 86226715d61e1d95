"""`svg` refuses a figure it cannot draw before it renders any of it."""

import numpy as np
import pytest

from gravkick import svg


def test_line_plot_needs_a_curve():
    with pytest.raises(ValueError, match="^need at least one curve$"):
        svg.line_plot([], title="t", xlabel="x", ylabel="y")


def test_heatmap_refuses_values_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"^z must have shape \(2, 3\), got \(3, 2\)$"):
        svg.heatmap(np.arange(2.0), np.arange(3.0), np.zeros((3, 2)), title="t", xlabel="x",
                    ylabel="y")
