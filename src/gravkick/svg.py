"""Minimal standalone SVG emission for curves and heatmaps.

Hand-rolled on purpose: the plots must be byte-reproducible and assertable
structurally (polyline counts, bounding box) without a plotting stack.
"""

from __future__ import annotations

import numpy as np

CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48
_WIDTH, _LINE_PLOT_HEIGHT, _HEATMAP_HEIGHT = 720, 480, 540
_PLOT_W = _WIDTH - _MARGIN_L - _MARGIN_R


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _page(page_height: int, title: str, xlabel: str, ylabel: str,
          plot: list[str], legend: list[str]) -> str:
    """Standalone SVG: white page and title, `plot`, the axis labels, then `legend`."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{page_height}" '
        f'viewBox="0 0 {_WIDTH} {page_height}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{page_height}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        *plot,
        f'<text x="{_WIDTH / 2:.1f}" y="{page_height - 10}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="16" y="{page_height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {page_height / 2:.1f})">{ylabel}</text>',
        *legend,
        "</svg>",
    ]) + "\n"


def line_plot(
    curves: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labeled (x, y) curves as polylines in a standalone SVG."""
    if not curves:
        raise ValueError("need at least one curve")
    x_lo = min(float(np.min(x)) for _, x, _ in curves)
    x_hi = max(float(np.max(x)) for _, x, _ in curves)
    y_lo = min(float(np.min(y)) for _, _, y in curves)
    y_hi = max(float(np.max(y)) for _, _, y in curves)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    height = _LINE_PLOT_HEIGHT
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * _PLOT_W

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    # axes box
    plot = [
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_PLOT_W}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    ]
    for tx in _ticks(x_lo, x_hi):
        plot.append(
            f'<text x="{px(tx):.1f}" y="{height - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        plot.append(
            f'<text x="{_MARGIN_L - 6}" y="{py(ty) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{_fmt(ty)}</text>'
        )
    if y_lo < 0 < y_hi:
        plot.append(
            f'<line x1="{_MARGIN_L}" y1="{py(0.0):.1f}" x2="{_MARGIN_L + _PLOT_W}" '
            f'y2="{py(0.0):.1f}" stroke="#bbb" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    legend = []
    for i, (label, x, y) in enumerate(curves):
        color = CURVE_COLORS[i % len(CURVE_COLORS)]
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(x, y))
        legend.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        legend.append(
            f'<text x="{_WIDTH - _MARGIN_R - 8}" y="{_MARGIN_T + 16 + 16 * i}" '
            f'text-anchor="end" font-size="12" fill="{color}">{label}</text>'
        )
    return _page(height, title, xlabel, ylabel, plot, legend)


def _ramp(t: float) -> str:
    """Three-stop color ramp (dark blue -> white -> dark red), t in [0, 1]."""
    stops = ((33, 58, 138), (247, 247, 247), (146, 21, 25))
    if t <= 0.5:
        a, b, u = stops[0], stops[1], t * 2.0
    else:
        a, b, u = stops[1], stops[2], t * 2.0 - 1.0
    rgb = tuple(round(ca + (cb - ca) * u) for ca, cb in zip(a, b))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def heatmap(
    x_values: np.ndarray,
    y_values: np.ndarray,
    z: np.ndarray,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Cell-per-value heatmap of z[i, j] over (x_values[i], y_values[j])."""
    nx, ny = len(x_values), len(y_values)
    if z.shape != (nx, ny):
        raise ValueError(f"z must have shape ({nx}, {ny}), got {z.shape}")
    z_lo, z_hi = float(np.min(z)), float(np.max(z))
    scale = (z_hi - z_lo) or 1.0

    height = _HEATMAP_HEIGHT
    cell_w = _PLOT_W / nx
    cell_h = (height - _MARGIN_T - _MARGIN_B) / ny

    plot = []
    for i in range(nx):
        for j in range(ny):
            t = (float(z[i, j]) - z_lo) / scale
            cx = _MARGIN_L + i * cell_w
            cy = _MARGIN_T + (ny - 1 - j) * cell_h
            plot.append(
                f'<rect x="{cx:.2f}" y="{cy:.2f}" width="{cell_w:.2f}" height="{cell_h:.2f}" '
                f'fill="{_ramp(t)}"/>'
            )
    for i in (0, nx - 1):
        plot.append(
            f'<text x="{_MARGIN_L + (i + 0.5) * cell_w:.1f}" y="{height - _MARGIN_B + 18}" '
            f'text-anchor="middle" font-size="11">{x_values[i]:.3g}</text>'
        )
    for j in (0, ny - 1):
        plot.append(
            f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + (ny - 0.5 - j) * cell_h:.1f}" '
            f'text-anchor="end" font-size="11">{y_values[j]:.3g}</text>'
        )
    legend = [f'<text x="{_WIDTH - _MARGIN_R - 8}" y="{_MARGIN_T - 8}" text-anchor="end" '
              f'font-size="11">range [{z_lo:.3g}, {z_hi:.3g}]</text>']
    return _page(height, title, xlabel, ylabel, plot, legend)
