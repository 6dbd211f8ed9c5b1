"""Minimal SVG polyline charts for sweep output.

Write-only plumbing: axes, one polyline per series, a small legend.  No
parsing obligations and no styling beyond what keeps the chart readable.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import inf

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 30, 50
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

Series = Sequence[tuple[float, float]]
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _coord(value: float) -> str:
    """A coordinate: a float to one decimal, an int as it is."""
    return f"{value:.1f}" if isinstance(value, float) else str(value)


def polyline_chart(
    series: Sequence[tuple[str, Series]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render labelled (x, y) series as a complete SVG document string;
    ValueError if there is nothing to plot or a range is not finite."""
    points = [p for _, pts in series for p in pts]
    if not points:
        raise ValueError("nothing to plot")
    x_min = min(p[0] for p in points)
    x_max = max(p[0] for p in points)
    y_min = min(min(p[1] for p in points), 0.0)
    y_max = max(p[1] for p in points)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    if not 0 < x_max - x_min < inf:
        raise ValueError(f"column {x_label!r} spans no finite x range")
    if not 0 < y_max - y_min < inf:
        raise ValueError(f"columns {[k for k, _ in series]} span no finite y range")

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    def text(x, y, size: int, body: str, anchor="middle", transform="") -> None:
        """One escaped <text>; an empty `anchor` or `transform` is left out."""
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        transform = f' transform="{transform}"' if transform else ""
        parts.append(
            f'<text x="{_coord(x)}" y="{_coord(y)}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{body.translate(_ESCAPE)}</text>'
        )

    def line(x1, y1, x2, y2, pen: str) -> None:
        x1, y1, x2, y2 = map(_coord, (x1, y1, x2, y2))
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {pen}/>')

    if title:
        text(WIDTH / 2, 20, 14, title)
    x0, y0 = sx(x_min), sy(y_min)
    line(x0, sy(y_max), x0, y0, 'stroke="black"')  # axes
    line(x0, y0, sx(x_max), y0, 'stroke="black"')
    for value in (x_min, x_max):
        text(sx(value), y0 + 18, 11, _fmt(value))
    for value in (y_min, y_max):
        text(x0 - 6, sy(value) + 4, 11, _fmt(value), "end")
    if x_label:
        text((MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2, HEIGHT - 12, 12, x_label)
    if y_label:
        y_mid = (MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2
        text(14, y_mid, 12, y_label, transform=f"rotate(-90 14 {y_mid:.1f})")
    for k, (label, pts) in enumerate(series):
        pen = f'stroke="{PALETTE[k % len(PALETTE)]}" stroke-width="1.5"'
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        parts.append(f'<polyline fill="none" {pen} points="{coords}"/>')
        legend_y = MARGIN_TOP + 14 * (k + 1)
        line(WIDTH - 150, legend_y - 4, WIDTH - 130, legend_y - 4, pen)
        text(WIDTH - 125, legend_y, 11, label, anchor="")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path, series, title="", x_label="", y_label="") -> None:
    text = polyline_chart(series, title, x_label, y_label)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
