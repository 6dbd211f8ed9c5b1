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
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title.translate(_ESCAPE)}</text>'
        )
    # axes
    x0, y0 = sx(x_min), sy(y_min)
    parts.append(
        f'<line x1="{x0:.1f}" y1="{sy(y_max):.1f}" x2="{x0:.1f}" '
        f'y2="{y0:.1f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{sx(x_max):.1f}" '
        f'y2="{y0:.1f}" stroke="black"/>'
    )
    for value, anchor_x, anchor_y, anchor in (
        (x_min, sx(x_min), y0 + 18, "middle"),
        (x_max, sx(x_max), y0 + 18, "middle"),
    ):
        parts.append(
            f'<text x="{anchor_x:.1f}" y="{anchor_y:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="11">{_fmt(value)}</text>'
        )
    for value in (y_min, y_max):
        parts.append(
            f'<text x="{x0 - 6:.1f}" y="{sy(value) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(value)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.1f}" '
            f'y="{HEIGHT - 12}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12">{x_label.translate(_ESCAPE)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.1f})"'
            f'>{y_label.translate(_ESCAPE)}</text>'
        )
    for k, (label, pts) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        legend_y = MARGIN_TOP + 14 * (k + 1)
        parts.append(
            f'<line x1="{WIDTH - 150}" y1="{legend_y - 4}" x2="{WIDTH - 130}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{WIDTH - 125}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="11">{label.translate(_ESCAPE)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path, series, title="", x_label="", y_label="") -> None:
    text = polyline_chart(series, title, x_label, y_label)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
