"""Terminal plotting for the figure harnesses.

The paper's Figures 4 and 5 are scatter/line plots; with no display in this
environment the harnesses render them as compact ASCII charts so the bench
output is directly comparable to the paper figures.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

_MARKERS = "ox+*#@%&"


def ascii_scatter(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 64,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render named (x, y) point series as an ASCII scatter plot.

    Each series gets a marker from ``o x + * ...``; overlapping points show
    the most recently drawn series.
    """
    points = [(x, y) for pts in series.values() for (x, y) in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, (name, pts) in zip(_MARKERS, series.items()):
        for x, y in pts:
            col = int(round((x - x_lo) / x_span * (width - 1)))
            row = int(round((y - y_lo) / y_span * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = []
    lines.append(f"{y_hi:8.2f} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 9 + "|" + "".join(row) + "|")
    lines.append(f"{y_lo:8.2f} +" + "-" * width + "+")
    lines.append(
        " " * 10 + f"{x_lo:<10.2f}{x_label:^{max(width - 20, 1)}}{x_hi:>10.2f}"
    )
    legend = "   ".join(
        f"{marker}={name}" for marker, name in zip(_MARKERS, series)
    )
    lines.append(" " * 10 + f"[{y_label}]  " + legend)
    return "\n".join(lines)
