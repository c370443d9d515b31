"""Terminal rendering of experiment series: bar charts and line plots.

The experiment drivers print the same rows/series the paper plots; these
helpers turn them into readable ASCII figures so a terminal run shows
the *shape* at a glance (where accuracy drops, where bands sit).
"""

from __future__ import annotations

from typing import Mapping, Sequence

_BAR = "█"
_MARKS = "ox+*#@"


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    title: str = "",
    width: int = 50,
    max_value: float | None = None,
    value_format: str = "{:.2f}",
) -> str:
    """Horizontal bar chart.

    >>> print(bar_chart(["a", "b"], [2.0, 4.0], width=4))
    a  ██    2.00
    b  ████  4.00
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    if not labels:
        raise ValueError("cannot chart an empty series")
    top = max_value if max_value is not None else max(values)
    top = top if top > 0 else 1.0
    label_width = max(len(label) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        filled = int(round((value / top) * width))
        filled = min(max(filled, 0), width)
        bar = _BAR * filled + " " * (width - filled)
        lines.append(
            f"{label:<{label_width}}  {bar}  {value_format.format(value)}"
        )
    return "\n".join(lines)


def line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    title: str = "",
    width: int = 60,
    height: int = 12,
    y_min: float | None = None,
    y_max: float | None = None,
) -> str:
    """Multi-series ASCII line plot with a legend.

    Each series is a list of ``(x, y)`` points; x values are mapped
    linearly onto the width, y values onto the height.  Overlapping
    points show the later series' mark.
    """
    if not series:
        raise ValueError("cannot chart an empty series mapping")
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("series contain no points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y = y_min if y_min is not None else min(ys)
    hi_y = y_max if y_max is not None else max(ys)
    if hi_x == lo_x:
        hi_x = lo_x + 1.0
    if hi_y == lo_y:
        hi_y = lo_y + 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, pts) in enumerate(series.items()):
        mark = _MARKS[index % len(_MARKS)]
        for x, y in pts:
            column = int(round((x - lo_x) / (hi_x - lo_x) * (width - 1)))
            row = int(round((y - lo_y) / (hi_y - lo_y) * (height - 1)))
            grid[height - 1 - row][column] = mark
    lines = [title] if title else []
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{hi_y:8.2f} |"
        elif row_index == height - 1:
            label = f"{lo_y:8.2f} |"
        else:
            label = " " * 8 + " |"
        lines.append(label + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"{lo_x:<8.0f}" + " " * (width - 16) + f"{hi_x:>8.0f}")
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def csv_rows(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Minimal CSV rendering (no quoting needs in our data)."""
    out = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            text = f"{cell:.6g}" if isinstance(cell, float) else str(cell)
            if "," in text:
                raise ValueError(f"cell contains a comma: {text!r}")
            cells.append(text)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
