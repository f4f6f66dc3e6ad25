"""Plain-text renderers for reproduced tables and figure series.

The figure verbs regenerate each paper figure as an ASCII series: one row
per x value (Zipf θ), one column per curve (policy / buffer size /
migration setting), matching how the paper's plots would be read off.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def _fmt(value: object, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 4,
    title: str = "",
) -> str:
    """Render rows as a fixed-width ASCII table.

    Column widths adapt to content; floats are formatted to *precision*
    decimals.
    """
    cells = [[_fmt(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: Sequence[Number],
    series: Mapping[str, Sequence[Number]],
    precision: int = 4,
    title: str = "",
) -> str:
    """Render figure-style data: x column plus one column per curve.

    Args:
        x_label: name of the x axis (e.g. ``"theta"``).
        x_values: shared x grid.
        series: curve name → y values (must match ``len(x_values)``).
    """
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(ys)} points, expected "
                f"{len(x_values)}"
            )
    headers = [x_label, *series.keys()]
    rows = [
        [x, *(series[name][i] for name in series)]
        for i, x in enumerate(x_values)
    ]
    return render_table(headers, rows, precision=precision, title=title)


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """A one-line unicode mini-plot (used by example scripts).

    Values are rescaled to eight block heights; NaNs render as spaces.
    """
    blocks = "▁▂▃▄▅▆▇█"
    vals = list(values)
    if width is not None and len(vals) > width:
        # Downsample by striding; good enough for a glanceable trend.
        stride = len(vals) / width
        vals = [vals[int(i * stride)] for i in range(width)]
    finite = [v for v in vals if v == v]
    if not finite:
        return " " * len(vals)
    lo, hi = min(finite), max(finite)
    span = hi - lo or 1.0
    out = []
    for v in vals:
        if v != v:
            out.append(" ")
        else:
            idx = int((v - lo) / span * (len(blocks) - 1))
            out.append(blocks[idx])
    return "".join(out)
