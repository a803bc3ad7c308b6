"""ASCII rendering of the Display and System panels.

The Swing GUI draws a JPG floor plan with draggable sensors, black
cluster links and red KSpot bullets. The terminal renderer draws the
same model on a character grid: sensors as ``s<n>``, the sink as
``S0``, bullet ranks as ``(1) (2) …`` at cluster centroids, plus a
legend listing the K highest-ranked clusters with their scores.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import ValidationError
from .panels import DisplayPanel
from .stats import SavingsSample


def _blank_canvas(columns: int, rows: int) -> list[list[str]]:
    return [[" "] * columns for _ in range(rows)]


def _stamp(canvas: list[list[str]], column: int, row: int, text: str) -> None:
    if not 0 <= row < len(canvas):
        return
    for offset, char in enumerate(text):
        if 0 <= column + offset < len(canvas[row]):
            canvas[row][column + offset] = char


def render_display(panel: DisplayPanel, columns: int = 72,
                   rows: int = 20) -> str:
    """Draw the display panel onto a character grid.

    Scale is derived from the panel's map dimensions; the output ends
    with the bullet legend (rank, cluster, score).
    """
    if columns < 10 or rows < 5:
        raise ValidationError("canvas too small to render")
    canvas = _blank_canvas(columns, rows)

    def to_cell(x: float, y: float) -> tuple[int, int]:
        column = int(x / max(panel.width, 1e-9) * (columns - 6))
        row = int(y / max(panel.height, 1e-9) * (rows - 2))
        return column, row

    for node_id, (x, y) in sorted(panel.positions.items()):
        column, row = to_cell(x, y)
        label = "S0" if node_id == 0 else f"s{node_id}"
        _stamp(canvas, column, row, label)

    for bullet in panel.bullets:
        try:
            cx, cy = panel.cluster_centroid(bullet.cluster)
        except ValidationError:
            continue
        column, row = to_cell(cx, cy)
        _stamp(canvas, column, row, bullet.label)

    border = "+" + "-" * columns + "+"
    lines = [f"[{panel.floor_plan_caption}]", border]
    lines.extend("|" + "".join(row) + "|" for row in canvas)
    lines.append(border)
    if panel.bullets:
        lines.append("KSpot bullets:")
        for bullet in panel.bullets:
            lines.append(
                f"  ({bullet.rank}) {bullet.cluster}: {bullet.score:.2f}"
            )
    return "\n".join(lines)


def render_savings(samples: Sequence[SavingsSample], width: int = 60,
                   metric: str = "bytes") -> str:
    """A sparkline-style bar chart of per-epoch savings percentages."""
    if metric == "bytes":
        series = [s.byte_saving_pct for s in samples]
    elif metric == "messages":
        series = [s.message_saving_pct for s in samples]
    elif metric == "energy":
        series = [s.energy_saving_pct for s in samples]
    else:
        raise ValidationError(f"unknown savings metric {metric!r}")
    if not series:
        return "(no samples)"
    recent = series[-width:]
    blocks = " ▁▂▃▄▅▆▇█"
    chart = "".join(
        blocks[min(len(blocks) - 1,
                   max(0, int(value / 100.0 * (len(blocks) - 1))))]
        for value in recent
    )
    average = sum(series) / len(series)
    return (f"{metric} saving per epoch "
            f"(avg {average:.1f}%, last {recent[-1]:.1f}%)\n{chart}")


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]
                 ) -> str:
    """A plain fixed-width table (benchmark output uses this); floats
    print with two decimals."""
    rendered_rows = [
        [f"{cell:.2f}" if isinstance(cell, float) else str(cell)
         for cell in row]
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValidationError("row width does not match headers")
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width)
                         for cell, width in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered_rows)
    return "\n".join(lines)
