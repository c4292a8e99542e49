"""Minimal ASCII table rendering for CLI and benchmark output."""

from __future__ import annotations

from typing import Any, List, Sequence


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """Render a fixed-width table with a separator under the header: the
    first column left-aligned, the others right-aligned."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def fmt(row: List[str]) -> str:
        parts = []
        for i, cell in enumerate(row):
            if i == 0:
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts)

    lines = [fmt(cells[0]), "-" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend(fmt(row) for row in cells[1:])
    return "\n".join(lines)
