"""Tiny table formatter shared by the experiment regenerators."""

from __future__ import annotations

import typing as t


def format_rows(
    headers: list[str],
    rows: list[t.Sequence[t.Any]],
    title: str | None = None,
) -> str:
    """Fixed-width text table (right-aligned numbers, left-aligned text)."""
    rendered: list[list[str]] = []
    for row in rows:
        rendered.append(
            [
                f"{value:.4g}" if isinstance(value, float) else str(value)
                for value in row
            ]
        )
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rendered))
        if rendered
        else len(headers[column])
        for column in range(len(headers))
    ]

    def fmt(cells: t.Sequence[str], pad: str = " ") -> str:
        return "  ".join(cell.rjust(width, pad) for cell, width in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(fmt(headers))
    out.append("  ".join("-" * width for width in widths))
    out.extend(fmt(row) for row in rendered)
    return "\n".join(out)


def format_table(rows: t.Sequence[dict[str, t.Any]], title: str | None = None) -> str:
    """:func:`format_rows` over dict rows: one column per key of the
    first row, in its order.  Keys starting with ``_`` are private to
    the sweep that produced them (rendered reports, gate inputs) and
    never become columns."""
    headers = [key for key in rows[0] if not key.startswith("_")]
    return format_rows(headers, [[row[h] for h in headers] for row in rows], title)
