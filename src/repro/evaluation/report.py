"""Textual reports: the library equivalent of the demo GUI's result panels."""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]], *, title: str | None = None) -> str:
    """Render a list of dictionaries as an aligned text table.

    The columns are every row's keys in first-seen order; a row without a
    column leaves its cell blank.
    """
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
