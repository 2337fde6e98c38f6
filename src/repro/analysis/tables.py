"""Plain-text table rendering for experiment output.

Every experiment prints its table through these helpers, so the CLI output,
the ``--out`` files and the markdown report share one format.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def _format_cell(value, floatfmt: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, floatfmt)
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None, floatfmt: str = ".2f") -> str:
    """Render an aligned monospace table.

    ``rows`` may contain strings, ints, floats (formatted with ``floatfmt``),
    booleans, and ``None`` (rendered as ``-``).
    """
    str_rows: List[List[str]] = [[_format_cell(c, floatfmt) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def render_kv(title: str, pairs: Iterable[tuple], floatfmt: str = ".3f") -> str:
    """Render a key/value block (used for summary footers)."""
    out = [title, "-" * len(title)]
    for key, value in pairs:
        out.append(f"{key}: {_format_cell(value, floatfmt)}")
    return "\n".join(out)
