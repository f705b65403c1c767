"""Locale-independent number formatting, and the one CSV formatter."""

from __future__ import annotations

# Rows formatted per slice, so a long CSV never holds its whole columns as
# Python lists at once.
_BLOCK = 4096


def format_number(x: float) -> str:
    """6 significant digits; scientific notation below 1e-3.

    Keeps golden files stable across platforms.
    """
    if x == 0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.5e}"
    return f"{x:.6g}"


def csv_lines(header: str, columns, labels=None):
    """Yield the lines of a CSV: ``header``, then one row per index of the
    equal-length numpy ``columns``, each cell through format_number, _BLOCK
    rows at a time.  ``labels``, when given, is a leading column of strings
    written as they are."""
    yield header
    for start in range(0, len(columns[0]), _BLOCK):
        stop = start + _BLOCK
        cells = [map(format_number, col[start:stop].tolist()) for col in columns]
        if labels is not None:
            cells.insert(0, labels[start:stop])
        yield from map(",".join, zip(*cells))
