"""Locale-independent number formatting, and the one CSV formatter."""

from __future__ import annotations

import numpy as np

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
    """Yield ``header``, then one line per index of the equal-length numpy
    ``columns`` (``labels``, when given, is a leading column of strings): one
    str.format call per row, its format string picked by which cells take
    format_number's .5e (0 < |x| < 1e-3) and which .6g; + 0.0 prints -0.0 as 0."""
    yield header
    lead, width = ([] if labels is None else ["{}"]), len(columns)
    formats = [",".join(lead + ["{:.5e}" if code >> k & 1 else "{:.6g}" for k in range(width)])
               for code in range(1 << width)]
    for start in range(0, len(columns[0]), _BLOCK):
        cells = np.array([col[start:start + _BLOCK] for col in columns], dtype=float) + 0.0
        code = (((np.abs(cells) < 1e-3) & (cells != 0.0)).T << np.arange(width)).sum(axis=1)
        lead_col = [] if labels is None else [labels[start:start + _BLOCK]]
        yield from map(str.format, [formats[c] for c in code.tolist()], *lead_col, *cells.tolist())
