"""Locale-independent number formatting for CSV and report output."""

from __future__ import annotations

from pathlib import Path


def format_number(x: float) -> str:
    """6 significant digits; scientific notation below 1e-3.

    Keeps golden files stable across platforms.
    """
    if x == 0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.5e}"
    return f"{x:.6g}"


def write_lines(path, lines) -> None:
    """Write text lines with LF endings and UTF-8 encoding, creating the
    file's directory if need be."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
