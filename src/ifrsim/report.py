"""Deterministic CSV assembly for simulation and solver reports.

Reports embed their full resolved configuration as `#`-prefixed key=value
metadata rows, keep a stable column order, and format every float in
scientific notation with 9 significant digits, so a re-run with identical
inputs and seed is byte-identical.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import __version__

TOOL_ID = f"ifrsim {__version__}"


def fmt_float(value: float) -> str:
    return format(float(value), ".8e")


def fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


@dataclass
class CsvReport:
    columns: list
    metadata: list = field(default_factory=list)  # (key, value) pairs, emitted in order
    rows: list = field(default_factory=list)

    def add_meta(self, key: str, value) -> None:
        self.metadata.append((str(key), fmt_value(value)))

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} cells, got {len(values)}")
        self.rows.append([fmt_value(v) for v in values])

    def render(self) -> str:
        lines = []
        for key, value in self.metadata:
            if "\n" in value or "\r" in value:
                raise ValueError(f"metadata {key}={value!r} would break the CSV layout")
            lines.append(f"# {key}={value}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            for cell in row:
                if "," in cell or "\n" in cell:
                    raise ValueError(f"cell {cell!r} would break the CSV layout")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
