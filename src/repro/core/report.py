"""Plain-text table helpers used by the experiments and the CLI report."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(line.rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def cdf_row(name: str, values: Sequence[float]) -> List[object]:
    """Summary row (p10/p50/p90/p99/mean) for a distribution."""
    if len(values) == 0:
        return [name, float("nan")] * 1 + [float("nan")] * 4
    arr = np.asarray(values, dtype=float)
    return [
        name,
        float(np.percentile(arr, 10)),
        float(np.percentile(arr, 50)),
        float(np.percentile(arr, 90)),
        float(np.percentile(arr, 99)),
        float(np.mean(arr)),
    ]


CDF_HEADERS = ["series", "p10", "p50", "p90", "p99", "mean"]


def distribution_table(series: Dict[str, Sequence[float]]) -> str:
    """Render several distributions as one summary table."""
    rows = [cdf_row(name, values) for name, values in series.items()]
    return format_table(CDF_HEADERS, rows)

