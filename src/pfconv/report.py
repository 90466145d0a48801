"""Report persistence: CSV tables, JSON mirror, self-contained SVG plots,
and `write_text`, through which every file the package writes goes.

Float formatting uses `repr`, i.e. the shortest digit string that
round-trips, so identical studies always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:  # annotations only: convergence imports this module
    from .convergence import ConvergenceReport


# p -> the name of the table of E|error|^p, which has a "_stderr" twin
MOMENT_TABLES = {2: "mse", 4: "l4"}


def _fmt(x: float) -> str:
    return repr(float(x))


def write_text(path, text: str) -> None:
    """Write text as it is (no newline translation), making missing parent dirs."""
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def csv_text(header, rows, end: str = "\n") -> str:
    """Header, then rows: cells as `str` gives them, joined by commas, then end."""
    return "".join(",".join(map(str, row)) + end for row in chain([header], rows))


def report_csv_text(report: ConvergenceReport) -> str:
    """Normalized-stage moment table, one row per (phi, N, t)."""
    keys = [name + sfx for name in MOMENT_TABLES.values() for sfx in ("", "_stderr")]
    rows = []
    for phi in report.config.test_functions:
        tab = report.tables["normalized"][phi]
        for n_idx, n in enumerate(report.config.particle_counts):
            for t_idx, t in enumerate(report.steps):
                cells = [tab[k][n_idx][t_idx] for k in keys]
                if any(isinstance(v, float) and math.isnan(v) for v in cells):
                    continue  # partial flush: skip incomplete cells
                rows.append([phi, n, t] + [_fmt(v) for v in cells])
    return csv_text(["phi", "N", "t"] + keys, rows)


# ---------------------------------------------------------------------------
# SVG (hand-rolled: no timestamps, no external assets)

_W, _H, _MARGIN = 640, 440, 56


def _scale(points, xlim, ylim):
    x0, x1 = xlim
    y0, y1 = ylim
    sx = (_W - 2 * _MARGIN) / (x1 - x0 or 1.0)
    sy = (_H - 2 * _MARGIN) / (y1 - y0 or 1.0)
    return [(_MARGIN + (x - x0) * sx, _H - _MARGIN - (y - y0) * sy) for x, y in points]


def _svg(parts) -> str:
    """A whole SVG document: the white frame, then parts, one a line."""
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n<rect width="{_W}" height="{_H}" fill="white"/>')
    return "\n".join([head, *parts, "</svg>"]) + "\n"


def _polyline(points, color, dash="") -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{extra} points="{coords}"/>')


_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def rate_svg_text(report: ConvergenceReport) -> str:
    """Log-log error curves (mean over steps) with -1 and -2 references."""
    ns = report.config.particle_counts
    xs = [math.log2(n) for n in ns]
    curves = []  # (label, ys)
    for phi in report.config.test_functions:
        tab = report.tables["normalized"][phi]
        for p, key in MOMENT_TABLES.items():
            if p not in report.config.moments:
                continue
            vals = np.array(tab[key]).mean(axis=1)
            if np.any(~(vals > 0)):
                continue
            curves.append((f"{phi} p={p}", [math.log2(v) for v in vals]))
    if not curves:
        raise DomainError("nothing to plot: no positive error moments")
    all_y = [y for _, ys in curves for y in ys]
    ref1 = [all_y[0] - (x - xs[0]) for x in xs]
    ref2 = [all_y[0] - 2 * (x - xs[0]) for x in xs]
    ylim = (min(all_y + ref1 + ref2) - 0.5, max(all_y + ref1 + ref2) + 0.5)
    xlim = (xs[0] - 0.3, xs[-1] + 0.3)
    parts = [
        f'<text x="{_W / 2:.0f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="13">log2 N</text>',
        f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {_H / 2:.0f})">log2 error moment</text>',
    ]
    parts.append(_polyline(_scale(list(zip(xs, ref1)), xlim, ylim), "#999999", dash="6 3"))
    parts.append(_polyline(_scale(list(zip(xs, ref2)), xlim, ylim), "#999999", dash="2 3"))
    for k, (label, ys) in enumerate(curves):
        color = _COLORS[k % len(_COLORS)]
        parts.append(_polyline(_scale(list(zip(xs, ys)), xlim, ylim), color))
        parts.append(f'<text x="{_MARGIN + 6}" y="{_MARGIN + 16 * (k + 1)}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    return _svg(parts)


def histogram_svg_text(edges: np.ndarray, particle_mass: np.ndarray,
                       grid_x: np.ndarray, grid_density: np.ndarray,
                       title: str = "") -> str:
    """Weighted particle histogram (bars) against a grid density (line)."""
    edges = np.asarray(edges, dtype=float)
    widths = np.diff(edges)
    heights = np.asarray(particle_mass, dtype=float) / widths  # mass -> density
    xlim = (float(edges[0]), float(edges[-1]))
    keep = (grid_x >= xlim[0]) & (grid_x <= xlim[1])  # the line's drawn cells
    top = max(float(np.max(heights)), float(np.max(grid_density[keep], initial=0.0)), 1e-12)
    ylim = (0.0, 1.1 * top)
    parts = [f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" '
             f'font-size="14">{title}</text>'] if title else []
    for i, h in enumerate(heights):
        (x0, y0), (x1, y1) = _scale([(edges[i], 0.0), (edges[i + 1], h)], xlim, ylim)
        parts.append(f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" '
                     f'height="{y0 - y1:.2f}" fill="#9ecae1" stroke="#6baed6"/>')
    line = _scale(list(zip(grid_x[keep], grid_density[keep])), xlim, ylim)
    parts.append(_polyline(line, "#d62728"))
    return _svg(parts)


def emit_report(report: ConvergenceReport, fmt: str, path) -> None:
    """Persist a study report as csv, json, or svg."""
    texts = {"csv": report_csv_text, "svg": rate_svg_text,
             "json": lambda r: json.dumps(r.to_dict(), indent=2) + "\n"}
    if fmt not in texts:
        raise DomainError(f"unknown report format {fmt!r}")
    write_text(path, texts[fmt](report))
