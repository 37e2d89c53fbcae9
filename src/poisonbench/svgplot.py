"""Minimal self-contained SVG charts (no external references) plus a
companion CSV holding the exact plotted numbers."""

from __future__ import annotations

import csv
from pathlib import Path

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 30, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _data_range(values):
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 or 0.5
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _ticks(lo, hi, count=5):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(v):
    return f"{v:.4g}"


class _Scale:
    def __init__(self, xs, ys):
        self.x_lo, self.x_hi = _data_range(xs)
        self.y_lo, self.y_hi = _data_range(ys)
        self.plot_w = WIDTH - MARGIN_L - MARGIN_R
        self.plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(self, x):
        return MARGIN_L + (x - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def py(self, y):
        return MARGIN_T + self.plot_h - (y - self.y_lo) / (self.y_hi - self.y_lo) * self.plot_h


def _chrome(scale, x_label, y_label, title):
    s = scale
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = MARGIN_T, HEIGHT - MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{MARGIN_T - 10}" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    for tx in _ticks(s.x_lo, s.x_hi):
        px = s.px(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{y1}" x2="{px:.2f}" y2="{y1 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y1 + 18}" text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _ticks(s.y_lo, s.y_hi):
        py = s.py(ty)
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{y_label}</text>'
    )
    return parts


def _legend(names):
    parts = []
    lx = WIDTH - MARGIN_R + 18
    for i, name in enumerate(names):
        ly = MARGIN_T + 14 + 20 * i
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text class="legend" x="{lx + 18}" y="{ly + 2}">{name}</text>')
    return parts


def render_line_chart(series: dict, x_label: str, y_label: str, title: str = "") -> str:
    """series maps a name to a list of (x, y) pairs; one polyline (or a lone
    circle for a single point) per series."""
    if not series or all(len(pts) == 0 for pts in series.values()):
        raise ValueError("nothing to plot")
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    scale = _Scale(xs, ys)
    parts = _chrome(scale, x_label, y_label, title)
    for i, (name, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = sorted(pts)
        if len(pts) == 1:
            x, y = pts[0]
            parts.append(
                f'<circle cx="{scale.px(x):.2f}" cy="{scale.py(y):.2f}" r="3" fill="{color}"/>'
            )
            continue
        coords = " ".join(f"{scale.px(x):.2f},{scale.py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
    parts.extend(_legend(list(series)))
    parts.append("</svg>")
    return "\n".join(parts)


def render_scatter_fit(points, lines, x_label: str, y_label: str, title: str = "") -> str:
    """Scatter of (x, y) points plus straight fit lines given as
    {name, weight, bias} dicts; for one-feature data."""
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    scale = _Scale(xs, ys)
    parts = _chrome(scale, x_label, y_label, title)
    for x, y in points:
        parts.append(
            f'<circle cx="{scale.px(x):.2f}" cy="{scale.py(y):.2f}" r="2.5" '
            f'fill="#1f77b4" fill-opacity="0.7"/>'
        )
    names = []
    for i, line in enumerate(lines):
        color = PALETTE[(i + 1) % len(PALETTE)]
        y0 = line["weight"] * scale.x_lo + line["bias"]
        y1 = line["weight"] * scale.x_hi + line["bias"]
        parts.append(
            f'<line x1="{scale.px(scale.x_lo):.2f}" y1="{scale.py(y0):.2f}" '
            f'x2="{scale.px(scale.x_hi):.2f}" y2="{scale.py(y1):.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        names.append(line["name"])
    parts.extend(_legend(["data"] + names))
    parts.append("</svg>")
    return "\n".join(parts)


def _write_with_csv(svg: str, rows, path):
    """Write the SVG and a companion CSV (columns series,x,y with exact
    repr values). Returns (svg_path, csv_path)."""
    svg_path = Path(path)
    svg_path.write_text(svg, encoding="utf-8")
    csv_path = svg_path.with_suffix(".csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "x", "y"])
        for name, x, y in rows:
            writer.writerow([name, repr(float(x)), repr(float(y))])
    return svg_path, csv_path


def write_line_chart(series: dict, x_label: str, y_label: str, path, title: str = ""):
    """Write the line chart with its companion CSV, each series' points in x order."""
    rows = [(name, x, y) for name, pts in series.items() for x, y in sorted(pts)]
    return _write_with_csv(render_line_chart(series, x_label, y_label, title), rows, path)


def write_scatter_fit(points, lines, x_label: str, y_label: str, path, title: str = ""):
    """Write the scatter+fit chart with its companion CSV, the points as series `data`."""
    rows = [("data", x, y) for x, y in points]
    return _write_with_csv(render_scatter_fit(points, lines, x_label, y_label, title), rows, path)


def read_companion_csv(path) -> dict:
    """Inverse of the companion CSV written by write_line_chart."""
    series: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for name, x, y in reader:
            series.setdefault(name, []).append((float(x), float(y)))
    return series
