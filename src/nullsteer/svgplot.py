"""Minimal SVG line plots with no third-party dependencies.

Output is deterministic: fixed palette, coordinates rounded to 0.01 px.
Only what the bundled figures need: lines, a legend, linear axes.
"""

from __future__ import annotations

import math

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 66
MARGIN_RIGHT = 18
MARGIN_TOP = 30
MARGIN_BOTTOM = 48

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
)


def _ticks(lo, hi, target=6):
    """Round tick positions covering [lo, hi] on a 1-2-5 ladder."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target, 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 0.5 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt_tick(value):
    text = f"{value:g}"
    return "0" if text == "-0" else text


class SvgFigure:
    """Accumulates series, then renders one self-contained SVG file."""

    def __init__(self, title="", xlabel="", ylabel=""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []

    def add_line(self, xs, ys, label=None, dash=None):
        color = PALETTE[len(self.series) % len(PALETTE)]
        self.series.append(
            (list(map(float, xs)), list(map(float, ys)), label, color, dash)
        )

    def _bounds(self):
        xs = [x for sx, sy, *_ in self.series for x, y in zip(sx, sy)
              if math.isfinite(x) and math.isfinite(y)]
        ys = [y for sx, sy, *_ in self.series for x, y in zip(sx, sy)
              if math.isfinite(x) and math.isfinite(y)]
        if not xs:
            return 0.0, 1.0, 0.0, 1.0
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 <= x0:
            x0, x1 = x0 - 0.5, x0 + 0.5
        if y1 <= y0:
            y0, y1 = y0 - 0.5, y0 + 0.5
        pad = 0.04 * (y1 - y0)
        return x0, x1, y0 - pad, y1 + pad

    def write(self, path):
        x0, x1, y0, y1 = self._bounds()
        pw = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        ph = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

        def px(x):
            return MARGIN_LEFT + (x - x0) / (x1 - x0) * pw

        def py(y):
            return MARGIN_TOP + (y1 - y) / (y1 - y0) * ph

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
            f'font-family="sans-serif" font-size="12">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{pw}" height="{ph}" '
            f'fill="none" stroke="black"/>',
        ]
        for t in _ticks(x0, x1):
            gx = px(t)
            parts.append(
                f'<line x1="{gx:.2f}" y1="{MARGIN_TOP + ph}" x2="{gx:.2f}" '
                f'y2="{MARGIN_TOP + ph + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{gx:.2f}" y="{MARGIN_TOP + ph + 18}" '
                f'text-anchor="middle">{_fmt_tick(t)}</text>'
            )
        for t in _ticks(y0, y1):
            gy = py(t)
            parts.append(
                f'<line x1="{MARGIN_LEFT - 5}" y1="{gy:.2f}" x2="{MARGIN_LEFT}" '
                f'y2="{gy:.2f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{MARGIN_LEFT - 8}" y="{gy + 4:.2f}" '
                f'text-anchor="end">{_fmt_tick(t)}</text>'
            )
        if self.title:
            parts.append(
                f'<text x="{WIDTH / 2:.2f}" y="18" text-anchor="middle" '
                f'font-size="14">{self.title}</text>'
            )
        if self.xlabel:
            parts.append(
                f'<text x="{MARGIN_LEFT + pw / 2:.2f}" y="{HEIGHT - 10}" '
                f'text-anchor="middle">{self.xlabel}</text>'
            )
        if self.ylabel:
            cy = MARGIN_TOP + ph / 2
            parts.append(
                f'<text x="16" y="{cy:.2f}" text-anchor="middle" '
                f'transform="rotate(-90 16 {cy:.2f})">{self.ylabel}</text>'
            )

        for xs, ys, _, color, dash in self.series:
            pts = [
                (px(x), py(y))
                for x, y in zip(xs, ys)
                if math.isfinite(x) and math.isfinite(y)
            ]
            if len(pts) >= 2:
                coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
                dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"{dash_attr}/>'
                )

        labeled = [s[2:] for s in self.series if s[2]]
        if labeled:
            lx = MARGIN_LEFT + pw - 150
            ly = MARGIN_TOP + 10
            parts.append(
                f'<rect x="{lx - 8}" y="{ly - 4}" width="156" '
                f'height="{18 * len(labeled) + 8}" fill="white" stroke="black" '
                f'opacity="0.85"/>'
            )
            for i, (label, color, dash) in enumerate(labeled):
                yy = ly + 18 * i + 8
                dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
                parts.append(
                    f'<line x1="{lx}" y1="{yy}" x2="{lx + 22}" y2="{yy}" '
                    f'stroke="{color}" stroke-width="1.5"{dash_attr}/>'
                )
                parts.append(f'<text x="{lx + 28}" y="{yy + 4}">{label}</text>')
        parts.append("</svg>")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(parts) + "\n")
