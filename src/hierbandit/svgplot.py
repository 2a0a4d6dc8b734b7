"""Minimal SVG line plots of regret curves.

Self-contained on purpose; the benchmark writes diagnostic plots next to its
CSV outputs without pulling in a plotting stack.  Output is plain SVG 1.1
with absolute coordinates, parseable by any XML reader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import atomic_write_text

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT = 72, 160
MARGIN_TOP, MARGIN_BOTTOM = 40, 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


@dataclass(frozen=True)
class Series:
    """One plotted line."""

    label: str
    x: np.ndarray
    y: np.ndarray


def _escape(text: str) -> str:
    """xml.sax.saxutils.escape's three replacements, "&" first.  That module
    imports urllib.request, and with it http.client, email and ssl."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    else:
        step = 10.0 * mag
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(float(v))
        v += step
    return ticks


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return "%.3g" % v


def write_line_plot(path: str, series: list[Series], *, title: str,
                    x_label: str, y_label: str) -> None:
    """Write the series to an SVG file with axes, ticks and a legend."""
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    yall = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(yall.min()), float(yall.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT),
             '<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT),
             '<text x="%d" y="24" font-family="sans-serif" font-size="16" '
             'text-anchor="middle">%s</text>'
             % (MARGIN_LEFT + plot_w // 2, _escape(title))]

    for tick in _ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                     'stroke="#dddddd"/>' % (tx, MARGIN_TOP, tx,
                                             MARGIN_TOP + plot_h))
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="11" text-anchor="middle">%s</text>'
                     % (tx, MARGIN_TOP + plot_h + 16, _fmt(tick)))
    for tick in _ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                     'stroke="#dddddd"/>' % (MARGIN_LEFT, ty,
                                             MARGIN_LEFT + plot_w, ty))
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="11" text-anchor="end">%s</text>'
                     % (MARGIN_LEFT - 6, ty + 4, _fmt(tick)))

    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                 'stroke="#333333"/>' % (MARGIN_LEFT, MARGIN_TOP, plot_w, plot_h))
    parts.append('<text x="%d" y="%d" font-family="sans-serif" font-size="13" '
                 'text-anchor="middle">%s</text>'
                 % (MARGIN_LEFT + plot_w // 2, HEIGHT - 12, _escape(x_label)))
    parts.append('<text x="16" y="%d" font-family="sans-serif" font-size="13" '
                 'text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>'
                 % (MARGIN_TOP + plot_h // 2, MARGIN_TOP + plot_h // 2,
                    _escape(y_label)))

    for j, s in enumerate(series):
        color = PALETTE[j % len(PALETTE)]
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        pts = " ".join("%.2f,%.2f" % (px(xv), py(yv)) for xv, yv in zip(x, y))
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.8"/>' % (pts, color))
        ly = MARGIN_TOP + 14 + 18 * j
        lx = MARGIN_LEFT + plot_w + 12
        parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                     'stroke-width="1.8"/>' % (lx, ly - 4, lx + 22, ly - 4, color))
        parts.append('<text x="%d" y="%d" font-family="sans-serif" '
                     'font-size="12">%s</text>' % (lx + 28, ly, _escape(s.label)))

    parts.append("</svg>")
    atomic_write_text(path, ["\n".join(parts) + "\n"])
