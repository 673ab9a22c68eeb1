"""Native SVG emission for the report command: overlaid delta-v
histograms and percentile bars. No plotting dependency; the charts are
plain rect/line/text elements."""

from __future__ import annotations

from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .outcome import DeltaVDistribution
from .validation import PercentileReport

WIDTH = 760
HEIGHT = 420
MARGIN = 55
PALETTE = ["#4878a8", "#d65f5f", "#6acc65", "#956cb4", "#8c613c"]


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{(y0 + y1) / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2})">{y_label}</text>',
    ]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def histogram_svg(series: list[tuple[str, DeltaVDistribution]], title: str,
                  path: str | Path) -> None:
    """Overlaid bar chart of one or more delta-v histograms, with each
    series' mean marked."""
    n_bins = max(len(d.weights) for _, d in series)
    bin_w = series[0][1].bin_width
    x_max = n_bins * bin_w
    y_max = max(float(d.weights.max()) for _, d in series) * 1.1 or 1.0
    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN

    def sx(v):
        return MARGIN + v / x_max * plot_w

    def sy(v):
        return HEIGHT - MARGIN - v / y_max * plot_h

    parts = _header(title) + _axes("delta-v [km/h]", "probability")
    group_w = (plot_w / n_bins) / len(series)
    for s, (label, dist) in enumerate(series):
        color = PALETTE[s % len(PALETTE)]
        for i, w in enumerate(dist.weights):
            if w <= 0:
                continue
            x = sx(i * bin_w) + s * group_w
            parts.append(
                f'<rect x="{x:.2f}" y="{sy(w):.2f}" width="{group_w:.2f}" '
                f'height="{(HEIGHT - MARGIN - sy(w)):.2f}" fill="{color}" '
                f'fill-opacity="0.65"/>')
        mx = sx(dist.mean)
        parts.append(
            f'<line x1="{mx:.2f}" y1="{MARGIN}" x2="{mx:.2f}" '
            f'y2="{HEIGHT - MARGIN}" stroke="{color}" stroke-dasharray="5,4"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 16 + 16 * s}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{escape(label)} (mean {_fmt(dist.mean)} km/h)</text>')
    # x ticks every 10 km/h
    for v in np.arange(0, x_max + 1e-9, 10.0):
        parts.append(
            f'<text x="{sx(v):.2f}" y="{HEIGHT - MARGIN + 16}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="10">{_fmt(v)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def percentile_svg(reports: list[tuple[str, PercentileReport]], title: str,
                   path: str | Path) -> None:
    """Percentile histograms side by side; the out-of-range markers get a
    red bin on each side."""
    parts = _header(title)
    panel_w = (WIDTH - 2 * MARGIN) / len(reports)
    for s, (label, rep) in enumerate(reports):
        x_left = MARGIN + s * panel_w
        cols = rep.n_bins + 2  # marker bins flank the percentile bins
        col_w = (panel_w - 20) / cols
        total = max(rep.n_in_range + rep.below_min + rep.above_max, 1)
        values = [rep.below_min] + list(rep.counts) + [rep.above_max]
        y_maxv = max(max(values) / total, 1e-9) * 1.15
        plot_h = HEIGHT - 2 * MARGIN
        for c, v in enumerate(values):
            frac = v / total
            h = frac / y_maxv * plot_h
            color = "#d62728" if c in (0, cols - 1) else PALETTE[s % len(PALETTE)]
            x = x_left + c * col_w
            parts.append(
                f'<rect x="{x:.2f}" y="{HEIGHT - MARGIN - h:.2f}" '
                f'width="{col_w * 0.9:.2f}" height="{h:.2f}" fill="{color}" '
                f'fill-opacity="0.8"/>')
        parts.append(
            f'<text x="{x_left + panel_w / 2:.2f}" y="{HEIGHT - MARGIN + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f'{escape(label)} (chi2 {_fmt(rep.chi2)}, p {_fmt(rep.p_value)})</text>')
        parts.append(
            f'<line x1="{x_left:.2f}" y1="{HEIGHT - MARGIN}" '
            f'x2="{x_left + panel_w - 10:.2f}" y2="{HEIGHT - MARGIN}" '
            f'stroke="black"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def bar_svg(labels: list[str], values: list[float], title: str,
            y_label: str, path: str | Path) -> None:
    """Simple labeled bar chart (used for avoidance rates and risk deltas)."""
    parts = _header(title) + _axes("", y_label)
    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN
    y_max = max(max(values, default=0.0), 1e-9) * 1.15
    col_w = plot_w / max(len(values), 1)
    for i, (label, v) in enumerate(zip(labels, values)):
        h = max(v, 0.0) / y_max * plot_h
        x = MARGIN + i * col_w + col_w * 0.15
        parts.append(
            f'<rect x="{x:.2f}" y="{HEIGHT - MARGIN - h:.2f}" '
            f'width="{col_w * 0.7:.2f}" height="{h:.2f}" '
            f'fill="{PALETTE[i % len(PALETTE)]}"/>')
        parts.append(
            f'<text x="{x + col_w * 0.35:.2f}" y="{HEIGHT - MARGIN + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{label}</text>')
        parts.append(
            f'<text x="{x + col_w * 0.35:.2f}" '
            f'y="{HEIGHT - MARGIN - h - 6:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
