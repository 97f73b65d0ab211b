"""SVG line plots for metrics and telemetry CSVs.

Plots are written as plain SVG with one <polyline> per series, so outputs
are deterministic and trivially checkable. No plotting library involved.
"""

from __future__ import annotations

import csv

import numpy as np

from .files import write_text

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def moving_average(values, window):
    """Trailing mean; early entries average over the available prefix."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    for i in range(values.size):
        lo = max(0, i - window + 1)
        out[i] = values[lo:i + 1].mean()
    return out


class EmptyDataError(ValueError):
    pass


def render_line_plot(series, path, title="", xlabel="", ylabel="",
                     width=720, height=440):
    """Write an SVG with one polyline per (label, xs, ys) series."""
    series = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for label, xs, ys in series]
    series = [(l, x, y) for l, x, y in series if x.size > 0]
    if not series:
        raise EmptyDataError("nothing to plot")

    margin = 56
    x_all = np.concatenate([x for _, x, _ in series])
    y_all = np.concatenate([y for _, _, y in series])
    x_lo, x_hi = float(x_all.min()), float(x_all.max())
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        'stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-size="15">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
                     f'font-size="12">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{height / 2:.1f}" font-size="12" '
                     f'transform="rotate(-90 16 {height / 2:.1f})" '
                     f'text-anchor="middle">{ylabel}</text>')
    # axis extremes
    parts.append(f'<text x="{margin}" y="{height - margin + 16}" font-size="10">{x_lo:g}</text>')
    parts.append(f'<text x="{width - margin}" y="{height - margin + 16}" font-size="10" '
                 f'text-anchor="end">{x_hi:g}</text>')
    parts.append(f'<text x="{margin - 4}" y="{height - margin}" font-size="10" '
                 f'text-anchor="end">{y_lo:g}</text>')
    parts.append(f'<text x="{margin - 4}" y="{margin + 4}" font-size="10" '
                 f'text-anchor="end">{y_hi:g}</text>')

    for k, (label, xs, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * k + 10}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
    return path


def read_csv_columns(path):
    """The CSV's columns by header name, as lists of the raw field strings."""
    with open(path) as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if len(rows) < 2:
        raise EmptyDataError(f"{path} has no data rows")
    header = rows[0]
    cols = {name: [] for name in header}
    for row in rows[1:]:
        for name, value in zip(header, row):
            cols[name].append(value)
    return cols


def _numbers(values):
    """A column as floats; fields that are not numbers read as nan."""
    out = []
    for value in values:
        try:
            out.append(float(value))
        except ValueError:
            out.append(float("nan"))
    return np.asarray(out)


def plot_csv(path, out_path):
    """Render the natural plot for a known CSV layout.

    Telemetry logs plot the control outputs plus speed; training metrics
    plot the episode return averaged over 5 episodes; lap-time series plot
    one line per track; anything else plots every numeric column against
    the first.
    """
    raw = read_csv_columns(path)
    cols = {name: _numbers(values) for name, values in raw.items()}
    names = list(cols)
    if {"steer", "throttle", "brake", "Vx"} <= set(names):
        t = cols["t"]
        series = [
            ("steer", t, cols["steer"]),
            ("throttle", t, cols["throttle"]),
            ("brake", t, cols["brake"]),
            ("Vx/50", t, cols["Vx"] / 50.0),
        ]
        return render_line_plot(series, out_path, title="control outputs",
                                xlabel="time [s]", ylabel="value")
    if {"episode", "return"} <= set(names):
        x = cols["episode"]
        series = [("return (ma5)", x, moving_average(cols["return"], 5))]
        if "critic_loss_mean" in cols:
            series.append(("critic loss", x, cols["critic_loss_mean"]))
        return render_line_plot(series, out_path, title="training metrics",
                                xlabel="episode", ylabel="return")
    if {"checkpoint_episode", "track", "best_lap_time"} <= set(names):
        by_track = {}
        for ep, track, lap in zip(raw["checkpoint_episode"], raw["track"], raw["best_lap_time"]):
            if lap in ("", "None"):
                continue
            by_track.setdefault(track, ([], []))
            by_track[track][0].append(float(ep))
            by_track[track][1].append(float(lap))
        series = [(track, xs, ys) for track, (xs, ys) in sorted(by_track.items())]
        return render_line_plot(series, out_path, title="lap time per checkpoint",
                                xlabel="checkpoint episode", ylabel="best lap [s]")
    x = cols[names[0]]
    series = [(n, x, cols[n]) for n in names[1:] if np.isfinite(cols[n]).all()]
    return render_line_plot(series, out_path, xlabel=names[0])
