"""Rendering of audit results: text grids and SVG box plots.

Both formats take the subgroup labels A and B from aggregate.json. The
table holds two grids of one layout, one row
per attribution method and one column per metric. The significance grid
mirrors the counts-out-of-R reporting shape: each cell shows the number
of significant runs, a ``+A``/``+B`` suffix for the subgroup with the
higher scores, and a ``*`` for considerable effect size. The effect-size
grid shows each cell's ``(k) mean±std`` over its significant runs. A
cell tested in no run (a subgroup kept fewer than 2 scores of
non-degenerate attributions) shows ``deg`` in both grids.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import metrics as met
from .errors import ConfigError, DataError


def grid_cell(cell, label_a):
    if cell.get("cell") == "deg":
        return "deg"
    if cell["significant_runs"] == 0:
        return "0"
    suffix = "+A" if cell["direction"] == label_a else "+B"
    mark = "*" if cell["considerable_runs"] > 0 else ""
    return f"{cell['significant_runs']}{suffix}{mark}"


def significance_grid(cells, methods, metrics, cell_fn):
    """Fixed-width text table over (method, metric) aggregate cells, each
    shown as ``cell_fn(cell)``."""
    by_key = {(c["method"], c["metric"]): c for c in cells}
    header = ["method"] + list(metrics)
    rows = [header]
    for method in methods:
        row = [method]
        for metric in metrics:
            cell = by_key.get((method, metric))
            row.append(cell_fn(cell) if cell else "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Box plots


def five_number_summary(values):
    """(low whisker, Q1, median, Q3, high whisker, outliers).

    Linear-interpolation quartiles; whiskers at the most extreme data
    point within 1.5 * IQR of the box.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if len(v) == 0:
        raise DataError("cannot summarize empty data")
    q1, q2, q3 = np.percentile(v, [25, 50, 75])
    iqr = q3 - q1
    lo_limit, hi_limit = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = v[(v >= lo_limit) & (v <= hi_limit)]
    lo, hi = float(inside[0]), float(inside[-1])
    outliers = [float(x) for x in v if x < lo_limit or x > hi_limit]
    return lo, float(q1), float(q2), float(q3), hi, outliers


_SVG_W, _SVG_H = 360, 260
_PLOT = (50, 20, 330, 220)  # left, top, right, bottom
_COLORS = ("#4878a8", "#c05050")


def boxplot_svg(groups, title=""):
    """Side-by-side box plots (SVG 1.1) for {label: values} groups.

    Output is a deterministic function of the inputs.
    """
    labels = list(groups)
    summaries = {lab: five_number_summary(groups[lab]) for lab in labels}
    all_vals = [x for lab in labels for x in groups[lab]]
    v_min, v_max = min(all_vals), max(all_vals)
    if v_max == v_min:
        v_min, v_max = v_min - 0.5, v_max + 0.5
    pad = 0.05 * (v_max - v_min)
    v_min, v_max = v_min - pad, v_max + pad
    left, top, right, bottom = _PLOT

    def y(v):
        frac = (v - v_min) / (v_max - v_min)
        return bottom - frac * (bottom - top)

    def text(s):  # as XML character data
        return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{(left + right) / 2:.1f}" y="14" font-size="12" '
        f'text-anchor="middle">{text(title)}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        'stroke="black"/>',
    ]
    for tick in np.linspace(v_min, v_max, 5):
        ty = y(tick)
        parts.append(f'<line x1="{left - 4}" y1="{ty:.1f}" x2="{left}" '
                     f'y2="{ty:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 6}" y="{ty + 3:.1f}" font-size="9" '
                     f'text-anchor="end">{tick:.3g}</text>')

    slot = (right - left) / len(labels)
    box_w = min(60.0, slot * 0.5)
    for i, lab in enumerate(labels):
        lo, q1, q2, q3, hi, outliers = summaries[lab]
        cx = left + slot * (i + 0.5)
        color = _COLORS[i % len(_COLORS)]
        x0, x1 = cx - box_w / 2, cx + box_w / 2
        parts += [
            f'<line x1="{cx:.1f}" y1="{y(lo):.1f}" x2="{cx:.1f}" '
            f'y2="{y(q1):.1f}" stroke="black"/>',
            f'<line x1="{cx:.1f}" y1="{y(q3):.1f}" x2="{cx:.1f}" '
            f'y2="{y(hi):.1f}" stroke="black"/>',
            f'<line x1="{x0:.1f}" y1="{y(lo):.1f}" x2="{x1:.1f}" '
            f'y2="{y(lo):.1f}" stroke="black"/>',
            f'<line x1="{x0:.1f}" y1="{y(hi):.1f}" x2="{x1:.1f}" '
            f'y2="{y(hi):.1f}" stroke="black"/>',
            f'<rect x="{x0:.1f}" y="{y(q3):.1f}" width="{box_w:.1f}" '
            f'height="{y(q1) - y(q3):.1f}" fill="{color}" '
            'fill-opacity="0.5" stroke="black"/>',
            f'<line x1="{x0:.1f}" y1="{y(q2):.1f}" x2="{x1:.1f}" '
            f'y2="{y(q2):.1f}" stroke="black" stroke-width="2"/>',
            f'<text x="{cx:.1f}" y="{bottom + 14}" font-size="10" '
            f'text-anchor="middle">{text(lab)}</text>',
        ]
        for out in outliers:
            parts.append(f'<circle cx="{cx:.1f}" cy="{y(out):.1f}" r="2.5" '
                         f'fill="none" stroke="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Rendering a persisted report directory


def _read_json(report_dir, name):
    with open(os.path.join(report_dir, name), encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise DataError(f"malformed report dir: {name} is not JSON: "
                            f"{e}") from e


def _names(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _count(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _table_cell(cell):
    """Whether an aggregate cell holds every value the table reads, each
    of its type."""
    return isinstance(cell, dict) and _names(
        [cell.get("method"), cell.get("metric"), cell.get("cell")]) \
        and "direction" in cell \
        and isinstance(cell["direction"], (str, type(None))) \
        and _count(cell.get("significant_runs")) \
        and _count(cell.get("considerable_runs"))


def _load_summary(report_dir):
    """Check that every report file exists; return the method and metric
    lists and the aggregate."""
    required = ("config.json", "scores.csv", "aggregate.json",
                "disparity.json", "bias.json")
    for name in required:
        if not os.path.exists(os.path.join(report_dir, name)):
            raise DataError(f"malformed report dir: missing {name}")
    config = _read_json(report_dir, "config.json")
    try:
        methods = config["config"]["methods"]
        metrics = config["config"]["metrics"]
        if not (_names(methods) and _names(metrics)):
            raise TypeError("not lists of names")
    except (KeyError, TypeError) as e:
        raise DataError("malformed report dir: config.json has no "
                        "config.methods and config.metrics lists") from e
    aggregate = _read_json(report_dir, "aggregate.json")
    if not isinstance(aggregate, dict) or not isinstance(
            aggregate.get("cells"), list):
        raise DataError("malformed report dir: aggregate.json has no cells")
    labels = aggregate.get("subgroups")
    if not (_names(labels) and len(labels) == 2):
        raise DataError("malformed report dir: aggregate.json has no "
                        "subgroup labels")
    if not _count(aggregate.get("n_runs")):
        raise DataError("malformed report dir: aggregate.json has no n_runs "
                        "count")
    if not all(_table_cell(c) for c in aggregate["cells"]):
        raise DataError("malformed report dir: an aggregate.json cell is "
                        "not an object with string method, metric and cell, "
                        "a string or null direction, and integer "
                        "significant_runs and considerable_runs")
    return methods, metrics, aggregate


def render(report_dir, fmt="table", out_dir=None):
    """Render a persisted report as a text grid or SVG box plots.

    Returns the rendered text for 'table', or the list of written paths
    for 'svg'. The table reads only config.json and aggregate.json; the
    plots parse every score.
    """
    if fmt not in ("table", "svg"):
        raise ConfigError(f"unknown report format: {fmt}")
    methods, metrics, aggregate = _load_summary(report_dir)
    label_a, label_b = aggregate["subgroups"]

    if fmt == "table":
        cells = aggregate["cells"]
        grid = significance_grid(cells, methods, metrics,
                                 lambda c: grid_cell(c, label_a))
        agg = significance_grid(cells, methods, metrics, lambda c: c["cell"])
        return (f"significant runs out of {aggregate['n_runs']} "
                f"(+A={label_a}, +B={label_b}, *=considerable effect)\n"
                f"{grid}\neffect sizes over significant runs\n{agg}")

    samples = met.read_scores_csv(os.path.join(report_dir, "scores.csv"))
    out_dir = out_dir or report_dir
    os.makedirs(out_dir, exist_ok=True)
    values = met.group_values(samples)
    written = []
    for method in methods:
        for metric in metrics:
            groups = {lab: values[method, metric, lab]
                      for lab in (label_a, label_b)
                      if (method, metric, lab) in values}
            if not groups:
                continue
            svg = boxplot_svg(groups, title=f"{method} / {metric}")
            path = os.path.join(out_dir, f"box_{method}_{metric}.svg")
            with open(path, "w", encoding="utf-8") as f:
                f.write(svg)
            written.append(path)
    return written
