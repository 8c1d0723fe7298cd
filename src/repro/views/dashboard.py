"""Static HTML dashboard over a :class:`~repro.store.RunStore`.

``pepo dashboard -o out.html`` renders one self-contained file — no
external assets, no network — summarising every run in the store:

* a KPI row (hero energy figure, runs/rows/methods, drift count);
* top-N hot methods as a horizontal bar chart (single sequential hue —
  the job is magnitude, not identity);
* per-run energy trends for the hottest methods as a multi-line chart
  (categorical hues in fixed slot order, capped at five series with a
  legend — never generated hues);
* drift flags, Tukey outlier runs and per-context totals as tables
  (status colors always paired with an icon + word, never color alone).

The palette, mark specs (thin bars with rounded data-ends, 2px lines,
surface-ringed markers, hairline grid) and the hover layer (crosshair +
one tooltip listing every series) follow the project's data-viz
conventions; both light and dark schemes are embedded and switch on
``prefers-color-scheme``.  All dynamic strings enter the DOM via
``textContent`` — method names come from profiled code and are
untrusted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.store.runstore import RunStore

#: Categorical slots (light, dark) in fixed order — identity follows
#: the slot, never the rank, and the series cap is len(_SLOTS).
_SLOTS = 5


def dashboard_data(store: "RunStore", top: int = 10) -> dict:
    """Collect everything the dashboard shows into one JSON-ready dict."""
    stats = store.stats()
    aggregates = store.top_methods(top)
    methods, runs, matrix = store.method_trend_matrix()
    # Trend series: hottest methods by total energy, capped at the
    # categorical series budget, in energy order (slot = entity).
    totals = matrix.sum(axis=0) if matrix.size else matrix
    hot = (
        sorted(range(len(methods)), key=lambda i: -totals[i])[:_SLOTS]
        if len(methods)
        else []
    )
    trends = [
        {"method": methods[i], "values": [float(v) for v in matrix[:, i]]}
        for i in hot
    ]
    return {
        "stats": {
            "runs": stats.runs,
            "rows": stats.rows,
            "methods": stats.methods,
            "contexts": stats.contexts,
            "bytes": stats.bytes,
            "last_ingest": stats.last_ingest,
            "total_package_joules": stats.total_package_joules,
        },
        "top_methods": [
            {
                "method": a.method,
                "calls": a.calls,
                "wall_seconds": a.wall_seconds,
                "package_joules": a.package_joules,
                "exclusive_package_joules": a.exclusive_package_joules,
                "suspect_calls": a.suspect_calls,
            }
            for a in aggregates
        ],
        "run_labels": [r.label for r in runs],
        "trends": trends,
        "drift": [
            {
                "method": f.method,
                "direction": f.direction,
                "reference_mean": f.reference_mean,
                "recent_mean": f.recent_mean,
                "epsilon": f.epsilon,
                "first_run": f.first_run,
            }
            for f in store.drift_flags()
        ],
        "outliers": [
            {
                "method": o.method,
                "run": o.run_label,
                "package_joules": o.package_joules,
                "lower": o.lower,
                "upper": o.upper,
            }
            for o in store.outlier_runs()
        ],
        "contexts": [
            {
                "context": c.context,
                "exclusive_package_joules": c.exclusive_package_joules,
                "rows": c.rows,
            }
            for c in store.context_totals()
        ],
    }


def render_dashboard(store: "RunStore", top: int = 10) -> str:
    """The full dashboard as one self-contained HTML string."""
    data = dashboard_data(store, top=top)
    payload = json.dumps(data, separators=(",", ":")).replace("</", "<\\/")
    return _TEMPLATE.replace("__PEPO_DATA__", payload)


def write_dashboard(
    store: "RunStore", path: str | Path, top: int = 10
) -> Path:
    path = Path(path)
    path.write_text(render_dashboard(store, top=top))
    return path


_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>pepo — profile analytics</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4;
  --status-good: #0ca30c; --status-serious: #ec835a;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --series-4: #c98500; --series-5: #d55181;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px; min-height: 100vh;
}
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 20px 24px; margin-bottom: 20px;
}
h1 { font-size: 18px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 14px; font-weight: 600; margin: 0 0 12px; }
.sub { color: var(--text-secondary); font-size: 12px; margin: 0 0 20px; }
.kpis { display: flex; gap: 20px; flex-wrap: wrap; margin-bottom: 20px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; min-width: 130px;
}
.tile .label { font-size: 12px; color: var(--text-secondary); }
.tile .value { font-size: 28px; font-weight: 600; margin-top: 2px; }
.tile.hero .value { font-size: 48px; }
.tile .unit { font-size: 13px; color: var(--muted); font-weight: 400; }
svg text { font-family: inherit; }
.axis-text { font-size: 11px; fill: var(--muted);
             font-variant-numeric: tabular-nums; }
.bar-label { font-size: 11px; fill: var(--text-secondary); }
.bar-value { font-size: 11px; fill: var(--text-primary);
             font-variant-numeric: tabular-nums; }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin: 8px 0 0;
          font-size: 12px; color: var(--text-secondary); }
.legend .key { display: inline-block; width: 14px; height: 0;
               border-top: 2px solid; border-radius: 1px;
               vertical-align: middle; margin-right: 6px; }
table { border-collapse: collapse; width: 100%; font-size: 12px; }
th { text-align: left; color: var(--text-secondary); font-weight: 500;
     border-bottom: 1px solid var(--baseline); padding: 6px 12px 6px 0; }
td { border-bottom: 1px solid var(--grid); padding: 6px 12px 6px 0;
     font-variant-numeric: tabular-nums; }
td.txt { font-variant-numeric: normal; }
.dir { font-weight: 600; }
.dir.up { color: var(--status-serious); }
.dir.down { color: var(--status-good); }
.empty { color: var(--muted); font-size: 12px; }
#tooltip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 8px 12px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.15);
}
#tooltip .t-title { color: var(--text-secondary); margin-bottom: 4px; }
#tooltip .row { display: flex; align-items: center; gap: 6px;
                margin: 2px 0; }
#tooltip .row .key { width: 12px; height: 0; border-top: 2px solid;
                     border-radius: 1px; }
#tooltip .row .val { font-weight: 600;
                     font-variant-numeric: tabular-nums; }
#tooltip .row .name { color: var(--text-secondary); }
</style>
</head>
<body class="viz-root">
<h1>pepo profile analytics</h1>
<p class="sub" id="subtitle"></p>
<div class="kpis" id="kpis"></div>
<div class="card"><h2>Top methods by package energy</h2>
  <div id="topchart"></div></div>
<div class="card"><h2>Per-run energy trend (hottest methods)</h2>
  <div id="trendchart"></div><div class="legend" id="trendlegend"></div></div>
<div class="card"><h2>Energy drift flags</h2><div id="drift"></div></div>
<div class="card"><h2>Outlier runs (Tukey fences)</h2><div id="outliers"></div></div>
<div class="card"><h2>Execution contexts</h2><div id="contexts"></div></div>
<div class="card"><h2>Top methods — table</h2><div id="toptable"></div></div>
<div id="tooltip"></div>
<script id="pepo-data" type="application/json">__PEPO_DATA__</script>
<script>
"use strict";
const DATA = JSON.parse(document.getElementById("pepo-data").textContent);
const css = name =>
  getComputedStyle(document.body).getPropertyValue(name).trim();
const SERIES = () => [1, 2, 3, 4, 5].map(i => css("--series-" + i));
const fmt = (v, d) => v.toLocaleString("en-US",
  {maximumFractionDigits: d === undefined ? 2 : d});
const el = (tag, cls, text) => {
  const node = document.createElement(tag);
  if (cls) node.className = cls;
  if (text !== undefined) node.textContent = text;
  return node;
};
const svgEl = (tag, attrs) => {
  const node = document.createElementNS("http://www.w3.org/2000/svg", tag);
  for (const [k, v] of Object.entries(attrs || {})) node.setAttribute(k, v);
  return node;
};
const tooltip = document.getElementById("tooltip");
function showTooltip(x, y, title, rows) {
  tooltip.textContent = "";
  tooltip.appendChild(el("div", "t-title", title));
  for (const r of rows) {
    const row = el("div", "row");
    const key = el("span", "key");
    key.style.borderTopColor = r.color;
    row.appendChild(key);
    row.appendChild(el("span", "val", r.value));
    row.appendChild(el("span", "name", r.name));
    tooltip.appendChild(row);
  }
  tooltip.style.display = "block";
  const w = tooltip.offsetWidth, h = tooltip.offsetHeight;
  tooltip.style.left = Math.min(x + 14, innerWidth - w - 8) + "px";
  tooltip.style.top = Math.max(8, Math.min(y - h - 10, innerHeight - h - 8)) + "px";
}
const hideTooltip = () => { tooltip.style.display = "none"; };

// --- KPI row -------------------------------------------------------
(function kpis() {
  const s = DATA.stats;
  document.getElementById("subtitle").textContent =
    s.runs + " runs · " + fmt(s.rows, 0) + " records · last ingest " +
    (s.last_ingest || "never");
  const root = document.getElementById("kpis");
  const tile = (label, value, unit, hero) => {
    const t = el("div", hero ? "tile hero" : "tile");
    t.appendChild(el("div", "label", label));
    const v = el("div", "value", value);
    if (unit) v.appendChild(el("span", "unit", " " + unit));
    t.appendChild(v);
    root.appendChild(t);
  };
  tile("Total package energy", fmt(s.total_package_joules, 1), "J", true);
  tile("Runs", fmt(s.runs, 0));
  tile("Records", fmt(s.rows, 0));
  tile("Methods", fmt(s.methods, 0));
  tile("Drift flags", fmt(DATA.drift.length, 0));
})();

// --- Top methods: horizontal bars, one sequential hue --------------
(function topChart() {
  const root = document.getElementById("topchart");
  const rows = DATA.top_methods;
  if (!rows.length) { root.appendChild(el("p", "empty", "No runs ingested yet.")); return; }
  const barH = 18, gap = 14, labelW = 260, valueW = 90;
  const width = 900, plotW = width - labelW - valueW;
  const height = rows.length * (barH + gap) + 10;
  const max = Math.max(...rows.map(r => r.package_joules)) || 1;
  const svg = svgEl("svg", {viewBox: `0 0 ${width} ${height}`,
    width: "100%", role: "img",
    "aria-label": "Top methods by package energy"});
  // hairline grid at quarter marks
  for (let q = 1; q <= 4; q++) {
    const x = labelW + plotW * q / 4;
    svg.appendChild(svgEl("line", {x1: x, x2: x, y1: 0, y2: height - 4,
      stroke: css("--grid"), "stroke-width": 1}));
  }
  svg.appendChild(svgEl("line", {x1: labelW, x2: labelW, y1: 0,
    y2: height - 4, stroke: css("--baseline"), "stroke-width": 1}));
  rows.forEach((r, i) => {
    const y = i * (barH + gap) + 5;
    const w = Math.max(plotW * r.package_joules / max, 2);
    const name = svgEl("text", {x: labelW - 10, y: y + barH - 5,
      "text-anchor": "end", class: "bar-label"});
    name.textContent = r.method.length > 38
      ? "…" + r.method.slice(-37) : r.method;
    svg.appendChild(name);
    // 4px rounded data-end, square at the baseline
    const rr = Math.min(4, w / 2);
    const bar = svgEl("path", {d:
      `M${labelW},${y} h${w - rr} a${rr},${rr} 0 0 1 ${rr},${rr}` +
      ` v${barH - 2 * rr} a${rr},${rr} 0 0 1 -${rr},${rr}` +
      ` h-${w - rr} Z`,
      fill: css("--series-1")});
    svg.appendChild(bar);
    const val = svgEl("text", {x: labelW + w + 8, y: y + barH - 5,
      class: "bar-value"});
    val.textContent = fmt(r.package_joules, 1) + " J";
    svg.appendChild(val);
    // hit target bigger than the mark
    const hit = svgEl("rect", {x: 0, y: y - gap / 2, width: width,
      height: barH + gap, fill: "transparent"});
    hit.addEventListener("pointermove", e => showTooltip(
      e.clientX, e.clientY, r.method, [
        {color: css("--series-1"), value: fmt(r.package_joules, 2) + " J",
         name: "package"},
        {color: css("--series-1"),
         value: fmt(r.exclusive_package_joules, 2) + " J",
         name: "exclusive"},
        {color: css("--series-1"), value: fmt(r.calls, 0), name: "calls"},
      ]));
    hit.addEventListener("pointerleave", hideTooltip);
    svg.appendChild(hit);
  });
  root.appendChild(svg);
})();

// --- Trends: multi-line, categorical slots, crosshair tooltip ------
(function trendChart() {
  const root = document.getElementById("trendchart");
  const labels = DATA.run_labels, series = DATA.trends;
  if (labels.length < 2 || !series.length) {
    root.appendChild(el("p", "empty",
      "Need at least two runs for a trend."));
    return;
  }
  const colors = SERIES();
  const width = 900, height = 260;
  const pad = {l: 70, r: 20, t: 10, b: 28};
  const plotW = width - pad.l - pad.r, plotH = height - pad.t - pad.b;
  const max = Math.max(...series.flatMap(s => s.values)) || 1;
  const x = i => pad.l + plotW * i / (labels.length - 1);
  const y = v => pad.t + plotH * (1 - v / max);
  const svg = svgEl("svg", {viewBox: `0 0 ${width} ${height}`,
    width: "100%", role: "img",
    "aria-label": "Per-run package energy of the hottest methods"});
  for (let q = 0; q <= 4; q++) {
    const gy = pad.t + plotH * q / 4;
    svg.appendChild(svgEl("line", {x1: pad.l, x2: width - pad.r,
      y1: gy, y2: gy, stroke: css("--grid"), "stroke-width": 1}));
    const t = svgEl("text", {x: pad.l - 8, y: gy + 4,
      "text-anchor": "end", class: "axis-text"});
    t.textContent = fmt(max * (1 - q / 4), 1);
    svg.appendChild(t);
  }
  svg.appendChild(svgEl("line", {x1: pad.l, x2: width - pad.r,
    y1: pad.t + plotH, y2: pad.t + plotH,
    stroke: css("--baseline"), "stroke-width": 1}));
  labels.forEach((lab, i) => {
    if (labels.length > 12 && i % Math.ceil(labels.length / 12)) return;
    const t = svgEl("text", {x: x(i), y: height - 8,
      "text-anchor": "middle", class: "axis-text"});
    t.textContent = lab.length > 12 ? lab.slice(0, 11) + "…" : lab;
    svg.appendChild(t);
  });
  series.forEach((s, si) => {
    const d = s.values.map((v, i) =>
      (i ? "L" : "M") + x(i) + "," + y(v)).join("");
    svg.appendChild(svgEl("path", {d, fill: "none",
      stroke: colors[si], "stroke-width": 2,
      "stroke-linejoin": "round", "stroke-linecap": "round"}));
    // end marker: >=8px with a 2px surface ring
    const last = s.values.length - 1;
    svg.appendChild(svgEl("circle", {cx: x(last), cy: y(s.values[last]),
      r: 6, fill: colors[si], stroke: css("--surface-1"),
      "stroke-width": 2}));
  });
  const cross = svgEl("line", {y1: pad.t, y2: pad.t + plotH,
    stroke: css("--baseline"), "stroke-width": 1, visibility: "hidden"});
  svg.appendChild(cross);
  const hit = svgEl("rect", {x: pad.l, y: pad.t, width: plotW,
    height: plotH, fill: "transparent"});
  hit.addEventListener("pointermove", e => {
    const box = svg.getBoundingClientRect();
    const fx = (e.clientX - box.left) * width / box.width;
    const i = Math.max(0, Math.min(labels.length - 1,
      Math.round((fx - pad.l) / plotW * (labels.length - 1))));
    cross.setAttribute("x1", x(i));
    cross.setAttribute("x2", x(i));
    cross.setAttribute("visibility", "visible");
    showTooltip(e.clientX, e.clientY, labels[i], series.map((s, si) => ({
      color: colors[si], value: fmt(s.values[i], 2) + " J",
      name: s.method.length > 30 ? "…" + s.method.slice(-29) : s.method,
    })));
  });
  hit.addEventListener("pointerleave", () => {
    cross.setAttribute("visibility", "hidden"); hideTooltip();
  });
  svg.appendChild(hit);
  root.appendChild(svg);
  const legend = document.getElementById("trendlegend");
  series.forEach((s, si) => {
    const item = el("span");
    const key = el("span", "key");
    key.style.borderTopColor = colors[si];
    item.appendChild(key);
    item.appendChild(document.createTextNode(s.method));
    legend.appendChild(item);
  });
})();

// --- Tables --------------------------------------------------------
function table(rootId, headers, rows, empty) {
  const root = document.getElementById(rootId);
  if (!rows.length) { root.appendChild(el("p", "empty", empty)); return; }
  const t = el("table");
  const thead = el("thead"), tr = el("tr");
  headers.forEach(h => tr.appendChild(el("th", null, h)));
  thead.appendChild(tr);
  t.appendChild(thead);
  const tbody = el("tbody");
  rows.forEach(cells => {
    const r = el("tr");
    cells.forEach(c => r.appendChild(
      c instanceof Node ? (() => { const td = el("td"); td.appendChild(c);
        return td; })() : el("td", typeof c === "string" && isNaN(c) ? "txt" : null, c)));
    tbody.appendChild(r);
  });
  t.appendChild(tbody);
  root.appendChild(t);
}
table("drift",
  ["Method", "Direction", "Reference mean", "Recent mean", "ε", "First drifted run"],
  DATA.drift.map(d => {
    const dir = el("span", "dir " + d.direction,
      (d.direction === "up" ? "\\u25b2 up" : "\\u25bc down"));
    return [d.method, dir, fmt(d.reference_mean, 2) + " J",
      fmt(d.recent_mean, 2) + " J", fmt(d.epsilon, 2),
      d.first_run];
  }),
  "No drift detected across the ingested runs.");
table("outliers",
  ["Method", "Run", "Package J", "Lower fence", "Upper fence"],
  DATA.outliers.map(o => [o.method, o.run, fmt(o.package_joules, 2),
    fmt(o.lower, 2), fmt(o.upper, 2)]),
  "No outlier runs (needs at least four runs).");
table("contexts",
  ["Context", "Exclusive package J", "Records"],
  DATA.contexts.map(c => [c.context,
    fmt(c.exclusive_package_joules, 2), fmt(c.rows, 0)]),
  "No context data.");
table("toptable",
  ["Method", "Calls", "Wall s", "Package J", "Exclusive J", "Suspect"],
  DATA.top_methods.map(r => [r.method, fmt(r.calls, 0),
    fmt(r.wall_seconds, 3), fmt(r.package_joules, 2),
    fmt(r.exclusive_package_joules, 2), fmt(r.suspect_calls, 0)]),
  "No runs ingested yet.");
</script>
</body>
</html>
"""
