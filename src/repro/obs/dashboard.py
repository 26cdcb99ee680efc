"""The single-file live dashboard served at ``/dashboard``.

One self-contained HTML page, zero external assets, rendered by
:func:`render_dashboard` and served by the transport server and ``obs
serve``.  The page connects to the server's ``/stream`` SSE route and
appends each frame to client-side ring buffers; if SSE fails (proxy,
old browser), it silently falls back to polling ``/series`` and
``/events``.

Chart conventions follow the repo's dataviz rules: categorical hues are
assigned in a fixed slot order (never cycled — a 9th series folds into
the overflow note), one y-axis per chart, 2px lines on a recessive
grid, a legend for every multi-series chart, and gauge-backed series
whose last update is older than three sample intervals are greyed as
stale.  Light and dark palettes are separately specified (not an
automatic flip) and switch on ``prefers-color-scheme``.

:func:`live_routes` is the one route table behind the page — the
transport server and ``obs serve`` both mount it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, AsyncIterator, Dict

import repro.obs.prom as prom
from repro.transport.aio import RawResponse, SseRoute

__all__ = ["live_routes", "render_dashboard"]


# Fixed categorical slots (light, dark) — assigned by slot order, never
# generated or cycled.  Validated against the light/dark surfaces.
_PALETTE_LIGHT = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                  "#e87ba4", "#008300", "#4a3aa7", "#e34948"]
_PALETTE_DARK = ["#3987e5", "#d95926", "#199e70", "#c98500",
                 "#d55181", "#008300", "#9085e9", "#e66767"]

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
:root {
  --surface: #fcfcfb; --panel: #ffffff; --ink: #1a1a19;
  --ink-2: #55534e; --ink-muted: #8a877f; --grid: #e8e6e1;
  --border: #dddad2; --accent: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #232321; --ink: #f0efec;
    --ink-2: #b5b2aa; --ink-muted: #7d7a73; --grid: #33322f;
    --border: #3c3b37; --accent: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 16px 20px; background: var(--surface);
  color: var(--ink);
  font: 13px/1.45 ui-sans-serif, system-ui, -apple-system, sans-serif;
}
h1 { font-size: 16px; font-weight: 600; margin: 0 0 2px; }
#status { color: var(--ink-muted); margin-bottom: 14px; }
#status .dot {
  display: inline-block; width: 8px; height: 8px; border-radius: 50%;
  background: var(--ink-muted); margin-right: 5px;
}
#status.live .dot { background: #008300; }
#charts {
  display: grid; gap: 14px;
  grid-template-columns: repeat(auto-fill, minmax(380px, 1fr));
}
.chart {
  background: var(--panel); border: 1px solid var(--border);
  border-radius: 6px; padding: 10px 12px 8px; position: relative;
}
.chart h2 {
  font-size: 12px; font-weight: 600; margin: 0 0 6px;
  color: var(--ink-2); text-transform: none;
}
.chart canvas { width: 100%; height: 130px; display: block; }
.legend {
  display: flex; flex-wrap: wrap; gap: 4px 14px; margin-top: 6px;
  color: var(--ink-2); font-size: 11.5px;
}
.legend .sw {
  display: inline-block; width: 10px; height: 3px; border-radius: 2px;
  vertical-align: middle; margin-right: 5px;
}
.legend .stale { color: var(--ink-muted); }
.legend .stale .sw { opacity: 0.35; }
.legend .val { color: var(--ink-muted); margin-left: 4px; }
.overflow-note { color: var(--ink-muted); font-size: 11px; margin-top: 4px; }
.tip {
  position: absolute; pointer-events: none; display: none;
  background: var(--panel); border: 1px solid var(--border);
  border-radius: 4px; padding: 5px 8px; font-size: 11px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.12); z-index: 5; white-space: nowrap;
}
#events-panel { margin-top: 18px; }
#events-panel h2 { font-size: 13px; font-weight: 600; margin: 0 0 6px; }
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: left; padding: 3px 12px 3px 0; font-size: 12px;
  border-bottom: 1px solid var(--grid);
}
th { color: var(--ink-muted); font-weight: 500; }
td.kind { font-weight: 600; }
td.fields { color: var(--ink-2); font-family: ui-monospace, monospace;
            font-size: 11px; }
</style>
</head>
<body data-palette-light="__PALETTE_LIGHT__"
      data-palette-dark="__PALETTE_DARK__">
<h1>__TITLE__</h1>
<div id="status"><span class="dot"></span><span id="status-text">connecting&hellip;</span></div>
<div id="charts"></div>
<div id="events-panel">
  <h2>Flight events</h2>
  <table>
    <thead><tr><th>seq</th><th>time</th><th>kind</th><th>fields</th></tr></thead>
    <tbody id="events-body"><tr><td colspan="4" style="color:var(--ink-muted)">none yet</td></tr></tbody>
  </table>
</div>
<script>
"use strict";
const STREAM_PATH = "/stream";
const SERIES_PATH = "/series";
const EVENTS_PATH = "/events";
const INTERVAL_MS = __INTERVAL_MS__;
const MAX_POINTS = 600;
const MAX_SERIES_PER_CHART = 8;
const MAX_EVENT_ROWS = 40;

const dark = window.matchMedia &&
  window.matchMedia("(prefers-color-scheme: dark)").matches;
const PALETTE = (dark ? document.body.dataset.paletteDark
                      : document.body.dataset.paletteLight).split(",");

// name -> {points: [[t, v], ...], slot, lastT, kind}
const series = new Map();
// group name -> {names: [...], canvas, legendEl, overflowEl, tipEl}
const charts = new Map();
let lastEventSeq = 0;
let eventRows = [];

function groupOf(name) {
  const parts = name.split(".");
  return parts[parts.length - 1];
}

function ensureSeries(name) {
  let s = series.get(name);
  if (s) return s;
  s = { points: [], slot: series.size % PALETTE.length, lastT: 0, kind: "" };
  series.set(name, s);
  const g = groupOf(name);
  if (!charts.has(g)) buildChart(g);
  const chart = charts.get(g);
  if (!chart.names.includes(name)) {
    chart.names.push(name);
    chart.names.sort();
    // Slots are per-chart and fixed per entity: re-derive from the
    // sorted order once, then never change as series come and go.
    chart.names.forEach((n, i) => {
      const ss = series.get(n);
      if (ss) ss.slot = Math.min(i, PALETTE.length - 1);
    });
  }
  return s;
}

function buildChart(group) {
  const box = document.createElement("div");
  box.className = "chart";
  box.innerHTML = '<h2></h2><canvas></canvas>' +
    '<div class="legend"></div><div class="overflow-note"></div>' +
    '<div class="tip"></div>';
  box.querySelector("h2").textContent = group;
  document.getElementById("charts").appendChild(box);
  const canvas = box.querySelector("canvas");
  const chart = {
    names: [], canvas: canvas,
    legendEl: box.querySelector(".legend"),
    overflowEl: box.querySelector(".overflow-note"),
    tipEl: box.querySelector(".tip"), box: box, hoverT: null,
  };
  canvas.addEventListener("mousemove", (ev) => {
    const r = canvas.getBoundingClientRect();
    chart.hoverX = ev.clientX - r.left;
    drawChart(group);
  });
  canvas.addEventListener("mouseleave", () => {
    chart.hoverX = null; chart.tipEl.style.display = "none";
    drawChart(group);
  });
  charts.set(group, chart);
}

function cssVar(name) {
  return getComputedStyle(document.documentElement)
    .getPropertyValue(name).trim();
}

function fmt(v) {
  if (!isFinite(v)) return String(v);
  const a = Math.abs(v);
  if (a >= 1e6) return (v / 1e6).toFixed(2) + "M";
  if (a >= 1e3) return (v / 1e3).toFixed(2) + "k";
  if (a >= 100) return v.toFixed(1);
  if (a >= 1) return v.toFixed(2);
  return v.toPrecision(3);
}

function drawChart(group) {
  const chart = charts.get(group);
  const canvas = chart.canvas;
  const dpr = window.devicePixelRatio || 1;
  const w = canvas.clientWidth, h = canvas.clientHeight;
  if (canvas.width !== w * dpr) { canvas.width = w * dpr; canvas.height = h * dpr; }
  const ctx = canvas.getContext("2d");
  ctx.setTransform(dpr, 0, 0, dpr, 0, 0);
  ctx.clearRect(0, 0, w, h);

  const drawn = chart.names.slice(0, MAX_SERIES_PER_CHART);
  const hidden = chart.names.length - drawn.length;
  chart.overflowEl.textContent =
    hidden > 0 ? "+" + hidden + " more series not drawn" : "";

  let t0 = Infinity, t1 = -Infinity, v0 = Infinity, v1 = -Infinity;
  for (const n of drawn) {
    for (const [t, v] of series.get(n).points) {
      if (t < t0) t0 = t; if (t > t1) t1 = t;
      if (v < v0) v0 = v; if (v > v1) v1 = v;
    }
  }
  if (!isFinite(t0)) return;
  if (t1 - t0 < 1e-9) t1 = t0 + 1;
  if (v1 - v0 < 1e-12) { v1 = v0 + (Math.abs(v0) || 1) * 0.1; v0 -= (Math.abs(v0) || 1) * 0.1; }
  const padL = 44, padR = 6, padT = 6, padB = 16;
  const X = (t) => padL + (t - t0) / (t1 - t0) * (w - padL - padR);
  const Y = (v) => padT + (1 - (v - v0) / (v1 - v0)) * (h - padT - padB);

  // recessive grid: 3 horizontal lines + y tick labels
  ctx.strokeStyle = cssVar("--grid"); ctx.lineWidth = 1;
  ctx.fillStyle = cssVar("--ink-muted");
  ctx.font = "10px ui-sans-serif, system-ui, sans-serif";
  for (let i = 0; i <= 2; i++) {
    const v = v0 + (v1 - v0) * i / 2, y = Y(v);
    ctx.beginPath(); ctx.moveTo(padL, y); ctx.lineTo(w - padR, y); ctx.stroke();
    ctx.fillText(fmt(v), 2, y + 3);
  }
  const span = t1 - t0;
  ctx.fillText("-" + (span >= 60 ? (span / 60).toFixed(1) + "m" : span.toFixed(0) + "s"),
               padL, h - 4);
  ctx.fillText("now", w - padR - 24, h - 4);

  const now = latestWallClock();
  const staleCut = 3 * (INTERVAL_MS / 1000);
  for (const n of drawn) {
    const s = series.get(n);
    if (s.points.length === 0) continue;
    const stale = s.kind === "gauge" && now - s.lastT > staleCut;
    ctx.strokeStyle = PALETTE[s.slot];
    ctx.globalAlpha = stale ? 0.3 : 1.0;
    ctx.lineWidth = 2; ctx.lineJoin = "round"; ctx.beginPath();
    s.points.forEach(([t, v], i) => {
      const x = X(t), y = Y(v);
      if (i === 0) ctx.moveTo(x, y); else ctx.lineTo(x, y);
    });
    ctx.stroke();
    ctx.globalAlpha = 1.0;
  }

  // hover crosshair + tooltip: nearest sample time across drawn series
  if (chart.hoverX != null && chart.hoverX > padL) {
    const tq = t0 + (chart.hoverX - padL) / (w - padL - padR) * (t1 - t0);
    ctx.strokeStyle = cssVar("--ink-muted"); ctx.lineWidth = 1;
    ctx.setLineDash([3, 3]); ctx.beginPath();
    ctx.moveTo(chart.hoverX, padT); ctx.lineTo(chart.hoverX, h - padB);
    ctx.stroke(); ctx.setLineDash([]);
    const rows = [];
    for (const n of drawn) {
      const pts = series.get(n).points;
      if (!pts.length) continue;
      let best = pts[0];
      for (const p of pts) if (Math.abs(p[0] - tq) < Math.abs(best[0] - tq)) best = p;
      rows.push(n + ": " + fmt(best[1]));
    }
    if (rows.length) {
      chart.tipEl.style.display = "block";
      chart.tipEl.textContent = rows.join("  ·  ");
      chart.tipEl.style.left = Math.min(chart.hoverX + 14, w - 150) + "px";
      chart.tipEl.style.top = "30px";
    } else {
      chart.tipEl.style.display = "none";
    }
  }

  // legend: swatch + name + last value; stale gauges greyed
  if (chart.legendEl.childElementCount !== drawn.length || true) {
    chart.legendEl.innerHTML = "";
    for (const n of drawn) {
      const s = series.get(n);
      const stale = s.kind === "gauge" && now - s.lastT > staleCut;
      const item = document.createElement("span");
      if (stale) item.className = "stale";
      const sw = document.createElement("span");
      sw.className = "sw"; sw.style.background = PALETTE[s.slot];
      const val = document.createElement("span");
      val.className = "val";
      const last = s.points.length ? fmt(s.points[s.points.length - 1][1]) : "·";
      val.textContent = stale ? last + " (stale)" : last;
      item.appendChild(sw);
      item.appendChild(document.createTextNode(n));
      item.appendChild(val);
      chart.legendEl.appendChild(item);
    }
  }
}

function latestWallClock() {
  let t = 0;
  for (const s of series.values()) if (s.lastT > t) t = s.lastT;
  return t;
}

function appendPoint(name, t, v, kind) {
  const s = ensureSeries(name);
  if (kind) s.kind = kind;
  if (s.points.length && s.points[s.points.length - 1][0] >= t) return;
  s.points.push([t, v]);
  if (s.points.length > MAX_POINTS) s.points.shift();
  s.lastT = t;
}

function renderEvents() {
  const body = document.getElementById("events-body");
  if (!eventRows.length) return;
  body.innerHTML = "";
  for (const ev of eventRows.slice(-MAX_EVENT_ROWS).reverse()) {
    const tr = document.createElement("tr");
    const fields = Object.entries(ev.fields || {})
      .map(([k, v]) => k + "=" + v).join(" ");
    const when = new Date(ev.ts * 1000).toLocaleTimeString();
    for (const [cls, text] of [["seq", ev.seq], ["ts", when],
                               ["kind", ev.kind], ["fields", fields]]) {
      const td = document.createElement("td");
      td.className = cls; td.textContent = text;
      tr.appendChild(td);
    }
    body.appendChild(tr);
  }
}

function ingestFrame(frame) {
  const t = frame.t;
  for (const [name, entry] of Object.entries(frame.latest || {})) {
    const isObj = entry && typeof entry === "object";
    appendPoint(name, t, isObj ? entry.value : entry,
                isObj ? entry.kind : null);
  }
  for (const ev of frame.events || []) {
    if (ev.seq > lastEventSeq) { lastEventSeq = ev.seq; eventRows.push(ev); }
  }
  if (eventRows.length > 4 * MAX_EVENT_ROWS) {
    eventRows = eventRows.slice(-MAX_EVENT_ROWS);
  }
  redraw();
}

function ingestSnapshot(doc) {
  for (const [name, entry] of Object.entries(doc.series || {})) {
    const pts = entry.points || [];
    const s = ensureSeries(name);
    s.kind = entry.kind || s.kind;
    s.points = pts.slice(-MAX_POINTS);
    if (s.points.length) s.lastT = s.points[s.points.length - 1][0];
  }
  redraw();
}

function redraw() {
  for (const g of charts.keys()) drawChart(g);
  renderEvents();
}

function setStatus(live, text) {
  document.getElementById("status").className = live ? "live" : "";
  document.getElementById("status-text").textContent = text;
}

let pollTimer = null;
function startPolling() {
  if (pollTimer) return;
  setStatus(true, "polling every " + INTERVAL_MS + "ms (SSE unavailable)");
  const tick = () => {
    fetch(SERIES_PATH).then(r => r.json()).then(ingestSnapshot)
      .catch(() => setStatus(false, "disconnected - retrying"));
    fetch(EVENTS_PATH + "?since=" + lastEventSeq).then(r => r.json())
      .then(doc => {
        for (const ev of doc.events || []) {
          if (ev.seq > lastEventSeq) { lastEventSeq = ev.seq; eventRows.push(ev); }
        }
        renderEvents();
      }).catch(() => {});
  };
  tick();
  pollTimer = setInterval(tick, INTERVAL_MS);
}

function connect() {
  if (!window.EventSource) { startPolling(); return; }
  const es = new EventSource(STREAM_PATH);
  let gotFrame = false;
  es.onmessage = (msg) => {
    gotFrame = true;
    setStatus(true, "live (SSE)");
    ingestFrame(JSON.parse(msg.data));
  };
  es.onerror = () => {
    es.close();
    if (gotFrame) {
      setStatus(false, "stream ended - reconnecting");
      setTimeout(connect, INTERVAL_MS);
    } else {
      startPolling();
    }
  };
}

// Seed history from the snapshot, then go live.
fetch(SERIES_PATH).then(r => r.json()).then(ingestSnapshot).catch(() => {});
fetch(EVENTS_PATH).then(r => r.json()).then(doc => {
  for (const ev of doc.events || []) {
    if (ev.seq > lastEventSeq) { lastEventSeq = ev.seq; eventRows.push(ev); }
  }
  renderEvents();
}).catch(() => {});
connect();
window.addEventListener("resize", redraw);
</script>
</body>
</html>
"""


def render_dashboard(*, title: str, interval_ms: int) -> str:
    """Render the dashboard HTML (one self-contained page) for the
    routes :func:`live_routes` mounts."""
    return (_PAGE
            .replace("__TITLE__", title)
            .replace("__INTERVAL_MS__", str(int(interval_ms)))
            .replace("__PALETTE_LIGHT__", ",".join(_PALETTE_LIGHT))
            .replace("__PALETTE_DARK__", ",".join(_PALETTE_DARK)))


def live_routes(registry: Any, recorder: Any, flight: Any, *, title: str,
                interval: float) -> Dict[str, Any]:
    """``/metrics.prom``, ``/series``, ``/events``, ``/dashboard`` and
    ``/stream`` over one session's registry, series recorder and flight
    recorder, for a :class:`~repro.transport.aio.MetricsHttpServer`.

    ``/stream`` sends a frame every ``interval`` (at least 0.1 s): the
    latest values plus the events recorded since the previous frame, the
    first replaying the retained ring so a fresh page sees history.
    """
    interval_ms = max(int(interval * 1000), 100)

    async def stream() -> AsyncIterator[dict]:
        last_seq = 0
        while True:
            events = flight.events(since=last_seq, limit=250)
            if events:
                last_seq = events[-1].seq
            yield {
                "t": time.time(),
                "latest": recorder.last_values(),
                "events": [e.to_json_dict() for e in events],
            }
            await asyncio.sleep(max(interval, 0.1))

    return {
        "/metrics.prom": lambda: RawResponse(
            prom.render_registry(registry), content_type=prom.CONTENT_TYPE),
        "/series": recorder.snapshot,
        "/events": flight.snapshot,
        "/dashboard": lambda: RawResponse(
            render_dashboard(title=title, interval_ms=interval_ms),
            content_type="text/html; charset=utf-8"),
        "/stream": SseRoute(stream),
    }
