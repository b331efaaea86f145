"""The single-file live dashboard the HTTP service serves at ``/``.

One HTML string, zero build step, zero external assets: the page is
plain HTML + CSS custom properties + a vanilla-JS ``EventSource``
against ``/events`` (with ``?since=0`` so the service's own last
samples backfill the sparklines before the first live sample arrives;
browser reconnects resume via the standard ``Last-Event-ID`` header,
which the service prefers over ``?since=``).

Design notes (kept deliberately boring): stat tiles with 2px-line
sparklines, one series each (so no legends), text in ink tokens rather
than series colors, light/dark from ``prefers-color-scheme`` off the
same custom-property block, and a status banner — icon plus label,
never color alone — when the stream drops or the service reports the
broker unreachable.  Fleet counters are cumulative by contract (reaped
workers keep their totals), so rates are derived from deltas between
consecutive samples and the tiles never animate backwards.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro fleet</title>
<style>
  :root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --page: #f9f9f7;
    --ink-primary: #0b0b0b;
    --ink-secondary: #52514e;
    --ink-muted: #898781;
    --grid: #e1e0d9;
    --baseline: #c3c2b7;
    --border: rgba(11, 11, 11, 0.10);
    --series-1: #2a78d6;
    --status-critical: #d03b3b;
    --status-good: #0ca30c;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --page: #0d0d0d;
      --ink-primary: #ffffff;
      --ink-secondary: #c3c2b7;
      --ink-muted: #898781;
      --grid: #2c2c2a;
      --baseline: #383835;
      --border: rgba(255, 255, 255, 0.10);
      --series-1: #3987e5;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0;
    background: var(--page);
    color: var(--ink-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  header {
    display: flex;
    align-items: baseline;
    gap: 12px;
    padding: 16px 20px 8px;
  }
  header h1 { font-size: 16px; font-weight: 600; margin: 0; }
  #status {
    font-size: 13px;
    color: var(--ink-secondary);
  }
  #status.bad { color: var(--status-critical); font-weight: 600; }
  .tiles {
    display: grid;
    grid-template-columns: repeat(auto-fill, minmax(220px, 1fr));
    gap: 12px;
    padding: 8px 20px 20px;
  }
  .tile {
    background: var(--surface-1);
    border: 1px solid var(--border);
    border-radius: 8px;
    padding: 12px 14px 10px;
  }
  .tile .label { font-size: 12px; color: var(--ink-secondary); }
  .tile .value {
    font-size: 26px;
    font-weight: 600;
    margin: 2px 0 0;
  }
  .tile .sub {
    font-size: 11.5px;
    color: var(--ink-muted);
    min-height: 16px;
  }
  .tile canvas { display: block; width: 100%; height: 36px; margin-top: 6px; }
  table#workers {
    border-collapse: collapse;
    margin: 0 20px 24px;
    font-variant-numeric: tabular-nums;
  }
  #workers th, #workers td {
    text-align: left;
    padding: 4px 14px 4px 0;
    border-bottom: 1px solid var(--grid);
    font-size: 13px;
  }
  #workers th { color: var(--ink-muted); font-weight: 500; }
  #workers td.dead { color: var(--ink-muted); }
  .section-label {
    margin: 4px 20px 6px;
    font-size: 12px;
    color: var(--ink-secondary);
  }
</style>
</head>
<body>
<header>
  <h1>repro fleet</h1>
  <span id="status">connecting&hellip;</span>
</header>
<div class="tiles" id="tiles"></div>
<div class="section-label">Workers</div>
<table id="workers">
  <thead>
    <tr><th>worker</th><th>state</th><th>jobs</th><th>failed</th></tr>
  </thead>
  <tbody></tbody>
</table>
<script>
"use strict";
var MAX_POINTS = 120;

// Tile registry: each derives one number per snapshot; "rate" tiles
// also keep the cumulative source so deltas are computed, never raw
// counters (fleet totals are cumulative and must not read as levels).
var TILES = [
  {id: "jobsps", label: "Jobs / s",
   kind: "rate", source: function (s) {
     return (s.fleet.counters["worker.jobs"] || 0);
   }},
  {id: "depth", label: "Queue depth",
   kind: "level", source: function (s) {
     return (s.queue.pending || 0) + (s.queue.leased || 0);
   }},
  {id: "hitrate", label: "Cache hit rate",
   kind: "ratio", num: function (s) { return s.cache.hits || 0; },
   den: function (s) { return s.cache.gets || 0; }},
  {id: "reaped", label: "Reaped jobs",
   kind: "counter", source: function (s) {
     return s.queue.reaped_jobs || 0;
   }},
  {id: "workersup", label: "Workers alive",
   kind: "level", source: function (s) { return s.queue.workers || 0; }}
];

var state = {prev: null, points: {}, last: {}};
TILES.forEach(function (t) { state.points[t.id] = []; });

function fmt(value) {
  if (value === null || value === undefined || isNaN(value)) return "\\u2013";
  if (Math.abs(value) >= 1e6) return (value / 1e6).toFixed(1) + "M";
  if (Math.abs(value) >= 1e4) return (value / 1e3).toFixed(1) + "K";
  if (value !== Math.round(value)) return value.toFixed(2);
  return String(value);
}

function buildTiles() {
  var host = document.getElementById("tiles");
  TILES.forEach(function (t) {
    var tile = document.createElement("div");
    tile.className = "tile";
    tile.innerHTML =
      '<div class="label">' + t.label + '</div>' +
      '<div class="value" id="v-' + t.id + '">\\u2013</div>' +
      '<div class="sub" id="s-' + t.id + '"></div>' +
      '<canvas id="c-' + t.id + '" width="220" height="36"></canvas>';
    host.appendChild(tile);
    var canvas = tile.querySelector("canvas");
    canvas.addEventListener("mousemove", function (ev) {
      var pts = state.points[t.id];
      if (!pts.length) return;
      var rect = canvas.getBoundingClientRect();
      var i = Math.min(pts.length - 1, Math.max(0, Math.round(
        (ev.clientX - rect.left) / rect.width * (pts.length - 1))));
      document.getElementById("s-" + t.id).textContent =
        fmt(pts[i]) + " (sample " + (i + 1 - pts.length) + ")";
    });
    canvas.addEventListener("mouseleave", function () {
      document.getElementById("s-" + t.id).textContent = "";
    });
  });
}

function css(name) {
  return getComputedStyle(document.documentElement)
    .getPropertyValue(name).trim();
}

function drawSpark(id) {
  var canvas = document.getElementById("c-" + id);
  var pts = state.points[id];
  var ctx = canvas.getContext("2d");
  var w = canvas.width = canvas.clientWidth || 220;
  var h = canvas.height;
  ctx.clearRect(0, 0, w, h);
  ctx.strokeStyle = css("--baseline");
  ctx.lineWidth = 1;
  ctx.beginPath();
  ctx.moveTo(0, h - 0.5);
  ctx.lineTo(w, h - 0.5);
  ctx.stroke();
  if (pts.length < 2) return;
  var max = Math.max.apply(null, pts), min = Math.min.apply(null, pts);
  if (max === min) { max += 1; }
  var pad = 4;
  function x(i) { return pad + (w - 2 * pad) * i / (pts.length - 1); }
  function y(v) {
    return pad + (h - 2 * pad) * (1 - (v - min) / (max - min));
  }
  ctx.strokeStyle = css("--series-1");
  ctx.lineWidth = 2;
  ctx.lineJoin = "round";
  ctx.lineCap = "round";
  ctx.beginPath();
  pts.forEach(function (v, i) {
    if (i === 0) ctx.moveTo(x(i), y(v)); else ctx.lineTo(x(i), y(v));
  });
  ctx.stroke();
  // End marker: >=8px dot with a 2px surface ring so it stays legible
  // where it sits on the line.
  var lastX = x(pts.length - 1), lastY = y(pts[pts.length - 1]);
  ctx.fillStyle = css("--surface-1");
  ctx.beginPath();
  ctx.arc(lastX, lastY, 6, 0, 2 * Math.PI);
  ctx.fill();
  ctx.fillStyle = css("--series-1");
  ctx.beginPath();
  ctx.arc(lastX, lastY, 4, 0, 2 * Math.PI);
  ctx.fill();
}

function tileValue(t, snap) {
  if (t.kind === "ratio") {
    var num = t.num(snap), den = t.den(snap);
    var pn = state.prev ? t.num(state.prev) : 0;
    var pd = state.prev ? t.den(state.prev) : 0;
    // Windowed hit rate when traffic moved, cumulative otherwise.
    if (den - pd > 0) return (num - pn) / (den - pd) * 100;
    return den > 0 ? num / den * 100 : null;
  }
  if (t.kind === "rate") {
    if (!state.prev) return null;
    var dt = snap.time.wall - state.prev.time.wall;
    if (dt <= 0) return null;
    var delta = t.source(snap) - t.source(state.prev);
    return delta >= 0 ? delta / dt : null;
  }
  return t.source(snap);
}

function renderWorkers(snap, nowMono) {
  var body = document.querySelector("#workers tbody");
  var rows = Object.keys(snap.workers || {}).sort().map(function (id) {
    var rec = snap.workers[id];
    var dead = !rec.alive;
    var age = rec.last_beat ? (nowMono - rec.last_beat) : null;
    var cls = dead ? ' class="dead"' : "";
    var stateText = dead
      ? "\\u26a0 gone" + (age !== null ? " " + age.toFixed(0) + "s" : "")
      : "up";
    return "<tr>" +
      "<td" + cls + ">" + id + "</td>" +
      "<td" + cls + ">" + stateText + "</td>" +
      "<td" + cls + ">" + fmt(rec.counters["worker.jobs"] || 0) + "</td>" +
      "<td" + cls + ">" + fmt(rec.counters["worker.failed"] || 0) + "</td>" +
      "</tr>";
  });
  body.innerHTML = rows.join("");
}

function onSnapshot(snap) {
  TILES.forEach(function (t) {
    var value = tileValue(t, snap);
    if (value !== null) {
      var pts = state.points[t.id];
      pts.push(value);
      if (pts.length > MAX_POINTS) pts.shift();
      state.last[t.id] = value;
    }
    var el = document.getElementById("v-" + t.id);
    var shown = state.last[t.id];
    el.textContent = t.kind === "ratio" && shown !== undefined
      ? fmt(shown) + "%" : fmt(shown);
    drawSpark(t.id);
  });
  renderWorkers(snap, snap.time.monotonic);
  state.prev = snap;
}

function setStatus(text, bad) {
  var el = document.getElementById("status");
  el.textContent = text;
  el.className = bad ? "bad" : "";
}

buildTiles();
var source = new EventSource("/events?since=0");
source.addEventListener("snapshot", function (ev) {
  var snap = JSON.parse(ev.data);
  if (snap.stale) {
    setStatus("\\u26a0 stale \\u2014 broker unreachable", true);
  } else {
    setStatus("live \\u00b7 seq " + (snap.seq || 0), false);
  }
  onSnapshot(snap);
});
source.addEventListener("status", function (ev) {
  var info = JSON.parse(ev.data);
  if (info.broker === "unreachable") {
    setStatus("\\u26a0 stale \\u2014 broker unreachable", true);
  }
});
source.onerror = function () {
  setStatus("\\u26a0 stream lost \\u2014 reconnecting\\u2026", true);
};
</script>
</body>
</html>
"""
