"""Prometheus text exposition (v0.0.4) rendered from ``obs_snapshot()``.

One function, one direction: :func:`render_prometheus` turns the fleet
snapshot dict — the *same* dict ``repro dist top`` and ``repro obs
dump`` consume — into the plain-text format every Prometheus-compatible
scraper speaks.  Per the ROADMAP's "one metrics path" rule there is no
separate collector registry: whatever ``obs_snapshot()`` says at scrape
time is what the exposition says.

Naming scheme (documented in ``docs/observability.md``):

* ``repro_queue_*`` / ``repro_cache_*`` — broker queue and shared-cache
  stats; monotone counts carry the ``_total`` suffix, levels are gauges.
* ``repro_scheduler_*`` — cost-scheduler gauges (lease sizing etc.).
* ``repro_worker_alive{worker=}`` and
  ``repro_worker_counter_total{worker=,counter=}`` /
  ``repro_worker_gauge{worker=,gauge=}`` — the per-worker fleet view;
  the source counter/gauge name rides in a label so new worker metrics
  never mint new exposition families.
* ``repro_fleet_counter_total{counter=}`` — fleet-wide sums (dead
  workers included, so totals never shrink), with
  ``scenario.replications.<name>`` / ``scenario.blocks.<name>``
  counters split out as
  ``repro_fleet_scenario_replications_total{scenario=}``.
* ``repro_broker_*`` summaries — broker histograms with p50/p95/p99
  ``quantile`` samples plus ``_sum``/``_count``.
* ``repro_scrape_stale`` / ``repro_scrape_age_seconds`` — set by the
  HTTP service when it is serving a cached snapshot because the broker
  stopped answering.

:func:`parse_prometheus` is the strict counterpart used by the
conformance tests (and handy for scripting against ``/metrics``): it
rejects malformed names, labels, escapes, type lines, and duplicate
samples rather than guessing.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["render_prometheus", "parse_prometheus", "PromFormatError"]

#: Queue/cache keys that are monotone counts (``_total`` counters);
#: every other numeric key in those sections is a level (gauge).
_QUEUE_COUNTERS = (
    "completed",
    "reaped_jobs",
    "dropped_batches",
    "lease_grants",
    "lease_jobs",
    "batched_uploads",
    "batched_jobs",
)
_CACHE_COUNTERS = ("gets", "hits", "puts", "evictions")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")

_SCENARIO_PREFIXES = (
    ("scenario.replications.", "repro_fleet_scenario_replications_total"),
    ("scenario.blocks.", "repro_fleet_scenario_blocks_total"),
)


class PromFormatError(ValueError):
    """A ``/metrics`` body that violates the text exposition format."""


def _sanitize(name: str) -> str:
    """A snapshot key as a legal metric-name fragment."""
    return _SANITIZE_RE.sub("_", name)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: Any) -> str:
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Writer:
    """Accumulates families in order, one HELP/TYPE block each."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._seen: set = set()

    def family(self, name: str, kind: str, help_text: str) -> None:
        if name in self._seen:
            return
        self._seen.add(name)
        self._lines.append("# HELP %s %s" % (name, help_text))
        self._lines.append("# TYPE %s %s" % (name, kind))

    def sample(
        self,
        name: str,
        value: Any,
        labels: Optional[Dict[str, str]] = None,
        suffix: str = "",
    ) -> None:
        if labels:
            rendered = ",".join(
                '%s="%s"' % (key, _escape_label(str(labels[key])))
                for key in labels
            )
            self._lines.append(
                "%s%s{%s} %s" % (name, suffix, rendered, _format_value(value))
            )
        else:
            self._lines.append(
                "%s%s %s" % (name, suffix, _format_value(value))
            )

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_prometheus(
    snapshot: Dict[str, Any],
    stale: bool = False,
    age_seconds: Optional[float] = None,
) -> str:
    """The fleet snapshot as Prometheus text exposition v0.0.4.

    ``stale``/``age_seconds`` describe the *sample*, not the fleet: the
    standalone HTTP service sets them when the broker has stopped
    answering and the snapshot being exposed is the last one it saw.
    """
    out = _Writer()

    for key, value in snapshot.get("queue", {}).items():
        if not _is_number(value):
            continue
        name = "repro_queue_%s" % _sanitize(key)
        if key in _QUEUE_COUNTERS:
            out.family(
                name + "_total", "counter", "Broker queue counter: %s." % key
            )
            out.sample(name + "_total", value)
        else:
            out.family(name, "gauge", "Broker queue level: %s." % key)
            out.sample(name, value)

    for key, value in snapshot.get("cache", {}).items():
        if not _is_number(value):
            continue
        name = "repro_cache_%s" % _sanitize(key)
        if key in _CACHE_COUNTERS:
            out.family(
                name + "_total", "counter", "Shared cache counter: %s." % key
            )
            out.sample(name + "_total", value)
        else:
            out.family(name, "gauge", "Shared cache level: %s." % key)
            out.sample(name, value)

    for key, value in snapshot.get("scheduler", {}).items():
        if not _is_number(value):
            continue  # None ratios, the cost sub-dict
        name = "repro_scheduler_%s" % _sanitize(key)
        out.family(name, "gauge", "Cost scheduler gauge: %s." % key)
        out.sample(name, value)

    workers = snapshot.get("workers", {})
    if workers:
        out.family(
            "repro_worker_alive",
            "gauge",
            "1 while the worker heartbeats, 0 once reaped.",
        )
        for worker_id in sorted(workers):
            out.sample(
                "repro_worker_alive",
                1 if workers[worker_id].get("alive") else 0,
                {"worker": worker_id},
            )
        out.family(
            "repro_worker_counter_total",
            "counter",
            "Per-worker shipped counter totals (name in the counter label).",
        )
        for worker_id in sorted(workers):
            counters = workers[worker_id].get("counters", {})
            for counter_name in sorted(counters):
                if not _is_number(counters[counter_name]):
                    continue
                out.sample(
                    "repro_worker_counter_total",
                    counters[counter_name],
                    {"worker": worker_id, "counter": counter_name},
                )
        out.family(
            "repro_worker_gauge",
            "gauge",
            "Per-worker shipped gauge levels (name in the gauge label).",
        )
        for worker_id in sorted(workers):
            gauges = workers[worker_id].get("gauges", {})
            for gauge_name in sorted(gauges):
                if not _is_number(gauges[gauge_name]):
                    continue
                out.sample(
                    "repro_worker_gauge",
                    gauges[gauge_name],
                    {"worker": worker_id, "gauge": gauge_name},
                )

    fleet_counters = snapshot.get("fleet", {}).get("counters", {})
    plain: Dict[str, Any] = {}
    scenario_rows: List[Tuple[str, str, Any]] = []
    for counter_name in sorted(fleet_counters):
        value = fleet_counters[counter_name]
        if not _is_number(value):
            continue
        for prefix, family in _SCENARIO_PREFIXES:
            if counter_name.startswith(prefix):
                scenario_rows.append(
                    (family, counter_name[len(prefix):], value)
                )
                break
        else:
            plain[counter_name] = value
    if plain:
        out.family(
            "repro_fleet_counter_total",
            "counter",
            "Fleet-wide counter sums; reaped workers keep contributing.",
        )
        for counter_name, value in plain.items():
            out.sample(
                "repro_fleet_counter_total",
                value,
                {"counter": counter_name},
            )
    for family, _scenario, _value in scenario_rows:
        out.family(
            family,
            "counter",
            "Fleet work completed, split by scenario.",
        )
    for family, scenario, value in scenario_rows:
        out.sample(family, value, {"scenario": scenario})

    histograms = snapshot.get("broker", {}).get("histograms", {})
    for hist_name in sorted(histograms):
        summary = histograms[hist_name]
        name = "repro_%s" % _sanitize(hist_name)
        out.family(
            name,
            "summary",
            "Streaming log-bucket quantiles of %s." % hist_name,
        )
        for quantile in ("p50", "p95", "p99"):
            if summary.get(quantile) is None:
                continue
            out.sample(
                name,
                summary[quantile],
                {"quantile": "0.%s" % quantile[1:]},
            )
        out.sample(name, summary.get("sum", 0.0), suffix="_sum")
        out.sample(name, summary.get("count", 0), suffix="_count")

    out.family(
        "repro_scrape_stale",
        "gauge",
        "1 when this exposition is a cached snapshot (broker unreachable).",
    )
    out.sample("repro_scrape_stale", 1 if stale else 0)
    if age_seconds is not None:
        out.family(
            "repro_scrape_age_seconds",
            "gauge",
            "Seconds since the exposed snapshot was sampled.",
        )
        out.sample("repro_scrape_age_seconds", max(age_seconds, 0.0))

    return out.text()


# ----------------------------------------------------------------------
# The strict parser (conformance tests, scripting against /metrics).

_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _parse_labels(body: str, line_no: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    position = 0
    while position < len(body):
        match = re.match(r"\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*\"", body[position:])
        if match is None:
            raise PromFormatError(
                "line %d: malformed label pair at %r" % (line_no, body[position:])
            )
        label_name = match.group(1)
        if label_name in labels:
            raise PromFormatError(
                "line %d: duplicate label %r" % (line_no, label_name)
            )
        position += match.end()
        value_chars: List[str] = []
        while True:
            if position >= len(body):
                raise PromFormatError(
                    "line %d: unterminated label value" % line_no
                )
            char = body[position]
            if char == "\\":
                if position + 1 >= len(body):
                    raise PromFormatError(
                        "line %d: dangling escape" % line_no
                    )
                escape = body[position + 1]
                if escape == "\\":
                    value_chars.append("\\")
                elif escape == '"':
                    value_chars.append('"')
                elif escape == "n":
                    value_chars.append("\n")
                else:
                    raise PromFormatError(
                        "line %d: invalid escape \\%s" % (line_no, escape)
                    )
                position += 2
            elif char == '"':
                position += 1
                break
            else:
                value_chars.append(char)
                position += 1
        labels[label_name] = "".join(value_chars)
        remainder = body[position:].lstrip()
        if remainder.startswith(","):
            position = len(body) - len(remainder) + 1
        elif remainder:
            raise PromFormatError(
                "line %d: junk after label value: %r" % (line_no, remainder)
            )
        else:
            break
    return labels


def _parse_value(token: str, line_no: int) -> float:
    if token in ("+Inf", "Inf"):
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise PromFormatError(
            "line %d: invalid sample value %r" % (line_no, token)
        )


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse a text exposition v0.0.4 body.

    Returns ``{family: {"type", "help", "samples"}}`` where ``samples``
    is a list of ``(sample_name, labels_dict, value)``.  Raises
    :class:`PromFormatError` on any violation: bad metric/label names,
    invalid escapes, a ``TYPE`` line after samples of its family, an
    unknown type, duplicate samples, or unparsable values.  Samples
    with no preceding ``TYPE`` land in an ``untyped`` family of their
    own name (legal per the format, so not an error).
    """
    families: Dict[str, Dict[str, Any]] = {}
    seen_samples: set = set()

    def family_for(sample_name: str) -> str:
        for family_name, family in families.items():
            if family["type"] == "summary" and sample_name in (
                family_name + "_sum",
                family_name + "_count",
            ):
                return family_name
            if family["type"] == "histogram" and sample_name in (
                family_name + "_bucket",
                family_name + "_sum",
                family_name + "_count",
            ):
                return family_name
            if sample_name == family_name:
                return family_name
        families[sample_name] = {
            "type": "untyped",
            "help": None,
            "samples": [],
        }
        return sample_name

    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue  # plain comment, legal
            if len(parts) < 3:
                raise PromFormatError(
                    "line %d: %s without a metric name" % (line_no, parts[1])
                )
            name = parts[2]
            if not _NAME_RE.match(name):
                raise PromFormatError(
                    "line %d: invalid metric name %r" % (line_no, name)
                )
            if parts[1] == "HELP":
                entry = families.setdefault(
                    name, {"type": None, "help": None, "samples": []}
                )
                if entry["help"] is not None:
                    raise PromFormatError(
                        "line %d: duplicate HELP for %s" % (line_no, name)
                    )
                entry["help"] = parts[3] if len(parts) > 3 else ""
            else:
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in _VALID_TYPES:
                    raise PromFormatError(
                        "line %d: invalid TYPE %r for %s"
                        % (line_no, kind, name)
                    )
                entry = families.setdefault(
                    name, {"type": None, "help": None, "samples": []}
                )
                if entry["type"] is not None:
                    raise PromFormatError(
                        "line %d: duplicate TYPE for %s" % (line_no, name)
                    )
                if entry["samples"]:
                    raise PromFormatError(
                        "line %d: TYPE for %s after its samples"
                        % (line_no, name)
                    )
                entry["type"] = kind
            continue

        # A sample line: name[{labels}] value [timestamp]
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
        if match is None:
            raise PromFormatError(
                "line %d: invalid sample line %r" % (line_no, line)
            )
        sample_name = match.group(1)
        rest = line[match.end():]
        labels: Dict[str, str] = {}
        if rest.startswith("{"):
            closing = rest.rfind("}")
            if closing < 0:
                raise PromFormatError(
                    "line %d: unterminated label set" % line_no
                )
            labels = _parse_labels(rest[1:closing], line_no)
            rest = rest[closing + 1:]
        tokens = rest.split()
        if len(tokens) not in (1, 2):
            raise PromFormatError(
                "line %d: expected value [timestamp], got %r"
                % (line_no, rest)
            )
        value = _parse_value(tokens[0], line_no)
        if len(tokens) == 2:
            try:
                int(tokens[1])
            except ValueError:
                raise PromFormatError(
                    "line %d: invalid timestamp %r" % (line_no, tokens[1])
                )
        key = (sample_name, tuple(sorted(labels.items())))
        if key in seen_samples:
            raise PromFormatError(
                "line %d: duplicate sample %s%s"
                % (line_no, sample_name, dict(labels))
            )
        seen_samples.add(key)
        family_name = family_for(sample_name)
        entry = families[family_name]
        if entry["type"] is None:
            entry["type"] = "untyped"
        families[family_name]["samples"].append(
            (sample_name, labels, value)
        )

    for family_name, entry in families.items():
        if entry["type"] is None:
            entry["type"] = "untyped"
    return families
