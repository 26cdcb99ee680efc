"""Prometheus/OpenMetrics text exposition for metrics snapshots.

Standard scrapers (Prometheus, the Grafana agent, ``promtool``) speak
the text exposition format, not our JSON snapshot schema — this module
is the bridge, so a long-running ``python -m repro serve`` can sit
behind ordinary monitoring infrastructure (``/metrics.prom``).

The mapping follows the exposition conventions:

* counter ``a.b.c``  → ``a_b_c_total`` (``# TYPE ... counter``);
* gauge ``x``        → ``x`` (``# TYPE ... gauge``);
* histogram ``h``    → ``h_bucket{le="..."}`` lines with **cumulative**
  counts ending in ``le="+Inf"``, plus ``h_sum`` and ``h_count``.

Instrument names are sanitized (dots and dashes become underscores;
anything outside ``[a-zA-Z0-9_:]`` is dropped to ``_``) and the original
name is preserved in the ``# HELP`` line.

:func:`validate_exposition` is a line-level checker for the format —
used by tests and the CI live-smoke job (via
``python -m repro obs promcheck``) so a malformed exposition fails
loudly rather than silently breaking scrapers; :func:`parse_exposition`
is the parse-back used to round-trip values in tests.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CONTENT_TYPE",
    "parse_exposition",
    "render_registry",
    "render_snapshot",
    "sanitize_name",
    "validate_exposition",
]

#: The content type scrapers expect from a text-format endpoint.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?$")
_LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>[^"]*)"$')


def sanitize_name(name: str) -> str:
    """A valid Prometheus metric name for an instrument name."""
    out = _INVALID_CHARS.sub("_", name)
    if not out or not _NAME_RE.match(out):
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    """A float in exposition syntax (+Inf/-Inf/NaN spelled out)."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(value)


def render_snapshot(snapshot: Dict[str, Any],
                    kinds: Optional[Dict[str, str]] = None,
                    updated: Optional[Dict[str, float]] = None) -> str:
    """Exposition text for a registry snapshot dict.

    ``kinds`` maps instrument name → "counter" | "gauge" | "histogram";
    without it, nested dicts render as histograms and plain numbers as
    gauges (a snapshot alone cannot distinguish counters from gauges).

    ``updated`` maps instrument name → last-update wall time; gauges
    present in it get a companion ``<name>_updated_unix`` gauge so
    scrapers (and alert rules) can tell a stale last value from a live
    one without our JSON ``/series`` document.
    """
    kinds = kinds or {}
    updated = updated or {}
    lines: List[str] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        base = sanitize_name(name)
        if isinstance(value, dict):
            lines.append(f"# HELP {base} {name}")
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            counts = value.get("counts", [])
            buckets = value.get("buckets", [])
            for bound, count in zip(buckets, counts):
                cumulative += int(count)
                lines.append(f'{base}_bucket{{le="{_fmt(bound)}"}} '
                             f"{cumulative}")
            total = int(value.get("count", 0))
            lines.append(f'{base}_bucket{{le="+Inf"}} {total}')
            lines.append(f"{base}_sum {_fmt(value.get('sum', 0.0))}")
            lines.append(f"{base}_count {total}")
        elif kinds.get(name) == "counter":
            lines.append(f"# HELP {base}_total {name}")
            lines.append(f"# TYPE {base}_total counter")
            lines.append(f"{base}_total {_fmt(value)}")
        else:
            lines.append(f"# HELP {base} {name}")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {_fmt(value)}")
            if name in updated:
                stamp = sanitize_name(name + "_updated_unix")
                lines.append(f"# HELP {stamp} last set() wall time of {name}")
                lines.append(f"# TYPE {stamp} gauge")
                lines.append(f"{stamp} {_fmt(updated[name])}")
    return "\n".join(lines) + "\n" if lines else ""


def render_registry(registry: MetricsRegistry) -> str:
    """Exposition text for a live registry (exact instrument kinds)."""
    kinds = {inst.name: inst.kind for inst in registry.instruments()}
    updated = {inst.name: inst.updated_unix
               for inst in registry.instruments()
               if inst.kind == "gauge" and inst.updated_unix is not None}
    return render_snapshot(registry.snapshot(), kinds, updated)


# ------------------------------------------------------------------ checking

def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)


def parse_exposition(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Samples per metric name: ``{name: [(labels, value), ...]}``.

    Raises :class:`ValueError` on the first malformed line — tests use
    this as the parse-back check that rendered output stays readable.
    """
    errors = validate_exposition(text)
    if errors:
        raise ValueError("invalid exposition: " + "; ".join(errors[:3]))
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        assert m is not None  # validate_exposition guarantees it
        labels: Dict[str, str] = {}
        if m.group("labels"):
            for part in m.group("labels").split(","):
                lm = _LABEL_RE.match(part.strip())
                if lm is not None:
                    labels[lm.group("key")] = lm.group("val")
        out.setdefault(m.group("name"), []).append(
            (labels, _parse_value(m.group("value"))))
    return out


def validate_exposition(text: str) -> List[str]:
    """Line-level format check; returns error strings (empty = valid).

    Checks each line's syntax, metric-name validity, TYPE declarations,
    and — for histograms — that bucket counts are cumulative and the
    ``+Inf`` bucket equals ``_count``.
    """
    errors: List[str] = []
    typed: Dict[str, str] = {}
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    counts: Dict[str, float] = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                errors.append(f"line {n}: malformed comment {line!r}")
                continue
            if not _NAME_RE.match(parts[2]):
                errors.append(f"line {n}: invalid metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                    errors.append(f"line {n}: unknown type {kind!r}")
                elif parts[2] in typed:
                    errors.append(f"line {n}: duplicate TYPE for {parts[2]}")
                else:
                    typed[parts[2]] = kind
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"line {n}: malformed sample {line!r}")
            continue
        name = m.group("name")
        try:
            value = _parse_value(m.group("value"))
        except ValueError:
            errors.append(f"line {n}: bad value {m.group('value')!r}")
            continue
        if m.group("labels"):
            for part in m.group("labels").split(","):
                if not _LABEL_RE.match(part.strip()):
                    errors.append(f"line {n}: malformed label {part!r}")
        if name.endswith("_bucket"):
            le = None
            if m.group("labels"):
                for part in m.group("labels").split(","):
                    lm = _LABEL_RE.match(part.strip())
                    if lm is not None and lm.group("key") == "le":
                        le = _parse_value(lm.group("val"))
            if le is None:
                errors.append(f"line {n}: histogram bucket without le label")
            else:
                buckets.setdefault(name[:-len("_bucket")], []).append(
                    (le, value))
        elif name.endswith("_count"):
            counts[name[:-len("_count")]] = value
    for base, pairs in buckets.items():
        cumulative = -1.0
        for le, value in pairs:  # exposition order is ascending le
            if value < cumulative:
                errors.append(f"{base}: bucket counts not cumulative "
                              f"(le={_fmt(le)} fell to {value:g})")
                break
            cumulative = value
        if pairs and not math.isinf(pairs[-1][0]):
            errors.append(f"{base}: missing le=\"+Inf\" bucket")
        elif pairs and base in counts and pairs[-1][1] != counts[base]:
            errors.append(f"{base}: +Inf bucket {pairs[-1][1]:g} != "
                          f"_count {counts[base]:g}")
    return errors
