"""The metrics registry: counters, gauges, histograms, one scrape surface.

Every runtime layer registers its instruments into one process-global
:data:`REGISTRY` (chain block/gas counters, session phase histograms,
RPC dispatch counters, crypto hot-path counters), and
every export surface — the Prometheus-text ``GET /metrics`` endpoint on
both HTTP front-ends, the ``node_metrics`` RPC method, and the
registry-backed sections of ``node_status`` — reads back from it.  One
source of truth, many skins.

Design constraints, in order:

* **Cheap hot path.**  ``Counter.inc`` on the unlabeled fast path is a
  dict-entry ``+=`` under the GIL — no lock, no allocation.  The
  instruments live in module globals at the call sites, so the per-call
  cost is one attribute load and one integer add.  (Telemetry tolerates
  the theoretical read-modify-write race this "lock-free-ish" choice
  accepts; registration and scraping, which restructure dicts, do take
  the registry lock.)
* **Determinism safety.**  Nothing in this module touches the DRBG, the
  codec, or chain state: metrics are observations *about* a run, never
  inputs *to* it.  A seeded scenario is byte-identical with metrics
  scraped or ignored — the contract ``tests/obs`` pins.
* **Fixed histogram buckets.**  Bucket edges are declared at
  registration and never adapt, so two nodes' histograms are mergeable
  and the text exposition is stable.

Callback instruments (``sampler=``) invert the read: instead of being
pushed to, the instrument pulls its value at scrape time — how the
fixed-base cache population and hit counts are exported without the
curve layer pushing on its hot path.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "render_prometheus",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Latency bucket edges (seconds) shared by every duration histogram in
#: the tree, so traces and scrape tables bin identically.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """A metric was declared or used inconsistently."""


def _check_labels(
    labelnames: Tuple[str, ...], labels: Dict[str, Any]
) -> Tuple[str, ...]:
    if tuple(sorted(labels)) != tuple(sorted(labelnames)):
        raise MetricError(
            "expected labels %r, got %r" % (labelnames, tuple(sorted(labels)))
        )
    return tuple(str(labels[name]) for name in labelnames)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _plain_number(value: Any) -> Any:
    """Coerce a sample to a canonical plain number (int or float).

    ``collect()`` snapshots travel: through JSON to ``node_metrics``
    readers, through the canonical codec into report artifacts, and
    across hosts for folding.  Bools become ints and exotic numerics
    (a sampler returning e.g. a Fraction) become floats here, so a
    snapshot always round-trips byte-identically — the exact-float
    guarantee both ``json`` (shortest-repr) and the codec (packed
    IEEE double) provide only for the plain types.
    """
    if isinstance(value, bool):
        return int(value)
    if type(value) is int or type(value) is float:
        return value
    if isinstance(value, int):
        return int(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise MetricError(
            "metric values must be numbers, got %r" % (value,)
        ) from None


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    raise MetricError("metric values must be numbers, got %r" % (value,))


class _Instrument:
    """Shared family plumbing: name, help, labels, children, sampler."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        sampler: Optional[Callable[[], Any]] = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricError("invalid metric name %r" % name)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError("invalid label name %r" % label)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._sampler = sampler

    def set_sampler(self, sampler: Optional[Callable[[], Any]]) -> None:
        """Install (or clear) a scrape-time callback.

        The callback returns either a plain number (one unlabeled
        sample) or an iterable of ``(labels_dict, value)`` pairs; it is
        invoked on every scrape, replacing any pushed children.  Latest
        registration wins.
        """
        self._sampler = sampler

    def _sampled(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """``(label_values, value)`` pairs at this instant."""
        if self._sampler is not None:
            try:
                produced = self._sampler()
            except Exception as exc:
                # A dead sampler must not fail the scrape — but it must
                # not die silently either, or a family vanishing from
                # /metrics is undiagnosable.  Count it (visible on the
                # very scrape that hit it) and leave a debug trace.
                _sampler_errors().inc(family=self.name)
                from repro.obs.logging import get_logger

                get_logger("obs").debug(
                    "sampler error",
                    family=self.name,
                    error="%s: %s" % (type(exc).__name__, exc),
                )
                return []
            if isinstance(produced, (int, float)):
                return [((), produced)]
            return [
                (_check_labels(self.labelnames, dict(labels)), value)
                for labels, value in produced
            ]
        return sorted(self._children.items())

    def samples(self) -> List[Tuple[Dict[str, str], Any]]:
        """Public snapshot: ``(labels_dict, value)`` pairs."""
        return [
            (dict(zip(self.labelnames, key)), value)
            for key, value in self._sampled()
        ]


class Counter(_Instrument):
    """A monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        key = _check_labels(self.labelnames, labels) if labels else ()
        if key == () and self.labelnames:
            raise MetricError(
                "%s needs labels %r" % (self.name, self.labelnames)
            )
        self._children[key] = self._children.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        key = _check_labels(self.labelnames, labels) if labels else ()
        return self._children.get(key, 0)


class Gauge(_Instrument):
    """A value that goes up and down (or is sampled at scrape time)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _check_labels(self.labelnames, labels) if labels else ()
        if key == () and self.labelnames:
            raise MetricError(
                "%s needs labels %r" % (self.name, self.labelnames)
            )
        self._children[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _check_labels(self.labelnames, labels) if labels else ()
        self._children[key] = self._children.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = _check_labels(self.labelnames, labels) if labels else ()
        return self._children.get(key, 0)


class _HistogramChild:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, edges: Tuple[float, ...]) -> None:
        self.counts = [0] * (len(edges) + 1)  # +Inf bucket last
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Cumulative-bucket histogram with fixed, declared edges."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        edges = tuple(float(edge) for edge in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise MetricError("bucket edges must be sorted and unique")
        self.edges = edges

    def observe(self, value: float, **labels: Any) -> None:
        key = _check_labels(self.labelnames, labels) if labels else ()
        if key == () and self.labelnames:
            raise MetricError(
                "%s needs labels %r" % (self.name, self.labelnames)
            )
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistogramChild(self.edges)
        index = len(self.edges)
        for position, edge in enumerate(self.edges):
            if value <= edge:
                index = position
                break
        child.counts[index] += 1
        child.sum += value
        child.count += 1

    def child(self, **labels: Any) -> Optional[_HistogramChild]:
        key = _check_labels(self.labelnames, labels) if labels else ()
        return self._children.get(key)


class MetricsRegistry:
    """A named family set with get-or-create registration.

    Re-registering a family with the same name returns the existing
    instrument (so module-level registration composes across reloads and
    layers), but a *type* clash raises — two layers disagreeing about
    what ``rpc_requests_total`` is would corrupt the exposition.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Instrument] = {}

    def _register(self, cls, name: str, *args: Any, **kwargs: Any):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise MetricError(
                        "metric %r is already a %s"
                        % (name, type(existing).kind)
                    )
                return existing
            instrument = cls(name, *args, **kwargs)
            self._families[name] = instrument
            return instrument

    def counter(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        sampler: Optional[Callable[[], Any]] = None,
    ) -> Counter:
        return self._register(Counter, name, help, labelnames, sampler)

    def gauge(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        sampler: Optional[Callable[[], Any]] = None,
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames, sampler)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._families.get(name)

    def read(self, name: str, labels: Optional[Dict[str, Any]] = None) -> Any:
        """One family's current value (scalar families / one labelset).

        The read goes through the same sample path the scrape uses —
        callback instruments are invoked — which is what lets
        ``node_status`` report from the registry instead of private
        plumbing.  Returns ``None`` for an absent family or labelset.
        """
        instrument = self.get(name)
        if instrument is None:
            return None
        wanted = (
            _check_labels(instrument.labelnames, labels) if labels else ()
        )
        for key, value in instrument._sampled():
            if key == wanted:
                return value
        return None

    def families(self) -> List[_Instrument]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def collect(self) -> List[Dict[str, Any]]:
        """Plain-data snapshot of every family (the ``node_metrics`` body)."""
        snapshot: List[Dict[str, Any]] = []
        for family in self.families():
            entry: Dict[str, Any] = {
                "name": family.name,
                "type": family.kind,
                "help": family.help,
            }
            if isinstance(family, Histogram):
                series = []
                for labels, child in family.samples():
                    cumulative = 0
                    buckets = []
                    for edge, count in zip(family.edges, child.counts):
                        cumulative += count
                        buckets.append({"le": edge, "count": cumulative})
                    buckets.append(
                        {"le": "+Inf", "count": cumulative + child.counts[-1]}
                    )
                    series.append(
                        {
                            "labels": labels,
                            "buckets": buckets,
                            "sum": _plain_number(child.sum),
                            "count": child.count,
                        }
                    )
                entry["samples"] = series
            else:
                entry["samples"] = [
                    {"labels": labels, "value": _plain_number(value)}
                    for labels, value in family.samples()
                ]
            snapshot.append(entry)
        return snapshot


def _labels_text(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        '%s="%s"' % (name, _escape_label(str(value)))
        for name, value in labels.items()
    ]
    if extra:
        parts.append(extra)
    return "{%s}" % ",".join(parts) if parts else ""


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry in Prometheus text exposition format (v0.0.4)."""
    registry = registry if registry is not None else REGISTRY
    lines: List[str] = []
    for family in registry.families():
        lines.append("# HELP %s %s" % (family.name, family.help))
        lines.append("# TYPE %s %s" % (family.name, family.kind))
        if isinstance(family, Histogram):
            for labels, child in family.samples():
                cumulative = 0
                for edge, count in zip(family.edges, child.counts):
                    cumulative += count
                    lines.append(
                        "%s_bucket%s %d"
                        % (
                            family.name,
                            _labels_text(labels, 'le="%s"' % _format_value(edge)),
                            cumulative,
                        )
                    )
                lines.append(
                    "%s_bucket%s %d"
                    % (
                        family.name,
                        _labels_text(labels, 'le="+Inf"'),
                        cumulative + child.counts[-1],
                    )
                )
                lines.append(
                    "%s_sum%s %s"
                    % (family.name, _labels_text(labels), _format_value(child.sum))
                )
                lines.append(
                    "%s_count%s %d"
                    % (family.name, _labels_text(labels), child.count)
                )
        else:
            for labels, value in family.samples():
                lines.append(
                    "%s%s %s"
                    % (family.name, _labels_text(labels), _format_value(value))
                )
    return "\n".join(lines) + "\n"


#: The process-global default registry every layer instruments into.
REGISTRY = MetricsRegistry()


def _sampler_errors() -> Counter:
    """The sampler-failure counter, registered lazily.

    Lazy because :data:`REGISTRY` is created below the classes that
    need it; get-or-create registration makes the repeated lookup
    cheap and idempotent.
    """
    return REGISTRY.counter(
        "obs_sampler_errors_total",
        "Scrape-time sampler callbacks that raised (family dropped "
        "from that scrape)",
        labelnames=("family",),
    )
