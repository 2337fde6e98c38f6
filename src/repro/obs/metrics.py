"""A lock-cheap metrics registry with Prometheus text exposition.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` (fixed buckets) — each a *family* of labelled
children.  Design constraints, in order:

* **cheap on the hot path** — one lock per family, held only for the
  few arithmetic ops of an update; children are cached per label tuple
  so a steady-state update is a dict hit plus an add;
* **zero allocation when disabled** — a registry built with
  ``enabled=False`` hands out one shared :data:`NULL_CHILD` whose
  methods are no-ops, so instrumented code never branches and never
  allocates for a registry that is off;
* **snapshot-consistent reads** — :meth:`MetricsRegistry.collect` takes
  each family's lock once and copies its children, so a rendered
  scrape never shows a histogram whose ``_count`` disagrees with the
  sum of its buckets;
* **one pull mechanism** — a counter or gauge family registered with a
  ``source`` (``() -> {label_values: value}``) keeps no children of its
  own: ``collect`` calls the source, so a count that already lives in a
  store (``ServerStats``, ``RouterStats``, the die-health registry) is
  read, never copied.

:func:`MetricsRegistry.render` emits Prometheus text exposition format
0.0.4 (``# HELP`` / ``# TYPE`` / samples, histogram ``_bucket{le=...}``
cumulative counts plus ``_sum`` / ``_count``), and
:func:`parse_prometheus_text` is the strict parser the tests and the
wire smoke use to assert a scrape is well formed — the acceptance
criterion is machine-checked, not eyeballed.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Content-Type of a /metrics response (text exposition format 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: default histogram buckets for serving latencies (seconds)
LATENCY_BUCKETS_S = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                     0.25, 0.5, 1.0, 2.5)

#: default histogram buckets for per-MVM engine dispatch times (seconds)
ENGINE_BUCKETS_S = (1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3,
                    2.5e-3, 5e-3, 1e-2, 2.5e-2)

#: default histogram buckets for batch sizes (requests per batch)
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: a sourced family's reader: ``{label_values: value}`` at collect time
#: (a bare string key stands for a one-label tuple, ``()`` for no labels)
Source = Callable[[], Dict]

_NAME_OK = set("abcdefghijklmnopqrstuvwxyz"
               "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _NullChild:
    """The shared do-nothing child a disabled registry hands out."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_CHILD = _NullChild()


class _CounterChild:
    __slots__ = ("_family", "value")

    def __init__(self, family: "_Family"):
        self._family = family
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._family._lock:
            self.value += amount


class _GaugeChild:
    __slots__ = ("_family", "value")

    def __init__(self, family: "_Family"):
        self._family = family
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._family._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self.value += amount


class _HistogramChild:
    __slots__ = ("_family", "bucket_counts", "sum", "count")

    def __init__(self, family: "_Family"):
        self._family = family
        self.bucket_counts = [0] * (len(family.buckets) + 1)  # + overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self._family.buckets, value)
        with self._family._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1


_CHILD_CLS = {"counter": _CounterChild, "gauge": _GaugeChild,
              "histogram": _HistogramChild}


class _Family:
    """One named metric and its labelled children."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets",
                 "source", "_children", "_lock", "_registry")

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str,
                 help_text: str, label_names: Sequence[str],
                 buckets: Optional[Sequence[float]] = None,
                 source: Optional[Source] = None):
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        self.label_names = tuple(label_names)
        if kind == "histogram":
            buckets = tuple(float(b) for b in (buckets or LATENCY_BUCKETS_S))
            if list(buckets) != sorted(set(buckets)):
                raise ValueError(f"{name}: buckets must be strictly "
                                 "increasing")
            self.buckets = buckets
        else:
            if buckets is not None:
                raise ValueError(f"{name}: only histograms take buckets")
            self.buckets = ()
        self.source = source
        self._children: Dict[tuple, object] = {}
        self._lock = threading.Lock()
        self._registry = registry

    def labels(self, *values) -> object:
        """The child for one label-value tuple (created on first use)."""
        if not self._registry.enabled:
            return NULL_CHILD
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {len(values)} value(s)")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    key, _CHILD_CLS[self.kind](self))
        return child

    # unlabelled conveniences -------------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def _collect(self) -> List[tuple]:
        """Consistent (labels, payload) snapshot of every child — or,
        for a sourced family, of one call to its source."""
        if self.source is not None:
            return [(tuple(str(v) for v in
                           (key if isinstance(key, tuple) else (key,))),
                     float(value))
                    for key, value in self.source().items()]
        with self._lock:
            if self.kind == "histogram":
                return [(key, (list(child.bucket_counts), child.sum,
                               child.count))
                        for key, child in self._children.items()]
            return [(key, child.value)
                    for key, child in self._children.items()]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


def _label_str(names: Sequence[str], values: Sequence[str],
               extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    pairs += [f'{n}="{_escape_label(v)}"' for n, v in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


class MetricsRegistry:
    """The per-server instrument registry behind ``GET /metrics``.

    ``enabled=False`` builds a registry whose instruments are permanent
    no-ops (they hand out :data:`NULL_CHILD`) and whose render is the
    empty exposition — the ``--no-metrics`` path.  Registration is
    idempotent by name (same kind/labels returns the existing family;
    a conflicting re-registration raises).
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------
    def _register(self, name: str, kind: str, help_text: str,
                  label_names: Sequence[str],
                  buckets: Optional[Sequence[float]] = None,
                  source: Optional[Source] = None) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (existing.kind != kind
                        or existing.label_names != tuple(label_names)):
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{existing.kind}{existing.label_names}")
                if source is not None:
                    existing.source = source   # the latest owner reads
                return existing
            family = _Family(self, name, kind, help_text, label_names,
                             buckets, source)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = (),
                source: Optional[Source] = None) -> _Family:
        """A counter family; with ``source`` it is read at collect time
        (the source keeps the monotone totals) and takes no ``inc``."""
        return self._register(name, "counter", help_text, labels,
                              source=source)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = (),
              source: Optional[Source] = None) -> _Family:
        """A gauge family; with ``source`` it is read at collect time."""
        return self._register(name, "gauge", help_text, labels,
                              source=source)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> _Family:
        return self._register(name, "histogram", help_text, labels, buckets)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    # -- exposition -----------------------------------------------------
    def collect(self) -> List[tuple]:
        """(name, kind, help, buckets, [(label_values, payload)...]);
        nothing at all — no source is called — when disabled."""
        if not self.enabled:
            return []
        with self._lock:
            families = [self._families[name]
                        for name in sorted(self._families)]
        return [(f.name, f.kind, f.help, f.buckets, f.label_names,
                 f._collect()) for f in families]

    def render(self) -> str:
        """The Prometheus text exposition of every family."""
        lines: List[str] = []
        for name, kind, help_text, buckets, label_names, children \
                in self.collect():
            if not children:
                continue
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            for values, payload in sorted(children):
                if kind in ("counter", "gauge"):
                    labels = _label_str(label_names, values)
                    lines.append(
                        f"{name}{labels} {_format_value(payload)}")
                    continue
                bucket_counts, total_sum, count = payload
                cumulative = 0
                bounds = list(buckets) + [float("inf")]
                for bound, bucket in zip(bounds, bucket_counts):
                    cumulative += bucket
                    labels = _label_str(
                        label_names, values,
                        extra=(("le", _format_value(bound)),))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _label_str(label_names, values)
                lines.append(f"{name}_sum{labels} {_format_value(total_sum)}")
                lines.append(f"{name}_count{labels} {count}")
        return "\n".join(lines) + "\n" if lines else ""


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().rstrip()
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted label value after {name!r}")
        j = eq + 2
        out = []
        while text[j] != '"':
            if text[j] == "\\":
                escape = text[j + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}[escape])
                j += 2
            else:
                out.append(text[j])
                j += 1
        labels[name] = "".join(out)
        i = j + 1
        if i < len(text):
            if text[i] != ",":
                raise ValueError(f"expected ',' in labels at {text[i:]!r}")
            i += 1
    return labels


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Strictly parse text exposition format; raise ValueError if invalid.

    Returns ``{family: {"type", "help", "samples": {(name, labels...):
    value}}}``.  Beyond line syntax it checks the structural invariants
    a scraper relies on: every sample belongs to a ``# TYPE``-declared
    family, histogram bucket counts are cumulative and end in a
    ``+Inf`` bucket that equals ``_count``.
    """
    families: Dict[str, Dict] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"type": None, "help": None,
                                       "samples": {}})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            entry = families.setdefault(name, {"type": None, "help": None,
                                               "samples": {}})
            if entry["type"] is not None:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
            entry["type"] = kind
            current = name
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rindex("}")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1:close])
            value_text = line[close + 1:].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
        if not value_text:
            raise ValueError(f"line {lineno}: sample without value: {raw!r}")
        value = float(value_text.split()[0].replace("+Inf", "inf"))
        family = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[:-len(suffix)] \
                if sample_name.endswith(suffix) else None
            if base and families.get(base, {}).get("type") == "histogram":
                family = base
                break
        if family not in families or families[family]["type"] is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} has no # TYPE")
        if family != current:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} outside its "
                f"family block (current family: {current})")
        key = (sample_name, tuple(sorted(labels.items())))
        if key in families[family]["samples"]:
            raise ValueError(f"line {lineno}: duplicate sample {key}")
        families[family]["samples"][key] = value
    _check_histograms(families)
    return families


def _check_histograms(families: Dict[str, Dict]) -> None:
    for name, entry in families.items():
        if entry["type"] != "histogram":
            continue
        series: Dict[tuple, List[Tuple[float, float]]] = {}
        counts: Dict[tuple, float] = {}
        for (sample, labels), value in entry["samples"].items():
            plain = tuple(kv for kv in labels if kv[0] != "le")
            if sample == f"{name}_bucket":
                le = dict(labels)["le"]
                series.setdefault(plain, []).append(
                    (float(le.replace("+Inf", "inf")), value))
            elif sample == f"{name}_count":
                counts[plain] = value
        for plain, buckets in series.items():
            buckets.sort()
            if not buckets or buckets[-1][0] != float("inf"):
                raise ValueError(f"{name}: missing +Inf bucket")
            values = [v for _, v in buckets]
            if values != sorted(values):
                raise ValueError(f"{name}: bucket counts not cumulative")
            if plain in counts and counts[plain] != values[-1]:
                raise ValueError(
                    f"{name}: _count != +Inf bucket ({counts[plain]} vs "
                    f"{values[-1]})")
