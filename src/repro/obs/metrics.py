"""A process-safe registry of named counters, gauges, and histograms.

One :class:`MetricsRegistry` per process collects every serving-path
and toolchain metric under a flat namespace with optional labels, and
exports the whole set two ways:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` series for histograms), scrapable as-is;
* :meth:`MetricsRegistry.to_dict` — a schema-versioned JSON snapshot
  for the daemon's ``metrics`` op, ``BENCH_*.json`` reports, and tests.

A snapshot is also what a serving ``status`` shows:
:func:`render_status` maps one (or :func:`sum_snapshots` of several)
to the status sections, so ``status`` keeps no counter of its own.

All mutating operations take a per-registry lock, so many client
threads (the daemon's connection handlers, the load generator's
workers) may increment concurrently without losing updates; reads are
plain attribute loads of already-published values.

:class:`Histogram` is log-bucketed: a fixed geometric bucket ladder
(25% per step, ~0.1 ms up to ~21 s, plus overflow) keeps ``observe``
a binary search and quantile estimates within bounded relative error.
"""

from __future__ import annotations

import bisect
import math
import threading

#: Exposition schema version: bump when the JSON shape changes.
SCHEMA = "repro-metrics/1"

#: Default histogram bucket upper bounds in seconds: 0.1 ms growing by
#: 1.25x per bucket, 56 finite buckets (~21 s), then overflow.
_FIRST_BOUND = 1e-4
_GROWTH = 1.25
_BUCKETS = 56

BOUNDS = tuple(_FIRST_BOUND * _GROWTH**i for i in range(_BUCKETS))


def percentile(sorted_samples: list[float], q: float) -> float:
    """Exact nearest-rank percentile of pre-sorted samples.

    ``q`` is a fraction in [0, 1].  Empty input returns 0.0; ``q=0``
    returns the smallest sample (rank is clamped to at least 1) and
    ``q=1`` the largest.
    """
    if not sorted_samples:
        return 0.0
    # The rank is the ceiling of q*n; rounding first keeps float error
    # (0.07 * 100 == 7.000000000000001) from adding a whole rank.
    rank = max(1, math.ceil(round(q * len(sorted_samples), 9)))
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


class _Metric:
    """Common identity: name, help text, sorted label pairs."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: dict, lock):
        self.name = name
        self.help = help
        self.labels = dict(sorted(labels.items()))
        self._lock = lock

    def _label_str(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(
            f'{key}="{_escape(str(value))}"'
            for key, value in self.labels.items()
        )
        return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help, labels, lock):
        super().__init__(name, help, labels, lock)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"value": self.value}

    def samples(self):
        yield self.name, self.labels, self.value


class Gauge(_Metric):
    """A value that can go up and down — or be sampled via ``fn``."""

    kind = "gauge"

    def __init__(self, name, help, labels, lock, fn=None):
        super().__init__(name, help, labels, lock)
        self._value = 0.0
        self.fn = fn

    @property
    def value(self):
        if self.fn is not None:
            return self.fn()
        return self._value

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        self.inc(-amount)

    def to_dict(self) -> dict:
        return {"value": self.value}

    def samples(self):
        yield self.name, self.labels, self.value


class Histogram(_Metric):
    """Log-bucketed distribution with quantile estimation.

    Buckets are fixed at registration (``bounds``); ``observe`` finds
    its bucket by binary search, and :meth:`quantile` returns the upper
    bound of the bucket holding the q-th sample, clamped to the
    observed max so the estimate never exceeds a real observation.
    """

    kind = "histogram"

    def __init__(self, name, help, labels, lock, bounds=BOUNDS):
        super().__init__(name, help, labels, lock)
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        # The first bound >= value (le is <=); past the last, overflow.
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """The q-quantile, estimated from the buckets; 0.0 when empty."""
        return _quantile(self.to_dict(), q)

    def summary(self) -> dict:
        """The compact latency shape embedded in a ``status`` response."""
        return _summary(self.to_dict())

    def to_dict(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in zip(self.bounds, self.counts)
                if n
            ],
            "overflow": self.counts[-1],
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        return out

    def samples(self):
        cumulative = 0
        for bound, n in zip(self.bounds, self.counts):
            cumulative += n
            yield (
                self.name + "_bucket",
                {**self.labels, "le": _format_bound(bound)},
                cumulative,
            )
        yield (
            self.name + "_bucket",
            {**self.labels, "le": "+Inf"},
            cumulative + self.counts[-1],
        )
        yield self.name + "_sum", self.labels, self.total
        yield self.name + "_count", self.labels, self.count


def _quantile(series: dict, q: float) -> float:
    """The q-quantile of a histogram's JSON form; 0.0 when empty."""
    if not series["count"]:
        return 0.0
    rank = q * series["count"]
    seen = 0
    for bucket in series["buckets"]:  # only non-empty buckets, ascending
        seen += bucket["count"]
        if seen >= rank:
            return min(bucket["le"], series["max"])
    return series["max"]  # the rank falls in the overflow bucket


def _summary(series: dict) -> dict:
    """A histogram's JSON form in the compact ``status`` latency shape."""
    count = series["count"]
    if not count:
        return {"count": 0}
    return {
        "count": count,
        "mean_ms": 1e3 * series["sum"] / count,
        "min_ms": 1e3 * series["min"],
        "max_ms": 1e3 * series["max"],
        "p50_ms": 1e3 * _quantile(series, 0.50),
        "p95_ms": 1e3 * _quantile(series, 0.95),
        "p99_ms": 1e3 * _quantile(series, 0.99),
    }


def _format_bound(bound: float) -> str:
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """All of one process's metrics, registered once, exported together.

    Registration is idempotent on ``(name, labels)``: asking for an
    existing series returns the existing object (with a kind check), so
    module-level helpers can ``registry.counter(...)`` freely without
    double-registering.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, _Metric] = {}

    def _register(self, cls, name, help, labels, **kwargs) -> _Metric:
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help, labels, self._lock, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", *, fn=None, **labels) -> Gauge:
        return self._register(Gauge, name, help, labels, fn=fn)

    def histogram(
        self, name: str, help: str = "", *, bounds=BOUNDS, **labels
    ) -> Histogram:
        return self._register(Histogram, name, help, labels, bounds=bounds)

    def __iter__(self):
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels) -> _Metric | None:
        return self._metrics.get((name, tuple(sorted(labels.items()))))

    # -- exposition ------------------------------------------------------

    def to_dict(self) -> dict:
        """Schema-versioned JSON exposition of every registered series."""
        series = []
        for metric in self:
            series.append(
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                    "labels": metric.labels,
                    **metric.to_dict(),
                }
            )
        return {"schema": SCHEMA, "metrics": series}

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for metric in sorted(self, key=lambda m: (m.name, tuple(m.labels.items()))):
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            for name, labels, value in metric.samples():
                label_str = ""
                if labels:
                    inner = ",".join(
                        f'{key}="{_escape(str(val))}"'
                        for key, val in sorted(labels.items())
                    )
                    label_str = "{" + inner + "}"
                lines.append(f"{name}{label_str} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# -- snapshots -------------------------------------------------------------


def sum_snapshots(snapshots) -> dict:
    """One snapshot whose every series sums that series (same name and
    labels) across ``snapshots``: values add, and histograms add
    bucket by bucket, keeping the smallest min and the largest max."""
    merged: dict[tuple, dict] = {}
    for snapshot in snapshots:
        for series in snapshot["metrics"]:
            key = (series["name"], tuple(sorted(series["labels"].items())))
            if series["kind"] != "histogram":
                total = merged.setdefault(key, {**series, "value": 0})
                total["value"] += series["value"]
                continue
            total = merged.setdefault(
                key, {**series, "count": 0, "sum": 0.0, "buckets": [],
                      "overflow": 0},
            )
            counts = {b["le"]: b["count"] for b in total["buckets"]}
            for bucket in series["buckets"]:
                counts[bucket["le"]] = counts.get(bucket["le"], 0) + bucket["count"]
            total["buckets"] = [
                {"le": le, "count": n} for le, n in sorted(counts.items())
            ]
            total["count"] += series["count"]
            total["sum"] += series["sum"]
            total["overflow"] += series["overflow"]
            for field, pick in (("min", min), ("max", max)):
                if field in series:
                    total[field] = pick(total.get(field, series[field]),
                                        series[field])
    return {"schema": SCHEMA, "metrics": list(merged.values())}


def render_status(snapshot: dict, prefix: str) -> dict:
    """The ``status`` sections of a snapshot's ``<prefix>_*`` series.

    * ``counters`` — each unlabeled ``<prefix>_<name>_total``, by name;
    * ``tenants`` — each ``<prefix>_tenant_<kind>_total{tenant=...}``,
      by tenant, then kind;
    * ``latency`` — each ``<prefix>_request_seconds{op=...}``, by op, in
      the :meth:`Histogram.summary` shape;
    * ``gauges`` — each ``<prefix>_<name>`` gauge, by name.
    """
    counters, tenants, latency, gauges = {}, {}, {}, {}
    head = prefix + "_"
    for series in snapshot["metrics"]:
        if not series["name"].startswith(head):
            continue
        name = series["name"][len(head):]
        labels = series["labels"]
        if series["kind"] == "gauge":
            gauges[name] = series["value"]
        elif series["kind"] == "histogram":
            if name == "request_seconds":
                latency[labels["op"]] = _summary(series)
        elif "tenant" in labels:
            kind = name.removeprefix("tenant_").removesuffix("_total")
            tenants.setdefault(labels["tenant"], {})[kind] = series["value"]
        elif not labels:
            counters[name.removesuffix("_total")] = series["value"]
    return {"counters": counters, "tenants": tenants, "latency": latency,
            "gauges": gauges}
