"""Process-wide **metrics registry**: counters, gauges, log2 histograms.

Streamscope's :class:`~repro.obs.tracer.MemoryTracer` records per-firing
spans — deep, but too heavy to leave on under a long-running server.  This
registry is the complementary always-on layer: a handful of counters,
gauges, and bounded log2-bucket histograms fed by increments the existing
paths already compute (cache hit/miss branches, downgrade sites, protocol
reports, per-run totals).  The cost model:

* **idle** — a disabled registry's ``inc``/``observe`` is one attribute
  check and a return; an *enabled* one is a dict add on a pre-resolved
  child.  Nothing here runs per item or per firing — only per run, per
  command, per cache lookup.
* **bounded** — histograms bucket by ``log2(value)`` into a sparse dict
  (at most ~64 buckets), so memory is fixed regardless of run count.

Exported two ways: :meth:`MetricsRegistry.snapshot` (JSON) and
:func:`prometheus_text` (Prometheus text exposition, with
:func:`parse_prometheus` as its test-time inverse).  For live inspection
(`python -m repro.obs monitor`), :func:`publish` drops an atomic JSON
snapshot (metrics + flight-recorder ring) into :func:`obs_dir`;
:func:`maybe_publish` rate-limits that to every ``REPRO_OBS_PUBLISH_S``
seconds (default 2) and is called from run boundaries, watchdog ticks,
and an atexit hook.  Forked parallel workers exit via ``os._exit`` and
therefore never publish — snapshots always describe the parent.

Env knobs: ``REPRO_METRICS=0`` disables the registry,
``REPRO_OBS_DIR`` overrides the snapshot directory,
``REPRO_OBS_PUBLISH_S`` the publish interval.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import re
import sys
import tempfile
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.recorder import FLIGHT

# Histogram bucket exponents: value v lands in the smallest bucket with
# upper bound 2**k >= v.  [-24, 40] spans ~60ns latencies to ~1T items.
_MIN_EXP = -24
_MAX_EXP = 40

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def bucket_exponent(value: float) -> int:
    """Smallest ``k`` with ``2**k >= value``, clamped to the bucket range."""
    if value <= 0.0:
        return _MIN_EXP
    mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in (0.5, 1]
    k = exponent if mantissa > 0.5 else exponent - 1
    return max(_MIN_EXP, min(_MAX_EXP, k))


class _Child:
    __slots__ = ("_registry",)

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry


class Counter(_Child):
    __slots__ = ("value",)

    def __init__(self, registry: "MetricsRegistry") -> None:
        super().__init__(registry)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            self.value += amount
            self._registry._dirty = True


class Gauge(_Child):
    __slots__ = ("value",)

    def __init__(self, registry: "MetricsRegistry") -> None:
        super().__init__(registry)
        self.value = 0.0

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self.value = float(value)
            self._registry._dirty = True

    def inc(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            self.value += amount
            self._registry._dirty = True


class Histogram(_Child):
    """Sparse log2-bucket histogram: ``buckets[k]`` counts values <= 2**k."""

    __slots__ = ("buckets", "count", "sum")

    def __init__(self, registry: "MetricsRegistry") -> None:
        super().__init__(registry)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        k = bucket_exponent(value)
        self.buckets[k] = self.buckets.get(k, 0) + 1
        self.count += 1
        self.sum += value
        self._registry._dirty = True


_KIND_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named metric with labelled children (``repro_runs_total{engine=...}``)."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str, help: str):
        self.name = name
        self.kind = kind
        self.help = help
        self._registry = registry
        self._children: Dict[_LabelKey, _Child] = {}

    def labels(self, **labels: str) -> Any:
        """Get-or-create the child for this label set (cache the result on hot paths)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = _KIND_CLASSES[self.kind](self._registry)
            self._children[key] = child
        return child

    # Convenience one-shot forms for cold paths (one dict lookup extra).
    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if self._registry.enabled:
            self.labels(**labels).inc(amount)

    def set(self, value: float, **labels: str) -> None:
        if self._registry.enabled:
            self.labels(**labels).set(value)

    def observe(self, value: float, **labels: str) -> None:
        if self._registry.enabled:
            self.labels(**labels).observe(value)

    def samples(self) -> Iterator[Tuple[Dict[str, str], _Child]]:
        for key, child in sorted(self._children.items()):
            yield dict(key), child


class MetricsRegistry:
    """All metric families for one process, with JSON/Prometheus export."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: Dict[str, Family] = {}
        self._dirty = False
        self._last_publish = 0.0
        self._lock = threading.Lock()

    # -- family construction ------------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Family(self, name, kind, help)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, not {kind}"
                )
            return family

    def counter(self, name: str, help: str = "") -> Family:
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> Family:
        return self._family(name, "gauge", help)

    def histogram(self, name: str, help: str = "") -> Family:
        return self._family(name, "histogram", help)

    # -- lifecycle ----------------------------------------------------------

    def set_enabled(self, enabled: bool) -> None:
        self.enabled = enabled

    def disabled(self) -> "_DisabledContext":
        """Context manager that switches the registry off (for overhead arms)."""
        return _DisabledContext(self)

    def clear(self) -> None:
        """Drop all recorded values (families stay registered)."""
        with self._lock:
            for family in self._families.values():
                family._children.clear()
        self._dirty = False

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable view: ``{name: {type, help, samples: [...]}}``."""
        out: Dict[str, Any] = {}
        with self._lock:
            families = list(self._families.values())
        for family in families:
            samples: List[Dict[str, Any]] = []
            for labels, child in family.samples():
                if isinstance(child, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": {
                                _le_text(k): n
                                for k, n in sorted(child.buckets.items())
                            },
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def prometheus(self) -> str:
        return prometheus_text(self.snapshot())

    # -- publishing for `repro.obs monitor` ---------------------------------

    def publish(self, directory: Optional[str] = None) -> Optional[str]:
        """Atomically write ``obs-<pid>.json`` (metrics + flight ring).

        Best-effort: any OSError is swallowed — telemetry must never take
        down the run it is observing.  Returns the path written, or None.
        """
        directory = directory or obs_dir()
        path = os.path.join(directory, f"obs-{os.getpid()}.json")
        payload = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "ts": time.time(),
            "metrics": self.snapshot(),
            "flight": FLIGHT.payload(),
        }
        try:
            os.makedirs(directory, exist_ok=True)
            tmp = path + f".tmp{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(payload, fh, default=str)
            os.replace(tmp, path)
            _prune_snapshots(directory)
        except OSError:
            return None
        self._dirty = False
        self._last_publish = time.monotonic()
        return path

    def maybe_publish(self, directory: Optional[str] = None) -> Optional[str]:
        """Publish if dirty and the ``REPRO_OBS_PUBLISH_S`` interval elapsed."""
        if not self.enabled or not self._dirty:
            return None
        interval = _publish_interval()
        if interval > 0 and time.monotonic() - self._last_publish < interval:
            return None
        return self.publish(directory)


class MeteredStats(dict):
    """A counters dict whose positive increments mirror into a metric family.

    The cache layers (plan, codegen) already account events with
    plain ``stats["hits"] += 1`` dicts; wrapping those dicts keeps every
    call site — and every existing test asserting on them — unchanged while
    feeding the always-on registry.  Decreases (the ``clear_*_cache``
    resets) are not mirrored: metric counters are monotonic.
    """

    def __init__(self, family: Family, labeler, mapping: Dict[str, int]) -> None:
        super().__init__(mapping)
        self._family = family
        self._labeler = labeler

    def __setitem__(self, key: str, value: int) -> None:
        if self._family._registry.enabled:
            delta = value - self.get(key, 0)
            if delta > 0:
                self._family.inc(delta, **self._labeler(key))
        super().__setitem__(key, value)


class _DisabledContext:
    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._was_enabled = registry.enabled

    def __enter__(self) -> MetricsRegistry:
        self._was_enabled = self._registry.enabled
        self._registry.enabled = False
        return self._registry

    def __exit__(self, *exc: Any) -> None:
        self._registry.enabled = self._was_enabled


# ---------------------------------------------------------------------------
# Prometheus text exposition (and its inverse, for round-trip tests)
# ---------------------------------------------------------------------------


def _le_text(exponent: int) -> str:
    """Bucket upper bound ``2**exponent`` as a Prometheus ``le`` value."""
    bound = 2.0 ** exponent
    if bound >= 1 and bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus exposition text."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family["type"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if kind == "histogram":
                cumulative = 0
                for le, count in sorted(
                    sample["buckets"].items(), key=lambda kv: float(kv[0])
                ):
                    cumulative += count
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = le
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} {sample['count']}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} {_format_value(sample['sum'])}"
                )
                lines.append(f"{name}_count{_format_labels(labels)} {sample['count']}")
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} {_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse exposition text back into ``{name: {type, help, samples}}``.

    Covers the subset :func:`prometheus_text` emits (enough for round-trip
    tests and the obs-smoke CI assertions, not a general scrape parser).
    Histogram series (``_bucket``/``_sum``/``_count``) fold back into their
    base family name.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family(name: str) -> Dict[str, Any]:
        return families.setdefault(
            name, {"type": "untyped", "help": "", "samples": []}
        )

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            family(name)["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            family(name)["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name = match.group("name")
        labels = {
            k: re.sub(r"\\(.)", lambda m: {"n": "\n"}.get(m.group(1), m.group(1)), v)
            for k, v in _LABEL_RE.findall(match.group("labels") or "")
        }
        value = float(match.group("value"))
        base = name
        series = "value"
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                series = suffix[1:]
                break
        fam = family(base)
        if series == "value":
            fam["samples"].append({"labels": labels, "value": value})
            continue
        # Histogram series: accumulate onto the sample matching the labels
        # sans "le".
        sample_labels = {k: v for k, v in labels.items() if k != "le"}
        target = None
        for sample in fam["samples"]:
            if sample["labels"] == sample_labels:
                target = sample
                break
        if target is None:
            target = {"labels": sample_labels, "count": 0, "sum": 0.0, "buckets": {}}
            fam["samples"].append(target)
        if series == "bucket":
            if labels.get("le") != "+Inf":
                target["buckets"][labels["le"]] = value
        elif series == "sum":
            target["sum"] = value
        elif series == "count":
            target["count"] = int(value)
    # De-cumulate histogram buckets back to per-bucket counts.
    for fam in families.values():
        if fam["type"] != "histogram":
            continue
        for sample in fam["samples"]:
            buckets = sample.get("buckets")
            if not buckets:
                continue
            previous = 0.0
            plain: Dict[str, int] = {}
            for le in sorted(buckets, key=float):
                plain[le] = int(buckets[le] - previous)
                previous = buckets[le]
            sample["buckets"] = plain
    return families


# ---------------------------------------------------------------------------
# Snapshot directory and publishing policy
# ---------------------------------------------------------------------------

_MAX_SNAPSHOTS = 32
_DEFAULT_PUBLISH_S = 2.0


def obs_dir() -> str:
    """Where obs snapshots live: ``REPRO_OBS_DIR`` or a per-user tempdir."""
    configured = os.environ.get("REPRO_OBS_DIR")
    if configured:
        return configured
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-obs-{uid}")


def _publish_interval() -> float:
    try:
        return float(os.environ.get("REPRO_OBS_PUBLISH_S", _DEFAULT_PUBLISH_S))
    except ValueError:
        return _DEFAULT_PUBLISH_S


def _prune_snapshots(directory: str) -> None:
    try:
        entries = [
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.startswith("obs-") and name.endswith(".json")
        ]
        if len(entries) <= _MAX_SNAPSHOTS:
            return
        entries.sort(key=lambda p: os.path.getmtime(p), reverse=True)
        for stale in entries[_MAX_SNAPSHOTS:]:
            os.unlink(stale)
    except OSError:
        pass


#: The process-wide registry every engine records into.
METRICS = MetricsRegistry(enabled=os.environ.get("REPRO_METRICS", "1") != "0")


@atexit.register
def _publish_at_exit() -> None:
    # Forked parallel workers exit via os._exit and never reach here, so
    # the final snapshot always describes the parent process.
    try:
        if METRICS.enabled and METRICS._dirty:
            METRICS.publish()
    except Exception:
        pass
