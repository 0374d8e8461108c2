"""``repro.telemetry`` — zero-overhead-when-disabled tracing and metrics.

One process-wide *telemetry session* owns at most one active
:class:`~repro.telemetry.trace.Tracer` and one active
:class:`~repro.telemetry.metrics.MetricsRegistry`.  Instrumented code all
over the library (kernel, executor, scenario runner, campaign, cache, modular
arithmetic, fleet) calls the module-level helpers below, which are deliberate
no-ops while nothing is installed:

>>> from repro import telemetry
>>> telemetry.count("scenario.steps")          # no-op: nothing installed
>>> with telemetry.telemetry_session(trace=True, metrics=True) as session:
...     report = runner.run("proposed", scenario)   # doctest: +SKIP
>>> session.tracer.export("out.json")               # doctest: +SKIP

Contract highlights:

* **Observation-only.**  Telemetry never touches RNG streams, virtual time
  or protocol state; enabling it cannot change what a run produces.  The
  golden equivalence suite and the fleet/campaign ``workers=1`` bit-identity
  pins are asserted with telemetry both on and off.
* **Disabled == (nearly) free.**  Every helper is one global load and a
  ``None`` check when disabled; hot loops (the executor's machine hooks, the
  kernel's batch loop) cache the active tracer in a local instead.
* **Re-entrant.**  Sessions nest: installing a new session stashes the
  previous pair and restores it on exit, so a traced campaign can wrap a
  traced protocol run without either stepping on the other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from .metrics import (
    MetricsRegistry,
    histogram_percentile,
    merge_snapshots,
    render_metrics_table,
    summary_fields,
)
from .trace import Span, Tracer

__all__ = [
    "MetricsRegistry",
    "Span",
    "TelemetrySession",
    "Tracer",
    "active_metrics",
    "active_tracer",
    "count",
    "gauge_max",
    "histogram_percentile",
    "install",
    "merge_snapshots",
    "observe",
    "render_metrics_table",
    "set_gauge",
    "span",
    "summary_fields",
    "telemetry_session",
    "uninstall",
]

#: The process-wide active pair.  ``None`` means disabled; instrumented code
#: guards on exactly that, which is the whole zero-overhead story.
_TRACER: Optional[Tracer] = None
_METRICS: Optional[MetricsRegistry] = None


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off."""
    return _TRACER


def active_metrics() -> Optional[MetricsRegistry]:
    """The installed metrics registry, or ``None`` when metrics are off."""
    return _METRICS


def install(
    tracer: Optional[Tracer] = None, metrics: Optional[MetricsRegistry] = None
) -> Tuple[Optional[Tracer], Optional[MetricsRegistry]]:
    """Make ``(tracer, metrics)`` the active pair; returns the previous pair.

    Prefer :func:`telemetry_session` — it restores the previous pair for you.
    """
    global _TRACER, _METRICS
    previous = (_TRACER, _METRICS)
    _TRACER = tracer
    _METRICS = metrics
    return previous


def uninstall(
    previous: Tuple[Optional[Tracer], Optional[MetricsRegistry]] = (None, None),
) -> None:
    """Restore a pair previously returned by :func:`install`."""
    global _TRACER, _METRICS
    _TRACER, _METRICS = previous


class TelemetrySession:
    """The tracer/registry pair one :func:`telemetry_session` installed."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: Optional[Tracer], metrics: Optional[MetricsRegistry]):
        self.tracer = tracer
        self.metrics = metrics

    def metrics_snapshot(self) -> Dict[str, object]:
        return self.metrics.snapshot() if self.metrics is not None else {}


@contextmanager
def telemetry_session(
    *,
    trace: bool = False,
    metrics: bool = False,
    process: str = "main",
    max_spans: int = 250_000,
) -> Iterator[TelemetrySession]:
    """Install a fresh tracer and/or registry for the enclosed block.

    The previous active pair is restored on exit, so sessions nest safely.
    With both flags false this is a pure no-op (handy for unconditional
    call sites).
    """
    session = TelemetrySession(
        Tracer(process, max_spans=max_spans) if trace else None,
        MetricsRegistry() if metrics else None,
    )
    if session.tracer is None and session.metrics is None:
        yield session
        return
    previous = install(session.tracer, session.metrics)
    try:
        yield session
    finally:
        uninstall(previous)


# ---------------------------------------------------------------------------
# No-op-when-disabled instrumentation helpers
# ---------------------------------------------------------------------------

def count(name: str, n: int = 1) -> None:
    """Increment a counter on the active registry (no-op when disabled)."""
    registry = _METRICS
    if registry is not None:
        registry.count(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op when disabled)."""
    registry = _METRICS
    if registry is not None:
        registry.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (no-op when disabled)."""
    registry = _METRICS
    if registry is not None:
        registry.set_gauge(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise a gauge to ``value`` if higher (no-op when disabled)."""
    registry = _METRICS
    if registry is not None:
        registry.gauge_max(name, value)


class _NullSpanContext:
    """A reusable, allocation-free context manager yielding ``None``."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


def span(
    name: str,
    *,
    category: str = "",
    track: str = "main",
    sim_start: Optional[float] = None,
    args: Optional[Dict[str, object]] = None,
):
    """Open a span on the active tracer; yields ``None`` when tracing is off.

    Usage::

        with telemetry.span("step:join", category="scenario") as sp:
            ...
            if sp is not None:
                sp.finish_sim(t_end)
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(
        name, category=category, track=track, sim_start=sim_start, args=args
    )
