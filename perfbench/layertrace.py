"""Layer spans recorded from outside the program.

:meth:`LayerTracer.install` wraps every public callable in each layer's ``__all__`` —
functions, and the public methods and properties of the classes listed
there (with their in-package base classes) — and rebinds the ``from ..x
import name`` aliases of the wrapped functions in every ``repro.*`` module.
A layer is a ``repro`` subpackage; a callable belongs to the layer of the
module that defines it.

A call that enters a layer from another layer (or from outside every layer)
opens a span; a call within the current layer does not, so each span is
one visit to its layer.  Spans record name (and through it the layer),
start, end and parent; they stay in memory as compact columns and are
written out by :meth:`LayerTracer.write`.  A span's
self time is its duration minus the time its child spans cover; builtins
such as ``pow`` are charged to the layer that called them.  Time spent
outside every span is ``other``.

Install only after every untraced measurement: wrapping is not undone.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

LAYERS = (
    "hashing",
    "symmetric",
    "mathutils",
    "groups",
    "backends",
    "signatures",
    "pki",
    "core",
    "baselines",
    "cluster",
    "engine",
    "network",
    "mobility",
    "energy",
    "adversary",
    "sim",
    "campaign",
    "telemetry",
)
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}
_SIM = _LAYER_INDEX["sim"]
#: Span times are integer ticks of this many seconds, stored unsigned in 32
#: bits: a traced pass may last up to 429 s.
TICK_S = 1e-7

#: Calls counted one by one (within a layer too): qualified name -> counter.
COUNTED = {
    "repro.symmetric.aes.AES.encrypt_block": "symmetric.aes_blocks",
    "repro.groups.schnorr.SchnorrGroup.exp_g": "groups.exp_g",
    "repro.groups.elliptic.ECPoint.multiply": "groups.ec_mul",
    "repro.energy.accounting.CostRecorder.record_operation": "energy.record_calls",
    "repro.energy.accounting.CostRecorder.record_signature": "energy.record_calls",
    "repro.energy.accounting.CostRecorder.record_tx": "energy.record_calls",
    "repro.energy.accounting.CostRecorder.record_rx": "energy.record_calls",
}


def layer_of(module: str) -> Optional[int]:
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return _LAYER_INDEX.get(parts[1])


class LayerTracer:
    def __init__(self) -> None:
        #: open spans: [layer, ticks covered by children, span id]
        self.stack: List[list] = []
        self.names: List[str] = []
        self.name_layers: List[str] = []
        #: per-layer self time and cross-layer calls, in ticks
        self.self_ticks = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counts: Counter = Counter()
        #: ticks in medium.total_* called from the runner
        self.snapshot_ticks = 0
        self.covered_ticks = 0
        # One entry per span, indexed by span id (the order spans open in).
        # Times are ticks of 100 ns since the tracer was created.
        self.span_parent = array("i")
        self.span_name = array("H")
        self.span_start = array("I")
        self.span_end = array("I")
        self._origin = time.perf_counter_ns()
        self._wrapped: Dict[int, Callable] = {}
        self._classes: set = set()
        self._batch_depth = 0

    # ------------------------------------------------------------- wrappers
    def _span(self, fn: Callable, layer: int, qualname: str) -> Callable:
        stack = self.stack
        self_ticks = self.self_ticks
        calls = self.calls
        clock = time.perf_counter_ns
        origin = self._origin
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_layers.append(LAYERS[layer])
        parents, names = self.span_parent, self.span_name
        starts, ends = self.span_start, self.span_end
        counter = COUNTED.get(qualname)
        counts = self.counts
        snapshot = qualname.startswith("repro.network.medium.BroadcastMedium.total_")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span_id = len(parents)
            parent = stack[-1] if stack else None
            parents.append(parent[2] if parent is not None else -1)
            names.append(name_id)
            frame = [layer, 0, span_id]
            stack.append(frame)
            start = (clock() - origin) // 100
            starts.append(start)
            ends.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = (clock() - origin) // 100
                stack.pop()
                ends[span_id] = end
                duration = end - start
                self_ticks[layer] += duration - frame[1]
                calls[layer] += 1
                if parent is not None:
                    parent[1] += duration
                    if snapshot and parent[0] == _SIM:
                        tracer.snapshot_ticks += duration
                else:
                    tracer.covered_ticks += duration

        return wrapper

    def _signature_counts(self, fn: Callable, method: str) -> Callable:
        """Count signings, and verifications direct or through a batch."""
        counts = self.counts
        tracer = self

        if method == "sign":

            def counted(*args, **kwargs):
                counts["signatures.sign"] += 1
                return fn(*args, **kwargs)

        elif method == "verify":

            def counted(*args, **kwargs):
                if tracer._batch_depth == 0:
                    counts["signatures.verify_direct"] += 1
                return fn(*args, **kwargs)

        else:

            def counted(*args, **kwargs):
                bound = inspect.signature(fn).bind(*args, **kwargs).arguments
                items = bound.get("items", bound.get("identities", ()))
                if tracer._batch_depth == 0:
                    counts["signatures.verify_batched"] += len(items)
                tracer._batch_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._batch_depth -= 1

        return functools.wraps(fn)(counted)

    def wrap(self, fn: Callable, layer: int, qualname: str) -> Callable:
        known = self._wrapped.get(id(fn))
        if known is not None:
            return known
        inner = fn
        if layer == _LAYER_INDEX["signatures"]:
            method = qualname.rsplit(".", 1)[-1]
            if method in ("sign", "verify", "batch_verify", "gq_batch_verify"):
                inner = self._signature_counts(fn, method)
        wrapped = self._span(inner, layer, qualname)
        self._wrapped[id(fn)] = wrapped
        return wrapped

    def _wrap_class(self, cls: type) -> None:
        for klass in cls.__mro__:
            layer = layer_of(klass.__module__)
            if layer is None or klass in self._classes:
                continue
            self._classes.add(klass)
            for name, attr in list(vars(klass).items()):
                if name.startswith("_"):
                    continue
                qualname = f"{klass.__module__}.{klass.__qualname__}.{name}"
                if isinstance(attr, staticmethod):
                    new = staticmethod(self.wrap(attr.__func__, layer, qualname))
                elif isinstance(attr, classmethod):
                    new = classmethod(self.wrap(attr.__func__, layer, qualname))
                elif isinstance(attr, property) and attr.fget is not None:
                    new = property(
                        self.wrap(attr.fget, layer, qualname), attr.fset, attr.fdel, attr.__doc__
                    )
                elif inspect.isfunction(attr):
                    new = self.wrap(attr, layer, qualname)
                else:
                    continue
                setattr(klass, name, new)

    def install(self, extra_modules=()) -> None:
        """Wrap every layer's public surface and rebind the aliases."""
        replaced: Dict[int, Callable] = {}
        for layer_name in LAYERS:
            package = importlib.import_module(f"repro.{layer_name}")
            for name in package.__all__:
                obj = getattr(package, name)
                module = getattr(obj, "__module__", None) or ""
                layer = layer_of(module)
                if layer is None:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj)
                elif inspect.isfunction(obj):
                    qualname = f"{module}.{obj.__qualname__}"
                    replaced[id(obj)] = self.wrap(obj, layer, qualname)
        modules = [m for n, m in list(sys.modules.items()) if n == "repro" or n.startswith("repro.")]
        for module in modules + list(extra_modules):
            namespace = vars(module)
            for name, value in list(namespace.items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and wrapped is not value:
                    namespace[name] = wrapped

    # -------------------------------------------------------------- results
    @property
    def snapshot_s(self) -> float:
        return self.snapshot_ticks * TICK_S

    def metrics(self, traced_wall: float) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_ticks[i] * TICK_S
            out[f"{layer}.calls"] = self.calls[i]
        out["other.self_s"] = traced_wall - self.covered_ticks * TICK_S
        return out

    def write(self, stem: str) -> None:
        """``<stem>.json`` (name table, layout) and ``<stem>.bin`` (columns)."""
        columns = (self.span_parent, self.span_name, self.span_start, self.span_end)
        with open(stem + ".bin", "wb") as handle:
            for column in columns:
                column.tofile(handle)
        with open(stem + ".json", "w") as handle:
            json.dump(
                {
                    "spans": len(self.span_parent),
                    "tick_s": TICK_S,
                    "columns": [
                        {"field": field, "typecode": column.typecode, "itemsize": column.itemsize}
                        for field, column in zip(("parent", "name", "start", "end"), columns)
                    ],
                    "names": self.names,
                    "name_layers": self.name_layers,
                },
                handle,
            )
