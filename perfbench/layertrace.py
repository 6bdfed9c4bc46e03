"""Layer tracing of mmrelay from outside the package.

``TABLE`` lists every traced (module, attribute, layer, kind). ``Tracer``
replaces each listed function wherever an ``mmrelay`` module binds it
(``throughput`` imports ``solve_queue`` by name, ``sweeps`` imports
``aggregate_throughput``, the package re-exports most names) and puts the
originals back on exit. No package source changes.

Kinds:

* ``span`` - records a span (name, start, end, parent) in memory;
* ``hot`` - called too often to store each span: timed and counted, and
  its time is still subtracted from its parent's self time;
* ``count`` - counted only (``sinr_linear`` runs millions of times);
* ``gen`` - a generator: calls and yielded items are counted.

A layer's self time is the duration of its calls minus the part covered
by traced children. An attribute that no longer exists is reported as
absent and skipped, so the table survives refactors of the package.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = ("geometry", "success", "queue_model", "throughput", "simulator",
          "sweeps", "cli")


@dataclass(frozen=True)
class Entry:
    module: str
    attr: str            # "func" or "Class.method"
    layer: str
    kind: str            # span | hot | count | gen
    failed: Callable | None = None   # result -> True when the call failed

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


TABLE = (
    Entry("mmrelay.geometry", "LinkBudget.__init__", "geometry", "span"),
    Entry("mmrelay.success", "SuccessTable.p", "success", "hot"),
    Entry("mmrelay.success", "SuccessTable._compute", "success", "span"),
    Entry("mmrelay.success", "SuccessTable.sinr_linear", "success", "count"),
    Entry("mmrelay.queue_model", "_iter_configs", "queue_model", "gen"),
    Entry("mmrelay.queue_model", "solve_queue", "queue_model", "span"),
    Entry("mmrelay.queue_model", "arrival_distribution", "queue_model", "span"),
    Entry("mmrelay.queue_model", "service_success_probability", "queue_model",
          "span"),
    Entry("mmrelay.queue_model", "net_change_distribution", "queue_model",
          "span"),
    Entry("mmrelay.queue_model", "empty_probability", "queue_model", "span"),
    Entry("mmrelay.throughput", "aggregate_throughput", "throughput", "span"),
    Entry("mmrelay.throughput", "per_user_direct", "throughput", "span"),
    Entry("mmrelay.throughput", "_relayed_components", "throughput", "span"),
    Entry("mmrelay.simulator", "run", "simulator", "span"),
    Entry("mmrelay.simulator", "_draw_counts", "simulator", "span"),
    Entry("mmrelay.simulator", "_chunk_decoupled", "simulator", "span"),
    Entry("mmrelay.simulator", "_chunk_physical", "simulator", "span"),
    Entry("mmrelay.simulator", "_scan_chunk", "simulator", "span"),
    Entry("mmrelay.sweeps", "load_config", "sweeps", "span"),
    Entry("mmrelay.sweeps", "run_sweep", "sweeps", "span"),
    Entry("mmrelay.sweeps", "_run_point", "sweeps", "span",
          failed=lambda row: bool(row.get("error"))),
    Entry("mmrelay.sweeps", "evaluate_point", "sweeps", "span"),
    Entry("mmrelay.sweeps", "write_csv", "sweeps", "span"),
)


def _resolve(entry: Entry):
    """(owner, attribute name, original) or None when the attribute is gone."""
    try:
        owner = importlib.import_module(entry.module)
    except ImportError:
        return None
    *path, attr = entry.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Installs the wrappers in TABLE and aggregates what they record."""

    def __init__(self, table=TABLE):
        self.table = table
        n = len(table)
        self.calls = [0] * n
        self.items = [0] * n
        self.failures = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.spans: list[tuple[int, float, float, int]] = []
        self.absent = [e.name for e in table if _resolve(e) is None]
        self._stack: list[list] = []   # [child seconds, span index]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Clear the aggregates (spans are kept until ``write``)."""
        for values in (self.calls, self.items, self.failures,
                       self.total_s, self.self_s):
            values[:] = [0] * len(values)

    def _timed(self, i: int, fn, keep_span: bool):
        stack = self._stack
        entry = self.table[i]
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep_span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[1] if parent else -1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[i] += 1
                self.total_s[i] += dur
                self.self_s[i] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if keep_span:
                    spans[span_id] = (i, t0, t1, parent[1] if parent else -1)
            if entry.failed is not None and entry.failed(result):
                self.failures[i] += 1
            return result

        return wrapper

    def _counted(self, i: int, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, i: int, fn):
        calls, items = self.calls, self.items

        def wrapper(*args, **kwargs):
            calls[i] += 1
            for item in fn(*args, **kwargs):
                items[i] += 1
                yield item

        return wrapper

    def _wrap(self, i: int, fn):
        kind = self.table[i].kind
        if kind == "span":
            return self._timed(i, fn, keep_span=True)
        if kind == "hot":
            return self._timed(i, fn, keep_span=False)
        if kind == "count":
            return self._counted(i, fn)
        if kind == "gen":
            return self._generator(i, fn)
        raise ValueError(f"unknown trace kind {kind!r}")

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mmrelay"
                                         or name.startswith("mmrelay."))]
        for i, entry in enumerate(self.table):
            found = _resolve(entry)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(i, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._stack.clear()

    # -- reading the aggregates -------------------------------------------

    def _index(self, name: str) -> int | None:
        for i, e in enumerate(self.table):
            if e.name == name:
                return i
        return None

    def count(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else self.calls[i]

    def seconds(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else self.total_s[i]

    def layer_self_s(self, layer: str) -> float:
        return sum(s for e, s in zip(self.table, self.self_s)
                   if e.layer == layer)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers since the last ``reset``."""
        def items(name):
            i = self._index(name)
            return 0 if i is None else self.items[i]

        p_calls = self.count("success.SuccessTable.p")
        compute = self.count("success.SuccessTable._compute")
        run_s = self.seconds("simulator.run")
        scan_s = self.seconds("simulator._scan_chunk")
        point = self._index("sweeps._run_point")
        sweep_self = sum(self.self_s[i] for i, e in enumerate(self.table)
                         if e.name in ("sweeps.run_sweep", "sweeps._run_point",
                                       "sweeps.evaluate_point"))
        return {
            "geometry.link_budget_calls": self.count("geometry.LinkBudget.__init__"),
            "geometry.link_budget_s": self.seconds("geometry.LinkBudget.__init__"),
            "success.p_calls": p_calls,
            "success.compute_calls": compute,
            "success.hit_ratio": (1.0 - compute / p_calls) if p_calls else 0.0,
            "success.sinr_evals": self.count("success.SuccessTable.sinr_linear"),
            "success.self_s": self.layer_self_s("success"),
            "queue_model.simplex_passes": self.count("queue_model._iter_configs"),
            "queue_model.configs_visited": items("queue_model._iter_configs"),
            "queue_model.self_s": self.layer_self_s("queue_model"),
            "throughput.aggregate_s": self.seconds("throughput.aggregate_throughput"),
            "throughput.self_s": self.layer_self_s("throughput"),
            "simulator.draw_s": self.seconds("simulator._draw_counts"),
            "simulator.reception_s": (self.seconds("simulator._chunk_decoupled")
                                      + self.seconds("simulator._chunk_physical")),
            "simulator.scan_s": scan_s,
            "simulator.scan_share": scan_s / run_s if run_s else 0.0,
            "simulator.chunks": self.count("simulator._draw_counts"),
            "sweeps.load_config_s": self.seconds("sweeps.load_config"),
            "sweeps.points": self.count("sweeps._run_point"),
            "sweeps.points_failed": 0 if point is None else self.failures[point],
            "sweeps.orchestration_s": sweep_self,
            "sweeps.write_csv_s": self.seconds("sweeps.write_csv"),
        }

    def write(self, path) -> None:
        """Write every recorded span as gzipped JSON."""
        names = [e.name for e in self.table]
        spans = [s for s in self.spans if s is not None]
        doc = {"names": names, "layers": [e.layer for e in self.table],
               "absent": self.absent,
               "spans": [[i, round(t0, 9), round(t1, 9), parent]
                         for i, t0, t1, parent in spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
