"""Span tracer that wraps the library's public functions from outside.

`Tracer.install()` replaces every public (non-generator) function of the
layer modules, plus a few hot methods, with a wrapper that records a span:
name, start, end, parent span and op id.  Nothing under ``src/`` changes:
the wrappers are installed by rebinding module attributes, and every other
module of the package that imported one of those functions by name is
rebound too, so calls between modules are traced as well.

Self time is computed online: a span's duration minus the time covered by
its child spans.  Spans are also kept in memory (as compact arrays, up to
KEEP_SPANS of them) and written out when the run ends.

Recording is on only while `phase` is set ("setup", or "ops" during a timed
op); input preparation and output checks run untraced.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

from garsidehyp import (  # noqa: F401  (imported so every layer is loaded)
    absorbable,
    cli,
    coxeter,
    garside,
    graphio,
    metrics,
    parabolic,
)
from garsidehyp.errors import CapExceeded

LAYERS = ("coxeter", "garside", "absorbable", "parabolic", "metrics",
          "graphio", "cli")
PHASES = ("setup", "ops")
SETUP_OP = -1
KEEP_SPANS = 1_000_000   # spans kept for the dump; all of them are counted


class _Stat:
    __slots__ = ("calls", "self_s", "outer_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.outer_s = 0.0   # inclusive time, outermost spans of this name only
        self.depth = 0


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, list[_Stat]] = {p: [] for p in PHASES}
        self.counts: dict[str, dict[str, float]] = {p: {} for p in PHASES}
        self.phase: str | None = None
        self.op = SETUP_OP
        self.spans_total = 0
        self._stack: list[list] = []     # [name_id, start, child_s, span_id]
        self.kept_names = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._opid = array("q")
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        if self.phase is not None:
            per = self.counts[self.phase]
            per[key] = per.get(key, 0) + n

    def span(self, name: str, fn, on_exit=None):
        """Wrap fn in a span.

        on_exit(args, result, error, parent_name) runs before the span closes.
        """
        nid = len(self.names)
        self.names.append(name)
        for per_phase in self.stats.values():
            per_phase.append(_Stat())
        stack = self._stack
        names = self.names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            st = self.stats[self.phase][nid]
            span_id = self.spans_total
            self.spans_total += 1
            st.depth += 1
            frame = [nid, 0.0, 0.0, span_id]
            stack.append(frame)
            result = err = None
            frame[1] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                if on_exit is not None:
                    on_exit(args, result, err,
                            names[parent[0]] if parent is not None else None)
                dur = end - start
                st.calls += 1
                st.self_s += dur - frame[2]
                st.depth -= 1
                if st.depth == 0:
                    st.outer_s += dur
                if parent is not None:
                    parent[2] += dur
                if span_id < KEEP_SPANS:
                    self.kept_names.append(nid)
                    self._start.append(start)
                    self._end.append(end)
                    self._parent.append(parent[3] if parent is not None else -1)
                    self._opid.append(self.op)

        return traced

    def counted(self, name: str, fn):
        """Wrap fn with a call counter only, for calls too hot for a span."""
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.phase is not None:
                per = self.counts[self.phase]
                per[key] = per.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public functions of every layer module, and hot methods.

        Generator functions are left alone (a span would close before their
        work runs), and so are the `cli.cmd_*` handlers, so that the self
        time of `cli.main` is argument parsing, dispatch and JSON emission.
        """
        hooks = {
            "garside.multiply": self._multiply_done,
            "absorbable.is_absorbable": self._is_absorbable_done,
            "parabolic.standard_membership": self._membership_done,
        }
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"garsidehyp.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)
                        or (layer == "cli" and attr.startswith("cmd_"))):
                    continue
                name = f"{layer}.{attr}"
                fn = self._peak_memory(name, obj) if name == "metrics.estimate_delta" else obj
                new = self.span(name, fn, hooks.get(name))
                wrapped[id(obj)] = new
                self._patch(mod, attr, new)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("garsidehyp.") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None and obj is not new:
                    self._patch(mod, attr, new)
        table = coxeter.SimpleTable
        self._patch(table, "__init__",
                    self.span("coxeter.table", table.__init__, self._table_built))
        self._patch(table, "renorm", self.counted("coxeter.renorm", table.renorm))
        graph = metrics.MetricGraph
        self._patch(graph, "bfs_distances",
                    self.span("metrics.bfs_distances", graph.bfs_distances))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._originals):
            setattr(owner, attr, old)
        self._originals.clear()

    # -- per-name hooks ----------------------------------------------------

    def _table_built(self, args, result, err, parent):
        if err is None:
            self.count("coxeter.table.elems", args[0].size)

    def _multiply_done(self, args, result, err, parent):
        if parent == "absorbable.is_absorbable":
            self.count("absorbable.candidates_tried")

    def _is_absorbable_done(self, args, result, err, parent):
        # The sup = 0 case recurses once on y^-1; count each query once.
        if err is None and parent != "absorbable.is_absorbable" and result:
            self.count("absorbable.yes")

    def _membership_done(self, args, result, err, parent):
        if isinstance(err, CapExceeded):
            self.count("parabolic.standard_membership.inconclusive")

    def _peak_memory(self, name: str, fn):
        """Measure fn's peak allocation with tracemalloc (outermost calls)."""
        key = name + ".peak_mb"

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if self.phase is None or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                per = self.counts[self.phase]
                per[key] = max(per.get(key, 0.0), peak)

        return measured

    # -- results -----------------------------------------------------------

    def stat(self, phase: str, name: str) -> _Stat:
        try:
            return self.stats[phase][self.names.index(name)]
        except ValueError:
            return _Stat()

    def layer_self_s(self, phase: str) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in zip(self.names, self.stats[phase]):
            out[name.split(".", 1)[0]] += st.self_s
        return out

    def write(self, path: Path) -> None:
        """Write the kept spans: a JSON header line, then fixed-width arrays."""
        header = {"names": self.names, "spans_total": self.spans_total,
                  "spans_kept": len(self.kept_names),
                  "arrays": ["name:i", "start:d", "end:d", "parent:q", "op:q"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.kept_names, self._start, self._end, self._parent,
                        self._opid):
                arr.tofile(fh)
