"""Per-layer tracing for the verdict benchmark, done from outside ``src/``.

:class:`Tracer` wraps the public boundaries of each layer of ``repro``
(module functions, class methods and the registered reduction
strategies' successor functions) with timing shims.  Every wrapped call
runs inside a frame; a frame's *self* time is its duration minus the
time of the wrapped calls and garbage collections nested in it, so the
self times of all layers plus the unwrapped remainder add up to the
wall time of the traced loop.

Two kinds of boundary:

* *request-level* boundaries (explorations, witness queries, analysis,
  simulation, trace checks, proof checks) record one span each —
  ``(name, start_ns, end_ns, parent)`` — kept in memory and written out
  by :meth:`Tracer.write`;
* *per-state* boundaries (successor generation, canonical keys, client
  projections) and CPython GC pauses only aggregate a call count and a
  duration, because a span per state would cost more than the work.

A call into a layer that is already open on the stack (an engine
exploration calling ``explore_sequential``, the ε-closure calling the
raw successor relation) passes straight through: the outer call already
times it, and counting it twice would inflate the call counts.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns


def rss_bytes() -> int:
    """Current resident set size of this process (0 where ``/proc`` is
    unavailable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    import resource

    return pages * resource.getpagesize()


class LayerStats:
    """Aggregated count, self time and inclusive time of one layer."""

    __slots__ = ("calls", "self_ns", "total_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0


class Tracer:
    """Timing shims around ``repro``'s layer boundaries.

    Create one, call :meth:`install` once the modules are imported, run
    the traced work, then read :attr:`layers`, :attr:`counts` and
    :attr:`spans`.  Installation is for the life of the process: the
    benchmark runs each traced loop in its own interpreter.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        #: Work counters harvested from wrapped calls' results.
        self.counts: Dict[str, float] = {}
        #: ``[name, start_ns, end_ns, parent_index]`` per request-level call.
        self.spans: List[list] = []
        self.origin = _now()
        # One cell per open frame: nanoseconds covered by nested frames.
        self._stack: List[List[int]] = [[0]]
        self._open_spans: List[int] = [-1]
        self._depth: Dict[str, int] = {}
        self._gc_start = 0

    # -- accounting ------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def open_span(self, name: str) -> int:
        """Open a request-level span by hand (the benchmark's requests)."""
        self.spans.append([name, _now() - self.origin, None, self._open_spans[-1]])
        index = len(self.spans) - 1
        self._open_spans.append(index)
        return index

    def close_span(self, index: int) -> None:
        self.spans[index][2] = _now() - self.origin
        self._open_spans.pop()

    def wrap(
        self,
        fn: Callable,
        layer: str,
        span: Optional[str] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """A shim timing ``fn`` into ``layer``; ``span`` names the span
        recorded per call (None: aggregate only); ``on_result(result,
        args, kwargs)`` harvests work counts after the clock stops."""
        stats = self.layers.setdefault(layer, LayerStats())
        depth = self._depth
        depth.setdefault(layer, 0)
        stack = self._stack
        open_spans = self._open_spans
        spans = self.spans
        origin = self.origin

        def shim(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] = 1
            cell = [0]
            stack.append(cell)
            if span is not None:
                record = [span, 0, None, open_spans[-1]]
                spans.append(record)
                open_spans.append(len(spans) - 1)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                depth[layer] = 0
                elapsed = end - start
                stack[-1][0] += elapsed
                stats.calls += 1
                stats.self_ns += elapsed - cell[0]
                stats.total_ns += elapsed
                if span is not None:
                    record[1] = start - origin
                    record[2] = end - origin
                    open_spans.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        shim.__wrapped__ = fn
        return shim

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _now()
            return
        elapsed = _now() - self._gc_start
        self._stack[-1][0] += elapsed
        stats = self.layers["gc"]
        stats.calls += 1
        stats.self_ns += elapsed
        stats.total_ns += elapsed

    # -- installation ----------------------------------------------------
    def patch_function(self, module, name: str, layer: str, inner=None, **kw) -> None:
        """Replace ``module.name`` — and every binding of the same
        function object that other ``repro`` modules imported by name —
        with one shim (around ``inner(original)`` when given)."""
        original = getattr(module, name)
        shim = self.wrap(original if inner is None else inner(original), layer, **kw)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name == "repro" or mod_name.startswith("repro."):
                if getattr(mod, name, None) is original:
                    setattr(mod, name, shim)

    def patch_method(self, cls, name: str, layer: str, **kw) -> None:
        setattr(cls, name, self.wrap(getattr(cls, name), layer, **kw))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on.

        Imports everything it patches first, so that bindings made by
        ``from ... import`` in other modules already exist and get
        rebound too.
        """
        import repro.analysis
        import repro.engine.core as core
        import repro.engine.result as result_mod
        import repro.logic.lockrules as lockrules
        import repro.logic.owicki as owicki
        import repro.refinement.simulation as simulation
        import repro.refinement.tracecheck as tracecheck
        import repro.refinement.traces as traces
        import repro.semantics.canon as canon
        import repro.semantics.reduce as reduce
        import repro.semantics.step as step
        import repro.semantics.witness as witness
        import repro.toolkit  # noqa: F401  (binds the refinement checkers by name)

        self.layers.setdefault("gc", LayerStats())
        count = self.count

        # Resident-set growth of the process across each outermost
        # exploration: the states it retains, in this process.
        rss_start = [0]

        def rss_marked(fn):
            def marked(*args, **kwargs):
                rss_start[0] = rss_bytes()
                return fn(*args, **kwargs)

            return marked

        def explored(result, args, kwargs):
            count("engine.states", result.state_count)
            count("engine.edges", result.edge_count)
            count("engine.rss_growth", max(0, rss_bytes() - rss_start[0]))

        core.ExplorationEngine.explore = self.wrap(
            rss_marked(core.ExplorationEngine.explore),
            "engine", span="engine.explore", on_result=explored,
        )
        self.patch_function(
            core, "explore_sequential", "engine", inner=rss_marked,
            span="engine.explore_sequential", on_result=explored,
        )
        self.patch_function(result_mod, "summarise", "engine.summarise")

        def generated(result, args, kwargs):
            count("succ.generated", len(result))

        # The raw relation is the "off" policy's successor function and is
        # also called directly by the proof-rule, Owicki–Gries and
        # witness-replay checkers.
        raw = step.successors
        self.patch_function(step, "successors", "succ", on_result=generated)
        shims = {id(raw): (raw, step.successors)}

        def succ_shim(fn):
            if fn is None:
                return None
            if id(fn) not in shims:
                shims[id(fn)] = (fn, self.wrap(fn, "succ", on_result=generated))
            return shims[id(fn)][1]

        for name, strategy in list(reduce._REGISTRY.items()):
            reduce._REGISTRY[name] = dataclasses.replace(
                strategy,
                successors=succ_shim(strategy.successors),
                sleep_expand=succ_shim(strategy.sleep_expand),
            )

        self.patch_function(canon, "canonical_key", "canon")

        def analysed(report, args, kwargs):
            count("analysis.findings", len(report.diagnostics))

        self.patch_function(
            repro.analysis, "analyse_program", "analysis",
            span="analysis.analyse_program", on_result=analysed,
        )

        def witnessed(found, args, kwargs):
            if found is not None:
                count("witness.steps", len(found.steps))

        self.patch_method(
            core.ExplorationEngine, "find_witness", "witness",
            span="witness.find_witness", on_result=witnessed,
        )
        self.patch_function(
            witness, "replay_witness", "witness", span="witness.replay_witness"
        )

        def simulated(res, args, kwargs):
            count("sim.product_pairs", res.product_pairs)
            count("sim.iterations", res.iterations)

        self.patch_function(
            simulation, "find_forward_simulation", "sim",
            span="sim.find_forward_simulation", on_result=simulated,
        )

        def refined(res, args, kwargs):
            count("traces.concrete", res.concrete_traces)
            count("traces.abstract", res.abstract_traces)

        self.patch_function(
            tracecheck, "check_program_refinement", "traces",
            span="traces.check_program_refinement", on_result=refined,
        )
        self.patch_function(traces, "client_projection", "traces.projection")

        def rules_checked(reports, args, kwargs):
            count("logic.obligations", sum(r.instances for r in reports.values()))

        def outline_checked(res, args, kwargs):
            count("logic.obligations", res.obligations)

        self.patch_function(
            lockrules, "check_all_rules", "logic",
            span="logic.check_all_rules", on_result=rules_checked,
        )
        self.patch_function(
            owicki, "check_proof_outline", "logic",
            span="logic.check_proof_outline", on_result=outline_checked,
        )
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ----------------------------------------------------------
    def self_seconds(self, layer: str) -> float:
        stats = self.layers.get(layer)
        return stats.self_ns / 1e9 if stats else 0.0

    def calls(self, layer: str) -> int:
        stats = self.layers.get(layer)
        return stats.calls if stats else 0

    def write(self, path, header: dict) -> None:
        """Write the spans and the layer table as one JSON document."""
        doc = dict(header)
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent"]
        doc["spans"] = self.spans
        doc["layers"] = {
            name: {"calls": s.calls, "self_ns": s.self_ns, "total_ns": s.total_ns}
            for name, s in sorted(self.layers.items())
        }
        doc["counts"] = self.counts
        with open(path, "w") as fh:
            json.dump(doc, fh)
