"""One benchmark workload in one fresh interpreter.

``run.py`` starts this script once per set-up sample and once for the
measured run, so no workload's memory peak or warm memo caches leak
into another's.  The script times its own set-up (imports, building
every program, a warm-up), then — unless ``--setup-only`` — runs the
workload's requests in a closed loop for about ``--seconds``: the
whole number of passes nearest to ``--seconds`` at the workload's
nominal pass time, but at least three on ``library`` and two on
``wide-w2``.  One caller issues the next request when the previous one
returns, in an order shuffled by ``--seed``.  Every
verdict is checked against an answer that does not come from the code
under test.  Times reported end to end are at reference host speed:
wall times corrected by the host's speed, which :class:`HostSpeed`
samples in the measured thread throughout.  The last line of standard
output is one JSON object for ``run.py``.

With ``--trace 1`` the script first runs the loop untraced (the
baseline for the tracing overhead), then installs
:class:`tracer.Tracer` and runs it again traced, reporting per-layer
figures instead of end-to-end ones and writing the spans to
``--spans``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

#: A verdict that is known to disagree with the paper, counted as an
#: error in every run (never dropped), and tolerated by ``correct`` only
#: in exactly this shape.  The paper's soundness theorem (simulation
#: implies refinement) rules the disagreement out: the forward
#: simulation is found, yet the trace check reports unmatched traces
#: because a view advance takes two concrete steps where the abstract
#: lock takes one and ``trace_refines`` demands equal length.
KNOWN_DEFECTS = frozenset(
    {
        "seqlock/three-thread-client: simulation found, traces do not refine",
        "ticketlock/three-thread-client: simulation found, traces do not refine",
    }
)

#: Thread CPU time of one :func:`reference_work` call at reference
#: speed 1.0 (about the median on the 2-CPU host, CPython 3.11.7, the
#: benchmark was tuned on).
REFERENCE_WORK_S = 0.6e-3
#: Pause between two host-speed samples.
SPEED_INTERVAL_S = 0.05
#: A request's latency is corrected by the mean host speed from this
#: long before it starts to this long after it ends.
SPEED_WINDOW_S = 0.5

#: Exploration cap of the litmus verdicts; a verdict that reaches it is
#: an error, never a pass.
LITMUS_MAX_STATES = 500_000


@dataclasses.dataclass
class Request:
    """One closed-loop request: ``run()`` returns ``(label, ok)`` per
    verdict it produces (``verdicts`` of them)."""

    label: str
    verdicts: int
    run: Callable[[], List[Tuple[str, bool]]]


def wide_program(n: int, reads: int = 2):
    """``n`` threads, each writing its own variable then reading
    ``reads`` neighbours: a relaxed grid with no silent steps whose
    state space grows combinatorially (the same space as
    ``benchmarks/spaces.py``)."""
    from repro import Lit, Program, Thread, ast as A

    threads = {}
    for i in range(n):
        stmts = [A.Write(f"x{i}", Lit(1))]
        for j in range(1, reads + 1):
            stmts.append(A.Read(f"r{i}_{j}", f"x{(i + j) % n}"))
        threads[str(i + 1)] = Thread(A.seq(*stmts))
    return Program(threads=threads, client_vars={f"x{i}": 0 for i in range(n)})


def wide_regs(n: int, reads: int = 2):
    return tuple((str(i + 1), f"r{i}_{j}") for i in range(n) for j in range(1, reads + 1))


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


def reference_work() -> int:
    """A fixed slice of interpreter work (tuples, dict and set traffic,
    calls) that touches no code under test.  Its keys are ints and
    tuples of ints, whose hashes do not depend on ``PYTHONHASHSEED``."""
    table: Dict[Tuple[int, int], int] = {}
    seen = set()
    for i in range(1200):
        key = (i % 97, i * 31 % 101)
        table[key] = table.get(key, 0) + 1
        seen.add(hash(key) & 1023)
    return len(table) + len(seen)


class HostSpeed:
    """Samples how fast the host runs the interpreter while the workload
    runs, in the workload's own thread.

    The host is shared: its speed drifts by 15-25 % over tens of
    seconds.  A ``SIGALRM`` every
    ``SPEED_INTERVAL_S`` of wall time interrupts the main thread, whose
    handler times one :func:`reference_work` call in thread CPU time and
    records ``REFERENCE_WORK_S / took``: 1.0 at reference speed, 0.8
    when the host runs at 80 %.  Sampling in the measured thread, on its
    CPU, between two of its bytecodes, is what makes the sample track
    the workload; a sampler on another thread drifts apart from it.  A
    wall time multiplied by the mean speed over its window is the time
    the same work takes at reference speed; the end-to-end times are
    reported that way, so two runs of the same code agree whatever the
    host's speed was during each.  The sampler costs about 1.5 % of the
    main thread in every run alike; pipeline workers do not inherit its
    timer."""

    def __init__(self) -> None:
        self.times: List[float] = []  # perf_counter of each sample, ascending
        self.speeds: List[float] = []
        self._previous = None

    def start(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        began = time.thread_time()
        reference_work()
        took = time.thread_time() - began
        if took > 0:
            self.times.append(time.perf_counter())
            self.speeds.append(REFERENCE_WORK_S / took)

    def over(self, start: float, end: float) -> float:
        """Mean speed of the samples taken between ``start`` and ``end``
        (``perf_counter`` values); the nearest sample when none was."""
        if not self.speeds:
            raise RuntimeError("no host-speed sample was taken")
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if lo < hi:
            return statistics.fmean(self.speeds[lo:hi])
        near = [i for i in (lo - 1, lo) if 0 <= i < len(self.times)]
        return self.speeds[min(near, key=lambda i: abs(self.times[i] - end))]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Litmus:
    """Five verdicts per catalog entry: static analysis, the outcome set
    under each reduction policy, and a replayed weak-outcome witness."""

    POLICIES = ("off", "closure", "dpor")
    nominal_pass_s = 1.0
    min_passes = 1

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke

    def imports(self) -> None:
        import repro.analysis
        import repro.engine.core
        import repro.litmus.catalog
        import repro.obs.metrics
        import repro.semantics.witness

        self.analysis = repro.analysis
        self.core = repro.engine.core
        self.catalog = repro.litmus.catalog
        self.witness = repro.semantics.witness

    def build(self) -> None:
        tests = self.catalog.LITMUS_TESTS[:6] if self.smoke else self.catalog.LITMUS_TESTS
        # Each entry's program is built once and shared by its requests.
        self.tests = [
            dataclasses.replace(t, build=(lambda p=t.build(): p)) for t in tests
        ]

    def requests(self, metrics, stats: Dict[str, float]) -> List[Request]:
        engines = {
            policy: self.core.ExplorationEngine(reduction=policy, metrics=metrics)
            for policy in self.POLICIES
        }
        out = []
        for test in self.tests:
            out.append(Request(f"{test.name}/analysis", 1, self._analysis(test)))
            for policy in self.POLICIES:
                out.append(
                    Request(
                        f"{test.name}/{policy}",
                        1,
                        self._outcomes(test, engines[policy], policy, stats),
                    )
                )
            out.append(
                Request(f"{test.name}/witness", 1, self._witness(test, engines["closure"]))
            )
        return out

    def warm_up(self, rng: random.Random) -> None:
        run_loop(self.requests(None, {}), 1, rng)

    def _analysis(self, test):
        def run():
            report = self.analysis.analyse_program(test.build())
            return [(f"{test.name}/analysis", report.codes() == test.expect_lint)]

        return run

    def _outcomes(self, test, engine, policy, stats):
        def run():
            verdict = self.catalog.run_litmus(
                test, max_states=LITMUS_MAX_STATES, engine=engine
            )
            outcomes = set(verdict["outcomes"])
            stats[f"states.{policy}"] = stats.get(f"states.{policy}", 0) + verdict["states"]
            ok = (
                outcomes == set(test.allowed)
                and bool(outcomes & test.weak) == test.weak_allowed
                and verdict["states"] < LITMUS_MAX_STATES
            )
            return [(f"{test.name}/{policy}", ok)]

        return run

    def _witness(self, test, engine):
        def run():
            program = test.build()
            found = engine.find_witness(
                program, lambda cfg: test.outcome_of(cfg) in test.weak, terminal_only=True
            )
            if found is None:
                ok = not test.weak_allowed
            else:
                final = self.witness.replay_witness(program, found)
                ok = (
                    test.weak_allowed
                    and final.is_terminal()
                    and test.outcome_of(final) in test.weak
                )
            return [(f"{test.name}/witness", ok)]

        return run


class Library:
    """The paper's library verification: ``verify_lock_implementation``
    for three lock implementations over four clients, the Lemma 3 proof
    rules, and three Owicki–Gries proof outlines."""

    nominal_pass_s = 12.0
    # verdict_p50_ms falls on the spinlock request, one sample a pass
    # whose time moves with where the order puts it; three passes give
    # it a median of three.
    min_passes = 3

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke

    def imports(self) -> None:
        import repro.engine.core
        import repro.figures.fig3
        import repro.figures.fig7
        import repro.figures.mp_outline
        import repro.impls.seqlock
        import repro.impls.spinlock
        import repro.impls.ticketlock
        import repro.litmus.clients
        import repro.logic.lockrules
        import repro.logic.owicki
        import repro.logic.triples
        import repro.objects.lock
        import repro.obs.metrics
        import repro.toolkit

        self.core = repro.engine.core
        self.clients = repro.litmus.clients
        self.lockrules = repro.logic.lockrules
        self.owicki = repro.logic.owicki
        self.triples = repro.logic.triples
        self.toolkit = repro.toolkit
        self.impls = {
            "seqlock": (repro.impls.seqlock.seqlock_fill, repro.impls.seqlock.SEQLOCK_VARS),
            "ticketlock": (
                repro.impls.ticketlock.ticketlock_fill,
                repro.impls.ticketlock.TICKETLOCK_VARS,
            ),
            "spinlock": (repro.impls.spinlock.spinlock_fill, repro.impls.spinlock.SPINLOCK_VARS),
        }
        self.outline_builders = {
            "fig3": repro.figures.fig3.fig3_outline,
            "fig7": repro.figures.fig7.fig7_outline,
            "mp": repro.figures.mp_outline.mp_outline,
        }
        self.abstract_lock = lambda: repro.objects.lock.AbstractLock("l")

    def build(self) -> None:
        c = self.clients
        # verify_lock_implementation's default battery plus the
        # three-thread client.
        self.battery = list(self.toolkit.default_lock_battery()) + [
            ("three-thread-client", c.lock_client_three_threads, {}),
        ]
        if self.smoke:
            self.battery = self.battery[:1]
            self.impls = {"spinlock": self.impls["spinlock"]}
        self.rule_clients = []
        for _client, builder, kwargs in self.battery:
            afill, objs = c.abstract_fill(self.abstract_lock)
            self.rule_clients.append(builder(afill, objects=objs, **kwargs))
        outlines = dict(self.outline_builders)
        if self.smoke:
            outlines = {"mp": outlines["mp"]}
        self.outlines = {name: build() for name, build in outlines.items()}

    def requests(self, metrics, stats: Dict[str, float], battery=None) -> List[Request]:
        battery = self.battery if battery is None else battery
        engine = self.core.ExplorationEngine(metrics=metrics)
        out = [
            Request(f"verify/{impl}", len(battery), self._verify(impl, fill, lib_vars, battery, engine))
            for impl, (fill, lib_vars) in self.impls.items()
        ]
        out.append(Request("lemma3", 6, self._rules))
        for name, outline in self.outlines.items():
            out.append(Request(f"outline/{name}", 1, self._outline(name, outline)))
        return out

    def warm_up(self, rng: random.Random) -> None:
        # The three-thread clients are about 11 of a pass's 12 s and run
        # no code the other clients do not, so the warm-up skips them.
        battery = [entry for entry in self.battery if entry[0] != "three-thread-client"]
        run_loop(self.requests(None, {}, battery), 1, rng)

    def _verify(self, impl, fill, lib_vars, battery, engine):
        def run():
            report = self.toolkit.verify_lock_implementation(
                fill, lib_vars, battery=battery, engine=engine
            )
            out = []
            for verdict in report.verdicts:
                label = f"{impl}/{verdict.client}"
                sim, traces = verdict.simulation, verdict.traces
                if sim.found and traces.refines:
                    out.append((label, True))
                else:
                    out.append((
                        f"{label}: simulation {'found' if sim.found else 'not found'}, "
                        f"traces {'refine' if traces.refines else 'do not refine'}",
                        False,
                    ))
            return out

        return run

    def _rules(self):
        groups = self.triples.collect_universe(self.rule_clients)
        reports = self.lockrules.check_all_rules(groups, indices=(2, 4), values=(0, 5))
        return [(f"lemma3/{name}", report.valid) for name, report in sorted(reports.items())]

    def _outline(self, name, outline):
        def run():
            result = self.owicki.check_proof_outline(outline)
            return [(f"outline/{name}", result.valid and not result.truncated)]

        return run


class Wide:
    """One ``closure`` exploration of the relaxed grid on the summary
    path; the verdict is its terminal register valuations."""

    nominal_pass_s = 16.0

    def __init__(self, smoke: bool, workers: int) -> None:
        self.smoke = smoke
        self.workers = workers
        self.n = 3 if smoke else 5
        self.warm_n = 3 if smoke else 4
        # A pipeline run now and then stalls for a few seconds on the
        # shared host; two explorations a run halve the weight of one.
        self.min_passes = 2 if workers > 1 else 1

    def imports(self) -> None:
        import repro.engine.core
        import repro.engine.result
        import repro.obs.metrics
        import repro.semantics.reduce  # noqa: F401  lazy import of the engine

        if self.workers > 1:
            import repro.engine.parallel  # noqa: F401
            import repro.engine.pipeline  # noqa: F401

        self.core = repro.engine.core
        self.result = repro.engine.result

    def build(self) -> None:
        self.program = wide_program(self.n)
        self.warm_program = wide_program(self.warm_n)

    def verdict(self, engine, n: int, program) -> bool:
        summary = self.result.summarise(engine.explore(program, keep_configs=False))
        # With reads < n every register reads another thread's variable,
        # which is 0 or 1 with nothing ordering the threads, so all
        # 2^(n*reads) valuations are reachable.
        expected = set(itertools.product((0, 1), repeat=2 * n))
        return not summary.truncated and summary.terminal_locals(*wide_regs(n)) == expected

    def requests(self, metrics, stats: Dict[str, float], workers: Optional[int] = None):
        engine = self.core.ExplorationEngine(
            workers=self.workers if workers is None else workers,
            reduction="closure",
            metrics=metrics,
        )
        label = f"wide({self.n},2)"
        return [Request(label, 1, lambda: [(label, self.verdict(engine, self.n, self.program))])]

    def warm_up(self, rng: random.Random) -> None:
        engine = self.core.ExplorationEngine(workers=self.workers, reduction="closure")
        if not self.verdict(engine, self.warm_n, self.warm_program):
            raise RuntimeError(f"warm-up wide({self.warm_n},2) gave a wrong terminal set")


def make_workload(name: str, smoke: bool):
    if name == "litmus":
        return Litmus(smoke)
    if name == "library":
        return Library(smoke)
    if name == "wide-seq":
        return Wide(smoke, workers=1)
    if name == "wide-w2":
        return Wide(smoke, workers=2)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class LoopResult:
    elapsed: float
    timed: List[Tuple[float, float, int]]  # (began, wall s, verdicts) per request
    attempted: int
    completed: int
    wrong: List[str]
    start: float  # perf_counter value

    @property
    def rate(self) -> float:
        return self.completed / self.elapsed

    @property
    def samples(self) -> int:
        return sum(verdicts for _, _, verdicts in self.timed)

    def speed(self, host: HostSpeed) -> float:
        return host.over(self.start, self.start + self.elapsed)

    def latencies(self, host: HostSpeed) -> List[float]:
        """One latency per verdict, at reference host speed: its
        request's wall time times the mean speed around the request."""
        out: List[float] = []
        for began, took, verdicts in self.timed:
            speed = host.over(began - SPEED_WINDOW_S, began + took + SPEED_WINDOW_S)
            # Each verdict waited for the whole request that produced it.
            out.extend([took * speed] * verdicts)
        return out


def run_loop(requests: List[Request], passes: int, rng: random.Random, tracer=None):
    """Issue ``passes`` whole passes over ``requests``, each in a fresh
    shuffled order.  Whole passes keep the request mix identical across
    seeds; only the order changes."""
    timed: List[Tuple[float, float, int]] = []
    attempted = completed = 0
    wrong: List[str] = []
    clock = time.perf_counter
    start = clock()
    for _ in range(passes):
        order = list(requests)
        rng.shuffle(order)
        for req in order:
            span = tracer.open_span(req.label) if tracer is not None else None
            began = clock()
            try:
                outcomes = req.run()
            except Exception as exc:  # a raised verdict is an error, not a crash
                outcomes = None
                failure = f"{req.label}: raised {type(exc).__name__}: {exc}"
            timed.append((began, clock() - began, req.verdicts))
            if span is not None:
                tracer.close_span(span)
            attempted += req.verdicts
            if outcomes is None:
                wrong.extend([failure] * req.verdicts)
                continue
            completed += len(outcomes)
            wrong.extend(label for label, ok in outcomes if not ok)
    return LoopResult(clock() - start, timed, attempted, completed, wrong, start)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any waited-for child
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(samples: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated within the samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(loop: LoopResult, host: HostSpeed) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics; times are at reference host speed (see
    :class:`HostSpeed`)."""
    latencies = loop.latencies(host)
    return {
        "verdicts_per_sec": (loop.rate / loop.speed(host), "1/s"),
        "verdict_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "verdict_p95_ms": (percentile(latencies, 95) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "verdict_ok_rate": ((loop.attempted - len(loop.wrong)) / loop.attempted, "1"),
    }


def per_layer(tracer, metrics, stats, base: LoopResult, traced: LoopResult, seq_rate, speed):
    """The per-layer figures of one traced loop."""
    c = metrics.counters
    t = tracer.counts
    wall = traced.elapsed
    explore_s = tracer.layers["engine"].total_ns / 1e9 if "engine" in tracer.layers else 0.0
    states = t.get("engine.states", 0)
    explorations = tracer.calls("engine")
    generated = t.get("succ.generated", 0)
    canon_calls = tracer.calls("canon")
    gc_s = tracer.self_seconds("gc")
    shards = metrics.shard_states()
    named = (
        "engine", "engine.summarise", "succ", "canon", "gc", "analysis", "witness",
        "sim", "traces", "traces.projection", "logic",
    )
    accounted = sum(tracer.self_seconds(layer) for layer in named)
    closure_states = stats.get("states.closure", 0)
    out = {
        "engine.explore_calls": (explorations, "count"),
        "engine.explore_s": (explore_s, "s"),
        "engine.states": (states, "count"),
        "engine.edges": (t.get("engine.edges", 0), "count"),
        "engine.states_per_sec": (states / explore_s if explore_s else 0.0, "1/s"),
        "engine.admit_self_s": (tracer.self_seconds("engine"), "s"),
        "engine.bytes_per_state": (
            t.get("engine.rss_growth", 0) / states if states else 0.0, "B",
        ),
        "succ.calls": (tracer.calls("succ"), "count"),
        "succ.self_s": (tracer.self_seconds("succ"), "s"),
        "succ.generated": (generated, "count"),
        "succ.admit_ratio": (
            max(0, states - explorations) / generated if generated else 0.0, "1",
        ),
        "reduce.epsilon_fused": (c.get("reduce.epsilon_fused", 0), "count"),
        "canon.calls": (canon_calls, "count"),
        "canon.self_s": (tracer.self_seconds("canon"), "s"),
        "canon.ns_per_call": (
            tracer.self_seconds("canon") * 1e9 / canon_calls if canon_calls else 0.0, "ns",
        ),
        "gc.collections": (tracer.calls("gc"), "count"),
        "gc.pause_s": (gc_s, "s"),
        "gc.pause_share": (gc_s / wall, "1"),
        "reduce.dpor.sleep_blocked": (c.get("reduce.dpor.sleep_blocked", 0), "count"),
        "reduce.dpor.persistent_expanded": (
            c.get("reduce.dpor.persistent_expanded", 0), "count",
        ),
        "dpor.state_ratio": (
            stats.get("states.dpor", 0) / closure_states if closure_states else 0.0, "1",
        ),
        "analysis.calls": (tracer.calls("analysis"), "count"),
        "analysis.self_s": (tracer.self_seconds("analysis"), "s"),
        "analysis.findings": (t.get("analysis.findings", 0), "count"),
        "witness.calls": (tracer.calls("witness"), "count"),
        "witness.self_s": (tracer.self_seconds("witness"), "s"),
        "witness.steps": (t.get("witness.steps", 0), "count"),
        "pipeline.batches": (c.get("pipeline.batches", 0), "count"),
        # Bytes shipped across shards: blobs on the queue transport,
        # frames on the shared-memory rings.
        "pipeline.blob_bytes": (
            c.get("pipeline.blob_bytes", 0) + c.get("shm.ring.bytes", 0), "B",
        ),
        "codec.encode_s": (c.get("codec.encode_ns", 0) / 1e9, "s"),
        "codec.decode_s": (c.get("codec.decode_ns", 0) / 1e9, "s"),
        "shard.imbalance": (
            max(shards.values()) / statistics.mean(shards.values()) if shards else 0.0, "1",
        ),
        "w2.speedup": (base.rate / seq_rate if seq_rate else 0.0, "1"),
        "sim.calls": (tracer.calls("sim"), "count"),
        "sim.self_s": (tracer.self_seconds("sim"), "s"),
        "sim.product_pairs": (t.get("sim.product_pairs", 0), "count"),
        "sim.iterations": (t.get("sim.iterations", 0), "count"),
        "traces.calls": (tracer.calls("traces"), "count"),
        "traces.self_s": (
            tracer.self_seconds("traces") + tracer.self_seconds("traces.projection"), "s",
        ),
        "traces.concrete": (t.get("traces.concrete", 0), "count"),
        "traces.abstract": (t.get("traces.abstract", 0), "count"),
        "traces.projection_s": (tracer.self_seconds("traces.projection"), "s"),
        "logic.calls": (tracer.calls("logic"), "count"),
        "logic.self_s": (tracer.self_seconds("logic"), "s"),
        "logic.obligations": (t.get("logic.obligations", 0), "count"),
        "trace.overhead": (traced.rate / base.rate, "1"),
        "trace.accounted_share": (accounted / wall, "1"),
        "trace.spans": (len(tracer.spans), "count"),
        "verdict.samples": (base.samples, "count"),
        "host.speed": (speed, "1"),
        "wall.verdicts_per_sec": (base.rate, "1/s"),
    }
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    host = HostSpeed().start()
    try:
        report = run(args, host)
    finally:
        host.stop()
    print(json.dumps(report))
    return 0


def run(args, host: HostSpeed) -> dict:
    workload = make_workload(args.workload, args.smoke)
    rng = random.Random(args.seed)

    began = time.perf_counter()
    workload.imports()
    import_s = time.perf_counter() - began
    began = time.perf_counter()
    workload.build()
    build_s = time.perf_counter() - began
    workload.warm_up(random.Random(args.seed))
    ready = time.perf_counter()
    # setup_s is at reference host speed, like the loop's times;
    # import_s and build_s are per-layer figures and stay wall times.
    setup = {
        "setup_s": (ready - _T0) * host.over(_T0, ready),
        "import_s": import_s,
        "build_s": build_s,
    }
    if args.setup_only:
        return {"setup": setup}

    # The pass count follows from --seconds and a fixed nominal pass
    # time, never from a measured one, so every run does the same work.
    passes = max(workload.min_passes, round(args.seconds / workload.nominal_pass_s))
    base = run_loop(workload.requests(None, {}), passes, rng)
    report = {
        "setup": setup,
        "attempted": base.attempted,
        "wrong": base.wrong,
        "samples": base.samples,
        "host_speed": base.speed(host),
    }
    if args.trace == 0:
        report["metrics"] = end_to_end(base, host)
    else:
        from repro.obs.metrics import Metrics
        from tracer import Tracer

        seq_rate = 0.0
        if isinstance(workload, Wide) and workload.workers > 1:
            seq = run_loop(workload.requests(None, {}, workers=1), 1, rng)
            report["attempted"] += seq.attempted
            report["wrong"] += seq.wrong
            seq_rate = seq.rate
        tracer = Tracer()
        tracer.install()
        metrics = Metrics()
        stats: Dict[str, float] = {}
        traced = run_loop(workload.requests(metrics, stats), passes, rng, tracer)
        tracer.uninstall_gc()
        report["attempted"] += traced.attempted
        report["wrong"] += traced.wrong
        report["metrics"] = per_layer(
            tracer, metrics, stats, base, traced, seq_rate, base.speed(host)
        )
        if args.spans:
            tracer.write(
                args.spans,
                {"workload": args.workload, "seed": args.seed, "wall_s": traced.elapsed},
            )
    report["unexpected"] = sorted(set(report["wrong"]) - KNOWN_DEFECTS)
    return report


if __name__ == "__main__":
    sys.exit(main())
