"""Sharded multiprocess exploration: the ``rounds`` backend + dispatch.

Two parallel backends share the same sharding scheme — states are
assigned to workers by a 16-byte *stable digest* of their canonical key
(:func:`repro.engine.fingerprint.stable_digest`,
``PYTHONHASHSEED``-independent, so dedup is consistent across processes
under both fork and spawn) and cross the process boundary as compact
codec blobs (:mod:`repro.memory.codec`) — but differ in who owns the
exploration state:

* ``"rounds"`` (this module) — *level-synchronous BFS*.  Each round the
  master partitions the global frontier into one shard per pool worker,
  ``pool.map`` expands the shards, and the master merges every
  discovered ``(digest, blob)`` back into the global visited set.  The
  master's serial merge is the scalability bottleneck and every blob
  round-trips master↔worker twice per state, but the rounds are BFS
  levels by construction: recorded parent edges are shortest, which is
  why :meth:`repro.engine.core.ExplorationEngine.find_witness` pins
  this backend.
* ``"pipeline"`` (:mod:`repro.engine.pipeline`) — *persistent
  shard-owned workers*.  Each worker owns its shard's visited set,
  frontier and result fragments for the whole exploration; same-shard
  successors never leave the discovering process (no codec round-trip
  at all) and cross-shard successors stream through the master — now a
  pure router/terminator — as ``(digest, blob)`` batches.  No round
  barrier: a worker expands as long as it has local work.  The default
  for ``workers > 1``.

Both backends key ``configs``/``edges``/``initial_key`` by digests —
opaque identifiers, exactly how every consumer (refinement,
Owicki–Gries, the tests) treats exploration keys — and both are
bit-identical to sequential BFS on non-truncated runs in every
representation-independent observable (``state_count``, ``edge_count``,
terminal/stuck configurations, terminal outcomes), because visited-set
exploration is order-insensitive.

``workers == 1`` never reaches this module — the engine falls back to
the in-process sequential loop, which is the deterministic reference.

Each call builds its own worker set (workers are initialised with the
program, so they are per-exploration by construction).  Under fork that
costs milliseconds; under spawn, batching many small explorations
through one parallel engine pays a per-call re-import — prefer
``workers=1`` for small state spaces and save the sharded backends for
the large ones, where they matter.

Early-stop/truncation count semantics (both backends): once ``stopped``
(an ``on_config`` callback returned truthy) or ``truncated`` (the state
cap was hit) flips, the merge bails out promptly instead of draining
the batch in hand, so ``state_count``, ``edge_count``, ``terminals``
and ``stuck`` are *lower bounds* on such runs — exactly the sequential
loop's contract.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.engine.core import _check_backend
from repro.engine.fingerprint import stable_digest
from repro.engine.result import ExploreResult
from repro.obs.metrics import Metrics, collecting as _collecting

if TYPE_CHECKING:
    from repro.lang.program import Program
    from repro.semantics.config import Config

#: Per-worker state, installed once by the pool initializer so each
#: frontier round ships only configurations, not the program.
_WORKER: dict = {}


def _init_worker(
    program: "Program",
    canonicalise: bool,
    check_invariants: bool,
    collect_edges: bool,
    reduction: str = "off",
    track_parents: bool = False,
    metrics_on: bool = False,
) -> None:
    from repro.engine.core import key_function
    from repro.semantics.reduce import get_strategy

    strat = get_strategy(reduction)
    _WORKER["program"] = program
    _WORKER["keyf"] = key_function(program, canonicalise)
    _WORKER["succf"] = strat.successors
    # Sleep-set policies ("dpor") expand through the strategy's
    # sleep_expand hook; the shard items then carry a sleep set per
    # configuration and every emitted target carries its child sleep.
    _WORKER["sleepf"] = strat.sleep_expand
    _WORKER["check_invariants"] = check_invariants
    _WORKER["collect_edges"] = collect_edges
    _WORKER["track_parents"] = track_parents
    _WORKER["metrics_on"] = metrics_on


def _expand_shard(shard: List) -> Tuple[List[Tuple], Optional[Dict]]:
    """Expand one frontier shard of pickled configurations.

    Shard items are pickled configurations — or, under a sleep-set
    policy, ``(blob, sleep frozenset)`` pairs.  Returns
    ``(rows, metrics_fragment)``.  ``rows`` holds, positionally
    aligned with ``shard``, tuples
    ``(is_terminal, edge_count, edge_labels, targets)`` where
    ``targets`` holds each distinct successor exactly once as
    ``(digest, pickled configuration)`` (placement nondeterminism
    produces many transitions into the same canonical state —
    deduplicating worker-side keeps the result pipe lean) and
    ``edge_labels`` is None unless the caller asked for the labelled
    transition graph.  Successor generation honours the worker's
    reduction policy: under ``"closure"`` the expanded edges are the
    reduction layer's macro-steps, exactly as in the sequential backend.
    Under parent tracking each target additionally carries the
    ``(tid, component, action)`` label of the transition that first
    produced it, so the master can record predecessor edges without
    unpickling anything.  Under a sleep-set policy each target
    additionally carries (last) its child sleep set — intersected over
    siblings when several transitions reach the same canonical state,
    since only what *every* arriving edge justifies is safely prunable.

    ``metrics_fragment`` is None unless the pool was initialised with
    ``metrics_on``: then a fresh per-call collector is installed around
    the expansion (capturing the reduction layer's fusion/prune counts
    and the shipped blob bytes) and its snapshot rides home with the
    rows for the master to merge.
    """
    program: "Program" = _WORKER["program"]
    keyf = _WORKER["keyf"]
    successors = _WORKER["succf"]
    sleepf = _WORKER.get("sleepf")
    check_invariants: bool = _WORKER["check_invariants"]
    collect_edges: bool = _WORKER["collect_edges"]
    track_parents: bool = _WORKER["track_parents"]
    m = Metrics() if _WORKER.get("metrics_on") else None
    out = []
    with _collecting(m):
        for item in shard:
            if sleepf is None:
                blob, pairs = item, None
            else:
                blob, sleep = item
            cfg: "Config" = pickle.loads(blob)
            if check_invariants:
                cfg.gamma.check_invariants(program.tids)
                cfg.beta.check_invariants(program.tids)
            if sleepf is None:
                succs = successors(program, cfg)
            else:
                pairs = sleepf(program, cfg, sleep)
                succs = [tr for tr, _child in pairs]
            entries: Dict[Tuple, list] = {}  # dedup before digesting
            labels = [] if collect_edges else None
            for i, tr in enumerate(succs):
                key = keyf(tr.target)
                entry = entries.get(key)
                if entry is None:
                    digest = stable_digest(key)
                    tblob = pickle.dumps(tr.target, pickle.HIGHEST_PROTOCOL)
                    if m is not None:
                        m.inc("rounds.blob_bytes", len(tblob))
                    entry = [digest, tblob]
                    if track_parents:
                        entry.append((tr.tid, tr.component, tr.action))
                    if pairs is not None:
                        entry.append(pairs[i][1])
                    entries[key] = entry
                else:
                    digest = entry[0]
                    if pairs is not None:
                        entry[-1] = entry[-1] & pairs[i][1]
                if collect_edges:
                    labels.append((tr.tid, tr.component, tr.action, digest))
            targets = [tuple(e) for e in entries.values()]
            out.append((cfg.is_terminal(), len(succs), labels, targets))
    return out, m.snapshot() if m is not None else None


def _pool_context():
    """Prefer fork (cheap, no re-import) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _shard_of(digest: bytes, workers: int) -> int:
    """Deterministic shard assignment from the key digest."""
    return int.from_bytes(digest[:8], "big") % workers


def explore_parallel(
    program: "Program",
    workers: int,
    max_states: int,
    collect_edges: bool = False,
    canonicalise: bool = True,
    check_invariants: bool = False,
    on_config: Optional[Callable[["Config"], Optional[bool]]] = None,
    reduction: str = "off",
    keep_configs: bool = True,
    track_parents: bool = False,
    backend: str = "pipeline",
    metrics: Optional[Metrics] = None,
    progress=None,
    trace=None,
    transport: Optional[str] = None,
    codec: Optional[str] = None,
) -> ExploreResult:
    """Explore ``program`` with ``workers`` processes, sharded by
    canonical-key digest — dispatching to the requested ``backend``
    (``"pipeline"`` default, ``"rounds"`` the level-synchronous BFS;
    see the module docstring for the architectural difference).

    ``reduction="closure"`` makes the workers expand the reduction
    layer's macro-steps (the master additionally ε-closes the initial
    configuration), with counts and outcomes matching the sequential
    backend under the same policy.

    ``reduction="dpor"`` is supported on the ``"rounds"`` backend only:
    per-state sleep sets ride the shard payloads out to the workers and
    the child sleep sets ride the expansion rows back, with the master
    intersecting sleeps on rediscovery and re-queueing states whose
    sleep set strictly shrank.  Terminal valuations and verdicts match
    the sequential backend; *state counts may differ slightly* between
    worker counts because sleep sets depend on discovery order.  The
    pipeline backend rejects ``"dpor"`` with a ``ValueError`` — its
    streaming shards never re-visit a state, so the sleep-shrink
    re-expansion protocol has no sound home there.

    ``keep_configs=False`` is the summary path: per-state payloads are
    dropped once expanded (the visited set needs only digests), and
    only terminal/stuck configurations — what a verdict actually
    consumes — are materialised at the end.  The result's ``configs``
    map then holds just those, with ``state_total`` carrying the true
    visited count; callers that need the full map or the transition
    graph keep the default.

    ``track_parents`` records each state's first-discovery edge as
    ``parents[digest] = (parent digest, tid, component, action)`` —
    16-byte digests plus an edge label, never configurations.  Under
    ``"rounds"`` the level-synchronous rounds are BFS by construction,
    so the recorded path is shortest in (macro-)steps; the pipeline
    backend records *a* valid discovery path (witness reconstruction
    replays either, but :meth:`~repro.engine.core.ExplorationEngine.
    find_witness` pins ``"rounds"`` for the shortest-path guarantee).
    Combined with ``keep_configs=False`` this is the memory-lean
    witness-search mode.

    One behavioural asymmetry: the pipeline backend evaluates
    ``on_config`` *worker-side* (with a stop broadcast on a truthy
    return) instead of unpickling every discovered state master-side.
    The callback therefore runs in the worker processes — mutations it
    makes do not propagate back to the caller, so stateful callbacks
    (accumulating a witness list, counting) need ``backend="rounds"``;
    pure predicates, the ``reachable``/``assert_invariant`` shape, work
    under both.  Under a spawn start method an unpicklable callback
    falls back to ``"rounds"`` transparently.

    ``transport`` selects the pipeline backend's cross-shard data plane
    (``"shm"`` rings / ``"queue"`` blobs; None auto-resolves via
    ``REPRO_TRANSPORT`` then availability) and ``codec`` its batch wire
    format (``"flat"`` / ``"pickle"``; None resolves via ``REPRO_CODEC``
    then defaults to flat) — pure performance, never results; the
    rounds backend ignores both.

    ``metrics``/``progress``/``trace`` are the observability sinks
    (:mod:`repro.obs`), all defaulting to None (off).  Workers collect
    into private registries shipped home inside their result payloads
    and merged master-side, so the counter totals match the sequential
    backend's exactly on full runs; ``trace`` gains one
    ``explore.round`` event per BFS round under this backend.
    """
    from repro.engine.core import explore_sequential, key_function

    _check_backend(backend)  # fail fast even on the sequential fallback
    if workers <= 1:
        return explore_sequential(
            program,
            max_states=max_states,
            collect_edges=collect_edges,
            canonicalise=canonicalise,
            check_invariants=check_invariants,
            on_config=on_config,
            reduction=reduction,
            track_parents=track_parents,
            metrics=metrics,
            progress=progress,
            keep_configs=keep_configs,
        )
    from repro.semantics.reduce import get_strategy

    strat = get_strategy(reduction)
    if strat.requires_canonical and not canonicalise:
        raise ValueError(
            f"reduction {reduction!r} is only sound under canonical state "
            "keys; canonicalise=False is not supported"
        )
    if backend == "pipeline":
        if not strat.pipeline_safe:
            # An explicit error, not a silent fallback: the caller chose
            # the backend, and the policy's constraint should be visible.
            raise ValueError(
                f"reduction {reduction!r} is not supported on the pipeline "
                "backend (cross-shard sleep-set exchange is not "
                "implemented); use backend='rounds' or workers=1"
            )
        from repro.engine.pipeline import explore_pipeline, pipeline_usable

        if pipeline_usable(on_config):
            return explore_pipeline(
                program,
                workers=workers,
                max_states=max_states,
                collect_edges=collect_edges,
                canonicalise=canonicalise,
                check_invariants=check_invariants,
                on_config=on_config,
                reduction=reduction,
                keep_configs=keep_configs,
                track_parents=track_parents,
                metrics=metrics,
                progress=progress,
                trace=trace,
                transport=transport,
                codec=codec,
            )
        # Spawn-only host and an unpicklable callback: the rounds
        # backend evaluates on_config master-side and needs neither.

    from repro.semantics.config import initial_config

    if collect_edges:
        # Edge consumers address states by digest: the full map is the
        # point of the exploration, so the summary path is off the table.
        keep_configs = True

    start = time.perf_counter()
    keyf = key_function(program, canonicalise)
    with _collecting(metrics):
        # Collected master-side so the initial configuration's ε-closure
        # fusions are counted exactly as the sequential backend counts
        # them (workers only ever close successor suffixes).
        init = initial_config(program)
        init = strat.normalise_initial(program, init)
    init_key = stable_digest(keyf(init))
    init_blob = pickle.dumps(init, pickle.HIGHEST_PROTOCOL)

    # Sleep-set bookkeeping (sleep-set policies only) — the sharded
    # mirror of the sequential loop's: ``sleep_of`` holds the current
    # sleep set per state digest (shipped to the owning worker with the
    # frontier entry), ``queued`` suppresses duplicate frontier
    # entries, ``sunk`` suppresses re-pushing successor-free states.  A
    # rediscovery whose intersection strictly shrinks the stored sleep
    # set re-pushes the state for re-expansion in a later round.
    sleep_mode = strat.sleep_expand is not None
    sleep_of: Optional[Dict[bytes, frozenset]] = (
        {init_key: frozenset()} if sleep_mode else None
    )
    queued: Optional[set] = {init_key} if sleep_mode else None
    sunk: Optional[set] = set() if sleep_mode else None

    visited = {init_key}
    parents: Optional[Dict[bytes, Optional[Tuple]]] = (
        {init_key: None} if track_parents else None
    )
    blobs: Optional[Dict[bytes, bytes]] = (
        {init_key: init_blob} if keep_configs else None
    )
    edges: Optional[Dict[bytes, List]] = {} if collect_edges else None
    terminal_keys: List[bytes] = []
    stuck_keys: List[bytes] = []
    # Summary path: remember the blobs of sink states as they are
    # discovered (their frontier entry is in hand right then), so the
    # final materialisation loop touches only terminals and stuck.
    sink_blobs: Dict[bytes, bytes] = {}
    edge_count = 0
    truncated = False
    stopped = False

    frontier: List[Tuple[bytes, bytes]] = [(init_key, init_blob)]
    if on_config is not None and on_config(init):
        frontier = []
        stopped = True

    ctx = _pool_context()
    pool = ctx.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(
            program, canonicalise, check_invariants, collect_edges,
            reduction, track_parents, metrics is not None,
        ),
    )
    round_no = 0
    frontier_peak = len(frontier)
    shard_tally = [0] * workers
    try:
        while frontier and not stopped and not truncated:
            round_no += 1
            if len(frontier) > frontier_peak:
                frontier_peak = len(frontier)
            if trace is not None:
                trace.emit(
                    "explore.round",
                    round=round_no,
                    frontier=len(frontier),
                    states=len(visited),
                )
            shards: List[List[Tuple[bytes, bytes]]] = [
                [] for _ in range(workers)
            ]
            for digest, blob in frontier:
                shards[_shard_of(digest, workers)].append((digest, blob))
                if sleep_mode:
                    queued.discard(digest)
            occupied = [(w, s) for w, s in enumerate(shards) if s]
            if sleep_mode:
                # Ship each state's *current* sleep set (intersections
                # from earlier rounds included) alongside its blob.
                payloads = [
                    [(blob, sleep_of[d]) for d, blob in s]
                    for _, s in occupied
                ]
            else:
                payloads = [[blob for _, blob in s] for _, s in occupied]
            results = pool.map(_expand_shard, payloads)
            batches = []
            for (w, s), (rows, fragment) in zip(occupied, results):
                batches.append(rows)
                shard_tally[w] += len(s)
                if metrics is not None:
                    metrics.merge(fragment)
                    metrics.inc(f"shard.{w}.states", len(s))
            if progress is not None:
                progress.update(
                    len(visited),
                    shards=[shard_tally[w] for w in range(workers)],
                    force=True,
                )
            frontier = []
            # The merge bails out of the whole batch as soon as stopped
            # or truncated flips: admitting the rest of the round's
            # targets (and accumulating their edge counts) after an
            # early stop would inflate `visited`/`edge_count` past the
            # states the run actually covers.  Counts on such runs are
            # lower bounds — the documented truncation contract.
            for (_w, shard), batch in zip(occupied, batches):
                for (digest, blob), row in zip(shard, batch):
                    is_terminal, n_edges, labels, targets = row
                    edge_count += n_edges
                    if collect_edges:
                        edges[digest] = labels
                    if not targets:
                        if sleep_mode:
                            # A re-expanded sink must not be recounted.
                            if digest in sunk:
                                continue
                            sunk.add(digest)
                        (terminal_keys if is_terminal else stuck_keys).append(
                            digest
                        )
                        if not keep_configs:
                            sink_blobs[digest] = blob
                        continue
                    for entry in targets:
                        if sleep_mode:
                            child_sleep = entry[-1]
                            entry = entry[:-1]
                        if track_parents:
                            tdigest, tblob, label = entry
                        else:
                            tdigest, tblob = entry
                        if tdigest in visited:
                            if sleep_mode:
                                stored = sleep_of.get(tdigest, frozenset())
                                if stored:
                                    inter = stored & child_sleep
                                    if inter != stored:
                                        # This discovery path justifies
                                        # less pruning than the stored
                                        # set: shrink and re-expand.
                                        sleep_of[tdigest] = inter
                                        if (
                                            tdigest not in queued
                                            and tdigest not in sunk
                                        ):
                                            queued.add(tdigest)
                                            frontier.append((tdigest, tblob))
                            continue
                        if len(visited) >= max_states:
                            truncated = True
                            break
                        visited.add(tdigest)
                        if sleep_mode:
                            sleep_of[tdigest] = child_sleep
                            queued.add(tdigest)
                        if track_parents:
                            parents[tdigest] = (digest,) + label
                        if keep_configs:
                            blobs[tdigest] = tblob
                        frontier.append((tdigest, tblob))
                        if on_config is not None:
                            if on_config(pickle.loads(tblob)):
                                stopped = True
                                break
                    if stopped or truncated:
                        break
                if stopped or truncated:
                    break
    finally:
        pool.close()
        pool.join()

    if keep_configs:
        # Materialise the configuration map once, master-side; keep the
        # original initial object so `initial is configs[initial_key]`.
        configs: Dict[bytes, Config] = {
            digest: pickle.loads(blob) for digest, blob in blobs.items()
        }
        configs[init_key] = init
        state_total = None
    else:
        # Summary path: unpickle sinks only — no O(|states|) loop.
        configs = {
            digest: pickle.loads(blob)
            for digest, blob in sink_blobs.items()
        }
        if init_key in configs:
            configs[init_key] = init
        state_total = len(visited)

    elapsed = time.perf_counter() - start
    if metrics is not None:
        metrics.inc("explore.states", len(visited))
        metrics.inc("explore.edges", edge_count)
        metrics.add_time("explore.elapsed", elapsed)
        metrics.gauge_max("explore.frontier_peak", frontier_peak)
    if progress is not None:
        progress.finish()
    return ExploreResult(
        program=program,
        initial=init,
        initial_key=init_key,
        configs=configs,
        terminals=[configs[d] for d in terminal_keys],
        stuck=[configs[d] for d in stuck_keys],
        edge_count=edge_count,
        truncated=truncated,
        elapsed=elapsed,
        edges=edges,
        stopped=stopped,
        state_total=state_total,
        parents=parents,
        metrics=metrics.snapshot() if metrics is not None else None,
    )
