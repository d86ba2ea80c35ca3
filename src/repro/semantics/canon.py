"""Canonical configuration keys (timestamp rank normalisation).

Two configurations that differ only in the rational values of their
timestamps — not in the relative order of operations — describe the same
abstract state: timestamps encode *per-variable* modification order, and
every comparison the semantics performs (``Obs``, the ``⊗`` merge,
``maxTS``, ``last``) is between operations on the same variable.
Cross-variable timestamp relationships are semantically irrelevant, so
the canonical key replaces each timestamp by its rank *within its
(component, variable) group*.  This is strictly stronger than a global
ranking: two interleavings that produce the same per-variable orders but
different cross-variable numeric interleavings collapse to one state.

Rank-from-index encoding
------------------------
Each component state already maintains its operations sorted by
timestamp per variable (:attr:`~repro.memory.state.ComponentState.index`),
so an operation's canonical rank is simply its *position* in that
sequence — read off the index in O(1) per operation instead of
rebuilding per-variable ``rank_map``s from an unsorted ``ops`` scan for
every visited state.  Because the client/library variable partition
makes every operation belong to exactly one component's index, one
combined ``op → rank`` table resolves the cross-component references in
modification views without consulting the program's partition, and the
resulting key is a pure function of the configuration — it is therefore
cached on the (immutable) configuration, so BFS dedup, witness search
and the refinement machinery rank-encode each state at most once.
Deterministic orderings inside the key use cheap *structural* sort keys
(action fields and integer ranks), not ``repr`` of whole encodings.

Plain-data encoding
-------------------
An operation is encoded as ``(action.fields, rank)``: the action's
cached plain field tuple (:attr:`~repro.memory.actions.Action.fields`)
plus its integer rank — never the :class:`~repro.memory.actions.Action`
object itself.  Keys are therefore nested tuples and frozensets of
strings, integers, booleans and ``None`` that hash and compare entirely
in C.  CPython does not cache tuple hashes, so every visited-set lookup
re-hashes the whole key, and an action inside it would cost a
Python-level ``__hash__``/``__eq__`` call per operation each time.  The
field tuple is shared by every encoding of the same action, so equality
checks of two keys mostly hit the identity shortcut.  Equal field
tuples mean equal actions, so the encoding identifies exactly the
configurations that differ only in their timestamps.

Soundness: an order-isomorphic per-variable relabelling is a bisimulation
— the enabled transitions, placement choices and view updates of the
semantics are invariant under it (the numeric value chosen by ``fresh``
never feeds back into behaviour, only its per-variable position does).
The property suite cross-validates this by comparing terminal outcomes
of canonical vs raw exploration over random programs, and by checking
the indexed encoding against a retained naive reference implementation
(:mod:`repro.memory.naive`) over the litmus catalog.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.lang.program import Program
from repro.memory.actions import Op
from repro.memory.state import ComponentState
from repro.semantics.config import Config


def _enc_table(state: ComponentState) -> Dict[Op, Tuple]:
    """``op -> (action fields, rank)``: each operation's canonical
    encoding, with the rank read directly off its per-variable index
    position.  The single table shared by the canonical keys, the
    client-state keys and the refinement projection
    (:mod:`repro.refinement.traces`).

    A pure function of the (immutable) state, so the table is cached on
    it: component states are shared across many configurations — a step
    of one component leaves the other's state object untouched — and
    the unchanged component's ranks are then read back instead of
    re-derived for every successor.  Callers must treat the returned
    table as read-only.
    """
    cached = state.__dict__.get("_enc_table")
    if cached is not None:
        return cached
    enc: Dict[Op, Tuple] = {}
    for seq, _ts in state.index.values():
        for i, op in enumerate(seq):
            enc[op] = (op.act.fields, i)
    object.__setattr__(state, "_enc_table", enc)
    return enc


def _enc_state(
    state: ComponentState, own: Dict[Op, Tuple], other: Dict[Op, Tuple]
) -> Tuple:
    """Encode one component under its own ``op -> (fields, rank)``
    table plus the other component's (modification views span both).

    All orderings inside the encoding are *structural*: operations are
    emitted by walking the per-variable index in (variable name, rank)
    order — already deterministic, so the modification-view sequence
    needs no sort at all (dom(mview) = ops), let alone the former
    ``repr``-lexicographic one; view and thread-view entries come from
    the maps' cached natural-order item tuples.  The two tables are
    consulted without merging them into a throwaway combined dict:
    ``ops``/``tview``/``cvd`` entries are own-component by invariant,
    and only view entries can fall through to ``other``.  An encoding
    that never fell through is a pure function of the state and is
    cached on it.
    """
    cached = state.__dict__.get("_enc_key")
    if cached is not None:
        return cached
    ops = []
    mview_items = []
    mv = state.mview
    index = state.index
    own_get = own.get
    foreign = False
    for var in sorted(index):
        for op in index[var][0]:
            e = own[op]
            ops.append(e)
            view = mv.get(op)
            if view is not None:
                enc_view = []
                for x, o in view.items_ordered():
                    eo = own_get(o)
                    if eo is None:
                        eo = other[o]
                        foreign = True
                    enc_view.append((x, eo))
                mview_items.append((e, tuple(enc_view)))
    tview = tuple(
        (key, own[op]) for key, op in state.tview.items_ordered()
    )
    cvd = frozenset(own[op] for op in state.cvd)
    key = (frozenset(ops), tview, tuple(mview_items), cvd)
    if not foreign:
        # The encoding consulted only this component's own rank table —
        # it is then a pure function of the (immutable) state and is
        # cached on it, like the table itself.  Encodings with
        # cross-component view references stay per-call: they depend on
        # the partner state's ranks too.
        object.__setattr__(state, "_enc_key", key)
    return key


def canonical_key(program: Program, cfg: Config) -> Tuple:
    """A hashable key identifying ``cfg`` up to per-variable timestamp
    relabelling.

    The key is a pure function of the configuration (the variable
    partition resolves itself through the per-component indices), so it
    is computed once and cached on ``cfg``; ``program`` is retained for
    API stability.
    """
    cached = cfg.__dict__.get("_canonical_key")
    if cached is not None:
        return cached
    genc = _enc_table(cfg.gamma)
    benc = _enc_table(cfg.beta)

    cmds = cfg.cmds.items_ordered()
    locals_ = tuple(
        (tid, ls.items_sorted()) for tid, ls in cfg.locals.items_ordered()
    )
    key = (
        cmds,
        locals_,
        _enc_state(cfg.gamma, genc, benc),
        _enc_state(cfg.beta, benc, genc),
    )
    object.__setattr__(cfg, "_canonical_key", key)
    return key


def client_state_key(program: Program, cfg: Config) -> Tuple:
    """Canonical key of the *client-observable* part of a configuration.

    Used by the refinement machinery (paper §6.1): client-projected local
    states plus the canonicalised client component.  Library registers
    (``LVar_L``) are excluded from local states.  Cached per
    configuration (the library-register set is a fixture of the program
    the configuration belongs to).
    """
    cached = cfg.__dict__.get("_client_state_key")
    if cached is not None:
        return cached
    enc = _enc_table(cfg.gamma)
    lib_regs = program.lib_registers()

    gamma = cfg.gamma
    ops = frozenset(enc[op] for op in gamma.ops)
    tview = tuple(
        (key, enc[op]) for key, op in gamma.tview.items_ordered()
    )
    cvd = frozenset(enc[op] for op in gamma.cvd)
    locals_ = tuple(
        (
            tid,
            tuple(
                sorted(
                    (r, v) for r, v in ls.items() if r not in lib_regs
                )
            ),
        )
        for tid, ls in cfg.locals.items_ordered()
    )
    key = (locals_, ops, tview, cvd)
    object.__setattr__(cfg, "_client_state_key", key)
    return key
