"""Wire format v2: pickle-free flat batch codec for cross-shard traffic.

The sharded backends ship ``(digest, Config[, parent_edge])`` batches
between workers.  Wire format v1 (:mod:`repro.memory.codec`) already
compacted pickle's opcode stream — positional ``__reduce__`` tuples,
trailing-default truncation, numeric timestamps — but every batch still
paid for pickle's generic machinery: per-object reconstructor globals,
frame opcodes, memo bookkeeping.  This module replaces the opcode
stream entirely with a struct-packed *define-or-ref* format built on
per-batch intern tables:

Frame layout
------------
::

    byte 0      magic 0xF1
    byte 1      version 0x02
    byte 2      flags (reserved, 0)
    uvarint     entry count
    entries     digest | config | extras        (see below)

Every interned object — strings, ``Action``\\ s, ``(num, den)``
timestamps, ``Op``\\ s, views, component states, per-thread locals maps
and command-AST nodes — is written as one LEB128 varint ``n``:

* ``n == 0`` — an inline *definition* follows; the decoder appends the
  decoded object to that type's per-batch table (definitions nested in
  a definition are appended first, so indices are assigned in
  post-order);
* ``n >= 1`` — a back-reference to table entry ``n - 1``.

(Command-AST refs shift by one more: ``0`` is the terminated command
``None``, ``1`` introduces a definition, ``n >= 2`` refers to entry
``n - 2``.)  A second and later occurrence of any value inside a batch
therefore costs one or two bytes, and a batch carries no class
references, no reconstructor tuples and no pickle memo machinery.
Scalars use a small tag byte (None/False/True/Empty/int/str-ref) with
zigzag varints for ints; anything outside the semantic value universe
falls back to a length-prefixed embedded pickle, so the format never
rejects a payload.

A config entry is::

    digest       uvarint length | bytes
    cmds         uvarint count  | (tid str-ref, AST ref) ...
    locals       uvarint count  | (tid str-ref, locals-map ref) ...
    gamma, beta  component-state refs
    extras       u8 count | parent edges (digest, tid, component,
                 action-ref) or embedded pickles

and a component state is index-arrays into the tables: its ``ops`` and
``cvd`` as op refs, ``tview`` as ``(tid, var, op)`` triples, ``mview``
as ``(op, view)`` pairs — views may reference the *other* component's
ops, which is why the op table spans the whole batch.

Versioning and fallback
-----------------------
:func:`decode_batch` dispatches on the first byte: ``0xF1`` is flat
(the version byte must match :data:`VERSION`), ``0x80`` is a pickle
protocol-2+ opcode — a v1 blob, decoded via ``pickle.loads`` — and
anything else raises :class:`CodecError`.  The receive side therefore
never needs to know the sender's codec, and the v1 pickle codec
remains a measured fallback (``codec="pickle"`` / ``REPRO_CODEC``).
All decode failures — truncated buffers, bit flips, bad counts, wrong
versions — surface as the typed :class:`CodecError`, never a bare
``struct.error``/``IndexError`` (fuzzed in
``tests/test_memory_flatcodec.py``).

Decode-side interning is two-level: tables restore identity sharing
*within* a batch, and actions, timestamps and AST nodes additionally
intern into the per-process tables (shared with wire format v1) so
repeated values across batches collapse to one object with a cached
hash.

When a metrics collector is active (:data:`repro.obs.metrics._ACTIVE`)
every encode/decode records ``codec.encode_ns`` / ``codec.decode_ns``
/ ``codec.table_entries`` so flat-vs-pickle cost is visible in every
telemetry one-liner and batch report.
"""

from __future__ import annotations

import pickle
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from repro.lang import ast as _ast
from repro.lang.expr import EMPTY, BinOp, Lit, Reg, UnOp, _Empty
from repro.memory import codec as _codec
from repro.memory.actions import Action, Op
from repro.memory.state import ComponentState
from repro.obs import metrics as _metrics
from repro.semantics.config import Config
from repro.util.fmap import FMap

MAGIC = 0xF1
VERSION = 0x02

#: Recognised batch codec names (the pipeline/CLI registry).
CODECS = ("flat", "pickle")


class CodecError(ValueError):
    """Typed decode failure: truncated, corrupted or wrong-version
    frames (and undecodable embedded pickles) all surface as this."""


# -- scalar value tags -------------------------------------------------------

_V_NONE = 0
_V_FALSE = 1
_V_TRUE = 2
_V_EMPTY = 3
_V_INT = 4
_V_STR = 5
_V_PICKLE = 6

# -- AST node tags -----------------------------------------------------------

_NODE_TAGS = {
    _ast.LocalAssign: 1,
    _ast.Write: 2,
    _ast.Read: 3,
    _ast.Cas: 4,
    _ast.Fai: 5,
    _ast.MethodCall: 6,
    _ast.Seq: 7,
    _ast.If: 8,
    _ast.While: 9,
    _ast.LibBlock: 10,
    _ast.Labeled: 11,
    Lit: 12,
    Reg: 13,
    UnOp: 14,
    BinOp: 15,
}
_NODE_PICKLE = 16

#: Cross-batch AST intern table (node → canonical node), bounded like
#: the v1 action/timestamp tables.
_AST_INTERN: dict = {}


def clear_intern_tables() -> None:
    """Drop this module's per-process intern table (test isolation)."""
    _AST_INTERN.clear()


def _intern_node(node):
    try:
        cached = _AST_INTERN.get(node)
    except TypeError:  # unhashable literal somewhere inside
        return node
    if cached is None:
        if len(_AST_INTERN) >= _codec._INTERN_MAX:
            _codec._evict_half(_AST_INTERN)
        _AST_INTERN[node] = node
        return node
    return cached


def _intern_ts(num: int, den: int) -> Fraction:
    table = _codec._TIMESTAMPS
    key = (num, den)
    ts = table.get(key)
    if ts is None:
        if len(table) >= _codec._INTERN_MAX:
            _codec._evict_half(table)
        ts = table[key] = Fraction(num, den)
    return ts


# -- writers -----------------------------------------------------------------


class _BytesWriter:
    """Append-only writer over a growable bytearray."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, b: int) -> None:
        self.buf.append(b)

    def raw(self, data) -> None:
        self.buf += data

    def uvarint(self, n: int) -> None:
        buf = self.buf
        while n > 0x7F:
            buf.append((n & 0x7F) | 0x80)
            n >>= 7
        buf.append(n)


class _ViewWriter:
    """Writer streaming straight into a fixed ``memoryview`` (ring
    memory); raises :class:`repro.memory.codec.BufferFull` the moment
    the encoding would overrun — no intermediate blob is ever built."""

    __slots__ = ("buf", "pos", "_len")

    def __init__(self, buf: memoryview) -> None:
        self.buf = buf
        self.pos = 0
        self._len = len(buf)

    def u8(self, b: int) -> None:
        p = self.pos
        if p >= self._len:
            raise _codec.BufferFull(p + 1)
        self.buf[p] = b
        self.pos = p + 1

    def raw(self, data) -> None:
        p = self.pos
        end = p + len(data)
        if end > self._len:
            raise _codec.BufferFull(end)
        self.buf[p:end] = data
        self.pos = end

    def uvarint(self, n: int) -> None:
        while n > 0x7F:
            self.u8((n & 0x7F) | 0x80)
            n >>= 7
        self.u8(n)


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _unzigzag(u: int) -> int:
    return (u >> 1) if not (u & 1) else -((u + 1) >> 1)


# -- encoder -----------------------------------------------------------------


class _Encoder:
    """One batch encode: the per-batch memo tables plus the writer.

    Each ``*_len`` counter mirrors the decoder's table length exactly —
    it advances on every definition emitted, including the unhashable
    ones that cannot be memoised.
    """

    __slots__ = (
        "w", "defs",
        "strings", "actions", "actions_len", "timestamps", "ops",
        "views", "states", "locals_maps", "locals_len", "nodes",
        "nodes_len",
    )

    def __init__(self, w) -> None:
        self.w = w
        self.defs = 0
        self.strings: dict = {}
        self.actions: dict = {}
        self.actions_len = 0
        self.timestamps: dict = {}
        self.ops: dict = {}
        self.views: dict = {}
        self.states: dict = {}
        self.locals_maps: dict = {}
        self.locals_len = 0
        self.nodes: dict = {}
        self.nodes_len = 0

    # -- strings ----------------------------------------------------------
    def str_ref(self, s: str) -> None:
        table = self.strings
        idx = table.get(s)
        w = self.w
        if idx is not None:
            w.uvarint(idx + 1)
            return
        table[s] = len(table)
        self.defs += 1
        w.uvarint(0)
        data = s.encode("utf-8")
        w.uvarint(len(data))
        w.raw(data)

    # -- tagged scalar values ----------------------------------------------
    def value(self, v) -> None:
        w = self.w
        if v is None:
            w.u8(_V_NONE)
        elif v is True:
            w.u8(_V_TRUE)
        elif v is False:
            w.u8(_V_FALSE)
        elif type(v) is int:
            w.u8(_V_INT)
            w.uvarint(_zigzag(v))
        elif type(v) is str:
            w.u8(_V_STR)
            self.str_ref(v)
        elif isinstance(v, _Empty):
            w.u8(_V_EMPTY)
        elif isinstance(v, bool):
            w.u8(_V_TRUE if v else _V_FALSE)
        elif isinstance(v, int):
            w.u8(_V_INT)
            w.uvarint(_zigzag(int(v)))
        elif isinstance(v, str):
            w.u8(_V_STR)
            self.str_ref(v)
        else:
            blob = pickle.dumps(v, pickle.HIGHEST_PROTOCOL)
            w.u8(_V_PICKLE)
            w.uvarint(len(blob))
            w.raw(blob)

    # -- actions -----------------------------------------------------------
    def action_ref(self, a: Action) -> None:
        args = a.fields
        n = 8
        defaults = _codec._ACTION_DEFAULTS
        while n > 2 and args[n - 1] == defaults[n - 1]:
            n -= 1
        key = args[:n]
        table = self.actions
        try:
            idx = table.get(key)
        except TypeError:  # unhashable value field: define every time
            idx, key = None, None
        w = self.w
        if idx is not None:
            w.uvarint(idx + 1)
            return
        if key is not None:
            table[key] = self.actions_len
        self.actions_len += 1
        self.defs += 1
        w.uvarint(0)
        w.u8(n)
        for field in args[:n]:
            self.value(field)

    # -- timestamps --------------------------------------------------------
    def ts_ref(self, ts: Fraction) -> None:
        table = self.timestamps
        idx = table.get(ts)
        w = self.w
        if idx is not None:
            w.uvarint(idx + 1)
            return
        table[ts] = len(table)
        self.defs += 1
        w.uvarint(0)
        w.uvarint(_zigzag(ts.numerator))
        w.uvarint(ts.denominator)

    # -- ops ---------------------------------------------------------------
    def op_ref(self, op: Op) -> None:
        table = self.ops
        idx = table.get(op)
        w = self.w
        if idx is not None:
            w.uvarint(idx + 1)
            return
        table[op] = len(table)
        self.defs += 1
        w.uvarint(0)
        self.action_ref(op.act)
        self.ts_ref(op.ts)

    # -- views (var → op maps, the mview values) ---------------------------
    def view_ref(self, view: FMap) -> None:
        table = self.views
        idx = table.get(view)
        w = self.w
        if idx is not None:
            w.uvarint(idx + 1)
            return
        table[view] = len(table)
        self.defs += 1
        w.uvarint(0)
        items = list(view.items())
        w.uvarint(len(items))
        for var, op in items:
            self.str_ref(var)
            self.op_ref(op)

    # -- component states --------------------------------------------------
    def state_ref(self, state: ComponentState) -> None:
        table = self.states
        idx = table.get(state)
        w = self.w
        if idx is not None:
            w.uvarint(idx + 1)
            return
        table[state] = len(table)
        self.defs += 1
        w.uvarint(0)
        cls = type(state)
        if cls is ComponentState:
            w.u8(0)
        else:  # subclass (the naive reference state): carry the class
            blob = pickle.dumps(cls, pickle.HIGHEST_PROTOCOL)
            w.u8(1)
            w.uvarint(len(blob))
            w.raw(blob)
        ops = state.ops
        w.uvarint(len(ops))
        for op in ops:
            self.op_ref(op)
        tview = list(state.tview.items())
        w.uvarint(len(tview))
        for (tid, var), op in tview:
            self.str_ref(tid)
            self.str_ref(var)
            self.op_ref(op)
        mview = list(state.mview.items())
        w.uvarint(len(mview))
        for op, view in mview:
            self.op_ref(op)
            self.view_ref(view)
        cvd = state.cvd
        w.uvarint(len(cvd))
        for op in cvd:
            self.op_ref(op)

    # -- per-thread locals maps --------------------------------------------
    def locals_ref(self, ls: FMap) -> None:
        table = self.locals_maps
        try:
            idx = table.get(ls)
        except TypeError:  # unhashable register value somewhere
            idx, ls_key = None, None
        else:
            ls_key = ls
        w = self.w
        if idx is not None:
            w.uvarint(idx + 1)
            return
        if ls_key is not None:
            table[ls_key] = self.locals_len
        self.locals_len += 1
        self.defs += 1
        w.uvarint(0)
        items = list(ls.items())
        w.uvarint(len(items))
        for reg, val in items:
            self.str_ref(reg)
            self.value(val)

    # -- command ASTs ------------------------------------------------------
    def ast_ref(self, node) -> None:
        w = self.w
        if node is None:
            w.uvarint(0)
            return
        table = self.nodes
        try:
            idx = table.get(node)
        except TypeError:
            idx, node_key = None, None
        else:
            node_key = node
        if idx is not None:
            w.uvarint(idx + 2)
            return
        w.uvarint(1)
        self.defs += 1
        tag = _NODE_TAGS.get(type(node))
        if tag is None:
            blob = pickle.dumps(node, pickle.HIGHEST_PROTOCOL)
            w.u8(_NODE_PICKLE)
            w.uvarint(len(blob))
            w.raw(blob)
        elif tag == 1:
            w.u8(1)
            self.str_ref(node.reg)
            self.ast_ref(node.expr)
        elif tag == 2:
            w.u8(2)
            self.str_ref(node.var)
            self.ast_ref(node.expr)
            w.u8(1 if node.release else 0)
        elif tag == 3:
            w.u8(3)
            self.str_ref(node.reg)
            self.str_ref(node.var)
            w.u8(1 if node.acquire else 0)
        elif tag == 4:
            w.u8(4)
            self.str_ref(node.reg)
            self.str_ref(node.var)
            self.ast_ref(node.expect)
            self.ast_ref(node.new)
        elif tag == 5:
            w.u8(5)
            self.str_ref(node.reg)
            self.str_ref(node.var)
        elif tag == 6:
            w.u8(6)
            self.str_ref(node.obj)
            self.str_ref(node.method)
            self.ast_ref(node.arg)
            self.value(node.dest)
        elif tag == 7:
            w.u8(7)
            self.ast_ref(node.first)
            self.ast_ref(node.second)
        elif tag == 8:
            w.u8(8)
            self.ast_ref(node.cond)
            self.ast_ref(node.then_branch)
            self.ast_ref(node.else_branch)
        elif tag == 9:
            w.u8(9)
            self.ast_ref(node.cond)
            self.ast_ref(node.body)
        elif tag == 10:
            w.u8(10)
            self.ast_ref(node.body)
            regs = sorted(node.public_regs)
            w.uvarint(len(regs))
            for r in regs:
                self.str_ref(r)
        elif tag == 11:
            w.u8(11)
            self.value(node.label)
            self.ast_ref(node.body)
        elif tag == 12:
            w.u8(12)
            self.value(node.value)
        elif tag == 13:
            w.u8(13)
            self.str_ref(node.name)
        elif tag == 14:
            w.u8(14)
            self.str_ref(node.op)
            self.ast_ref(node.operand)
        else:  # 15 — BinOp
            w.u8(15)
            self.str_ref(node.op)
            self.ast_ref(node.left)
            self.ast_ref(node.right)
        # Post-order index assignment: children (encoded above) claimed
        # theirs first, mirroring the decoder's append order.
        if node_key is not None:
            self.nodes[node_key] = self.nodes_len
        self.nodes_len += 1

    # -- configs / entries -------------------------------------------------
    def config(self, cfg: Config) -> None:
        w = self.w
        cmds = list(cfg.cmds.items())
        w.uvarint(len(cmds))
        for tid, com in cmds:
            self.str_ref(tid)
            self.ast_ref(com)
        locals_ = list(cfg.locals.items())
        w.uvarint(len(locals_))
        for tid, ls in locals_:
            self.str_ref(tid)
            self.locals_ref(ls)
        self.state_ref(cfg.gamma)
        self.state_ref(cfg.beta)

    def entry(self, e: tuple) -> None:
        w = self.w
        digest = e[0]
        w.uvarint(len(digest))
        w.raw(digest)
        self.config(e[1])
        extras = e[2:]
        w.u8(len(extras))
        for extra in extras:
            if (
                type(extra) is tuple
                and len(extra) == 4
                and type(extra[0]) is bytes
                and type(extra[1]) is str
                and type(extra[2]) is str
                and type(extra[3]) is Action
            ):  # a parent edge (digest, tid, component, action)
                w.u8(1)
                w.uvarint(len(extra[0]))
                w.raw(extra[0])
                self.str_ref(extra[1])
                self.str_ref(extra[2])
                self.action_ref(extra[3])
            else:
                blob = pickle.dumps(extra, pickle.HIGHEST_PROTOCOL)
                w.u8(0)
                w.uvarint(len(blob))
                w.raw(blob)


def _flat_encodable(batch) -> bool:
    """Whether every entry is ``(bytes digest, Config, ...)`` — the
    cross-shard shape.  Anything else (control payloads, ad-hoc ring
    traffic) falls back to the v1 pickle wire format, which
    :func:`decode_batch` transparently accepts."""
    for e in batch:
        if (
            not isinstance(e, tuple)
            or len(e) < 2
            or not isinstance(e[0], bytes)
            or type(e[1]) is not Config
        ):
            return False
    return True


def _note_encode(ns: int, tables: int) -> None:
    m = _metrics._ACTIVE
    if m is not None:
        m.inc("codec.encode_ns", ns)
        if tables:
            m.inc("codec.table_entries", tables)


def _note_decode(ns: int) -> None:
    m = _metrics._ACTIVE
    if m is not None:
        m.inc("codec.decode_ns", ns)


def encode_batch(batch) -> bytes:
    """Encode a cross-shard batch to flat wire-format-v2 bytes (or to a
    v1 pickle blob when the batch is not ``(digest, Config, ...)``
    shaped — the decoder accepts both)."""
    t0 = time.perf_counter_ns()
    if not _flat_encodable(batch):
        blob = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
        _note_encode(time.perf_counter_ns() - t0, 0)
        return blob
    w = _BytesWriter()
    w.u8(MAGIC)
    w.u8(VERSION)
    w.u8(0)
    enc = _Encoder(w)
    w.uvarint(len(batch))
    for e in batch:
        enc.entry(e)
    _note_encode(time.perf_counter_ns() - t0, enc.defs)
    return bytes(w.buf)


def encode_batch_into(batch, buf: memoryview) -> int:
    """Encode a batch straight into ``buf`` (ring memory) and return
    the bytes written; raises :class:`repro.memory.codec.BufferFull`
    when it does not fit.  Same zero-intermediate-copy contract as the
    v1 :func:`repro.memory.codec.encode_batch_into`."""
    t0 = time.perf_counter_ns()
    if not _flat_encodable(batch):
        n = _codec.encode_batch_into(batch, buf)
        _note_encode(time.perf_counter_ns() - t0, 0)
        return n
    w = _ViewWriter(buf)
    w.u8(MAGIC)
    w.u8(VERSION)
    w.u8(0)
    enc = _Encoder(w)
    w.uvarint(len(batch))
    for e in batch:
        enc.entry(e)
    _note_encode(time.perf_counter_ns() - t0, enc.defs)
    return w.pos


# -- decoder -----------------------------------------------------------------


class _Reader:
    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf) -> None:
        self.buf = buf
        self.pos = 0
        self.end = len(buf)

    def u8(self) -> int:
        p = self.pos
        if p >= self.end:
            raise CodecError("truncated frame: expected byte")
        b = self.buf[p]
        self.pos = p + 1
        return b

    def uvarint(self) -> int:
        buf, p, end = self.buf, self.pos, self.end
        result = 0
        shift = 0
        while True:
            if p >= end:
                raise CodecError("truncated frame: unterminated varint")
            b = buf[p]
            p += 1
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
        self.pos = p
        return result

    def take(self, n: int) -> bytes:
        p = self.pos
        end = p + n
        if end > self.end:
            raise CodecError(
                f"truncated frame: {n} bytes claimed, "
                f"{self.end - p} remain"
            )
        self.pos = end
        return bytes(self.buf[p:end])

    def count(self) -> int:
        """A length whose elements each occupy >= 1 byte: a count
        larger than the remaining buffer is corruption, caught here
        before any allocation."""
        n = self.uvarint()
        if n > self.end - self.pos:
            raise CodecError(
                f"corrupt frame: count {n} exceeds remaining "
                f"{self.end - self.pos} bytes"
            )
        return n


class _Decoder:
    __slots__ = (
        "r", "strings", "actions", "timestamps", "ops", "views",
        "states", "locals_maps", "nodes",
    )

    def __init__(self, r: _Reader) -> None:
        self.r = r
        self.strings: list = []
        self.actions: list = []
        self.timestamps: list = []
        self.ops: list = []
        self.views: list = []
        self.states: list = []
        self.locals_maps: list = []
        self.nodes: list = []

    def _table(self, table: list, n: int):
        if n > len(table):
            raise CodecError(
                f"corrupt frame: reference {n} into table of "
                f"{len(table)}"
            )
        return table[n - 1]

    def str_ref(self) -> str:
        n = self.r.uvarint()
        if n:
            return self._table(self.strings, n)
        data = self.r.take(self.r.uvarint())
        try:
            s = sys.intern(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CodecError(f"corrupt frame: bad utf-8 ({exc})") from exc
        self.strings.append(s)
        return s

    def value(self):
        tag = self.r.u8()
        if tag == _V_NONE:
            return None
        if tag == _V_FALSE:
            return False
        if tag == _V_TRUE:
            return True
        if tag == _V_EMPTY:
            return EMPTY
        if tag == _V_INT:
            return _unzigzag(self.r.uvarint())
        if tag == _V_STR:
            return self.str_ref()
        if tag == _V_PICKLE:
            return self._pickle_blob()
        raise CodecError(f"corrupt frame: unknown value tag {tag}")

    def _pickle_blob(self):
        blob = self.r.take(self.r.uvarint())
        try:
            return pickle.loads(blob)
        except Exception as exc:
            raise CodecError(
                f"corrupt frame: embedded pickle failed ({exc})"
            ) from exc

    def action_ref(self) -> Action:
        n = self.r.uvarint()
        if n:
            return self._table(self.actions, n)
        nfields = self.r.u8()
        if not 2 <= nfields <= 8:
            raise CodecError(
                f"corrupt frame: action arity {nfields} outside 2..8"
            )
        fields = tuple(self.value() for _ in range(nfields))
        act = _codec._act(*fields)  # per-process interning, as v1
        self.actions.append(act)
        return act

    def ts_ref(self) -> Fraction:
        n = self.r.uvarint()
        if n:
            return self._table(self.timestamps, n)
        num = _unzigzag(self.r.uvarint())
        den = self.r.uvarint()
        if den == 0:
            raise CodecError("corrupt frame: zero timestamp denominator")
        ts = _intern_ts(num, den)
        self.timestamps.append(ts)
        return ts

    def op_ref(self) -> Op:
        n = self.r.uvarint()
        if n:
            return self._table(self.ops, n)
        act = self.action_ref()
        ts = self.ts_ref()
        op = Op(act, ts)
        self.ops.append(op)
        return op

    def view_ref(self) -> FMap:
        n = self.r.uvarint()
        if n:
            return self._table(self.views, n)
        count = self.r.count()
        view = FMap(
            {self.str_ref(): self.op_ref() for _ in range(count)}
        )
        self.views.append(view)
        return view

    def state_ref(self) -> ComponentState:
        n = self.r.uvarint()
        if n:
            return self._table(self.states, n)
        tag = self.r.u8()
        if tag == 0:
            cls = ComponentState
        elif tag == 1:
            cls = self._pickle_blob()
            if not (isinstance(cls, type) and issubclass(cls, ComponentState)):
                raise CodecError(
                    f"corrupt frame: {cls!r} is not a ComponentState class"
                )
        else:
            raise CodecError(f"corrupt frame: unknown state tag {tag}")
        ops = frozenset(self.op_ref() for _ in range(self.r.count()))
        tview = FMap(
            {
                (self.str_ref(), self.str_ref()): self.op_ref()
                for _ in range(self.r.count())
            }
        )
        mview = FMap(
            {self.op_ref(): self.view_ref() for _ in range(self.r.count())}
        )
        cvd = frozenset(self.op_ref() for _ in range(self.r.count()))
        state = cls(ops=ops, tview=tview, mview=mview, cvd=cvd)
        self.states.append(state)
        return state

    def locals_ref(self) -> FMap:
        n = self.r.uvarint()
        if n:
            return self._table(self.locals_maps, n)
        count = self.r.count()
        ls = FMap({self.str_ref(): self.value() for _ in range(count)})
        self.locals_maps.append(ls)
        return ls

    def ast_ref(self):
        n = self.r.uvarint()
        if n == 0:
            return None
        if n >= 2:
            return self._table(self.nodes, n - 1)
        tag = self.r.u8()
        if tag == _NODE_PICKLE:
            node = self._pickle_blob()
        elif tag == 1:
            node = _ast.LocalAssign(self.str_ref(), self.ast_ref())
        elif tag == 2:
            node = _ast.Write(
                self.str_ref(), self.ast_ref(), self.r.u8() != 0
            )
        elif tag == 3:
            node = _ast.Read(
                self.str_ref(), self.str_ref(), self.r.u8() != 0
            )
        elif tag == 4:
            node = _ast.Cas(
                self.str_ref(), self.str_ref(), self.ast_ref(),
                self.ast_ref(),
            )
        elif tag == 5:
            node = _ast.Fai(self.str_ref(), self.str_ref())
        elif tag == 6:
            node = _ast.MethodCall(
                self.str_ref(), self.str_ref(), self.ast_ref(),
                self.value(),
            )
        elif tag == 7:
            node = _ast.Seq(self.ast_ref(), self.ast_ref())
        elif tag == 8:
            node = _ast.If(
                self.ast_ref(), self.ast_ref(), self.ast_ref()
            )
        elif tag == 9:
            node = _ast.While(self.ast_ref(), self.ast_ref())
        elif tag == 10:
            body = self.ast_ref()
            regs = frozenset(
                self.str_ref() for _ in range(self.r.count())
            )
            node = _ast.LibBlock(body, regs)
        elif tag == 11:
            node = _ast.Labeled(self.value(), self.ast_ref())
        elif tag == 12:
            node = Lit(self.value())
        elif tag == 13:
            node = Reg(self.str_ref())
        elif tag == 14:
            node = UnOp(self.str_ref(), self.ast_ref())
        elif tag == 15:
            node = BinOp(
                self.str_ref(), self.ast_ref(), self.ast_ref()
            )
        else:
            raise CodecError(f"corrupt frame: unknown AST tag {tag}")
        node = _intern_node(node)
        self.nodes.append(node)
        return node

    def config(self) -> Config:
        cmds = FMap(
            {self.str_ref(): self.ast_ref() for _ in range(self.r.count())}
        )
        locals_ = FMap(
            {
                self.str_ref(): self.locals_ref()
                for _ in range(self.r.count())
            }
        )
        gamma = self.state_ref()
        beta = self.state_ref()
        return Config(cmds=cmds, locals=locals_, gamma=gamma, beta=beta)

    def entry(self) -> tuple:
        digest = self.r.take(self.r.uvarint())
        cfg = self.config()
        extras = []
        for _ in range(self.r.u8()):
            kind = self.r.u8()
            if kind == 1:
                extras.append(
                    (
                        self.r.take(self.r.uvarint()),
                        self.str_ref(),
                        self.str_ref(),
                        self.action_ref(),
                    )
                )
            elif kind == 0:
                extras.append(self._pickle_blob())
            else:
                raise CodecError(
                    f"corrupt frame: unknown extra tag {kind}"
                )
        if extras:
            return (digest, cfg, *extras)
        return (digest, cfg)


def decode_batch(buf) -> list:
    """Decode a batch from either wire format, dispatching on the first
    byte: ``0xF1`` flat v2, ``0x80`` a v1 pickle blob.  All failures
    raise :class:`CodecError`."""
    t0 = time.perf_counter_ns()
    if len(buf) == 0:
        raise CodecError("empty frame")
    first = buf[0]
    if first == MAGIC:
        r = _Reader(buf)
        r.pos = 1
        version = r.u8()
        if version != VERSION:
            raise CodecError(
                f"unsupported flat wire-format version {version} "
                f"(this build speaks {VERSION})"
            )
        r.u8()  # flags (reserved)
        try:
            dec = _Decoder(r)
            batch = [dec.entry() for _ in range(r.count())]
        except CodecError:
            raise
        except Exception as exc:  # never a bare IndexError/ValueError/…
            raise CodecError(f"corrupt flat frame: {exc}") from exc
        _note_decode(time.perf_counter_ns() - t0)
        return batch
    if first == 0x80:  # a pickle protocol-2+ PROTO opcode: v1 fallback
        try:
            batch = pickle.loads(buf)
        except Exception as exc:
            raise CodecError(f"corrupt pickle frame: {exc}") from exc
        _note_decode(time.perf_counter_ns() - t0)
        return batch
    raise CodecError(
        f"bad frame magic 0x{first:02x} (expected 0x{MAGIC:02x} flat "
        "or 0x80 pickle)"
    )


# -- codec registry ----------------------------------------------------------


class BatchCodec(NamedTuple):
    """One batch wire format: bytes-producing and buffer-direct encode,
    plus the (shared, magic-dispatching) decode."""

    name: str
    encode_bytes: Callable[[list], bytes]
    encode_into: Callable[[list, memoryview], int]
    decode: Callable[[object], list]


def _pickle_encode_bytes(batch) -> bytes:
    t0 = time.perf_counter_ns()
    blob = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
    _note_encode(time.perf_counter_ns() - t0, 0)
    return blob


def _pickle_encode_into(batch, buf: memoryview) -> int:
    t0 = time.perf_counter_ns()
    n = _codec.encode_batch_into(batch, buf)
    _note_encode(time.perf_counter_ns() - t0, 0)
    return n


_CODECS = {
    "flat": BatchCodec("flat", encode_batch, encode_batch_into, decode_batch),
    "pickle": BatchCodec(
        "pickle", _pickle_encode_bytes, _pickle_encode_into, decode_batch
    ),
}


def get_codec(name: str) -> BatchCodec:
    """The registered :class:`BatchCodec` for ``name`` (one of
    :data:`CODECS`)."""
    try:
        return _CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown batch codec {name!r}; "
            f"expected one of {', '.join(CODECS)}"
        ) from None
