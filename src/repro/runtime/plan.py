"""Compiled, batched execution of stream programs.

The scalar :class:`~repro.runtime.interpreter.Interpreter` walks its
schedule one firing at a time through per-firing dict lookups and
Python-list channels.  An :class:`ExecutionPlan` compiles the same
:class:`~repro.scheduling.steady.ProgramSchedule` into a preresolved firing
program executed over :class:`~repro.runtime.array_channel.ArrayChannel`
tapes:

* **executor arrays** — each schedule phase becomes a direct ``fire(n)``
  callable (no per-firing dict lookups, no messaging checks on the fast
  path);
* **run-length batching** — consecutive firings of one node execute as a
  single ``work_batch(n)`` call when the filter provides one, as a
  *generically lifted* vector kernel when
  :mod:`~repro.runtime.vectorize` proves the filter stateless, and as a
  hoisted-I/O ``work()`` loop otherwise;
* **splitter/joiner vectorization** — distribution cycles become
  reshape/interleave block copies instead of item loops;
* **operator fusion** — maximal chains of adjacent single-input/
  single-output fire-nodes execute back to back through private
  :class:`_FusionTape` scratch channels that *adopt* each stage's output
  array (zero-copy handoff, no slide-to-front compaction, no per-stage
  ArrayChannel traffic on the real graph edges);
* **period superbatching** — when the steady schedule is a pure topological
  pass (each node fires once, producers strictly before consumers — i.e. no
  feedback), ``P`` requested periods are folded into one pass with every
  firing count scaled by ``P`` (chunked so buffers stay bounded);
* **segmented superbatching** — when feedback *does* interleave the
  schedule, the feedforward prefix (nodes that fire once per period and
  consume only from earlier prefix nodes) and suffix (nodes that fire once
  and feed only later suffix nodes) still superbatch at full chunk scale;
  only the cyclic core iterates period-at-a-time.  Data always flows
  forward, so running the prefix ``P`` periods ahead merely buffers more,
  and the suffix drains exactly what the core produced;
* **batched teleport messaging** — portal-bound programs run
  period-at-a-time with sender firings interleaved with delivery checks and
  receiver batches split exactly at the SDEP-derived delivery points
  (:meth:`~repro.runtime.messaging.PendingMessage.firings_until_due`), so
  message timing is identical to the scalar engine's per-firing semantics;
* **plan caching** — the schedule/fusion/superbatch analysis is memoized on
  a structural graph signature, so repeated ``Interpreter`` constructions
  over the same program shape (the bench harness, parameter sweeps) skip
  recompilation.

The engine's output contract: identical items, in identical order, to the
scalar interpreter — bit-for-bit wherever the batched kernels preserve each
firing's floating-point operation order (all data movement, the
loop-sequential app filters, the generic lifter, and the FFT filters do;
``LinearFilter``'s GEMM may differ from ``n`` GEMVs in the last ulp).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StreamItError
from repro.graph.flatgraph import FILTER, JOINER, SPLITTER, FlatGraph, FlatNode
from repro.graph.splitjoin import COMBINE, DUPLICATE, NULL
from repro.runtime.array_channel import ArrayChannel
from repro.runtime.channel import ChannelUnderflow
from repro.runtime.messaging import Portal
from repro.runtime.vectorize import BatchExecutor

#: Per-edge item cap for one superbatched chunk (512 KiB of float64).
_CHUNK_ITEM_CAP = 1 << 16


# -- node executors ----------------------------------------------------------
#
# Module-level factories so both an ExecutionPlan and the parallel runtime's
# workers (which execute plan subgraphs over mixed ArrayChannel/RingChannel
# maps) compile the same batched ``fire(n)`` callables.


def make_filter_executor(
    node: FlatNode, allow_trusted: bool = True
) -> Tuple[Callable[[int], None], bool]:
    filt = node.filter
    if type(filt).supports_work_batch:
        return filt.work_batch, True
    # Teleport receivers mutate configuration attributes at delivery
    # points, so a build-time static proof cannot speak for every batch:
    # they must earn lifting through the empirical trial instead.
    return BatchExecutor(filt, allow_trusted=allow_trusted), True


def make_splitter_executor(
    node: FlatNode, channels: Dict[object, object]
) -> Tuple[Callable[[int], None], bool]:
    if node.flavor == NULL:
        return (lambda n: None), True
    in_chan = channels[node.in_edges[0]]
    outs = [channels[e] for e in node.out_edges]
    if node.flavor == DUPLICATE:

        def fire_duplicate(n: int) -> None:
            block = in_chan.pop_block(n)
            for chan in outs:
                chan.push_block(block)

        return fire_duplicate, True

    weights = [node.out_rates[e.src_port] for e in node.out_edges]
    total = node.in_rates[0]

    def fire_roundrobin(n: int) -> None:
        cycles = in_chan.pop_block(n * total).reshape(n, total)
        offset = 0
        for chan, w in zip(outs, weights):
            if w:
                chan.push_block(cycles[:, offset : offset + w])
            offset += w

    return fire_roundrobin, True


def make_joiner_executor(
    node: FlatNode, channels: Dict[object, object]
) -> Tuple[Callable[[int], None], bool]:
    if node.flavor == NULL:
        return (lambda n: None), True
    out_chan = channels[node.out_edges[0]]
    ins = [channels[e] for e in node.in_edges]
    if node.flavor == COMBINE:
        reducer = getattr(getattr(node.obj, "joiner", None), "reducer", None)
        if reducer is None:
            # The default reducer keeps the first branch's item.
            def fire_combine(n: int) -> None:
                first = ins[0].pop_block(n)
                for chan in ins[1:]:
                    chan.drop(n)
                out_chan.push_block(first)

            return fire_combine, True

        def fire_combine_reduce(n: int) -> None:
            for _ in range(n):
                out_chan.push(reducer([chan.pop() for chan in ins]))

        return fire_combine_reduce, False

    weights = [node.in_rates[e.dst_port] for e in node.in_edges]
    total = node.out_rates[0]

    def fire_roundrobin(n: int) -> None:
        cycles = np.empty((n, total))
        offset = 0
        for chan, w in zip(ins, weights):
            if w:
                cycles[:, offset : offset + w] = chan.pop_block(n * w).reshape(n, w)
            offset += w
        out_chan.push_block(cycles)

    return fire_roundrobin, True


def make_node_executor(
    node: FlatNode,
    channels: Dict[object, object],
    allow_trusted: bool = True,
) -> Tuple[Callable[[int], None], bool]:
    """Batched ``(fire, batched)`` executor for any node kind."""
    if node.kind == FILTER:
        return make_filter_executor(node, allow_trusted)
    if node.kind == SPLITTER:
        return make_splitter_executor(node, channels)
    if node.kind == JOINER:
        return make_joiner_executor(node, channels)
    raise StreamItError(f"unknown node kind {node.kind!r}")


def single_topological_sweep(graph: FlatGraph, schedule) -> bool:
    """True when the schedule is one topological pass over the graph.

    Each node's firings must be contiguous (a single run in the phase
    sequence) and every edge's producer run must precede its consumer run.
    This is the legality condition for both period superbatching and for
    batched teleport messaging (a sender's phase then strictly separates
    the receiver firings before and after it, so delivery points can be
    computed per phase instead of per firing).
    """
    position: Dict[FlatNode, int] = {}
    last: Optional[FlatNode] = None
    for node, _count in schedule:
        if node is last:
            continue
        if node in position:
            return False
        position[node] = len(position)
        last = node
    for edge in graph.edges:
        if edge.src not in position or edge.dst not in position:
            return False
        if position[edge.src] >= position[edge.dst]:
            return False
    return True


# -- plan cache -------------------------------------------------------------

#: signature -> analysis dict; see :func:`_analyze`.
_PLAN_CACHE: "OrderedDict[tuple, dict]" = OrderedDict()
_PLAN_CACHE_MAX = 128

#: Cumulative cache statistics (for tests and diagnostics); increments
#: mirror into the always-on metrics registry as repro_plan_cache_total.
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.metrics import MeteredStats as _MeteredStats

plan_cache_stats = _MeteredStats(
    _METRICS.counter(
        "repro_plan_cache_total", "Plan-analysis cache events (hit/miss/eviction)"
    ),
    lambda key: {"event": key},
    {"hits": 0, "misses": 0, "evictions": 0},
)


def clear_plan_cache() -> None:
    _PLAN_CACHE.clear()
    plan_cache_stats["hits"] = 0
    plan_cache_stats["misses"] = 0
    plan_cache_stats["evictions"] = 0


def plan_cache_summary() -> Dict[str, int]:
    """Counters plus current size/bound of the in-memory analysis cache."""
    summary: Dict[str, int] = dict(plan_cache_stats)
    summary["size"] = len(_PLAN_CACHE)
    summary["max"] = _PLAN_CACHE_MAX
    return summary


def _plan_signature(graph: FlatGraph, program, senders, receivers) -> tuple:
    """Structural fingerprint of (graph, schedule, messaging endpoints).

    Two programs with the same signature have identical plan *shape* —
    phases, fusion chains, superbatch legality — even though they are built
    from distinct filter instances, so the analysis is reusable.
    """
    index = {node: i for i, node in enumerate(graph.nodes)}
    nodes = tuple(
        (
            n.kind,
            n.flavor,
            type(n.obj).__qualname__ if n.obj is not None else None,
            n.in_rates,
            n.out_rates,
            n.peek_extra,
        )
        for n in graph.nodes
    )
    edges = tuple(
        (index[e.src], e.src_port, index[e.dst], e.dst_port, len(e.initial))
        for e in graph.edges
    )
    init = tuple((index[n], c) for n, c in program.init)
    steady = tuple((index[n], c) for n, c in program.steady)
    msg = (
        tuple(sorted(index[n] for n in senders)),
        tuple(sorted(index[n] for n in receivers)),
    )
    return (nodes, edges, init, steady, msg)


# -- fusion scratch tapes ----------------------------------------------------


class _FusionTape(ArrayChannel):
    """Private channel between fused stages: adopts pushed arrays zero-copy.

    A fused chain is balanced and starts empty, so every stage's entire
    output is consumed by the next stage within the same composite firing —
    the pushed block can simply *become* the buffer instead of being copied
    into one.
    """

    __slots__ = ()

    def push_block(self, block: np.ndarray) -> None:
        if self._head == self._tail:
            self.adopt_block(block)
        else:
            ArrayChannel.push_block(self, block)


@dataclass
class CompiledPhase:
    """One entry of the preresolved firing program: fire ``node`` ``count``
    times per period via ``fire(count)``."""

    node: FlatNode
    count: int
    fire: Callable[[int], None]
    batched: bool

    def run(self, scale: int) -> None:
        self.fire(self.count * scale)

    @property
    def accounting(self) -> Tuple[Tuple[FlatNode, int], ...]:
        return ((self.node, self.count),)


class FusedPhase:
    """A maximal chain of adjacent SISO fire-nodes run as one composite.

    ``run(scale)`` rebinds each stage filter's channels so intermediate
    results flow through :class:`_FusionTape` scratch tapes instead of the
    real graph edges (whose history counters are bumped afterwards so
    introspection still sees every item)."""

    __slots__ = ("stages", "_tapes", "_bumps")

    def __init__(self, stages: Sequence[CompiledPhase], channels) -> None:
        self.stages: Tuple[CompiledPhase, ...] = tuple(stages)
        self._tapes = [
            _FusionTape(name=f"fused:{st.node.name}") for st in self.stages[:-1]
        ]
        # Real channels bypassed by the chain: (channel, items per period).
        self._bumps = [
            (channels[st.node.out_edges[0]], st.count * st.node.out_edges[0].push_rate)
            for st in self.stages[:-1]
        ]

    @property
    def node(self) -> FlatNode:
        return self.stages[0].node

    @property
    def count(self) -> int:
        return self.stages[0].count

    @property
    def accounting(self) -> Tuple[Tuple[FlatNode, int], ...]:
        return tuple((st.node, st.count) for st in self.stages)

    def run(self, scale: int) -> None:
        stages = self.stages
        tapes = self._tapes
        last = len(stages) - 1
        for i, st in enumerate(stages):
            filt = st.node.filter
            old_in, old_out = filt.input, filt.output
            if i:
                filt.input = tapes[i - 1]
            if i < last:
                filt.output = tapes[i]
            try:
                st.fire(st.count * scale)
            finally:
                filt.input = old_in
                filt.output = old_out
        for chan, per_period in self._bumps:
            items = per_period * scale
            chan.pushed_count += items
            chan.popped_count += items


class _LTape:
    """Plain-list FIFO used inside a :class:`CoreLoopRunner` chunk.

    ``items``/``cursor`` instead of head-sliced lists: a pop is one index
    increment, a push one ``list.append`` — the cheapest per-item operations
    CPython offers.  Values stay Python floats, so arithmetic matches the
    scalar engine bit-for-bit.
    """

    __slots__ = ("name", "items", "cursor")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.items: List[float] = []
        self.cursor = 0

    def pop(self) -> float:
        c = self.cursor
        if c >= len(self.items):
            raise ChannelUnderflow(f"pop on empty core tape {self.name!r}")
        self.cursor = c + 1
        return self.items[c]

    def peek(self, index: int) -> float:
        j = self.cursor + index
        if index < 0 or j >= len(self.items):
            raise ChannelUnderflow(f"peek({index}) beyond core tape {self.name!r}")
        return self.items[j]

    def push(self, item: float) -> None:
        self.items.append(item)

    def compact(self) -> None:
        if self.cursor:
            del self.items[: self.cursor]
            self.cursor = 0


class CoreLoopRunner:
    """Executes a cyclic schedule core over hoisted Python-list tapes.

    The cyclic core of a feedback-interleaved schedule fires each node ~once
    per period, where block-kernel setup costs more than it saves.  Instead
    of per-firing ArrayChannel traffic, one ``run(scale)`` call moves all
    channel I/O to plain lists for the whole chunk:

    * edges internal to the core become persistent :class:`_LTape` scratch
      tapes (seeded once by detaching the post-init channel contents);
    * external inputs are snapshot to a list per chunk, and exactly the
      consumed prefix is dropped from the real channel afterwards;
    * external outputs accumulate in a list and land as one ``push_block``;
    * the flattened per-period op sequence — bound ``work`` methods and
      closure splitters/joiners — runs ``scale`` times in a tight loop.

    Firing order inside a period is exactly the steady schedule's, and every
    item round-trips through Python floats, so results are bit-identical to
    the scalar engine.  History counters of bypassed internal edges are
    bumped in bulk (the :class:`FusedPhase` convention).
    """

    def __init__(self, phases: Sequence[Tuple[FlatNode, int]], channels) -> None:
        self.phases: Tuple[Tuple[FlatNode, int], ...] = tuple(phases)
        self.channels = channels
        self.nodes = {node for node, _ in self.phases}
        self._ops: Optional[Tuple[Callable[[], None], ...]] = None

    # -- compilation (lazy: runs after init, when channels hold real state) --

    def _tape_for(self, edge) -> _LTape:
        tape = self._tapes.get(edge)
        if tape is None:
            tape = _LTape(f"core:{edge.src.name}->{edge.dst.name}")
            self._tapes[edge] = tape
        return tape

    def _build(self) -> None:
        self._tapes: Dict[object, _LTape] = {}
        internal, ext_in, ext_out = [], [], []
        counts: Dict[FlatNode, int] = {}
        for node, count in self.phases:
            counts[node] = counts.get(node, 0) + count
        seen = set()
        for node in self.nodes:
            for edge in list(node.in_edges) + list(node.out_edges):
                if edge in seen:
                    continue
                seen.add(edge)
                inside_src = edge.src in self.nodes
                inside_dst = edge.dst in self.nodes
                if inside_src and inside_dst:
                    internal.append(edge)
                elif inside_dst:
                    ext_in.append(edge)
                elif inside_src:
                    ext_out.append(edge)
        # Internal tapes inherit the live post-init channel contents
        # (feedback delay items); the channels stay empty from here on,
        # with their history counters bumped in bulk per chunk.
        for edge in internal:
            tape = self._tape_for(edge)
            tape.items = self.channels[edge].detach_all()
        self._ext_in = [(self.channels[e], self._tape_for(e)) for e in ext_in]
        self._ext_out = [(self.channels[e], self._tape_for(e)) for e in ext_out]
        self._internal = [self._tapes[e] for e in internal]
        self._bumps = [
            (self.channels[e], counts[e.src] * e.push_rate) for e in internal
        ]
        bind, restore = [], []
        for node in self.nodes:
            if node.kind != FILTER:
                continue
            filt = node.filter
            tin = self._tape_for(node.in_edges[0]) if node.in_edges else None
            tout = self._tape_for(node.out_edges[0]) if node.out_edges else None
            cin = self.channels[node.in_edges[0]] if node.in_edges else None
            cout = self.channels[node.out_edges[0]] if node.out_edges else None
            bind.append((filt, tin, tout))
            restore.append((filt, cin, cout))
        self._bind = bind
        self._restore = restore
        ops: List[Callable[[], None]] = []
        for node, count in self.phases:
            op = self._node_op(node)
            ops.extend([op] * count)
        self._ops = tuple(ops)

    def _node_op(self, node: FlatNode) -> Callable[[], None]:
        if node.kind == FILTER:
            return node.filter.work
        if node.flavor == NULL:
            return lambda: None
        if node.kind == SPLITTER:
            tin = self._tape_for(node.in_edges[0])
            outs = [self._tape_for(e) for e in node.out_edges]
            if node.flavor == DUPLICATE:

                def fire_duplicate() -> None:
                    item = tin.pop()
                    for t in outs:
                        t.items.append(item)

                return fire_duplicate
            weights = [node.out_rates[e.src_port] for e in node.out_edges]
            pairs = [(t, w) for t, w in zip(outs, weights) if w]

            def fire_split() -> None:
                for t, w in pairs:
                    if w == 1:
                        t.items.append(tin.pop())
                    else:
                        for _ in range(w):
                            t.items.append(tin.pop())

            return fire_split
        # Joiner.
        tout = self._tape_for(node.out_edges[0])
        ins = [self._tape_for(e) for e in node.in_edges]
        if node.flavor == COMBINE:
            reducer = getattr(getattr(node.obj, "joiner", None), "reducer", None)
            if reducer is None:
                reducer = lambda items: items[0]

            def fire_combine() -> None:
                tout.items.append(reducer([t.pop() for t in ins]))

            return fire_combine
        weights = [node.in_rates[e.dst_port] for e in node.in_edges]
        pairs = [(t, w) for t, w in zip(ins, weights) if w]

        def fire_join() -> None:
            for t, w in pairs:
                if w == 1:
                    tout.items.append(t.pop())
                else:
                    for _ in range(w):
                        tout.items.append(t.pop())

        return fire_join

    # -- execution -----------------------------------------------------------

    def run(self, scale: int) -> None:
        if self._ops is None:
            self._build()
        for chan, tape in self._ext_in:
            tape.items = chan.peek_block(len(chan)).tolist()
            tape.cursor = 0
        for filt, tin, tout in self._bind:
            filt.input = tin
            filt.output = tout
        try:
            ops = self._ops
            for _ in range(scale):
                for op in ops:
                    op()
        finally:
            for filt, cin, cout in self._restore:
                filt.input = cin
                filt.output = cout
        for chan, tape in self._ext_in:
            if tape.cursor:
                chan.drop(tape.cursor)
        for chan, tape in self._ext_out:
            if tape.items:
                chan.push_block(np.asarray(tape.items, dtype=np.float64))
                tape.items = []
        for tape in self._internal:
            tape.compact()
        for chan, per_period in self._bumps:
            moved = per_period * scale
            chan.pushed_count += moved
            chan.popped_count += moved


class ExecutionPlan:
    """The batched engine's compiled form of one interpreter's schedule."""

    def __init__(self, interp) -> None:
        self.interp = interp
        self.graph = interp.graph
        self.channels = interp.channels
        self.messaging = interp.has_messaging
        self._senders, self._receivers = self._messaging_endpoints(interp)
        self._executors: Dict[FlatNode, Tuple[Callable[[int], None], bool]] = {}

        program = interp.program
        signature = _plan_signature(
            self.graph, program, self._senders, self._receivers
        )
        analysis = _PLAN_CACHE.get(signature)
        if analysis is not None:
            plan_cache_stats["hits"] += 1
            _PLAN_CACHE.move_to_end(signature)
        else:
            plan_cache_stats["misses"] += 1
        #: This plan's cache outcome + the cumulative counters at build time.
        self.cache_stats = {
            "hit": analysis is not None,
            "hits": plan_cache_stats["hits"],
            "misses": plan_cache_stats["misses"],
        }
        tracer = getattr(interp, "tracer", None)
        if tracer is not None and tracer.enabled:
            from repro.obs.tracer import CAT_PLAN

            tracer.instant(
                "plan.cache_hit" if self.cache_stats["hit"] else "plan.cache_miss",
                CAT_PLAN,
                args=dict(self.cache_stats),
            )

        self.init_phases = self._compile(program.init)
        steady = self._compile(program.steady)
        if analysis is None:
            analysis = self._analyze(program, steady)
            _PLAN_CACHE[signature] = analysis
            while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
                _PLAN_CACHE.popitem(last=False)
                plan_cache_stats["evictions"] += 1
        self.single_sweep: bool = analysis["single_sweep"]
        self.superbatch: bool = analysis["superbatch"]
        self.chunk_periods: int = analysis["chunk_periods"]
        self.fusion_ranges: Tuple[Tuple[int, int], ...] = analysis["fusion_ranges"]
        self.steady_phases = self._apply_fusion(steady, self.fusion_ranges)
        self.segments = self._build_segments(
            steady, analysis["segments_idx"], analysis.get("segmented", False)
        )

    # -- messaging endpoints --------------------------------------------------

    @staticmethod
    def _messaging_endpoints(interp):
        senders = set()
        receivers = set()
        for portal in getattr(interp, "_portals", ()):
            for recv in portal.receivers:
                receivers.add(interp.graph.node_for(recv))
        for node in interp.graph.filter_nodes():
            if any(isinstance(v, Portal) for v in vars(node.filter).values()):
                senders.add(node)
        return senders, receivers

    # -- compilation ----------------------------------------------------------

    def _compile(self, schedule) -> List[CompiledPhase]:
        phases: List[CompiledPhase] = []
        for node, count in schedule:
            if phases and phases[-1].node is node:
                prev = phases[-1]
                phases[-1] = CompiledPhase(node, prev.count + count, prev.fire, prev.batched)
                continue
            fire, batched = self._executor(node)
            phases.append(CompiledPhase(node, count, fire, batched))
        return phases

    def _executor(self, node: FlatNode) -> Tuple[Callable[[int], None], bool]:
        if node not in self._executors:
            self._executors[node] = make_node_executor(
                node, self.channels, allow_trusted=node not in self._receivers
            )
        return self._executors[node]

    def vectorization_report(self) -> Dict[str, Dict[str, object]]:
        """Per-filter executor outcome: mode, trust, and downgrade reason.

        Executors resolve lazily, so entries show ``"untried"`` until the
        plan has run at least once.
        """
        report: Dict[str, Dict[str, object]] = {}
        for node, (fire, _batched) in self._executors.items():
            if node.kind != FILTER:
                continue
            if isinstance(fire, BatchExecutor):
                downgrade = fire.downgrade
                report[node.name] = {
                    "kind": fire.kind,
                    "trusted": fire.trusted,
                    "code": downgrade.code if downgrade is not None else None,
                    "reason": downgrade.message if downgrade is not None else None,
                }
            else:
                report[node.name] = {
                    "kind": "work_batch",
                    "trusted": True,
                    "code": None,
                    "reason": None,
                }
        return report

    # -- analysis -------------------------------------------------------------

    def _analyze(self, program, steady: List[CompiledPhase]) -> dict:
        single_sweep = single_topological_sweep(self.graph, program.steady)
        superbatch = single_sweep and not self.messaging
        segmented = False
        if single_sweep:
            segments_idx = ((), ())
            fusion_ranges = self._fusion_ranges(steady, program.init.counts())
        elif not self.messaging:
            segments_idx = self._segment_sets()
            fusion_ranges = ()
            segmented = True
        else:
            segments_idx = ((), ())
            fusion_ranges = ()
        return {
            "single_sweep": single_sweep,
            "superbatch": superbatch,
            "chunk_periods": self._chunk_periods(program)
            if not self.messaging
            else 1,
            "segments_idx": segments_idx,
            "segmented": segmented,
            "fusion_ranges": fusion_ranges,
        }

    def _segment_sets(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Partition nodes of a feedback-interleaved program into segments.

        Returns node-index tuples ``(prefix, suffix)``.  The *prefix* is the
        upstream-closed set of nodes with no ancestor inside a cycle; the
        *suffix* is the downstream-closed set (minus the prefix) with no
        descendant inside a cycle.  Data only flows forward, so hoisting all
        prefix firings of a chunk before the cyclic core — and deferring all
        suffix firings after it — never underflows a channel: consumers only
        ever see *more* items available than in the interleaved order.
        """
        nodes = list(self.graph.nodes)
        prefix: set = set()
        changed = True
        while changed:
            changed = False
            for node in nodes:
                if node not in prefix and all(
                    e.src in prefix for e in node.in_edges
                ):
                    prefix.add(node)
                    changed = True
        suffix: set = set()
        changed = True
        while changed:
            changed = False
            for node in nodes:
                if (
                    node not in prefix
                    and node not in suffix
                    and all(e.dst in suffix for e in node.out_edges)
                ):
                    suffix.add(node)
                    changed = True
        index = {node: i for i, node in enumerate(nodes)}
        return (
            tuple(sorted(index[n] for n in prefix)),
            tuple(sorted(index[n] for n in suffix)),
        )

    def _build_segments(
        self,
        steady: List[CompiledPhase],
        segments_idx: Tuple[Tuple[int, ...], Tuple[int, ...]],
        segmented: bool,
    ) -> Optional[Tuple[List[CompiledPhase], CoreLoopRunner, List[CompiledPhase]]]:
        """Materialize ``(prefix, core, suffix)`` from the cached node-index
        sets: batched phase lists for the feedforward segments (aggregated
        per-period firings, topologically ordered within the segment), and a
        :class:`CoreLoopRunner` for the cyclic core."""
        pre_idx, suf_idx = segments_idx
        if not segmented:
            return None
        nodes = list(self.graph.nodes)
        pre_set = {nodes[i] for i in pre_idx}
        suf_set = {nodes[i] for i in suf_idx}

        def aggregate(members: set) -> List[CompiledPhase]:
            counts: Dict[FlatNode, int] = {}
            for ph in steady:
                if ph.node in members:
                    counts[ph.node] = counts.get(ph.node, 0) + ph.count
            # Kahn topological order over the segment's internal edges.
            indeg = {
                n: sum(1 for e in n.in_edges if e.src in members) for n in counts
            }
            ready = [n for n in nodes if n in counts and indeg[n] == 0]
            ordered: List[FlatNode] = []
            while ready:
                node = ready.pop(0)
                ordered.append(node)
                for e in node.out_edges:
                    if e.dst in indeg:
                        indeg[e.dst] -= 1
                        if indeg[e.dst] == 0:
                            ready.append(e.dst)
            phases = []
            for node in ordered:
                fire, batched = self._executor(node)
                phases.append(CompiledPhase(node, counts[node], fire, batched))
            return phases

        # Core phases fire at n≈1 each period, where block-kernel setup costs
        # more than it saves — run the whole cyclic core over hoisted list
        # tapes instead (one I/O transfer per chunk, not per firing).
        core_phases = [
            (ph.node, ph.count)
            for ph in steady
            if ph.node not in pre_set and ph.node not in suf_set
        ]
        core = CoreLoopRunner(core_phases, self.channels)
        return aggregate(pre_set), core, aggregate(suf_set)

    def _fusion_ranges(
        self, phases: List[CompiledPhase], init_counts: Dict[FlatNode, int]
    ) -> Tuple[Tuple[int, int], ...]:
        """Maximal fusable runs ``(start, end)`` (inclusive) over ``phases``.

        Stage ``u`` links to the next phase ``v`` when the pair forms an
        exclusive producer→consumer couple whose intermediate tape starts
        empty after init and is exactly drained each period — then ``v`` can
        read ``u``'s output straight off a scratch tape.  Splitters, joiners,
        peeking consumers, and messaging endpoints break chains.
        """

        def fusable(ph: CompiledPhase) -> bool:
            node = ph.node
            return (
                node.kind == FILTER
                and node not in self._senders
                and node not in self._receivers
            )

        def links(u: CompiledPhase, v: CompiledPhase) -> bool:
            if not (fusable(u) and fusable(v)):
                return False
            nu, nv = u.node, v.node
            if len(nu.out_edges) != 1 or len(nv.in_edges) != 1:
                return False
            e = nu.out_edges[0]
            if e.dst is not nv or e.push_rate <= 0 or e.pop_rate <= 0:
                return False
            if e.peek_rate != e.pop_rate:
                return False
            if u.count * e.push_rate != v.count * e.pop_rate:
                return False
            occupancy = (
                len(e.initial)
                + init_counts.get(nu, 0) * e.push_rate
                - init_counts.get(nv, 0) * e.pop_rate
            )
            return occupancy == 0

        ranges: List[Tuple[int, int]] = []
        i = 0
        while i < len(phases) - 1:
            j = i
            while j + 1 < len(phases) and links(phases[j], phases[j + 1]):
                j += 1
            if j > i:
                ranges.append((i, j))
            i = j + 1 if j > i else i + 1
        return tuple(ranges)

    def _apply_fusion(
        self, phases: List[CompiledPhase], ranges: Tuple[Tuple[int, int], ...]
    ) -> List[object]:
        if not ranges:
            return list(phases)
        out: List[object] = []
        pos = 0
        for start, end in ranges:
            out.extend(phases[pos:start])
            out.append(FusedPhase(phases[start : end + 1], self.channels))
            pos = end + 1
        out.extend(phases[pos:])
        return out

    @property
    def fused_chains(self) -> List[Tuple[str, ...]]:
        """Stage names of each fused chain (introspection/testing)."""
        return [
            tuple(st.node.name for st in ph.stages)
            for ph in self.steady_phases
            if isinstance(ph, FusedPhase)
        ]

    def _chunk_periods(self, program) -> int:
        """Periods per superbatched pass, bounding per-edge buffer growth.

        A static heuristic (512 KiB of float64 per edge).  Assigning
        ``plan.chunk_periods`` after construction overrides it.
        """
        per_period = 1
        for edge in self.graph.edges:
            per_period = max(per_period, program.reps.get(edge.src, 0) * edge.push_rate)
        return max(1, _CHUNK_ITEM_CAP // per_period)

    # -- execution ------------------------------------------------------------

    def run_init(self, fired: Dict[FlatNode, int]) -> None:
        if self.messaging:
            self._run_phases_msg(self.init_phases)
        else:
            for phase in self.init_phases:
                phase.run(1)
        for phase in self.init_phases:
            for node, count in phase.accounting:
                fired[node] += count

    def run_steady(self, fired: Dict[FlatNode, int], periods: int) -> None:
        if periods <= 0:
            return
        if self.interp.tracer.enabled:
            self._run_steady_traced(fired, periods)
            return
        phases = self.steady_phases
        if self.messaging:
            for _ in range(periods):
                self._run_phases_msg(phases)
        elif self.superbatch:
            left = periods
            while left > 0:
                scale = min(left, self.chunk_periods)
                for phase in phases:
                    phase.run(scale)
                left -= scale
        elif self.segments is not None:
            prefix, core, suffix = self.segments
            left = periods
            while left > 0:
                scale = min(left, self.chunk_periods)
                for phase in prefix:
                    phase.run(scale)
                core.run(scale)
                for phase in suffix:
                    phase.run(scale)
                left -= scale
        else:
            for _ in range(periods):
                for phase in phases:
                    phase.run(1)
        for phase in phases:
            for node, count in phase.accounting:
                fired[node] += count * periods

    # -- traced execution ------------------------------------------------------
    #
    # A physically separate code path: the untraced branches above stay free
    # of any per-phase clock reads or attribute loads.  One span is emitted
    # per ``phase.run(scale)`` — i.e. per batched kernel execution, fused
    # chain, or cyclic-core chunk — which is both the engine's unit of work
    # and the granularity a profile attributes time at.

    def _trace_phase(self, phase: object, scale: int) -> None:
        from time import perf_counter

        from repro.obs.tracer import CAT_FUSED, CAT_KERNEL

        t0 = perf_counter()
        phase.run(scale)
        dur = perf_counter() - t0
        if isinstance(phase, FusedPhase):
            name = "+".join(st.node.name for st in phase.stages)
            cat = CAT_FUSED
            firings = sum(st.count for st in phase.stages) * scale
            last = phase.stages[-1].node
            push = last.out_edges[0].push_rate if last.out_edges else 0
            items = phase.stages[-1].count * scale * push
        else:
            node = phase.node
            name = node.name
            cat = CAT_KERNEL
            firings = phase.count * scale
            push = node.out_edges[0].push_rate if node.out_edges else 0
            items = firings * push
        self.interp.tracer.complete(
            name, cat, t0, dur, args={"firings": firings, "items": items}
        )

    def _trace_core(self, core: CoreLoopRunner, scale: int) -> None:
        from time import perf_counter

        from repro.obs.tracer import CAT_CORE

        t0 = perf_counter()
        core.run(scale)
        dur = perf_counter() - t0
        firings = sum(count for _node, count in core.phases) * scale
        self.interp.tracer.complete(
            "core:" + "+".join(sorted(n.name for n in core.nodes)),
            CAT_CORE,
            t0,
            dur,
            args={"firings": firings, "items": 0},
        )

    def _run_steady_traced(self, fired: Dict[FlatNode, int], periods: int) -> None:
        phases = self.steady_phases
        if self.messaging:
            for _ in range(periods):
                self._run_phases_msg(phases)
        elif self.superbatch:
            left = periods
            while left > 0:
                scale = min(left, self.chunk_periods)
                for phase in phases:
                    self._trace_phase(phase, scale)
                left -= scale
        elif self.segments is not None:
            prefix, core, suffix = self.segments
            left = periods
            while left > 0:
                scale = min(left, self.chunk_periods)
                for phase in prefix:
                    self._trace_phase(phase, scale)
                self._trace_core(core, scale)
                for phase in suffix:
                    self._trace_phase(phase, scale)
                left -= scale
        else:
            for _ in range(periods):
                for phase in phases:
                    self._trace_phase(phase, 1)
        for phase in phases:
            for node, count in phase.accounting:
                fired[node] += count * periods

    # -- batched teleport messaging -------------------------------------------

    def _run_phases_msg(self, phases: Sequence[object]) -> None:
        if self.interp.tracer.enabled:
            self._run_phases_msg_traced(phases)
            return
        self._run_phases_msg_plain(phases)

    def _run_phases_msg_traced(self, phases: Sequence[object]) -> None:
        """Messaging pass with one span per phase (see ``_run_phases_msg``)."""
        from time import perf_counter

        from repro.obs.tracer import CAT_FUSED, CAT_KERNEL

        interp = self.interp
        tracer = interp.tracer
        for phase in phases:
            t0 = perf_counter()
            if isinstance(phase, FusedPhase):
                phase.run(1)
                tracer.complete(
                    "+".join(st.node.name for st in phase.stages),
                    CAT_FUSED,
                    t0,
                    perf_counter() - t0,
                    args={"firings": sum(st.count for st in phase.stages), "items": 0},
                )
                continue
            node = phase.node
            if node in self._senders:
                interp._current_node = node
                work = node.filter.work
                for _ in range(phase.count):
                    interp._deliver_before(node)
                    work()
                    interp._deliver_after(node)
                interp._current_node = None
            elif interp._pending.get(node):
                self._fire_receiver(phase)
            else:
                phase.run(1)
            push = node.out_edges[0].push_rate if node.out_edges else 0
            tracer.complete(
                node.name,
                CAT_KERNEL,
                t0,
                perf_counter() - t0,
                args={"firings": phase.count, "items": phase.count * push},
            )

    def _run_phases_msg_plain(self, phases: Sequence[object]) -> None:
        """One pass with messaging semantics intact.

        Senders fire one ``work()`` at a time on the real channels (their
        output counters drive wavefront thresholds *during* the firing);
        receivers with pending messages fire in sub-batches that stop
        exactly at each message's delivery point; every other node takes the
        plain batched path — it can neither send nor receive, so no delivery
        checks apply.
        """
        interp = self.interp
        for phase in phases:
            if isinstance(phase, FusedPhase):
                phase.run(1)
                continue
            node = phase.node
            if node in self._senders:
                interp._current_node = node
                work = node.filter.work
                for _ in range(phase.count):
                    interp._deliver_before(node)
                    work()
                    interp._deliver_after(node)
                interp._current_node = None
            elif interp._pending.get(node):
                self._fire_receiver(phase)
            else:
                phase.run(1)

    def _fire_receiver(self, phase: CompiledPhase) -> None:
        interp = self.interp
        node = phase.node
        out_edge = node.out_edges[0] if node.out_edges else None
        chan = self.channels[out_edge] if out_edge is not None else None
        push_b = out_edge.push_rate if out_edge is not None else 0
        left = phase.count
        while left > 0:
            interp._deliver_before(node)
            queue = interp._pending.get(node)
            if not queue:
                # Queue drained; no new messages can arrive while this
                # (non-sender) node is firing.
                phase.fire(left)
                return
            produced = chan.pushed_count if chan is not None else 0
            step = min(msg.firings_until_due(produced, push_b) for msg in queue)
            step = max(1, min(step, left))
            phase.fire(step)
            interp._deliver_after(node)
            left -= step


def compile_and_run(
    stream,
    periods: int = 1,
    engine: str = "batched",
    check: bool = True,
    strict: bool = False,
):
    """Build an interpreter with the given engine, run it, return it.

    The one-call entry used by the benchmarks and examples::

        interp = compile_and_run(app, periods=1000)
        print(sink.collected[:8])
    """
    from repro.runtime.interpreter import Interpreter

    interp = Interpreter(stream, check=check, engine=engine, strict=strict)
    interp.run(periods)
    return interp
