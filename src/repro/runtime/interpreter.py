"""Schedule-driven execution of flattened stream graphs.

The :class:`Interpreter` allocates a :class:`~repro.runtime.channel.Channel`
per flat edge, binds filter input/output channels, and executes the computed
initialization schedule followed by steady-state periods.  Splitter and
joiner nodes are executed natively (one firing = one distribution cycle).

Teleport messaging integrates here: portals reachable from filter attributes
are bound automatically, message thresholds are computed with the wavefront
oracle at send time, and deliveries happen exactly at the firing boundaries
the semantics prescribe.

Two execution engines share this front end (see DESIGN.md, "Execution
engines"):

* ``engine="scalar"`` — the reference path: Python-list channels, one
  ``work()`` call per firing, messaging checks interleaved.
* ``engine="batched"`` — an :class:`~repro.runtime.plan.ExecutionPlan`
  compiled from the same schedule, running block kernels over
  :class:`~repro.runtime.array_channel.ArrayChannel` tapes.  Portal-bound
  programs run batched too (period-at-a-time, with receiver batches split
  at the SDEP-derived delivery points); the only remaining fallback to the
  scalar path is a portal inside a feedback-interleaved schedule, which is
  reported via :class:`~repro.errors.EngineDowngradeWarning` (or raises
  with ``strict=True``).  Check :attr:`Interpreter.engine_used` to see
  which engine actually ran.
* ``engine="parallel"`` — a :class:`~repro.runtime.parallel.ParallelSession`
  runs the batched executors across forked worker processes, one per core
  a mapping strategy assigns work to, with shared-memory ring buffers on
  cross-worker edges.  Graphs the parallel engine cannot run safely
  (teleport portals, dynamic-rate filters, degenerate partitions)
  downgrade to ``engine="batched"`` with an ``SL304`` diagnostic.
* ``engine="codegen"`` — a :class:`~repro.runtime.codegen.CodegenPlan`
  generates one fused source module per plan (kernels spliced inline,
  fused chains unrolled, the feedback core an inlined closed loop) and
  executes ``run_chunk(scale)`` directly — no per-block dispatch loop.
  Unliftable blocks fall back to their batched executors and teleport
  messaging disables codegen for the whole plan, both reported with an
  ``SL305`` diagnostic.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EngineDowngradeWarning, MessagingError, StreamItError
from repro.graph.base import Filter, Stream
from repro.graph.flatgraph import FILTER, JOINER, SPLITTER, FlatGraph, FlatNode
from repro.graph.splitjoin import COMBINE, DUPLICATE, NULL, ROUND_ROBIN
from repro.graph.validation import validate
from repro.obs.metrics import METRICS
from repro.obs.recorder import FLIGHT
from repro.runtime.array_channel import ArrayChannel
from repro.runtime.channel import Channel
from repro.runtime.messaging import PendingMessage, Portal
from repro.runtime.plan import ExecutionPlan, single_topological_sweep
from repro.scheduling.sdep import WavefrontOracle
from repro.scheduling.steady import ProgramSchedule, build_schedule

#: Valid values for ``Interpreter(engine=...)``.
ENGINES = ("scalar", "batched", "parallel", "codegen")

# Always-on telemetry (repro.obs.metrics): families resolved once at import
# so the per-run cost is a handful of dict adds.  Everything here records at
# *run* granularity — never per period, firing, or item.
_M_SESSIONS = METRICS.counter(
    "repro_sessions_total", "Interpreter sessions by the engine that actually ran"
)
_M_RUNS = METRICS.counter("repro_runs_total", "run_steady() calls by engine")
_M_PERIODS = METRICS.counter(
    "repro_periods_total", "Steady-state periods executed by engine"
)
_M_ITEMS = METRICS.counter(
    "repro_items_total", "Items moved across graph edges (rate-derived) by engine"
)
_M_RUN_SECONDS = METRICS.histogram(
    "repro_run_seconds", "Wall-clock latency of one run_steady() call"
)
_M_RUN_ITEMS = METRICS.histogram(
    "repro_run_items", "Rate-derived item volume of one run_steady() call"
)
_M_RUN_ERRORS = METRICS.counter(
    "repro_run_errors_total", "run_steady() calls that raised, by engine"
)
_M_DOWNGRADES = METRICS.counter(
    "repro_engine_downgrades_total", "Structured engine downgrades by SLxxx code"
)


class Interpreter:
    """Executes a stream program.

    Args:
        stream: the top-level (closed) stream to run.
        check: run full semantic validation before executing.
        engine: ``"scalar"`` (reference, one ``work()`` per firing),
            ``"batched"`` (compiled plan over array channels; teleport
            portals run batched period-at-a-time), ``"parallel"``
            (batched executors across forked worker processes; see
            :mod:`repro.runtime.parallel`), or ``"codegen"`` (one fused
            generated module per plan; see :mod:`repro.runtime.codegen`).
        strict: with ``engine="batched"`` or ``engine="parallel"``, raise
            :class:`StreamItError` instead of emitting
            :class:`EngineDowngradeWarning` when the request cannot be
            honoured in full (engine fallback or loss of superbatching).
        strategy: with ``engine="parallel"``, the mapping strategy whose
            partition decides worker placement (a key of
            :data:`repro.mapping.strategies.STRATEGIES`).
        cores: with ``engine="parallel"``, how many cores the strategy maps
            to.  Defaults to the machine's CPU count; on a single-CPU host
            the default honestly degrades to the batched engine with an
            ``SL304`` diagnostic instead of forking workers that would
            serialize on one core (pass ``cores=`` explicitly to force it).
        trace: observability (:mod:`repro.obs`).  ``None`` (default) keeps
            the zero-cost null tracer; ``True`` records into a fresh
            :class:`~repro.obs.MemoryTracer` (inspect ``interp.tracer``);
            a string/path writes a Chrome trace-event file there on
            :meth:`close`; any :class:`~repro.obs.Tracer` is used as-is.

    Typical use::

        interp = Interpreter(app)
        interp.run(periods=100)
        print(sink.collected)

    A filter's ``input``/``output`` channels belong to the interpreter that
    bound them last; constructing a second interpreter over the same stream
    invalidates the first (running it raises), because silently sharing
    live filter state would cross-wire both.
    """

    def __init__(
        self,
        stream: Stream,
        check: bool = True,
        engine: str = "scalar",
        strict: bool = False,
        strategy: str = "softpipe",
        cores: Optional[int] = None,
        trace: Any = None,
    ) -> None:
        if engine not in ENGINES:
            raise StreamItError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.engine = engine
        self._trace_path: Optional[str] = None
        self.tracer = self._resolve_tracer(trace)
        self.strict = bool(strict)
        self.strategy = strategy
        self._cores_explicit = cores is not None
        if cores is None:
            import os

            cores = os.cpu_count() or 1
        self.cores = int(cores)
        self.stream = stream
        self.graph: FlatGraph = validate(stream) if check else None  # type: ignore
        if self.graph is None:
            from repro.graph.flatgraph import flatten

            self.graph = flatten(stream)
        self.program: ProgramSchedule = build_schedule(self.graph)
        self.channels: Dict[object, Channel] = {}
        self.fired: Dict[FlatNode, int] = {node: 0 for node in self.graph.nodes}
        self._executors: Dict[FlatNode, Callable[[], None]] = {}
        self._pending: Dict[FlatNode, List[PendingMessage]] = {}
        self._oracle: Optional[WavefrontOracle] = None
        self._current_node: Optional[FlatNode] = None
        self._initialized = False
        self.plan: Optional[ExecutionPlan] = None
        #: Live multicore session when ``engine="parallel"`` is in effect.
        self.parallel: Optional[Any] = None
        #: Structured engine downgrades (analysis Diagnostics, SL302/SL303).
        self.downgrades: List[Any] = []
        self._setup()

    # -- setup ---------------------------------------------------------------

    def _resolve_tracer(self, trace: Any):
        from repro.obs.tracer import NULL_TRACER, MemoryTracer, Tracer

        if trace is None or trace is False:
            return NULL_TRACER
        if trace is True:
            return MemoryTracer()
        if isinstance(trace, Tracer):
            return trace
        if isinstance(trace, (str, bytes)) or hasattr(trace, "__fspath__"):
            self._trace_path = str(trace)
            return MemoryTracer()
        raise StreamItError(
            f"trace must be None, True, a path, or a Tracer; got {trace!r}"
        )

    def _setup(self) -> None:
        # Plan feasibility must be decided before channels are allocated
        # (it selects Channel vs ArrayChannel): portal-bound programs run
        # batched when the steady schedule is a single topological sweep —
        # then every delivery point falls on a phase-internal batch boundary
        # the plan can honour.  A portal inside a feedback-interleaved
        # schedule needs per-firing delivery everywhere, so it downgrades to
        # the scalar engine (warning, or an error under ``strict``).
        portals = self._find_portals()
        self._portals = portals
        self.has_messaging = bool(portals)
        engine = self.engine
        if engine == "parallel":
            from repro.runtime.parallel import ParallelSession, ParallelUnsafe

            if self.cores < 2 and not self._cores_explicit:
                # Honest core detection: on a single-CPU host the fork +
                # barrier tax guarantees a loss, so the *default* degrades
                # rather than forcing 2 serialized workers.  An explicit
                # cores= still goes through (and fails with the same
                # SL304 if it asks for < 2).
                self._engine_downgrade(
                    f"this host reports {self.cores} usable CPU(s); forked "
                    "workers would serialize on one core (pass cores= "
                    "explicitly to override); falling back to the batched "
                    "engine",
                    code="SL304",
                )
                engine = "batched"
            else:
                try:
                    self.parallel = ParallelSession(self, self.strategy, self.cores)
                except ParallelUnsafe as exc:
                    self._engine_downgrade(
                        f"parallel execution unavailable: {exc}; falling back "
                        "to the batched engine",
                        code="SL304",
                    )
                    engine = "batched"
        batched = engine in ("batched", "codegen")
        if batched and self.has_messaging and not single_topological_sweep(
            self.graph, self.program.steady
        ):
            self._engine_downgrade(
                "teleport portals bound inside a feedback-interleaved schedule "
                "need per-firing delivery points; falling back to the scalar "
                "engine",
                code="SL302",
            )
            batched = False
        if self.parallel is not None:
            # The session decided Ring vs Array per edge when it planned the
            # partition; adopt its channel map wholesale.
            self.channels = self.parallel.channels
        else:
            channel_cls = ArrayChannel if batched else Channel
            if batched and self.tracer.enabled:
                # Traced runs pay for occupancy high-water tracking; the
                # untraced engine keeps the plain class (and its hot path).
                from repro.obs.counters import HwmArrayChannel

                channel_cls = HwmArrayChannel
            for edge in self.graph.edges:
                self.channels[edge] = channel_cls(
                    name=f"{edge.src.name}->{edge.dst.name}", initial=edge.initial
                )
        self._owner_token = object()
        for node in self.graph.nodes:
            if node.kind == FILTER:
                filt = node.filter
                filt.input = self.channels[node.in_edges[0]] if node.in_edges else None
                filt.output = self.channels[node.out_edges[0]] if node.out_edges else None
                filt._rt_owner = self._owner_token
            self._executors[node] = self._make_executor(node)
        for portal in portals:
            portal.bind(self)
        if batched and self.parallel is None:
            if engine == "codegen":
                from repro.runtime.codegen import CodegenPlan

                # No SL303 here: a segmented schedule is codegen's home
                # turf (the cyclic core inlines into the generated loop);
                # any genuine degradation surfaces as SL305 instead.
                self.plan = CodegenPlan(self)
            else:
                self.plan = ExecutionPlan(self)
                if not self.plan.superbatch and not self.has_messaging:
                    self._engine_downgrade(
                        "feedback loop interleaves the steady schedule; batched "
                        "execution degrades to segmented superbatching (the "
                        "cyclic core runs period-at-a-time)",
                        code="SL303",
                    )
        # Rate-derived items per steady period (static rates make this
        # exact): the per-run volume metric without counting anything at
        # run time.
        self._items_per_period = sum(
            self.program.reps[e.src] * e.push_rate for e in self.graph.edges
        )
        if METRICS.enabled:
            used = self.engine_used
            _M_SESSIONS.inc(engine=used)
            FLIGHT.record(
                "engine_selected",
                engine=used,
                requested=self.engine,
                **({"strategy": self.strategy} if used == "parallel" else {}),
            )

    def _engine_downgrade(self, reason: str, code: str = "SL302") -> None:
        if METRICS.enabled:
            _M_DOWNGRADES.inc(code=code)
            FLIGHT.record("engine_downgrade", code=code, reason=reason[:160])
        diagnostic = None
        try:
            from repro.analysis import Diagnostic

            diagnostic = Diagnostic.make(code, reason, self.stream)
            self.downgrades.append(diagnostic)
        except Exception:  # pragma: no cover - analysis layer unavailable
            pass
        if self.strict:
            raise StreamItError(
                f"engine={self.engine!r} strict mode: [{code}] {reason}"
            )
        warning = EngineDowngradeWarning(f"[{code}] {reason}")
        warning.diagnostic = diagnostic
        warnings.warn(warning, stacklevel=4)

    @property
    def engine_used(self) -> str:
        """The engine actually executing (after any structured downgrade)."""
        if self.parallel is not None:
            return "parallel"
        if self.plan is None:
            return "scalar"
        if getattr(self.plan, "codegen_active", False):
            return "codegen"
        return "batched"

    def engine_report(self) -> Dict[str, Any]:
        """Structured engine outcome: which engine ran, why it degraded.

        ``downgrades`` lists the analysis diagnostics (``SL302`` scalar
        fallback, ``SL303`` superbatch degradation) behind every
        :class:`EngineDowngradeWarning` this interpreter emitted, and
        ``vectorization`` (batched engine only) maps each generically-lifted
        filter to its executor mode, trusted-proof status, and structured
        downgrade reason.
        """
        report: Dict[str, Any] = {
            "requested": self.engine,
            "used": self.engine_used,
            "downgrades": [
                {"code": d.code, "message": d.message} for d in self.downgrades
            ],
        }
        if self.plan is not None:
            report["vectorization"] = self.plan.vectorization_report()
            from repro.runtime.plan import plan_cache_summary

            report["plan_cache"] = plan_cache_summary()
            codegen_report = getattr(self.plan, "codegen_report", None)
            if codegen_report is not None:
                report["codegen"] = codegen_report()
        if self.parallel is not None:
            report["parallel"] = self.parallel.layout_report()
        graph_analysis = self._graph_analysis_report()
        if graph_analysis is not None:
            report["graph_analysis"] = graph_analysis
        return report

    def _graph_analysis_report(self) -> Optional[Dict[str, Any]]:
        """Whole-graph analysis facts behind this session's execution.

        Parallel sessions contribute their per-ring capacity proofs.
        Shared-state race groups are reported for every engine.  ``None``
        for plain scalar/batched runs with nothing to report.
        """
        try:
            from repro.analysis.graph import analyze_flat_graph
        except Exception:  # pragma: no cover - analysis layer unavailable
            return None
        try:
            analysis = analyze_flat_graph(self.graph)
        except Exception:  # pragma: no cover - analyzer crash
            return None
        report: Dict[str, Any] = {
            "shared_state": [g.payload() for g in analysis.shared_state],
            "unbounded": [list(u) for u in analysis.unbounded],
        }
        if self.parallel is not None:
            proofs = getattr(self.parallel, "ring_proofs", {})
            report["rings"] = [
                proofs[e].payload()
                for e in self.parallel.ring_edges
                if e in proofs
            ]
            report["rings_proved"] = sum(
                1 for p in proofs.values() if p.proved
            )
        if (
            self.parallel is None
            and not report["shared_state"]
            and not report["unbounded"]
        ):
            return None
        return report

    def _find_portals(self) -> List[Portal]:
        portals: List[Portal] = []
        seen = set()
        for node in self.graph.filter_nodes():
            for value in vars(node.filter).values():
                if isinstance(value, Portal) and id(value) not in seen:
                    seen.add(id(value))
                    portals.append(value)
        return portals

    def _check_ownership(self) -> None:
        for node in self.graph.filter_nodes():
            if getattr(node.filter, "_rt_owner", None) is not self._owner_token:
                raise StreamItError(
                    f"filter {node.filter.name!r} has been re-bound by another "
                    "Interpreter since this one was created; a filter's "
                    "input/output channels (and mutable state) belong to one "
                    "live interpreter at a time — build a fresh stream per "
                    "interpreter instead of sharing one"
                )

    def _make_executor(self, node: FlatNode) -> Callable[[], None]:
        if node.kind == FILTER:
            return node.filter.work
        if node.kind == SPLITTER:
            return self._make_splitter(node)
        if node.kind == JOINER:
            return self._make_joiner(node)
        raise StreamItError(f"unknown node kind {node.kind!r}")

    def _make_splitter(self, node: FlatNode) -> Callable[[], None]:
        flavor = node.flavor
        if flavor == NULL:
            return lambda: None
        in_chan = self.channels[node.in_edges[0]]
        outs = [self.channels[e] for e in node.out_edges]
        if flavor == DUPLICATE:
            def fire_duplicate() -> None:
                item = in_chan.pop()
                for chan in outs:
                    chan.push(item)

            return fire_duplicate
        # Weighted round robin: per firing, weights[b] items to branch b.
        weights = [node.out_rates[e.src_port] for e in node.out_edges]

        def fire_roundrobin() -> None:
            for chan, w in zip(outs, weights):
                if w:
                    chan.push_many(in_chan.pop_many(w))

        return fire_roundrobin

    def _make_joiner(self, node: FlatNode) -> Callable[[], None]:
        flavor = node.flavor
        if flavor == NULL:
            return lambda: None
        out_chan = self.channels[node.out_edges[0]]
        ins = [self.channels[e] for e in node.in_edges]
        if flavor == COMBINE:
            owner = node.obj
            reducer = getattr(getattr(owner, "joiner", None), "reducer", None)
            if reducer is None:
                reducer = lambda items: items[0]

            def fire_combine() -> None:
                out_chan.push(reducer([chan.pop() for chan in ins]))

            return fire_combine
        weights = [node.in_rates[e.dst_port] for e in node.in_edges]

        def fire_roundrobin() -> None:
            for chan, w in zip(ins, weights):
                if w:
                    out_chan.push_many(chan.pop_many(w))

        return fire_roundrobin

    # -- messaging -----------------------------------------------------------

    def post_message(
        self,
        receiver: Filter,
        method: str,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        latency: Optional[int],
    ) -> None:
        """Record a message sent from the currently firing filter."""
        sender_node = self._current_node
        if sender_node is None or sender_node.kind != FILTER:
            raise MessagingError("messages may only be sent from inside work()")
        sender = sender_node.filter
        recv_node = self.graph.node_for(receiver)
        message = PendingMessage(
            sender=sender,
            receiver=receiver,
            method=method,
            args=args,
            kwargs=dict(kwargs),
            latency=latency,
        )
        deliver_now = False
        if latency is not None:
            if self._oracle is None:
                self._oracle = WavefrontOracle(self.graph)
            if not sender_node.out_edges or not recv_node.out_edges:
                raise MessagingError(
                    "wavefront-timed messages require both endpoints to have "
                    "output tapes; use best-effort delivery for sinks"
                )
            o_a = sender_node.out_edges[0]
            o_b = recv_node.out_edges[0]
            s = self.channels[o_a].pushed_count
            push_a = o_a.push_rate
            if self._oracle.is_upstream(o_b, o_a):
                message.direction = "upstream"
                message.threshold = self._oracle.min_items(
                    o_b, o_a, s + push_a * latency
                )
                # Already past the wavefront: deliver immediately.
                deliver_now = self.channels[o_b].pushed_count >= message.threshold
            elif self._oracle.is_upstream(o_a, o_b):
                message.direction = "downstream"
                message.threshold = self._oracle.max_items(
                    o_a, o_b, s + push_a * (latency - 1)
                )
            else:
                raise MessagingError(
                    f"{sender.name} and {receiver.name} run in parallel; "
                    "parallel message timing is beyond the paper's scope"
                )
        if self.tracer.enabled:
            self._trace_send(recv_node, message)
        if deliver_now:
            self._deliver_one(message)
            return
        self._pending.setdefault(recv_node, []).append(message)

    def _deliver_one(self, msg: PendingMessage) -> None:
        msg.deliver()
        if self.tracer.enabled:
            self._trace_delivery(msg)

    # -- teleport observability ------------------------------------------------

    def _trace_send(self, recv_node: FlatNode, message: PendingMessage) -> None:
        """Open a send→delivery record for one teleport message."""
        from repro.obs.tracer import CAT_TELEPORT

        out_edge = recv_node.out_edges[0] if recv_node.out_edges else None
        record = {
            "sender": message.sender.name,
            "receiver": message.receiver.name,
            "method": message.method,
            "latency": message.latency,
            "direction": message.direction,
            "threshold": message.threshold,
            #: n(O_receiver) at send time — delivery latency in receiver
            #: firings is measured from here.
            "sent_n": int(self.channels[out_edge].pushed_count) if out_edge else 0,
            "push": out_edge.push_rate if out_edge is not None else 0,
            "delivered_n": None,
            "latency_iterations": None,
            "sdep_ok": None,
        }
        message.obs = record
        self.tracer.meta.setdefault("teleports", []).append(record)
        self.tracer.instant(
            f"teleport.send {record['sender']}->{record['receiver']}.{record['method']}",
            CAT_TELEPORT,
            args={
                "latency": record["latency"],
                "threshold": record["threshold"],
                "direction": record["direction"],
                "sent_n": record["sent_n"],
            },
        )

    def _trace_delivery(self, msg: PendingMessage) -> None:
        """Close the record: where on the receiver's tape delivery landed."""
        record = msg.obs
        if record is None:
            return
        from repro.obs.tracer import CAT_TELEPORT
        from repro.scheduling.sdep import delivery_on_boundary

        recv_node = self.graph.node_for(msg.receiver)
        delivered_n = (
            int(self.channels[recv_node.out_edges[0]].pushed_count)
            if recv_node.out_edges
            else 0
        )
        record["delivered_n"] = delivered_n
        push = record["push"]
        if push:
            record["latency_iterations"] = (delivered_n - record["sent_n"]) // push
        record["sdep_ok"] = delivery_on_boundary(
            msg.threshold, delivered_n, push, msg.direction
        )
        self.tracer.instant(
            f"teleport.deliver {record['sender']}->{record['receiver']}.{record['method']}",
            CAT_TELEPORT,
            args={
                "delivered_n": delivered_n,
                "threshold": record["threshold"],
                "latency_iterations": record["latency_iterations"],
                "sdep_ok": record["sdep_ok"],
            },
        )

    def _deliver_before(self, node: FlatNode) -> None:
        """Deliver messages due immediately before a firing of ``node``."""
        queue = self._pending.get(node)
        if not queue:
            return
        push_b = node.out_edges[0].push_rate if node.out_edges else 0
        n_ob = self.channels[node.out_edges[0]].pushed_count if node.out_edges else 0
        remaining: List[PendingMessage] = []
        for msg in queue:
            due = msg.threshold is None or (
                msg.direction == "downstream" and n_ob + push_b > msg.threshold
            )
            if due:
                self._deliver_one(msg)
            else:
                remaining.append(msg)
        if remaining:
            self._pending[node] = remaining
        else:
            del self._pending[node]

    def _deliver_after(self, node: FlatNode) -> None:
        """Deliver messages due immediately after a firing of ``node``."""
        queue = self._pending.get(node)
        if not queue:
            return
        n_ob = self.channels[node.out_edges[0]].pushed_count if node.out_edges else 0
        remaining: List[PendingMessage] = []
        for msg in queue:
            if msg.direction == "upstream" and msg.threshold is not None and n_ob >= msg.threshold:
                self._deliver_one(msg)
            else:
                remaining.append(msg)
        if remaining:
            self._pending[node] = remaining
        else:
            del self._pending[node]

    # -- execution -----------------------------------------------------------

    def _execute_phases(self, phases: Sequence[Tuple[FlatNode, int]]) -> None:
        if self.tracer.enabled:
            self._execute_phases_traced(phases)
            return
        executors = self._executors
        for node, count in phases:
            fire = executors[node]
            self._current_node = node
            if self._pending:
                for _ in range(count):
                    self._deliver_before(node)
                    fire()
                    self._deliver_after(node)
            else:
                for _ in range(count):
                    fire()
                    if self._pending:
                        self._deliver_after(node)
            self.fired[node] += count
            self._current_node = None

    def _execute_phases_traced(self, phases: Sequence[Tuple[FlatNode, int]]) -> None:
        """Scalar execution with one span per schedule phase.

        Per-phase (not per-firing) spans keep the recorder small and the
        overhead bounded: a phase fires one node ``count`` times back to
        back, which is exactly the granularity a profile attributes time at.
        """
        from time import perf_counter

        from repro.obs.tracer import CAT_FILTER

        tracer = self.tracer
        executors = self._executors
        for node, count in phases:
            fire = executors[node]
            self._current_node = node
            push = node.out_edges[0].push_rate if node.out_edges else 0
            t0 = perf_counter()
            if self._pending:
                for _ in range(count):
                    self._deliver_before(node)
                    fire()
                    self._deliver_after(node)
            else:
                for _ in range(count):
                    fire()
                    if self._pending:
                        self._deliver_after(node)
            tracer.complete(
                node.name,
                CAT_FILTER,
                t0,
                perf_counter() - t0,
                args={"firings": count, "items": count * push},
            )
            self.fired[node] += count
            self._current_node = None

    def run_init(self) -> None:
        """Call filter ``init`` hooks and run the initialization schedule."""
        if self._initialized:
            return
        self._check_ownership()
        for node in self.graph.filter_nodes():
            node.filter.init()
        # Workers fork on the first parallel command — i.e. here, after the
        # init() hooks above, so children inherit initialized filter state.
        if self.tracer.enabled:
            from time import perf_counter

            from repro.obs.tracer import CAT_ENGINE

            t0 = perf_counter()
        if self.parallel is not None:
            self.parallel.run_init(self.fired)
        elif self.plan is not None:
            self.plan.run_init(self.fired)
        else:
            self._execute_phases(list(self.program.init))
        if self.tracer.enabled:
            self.tracer.complete("run_init", CAT_ENGINE, t0, perf_counter() - t0)
        self._initialized = True

    def run_steady(self, periods: int = 1) -> None:
        """Run ``periods`` steady-state periods (after initialization)."""
        if not self._initialized:
            self.run_init()
        self._check_ownership()
        if self.tracer.enabled:
            from time import perf_counter

            from repro.obs.tracer import CAT_ENGINE

            t0 = perf_counter()
            try:
                self._run_steady_engine(periods)
            finally:
                self.tracer.complete(
                    f"run_steady x{periods}",
                    CAT_ENGINE,
                    t0,
                    perf_counter() - t0,
                    args={"periods": periods, "engine": self.engine_used},
                )
            return
        self._run_steady_engine(periods)

    def _run_steady_engine(self, periods: int) -> None:
        if not METRICS.enabled:
            self._dispatch_steady(periods)
            return
        from time import perf_counter

        engine = self.engine_used
        FLIGHT.record("run_start", engine=engine, periods=periods)
        t0 = perf_counter()
        try:
            self._dispatch_steady(periods)
        except BaseException as exc:
            FLIGHT.record(
                "run_error", engine=engine, error=exc.__class__.__name__
            )
            _M_RUN_ERRORS.inc(engine=engine)
            METRICS.maybe_publish()
            raise
        elapsed = perf_counter() - t0
        items = periods * self._items_per_period
        FLIGHT.record(
            "run_end", engine=engine, periods=periods, seconds=round(elapsed, 6)
        )
        _M_RUNS.inc(engine=engine)
        _M_PERIODS.inc(periods, engine=engine)
        _M_ITEMS.inc(items, engine=engine)
        _M_RUN_SECONDS.observe(elapsed, engine=engine)
        _M_RUN_ITEMS.observe(items, engine=engine)
        METRICS.maybe_publish()

    def _dispatch_steady(self, periods: int) -> None:
        if self.parallel is not None:
            self.parallel.run_steady(self.fired, periods)
            return
        if self.plan is not None:
            self.plan.run_steady(self.fired, periods)
            return
        phases = list(self.program.steady)
        for _ in range(periods):
            self._execute_phases(phases)

    def run(self, periods: int = 1) -> None:
        """Initialize then run ``periods`` steady-state periods."""
        self.run_init()
        self.run_steady(periods)

    def flush_trace(self) -> None:
        """Finalize trace metadata (and write the trace file, if requested).

        Snapshots per-channel counters, the engine report, and plan-cache
        statistics into ``tracer.meta`` so exporters and the report CLI see
        them; called automatically from :meth:`close`.
        """
        tracer = self.tracer
        if not tracer.enabled or getattr(self, "_trace_flushed", False):
            return
        self._trace_flushed = True
        from repro.obs.counters import channel_snapshot

        if not getattr(tracer, "track_names", None):
            tracer.name_track(0, "main")
        tracer.meta["engine"] = self.engine_used
        tracer.meta["channels"] = channel_snapshot(self.channels)
        tracer.meta["engine_report"] = self.engine_report()
        if self.plan is not None:
            tracer.meta["plan_cache"] = dict(self.plan.cache_stats)
        if getattr(self.plan, "codegen_active", False):
            from repro.runtime.codegen import codegen_cache_summary

            tracer.meta["codegen_cache"] = codegen_cache_summary()
        if self._trace_path is not None:
            tracer.write(self._trace_path)
            self._trace_path = None

    def close(self) -> None:
        """Release engine resources (parallel workers, shared memory).

        Idempotent and safe on every engine; only the parallel engine holds
        resources that outlive the interpreter object.  Traced runs flush
        their metadata (and the ``trace=<path>`` file) here.
        """
        # Snapshot counters before the parallel arena (and its ring-control
        # shared memory) is torn down.
        self.flush_trace()
        if self.parallel is not None:
            self.parallel.close()
        METRICS.maybe_publish()

    def __enter__(self) -> "Interpreter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- introspection ---------------------------------------------------------

    def items_pushed(self, filt: Filter) -> int:
        """Total items this filter has pushed (``n`` of its output tape)."""
        node = self.graph.node_for(filt)
        if not node.out_edges:
            return 0
        return self.channels[node.out_edges[0]].pushed_count

    def firings(self, filt: Filter) -> int:
        """Number of times this filter's work function has run."""
        return self.fired[self.graph.node_for(filt)]


def run_to_list(
    stream: Stream,
    sink,
    periods: int,
    check: bool = True,
    engine: str = "scalar",
    **engine_opts,
) -> List[float]:
    """Convenience: run ``periods`` steady periods, return sink's items."""
    interp = Interpreter(stream, check=check, engine=engine, **engine_opts)
    try:
        interp.run(periods)
    finally:
        interp.close()
    return list(sink.collected)
