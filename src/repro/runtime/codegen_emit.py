"""Source emission for the whole-program codegen engine.

Given a compiled :class:`~repro.runtime.plan.ExecutionPlan`, this module
emits **one self-contained Python source module** whose ``run_chunk(scale)``
function executes ``scale`` steady periods with no interpreter dispatch
loop: the plan's phase list becomes straight-line statements, lifted kernel
ASTs are spliced in as module-level functions, fused SISO chains unroll into
per-stage statements over scratch tapes, and a segmented feedback core
(:class:`~repro.runtime.plan.CoreLoopRunner`) becomes an inlined closed
loop over plain-list tapes — ``self.pop()``/``peek``/``push`` rewritten to
list indexing by a statement-level hoisting AST transformer.

The module is *source*, not closures, so it can be cached on disk and
rebound to a structurally identical plan later (see
:mod:`repro.runtime.codegen` for the cache and the binder).  Everything a
bound module needs at run time — filter instances, channels, executors,
kernel globals — is injected into the module namespace under deterministic
names derived from node/edge indices, so emission and binding can happen in
different processes.

Per-block lowering modes (reported through ``engine_report()`` and the
``SL305`` diagnostic):

* ``inline`` — the block's computation is spliced into the module (a lifted
  kernel called through :func:`~repro.runtime.vectorize.run_lifted`, or a
  core work() body rewritten to flat statements);
* ``call`` — a direct call to an existing batched executor (hand
  ``work_batch``, vectorized splitter/joiner) — no dispatch loop, but the
  body lives outside the module;
* ``fallback`` — an uncertified filter keeps its adaptive
  :class:`~repro.runtime.vectorize.BatchExecutor` (trial machinery and
  demotion intact); these blocks are what ``SL305`` reports.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import textwrap
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.flatgraph import FILTER, JOINER, SPLITTER
from repro.graph.splitjoin import COMBINE, DUPLICATE, NULL
from repro.runtime.plan import (
    CompiledPhase,
    CoreLoopRunner,
    FusedPhase,
    _plan_signature,
)
from repro.runtime.vectorize import BatchExecutor

#: Bump on any change to the emitted module's shape or binding contract;
#: part of the cache key, so stale on-disk modules are never rebound.
EMITTER_VERSION = 2


class Unsupported(Exception):
    """A construct the emitter cannot lower; callers fall back."""


# -- deterministic layout -----------------------------------------------------


def layout_blocks(plan) -> List[Tuple[str, object]]:
    """The plan's steady program as an ordered list of codegen blocks.

    Deterministic given the plan's structural signature, so the emitter (at
    generation time) and the binder (when rebinding a cached module to a
    fresh plan) walk the same sequence.
    """
    blocks: List[Tuple[str, object]] = []
    if plan.superbatch:
        blocks.extend(
            ("fused", ph) if isinstance(ph, FusedPhase) else ("phase", ph)
            for ph in plan.steady_phases
        )
    elif plan.segments is not None:
        prefix, core, suffix = plan.segments
        blocks.extend(("phase", ph) for ph in prefix)
        blocks.append(("core", core))
        blocks.extend(("phase", ph) for ph in suffix)
    else:
        raise Unsupported("plan shape has no codegen lowering (messaging?)")
    return blocks


def _kernel_splicable(cls: type) -> bool:
    """Can this class's work() source be spliced as a module-level kernel?"""
    try:
        fn = cls.work
        if fn.__code__.co_freevars:
            return False
        fdef = _work_fdef(fn)
        args = fdef.args
        return (
            len(args.args) == 1
            and not args.posonlyargs
            and not args.kwonlyargs
            and args.vararg is None
            and args.kwarg is None
            and not args.defaults
        )
    except (OSError, TypeError, SyntaxError, IndexError):
        return False


def resolve_phase_mode(ph: CompiledPhase) -> str:
    """Lowering mode for one flat phase; certifies lazily when needed.

    Runs post-init (the static certification passes read live attribute
    state).  A successful certification is recorded on the executor so
    ``vectorization_report()`` agrees with the emitted module.
    """
    node = ph.node
    if node.kind != FILTER:
        return "call"
    fire = ph.fire
    if not isinstance(fire, BatchExecutor):
        return "call"  # hand work_batch
    if fire.mode == "lifted" and fire.trusted:
        return "inline" if _kernel_splicable(type(node.filter)) else "call"
    if fire.mode is None and fire._allow_trusted and fire._certify():
        fire.mode = "lifted"
        fire.trusted = True
        return "inline" if _kernel_splicable(type(node.filter)) else "call"
    return "fallback"


# -- fingerprinting -----------------------------------------------------------


def _code_fingerprint(fn) -> str:
    """Stable-ish hash of a function's behavior-bearing code."""
    try:
        code = fn.__code__
    except AttributeError:
        return repr(fn)
    return hashlib.sha256(
        b"|".join(
            [
                code.co_code,
                repr(code.co_consts).encode(),
                repr(code.co_names).encode(),
                repr(code.co_varnames).encode(),
            ]
        )
    ).hexdigest()[:16]


def plan_fingerprint(graph, signature: tuple, version: str) -> str:
    """Cache key: structural signature + per-class work code + emitter rev.

    The structural signature pins the plan *shape*; the per-class code
    hashes pin the spliced bodies, so editing a filter's ``work()`` (same
    class name, same rates) invalidates cached modules.
    """
    parts: List[str] = [repr(signature), version, str(EMITTER_VERSION)]
    for node in graph.nodes:
        if node.kind != FILTER:
            if node.kind == JOINER and node.flavor == COMBINE:
                reducer = getattr(getattr(node.obj, "joiner", None), "reducer", None)
                parts.append(f"reducer={reducer is not None}")
            continue
        cls = type(node.filter)
        parts.append(cls.__qualname__)
        # The stateless hint is per-instance and steers certification.
        parts.append(repr(getattr(node.filter, "stateless", None)))
        parts.append(_code_fingerprint(cls.work))
        parts.append(str(bool(cls.supports_work_batch)))
        if cls.supports_work_batch:
            parts.append(_code_fingerprint(node.filter.work_batch))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:32]


def stream_fingerprint(graph, program, senders, receivers) -> str:
    """:func:`plan_fingerprint` for a (graph, schedule, messaging) triple.

    Keys both the codegen module cache and the parallel engine's
    structure cache, so the two invalidate on exactly the same events.
    """
    from repro import __version__

    signature = _plan_signature(graph, program, senders, receivers)
    return plan_fingerprint(graph, signature, __version__)


# -- kernel splicing ----------------------------------------------------------


def _work_fdef(fn) -> ast.FunctionDef:
    src = textwrap.dedent(inspect.getsource(fn))
    tree = ast.parse(src)
    fdef = tree.body[0]
    if not isinstance(fdef, ast.FunctionDef):
        raise Unsupported("work() source is not a plain function definition")
    return fdef


def kernel_source(cls: type, kname: str) -> str:
    """The class's work() source as a module-level kernel definition.

    The body is verbatim — vectorization comes from the channel shims bound
    by :func:`~repro.runtime.vectorize.run_lifted`, and the binder rebuilds
    the function with its original ``__globals__`` (``math`` swapped for
    the exact vector-math namespace), exactly like
    :func:`~repro.runtime.vectorize.lift_work`.
    """
    fdef = _work_fdef(cls.work)
    fdef.name = kname
    fdef.decorator_list = []
    return ast.unparse(ast.fix_missing_locations(fdef))


# -- core work() inlining -----------------------------------------------------

_BANNED_STMTS = (
    ast.Return,
    ast.Try,
    ast.With,
    ast.AsyncWith,
    ast.AsyncFor,
    ast.Global,
    ast.Nonlocal,
    ast.Import,
    ast.ImportFrom,
    ast.Raise,
    ast.Delete,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Match,
)

_BANNED_EXPRS = (
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.Yield,
    ast.YieldFrom,
    ast.Await,
    ast.NamedExpr,
)


def _assigned_names(fdef: ast.FunctionDef) -> set:
    names = {a.arg for a in fdef.args.args}
    for node in ast.walk(fdef):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
    return names


def _name(ident: str) -> ast.Name:
    return ast.Name(id=ident, ctx=ast.Load())


def _store(ident: str) -> ast.Name:
    return ast.Name(id=ident, ctx=ast.Store())


def _parse_stmt(src: str) -> ast.stmt:
    return ast.parse(src).body[0]


class WorkInliner:
    """Rewrites one scalar work() body into flat statements over list tapes.

    ``self.pop()`` becomes a hoisted ``_hK = <items>[<cur>]; <cur> += 1``
    pair emitted *before* the statement containing it (in evaluation
    order, so mixed pop/peek expressions stay order-exact); ``self.peek(E)``
    hoists ``_hK = <items>[<cur> + E]``; ``self.push(E)`` (statement
    position only) becomes ``<out>.append(E)``; ``self.attr`` becomes
    ``f<i>.attr`` on the live filter instance, so arbitrary state mutation
    keeps working.  Channel ops inside conditionally-evaluated positions
    (``and``/``or`` tails, ternaries, chained-comparison tails, ``while``
    tests) raise :class:`Unsupported` — the whole core then falls back to
    the :class:`~repro.runtime.plan.CoreLoopRunner`.
    """

    def __init__(
        self,
        fn,
        fvar: str,
        in_items: Optional[str],
        in_cur: Optional[str],
        out_items: Optional[str],
        gprefix: str,
    ) -> None:
        fdef = _work_fdef(fn)
        if fn.__code__.co_freevars:
            raise Unsupported("work() closes over free variables")
        if not fdef.args.args:
            raise Unsupported("work() takes no self argument")
        for node in ast.walk(fdef):
            if node is fdef:
                continue
            if isinstance(node, _BANNED_STMTS) or isinstance(node, _BANNED_EXPRS):
                raise Unsupported(f"work() uses {type(node).__name__}")
        self.fdef = fdef
        self.self_name = fdef.args.args[0].arg
        self.fvar = fvar
        self.in_items, self.in_cur, self.out_items = in_items, in_cur, out_items
        self.gprefix = gprefix
        self.fn_globals = fn.__globals__
        self.assigned = _assigned_names(fdef)
        self.globals_seen: set = set()
        self._tmp = 0
        self.pre: List[ast.stmt] = []

    def inline(self) -> List[ast.stmt]:
        return self.stmts(self.fdef.body)

    # -- statements ----------------------------------------------------------

    def stmts(self, body: Sequence[ast.stmt]) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for st in body:
            out.extend(self.stmt(st))
        return out

    def _self_call(self, node, attr: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self.self_name
            and node.func.attr == attr
        )

    def stmt(self, st: ast.stmt) -> List[ast.stmt]:
        self.pre = []
        if isinstance(st, _BANNED_STMTS):
            raise Unsupported(type(st).__name__)
        if isinstance(st, ast.Expr):
            if self._self_call(st.value, "push"):
                call = st.value
                if len(call.args) != 1 or call.keywords:
                    raise Unsupported("push() with unexpected arguments")
                if self.out_items is None:
                    raise Unsupported("push() on a filter with no output edge")
                val = self.expr(call.args[0], False)
                new: ast.stmt = ast.Expr(
                    value=ast.Call(
                        func=ast.Attribute(
                            value=_name(self.out_items), attr="append", ctx=ast.Load()
                        ),
                        args=[val],
                        keywords=[],
                    )
                )
                return self.pre + [new]
            value = self.expr(st.value, False)
            if isinstance(value, ast.Name):  # a lone hoisted pop/peek temp
                return self.pre
            return self.pre + [ast.Expr(value=value)]
        if isinstance(st, ast.Assign):
            value = self.expr(st.value, False)
            targets = [self.expr(t, False) for t in st.targets]
            return self.pre + [ast.Assign(targets=targets, value=value)]
        if isinstance(st, ast.AugAssign):
            value = self.expr(st.value, False)
            target = self.expr(st.target, False)
            return self.pre + [ast.AugAssign(target=target, op=st.op, value=value)]
        if isinstance(st, ast.AnnAssign):
            if st.value is None:
                return []
            value = self.expr(st.value, False)
            target = self.expr(st.target, False)
            return self.pre + [ast.Assign(targets=[target], value=value)]
        if isinstance(st, ast.If):
            test = self.expr(st.test, False)
            pre = self.pre
            body = self.stmts(st.body) or [ast.Pass()]
            orelse = self.stmts(st.orelse)
            return pre + [ast.If(test=test, body=body, orelse=orelse)]
        if isinstance(st, ast.While):
            test = self.expr(st.test, True)  # re-evaluated: no channel ops
            pre = self.pre
            body = self.stmts(st.body) or [ast.Pass()]
            orelse = self.stmts(st.orelse)
            return pre + [ast.While(test=test, body=body, orelse=orelse)]
        if isinstance(st, ast.For):
            it = self.expr(st.iter, False)
            pre = self.pre
            self.pre = []
            target = self.expr(st.target, True)
            if self.pre:
                raise Unsupported("channel op in a for-loop target")
            body = self.stmts(st.body) or [ast.Pass()]
            orelse = self.stmts(st.orelse)
            return pre + [ast.For(target=target, iter=it, body=body, orelse=orelse)]
        if isinstance(st, (ast.Pass, ast.Break, ast.Continue)):
            return [st]
        if isinstance(st, ast.Assert):
            test = self.expr(st.test, True)
            msg = self.expr(st.msg, True) if st.msg is not None else None
            return self.pre + [ast.Assert(test=test, msg=msg)]
        raise Unsupported(type(st).__name__)

    # -- expressions ---------------------------------------------------------

    def _new_tmp(self) -> str:
        self._tmp += 1
        return f"_h{self._tmp}"

    def expr(self, node, cond: bool):
        if node is None:
            return None
        if isinstance(node, _BANNED_EXPRS):
            raise Unsupported(type(node).__name__)
        if isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == self.self_name
            ):
                if f.attr == "pop":
                    if cond:
                        raise Unsupported("pop() in a conditionally-evaluated position")
                    if node.args or node.keywords:
                        raise Unsupported("pop() with arguments")
                    if self.in_items is None:
                        raise Unsupported("pop() on a filter with no input edge")
                    tmp = self._new_tmp()
                    self.pre.append(
                        _parse_stmt(f"{tmp} = {self.in_items}[{self.in_cur}]")
                    )
                    self.pre.append(_parse_stmt(f"{self.in_cur} += 1"))
                    return _name(tmp)
                if f.attr == "peek":
                    if cond:
                        raise Unsupported("peek() in a conditionally-evaluated position")
                    if len(node.args) != 1 or node.keywords:
                        raise Unsupported("peek() with unexpected arguments")
                    if self.in_items is None:
                        raise Unsupported("peek() on a filter with no input edge")
                    idx = self.expr(node.args[0], cond)
                    tmp = self._new_tmp()
                    self.pre.append(
                        ast.Assign(
                            targets=[_store(tmp)],
                            value=ast.Subscript(
                                value=_name(self.in_items),
                                slice=ast.BinOp(
                                    left=_name(self.in_cur), op=ast.Add(), right=idx
                                ),
                                ctx=ast.Load(),
                            ),
                        )
                    )
                    return _name(tmp)
                if f.attr == "push":
                    raise Unsupported("push() used as an expression")
                raise Unsupported(f"opaque self.{f.attr}() call")
            func = self.expr(node.func, cond)
            args = [self.expr(a, cond) for a in node.args]
            keywords = [
                ast.keyword(arg=k.arg, value=self.expr(k.value, cond))
                for k in node.keywords
            ]
            return ast.Call(func=func, args=args, keywords=keywords)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == self.self_name:
                return ast.Attribute(value=_name(self.fvar), attr=node.attr, ctx=node.ctx)
            return ast.Attribute(
                value=self.expr(node.value, cond), attr=node.attr, ctx=node.ctx
            )
        if isinstance(node, ast.Name):
            if node.id == self.self_name:
                raise Unsupported("bare self escapes the work() body")
            if (
                isinstance(node.ctx, ast.Load)
                and node.id not in self.assigned
                and node.id in self.fn_globals
            ):
                self.globals_seen.add(node.id)
                return _name(f"{self.gprefix}{node.id}")
            return node
        if isinstance(node, ast.BoolOp):
            values = [self.expr(node.values[0], cond)] + [
                self.expr(v, True) for v in node.values[1:]
            ]
            return ast.BoolOp(op=node.op, values=values)
        if isinstance(node, ast.IfExp):
            return ast.IfExp(
                test=self.expr(node.test, cond),
                body=self.expr(node.body, True),
                orelse=self.expr(node.orelse, True),
            )
        if isinstance(node, ast.Compare):
            left = self.expr(node.left, cond)
            comparators = [self.expr(node.comparators[0], cond)] + [
                self.expr(c, True) for c in node.comparators[1:]
            ]
            return ast.Compare(left=left, ops=node.ops, comparators=comparators)
        # Generic recursion: BinOp, UnaryOp, Subscript, Slice, Tuple, List,
        # Dict, Set, Starred, f-strings, Constant, ...
        for field, old in ast.iter_fields(node):
            if isinstance(old, list):
                setattr(
                    node,
                    field,
                    [
                        self.expr(x, cond) if isinstance(x, ast.expr) else x
                        for x in old
                    ],
                )
            elif isinstance(old, ast.expr):
                setattr(node, field, self.expr(old, cond))
        return node


# -- core section emission ----------------------------------------------------


def classify_core_edges(core: CoreLoopRunner):
    """(internal, ext_in, ext_out) edge lists of a cyclic core (deterministic
    order: first-seen over the per-node edge lists, like the runner)."""
    internal, ext_in, ext_out = [], [], []
    seen = set()
    for node, _count in core.phases:
        for edge in list(node.in_edges) + list(node.out_edges):
            if edge in seen:
                continue
            seen.add(edge)
            inside_src = edge.src in core.nodes
            inside_dst = edge.dst in core.nodes
            if inside_src and inside_dst:
                internal.append(edge)
            elif inside_dst:
                ext_in.append(edge)
            elif inside_src:
                ext_out.append(edge)
    return internal, ext_in, ext_out


class CoreEmitter:
    """Emits the inlined closed loop for one cyclic schedule core."""

    def __init__(self, plan, core: CoreLoopRunner, node_index, edge_index) -> None:
        self.plan = plan
        self.core = core
        self.node_index = node_index
        self.edge_index = edge_index
        self.globals_map: Dict[int, List[str]] = {}
        self.filter_idx: List[int] = []
        self.reducer_idx: List[int] = []
        internal, ext_in, ext_out = classify_core_edges(core)
        self.edges = internal + ext_in + ext_out
        self.popped = set(internal + ext_in)

    def _tape(self, edge) -> str:
        return f"t{self.edge_index[edge]}"

    def _cur(self, edge) -> str:
        return f"t{self.edge_index[edge]}_c"

    def emit(self) -> List[str]:
        """The core's statement lines, at run_chunk body indentation."""
        period: List[ast.stmt] = []
        for node, count in self.core.phases:
            stmts = self._node_stmts(node)
            if not stmts:
                continue
            if count == 1:
                period.extend(stmts)
            else:
                period.append(
                    ast.For(
                        target=_store("_"),
                        iter=ast.Call(
                            func=_name("range"),
                            args=[ast.Constant(value=count)],
                            keywords=[],
                        ),
                        body=stmts,
                        orelse=[],
                    )
                )
        if not period:
            raise Unsupported("empty cyclic core")
        lines = ["_core.begin()"]
        for edge in self.edges:
            lines.append(
                f"{self._tape(edge)} = _core.items({self.edge_index[edge]})"
            )
        for edge in self.edges:
            if edge in self.popped:
                lines.append(f"{self._cur(edge)} = 0")
        loop = ast.For(
            target=_store("_"),
            iter=ast.Call(func=_name("range"), args=[_name("scale")], keywords=[]),
            body=period,
            orelse=[],
        )
        lines.extend(ast.unparse(ast.fix_missing_locations(loop)).splitlines())
        for edge in self.edges:
            if edge in self.popped:
                lines.append(
                    f"_core.set_cursor({self.edge_index[edge]}, {self._cur(edge)})"
                )
        lines.append("_core.end(scale)")
        return lines

    # -- per-node statement lowering -----------------------------------------

    def _node_stmts(self, node) -> List[ast.stmt]:
        if node.kind == FILTER:
            return self._filter_stmts(node)
        if node.flavor == NULL:
            return []
        if node.kind == SPLITTER:
            return self._splitter_stmts(node)
        if node.kind == JOINER:
            return self._joiner_stmts(node)
        raise Unsupported(f"unknown node kind {node.kind!r}")

    def _filter_stmts(self, node) -> List[ast.stmt]:
        i = self.node_index[node]
        in_edge = node.in_edges[0] if node.in_edges else None
        out_edge = node.out_edges[0] if node.out_edges else None
        inliner = WorkInliner(
            type(node.filter).work,
            fvar=f"f{i}",
            in_items=self._tape(in_edge) if in_edge is not None else None,
            in_cur=self._cur(in_edge) if in_edge is not None else None,
            out_items=self._tape(out_edge) if out_edge is not None else None,
            gprefix=f"_g{i}_",
        )
        stmts = inliner.inline()
        if inliner.globals_seen:
            self.globals_map[i] = sorted(inliner.globals_seen)
        self.filter_idx.append(i)
        return stmts

    def _move(self, src_items: str, src_cur: str, dst_items: str, w: int) -> List[ast.stmt]:
        if w == 1:
            return [
                _parse_stmt(f"{dst_items}.append({src_items}[{src_cur}])"),
                _parse_stmt(f"{src_cur} += 1"),
            ]
        return [
            _parse_stmt(
                f"{dst_items}.extend({src_items}[{src_cur}:{src_cur} + {w}])"
            ),
            _parse_stmt(f"{src_cur} += {w}"),
        ]

    def _splitter_stmts(self, node) -> List[ast.stmt]:
        in_edge = node.in_edges[0]
        tin, cin = self._tape(in_edge), self._cur(in_edge)
        stmts: List[ast.stmt] = []
        if node.flavor == DUPLICATE:
            stmts.append(_parse_stmt(f"_d = {tin}[{cin}]"))
            stmts.append(_parse_stmt(f"{cin} += 1"))
            for e in node.out_edges:
                stmts.append(_parse_stmt(f"{self._tape(e)}.append(_d)"))
            return stmts
        for e in node.out_edges:
            w = node.out_rates[e.src_port]
            if w:
                stmts.extend(self._move(tin, cin, self._tape(e), w))
        return stmts

    def _joiner_stmts(self, node) -> List[ast.stmt]:
        out_edge = node.out_edges[0]
        tout = self._tape(out_edge)
        stmts: List[ast.stmt] = []
        if node.flavor == COMBINE:
            i = self.node_index[node]
            reducer = getattr(getattr(node.obj, "joiner", None), "reducer", None)
            pops = []
            for k, e in enumerate(node.in_edges):
                tin, cin = self._tape(e), self._cur(e)
                stmts.append(_parse_stmt(f"_c{k} = {tin}[{cin}]"))
                stmts.append(_parse_stmt(f"{cin} += 1"))
                pops.append(f"_c{k}")
            if reducer is None:
                stmts.append(_parse_stmt(f"{tout}.append(_c0)"))
            else:
                self.reducer_idx.append(i)
                stmts.append(
                    _parse_stmt(f"{tout}.append(_rd{i}([{', '.join(pops)}]))")
                )
            return stmts
        for e in node.in_edges:
            w = node.in_rates[e.dst_port]
            if w:
                stmts.extend(self._move(self._tape(e), self._cur(e), tout, w))
        return stmts


# -- module emission ----------------------------------------------------------


def _indent(lines: Sequence[str], level: int = 1) -> List[str]:
    pad = "    " * level
    return [pad + line if line else line for line in lines]


def _kernel_call_lines(i: int, count: int) -> List[str]:
    """Guarded inline-kernel invocation with the runtime demotion net."""
    return [
        f"_n = {count} * scale",
        f"if _dm.get({i}):",
        f"    _run_loop(f{i}, _n)",
        "else:",
        "    try:",
        f"        _run_lifted(f{i}, _K{i}, _n)",
        "    except Exception:",
        f"        _dm[{i}] = True",
        f"        _run_loop(f{i}, _n)",
    ]


def emit_module(plan, fingerprint: str) -> Tuple[str, dict]:
    """Emit the plan's fused source module; returns ``(source, meta)``.

    ``meta`` (also embedded in the source as ``__codegen_meta__``) records
    the per-block lowering so a cached module can be rebound without
    re-running mode resolution, and so ``engine_report()`` can show
    codegen-vs-fallback per block.
    """
    node_index = {node: i for i, node in enumerate(plan.graph.nodes)}
    edge_index = {edge: i for i, edge in enumerate(plan.graph.edges)}
    blocks = layout_blocks(plan)

    meta_blocks: List[dict] = []
    kernel_defs: List[str] = []
    kernels_done: set = set()
    body: List[str] = []

    def add_kernel(node) -> None:
        i = node_index[node]
        if i not in kernels_done:
            kernels_done.add(i)
            kernel_defs.append(kernel_source(type(node.filter), f"_K{i}"))

    def emit_phase(ph: CompiledPhase, out: List[str]) -> dict:
        node = ph.node
        i = node_index[node]
        mode = resolve_phase_mode(ph)
        out.append(f"# {node.name}: {mode}")
        if mode == "inline":
            add_kernel(node)
            out.extend(_kernel_call_lines(i, ph.count))
        else:
            out.append(f"x{i}({ph.count} * scale)")
        return {"kind": "phase", "node": i, "mode": mode, "name": node.name}

    for kind, obj in blocks:
        if kind == "phase":
            meta_blocks.append(emit_phase(obj, body))
        elif kind == "fused":
            stages: Sequence[CompiledPhase] = obj.stages
            names = "+".join(st.node.name for st in stages)
            body.append(f"# fused chain: {names}")
            stage_meta: List[dict] = []
            chain_idx = len(meta_blocks)
            inner: List[str] = []
            restore: List[str] = []
            last = len(stages) - 1
            for si, st in enumerate(stages):
                node = st.node
                i = node_index[node]
                if si:
                    tape = f"tp{chain_idx}_{si - 1}"
                    inner.append(f"f{i}.input = {tape}")
                    restore.append(f"f{i}.input = ch{edge_index[node.in_edges[0]]}")
                if si < last:
                    tape = f"tp{chain_idx}_{si}"
                    inner.append(f"f{i}.output = {tape}")
                    restore.append(f"f{i}.output = ch{edge_index[node.out_edges[0]]}")
                stage_meta.append(emit_phase(st, inner))
            body.append("try:")
            body.extend(_indent(inner))
            body.append("finally:")
            body.extend(_indent(restore))
            for st in stages[:-1]:
                e = st.node.out_edges[0]
                moved = st.count * e.push_rate
                body.append(f"ch{edge_index[e]}.pushed_count += {moved} * scale")
                body.append(f"ch{edge_index[e]}.popped_count += {moved} * scale")
            meta_blocks.append(
                {
                    "kind": "fused",
                    "nodes": [node_index[st.node] for st in stages],
                    "stages": stage_meta,
                    "name": names,
                }
            )
        else:  # core
            core: CoreLoopRunner = obj
            core_nodes = sorted(node_index[n] for n in core.nodes)
            body.append(f"# cyclic core: {'+'.join(sorted(n.name for n in core.nodes))}")
            try:
                emitter = CoreEmitter(plan, core, node_index, edge_index)
                lines = emitter.emit()
            except Unsupported as exc:
                body.append(f"# core fallback ({exc})")
                body.append("_core_run(scale)")
                meta_blocks.append(
                    {
                        "kind": "core",
                        "mode": "fallback",
                        "nodes": core_nodes,
                        "reason": str(exc),
                    }
                )
            else:
                body.extend(lines)
                meta_blocks.append(
                    {
                        "kind": "core",
                        "mode": "inline",
                        "nodes": core_nodes,
                        "filters": emitter.filter_idx,
                        "globals": {str(k): v for k, v in emitter.globals_map.items()},
                        "reducers": emitter.reducer_idx,
                    }
                )

    meta = {
        "emitter": EMITTER_VERSION,
        "fingerprint": fingerprint,
        "blocks": meta_blocks,
    }
    src_lines = [
        '"""Auto-generated by repro.runtime.codegen — do not edit.',
        "",
        "One fused steady-state module for a compiled ExecutionPlan:",
        "run_chunk(scale) executes `scale` steady periods with no engine",
        "dispatch loop.  Names like f3/x3/ch2/_K3 are injected by the",
        "binder (repro.runtime.codegen.bind_module) before first use.",
        '"""',
        "",
        f"__codegen_meta__ = {meta!r}",
        "",
    ]
    for kdef in kernel_defs:
        src_lines.append(kdef)
        src_lines.append("")
    src_lines.append("")
    src_lines.append("def run_chunk(scale):")
    src_lines.extend(_indent(body))
    src_lines.append("")
    return "\n".join(src_lines), meta
