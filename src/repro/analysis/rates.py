"""Static rate analysis: symbolically count ``push``/``pop``/``peek``.

An abstract interpreter over a filter's ``work()`` AST.  Values live in a
three-level domain:

* **concrete** Python values (ints, floats, lists, modules, …) — evaluated
  exactly, so constant-bound loops contribute exact channel counts;
* :data:`DATA` — a value derived from the input channel (``pop``/``peek``
  results and anything computed from them);
* :data:`UNKNOWN` — a non-channel value the analysis cannot resolve (reads
  of mutated attributes, results of opaque calls).

Channel counts are intervals.  Conditionals with concrete tests follow one
arm; tests over :data:`DATA`/:data:`UNKNOWN` run *both* arms and merge the
counts (min/max), so a conditional that pushes on both branches still has
an exact rate.  ``while`` loops and iterations over non-concrete values
cannot be bounded: if their body touches a channel the report is flagged
*dynamic* and no exactness claims are made (→ ``SL005`` instead of a false
``SL001``).

Safety rules — the analyzer must never perturb the program under analysis:

* **no foreign calls**: only a small whitelist of builtins, ``math``/
  ``numpy`` functions, and the filter's own plain helper methods are ever
  invoked/inlined.  Anything else yields :data:`UNKNOWN` *without being
  called* (a ``self.portal.retune(…)`` must not send a real message at
  lint time!);
* **no instance mutation**: mutable attribute values are shallow-copied on
  read, and stores into containers that alias live objects are skipped.

The pass also records *certification blockers*: reasons the computation is
not provably safe to run column-wise over a whole batch.  These feed the
vectorization proof in :mod:`repro.analysis.vectorsafety`.

:func:`analyze_rates` memoizes reports.  The executor is deterministic in
what it reads from outside its own state: ``self.<attr>`` values, global
and builtin names, attributes of modules and classes, and the code of
``work`` and of every helper it inlines.  Each run records those reads
with a fingerprint (see :func:`_value_fp`); a later instance of the same
class, declared rates and unstable-attribute set reuses the report when
every recorded read fingerprints equal on it.  A run that reads a value
with no fingerprint (a Portal, a callable, any other opaque object) is
never stored.
"""

from __future__ import annotations

import ast
import math
import operator
import types
import weakref
from array import array
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.effects import (
    CHANNEL_ATTRS,
    SourceUnavailable,
    as_load,
    method_ast,
    method_code,
)
from repro.graph.base import Filter, Rate
from repro.obs.metrics import METRICS, MeteredStats

try:  # numpy is an optional acceleration dependency elsewhere in the repo
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: math functions that vectorize bit-exactly (or via a guarded wrapper) in
#: runtime/vectorize.py; calling any other function on DATA blocks the proof.
VECTOR_SAFE_MATH = frozenset(
    {
        "sqrt", "sin", "cos", "floor", "ceil", "trunc", "fabs", "copysign",
        "atan2", "hypot", "fmod", "pow", "atan", "asin", "acos", "tan",
        "exp", "expm1", "log", "log1p", "log2", "log10", "sinh", "cosh",
        "tanh",
    }
)


class _Data:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "DATA"


class _Unknown:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "UNKNOWN"


class _Self:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "SELF"


class _Channel:
    __slots__ = ("direction",)

    def __init__(self, direction: str) -> None:
        self.direction = direction


DATA = _Data()
UNKNOWN = _Unknown()
SELF = _Self()


def _tainted(*values: Any) -> Any:
    """Combine taints: DATA dominates UNKNOWN dominates concrete."""
    if any(v is DATA for v in values):
        return DATA
    if any(v is UNKNOWN for v in values):
        return UNKNOWN
    return None


@dataclass
class Interval:
    lo: float
    hi: float

    @staticmethod
    def exactly(n: float) -> "Interval":
        return Interval(n, n)

    def bump(self, n: float = 1) -> None:
        self.lo += n
        self.hi += n

    def merged(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def copy(self) -> "Interval":
        return Interval(self.lo, self.hi)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi and math.isfinite(self.lo)

    def __str__(self) -> str:
        if self.exact:
            return str(int(self.lo))
        hi = "inf" if math.isinf(self.hi) else str(int(self.hi))
        return f"[{int(self.lo)}, {hi}]"


@dataclass
class RateReport:
    """Result of symbolically executing one ``work()``."""

    pop: Interval
    push: Interval
    #: Largest peek offset (relative to the pre-firing window) that can be
    #: reached; -1 when work never peeks.
    max_peek: float
    #: Reasons exact counting was impossible (→ SL005).
    dynamic: Tuple[str, ...]
    #: Definite peek-out-of-bounds findings (→ SL003).
    peek_violations: Tuple[str, ...]
    #: Reasons batch (column-wise) execution is not provably safe.
    cert_blockers: Tuple[str, ...]

    @property
    def exact(self) -> bool:
        return not self.dynamic and self.pop.exact and self.push.exact


class _PathRaise(Exception):
    """The analyzed path raises: it contributes no steady-state counts."""


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _GiveUp(Exception):
    """Budget exceeded or structurally unanalyzable; degrade to dynamic."""


_BIN_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
    ast.LShift: operator.lshift, ast.RShift: operator.rshift,
    ast.BitOr: operator.or_, ast.BitAnd: operator.and_,
    ast.BitXor: operator.xor, ast.MatMult: operator.matmul,
}
_UNARY_OPS = {
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Invert: operator.invert, ast.Not: operator.not_,
}
_CMP_OPS = {
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
    ast.Is: operator.is_, ast.IsNot: operator.is_not,
    ast.In: lambda a, b: a in b, ast.NotIn: lambda a, b: a not in b,
}

_SAFE_BUILTINS = {
    range, len, abs, min, max, int, float, bool, round, sum, divmod,
    list, tuple, enumerate, zip, reversed, sorted, complex, str,
}
#: Safe builtins that also map elementwise over a batch column.
_DATA_SAFE_BUILTINS = {abs}

_MAX_STEPS = 2_000_000
_MAX_CALL_DEPTH = 8


class _State:
    """Mutable per-path state: environment + channel counters."""

    __slots__ = ("env", "pop", "push")

    def __init__(self, env: Dict[str, Any], pop: Interval, push: Interval) -> None:
        self.env = env
        self.pop = pop
        self.push = push

    def clone(self) -> "_State":
        return _State(dict(self.env), self.pop.copy(), self.push.copy())

    def merge(self, other: "_State") -> None:
        self.pop = self.pop.merged(other.pop)
        self.push = self.push.merged(other.push)
        merged: Dict[str, Any] = {}
        for name, val in self.env.items():
            if name not in other.env:
                continue
            oval = other.env[name]
            if val is oval:
                merged[name] = val
            else:
                try:
                    same = bool(val == oval)
                except Exception:
                    same = False
                if same and type(val) is type(oval):
                    merged[name] = val
                else:
                    taint = _tainted(val, oval)
                    merged[name] = taint if taint is not None else UNKNOWN
        self.env = merged


class RateAnalyzer:
    """Symbolic executor for one filter instance's ``work()``."""

    def __init__(self, filt: Filter, unstable_attrs: Set[str]) -> None:
        self.filt = filt
        self.cls = type(filt)
        self.globals, self.builtins = _namespaces(self.cls)
        self.unstable = set(unstable_attrs)
        self.max_peek: float = -1
        self.dynamic: List[str] = []
        self.violations: List[str] = []
        self.blockers: List[str] = []
        self.steps = 0
        #: id()s of objects owned by the live instance — never mutate them.
        self.foreign: Set[int] = set()
        #: True once a channel reference was stored somewhere the analysis
        #: cannot see through (an attribute of an opaque object, an argument
        #: to an unevaluated call).  After that, any opaque call may drive
        #: this filter's channels, so such calls must degrade to dynamic.
        self.channel_escaped = False
        self.ended: List[_State] = []
        #: Outside reads ``(kind, name, owner, fingerprint)`` in execution
        #: order, for the memo; None once a read had no fingerprint.
        self.reads: Optional[List[tuple]] = []
        self._read_keys: Set[tuple] = set()

    # -- memo read-set -------------------------------------------------------

    def record(self, kind: str, name: str, fp: Any, owner: Any = None) -> None:
        if self.reads is None:
            return
        key = (kind, name, id(owner))
        if key in self._read_keys:
            return
        if fp is _OPAQUE:
            self.reads = None
            return
        self._read_keys.add(key)
        self.reads.append((kind, name, None if owner is None else _Ident(owner), fp))

    # -- notes ---------------------------------------------------------------

    def note_dynamic(self, reason: str) -> None:
        if reason not in self.dynamic:
            self.dynamic.append(reason)

    def note_blocker(self, reason: str) -> None:
        if reason not in self.blockers:
            self.blockers.append(reason)

    def note_violation(self, reason: str) -> None:
        if reason not in self.violations:
            self.violations.append(reason)

    def tick(self) -> None:
        self.steps += 1
        if self.steps > _MAX_STEPS:
            self.note_dynamic("analysis budget exceeded")
            raise _GiveUp

    # -- entry ---------------------------------------------------------------

    def run(self) -> RateReport:
        pop = Interval.exactly(0)
        push = Interval.exactly(0)
        # A work() that is not a plain function has no code to key on.
        work_code = method_code(self.cls, "work")
        self.record("method", "work", _Ident(work_code) if work_code else _OPAQUE)
        try:
            fn = method_ast(self.cls)
        except SourceUnavailable as exc:
            self.note_dynamic(str(exc))
            self.note_blocker("work() source unavailable")
            return self._report(Interval(0, math.inf), Interval(0, math.inf))
        self_name = fn.args.args[0].arg if fn.args.args else "self"
        state = _State({self_name: SELF}, pop, push)
        try:
            try:
                self.exec_body(fn.body, state, depth=0)
            except _Return:
                pass
            except (_Break, _Continue):
                self.note_dynamic("break/continue outside a loop")
        except _PathRaise:
            # Every path raises: work cannot complete a firing.  Report what
            # was counted before the raise and flag it.
            self.note_dynamic("work() unconditionally raises")
            self.note_blocker("work() unconditionally raises")
        except _GiveUp:
            state.pop = state.pop.merged(Interval(state.pop.lo, math.inf))
            state.push = state.push.merged(Interval(state.push.lo, math.inf))
            self.note_blocker("rate analysis gave up")
        for done in self.ended:
            state.pop = state.pop.merged(done.pop)
            state.push = state.push.merged(done.push)
        return self._report(state.pop, state.push)

    def _report(self, pop: Interval, push: Interval) -> RateReport:
        return RateReport(
            pop=pop,
            push=push,
            max_peek=self.max_peek,
            dynamic=tuple(self.dynamic),
            peek_violations=tuple(self.violations),
            cert_blockers=tuple(self.blockers),
        )

    # -- channel ops ---------------------------------------------------------

    def do_pop(self, state: _State) -> Any:
        if state.pop.exact and state.pop.hi == self.filt.rate.pop:
            self.note_violation(
                f"work() pops more than the declared pop rate "
                f"{self.filt.rate.pop}"
            )
        state.pop.bump()
        return DATA

    def do_peek(self, state: _State, index: Any) -> Any:
        declared = self.filt.rate.peek
        if isinstance(index, bool) or not isinstance(index, (int, float)):
            taint = _tainted(index)
            if taint is DATA:
                self.note_blocker("peek index depends on stream data")
            # peek() never consumes, so an unresolvable index costs only the
            # static peek bound — the pop/push counts stay exact.
            self.max_peek = math.inf
            self.note_blocker("peek index is not statically resolvable")
            return DATA
        if index < 0:
            self.note_violation(f"negative peek index {index!r}")
            return DATA
        lo_off = state.pop.lo + index
        hi_off = state.pop.hi + index
        if lo_off >= declared:
            self.note_violation(
                f"peek offset {int(lo_off)} out of bounds for declared "
                f"peek rate {declared}"
            )
        self.max_peek = max(self.max_peek, hi_off)
        return DATA

    def do_push(self, state: _State, value: Any) -> None:
        if value is UNKNOWN:
            self.note_blocker("pushes a value the analysis cannot type")
        elif value is not DATA and not isinstance(value, (int, float, complex, bool)):
            self.note_blocker(
                f"pushes a non-scalar {type(value).__name__} value"
            )
        if state.push.exact and state.push.hi == self.filt.rate.push:
            self.note_violation(
                f"work() pushes more than the declared push rate "
                f"{self.filt.rate.push}"
            )
        state.push.bump()

    # -- statements ----------------------------------------------------------

    def exec_body(self, stmts: List[ast.stmt], state: _State, depth: int) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, state, depth)

    def exec_stmt(self, stmt: ast.stmt, state: _State, depth: int) -> None:
        self.tick()
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, state, depth)
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, state, depth)
            for target in stmt.targets:
                self.assign(target, value, state, depth)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, state, depth)
                self.assign(stmt.target, value, state, depth)
        elif isinstance(stmt, ast.AugAssign):
            load = ast.copy_location(
                ast.BinOp(
                    left=as_load(stmt.target), op=stmt.op, right=stmt.value
                ),
                stmt,
            )
            value = self.eval(load, state, depth)
            self.assign(stmt.target, value, state, depth)
        elif isinstance(stmt, ast.If):
            self.exec_if(stmt, state, depth)
        elif isinstance(stmt, ast.For):
            self.exec_for(stmt, state, depth)
        elif isinstance(stmt, ast.While):
            self.exec_while(stmt, state, depth)
        elif isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, state, depth) if stmt.value else None
            raise _Return(value)
        elif isinstance(stmt, ast.Raise):
            raise _PathRaise
        elif isinstance(stmt, ast.Assert):
            test = self.eval(stmt.test, state, depth)
            if _tainted(test) is None:
                try:
                    if not test:
                        raise _PathRaise
                except _PathRaise:
                    raise
                except Exception:
                    pass
        elif isinstance(stmt, (ast.Break,)):
            raise _Break
        elif isinstance(stmt, ast.Continue):
            raise _Continue
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, ast.Delete):
            pass
        elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
            pass  # effects pass reports these
        elif isinstance(stmt, ast.Try):
            self.exec_try(stmt, state, depth)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self._degrade_if_channel_ops(stmt, "nested definition")
            state.env[stmt.name] = UNKNOWN
            self.note_blocker(f"nested {type(stmt).__name__} in work()")
        else:
            # try/with/match/… — too much control-flow ambiguity to model.
            self._degrade_if_channel_ops(stmt, type(stmt).__name__)
            self._havoc_assigned(stmt, state)
            self.note_blocker(f"unmodelled statement {type(stmt).__name__}")

    def exec_try(self, stmt: ast.Try, state: _State, depth: int) -> None:
        """Model try/finally exactly; try/except degrades to dynamic.

        Without handlers the body either completes or aborts the firing, so
        counting the body then the finalizer is exact.  With ``except``
        clauses the transfer points are unknowable statically.
        """
        if stmt.handlers:
            self._degrade_if_channel_ops(stmt, "try/except")
            self._havoc_assigned(stmt, state)
            self.note_blocker("try/except in work()")
            return
        try:
            self.exec_body(stmt.body, state, depth)
        except (_Return, _Break, _Continue, _PathRaise):
            self.exec_body(stmt.finalbody, state, depth)
            raise
        self.exec_body(stmt.orelse, state, depth)
        self.exec_body(stmt.finalbody, state, depth)

    def _degrade_if_channel_ops(self, node: ast.AST, what: str) -> None:
        if _has_consuming_ops(node):
            self.note_dynamic(f"channel operation inside unanalyzable {what}")
        elif _has_channel_ops(node):
            self.max_peek = math.inf
            self.note_blocker(f"peek inside unanalyzable {what}")

    def _havoc_assigned(self, node: ast.AST, state: _State) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
                state.env[sub.id] = UNKNOWN

    # -- branching -----------------------------------------------------------

    def exec_if(self, stmt: ast.If, state: _State, depth: int) -> None:
        test = self.eval(stmt.test, state, depth)
        taint = _tainted(test)
        if taint is None:
            try:
                taken = bool(test)
            except Exception:
                taint = UNKNOWN
            else:
                self.exec_body(stmt.body if taken else stmt.orelse, state, depth)
                return
        if taint is DATA:
            self.note_blocker("branch condition depends on stream data")
        else:
            self.note_blocker("branch condition is not statically resolvable")
        self._run_both(stmt.body, stmt.orelse, state, depth)

    def _run_both(
        self,
        body: List[ast.stmt],
        orelse: List[ast.stmt],
        state: _State,
        depth: int,
    ) -> None:
        """Execute both arms of an unresolvable branch and merge counts."""
        outcomes: List[Tuple[str, Optional[_State], Optional[BaseException]]] = []
        for arm in (body, orelse):
            arm_state = state.clone()
            try:
                self.exec_body(arm, arm_state, depth)
            except _PathRaise:
                outcomes.append(("raise", None, None))
            except _Return:
                self.ended.append(arm_state)
                outcomes.append(("return", None, None))
            except (_Break, _Continue) as exc:
                self.note_dynamic(
                    "break/continue under a data-dependent condition"
                )
                outcomes.append(("jump", arm_state, exc))
            else:
                outcomes.append(("fall", arm_state, None))
        fallthrough = [s for kind, s, _ in outcomes if kind == "fall" and s]
        if fallthrough:
            merged = fallthrough[0]
            for extra in fallthrough[1:]:
                merged.merge(extra)
            # jump arms contribute their counts conservatively
            for kind, s, _ in outcomes:
                if kind == "jump" and s is not None:
                    merged.merge(s)
            state.env = merged.env
            state.pop = merged.pop
            state.push = merged.push
            return
        # No arm falls through: propagate the strongest control transfer.
        for kind, s, exc in outcomes:
            if kind == "jump" and exc is not None:
                if s is not None:
                    state.env = s.env
                    state.pop = s.pop
                    state.push = s.push
                raise exc
        if any(kind == "return" for kind, _, _ in outcomes):
            raise _Return(None)
        raise _PathRaise

    # -- loops ---------------------------------------------------------------

    def exec_for(self, stmt: ast.For, state: _State, depth: int) -> None:
        iterable = self.eval(stmt.iter, state, depth)
        taint = _tainted(iterable)
        if taint is not None:
            if taint is DATA:
                self.note_blocker("loop iterates over stream data")
            self._dynamic_loop(stmt, state, depth, "for loop over an unresolvable iterable")
            return
        try:
            items = list(iterable)
        except TypeError:
            self.note_dynamic("for loop over a non-iterable value")
            self._dynamic_loop(stmt, state, depth, "for loop over a non-iterable")
            return
        for item in items:
            self.tick()
            self.assign(stmt.target, item, state, depth)
            try:
                self.exec_body(stmt.body, state, depth)
            except _Break:
                break
            except _Continue:
                continue
        else:
            self.exec_body(stmt.orelse, state, depth)

    def exec_while(self, stmt: ast.While, state: _State, depth: int) -> None:
        # Try bounded concrete execution first (e.g. ``while i < n: i += 1``).
        snapshot = state.clone()
        bounded = self._try_concrete_while(stmt, state, depth)
        if bounded:
            return
        state.env = snapshot.env
        state.pop = snapshot.pop
        state.push = snapshot.push
        test = self.eval(stmt.test, state, depth)
        if _tainted(test) is DATA:
            self.note_blocker("while condition depends on stream data")
        else:
            self.note_blocker("while loop is not statically bounded")
        self._dynamic_loop(stmt, state, depth, "while loop with an unresolvable bound")

    def _try_concrete_while(self, stmt: ast.While, state: _State, depth: int) -> bool:
        """Concretely iterate a while loop; False if any test is non-concrete."""
        iterations = 0
        while True:
            self.tick()
            test = self.eval(stmt.test, state, depth)
            if _tainted(test) is not None:
                return False
            try:
                alive = bool(test)
            except Exception:
                return False
            if not alive:
                self.exec_body(stmt.orelse, state, depth)
                return True
            iterations += 1
            if iterations > 100_000:
                self.note_dynamic("while loop exceeded the iteration budget")
                return False
            try:
                self.exec_body(stmt.body, state, depth)
            except _Break:
                return True
            except _Continue:
                continue

    def _dynamic_loop(self, stmt: ast.AST, state: _State, depth: int, what: str) -> None:
        """A loop whose trip count is unknown: body 0..inf times."""
        body = stmt.body if hasattr(stmt, "body") else []
        if _has_consuming_ops(stmt):
            self.note_dynamic(f"channel operation inside {what}")
        elif _has_channel_ops(stmt):
            # peek() never consumes: a loop of peeks with an unknown trip
            # count leaves the pop/push counts exact — only the reachable
            # peek window is lost (the probe below may see a resolvable
            # index, but iteration-varying state can reach further).
            self.max_peek = math.inf
            self.note_blocker(f"peek window unbounded inside {what}")
        before_pop, before_push = state.pop.copy(), state.push.copy()
        # Havoc loop-assigned names, then analyze the body once for peek
        # bounds and nested findings; counts widen to [before, inf).
        self._havoc_assigned(stmt, state)
        probe = state.clone()
        try:
            self.exec_body(body, probe, depth)
        except (_Return, _Break, _Continue, _PathRaise):
            pass
        if probe.pop.hi > before_pop.hi:
            state.pop = Interval(before_pop.lo, math.inf)
        if probe.push.hi > before_push.hi:
            state.push = Interval(before_push.lo, math.inf)
        self._havoc_assigned(stmt, state)

    # -- assignment ----------------------------------------------------------

    def assign(self, target: ast.expr, value: Any, state: _State, depth: int) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            taint = _tainted(value)
            if taint is None:
                try:
                    items = list(value)
                except TypeError:
                    items = None
                if items is not None and len(items) == len(target.elts) and not any(
                    isinstance(e, ast.Starred) for e in target.elts
                ):
                    for elt, item in zip(target.elts, items):
                        self.assign(elt, item, state, depth)
                    return
                taint = UNKNOWN
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self.assign(inner, taint, state, depth)
            return
        if isinstance(target, ast.Subscript):
            container = self.eval(target.value, state, depth)
            index = self.eval(target.slice, state, depth)
            if _tainted(index) is DATA:
                self.note_blocker("store index depends on stream data")
            if _tainted(container) is not None or id(container) in self.foreign:
                return
            if _tainted(index) is not None:
                return
            try:
                container[index] = value
            except Exception:
                pass
            return
        if isinstance(target, ast.Attribute):
            # self.X = … — a state write; the effects pass reports it.  The
            # attribute becomes unstable for the rest of this analysis.
            base = self.eval(target.value, state, depth)
            if isinstance(value, _Channel):
                # A channel reference now lives inside an object the analysis
                # reads back as opaque (delegation idiom: inner.output =
                # self.output); later opaque calls may push/pop through it.
                self.channel_escaped = True
            if base is SELF:
                self.unstable.add(target.attr)
            return
        if isinstance(target, ast.Starred):
            self.assign(target.value, UNKNOWN, state, depth)
            return

    # -- expressions ---------------------------------------------------------

    def eval(self, node: ast.expr, state: _State, depth: int) -> Any:
        self.tick()
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in state.env:
                return state.env[node.id]
            return self._global(node.id)
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node, state, depth)
        if isinstance(node, ast.Call):
            return self.eval_call(node, state, depth)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, state, depth)
            right = self.eval(node.right, state, depth)
            taint = _tainted(left, right)
            if taint is not None:
                return taint
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                return UNKNOWN
            try:
                return op(left, right)
            except Exception:
                return UNKNOWN
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, state, depth)
            taint = _tainted(operand)
            if taint is not None:
                if isinstance(node.op, ast.Not) and taint is DATA:
                    self.note_blocker("boolean not applied to stream data")
                return taint
            op = _UNARY_OPS.get(type(node.op))
            if op is None:
                return UNKNOWN
            try:
                return op(operand)
            except Exception:
                return UNKNOWN
        if isinstance(node, ast.Compare):
            values = [self.eval(node.left, state, depth)]
            values.extend(self.eval(c, state, depth) for c in node.comparators)
            taint = _tainted(*values)
            if taint is not None:
                if taint is DATA:
                    self.note_blocker("comparison over stream data")
                return taint
            try:
                result = True
                left = values[0]
                for op_node, right in zip(node.ops, values[1:]):
                    op = _CMP_OPS.get(type(op_node))
                    if op is None:
                        return UNKNOWN
                    if not op(left, right):
                        result = False
                        break
                    left = right
                return result
            except Exception:
                return UNKNOWN
        if isinstance(node, ast.BoolOp):
            values = [self.eval(v, state, depth) for v in node.values]
            taint = _tainted(*values)
            if taint is not None:
                if taint is DATA:
                    self.note_blocker("boolean operator over stream data")
                return taint
            try:
                if isinstance(node.op, ast.And):
                    result: Any = True
                    for v in values:
                        result = v
                        if not v:
                            break
                    return result
                result = False
                for v in values:
                    result = v
                    if v:
                        break
                return result
            except Exception:
                return UNKNOWN
        if isinstance(node, ast.IfExp):
            test = self.eval(node.test, state, depth)
            taint = _tainted(test)
            if taint is None:
                try:
                    taken = bool(test)
                except Exception:
                    taint = UNKNOWN
                else:
                    return self.eval(node.body if taken else node.orelse, state, depth)
            if taint is DATA:
                self.note_blocker("conditional expression over stream data")
            else:
                self.note_blocker("conditional expression is not statically resolvable")
            a = self.eval(node.body, state, depth)
            b = self.eval(node.orelse, state, depth)
            if a is b:
                return a
            inner = _tainted(a, b)
            return inner if inner is not None else UNKNOWN
        if isinstance(node, ast.Subscript):
            container = self.eval(node.value, state, depth)
            index = self.eval(node.slice, state, depth)
            taint = _tainted(container, index)
            if taint is not None:
                if _tainted(index) is DATA:
                    self.note_blocker("subscript index depends on stream data")
                return taint
            try:
                result = container[index]
            except Exception:
                return UNKNOWN
            if id(container) in self.foreign:
                result = self._import_value(result)
            return result
        if isinstance(node, (ast.List, ast.Set)):
            items = [self.eval(e, state, depth) for e in node.elts]
            return items if isinstance(node, ast.List) else UNKNOWN
        if isinstance(node, ast.Tuple):
            return tuple(self.eval(e, state, depth) for e in node.elts)
        if isinstance(node, ast.Dict):
            result: Dict[Any, Any] = {}
            for k, v in zip(node.keys, node.values):
                if k is None:
                    return UNKNOWN
                key = self.eval(k, state, depth)
                if _tainted(key) is not None:
                    return UNKNOWN
                result[key] = self.eval(v, state, depth)
            return result
        if isinstance(node, ast.Slice):
            lower = self.eval(node.lower, state, depth) if node.lower else None
            upper = self.eval(node.upper, state, depth) if node.upper else None
            step = self.eval(node.step, state, depth) if node.step else None
            taint = _tainted(
                *(v for v in (lower, upper, step) if v is not None)
            )
            if taint is not None:
                return taint
            return slice(lower, upper, step)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self.eval_comprehension(node, state, depth)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, state, depth)
        if isinstance(node, ast.Lambda):
            self.note_blocker("lambda in work()")
            return UNKNOWN
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, state, depth)
            self.assign(node.target, value, state, depth)
            return value
        self.note_blocker(f"unmodelled expression {type(node).__name__}")
        if _has_consuming_ops(node):
            self.note_dynamic(
                f"channel operation inside unmodelled {type(node).__name__}"
            )
        elif _has_channel_ops(node):
            self.max_peek = math.inf
        return UNKNOWN

    def eval_comprehension(self, node: ast.expr, state: _State, depth: int) -> Any:
        gens = node.generators
        if len(gens) != 1 or gens[0].is_async:
            self.note_blocker("nested/async comprehension in work()")
            self._degrade_if_channel_ops(node, "comprehension")
            return UNKNOWN
        gen = gens[0]
        iterable = self.eval(gen.iter, state, depth)
        if _tainted(iterable) is not None:
            if _tainted(iterable) is DATA:
                self.note_blocker("comprehension iterates over stream data")
            self._degrade_if_channel_ops(node, "comprehension")
            return UNKNOWN
        try:
            items = list(iterable)
        except TypeError:
            self._degrade_if_channel_ops(node, "comprehension")
            return UNKNOWN
        out: List[Any] = []
        inner = state  # comprehension shares counts; env writes are scoped
        saved = dict(inner.env)
        try:
            for item in items:
                self.tick()
                self.assign(gen.target, item, inner, depth)
                keep = True
                for cond in gen.ifs:
                    test = self.eval(cond, inner, depth)
                    if _tainted(test) is not None:
                        self.note_blocker("comprehension filter is not resolvable")
                        self._degrade_if_channel_ops(node, "comprehension filter")
                        return UNKNOWN
                    if not test:
                        keep = False
                        break
                if keep:
                    out.append(self.eval(node.elt, inner, depth))
        finally:
            inner.env = saved
        return out

    # -- attribute / global resolution ---------------------------------------

    def _global(self, name: str) -> Any:
        value = _lookup_global(self.globals, self.builtins, name)
        self.record("global", name, _shared_fp(value))
        if value is _MISSING:
            return UNKNOWN
        if name in self.globals:
            self.foreign.add(id(value))
        return value

    def eval_attribute(self, node: ast.Attribute, state: _State, depth: int) -> Any:
        owner = self.eval(node.value, state, depth)
        if owner is SELF:
            attr = node.attr
            if attr in CHANNEL_ATTRS:
                return _Channel("in" if attr == "input" else "out")
            if attr in self.unstable:
                return UNKNOWN
            try:
                value = getattr(self.filt, attr)
            except AttributeError:
                self.record("attr", attr, _MISSING)
                self.note_dynamic(f"work() reads undefined attribute self.{attr}")
                return UNKNOWN
            self.record("attr", attr, _value_fp(value))
            return self._import_value(value)
        taint = _tainted(owner)
        if taint is DATA:
            self.note_blocker(f"attribute access .{node.attr} on stream data")
            return DATA
        if taint is UNKNOWN:
            return UNKNOWN
        if isinstance(owner, _Channel):
            return UNKNOWN
        value = self._getattr(owner, node.attr)
        if value is _MISSING:
            return UNKNOWN
        if id(owner) in self.foreign:
            value = self._import_value(value)
        return value

    def _getattr(self, owner: Any, name: str) -> Any:
        """``getattr`` on a concrete value; _MISSING when it raises.

        Attributes of shared objects (modules, classes, functions) can
        change between analyses, so those reads go into the read-set.
        """
        try:
            value = getattr(owner, name)
        except Exception:
            value = _MISSING
        if _is_shared(owner):
            self.record("getattr", name, _shared_fp(value), owner)
        return value

    def _import_value(self, value: Any) -> Any:
        """Bring a live object into the analysis without risking mutation."""
        if isinstance(value, (list, set)):
            copied = type(value)(value)
            return copied
        if isinstance(value, dict):
            return dict(value)
        if isinstance(value, bytearray):
            return bytearray(value)
        if _np is not None and isinstance(value, _np.ndarray):
            return value.copy()
        if isinstance(value, (int, float, complex, bool, str, bytes, tuple, frozenset, type(None))):
            return value
        # Opaque live object (Portal, callable, module instance, …): usable
        # for identity/marker checks but never mutated or called blindly.
        self.foreign.add(id(value))
        return value

    # -- calls ---------------------------------------------------------------

    def eval_call(self, node: ast.Call, state: _State, depth: int) -> Any:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = self.eval(func.value, state, depth)
            method = func.attr
            if owner is SELF:
                return self.call_self_method(node, method, state, depth)
            if isinstance(owner, _Channel):
                return self.call_channel(node, owner, method, state, depth)
            taint = _tainted(owner)
            if taint is not None:
                args = [self.eval(a, state, depth) for a in node.args]
                if taint is DATA:
                    self.note_blocker(
                        f"method call .{method}() on stream data"
                    )
                    return DATA
                if any(_tainted(a) is DATA for a in args):
                    return DATA
                if self.channel_escaped:
                    self.note_dynamic(
                        f"call .{method}() on an opaque object after a "
                        "channel reference escaped"
                    )
                return UNKNOWN
            callee = self._getattr(owner, method)
            if callee is _MISSING:
                callee = None
            return self.call_concrete(node, callee, state, depth)
        callee = self.eval(func, state, depth)
        taint = _tainted(callee)
        if taint is not None:
            if self.channel_escaped:
                self.note_dynamic(
                    "call through an unresolved callee after a channel "
                    "reference escaped"
                )
            self._consume_args(node, state, depth)
            return UNKNOWN
        return self.call_concrete(node, callee, state, depth)

    def _consume_args(self, node: ast.Call, state: _State, depth: int) -> List[Any]:
        args = []
        for a in node.args:
            args.append(self.eval(a, state, depth))
        for kw in node.keywords:
            if kw.value is not None:
                args.append(self.eval(kw.value, state, depth))
        if any(isinstance(a, _Channel) for a in args):
            self.channel_escaped = True
        return args

    def call_channel(
        self, node: ast.Call, channel: _Channel, method: str, state: _State, depth: int
    ) -> Any:
        if channel.direction == "in" and method == "pop" and not node.args:
            return self.do_pop(state)
        if channel.direction == "in" and method == "peek" and len(node.args) == 1:
            return self.do_peek(state, self.eval(node.args[0], state, depth))
        if channel.direction == "out" and method == "push" and len(node.args) == 1:
            self.do_push(state, self.eval(node.args[0], state, depth))
            return None
        self.note_dynamic(f"unmodelled channel call .{method}()")
        self.note_blocker(f"unmodelled channel call .{method}()")
        self._consume_args(node, state, depth)
        return UNKNOWN

    def call_self_method(
        self, node: ast.Call, method: str, state: _State, depth: int
    ) -> Any:
        if method == "pop" and not node.args and not node.keywords:
            return self.do_pop(state)
        if method == "peek" and len(node.args) == 1 and not node.keywords:
            return self.do_peek(state, self.eval(node.args[0], state, depth))
        if method == "push" and len(node.args) == 1 and not node.keywords:
            self.do_push(state, self.eval(node.args[0], state, depth))
            return None
        code = method_code(self.cls, method)
        self.record("method", method, _Ident(code) if code else _MISSING)
        if code is None:
            # A callable instance attribute or an unresolvable descriptor:
            # never call it.  If it could touch channels we cannot know.
            args = self._consume_args(node, state, depth)
            self.note_dynamic(f"opaque call self.{method}()")
            if any(_tainted(a) is DATA for a in args):
                self.note_blocker(f"opaque call self.{method}() on stream data")
            else:
                self.note_blocker(f"opaque call self.{method}()")
            return UNKNOWN
        if depth >= _MAX_CALL_DEPTH:
            self.note_dynamic(f"helper call self.{method}() exceeds inline depth")
            self.note_blocker(f"helper call self.{method}() exceeds inline depth")
            self._consume_args(node, state, depth)
            return UNKNOWN
        try:
            helper = method_ast(self.cls, method)
        except SourceUnavailable as exc:
            self.note_dynamic(str(exc))
            self.note_blocker(f"helper self.{method}() source unavailable")
            self._consume_args(node, state, depth)
            return UNKNOWN
        return self.inline_helper(node, helper, method, state, depth)

    def inline_helper(
        self,
        node: ast.Call,
        helper: ast.FunctionDef,
        method: str,
        state: _State,
        depth: int,
    ) -> Any:
        args = [self.eval(a, state, depth) for a in node.args]
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                self.note_dynamic(f"**kwargs call to self.{method}()")
                self.note_blocker(f"**kwargs call to self.{method}()")
                return UNKNOWN
            kwargs[kw.arg] = self.eval(kw.value, state, depth)
        params = helper.args
        if params.vararg or params.kwarg or params.posonlyargs or params.kwonlyargs:
            self.note_dynamic(f"helper self.{method}() has a complex signature")
            self.note_blocker(f"helper self.{method}() has a complex signature")
            return UNKNOWN
        names = [a.arg for a in params.args]
        env: Dict[str, Any] = {names[0]: SELF} if names else {}
        defaults = params.defaults
        required = names[1:]
        # Apply defaults from the tail.
        for name, default in zip(required[len(required) - len(defaults):], defaults):
            env[name] = self.eval(default, state, depth)
        for name, value in zip(required, args):
            env[name] = value
        for name, value in kwargs.items():
            if name not in names:
                self.note_dynamic(f"bad keyword {name!r} for self.{method}()")
                return UNKNOWN
            env[name] = value
        missing = [n for n in required if n not in env]
        if missing:
            self.note_dynamic(
                f"helper self.{method}() called without argument(s) {missing}"
            )
            return UNKNOWN
        if any(_tainted(v) is DATA for v in env.values()):
            # runtime/vectorize.py only rebinds ``math`` in work()'s own
            # globals; a helper calling real libm on a batch column would
            # fail or silently diverge, so data flowing into helpers blocks
            # certification (counting continues unaffected).
            self.note_blocker(
                f"stream data flows into helper self.{method}()"
            )
        sub = _State(env, state.pop, state.push)
        result: Any = None
        try:
            self.exec_body(helper.body, sub, depth + 1)
        except _Return as ret:
            result = ret.value
        except (_Break, _Continue):
            self.note_dynamic(f"stray break/continue in helper self.{method}()")
            result = UNKNOWN
        state.pop = sub.pop
        state.push = sub.push
        return result

    def call_concrete(self, node: ast.Call, callee: Any, state: _State, depth: int) -> Any:
        args = [self.eval(a, state, depth) for a in node.args]
        kwargs: Dict[str, Any] = {}
        for kw in node.keywords:
            if kw.arg is None:
                return UNKNOWN
            kwargs[kw.arg] = self.eval(kw.value, state, depth)
        if callee is None:
            return UNKNOWN
        has_data = any(_tainted(a) is DATA for a in list(args) + list(kwargs.values()))
        has_unknown = any(
            _tainted(a) is UNKNOWN for a in list(args) + list(kwargs.values())
        )
        if any(a is SELF for a in list(args) + list(kwargs.values())):
            self.note_dynamic("self escapes into a foreign call")
            self.note_blocker("self escapes into a foreign call")
            return UNKNOWN
        module = getattr(callee, "__module__", None) or ""
        is_math = module == "math" or (
            getattr(math, getattr(callee, "__name__", ""), None) is callee
        )
        is_np = _np is not None and (module.startswith("numpy"))
        if module.startswith("numpy.random"):
            self.reads = None  # evaluated below, and never the same twice
        if has_data:
            if is_math:
                name = getattr(callee, "__name__", "?")
                if name not in VECTOR_SAFE_MATH or depth > 0:
                    self.note_blocker(
                        f"math.{name}() on stream data"
                        + (" inside a helper" if depth > 0 else " is not batch-exact")
                    )
                return DATA
            if callee in _DATA_SAFE_BUILTINS:
                return DATA
            name = getattr(callee, "__name__", repr(callee))
            self.note_blocker(f"call to {name}() on stream data")
            if callee in _SAFE_BUILTINS or is_np:
                return DATA
            return DATA
        if has_unknown:
            return UNKNOWN
        if callee in _SAFE_BUILTINS or is_math or is_np:
            try:
                return callee(*args, **kwargs)
            except Exception:
                return UNKNOWN
        # Foreign callable on concrete args: NOT executed (it could have
        # arbitrary side effects — think portal.setf or file I/O).
        name = getattr(callee, "__name__", type(callee).__name__)
        self.note_dynamic(f"unwhitelisted call {name}() left unevaluated")
        return UNKNOWN


def _has_channel_ops(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in {"pop", "peek", "push", "pop_many", "push_many"}:
                return True
    return False


def _has_consuming_ops(node: ast.AST) -> bool:
    """Channel operations that move the pop/push counters — ``peek`` is
    read-only and excluded, so peek-only constructs never cost exactness."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in {"pop", "push", "pop_many", "push_many"}:
                return True
    return False


def inspect_unwrap(fn: Any) -> Any:
    import inspect

    try:
        return inspect.unwrap(fn)
    except Exception:
        return fn


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------

#: Marks a read that found nothing (undefined name or attribute).
_MISSING = object()
#: A value with no fingerprint: the run that read it is never memoized.
_OPAQUE = object()

_EXACT_SCALARS = frozenset({int, bool, str, bytes, type(None)})


def _value_fp(value: Any) -> Any:
    """A hashable stand-in that is equal only for values the analyzer
    cannot tell apart, or :data:`_OPAQUE`.

    Scalars, str/bytes, tuples/lists of those (recursively), ndarrays as
    dtype+shape+bytes, and :class:`Rate` as its three ints.  Types are part
    of the fingerprint (``1``, ``1.0`` and ``True`` differ) and floats
    compare exactly (``-0.0`` differs from ``0.0``, NaN equals NaN).
    """
    kind = type(value)
    if kind in _EXACT_SCALARS:
        return (kind, value)
    if kind is float:
        return (kind, value.hex())
    if kind is complex:
        return (kind, value.real.hex(), value.imag.hex())
    if kind is list or kind is tuple:
        item_kinds = set(map(type, value))
        if len(item_kinds) == 1:
            (item_kind,) = item_kinds
            if item_kind is float:
                return (kind, float, array("d", value).tobytes())
            if item_kind in _EXACT_SCALARS:
                return (kind, item_kind, tuple(value))
        items = tuple(_value_fp(v) for v in value)
        if any(item is _OPAQUE for item in items):
            return _OPAQUE
        return (kind, items)
    if kind is Rate:
        return (kind, value.peek, value.pop, value.push)
    if _np is not None and (kind is _np.ndarray or isinstance(value, _np.generic)):
        if value.dtype.hasobject:
            return _OPAQUE
        return (kind, value.dtype.str, value.shape, value.tobytes())
    return _OPAQUE


def _is_shared(value: Any) -> bool:
    """Modules, classes and other callables: compared by identity."""
    return isinstance(value, types.ModuleType) or callable(value)


def _shared_fp(value: Any) -> Any:
    """Fingerprint of a global or an attribute of a shared object."""
    if value is _MISSING:
        return _MISSING
    return _Ident(value) if _is_shared(value) else _value_fp(value)


class _Ident:
    """Identity of a recorded object, weakly held where the type allows."""

    __slots__ = ("ref",)

    def __init__(self, obj: Any) -> None:
        try:
            self.ref = weakref.ref(obj)
        except TypeError:  # ufuncs, some builtins: long-lived anyway
            self.ref = lambda: obj

    def __call__(self) -> Any:
        return self.ref()


def _matches(recorded: Any, value: Any) -> bool:
    if recorded is _MISSING or value is _MISSING:
        return recorded is value
    if isinstance(recorded, _Ident):
        return recorded() is value
    return recorded == _value_fp(value)


def _namespaces(cls: type) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The globals and builtins that names in ``cls.work`` resolve in."""
    globs = getattr(inspect_unwrap(getattr(cls, "work")), "__globals__", {})
    builtins_mod = globs.get("__builtins__", __builtins__)
    builtins_dict = (
        builtins_mod if isinstance(builtins_mod, dict) else vars(builtins_mod)
    )
    return globs, builtins_dict


def _lookup_global(globs: Dict[str, Any], builtins: Dict[str, Any], name: str) -> Any:
    if name in globs:
        return globs[name]
    return builtins.get(name, _MISSING)


@dataclass
class _MemoEntry:
    reads: Tuple[tuple, ...]
    report: RateReport

    def matches(self, filt: Filter) -> bool:
        """Would a fresh analysis of ``filt`` read exactly these values?"""
        cls = type(filt)
        globs = builtins = None
        for kind, name, owner, fp in self.reads:
            if kind == "attr":
                try:
                    value = getattr(filt, name)
                except AttributeError:
                    value = _MISSING
                except Exception:
                    return False
            elif kind == "global":
                if globs is None:
                    globs, builtins = _namespaces(cls)
                value = _lookup_global(globs, builtins, name)
            elif kind == "method":
                value = method_code(cls, name) or _MISSING
            else:  # "getattr" on a shared object
                obj = owner()
                if obj is None:
                    return False
                try:
                    value = getattr(obj, name)
                except Exception:
                    value = _MISSING
            if not _matches(fp, value):
                return False
        return True


def _copy_report(report: RateReport) -> RateReport:
    return replace(report, pop=report.pop.copy(), push=report.push.copy())


#: class -> {(peek, pop, push, unstable attrs): [entry, ...]}.  Weak keys
#: let dynamically created classes be collected with their entries.
_MEMO: "weakref.WeakKeyDictionary[type, Dict[tuple, List[_MemoEntry]]]" = (
    weakref.WeakKeyDictionary()
)
#: Distinct read-sets kept per key; later misses are analyzed, not stored.
_MAX_ENTRIES = 64

#: Memo outcomes, mirrored into the always-on registry as
#: ``repro_analysis_memo_total{outcome=...}``.
memo_stats: Dict[str, int] = MeteredStats(
    METRICS.counter(
        "repro_analysis_memo_total",
        "Rate-analysis memo lookups by outcome (hit/miss/uncacheable)",
    ),
    lambda key: {"outcome": key},
    {"hit": 0, "miss": 0, "uncacheable": 0},
)


def clear_rate_memo() -> None:
    """Drop every memoized report and zero :data:`memo_stats`."""
    _MEMO.clear()
    for key in memo_stats:
        memo_stats[key] = 0


def analyze_rates(filt: Filter, unstable_attrs: Set[str]) -> RateReport:
    """Symbolically execute ``filt.work()`` and report channel counts.

    ``unstable_attrs`` are the attributes the effects pass proved (or
    suspects) are mutated across firings — their reads evaluate to
    :data:`UNKNOWN` so the analysis never trusts a stale build-time value.

    Memoized (see the module docstring); every call returns a report of
    its own, so callers may mutate it.
    """
    rate = filt.rate
    key = (rate.peek, rate.pop, rate.push, frozenset(unstable_attrs))
    entries = _MEMO.setdefault(type(filt), {}).setdefault(key, [])
    for entry in entries:
        if entry.matches(filt):
            memo_stats["hit"] += 1
            return _copy_report(entry.report)
    analyzer = RateAnalyzer(filt, unstable_attrs)
    report = analyzer.run()
    if analyzer.reads is None:
        memo_stats["uncacheable"] += 1
    else:
        memo_stats["miss"] += 1
        if len(entries) < _MAX_ENTRIES:
            entries.append(_MemoEntry(tuple(analyzer.reads), _copy_report(report)))
    return report
