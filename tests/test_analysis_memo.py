"""Soundness and invalidation tests for the rate-analysis memo.

:func:`repro.analysis.rates.analyze_rates` reuses a report when a new
instance of the same class, with the same declared rates and unstable
attributes, reads the same values the memoized run read.  These tests pin
the contract: a memoized verdict equals a fresh one on every app and on the
fuzz corpus, a changed attribute / method misses, opaque reads are never
stored, classes stay collectable, and callers cannot corrupt the memo.

Filters are defined at module level so ``inspect.getsource`` sees them.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis as analysis_pkg
from repro.analysis import analyze_filter, classify
from repro.analysis.effects import function_ast, method_ast
from repro.analysis.rates import (
    _MEMO,
    RateAnalyzer,
    analyze_rates,
    clear_rate_memo,
    memo_stats,
)
from repro.apps import ALL_APPS
from repro.graph import ArraySource, CollectSink, Filter, Pipeline
from repro.graph.flatgraph import flatten
from repro.runtime.codegen_emit import kernel_source
from repro.runtime.messaging import Portal
from tests.helpers import Gain
from tests.test_properties import _random_stage


def _unstable(filt):
    effects = classify(filt)
    return set(effects.mutated) | {a for a, _ in effects.message_sends}


def _fresh_rates(filt):
    return RateAnalyzer(filt, _unstable(filt)).run()


def _summary(result):
    """Everything a FilterAnalysis says, in comparable form."""
    return (
        result.rates,
        result.affine_candidate,
        result.affine_reason,
        result.proof,
        list(result.diagnostics),
    )


@pytest.fixture
def fresh_analysis(monkeypatch):
    """``analyze_filter`` with the memo bypassed, for the reference verdict."""

    def analyze(filt):
        with monkeypatch.context() as m:
            m.setattr(
                analysis_pkg, "analyze_rates", lambda f, u: RateAnalyzer(f, u).run()
            )
            return analyze_filter(filt, refresh=True)

    return analyze


class Window(Filter):
    """Peeks ``self.k`` items: k > 4 is a peek violation (SL003)."""

    def __init__(self, k):
        super().__init__(peek=4, pop=1, push=1)
        self.k = k

    def work(self):
        total = 0.0
        for i in range(self.k):
            total += self.peek(i)
        self.push(total)
        self.pop()


class Helped(Filter):
    """Pushes as many items as its helper says."""

    def __init__(self):
        super().__init__(pop=1, push=2)

    def _count(self):
        return 2

    def work(self):
        x = self.pop()
        for _ in range(self._count()):
            self.push(x)


def _helper_three(self):
    return 3


def _work_pushes_once(self):
    self.push(self.pop())


class Called(Filter):
    """Reads a callable attribute: opaque, never memoized."""

    def __init__(self, fn):
        super().__init__(pop=1, push=1)
        self.fn = fn

    def work(self):
        if self.fn is not None:
            self.push(self.pop())


class Sender(Filter):
    """Reads a Portal attribute: opaque, never memoized."""

    def __init__(self, portal):
        super().__init__(pop=1, push=1)
        self.portal = portal

    def work(self):
        x = self.pop()
        if self.portal is not None:
            self.push(x)


class Tapped(Filter):
    def __init__(self, taps):
        super().__init__(peek=len(taps), pop=1, push=1)
        self.taps = taps

    def work(self):
        acc = 0.0
        for i in range(len(self.taps)):
            acc += self.taps[i] * self.peek(i)
        self.push(acc)
        self.pop()


class Flagged(Filter):
    """Pushes twice only when ``self.mode is True`` (not merely ``== 1``)."""

    def __init__(self, mode):
        super().__init__(pop=1, push=1)
        self.mode = mode

    def work(self):
        x = self.pop()
        if self.mode is True:
            self.push(x)
        self.push(x)


def _make_class():
    class Dynamic(Filter):
        def __init__(self):
            super().__init__(pop=1, push=1)
            self.n = 1

        def work(self):
            for _ in range(self.n):
                self.push(self.pop())

    return Dynamic


# ---------------------------------------------------------------------------
# Soundness: memoized == fresh
# ---------------------------------------------------------------------------


def test_memoized_equals_fresh_on_every_app(fresh_analysis):
    clear_rate_memo()
    for _round in range(2):  # the second build reuses the first one's entries
        for name, build in ALL_APPS.items():
            for filt in build().filters():
                memoized = analyze_filter(filt, refresh=True)
                assert _summary(memoized) == _summary(fresh_analysis(filt)), (
                    name,
                    filt.name,
                )
    assert memo_stats["hit"] > 0
    assert memo_stats["miss"] > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_memoized_equals_fresh_on_fuzz_corpus(seed):
    hits0 = memo_stats["hit"]
    for _build in range(2):
        gen = np.random.default_rng(seed)
        stream = Pipeline(
            ArraySource([1.0, 2.0, 3.0]),
            *[_random_stage(gen) for _ in range(3)],
            CollectSink(),
        )
        for node in flatten(stream).filter_nodes():
            filt = node.filter
            memoized = analyze_filter(filt, refresh=True).rates
            assert memoized == _fresh_rates(filt), filt.name
    assert memo_stats["hit"] > hits0


def test_hit_equals_fresh_report():
    clear_rate_memo()
    first = analyze_rates(Window(3), set())
    assert memo_stats == {"hit": 0, "miss": 1, "uncacheable": 0}
    second = analyze_rates(Window(3), set())
    assert memo_stats["hit"] == 1
    assert second == first == _fresh_rates(Window(3))


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


def test_changed_attribute_value_misses():
    clear_rate_memo()
    filt = Window(3)
    assert not analyze_filter(filt, refresh=True).rates.peek_violations
    filt.k = 6
    rates = analyze_filter(filt, refresh=True).rates
    assert memo_stats["hit"] == 0 and memo_stats["miss"] == 2
    assert rates.peek_violations
    assert rates == _fresh_rates(filt)


def test_equal_values_of_another_type_miss():
    clear_rate_memo()
    assert analyze_rates(Flagged(1), set()).push.lo == 1
    assert analyze_rates(Flagged(True), set()).push.lo == 2
    assert memo_stats["hit"] == 0
    clear_rate_memo()
    analyze_rates(Tapped([1.0, 2.0]), set())
    analyze_rates(Tapped([1, 2]), set())
    analyze_rates(Tapped((1.0, 2.0)), set())
    analyze_rates(Tapped(np.array([1.0, 2.0])), set())
    assert memo_stats["hit"] == 0 and memo_stats["miss"] == 4
    analyze_rates(Tapped(np.array([1.0, 2.0])), set())
    analyze_rates(Tapped([1.0, 2.0]), set())
    assert memo_stats["hit"] == 2


def test_monkeypatched_work_misses(monkeypatch):
    clear_rate_memo()
    assert analyze_rates(Helped(), set()).push.lo == 2
    monkeypatch.setattr(Helped, "work", _work_pushes_once)
    rates = analyze_filter(Helped(), refresh=True).rates
    assert memo_stats["hit"] == 0
    assert rates.push.lo == 1
    assert rates == _fresh_rates(Helped())


def test_monkeypatched_helper_misses(monkeypatch):
    clear_rate_memo()
    assert analyze_rates(Helped(), set()).push.lo == 2
    monkeypatch.setattr(Helped, "_count", _helper_three)
    rates = analyze_filter(Helped(), refresh=True).rates
    assert memo_stats["hit"] == 0
    assert rates.push.lo == 3
    assert rates == _fresh_rates(Helped())


@pytest.mark.parametrize(
    "filt",
    [Called(lambda x: x), Called(Gain(2.0).work), Sender(Portal())],
    ids=["lambda", "bound-method", "portal"],
)
def test_opaque_attributes_are_never_memoized(filt, fresh_analysis):
    clear_rate_memo()
    for _ in range(2):
        memoized = analyze_filter(filt, refresh=True)
        assert _summary(memoized) == _summary(fresh_analysis(filt))
    assert memo_stats["hit"] == 0 and memo_stats["miss"] == 0
    assert memo_stats["uncacheable"] == 2
    assert not any(_MEMO.get(type(filt), {}).values())


def test_dynamic_class_is_collectable():
    cls = _make_class()
    filt = cls()
    assert analyze_filter(filt).rates.exact
    assert cls in _MEMO
    ref = weakref.ref(cls)
    del filt, cls
    gc.collect()
    assert ref() is None


def test_mutating_a_returned_report_leaves_the_memo_intact():
    clear_rate_memo()
    first = analyze_rates(Window(3), set())
    expected = _fresh_rates(Window(3))
    first.pop.bump(5)
    first.push.hi = 99
    second = analyze_rates(Window(3), set())
    assert memo_stats["hit"] == 1
    assert second == expected
    second.push.bump(7)
    third = analyze_rates(Window(3), set())
    assert memo_stats["hit"] == 2
    assert third == expected


# ---------------------------------------------------------------------------
# One parse per function
# ---------------------------------------------------------------------------


def test_each_function_is_parsed_once_and_shared():
    tree = method_ast(Gain)
    assert function_ast(Gain.work) is tree
    assert method_ast(Gain, "work") is tree


def test_rewriting_callers_copy_the_shared_tree():
    tree = method_ast(Gain)
    source = kernel_source(Gain, "_K0")
    assert "def _K0(" in source
    assert method_ast(Gain) is tree
    assert tree.name == "work"
