"""Tests for channels and the interpreter."""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    ArraySource,
    CollectSink,
    FeedbackLoop,
    Identity,
    NullSink,
    Pipeline,
    SplitJoin,
    combine,
    duplicate,
    joiner_roundrobin,
    roundrobin,
)
from repro.errors import EngineDowngradeWarning
from repro.graph.base import Filter
from repro.runtime import Channel, ChannelUnderflow, Interpreter
from repro.runtime.plan import _CHUNK_ITEM_CAP
from tests.helpers import (
    FIR,
    Butterfly2,
    Downsample2,
    Gain,
    PeekAverage,
    Upsample3,
    run_pipeline,
)


class TestChannel:
    def test_fifo_order(self):
        ch = Channel()
        ch.push(1.0)
        ch.push(2.0)
        assert ch.pop() == 1.0
        assert ch.pop() == 2.0

    def test_counters(self):
        ch = Channel(initial=[9.0])
        assert ch.pushed_count == 1 and ch.popped_count == 0
        ch.push(1.0)
        ch.pop()
        assert ch.pushed_count == 2 and ch.popped_count == 1
        assert ch.occupancy == 1

    def test_peek_does_not_consume(self):
        ch = Channel(initial=[1.0, 2.0, 3.0])
        assert ch.peek(1) == 2.0
        assert ch.occupancy == 3
        assert ch.pop() == 1.0

    def test_underflow(self):
        ch = Channel()
        with pytest.raises(ChannelUnderflow):
            ch.pop()
        with pytest.raises(ChannelUnderflow):
            ch.peek(0)

    def test_pop_many_push_many(self):
        ch = Channel()
        ch.push_many([1.0, 2.0, 3.0])
        assert ch.pop_many(2) == [1.0, 2.0]
        with pytest.raises(ChannelUnderflow):
            ch.pop_many(2)

    def test_compaction_preserves_content(self):
        ch = Channel()
        for i in range(20000):
            ch.push(float(i))
            if i % 2:
                ch.pop()
        expected_head = ch.peek(0)
        assert ch.occupancy == 10000
        assert ch.pop() == expected_head

    def test_snapshot(self):
        ch = Channel(initial=[1.0, 2.0])
        ch.pop()
        assert ch.snapshot() == [2.0]


class TestInterpreter:
    def test_fir_convolution(self):
        out = run_pipeline(FIR([0.5, 0.5]), data=[1.0, 3.0, 5.0, 7.0], periods=3)
        assert out == [2.0, 4.0, 6.0]

    def test_multirate_chain(self):
        out = run_pipeline(Upsample3(), Downsample2(), data=[4.0, 8.0], periods=2)
        # per period: 2 inputs -> [4,0,0,8,0,0] -> down2 keeps idx 0,2,4
        assert out == [4.0, 0.0, 0.0, 4.0, 0.0, 0.0]

    def test_splitjoin_duplicate_roundrobin(self):
        sj = SplitJoin(duplicate(), [Gain(1.0), Gain(10.0)], joiner_roundrobin())
        out = run_pipeline(sj, data=[1.0, 2.0], periods=4)
        assert out == [1.0, 10.0, 2.0, 20.0, 1.0, 10.0, 2.0, 20.0]

    def test_weighted_roundrobin_distribution(self):
        sj = SplitJoin(
            roundrobin(2, 1), [Gain(1.0), Gain(-1.0)], joiner_roundrobin(2, 1)
        )
        out = run_pipeline(sj, data=[1.0, 2.0, 3.0], periods=2)
        assert out == [1.0, 2.0, -3.0, 1.0, 2.0, -3.0]

    def test_combine_joiner_default_takes_first(self):
        sj = SplitJoin(duplicate(), [Gain(2.0), Gain(5.0)], combine())
        out = run_pipeline(sj, data=[1.0, 3.0], periods=2)
        assert out == [2.0, 6.0]

    def test_combine_joiner_custom_reducer(self):
        sj = SplitJoin(duplicate(), [Gain(2.0), Gain(5.0)], combine(reducer=sum))
        out = run_pipeline(sj, data=[1.0], periods=2)
        assert out == [7.0, 7.0]

    def test_feedback_accumulator(self):
        # y_n = x_n + y_{n-1}: joiner merges input with the delayed output.
        class AddPair(Butterfly2.__bases__[0]):  # Filter
            def __init__(self):
                super().__init__(pop=2, push=2)

            def work(self):
                x = self.pop()
                acc = self.pop()
                s = x + acc
                self.push(s)
                self.push(s)

        loop = FeedbackLoop(
            joiner_roundrobin(1, 1), AddPair(), roundrobin(1, 1), Identity(), delay=1
        )
        out = run_pipeline(loop, data=[1.0, 2.0, 3.0, 4.0], periods=4)
        assert out == [1.0, 3.0, 6.0, 10.0]

    def test_firings_and_items_pushed(self):
        gain = Gain(1.0)
        sink = CollectSink()
        app = Pipeline(ArraySource([1.0]), gain, sink)
        interp = Interpreter(app)
        interp.run(periods=5)
        assert interp.firings(gain) == 5
        assert interp.items_pushed(gain) == 5

    def test_init_schedule_runs_once(self):
        fir = FIR([1.0, 1.0, 1.0])
        sink = CollectSink()
        app = Pipeline(ArraySource([1.0, 2.0, 3.0]), fir, sink)
        interp = Interpreter(app)
        interp.run_init()
        interp.run_init()  # idempotent
        assert interp.firings(fir) == 0  # init only primes upstream
        interp.run_steady(1)
        assert sink.collected == [6.0]

    def test_peek_average(self):
        out = run_pipeline(PeekAverage(), data=[1.0, 2.0, 3.0, 4.0], periods=2)
        assert out == [2.5, 2.5]

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=8
        ),
        periods=st.integers(min_value=1, max_value=5),
    )
    def test_identity_roundtrip(self, data, periods):
        """Identity chains preserve the cyclic source stream exactly."""
        out = run_pipeline(Identity(), Identity(), data=data, periods=periods)
        expected = [data[i % len(data)] for i in range(periods)]
        assert out == expected

    @settings(max_examples=25, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4)
    )
    def test_roundrobin_identity_reassembly(self, weights):
        """RR-split into identities then RR-join with the same weights is
        the identity transformation (a core split-join invariant)."""
        n = len(weights)
        total = sum(weights)
        sj = SplitJoin(
            roundrobin(*weights),
            [Identity() for _ in range(n)],
            joiner_roundrobin(*weights),
        )
        data = [float(i) for i in range(total)]
        out = run_pipeline(sj, data=data, periods=3)
        assert out == data * 3


# ---------------------------------------------------------------------------
# Superbatch chunk sizing (ExecutionPlan._chunk_periods)
# ---------------------------------------------------------------------------


def _chunk_pipeline():
    return Pipeline(
        ArraySource([float(i) for i in range(8)]),
        FIR([0.25, 0.5, 0.25], name="fir"),
        Gain(2.0, name="gain"),
        CollectSink(),
    )


def _run_engine(build, engine, periods=6):
    app = build()
    sink = next((f for f in app.filters() if isinstance(f, CollectSink)), None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine=engine)
        try:
            interp.run(periods=periods)
        finally:
            interp.close()
    return (list(sink.collected) if sink is not None else []), interp


class _WidePush(Filter):
    """Pushes more items per firing than the 512 KiB chunk cap covers."""

    def __init__(self, width: int) -> None:
        super().__init__(pop=1, push=width)
        self.width = width

    def work(self) -> None:
        x = self.pop()
        for _ in range(self.width):
            self.push(x)


class _WideSink(Filter):
    def __init__(self, width: int) -> None:
        super().__init__(pop=width, push=0)
        self.width = width

    def work(self) -> None:
        for _ in range(self.width):
            self.pop()


class TestChunkPeriods:
    """Edge cases of the static chunk heuristic and its manual override."""

    def test_tiny_graph_gets_full_cap(self):
        _, interp = _run_engine(_chunk_pipeline, "batched", periods=2)
        # All edges move 1 item/period, so the cap divides down to itself.
        assert interp.plan.chunk_periods == _CHUNK_ITEM_CAP

    def test_huge_rate_edge_clamps_to_one(self):
        width = _CHUNK_ITEM_CAP * 2

        def build():
            return Pipeline(
                ArraySource([1.0, 2.0]), _WidePush(width), _WideSink(width)
            )

        _, interp = _run_engine(build, "batched", periods=2)
        # One period already overflows the per-edge cap: max(1, cap // width).
        assert interp.plan.chunk_periods == 1

    def test_feedback_segmented_plan_still_chunks(self):
        def build():
            loop = FeedbackLoop(
                joiner_roundrobin(1, 1),
                Gain(0.5),
                roundrobin(1, 1),
                Identity(),
                delay=2,
                init_path=lambda i: 0.0,
            )
            return Pipeline(
                ArraySource([1.0, 2.0, 3.0]), loop, CollectSink()
            )

        _, interp = _run_engine(build, "batched", periods=4)
        plan = interp.plan
        assert plan.segments is not None and not plan.superbatch
        assert plan.chunk_periods >= 1
        # The manual override works on segmented plans too.
        plan.chunk_periods = 7
        assert plan.chunk_periods == 7

    def test_manual_override_is_honored_by_run(self):
        def run_with_chunk(chunk):
            app = _chunk_pipeline()
            sink = next(f for f in app.filters() if isinstance(f, CollectSink))
            interp = Interpreter(app, check=False, engine="batched")
            interp.plan.chunk_periods = chunk
            interp.run(periods=9)
            interp.close()
            return list(sink.collected)

        scalar, _ = _run_engine(_chunk_pipeline, "scalar", periods=9)
        assert run_with_chunk(1) == scalar
        assert run_with_chunk(4) == scalar
        assert run_with_chunk(10_000) == scalar
