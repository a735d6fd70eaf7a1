"""Tests for the whole-graph static analysis (:mod:`repro.analysis.graph`).

Covers the two certified artifacts end to end:

* shared-state race detection (SL401/SL402) and the partition fixup that
  co-locates racy filters and portal endpoints on one worker;
* ring-capacity proofs — the parallel engine allocates exactly the proved
  capacity under ``REPRO_RING_SLACK=0`` and still produces bit-identical
  output.
"""

from __future__ import annotations

import warnings

import pytest

from repro.analysis.graph import (
    analyze_flat_graph,
    graph_report,
    portal_links,
    ring_capacity_proofs,
    shared_state_groups,
)
from repro.apps import fmradio, freqhop
from repro.errors import EngineDowngradeWarning
from repro.graph import ArraySource, CollectSink, Filter, Pipeline, validate
from repro.graph.flatgraph import flatten
from repro.mapping.strategies import partition_nodes
from repro.runtime import Interpreter
from repro.scheduling.steady import build_schedule
from tests.helpers import FIR, Gain


class SharedWriter(Filter):
    """Mutates a list it may share with other filter instances."""

    def __init__(self, buf, name=None):
        super().__init__(pop=1, push=1, name=name)
        self.buf = buf

    def work(self):
        x = self.pop()
        self.buf[0] = x
        self.push(x)


class SharedReader(Filter):
    """Reads (never mutates) a possibly-shared list."""

    def __init__(self, buf, name=None):
        super().__init__(pop=1, push=1, name=name)
        self.buf = buf

    def work(self):
        self.push(self.pop() + self.buf[0])


def _source(n=32):
    return ArraySource([float(i % 7) for i in range(n)])


# ---------------------------------------------------------------------------
# Shared-state race detection
# ---------------------------------------------------------------------------


class TestSharedState:
    def test_aliased_mutable_with_mutator_is_a_group(self):
        buf = [0.0]
        app = Pipeline(
            _source(), SharedWriter(buf, name="w"), SharedReader(buf, name="r"),
            CollectSink(),
        )
        graph = flatten(app)
        groups = shared_state_groups(graph)
        assert len(groups) == 1
        [group] = groups
        assert {name for name, _attr in group.members} == {"w", "r"}
        assert "w" in group.mutators
        analysis = analyze_flat_graph(graph)
        assert [d.code for d in analysis.bag if d.code == "SL401"]

    def test_distinct_buffers_no_group(self):
        app = Pipeline(
            _source(), SharedWriter([0.0]), SharedReader([0.0]), CollectSink()
        )
        assert shared_state_groups(flatten(app)) == []

    def test_immutable_share_ignored(self):
        coeffs = (0.25, 0.5, 0.25)
        app = Pipeline(_source(), FIR(coeffs), FIR(coeffs), CollectSink())
        assert shared_state_groups(flatten(app)) == []

    def test_partition_colocates_racy_filters(self):
        buf = [0.0]
        app = Pipeline(
            _source(),
            SharedWriter(buf, name="w"),
            Gain(2.0),
            Gain(3.0),
            SharedReader(buf, name="r"),
            CollectSink(),
        )
        graph = flatten(app)
        program = build_schedule(graph)
        for strategy in ("softpipe", "task", "fine_grained"):
            part = partition_nodes(app, graph, program.reps, strategy, 2)
            by_name = {n.name: c for n, c in part.items()}
            assert by_name["w"] == by_name["r"], strategy

    def test_partition_colocates_portal_endpoints(self):
        app = freqhop.build_teleport()
        graph = flatten(app)
        program = build_schedule(graph)
        links = portal_links(graph)
        assert links, "teleport app should expose portal links"
        part = partition_nodes(app, graph, program.reps, "softpipe", 2)
        by_name = {n.name: c for n, c in part.items()}
        for link in links:
            cores = {
                by_name[name]
                for name in (link.sender, *link.receivers)
                if name in by_name
            }
            assert len(cores) == 1, link


# ---------------------------------------------------------------------------
# Ring-capacity proofs
# ---------------------------------------------------------------------------


class TestRingProofs:
    def test_proofs_cover_every_cross_edge(self):
        app = fmradio.build()
        report = graph_report(app, cores=2)
        assert report.proofs, "expected cross-worker edges"
        assert all(p.proved for p in report.proofs)
        assert all(p.capacity >= 1 for p in report.proofs)

    def test_parallel_runs_at_proved_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_RING_SLACK", "0")

        def run(engine):
            app = fmradio.build()
            sink = next(
                f for f in app.filters() if isinstance(f, CollectSink)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EngineDowngradeWarning)
                interp = Interpreter(
                    app, engine=engine, strategy="softpipe", cores=2
                )
            try:
                interp.run(6)
            finally:
                interp.close()
            return list(sink.collected), interp

        ref, _ = run("batched")
        out, interp = run("parallel")
        assert out == ref
        session = interp.parallel
        assert session is not None
        proofs = session.ring_proofs
        assert proofs and all(p.proved for p in proofs.values())
        # With zero slack the allocated capacity IS the proved minimum.
        for edge in session.ring_edges:
            assert session.channels[edge].capacity == proofs[edge].capacity

    def test_engine_report_records_proofs(self):
        app = fmradio.build()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp = Interpreter(
                app, engine="parallel", strategy="softpipe", cores=2
            )
        try:
            interp.run(4)
            report = interp.engine_report()
        finally:
            interp.close()
        ga = report.get("graph_analysis")
        assert ga is not None
        assert ga["rings_proved"] > 0
        assert ga["rings"] and all(r["proved"] for r in ga["rings"])
        layout = report["parallel"]
        assert layout["rings_proved"] == ga["rings_proved"]
        assert layout["ring_capacities"]

    def test_proof_object_standalone(self):
        app = fmradio.build()
        graph = flatten(app)
        program = build_schedule(graph)
        part = partition_nodes(app, graph, program.reps, "softpipe", 2)
        used = sorted({c for c in part.values()})
        wid_of = {core: i + 1 for i, core in enumerate(used)}
        node_wid = {n: wid_of.get(part.get(n), 0) for n in graph.nodes}
        proofs = ring_capacity_proofs(program, node_wid, batch_periods=1)
        assert proofs
        for edge, proof in proofs.items():
            assert proof.proved
            assert proof.capacity == max(1, proof.peak_items)
            assert proof.src_wid != proof.dst_wid


# ---------------------------------------------------------------------------
# graph_report / lint surface
# ---------------------------------------------------------------------------


class TestGraphReport:
    def test_payload_shape(self):
        report = graph_report(fmradio.build())
        payload = report.payload()
        for key in (
            "stream",
            "strategy",
            "cores",
            "verified",
            "rings",
            "shared_state",
            "portals",
            "unbounded",
            "summary",
        ):
            assert key in payload, key
        assert payload["verified"] is True
        assert all(r["proved"] for r in payload["rings"])
        assert "partition_error" not in payload

    def test_info_diagnostics_for_proofs(self):
        report = graph_report(fmradio.build())
        codes = [d.code for d in report.bag]
        assert "SL404" in codes
        assert not report.bag.errors() and not report.bag.warnings()

    def test_teleport_app_clean_after_colocation(self):
        report = graph_report(freqhop.build_teleport())
        assert not [d for d in report.bag if d.code == "SL403"]
        assert report.analysis.portals
