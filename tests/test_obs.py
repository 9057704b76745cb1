"""Tests for the observability layer (repro.obs) and its pipeline hooks.

Covers the tracing/metrics tentpole and its satellites: span nesting and
error capture, the zero-allocation no-op path, histogram percentiles
pinned against ``numpy.quantile``, cross-process span stitching through
thread and process pools, bit-identical results with tracing on or off
at any worker count, the run report's pipeline breakdown, EngineStats'
true wall-clock ``elapsed``, ``CacheStats.to_dict()``'s ``hit_rate``,
envelope round-trips with and without the ``observability`` key, and the
``repro`` logger hierarchy.
"""

import json
import logging

import numpy as np
import pytest

from repro.api import Experiment, ExperimentResult
from repro.circuits import Circuit
from repro.engine import Engine, Job
from repro.obs import (
    NOOP,
    Histogram,
    MetricsRegistry,
    Observability,
    Tracer,
    build_run_report,
    get_logger,
    render_timeline,
    run_report,
    span_record,
)
from repro.obs.runtime import get_observability, set_observability
from repro.obs.trace import _NOOP_SPAN

RNG = np.random.default_rng(17)


def ghz_sampling_circuit(width: int = 3) -> Circuit:
    circuit = Circuit(width, width)
    circuit.h(0)
    for q in range(1, width):
        circuit.cx(q - 1, q)
    for q in range(width):
        circuit.measure(q, q)
    return circuit


def make_jobs(count: int = 4, shots: int = 600, batch_size: int = 150) -> list[Job]:
    return [
        Job(circuit=ghz_sampling_circuit(), shots=shots, seed=seed, batch_size=batch_size)
        for seed in range(count)
    ]


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", stage="a") as outer:
            with tracer.span("inner") as inner:
                inner.set("shots", 100)
        spans = tracer.span_dicts()
        assert [s["name"] for s in spans] == ["inner", "outer"]  # completion order
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["outer"]["attrs"] == {"stage": "a"}
        assert by_name["inner"]["attrs"] == {"shots": 100}
        assert all(s["trace_id"] == tracer.trace_id for s in spans)
        assert outer.duration >= inner.duration >= 0.0

    def test_error_status_and_marker(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.span_dicts()
        assert span["status"] == "error"
        assert "boom" in span["error"]
        assert " !" in render_timeline(tracer)

    def test_begin_end_explicit_parent(self):
        tracer = Tracer()
        root = tracer.begin("root")
        child = tracer.begin("child", parent_id=root.span_id)
        tracer.end(child)
        tracer.end(root)
        spans = {s["name"]: s for s in tracer.span_dicts()}
        assert spans["child"]["parent_id"] == spans["root"]["span_id"]

    def test_mark_windows_by_collection_order(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        mark = tracer.mark()
        with tracer.span("second"):
            pass
        assert [s["name"] for s in tracer.span_dicts(since=mark)] == ["second"]

    def test_adopt_stitches_and_reparents(self):
        tracer = Tracer()
        parent = tracer.begin("parent")
        child = span_record("worker.batch", start_unix=1.0, duration=0.5)
        grandchild = span_record(
            "worker.execute", start_unix=1.1, duration=0.3, parent_id=child["span_id"]
        )
        tracer.adopt([child, grandchild], parent_id=parent.span_id)
        tracer.end(parent)
        spans = {s["name"]: s for s in tracer.span_dicts()}
        assert spans["worker.batch"]["parent_id"] == parent.span_id
        assert spans["worker.batch"]["trace_id"] == tracer.trace_id
        # A record that already had a parent keeps it.
        assert spans["worker.execute"]["parent_id"] == child["span_id"]

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", key="value"):
            pass
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "a"
        assert record["attrs"] == {"key": "value"}


class TestNoopTracer:
    def test_zero_spans_and_shared_singleton(self):
        tracer = NOOP.tracer
        assert not tracer.enabled
        a = tracer.begin("x")
        b = tracer.span("y")
        c = tracer.record("z", start_unix=0.0, duration=1.0)
        assert a is b is c is _NOOP_SPAN  # one shared object, no allocation
        with tracer.span("w") as s:
            s.set("k", "v")
        assert tracer.span_dicts() == []
        assert tracer.mark() == 0
        assert tracer.batch_context("p") is None

    def test_export_refuses(self, tmp_path):
        with pytest.raises(RuntimeError):
            NOOP.tracer.export_jsonl(tmp_path / "never.jsonl")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_registry_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits", tier="memory").inc()
        registry.counter("hits", tier="memory").inc(2)
        registry.counter("hits", tier="disk").inc()
        registry.gauge("depth").set(3.5)
        payload = registry.to_dict()
        assert payload["hits{tier=memory}"]["value"] == 3
        assert payload["hits{tier=disk}"]["value"] == 1
        assert payload["depth"]["value"] == 3.5

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.95, 0.99, 1.0])
    def test_percentiles_match_numpy_below_cap(self, q):
        histogram = Histogram("lat")
        samples = RNG.exponential(0.02, size=500)
        for value in samples:
            histogram.observe(value)
        assert histogram.percentile(q) == pytest.approx(
            float(np.quantile(samples, q)), abs=1e-15
        )

    def test_percentiles_approximate_beyond_cap(self):
        histogram = Histogram("lat", sample_cap=64)
        samples = RNG.exponential(0.02, size=1000)
        for value in samples:
            histogram.observe(value)
        exact = float(np.quantile(samples, 0.95))
        assert histogram.percentile(0.95) == pytest.approx(exact, rel=0.5)

    def test_to_dict_reports_p50_p95_p99(self):
        histogram = Histogram("lat")
        for value in [0.001, 0.002, 0.004, 0.008]:
            histogram.observe(value)
        payload = histogram.to_dict()
        assert payload["count"] == 4
        assert payload["min"] == 0.001
        assert payload["max"] == 0.008
        for key in ("p50", "p95", "p99"):
            assert 0.001 <= payload[key] <= 0.008

    def test_noop_metrics_shared_instrument(self):
        metrics = NOOP.metrics
        assert metrics.counter("a") is metrics.histogram("b") is metrics.gauge("c")
        metrics.counter("a").inc()
        assert metrics.to_dict() == {}


# ----------------------------------------------------------------------
# Engine integration: stitching and determinism
# ----------------------------------------------------------------------
class TestEngineTracing:
    @pytest.mark.parametrize("executor,workers", [("thread", 1), ("thread", 4)])
    def test_bit_identical_with_tracing_thread(self, executor, workers):
        baseline = Engine(workers=1, executor="serial").run_many(make_jobs())
        obs = Observability()
        with Engine(workers=workers, executor=executor, obs=obs) as engine:
            traced = engine.run_many(make_jobs())
        for reference, result in zip(baseline, traced):
            assert reference.counts == result.counts
            assert reference.parity_mean == result.parity_mean
        assert len(obs.tracer.span_dicts()) > 0

    def test_bit_identical_with_tracing_process(self):
        baseline = Engine(workers=1, executor="serial").run_many(make_jobs(count=2))
        obs = Observability()
        with Engine(workers=2, executor="process", obs=obs) as engine:
            traced = engine.run_many(make_jobs(count=2))
        for reference, result in zip(baseline, traced):
            assert reference.counts == result.counts
        # Worker spans crossed the pickle boundary and were stitched in.
        names = [s["name"] for s in obs.tracer.span_dicts()]
        assert "worker.batch" in names
        worker_pids = {
            s["pid"] for s in obs.tracer.span_dicts() if s["name"] == "worker.batch"
        }
        import os

        assert worker_pids and os.getpid() not in worker_pids

    def test_disabled_tracer_records_nothing(self):
        with Engine(workers=4, executor="thread") as engine:
            engine.run_many(make_jobs())
        assert engine.obs is NOOP
        assert engine.obs.tracer.span_dicts() == []

    def test_pipelined_trace_is_coherent(self):
        obs = Observability()
        with Engine(workers=4, executor="thread", obs=obs) as engine:
            engine.run_many(make_jobs())
        spans = obs.tracer.span_dicts()
        ids = {s["span_id"] for s in spans}
        roots = [s for s in spans if s["parent_id"] not in ids]
        assert len(roots) == 1 and roots[0]["name"] == "engine.run_many"
        trace_ids = {s["trace_id"] for s in spans}
        assert trace_ids == {obs.tracer.trace_id}
        by_name = {s["name"] for s in spans}
        assert {"engine.job", "engine.batch", "worker.batch", "engine.reduce"} <= by_name
        # Every pooled batch carries the stitching attrs.
        for span in spans:
            if span["name"] == "engine.batch":
                assert "queue_wait" in span["attrs"]
                assert "ipc_gap" in span["attrs"]

    def test_cache_lookup_spans_tagged_by_outcome(self):
        obs = Observability()
        with Engine(workers=2, executor="thread", cache=True, obs=obs) as engine:
            job = make_jobs(count=1)[0]
            engine.run(job)
            engine.run(job)
        outcomes = [
            s["attrs"]["outcome"]
            for s in obs.tracer.span_dicts()
            if s["name"] == "cache.lookup"
        ]
        assert outcomes == ["miss", "memory-hit"]
        metrics = obs.metrics.to_dict()
        assert metrics["cache.lookups{outcome=miss}"]["value"] == 1
        assert metrics["cache.lookups{outcome=memory-hit}"]["value"] == 1

    def test_failed_batch_marks_span_and_emits_event(self):
        noisy = make_jobs(count=1)[0]
        bad = Job(
            circuit=noisy.circuit,
            shots=noisy.shots,
            seed=noisy.seed,
            batch_size=noisy.batch_size,
            metadata=dict(noisy.metadata, backend="statevector"),
        )
        obs = Observability()

        def exploding(job, batch, backend, trace=None):
            raise RuntimeError("kaboom")

        import repro.engine.runners as runners_module

        original = runners_module.execute_batch
        # Patch at the scheduler's call site (thread pool shares the process).
        import repro.engine.scheduler as scheduler_module

        scheduler_module.execute_batch = exploding
        try:
            with Engine(workers=2, executor="thread", obs=obs) as engine:
                with pytest.raises(Exception):
                    engine.run_many([bad])
        finally:
            scheduler_module.execute_batch = original
        names = [s["name"] for s in obs.tracer.span_dicts()]
        assert "engine.cancel_and_drain" in names
        errored = [s for s in obs.tracer.span_dicts() if s["status"] == "error"]
        assert errored


# ----------------------------------------------------------------------
# EngineStats / CacheStats satellites
# ----------------------------------------------------------------------
class TestStatsSatellites:
    def test_elapsed_is_true_wall_clock_not_double_counted(self):
        with Engine(workers=4, executor="thread") as engine:
            engine.run_many(make_jobs())
        stats = engine.stats
        assert 0.0 < stats.elapsed
        # Four overlapping jobs: summed per-job time exceeds wall clock.
        assert stats.wall_time > stats.elapsed
        payload = stats.to_dict()
        assert payload["elapsed"] == stats.elapsed
        assert payload["wall_time"] == stats.wall_time
        assert payload["shots_per_second"] == pytest.approx(
            stats.shots / stats.elapsed
        )

    def test_elapsed_sweep_counts_once(self):
        with Engine(workers=2, executor="thread") as engine:
            engine.sweep(
                lambda shots: Job(
                    circuit=ghz_sampling_circuit(), shots=shots, seed=5, batch_size=100
                ),
                {"shots": [200, 400]},
            )
            elapsed_after_sweep = engine.stats.elapsed
            engine.run(make_jobs(count=1)[0])
        # run() added its own elapsed on top of the sweep's single share.
        assert engine.stats.elapsed > elapsed_after_sweep

    def test_cache_stats_to_dict_reports_hit_rate(self):
        with Engine(workers=1, executor="serial", cache=True) as engine:
            job = make_jobs(count=1)[0]
            engine.run(job)
            engine.run(job)
        payload = engine.cache.stats.to_dict()
        assert payload["hits"] == 1
        assert payload["misses"] == 1
        assert payload["hit_rate"] == 0.5
        assert engine.stats_dict()["cache"]["hit_rate"] == 0.5


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestRunReport:
    def test_breakdown_keys_and_shares(self):
        obs = Observability()
        with Engine(workers=4, executor="thread", obs=obs) as engine:
            engine.run_many(make_jobs())
        report = build_run_report(obs)
        assert set(report["breakdown"]) == {
            "queue_wait",
            "worker_compile",
            "worker_execute",
            "ipc",
            "reduce",
        }
        shares = report["breakdown_shares"]
        assert sum(shares.values()) == pytest.approx(1.0)
        assert report["ipc_share"] == shares["ipc"]
        assert report["workers"] == 4
        assert report["worker_utilization"] is not None
        assert report["errors"] == 0
        assert report["by_name"]["worker.batch"]["count"] == 16

    def test_report_rebuilds_from_exported_jsonl(self, tmp_path):
        obs = Observability()
        with Engine(workers=2, executor="thread", obs=obs) as engine:
            engine.run_many(make_jobs(count=2))
        path = obs.tracer.export_jsonl(tmp_path / "trace.jsonl")
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        offline = build_run_report(spans)
        live = build_run_report(obs)
        assert offline["breakdown"] == live["breakdown"]
        assert offline["num_spans"] == live["num_spans"]

    def test_timeline_renders_tree(self):
        obs = Observability()
        with Engine(workers=2, executor="thread", obs=obs) as engine:
            engine.run_many(make_jobs(count=2))
        timeline = render_timeline(obs)
        assert "engine.run_many" in timeline
        assert "worker.batch" in timeline
        assert "█" in timeline
        assert render_timeline([]) == "(no spans recorded)"

    def test_run_report_envelope_shape(self):
        obs = Observability()
        with Engine(workers=2, executor="thread", obs=obs) as engine:
            engine.run_many(make_jobs(count=2))
        block = run_report(obs)
        assert set(block) == {"report", "timeline"}
        assert "metrics" in block["report"]
        json.dumps(block)  # JSON-safe end to end


# ----------------------------------------------------------------------
# API integration: envelope, sweep, compile counters
# ----------------------------------------------------------------------
class TestApiObservability:
    def states(self):
        rng = np.random.default_rng(3)
        states = []
        for _ in range(3):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            states.append(np.outer(v, v.conj()))
        return states

    def test_run_attaches_report_and_is_bit_identical(self):
        experiment = Experiment.swap_test(self.states(), shots=2000, seed=7)
        plain = experiment.run()
        obs = Observability()
        traced = experiment.run(obs=obs)
        assert plain.estimate == traced.estimate
        assert plain.stderr == traced.stderr
        assert plain.observability is None
        assert traced.observability is not None
        assert "experiment.run" in traced.observability["timeline"]

    def test_envelope_roundtrip_with_and_without_observability(self):
        experiment = Experiment.swap_test(self.states(), shots=1000, seed=7)
        plain = experiment.run()
        traced = experiment.run(obs=Observability())
        plain_payload = plain.to_dict()
        traced_payload = traced.to_dict()
        assert "observability" not in plain_payload
        assert "observability" in traced_payload
        restored = ExperimentResult.from_dict(json.loads(json.dumps(traced_payload)))
        assert restored.observability == traced.observability
        legacy = ExperimentResult.from_dict(json.loads(json.dumps(plain_payload)))
        assert legacy.observability is None
        assert legacy.estimate == plain.estimate

    def test_sweep_root_span_resume_events_and_progress(self, tmp_path):
        experiment = Experiment.swap_test(self.states(), shots=1000, seed=7)
        seen = []
        experiment.sweep(
            over="shots",
            values=[500, 800],
            checkpoint=tmp_path,
            progress=lambda point, sweep: seen.append(len(sweep)),
        )
        assert seen == [1, 2]
        obs = Observability()
        resumed = experiment.sweep(
            over="shots", values=[500, 800], checkpoint=tmp_path, obs=obs
        )
        assert resumed.resumed == 2
        names = [s["name"] for s in obs.tracer.span_dicts()]
        assert names.count("experiment.sweep") == 1
        assert names.count("sweep.resume_point") == 2
        assert obs.metrics.to_dict()["sweep.resumed_points"]["value"] == 2

    def test_compile_cache_counters_via_process_default(self):
        from repro.sim.compile import clear_compile_cache, get_compiled

        obs = Observability()
        set_observability(obs)
        try:
            clear_compile_cache()
            circuit = ghz_sampling_circuit()
            get_compiled(circuit)
            get_compiled(circuit)
        finally:
            set_observability(None)
            clear_compile_cache()
        metrics = obs.metrics.to_dict()
        assert metrics["compile.cache{outcome=miss}"]["value"] == 1
        assert metrics["compile.cache{outcome=hit}"]["value"] == 1
        assert get_observability() is NOOP


# ----------------------------------------------------------------------
# Logging satellite
# ----------------------------------------------------------------------
class TestLogging:
    def test_root_logger_has_null_handler(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_get_logger_prefixes(self):
        assert get_logger("engine").name == "repro.engine"
        assert get_logger("repro.engine").name == "repro.engine"
        assert get_logger().name == "repro"

    def test_span_end_logged_at_debug(self, caplog):
        tracer = Tracer()
        with caplog.at_level(logging.DEBUG, logger="repro.obs.trace"):
            with tracer.span("logged.work"):
                pass
        assert any("logged.work" in record.message for record in caplog.records)

    def test_enable_logging_idempotent(self):
        import io

        stream = io.StringIO()
        first = get_logger().handlers.copy()
        from repro.obs import enable_logging

        handler_a = enable_logging(stream=stream)
        handler_b = enable_logging(stream=stream)
        root = logging.getLogger("repro")
        named = [h for h in root.handlers if h.get_name() == "repro-obs-console"]
        assert named == [handler_b]
        root.removeHandler(handler_b)
        assert [h for h in root.handlers if h in first] == first
