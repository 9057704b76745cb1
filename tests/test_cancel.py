"""Tests for cooperative job cancellation (CancelToken, cancel scopes).

The engine-layer satellite behind ``DELETE /jobs/{id}``: a thread-safe
latch checked between batches — serial and pooled paths, explicit
``cancel=`` arguments and thread-local ``cancel_scope`` blocks — that
drops queued batches instead of computing a result nobody will read,
while leaving the pool reusable afterwards.
"""

import threading

import pytest

from repro.circuits import Circuit
from repro.engine import CancelToken, Engine, Job, JobCancelled


def ghz_sampling_circuit(width: int = 3) -> Circuit:
    circuit = Circuit(width, width)
    circuit.h(0)
    for q in range(1, width):
        circuit.cx(q - 1, q)
    for q in range(width):
        circuit.measure(q, q)
    return circuit


def make_job(seed: int = 7, shots: int = 400, **overrides) -> Job:
    job = Job(circuit=ghz_sampling_circuit(), shots=shots, seed=seed)
    for key, value in overrides.items():
        setattr(job, key, value)
    return job


class TestCancelToken:
    def test_latch_semantics(self):
        token = CancelToken()
        assert not token.cancelled
        token.raise_if_cancelled()  # no-op while untripped
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        with pytest.raises(JobCancelled):
            token.raise_if_cancelled()

    def test_trippable_from_another_thread(self):
        token = CancelToken()
        thread = threading.Thread(target=token.cancel)
        thread.start()
        thread.join()
        assert token.cancelled


class TestEngineCancellation:
    def test_pre_cancelled_run_raises_immediately(self):
        token = CancelToken()
        token.cancel()
        with Engine() as engine:
            with pytest.raises(JobCancelled):
                engine.run(make_job(), cancel=token)
            assert engine.stats.jobs == 0

    def test_pre_cancelled_run_many_raises(self):
        token = CancelToken()
        token.cancel()
        with Engine(workers=2) as engine:
            with pytest.raises(JobCancelled):
                engine.run_many([make_job(seed=s) for s in (1, 2)], cancel=token)

    def test_untripped_token_changes_nothing(self):
        token = CancelToken()
        with Engine() as engine:
            plain = engine.run(make_job())
        with Engine() as engine:
            guarded = engine.run(make_job(), cancel=token)
        assert plain.counts == guarded.counts

    def test_serial_multi_batch_cancel_between_batches(self):
        # Cancel after the first batch lands: the serial path checks the
        # token before each inline batch.
        token = CancelToken()
        job = make_job(shots=300, batch_size=100)
        with Engine() as engine:
            original = engine.scheduler.obs
            calls = {"n": 0}
            import repro.engine.engine as engine_mod

            real = engine_mod.execute_batch

            def tripping(job_, batch, backend, trace=None):
                calls["n"] += 1
                if calls["n"] == 1:
                    token.cancel()
                if trace is None:
                    return real(job_, batch, backend)
                return real(job_, batch, backend, trace)

            engine_mod.execute_batch = tripping
            try:
                with pytest.raises(JobCancelled):
                    engine.run(job, cancel=token)
            finally:
                engine_mod.execute_batch = real
            assert calls["n"] == 1  # batches 2 and 3 were never computed
            assert original is engine.scheduler.obs

    def test_pooled_sweep_cancelled_mid_flight_keeps_pool_reusable(self):
        token = CancelToken()
        jobs = [make_job(seed=seed, shots=200) for seed in range(6)]
        with Engine(workers=2) as engine:
            stream = engine.as_completed(jobs, cancel=token)
            first = next(stream)
            assert first is not None
            token.cancel()
            with pytest.raises(JobCancelled):
                for _ in stream:
                    pass
            # The pool survived cancel-and-drain: a fresh run works.
            result = engine.run(make_job(seed=99))
            assert result.shots == 400

    def test_cancelled_jobs_not_cached(self):
        token = CancelToken()
        job = make_job(shots=300, batch_size=100)
        with Engine(cache=True) as engine:
            token.cancel()
            with pytest.raises(JobCancelled):
                engine.run(job, cancel=token)
            assert engine.cache.stats.stores == 0


class TestCancelScope:
    def test_scope_applies_to_nested_calls(self):
        token = CancelToken()
        token.cancel()
        with Engine() as engine:
            with engine.cancel_scope(token):
                with pytest.raises(JobCancelled):
                    engine.run(make_job())
            # Outside the scope the token no longer applies.
            result = engine.run(make_job())
            assert result.shots == 400

    def test_explicit_token_wins_over_scope(self):
        scoped = CancelToken()
        explicit = CancelToken()
        explicit.cancel()
        with Engine() as engine:
            with engine.cancel_scope(scoped):
                with pytest.raises(JobCancelled):
                    engine.run(make_job(), cancel=explicit)

    def test_none_scope_is_transparent(self):
        token = CancelToken()
        token.cancel()
        with Engine() as engine:
            with engine.cancel_scope(token):
                with engine.cancel_scope(None):
                    # None means "no new scope", the outer token stays.
                    with pytest.raises(JobCancelled):
                        engine.run(make_job())

    def test_scope_is_thread_local(self):
        token = CancelToken()
        token.cancel()
        outcome = {}
        with Engine() as engine:
            def other_thread():
                try:
                    outcome["result"] = engine.run(make_job())
                except JobCancelled:  # pragma: no cover - the failure mode
                    outcome["result"] = None

            with engine.cancel_scope(token):
                thread = threading.Thread(target=other_thread)
                thread.start()
                thread.join()
        assert outcome["result"] is not None

    def test_scope_wraps_experiment_run(self):
        # The service-worker form: the engine call happens deep inside
        # Experiment.run, with no cancel= parameter to thread through.
        # (swap_test routes through engine.run_many; kinds like
        # ghz_fidelity sample frames directly and bypass the engine.)
        from repro.api import Experiment

        token = CancelToken()
        token.cancel()
        experiment = Experiment.swap_test(
            [[1, 0], [1, 0]], shots=200, seed=5
        )
        with Engine() as engine:
            with engine.cancel_scope(token):
                with pytest.raises(JobCancelled):
                    experiment.run(engine=engine)
