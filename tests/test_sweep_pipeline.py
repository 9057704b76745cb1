"""Cross-job pipeline, scheduler failure handling, and checkpointed sweeps.

Pins the contracts of the sweep-scale execution path:

* pipelined ``run_many``/``sweep`` are bit-identical to the per-job serial
  path at any worker count (RNG substreams depend only on
  ``(job.seed, batch.index)``);
* a failing batch cancels/drains the rest of the submission and surfaces
  a :class:`BatchExecutionError` naming the ``(job_index, batch_index)``;
* corrupted disk-cache entries are served as misses (counted, deleted);
* a sweep killed mid-run resumes from its checkpoint without recomputing
  finished points, and streaming surfaces (``Engine.as_completed``,
  ``SweepResult.partial``) report progress incrementally.
"""

import json

import numpy as np
import pytest

from repro.api import Experiment
from repro.circuits import Circuit
from repro.core import build_monolithic_swap_test, swap_test_job
from repro.engine import BatchExecutionError, Engine, Job, ResultCache
from repro.utils import random_density_matrix, random_pure_state


def small_sv_job(seed: int = 5, shots: int = 240, batch_size: int = 60) -> Job:
    build = build_monolithic_swap_test(2, 1, variant="b", basis="x")
    local = np.random.default_rng(1234)
    states = [random_pure_state(1, local), random_pure_state(1, local)]
    return swap_test_job(build, states, shots, seed, batch_size=batch_size)


def exact_ghz_job() -> Job:
    circuit = Circuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return Job(circuit=circuit, shots=0, seed=1, mode="exact", readout=(0, 1))


def result_bits(result):
    return (result.parity_mean, result.parity_stderr, result.counts)


class TestPipelinedExecution:
    SEEDS = (1, 2, 3, 4, 5)

    def reference(self):
        with Engine(workers=1) as serial:
            return [serial.run(small_sv_job(seed=s)) for s in self.SEEDS]

    def test_pipelined_bit_identical_across_worker_counts(self):
        reference = self.reference()
        for workers in (1, 4, 8):
            with Engine(workers=workers) as engine:
                piped = engine.run_many([small_sv_job(seed=s) for s in self.SEEDS])
            assert [result_bits(r) for r in piped] == [result_bits(r) for r in reference]

    def test_pipelined_process_pool_identity(self):
        reference = self.reference()
        with Engine(workers=2, executor="process") as engine:
            piped = engine.run_many([small_sv_job(seed=s) for s in self.SEEDS])
        assert [result_bits(r) for r in piped] == [result_bits(r) for r in reference]

    def test_sweep_pipelined_matches_serial(self):
        def make_job(seed):
            return small_sv_job(seed=seed)

        grid = {"seed": [7, 8, 9]}
        with Engine(workers=1) as serial:
            base = serial.sweep(make_job, grid)
        with Engine(workers=4) as pooled:
            piped = pooled.sweep(make_job, grid)
        assert [p.params for p in piped] == [p.params for p in base]
        assert [result_bits(p.result) for p in piped] == [
            result_bits(p.result) for p in base
        ]

    def test_as_completed_yields_every_job_once(self):
        jobs = [small_sv_job(seed=s) for s in self.SEEDS]
        with Engine(workers=4) as engine:
            pairs = list(engine.as_completed(jobs))
        indices = [index for index, _ in pairs]
        assert sorted(indices) == list(range(len(jobs)))
        by_index = dict(pairs)
        for index, job in enumerate(jobs):
            assert by_index[index].job_hash == job.content_hash()

    def test_as_completed_serves_cache_hits_first(self):
        with Engine(workers=4, cache=True) as engine:
            engine.run(small_sv_job(seed=2))
            pairs = list(
                engine.as_completed([small_sv_job(seed=1), small_sv_job(seed=2)])
            )
        # The cached job (index 1) streams out before any computed job.
        assert pairs[0][0] == 1 and pairs[0][1].from_cache
        assert not pairs[1][1].from_cache

    def test_duplicate_jobs_deduped_with_cache(self):
        with Engine(workers=4, cache=True) as engine:
            results = engine.run_many(
                [small_sv_job(seed=1), small_sv_job(seed=1), small_sv_job(seed=2)]
            )
            assert engine.cache.stats.stores == 2  # one computation per distinct job
            assert engine.cache.stats.hits == 1
            pipelined = engine.cache.stats.to_dict()
        assert results[1].from_cache and not results[0].from_cache
        assert result_bits(results[0]) == result_bits(results[1])
        # Counter parity: the pipelined path records the same hit/miss
        # profile as running the same jobs one at a time.
        with Engine(workers=1, cache=True) as serial:
            for seed in (1, 1, 2):
                serial.run(small_sv_job(seed=seed))
            reference = serial.cache.stats.to_dict()
        assert pipelined == reference

    def test_duplicate_jobs_deduped_on_serial_engine(self):
        # The non-pooled fallback honours the same dedupe contract.
        with Engine(workers=1, cache=True) as engine:
            results = engine.run_many([small_sv_job(seed=1), small_sv_job(seed=1)])
            assert engine.cache.stats.stores == 1
        assert not results[0].from_cache and results[1].from_cache
        assert result_bits(results[0]) == result_bits(results[1])

    def test_duplicate_jobs_without_cache_computed_independently(self):
        with Engine(workers=4) as engine:
            results = engine.run_many([small_sv_job(seed=1), small_sv_job(seed=1)])
        assert not results[0].from_cache and not results[1].from_cache
        assert result_bits(results[0]) == result_bits(results[1])

    def test_density_jobs_run_inline_alongside_pooled(self):
        jobs = [small_sv_job(seed=1), exact_ghz_job(), small_sv_job(seed=2)]
        with Engine(workers=4) as engine:
            results = engine.run_many(jobs)
        assert results[1].backend == "density"
        assert results[1].probabilities["00"] == pytest.approx(0.5)
        assert result_bits(results[0]) == result_bits(self.reference()[0])


class TestFailurePaths:
    @staticmethod
    def failing(monkeypatch, fail_batch_index):
        from repro.engine import runners

        original = runners.execute_batch

        def flaky(job, batch, backend):
            if batch.index == fail_batch_index:
                raise RuntimeError("injected batch failure")
            return original(job, batch, backend)

        # Both the scheduler's single-job path and the engine pipeline
        # resolve execute_batch through their own module globals.
        monkeypatch.setattr("repro.engine.scheduler.execute_batch", flaky)
        monkeypatch.setattr("repro.engine.engine.execute_batch", flaky)
        return flaky

    def test_scheduler_tags_batch_and_stays_usable(self, monkeypatch):
        self.failing(monkeypatch, fail_batch_index=2)
        with Engine(workers=3) as engine:
            with pytest.raises(BatchExecutionError) as info:
                engine.run(small_sv_job(seed=1))
            assert info.value.batch_index == 2
            assert isinstance(info.value.__cause__, RuntimeError)
            # The pool was drained, not wedged: it still executes work.
            monkeypatch.undo()
            result = engine.run(small_sv_job(seed=1))
        assert result.num_batches == 4

    def test_pipeline_tags_job_and_batch(self, monkeypatch):
        self.failing(monkeypatch, fail_batch_index=1)
        with Engine(workers=3) as engine:
            with pytest.raises(BatchExecutionError) as info:
                engine.run_many([small_sv_job(seed=1), small_sv_job(seed=2)])
            assert info.value.batch_index == 1
            assert info.value.job_index in (0, 1)
            monkeypatch.undo()
            results = engine.run_many([small_sv_job(seed=1), small_sv_job(seed=2)])
        assert all(r.num_batches == 4 for r in results)

    def test_serial_path_raises_original_exception(self, monkeypatch):
        # Inline execution (no pool) keeps the raw exception type.
        self.failing(monkeypatch, fail_batch_index=0)
        with Engine(workers=1) as engine:
            with pytest.raises(RuntimeError, match="injected"):
                engine.run(small_sv_job(seed=1))


class TestCacheRobustness:
    def test_truncated_disk_entry_is_miss_and_deleted(self, tmp_path):
        directory = tmp_path / "cache"
        job = small_sv_job(seed=41)
        with Engine(cache=directory) as engine:
            first = engine.run(job)
        entry = next(directory.glob("*.json"))
        entry.write_text(entry.read_text()[:19])  # interrupted-write shape
        cache = ResultCache(directory=directory)
        assert cache.get(job.content_hash()) is None
        assert cache.stats.corrupt == 1 and cache.stats.misses == 1
        assert not entry.exists()
        with Engine(cache=cache) as engine:
            again = engine.run(small_sv_job(seed=41))
        assert not again.from_cache
        assert result_bits(again) == result_bits(first)
        # The recomputed entry was re-stored and reads back cleanly.
        assert ResultCache(directory=directory).get(job.content_hash()) is not None

    def test_wrong_schema_entry_is_miss(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        job = small_sv_job(seed=42)
        (directory / f"{job.content_hash()}.json").write_text(
            json.dumps({"not": "a job result"})
        )
        cache = ResultCache(directory=directory)
        assert cache.get(job.content_hash()) is None
        assert cache.stats.corrupt == 1

    def test_split_hit_counters(self, tmp_path):
        directory = tmp_path / "cache"
        job = small_sv_job(seed=43)
        with Engine(cache=directory) as engine:
            engine.run(job)
        cache = ResultCache(directory=directory)
        assert cache.get(job.content_hash()) is not None  # disk tier
        assert cache.get(job.content_hash()) is not None  # promoted to memory
        assert cache.stats.hits_disk == 1 and cache.stats.hits_memory == 1
        assert cache.stats.hits == 2  # envelope-compatible sum
        payload = cache.stats.to_dict()
        assert payload["hits"] == 2
        assert payload["hits_memory"] == 1 and payload["hits_disk"] == 1

    def test_put_leaves_no_temp_files(self, tmp_path):
        directory = tmp_path / "cache"
        with Engine(cache=directory) as engine:
            engine.run(small_sv_job(seed=44))
        names = [p.name for p in directory.iterdir()]
        assert len(names) == 1 and names[0].endswith(".json")
        json.loads((directory / names[0]).read_text())  # complete JSON


class TestCheckpointedSweeps:
    VALUES = [128, 192, 256, 320]

    @staticmethod
    def base_experiment(seed: int = 11):
        rng = np.random.default_rng(5)
        states = [random_density_matrix(1, rng=rng) for _ in range(2)]
        return Experiment.swap_test(states, shots=256, seed=seed, variant="b")

    def run_sweep(self, checkpoint=None, engine=None):
        return self.base_experiment().sweep(
            over="shots", values=self.VALUES, checkpoint=checkpoint, engine=engine
        )

    def test_killed_sweep_resumes_without_recompute(self, tmp_path):
        base = self.base_experiment()
        with Engine(workers=2) as engine:
            iterator = base.sweep_iter(
                over="shots", values=self.VALUES, engine=engine, checkpoint=tmp_path
            )
            for count, (point, sweep) in enumerate(iterator, start=1):
                assert not point.result.resumed
                if count == 2:
                    iterator.close()  # the "kill": abandon the sweep mid-run
                    break
            jobs_before = engine.stats.jobs
        assert jobs_before == 4  # 2 points x (x-basis + y-basis)

        with Engine(workers=2) as engine:
            sweep = self.run_sweep(checkpoint=tmp_path, engine=engine)
            # Only the two unfinished points executed jobs.
            assert engine.stats.jobs == 4
        assert sweep.complete and sweep.total == len(self.VALUES)
        assert sweep.resumed == 2
        assert [p.result.resumed for p in sweep] == [True, True, False, False]
        # Resumed and recomputed points together match a checkpoint-free run.
        assert sweep.estimates() == self.run_sweep().estimates()

    def test_completed_sweep_resumes_fully(self, tmp_path):
        first = self.run_sweep(checkpoint=tmp_path)
        with Engine(workers=1) as engine:
            second = self.run_sweep(checkpoint=tmp_path, engine=engine)
            assert engine.stats.jobs == 0  # nothing recomputed
        assert second.resumed == len(self.VALUES)
        assert second.estimates() == first.estimates()
        assert [r.seed for r in second.results()] == [r.seed for r in first.results()]

    def test_corrupt_point_file_recomputed(self, tmp_path):
        first = self.run_sweep(checkpoint=tmp_path)
        point_files = sorted((tmp_path / first.base_hash).glob("point-*.json"))
        assert len(point_files) == len(self.VALUES)
        point_files[0].write_text("{broken")
        again = self.run_sweep(checkpoint=tmp_path)
        assert again.resumed == len(self.VALUES) - 1
        assert again.estimates() == first.estimates()

    def test_with_exact_rerun_not_served_exactless_envelopes(self, tmp_path):
        base = self.base_experiment()
        without = base.sweep(over="shots", values=self.VALUES, checkpoint=tmp_path)
        assert all(r.exact is None for r in without.results())
        with_ref = base.sweep(
            over="shots", values=self.VALUES, checkpoint=tmp_path, with_exact=True
        )
        assert with_ref.resumed == 0  # exact-less points must not resume
        assert all(r.exact is not None for r in with_ref.results())
        # ... but an identical with_exact re-run resumes from its own points.
        again = base.sweep(
            over="shots", values=self.VALUES, checkpoint=tmp_path, with_exact=True
        )
        assert again.resumed == len(self.VALUES)
        assert all(r.exact is not None for r in again.results())

    def test_checkpoints_keyed_by_base_hash(self, tmp_path):
        self.run_sweep(checkpoint=tmp_path)
        other = self.base_experiment(seed=12).sweep(
            over="shots", values=self.VALUES, checkpoint=tmp_path
        )
        assert other.resumed == 0  # a different base never serves these points

    def test_unseeded_sweep_resumes_with_recorded_seed(self, tmp_path):
        # seed=None draws a seed on the first run; the checkpoint records
        # it so the re-run lands in the same namespace and resumes.
        base = self.base_experiment(seed=None)
        first = base.sweep(over="shots", values=self.VALUES, checkpoint=tmp_path)
        with Engine(workers=1) as engine:
            second = base.sweep(
                over="shots", values=self.VALUES, checkpoint=tmp_path, engine=engine
            )
            assert engine.stats.jobs == 0
        assert second.resumed == len(self.VALUES)
        assert second.base_hash == first.base_hash
        assert second.estimates() == first.estimates()
        assert [r.seed for r in second.results()] == [r.seed for r in first.results()]

    def test_resume_across_worker_counts(self, tmp_path):
        # Pool configuration never changes the estimates, so it must not
        # key the checkpoint: a sweep interrupted at workers=1 resumes on
        # a bigger pool.
        base = self.base_experiment()
        first = base.sweep(over="shots", values=self.VALUES, checkpoint=tmp_path)
        rescaled = base.with_options(workers=4, executor="thread", cache=True)
        second = rescaled.sweep(over="shots", values=self.VALUES, checkpoint=tmp_path)
        assert second.base_hash == first.base_hash
        assert second.resumed == len(self.VALUES)
        assert second.estimates() == first.estimates()

    def test_partial_snapshots_are_stable(self, tmp_path):
        base = self.base_experiment()
        snapshots = []
        for point, sweep in base.sweep_iter(over="shots", values=self.VALUES):
            snapshots.append(sweep.partial())
        assert [len(s) for s in snapshots] == [1, 2, 3, 4]
        assert not snapshots[0].complete and snapshots[-1].complete
        # Earlier snapshots were not mutated by later points.
        assert len(snapshots[0].points) == 1
        # A partial snapshot serializes like any finished sweep.
        payload = snapshots[1].to_dict()
        assert len(payload["points"]) == 2 and payload["total"] == 4

    def test_sweep_round_trip_keeps_progress_counters(self, tmp_path):
        sweep = self.run_sweep(checkpoint=tmp_path)
        resumed = self.run_sweep(checkpoint=tmp_path)
        from repro.api import SweepResult

        rebuilt = SweepResult.from_dict(json.loads(json.dumps(resumed.to_dict())))
        assert rebuilt.total == len(self.VALUES)
        assert rebuilt.resumed == len(self.VALUES)
        assert rebuilt.estimates() == sweep.estimates()
