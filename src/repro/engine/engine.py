"""The Engine facade: the single entry point for all shot execution.

Layers (each independently testable):

* :class:`~repro.engine.job.Job` / :class:`~repro.engine.job.JobResult` —
  content-hashed work spec and aggregated outcome;
* :class:`~repro.engine.router.BackendRouter` — picks the cheapest capable
  simulator per job;
* :class:`~repro.engine.scheduler.Scheduler` — splits shots into batches
  and fans them across a worker pool, deterministically;
* :class:`~repro.engine.cache.ResultCache` — in-memory + on-disk result
  store keyed on the job hash.

One execution path: :meth:`Engine.run` is ``run_many([job])[0]`` and
:meth:`Engine.sweep` calls :meth:`Engine.run_many`.  Each job is routed
and planned once; :meth:`~repro.engine.scheduler.Scheduler.decide` runs
it inline on the calling thread or sends it to the pool.  All pooled
batches of all non-cached jobs are submitted at once (futures keyed by
``(job_index, batch_index)``) and each job is reduced in batch-index order
as its futures complete, so a sweep of many small jobs keeps every worker
busy across job boundaries instead of draining the pool at each job's
tail.  RNG substreams depend only on ``(job.seed, batch.index)``, so
results are bit-identical at any worker count and executor.
:meth:`Engine.as_completed` exposes the same machinery as a stream,
yielding ``(index, result)`` pairs in completion order for incremental
progress reporting.
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, FIRST_EXCEPTION, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..obs.runtime import NOOP, Observability
from .cache import ResultCache
from .cancel import CancelToken, JobCancelled
from .costmodel import CostModel
from .job import Job, JobResult
from .router import BackendChoice, BackendRouter
from .runners import (
    BatchExecutionError,
    BatchStats,
    WorkerJobMiss,
    execute_batch,
    execute_batch_outcomes,
)
from .scheduler import Scheduler
from .shm import OutcomeMatrix, SharedOutcomeBuffer

__all__ = ["Engine", "EngineStats", "SweepPoint", "grid_points"]

_log = logging.getLogger("repro.engine")


def grid_points(grid: Mapping[str, Sequence]):
    """Yield the cartesian product of ``grid`` as parameter dicts.

    Row-major order of the grid's keys — the ordering contract shared by
    :meth:`Engine.sweep` and :meth:`repro.api.Experiment.sweep`.
    """
    keys = list(grid)
    for combo in itertools.product(*(grid[k] for k in keys)):
        yield dict(zip(keys, combo))


@dataclass
class EngineStats:
    """Cumulative execution statistics of one engine.

    Two time totals with different meanings, both reported:

    * ``wall_time`` sums each job's own elapsed time; under cross-job
      pipelining jobs overlap, so this total can exceed the actual wall
      clock (it measures work, not latency);
    * ``elapsed`` is the true wall clock, measured at the outermost
      ``run``/``run_many``/``sweep`` call (nested calls are not double
      counted) — the denominator for throughput (``shots / elapsed``).
    """

    jobs: int = 0
    cached_jobs: int = 0
    shots: int = 0
    wall_time: float = 0.0
    elapsed: float = 0.0
    compile_time: float = 0.0
    execute_time: float = 0.0
    backends: Counter = field(default_factory=Counter)

    @property
    def shots_per_second(self) -> float:
        """Throughput over the true wall clock (0.0 before any run)."""
        return self.shots / self.elapsed if self.elapsed > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-safe dict (cache stats are merged in by the engine)."""
        return {
            "jobs": self.jobs,
            "cached_jobs": self.cached_jobs,
            "shots": self.shots,
            "wall_time": self.wall_time,
            "elapsed": self.elapsed,
            "shots_per_second": self.shots_per_second,
            "compile_time": self.compile_time,
            "execute_time": self.execute_time,
            "backends": dict(self.backends),
        }


@dataclass
class SweepPoint:
    """One grid point of a parameter sweep."""

    params: dict
    result: JobResult


@dataclass
class _PendingJob:
    """In-flight bookkeeping of one pipelined job."""

    job: Job
    key: str
    choice: BackendChoice
    expected: int
    started: float
    stats: list[BatchStats] = field(default_factory=list)
    span: object = None  # the job's open trace span (noop when disabled)
    program: object = None  # parent-compiled program (WorkerJobMiss retries)


class Engine:
    """Batched, cached, backend-routed shot execution.

    ``cache`` may be ``True`` (in-memory), ``False``/``None`` (disabled), a
    path (in-memory + on-disk), or a ready :class:`ResultCache`.
    """

    def __init__(
        self,
        workers: int = 1,
        executor: str = "thread",
        cache: bool | str | ResultCache | None = False,
        router: BackendRouter | None = None,
        obs: Observability | None = None,
        cost_model: CostModel | None = None,
    ):
        self.scheduler = Scheduler(
            workers=workers, executor=executor, cost_model=cost_model
        )
        self.router = router or BackendRouter()
        if isinstance(cache, ResultCache):
            self.cache: ResultCache | None = cache
        elif cache is True:
            self.cache = ResultCache()
        elif cache:
            self.cache = ResultCache(directory=cache)
        else:
            self.cache = None
        self.stats = EngineStats()
        #: Per-thread state: top-level call nesting (for EngineStats.elapsed)
        #: and the active cancel scope.  Thread-local so concurrent engine
        #: calls (the multi-tenant service) neither corrupt the depth guard
        #: nor see each other's cancel tokens.
        self._tls = threading.local()
        self._stats_lock = threading.Lock()
        #: Cross-call single flight: job hashes currently being computed
        #: by some thread, each mapped to the event its joiners wait on.
        #: This is what lets concurrent tenants on a shared service
        #: engine compute identical jobs exactly once.
        self._inflight: dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()
        self.obs = NOOP
        self.set_observability(obs)

    def set_observability(self, obs: Observability | None) -> None:
        """Install (or, with None, disable) tracing/metrics on this engine.

        Propagates the bundle to the scheduler and the cache, so batch
        submission ships trace contexts and cache lookups are tagged.
        """
        self.obs = obs if obs is not None else NOOP
        self.scheduler.obs = self.obs
        if self.cache is not None:
            self.cache.obs = self.obs

    def prewarm(self) -> list[int]:
        """Spin up process-pool workers ahead of the first submission.

        Returns the distinct worker PIDs that answered (empty when there is
        no process pool to warm).  Purely a latency optimisation — calling
        it keeps pool start-up cost out of the first job's critical path
        (and out of benchmark timing windows).
        """
        return self.scheduler.prewarm()

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    @contextmanager
    def cancel_scope(self, token: CancelToken | None):
        """Apply ``token`` to every engine call on this thread in the block.

        The form a serving layer uses when the engine calls happen deep
        inside library code (:meth:`repro.api.Experiment.run`) that has no
        ``cancel=`` parameter to thread through.  Scopes nest; the
        innermost wins.  ``None`` is accepted and means "no scope".
        """
        previous = getattr(self._tls, "cancel", None)
        self._tls.cancel = token if token is not None else previous
        try:
            yield token
        finally:
            self._tls.cancel = previous

    def _cancel_for(self, explicit: CancelToken | None) -> CancelToken | None:
        """The effective token: the explicit one, else the thread's scope."""
        if explicit is not None:
            return explicit
        return getattr(self._tls, "cancel", None)

    # ------------------------------------------------------------------
    # Single flight (cross-call dedupe on the shared cache)
    # ------------------------------------------------------------------
    def _try_claim(self, key: str) -> tuple[bool, threading.Event | None]:
        """Claim ``key``'s computation, or return the owner's event.

        ``(True, None)`` means this thread owns the flight and must call
        :meth:`_release` when the result is stored (or the attempt is
        abandoned).  ``(False, event)`` means another thread is already
        computing this hash; wait on ``event`` and read the cache.  With
        no cache there is nothing to share, so every caller owns.
        """
        if self.cache is None:
            return True, None
        with self._inflight_lock:
            event = self._inflight.get(key)
            if event is None:
                self._inflight[key] = threading.Event()
                return True, None
            return False, event

    def _release(self, key: str) -> None:
        """End ``key``'s flight and wake its joiners (idempotent)."""
        if self.cache is None:
            return
        with self._inflight_lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def _join(self, event: threading.Event, cancel: CancelToken | None) -> None:
        """Wait for another thread's flight, staying cancel-responsive."""
        if cancel is None:
            event.wait()
            return
        while not event.wait(0.05):
            cancel.raise_if_cancelled()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, job: Job, *, cancel: CancelToken | None = None) -> JobResult:
        """Execute one job (or serve it from cache): ``run_many([job])[0]``.

        ``cancel`` (or an enclosing :meth:`cancel_scope`) cooperatively
        aborts between batches with
        :class:`~repro.engine.cancel.JobCancelled`.
        """
        return self.run_many([job], cancel=cancel)[0]

    def run_many(
        self, jobs: Sequence[Job], *, cancel: CancelToken | None = None
    ) -> list[JobResult]:
        """Execute several jobs; all jobs' batches share the worker pool.

        The engine's one execution path (:meth:`run` and :meth:`sweep` go
        through it).  Each job is routed and planned once, and
        :meth:`~repro.engine.scheduler.Scheduler.decide` says whether its
        batches run inline on the calling thread or go to the pool.  Every
        pooled batch of every non-cached job is submitted at once, so
        small jobs cannot leave workers idle at job boundaries, and the
        inline jobs run while the pool works.  Results are bit-identical
        at equal seeds for any worker count and executor.
        """
        jobs = list(jobs)
        results: list[JobResult | None] = [None] * len(jobs)
        for index, result in self.as_completed(jobs, cancel=cancel):
            results[index] = result
        return results

    def as_completed(
        self, jobs: Sequence[Job], *, cancel: CancelToken | None = None
    ) -> Iterator[tuple[int, JobResult]]:
        """Yield ``(job_index, JobResult)`` pairs in completion order.

        Cache hits are yielded immediately; the remaining jobs' batches
        are all submitted to the pool at once and each job is reduced (in
        batch-index order) the moment its last batch lands, so long sweeps
        can report progress incrementally.  When the cache is enabled,
        duplicate jobs inside one call are computed once and the repeats
        served as cache hits.
        Duplicates *across* concurrent calls (two tenants of a shared
        service engine sweeping overlapping grids) are deduped the same
        way: a job some other thread is already computing is joined and
        served from the cache when that computation stores, so identical
        physics is computed exactly once engine-wide.
        Under pipelining a job's ``elapsed`` is its submission-to-reduce
        latency on the shared pool (batches of different jobs interleave),
        not the time a dedicated pool would have needed.

        On the first batch failure every outstanding future is cancelled
        and drained, then a
        :class:`~repro.engine.runners.BatchExecutionError` naming the
        failed ``(job_index, batch_index)`` propagates.  A tripped
        ``cancel`` token likewise cancels and drains, then raises
        :class:`~repro.engine.cancel.JobCancelled` — the service's
        ``DELETE /jobs/{id}`` path.
        """
        jobs = list(jobs)
        cancel = self._cancel_for(cancel)
        with self._toplevel():
            tracer = self.obs.tracer
            root = tracer.begin(
                "engine.run_many",
                jobs=len(jobs),
                workers=self.scheduler.workers,
                executor=self.scheduler.executor_kind,
                pooled=self.scheduler.pooled,
            )
            error = None
            try:
                yield from self._as_completed(jobs, root.span_id, cancel)
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.end(root, error=error)

    def _as_completed(
        self, jobs: list[Job], parent_id: str | None, cancel: CancelToken | None = None
    ) -> Iterator[tuple[int, JobResult]]:
        if cancel is not None:
            cancel.raise_if_cancelled()
        pending: list[tuple[int, Job, str]] = []
        pending_keys: set[str] = set()
        for index, job in enumerate(jobs):
            key = job.content_hash()
            if key in pending_keys:
                # A known in-flight duplicate: skip the redundant lookup
                # (and its miss counter) — it will be served from cache
                # after the first occurrence computes.
                pending.append((index, job, key))
                continue
            hit = self._cache_hit(key, parent_id=parent_id)
            if hit is not None:
                yield index, hit
            else:
                pending.append((index, job, key))
                pending_keys.add(key)
        if pending:
            yield from self._pipeline(pending, parent_id, cancel)

    def sweep(
        self,
        make_job: Callable[..., Job],
        grid: Mapping[str, Sequence],
        *,
        cancel: CancelToken | None = None,
    ) -> list[SweepPoint]:
        """Run ``make_job(**params)`` over the cartesian product of ``grid``.

        Returns one :class:`SweepPoint` per grid point, in row-major order
        of the grid's keys.  All points' batches share the worker pool
        (see :meth:`run_many`).
        """
        params_list = list(grid_points(grid))
        jobs = [make_job(**params) for params in params_list]
        with self._toplevel():
            results = self.run_many(jobs, cancel=cancel)
        return [
            SweepPoint(params=params, result=result)
            for params, result in zip(params_list, results)
        ]

    def sample_outcomes(
        self,
        job: Job,
        *,
        forced_outcomes: tuple[int, ...] | None = None,
        cancel: CancelToken | None = None,
    ) -> OutcomeMatrix:
        """Every shot's classical register as one ``(shots, num_clbits)`` matrix.

        The cross-validation surface: rows come from exactly the RNG
        substreams the aggregate path consumes, so a ``Counter`` over the
        rows equals :meth:`run`'s counts at equal seeds, and row order is
        the deterministic batch-partition order.  On a process pool each
        batch writes its rows into one shared-memory segment *in place*
        (nothing crosses the IPC boundary by value); the returned handle
        owns the segment — use it as a context manager, or ``close()`` it,
        and take :meth:`~repro.engine.shm.OutcomeMatrix.copy` for data that
        must outlive the handle.

        ``forced_outcomes`` forces collapse outcomes in program order for
        every shot (the batched analogue of the reference interpreter's
        branch forcing).
        """
        cancel = self._cancel_for(cancel)
        if job.mode == "exact":
            raise ValueError("exact-mode jobs have no per-shot outcomes to sample")
        if job.ensembles:
            raise ValueError(
                "outcome matrices require a fixed initial state; ensemble draws "
                "are grouped by component and would reorder rows"
            )
        choice = self.router.select(job)
        backend = (
            choice.name
            if choice.name in ("statevector", "statevector-ref")
            else "statevector"
        )
        batches = self.scheduler.plan(job)
        offsets = []
        offset = 0
        for batch in batches:
            offsets.append(offset)
            offset += batch.shots
        num_clbits = job.circuit.num_clbits
        pooled = self.scheduler.process_pooled and len(batches) > 1
        tracer = self.obs.tracer
        span = tracer.begin(
            "engine.outcomes", shots=job.shots, backend=backend, shared=pooled
        )
        error = None
        try:
            if not pooled:
                matrix = np.zeros((job.shots, num_clbits), dtype=np.uint8)
                for batch, row_offset in zip(batches, offsets):
                    if cancel is not None:
                        cancel.raise_if_cancelled()
                    piece = execute_batch_outcomes(
                        job,
                        batch,
                        backend,
                        row_offset=row_offset,
                        forced_outcomes=forced_outcomes,
                    )
                    matrix[row_offset : row_offset + batch.shots] = piece.clbits
                return OutcomeMatrix(matrix)
            if cancel is not None:
                cancel.raise_if_cancelled()
            buffer = SharedOutcomeBuffer.create(job.shots, num_clbits)
            try:
                futures = [
                    self.scheduler.submit_outcomes(
                        job,
                        batch,
                        backend,
                        row_offset=row_offset,
                        shm_spec=buffer.spec(),
                        forced_outcomes=forced_outcomes,
                    )
                    for batch, row_offset in zip(batches, offsets)
                ]
                done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
                failed = next(
                    (
                        f
                        for f in done
                        if not f.cancelled() and f.exception() is not None
                    ),
                    None,
                )
                if failed is not None:
                    self.scheduler.cancel_and_drain(not_done)
                    exc = failed.exception()
                    raise BatchExecutionError(
                        f"outcome batch failed on backend {backend!r}: {exc}"
                    ) from exc
            except BaseException:
                buffer.close()
                raise
            return OutcomeMatrix(buffer.array, buffer)
        except BaseException as exc:
            error = exc
            raise
        finally:
            tracer.end(span, error=error)

    @contextmanager
    def _toplevel(self):
        """Accumulate ``stats.elapsed`` on the outermost engine call only.

        ``sweep`` → ``run_many`` → ``as_completed`` all pass through here;
        the depth guard (per thread, so concurrent service calls do not
        corrupt each other's nesting) makes sure true wall clock is
        counted exactly once per user-facing call, never summed across
        the nesting.
        """
        depth = getattr(self._tls, "depth", 0)
        self._tls.depth = depth + 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._tls.depth = depth
            if depth == 0:
                with self._stats_lock:
                    self.stats.elapsed += time.perf_counter() - start

    # ------------------------------------------------------------------
    # Pipelined execution internals
    # ------------------------------------------------------------------
    def _pipeline(
        self, pending, parent_id: str | None = None, cancel: CancelToken | None = None
    ) -> Iterator[tuple[int, JobResult]]:
        """Run every pending job: pooled batches fan out, inline jobs run here."""
        # Within-run dedupe: with a cache, one computation per distinct
        # hash; repeats are served from cache when the original finishes.
        duplicates: dict[str, list[int]] = {}
        submit: list[tuple[int, Job, str]] = []
        if self.cache is not None:
            first_for: dict[str, int] = {}
            for index, job, key in pending:
                if key in first_for:
                    duplicates.setdefault(key, []).append(index)
                else:
                    first_for[key] = index
                    submit.append((index, job, key))
        else:
            submit = pending

        # Cross-call single flight: a key some other thread is already
        # computing is joined (awaited after our own work, then served
        # from cache) instead of recomputed — the cross-tenant dedupe a
        # shared service engine relies on.  Claims are released the
        # moment each job's result is stored, so joiners never wait past
        # the store.
        owned: list[tuple[int, Job, str]] = []
        joined: list[tuple[tuple[int, Job, str], threading.Event]] = []
        claimed: set[str] = set()
        for entry in submit:
            is_owner, event = self._try_claim(entry[2])
            if is_owner:
                owned.append(entry)
                if self.cache is not None:
                    claimed.add(entry[2])
            else:
                joined.append((entry, event))

        tracer = self.obs.tracer
        states: dict[int, _PendingJob] = {}
        future_map: dict = {}

        def start(index, job, key, choice, batches) -> _PendingJob:
            span = tracer.begin(
                "engine.job",
                parent_id=parent_id,
                job_hash=key[:16],
                backend=choice.name,
                shots=job.shots,
                batches=len(batches),
            )
            state = _PendingJob(
                job=job,
                key=key,
                choice=choice,
                expected=len(batches),
                started=time.perf_counter(),
                span=span,
            )
            states[index] = state
            return state

        def settle(index, state) -> Iterator[tuple[int, JobResult]]:
            result = self._finish(
                state.job,
                state.key,
                state.choice,
                state.stats,
                time.perf_counter() - state.started,
                parent_id=state.span.span_id,
            )
            tracer.end(state.span)
            state.span = None
            self._release(state.key)
            claimed.discard(state.key)
            yield index, result
            yield from self._serve_duplicates(duplicates, state.key, parent_id)

        try:
            # Each job is routed and planned once, up front, so a bad job
            # fails before anything runs (and the finally below releases
            # every claim).  The scheduler's dispatch policy sends each job
            # to the pool or keeps it inline on the calling thread, where
            # it runs while the pool chews on the submitted batches.
            inline: list[tuple] = []
            pooled: list[tuple] = []
            for index, job, key in owned:
                choice = self.router.select(job)
                batches = self.scheduler.plan(job)
                plan = self.scheduler.decide(job, choice.name, len(batches))
                target = pooled if plan.pooled else inline
                target.append((index, job, key, choice, plan, batches))

            # Submission happens inside the try so a mid-loop failure
            # (e.g. a broken process pool) still cancels what went in.
            for index, job, key, choice, plan, batches in pooled:
                if cancel is not None:
                    cancel.raise_if_cancelled()
                state = start(index, job, key, choice, batches)
                span_id = state.span.span_id
                if plan.per_batch:
                    for batch in batches:
                        ctx = tracer.batch_context(span_id) if tracer.enabled else None
                        future = self.scheduler.submit(job, batch, choice.name, trace=ctx)
                        future_map[future] = (index, (batch,), ctx, time.perf_counter())
                else:
                    # Warm-worker group dispatch: payload + compiled program
                    # ride the first `workers` groups, later groups go
                    # key-only (WorkerJobMiss retries re-ship the payload).
                    state.program = self.scheduler.compiled_for(job, choice.name)
                    groups = plan.split(batches)
                    state.expected = len(groups)
                    warm = min(len(groups), self.scheduler.workers)
                    for position, group in enumerate(groups):
                        ctx = tracer.batch_context(span_id) if tracer.enabled else None
                        future = self.scheduler.submit_group(
                            job,
                            key,
                            group,
                            choice.name,
                            trace=ctx,
                            program=state.program if position < warm else None,
                            ship_job=position < warm,
                        )
                        future_map[future] = (index, group, ctx, time.perf_counter())

            for index, job, key, choice, _plan, batches in inline:
                state = start(index, job, key, choice, batches)
                span_id = state.span.span_id
                for batch in batches:
                    if cancel is not None:
                        cancel.raise_if_cancelled()
                    if tracer.enabled:
                        ctx = tracer.batch_context(span_id)
                        stats = execute_batch(job, batch, choice.name, trace=ctx)
                        tracer.adopt(stats.spans, parent_id=span_id)
                    else:
                        stats = execute_batch(job, batch, choice.name)
                    state.stats.append(stats)
                yield from settle(index, state)

            # Streaming reduce over a mutable pending set (not a fixed
            # as_completed iterable) so WorkerJobMiss retries can join the
            # stream mid-flight.
            pending_futures = set(future_map)
            while pending_futures:
                done, pending_futures = wait(
                    pending_futures, return_when=FIRST_COMPLETED
                )
                for future in done:
                    if cancel is not None and cancel.cancelled:
                        # The except-handler below cancels every queued
                        # batch and drains the running ones before this
                        # propagates.
                        raise JobCancelled("job cancelled by its cancel token")
                    index, group, ctx, submitted = future_map.pop(future)
                    state = states[index]
                    exc = future.exception()
                    if exc is not None:
                        if isinstance(exc, WorkerJobMiss):
                            retry = self.scheduler.submit_group(
                                state.job,
                                state.key,
                                group,
                                state.choice.name,
                                trace=ctx,
                                program=state.program,
                                ship_job=True,
                            )
                            future_map[retry] = (index, group, ctx, time.perf_counter())
                            pending_futures.add(retry)
                            continue
                        if len(group) == 1:
                            desc = f"batch {group[0].index} ({group[0].shots} shots)"
                        else:
                            desc = (
                                f"batches {group[0].index}..{group[-1].index} "
                                f"({sum(b.shots for b in group)} shots)"
                            )
                        raise BatchExecutionError(
                            f"job {index} {desc} failed on backend "
                            f"{state.choice.name!r}: {exc}",
                            job_index=index,
                            batch_index=group[0].index,
                        ) from exc
                    batch_stats = future.result()
                    if ctx is not None:
                        self._record_batch(
                            state, group, batch_stats, ctx, time.perf_counter() - submitted
                        )
                    self.scheduler.note_group(batch_stats)
                    state.stats.append(batch_stats)
                    if len(state.stats) == state.expected:
                        yield from settle(index, state)

            # Our own work is done (and its claims released), so waiting
            # on other threads' flights cannot deadlock.
            for (index, job, key), event in joined:
                if cancel is not None:
                    cancel.raise_if_cancelled()
                self._join(event, cancel)
                hit = self._cache_hit(key, parent_id=parent_id)
                if hit is None:
                    # The owner aborted without storing (failure or
                    # cancellation): take the flight over on this path.
                    yield from self._pipeline([(index, job, key)], parent_id, cancel)
                else:
                    if tracer.enabled:
                        tracer.event(
                            "engine.singleflight_join",
                            parent_id=parent_id,
                            job_hash=key[:16],
                        )
                    yield index, hit
                yield from self._serve_duplicates(duplicates, key, parent_id)
        except GeneratorExit:
            # An abandoned generator must not leave batches queued — but
            # close() must not block on running ones either.
            for future in future_map:
                future.cancel()
            raise
        except BaseException as exc:
            # Any failure (a dead batch, an inline job, a cache write)
            # quiets the pool before it propagates.
            if tracer.enabled:
                tracer.event(
                    "engine.cancel_and_drain",
                    parent_id=parent_id,
                    futures=len(future_map),
                )
                for state in states.values():
                    if state.span is not None:
                        tracer.end(state.span, error=exc)
                        state.span = None
            self.scheduler.cancel_and_drain(future_map)
            raise
        finally:
            # Abandoned claims (failure, cancellation, a closed stream)
            # must wake their joiners so one of them can take over.
            for key in claimed:
                self._release(key)

    def _record_batch(self, state, group, stats, ctx, latency: float) -> None:
        """Stitch one pooled dispatch into the trace, parent-side view first.

        ``group`` is the tuple of batches behind one future — a single
        batch on thread pools, a whole batch group on process pools.  The
        parent-observed latency (submit → future resolved) decomposes
        into queue wait (submit → worker start, from the shipped context)
        plus worker-side time plus the serialization/IPC remainder — the
        number the run report's ``ipc_share`` is built from.
        """
        records = stats.spans or ()
        worker = next((r for r in records if r["name"] == "worker.batch"), None)
        queue_wait = worker["attrs"].get("queue_wait", 0.0) if worker else 0.0
        worker_time = worker["duration"] if worker else 0.0
        ipc_gap = max(latency - queue_wait - worker_time, 0.0)
        span = self.obs.tracer.record(
            "engine.batch",
            start_unix=ctx["submit_unix"],
            duration=latency,
            parent_id=state.span.span_id if state.span is not None else None,
            batch_index=group[0].index,
            shots=sum(b.shots for b in group),
            batches=len(group),
            queue_wait=queue_wait,
            ipc_gap=ipc_gap,
        )
        self.obs.tracer.adopt(records, parent_id=span.span_id)
        metrics = self.obs.metrics
        metrics.histogram("engine.batch_latency").observe(latency)
        metrics.histogram("engine.queue_wait").observe(queue_wait)
        metrics.histogram("engine.ipc_gap").observe(ipc_gap)

    def _serve_duplicates(
        self, duplicates, key, parent_id: str | None = None
    ) -> Iterator[tuple[int, JobResult]]:
        for dup_index in duplicates.pop(key, ()):
            hit = self._cache_hit(key, parent_id=parent_id)
            yield dup_index, hit

    # ------------------------------------------------------------------
    # Shared per-job bookkeeping
    # ------------------------------------------------------------------
    def _cache_hit(self, key: str, parent_id: str | None = None) -> JobResult | None:
        if self.cache is None:
            return None
        hit = self.cache.get(key, trace_parent=parent_id)
        if hit is None:
            return None
        with self._stats_lock:
            self.stats.jobs += 1
            self.stats.cached_jobs += 1
        return hit

    def _finish(
        self,
        job: Job,
        key: str,
        choice: BackendChoice,
        batch_stats: Sequence[BatchStats],
        elapsed: float,
        parent_id: str | None = None,
    ) -> JobResult:
        tracer = self.obs.tracer
        span = tracer.begin("engine.reduce", parent_id=parent_id, batches=len(batch_stats))
        result = _combine(job, key, choice, batch_stats, elapsed)
        if self.cache is not None:
            self.cache.put(key, result)
        tracer.end(span)
        self.obs.metrics.histogram("engine.job_latency").observe(elapsed)
        with self._stats_lock:
            self.stats.jobs += 1
            self.stats.shots += job.shots
            self.stats.wall_time += elapsed
            self.stats.compile_time += result.compile_time
            self.stats.execute_time += result.execute_time
            self.stats.backends[choice.name] += 1
        return result

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats_dict(self) -> dict:
        """Engine statistics plus cache counters, JSON-safe."""
        payload = self.stats.to_dict()
        payload["cache"] = self.cache.stats.to_dict() if self.cache is not None else None
        return payload

    def close(self) -> None:
        """Release the worker pool."""
        self.scheduler.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _combine(
    job: Job,
    key: str,
    choice: BackendChoice,
    batch_stats: Sequence[BatchStats],
    elapsed: float,
) -> JobResult:
    """Reduce batch (or worker-reduced group) aggregates in index order.

    Group stats arrive pre-folded (see
    :class:`~repro.engine.runners.GroupStats`); their contribution to the
    Counter/parity sums is identical to their member batches', so this
    reduction is bit-identical across dispatch shapes.
    """
    ordered = sorted(batch_stats, key=lambda s: s.index)
    counts: Counter = Counter()
    compile_time = 0.0
    execute_time = 0.0
    for stats in ordered:
        counts.update(stats.counts)
        compile_time += stats.compile_time
        execute_time += stats.execute_time
    parity_mean = parity_stderr = None
    probabilities = None
    if job.mode == "exact":
        probabilities = ordered[0].probabilities
        if job.readout:
            parity_mean = ordered[0].parity_total
            parity_stderr = 0.0
    elif job.readout:
        total = 0.0
        total_sq = 0.0
        for stats in ordered:
            total += stats.parity_total
            total_sq += stats.parity_total_sq
        parity_mean = total / job.shots
        variance = max(total_sq / job.shots - parity_mean * parity_mean, 0.0)
        parity_stderr = math.sqrt(variance / job.shots)
    return JobResult(
        job_hash=key,
        backend=choice.name,
        shots=job.shots,
        num_batches=sum(getattr(stats, "num_batches", 1) for stats in ordered),
        counts=dict(counts) if counts else None,
        probabilities=probabilities,
        parity_mean=parity_mean,
        parity_stderr=parity_stderr,
        elapsed=elapsed,
        compile_time=compile_time,
        execute_time=execute_time,
    )
