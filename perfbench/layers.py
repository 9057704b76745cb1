"""Per-layer attribution for the traced run.

Two sources of timed intervals share one wall clock (``time.time``):

* wrappers that :class:`Instrumentation` installs around each layer's
  public functions, at the name the caller looks up (a module global or
  a class attribute), restored on exit;
* the program's own ``repro.obs`` spans, collected by :class:`ThreadTracer`,
  which stamps every span with the thread that began it.

:meth:`Timeline.partition` splits each request's wall-time window on the
thread that served it: at every instant the innermost (latest-started)
open interval owns the time.  While that interval is a blocking wait on
the engine's worker pool, the instant goes to what the pool is doing for
this request (``worker.execute`` -> ``sim.execute_s``, ``worker.compile``
-> ``sim.compile_s``, the rest of ``worker.batch`` -> ``sim.glue_s``),
and otherwise to ``engine.dispatch_wait_s``.  Time no interval covers is
``obs.unattributed_s``.  The layer metrics are therefore self times that,
with the unattributed remainder, add up to the window.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

#: Metric that owns the self time of each program span name.
SPAN_METRICS = {
    "experiment.run": "api.glue_s",
    "experiment.sweep": "api.glue_s",
    "sweep.point": "api.glue_s",
    "engine.run": "engine.glue_s",
    "engine.run_many": "engine.glue_s",
    "engine.job": "engine.glue_s",
    "engine.reduce": "engine.reduce_s",
    "cache.lookup": "engine.cache_lookup_s",
    "worker.batch": "sim.glue_s",
    "worker.compile": "sim.compile_s",
    "worker.execute": "sim.execute_s",
}

#: Off-thread worker records, highest claim on a pool wait first.
_POOL_PRIORITY = (
    ("worker.execute", "sim.execute_s"),
    ("worker.compile", "sim.compile_s"),
    ("worker.batch", "sim.glue_s"),
)

POOL_WAIT = "engine.pool_wait"


def _tracer_class():
    from repro.obs.trace import Tracer

    class ThreadTracer(Tracer):
        """A tracer whose spans record the thread that began them."""

        def begin(self, name, parent_id=None, **attrs):
            span = super().begin(name, parent_id=parent_id, **attrs)
            span.attrs["tid"] = threading.get_ident()
            return span

    return ThreadTracer


def traced_observability(metrics=None):
    """An enabled ``repro.obs`` bundle whose spans carry thread ids."""
    from repro.obs import Observability

    return Observability(tracer=_tracer_class()(), metrics=metrics)


class Instrumentation:
    """Timing wrappers around the public functions of every layer.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals.  Wrappers record only while :attr:`active`
    is set, so work done between measured requests leaves no frames.
    """

    def __init__(self):
        self.active = False
        #: ``(metric, thread id, start, end)`` of every wrapped call.
        self.frames: list[tuple] = []
        #: ``(shape tag, job, backend)`` of every job the router placed.
        self.jobs: list[tuple] = []
        #: ``job_id -> (thread id, start, end)`` of each service execution.
        self.executions: dict[str, tuple] = {}
        self._tls = threading.local()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    @property
    def shape(self) -> str:
        """The shape tag of the request running on this thread."""
        return getattr(self._tls, "shape", "unknown")

    @shape.setter
    def shape(self, value: str) -> None:
        self._tls.shape = value

    def __enter__(self) -> "Instrumentation":
        try:
            self._install_all()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install_all(self) -> None:
        from repro.api import execution, experiment, result
        from repro.core.protocol import ProtocolBuild
        from repro.engine import engine, job, router, runners, scheduler
        from repro.service import core as service_core

        Experiment = experiment.Experiment
        self._timed(Experiment, "validate", "api.validate_s")
        self._timed(Experiment, "content_hash", "api.hash_s")
        self._timed(Experiment, "run_exact", "api.exact_s")
        for kind in list(execution._EXACTS):
            self._timed(execution._EXACTS, kind, "api.exact_s")
        self._timed(result.ExperimentResult, "to_dict", "api.envelope_s")
        self._timed(service_core, "parse_submission", "service.parse_s")
        self._timed(job.Job, "content_hash", "engine.job_hash_s")
        self._timed(engine, "wait", POOL_WAIT)
        self._timed(scheduler, "wait", POOL_WAIT)
        self._timed(runners, "get_compiled", "sim.compile_s")
        self._timed(scheduler, "get_compiled", "sim.compile_s")
        for name in (
            "build_compas",
            "build_monolithic_swap_test",
            "build_multistate_swap",
            "build_nparty_hadamard",
            "build_nstate_swap",
        ):
            self._timed(execution, name, "core.build_s")
        self._timed(ProtocolBuild, "lowered", "network.lower_s")
        self._timed(execution, "run_report", "obs.report_s")
        self._route(router.BackendRouter)
        self._tag_batches(engine)
        self._tag_batches(scheduler)
        self._service_execute(service_core.ExperimentService)

    def __exit__(self, *exc) -> None:
        self.active = False
        while self._patches:
            owner, name, original = self._patches.pop()
            _set(owner, name, original)

    # ------------------------------------------------------------------
    def _install(self, owner, name, make):
        original = _get(owner, name)
        wrapper = functools.wraps(original)(make(original))
        _set(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _timed(self, owner, name, metric):
        frames = self.frames

        def make(original):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return original(*args, **kwargs)
                start = time.time()
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = start + (time.perf_counter() - t0)
                    frames.append((metric, threading.get_ident(), start, end))

            return wrapper

        self._install(owner, name, make)

    def _route(self, router_cls):
        """Time ``BackendRouter.select`` and remember every job it places."""
        self._timed(router_cls, "select", "engine.route_s")

        def make(original):
            def wrapper(router, job):
                choice = original(router, job)
                if self.active:
                    self.jobs.append((self.shape, job, choice.name))
                return choice

            return wrapper

        self._install(router_cls, "select", make)

    def _tag_batches(self, module):
        """Stamp in-process worker span records with their thread id."""

        def make(original):
            def wrapper(job, batch, backend, trace=None):
                if trace is None:
                    return original(job, batch, backend)
                stats = original(job, batch, backend, trace)
                tid = threading.get_ident()
                for record in stats.spans or ():
                    record["attrs"]["tid"] = tid
                return stats

            return wrapper

        self._install(module, "execute_batch", make)

    def _service_execute(self, service_cls):
        """Remember which thread ran each service job, and when."""
        frames = self.frames
        executions = self.executions

        def make(original):
            def wrapper(service, record):
                if not self.active:
                    return original(service, record)
                experiment = record.submission.experiment
                parties = len(experiment.payload.get("states", ()))
                self.shape = f"{experiment.kind}-k{parties}"
                tid = threading.get_ident()
                start = time.time()
                t0 = time.perf_counter()
                try:
                    return original(service, record)
                finally:
                    end = start + (time.perf_counter() - t0)
                    frames.append(("service.glue_s", tid, start, end))
                    executions[record.job_id] = (tid, start, end)

            return wrapper

        self._install(service_cls, "_execute", make)


def _get(owner, name):
    if isinstance(owner, dict):
        return owner[name]
    if isinstance(owner, type):
        return owner.__dict__[name]
    return getattr(owner, name)


def _set(owner, name, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
class Timeline:
    """Every interval of a traced phase, indexed by thread and by ancestor."""

    def __init__(self, frames, spans):
        pid = os.getpid()
        self.by_thread: dict[int, list[tuple]] = defaultdict(list)
        self.offthread: dict[str, list[tuple]] = defaultdict(list)
        parents = {span["span_id"]: span.get("parent_id") for span in spans}
        for metric, tid, start, end in frames:
            self.by_thread[tid].append((start, end, metric, None))
        for span in spans:
            name = span["name"]
            start = span["start_unix"]
            end = start + span["duration"]
            tid = span["attrs"].get("tid")
            local = span.get("pid", pid) == pid and tid is not None
            if local and name in SPAN_METRICS:
                self.by_thread[tid].append((start, end, SPAN_METRICS[name], span["span_id"]))
            if name.startswith("worker."):
                ancestor = span.get("parent_id")
                while ancestor is not None:
                    self.offthread[ancestor].append((start, end, name, tid))
                    ancestor = parents.get(ancestor)
        for intervals in self.by_thread.values():
            intervals.sort()

    def partition(self, tid: int, w0: float, w1: float, totals: dict) -> None:
        """Add the self times of window ``[w0, w1]`` on thread ``tid`` to ``totals``."""
        events = []
        for interval in self.by_thread.get(tid, ()):
            start, end = interval[0], interval[1]
            if start >= w1:
                break
            if end > w0:
                events.append((max(start, w0), 1, interval))
                events.append((min(end, w1), 0, interval))
        events.sort(key=lambda event: (event[0], event[1]))
        active: list[tuple] = []
        cursor = w0
        for moment, opening, interval in events:
            if moment > cursor:
                self._claim(tid, cursor, moment, active, totals)
                cursor = moment
            if opening:
                active.append(interval)
            else:
                active.remove(interval)
        if w1 > cursor:
            self._claim(tid, cursor, w1, active, totals)

    def _claim(self, tid, a, b, active, totals) -> None:
        if not active:
            totals["obs.unattributed_s"] += b - a
            return
        inner = max(active, key=lambda iv: (iv[0], -iv[1]))
        if inner[2] != POOL_WAIT:
            totals[inner[2]] += b - a
            return
        # A pool wait: this thread is blocked on the off-thread work below
        # the outermost span open here (all open spans belong to this
        # thread's request, and records are clipped to this instant).
        owners = [iv for iv in active if iv[3] is not None and iv[3] in self.offthread]
        if not owners:
            totals["engine.dispatch_wait_s"] += b - a
            return
        owner = min(owners, key=lambda iv: iv[0])
        records = [
            (max(start, a), min(end, b), name)
            for start, end, name, record_tid in self.offthread[owner[3]]
            if end > a and start < b and record_tid != tid
        ]
        cuts = sorted({a, b, *(r[0] for r in records), *(r[1] for r in records)})
        for x, y in zip(cuts, cuts[1:]):
            covering = {name for start, end, name in records if start <= x and end >= y}
            metric = next(
                (metric for name, metric in _POOL_PRIORITY if name in covering),
                "engine.dispatch_wait_s",
            )
            totals[metric] += y - x

