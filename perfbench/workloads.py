"""The three workloads: inputs from the seed, set-up, the measured loop.

Each workload object goes through the same life cycle, driven by
``run.py``::

    w = WORKLOADS[name](seed, seconds)
    w.setup()             # engine / pool prewarm / service bind
    w.first_request()     # the first request's inputs; set-up ends here
    w.prepare()           # correctness-check allowances, warm-up (untimed)
    phase = w.measure(seconds, tracing)
    outcomes, windows = w.verify()  # untimed, after the measured phase
    w.close()

``tracing`` is None for the end-to-end runs.  For the traced run it is a
:class:`Tracing` holding the enabled ``repro.obs`` bundle and the layer
wrappers; ``measure`` then records the wall-time window of every request
and the thread that served it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from harness import (
    Z_TOLERANCE,
    CoreKeeper,
    Outcomes,
    Reference,
    estimate_ok,
    fault_probability,
    parity_sigma,
)


@dataclass
class Tracing:
    """What a traced phase turns on: program spans plus layer wrappers."""

    obs: object
    instr: object


@dataclass
class Phase:
    """Everything one measured phase produced."""

    latencies: list = field(default_factory=list)
    good: int = 0
    wall: float = 0.0
    #: ``(shots, requests, good requests, seconds)`` of each whole rotation
    #: or sweep (one slice for the open loop); rates are their medians.
    slices: list = field(default_factory=list)
    outcomes: Outcomes = field(default_factory=Outcomes)
    #: ``(thread id, start, end)`` wall-clock windows the layer attribution
    #: partitions: each closed-loop request, each service job's run.
    windows: list = field(default_factory=list)
    #: Per-request partition terms measured outside any thread timeline.
    extra_totals: dict = field(default_factory=dict)
    #: Result envelopes (dicts) of every request, for the network counts.
    envelopes: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def mark(self, shots: int) -> tuple:
        """Open a slice at the engine's current shot count."""
        return shots, len(self.latencies), self.good, time.perf_counter()

    def close(self, mark: tuple, shots: int) -> None:
        """Close the slice opened by ``mark``."""
        shots0, requests0, good0, start = mark
        self.slices.append((
            shots - shots0,
            len(self.latencies) - requests0,
            self.good - good0,
            time.perf_counter() - start,
        ))


# ----------------------------------------------------------------------
# Inputs and references
# ----------------------------------------------------------------------
def random_qubit(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random pure one-qubit state."""
    vector = rng.normal(size=2) + 1j * rng.normal(size=2)
    return vector / np.linalg.norm(vector)


def exact_trace(states) -> complex:
    """tr(rho_1 ... rho_k) of pure states, computed here, not by the library."""
    product = reduce(np.matmul, [np.outer(s, s.conj()) for s in states])
    return complex(np.trace(product))


def trace_reference(states, shots: int, allowance: float) -> Reference:
    """Reference of a two-basis estimate (Re from X, Im from Y readout)."""
    value = exact_trace(states)
    shots_re = shots // 2
    return Reference(
        value=value,
        sigma_re=parity_sigma(value.real, shots_re, allowance),
        sigma_im=parity_sigma(value.imag, shots - shots_re, allowance),
        allowance=allowance,
    )


def gram_reference(states, shots: int, allowance: float) -> Reference:
    """Reference of the multi-state estimate: the mean pairwise overlap."""
    k = len(states)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    per_pair = max(shots // len(pairs), 1)
    overlaps = [abs(np.vdot(states[i], states[j])) ** 2 for i, j in pairs]
    sigma = math.sqrt(
        sum(parity_sigma(g, per_pair, allowance) ** 2 for g in overlaps)
    ) / len(pairs)
    return Reference(value=complex(np.mean(overlaps)), sigma_re=sigma, sigma_im=0.0,
                     allowance=allowance)


def noise_allowance(kind: str, k: int, noise, network, backend: str) -> float:
    """Largest shift noise can cause in any parity mean of one request.

    Twice the fault-path trace distance of the worst circuit the request
    runs (see :func:`harness.fault_probability`), evaluated on freshly
    built circuits compiled with every fault site present.
    """
    from repro.core.compas import build_compas
    from repro.core.multistate_swap import build_multistate_swap
    from repro.core.nparty_hadamard import build_nparty_hadamard
    from repro.core.nstate_swap import build_nstate_swap
    from repro.core.swap_test import build_monolithic_swap_test
    from repro.sim.compile import compile_circuit

    n = 1
    if backend == "monolithic":
        model = noise.to_model()
        builds = [build_monolithic_swap_test(k, n, variant="d", basis=b) for b in "xy"]
    else:
        model = network.noise_model(noise)
        topology = network.build([f"qpu{p}" for p in range(k)])
        if kind == "multistate_swap":
            builds = [
                build_multistate_swap(k, n, pair=(i, j), basis="x", topology=topology)
                for i in range(k)
                for j in range(i + 1, k)
            ]
        else:
            builder = {
                "swap_test": build_compas,
                "nstate_swap": build_nstate_swap,
                "nparty_hadamard": build_nparty_hadamard,
            }[kind]
            builds = [builder(k, n, basis=b, topology=topology) for b in "xy"]
    worst = 0.0
    for build in builds:
        program = compile_circuit(build.circuit(), gate_noise=True, link_noise=True)
        worst = max(worst, fault_probability(program, model))
    return 2.0 * worst


def check_result(outcomes: Outcomes, label: str, estimate, exact,
                 reference: Reference) -> bool:
    """Count one result: its exact field and its estimate must both agree."""
    if exact is None or abs(complex(exact) - reference.value) > 1e-9:
        return outcomes.record(False, f"{label}: exact {exact} != {reference.value}")
    ok = estimate_ok(estimate, reference)
    return outcomes.record(ok, f"{label}: estimate {estimate} vs {reference}")


def run_verification(engine, cases) -> tuple[Outcomes, dict]:
    """Run ``(label, experiments, reference)`` cases untimed and check each.

    The measured loops run few shots on the slow kernels, so their checks
    are loose.  Each kernel is also run on ``k`` copies of one state drawn
    from the seed: the X-basis parity is then +1 on every fault-free shot,
    so a wrong kernel fails the real-part check after a few dozen shots.
    A case repeats a request of the loop's own size (equal shots, fresh
    seeds), so memory stays what the loop needs, and checks the mean of
    the estimates against a reference for all their shots together.  It
    runs after the measured phase, so it cannot warm or slow it.

    Returns the outcomes and, per case, the half-widths of the real and
    imaginary windows (5 sigma plus the allowance), which show which
    checks can fail.
    """
    outcomes = Outcomes()
    windows = {}
    for label, experiments, reference in cases:
        windows[label] = [
            round(Z_TOLERANCE * sigma + reference.allowance, 4)
            for sigma in (reference.sigma_re, reference.sigma_im)
        ]
        try:
            results = [e.run(engine, with_exact=True) for e in experiments]
        except Exception as exc:  # a failed verification is counted, not fatal
            outcomes.record(False, f"{label}: {exc!r}")
            continue
        exacts = [r.exact for r in results]
        exact = None if None in exacts else max(
            exacts, key=lambda e: abs(complex(e) - reference.value)
        )
        estimate = sum(complex(r.estimate) for r in results) / len(results)
        check_result(outcomes, label, estimate, exact, reference)
    return outcomes, windows


# ----------------------------------------------------------------------
# family-dense: the distributed kernels, closed loop, serial engine
# ----------------------------------------------------------------------
class FamilyDense:
    """One client rotating through the distributed protocol family.

    Each rotation runs every configuration twice, first on ideal links,
    then on hop-weighted noisy links; gate noise is on throughout.  Shot
    counts make every request cost about the same (50-100 ms on one
    core), so the median and the tail do not jump between request types
    as the number of whole rotations in a run changes.  The last column
    is how many such requests each configuration's untimed verification
    runs (see :func:`run_verification`).
    """

    name = "family-dense"
    latency_limit_s = 2.0
    pool = False
    CONFIGS = (
        ("swap_test", 3, 16, 8),
        ("swap_test", 4, 4, 12),
        ("nstate_swap", 3, 32, 8),
        ("nstate_swap", 4, 8, 12),
        ("nparty_hadamard", 3, 2, 16),
        ("multistate_swap", 4, 3072, 1),
    )

    def __init__(self, seed: int, seconds: float):
        self.seconds = seconds
        self.rng = np.random.default_rng(seed)
        self.verify_rng = np.random.default_rng([seed, 1])

    def setup(self) -> None:
        from repro.api import NetworkSpec, NoiseSpec
        from repro.engine import Engine

        self.engine = Engine(workers=1, executor="serial", cache=False)
        self.noise = NoiseSpec(p1=1e-4, p2=1e-3)
        self.networks = (
            NetworkSpec(topology="line"),
            NetworkSpec(topology="line", link_depolarizing=0.01, swap_penalty=0.005),
        )

    def _requests(self):
        """One rotation of ``(shape, kind, k, shots, network, states, seed)``."""
        for kind, k, shots, _ in self.CONFIGS:
            for links, network in zip(("ideal", "noisy"), self.networks):
                states = [random_qubit(self.rng) for _ in range(k)]
                seed = int(self.rng.integers(2**31))
                yield (f"{kind}-k{k}-{links}", kind, k, shots, network, states, seed)

    def first_request(self) -> None:
        self._pending = list(self._requests())

    def _reference(self, kind, states, shots, allowance) -> Reference:
        if kind == "multistate_swap":
            return gram_reference(states, shots, allowance)
        return trace_reference(states, shots, allowance)

    def prepare(self) -> None:
        self.allowance = {}
        for kind, k, _, _ in self.CONFIGS:
            for network in self.networks:
                backend = "compas" if kind == "swap_test" else "distributed"
                self.allowance[(kind, k, network)] = noise_allowance(
                    kind, k, self.noise, network, backend
                )

    def verify(self) -> tuple[Outcomes, dict]:
        cases = []
        for kind, k, shots, repeats in self.CONFIGS:
            for links, network in zip(("ideal", "noisy"), self.networks):
                allowance = self.allowance[(kind, k, network)]
                states = [random_qubit(self.verify_rng)] * k
                experiments = [
                    self._experiment(
                        kind, shots, network, states, int(self.verify_rng.integers(2**31))
                    )
                    for _ in range(repeats)
                ]
                cases.append((
                    f"verify {kind}-k{k}-{links}",
                    experiments,
                    self._reference(kind, states, shots * repeats, allowance),
                ))
        return run_verification(self.engine, cases)

    def _experiment(self, kind, shots, network, states, seed):
        from repro.api import Experiment

        if kind == "swap_test":
            return Experiment.swap_test(
                states, shots=shots, seed=seed, backend="compas",
                noise=self.noise, network=network,
            )
        return getattr(Experiment, kind)(
            states, shots=shots, seed=seed, noise=self.noise, network=network
        )

    def measure(self, seconds: float, tracing: Tracing | None) -> Phase:
        phase = Phase()
        obs = tracing.obs if tracing is not None else None
        tid = threading.get_ident()
        start = time.perf_counter()
        deadline = start + seconds
        rotations = 0
        while True:
            rotation = self._pending if rotations == 0 else list(self._requests())
            mark = phase.mark(self.engine.stats.shots)
            for shape, kind, k, shots, network, states, seed in rotation:
                if tracing is not None:
                    tracing.instr.shape = shape
                w0 = time.time()
                t0 = time.perf_counter()
                try:
                    experiment = self._experiment(kind, shots, network, states, seed)
                    result = experiment.run(self.engine, with_exact=True, obs=obs)
                    envelope = result.to_dict()
                except Exception as exc:  # a failed request is counted, not fatal
                    phase.outcomes.record(False, f"{shape}: {exc!r}")
                    continue
                latency = time.perf_counter() - t0
                phase.windows.append((tid, w0, w0 + latency))
                phase.latencies.append(latency)
                phase.envelopes.append(envelope)
                reference = self._reference(
                    kind, states, shots, self.allowance[(kind, k, network)]
                )
                ok = check_result(
                    phase.outcomes, shape, result.estimate, result.exact, reference
                )
                phase.good += ok and latency <= self.latency_limit_s
            phase.close(mark, self.engine.stats.shots)
            rotations += 1
            if time.perf_counter() >= deadline:
                break
        phase.wall = time.perf_counter() - start
        phase.meta = {"rotations": rotations, "requests_per_rotation": len(self._pending)}
        return phase

    def close(self) -> None:
        self.engine.close()


# ----------------------------------------------------------------------
# sweep-pool: many small monolithic jobs through the process pool
# ----------------------------------------------------------------------
class SweepPool:
    """One client running gate-noise sweeps of monolithic COMPAS k=3.

    Every sweep point is two engine jobs of a few thousand shots, fanned
    over a ``min(2, nproc)``-worker process pool: the run_many pipeline,
    dispatch, the cost model and per-point validate/hash/envelope work
    are a large share of each point.  A :class:`harness.CoreKeeper` on
    every core keeps the cores from halting while the workers wait.
    """

    name = "sweep-pool"
    latency_limit_s = 2.0
    pool = True
    K = 3
    SHOTS = 8000
    P1 = 1e-4
    P2_GRID = (0.001, 0.002, 0.003, 0.004)

    def __init__(self, seed: int, seconds: float):
        self.seconds = seconds
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        import repro.api  # noqa: F401  (the front door every request goes through)
        from repro.engine import Engine

        workers = min(2, len(os.sched_getaffinity(0)))
        executor = "process" if workers > 1 else "serial"
        self.engine = Engine(workers=workers, executor=executor, cache=False)
        self.engine.prewarm()
        # The cores idle while the parent dispatches.  In three paired runs
        # the rate ranged over 17% without keepers and over 7% with them.
        self.keepers = [CoreKeeper(cpu) for cpu in sorted(os.sched_getaffinity(0))]

    def _request(self):
        states = [random_qubit(self.rng) for _ in range(self.K)]
        return states, int(self.rng.integers(2**31))

    def first_request(self) -> None:
        self._pending = self._request()

    def prepare(self) -> None:
        from repro.api import NoiseSpec

        self.allowance = {
            p2: noise_allowance(
                "swap_test", self.K, NoiseSpec(p1=self.P1, p2=p2), None, "monolithic"
            )
            for p2 in self.P2_GRID
        }

    def verify(self) -> tuple[Outcomes, dict]:
        # Every point runs thousands of shots: the checks in the loop can fail.
        return Outcomes(), {}

    def measure(self, seconds: float, tracing: Tracing | None) -> Phase:
        from repro.api import Experiment, NoiseSpec

        phase = Phase()
        obs = tracing.obs if tracing is not None else None
        if tracing is not None:
            tracing.instr.shape = f"swap_test-k{self.K}-monolithic"
        tid = threading.get_ident()
        start = time.perf_counter()
        deadline = start + seconds
        sweeps = 0
        while True:
            states, seed = self._pending if sweeps == 0 else self._request()
            mark = phase.mark(self.engine.stats.shots)
            marks = [(time.time(), time.perf_counter())]

            def landed(point, _sweep):
                point.result.to_dict()
                marks.append((time.time(), time.perf_counter()))

            try:
                points = Experiment.swap_test(
                    states, shots=self.SHOTS, seed=seed, backend="monolithic",
                    noise=NoiseSpec(p1=self.P1, p2=self.P2_GRID[0]),
                ).sweep(
                    over="p2", values=list(self.P2_GRID), engine=self.engine,
                    with_exact=True, obs=obs, progress=landed,
                ).points
            except Exception as exc:  # a failed sweep is counted, not fatal
                phase.outcomes.record(False, f"sweep: {exc!r}")
                points = []
            for (w0, t0), (_, t1), point in zip(marks, marks[1:], points):
                latency = t1 - t0
                phase.latencies.append(latency)
                phase.windows.append((tid, w0, w0 + latency))
                result = point.result
                reference = trace_reference(
                    states, self.SHOTS, self.allowance[point.params["p2"]]
                )
                ok = check_result(
                    phase.outcomes, f"sweep p2={point.params['p2']}", result.estimate,
                    result.exact, reference,
                )
                phase.good += ok and latency <= self.latency_limit_s
            phase.close(mark, self.engine.stats.shots)
            sweeps += 1
            if time.perf_counter() >= deadline:
                break
        phase.wall = time.perf_counter() - start
        phase.meta = {
            "sweeps": sweeps,
            "points_per_sweep": len(self.P2_GRID),
            "workers": self.engine.scheduler.workers,
            "executor": self.engine.scheduler.executor_kind,
        }
        return phase

    def close(self) -> None:
        try:
            self.engine.close()
        finally:
            for keeper in self.keepers:
                keeper.stop()


# ----------------------------------------------------------------------
# service-mixed: open loop into the in-process HTTP service
# ----------------------------------------------------------------------
TERMINAL_STATES = ("done", "failed", "cancelled")


def _encode_state(state) -> list:
    return [{"__complex__": [float(a.real), float(a.imag)]} for a in state]


@dataclass
class ScheduledRequest:
    """One open-loop submission and what the client saw of it."""

    spec: dict
    due: float = 0.0
    sent: float = 0.0
    posted: float = 0.0
    seen: float | None = None
    status: int = 0
    job_id: str | None = None
    deduped: bool = False
    state: str | None = None
    #: The job record as first fetched in a terminal state.
    record: dict | None = None
    references: list = field(default_factory=list)

    @property
    def latency(self) -> float:
        """Due time to terminal state: a late send counts against the request."""
        return self.seen - self.due

    @property
    def lateness(self) -> float:
        """How late the generator sent this request."""
        return self.sent - self.due


def open_loop(requests, rate: float, post, clock=time.time, sleep=time.sleep) -> float:
    """Send ``requests`` at a fixed ``rate`` whatever the replies take.

    Due times are fixed before the first send; each request goes out at
    its due time or, if an earlier ``post`` ran long, as soon as the
    sender is free.  ``post(request)`` performs the submission.  Returns
    the first due time.
    """
    start = clock() + 0.05
    for index, request in enumerate(requests):
        request.due = start + index / rate
    for request in requests:
        pause = request.due - clock()
        if pause > 0:
            sleep(pause)
        request.sent = clock()
        post(request)
    return start


class ServiceMixed:
    """Two tenants posting a fixed-rate mix into one in-process service.

    Every cycle of eight submissions holds four fresh single jobs (cache
    writes), two two-point sweeps over the seed whose first point repeats
    a single job from at least two seconds earlier (cache reads next to
    one write), and two exact repeats of an earlier submission by the
    other tenant (service-level dedupe joins).  Requests are timed from
    their due time, so a stalled generator shows as latency.

    The whole process (client, server, engine threads) runs on one core.
    Its Python threads take turns on the GIL anyway; spread over two cores
    of a shared host, every GIL hand-off between cores waited on the host,
    and the median latency rose from about 20 to 35 ms as the host's CPU
    steal went from 2 to 13%.  A :class:`harness.CoreKeeper` keeps that
    core from halting between requests.
    """

    name = "service-mixed"
    pool = False
    RATE = 10.0
    latency_limit_s = 0.5
    PATTERN = ("swap2", "swap3n", "sweep", "repeat", "nstate3", "swap2", "sweep", "repeat")
    #: Fresh single jobs: kind, parties, shots, gate noise.
    SINGLES = {
        "swap2": ("swap_test", 2, 1000, None),
        "swap3n": ("swap_test", 3, 300, {"p1": 1e-4, "p2": 1e-3}),
        "nstate3": ("nstate_swap", 3, 8, None),
    }
    #: Least shots of each single's untimed verification run.
    VERIFY_SHOTS = 256
    REFERENCE_LAG_S = 2.0
    DRAIN_S = 60.0
    #: Pause of the idle watcher between checks for a new job.
    IDLE_S = 0.001

    def __init__(self, seed: int, seconds: float):
        self.seconds = seconds
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.verify_rng = np.random.default_rng([seed, 1])

    def setup(self) -> None:
        from repro.service import ExperimentService, ServiceConfig, ServiceServer

        # Before any thread starts: threads inherit the creator's affinity.
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.keeper = CoreKeeper(self.cpu)
        try:
            self.service = ExperimentService(
                ServiceConfig(engine_workers=2, executor="thread", concurrency=2)
            )
            self.server = ServiceServer(self.service).start()
        except BaseException:
            self.keeper.stop()
            raise

    def close(self) -> None:
        try:
            self.server.stop()
        finally:
            self.keeper.stop()

    def _single(self, tenant, kind, states, seed, shots, noise=None):
        experiment = {
            "kind": kind,
            "payload": {"states": [_encode_state(s) for s in states]},
            "options": {"shots": shots, "seed": seed},
        }
        if noise is not None:
            experiment["noise"] = noise
        return {"tenant": tenant, "experiment": experiment, "with_exact": True}

    def schedule(self, seconds: float) -> list[ScheduledRequest]:
        """The whole submission schedule of one run, from the seed."""
        count = max(int(round(self.RATE * seconds)), len(self.PATTERN))
        lag = int(self.REFERENCE_LAG_S * self.RATE)
        requests: list[ScheduledRequest] = []
        singles: list[int] = []  # indices of swap2 singles (sweep bases)
        fresh: list[int] = []  # indices of fresh singles (repeat sources)
        for index in range(count):
            tenant = ("alice", "bob")[index % 2]
            slot = self.PATTERN[index % len(self.PATTERN)]
            if slot == "repeat":
                sources = [i for i in fresh if i <= index - lag]
                if sources:
                    source = requests[sources[int(self.rng.integers(len(sources)))]]
                    spec = dict(source.spec, tenant=tenant)
                    requests.append(ScheduledRequest(spec=spec, references=source.references))
                    continue
                slot = "swap2"
            if slot == "sweep":
                bases = [i for i in singles if i <= index - lag]
                new_seed = int(self.rng.integers(2**31))
                if bases:
                    base = requests[bases[-1]]
                    spec = dict(base.spec, tenant=tenant)
                    old_seed = base.spec["experiment"]["options"]["seed"]
                    spec["sweep"] = {"over": "seed", "values": [old_seed, new_seed]}
                    requests.append(ScheduledRequest(spec=spec, references=base.references * 2))
                    continue
                slot = "swap2"
            kind, k, shots, noise = self.SINGLES[slot]
            states = [random_qubit(self.rng) for _ in range(k)]
            spec = self._single(tenant, kind, states, int(self.rng.integers(2**31)), shots, noise)
            if slot == "swap2":
                singles.append(index)
            fresh.append(index)
            requests.append(ScheduledRequest(spec=spec, references=[(slot, states)]))
        return requests

    def first_request(self) -> None:
        self._schedule = self.schedule(self.seconds)

    def prepare(self) -> None:
        from repro.api import NoiseSpec

        self.allowance = {}
        for slot, (kind, k, _, noise) in self.SINGLES.items():
            self.allowance[slot] = 0.0 if noise is None else noise_allowance(
                kind, k, NoiseSpec(**noise), None, "monolithic"
            )
        self._warm_up()

    def _warm_up(self) -> None:
        """Run one fresh job of each kind and one sweep through the service.

        The measured phase then starts with the circuits of every kind
        compiled, instead of the first requests of a run paying for it.
        The warm-up inputs come from their own generator, so no measured
        request repeats them.
        """
        rng = np.random.default_rng([self.seed, 2])
        specs = []
        for kind, k, shots, noise in self.SINGLES.values():
            states = [random_qubit(rng) for _ in range(k)]
            specs.append(self._single(
                "warm-up", kind, states, int(rng.integers(2**31)), shots, noise
            ))
        specs.append(dict(specs[0], sweep={"over": "seed", "values": [1, 2]}))
        for spec in specs:
            status, body = self._call("POST", "/jobs", spec)
            if status != 202:
                raise RuntimeError(f"warm-up job refused: HTTP {status} {body}")
            request = ScheduledRequest(spec=spec, job_id=body["job_id"])
            if self._follow(request, 30.0) != "done":
                raise RuntimeError(f"warm-up job {request.job_id} did not finish")

    def verify(self) -> tuple[Outcomes, dict]:
        from repro.api import Experiment, NoiseSpec

        cases = []
        for slot, (kind, k, shots, noise) in self.SINGLES.items():
            spec = None if noise is None else NoiseSpec(**noise)
            states = [random_qubit(self.verify_rng)] * k
            repeats = -(-self.VERIFY_SHOTS // shots)
            experiments = [
                getattr(Experiment, kind)(
                    states, shots=shots, seed=int(self.verify_rng.integers(2**31)),
                    noise=spec,
                )
                for _ in range(repeats)
            ]
            reference = trace_reference(states, shots * repeats, self.allowance[slot])
            cases.append((f"verify {slot}", experiments, reference))
        return run_verification(self.service.engine, cases)

    # ------------------------------------------------------------------
    def _call(self, method: str, path: str, payload=None):
        """One HTTP exchange; a transport error comes back as status 0."""
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=30)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return 0, {"error": repr(exc)}
        finally:
            conn.close()

    def _follow(self, request: ScheduledRequest, timeout: float) -> str | None:
        """Read a job's event stream until it ends; returns the terminal state.

        The service pushes each event as it happens, so the client learns
        of the end without polling (a poll loop on the same core took CPU
        from the jobs it watched).  None if the stream failed or ended
        without a terminal event.
        """
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=max(timeout, 0.1)
        )
        try:
            conn.request("GET", f"/jobs/{request.job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                request.status = response.status
                return None
            for line in response:
                event = json.loads(line)["event"]
                if event in TERMINAL_STATES:
                    return event
            return None
        except (OSError, http.client.HTTPException, ValueError):
            return None
        finally:
            conn.close()

    def _watch(self, outstanding: dict, lock, sending_done, stop_at: list) -> None:
        """The client's second thread: see every submitted job to its end.

        Jobs are followed oldest first.  A job that ended before its stream
        opened (a cache hit done within a millisecond, or a job that ended
        while an older one was followed) is seen when the stream opens;
        such jobs are counted in ``self.ended_unwatched``.
        """
        while True:
            with lock:
                oldest = min(outstanding) if outstanding else None
            if oldest is None:
                if sending_done.is_set():
                    return
                time.sleep(self.IDLE_S)
                continue
            remaining = stop_at[0] - time.time()
            if remaining <= 0:
                return
            request = outstanding[oldest]
            opened = None
            if request.seen is None:
                opened = time.time()
                self._follow(request, min(remaining, 30.0))
                request.seen = time.time()
            status, record = self._call("GET", f"/jobs/{request.job_id}")
            if status != 200:
                request.status = status
            elif record["state"] in TERMINAL_STATES:
                request.state = record["state"]
                request.record = record
                finished = record.get("finished_at")
                if opened is not None and finished is not None and finished < opened:
                    self.ended_unwatched += 1
            else:  # the stream broke before the end: not seen after all
                request.seen = None
                continue
            with lock:
                outstanding.pop(oldest, None)

    def measure(self, seconds: float, tracing: Tracing | None) -> Phase:
        phase = Phase()
        engine = self.service.engine
        requests = self._schedule
        cache_before = engine.cache.stats.snapshot()
        shots_before = engine.stats.shots
        outstanding: dict[float, ScheduledRequest] = {}
        lock = threading.Lock()
        sending_done = threading.Event()
        stop_at = [float("inf")]
        self.ended_unwatched = 0
        watcher = threading.Thread(
            target=self._watch, args=(outstanding, lock, sending_done, stop_at),
            name="perfbench-watcher",
        )

        def post(request: ScheduledRequest) -> None:
            status, body = self._call("POST", "/jobs", request.spec)
            request.posted = time.time()
            request.status = status
            if status != 202:
                request.seen = request.posted
                return
            request.job_id = body["job_id"]
            request.deduped = bool(body["deduped"])
            if body["state"] in TERMINAL_STATES:
                # Seen now; the watcher still fetches the record with its result.
                request.state = body["state"]
                request.seen = request.posted
            with lock:
                outstanding[request.due] = request

        watcher.start()
        try:
            start = open_loop(requests, self.RATE, post)
        finally:
            stop_at[0] = time.time() + self.DRAIN_S
            sending_done.set()
            watcher.join(self.DRAIN_S + 30)
        last = max((r.seen for r in requests if r.seen is not None), default=time.time())
        phase.wall = last - start
        records = {r.job_id: r.record for r in requests if r.record is not None}
        self._score(phase, requests, records)
        done = sum(1 for r in requests if r.state == "done")
        phase.slices = [(engine.stats.shots - shots_before, done, phase.good, phase.wall)]
        cache_after = engine.cache.stats.snapshot()
        phase.meta = {
            "offered_rate_rps": self.RATE,
            "pinned_cpu": self.cpu,
            "ended_unwatched": self.ended_unwatched,
            "latency_limit_s": self.latency_limit_s,
            "scheduled": len(requests),
            "lateness_mean_s": float(np.mean([r.lateness for r in requests])),
            "lateness_max_s": float(max(r.lateness for r in requests)),
            "dedupe_joins": sum(r.deduped for r in requests),
            "cache": {
                "hits": cache_after.hits - cache_before.hits,
                "misses": cache_after.misses - cache_before.misses,
                "stores": cache_after.stores - cache_before.stores,
            },
        }
        self._attribution_terms(phase, requests, records, tracing)
        return phase

    def _score(self, phase: Phase, requests, records) -> None:
        outcomes = phase.outcomes
        for index, request in enumerate(requests):
            label = f"request {index}"
            if request.seen is None:
                outcomes.record(False, f"{label}: not finished by the drain deadline",
                                overload=True)
                continue
            latency = request.latency
            phase.latencies.append(latency)
            record = records.get(request.job_id)
            if request.status != 202 or record is None or record["state"] != "done":
                state = record["state"] if record else None
                outcomes.record(False, f"{label}: HTTP {request.status}, state {state}",
                                overload=request.status == 429)
                continue
            result = record["result"]
            if "sweep" in result:
                envelopes = [point["result"] for point in result["sweep"]["points"]]
            else:
                envelopes = [result["result"]]
            if len(envelopes) != len(request.references):
                outcomes.record(False, f"{label}: {len(envelopes)} results")
                continue
            ok = True
            for envelope, (slot, states) in zip(envelopes, request.references):
                phase.envelopes.append(envelope)
                reference = trace_reference(
                    states, self.SINGLES[slot][2], self.allowance[slot]
                )
                ok = check_result(
                    outcomes, f"{label} ({slot})", _complex(envelope["estimate"]),
                    _complex(envelope["exact"]), reference,
                ) and ok
            phase.good += ok and latency <= self.latency_limit_s

    def _attribution_terms(self, phase: Phase, requests, records, tracing) -> None:
        """Split each request's latency into client, HTTP, queue and run.

        The run slice is left as a thread window for the layer partition;
        a deduped submission has no run of its own, so its whole service
        round trip is HTTP time.
        """
        if tracing is None:
            return
        parses = sorted(
            (start, end) for metric, _, start, end in tracing.instr.frames
            if metric == "service.parse_s"
        )
        totals = {"client.lateness_s": 0.0, "service.parse_s": 0.0,
                  "service.http_s": 0.0, "service.queue_wait_s": 0.0}
        run_total = 0.0
        counted = set()
        for request in requests:
            if request.seen is None:
                continue
            totals["client.lateness_s"] += request.lateness
            parse = sum(
                end - start for start, end in parses
                if start >= request.sent and end <= request.posted
            )
            totals["service.parse_s"] += parse
            service_side = 0.0
            record = records.get(request.job_id)
            execution = tracing.instr.executions.get(request.job_id)
            owns_run = (
                record is not None and not request.deduped and execution is not None
                and record.get("started_at") is not None
                and request.job_id not in counted
            )
            if owns_run:
                counted.add(request.job_id)
                submitted, started, finished = (
                    record["submitted_at"], record["started_at"], record["finished_at"]
                )
                service_side = finished - submitted
                totals["service.queue_wait_s"] += started - submitted
                run_total += finished - started
                phase.windows.append((execution[0], started, finished))
            totals["service.http_s"] += (request.seen - request.sent) - parse - service_side
        phase.extra_totals = totals
        phase.meta["service_run_s_total"] = run_total


def _complex(value) -> complex:
    if isinstance(value, dict):
        re, im = value["__complex__"]
        return complex(re, im)
    return complex(value)


WORKLOADS = {
    FamilyDense.name: FamilyDense,
    SweepPool.name: SweepPool,
    ServiceMixed.name: ServiceMixed,
}
