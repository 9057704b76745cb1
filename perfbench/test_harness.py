"""Self-tests of the benchmark harness.

Run from the repository root::

    python -m pytest perfbench/test_harness.py -q
"""

import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from harness import (  # noqa: E402
    NAME_PATTERN,
    CoreKeeper,
    Outcomes,
    Reference,
    fault_probability,
    parity_sigma,
    tail,
)
from layers import POOL_WAIT, Timeline  # noqa: E402
from run import END_TO_END, PER_LAYER, SELF_TIME  # noqa: E402
from workloads import (  # noqa: E402
    ScheduledRequest,
    check_result,
    open_loop,
    random_qubit,
    trace_reference,
)


# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    value, percentile, samples = tail(values)
    assert value == 90.0
    assert percentile == 90.0
    assert samples == 100
    assert sum(v > value for v in values) == 10


def test_tail_is_order_free_and_tracks_the_sample_count():
    values = [float(v) for v in range(250, 0, -1)]
    value, percentile, samples = tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 100.0 * 240 / 250
    assert samples == 250


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail([0.3, 0.1, 0.2]) == (0.3, 100.0, 3)
    assert tail([float(v) for v in range(10)]) == (9.0, 100.0, 10)


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME_PATTERN.match(name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert set(SELF_TIME) <= set(PER_LAYER)


# ----------------------------------------------------------------------
# Correctness accounting
# ----------------------------------------------------------------------
REFERENCE = Reference(value=complex(0.25, -0.1), sigma_re=0.01, sigma_im=0.01)


def test_a_deliberately_wrong_estimate_is_counted_as_failed():
    outcomes = Outcomes()
    assert check_result(outcomes, "good", complex(0.26, -0.09), REFERENCE.value, REFERENCE)
    assert not check_result(outcomes, "biased", complex(0.25, 0.2), REFERENCE.value,
                            REFERENCE)
    assert not check_result(outcomes, "nan", complex(float("nan"), 0.0),
                            REFERENCE.value, REFERENCE)
    assert not check_result(outcomes, "wrong exact", complex(0.25, -0.1), 0.0, REFERENCE)
    assert (outcomes.attempted, outcomes.failed) == (4, 3)


def test_sigma_is_the_largest_the_allowance_permits():
    assert parity_sigma(1.0, 16) == 0.0
    # Noise may move a mean of 1 down to 0.8: the variance there is 1 - 0.64.
    assert abs(parity_sigma(1.0, 16, 0.2) - 0.6 / 4) < 1e-12
    assert parity_sigma(0.1, 25, 0.2) == 1.0 / 5


def test_a_wrong_kernel_fails_verification_at_its_few_shots():
    # The slowest verification: N-party Hadamard k=3, 32 shots, noisy links.
    states = [random_qubit(np.random.default_rng(7))] * 3
    reference = trace_reference(states, 32, allowance=0.19)
    assert abs(reference.value - 1.0) < 1e-12
    outcomes = Outcomes()
    assert check_result(outcomes, "faulty shots", complex(0.75, 0.5), 1.0, reference)
    for garbage in (0.0, -1.0, complex(0.0, 1.0)):
        assert not check_result(outcomes, "garbage", garbage, 1.0, reference)
    assert (outcomes.attempted, outcomes.failed) == (4, 3)


def test_fault_probability_composes_every_site():
    noise = SimpleNamespace(
        gate_error_rate=lambda arity, qpu: 0.1 if arity == 1 else 0.2,
        link_error_rate=lambda hops: 0.05 * hops,
        meas_flip_rate=lambda qpu: 0.5,
    )
    ops = [
        SimpleNamespace(kind="unitary", qubits=(0,), qpu=None, sample_fault=True, link_hops=0),
        SimpleNamespace(kind="unitary", qubits=(0, 1), qpu=None, sample_fault=True,
                        link_hops=2),
        SimpleNamespace(kind="measure", qubits=(0,), qpu=None, sample_fault=False,
                        link_hops=0),
    ]
    survive = 0.9 * 0.8 * 0.9 * 0.5
    assert abs(fault_probability(SimpleNamespace(ops=ops), noise) - (1 - survive)) < 1e-12
    assert fault_probability(SimpleNamespace(ops=ops), None) == 0.0


# ----------------------------------------------------------------------
# Open-loop timing
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_latency_starts_at_the_due_time_not_the_send_time():
    clock = FakeClock()
    requests = [ScheduledRequest(spec={}) for _ in range(3)]

    def stalled_post(request):
        clock.now += 0.3  # every submission takes three send intervals
        request.seen = clock.now

    start = open_loop(requests, 10.0, stalled_post, clock=clock, sleep=clock.sleep)
    assert [round(r.due - start, 9) for r in requests] == [0.0, 0.1, 0.2]
    lateness = [r.lateness for r in requests]
    latency = [r.latency for r in requests]
    assert [round(x, 9) for x in lateness] == [0.0, 0.2, 0.4]
    assert [round(x, 9) for x in latency] == [0.3, 0.5, 0.7]
    # Timing from the send would hide the stall: every request would read 0.3.
    assert [round(r.seen - r.sent, 9) for r in requests] == [0.3, 0.3, 0.3]


# ----------------------------------------------------------------------
# Self-time partition
# ----------------------------------------------------------------------
def span(span_id, name, start, duration, parent=None, tid=None, pid=None):
    attrs = {} if tid is None else {"tid": tid}
    record = {"span_id": span_id, "name": name, "start_unix": start,
              "duration": duration, "parent_id": parent, "attrs": attrs}
    if pid is not None:
        record["pid"] = pid
    return record


def test_partition_of_a_window_adds_up_and_attributes_pool_waits():
    main = 1
    frames = [("api.validate_s", main, 0.5, 1.0), (POOL_WAIT, main, 3.0, 9.0)]
    spans = [
        span("run", "experiment.run", 0.0, 10.0, tid=main),
        span("many", "engine.run_many", 2.0, 7.5, parent="run", tid=main),
        span("batch", "worker.batch", 4.0, 4.0, parent="many", pid=-1),
        span("exec", "worker.execute", 5.0, 2.0, parent="batch", pid=-1),
    ]
    totals = dict.fromkeys(SELF_TIME, 0.0)
    Timeline(frames, spans).partition(main, -1.0, 11.0, totals)
    assert abs(sum(totals.values()) - 12.0) < 1e-12
    assert totals["obs.unattributed_s"] == 2.0  # before and after the run span
    assert totals["api.validate_s"] == 0.5
    assert totals["api.glue_s"] == 10.0 - 0.5 - 7.5
    assert totals["engine.glue_s"] == 1.0 + 0.5  # run_many outside its pool wait
    assert totals["sim.execute_s"] == 2.0
    assert totals["sim.glue_s"] == 2.0  # the batch outside its execute
    assert totals["engine.dispatch_wait_s"] == 2.0  # pool wait with no worker busy


# ----------------------------------------------------------------------
# The core keeper
# ----------------------------------------------------------------------
def test_core_keeper_spins_at_idle_priority_on_its_core_and_stops():
    cpu = max(os.sched_getaffinity(0))
    keeper = CoreKeeper(cpu)
    try:
        deadline = time.time() + 10
        pid = keeper.process.pid
        while os.sched_getscheduler(pid) != os.SCHED_IDLE and time.time() < deadline:
            time.sleep(0.01)
        assert os.sched_getscheduler(pid) == os.SCHED_IDLE
        assert os.sched_getaffinity(pid) == {cpu}
        assert keeper.process.poll() is None
    finally:
        keeper.stop()
    assert keeper.process.returncode is not None
