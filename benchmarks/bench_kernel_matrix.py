"""Kernel matrix: batched stabilizer vs dense statevector on Clifford jobs.

The compile-once/sample-many stabilizer kernel is the engine's answer to
Clifford sampling workloads (GHZ distribution, fanout, teleportation): one
O(gates * n^2) reference tableau pass at compile time, then O(shots * n)
packed-frame propagation per gate.  The dense kernel pays O(shots * 2**n)
amplitudes per gate, so the gap widens exponentially with width.

Two headline rows, both acceptance-gated:

* **16-qubit noisy GHZ** — the same job pinned onto the dense statevector
  backend and auto-routed onto the stabilizer kernel; per-shot throughput
  must favour the stabilizer kernel by **>= 20x** (typically thousands).
* **64-qubit GHZ** — far beyond any dense simulator's reach (2**64
  amplitudes); the job must complete through *automatic routing* (no
  backend pin) with perfect GHZ parity.
"""

from conftest import cpu_count, emit, scaled, stopwatch

from repro.circuits import Circuit
from repro.engine import Engine, Job
from repro.reporting import Table
from repro.sim import NoiseModel

#: Stabilizer shot budget — cheap enough to hold at full scale everywhere.
SHOTS = scaled(full=4096, quick=4096, smoke=1024)

#: Dense-kernel shot budget.  At 16 qubits the dense path costs tens of
#: milliseconds per shot, so the comparison runs it at a reduced budget and
#: gates on *per-shot throughput* (both kernels scale linearly in shots).
DENSE_SHOTS = scaled(full=1024, quick=256, smoke=64)

WIDTH = 16
BIG_WIDTH = 64
NOISE = NoiseModel.from_base(0.01)

#: Acceptance bar: stabilizer per-shot throughput over dense per-shot
#: throughput on the 16-qubit noisy GHZ job (measured: ~7800x).
SPEEDUP_FLOOR = 20.0


def ghz_circuit(width: int) -> Circuit:
    circuit = Circuit(width, width)
    circuit.h(0)
    for q in range(1, width):
        circuit.cx(q - 1, q)
    for q in range(width):
        circuit.measure(q, q)
    return circuit


def test_kernel_matrix(once):
    table = Table(
        f"Clifford sampling kernels — noisy GHZ-{WIDTH} + GHZ-{BIG_WIDTH}",
        ["kernel", "width", "shots", "wall_time_s", "shots_per_s", "note"],
    )

    def run():
        rows = {}
        with Engine(workers=1) as engine:
            with stopwatch() as stab_time:
                rows["stab"] = engine.run(
                    Job(circuit=ghz_circuit(WIDTH), shots=SHOTS, seed=7, noise=NOISE)
                )
            rows["stab_time"] = stab_time()
            with stopwatch() as dense_time:
                rows["dense"] = engine.run(
                    Job(
                        circuit=ghz_circuit(WIDTH),
                        shots=DENSE_SHOTS,
                        seed=7,
                        noise=NOISE,
                        backend="statevector",
                    )
                )
            rows["dense_time"] = dense_time()
            with stopwatch() as big_time:
                rows["big"] = engine.run(
                    Job(
                        circuit=ghz_circuit(BIG_WIDTH),
                        shots=SHOTS,
                        seed=11,
                        readout=tuple(range(BIG_WIDTH)),
                    )
                )
            rows["big_time"] = big_time()
        return rows

    rows = once(run)
    stab_rate = SHOTS / max(rows["stab_time"], 1e-9)
    dense_rate = DENSE_SHOTS / max(rows["dense_time"], 1e-9)
    speedup = stab_rate / max(dense_rate, 1e-9)

    table.add_row(
        kernel="stabilizer (auto-routed)",
        width=WIDTH,
        shots=SHOTS,
        wall_time_s=rows["stab_time"],
        shots_per_s=f"{stab_rate:,.0f}",
        note=f"noisy GHZ, x{speedup:,.0f} dense per-shot throughput",
    )
    table.add_row(
        kernel="statevector (pinned)",
        width=WIDTH,
        shots=DENSE_SHOTS,
        wall_time_s=rows["dense_time"],
        shots_per_s=f"{dense_rate:,.0f}",
        note=f"same job, dense 2**{WIDTH} amplitudes per shot",
    )
    table.add_row(
        kernel="stabilizer (auto-routed)",
        width=BIG_WIDTH,
        shots=SHOTS,
        wall_time_s=rows["big_time"],
        shots_per_s=f"{SHOTS / max(rows['big_time'], 1e-9):,.0f}",
        note=f"noiseless GHZ, parity {rows['big'].parity_mean:.3f}; "
        "unreachable for any dense kernel",
    )
    emit(
        "kernel_matrix",
        table,
        wall_time=rows["stab_time"] + rows["dense_time"] + rows["big_time"],
        meta={
            "cpus_visible": cpu_count(),
            "stabilizer_shots": SHOTS,
            "dense_shots": DENSE_SHOTS,
            "speedup_per_shot": speedup,
            "speedup_gate": f">= {SPEEDUP_FLOOR}x dense per-shot throughput",
        },
    )

    # Routing: both GHZ jobs land on the stabilizer kernel without a pin.
    assert rows["stab"].backend == "stabilizer"
    assert rows["big"].backend == "stabilizer"
    # Both kernels sample the same distribution: the all-equal bitstrings
    # dominate at p=0.01 and the GHZ coin stays fair.
    extreme = {"0" * WIDTH, "1" * WIDTH}
    stab_mass = sum(v for k, v in rows["stab"].counts.items() if k in extreme)
    dense_mass = sum(v for k, v in rows["dense"].counts.items() if k in extreme)
    assert stab_mass / SHOTS > 0.5
    assert abs(stab_mass / SHOTS - dense_mass / DENSE_SHOTS) < 0.15
    # The 64-qubit job is exact: only the two GHZ branches, perfect parity.
    assert set(rows["big"].counts) <= {"0" * BIG_WIDTH, "1" * BIG_WIDTH}
    assert rows["big"].parity_mean == 1.0
    # Headline acceptance: >= 20x per-shot throughput at 16 qubits.
    assert speedup >= SPEEDUP_FLOOR, (
        f"stabilizer per-shot speedup x{speedup:.1f} below the "
        f"{SPEEDUP_FLOOR}x acceptance bar"
    )
