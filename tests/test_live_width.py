"""The live-width dense kernel: simulate the qubits that are alive.

The distributed protocol circuits allocate most of their qubits as Bell
halves and teleport ancillas that are measured and reset a few ops after
they are created.  The liveness layout (``CompiledProgram.live_layout``)
drops a qubit's axis at an unconditioned measure or reset and re-inserts it
at its next gate, so the batched kernel holds ``2**peak_live`` amplitudes
per shot instead of ``2**num_qubits``.  These tests pin:

* final states against the per-shot reference interpreter, with dead
  qubits re-expanded (``return_states=True``);
* sampled bits at fixed seeds, recorded before the kernel went live-width
  (the RNG-consumption contract: a dead qubit's collapse draws exactly what
  a live one would);
* the allocated and peak-live widths of the protocol family;
* the refusal of a job whose one-shot live state cannot be held, before
  anything is allocated;
* bit identity across engine configurations and statistical agreement with
  the reference backends on the family fixtures.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from repro.api import Experiment, NetworkSpec, NoiseSpec
from repro.circuits import Circuit
from repro.core import build_monolithic_swap_test
from repro.core.compas import build_compas
from repro.core.multistate_swap import build_multistate_swap
from repro.core.nparty_hadamard import build_nparty_hadamard
from repro.core.nstate_swap import build_nstate_swap
from repro.core.protocol import family_builds, protocol_job
from repro.engine import Engine, Scheduler
from repro.sim import StatevectorSimulator, compile_circuit, get_capabilities, run_batched
from repro.sim.batched import MAX_CHUNK_AMPLITUDES
from repro.utils.states import assemble_initial_state

BUILDERS = {
    "compas-teledata": lambda k, basis="x", topology=None: build_compas(
        k, 1, basis=basis, topology=topology
    ),
    "nstate": lambda k, basis="x", topology=None: build_nstate_swap(
        k, 1, basis=basis, topology=topology
    ),
    "nparty": lambda k, basis="x", topology=None: build_nparty_hadamard(
        k, 1, basis=basis, topology=topology
    ),
    "multistate": lambda k, basis="x", topology=None: build_multistate_swap(
        k, 1, pair=(0, 2), basis="x", topology=topology
    ),
}


def pure_states(k, seed):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(k):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        states.append(v / np.linalg.norm(v))
    return states


def placements_of(build, states):
    return {
        tuple(build.position_registers[p]): states[build.user_of_position[p]]
        for p in range(len(build.position_registers))
    }


def forced_branch(program, rng) -> list[int]:
    """Random measurement outcomes; each reset forced to what its qubit
    last read (0 if a gate touched it since), so most branches are valid."""
    last: dict[int, int] = {}
    outcomes = []
    for op in program.ops:
        if op.kind == "unitary":
            for q in op.qubits:
                last.pop(q, None)
        elif op.kind == "measure":
            last[op.qubits[0]] = int(rng.integers(2))
            outcomes.append(last[op.qubits[0]])
        else:
            outcomes.append(last.pop(op.qubits[0], 0))
    return outcomes


# ----------------------------------------------------------------------
# Final states against the per-shot reference
# ----------------------------------------------------------------------
class TestFinalStates:
    @pytest.mark.parametrize("member", ["compas-teledata", "nstate", "nparty"])
    def test_forced_states_match_reference(self, member):
        build = BUILDERS[member](3)
        circuit = build.circuit()
        program = compile_circuit(circuit)
        placements = placements_of(build, pure_states(3, seed=31))
        dense = assemble_initial_state(circuit.num_qubits, placements)
        rng = np.random.default_rng(8)
        sequences = [forced_branch(program, rng) for _ in range(12)]
        compared = 0
        for forced in sequences:
            try:
                reference = StatevectorSimulator(seed=0).run(
                    circuit, initial_state=dense, forced_outcomes=forced
                ).statevector
            except RuntimeError:  # a zero-probability branch: not a valid run
                continue
            for initial_state in (placements, dense):
                out = run_batched(
                    program,
                    3,
                    np.random.default_rng(0),
                    initial_state=initial_state,
                    forced_outcomes=forced,
                    return_states=True,
                )
                assert out.states.shape == (3, 2**circuit.num_qubits)
                for row in out.states:
                    assert np.max(np.abs(row - reference)) < 1e-10
            compared += 1
        assert compared >= 6

    def test_dead_qubit_reexpands_into_its_outcome(self):
        # q0 is measured and never touched again; q1 is reset after its
        # measurement and never used: both come back as basis states.
        circuit = Circuit(3, 2).h(0).x(1).cx(1, 2).measure(0, 0).measure(1, 1).reset(1)
        program = compile_circuit(circuit)
        assert program.live_layout(()).steps[-1].axes == ()  # reset of a dead qubit
        out = run_batched(program, 64, np.random.default_rng(4), return_states=True)
        for bits, row in zip(out.clbits, out.states):
            index = (int(bits[0]) << 2) | 1  # q0 = outcome, q1 = 0 (reset), q2 = 1
            assert abs(row[index]) == pytest.approx(1.0)
        assert set(out.clbits[:, 0]) == {0, 1}


# ----------------------------------------------------------------------
# Golden counts: the RNG-consumption contract
# ----------------------------------------------------------------------
def _golden_digest(member: str, links: str) -> str:
    """Counts of a k=3 family job at fixed seeds, as a short digest.

    One mixed input (two ensemble components) and gate, readout and (for
    ``noisy``) link noise, so faults, flips, ensemble groups, conditioned
    corrections and dead-qubit resets are all sampled.  48 shots keep every
    job below the old ``2**n`` chunk bound, so chunking is the same as
    before the kernel went live-width.
    """
    network = (
        NetworkSpec(topology="line")
        if links == "ideal"
        else NetworkSpec(topology="line", link_depolarizing=0.02, swap_penalty=0.01)
    )
    noise = network.noise_model(NoiseSpec(p1=1e-3, p2=1e-2, p_meas=0.02))
    topology = network.build([f"qpu{p}" for p in range(3)])
    states = pure_states(3, seed=5)
    states[0] = 0.7 * np.outer(states[0], states[0].conj()) + 0.15 * np.eye(2)
    basis = "y" if member == "nparty" else "x"
    build = BUILDERS[member](3, basis=basis, topology=topology)
    job = protocol_job(build, states, shots=48, seed=2024, noise=noise)
    with Engine(workers=1, executor="serial", cache=False) as engine:
        counts = engine.run(job).counts
    text = json.dumps(dict(sorted(counts.items())), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Recorded with the full-width kernel (allocated qubits all held as axes).
GOLDEN = {
    ('compas-teledata', 'ideal'): "15664397359b4b28",
    ('compas-teledata', 'noisy'): "1a90f58bdf432412",
    ('multistate', 'ideal'): "88166884995a0646",
    ('multistate', 'noisy'): "a1d825242f9a5225",
    ('nparty', 'ideal'): "51ce5ebee633764e",
    ('nparty', 'noisy'): "75bb8cea64f1d5b9",
    ('nstate', 'ideal'): "bcf958f61d6a68ac",
    ('nstate', 'noisy'): "3c035e4323562f32",
}


class TestGoldenCounts:
    @pytest.mark.parametrize(("member", "links"), sorted(GOLDEN))
    def test_counts_match_full_width_kernel(self, member, links):
        assert _golden_digest(member, links) == GOLDEN[(member, links)]


# ----------------------------------------------------------------------
# Widths
# ----------------------------------------------------------------------
class TestWidths:
    #: (member, k) -> (allocated qubits, peak live qubits)
    WIDTHS = {
        ("compas-teledata", 3): (12, 7),
        ("compas-teledata", 4): (14, 8),
        ("compas-teledata", 6): (22, 11),
        ("nstate", 3): (11, 7),
        ("nstate", 4): (13, 8),
        ("nparty", 3): (15, 8),
        ("nparty", 4): (20, 10),
        ("nparty", 6): (31, 14),
        ("multistate", 4): (7, 3),
    }

    @pytest.mark.parametrize(("member", "k"), sorted(WIDTHS))
    def test_peak_live_widths(self, member, k):
        allocated, peak = self.WIDTHS[(member, k)]
        build = family_builds(member, k, 1)[0]
        circuit = build.circuit()
        assert circuit.num_qubits == allocated
        assert get_capabilities(circuit).peak_live_qubits == peak
        program = compile_circuit(circuit, gate_noise=True, link_noise=True)
        registers = tuple(sorted(tuple(r) for r in build.position_registers))
        assert program.live_layout(registers).peak == peak
        assert program.live_layout(None).peak == allocated  # dense input

    @pytest.mark.parametrize(("k", "n"), [(2, 3), (3, 5)])
    def test_monolithic_compas_keeps_every_qubit_live(self, k, n):
        circuit = build_monolithic_swap_test(k, 1, variant="d", basis="x").circuit()
        assert circuit.num_qubits == n
        assert get_capabilities(circuit).peak_live_qubits == n

    def test_protocol_job_records_both_widths(self):
        build = BUILDERS["nparty"](3)
        job = protocol_job(build, pure_states(3, seed=1), shots=4, seed=1)
        compiled = job.metadata["compiled"]
        assert (compiled["num_qubits"], compiled["peak_live_qubits"]) == (15, 8)
        result = Experiment.nparty_hadamard(pure_states(3, seed=1), shots=4, seed=1).run()
        assert result.extra["resources"]["compiled"]["peak_live_qubits"] == 8

    def test_cost_model_prices_the_live_width(self):
        build = BUILDERS["compas-teledata"](3)
        job = protocol_job(build, pure_states(3, seed=2), shots=256, seed=1)
        scheduler = Scheduler()
        caps = get_capabilities(job.circuit)
        estimate = scheduler.estimate_job_seconds(job, "statevector")
        assert estimate == scheduler.cost_model.estimate_job_seconds(
            shots=256,
            num_qubits=caps.peak_live_qubits,
            num_instructions=len(job.circuit.instructions),
            stochastic_sites=caps.num_measurements,
            backend="statevector",
        )
        full = scheduler.cost_model.estimate_job_seconds(
            shots=256,
            num_qubits=caps.num_qubits,
            num_instructions=len(job.circuit.instructions),
            stochastic_sites=caps.num_measurements,
            backend="statevector",
        )
        assert full > 16 * estimate  # 2**(12 - 7) = 32x fewer amplitudes


# ----------------------------------------------------------------------
# Refusal before allocation
# ----------------------------------------------------------------------
class TestOversizedLiveState:
    def test_nparty_on_sixteen_states_is_refused_before_allocating(self):
        states = pure_states(16, seed=3)
        experiment = Experiment.nparty_hadamard(states, shots=2, seed=1)
        start = time.perf_counter()
        with Engine(workers=1, executor="serial", cache=False) as engine:
            with pytest.raises(ValueError, match=r"allocates 86 qubits and keeps 3\d alive"):
                experiment.run(engine)
        assert time.perf_counter() - start < 5.0

    def test_the_bound_is_the_chunk_bound(self):
        width = MAX_CHUNK_AMPLITUDES.bit_length()  # one qubit over the bound
        circuit = Circuit(width, 1)
        for q in range(width):
            circuit.h(q)
        circuit.measure(0, 0)
        with pytest.raises(ValueError, match="exceeds MAX_CHUNK_AMPLITUDES"):
            run_batched(compile_circuit(circuit), 1, np.random.default_rng(0))


# ----------------------------------------------------------------------
# Engines and reference backends on the family fixtures
# ----------------------------------------------------------------------
KINDS = ("nstate_swap", "nparty_hadamard", "multistate_swap")
NETWORKS = {
    "ideal": NetworkSpec(topology="line"),
    "noisy": NetworkSpec(topology="line", link_depolarizing=0.05, swap_penalty=0.01),
}


def _family_experiment(kind, k, shots, seed, network, **options):
    states = pure_states(k, seed=40 + k)
    if kind == "swap_test":
        return Experiment.swap_test(
            states, shots=shots, seed=seed, backend="compas", network=network, **options
        )
    return getattr(Experiment, kind)(
        states, shots=shots, seed=seed, network=network, **options
    )


class TestAcrossEngines:
    @pytest.mark.parametrize("links", sorted(NETWORKS))
    @pytest.mark.parametrize("kind", ("swap_test",) + KINDS)
    def test_bit_identical_across_worker_counts(self, kind, links):
        base = _family_experiment(kind, 3, 600, 21, NETWORKS[links])
        serial = base.with_options(workers=1, executor="serial").run()
        for workers, executor in ((4, "thread"), (2, "process")):
            pooled = base.with_options(workers=workers, executor=executor).run()
            assert pooled.estimate == serial.estimate
            assert pooled.stderr == serial.stderr

    @pytest.mark.parametrize("links", sorted(NETWORKS))
    @pytest.mark.parametrize("member", ["compas-teledata", "nstate", "nparty"])
    def test_kernel_agrees_with_per_shot_reference(self, member, links):
        network = NETWORKS[links]
        noise = network.noise_model(NoiseSpec(p1=2e-3, p2=2e-2))
        topology = network.build([f"qpu{p}" for p in range(2)])
        build = BUILDERS[member](2, topology=topology)
        states = pure_states(2, seed=12)
        means = {}
        with Engine(workers=1, executor="serial", cache=False) as engine:
            for backend in (None, "statevector-ref"):
                job = protocol_job(
                    build, states, shots=1500, seed=5, noise=noise, backend=backend
                )
                result = engine.run(job)
                means[backend] = (result.parity_mean, result.parity_stderr)
        (vec, vec_err), (ref, ref_err) = means[None], means["statevector-ref"]
        assert abs(vec - ref) < 5.0 * np.hypot(vec_err, ref_err)
