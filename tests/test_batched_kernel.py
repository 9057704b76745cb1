"""Cross-validation of the compiled-program / vectorized-kernel stack.

Three-way agreement is the correctness argument for the new simulation core:

* the **vectorized kernel** (`repro.sim.batched`) against the **per-shot
  reference interpreter** (`StatevectorSimulator.run`), exactly on
  deterministic circuits and statistically on sampled ones;
* the kernel against :class:`DensitySimulator` **exact branch
  probabilities** — noiseless and depolarizing, with and without classical
  feedback;
* the engine's new ``statevector`` backend against itself across worker
  counts (bit identity) and against the pinned ``statevector-ref``
  per-shot backend (statistical identity).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, Condition
from repro.circuits.gates import GATES
from repro.core import build_monolithic_swap_test, swap_test_job
from repro.core.estimator import exact_swap_test_expectation
from repro.engine import BackendRouter, Engine, Job
from repro.sim import (
    DensitySimulator,
    NoiseModel,
    StatevectorSimulator,
    compile_circuit,
    get_capabilities,
    get_compiled,
    run_batched,
)
from repro.sim.compile import FUSION_MAX_QUBITS
from repro.utils import partial_trace, random_density_matrix, random_pure_state, state_fidelity

RNG = np.random.default_rng(515)

ALL_GATES = ["h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap", "t", "tdg", "ccx", "cswap"]


def random_unitary_circuit(num_qubits, depth, rng):
    c = Circuit(num_qubits)
    for _ in range(depth):
        name = str(rng.choice(ALL_GATES))
        arity = GATES[name].num_qubits
        if arity > num_qubits:
            continue
        qubits = rng.choice(num_qubits, size=arity, replace=False)
        c.append(name, [int(q) for q in qubits])
    return c


def teleport_circuit() -> Circuit:
    c = Circuit(3, 2)
    c.h(1).cx(1, 2)
    c.cx(0, 1).h(0)
    c.measure(0, 0).measure(1, 1)
    c.x(2, condition=Condition((1,), 1))
    c.z(2, condition=Condition((0,), 1))
    return c


def distribution(clbit_strings, shots):
    out = {}
    for s in clbit_strings:
        out[s] = out.get(s, 0) + 1
    return {k: v / shots for k, v in out.items()}


class TestCompile:
    @pytest.mark.parametrize("seed", range(5))
    def test_fusion_preserves_unitary_semantics(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        circuit = random_unitary_circuit(n, 20, rng)
        program = compile_circuit(circuit)
        psi = random_pure_state(n, rng)
        out = run_batched(
            program, 1, np.random.default_rng(0), initial_state=psi, return_states=True
        )
        assert np.allclose(out.states[0], circuit.to_unitary() @ psi, atol=1e-9)

    def test_fusion_shrinks_op_count_and_bounds_support(self):
        circuit = Circuit(4).h(0).t(0).cx(0, 1).h(2).cx(2, 3).s(3).h(1)
        program = compile_circuit(circuit)
        assert len(program.ops) < program.source_ops == 7
        for op in program.ops:
            assert len(op.qubits) <= FUSION_MAX_QUBITS

    def test_gate_noise_disables_fusion_and_marks_fault_sites(self):
        circuit = Circuit(2).h(0).cx(0, 1).t(1)
        program = compile_circuit(circuit, gate_noise=True)
        assert len(program.ops) == 3
        assert all(op.sample_fault for op in program.ops)
        assert program.prefix_len == 0
        noiseless = compile_circuit(circuit)
        assert noiseless.prefix_len == len(noiseless.ops)

    def test_capability_flags(self):
        clifford = Circuit(2, 1).h(0).cx(0, 1).measure(0, 0)
        caps = get_capabilities(clifford)
        assert caps.is_clifford and caps.num_measurements == 1
        assert not caps.has_reset and not caps.has_conditional

        magic = Circuit(1).t(0)
        assert not get_capabilities(magic).is_clifford

        feedback = teleport_circuit()
        caps = get_capabilities(feedback)
        assert caps.is_clifford and caps.is_frame_compatible and caps.has_conditional

        nonpauli_feedback = Circuit(2, 1)
        nonpauli_feedback.measure(0, 0)
        nonpauli_feedback.h(1, condition=Condition((0,), 1))
        assert not get_capabilities(nonpauli_feedback).is_frame_compatible

    def test_compile_cache_reuses_programs(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        first = get_compiled(circuit)
        again = get_compiled(circuit.copy())
        assert first is again  # same digest -> same cached object
        noisy = get_compiled(circuit, gate_noise=True)
        assert noisy is not first


class TestKernelVsReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_unitary_batch_matches_reference_exactly(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(2, 4))
        circuit = random_unitary_circuit(n, 15, rng)
        psi = random_pure_state(n, rng)
        reference = StatevectorSimulator(seed=0).run(circuit, initial_state=psi).statevector
        out = run_batched(
            get_compiled(circuit),
            5,
            np.random.default_rng(seed),
            initial_state=psi,
            return_states=True,
        )
        for row in out.states:
            assert np.allclose(row, reference, atol=1e-9)

    def test_teleportation_feedback_is_exact_per_shot(self):
        circuit = teleport_circuit()
        psi = random_pure_state(1, RNG)
        init = np.kron(psi, [1, 0, 0, 0]).astype(complex)
        out = run_batched(
            get_compiled(circuit),
            200,
            np.random.default_rng(7),
            initial_state=init,
            return_states=True,
        )
        for row in out.states[::20]:
            assert state_fidelity(psi, partial_trace(row, [2], 3)) > 1 - 1e-9
        # All four measurement branches appear.
        assert set(out.clbit_strings()) == {"00", "01", "10", "11"}

    def test_forced_outcomes_cover_measure_and_reset(self):
        circuit = Circuit(1, 1).h(0).measure(0, 0)
        out = run_batched(
            get_compiled(circuit),
            3,
            np.random.default_rng(0),
            forced_outcomes=[1],
            return_states=True,
        )
        assert all(s == "1" for s in out.clbit_strings())
        assert np.allclose(np.abs(out.states[:, 1]), 1.0)

        resetting = Circuit(1, 0).h(0).reset(0)
        out = run_batched(
            get_compiled(resetting),
            2,
            np.random.default_rng(0),
            forced_outcomes=[1],
            return_states=True,
        )
        # Forced onto the |1> branch, then reset flips back to |0>.
        assert np.allclose(np.abs(out.states[:, 0]), 1.0)

    def test_forcing_zero_probability_branch_raises(self):
        circuit = Circuit(1, 1).measure(0, 0)  # state |0>, outcome 1 impossible
        with pytest.raises(RuntimeError):
            run_batched(
                get_compiled(circuit), 2, np.random.default_rng(0), forced_outcomes=[1]
            )

    def test_reset_in_superposition_lands_in_zero(self):
        circuit = Circuit(2).h(0).cx(0, 1).reset(0)
        out = run_batched(
            get_compiled(circuit), 50, np.random.default_rng(3), return_states=True
        )
        tensor = out.states.reshape(50, 2, 2)
        assert np.allclose(tensor[:, 1, :], 0.0)  # qubit 0 always |0>


@st.composite
def feedback_circuits(draw):
    """Circuits on up to 4 qubits mixing gates, measure and reset, any of
    them parity-conditioned, ending in a readout of the low qubits."""
    n = draw(st.integers(1, 4))
    num_clbits = draw(st.integers(1, 4))
    clbit = st.integers(0, num_clbits - 1)
    names = [g for g in ALL_GATES if GATES[g].num_qubits <= n] + ["measure", "reset"] * 2
    circuit = Circuit(n, num_clbits)
    for _ in range(draw(st.integers(3, 12))):
        name = draw(st.sampled_from(names))
        arity = 1 if name in ("measure", "reset") else GATES[name].num_qubits
        qubits = draw(st.permutations(range(n)))[:arity]
        clbits = [draw(clbit)] if name == "measure" else []
        condition = None
        if draw(st.booleans()):
            parity = draw(st.lists(clbit, min_size=1, max_size=num_clbits, unique=True))
            condition = Condition(tuple(parity), draw(st.integers(0, 1)))
        circuit.append(name, qubits, clbits=clbits, condition=condition)
    for q in range(min(n, num_clbits)):
        circuit.measure(q, q)
    return circuit


LIVENESS_PATTERNS = ("reuse", "abandon", "conditioned_reset", "flip_then_reset")


@st.composite
def liveness_circuits(draw):
    """Circuits that kill and revive qubits between random gates.

    Each block is a random gate followed by one pattern on a random qubit:
    measure -> reset -> reuse; measure and never touch again; measure ->
    parity-conditioned reset -> reuse; measure -> reset -> measure again
    (under readout noise the first record may be flipped, the reset must
    still act on the true outcome).  These are the places the live-width
    kernel drops an axis, collapses a qubit that has none, and re-inserts
    it in its remembered basis state.
    """
    n = draw(st.integers(2, 4))
    num_clbits = 3
    clbit = st.integers(0, num_clbits - 1)
    circuit = Circuit(n, num_clbits)
    alive = list(range(n))

    def gate(forced_qubit=None):
        names = [g for g in ALL_GATES if GATES[g].num_qubits <= len(alive)]
        name = draw(st.sampled_from(names))
        others = [q for q in alive if q != forced_qubit]
        qubits = draw(st.permutations(others))[: GATES[name].num_qubits]
        if forced_qubit is not None:
            qubits = [forced_qubit] + list(qubits[: GATES[name].num_qubits - 1])
        circuit.append(name, qubits)

    for _ in range(draw(st.integers(2, 5))):
        gate()
        pattern = draw(st.sampled_from(LIVENESS_PATTERNS))
        q = draw(st.sampled_from(alive))
        circuit.measure(q, draw(clbit))
        if pattern == "abandon":
            if len(alive) > 1:
                alive.remove(q)
            continue
        if pattern == "conditioned_reset":
            condition = Condition((draw(clbit),), draw(st.integers(0, 1)))
            circuit.append("reset", [q], condition=condition)
        else:
            circuit.reset(q)
        if pattern == "flip_then_reset":
            circuit.measure(q, draw(clbit))
        else:
            gate(forced_qubit=q)
    circuit.measure(draw(st.sampled_from(alive)), num_clbits - 1)
    return circuit


class TestKernelVsDensityExact:
    def _compare(self, circuit, noise, shots=6000, atol=0.035, seed=11, sigmas=None):
        """Kernel frequencies vs exact branch probabilities.

        The tolerance is ``atol`` per outcome, or ``sigmas`` binomial
        standard errors (floored at one count) when ``sigmas`` is given.
        """
        gate_noise = noise is not None and (noise.p1 > 0 or noise.p2 > 0)
        program = get_compiled(circuit, gate_noise=gate_noise)
        out = run_batched(
            program, shots, np.random.default_rng(seed), noise=noise
        )
        empirical = distribution(out.clbit_strings(), shots)
        exact = {
            "".join(str(b) for b in bits): p
            for bits, p in DensitySimulator(noise=noise)
            .run(circuit)
            .branch_probabilities()
            .items()
        }
        for key in set(exact) | set(empirical):
            p = exact.get(key, 0.0)
            tol = atol
            if sigmas is not None:
                tol = sigmas * np.sqrt(max(p * (1 - p), 1 / shots) / shots)
            assert abs(p - empirical.get(key, 0.0)) < tol, (key, p, circuit)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        circuit=feedback_circuits(),
        noise=st.sampled_from(
            [NoiseModel(p1=0.1, p2=0.2, p_meas=0.05), NoiseModel.from_base(0.05), None]
        ),
    )
    def test_random_feedback_circuits_match_density_at_5_sigma(self, circuit, noise):
        self._compare(circuit, noise, shots=4000, seed=7, sigmas=5.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        circuit=liveness_circuits(),
        noise=st.sampled_from(
            [
                NoiseModel(p1=0.1, p2=0.2, p_meas=0.05),
                NoiseModel(p1=0.0, p2=0.0, p_meas=0.15),
                None,
            ]
        ),
    )
    def test_dead_and_revived_qubits_match_density_at_5_sigma(self, circuit, noise):
        self._compare(circuit, noise, shots=4000, seed=7, sigmas=5.0)

    def test_noiseless_bell_sampling(self):
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        self._compare(circuit, None)

    def test_depolarizing_without_feedback(self):
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        self._compare(circuit, NoiseModel.from_base(0.05))

    def test_depolarizing_with_feedback(self):
        self._compare(teleport_circuit(), NoiseModel.from_base(0.05))

    def test_noiseless_with_feedback(self):
        self._compare(teleport_circuit(), None)

    def test_readout_flip_only(self):
        circuit = Circuit(1, 1).measure(0, 0)
        self._compare(circuit, NoiseModel(p1=0.0, p2=0.0, p_meas=0.25))

    def test_reset_under_noise(self):
        circuit = Circuit(2, 1).h(0).cx(0, 1).reset(0).measure(1, 0)
        self._compare(circuit, NoiseModel.from_base(0.04))

    def test_conditional_reset_and_measure(self):
        # Regression: collapse sites can themselves be conditioned — the
        # compiled program must carry the condition and the kernel must
        # collapse only the satisfying subset of shots.
        circuit = Circuit(2, 2)
        circuit.x(1).h(0).measure(0, 0)
        circuit.append("reset", [1], condition=Condition((0,), 1))
        circuit.append("measure", [1], clbits=[1], condition=Condition((0,), 1))
        self._compare(circuit, None)
        caps = get_capabilities(circuit)
        assert caps.has_conditional
        # Shot-level check against the reference interpreter: whenever the
        # condition fired, q1 was reset before being measured into clbit 1.
        out = run_batched(get_compiled(circuit), 400, np.random.default_rng(2))
        fired = out.clbits[:, 0] == 1
        assert fired.any() and (~fired).any()
        assert np.all(out.clbits[fired, 1] == 0)  # reset |1> -> |0> -> measured 0
        assert np.all(out.clbits[~fired, 1] == 0)  # site skipped, clbit untouched


class TestChunking:
    def test_chunked_run_is_deterministic_and_correct(self, monkeypatch):
        import repro.sim.batched as batched

        circuit = Circuit(3, 3).h(0).cx(0, 1).cx(1, 2)
        for q in range(3):
            circuit.measure(q, q)
        program = get_compiled(circuit)
        monkeypatch.setattr(batched, "MAX_CHUNK_AMPLITUDES", 64)
        first = batched.run_batched(program, 120, np.random.default_rng(5))
        second = batched.run_batched(program, 120, np.random.default_rng(5))
        assert np.array_equal(first.clbits, second.clbits)
        strings = set("".join(str(int(b)) for b in row) for row in first.clbits)
        assert strings <= {"000", "111"}  # GHZ correlations survive chunking


def _ghz_readout(width):
    circuit = Circuit(width, width).h(0)
    for q in range(1, width):
        circuit.cx(q - 1, q)
    for q in range(width):
        circuit.measure(q, q)
    return circuit


def _teleport_then_reset():
    circuit = teleport_circuit()
    circuit.reset(0).h(0).measure(0, 0)
    return circuit


class TestSharedPrefixPath:
    """A shared input state evolves the deterministic prefix once and
    broadcasts it; per-shot input states evolve every op per row.  Both
    consume the RNG in the same order with the same draw sizes, so from the
    same |0...0> input (and the same chunk boundaries) they must be
    bit-identical."""

    CASES = {
        "noiseless_ghz": (lambda: _ghz_readout(4), None),
        "feedback_and_reset": (_teleport_then_reset, None),
        "non_clifford": (
            lambda: Circuit(2, 2).h(0).t(0).cx(0, 1).measure(0, 0).measure(1, 1),
            None,
        ),
        "noisy_readout_ghz": (lambda: _ghz_readout(3), NoiseModel(p1=0.0, p2=0.0, p_meas=0.05)),
    }

    @pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_shared_prefix_matches_per_shot_input(self, case, chunked, monkeypatch):
        import repro.sim.batched as batched

        build, noise = self.CASES[case]
        program = get_compiled(build())
        assert program.prefix_len > 0  # the shortcut is actually taken
        if chunked:
            monkeypatch.setattr(batched, "MAX_CHUNK_AMPLITUDES", 16 * program.dim)
        shots = 512
        per_shot = np.zeros((shots, program.dim), dtype=complex)
        per_shot[:, 0] = 1.0
        shared = run_batched(program, shots, np.random.default_rng(1234), noise=noise)
        rows = run_batched(
            program, shots, np.random.default_rng(1234), noise=noise, initial_state=per_shot
        )
        assert np.array_equal(shared.clbits, rows.clbits)
        assert len(set(shared.clbit_strings())) > 1  # sampled, not deterministic


class TestEngineIntegration:
    def _job(self, seed=17, shots=600, backend=None, noise=None):
        rng = np.random.default_rng(9)
        build = build_monolithic_swap_test(3, 1, variant="b", basis="x")
        states = [random_density_matrix(1, rng=rng) for _ in range(3)]
        return swap_test_job(
            build, states, shots, seed, noise=noise, batch_size=100, backend=backend
        ), states

    def test_workers_1_vs_4_bit_identical_on_new_kernel(self):
        job_a, _ = self._job()
        job_b, _ = self._job()
        with Engine(workers=1) as serial, Engine(workers=4) as parallel:
            res_1 = serial.run(job_a)
            res_4 = parallel.run(job_b)
        assert res_1.backend == "statevector"
        assert res_1.parity_mean == res_4.parity_mean
        assert res_1.parity_stderr == res_4.parity_stderr
        assert res_1.counts == res_4.counts

    @pytest.mark.parametrize("noise", [None, NoiseModel.from_base(0.01)])
    def test_batched_and_reference_agree_with_exact(self, noise):
        shots = 4000
        job_vec, states = self._job(seed=3, shots=shots, noise=noise)
        job_ref, _ = self._job(seed=3, shots=shots, backend="statevector-ref", noise=noise)
        with Engine(workers=1) as engine:
            res_vec = engine.run(job_vec)
            res_ref = engine.run(job_ref)
        assert res_vec.backend == "statevector"
        assert res_ref.backend == "statevector-ref"
        # Both estimate the same quantity; with noise the target drifts from
        # the ideal trace, so compare the two samplers against each other.
        spread = 5.0 * (res_vec.parity_stderr + res_ref.parity_stderr)
        assert abs(res_vec.parity_mean - res_ref.parity_mean) < spread
        if noise is None:
            exact = exact_swap_test_expectation(states, variant="b").real
            assert abs(res_vec.parity_mean - exact) < 5.0 * res_vec.parity_stderr
            assert abs(res_ref.parity_mean - exact) < 5.0 * res_ref.parity_stderr

    def test_backend_pin_changes_hash_and_routing(self):
        job_auto, _ = self._job()
        job_ref, _ = self._job(backend="statevector-ref")
        assert job_auto.content_hash() != job_ref.content_hash()
        router = BackendRouter()
        assert router.select(job_auto).name == "statevector"
        assert router.select(job_ref).name == "statevector-ref"

    def test_router_uses_capability_flags(self):
        clifford = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        magic = Circuit(2, 2).h(0).t(1).cx(0, 1).measure(0, 0).measure(1, 1)
        router = BackendRouter()
        assert router.select(Job(circuit=clifford, shots=10, seed=1)).name == "stabilizer"
        assert router.select(Job(circuit=magic, shots=10, seed=1)).name == "statevector"

    def test_invalid_backend_pins_rejected(self):
        clifford = Circuit(2, 2).h(0).t(1).cx(0, 1).measure(0, 0)
        router = BackendRouter()
        with pytest.raises(ValueError):
            Job(circuit=clifford, shots=10, seed=1, backend="bogus")
        with pytest.raises(ValueError):
            router.select(Job(circuit=clifford, shots=10, seed=1, backend="tableau"))
        with pytest.raises(ValueError):
            router.select(Job(circuit=clifford, shots=10, seed=1, backend="density"))

    def test_compile_and_execute_times_recorded(self):
        job, _ = self._job()
        with Engine(workers=1) as engine:
            result = engine.run(job)
        assert result.execute_time > 0.0
        assert result.compile_time >= 0.0
        stats = engine.stats_dict()
        assert stats["execute_time"] == pytest.approx(result.execute_time)
