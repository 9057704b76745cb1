"""Tests for the physical network model.

Covers the network refactor end to end: the grown :class:`NetworkSpec`
(validation, v2 content hash, noise-model composition), QPU-name boundary
validation, structured locality violations, hop-weighted Bell accounting
across all four topologies, the scheduled lowering, measured-vs-closed-form
resource cross-checks, link-aware noise through every simulator (batched
kernel vs density-matrix reference), zero-link bit-identity, and worker
determinism at the new link-noise sites.
"""

import numpy as np
import pytest

from repro.api import Experiment, NetworkSpec, NoiseSpec, QpuSpec
from repro.api.execution import run_multiparty_swap_test
from repro.circuits import Circuit
from repro.core.compas import build_compas
from repro.core.naive import build_naive_distribution
from repro.engine import Engine, Job
from repro.network import (
    DistributedProgram,
    Machine,
    complete_topology,
    line_topology,
    lower_program,
    ring_topology,
    star_topology,
)
from repro.resources import (
    measure_scheme_cost,
    measured_scheme_comparison,
    scheme_comparison,
    teledata_cost,
    telegate_cost,
)
from repro.sim import (
    DensitySimulator,
    NoiseModel,
    QpuNoiseOverride,
    StatevectorSimulator,
    get_compiled,
)
from repro.sim.batched import run_batched
from repro.utils import random_density_matrix

TOPOLOGY_BUILDERS = {
    "line": line_topology,
    "ring": ring_topology,
    "star": star_topology,
    "complete": complete_topology,
}


def two_states(seeds=(11, 12)):
    return [random_density_matrix(1, rng=np.random.default_rng(s)) for s in seeds]


def bell_measure_program(hops_names=("a", "b", "c")):
    """A 2-hop Bell distribution with both halves measured."""
    prog = DistributedProgram(line_topology(list(hops_names)))
    (qa,) = prog.alloc(hops_names[0], "r", 1)
    (qc,) = prog.alloc(hops_names[-1], "r", 1)
    prog.create_bell_pair(qa, qc)
    prog.measure(qa)
    prog.measure(qc)
    return prog


# ----------------------------------------------------------------------
# NetworkSpec: validation, hashing, composition
# ----------------------------------------------------------------------
class TestNetworkSpec:
    def test_defaults_are_ideal(self):
        spec = NetworkSpec()
        spec.validate()
        assert spec.is_ideal
        assert spec.noise_model(None) is None
        assert spec.noise_model(NoiseSpec()) is None

    def test_rejects_bad_fields(self):
        for bad in (
            NetworkSpec(topology="torus"),
            NetworkSpec(link_depolarizing=-0.1),
            NetworkSpec(link_depolarizing=1.5),
            NetworkSpec(swap_penalty=2.0),
            NetworkSpec(bell_latency=-1.0),
            NetworkSpec(qpus=(QpuSpec("a", p2=1.5),)),
            NetworkSpec(qpus=(QpuSpec(""),)),
            NetworkSpec(qpus=(QpuSpec("a"), QpuSpec("a"))),
        ):
            with pytest.raises(ValueError):
                bad.validate()

    def test_pinned_v2_digest(self):
        # The digest is a persistence format: this literal must only change
        # with an explicit hash-tag bump.
        assert (
            NetworkSpec().content_hash()
            == "e7826001d661a871acb782070496f2e5ca6ad651a83368c9f73fbc6f0af01c20"
        )

    def test_every_field_changes_hash(self):
        base = NetworkSpec()
        for other in (
            NetworkSpec(topology="ring"),
            NetworkSpec(link_depolarizing=0.01),
            NetworkSpec(swap_penalty=0.01),
            NetworkSpec(bell_latency=2.0),
            NetworkSpec(qpus=(QpuSpec("qpu0", p2=0.01),)),
        ):
            assert other.content_hash() != base.content_hash()

    def test_link_error_rate_composition(self):
        spec = NetworkSpec(link_depolarizing=0.1, swap_penalty=0.05)
        assert spec.link_error_rate(1) == pytest.approx(0.1)
        assert spec.link_error_rate(2) == pytest.approx(1 - 0.9 * 0.9 * 0.95)
        with pytest.raises(ValueError):
            spec.link_error_rate(0)

    def test_noise_model_composition(self):
        spec = NetworkSpec(
            link_depolarizing=0.02, qpus=(QpuSpec("qpu1", p2=0.3, p_meas=0.1),)
        )
        model = spec.noise_model(NoiseSpec.from_base(0.01))
        assert model.p2 == pytest.approx(0.01)
        assert model.p_link == pytest.approx(0.02)
        assert model.gate_error_rate(2, "qpu1") == pytest.approx(0.3)
        assert model.gate_error_rate(2, "qpu0") == pytest.approx(0.01)
        assert model.meas_flip_rate("qpu1") == pytest.approx(0.1)
        # Link-only networks still produce a model even with no base noise.
        assert NetworkSpec(link_depolarizing=0.02).noise_model(None).has_link_noise

    def test_build_validates_names(self):
        with pytest.raises(ValueError, match="duplicate QPU name 'a'"):
            NetworkSpec().build(["a", "b", "a"])
        with pytest.raises(ValueError, match="non-empty"):
            NetworkSpec().build(["a", ""])
        with pytest.raises(ValueError, match="unknown QPUs"):
            NetworkSpec(qpus=(QpuSpec("ghost", p2=0.1),)).build(["a", "b"])

    def test_link_error_rate_matches_noise_model(self):
        # One formula for bounds and sampling: the spec delegates to the model.
        spec = NetworkSpec(link_depolarizing=0.07, swap_penalty=0.03)
        model = spec.noise_model(None)
        for hops in (1, 2, 5):
            assert spec.link_error_rate(hops) == model.link_error_rate(hops)

    def test_explicit_topology_still_checks_overrides(self):
        # A pre-built topology bypasses NetworkSpec.build; the override-name
        # check must still run so a typo cannot silently drop its noise.
        psi = np.array([1.0, 0.0], dtype=complex)
        spec = NetworkSpec(qpus=(QpuSpec("ghost", p2=0.5),))
        with pytest.raises(ValueError, match="unknown QPUs"):
            run_multiparty_swap_test(
                [psi, psi],
                shots=10,
                seed=0,
                engine=Engine(workers=1, executor="serial"),
                backend="compas",
                topology=line_topology(["qpu0", "qpu1"]),
                network=spec,
            )

    def test_physical_network_rejected_on_monolithic_backend(self):
        # A non-ideal network must never be silently ignored.
        psi = np.array([1.0, 0.0], dtype=complex)
        spec = NetworkSpec(link_depolarizing=0.1)
        with pytest.raises(ValueError, match="distributed backend"):
            run_multiparty_swap_test(
                [psi, psi],
                shots=10,
                seed=0,
                engine=Engine(workers=1, executor="serial"),
                backend="monolithic",
                network=spec,
            )
        with pytest.raises(ValueError, match="distributed backend"):
            Experiment.swap_test([psi, psi], network=spec).validate()
        # The all-defaults (ideal) network stays legal everywhere.
        Experiment.swap_test([psi, psi], network=NetworkSpec()).validate()


class TestTopologyConstruction:
    def test_rejects_empty_and_disconnected_graphs(self):
        import networkx as nx

        from repro.network import Topology

        with pytest.raises(ValueError, match="at least one node"):
            Topology(nx.Graph(), "empty")
        disconnected = nx.Graph()
        disconnected.add_nodes_from(["a", "b"])
        with pytest.raises(ValueError, match="connected"):
            Topology(disconnected, "islands")

    def test_measure_scheme_cost_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            measure_scheme_cost("carrier-pigeon", 1, 2)

    def test_lowering_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="bell_latency"):
            lower_program(bell_measure_program(), bell_latency=-1.0)


class TestProgramGateSurface:
    def test_gate_helpers_tag_owner(self):
        prog = DistributedProgram(line_topology(["A"]))
        q = prog.alloc("A", "r", 3)
        prog.s(q[0]).sdg(q[0]).t(q[1]).tdg(q[1]).z(q[0])
        prog.ccx(q[0], q[1], q[2]).cswap(q[0], q[1], q[2]).swap(q[1], q[2])
        prog.barrier()
        prog.reset(q[2])
        circuit = prog.build()
        gates = [i for i in circuit.instructions if i.name not in ("barrier", "reset")]
        assert all(inst.qpu == "A" for inst in gates)
        assert all(inst.hops == 0 for inst in gates)
        assert circuit.depth() > 0


class TestQpuNameBoundary:
    def test_machine_rejects_bad_names(self):
        machine = Machine()
        with pytest.raises(ValueError, match="non-empty"):
            machine.add_qpu("")
        with pytest.raises(ValueError, match="string"):
            machine.add_qpu(3)

    def test_topology_builders_reject_duplicates(self):
        for builder in TOPOLOGY_BUILDERS.values():
            with pytest.raises(ValueError, match="duplicate QPU name 'x'"):
                builder(["x", "y", "x"])

    def test_builders_reject_mismatched_topology(self):
        topo = line_topology(["left", "right"])
        with pytest.raises(ValueError, match="must connect QPUs"):
            build_compas(2, 1, topology=topo)
        with pytest.raises(ValueError, match="must connect QPUs"):
            build_naive_distribution(2, 1, topology=topo)


# ----------------------------------------------------------------------
# Locality audit (structured violations)
# ----------------------------------------------------------------------
class TestLocalityViolations:
    def test_violation_names_qpus_and_index(self):
        prog = DistributedProgram(line_topology(["A", "B"]))
        (a,) = prog.alloc("A", "r", 1)
        (b,) = prog.alloc("B", "r", 1)
        prog.h(a)
        prog.cx(a, b)
        report = prog.audit_locality()
        assert not report.is_local
        (violation,) = report.violations
        assert violation.index == 1
        assert violation.name == "cx"
        assert violation.qpus == ("A", "B")
        text = str(violation)
        assert "instruction 1" in text and "A" in text and "B" in text
        assert "cx" in report.describe()

    def test_clean_report_describes_counts(self):
        prog = DistributedProgram(line_topology(["A", "B"]))
        (a,) = prog.alloc("A", "r", 1)
        (b,) = prog.alloc("B", "r", 1)
        prog.create_bell_pair(a, b)
        report = prog.audit_locality()
        assert report.is_local
        assert "1 Bell generations" in report.describe()


# ----------------------------------------------------------------------
# Hop-weighted Bell accounting across topologies (satellite)
# ----------------------------------------------------------------------
class TestHopWeightedLedger:
    @pytest.mark.parametrize("topology_name", sorted(TOPOLOGY_BUILDERS))
    @pytest.mark.parametrize("scheme", ["teledata", "telegate", "naive"])
    def test_logical_counts_are_topology_invariant(self, topology_name, scheme):
        k, n = 5, 2
        names = [f"qpu{i}" for i in range(k)]
        topo = TOPOLOGY_BUILDERS[topology_name](names)
        if scheme == "naive":
            build = build_naive_distribution(k, n, topology=topo)
            reference = build_naive_distribution(k, n)
        else:
            build = build_compas(k, n, design=scheme, topology=topo)
            reference = build_compas(k, n, design=scheme)
        assert build.program.ledger.logical == reference.program.ledger.logical

    @pytest.mark.parametrize("scheme", ["teledata", "telegate", "naive"])
    def test_physical_ordering_across_topologies(self, scheme):
        k, n = 5, 2
        names = [f"qpu{i}" for i in range(k)]
        physical = {}
        for topology_name, builder in TOPOLOGY_BUILDERS.items():
            topo = builder(names)
            if scheme == "naive":
                build = build_naive_distribution(k, n, topology=topo)
            else:
                build = build_compas(k, n, design=scheme, topology=topo)
            ledger = build.program.ledger
            physical[topology_name] = ledger.physical
            # Physical is always >= logical, with equality iff no multi-hop
            # event was recorded.
            assert ledger.physical >= ledger.logical
            events = ledger.events
            assert ledger.physical == sum(e.hops for e in events)
            assert ledger.logical == len(events)
        # All-to-all links make every pair nearest-neighbour.
        assert physical["complete"] == (
            build_naive_distribution(k, n).program.ledger.logical
            if scheme == "naive"
            else build_compas(k, n, design=scheme).program.ledger.logical
        )
        # Richer connectivity never costs more physical pairs.
        assert physical["complete"] <= physical["ring"] <= physical["line"]
        assert physical["complete"] <= physical["star"]

    def test_line_compas_ghz_links_cost_two_hops(self):
        # Controllers sit on even positions of the line, so each GHZ fusion
        # link spans two hops; CSWAP teleoperations are nearest-neighbour.
        k, n = 6, 1
        build = build_compas(k, n, design="teledata")
        ledger = build.program.ledger
        ghz_events = [e for e in ledger.events if e.purpose == "ghz"]
        cswap_events = [e for e in ledger.events if e.purpose != "ghz"]
        assert all(e.hops == 2 for e in ghz_events)
        assert all(e.hops == 1 for e in cswap_events)
        assert ledger.physical == ledger.logical + len(ghz_events)

    def test_per_link_physical_attribution(self):
        prog = bell_measure_program()
        ledger = prog.ledger
        assert ledger.logical == 1 and ledger.physical == 2
        assert ledger.physical_by_link == {("a", "b"): 1, ("b", "c"): 1}
        # The relay QPU touches both segments.
        assert ledger.physical_by_qpu["b"] == 2


# ----------------------------------------------------------------------
# Scheduled lowering
# ----------------------------------------------------------------------
class TestLowering:
    def test_depth_matches_circuit_depth(self):
        build = build_compas(4, 2, basis="x")
        lowered = build.lowered()
        assert lowered.depth == build.circuit().depth()

    def test_latency_weighting(self):
        prog = bell_measure_program()
        unit = lower_program(prog, bell_latency=1.0)
        slow = lower_program(prog, bell_latency=3.0)
        # Even at unit Bell latency the 2-hop generation takes 2 time units
        # (one per sequential nearest-neighbour generation), so the latency
        # schedule runs one step past the unit-duration depth.
        assert unit.depth == 3
        assert unit.latency == 4
        # bell_latency=3 stretches the event to 6 units.
        assert slow.latency == unit.latency + 4
        assert slow.depth == unit.depth  # unit-duration layering unchanged

    def test_bell_events_expose_hops(self):
        prog = bell_measure_program()
        lowered = lower_program(prog)
        (event,) = lowered.bell_events
        assert event.hops == 2
        assert set(event.qpus) == {"a", "c"}

    def test_per_qpu_usage(self):
        build = build_compas(4, 1, basis="x")
        lowered = build.lowered()
        usage = lowered.per_qpu["qpu0"]
        assert usage.data_qubits == 1
        assert usage.ancilla == usage.qubits - 1
        assert usage.measurements > 0
        assert usage.depth <= lowered.depth
        assert usage.finish <= lowered.latency
        summary = lowered.summary()
        assert summary["logical_bells"] == build.program.ledger.logical


# ----------------------------------------------------------------------
# Measured accounting vs the closed-form tables
# ----------------------------------------------------------------------
class TestMeasuredVsClosedForm:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "design,closed", [("teledata", teledata_cost), ("telegate", telegate_cost)]
    )
    def test_per_qpu_bell_pairs_match_tables(self, n, design, closed):
        # On a machine large enough to have an interior controller the
        # busiest QPU consumes exactly the Tables 1-2 per-QPU Bell budget:
        # 2 + 4n (teledata) / 2 + 6n (telegate).
        measured = measure_scheme_cost(design, n, k=6)
        assert measured.bell_pairs == closed(n).bell_pairs

    def test_small_machines_lack_one_ghz_link(self):
        measured = measure_scheme_cost("teledata", 2, k=4)
        assert measured.bell_pairs == teledata_cost(2).bell_pairs - 1

    @pytest.mark.parametrize("design", ["teledata", "telegate"])
    def test_depth_constant_in_n_and_k(self, design):
        depths = {
            (n, k): measure_scheme_cost(design, n, k).depth
            for n in (2, 3)
            for k in (4, 6)
        }
        assert len(set(depths.values())) == 1

    def test_depth_ordering_matches_tables(self):
        teledata = measure_scheme_cost("teledata", 2, 6)
        telegate = measure_scheme_cost("telegate", 2, 6)
        assert teledata.depth < telegate.depth  # Table 3's teledata win
        assert teledata_cost(2).depth < telegate_cost(2).depth

    def test_ancilla_scales_linearly_in_n(self):
        # Linear growth (the fanout bank rounds to even sizes, so the slope
        # wobbles by one — but it must stay Theta(n), not quadratic).
        measured = {n: measure_scheme_cost("teledata", n, 6).ancilla for n in (2, 4, 8)}
        assert measured[2] < measured[4] < measured[8]
        for n, ancilla in measured.items():
            assert 2 * n <= ancilla <= 8 * n

    def test_naive_congestion_grows_with_k(self):
        # The paper's architectural claim: naive redistribution funnels
        # physical pairs through central links (load grows with k), while
        # COMPAS's interleaving keeps every link's load n-bounded.
        n = 2
        naive_loads = [measure_scheme_cost("naive", n, k).max_link_load for k in (4, 6, 8)]
        compas_loads = [
            measure_scheme_cost("teledata", n, k).max_link_load for k in (4, 6, 8)
        ]
        assert naive_loads[0] < naive_loads[1] < naive_loads[2]
        assert len(set(compas_loads)) == 1

    def test_naive_measured_physical_formula(self):
        # Self-consistency: the lowered count equals the combinatorial
        # hop-sum of the slice redistribution (QPU-hop convention; the
        # paper's Sec 2.5 closed form counts qubit-granular distances).
        n, k = 4, 4
        topo = line_topology([f"qpu{i}" for i in range(k)])
        expected = sum(
            topo.distance(f"qpu{i}", f"qpu{j % k}")
            for j in range(n)
            for i in range(k)
            if i != j % k
        )
        assert measure_scheme_cost("naive", n, k).total_physical_bells == expected

    def test_comparison_has_all_schemes(self):
        rows = measured_scheme_comparison(2, 4)
        assert [r["scheme"] for r in rows] == [
            "telegate",
            "teledata",
            "naive",
            "multistate",
            "nstate",
            "nparty",
        ]
        closed = {r["scheme"]: r for r in scheme_comparison(2, 4)}
        for row in rows:
            # The closed-form tables cover the COMPAS designs only; the
            # naive and protocol-family schemes are measured-only rows.
            if row["scheme"] == "naive" or row["scheme"] not in closed:
                continue
            # Same n-scaling family as the closed form (within the GHZ-link
            # boundary effect at k=4).
            assert abs(row["bell_pairs"] - closed[row["scheme"]]["bell_pairs"]) <= 1

    def test_latency_exceeds_depth_on_slow_links(self):
        fast = measure_scheme_cost("teledata", 2, 6, bell_latency=1.0)
        slow = measure_scheme_cost("teledata", 2, 6, bell_latency=4.0)
        assert fast.latency >= fast.depth
        assert slow.latency > fast.latency
        assert slow.depth == fast.depth


# ----------------------------------------------------------------------
# Link-aware noise: kernel vs density reference, bit-identity, determinism
# ----------------------------------------------------------------------
class TestLinkNoiseSimulation:
    def test_batched_matches_density_reference(self):
        prog = bell_measure_program()
        circuit = prog.build()
        noise = NoiseModel(0.0, 0.0, 0.0, p_link=0.15, p_swap=0.05)
        exact = DensitySimulator(noise=noise).run(circuit).branch_probabilities()
        program = get_compiled(circuit, link_noise=True)
        shots = 60_000
        result = run_batched(program, shots, np.random.default_rng(5), noise=noise)
        strings = result.clbit_strings()
        for bits, p in exact.items():
            label = "".join(map(str, bits))
            frequency = strings.count(label) / shots
            assert frequency == pytest.approx(p, abs=5 * np.sqrt(p * (1 - p) / shots) + 1e-3)

    def test_reference_interpreter_matches_density(self):
        prog = bell_measure_program()
        circuit = prog.build()
        noise = NoiseModel(0.0, 0.0, 0.0, p_link=0.2)
        exact = DensitySimulator(noise=noise).run(circuit).branch_probabilities()
        simulator = StatevectorSimulator(seed=9, noise=noise)
        shots = 20_000
        counts = {}
        for _ in range(shots):
            key = simulator.run(circuit).clbit_string()
            counts[key] = counts.get(key, 0) + 1
        for bits, p in exact.items():
            label = "".join(map(str, bits))
            frequency = counts.get(label, 0) / shots
            assert frequency == pytest.approx(p, abs=5 * np.sqrt(p * (1 - p) / shots) + 2e-3)

    def test_compiled_link_sites_only_when_requested(self):
        circuit = bell_measure_program().build()
        plain = get_compiled(circuit)
        aware = get_compiled(circuit, link_noise=True)
        assert plain.capabilities.num_link_events == 1
        assert not any(op.link_hops for op in plain.ops)
        assert sum(op.link_hops for op in aware.ops) == 2
        assert aware.link_noise and not plain.link_noise

    def test_kernel_rejects_link_noise_without_sites(self):
        circuit = bell_measure_program().build()
        program = get_compiled(circuit)
        noise = NoiseModel(0.0, 0.0, 0.0, p_link=0.1)
        with pytest.raises(ValueError, match="link_noise=True"):
            run_batched(program, 10, np.random.default_rng(0), noise=noise)

    def test_qpu_override_localises_noise(self):
        # Measurement flips only on the overridden QPU's measure site.
        prog = bell_measure_program()
        circuit = prog.build()
        noise = NoiseModel(
            0.0, 0.0, 0.0, qpu_overrides=(QpuNoiseOverride("a", p_meas=1.0),)
        )
        program = get_compiled(circuit)
        result = run_batched(program, 256, np.random.default_rng(3), noise=noise)
        bits = result.clbits
        # Outcomes are perfectly correlated pre-flip; a's record (clbit 0) is
        # always flipped, c's never, so records always disagree.
        assert np.all(bits[:, 0] ^ bits[:, 1] == 1)

    def test_zero_link_network_is_bit_identical(self):
        states = two_states()
        base = Experiment.swap_test(states, shots=600, seed=21, backend="compas")
        ideal = base.derive(network=NetworkSpec(link_depolarizing=0.0))
        assert base.run().estimate == ideal.run().estimate

    def test_workers_bit_identical_at_link_sites(self):
        states = two_states()
        noisy = Experiment.swap_test(
            states, shots=1200, seed=33, backend="compas"
        ).derive(link_depolarizing=0.08, swap_penalty=0.02)
        serial = noisy.derive(workers=1).run()
        threaded = noisy.derive(workers=4).run()
        assert serial.estimate == threaded.estimate

    def test_job_hash_versioned_for_link_era(self):
        circuit = Circuit(1, 1).h(0).measure(0, 0)
        base = Job(circuit=circuit, shots=10, seed=1)
        assert base.content_hash() != Job(
            circuit=circuit, shots=10, seed=1, noise=NoiseModel(0, 0, 0, p_link=0.1)
        ).content_hash()
        assert Job(
            circuit=circuit, shots=10, seed=1, noise=NoiseModel(0, 0, 0, p_swap=0.1)
        ).content_hash() != Job(
            circuit=circuit, shots=10, seed=1, noise=NoiseModel(0, 0, 0, p_link=0.1)
        ).content_hash()
        with_override = Job(
            circuit=circuit,
            shots=10,
            seed=1,
            noise=NoiseModel(0.0, 0.1, 0.0, qpu_overrides=(QpuNoiseOverride("a", p2=0.2),)),
        )
        plain = Job(circuit=circuit, shots=10, seed=1, noise=NoiseModel(0.0, 0.1, 0.0))
        assert with_override.content_hash() != plain.content_hash()

    def test_site_tags_change_circuit_digest(self):
        plain = Circuit(2, 0).h(0).cx(0, 1)
        tagged = Circuit(2, 0).h(0)
        tagged.append("cx", [0, 1], hops=2)
        assert plain.content_digest() != tagged.content_digest()


# ----------------------------------------------------------------------
# Experiment-level integration
# ----------------------------------------------------------------------
class TestNetworkExperiments:
    def test_link_noise_swap_test_matches_density_reference(self):
        # Acceptance check: a distributed swap test with nonzero link noise
        # through the compiled/batched path agrees with the density-matrix
        # reference within statistical tolerance.
        psi = np.array([1.0, 0.0], dtype=complex)
        network = NetworkSpec(link_depolarizing=0.1)
        engine = Engine(workers=1, executor="serial")
        result = run_multiparty_swap_test(
            [psi, psi],
            shots=30_000,
            seed=17,
            engine=engine,
            variant="d",
            backend="compas",
            network=network,
        )
        build = build_compas(2, 1, design="teledata", basis="x")
        circuit = build.circuit()
        from repro.utils.states import assemble_initial_state

        placements = {
            build.position_registers[p]: psi for p in range(2)
        }
        init = assemble_initial_state(circuit.num_qubits, placements)
        model = network.noise_model(None)
        density = DensitySimulator(noise=model).run(circuit, initial_state=init)
        expected = 0.0
        for bits, p in density.branch_probabilities().items():
            parity = 0
            for clbit in build.readout_clbits:
                parity ^= bits[clbit]
            expected += p * (1.0 - 2.0 * parity)
        assert result.estimate.real == pytest.approx(
            expected, abs=5 * max(result.stderr_re, 1e-3)
        )
        # And the link noise must actually bite: identical states have
        # trace overlap 1 when links are ideal.
        assert expected < 0.995

    def test_sweep_over_link_noise_is_monotone(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        base = Experiment.swap_test(
            [psi, psi], shots=4000, seed=3, backend="compas", variant="d"
        )
        sweep = base.sweep(over="link_depolarizing", values=[0.0, 0.1, 0.3])
        estimates = [point.result.estimate.real for point in sweep.points]
        assert estimates[0] > estimates[1] > estimates[2]
        assert estimates[0] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("kind", ["swap_test", "renyi", "trace_sum", "spectroscopy"])
    def test_compas_kinds_honour_link_noise(self, kind):
        # Every kind that runs on the COMPAS circuit must lower through the
        # experiment's physical network: at equal seed, noisy links move
        # the estimate away from the ideal-link one.
        psi = np.array([0.8, 0.0, 0.0, 0.6], dtype=complex)
        rho = np.diag([0.7, 0.3]).astype(complex)
        common = {"shots": 400, "seed": 3, "backend": "compas"}
        base = {
            "swap_test": lambda: Experiment.swap_test([rho, rho], **common),
            "renyi": lambda: Experiment.renyi(rho, 2, **common),
            "trace_sum": lambda: Experiment.trace_sum([[rho, rho]], [1.0], **common),
            "spectroscopy": lambda: Experiment.spectroscopy(psi, [0], 2, **common),
        }[kind]()
        ideal = base.run().estimate
        noisy = base.derive(network=NetworkSpec(link_depolarizing=0.3)).run().estimate
        assert noisy != ideal

    def test_network_fields_enter_experiment_hash(self):
        base = Experiment.swap_test(two_states(), shots=100, seed=1, backend="compas")
        assert (
            base.derive(link_depolarizing=0.01).content_hash() != base.content_hash()
        )
        assert base.derive(bell_latency=2.0).content_hash() != base.content_hash()

    def test_lowered_accounting_in_resources(self):
        result = Experiment.swap_test(
            two_states(), shots=200, seed=2, backend="compas"
        ).run()
        lowered = result.extra["resources"]["lowered"]
        assert lowered["logical_bells"] >= 2
        assert set(lowered["per_qpu"]) == {"qpu0", "qpu1"}

    def test_heterogeneous_qpu_override_through_experiment(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        base = Experiment.swap_test(
            [psi, psi], shots=4000, seed=5, backend="compas", variant="d"
        )
        clean = base.run().estimate.real
        noisy = base.derive(
            network=NetworkSpec(qpus=(QpuSpec("qpu0", p2=0.25),))
        ).run().estimate.real
        assert noisy < clean - 0.02
