"""Vectorized batched-trajectory statevector kernel.

Evolves a whole batch of trajectories as one ``(shots, 2**width)`` array
instead of interpreting the IR once per shot, where ``width`` counts the
qubits that are *alive*, not the qubits the circuit allocates:

* **live width** — the program's liveness layout
  (:meth:`repro.sim.compile.CompiledProgram.live_layout`) gives every op the
  axes of its qubits.  An unconditioned measure or reset keeps each shot's
  outcome slice and drops the axis; the kernel remembers the qubit's
  physical value per shot (the true outcome, not the readout-flipped one,
  and ``0`` after a reset).  The first gate on a qubit without an axis
  inserts it in that basis state, and a placed input register comes alive
  at the first op touching it.  A measure or reset of a qubit without an
  axis consumes exactly the draw (or forced outcome) a live one would and
  yields the remembered value, so no state work is done;
* **shared prefix** — with a common input state, the deterministic prefix of
  the compiled program is evolved on a single statevector and broadcast to
  the batch only at the first stochastic site;
* **vectorized collapse** — each measurement/reset site draws one RNG vector
  for the whole batch and keeps (or, for a conditioned site, zeroes through
  a view) the branch of every shot, renormalising row-wise;
* **vectorized noise** — each fault site draws the firing mask and the Pauli
  words for the whole batch at once and applies each distinct word to its
  subset of shots;
* **conditional feedback** — parity conditions are evaluated on the whole
  classical-bit matrix and the gate is applied to the satisfying subset.

Sampling semantics match the per-shot reference interpreter
(:class:`repro.sim.statevector.StatevectorSimulator`) distribution-for-
distribution; the RNG *consumption order* differs, so equal seeds give
different (equally valid) trajectories.  Determinism is preserved at the
engine level: results depend only on the RNG handed in, never on worker
count or batch interleaving.

Memory is bounded by processing at most :data:`MAX_CHUNK_AMPLITUDES`
amplitudes at a time, counted at the layout's peak live width; chunk
boundaries depend only on ``(shots, peak width)``, so chunking never breaks
determinism.  A run whose single shot would exceed the bound is refused
before any array is allocated.

This is the one dense trajectory kernel: it works on NumPy arrays, and
every sampled statevector run goes through :func:`_run_chunk` — a dense
input is the same loop with every qubit live.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..utils.linalg import kron_all
from ..utils.states import check_placements
from .compile import CompiledProgram, GatePlan, LiveLayout
from .noisemodel import PAULI_MATRICES, NoiseModel

__all__ = ["BatchRunResult", "run_batched", "MAX_CHUNK_AMPLITUDES"]

#: Upper bound on simultaneously held amplitudes per chunk (~32 MB complex128).
MAX_CHUNK_AMPLITUDES = 1 << 21

_PAULI_NAMES = ("I", "X", "Y", "Z")

#: The state of a batch row with no live qubit.
_ONE_ROW = np.ones((1, 1), dtype=complex)


@dataclass
class BatchRunResult:
    """Outcome of one batched kernel invocation."""

    clbits: np.ndarray
    """(shots, num_clbits) uint8 matrix of final classical registers."""

    states: np.ndarray | None = None
    """(shots, dim) final statevectors, only when requested (dead qubits
    re-expanded into their basis states)."""

    def clbit_strings(self) -> list[str]:
        """Classical registers as bit strings, clbit 0 first."""
        return ["".join(str(int(b)) for b in row) for row in self.clbits]


def run_batched(
    program: CompiledProgram,
    shots: int,
    rng: np.random.Generator,
    *,
    noise: NoiseModel | None = None,
    initial_state: np.ndarray | Mapping[tuple[int, ...], np.ndarray] | None = None,
    forced_outcomes: Sequence[int] | None = None,
    return_states: bool = False,
) -> BatchRunResult:
    """Run ``shots`` trajectories of a compiled program as one batch.

    ``initial_state`` may be ``None`` (|0...0>), a shared ``(dim,)`` vector,
    a per-shot ``(shots, dim)`` array, or a mapping of placements — each
    key a contiguous ascending register, each value its statevector, |0>
    elsewhere (the mapping :func:`repro.utils.states.assemble_initial_state`
    takes) — which is never assembled into a ``2**n`` vector.  A dense input
    starts with every qubit live.  ``forced_outcomes`` supplies collapse
    outcomes (applied to *every* shot of the batch) for measure and reset
    sites in program order — the batched analogue of the reference
    interpreter's branch forcing; forcing a zero-probability branch raises.
    ``return_states`` re-expands dead qubits into their basis states, so the
    states come back as ``(shots, dim)``.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if noise is not None and noise.is_noiseless:
        noise = None
    if noise is not None and noise.has_gate_noise and not program.gate_noise:
        raise ValueError(
            "program was compiled without fault sites; recompile with gate_noise=True"
        )
    if (
        noise is not None
        and noise.has_link_noise
        and program.capabilities.num_link_events
        and not program.link_noise
    ):
        raise ValueError(
            "program has Bell-generation sites but was compiled without link-fault "
            "sites; recompile with link_noise=True"
        )
    shared_input, per_shot_states, placements = _normalise_input(
        initial_state, shots, program.num_qubits
    )
    if placements is not None:
        registers = tuple(sorted(placements))
    elif shared_input is None and per_shot_states is None:
        registers = ()  # |0...0>: every qubit comes alive at its first gate
    else:
        registers = None  # a dense input: every qubit is live from the start
    layout = program.live_layout(registers)
    live_dim = 2**layout.peak
    if live_dim > MAX_CHUNK_AMPLITUDES:
        raise ValueError(
            f"circuit allocates {program.num_qubits} qubits and keeps "
            f"{layout.peak} alive at once: one shot's live state of 2**{layout.peak} "
            f"amplitudes exceeds MAX_CHUNK_AMPLITUDES (2**"
            f"{MAX_CHUNK_AMPLITUDES.bit_length() - 1})"
        )

    # Shared deterministic prefix: evolve one row once, for all chunks.
    start_index = 0
    prefix_row = None
    if per_shot_states is None:
        prefix_row = (
            _ONE_ROW if shared_input is None else shared_input.reshape(1, -1).copy()
        )
        while start_index < program.prefix_len:
            op = program.ops[start_index]
            step = layout.steps[start_index]
            if step.inserts:
                prefix_row = _insert_axes(prefix_row, step.inserts, None, placements)
            prefix_row = _apply_matrix(prefix_row, op.matrix, step.plan, op.moves)
            start_index += 1
        if start_index == len(program.ops) and not return_states:
            # Fully deterministic program: nothing left to sample.
            return BatchRunResult(
                clbits=np.zeros((shots, program.num_clbits), dtype=np.uint8)
            )

    chunk = shots
    if shots > 1 and shots * live_dim > MAX_CHUNK_AMPLITUDES:
        chunk = max(1, MAX_CHUNK_AMPLITUDES // live_dim)

    clbit_parts = []
    state_parts = [] if return_states else None
    start = 0
    while start < shots:
        take = min(chunk, shots - start)
        init = (
            per_shot_states[start : start + take]
            if per_shot_states is not None
            else prefix_row
        )
        part = _run_chunk(
            program, layout, take, rng, noise, start_index, init, placements,
            forced_outcomes, return_states,
        )
        clbit_parts.append(part.clbits)
        if state_parts is not None:
            state_parts.append(part.states)
        start += take
    if len(clbit_parts) == 1:
        return BatchRunResult(
            clbits=clbit_parts[0],
            states=state_parts[0] if state_parts is not None else None,
        )
    return BatchRunResult(
        clbits=np.concatenate(clbit_parts, axis=0),
        states=np.concatenate(state_parts, axis=0) if state_parts is not None else None,
    )


def _normalise_input(
    initial_state, shots: int, num_qubits: int
) -> tuple[np.ndarray | None, np.ndarray | None, dict | None]:
    """Split the input spec into (shared vector, per-shot matrix, placements)."""
    if initial_state is None:
        return None, None, None
    if isinstance(initial_state, Mapping):
        return None, None, check_placements(num_qubits, initial_state)
    dim = 2**num_qubits
    arr = np.asarray(initial_state, dtype=complex)
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise ValueError("initial state dimension mismatch")
        return arr, None, None
    if arr.shape != (shots, dim):
        raise ValueError("per-shot initial states must have shape (shots, dim)")
    return None, arr, None


# ----------------------------------------------------------------------
# Chunk evolution
# ----------------------------------------------------------------------
def _run_chunk(
    program: CompiledProgram,
    layout: LiveLayout,
    shots: int,
    rng: np.random.Generator,
    noise: NoiseModel | None,
    start_index: int,
    init: np.ndarray,
    placements: dict | None,
    forced_outcomes: Sequence[int] | None,
    return_states: bool,
) -> BatchRunResult:
    """Evolve one chunk of shots from op ``start_index`` onward.

    ``init`` is either the already-evolved shared prefix row ``(1, 2**w)``
    (broadcast to the chunk here; never mutated, so chunks can share it) or
    this chunk's slice of per-shot initial states ``(chunk_shots, dim)``.
    ``basis`` holds each shot's value of every qubit without an axis.
    """
    clbits = np.zeros((shots, program.num_clbits), dtype=np.uint8)
    basis = np.zeros((shots, program.num_qubits), dtype=np.uint8)
    every_row = np.arange(shots)
    forced_iter = iter(forced_outcomes) if forced_outcomes is not None else None

    if init.shape[0] == 1 and shots != 1:
        state = np.repeat(init, shots, axis=0)
    else:
        state = np.array(init, dtype=complex)

    for op, step in zip(program.ops[start_index:], layout.steps[start_index:]):
        if step.inserts:
            state = _insert_axes(state, step.inserts, basis, placements)
        if op.kind != "unitary":
            # Conditioned collapse sites execute only on the satisfying
            # subset of shots (and consume a forced outcome only if at
            # least one shot executes, matching the reference interpreter).
            rows = None
            if op.condition is not None:
                mask = _parity(clbits, op.condition.clbits) == op.condition.value
                rows = np.nonzero(mask)[0]
                if rows.size == 0:
                    continue
            qubit = op.qubits[0]
            if not step.axes:
                outcomes = _collapse_dead(basis, qubit, rng, forced_iter, rows)
            elif step.drop:
                state, outcomes = _collapse_drop(state, step.axes[0], rng, forced_iter)
            else:
                outcomes = _collapse_site(state, step.axes[0], rng, forced_iter, rows)
            if op.kind == "measure":
                recorded = outcomes
                flip_rate = noise.meas_flip_rate(op.qpu) if noise is not None else 0.0
                if flip_rate > 0.0:
                    flips = rng.random(outcomes.size) < flip_rate
                    recorded = outcomes ^ flips.astype(np.uint8)
                if rows is None:
                    clbits[:, op.clbit] = recorded
                else:
                    clbits[rows, op.clbit] = recorded
                if step.drop:
                    basis[:, qubit] = outcomes
            elif not step.axes or step.drop:
                basis[every_row if rows is None else rows, qubit] = 0
            else:  # a conditioned reset of a live qubit
                hit = np.nonzero(outcomes)[0]
                if hit.size:
                    _flip_qubit(state, rows[hit], step.axes[0])
            continue
        # Unitary (possibly conditioned, possibly a gate- or link-fault site).
        if op.condition is not None:
            mask = _parity(clbits, op.condition.clbits) == op.condition.value
            idx = np.nonzero(mask)[0]
            if idx.size:
                state[idx] = _apply_matrix(state[idx], op.matrix, step.plan, op.moves)
                _site_faults(state, idx, op, step.plan, noise, rng)
        else:
            state = _apply_matrix(state, op.matrix, step.plan, op.moves)
            _site_faults(state, every_row, op, step.plan, noise, rng)

    if return_states:
        state = _insert_axes(state, layout.expand, basis, placements)
    return BatchRunResult(clbits=clbits, states=state if return_states else None)


def _insert_axes(
    state: np.ndarray,
    inserts: tuple[tuple[int, tuple[int, ...], bool], ...],
    basis: np.ndarray | None,
    placements: dict | None,
) -> np.ndarray:
    """Insert axes at their ranks: a placed register's vector, or one qubit
    in each shot's remembered basis state (``basis=None``: all ``|0>``)."""
    m = state.shape[0]
    for rank, register, placed in inserts:
        rows = state.reshape(m, 1 << rank, 1, -1)
        if placed:
            state = (rows * placements[register].reshape(1, 1, -1, 1)).reshape(m, -1)
            continue
        grown = np.zeros((m, 1 << rank, 2, rows.shape[3]), dtype=complex)
        if basis is not None and basis[:, register[0]].any():
            grown[np.arange(m), :, basis[:, register[0]]] = rows[:, :, 0]
        else:
            grown[:, :, 0] = rows[:, :, 0]
        state = grown.reshape(m, -1)
    return state


def _site_faults(
    state: np.ndarray,
    rows: np.ndarray,
    op,
    plan: GatePlan,
    noise: NoiseModel | None,
    rng: np.random.Generator,
) -> None:
    """Stochastic faults after one unitary site: gate fault, then link fault.

    The gate-fault draw precedes the link-fault draw at sites carrying both
    (a Bell-generation CX under gate noise) — this fixed order is part of
    the RNG-consumption contract that keeps results deterministic.
    """
    if noise is None:
        return
    if op.sample_fault:
        _inject_faults(
            state, rows, len(op.qubits), plan,
            noise.gate_error_rate(len(op.qubits), op.qpu), rng,
        )
    if op.link_hops:
        _inject_faults(
            state, rows, len(op.qubits), plan,
            noise.link_error_rate(op.link_hops), rng,
        )


def _apply_matrix(
    state: np.ndarray, matrix: np.ndarray, plan: GatePlan, moves=None
) -> np.ndarray:
    """Apply a k-qubit unitary to every row of a (m, 2**width) batch.

    ``plan`` comes from the liveness layout.  A permutation-with-phases
    gate (``moves``, see :attr:`CompiledOp.moves`) moves and scales blocks
    in place; any other is one batched matmul over its gathered axes — on
    the float64 view of the state when the matrix is real.
    """
    if moves is not None:
        view = state.reshape(plan.shape)
        blocks = plan.blocks
        saved = {col: view[blocks[col]].copy() for row, col, _ in moves if row != col}
        for row, col, entry in moves:
            target = view[blocks[row]]
            if row == col:
                target *= entry
            elif entry == 1:
                target[...] = saved[col]
            else:
                np.multiply(saved[col], entry, out=target)
        return state
    real = matrix.dtype == np.float64
    if real:
        plan, work = plan.real, state.view(np.float64)
    else:
        work = state
    work = work.reshape(plan.shape).transpose(plan.perm).reshape(plan.block)
    work = np.matmul(matrix, work)
    work = work.reshape(plan.permuted).transpose(plan.inverse).reshape(state.shape[0], -1)
    return work.view(complex) if real else work


def _draw(
    p0: np.ndarray, m: int, rng: np.random.Generator, forced_iter
) -> np.ndarray:
    """One collapse site's outcomes: forced for every shot, or sampled."""
    if forced_iter is not None:
        forced = next(forced_iter)
        if forced not in (0, 1):
            raise ValueError("forced outcomes must be 0 or 1")
        return np.full(m, forced, dtype=np.uint8)
    return (rng.random(m) >= p0).astype(np.uint8)


def _collapse_dead(
    basis: np.ndarray,
    qubit: int,
    rng: np.random.Generator,
    forced_iter,
    rows: np.ndarray | None,
) -> np.ndarray:
    """Collapse a qubit without an axis: its remembered value, same draws."""
    values = basis[:, qubit] if rows is None else basis[rows, qubit]
    outcomes = _draw(1.0 - values, values.size, rng, forced_iter)
    if np.any(outcomes != values):
        raise RuntimeError("collapse onto zero-probability branch")
    return outcomes


def _sample_branch(
    state: np.ndarray, rank: int, rng: np.random.Generator, forced_iter
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (or force) every row's outcome for the axis at ``rank``.

    Returns the uint8 outcomes and the norms of the branches they keep.
    """
    m = state.shape[0]
    floats = state.view(np.float64).reshape(m, 1 << rank, 2, -1)
    p0 = np.einsum("ijk,ijk->i", floats[:, :, 0], floats[:, :, 0])
    p1 = np.einsum("ijk,ijk->i", floats[:, :, 1], floats[:, :, 1])
    outcomes = _draw(p0, m, rng, forced_iter)
    norms = np.sqrt(np.where(outcomes, p1, p0))
    if np.any(norms < 1e-15):
        raise RuntimeError("collapse onto zero-probability branch")
    return outcomes, norms


def _collapse_drop(
    state: np.ndarray, rank: int, rng: np.random.Generator, forced_iter
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse the axis at ``rank`` on every shot and remove it.

    Returns the renormalised ``(m, 2**(width-1))`` outcome slices and the
    uint8 outcome vector.
    """
    outcomes, norms = _sample_branch(state, rank, rng, forced_iter)
    m = state.shape[0]
    kept = state.reshape(m, 1 << rank, 2, -1)[np.arange(m), :, outcomes]
    kept /= norms[:, None, None]
    return kept.reshape(m, -1), outcomes


def _collapse_site(
    state: np.ndarray,
    rank: int,
    rng: np.random.Generator,
    forced_iter,
    rows: np.ndarray,
) -> np.ndarray:
    """Sample (or force) a collapse of the axis at ``rank`` on ``rows``.

    Conditioned sites only: the other shots keep the qubit in superposition,
    so the axis stays.  Gathers the rows, zeroes the dead branch, renormalises
    and scatters back; returns the uint8 outcome vector, one per row.
    """
    target = state[rows]
    outcomes, norms = _sample_branch(target, rank, rng, forced_iter)
    m = target.shape[0]
    target.reshape(m, 1 << rank, 2, -1)[np.arange(m), :, 1 - outcomes] = 0.0
    target /= norms[:, None]
    state[rows] = target
    return outcomes


def _flip_qubit(state: np.ndarray, rows: np.ndarray, rank: int) -> None:
    """Apply X on the axis at ``rank`` to the selected rows, in place."""
    tensor = state.reshape(state.shape[0], 1 << rank, 2, -1)
    tensor[rows] = tensor[rows][:, :, ::-1]


def _inject_faults(
    state: np.ndarray,
    rows: np.ndarray,
    k: int,
    plan: GatePlan,
    rate: float,
    rng: np.random.Generator,
) -> None:
    """Vectorized depolarizing fault injection at one stochastic site.

    Draws the firing mask for all ``rows`` at once, then one uniform
    non-identity Pauli word over the site's ``k`` qubits per firing shot,
    and applies each distinct word to its subset — the batched equivalent of
    :meth:`NoiseModel.sample_gate_fault` / :meth:`NoiseModel.sample_link_fault`.
    The site's ``rate`` is resolved by the caller (arity + QPU override for
    gate sites, hop-weighted link rate for Bell-generation sites).
    """
    if rate <= 0.0:
        return
    fires = rng.random(rows.size) < rate
    hit = rows[fires]
    if not hit.size:
        return
    words = rng.integers(1, 4**k, size=hit.size)
    for word in np.unique(words):
        subset = hit[words == word]
        paulis = [
            PAULI_MATRICES[_PAULI_NAMES[(int(word) >> (2 * (k - 1 - i))) & 3]]
            for i in range(k)
        ]
        state[subset] = _apply_matrix(state[subset], kron_all(paulis), plan)


def _parity(clbits: np.ndarray, cond_clbits: Sequence[int]) -> np.ndarray:
    """XOR of the selected classical-bit columns, per shot."""
    acc = np.zeros(clbits.shape[0], dtype=np.uint8)
    for c in cond_clbits:
        acc ^= clbits[:, c]
    return acc
