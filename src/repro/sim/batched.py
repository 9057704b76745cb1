"""Vectorized batched-trajectory statevector kernel.

Evolves a whole batch of trajectories as one ``(shots, 2**n)`` array instead
of interpreting the IR once per shot:

* **shared prefix** — with a common input state, the deterministic prefix of
  the compiled program is evolved on a single statevector and broadcast to
  the batch only at the first stochastic site;
* **vectorized collapse** — each measurement/reset site draws one RNG vector
  for the whole batch, zeroes the dead branch of every shot in place through
  a moved-axis view, and renormalises row-wise;
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
amplitudes at a time; chunk boundaries depend only on ``(shots, dim)``, so
chunking never breaks determinism.

This is the one dense trajectory kernel: it works in place on NumPy arrays,
and every sampled statevector run goes through :func:`_run_chunk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..utils.linalg import kron_all
from .compile import CompiledProgram
from .noisemodel import PAULI_MATRICES, NoiseModel

__all__ = ["BatchRunResult", "run_batched", "MAX_CHUNK_AMPLITUDES"]

#: Upper bound on simultaneously held amplitudes per chunk (~32 MB complex128).
MAX_CHUNK_AMPLITUDES = 1 << 21

_PAULI_NAMES = ("I", "X", "Y", "Z")


@dataclass
class BatchRunResult:
    """Outcome of one batched kernel invocation."""

    clbits: np.ndarray
    """(shots, num_clbits) uint8 matrix of final classical registers."""

    states: np.ndarray | None = None
    """(shots, dim) final statevectors, only when requested."""

    def clbit_strings(self) -> list[str]:
        """Classical registers as bit strings, clbit 0 first."""
        return ["".join(str(int(b)) for b in row) for row in self.clbits]


def run_batched(
    program: CompiledProgram,
    shots: int,
    rng: np.random.Generator,
    *,
    noise: NoiseModel | None = None,
    initial_state: np.ndarray | None = None,
    forced_outcomes: Sequence[int] | None = None,
    return_states: bool = False,
) -> BatchRunResult:
    """Run ``shots`` trajectories of a compiled program as one batch.

    ``initial_state`` may be ``None`` (|0...0>), a shared ``(dim,)`` vector,
    or a per-shot ``(shots, dim)`` array.  ``forced_outcomes`` supplies
    collapse outcomes (applied to *every* shot of the batch) for measure and
    reset sites in program order — the batched analogue of the reference
    interpreter's branch forcing; forcing a zero-probability branch raises.
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
    dim = program.dim
    shared_input, per_shot_states = _normalise_input(initial_state, shots, dim)

    # Shared deterministic prefix: evolve one row once, for all chunks.
    start_index = 0
    prefix_row = None
    if per_shot_states is None:
        prefix_row = np.zeros((1, dim), dtype=complex)
        if shared_input is None:
            prefix_row[0, 0] = 1.0
        else:
            prefix_row[0] = shared_input
        while start_index < program.prefix_len:
            op = program.ops[start_index]
            prefix_row = _apply_matrix(prefix_row, op.matrix, op.qubits, program.num_qubits)
            start_index += 1
        if start_index == len(program.ops) and not return_states:
            # Fully deterministic program: nothing left to sample.
            return BatchRunResult(
                clbits=np.zeros((shots, program.num_clbits), dtype=np.uint8)
            )

    chunk = shots
    if shots > 1 and shots * dim > MAX_CHUNK_AMPLITUDES:
        chunk = max(1, MAX_CHUNK_AMPLITUDES // dim)

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
            program, take, rng, noise, start_index, init, forced_outcomes,
            return_states,
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
    initial_state: np.ndarray | None, shots: int, dim: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Split the input spec into (shared vector | None, per-shot matrix | None)."""
    if initial_state is None:
        return None, None
    arr = np.asarray(initial_state, dtype=complex)
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise ValueError("initial state dimension mismatch")
        return arr, None
    if arr.shape != (shots, dim):
        raise ValueError("per-shot initial states must have shape (shots, dim)")
    return None, arr


# ----------------------------------------------------------------------
# Chunk evolution
# ----------------------------------------------------------------------
def _run_chunk(
    program: CompiledProgram,
    shots: int,
    rng: np.random.Generator,
    noise: NoiseModel | None,
    start_index: int,
    init: np.ndarray,
    forced_outcomes: Sequence[int] | None,
    return_states: bool,
) -> BatchRunResult:
    """Evolve one chunk of shots from op ``start_index`` onward.

    ``init`` is either the already-evolved shared prefix row ``(1, dim)``
    (broadcast to the chunk here; never mutated, so chunks can share it) or
    this chunk's slice of per-shot initial states ``(chunk_shots, dim)``.
    """
    n = program.num_qubits
    ops = program.ops
    clbits = np.zeros((shots, program.num_clbits), dtype=np.uint8)
    forced_iter = iter(forced_outcomes) if forced_outcomes is not None else None

    if init.shape[0] == 1 and shots != 1:
        state = np.repeat(init, shots, axis=0)
    else:
        state = np.ascontiguousarray(init, dtype=complex).copy()

    for op in ops[start_index:]:
        if op.kind in ("measure", "reset"):
            # Conditioned collapse sites execute only on the satisfying
            # subset of shots (and consume a forced outcome only if at
            # least one shot executes, matching the reference interpreter).
            rows = None
            if op.condition is not None:
                mask = _parity(clbits, op.condition.clbits) == op.condition.value
                rows = np.nonzero(mask)[0]
                if rows.size == 0:
                    continue
            outcomes = _collapse_site(state, op.qubits[0], n, rng, forced_iter, rows)
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
            else:
                hit = np.nonzero(outcomes)[0]
                if hit.size:
                    _flip_qubit(state, hit if rows is None else rows[hit], op.qubits[0], n)
            continue
        # Unitary (possibly conditioned, possibly a gate- or link-fault site).
        if op.condition is not None:
            mask = _parity(clbits, op.condition.clbits) == op.condition.value
            idx = np.nonzero(mask)[0]
            if idx.size:
                state[idx] = _apply_matrix(state[idx], op.matrix, op.qubits, n)
                _site_faults(state, idx, op, n, noise, rng)
        else:
            state = _apply_matrix(state, op.matrix, op.qubits, n)
            _site_faults(state, np.arange(shots), op, n, noise, rng)

    return BatchRunResult(clbits=clbits, states=state if return_states else None)


def _site_faults(
    state: np.ndarray,
    rows: np.ndarray,
    op,
    num_qubits: int,
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
            state, rows, op.qubits, num_qubits,
            noise.gate_error_rate(len(op.qubits), op.qpu), rng,
        )
    if op.link_hops:
        _inject_faults(
            state, rows, op.qubits, num_qubits,
            noise.link_error_rate(op.link_hops), rng,
        )


def _apply_matrix(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a k-qubit unitary to every row of a (m, 2**n) batch."""
    m = state.shape[0]
    k = len(qubits)
    tensor = state.reshape((m,) + (2,) * num_qubits)
    tensor = np.moveaxis(tensor, [1 + q for q in qubits], range(1, k + 1))
    block = tensor.reshape(m, 2**k, -1)
    block = np.matmul(matrix, block)
    tensor = block.reshape((m,) + (2,) * num_qubits)
    tensor = np.moveaxis(tensor, range(1, k + 1), [1 + q for q in qubits])
    return np.ascontiguousarray(tensor).reshape(m, -1)


def _moved_view(state: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """(m, 2, ...) view of the batch with ``qubit``'s axis second (writable)."""
    m = state.shape[0]
    tensor = state.reshape((m,) + (2,) * num_qubits)
    return np.moveaxis(tensor, 1 + qubit, 1)


def _collapse_site(
    state: np.ndarray,
    qubit: int,
    num_qubits: int,
    rng: np.random.Generator,
    forced_iter,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Sample (or force) a Z-basis collapse of ``qubit``.

    Operates on every shot (``rows=None``, fully in place) or on a selected
    subset of shots (gather → collapse → scatter).  Mutates ``state``
    (branch zeroing + row renormalisation) and returns the uint8 outcome
    vector, one entry per affected shot.
    """
    target = state if rows is None else state[rows]
    m = target.shape[0]
    moved = _moved_view(target, qubit, num_qubits)
    amp0 = moved[:, 0].reshape(m, -1)
    p0 = np.einsum("ij,ij->i", amp0, amp0.conj()).real
    if forced_iter is not None:
        forced = next(forced_iter)
        if forced not in (0, 1):
            raise ValueError("forced outcomes must be 0 or 1")
        outcomes = np.full(m, forced, dtype=np.uint8)
    else:
        outcomes = (rng.random(m) >= p0).astype(np.uint8)
    # Zero the dead branch of every shot through the view.
    moved[np.arange(m), 1 - outcomes] = 0.0
    norms = np.linalg.norm(target, axis=1)
    if np.any(norms < 1e-15):
        raise RuntimeError("collapse onto zero-probability branch")
    target /= norms[:, None]
    if rows is not None:
        state[rows] = target
    return outcomes


def _flip_qubit(
    state: np.ndarray, rows: np.ndarray, qubit: int, num_qubits: int
) -> None:
    """Apply X on ``qubit`` to the selected rows, in place."""
    moved = _moved_view(state, qubit, num_qubits)
    moved[rows] = moved[rows][:, ::-1]


def _inject_faults(
    state: np.ndarray,
    rows: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    rate: float,
    rng: np.random.Generator,
) -> None:
    """Vectorized depolarizing fault injection at one stochastic site.

    Draws the firing mask for all ``rows`` at once, then one uniform
    non-identity Pauli word per firing shot, and applies each distinct word
    to its subset — the batched equivalent of
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
    k = len(qubits)
    words = rng.integers(1, 4**k, size=hit.size)
    for word in np.unique(words):
        subset = hit[words == word]
        paulis = [
            PAULI_MATRICES[_PAULI_NAMES[(int(word) >> (2 * (k - 1 - i))) & 3]]
            for i in range(k)
        ]
        state[subset] = _apply_matrix(state[subset], kron_all(paulis), qubits, num_qubits)


def _parity(clbits: np.ndarray, cond_clbits: Sequence[int]) -> np.ndarray:
    """XOR of the selected classical-bit columns, per shot."""
    acc = np.zeros(clbits.shape[0], dtype=np.uint8)
    for c in cond_clbits:
        acc ^= clbits[:, c]
    return acc
