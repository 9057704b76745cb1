"""Circuit compilation: lower the IR into frozen, executable programs.

The per-shot interpreters re-derive gate matrices, re-scan for Clifford-ness,
and re-walk the instruction list for every trajectory.  This module does all
of that exactly once per circuit:

* every gate matrix is resolved up front;
* runs of unconditional gates are **fused** into segment unitaries (bounded
  support, so the fused matrices stay tiny) when no gate noise is active;
* the program records where its **stochastic sites** are — measurements,
  resets, conditioned gates, and (with gate noise) fault-injection points —
  which delimit the deterministic prefix the batched kernel can evolve once
  and share across a whole batch of shots;
* **capability flags** (Clifford-ness, frame compatibility, measurement
  census, peak live width) are computed once so the backend router and the
  cost model never re-scan the IR;
* a **liveness layout** per input support (:meth:`CompiledProgram.live_layout`)
  says where every qubit's axis sits in the kernel's state at every op: a
  qubit comes alive at its first gate (a placed input register at its first
  touch) and dies at an unconditioned measure or reset, so the batched
  kernel holds the qubits that are alive, not the qubits that are allocated.

Programs are cached per process, keyed by the circuit's content digest, so
repeated jobs over the same circuit (the normal engine workload) compile
exactly once per worker.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import prod
from threading import Lock
from typing import NamedTuple

import numpy as np

from ..circuits.circuit import Circuit, Condition
from ..circuits.gates import GATES, cached_gate_matrix, gate_matrix
from ..obs.runtime import get_observability
from ..utils.linalg import embed_operator

__all__ = [
    "CircuitCapabilities",
    "CompiledOp",
    "CompiledProgram",
    "GatePlan",
    "LiveLayout",
    "LiveStep",
    "analyze_circuit",
    "compile_circuit",
    "get_capabilities",
    "get_compiled",
    "prime_compiled",
    "compile_cache_stats",
    "clear_compile_cache",
]

#: Largest qubit support of a fused segment unitary (matrices stay <= 8x8).
FUSION_MAX_QUBITS = 3

#: Gate names allowed under a classical condition by the frame simulator.
_PAULI_FEEDBACK = ("x", "y", "z")


@dataclass(frozen=True)
class CircuitCapabilities:
    """What a circuit needs from a simulator, computed in one scan."""

    num_qubits: int
    num_clbits: int
    is_clifford: bool
    is_frame_compatible: bool
    num_measurements: int
    has_reset: bool
    has_conditional: bool
    num_link_events: int = 0
    """Bell-generation ops tagged with a hop distance (link-noise sites)."""

    has_conditioned_collapse: bool = False
    """A measure or reset sits under a classical condition — the collapse
    structure is then shot-dependent, which rules out frame-based sampling
    even when the gate set is otherwise Clifford."""

    peak_live_qubits: int = 0
    """Most qubits alive at once when every qubit comes alive at its first
    gate and dies at an unconditioned measure or reset: the width the
    dense kernel simulates from a basis or one-qubit-register input."""

    @property
    def is_deterministic(self) -> bool:
        """No measurement, reset, or feedback: one trajectory fits all shots."""
        return (
            self.num_measurements == 0
            and not self.has_reset
            and not self.has_conditional
        )


@dataclass(frozen=True)
class CompiledOp:
    """One executable step: a (possibly fused) unitary, measure, or reset.

    ``kind`` is ``"unitary"``, ``"measure"``, or ``"reset"``.  A unitary op
    with ``sample_fault=True`` is a stochastic Pauli-fault site: the kernel
    draws a depolarizing fault over ``qubits`` after applying the matrix
    (compiled only when gate noise is active, which also disables fusion so
    every fault site matches one source gate).

    Site metadata is resolved at compile time: ``qpu`` names the processor
    executing the op (heterogeneous noise overrides resolve through it) and
    ``link_hops > 0`` marks a Bell-generation link-fault site — the kernel
    draws one extra hop-weighted depolarizing fault over ``qubits`` there
    (compiled only when link noise is active, so ideal-link programs carry
    no link sites and execute bit-identically to the pre-network pipeline).
    """

    kind: str
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = None
    clbit: int = -1
    condition: Condition | None = None
    sample_fault: bool = False
    qpu: str | None = None
    link_hops: int = 0
    moves: tuple[tuple[int, int, complex], ...] | None = None
    """For a ``matrix`` with one nonzero entry per row (a permutation with
    phases: X, CX, SWAP, CSWAP, or any diagonal gate): its entries as
    ``(row, column, entry)``, leaving out unit diagonal entries.  The
    kernel applies such a gate in place by moving and scaling blocks."""

    @property
    def is_stochastic(self) -> bool:
        """Whether executing this op can diverge across shots."""
        return (
            self.kind != "unitary"
            or self.condition is not None
            or self.sample_fault
            or self.link_hops > 0
        )


class GatePlan(NamedTuple):
    """How a gate on some axes of a ``(m, 2**width)`` batch meets the state.

    Each row is viewed with the gaps between the gate's axes merged, so
    numpy iterates over few, long dimensions: ``shape`` is that view.
    ``perm``/``block`` gather the gate's axes (in op order) where the
    lowest of them sits, so one batched matmul applies the matrix to every
    ``(2**k, rest)`` block, and ``permuted``/``inverse`` undo the gather.
    A one-qubit gate, or a gate on adjacent axes in ascending order, needs
    no gather: ``perm`` is the identity and no copy is made.
    ``blocks[b]`` indexes the slice of ``shape`` where the gate's qubits
    read ``b`` (first qubit most significant), for gates applied in place
    by moving blocks (:attr:`CompiledOp.moves`).  ``real`` is the same
    plan for the state's float64 view (one more, untouched, axis holding
    the real and imaginary parts), which a real matrix multiplies directly.
    """

    shape: tuple[int, ...]
    perm: tuple[int, ...]
    block: tuple[int, int, int]
    permuted: tuple[int, ...]
    inverse: tuple[int, ...]
    blocks: tuple[tuple, ...]
    real: "GatePlan | None"


@lru_cache(maxsize=4096)
def _gate_plan(axes: tuple[int, ...], width: int, real: bool = True) -> GatePlan:
    """The :class:`GatePlan` of a gate on ``axes`` of a width-``width`` row."""
    dims: list[int] = []
    where: dict[int, int] = {}
    previous = -1
    for axis in sorted(axes):
        if axis - previous > 1:
            dims.append(2 ** (axis - previous - 1))
        where[axis] = len(dims)
        dims.append(2)
        previous = axis
    if width - previous > 1:
        dims.append(2 ** (width - previous - 1))
    front = tuple(1 + where[axis] for axis in axes)
    lead = (1,) if min(axes) > 0 else ()
    rest = tuple(i for i in range(1 + len(lead), len(dims) + 1) if i not in front)
    perm = (0,) + lead + front + rest
    k = len(axes)
    blocks = []
    for b in range(2**k):
        index = [slice(None)] * (len(dims) + 1)
        for i, axis in enumerate(axes):
            index[1 + where[axis]] = (b >> (k - 1 - i)) & 1
        blocks.append(tuple(index))
    return GatePlan(
        shape=(-1,) + tuple(dims),
        perm=perm,
        block=(-1, 2**k, prod(dims[i - 1] for i in rest)),
        permuted=(-1,)
        + tuple(dims[i - 1] for i in lead)
        + (2,) * k
        + tuple(dims[i - 1] for i in rest),
        inverse=tuple(perm.index(i) for i in range(len(perm))),
        blocks=tuple(blocks),
        real=_gate_plan(axes, width + 1, False) if real else None,
    )


class LiveStep(NamedTuple):
    """How one op meets the live state (see :class:`LiveLayout`)."""

    inserts: tuple[tuple[int, tuple[int, ...], bool], ...]
    """``(rank, register, placed)`` axes to insert before the op, in order:
    a placed input register (``placed``), or one qubit in its remembered
    basis state."""

    axes: tuple[int, ...]
    """Rank of each of the op's qubits among the live qubits; empty for a
    measure or reset of a qubit that has no axis."""

    drop: bool
    """The op is an unconditioned measure or reset of a live qubit: the
    kernel keeps each shot's outcome slice and removes the axis."""

    plan: GatePlan | None
    """How a unitary op meets the state (``None`` for collapses)."""


@dataclass(frozen=True)
class LiveLayout:
    """Where every qubit's axis sits at every op, for one input support.

    Live qubits are held in ascending qubit order, so a qubit's axis is its
    rank among the live qubits; with every qubit live the slot map is the
    identity.  ``steps[i]`` belongs to ``program.ops[i]``; ``expand``
    re-inserts every dead qubit (and any placed register no op touched) so
    a final state can be handed back at full width.
    """

    steps: tuple[LiveStep, ...]
    expand: tuple[tuple[int, tuple[int, ...], bool], ...]
    peak: int


def _plan_layout(
    ops: tuple[CompiledOp, ...],
    num_qubits: int,
    registers: tuple[tuple[int, ...], ...] | None,
) -> LiveLayout:
    """The liveness pass: one forward scan of the compiled ops."""
    if registers is None:
        live = list(range(num_qubits))
        pending: dict[int, tuple[int, ...]] = {}
    else:
        live = []
        pending = {q: register for register in registers for q in register}
    peak = len(live)

    def insert(register: tuple[int, ...], out: list) -> None:
        placed = register[0] in pending
        for q in register:
            pending.pop(q, None)
        rank = bisect_left(live, register[0])
        live[rank:rank] = register
        out.append((rank, register, placed))

    steps = []
    for op in ops:
        inserts: list = []
        for q in sorted(op.qubits):
            if q in pending:
                insert(pending[q], inserts)
            elif op.kind == "unitary" and q not in live:
                insert((q,), inserts)
        peak = max(peak, len(live))
        if op.kind == "unitary":
            axes = tuple(live.index(q) for q in op.qubits)
            steps.append(LiveStep(tuple(inserts), axes, False, _gate_plan(axes, len(live))))
            continue
        qubit = op.qubits[0]
        if qubit not in live:
            steps.append(LiveStep(tuple(inserts), (), False, None))
            continue
        drop = op.condition is None
        steps.append(LiveStep(tuple(inserts), (live.index(qubit),), drop, None))
        if drop:
            live.remove(qubit)
    expand: list = []
    for q in range(num_qubits):
        if q in pending:
            insert(pending[q], expand)
        elif q not in live:
            insert((q,), expand)
    return LiveLayout(steps=tuple(steps), expand=tuple(expand), peak=peak)


@dataclass(frozen=True)
class CompiledProgram:
    """A frozen, directly executable lowering of one circuit.

    ``prefix_len`` counts the leading deterministic ops: with a shared input
    state the kernel evolves them on a single statevector and broadcasts to
    the batch only at the first stochastic site.

    The kernel never holds all ``num_qubits`` axes unless the input is a
    dense vector: :meth:`live_layout` maps qubits to axes by liveness, and
    a run's state is ``(shots, 2**width)`` with ``width`` at most the
    layout's ``peak``.
    """

    num_qubits: int
    num_clbits: int
    ops: tuple[CompiledOp, ...]
    capabilities: CircuitCapabilities
    gate_noise: bool
    prefix_len: int
    source_ops: int
    link_noise: bool = False
    _layouts: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension."""
        return 2**self.num_qubits

    def live_layout(
        self, registers: tuple[tuple[int, ...], ...] | None = None
    ) -> LiveLayout:
        """The liveness layout for one input support, resolved once.

        ``registers=None`` is a dense input: every qubit is live from the
        start.  Otherwise ``registers`` lists the placed input registers
        (contiguous ascending qubit tuples; ``()`` is the |0...0> input):
        a placed register comes alive as a whole at the first op touching
        it, any other qubit at its first gate.
        """
        layout = self._layouts.get(registers)
        if layout is None:
            layout = _plan_layout(self.ops, self.num_qubits, registers)
            self._layouts[registers] = layout
        return layout

    def __getstate__(self) -> dict:
        # Layouts are a per-process cache: never ship them to pool workers.
        return {**self.__dict__, "_layouts": {}}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def analyze_circuit(circuit: Circuit) -> CircuitCapabilities:
    """One-pass capability scan (no matrix work)."""
    is_clifford = True
    is_frame_compatible = True
    num_measurements = 0
    has_reset = False
    has_conditional = False
    has_conditioned_collapse = False
    num_link_events = 0
    live: set[int] = set()
    peak_live = 0
    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        if inst.name in ("measure", "reset"):
            if inst.name == "measure":
                num_measurements += 1
            else:
                has_reset = True
            if inst.condition is not None:
                has_conditional = True
                has_conditioned_collapse = True
            else:
                live.discard(inst.qubits[0])
            continue
        live.update(inst.qubits)
        peak_live = max(peak_live, len(live))
        if inst.hops:
            num_link_events += 1
        if inst.condition is not None:
            has_conditional = True
            if inst.name not in _PAULI_FEEDBACK:
                is_frame_compatible = False
        if not GATES[inst.name].clifford:
            is_clifford = False
            is_frame_compatible = False
    return CircuitCapabilities(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        is_clifford=is_clifford,
        is_frame_compatible=is_frame_compatible,
        num_measurements=num_measurements,
        has_reset=has_reset,
        has_conditional=has_conditional,
        num_link_events=num_link_events,
        has_conditioned_collapse=has_conditioned_collapse,
        peak_live_qubits=peak_live,
    )


def _resolve_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    if params:
        return gate_matrix(name, params)
    return cached_gate_matrix(name)


def _fuse_group(gates: list[tuple[np.ndarray, tuple[int, ...]]]) -> CompiledOp:
    """Collapse a run of unconditional gates into one segment unitary."""
    if len(gates) == 1:
        matrix, qubits = gates[0]
        return CompiledOp(kind="unitary", qubits=qubits, matrix=matrix)
    support = sorted({q for _, qs in gates for q in qs})
    width = len(support)
    position = {q: i for i, q in enumerate(support)}
    fused = np.eye(2**width, dtype=complex)
    for matrix, qubits in gates:
        fused = embed_operator(matrix, [position[q] for q in qubits], width) @ fused
    return CompiledOp(kind="unitary", qubits=tuple(support), matrix=fused)


def _specialise(op: CompiledOp) -> CompiledOp:
    """Record a unitary's structure for the kernel: a permutation-with-phases
    matrix as its block moves, and a real matrix as float64 (applied to the
    state's real view: a real instead of a complex matmul)."""
    if op.matrix is None:
        return op
    matrix = op.matrix
    moves = None
    nonzero = matrix != 0
    if np.all(nonzero.sum(axis=1) == 1) and np.all(nonzero.sum(axis=0) == 1):
        moves = tuple(
            (row, int(col), complex(matrix[row, col]))
            for row, col in enumerate(np.argmax(nonzero, axis=1))
            if row != col or matrix[row, col] != 1
        )
    if not np.any(matrix.imag):
        matrix = np.ascontiguousarray(matrix.real)
    return replace(op, matrix=matrix, moves=moves)


def compile_circuit(
    circuit: Circuit,
    gate_noise: bool = False,
    fuse: bool = True,
    link_noise: bool = False,
) -> CompiledProgram:
    """Lower ``circuit`` into a :class:`CompiledProgram`.

    ``gate_noise=True`` compiles for execution under a stochastic Pauli
    noise model: every gate becomes its own fault site (no fusion, so the
    kernel can draw one depolarizing fault per source gate, exactly like the
    reference interpreter).

    ``link_noise=True`` compiles Bell-generation sites (instructions tagged
    with a hop distance) as standalone link-fault ops carrying their hop
    count, so the kernel can draw one hop-weighted depolarizing fault per
    distributed pair.  Link sites break fusion locally but — unlike gate
    noise — leave the rest of the circuit fusable.
    """
    ops: list[CompiledOp] = []
    pending: list[tuple[np.ndarray, tuple[int, ...]]] = []
    pending_support: set[int] = set()
    source_ops = 0

    def flush() -> None:
        if pending:
            ops.append(_fuse_group(pending))
            pending.clear()
            pending_support.clear()

    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        source_ops += 1
        if inst.name == "measure":
            flush()
            ops.append(
                CompiledOp(
                    kind="measure",
                    qubits=inst.qubits,
                    clbit=inst.clbits[0],
                    condition=inst.condition,
                    qpu=inst.qpu,
                )
            )
            continue
        if inst.name == "reset":
            flush()
            ops.append(
                CompiledOp(
                    kind="reset", qubits=inst.qubits, condition=inst.condition
                )
            )
            continue
        matrix = _resolve_matrix(inst.name, inst.params)
        link_hops = inst.hops if (link_noise and inst.hops) else 0
        if inst.condition is not None or gate_noise or link_hops:
            flush()
            ops.append(
                CompiledOp(
                    kind="unitary",
                    qubits=inst.qubits,
                    matrix=matrix,
                    condition=inst.condition,
                    sample_fault=gate_noise,
                    qpu=inst.qpu,
                    link_hops=link_hops,
                )
            )
            continue
        if not fuse:
            ops.append(
                CompiledOp(
                    kind="unitary", qubits=inst.qubits, matrix=matrix, qpu=inst.qpu
                )
            )
            continue
        union = pending_support | set(inst.qubits)
        if pending and len(union) > FUSION_MAX_QUBITS:
            flush()
            union = set(inst.qubits)
        pending.append((matrix, inst.qubits))
        pending_support.update(union)
    flush()
    ops = [_specialise(op) for op in ops]

    prefix_len = 0
    for op in ops:
        if op.is_stochastic:
            break
        prefix_len += 1

    return CompiledProgram(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        ops=tuple(ops),
        capabilities=analyze_circuit(circuit),
        gate_noise=gate_noise,
        prefix_len=prefix_len,
        source_ops=source_ops,
        link_noise=link_noise,
    )


# ----------------------------------------------------------------------
# Per-process caches
# ----------------------------------------------------------------------
_CACHE_MAX = 256

_program_cache: OrderedDict[tuple[bytes, bool, bool], CompiledProgram] = OrderedDict()
_caps_cache: OrderedDict[bytes, CircuitCapabilities] = OrderedDict()
_cache_lock = Lock()
_stats = {"compiles": 0, "hits": 0, "primed": 0, "compile_time": 0.0}


def get_compiled(
    circuit: Circuit, gate_noise: bool = False, link_noise: bool = False
) -> CompiledProgram:
    """Compile-once accessor, keyed by the circuit's content digest.

    Thread-safe; the cache is per process, so every pool worker compiles a
    given circuit at most once no matter how many batches it executes.  The
    noise-compilation flags are part of the key: the same circuit compiled
    for ideal links and for link-aware execution are distinct programs.

    Hit/miss counts also land on the process-wide observability bundle
    (:func:`repro.obs.get_observability`) as ``compile.cache`` counters —
    a no-op unless one has been installed via ``set_observability``.
    """
    key = (circuit.content_digest(), gate_noise, link_noise)
    with _cache_lock:
        program = _program_cache.get(key)
        if program is not None:
            _program_cache.move_to_end(key)
            _stats["hits"] += 1
    if program is not None:
        get_observability().metrics.counter("compile.cache", outcome="hit").inc()
        return program
    start = time.perf_counter()
    program = compile_circuit(circuit, gate_noise=gate_noise, link_noise=link_noise)
    elapsed = time.perf_counter() - start
    with _cache_lock:
        _stats["compiles"] += 1
        _stats["compile_time"] += elapsed
        _program_cache[key] = program
        _caps_cache[key[0]] = program.capabilities
        while len(_program_cache) > _CACHE_MAX:
            _program_cache.popitem(last=False)
        while len(_caps_cache) > _CACHE_MAX:
            _caps_cache.popitem(last=False)
    metrics = get_observability().metrics
    metrics.counter("compile.cache", outcome="miss").inc()
    metrics.histogram("compile.time").observe(elapsed)
    return program


def prime_compiled(circuit: Circuit, program: CompiledProgram) -> bool:
    """Seed the cache with a program compiled by another process.

    The warm-worker path ships the parent's already-compiled program with
    the first batch group so pool workers skip the recompile entirely;
    the cache key is re-derived here from the circuit digest plus the
    program's own noise-compilation flags, so a primed entry can never be
    served for the wrong compilation mode.  Returns ``True`` when the
    program was inserted, ``False`` when an entry already existed (the
    resident entry wins — it is byte-equivalent by construction).
    """
    key = (circuit.content_digest(), program.gate_noise, program.link_noise)
    with _cache_lock:
        if key in _program_cache:
            _program_cache.move_to_end(key)
            return False
        _stats["primed"] += 1
        _program_cache[key] = program
        _caps_cache[key[0]] = program.capabilities
        while len(_program_cache) > _CACHE_MAX:
            _program_cache.popitem(last=False)
        while len(_caps_cache) > _CACHE_MAX:
            _caps_cache.popitem(last=False)
    get_observability().metrics.counter("compile.cache", outcome="primed").inc()
    return True


def get_capabilities(circuit: Circuit) -> CircuitCapabilities:
    """Cached capability flags (scan only; no matrices are resolved)."""
    key = circuit.content_digest()
    with _cache_lock:
        caps = _caps_cache.get(key)
        if caps is not None:
            _caps_cache.move_to_end(key)
            return caps
    caps = analyze_circuit(circuit)
    with _cache_lock:
        _caps_cache[key] = caps
        while len(_caps_cache) > _CACHE_MAX:
            _caps_cache.popitem(last=False)
    return caps


def compile_cache_stats() -> dict:
    """Snapshot of the process-wide compile cache counters."""
    with _cache_lock:
        return dict(_stats, cached_programs=len(_program_cache))


def clear_compile_cache() -> None:
    """Drop all cached programs and reset counters (tests only)."""
    with _cache_lock:
        _program_cache.clear()
        _caps_cache.clear()
        _stats.update({"compiles": 0, "hits": 0, "primed": 0, "compile_time": 0.0})
