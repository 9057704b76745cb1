"""State factories used throughout the tests, examples, and benchmarks.

The paper's workloads are defined over generic n-qubit density matrices
(random states, thermal states, noisy pure states).  This module provides
reproducible generators for all of them.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .linalg import kron_all

__all__ = [
    "assemble_initial_state",
    "check_placements",
    "computational_basis_state",
    "plus_state",
    "ghz_state",
    "w_state",
    "random_pure_state",
    "random_density_matrix",
    "random_product_density",
    "thermal_state",
    "random_hermitian",
    "depolarize_state",
    "noisy_pure_state",
]


def computational_basis_state(index: int, num_qubits: int) -> np.ndarray:
    """|index> on ``num_qubits`` qubits as a statevector."""
    dim = 2**num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    vector = np.zeros(dim, dtype=complex)
    vector[index] = 1.0
    return vector


def plus_state(num_qubits: int) -> np.ndarray:
    """|+>^n statevector."""
    dim = 2**num_qubits
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)


def ghz_state(num_qubits: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) statevector."""
    if num_qubits < 1:
        raise ValueError("GHZ state needs at least one qubit")
    vector = np.zeros(2**num_qubits, dtype=complex)
    vector[0] = 1.0 / np.sqrt(2)
    vector[-1] = 1.0 / np.sqrt(2)
    return vector


def w_state(num_qubits: int) -> np.ndarray:
    """Equal superposition of single-excitation basis states."""
    if num_qubits < 1:
        raise ValueError("W state needs at least one qubit")
    vector = np.zeros(2**num_qubits, dtype=complex)
    for i in range(num_qubits):
        vector[1 << (num_qubits - 1 - i)] = 1.0
    return vector / np.sqrt(num_qubits)


def random_pure_state(num_qubits: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Haar-random pure statevector."""
    rng = rng or np.random.default_rng()
    dim = 2**num_qubits
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vector / np.linalg.norm(vector)


def random_density_matrix(
    num_qubits: int,
    rank: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Random density matrix from the Ginibre ensemble (full rank by default)."""
    rng = rng or np.random.default_rng()
    dim = 2**num_qubits
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ValueError("rank must be between 1 and 2**num_qubits")
    ginibre = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho)


def random_product_density(
    num_factors: int,
    qubits_per_factor: int,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """List of independent random density matrices, one per party."""
    rng = rng or np.random.default_rng()
    return [random_density_matrix(qubits_per_factor, rng=rng) for _ in range(num_factors)]


def thermal_state(hamiltonian: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta H)/Z for a Hermitian ``hamiltonian``."""
    eigenvalues, vectors = np.linalg.eigh(hamiltonian)
    # Shift eigenvalues for numerical stability before exponentiating.
    weights = np.exp(-beta * (eigenvalues - eigenvalues.min()))
    weights = weights / weights.sum()
    return (vectors * weights) @ vectors.conj().T


def random_hermitian(num_qubits: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Random Hermitian matrix (GUE-like, unnormalised)."""
    rng = rng or np.random.default_rng()
    dim = 2**num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def depolarize_state(rho: np.ndarray, probability: float) -> np.ndarray:
    """Apply a global depolarizing channel of strength ``probability``."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    dim = rho.shape[0]
    return (1.0 - probability) * rho + probability * np.eye(dim) / dim


def noisy_pure_state(
    num_qubits: int,
    noise: float,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A random pure target plus its globally depolarized version.

    Returns ``(pure_vector, noisy_density)`` — the standard virtual
    distillation workload: the noisy state's dominant eigenvector is the pure
    target.
    """
    rng = rng or np.random.default_rng()
    psi = random_pure_state(num_qubits, rng=rng)
    rho = depolarize_state(np.outer(psi, psi.conj()), noise)
    return psi, rho


def product_state(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of statevectors."""
    return kron_all(list(vectors))


def check_placements(
    num_qubits: int, placements: Mapping[tuple[int, ...], np.ndarray]
) -> dict[tuple[int, ...], np.ndarray]:
    """Validate register placements; returns them as complex vectors.

    Each key is a tuple of *contiguous ascending* qubit indices inside the
    ``num_qubits`` register, keys do not overlap, and each value is a
    statevector of the key's width.
    """
    checked: dict[tuple[int, ...], np.ndarray] = {}
    taken: set[int] = set()
    for qubits, vector in placements.items():
        qubits = tuple(int(q) for q in qubits)
        if not qubits or list(qubits) != list(range(qubits[0], qubits[0] + len(qubits))):
            raise ValueError(f"register {qubits} is not contiguous ascending")
        if qubits[0] < 0 or qubits[-1] >= num_qubits:
            raise ValueError("placements exceed the register")
        if taken.intersection(qubits):
            raise ValueError("overlapping placements")
        taken.update(qubits)
        vector = np.asarray(vector, dtype=complex)
        if vector.shape != (2 ** len(qubits),):
            raise ValueError("placement vector has wrong dimension")
        checked[qubits] = vector
    return checked


def assemble_initial_state(
    num_qubits: int, placements: Mapping[tuple[int, ...], np.ndarray]
) -> np.ndarray:
    """Tensor statevectors into a full register, |0> elsewhere.

    ``placements`` is checked by :func:`check_placements`.
    """
    zero = np.array([1.0, 0.0], dtype=complex)
    parts: list[np.ndarray] = []
    cursor = 0
    for qubits, vector in sorted(check_placements(num_qubits, placements).items()):
        parts.extend([zero] * (qubits[0] - cursor))
        parts.append(vector)
        cursor = qubits[-1] + 1
    parts.extend([zero] * (num_qubits - cursor))
    return kron_all(parts)
