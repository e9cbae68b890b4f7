"""State vectors and measurement statistics.

Convention: a state on n qubits is a contiguous ``complex128`` array of
length 2^n; basis index ``i`` assigns qubit ``q`` the bit
``(i >> q) & 1`` (qubit 0 is the least significant bit).  All
probability computations are exact functions of the amplitudes; sampling
is layered on top where experiments need empirical counts.

Batched states (:class:`BatchedStateVector`) stack B independent trials
as a ``(B, 2^n)`` array so one NumPy call advances every trial; the
operators in :mod:`repro.quantum.operators` accept the leading batch
axis transparently.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import QuantumError
from ..rng import ensure_rng

#: Tolerance for normalization checks (float64 round-off across many gates).
NORM_ATOL = 1e-9


@lru_cache(maxsize=None)
def basis_indices(size: int) -> np.ndarray:
    """``arange(size)`` cached per dimension (read-only).

    Index tables are rebuilt constantly on the hot paths (measurement
    statistics, operator construction); the cache makes them a lookup.
    """
    idx = np.arange(size)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def bit_where(size: int, qubit: int) -> np.ndarray:
    """Boolean mask over basis indices where *qubit* is 1 (read-only).

    Like :func:`basis_indices`, cached per (size, qubit).
    """
    mask = ((basis_indices(size) >> qubit) & 1) == 1
    mask.setflags(write=False)
    return mask


def zero_state(n_qubits: int) -> np.ndarray:
    """The all-zeros computational basis state |0...0> on n qubits."""
    if n_qubits < 1:
        raise QuantumError("need at least one qubit")
    vec = np.zeros(1 << n_qubits, dtype=np.complex128)
    vec[0] = 1.0
    return vec


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """The computational basis state |index> on n qubits."""
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise QuantumError(f"basis index {index} out of range for {n_qubits} qubits")
    vec = np.zeros(dim, dtype=np.complex128)
    vec[index] = 1.0
    return vec


class StateVector:
    """A normalized pure state with qubit-level measurement helpers.

    Thin, explicit wrapper over the raw array: heavy operators in
    :mod:`repro.quantum.operators` act on the array directly (views, no
    copies), while this class provides the checked public surface.
    """

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, amplitudes: np.ndarray, *, check: bool = True) -> None:
        amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        n = int(np.log2(amplitudes.size))
        if (1 << n) != amplitudes.size:
            raise QuantumError(f"amplitude vector size {amplitudes.size} is not a power of 2")
        if check:
            norm = np.vdot(amplitudes, amplitudes).real
            if abs(norm - 1.0) > NORM_ATOL:
                raise QuantumError(f"state is not normalized (|psi|^2 = {norm})")
        self.n_qubits = n
        self.amplitudes = amplitudes

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        return cls(zero_state(n_qubits), check=False)

    # -- measurement statistics (exact) -----------------------------------

    def probability_of_bit(self, qubit: int, value: int) -> float:
        """Exact probability that measuring *qubit* yields *value*."""
        if not 0 <= qubit < self.n_qubits:
            raise QuantumError(f"qubit {qubit} out of range")
        if value not in (0, 1):
            raise QuantumError("measurement value must be 0 or 1")
        ones = bit_where(self.amplitudes.size, qubit)
        mask = ones if value == 1 else ~ones
        return float(np.sum(np.abs(self.amplitudes[mask]) ** 2))

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 over the full computational basis."""
        return np.abs(self.amplitudes) ** 2

    def marginal(self, qubits: Iterable[int]) -> np.ndarray:
        """Joint distribution of the given qubits (in the given order)."""
        qubits = list(qubits)
        probs = self.probabilities()
        idx = basis_indices(probs.size)
        out = np.zeros(1 << len(qubits))
        sub = np.zeros_like(idx)
        for pos, q in enumerate(qubits):
            if not 0 <= q < self.n_qubits:
                raise QuantumError(f"qubit {q} out of range")
            sub |= ((idx >> q) & 1) << pos
        np.add.at(out, sub, probs)
        return out

    # -- sampling -----------------------------------------------------------

    def measure_qubit(
        self, qubit: int, rng=None
    ) -> Tuple[int, "StateVector"]:
        """Sample a measurement of one qubit; returns (outcome, collapsed state)."""
        gen = ensure_rng(rng)
        p1 = self.probability_of_bit(qubit, 1)
        outcome = 1 if gen.random() < p1 else 0
        ones = bit_where(self.amplitudes.size, qubit)
        keep = ones if outcome == 1 else ~ones
        collapsed = np.where(keep, self.amplitudes, 0.0)
        norm = np.linalg.norm(collapsed)
        if norm == 0:  # pragma: no cover - impossible given sampling above
            raise QuantumError("measurement collapsed to the zero vector")
        return outcome, StateVector(collapsed / norm, check=False)

    def sample_all(self, rng=None) -> int:
        """Sample a full computational-basis measurement; returns the index.

        The amplitudes are checked against :data:`NORM_ATOL` first: real
        normalization drift raises :class:`QuantumError` instead of being
        silently renormalized away (only float round-off within the
        tolerance is compensated).
        """
        gen = ensure_rng(rng)
        probs = self.probabilities()
        total = float(probs.sum())
        if abs(total - 1.0) > NORM_ATOL:
            raise QuantumError(
                f"state norm drifted beyond tolerance (sum|a|^2 = {total})"
            )
        probs = probs / total
        return int(gen.choice(probs.size, p=probs))

    # -- comparisons -----------------------------------------------------

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2."""
        if self.n_qubits != other.n_qubits:
            raise QuantumError("states have different qubit counts")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)

    def equals_up_to_global_phase(
        self, other: "StateVector", atol: float = 1e-8
    ) -> bool:
        """True when the states differ only by a global phase."""
        return self.fidelity(other) > 1.0 - atol

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), check=False)


class BatchedStateVector:
    """B independent pure states stacked as a ``(B, 2^n)`` array.

    The batch axis is the vectorization unit of the execution engine's
    dense backend: one NumPy call advances all B trials.  Rows are
    independent states (no entanglement across the batch axis); the
    operators in :mod:`repro.quantum.operators` broadcast over it.
    """

    __slots__ = ("n_qubits", "batch", "amplitudes")

    def __init__(self, amplitudes: np.ndarray, *, check: bool = True) -> None:
        amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        if amplitudes.ndim != 2:
            raise QuantumError(
                f"batched state needs a (B, 2^n) array, got ndim={amplitudes.ndim}"
            )
        n = int(np.log2(amplitudes.shape[1]))
        if (1 << n) != amplitudes.shape[1]:
            raise QuantumError(
                f"amplitude row size {amplitudes.shape[1]} is not a power of 2"
            )
        if check:
            norms = np.einsum("bi,bi->b", amplitudes.conj(), amplitudes).real
            worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
            if worst > NORM_ATOL:
                raise QuantumError(
                    f"batched state has a non-normalized row (max drift {worst})"
                )
        self.n_qubits = n
        self.batch = amplitudes.shape[0]
        self.amplitudes = amplitudes

    @classmethod
    def zero(cls, batch: int, n_qubits: int) -> "BatchedStateVector":
        """|0...0> replicated across the batch axis."""
        if batch < 1:
            raise QuantumError("batch size must be >= 1")
        amps = np.zeros((batch, 1 << n_qubits), dtype=np.complex128)
        amps[:, 0] = 1.0
        return cls(amps, check=False)

    @classmethod
    def broadcast(cls, state: StateVector, batch: int) -> "BatchedStateVector":
        """Tile one state into a batch of B identical rows."""
        if batch < 1:
            raise QuantumError("batch size must be >= 1")
        return cls(np.tile(state.amplitudes, (batch, 1)), check=False)

    def row(self, index: int) -> StateVector:
        """Trial *index* as a standalone :class:`StateVector`."""
        return StateVector(self.amplitudes[index].copy(), check=False)

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 per row: shape (B, 2^n)."""
        return np.abs(self.amplitudes) ** 2

    def probability_of_bit(self, qubit: int, value: int) -> np.ndarray:
        """Per-trial probability that measuring *qubit* yields *value*: (B,).

        Each row is reduced by its own 1-D sum over the gathered
        columns — bit-identical to :meth:`StateVector.probability_of_bit`
        row by row, where an ``axis=`` reduction is not (NumPy orders
        the additions differently; see the float-determinism contract
        in ``docs/ARCHITECTURE.md``).
        """
        if not 0 <= qubit < self.n_qubits:
            raise QuantumError(f"qubit {qubit} out of range")
        if value not in (0, 1):
            raise QuantumError("measurement value must be 0 or 1")
        ones = bit_where(self.amplitudes.shape[1], qubit)
        mask = ones if value == 1 else ~ones
        probs = np.abs(self.amplitudes[:, mask]) ** 2
        return np.array([float(np.sum(probs[i])) for i in range(probs.shape[0])])

    def norms(self) -> np.ndarray:
        """Per-trial squared norms (drift diagnostics): (B,)."""
        return np.einsum("bi,bi->b", self.amplitudes.conj(), self.amplitudes).real

    def copy(self) -> "BatchedStateVector":
        return BatchedStateVector(self.amplitudes.copy(), check=False)


def global_phase_aligned(u: np.ndarray, v: np.ndarray) -> Optional[complex]:
    """The phase e^{i a} with ``u ~ e^{i a} v``, or None if not proportional.

    Used by compiler tests to compare unitaries up to global phase.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        return None
    flat_u = u.ravel()
    flat_v = v.ravel()
    pivot = int(np.argmax(np.abs(flat_v)))
    if abs(flat_v[pivot]) < 1e-12:
        return None
    phase = flat_u[pivot] / flat_v[pivot]
    if abs(abs(phase) - 1.0) > 1e-8:
        return None
    if not np.allclose(flat_u, phase * flat_v, atol=1e-8):
        return None
    return complex(phase)
