"""The paper's operators as fast vectorized actions on state vectors.

Procedure A3 (proof of Theorem 3.4) uses, on the |i>|h>|l> layout of
:class:`~repro.quantum.registers.A3Registers`:

* ``|phi_k>`` — uniform over i with h = l = 0 (:func:`initial_phi`);
* ``S_k``    — phase -1 on every basis state with i != 0;
* ``V_x``    — |i>|h>|l> -> |i>|h xor x_i>|l>;
* ``W_x``    — phase (-1)^{h and x_i};
* ``U_k``    — H on each index qubit (identity on h, l);
* ``R_x``    — |i>|h>|l> -> |i>|h>|l xor (h and x_i)>.

All of these are diagonal or permutation operators except ``U_k``; the
permutations/signs are precomputed as index arrays at construction
(``O(N)`` once), so applying an operator is a single fancy-index or
multiply, and ``U_k`` is a fast Walsh-Hadamard transform — no Python
loops over amplitudes anywhere.

Every operator accepts either a single state of shape ``(dim,)`` or a
batch of shape ``(B, dim)`` (the execution engine's dense backend): the
permutation / sign tables broadcast over the leading batch axis, so one
call advances all B trials.

Operators also expose ``unitary()`` (dense matrix, small k) for the
compiler's exactness tests.
"""

from __future__ import annotations

import numpy as np

from ..alphabet import validate_bitstring
from ..errors import QuantumError
from .gates import walsh_hadamard_in_place
from .registers import A3Registers
from .state import basis_indices, bit_where


def initial_phi(regs: A3Registers) -> np.ndarray:
    """|phi_k> = (1/2^k) sum_i |i>|0>|0>."""
    vec = np.zeros(regs.dimension, dtype=np.complex128)
    vec[: regs.string_length] = 1.0 / np.sqrt(regs.string_length)
    return vec


def _bit_table(regs: A3Registers, x: str) -> np.ndarray:
    """x_i looked up for every basis index (the i part of the index)."""
    validate_bitstring(x)
    if len(x) != regs.string_length:
        raise QuantumError(
            f"string length {len(x)} != N = {regs.string_length} for k = {regs.k}"
        )
    bits = np.frombuffer(x.encode("ascii"), dtype=np.uint8) - ord("0")
    idx = basis_indices(regs.dimension)
    return bits[idx & regs.index_mask].astype(np.int64)


class _BaseOperator:
    """Shared plumbing: dimension checks and dense-matrix extraction."""

    name = "op"

    def __init__(self, regs: A3Registers) -> None:
        self.regs = regs

    def apply(self, vec: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, vec: np.ndarray) -> None:
        if vec.ndim not in (1, 2) or vec.shape[-1] != self.regs.dimension:
            raise QuantumError(
                f"{self.name}: state has shape {vec.shape}, expected "
                f"({self.regs.dimension},) or (B, {self.regs.dimension})"
            )

    def unitary(self) -> np.ndarray:
        """Dense matrix (for small k; compiler/equality tests only)."""
        dim = self.regs.dimension
        if dim > 1 << 12:
            raise QuantumError("unitary() is for small k only")
        out = np.zeros((dim, dim), dtype=np.complex128)
        eye = np.eye(dim, dtype=np.complex128)
        for col in range(dim):
            out[:, col] = self.apply(eye[:, col].copy())
        return out


class SkOperator(_BaseOperator):
    """Phase -1 on |i>|h>|l> for i != 0 (identity on i = 0)."""

    name = "S_k"

    def __init__(self, regs: A3Registers) -> None:
        super().__init__(regs)
        idx = basis_indices(regs.dimension)
        self._signs = np.where((idx & regs.index_mask) != 0, -1.0, 1.0)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        self._check(vec)
        vec *= self._signs
        return vec


class VxOperator(_BaseOperator):
    """|i>|h>|l> -> |i>|h xor x_i>|l> (a permutation; an involution)."""

    name = "V_x"

    def __init__(self, regs: A3Registers, x: str) -> None:
        super().__init__(regs)
        self.x = x
        xi = _bit_table(regs, x)
        idx = basis_indices(regs.dimension)
        self._perm = idx ^ (xi << regs.h_qubit)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        self._check(vec)
        return vec[..., self._perm]


class WxOperator(_BaseOperator):
    """Phase (-1)^{h and x_i} (diagonal)."""

    name = "W_x"

    def __init__(self, regs: A3Registers, x: str) -> None:
        super().__init__(regs)
        self.x = x
        xi = _bit_table(regs, x)
        h = bit_where(regs.dimension, regs.h_qubit).astype(np.int64)
        self._signs = np.where((h & xi) == 1, -1.0, 1.0)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        self._check(vec)
        vec *= self._signs
        return vec


class UkOperator(_BaseOperator):
    """H on each of the 2k index qubits; identity on h and l.

    Implemented as a Walsh-Hadamard transform over the index axis: the
    state reshapes (as a view) to (..., 4, N) with the middle axis
    indexed by (l, h) — a leading batch axis passes through untouched.
    """

    name = "U_k"

    def apply(self, vec: np.ndarray) -> np.ndarray:
        self._check(vec)
        block = vec.reshape(vec.shape[:-1] + (4, self.regs.string_length))
        walsh_hadamard_in_place(block)
        return vec


class RxOperator(_BaseOperator):
    """|i>|h>|l> -> |i>|h>|l xor (h and x_i)> (a permutation)."""

    name = "R_x"

    def __init__(self, regs: A3Registers, x: str) -> None:
        super().__init__(regs)
        self.x = x
        xi = _bit_table(regs, x)
        idx = basis_indices(regs.dimension)
        h = bit_where(regs.dimension, regs.h_qubit).astype(np.int64)
        self._perm = idx ^ ((h & xi) << regs.l_qubit)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        self._check(vec)
        return vec[..., self._perm]


def vwv_phase_check(regs: A3Registers, x: str, y: str) -> np.ndarray:
    """The diagonal of V_x W_y V_x restricted to h = l = 0.

    The paper's key equality: ``V_x W_y V_x`` acts on
    ``sum_i a_i |i>|0>|0>`` as the phase flip ``(-1)^{x_i and y_i}`` —
    i.e. exactly the Grover oracle for the intersection.  Returned as
    the length-N sign vector for tests.
    """
    vx = VxOperator(regs, x)
    wy = WxOperator(regs, y)
    dim = regs.dimension
    signs = np.zeros(regs.string_length)
    for i in range(regs.string_length):
        vec = np.zeros(dim, dtype=np.complex128)
        vec[i] = 1.0
        vec = vx.apply(vec)
        vec = wy.apply(vec)
        vec = vx.apply(vec)
        signs[i] = vec[i].real
    return signs
