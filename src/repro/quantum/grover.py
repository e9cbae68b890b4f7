"""Grover dynamics of procedure A3, simulated exactly.

One loop-3 iteration of the paper is ``U_k S_k U_k V_z W_y V_x``; with
x = z this is exactly one Grover iteration for the oracle marking
``{i : x_i = y_i = 1}``.  :class:`GroverA3` evolves the full state
vector through j iterations and the step-4 finish (``R_y V_x``) and
reads off the exact probability that the final measurement of the last
qubit yields 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import QuantumError
from .state import bit_where
from .operators import (
    RxOperator,
    SkOperator,
    UkOperator,
    VxOperator,
    WxOperator,
    initial_phi,
)
from .registers import A3Registers


def marked_probability(vec: np.ndarray, regs: A3Registers) -> float:
    """Exact probability that measuring the l qubit yields 1."""
    if vec.size != regs.dimension:
        raise QuantumError("state has the wrong dimension")
    mask = bit_where(regs.dimension, regs.l_qubit)
    return float(np.sum(np.abs(vec[mask]) ** 2))


def marked_probabilities(batch: np.ndarray, regs: A3Registers) -> np.ndarray:
    """Per-row Pr[measuring l yields 1] for a ``(B, dim)`` state batch.

    The batched counterpart of :func:`marked_probability`, as a
    ``float64`` array.  Each row is reduced by its own 1-D sum over the
    gathered l = 1 columns —
    bit-identical to calling :func:`marked_probability` row by row (an
    axis-reduction is *not*: NumPy orders the two differently, and the
    engine's measurement coins compare against these exact floats).
    """
    if batch.ndim != 2 or batch.shape[-1] != regs.dimension:
        raise QuantumError("state batch has the wrong shape")
    mask = bit_where(regs.dimension, regs.l_qubit)
    probs = np.abs(batch[..., mask]) ** 2
    return np.array([float(np.sum(probs[i])) for i in range(batch.shape[0])])


class GroverA3:
    """Exact state evolution of procedure A3 for fixed strings.

    Parameters
    ----------
    k:
        Size parameter; strings have length N = 2^{2k}.
    x, y:
        The two input strings; ``z`` defaults to x (condition (ii) of
        the paper guarantees z = x on well-formed inputs, but a
        different z may be passed to study what A3 does on inputs that
        *violate* condition (ii)).
    """

    def __init__(self, k: int, x: str, y: str, z: Optional[str] = None) -> None:
        self.regs = A3Registers(k)
        self.x = x
        self.y = y
        self.z = x if z is None else z
        self._vx = VxOperator(self.regs, self.x)
        self._wy = WxOperator(self.regs, self.y)
        self._vz = VxOperator(self.regs, self.z)
        self._uk = UkOperator(self.regs)
        self._sk = SkOperator(self.regs)
        self._ry = RxOperator(self.regs, self.y)

    @property
    def t(self) -> int:
        """Number of intersecting indices |{i : x_i = y_i = 1}|."""
        return sum(1 for a, b in zip(self.x, self.y) if a == "1" and b == "1")

    def iterate(self, vec: np.ndarray) -> np.ndarray:
        """One loop-3 iteration: U_k S_k U_k V_z W_y V_x."""
        vec = self._vx.apply(vec)
        vec = self._wy.apply(vec)
        vec = self._vz.apply(vec)
        vec = self._uk.apply(vec)
        vec = self._sk.apply(vec)
        vec = self._uk.apply(vec)
        return vec

    def state_after(self, iterations: int) -> np.ndarray:
        """State after step 4 with j = *iterations*: R_y V_x (loop)^j |phi_k>."""
        if iterations < 0:
            raise QuantumError("iterations must be non-negative")
        vec = initial_phi(self.regs)
        for _ in range(iterations):
            vec = self.iterate(vec)
        vec = self._vx.apply(vec)
        vec = self._ry.apply(vec)
        return vec

    def detection_probability(self, iterations: int) -> float:
        """Exact Pr[measurement of l yields 1] after j iterations.

        For z = x this equals ``sin^2((2j+1) theta)`` with
        ``sin^2(theta) = t / N`` — the Grover/BBHT formula the paper
        cites; tests check the two against each other.
        """
        return marked_probability(self.state_after(iterations), self.regs)

    def average_detection_probability(self, m: Optional[int] = None) -> float:
        """Average of :meth:`detection_probability` over j uniform in {0..m-1}.

        ``m`` defaults to 2^k, the paper's choice.  This is the exact
        probability that one run of A3 (with its random j) measures 1.
        """
        m = (1 << self.regs.k) if m is None else m
        if m < 1:
            raise QuantumError("m must be >= 1")
        return float(
            np.mean([self.detection_probability(j) for j in range(m)])
        )

    def a3_output_distribution(self, m: Optional[int] = None) -> dict[int, float]:
        """Distribution of A3's output bit (output = 1 - measured b)."""
        p1 = self.average_detection_probability(m)
        return {0: p1, 1: 1.0 - p1}
