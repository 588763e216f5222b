"""Concrete gate classes.

The two workhorses of the synthesis are :class:`GivensRotation` (the
paper's ``R_{i,j}(theta, phi)``) and :class:`PhaseRotation` (the
two-level Z rotation finishing each node ladder).  The remaining gates
— shift, clock, Fourier, permutation, generic unitary — round out the
IR for examples, transpilation, and tests.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.circuit.controls import Control
from repro.circuit.gate import Gate
from repro.exceptions import CircuitError
from repro.linalg.rotations import givens_matrix, phase_two_level_matrix
from repro.linalg.standard_gates import (
    clock_matrix,
    fourier_matrix,
    permutation_matrix,
    shift_matrix,
)

__all__ = [
    "GivensRotation",
    "PhaseRotation",
    "ShiftGate",
    "ClockGate",
    "FourierGate",
    "PermutationGate",
    "UnitaryGate",
]

ControlsLike = Iterable[Control | tuple[int, int]] | None


def _check_level_pair(level_i: int, level_j: int) -> None:
    if level_i < 0 or level_j < 0:
        raise CircuitError(
            f"levels must be >= 0, got ({level_i}, {level_j})"
        )
    if level_i == level_j:
        raise CircuitError(f"levels must differ, got {level_i} twice")


class GivensRotation(Gate):
    """Two-level rotation ``R_{i,j}(theta, phi)`` on a target qudit.

    ``R = exp(-i theta/2 (cos(phi) sx_ij + sin(phi) sy_ij))`` acting on
    the ``(|i>, |j>)`` subspace (Section 4.2 of the paper).
    """

    name = "givens"

    def __init__(
        self,
        target: int,
        level_i: int,
        level_j: int,
        theta: float,
        phi: float,
        controls: ControlsLike = None,
    ):
        super().__init__(target, controls)
        _check_level_pair(level_i, level_j)
        self.level_i = level_i
        self.level_j = level_j
        self.theta = float(theta)
        self.phi = float(phi)

    def _validate_levels(self, dimension: int) -> None:
        if max(self.level_i, self.level_j) >= dimension:
            raise CircuitError(
                f"rotation levels ({self.level_i}, {self.level_j}) out of "
                f"range for dimension {dimension}"
            )

    def _local_matrix(self, dimension: int) -> np.ndarray:
        return givens_matrix(
            dimension, self.level_i, self.level_j, self.theta, self.phi
        )

    def inverse(self) -> "GivensRotation":
        return GivensRotation(
            self.target,
            self.level_i,
            self.level_j,
            -self.theta,
            self.phi,
            self.controls,
        )

    def is_identity(self, tolerance: float = 1e-12) -> bool:
        """Whether the rotation angle is a multiple of ``4 pi``."""
        return (
            abs(math.remainder(self.theta, 4.0 * math.pi)) <= tolerance
        )

    def _parameters(self) -> tuple:
        return (self.level_i, self.level_j, self.theta, self.phi)


class PhaseRotation(Gate):
    """Two-level phase rotation ``RZ_{i,j}(delta)``.

    ``diag(e^{-i delta/2}, e^{i delta/2})`` on the ``(|i>, |j>)``
    subspace, identity elsewhere.  This is the rotation that finishes
    each node's ladder in the synthesis; the paper decomposes it into
    three Givens rotations via ``Z(t) = R(-pi/2, 0) R(t, pi/2) R(pi/2, 0)``
    (see :meth:`decompose_to_givens`).
    """

    name = "phase"

    def __init__(
        self,
        target: int,
        level_i: int,
        level_j: int,
        delta: float,
        controls: ControlsLike = None,
    ):
        super().__init__(target, controls)
        _check_level_pair(level_i, level_j)
        self.level_i = level_i
        self.level_j = level_j
        self.delta = float(delta)

    def _validate_levels(self, dimension: int) -> None:
        if max(self.level_i, self.level_j) >= dimension:
            raise CircuitError(
                f"phase levels ({self.level_i}, {self.level_j}) out of "
                f"range for dimension {dimension}"
            )

    def _local_matrix(self, dimension: int) -> np.ndarray:
        return phase_two_level_matrix(
            dimension, self.level_i, self.level_j, self.delta
        )

    def inverse(self) -> "PhaseRotation":
        return PhaseRotation(
            self.target,
            self.level_i,
            self.level_j,
            -self.delta,
            self.controls,
        )

    def is_identity(self, tolerance: float = 1e-12) -> bool:
        """Whether the phase angle is a multiple of ``4 pi``."""
        return (
            abs(math.remainder(self.delta, 4.0 * math.pi)) <= tolerance
        )

    def decompose_to_givens(self) -> list[GivensRotation]:
        """Return the paper's three-rotation decomposition.

        The paper states ``Z(t) = R(-pi/2, 0) R(t, pi/2) R(pi/2, 0)``;
        under the sign conventions of :mod:`repro.linalg.rotations` the
        identity holds exactly (no global phase) with the middle angle
        negated: ``RZ(delta) = R(-pi/2, 0) R(-delta, pi/2) R(pi/2, 0)``
        (verified in ``tests/test_gates.py``).  The returned list is in
        circuit (application) order and preserves the controls.
        """
        half_pi = math.pi / 2.0
        make = lambda theta, phi: GivensRotation(  # noqa: E731
            self.target, self.level_i, self.level_j, theta, phi,
            self.controls,
        )
        return [
            make(half_pi, 0.0),
            make(-self.delta, half_pi),
            make(-half_pi, 0.0),
        ]

    def _parameters(self) -> tuple:
        return (self.level_i, self.level_j, self.delta)


class ShiftGate(Gate):
    """Cyclic increment ``X^amount``: ``|l> -> |(l + amount) mod d>``.

    The ``+1`` / ``+2`` controlled operations of Figure 1 of the paper.
    """

    name = "shift"

    def __init__(self, target: int, amount: int = 1,
                 controls: ControlsLike = None):
        super().__init__(target, controls)
        self.amount = int(amount)

    def _local_matrix(self, dimension: int) -> np.ndarray:
        return shift_matrix(dimension, self.amount)

    def inverse(self) -> "ShiftGate":
        return ShiftGate(self.target, -self.amount, self.controls)

    def _parameters(self) -> tuple:
        return (self.amount,)


class ClockGate(Gate):
    """Clock gate ``Z^amount``: ``|l> -> exp(2 pi i l amount / d) |l>``."""

    name = "clock"

    def __init__(self, target: int, amount: int = 1,
                 controls: ControlsLike = None):
        super().__init__(target, controls)
        self.amount = int(amount)

    def _local_matrix(self, dimension: int) -> np.ndarray:
        return clock_matrix(dimension, self.amount)

    def inverse(self) -> "ClockGate":
        return ClockGate(self.target, -self.amount, self.controls)

    def _parameters(self) -> tuple:
        return (self.amount,)


class FourierGate(Gate):
    """Discrete Fourier transform on one qudit (generalized Hadamard).

    ``FourierGate`` on a qutrit is the Hadamard of Example 2 of the
    paper.  ``inverse()`` returns a :class:`UnitaryGate` wrapping the
    adjoint because the inverse Fourier transform is not itself a
    (forward) Fourier gate.
    """

    name = "fourier"

    def _local_matrix(self, dimension: int) -> np.ndarray:
        return fourier_matrix(dimension)

    def inverse(self) -> "Gate":
        return _InverseFourierGate(self.target, controls=self.controls)


class _InverseFourierGate(Gate):
    """Adjoint of the Fourier gate (kept dimension-generic)."""

    name = "fourier_dg"

    def _local_matrix(self, dimension: int) -> np.ndarray:
        return fourier_matrix(dimension).conj().T

    def inverse(self) -> "Gate":
        return FourierGate(self.target, controls=self.controls)


class PermutationGate(Gate):
    """Classical permutation of qudit levels: ``|l> -> |perm[l]>``."""

    name = "perm"

    def __init__(self, target: int, permutation: list[int],
                 controls: ControlsLike = None):
        super().__init__(target, controls)
        self.permutation = tuple(int(p) for p in permutation)

    def _validate_levels(self, dimension: int) -> None:
        if sorted(self.permutation) != list(range(dimension)):
            raise CircuitError(
                f"{list(self.permutation)} is not a permutation of "
                f"range({dimension})"
            )

    def _local_matrix(self, dimension: int) -> np.ndarray:
        return permutation_matrix(dimension, list(self.permutation))

    def inverse(self) -> "PermutationGate":
        inverse_perm = [0] * len(self.permutation)
        for source, image in enumerate(self.permutation):
            inverse_perm[image] = source
        return PermutationGate(self.target, inverse_perm, self.controls)

    def _parameters(self) -> tuple:
        return (self.permutation,)


class UnitaryGate(Gate):
    """An explicit unitary matrix on one target qudit."""

    name = "unitary"

    def __init__(self, target: int, matrix: np.ndarray,
                 controls: ControlsLike = None,
                 label: str = "unitary"):
        super().__init__(target, controls)
        array = np.asarray(matrix, dtype=np.complex128)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise CircuitError(
                f"unitary must be square, got shape {array.shape}"
            )
        product = array @ array.conj().T
        if not np.allclose(product, np.eye(array.shape[0]), atol=1e-9):
            raise CircuitError("matrix is not unitary")
        self._matrix = array
        self.label = label

    def _validate_levels(self, dimension: int) -> None:
        if self._matrix.shape[0] != dimension:
            raise CircuitError(
                f"unitary of size {self._matrix.shape[0]} cannot act on "
                f"a qudit of dimension {dimension}"
            )

    def _local_matrix(self, dimension: int) -> np.ndarray:
        self._validate_levels(dimension)
        return self._matrix.copy()

    def inverse(self) -> "UnitaryGate":
        return UnitaryGate(
            self.target, self._matrix.conj().T, self.controls,
            label=f"{self.label}_dg",
        )

    def _parameters(self) -> tuple:
        return (self._matrix.tobytes(),)
