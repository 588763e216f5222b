"""Verification of synthesised circuits against target states.

Verification is the one dense simulation every exact pipeline run
pays.  It executes through
:func:`~repro.simulator.statevector_sim.run_segments_inplace`, which
multiplies each per-node rotation ladder into one local matrix and
applies it once, with no compile step and no state kept between
calls.  Its results match the per-gate in-place kernel within
rounding (``~1e-16``).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.states.fidelity import fidelity
from repro.states.statevector import StateVector
from repro.simulator.statevector_sim import run_segments_inplace

__all__ = ["verify_preparation", "prepared_state"]


def prepared_state(circuit: Circuit) -> StateVector:
    """Simulate the circuit on ``|0...0>`` and return the result."""
    buffer = np.zeros(circuit.register.size, dtype=np.complex128)
    buffer[0] = 1.0
    run_segments_inplace(circuit, buffer)
    return StateVector(buffer, circuit.register)


def verify_preparation(circuit: Circuit, target: StateVector) -> float:
    """Return ``|<target|circuit(0...0)>|^2``.

    The target is normalised before comparison, so callers may pass
    unnormalised amplitude vectors.
    """
    return fidelity(target.normalized(), prepared_state(circuit))
