"""Independent check of synthesised circuits.

A plain-numpy simulator of the QDASM text the program exports.  It
applies each two-level rotation straight from the paper's formulas
(Section 4.2) and shares no code with ``repro.simulator``, so a defect
in the program's own verification cannot hide a wrong circuit.

Only the gates synthesis emits are understood — ``givens``, ``phase``
and ``globalphase``; anything else is reported as an error.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "OracleError",
    "check_sample",
    "fidelity",
    "perturb_first_rotation",
    "simulate",
]

_HEADER = "QDASM 1.0"


class OracleError(ValueError):
    """The QDASM text cannot be simulated."""


def _two_level_block(mnemonic: str, fields: dict[str, str]):
    if mnemonic == "givens":
        theta = float(fields["theta"])
        phi = float(fields["phi"])
        c = math.cos(theta / 2.0)
        s = math.sin(theta / 2.0)
        return (
            (c, -1j * cmath.exp(-1j * phi) * s),
            (-1j * cmath.exp(1j * phi) * s, c),
        )
    if mnemonic == "phase":
        delta = float(fields["delta"])
        return (
            (cmath.exp(-0.5j * delta), 0.0),
            (0.0, cmath.exp(0.5j * delta)),
        )
    raise OracleError(f"unsupported gate {mnemonic!r}")


def simulate(text: str) -> tuple[tuple[int, ...], np.ndarray]:
    """Apply the circuit in ``text`` to ``|0...0>``.

    Returns:
        The register dimensions and the flat output amplitudes (qudit 0
        most significant).

    Raises:
        OracleError: On malformed text or an unsupported gate.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if len(lines) < 2 or lines[0] != _HEADER or not lines[1].startswith(
        "dims "
    ):
        raise OracleError("missing QDASM header or dims line")
    dims = tuple(int(token) for token in lines[1].split()[1:])
    psi = np.zeros(dims, dtype=np.complex128)
    psi[(0,) * len(dims)] = 1.0
    global_phase = 0.0
    for line in lines[2:]:
        mnemonic, *tokens = line.split()
        if mnemonic == "globalphase":
            global_phase += float(tokens[0])
            continue
        try:
            fields = dict(token.split("=", 1) for token in tokens)
            target = int(fields["t"])
            level_i, level_j = int(fields["i"]), int(fields["j"])
            controls = [
                tuple(int(part) for part in pair.split(":"))
                for pair in fields["ctrl"].split(",")
            ] if "ctrl" in fields else []
            (u00, u01), (u10, u11) = _two_level_block(mnemonic, fields)
        except (KeyError, ValueError) as error:
            raise OracleError(f"malformed line {line!r}: {error}") from error
        index: list[object] = [slice(None)] * len(dims)
        for qudit, level in controls:
            if qudit == target:
                raise OracleError(f"control on the target in {line!r}")
            index[qudit] = level
        lower = list(index)
        lower[target] = level_i
        upper = list(index)
        upper[target] = level_j
        lower, upper = tuple(lower), tuple(upper)
        a = np.copy(psi[lower])
        b = np.copy(psi[upper])
        psi[lower] = u00 * a + u01 * b
        psi[upper] = u10 * a + u11 * b
    return dims, psi.reshape(-1) * cmath.exp(1j * global_phase)


def fidelity(text: str, target: np.ndarray) -> float:
    """``|<target|circuit|0>|^2`` for the circuit in ``text``.

    Raises:
        OracleError: If the circuit cannot be simulated or its register
            does not match ``target``.
    """
    _, produced = simulate(text)
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    if produced.shape != target.shape:
        raise OracleError(
            f"circuit has {produced.size} amplitudes, target {target.size}"
        )
    target = target / np.linalg.norm(target)
    return float(abs(np.vdot(target, produced)) ** 2)


def perturb_first_rotation(text: str, delta: float = 0.1) -> str:
    """``text`` with the first non-zero Givens angle changed by ``delta``.

    Used to show that the oracle rejects a wrong circuit.
    """
    lines = text.splitlines(keepends=True)
    for number, line in enumerate(lines):
        tokens = line.split()
        if not tokens or tokens[0] != "givens":
            continue
        for position, token in enumerate(tokens):
            if token.startswith("theta=") and float(token[6:]) != 0.0:
                tokens[position] = f"theta={float(token[6:]) + delta!r}"
                lines[number] = " ".join(tokens) + "\n"
                return "".join(lines)
    raise OracleError("no non-zero rotation to perturb")


def check_sample(
    failures: dict[int, str],
    job: int,
    text: str,
    target: np.ndarray,
    reported: float,
    floor: float,
) -> None:
    """Re-simulate one exported circuit and record a failure when its
    fidelity misses ``floor`` or disagrees with the ``reported`` one."""
    try:
        value = fidelity(text, target)
    except OracleError as error:
        failures.setdefault(job, f"oracle: {error}")
        return
    if not (value >= floor - 1e-9 and abs(value - reported) <= 1e-6):
        failures.setdefault(
            job,
            f"oracle fidelity {value!r}, reported {reported!r}, "
            f"floor {floor}",
        )
