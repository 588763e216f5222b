"""Seed-determined inputs of every workload.

The same ``--seed`` gives the same inputs, and the program receives
only what these functions return.  Each workload draws from its own
stream, so the workloads of one seed share no states.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass

import numpy as np

#: ``cold-exact``: 576 amplitudes, 1124 operations per dense state.
COLD_DIMS = (2, 3, 2, 2, 3, 2, 2, 2)
#: ``approx-disk``: 1728 amplitudes, about 2.5k operations at 0.95.
APPROX_DIMS = (2, 3, 2, 2, 3, 2, 2, 2, 3)
APPROX_MIN_FIDELITY = 0.95
#: ``serve-small``: the small registers a script sends over the wire.
SERVE_REGISTERS = (
    (3, 3, 2), (2, 2, 2, 2), (4, 4, 4), (3, 6, 2), (2, 3, 2, 2), (3, 3, 3),
)
SERVE_FAMILIES = ("ghz", "w", "random")
#: A repeat re-sends one of this many latest fresh requests of its
#: connection; with a 256-entry cache every repeat is a memory hit.
REPEAT_WINDOW = 4


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    # Modulo 2**64 so that negative seeds are accepted and stay distinct.
    return np.random.default_rng([seed % 2**64, zlib.crc32(workload.encode())])


def fingerprint(*parts: object) -> str:
    """Short digest of generated inputs, printed so runs can be compared."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


def dense_states(seed: int, count: int) -> np.ndarray:
    """``count`` normalised dense states over :data:`COLD_DIMS`:
    magnitudes uniform on [0, 1), phases uniform, every amplitude
    non-zero with probability one."""
    rng = workload_rng("cold-exact", seed)
    size = int(np.prod(COLD_DIMS))
    magnitudes = rng.random((count, size))
    phases = rng.random((count, size)) * 2.0 * np.pi
    states = magnitudes * np.exp(1j * phases)
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def distinct_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` distinct ``rng`` parameters for the random family."""
    rng = workload_rng(workload, seed)
    values: list[int] = []
    seen: set[int] = set()
    while len(values) < count:
        value = int(rng.integers(0, 2**62))
        if value not in seen:
            seen.add(value)
            values.append(value)
    return values


def sample_indices(workload: str, seed: int, count: int, size: int) -> list[int]:
    """A seeded sample of ``size`` job positions out of ``count``."""
    rng = workload_rng(workload + "/oracle", seed)
    return sorted(int(i) for i in rng.choice(count, min(size, count), replace=False))


@dataclass(frozen=True)
class WireRequest:
    """One ``/v1/prepare`` request of ``serve-small``.

    Attributes:
        index: Number of the request, unique across both connections.
        job: The wire job document.
        fresh: ``True`` when no earlier request asked for this state.
    """

    index: int
    job: dict
    fresh: bool

    @property
    def body(self) -> bytes:
        return json.dumps(self.job).encode()


def _phased(dims: tuple[int, ...], digits: list[tuple[int, ...]], rng) -> list:
    """Equal-weight superposition of the basis states ``digits`` with
    seeded relative phases, as wire ``[re, im]`` pairs."""
    amplitudes = np.zeros(int(np.prod(dims)), dtype=np.complex128)
    phases = rng.random(len(digits)) * 2.0 * np.pi
    for basis, phase in zip(digits, phases):
        amplitudes[np.ravel_multi_index(basis, dims)] = np.exp(1j * phase)
    amplitudes /= np.sqrt(len(digits))
    return [[float(a.real), float(a.imag)] for a in amplitudes]


def fresh_wire_job(
    rng: np.random.Generator, dims: tuple[int, ...], family: str
) -> dict:
    """A state over ``dims`` that no earlier request named: a GHZ- or
    W-shaped state with seeded relative phases (sent as amplitudes), or
    a random-family state with a fresh ``rng`` parameter."""
    if family == "random":
        return {
            "family": "random",
            "dims": list(dims),
            "params": {"rng": int(rng.integers(0, 2**62))},
        }
    if family == "ghz":
        digits = [(level,) * len(dims) for level in range(min(dims))]
    else:
        digits = [
            tuple(1 if qudit == excited else 0 for qudit in range(len(dims)))
            for excited in range(len(dims))
        ]
    return {"amplitudes": _phased(dims, digits, rng), "dims": list(dims)}


def wire_requests(
    seed: int, pairs: int, connections: int
) -> list[list[WireRequest]]:
    """Per connection, ``pairs`` fresh requests each followed by a repeat
    of one of its :data:`REPEAT_WINDOW` latest fresh requests.

    Fresh requests go through every (register, family) pair in a
    shuffled order before any pair comes round again, so every seed
    sends nearly the same mix and ``ops_mean`` hardly depends on it.
    """
    rng = workload_rng("serve-small", seed)
    kinds = [(dims, family) for dims in SERVE_REGISTERS for family in SERVE_FAMILIES]
    plans: list[list[WireRequest]] = []
    index = 0
    for _ in range(connections):
        plan: list[WireRequest] = []
        recent: list[dict] = []
        order: list[int] = []
        for _ in range(pairs):
            if not order:
                order = list(rng.permutation(len(kinds)))
            job = fresh_wire_job(rng, *kinds[order.pop()])
            plan.append(WireRequest(index, job, True))
            recent = (recent + [job])[-REPEAT_WINDOW:]
            repeat = recent[int(rng.integers(len(recent)))]
            plan.append(WireRequest(index + 1, repeat, False))
            index += 2
        plans.append(plan)
    return plans


def wire_target(job: dict) -> np.ndarray:
    """The normalised state a wire job asks for."""
    if "amplitudes" in job:
        amplitudes = np.array(
            [complex(re, im) for re, im in job["amplitudes"]]
        )
        return amplitudes / np.linalg.norm(amplitudes)
    from repro.states.random_states import random_state

    return random_state(tuple(job["dims"]), rng=job["params"]["rng"]).amplitudes
