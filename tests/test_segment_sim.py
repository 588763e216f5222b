"""Tests for the segment kernel behind simulation and verification."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_statevector
from repro.circuit.circuit import Circuit
from repro.circuit.controls import Control
from repro.circuit.gates import (
    ClockGate,
    FourierGate,
    GivensRotation,
    PermutationGate,
    PhaseRotation,
    ShiftGate,
    UnitaryGate,
)
from repro.core.preparation import prepare_state
from repro.core.synthesis import synthesize_preparation
from repro.core.verification import prepared_state, verify_preparation
from repro.dd.builder import build_dd
from repro.exceptions import PipelineConfigError, SimulationError
from repro.pipeline.config import PipelineConfig
from repro.simulator.statevector_sim import (
    GateMatrixCache,
    run_segments_inplace,
    simulate,
    simulate_inplace,
)
from repro.states.fidelity import fidelity
from repro.states.library import ghz_state, w_state
from repro.states.random_states import random_state
from repro.states.statevector import StateVector

ATOL = 1e-12


def _zero_buffer(circuit: Circuit) -> np.ndarray:
    buffer = np.zeros(circuit.register.size, dtype=np.complex128)
    buffer[0] = 1.0
    return buffer


def _inplace_result(
    circuit: Circuit, initial: np.ndarray | None = None
) -> np.ndarray:
    buffer = (
        _zero_buffer(circuit) if initial is None
        else np.array(initial, dtype=np.complex128)
    )
    return simulate_inplace(circuit, buffer)


def _segment_result(
    circuit: Circuit, initial: np.ndarray | None = None
) -> np.ndarray:
    buffer = (
        _zero_buffer(circuit) if initial is None
        else np.array(initial, dtype=np.complex128)
    )
    return run_segments_inplace(circuit, buffer)


def _assert_matches_inplace(
    circuit: Circuit, initial: np.ndarray | None = None
) -> None:
    np.testing.assert_allclose(
        _segment_result(circuit, initial),
        _inplace_result(circuit, initial),
        atol=ATOL, rtol=0.0,
    )


def _random_unitary(dimension: int, rng: np.random.Generator):
    raw = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
        size=(dimension, dimension)
    )
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


DIMS = st.lists(
    st.integers(min_value=2, max_value=4), min_size=1, max_size=4
).map(tuple)


@st.composite
def random_circuits(draw):
    """A random mixed-dimensional circuit of assorted gates.

    Targets, control patterns, and gate kinds are all randomised, and
    a gate repeats the previous gate's ``(target, controls)`` pair
    half the time, so examples mix long segments, segments broken by
    a change of controls, and opaque gates inside and between them.
    """
    dims = draw(DIMS)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    num_gates = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(seed)
    circuit = Circuit(dims)
    target, controls = 0, ()
    for index in range(num_gates):
        if index == 0 or rng.random() < 0.5:
            target = int(rng.integers(0, len(dims)))
            others = [q for q in range(len(dims)) if q != target]
            num_controls = int(rng.integers(0, len(others) + 1))
            chosen = rng.choice(
                others, size=num_controls, replace=False
            ) if num_controls else []
            controls = tuple(
                Control(int(q), int(rng.integers(0, dims[q])))
                for q in chosen
            )
        d = dims[target]
        i, j = sorted(
            int(x) for x in rng.choice(d, size=2, replace=False)
        )
        kind = int(rng.integers(0, 8))
        if kind <= 1:
            circuit.append(GivensRotation(
                target, i, j,
                float(rng.uniform(-np.pi, np.pi)),
                float(rng.uniform(-np.pi, np.pi)),
                controls,
            ))
        elif kind == 2:
            circuit.append(PhaseRotation(
                target, i, j,
                float(rng.uniform(-np.pi, np.pi)), controls,
            ))
        elif kind == 3:
            circuit.append(ShiftGate(
                target, int(rng.integers(1, d + 1)), controls
            ))
        elif kind == 4:
            circuit.append(ClockGate(
                target, int(rng.integers(1, d + 1)), controls
            ))
        elif kind == 5:
            circuit.append(FourierGate(target, controls))
        elif kind == 6:
            circuit.append(PermutationGate(
                target, [int(p) for p in rng.permutation(d)], controls
            ))
        else:
            circuit.append(UnitaryGate(
                target, _random_unitary(d, rng), controls
            ))
    if draw(st.booleans()):
        circuit.add_global_phase(float(rng.uniform(-np.pi, np.pi)))
    return circuit


class _OpaqueOperation:
    """A gate-shaped object outside the :class:`Gate` hierarchy.

    Duck-types everything the kernels touch; the segment kernel takes
    its generic ``matrix(d) @ m`` path for it.
    """

    name = "opaque"

    def __init__(self, target: int):
        self.target = target
        self.controls = ()

    def validate(self, dims) -> None:
        pass

    def _parameters(self) -> tuple:
        return ()

    def matrix(self, dimension: int) -> np.ndarray:
        return np.eye(dimension, dtype=np.complex128) * 1j


class TestSegmentsMatchInplace:
    @given(random_circuits())
    @settings(max_examples=80, deadline=None)
    def test_property_zero_state(self, circuit):
        _assert_matches_inplace(circuit)

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_property_random_initial(self, circuit):
        initial = random_statevector(circuit.dims, seed=17)
        produced = simulate(circuit, initial)
        np.testing.assert_allclose(
            produced.amplitudes,
            _inplace_result(circuit, initial.amplitudes),
            atol=ATOL, rtol=0.0,
        )

    @pytest.mark.parametrize(
        "dims", [(2,), (3, 2), (2, 3, 4), (3, 3, 3, 2)]
    )
    def test_synthesised_circuits(self, dims):
        target = random_statevector(dims, seed=5)
        circuit = synthesize_preparation(build_dd(target))
        _assert_matches_inplace(circuit)
        produced = _segment_result(circuit)
        assert abs(np.vdot(target.amplitudes, produced)) ** 2 == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_ghz_circuit(self):
        state = ghz_state((2, 3, 2, 2))
        circuit = synthesize_preparation(build_dd(state))
        assert verify_preparation(circuit, state) == pytest.approx(
            1.0, abs=1e-9
        )
        _assert_matches_inplace(circuit)

    def test_empty_circuit(self):
        circuit = Circuit((3, 2))
        np.testing.assert_array_equal(
            _segment_result(circuit), _zero_buffer(circuit)
        )

    def test_global_phase(self):
        circuit = Circuit((2, 2))
        circuit.add_global_phase(1.25)
        np.testing.assert_allclose(
            _segment_result(circuit),
            np.exp(1.25j) * _zero_buffer(circuit),
            atol=ATOL, rtol=0.0,
        )
        circuit.append(GivensRotation(1, 0, 1, 0.8, -0.3))
        _assert_matches_inplace(circuit)

    def test_nonzero_initial_state(self):
        circuit = Circuit((3, 2, 4))
        circuit.append(GivensRotation(2, 0, 3, 0.7, 0.1, ((0, 2),)))
        circuit.append(PhaseRotation(2, 1, 3, -0.4, ((0, 2),)))
        circuit.append(GivensRotation(0, 1, 2, 1.1, 0.6, ((1, 1),)))
        initial = random_statevector(circuit.dims, seed=29)
        _assert_matches_inplace(circuit, initial.amplitudes)
        produced = simulate(circuit, initial)
        # simulate() leaves its input alone.
        np.testing.assert_array_equal(
            initial.amplitudes,
            random_statevector(circuit.dims, seed=29).amplitudes,
        )
        np.testing.assert_allclose(
            produced.amplitudes,
            _inplace_result(circuit, initial.amplitudes),
            atol=ATOL, rtol=0.0,
        )

    def test_runs_broken_by_a_change_of_controls(self):
        # Same target throughout, but the control level flips mid-run:
        # each flip opens a new segment acting on a different
        # subspace, so merging across it would be wrong.
        circuit = Circuit((2, 3))
        for level in (0, 0, 1, 1, 0, 1):
            circuit.append(GivensRotation(
                1, 0, 2, 0.3 + level, 0.2, ((0, level),)
            ))
            circuit.append(PhaseRotation(1, 1, 2, 0.5, ((0, level),)))
        # Dropping the control is a change too.
        circuit.append(GivensRotation(1, 1, 2, 0.9, 0.0))
        initial = random_statevector(circuit.dims, seed=3)
        _assert_matches_inplace(circuit, initial.amplitudes)

    def test_order_critical_interleaving(self):
        # Alternating targets where each gate's control sits on the
        # other's target: every gate is its own segment.
        circuit = Circuit((2, 2))
        for turn in range(6):
            if turn % 2 == 0:
                circuit.append(GivensRotation(
                    0, 0, 1, 0.3 + turn, 0.2, ((1, 1),)
                ))
            else:
                circuit.append(GivensRotation(
                    1, 0, 1, 0.9 - turn, 0.5, ((0, 1),)
                ))
        initial = random_statevector(circuit.dims, seed=8)
        _assert_matches_inplace(circuit, initial.amplitudes)

    @pytest.mark.parametrize(
        "opaque",
        [
            lambda t, c: ShiftGate(t, 1, c),
            lambda t, c: ClockGate(t, 2, c),
            lambda t, c: FourierGate(t, c),
            lambda t, c: PermutationGate(t, [2, 0, 1], c),
            lambda t, c: UnitaryGate(
                t, _random_unitary(3, np.random.default_rng(4)), c
            ),
        ],
        ids=["shift", "clock", "fourier", "permutation", "unitary"],
    )
    def test_opaque_gates_inside_and_between_segments(self, opaque):
        controls = ((0, 1),)
        circuit = Circuit((2, 3, 2))
        # Inside a segment: same (target, controls) as its neighbours.
        circuit.append(GivensRotation(1, 0, 1, 0.4, 0.2, controls))
        circuit.append(opaque(1, controls))
        circuit.append(PhaseRotation(1, 0, 2, 0.7, controls))
        # Between segments: different controls on either side.
        circuit.append(opaque(1, ()))
        circuit.append(GivensRotation(1, 1, 2, -0.6, 0.9, ((2, 0),)))
        circuit.append(opaque(1, controls))
        circuit.append(GivensRotation(0, 0, 1, 1.3, 0.1))
        initial = random_statevector(circuit.dims, seed=12)
        _assert_matches_inplace(circuit)
        _assert_matches_inplace(circuit, initial.amplitudes)

    def test_operation_outside_gate_hierarchy(self):
        circuit = Circuit((2, 3))
        circuit.append(GivensRotation(1, 0, 1, 0.4, 0.0))
        circuit._gates.append(_OpaqueOperation(1))
        circuit.append(GivensRotation(1, 1, 2, 0.2, 0.3))
        _assert_matches_inplace(circuit)

    def test_rejects_wrong_buffer(self):
        circuit = Circuit((2, 2))
        circuit.append(GivensRotation(0, 0, 1, 0.1, 0.0))
        with pytest.raises(SimulationError):
            run_segments_inplace(
                circuit, np.zeros(3, dtype=np.complex128)
            )

    def test_simulate_rejects_register_mismatch(self):
        circuit = Circuit((2, 2))
        with pytest.raises(SimulationError):
            simulate(circuit, random_statevector((2, 3), seed=0))


class TestVerification:
    def test_prepared_state_matches_inplace(self):
        target = random_statevector((3, 2, 4), seed=23)
        circuit = synthesize_preparation(build_dd(target))
        np.testing.assert_allclose(
            prepared_state(circuit).amplitudes,
            _inplace_result(circuit),
            atol=ATOL, rtol=0.0,
        )
        assert verify_preparation(circuit, target) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_verify_preparation_matches_inplace_fidelity(self):
        target = random_statevector((3, 2, 4), seed=23)
        circuit = synthesize_preparation(build_dd(target))
        circuit.append(GivensRotation(1, 0, 1, 0.05, 0.3))
        expected = fidelity(
            target.normalized(),
            StateVector(_inplace_result(circuit), circuit.register),
        )
        assert expected < 1.0 - 1e-6
        assert verify_preparation(circuit, target) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize(
        "state",
        [
            w_state((2, 3, 2)),
            ghz_state((3, 2, 4)),
            random_statevector((2, 3, 2), seed=19),
        ],
        ids=["w", "ghz", "random"],
    )
    def test_verify_pass(self, state):
        result = prepare_state(state)
        assert result.report.fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2)])
    def test_verify_pass_transpiled_ancilla(self, dims):
        # Two-qudit transpilation of a dense state (multi-controlled
        # ladders) grows the register by an ancilla; VerifyPass must
        # project onto the ancilla-|0> subspace before comparing.
        state = random_statevector(dims, seed=41)
        result = prepare_state(
            state, config=PipelineConfig(transpile="two_qudit")
        )
        circuit = result.circuit
        assert len(circuit.dims) == len(dims) + 1
        _assert_matches_inplace(circuit)
        produced = _inplace_result(circuit).reshape(state.size, -1)
        expected = fidelity(
            state.normalized(), StateVector(produced[:, 0], state.dims)
        )
        assert result.report.fidelity == pytest.approx(
            expected, abs=1e-12
        )
        assert result.report.fidelity == pytest.approx(1.0, abs=1e-9)


class TestNoRetainedState:
    def test_fresh_circuits_are_not_pinned(self):
        # Verification keeps no process-wide memo, so nothing outlives
        # the result a caller drops.
        rng = np.random.default_rng(7)
        circuits = []
        for _ in range(20):
            result = prepare_state(random_state((2, 3, 2, 2), rng=rng))
            assert result.report.fidelity == pytest.approx(
                1.0, abs=1e-9
            )
            circuits.append(weakref.ref(result.circuit))
            del result
        gc.collect()
        assert [ref for ref in circuits if ref() is not None] == []


class TestEngineIntegration:
    def test_engine_batch_matches_inplace_oracle(self):
        from repro.engine import PreparationEngine, PreparationJob

        jobs = [
            PreparationJob(dims=(3, 6, 2), family="ghz"),
            PreparationJob(
                dims=(4, 3), family="random", params={"rng": 3}
            ),
            PreparationJob(dims=(2, 2, 2), family="w"),
        ]
        batch = PreparationEngine().run_batch(jobs)
        for job, outcome in zip(jobs, batch.outcomes):
            assert outcome.ok
            expected = fidelity(
                job.resolve_state().normalized(),
                StateVector(
                    _inplace_result(outcome.circuit),
                    outcome.circuit.register,
                ),
            )
            assert outcome.report.fidelity == pytest.approx(
                expected, abs=1e-12
            )


class TestGateMatrixCache:
    # The per-call memo of the simulate_inplace oracle.
    def test_matrix_cache_lru_bound(self):
        cache = GateMatrixCache(maxsize=2)
        for k in range(4):
            cache.matrix(GivensRotation(0, 0, 1, 0.1 * k, 0.0), 2)
        assert len(cache) == 2
        assert cache.maxsize == 2
        cache.clear()
        assert len(cache) == 0

    def test_matrix_cache_rejects_bad_maxsize(self):
        with pytest.raises(SimulationError):
            GateMatrixCache(maxsize=0)


class TestConfig:
    def test_canonical_has_no_kernel_switch(self):
        # One verify kernel: nothing in the content-hash form names it.
        assert "fused" not in PipelineConfig().canonical()

    def test_config_rejects_removed_switch(self):
        with pytest.raises(PipelineConfigError):
            PipelineConfig.from_dict({"fused_verify": False})
