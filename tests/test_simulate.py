"""Noisy-circuit simulation: state plumbing, trajectories, the doubled run."""

import numpy as np
import pytest

import chcon.linalg as la
from chcon.channels import (
    ChannelError,
    KrausChannel,
    amplitude_damping,
    bell_state,
    completely_depolarizing,
    depolarizing,
    identity_channel,
)
from chcon.separability import BipartiteState, CcQqState, SepConfig
from chcon.simulate import (
    ClassicalLayer,
    ClassicalReg,
    GateLayer,
    InstrumentLayer,
    NoisyCircuit,
    QubitReg,
    RegisterLayout,
    apply_iid_noise,
    circuit_metrics,
    doubled_memory_experiment,
    run_noisy_circuit,
    total_probability,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def bell() -> BipartiteState:
    return BipartiteState.from_matrix(bell_state().matrix, 2, 2)


def two_qubit_layout() -> RegisterLayout:
    return RegisterLayout(qubits=(QubitReg("A0", "A"), QubitReg("B0", "B")))


def single_qubit_layout(**kw) -> RegisterLayout:
    return RegisterLayout(qubits=(QubitReg("q0", "A"),), **kw)


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ChannelError, match="unique"):
            RegisterLayout(qubits=(QubitReg("q", "A"), QubitReg("q", "A")))

    def test_qubit_cap(self):
        with pytest.raises(ChannelError, match="cap"):
            RegisterLayout(qubits=tuple(QubitReg(f"q{i}", "A") for i in range(5)))

    def test_side_ordering_enforced(self):
        with pytest.raises(ChannelError, match="precede"):
            RegisterLayout(qubits=(QubitReg("b", "B"), QubitReg("a", "A")))


class TestIidNoise:
    def test_identity_noise_is_noop(self):
        state = CcQqState.single(bell())
        out = apply_iid_noise(state, identity_channel(), two_qubit_layout())
        assert np.allclose(out.blocks[0].rho, state.blocks[0].rho)

    def test_completely_depolarizing_flattens_bell(self):
        state = CcQqState.single(bell())
        out = apply_iid_noise(state, completely_depolarizing(), two_qubit_layout())
        assert np.allclose(out.blocks[0].rho, np.eye(4) / 4, atol=1e-12)

    def test_depolarizing_makes_werner(self):
        state = CcQqState.single(bell())
        out = apply_iid_noise(state, depolarizing(0.25), two_qubit_layout())
        vis = 0.75**2
        expected = vis * bell_state().matrix + (1 - vis) * np.eye(4) / 4
        assert np.allclose(out.blocks[0].rho, expected, atol=1e-12)

    def test_classical_labels_untouched(self):
        layout = RegisterLayout(
            qubits=(QubitReg("q0", "A"),),
            classical=(ClassicalReg("c0", 3, "A"),),
        )
        state = CcQqState.from_blocks(
            2, 1, [((2,), (), 0.4, P0), ((1,), (), 0.6, P1)]
        )
        out = apply_iid_noise(state, depolarizing(0.9), layout)
        assert [(b.x, round(b.prob, 12)) for b in out.blocks] == [((2,), 0.4), ((1,), 0.6)]


class TestRunCircuit:
    def test_zero_layers_returns_input(self):
        circ = NoisyCircuit(layout=single_qubit_layout(), layers=(), noise=depolarizing(0.3))
        state = CcQqState.from_blocks(2, 1, [((), (), 1.0, P0)])
        rep = run_noisy_circuit(circ, state)
        assert np.allclose(rep.final_state.blocks[0].rho, P0)
        assert len(rep.steps) == 1

    def test_identity_layers_scale_bloch_vector(self):
        p, steps = 0.2, 6
        circ = NoisyCircuit(
            layout=single_qubit_layout(),
            layers=tuple(GateLayer(channel=identity_channel()) for _ in range(steps)),
            noise=depolarizing(p),
        )
        plus = la.bloch_state([1, 0, 0])
        state = CcQqState.from_blocks(2, 1, [((), (), 1.0, plus)])
        rep = run_noisy_circuit(circ, state)
        out_bloch = la.bloch_vector(rep.final_state.blocks[0].rho)
        assert out_bloch[0] == pytest.approx((1 - p) ** steps, abs=1e-12)

    def test_trace_preserved_along_trajectory(self):
        circ = NoisyCircuit(
            layout=single_qubit_layout(),
            layers=(GateLayer(channel=amplitude_damping(0.4)),) * 4,
            noise=depolarizing(0.1),
        )
        state = CcQqState.from_blocks(2, 1, [((), (), 1.0, la.bloch_state([0, 1, 0]))])
        rep = run_noisy_circuit(circ, state)
        for s in rep.steps:
            assert s.total_prob == pytest.approx(1.0, abs=1e-9)

    def test_measure_and_reprepare_keeps_outcome(self):
        layout = RegisterLayout(
            qubits=(QubitReg("q0", "A"),),
            classical=(ClassicalReg("c0", 2, "A"),),
        )
        meas = InstrumentLayer(outcomes=((0, (P0,)), (1, (P1,))), store="c0")
        reset = GateLayer(
            channel=KrausChannel.from_kraus(
                [np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]])]
            )
        )
        layers = (meas, reset) + tuple(GateLayer(channel=identity_channel()) for _ in range(5))
        circ = NoisyCircuit(layout=layout, layers=layers, noise=depolarizing(0.8))
        plus = la.bloch_state([1, 0, 0])
        state = CcQqState.from_blocks(2, 1, [((0,), (), 1.0, plus)])
        rep = run_noisy_circuit(circ, state)
        marginal = {}
        for b in rep.final_state.blocks:
            marginal[b.x] = marginal.get(b.x, 0.0) + b.prob
        # The depolarizing noise before the measurement shrinks nothing in Z;
        # outcomes are 50/50 and survive arbitrary later noise.
        assert marginal[(0,)] == pytest.approx(0.5, abs=1e-9)
        assert marginal[(1,)] == pytest.approx(0.5, abs=1e-9)

    def test_classical_immunity_after_trace_out(self):
        # Once the quantum part is reset at step k, the classical marginal
        # established by then is frozen for every later step, whatever the
        # noise channel is.
        def marginals_over_time(noise):
            layout = RegisterLayout(
                qubits=(QubitReg("q0", "A"),),
                classical=(ClassicalReg("c0", 2, "A"),),
            )
            meas = InstrumentLayer(outcomes=((0, (P0,)), (1, (P1,))), store="c0")
            trace_out = GateLayer(
                channel=KrausChannel.from_kraus(
                    [np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]])]
                )
            )
            circ_layers = [meas, trace_out]
            state = CcQqState.from_blocks(2, 1, [((0,), (), 1.0, la.bloch_state([0.3, 0.2, 0.8]))])
            seen = []
            for extra in range(4):
                layers = tuple(circ_layers) + tuple(
                    GateLayer(channel=identity_channel()) for _ in range(extra)
                )
                circ = NoisyCircuit(layout=layout, layers=layers, noise=noise)
                rep = run_noisy_circuit(circ, state)
                marg = {}
                for b in rep.final_state.blocks:
                    marg[b.x] = round(marg.get(b.x, 0.0) + b.prob, 12)
                seen.append(sorted(marg.items()))
            return seen

        for noise in (amplitude_damping(0.7), dephasingish(), depolarizing(0.9)):
            series = marginals_over_time(noise)
            assert all(m == series[0] for m in series[1:])

    def test_stochastic_classical_layer_splits_exactly(self):
        layout = RegisterLayout(
            qubits=(QubitReg("q0", "A"),),
            classical=(ClassicalReg("c0", 2, "A"),),
        )
        coin = ClassicalLayer(
            update={((0,), ()): [(0.25, ((0,), ())), (0.75, ((1,), ()))]}
        )
        circ = NoisyCircuit(layout=layout, layers=(coin,), noise=depolarizing(0.5))
        state = CcQqState.from_blocks(2, 1, [((0,), (), 1.0, P0)])
        rep = run_noisy_circuit(circ, state)
        probs = {b.x: b.prob for b in rep.final_state.blocks}
        assert probs[(0,)] == pytest.approx(0.25)
        assert probs[(1,)] == pytest.approx(0.75)
        # Classical layers do not count toward length and trigger no noise.
        assert circuit_metrics(circ) == (1, 0)
        assert np.allclose(rep.final_state.blocks[0].rho, P0)

    def test_noise_order_flag(self):
        # With layer-first ordering a reset gate is applied before the noise,
        # so the output carries exactly one round of noise on |0><0|.
        reset = GateLayer(
            channel=KrausChannel.from_kraus(
                [np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]])]
            )
        )
        state = CcQqState.from_blocks(2, 1, [((), (), 1.0, la.bloch_state([0, 0, -1]))])
        noise = amplitude_damping(0.5)
        circ_a = NoisyCircuit(layout=single_qubit_layout(), layers=(reset,), noise=noise,
                              noise_order="layer-first")
        rep_a = run_noisy_circuit(circ_a, state)
        assert np.allclose(rep_a.final_state.blocks[0].rho, noise.apply(P0))
        circ_b = NoisyCircuit(layout=single_qubit_layout(), layers=(reset,), noise=noise,
                              noise_order="noise-first")
        rep_b = run_noisy_circuit(circ_b, state)
        assert np.allclose(rep_b.final_state.blocks[0].rho, P0)

    def test_trailing_noise_flag(self):
        circ = NoisyCircuit(
            layout=single_qubit_layout(),
            layers=(GateLayer(channel=identity_channel()),),
            noise=depolarizing(0.4),
            trailing_noise=True,
        )
        plus = la.bloch_state([1, 0, 0])
        state = CcQqState.from_blocks(2, 1, [((), (), 1.0, plus)])
        rep = run_noisy_circuit(circ, state)
        out_bloch = la.bloch_vector(rep.final_state.blocks[0].rho)
        assert out_bloch[0] == pytest.approx(0.6**2, abs=1e-12)


def dephasingish():
    from chcon.channels import dephasing

    return dephasing(0.3)


class TestMetrics:
    def test_qubits_and_quantum_layers_only(self):
        layout = RegisterLayout(
            qubits=(QubitReg("q0", "A"),),
            classical=tuple(ClassicalReg(f"c{i}", 2, "A") for i in range(10)),
        )
        layers = tuple(GateLayer(channel=identity_channel()) for _ in range(5))
        circ = NoisyCircuit(layout=layout, layers=layers, noise=depolarizing(0.1))
        assert circuit_metrics(circ) == (1, 5)

    def test_empty_circuit(self):
        circ = NoisyCircuit(
            layout=RegisterLayout(qubits=()), layers=(), noise=depolarizing(0.1)
        )
        assert circuit_metrics(circ) == (0, 0)

    def test_doubled_dimensions(self):
        from chcon.simulate import doubled_layout

        layout = doubled_layout(2)
        circ = NoisyCircuit(
            layout=layout,
            layers=tuple(GateLayer(channel=None) for _ in range(7)),
            noise=depolarizing(0.1),
        )
        assert circuit_metrics(circ) == (4, 7)


class TestDoubledExperiment:
    def test_completely_depolarizing_kills_in_one_step(self):
        rep = doubled_memory_experiment(
            1, completely_depolarizing(), 1, bell(), p_value=1.0, sep_cfg=SepConfig()
        )
        assert rep.steps[1].chisep_value == pytest.approx(0.0, abs=1e-9)
        assert rep.endgame_step == 1
        assert rep.endgame_dsep == pytest.approx(0.0, abs=1e-9)

    def test_depolarizing_025_case(self):
        rep = doubled_memory_experiment(1, depolarizing(0.25), 3, bell(), p_value=0.375)
        factor = 1 - 0.375**2
        assert rep.extras["factor"] == pytest.approx(factor)
        # First step matches the closed-form Werner distance.
        w = 0.75**2
        expected = (1 + 3 * w) ** 2 / 8 + 9 * (1 - w) ** 2 / 8 - 1
        assert rep.steps[1].chisep_value == pytest.approx(expected, abs=1e-6)
        assert all(s.factor_ok for s in rep.steps[1:])

    @pytest.mark.parametrize("p", [0.08, 0.13, 0.3])
    def test_dephasing_warm_starts_stay_feasible(self, p):
        # Later barrier stages warm-start from iterates with an eigenvalue
        # near zero; re-projecting them used to leave the open PSD cone.
        from chcon.channels import dephasing

        rep = doubled_memory_experiment(1, dephasing(p), 3, bell(), p_value=p)
        # Both qubits scale the Bell coherence by (1 - p) per step.
        for i, s in enumerate(rep.steps):
            assert s.chisep_value == pytest.approx((1 - p) ** (4 * i), abs=1e-6)
        assert all(s.factor_ok for s in rep.steps[1:])

    def test_amplitude_damping_monotone_and_endgame(self):
        rep = doubled_memory_experiment(1, amplitude_damping(0.3), 6, bell(), seed=2)
        chis = [s.chisep_value for s in rep.steps]
        assert all(b <= a + 1e-9 for a, b in zip(chis, chis[1:]))
        assert rep.endgame_step is not None
        assert rep.endgame_dsep <= 0.25 + 1e-3

    def test_cap_exceeded(self):
        with pytest.raises(ChannelError, match="cap"):
            doubled_memory_experiment(3, depolarizing(0.2), 1, bell())

    def test_input_dimension_check(self):
        with pytest.raises(ChannelError, match="per side"):
            doubled_memory_experiment(
                2, depolarizing(0.2), 1, bell()
            )
