"""Noisy-circuit simulation: state plumbing, trajectories, the doubled run."""

import dataclasses

import numpy as np
import pytest

import chcon.linalg as la
import chcon.separability
import chcon.simulate
from chcon.channels import (
    ChannelError,
    DensityState,
    KrausChannel,
    amplitude_damping,
    bell_state,
    completely_depolarizing,
    dephasing,
    depolarizing,
    identity_channel,
)
from chcon.config import MAX_BLOCKS
from chcon.separability import BipartiteState, CcQqBlock, CcQqState
from chcon.serialize import trajectory_to_json_lines
from chcon.simulate import (
    ClassicalLayer,
    ClassicalReg,
    GateLayer,
    InstrumentLayer,
    NoisyCircuit,
    QubitReg,
    RegisterLayout,
    apply_iid_noise,
    apply_layer,
    circuit_metrics,
    doubled_memory_experiment,
    run_noisy_circuit,
    total_probability,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def bell() -> BipartiteState:
    return BipartiteState.from_matrix(bell_state().matrix, 2, 2)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.array([np.real(np.trace(p @ rho)) for p in la.PAULIS[1:]])


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


def random_density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def three_kraus_channel(rng) -> KrausChannel:
    """A random qubit channel with three Kraus operators (a 6x2 isometry)."""
    v, _ = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    return KrausChannel.from_kraus([v[2 * k: 2 * k + 2] for k in range(3)])


def noise_reference(rho: np.ndarray, noise: KrausChannel, n: int) -> np.ndarray:
    """The noise applied qubit by qubit through its row-major transfer matrix."""
    m = noise.transfer_matrix().reshape(2, 2, 2, 2)
    for q in range(n):
        t = rho.reshape(2**q, 2, 2 ** (n - q - 1), 2**q, 2, 2 ** (n - q - 1))
        t = np.einsum("abce,ucvwex->uavwbx", m, t)
        rho = t.reshape(2**n, 2**n)
    return rho


def random_blocks(rng, n: int, count: int = 3) -> CcQqState:
    probs = rng.dirichlet(np.ones(count))
    blocks = [((i,), (), p, random_density(rng, 2**n)) for i, p in enumerate(probs)]
    return CcQqState.from_blocks(2**n, 1, blocks)


def n_qubit_layout(n: int) -> RegisterLayout:
    return RegisterLayout(
        qubits=tuple(QubitReg(f"q{i}", "A") for i in range(n)),
        classical=(ClassicalReg("c0", 4, "A"),),
    )


NOISES = {
    "amplitude_damping": lambda rng: amplitude_damping(0.37),
    "three_kraus": three_kraus_channel,
    "depolarizing": lambda rng: depolarizing(0.21),
}


class TestNoiseStepReference:
    """The stacked superoperator noise step against a per-qubit transfer-matrix
    reference, on multi-block states."""

    @pytest.mark.parametrize("name", sorted(NOISES))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_transfer_matrix_reference(self, n, name):
        rng = np.random.default_rng(100 * n + len(name))
        noise = NOISES[name](rng)
        state = random_blocks(rng, n)
        out = apply_iid_noise(state, noise, n_qubit_layout(n))
        assert [(b.x, b.prob) for b in out.blocks] == [(b.x, b.prob) for b in state.blocks]
        for before, after in zip(state.blocks, out.blocks):
            assert np.abs(after.rho - noise_reference(before.rho, noise, n)).max() < 1e-12

    @pytest.mark.parametrize("order", ["noise-first", "layer-first"])
    @pytest.mark.parametrize("name", sorted(NOISES))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_noise_order_in_circuit(self, n, name, order):
        rng = np.random.default_rng(7 + 10 * n + len(name))
        noise = NOISES[name](rng)
        unitaries = [random_unitary(rng, 2**n) for _ in range(2)]
        layers = tuple(GateLayer(channel=KrausChannel.from_kraus([u])) for u in unitaries)
        circ = NoisyCircuit(layout=n_qubit_layout(n), layers=layers, noise=noise,
                            noise_order=order)
        state = random_blocks(rng, n)
        rep = run_noisy_circuit(circ, state)
        for before, after in zip(state.blocks, rep.final_state.blocks):
            rho = before.rho
            for u in unitaries:
                if order == "noise-first":
                    rho = u @ noise_reference(rho, noise, n) @ u.conj().T
                else:
                    rho = noise_reference(u @ rho @ u.conj().T, noise, n)
            assert np.abs(after.rho - rho).max() < 1e-12


class TestStoredReuse:
    """The noise step reads the channel's kept transfer matrix and the
    state's kept block stack, with results identical to fresh builds."""

    @pytest.mark.parametrize("name", sorted(NOISES))
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_noise_step_bit_identical_with_fresh_transfer_matrix(self, n, name):
        rng = np.random.default_rng(300 + 10 * n + len(name))
        noise = NOISES[name](rng)
        state = random_blocks(rng, n, count=5)
        layout = n_qubit_layout(n)
        first = apply_iid_noise(state, noise, layout).rho_stack()
        kept = noise.transfer_matrix()
        again = apply_iid_noise(state, noise, layout).rho_stack()
        assert noise.transfer_matrix() is kept
        fresh = apply_iid_noise(state, KrausChannel.from_kraus(noise.kraus), layout).rho_stack()
        assert first.tobytes() == again.tobytes() == fresh.tobytes()

    def test_rho_stack_is_the_stored_stack(self):
        rng = np.random.default_rng(12)
        state = random_blocks(rng, 2, count=4)
        layout = n_qubit_layout(2)
        noisy = apply_iid_noise(state, depolarizing(0.1), layout)
        gated = apply_layer(noisy, GateLayer(channel=KrausChannel.from_kraus([random_unitary(rng, 4)])),
                            layout)
        for st in (state, noisy, gated):
            stack = st.rho_stack()
            assert st.rho_stack() is stack
            assert not stack.flags.writeable
            assert stack.shape == (len(st.blocks), 4, 4)
            for i, blk in enumerate(st.blocks):
                assert blk.rho.base is stack or blk.rho.base is stack.base
                assert np.shares_memory(blk.rho, stack[i])
            assert "_stack" not in repr(st)
        compared = [f.name for f in dataclasses.fields(CcQqState) if f.compare]
        assert compared == ["dim_a", "dim_b", "blocks"]

    def test_directly_built_state_stacks_a_frozen_copy(self):
        state = unchecked_state([((0,), 0.5, P0), ((1,), 0.5, P1)])
        stack = state.rho_stack()
        assert not stack.flags.writeable
        assert stack.tobytes() == np.stack([P0, P1]).tobytes()


def one_qubit_memory_layout(size: int = 2) -> RegisterLayout:
    return RegisterLayout(qubits=(QubitReg("q0", "A"),), classical=(ClassicalReg("c0", size, "A"),))


def unchecked_state(blocks) -> CcQqState:
    """A cc-qq state built without validation, to feed a layer a bad block."""
    return CcQqState(
        dim_a=2, dim_b=1,
        blocks=tuple(CcQqBlock(x=x, y=(), prob=p, rho=np.asarray(r, dtype=complex))
                     for x, p, r in blocks),
    )


NOT_PSD = np.diag([1.5, -0.5]).astype(complex)
NOT_HERMITIAN = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)


class TestStackedChecks:
    """Every invariant check still fires when blocks are validated as a stack."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            (NOT_HERMITIAN, "not Hermitian"),
            (np.diag([1.0 + 2e-9, -2e-9]).astype(complex), "not positive semidefinite"),
            (np.diag([0.6, 0.5]).astype(complex), "trace differs from 1"),
        ],
    )
    def test_from_blocks_rejects_bad_block(self, bad, message):
        with pytest.raises(ChannelError) as single:
            DensityState.from_matrix(bad)
        assert message in str(single.value)
        with pytest.raises(ChannelError) as stacked:
            CcQqState.from_blocks(2, 1, [((0,), (), 0.5, P0), ((1,), (), 0.5, bad)])
        assert str(stacked.value) == str(single.value)

    def test_hermitian_residual_is_the_spectral_norm(self):
        # A - A^H = 2t i X has spectral norm 2t but Frobenius norm 2t sqrt(2).
        ax = 1j * la.PAULI_X
        ok = np.eye(2) / 2 + 0.45e-9 * ax
        CcQqState.from_blocks(2, 1, [((), (), 1.0, ok)])
        with pytest.raises(ChannelError, match="not Hermitian"):
            CcQqState.from_blocks(2, 1, [((), (), 1.0, np.eye(2) / 2 + 0.55e-9 * ax)])

    def test_gate_layer_fed_bad_block_raises(self):
        state = unchecked_state([((0,), 0.5, P0), ((1,), 0.5, NOT_PSD)])
        layer = GateLayer(channel=identity_channel())
        with pytest.raises(ChannelError, match="positive semidefinite"):
            apply_layer(state, layer, one_qubit_memory_layout())

    def test_instrument_layer_fed_bad_block_raises(self):
        state = unchecked_state([((0,), 0.5, P0), ((1,), 0.5, NOT_HERMITIAN)])
        half = np.sqrt(0.5) * np.eye(2)
        layer = InstrumentLayer(outcomes=((0, (half,)), (1, (half,))), store="c0")
        with pytest.raises(ChannelError, match="not Hermitian"):
            apply_layer(state, layer, one_qubit_memory_layout())

    def test_classical_layer_fed_bad_block_raises(self):
        state = unchecked_state([((0,), 0.5, P0), ((1,), 0.5, NOT_PSD)])
        layer = ClassicalLayer(update={})
        with pytest.raises(ChannelError, match="positive semidefinite"):
            apply_layer(state, layer, one_qubit_memory_layout())

    def test_block_cap(self):
        count = MAX_BLOCKS + 1
        state = CcQqState.from_blocks(
            2, 1, [((i,), (), 1.0 / count, P0 if i % 2 else P1) for i in range(count)]
        )
        with pytest.raises(ChannelError, match="exceeds the cap"):
            apply_layer(state, ClassicalLayer(update={}), one_qubit_memory_layout(count))

    def test_classical_merge_is_probability_weighted(self):
        plus = la.bloch_state([1, 0, 0])
        state = CcQqState.from_blocks(2, 1, [((0,), (), 0.3, P0), ((1,), (), 0.7, plus)])
        layer = ClassicalLayer(update={((1,), ()): [(1.0, ((0,), ()))]})
        out = apply_layer(state, layer, one_qubit_memory_layout())
        assert len(out.blocks) == 1
        assert out.blocks[0].x == (0,)
        assert out.blocks[0].prob == pytest.approx(1.0, abs=1e-15)
        assert np.abs(out.blocks[0].rho - (0.3 * P0 + 0.7 * plus)).max() < 1e-15


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
        out_bloch = bloch_vector(rep.final_state.blocks[0].rho)
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
        out_bloch = bloch_vector(rep.final_state.blocks[0].rho)
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
        rep = doubled_memory_experiment(1, completely_depolarizing(), 1, bell(), p_value=1.0)
        assert rep.steps[1].chisep_value == pytest.approx(0.0, abs=1e-9)
        assert rep.endgame_step == 1
        assert rep.endgame_dsep == pytest.approx(0.0, abs=1e-9)
        assert rep.endgame_dsep_converged is True

    @pytest.mark.parametrize("noise, p", [(depolarizing(0.25), 0.375), (amplitude_damping(0.3), None)])
    def test_gateless_run_is_the_identity_gate_run(self, monkeypatch, noise, p):
        gated = doubled_memory_experiment(1, noise, 6, bell(), gate=identity_channel(2), p_value=p)

        def no_gate(*args):
            raise AssertionError("a gateless doubled run applied a gate layer")

        monkeypatch.setattr(chcon.simulate, "_apply_gate_layer", no_gate)
        bare = doubled_memory_experiment(1, noise, 6, bell(), p_value=p)
        assert bare.steps == gated.steps and bare.extras == gated.extras
        assert (bare.endgame_step, bare.endgame_dsep, bare.endgame_dsep_converged) == (
            gated.endgame_step, gated.endgame_dsep, gated.endgame_dsep_converged)
        assert bare.final_state.rho_stack().tobytes() == gated.final_state.rho_stack().tobytes()

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
        assert rep.endgame_dsep_converged is True

    def test_cap_exceeded(self):
        with pytest.raises(ChannelError, match="cap"):
            doubled_memory_experiment(3, depolarizing(0.2), 1, bell())

    @pytest.mark.parametrize("p", [0, -0.5, 2, float("inf"), float("nan"), "abc", True])
    def test_channel_constant_outside_unit_interval_rejected(self, p):
        with pytest.raises(ChannelError, match=r"p in \(0, 1\]"):
            doubled_memory_experiment(1, depolarizing(0.2), 1, bell(), p_value=p)

    def test_channel_constant_one_accepted(self):
        rep = doubled_memory_experiment(1, depolarizing(0.2), 1, bell(), p_value=1)
        assert rep.extras["factor"] == 0.0

    def test_input_dimension_check(self):
        with pytest.raises(ChannelError, match="per side"):
            doubled_memory_experiment(
                2, depolarizing(0.2), 1, bell()
            )


def bell_pairs(n: int) -> BipartiteState:
    """n Bell pairs across the copies: sum_k |k>|k> / sqrt(2^n)."""
    d = 2**n
    psi = np.eye(d).reshape(d * d) / np.sqrt(d)
    return BipartiteState.from_matrix(np.outer(psi, psi), d, d)


def weak_measurement(qubit: int, store: str) -> InstrumentLayer:
    """A 70/30 weak Z measurement of one of two qubits into a register."""
    ops = [np.diag([np.sqrt(0.7), np.sqrt(0.3)]), np.diag([np.sqrt(0.3), np.sqrt(0.7)])]
    lift = [np.kron(m, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), m) for m in ops]
    return InstrumentLayer(outcomes=((0, (lift[0],)), (1, (lift[1],))), store=store)


def chisep_circuit_layers() -> tuple:
    """Measurements into both registers, a controlled local gate and a
    stochastic classical update: a two-qubit circuit of up to eight blocks."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.diag([1, 1j])
    local = KrausChannel.from_kraus([np.kron(h, s)])
    alt = KrausChannel.from_kraus([np.kron(s, h)])
    flip = ClassicalLayer(update={((1,), (0,)): [(0.7, ((1,), (1,))), (0.3, ((0,), (0,)))]})
    return (
        weak_measurement(0, "ca"),
        GateLayer(channel=local, controls={((1,), (0,)): alt}),
        flip,
        weak_measurement(1, "cb"),
        GateLayer(channel=alt),
        weak_measurement(0, "ca"),
        GateLayer(channel=local, controls={((0,), (1,)): alt}),
    )


def chisep_circuit_run(quantum_layers: int):
    layout = RegisterLayout(
        qubits=(QubitReg("a", "A"), QubitReg("b", "B")),
        classical=(ClassicalReg("ca", 2, "A"), ClassicalReg("cb", 2, "B")),
    )
    layers, count = [], 0
    for layer in chisep_circuit_layers():
        if count == quantum_layers:
            break
        layers.append(layer)
        count += not isinstance(layer, ClassicalLayer)
    circ = NoisyCircuit(layout=layout, layers=tuple(layers), noise=depolarizing(0.05))
    state = CcQqState.from_blocks(2, 2, [((0,), (0,), 1.0, bell_state().matrix)])
    return run_noisy_circuit(circ, state, record_chisep=True)


class TestTrajectoryBatches:
    """Trajectory chi-square distances are solved after the evolution, all
    steps together in chunks; a step's value does not depend on the run."""

    @pytest.mark.parametrize("n, steps", [(1, 2), (2, 1)])
    @pytest.mark.parametrize("noise", [amplitude_damping(0.2), depolarizing(0.1), dephasing(0.1)],
                             ids=["ad", "depolarizing", "dephasing"])
    def test_doubled_prefix_is_the_shorter_run(self, noise, n, steps):
        short = doubled_memory_experiment(n, noise, steps, bell_pairs(n), p_value=0.05)
        long = doubled_memory_experiment(n, noise, steps + 2, bell_pairs(n), p_value=0.05)
        short_lines = trajectory_to_json_lines(short)
        assert len(short_lines) == steps + 1
        assert trajectory_to_json_lines(long)[: steps + 1] == short_lines

    def test_circuit_prefix_is_the_shorter_run(self):
        short, long = chisep_circuit_run(3), chisep_circuit_run(5)
        assert max(s.block_count for s in long.steps) > 2
        assert all(s.chisep_value is not None for s in long.steps)
        short_lines = trajectory_to_json_lines(short)
        assert len(short_lines) == 4
        assert trajectory_to_json_lines(long)[:4] == short_lines

    def test_one_kernel_call_per_chunk(self, monkeypatch, kernel_sizes):
        # Amplitude damping keeps every step entangled: six problems.
        sizes = kernel_sizes
        doubled_memory_experiment(1, amplitude_damping(0.1), 5, bell(), p_value=0.05)
        assert sizes == [6]
        monkeypatch.setattr(chcon.separability, "CHISEP_CHUNK", 4)
        sizes.clear()
        doubled_memory_experiment(1, amplitude_damping(0.1), 5, bell(), p_value=0.05)
        assert sizes == [4, 2]

    def test_circuit_blocks_of_all_steps_share_chunks(self, monkeypatch, kernel_sizes):
        sizes = kernel_sizes
        rep = chisep_circuit_run(5)
        blocks = sum(s.block_count for s in rep.steps)
        # Every block of every step is entangled here: one call for them all.
        assert sizes == [blocks] and len(rep.steps) < blocks
        monkeypatch.setattr(chcon.separability, "CHISEP_CHUNK", 3)
        sizes.clear()
        chisep_circuit_run(5)
        # Full chunks of three, across the step boundaries.
        assert sizes == [3] * (blocks // 3) + [blocks % 3] * (blocks % 3 > 0)

    def test_chunking_leaves_the_lines_unchanged(self, monkeypatch):
        doubled = doubled_memory_experiment(1, amplitude_damping(0.2), 6, bell(), p_value=0.05)
        circuit = chisep_circuit_run(5)
        monkeypatch.setattr(chcon.separability, "CHISEP_CHUNK", 2)
        assert trajectory_to_json_lines(
            doubled_memory_experiment(1, amplitude_damping(0.2), 6, bell(), p_value=0.05)
        ) == trajectory_to_json_lines(doubled)
        assert trajectory_to_json_lines(chisep_circuit_run(5)) == trajectory_to_json_lines(circuit)
