"""One cc-qq simulator step: the two-factor Kronecker noise kernel against
explicit Kraus products, one certificate per computed block stack, the
normalized instrument weights, and classical labels checked against the
layout."""

import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

import chcon.channels as channels
import chcon.separability as separability
import chcon.simulate as simulate
from chcon.channels import (
    ChannelError,
    KrausChannel,
    amplitude_damping,
    depolarizing,
    tensor,
)
from chcon.config import TP_TOL
from chcon.sampling import random_nonunital_qubit_channel, rng_from
from chcon.separability import CcQqBlock, CcQqState
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
    run_noisy_circuit,
)

NOISES = {
    "amplitude_damping": lambda: amplitude_damping(0.37),
    "depolarizing": lambda: depolarizing(0.21),
    "random_nonunital": lambda: random_nonunital_qubit_channel(rng_from(21, 0)),
}


def random_density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def layout_for(n: int, sizes_a=(16,), sizes_b=()) -> RegisterLayout:
    """n qubits, the first ceil(n/2) on side A."""
    h = (n + 1) // 2
    qubits = tuple(QubitReg(f"q{i}", "A" if i < h else "B") for i in range(n))
    classical = tuple(ClassicalReg(f"ca{i}", s, "A") for i, s in enumerate(sizes_a))
    classical += tuple(ClassicalReg(f"cb{i}", s, "B") for i, s in enumerate(sizes_b))
    return RegisterLayout(qubits=qubits, classical=classical)


def random_state(rng, n: int, count: int) -> CcQqState:
    h = (n + 1) // 2
    probs = rng.dirichlet(np.ones(count))
    blocks = [((i,), (), p, random_density(rng, 2**n)) for i, p in enumerate(probs)]
    return CcQqState.from_blocks(2**h, 2 ** (n - h), blocks)


def kraus_product_oracle(rho: np.ndarray, noise: KrausChannel, n: int) -> np.ndarray:
    """N^{(x)n}(rho) as the sum over every n-fold product of Kraus operators."""
    out = np.zeros_like(rho)
    for ops in itertools.product(noise.kraus, repeat=n):
        k = ops[0]
        for op in ops[1:]:
            k = np.kron(k, op)
        out += k @ rho @ k.conj().T
    return out


class TestKroneckerNoiseKernel:
    @pytest.mark.parametrize("name", sorted(NOISES))
    @pytest.mark.parametrize("count", [1, 7, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_explicit_kraus_products(self, n, count, name):
        rng = np.random.default_rng(1000 * n + count + len(name))
        noise = NOISES[name]()
        state = random_state(rng, n, count)
        out = apply_iid_noise(state, noise, layout_for(n))
        assert [(b.x, b.y, b.prob) for b in out.blocks] == [(b.x, b.y, b.prob) for b in state.blocks]
        for before, after in zip(state.blocks, out.blocks):
            assert np.abs(after.rho - kraus_product_oracle(before.rho, noise, n)).max() <= 1e-14

    @pytest.mark.parametrize("trailing", [False, True])
    @pytest.mark.parametrize("order", ["noise-first", "layer-first"])
    @pytest.mark.parametrize("name", sorted(NOISES))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_noise_orders_and_trailing_noise(self, n, name, order, trailing):
        rng = np.random.default_rng(50 + 10 * n + len(name))
        noise = NOISES[name]()
        unitaries = [random_unitary(rng, 2**n) for _ in range(2)]
        circ = NoisyCircuit(
            layout=layout_for(n),
            layers=tuple(GateLayer(channel=KrausChannel.from_kraus([u])) for u in unitaries),
            noise=noise,
            noise_order=order,
            trailing_noise=trailing,
        )
        state = random_state(rng, n, 7)
        rep = run_noisy_circuit(circ, state)
        assert len(rep.steps) == 1 + len(unitaries) + trailing
        for before, after in zip(state.blocks, rep.final_state.blocks):
            rho = before.rho
            for u in unitaries:
                if order == "noise-first":
                    rho = u @ kraus_product_oracle(rho, noise, n) @ u.conj().T
                else:
                    rho = kraus_product_oracle(u @ rho @ u.conj().T, noise, n)
            if trailing:
                rho = kraus_product_oracle(rho, noise, n)
            assert np.abs(after.rho - rho).max() <= 1e-14

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_transfer_power_is_the_tensor_power_channel(self, k):
        noise = NOISES["random_nonunital"]()
        power = noise.transfer_power(k)
        assert noise.transfer_power(k) is power
        assert not power.flags.writeable
        if k == 0:
            assert power.tolist() == [[1]]
            return
        product = noise
        for _ in range(k - 1):
            product = tensor(product, noise)
        assert np.abs(power - product.transfer_matrix()).max() <= 1e-15

    def test_kernel_uses_no_tensordot(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("tensordot called")

        monkeypatch.setattr(np, "tensordot", forbidden)
        state = random_state(np.random.default_rng(3), 4, 5)
        apply_iid_noise(state, depolarizing(0.1), layout_for(4))


class CountingCheck:
    def __init__(self, original):
        self.original = original
        self.calls = 0

    def __call__(self, ms):
        self.calls += 1
        return self.original(ms)


@pytest.fixture
def checks(monkeypatch):
    counter = CountingCheck(simulate.check_density_stack)
    monkeypatch.setattr(simulate, "check_density_stack", counter)
    return counter


def weak_measurement(strength: float, qubit: int, n: int):
    a, b = np.sqrt((1 + strength) / 2), np.sqrt((1 - strength) / 2)
    ops = []
    for m in (np.diag([a, b]), np.diag([b, a])):
        factors = [np.eye(2)] * n
        factors[qubit] = m
        k = factors[0]
        for f in factors[1:]:
            k = np.kron(k, f)
        ops.append(k.astype(complex))
    return ops


def memory_circuit(rng, noise_order: str, trailing: bool) -> NoisyCircuit:
    """2+2 qubits, one two-valued register per side: weak measurements, gates
    controlled by the registers, stochastic classical updates."""
    layout = layout_for(4, sizes_a=(2,), sizes_b=(2,))
    layers = []
    for k in range(3):
        m0, m1 = weak_measurement(0.4, k % 4, 4)
        layers.append(InstrumentLayer(outcomes=((0, (m0,)), (1, (m1,))), store="ca0" if k % 2 == 0 else "cb0"))
        base = KrausChannel.from_kraus([random_unitary(rng, 16)])
        alt = KrausChannel.from_kraus([random_unitary(rng, 16)])
        layers.append(GateLayer(channel=base, controls={((1,), (0,)): alt}))
        flip = {((xa,), (yb,)): [(0.8, ((xa,), (xa,))), (0.2, ((1 - xa,), (1 - xa,)))]
                for xa in range(2) for yb in range(2)}
        layers.append(ClassicalLayer(update=flip))
        layers.append(GateLayer(channel=KrausChannel.from_kraus([random_unitary(rng, 16)])))
    return NoisyCircuit(layout=layout, layers=tuple(layers), noise=amplitude_damping(0.05),
                        noise_order=noise_order, trailing_noise=trailing)


class TestOneCertificatePerComputedStack:
    @pytest.mark.parametrize("trailing", [False, True])
    @pytest.mark.parametrize("order", ["noise-first", "layer-first"])
    def test_check_count_of_a_run(self, checks, order, trailing):
        circ = memory_circuit(np.random.default_rng(8), order, trailing)
        state = CcQqState.from_blocks(4, 4, [((0,), (0,), 1.0, np.diag([1.0] + [0.0] * 15))])
        rep = run_noisy_circuit(circ, state)
        quantum = sum(1 for layer in circ.layers if not isinstance(layer, ClassicalLayer))
        noise_rounds = quantum + trailing
        assert checks.calls == noise_rounds + quantum
        assert max(s.block_count for s in rep.steps) == 4

    def test_one_check_per_noise_gate_and_instrument_none_per_classical(self, checks):
        circ = memory_circuit(np.random.default_rng(9), "noise-first", False)
        state = CcQqState.from_blocks(4, 4, [((0,), (0,), 1.0, np.diag([1.0] + [0.0] * 15))])
        state = apply_iid_noise(state, circ.noise, circ.layout)
        assert checks.calls == 1
        for layer in circ.layers:
            before = checks.calls
            state = apply_layer(state, layer, circ.layout)
            expected = 0 if isinstance(layer, ClassicalLayer) else 1
            assert checks.calls - before == expected, type(layer).__name__

    def test_copied_blocks_of_a_gate_layer_are_not_checked(self, checks):
        rng = np.random.default_rng(4)
        state = random_state(rng, 2, 4)
        gate = KrausChannel.from_kraus([random_unitary(rng, 4)])
        # Only the block labelled (2,) runs a channel; the others are copies.
        layer = GateLayer(channel=None, controls={((2,), ()): gate})
        out = apply_layer(state, layer, layout_for(2))
        assert checks.calls == 1
        assert out.rho_stack()[[0, 1, 3]].tobytes() == state.rho_stack()[[0, 1, 3]].tobytes()
        assert np.abs(out.blocks[2].rho - gate.apply(state.blocks[2].rho)).max() <= 1e-15
        apply_layer(state, GateLayer(channel=None), layout_for(2))
        assert checks.calls == 1

    def test_directly_built_state_is_checked_by_rho_stack(self, monkeypatch):
        counter = CountingCheck(separability.check_density_stack)
        monkeypatch.setattr(separability, "check_density_stack", counter)
        rho = np.diag([1.0, 0.0]).astype(complex)
        state = CcQqState(dim_a=2, dim_b=1, blocks=(CcQqBlock(x=(0,), y=(), prob=1.0, rho=rho),))
        layout = layout_for(1, sizes_a=(2,))
        out = apply_layer(state, ClassicalLayer(update={}), layout)
        assert counter.calls == 1
        out.rho_stack()
        assert counter.calls == 1
        bad = CcQqState(dim_a=2, dim_b=1, blocks=(CcQqBlock(x=(0,), y=(), prob=1.0, rho=2 * rho),))
        with pytest.raises(ChannelError, match="trace differs"):
            bad.rho_stack()

    def test_ccqq_blocks_read_the_certified_stack(self, monkeypatch):
        state = random_state(np.random.default_rng(5), 2, 3)
        counter = CountingCheck(separability.check_density_stack)
        monkeypatch.setattr(separability, "check_density_stack", counter)
        monkeypatch.setattr(channels, "check_density_stack", counter)
        blocks = separability._ccqq_blocks(state)
        assert counter.calls == 0
        assert all(b.matrix.tobytes() == blk.rho.tobytes() for b, blk in zip(blocks, state.blocks))
        # A directly built state is checked once, as one stack.
        rho = np.diag([1.0, 0.0]).astype(complex)
        direct = CcQqState(dim_a=2, dim_b=1, blocks=(
            CcQqBlock(x=(0,), y=(), prob=0.5, rho=rho), CcQqBlock(x=(1,), y=(), prob=0.5, rho=rho)))
        assert len(separability._ccqq_blocks(direct)) == 2 and counter.calls == 1
        bad = CcQqState(dim_a=2, dim_b=1, blocks=(CcQqBlock(x=(0,), y=(), prob=1.0, rho=2 * rho),))
        with pytest.raises(ChannelError, match="trace differs"):
            separability._ccqq_blocks(bad)

    def test_relabelling_keeps_the_stack_bit_for_bit(self):
        rng = np.random.default_rng(6)
        state = random_state(rng, 2, 3)
        layer = ClassicalLayer(update={((i,), ()): [(1.0, ((i + 5,), ()))] for i in range(3)})
        out = apply_layer(state, layer, layout_for(2))
        assert [b.x for b in out.blocks] == [(5,), (6,), (7,)]
        assert out.rho_stack().tobytes() == state.rho_stack().tobytes()

    def test_merged_blocks_are_probability_weighted_mixtures(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 2, 4)
        layer = ClassicalLayer(update={((i,), ()): [(1.0, ((i % 2,), ()))] for i in range(4)})
        out = apply_layer(state, layer, layout_for(2))
        assert [b.x for b in out.blocks] == [(0,), (1,)]
        for parity, blk in enumerate(out.blocks):
            members = [b for b in state.blocks if b.x[0] % 2 == parity]
            total = sum(b.prob for b in members)
            assert blk.prob == pytest.approx(total, abs=1e-16)
            mixture = sum(b.prob * b.rho for b in members) / total
            assert np.abs(blk.rho - mixture).max() <= 1e-15


def scaled_measurement(scale: float):
    """A projective Z measurement of the first of two qubits, every Kraus
    operator scaled by ``scale``: trace-preservation residual ``scale^2 - 1``."""
    p0 = np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex)
    p1 = np.kron(np.diag([0.0, 1.0]), np.eye(2)).astype(complex)
    return InstrumentLayer(outcomes=((0, (scale * p0,)), (1, (scale * p1,))), store="ca0")


def reference_instrument(state: CcQqState, layer: InstrumentLayer):
    """(label, probability, matrix) per kept outcome block, with outcome
    probabilities ``Tr post_o`` taken as they are, one outcome at a time."""
    out = []
    for blk in state.blocks:
        for value, ops in layer.outcomes:
            post = KrausChannel.from_kraus(ops).apply(blk.rho)
            p = np.trace(post).real
            if p > 1e-15:
                out.append(((value,) + blk.x[1:], blk.prob * p, post / p))
    return out


class TestInstrumentWeights:
    def test_residual_inside_the_tolerance_runs(self):
        layer = scaled_measurement(np.sqrt(1.0 + 1e-10))
        assert 1e-11 < KrausChannel.from_kraus([k for _, ops in layer.outcomes for k in ops]).tp_residual() <= TP_TOL
        plus = np.full((4, 4), 0.25, dtype=complex)
        state = CcQqState.from_blocks(2, 2, [((0,), (), 1.0, plus)])
        circ = NoisyCircuit(layout=layout_for(2, sizes_a=(2,)), layers=(layer,) * 6,
                            noise=depolarizing(0.05))
        rep = run_noisy_circuit(circ, state)
        for step in rep.steps:
            assert abs(step.total_prob - 1.0) <= 1e-15

    def test_residual_beyond_the_tolerance_is_rejected(self):
        layer = scaled_measurement(np.sqrt(1.0 + 1e-8))
        state = CcQqState.from_blocks(2, 2, [((0,), (), 1.0, np.eye(4) / 4)])
        with pytest.raises(ChannelError, match="trace-preserving"):
            apply_layer(state, layer, layout_for(2, sizes_a=(2,)))

    def test_exact_instrument_matches_per_outcome_reference(self):
        rng = np.random.default_rng(11)
        # Two Kraus operators per outcome: a random 4-outcome isometry, split in pairs.
        v, _ = np.linalg.qr(rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4)))
        ops = [v[4 * k: 4 * k + 4] for k in range(4)]
        layer = InstrumentLayer(outcomes=((1, (ops[0], ops[1])), (0, (ops[2], ops[3]))), store="ca0")
        probs = rng.dirichlet(np.ones(5))
        state = CcQqState.from_blocks(
            2, 2, [((0, i), (), p, random_density(rng, 4)) for i, p in enumerate(probs)]
        )
        out = apply_layer(state, layer, layout_for(2, sizes_a=(2, 5)))
        expected = reference_instrument(state, layer)
        assert [b.x for b in out.blocks] == [label for label, _, _ in expected]
        for blk, (_, p, rho) in zip(out.blocks, expected):
            assert abs(blk.prob - p) <= 1e-15
            assert np.abs(blk.rho - rho).max() <= 1e-15

    def test_total_probability_does_not_drift(self):
        rng = np.random.default_rng(12)
        layers = []
        for k in range(24):
            m0, m1 = weak_measurement(0.35, k % 4, 4)
            layers.append(InstrumentLayer(outcomes=((0, (m0,)), (1, (m1,))),
                                          store="ca0" if k % 2 else "cb0"))
            layers.append(GateLayer(channel=KrausChannel.from_kraus([random_unitary(rng, 16)])))
        circ = NoisyCircuit(layout=layout_for(4, sizes_a=(2,), sizes_b=(2,)), layers=tuple(layers),
                            noise=depolarizing(0.03))
        state = CcQqState.from_blocks(4, 4, [((0,), (0,), 1.0, random_density(rng, 16))])
        rep = run_noisy_circuit(circ, state)
        assert max(abs(s.total_prob - 1.0) for s in rep.steps) <= 1e-15

    def test_outcome_without_kraus_operators_is_rejected(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        layer = InstrumentLayer(outcomes=((0, ()), (1, (np.eye(2, dtype=complex),))), store="ca0")
        state = CcQqState.from_blocks(2, 1, [((0,), (), 1.0, p0)])
        with pytest.raises(ChannelError, match="no Kraus operators"):
            apply_layer(state, layer, layout_for(1, sizes_a=(2,)))


class TestLabelsAgainstLayout:
    def one_register_circuit(self, layers) -> NoisyCircuit:
        return NoisyCircuit(layout=layout_for(1, sizes_a=(2,)), layers=tuple(layers),
                            noise=depolarizing(0.1))

    @pytest.mark.parametrize("x, y", [((), ()), ((0, 0), ()), ((2,), ()), ((0,), (0,)), ((-1,), ())],
                             ids=["short", "long", "out-of-range", "extra-side", "negative"])
    def test_input_labels_must_fit(self, x, y):
        p1 = np.diag([0.0, 1.0]).astype(complex)
        layer = InstrumentLayer(outcomes=((0, (np.diag([1.0, 0.0]),)), (1, (p1,))), store="ca0")
        state = CcQqState.from_blocks(2, 1, [(x, y, 1.0, np.eye(2) / 2)])
        with pytest.raises(ChannelError, match="does not fit"):
            run_noisy_circuit(self.one_register_circuit([layer]), state)

    @pytest.mark.parametrize("successor", [
        (1.0, ((7, 3, 9), (4,))),
        (1.0, ((2,), ())),
        (1.0, ((0,), (0,))),
        (1.0, ((1.0,), ())),
        (1.0, (("1",), ())),
    ], ids=["wrong-lengths", "out-of-range", "extra-side", "float", "string"])
    def test_successor_labels_must_fit(self, successor):
        layer = ClassicalLayer(update={((0,), ()): [successor]})
        state = CcQqState.from_blocks(2, 1, [((0,), (), 1.0, np.eye(2) / 2)])
        with pytest.raises(ChannelError, match="does not fit"):
            apply_layer(state, layer, layout_for(1, sizes_a=(2,)))

    def test_unreached_successors_are_checked_too(self):
        layer = ClassicalLayer(update={((1,), ()): [(1.0, ((5,), ()))]})
        state = CcQqState.from_blocks(2, 1, [((0,), (), 1.0, np.eye(2) / 2)])
        with pytest.raises(ChannelError, match="does not fit"):
            apply_layer(state, layer, layout_for(1, sizes_a=(2,)))

    def test_unreached_source_total_is_checked_too(self):
        layer = ClassicalLayer(update={((1,), ()): [(0.5, ((0,), ()))]})
        state = CcQqState.from_blocks(2, 1, [((0,), (), 1.0, np.eye(2) / 2)])
        with pytest.raises(ChannelError, match="total probability 0.5"):
            apply_layer(state, layer, layout_for(1, sizes_a=(2,)))

    @pytest.mark.parametrize("p", [-0.5, float("nan"), float("inf")])
    def test_successor_probability_must_be_finite_and_non_negative(self, p):
        layer = ClassicalLayer(update={((0,), ()): [(p, ((0,), ())), (1.0 - p, ((1,), ()))]})
        state = CcQqState.from_blocks(2, 1, [((0,), (), 1.0, np.eye(2) / 2)])
        with pytest.raises(ChannelError, match="successor probability"):
            apply_layer(state, layer, layout_for(1, sizes_a=(2,)))

    def test_numpy_integer_labels_are_read_as_ints(self):
        layer = ClassicalLayer(update={((0,), ()): [(1.0, ((np.int64(1),), ()))]})
        state = CcQqState.from_blocks(2, 1, [((0,), (), 1.0, np.eye(2) / 2)])
        out = apply_layer(state, layer, layout_for(1, sizes_a=(2,)))
        assert out.blocks[0].x == (1,) and type(out.blocks[0].x[0]) is int


def cli_circuit(input_state=None, layers=()) -> dict:
    circuit = {
        "layout": {"qubits": [{"label": "q0", "side": "A"}],
                   "classical": [{"label": "c0", "size": 2, "side": "A"}]},
        "noise": {"preset": "depolarizing", "p": 0.1},
        "layers": list(layers),
    }
    if input_state is not None:
        circuit["input"] = input_state
    return circuit


MEASURE = {"kind": "instrument", "store": "c0", "outcomes": [
    {"value": 0, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]},
    {"value": 1, "kraus": [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]},
]}


def classical_to(*successors) -> dict:
    return {"kind": "classical",
            "map": [{"from": {"x": [0], "y": []}, "to": list(successors)}]}


@pytest.mark.parametrize("circuit, message", [
    (cli_circuit({"kind": "ccqq", "dimA": 2, "dimB": 1,
                  "blocks": [{"x": [], "y": [], "p": 1.0,
                              "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}]}, [MEASURE]),
     "classical label x=[] does not fit"),
    (cli_circuit(layers=[classical_to({"p": 1.0, "x": [7, 3, 9], "y": [4]})]),
     "classical label x=[7, 3, 9] does not fit"),
    (cli_circuit(layers=[classical_to({"p": -0.5, "x": [0], "y": []},
                                      {"p": 1.5, "x": [1], "y": []})]),
     "successor probability -0.5"),
], ids=["empty-input-label", "successor-lengths", "negative-probability"])
def test_cli_rejects_labels_that_do_not_fit(tmp_path, circuit, message):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit))
    res = subprocess.run([sys.executable, "-m", "chcon.cli", "simulate", str(path)],
                         capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("chcon: error: bad circuit description")
    assert message in res.stderr
    assert "Traceback" not in res.stderr
