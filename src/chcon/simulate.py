"""Density-matrix simulation of noisy circuits with free classical memory.

The model: alternating layers of arbitrary channels on the quantum
registers (optionally controlled by, measuring into, or rewriting the
classical registers) interlaced with i.i.d. single-qubit noise on every
qubit.  Classical registers are never noisy and never sampled; stochastic
updates split the state into exactly tracked (label, probability, density
matrix) blocks.

The doubled-memory experiment runs two parallel copies (sides A and B) with
separable per-step gates and tracks the chi-square distance to the
separable set across the copy bipartition, together with the per-step
contraction factor 1 - p^(2n) predicted by the channel constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .channels import ChannelError, KrausChannel, check_density_stack
from .config import CHISEP_THRESHOLD, MAX_BLOCKS, QUBIT_CAP, TP_TOL
from .decompose import p_constant
from .separability import (
    BipartiteState,
    CcQqState,
    SepConfig,
    SeparableChannel,
    block_label,
    check_total_probability,
    chisep_ccqq,
    dsep,
    local_product_channel,
)

RATIO_FLOOR = 1e-12
# Absolute slack of the per-step contraction-factor check.
FACTOR_TOL = 1e-3


# ---------------------------------------------------------------------------
# Layout and layers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QubitReg:
    label: str
    side: str = "A"


@dataclass(frozen=True)
class ClassicalReg:
    label: str
    size: int
    side: str = "A"


@dataclass(frozen=True)
class RegisterLayout:
    qubits: tuple[QubitReg, ...]
    classical: tuple[ClassicalReg, ...] = ()

    def __post_init__(self):
        labels = [q.label for q in self.qubits] + [c.label for c in self.classical]
        if len(set(labels)) != len(labels):
            raise ChannelError("register labels must be unique")
        for reg in list(self.qubits) + list(self.classical):
            if reg.side not in ("A", "B"):
                raise ChannelError("register side must be 'A' or 'B'")
        if len(self.qubits) > QUBIT_CAP:
            raise ChannelError(
                f"{len(self.qubits)} qubits exceed the desk-scale cap of {QUBIT_CAP}"
            )
        sides = [q.side for q in self.qubits]
        if "B" in sides and "A" in sides[sides.index("B"):]:
            raise ChannelError("A-side qubits must precede B-side qubits in the layout")

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def dim_a(self) -> int:
        return 2 ** sum(1 for q in self.qubits if q.side == "A")

    @property
    def dim_b(self) -> int:
        return 2 ** sum(1 for q in self.qubits if q.side == "B")

    def blank_labels(self) -> tuple[tuple, tuple]:
        x = tuple(0 for c in self.classical if c.side == "A")
        y = tuple(0 for c in self.classical if c.side == "B")
        return x, y


@dataclass(frozen=True)
class GateLayer:
    """A channel on the quantum registers, optionally selected per classical
    label; ``channel`` may be a KrausChannel or a SeparableChannel."""

    channel: object
    controls: dict | None = None


@dataclass(frozen=True)
class InstrumentLayer:
    """A quantum instrument whose outcome is written to a classical register.

    ``outcomes`` maps outcome values to Kraus-operator lists on the full
    quantum dimension; the completeness sum over all outcomes must be the
    identity.  ``store`` is the label of the classical register receiving
    the outcome.
    """

    outcomes: tuple[tuple[int, tuple[np.ndarray, ...]], ...]
    store: str


@dataclass(frozen=True)
class ClassicalLayer:
    """Stochastic or deterministic rewrite of the classical labels.

    ``update`` maps (x, y) to a list of (probability, (x, y)) successors;
    labels not listed are left unchanged.  No quantum action; does not
    count toward circuit length.
    """

    update: dict


@dataclass(frozen=True)
class NoisyCircuit:
    layout: RegisterLayout
    layers: tuple
    noise: KrausChannel
    noise_order: str = "noise-first"
    trailing_noise: bool = False

    def __post_init__(self):
        if not self.noise.is_qubit():
            raise ChannelError("the i.i.d. noise model uses a single-qubit channel")
        if self.noise_order not in ("noise-first", "layer-first"):
            raise ChannelError("noise_order must be 'noise-first' or 'layer-first'")


def circuit_metrics(c: NoisyCircuit) -> tuple[int, int]:
    """(width, length): qubit count and number of quantum layers; classical
    registers and classical layers are not counted."""
    width = c.layout.n_qubits
    length = sum(1 for layer in c.layers if not isinstance(layer, ClassicalLayer))
    return width, length


# ---------------------------------------------------------------------------
# State plumbing
# ---------------------------------------------------------------------------


def apply_iid_noise(state: CcQqState, noise: KrausChannel, layout: RegisterLayout) -> CcQqState:
    """One round of the i.i.d. noise: the single-qubit channel acts on every
    qubit in every block; classical labels and probabilities are untouched.

    The noise's transfer matrix, reshaped to ``S[a, b, c, e]`` with
    ``T(X)[a, b] = sum_ce S[a, b, c, e] X[c, e]``, is contracted with each
    qubit's (row, column) axis pair of the ``(B, d, d)`` block stack: ``n``
    tensordots per call, whatever the block and Kraus counts.  The result
    is validated as one stack.
    """
    if not noise.is_qubit():
        raise ChannelError("noise must be a qubit channel")
    n = layout.n_qubits
    d = state.dim_a * state.dim_b
    if d != 2**n:
        raise ChannelError("state dimension does not match the layout")
    sup = noise.transfer_matrix().reshape(2, 2, 2, 2)
    count = len(state.blocks)
    t = state.rho_stack().reshape((count,) + (2,) * (2 * n))
    for q in range(n):
        t = np.tensordot(sup, t, axes=([2, 3], [1 + q, 1 + n + q]))
        t = np.moveaxis(t, (0, 1), (1 + q, 1 + n + q))
    rhos = np.ascontiguousarray(t).reshape(count, d, d)
    check_density_stack(rhos)
    labels = [(b.x, b.y) for b in state.blocks]
    return CcQqState.from_checked_stack(
        state.dim_a, state.dim_b, labels, [b.prob for b in state.blocks], rhos
    )


def _merge_checked(dim_a: int, dim_b: int, labels, probs, rhos: np.ndarray) -> CcQqState:
    """Validate a layer's pre-merge block stack once, then sum the blocks that
    share a label into their probability-weighted mixture.

    Blocks of mass below 1e-15 are dropped.  A merged block is a convex
    combination of validated blocks, so by Weyl's inequality it meets the
    same Hermitian, PSD and trace bounds and is not checked again.
    """
    check_density_stack(rhos)
    check_total_probability(probs)
    groups: dict = {}
    for i, (key, p) in enumerate(zip(labels, probs)):
        if p >= 1e-15:
            groups.setdefault(key, []).append(i)
    if len(groups) > MAX_BLOCKS:
        raise ChannelError(f"block count {len(groups)} exceeds the cap of {MAX_BLOCKS}")
    weights = np.zeros((len(groups), len(probs)))
    for g, idx in enumerate(groups.values()):
        weights[g, idx] = [probs[i] for i in idx]
    totals = weights.sum(axis=1)
    merged = np.tensordot(weights / totals[:, None], rhos, axes=1)
    return CcQqState.from_checked_stack(dim_a, dim_b, list(groups), totals.tolist(), merged)


def _check_gate_input(channel, dim_a: int, dim_b: int) -> None:
    """Raise unless a gate channel acts on the (dim_a, dim_b) registers."""
    if isinstance(channel, SeparableChannel):
        if channel.a_in != dim_a or channel.b_in != dim_b:
            raise ChannelError("separable channel dimensions do not match the state")
    elif channel.in_dim != dim_a * dim_b:
        raise ChannelError(
            f"gate channel input dimension {channel.in_dim} does not match "
            f"the register dimension {dim_a * dim_b}"
        )


def _apply_gate_layer(state: CcQqState, layer: GateLayer) -> CcQqState:
    """Apply each distinct channel (the layer's, or a label's control) to its
    group of blocks with one stacked ``apply``."""
    out_a, out_b = state.dim_a, state.dim_b
    if isinstance(layer.channel, SeparableChannel):
        out_a, out_b = layer.channel.a_out, layer.channel.b_out
    d_out = out_a * out_b
    rhos = state.rho_stack()
    groups: dict = {}
    for i, blk in enumerate(state.blocks):
        channel = layer.channel
        if layer.controls is not None:
            channel = layer.controls.get((blk.x, blk.y), layer.channel)
        groups.setdefault(id(channel), (channel, []))[1].append(i)
    out = np.empty((len(rhos), d_out, d_out), dtype=complex)
    for channel, idx in groups.values():
        if channel is None:
            result = rhos[idx]
        else:
            _check_gate_input(channel, state.dim_a, state.dim_b)
            if isinstance(channel, SeparableChannel):
                channel = channel.channel
            result = channel.apply(rhos[idx])
        if result.shape[1:] != (d_out, d_out):
            raise ChannelError("block dimension mismatch")
        out[idx] = result
    labels = [(b.x, b.y) for b in state.blocks]
    return _merge_checked(out_a, out_b, labels, [b.prob for b in state.blocks], out)


def _store_outcome(layout: RegisterLayout, x: tuple, y: tuple, store: str, value: int):
    for side, labels in (("A", x), ("B", y)):
        regs = [c for c in layout.classical if c.side == side]
        for i, reg in enumerate(regs):
            if reg.label == store:
                if not 0 <= value < reg.size:
                    raise ChannelError(
                        f"outcome {value} outside register {store} alphabet of size {reg.size}"
                    )
                new = list(labels)
                new[i] = value
                if side == "A":
                    return tuple(new), y
                return x, tuple(new)
    raise ChannelError(f"no classical register labeled {store!r}")


def _apply_instrument_layer(
    state: CcQqState, layer: InstrumentLayer, layout: RegisterLayout
) -> CcQqState:
    d = state.dim_a * state.dim_b
    ops = [k for _, outcome_ops in layer.outcomes for k in outcome_ops]
    for k in ops:
        if np.shape(k) != (d, d):
            raise ChannelError(
                f"instrument operator of shape {np.shape(k)} does not act on the "
                f"{d}-dimensional register"
            )
    if not ops or KrausChannel.from_kraus(ops).tp_residual() > TP_TOL:
        raise ChannelError("instrument outcomes do not sum to a trace-preserving map")
    rhos = state.rho_stack()
    # (outcome, block) stacks of the unnormalised post-measurement states.
    posts = np.stack([KrausChannel.from_kraus(ops).apply(rhos) for _, ops in layer.outcomes])
    p_outs = np.trace(posts, axis1=-2, axis2=-1).real
    labels, probs, o_idx, b_idx = [], [], [], []
    for i, blk in enumerate(state.blocks):
        for o, (value, _) in enumerate(layer.outcomes):
            p_out = float(p_outs[o, i])
            if p_out <= 1e-15:
                continue
            x, y = _store_outcome(layout, blk.x, blk.y, layer.store, value)
            labels.append((block_label(x), block_label(y)))
            probs.append(blk.prob * p_out)
            o_idx.append(o)
            b_idx.append(i)
    out = posts[o_idx, b_idx] / p_outs[o_idx, b_idx][:, None, None]
    return _merge_checked(state.dim_a, state.dim_b, labels, probs, out)


def _apply_classical_layer(state: CcQqState, layer: ClassicalLayer) -> CcQqState:
    labels, probs, src = [], [], []
    for i, blk in enumerate(state.blocks):
        key = (blk.x, blk.y)
        successors = layer.update.get(key, [(1.0, key)])
        mass = sum(p for p, _ in successors)
        if abs(mass - 1.0) > 1e-12:
            raise ChannelError(f"classical update for {key} has total probability {mass}")
        for p, (x, y) in successors:
            if p <= 0:
                continue
            labels.append((block_label(x), block_label(y)))
            probs.append(blk.prob * p)
            src.append(i)
    return _merge_checked(state.dim_a, state.dim_b, labels, probs, state.rho_stack()[src])


def apply_layer(state: CcQqState, layer, layout: RegisterLayout) -> CcQqState:
    if isinstance(layer, GateLayer):
        return _apply_gate_layer(state, layer)
    if isinstance(layer, InstrumentLayer):
        return _apply_instrument_layer(state, layer, layout)
    if isinstance(layer, ClassicalLayer):
        return _apply_classical_layer(state, layer)
    raise ChannelError(f"unknown layer type {type(layer).__name__}")


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryStep:
    index: int
    total_prob: float
    block_count: int
    chisep_value: float | None = None
    ratio: float | None = None
    factor_bound: float | None = None
    precondition: bool | None = None
    factor_ok: bool | None = None


@dataclass(frozen=True)
class TrajectoryReport:
    steps: tuple[TrajectoryStep, ...]
    width: int
    length: int
    endgame_step: int | None = None
    endgame_dsep: float | None = None
    endgame_dsep_converged: bool | None = None
    final_state: CcQqState | None = None
    extras: dict = field(default_factory=dict)


def total_probability(state: CcQqState) -> float:
    return float(sum(b.prob for b in state.blocks))


def run_noisy_circuit(
    circuit: NoisyCircuit,
    input_state: CcQqState,
    record_chisep: bool = False,
    sep_cfg: SepConfig | None = None,
) -> TrajectoryReport:
    """Run the noisy implementation of the circuit on a cc-qq input.

    Per time step the i.i.d. noise and the layer are applied in the order
    set by ``circuit.noise_order`` (noise before the layer by default);
    classical layers execute between time steps without noise.  The
    trajectory records probability mass, block counts, and optionally the
    chi-square distance to the separable set after every step.
    """
    layout = circuit.layout
    cfg = sep_cfg or SepConfig()
    state = input_state
    steps = []

    def measure(idx, st):
        chi = None
        if record_chisep:
            chi = chisep_ccqq(st, cfg).value
        prev = steps[-1].chisep_value if steps else None
        ratio = None
        if chi is not None and prev is not None and prev > RATIO_FLOOR:
            ratio = chi / prev
        steps.append(
            TrajectoryStep(
                index=idx,
                total_prob=total_probability(st),
                block_count=len(st.blocks),
                chisep_value=chi,
                ratio=ratio,
            )
        )

    measure(0, state)
    for layer in circuit.layers:
        if isinstance(layer, ClassicalLayer):
            state = apply_layer(state, layer, layout)
            continue
        if circuit.noise_order == "noise-first":
            state = apply_iid_noise(state, circuit.noise, layout)
            state = apply_layer(state, layer, layout)
        else:
            state = apply_layer(state, layer, layout)
            state = apply_iid_noise(state, circuit.noise, layout)
        measure(len(steps), state)
    if circuit.trailing_noise:
        state = apply_iid_noise(state, circuit.noise, layout)
        measure(len(steps), state)
    width, length = circuit_metrics(circuit)
    return TrajectoryReport(
        steps=tuple(steps),
        width=width,
        length=length,
        final_state=state,
    )


# ---------------------------------------------------------------------------
# The doubled-memory experiment
# ---------------------------------------------------------------------------


def doubled_layout(n: int) -> RegisterLayout:
    if 2 * n > QUBIT_CAP:
        raise ChannelError(f"two copies of {n} qubits exceed the cap of {QUBIT_CAP}")
    qubits = tuple(QubitReg(label=f"A{i}", side="A") for i in range(n)) + tuple(
        QubitReg(label=f"B{i}", side="B") for i in range(n)
    )
    return RegisterLayout(qubits=qubits)


def doubled_memory_experiment(
    n: int,
    noise: KrausChannel,
    steps: int,
    input_state: BipartiteState,
    gate: KrausChannel | None = None,
    p_value: float | None = None,
    sep_cfg: SepConfig | None = None,
    seed: int = 0,
) -> TrajectoryReport:
    """Two parallel copies of an n-qubit memory circuit under i.i.d. noise.

    Side A carries the first copy and side B the second; the per-step gate
    acts as the same local channel on each copy, hence every layer is
    separable across A:B.  The chi-square distance to the separable set is
    recorded after every step and compared against the contraction factor
    1 - p^(2n), where p is the channel constant of the noise (computed on
    demand when ``p_value`` is not given).  For unital noise the factor is
    checked at every step; otherwise only while the distance stays at or
    above the 1/16 threshold.  Once the distance falls below the threshold,
    the 1-norm distance to the separable set of that state is recorded as
    the endgame check, with the solver's convergence flag.  Needs n >= 1,
    steps >= 0 and, when given, a ``p_value`` in (0, 1].
    """
    if n < 1 or steps < 0:
        raise ChannelError(f"doubled runs need n >= 1 and steps >= 0, got n={n}, steps={steps}")
    layout = doubled_layout(n)
    cfg = sep_cfg or SepConfig()
    if input_state.dim_a != 2**n or input_state.dim_b != 2**n:
        raise ChannelError("input state must hold n qubits per side")
    if gate is None:
        gate = KrausChannel.from_kraus([np.eye(2**n)])
    unital_noise = noise.is_unital()
    if p_value is None:
        p_value = p_constant(noise, seed=seed).p
    elif isinstance(p_value, bool) or not isinstance(p_value, Real) or not 0.0 < p_value <= 1.0:
        raise ChannelError(f"doubled runs need a channel constant p in (0, 1], got {p_value!r}")
    factor = 1.0 - p_value ** (2 * n)

    sep_gate = local_product_channel(gate, gate)
    layer = GateLayer(channel=sep_gate)
    state = CcQqState.single(input_state)
    chi = chisep_ccqq(state, cfg).value
    out_steps = [
        TrajectoryStep(index=0, total_prob=total_probability(state), block_count=1, chisep_value=chi)
    ]
    endgame_step = None
    endgame = None
    for i in range(1, steps + 1):
        prev_chi = chi
        state = apply_iid_noise(state, noise, layout)
        state = apply_layer(state, layer, layout)
        chi = chisep_ccqq(state, cfg).value
        precondition = prev_chi >= CHISEP_THRESHOLD
        ok = None
        if unital_noise or precondition:
            ok = bool(chi <= factor * prev_chi + FACTOR_TOL)
        ratio = chi / prev_chi if prev_chi > RATIO_FLOOR else None
        out_steps.append(
            TrajectoryStep(
                index=i,
                total_prob=total_probability(state),
                block_count=len(state.blocks),
                chisep_value=chi,
                ratio=ratio,
                factor_bound=factor,
                precondition=precondition,
                factor_ok=ok,
            )
        )
        if endgame_step is None and chi < CHISEP_THRESHOLD:
            endgame_step = i
            blk = max(state.blocks, key=lambda b: b.prob)
            endgame = dsep(BipartiteState.from_matrix(blk.rho, state.dim_a, state.dim_b))
    return TrajectoryReport(
        steps=tuple(out_steps),
        width=2 * n,
        length=steps,
        endgame_step=endgame_step,
        endgame_dsep=None if endgame is None else endgame.value,
        endgame_dsep_converged=None if endgame is None else endgame.converged,
        final_state=state,
        extras={
            "p_value": p_value,
            "factor": factor,
            "unital_noise": unital_noise,
        },
    )
