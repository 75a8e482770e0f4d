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

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import linalg as la
from .channels import ChannelError, KrausChannel, check_density_stack
from .config import CHISEP_THRESHOLD, MAX_BLOCKS, QUBIT_CAP, TP_TOL
from .decompose import p_constant
from .separability import (
    BipartiteState,
    CcQqState,
    SeparableChannel,
    block_label,
    chisep_ccqq_stream,
    dsep_upper,
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

    The round is the product channel ``N^{(x)h} (x) N^{(x)(n-h)}``, split at
    ``h = ceil(n/2)``.  Its two factors are the Kronecker powers ``L`` and
    ``R`` of the noise's 4x4 transfer matrix, kept by the channel
    (:meth:`KrausChannel.transfer_power`).  One transpose takes the
    ``(B, d, d)`` stack to the view ``X`` whose row index holds the first
    ``h`` qubits' rows and columns and whose column index holds the other
    qubits' rows and columns; the round is the batched product ``L X R^T``,
    transposed back.  The result is certified as one stack.
    """
    if not noise.is_qubit():
        raise ChannelError("noise must be a qubit channel")
    n = layout.n_qubits
    d = state.dim_a * state.dim_b
    if d != 2**n:
        raise ChannelError("state dimension does not match the layout")
    h = (n + 1) // 2
    count = len(state.blocks)
    dl, dr = 2**h, 2 ** (n - h)
    # (block, row of the first h qubits, row of the rest, columns likewise)
    x = state.rho_stack().reshape(count, dl, dr, dl, dr).transpose(0, 1, 3, 2, 4)
    x = noise.transfer_power(h) @ x.reshape(count, dl * dl, dr * dr) @ noise.transfer_power(n - h).T
    rhos = x.reshape(count, dl, dl, dr, dr).transpose(0, 1, 3, 2, 4).reshape(count, d, d)
    check_density_stack(rhos)
    labels = [(b.x, b.y) for b in state.blocks]
    return CcQqState.from_checked_stack(
        state.dim_a, state.dim_b, labels, [b.prob for b in state.blocks], rhos
    )


def _merge(dim_a: int, dim_b: int, labels, probs, rhos: np.ndarray) -> CcQqState:
    """Sum the blocks of a certified stack that share a label into their
    probability-weighted mixture.

    Every matrix of ``rhos`` has passed :func:`check_density_stack`, or is a
    copy of one that has.  Blocks of mass below 1e-15 are dropped.  A merged
    block is a convex combination of certified blocks, so by Weyl's
    inequality it meets the same Hermitian, PSD and trace bounds and is not
    checked again.  When every label is distinct and no block is dropped
    the stack is kept as it is.
    """
    groups: dict = {}
    for i, (key, p) in enumerate(zip(labels, probs)):
        if p >= 1e-15:
            groups.setdefault(key, []).append(i)
    if len(groups) > MAX_BLOCKS:
        raise ChannelError(f"block count {len(groups)} exceeds the cap of {MAX_BLOCKS}")
    if len(groups) == len(probs):
        return CcQqState.from_checked_stack(dim_a, dim_b, labels, probs, rhos)
    # Row g of the weight matrix holds p_i / total_g at the blocks i of group g.
    rows = [g for g, idx in enumerate(groups.values()) for _ in idx]
    cols = [i for idx in groups.values() for i in idx]
    p = np.array(probs)[cols]
    totals = np.bincount(rows, weights=p)
    weights = np.zeros((len(groups), len(probs)))
    weights[rows, cols] = p / totals[rows]
    # A real weight matrix mixes the real and imaginary parts alike.
    flat = np.ascontiguousarray(rhos).reshape(len(probs), -1).view(float)
    merged = (weights @ flat).view(complex).reshape((len(groups),) + rhos.shape[1:])
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
    group of blocks with one stacked ``apply``.

    The outputs of the channels are certified as one stack.  Blocks whose
    channel is ``None`` are copied from :meth:`CcQqState.rho_stack`, which
    is certified already, and are not checked again.
    """
    out_a, out_b = state.dim_a, state.dim_b
    if isinstance(layer.channel, SeparableChannel):
        out_a, out_b = layer.channel.a_out, layer.channel.b_out
    d_out = out_a * out_b
    rhos = state.rho_stack()
    if layer.controls is None:
        groups = [(layer.channel, list(range(len(rhos))))]
    else:
        by_channel: dict = {}
        for i, blk in enumerate(state.blocks):
            channel = layer.controls.get((blk.x, blk.y), layer.channel)
            by_channel.setdefault(id(channel), (channel, []))[1].append(i)
        groups = list(by_channel.values())
    out = np.empty((len(rhos), d_out, d_out), dtype=complex)
    for channel, idx in groups:
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
    computed = [i for channel, idx in groups if channel is not None for i in idx]
    if computed:
        check_density_stack(out if len(computed) == len(out) else out[computed])
    labels = [(b.x, b.y) for b in state.blocks]
    return _merge(out_a, out_b, labels, [b.prob for b in state.blocks], out)


def _store_slot(layout: RegisterLayout, store: str) -> tuple[int, int, int]:
    """(side, position, size) of the classical register labeled ``store``;
    side 0 is the x label (side A), side 1 the y label."""
    for side, name in enumerate(("A", "B")):
        regs = [c for c in layout.classical if c.side == name]
        for pos, reg in enumerate(regs):
            if reg.label == store:
                return side, pos, reg.size
    raise ChannelError(f"no classical register labeled {store!r}")


def _apply_instrument_layer(
    state: CcQqState, layer: InstrumentLayer, layout: RegisterLayout
) -> CcQqState:
    """Apply every outcome's Kraus operators to every block in one batched
    sandwich and write each outcome to the ``store`` register.

    A block of probability ``p`` splits into one block per outcome ``o`` of
    positive trace, with state ``post_o / Tr post_o`` and probability
    ``p Tr post_o / sum_o' Tr post_o'``: normalizing the outcome weights
    keeps the probability total at 1 for an instrument whose completeness
    holds only to ``TP_TOL``.  The post-measurement states are certified as
    one stack.
    """
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
    side, pos, size = _store_slot(layout, layer.store)
    values = []
    for value, outcome_ops in layer.outcomes:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or not 0 <= value < size:
            raise ChannelError(
                f"outcome {value} outside register {layer.store} alphabet of size {size}"
            )
        if not outcome_ops:
            raise ChannelError(f"instrument outcome {value} has no Kraus operators")
        values.append(int(value))
    kraus = np.array(ops, dtype=complex)
    # (block, Kraus operator) stack of K rho K^H, summed per outcome.
    posts = kraus @ state.rho_stack()[:, None] @ la.dag(kraus)
    if len(ops) > len(values):
        starts = np.cumsum([0] + [len(outcome_ops) for _, outcome_ops in layer.outcomes[:-1]])
        posts = np.add.reduceat(posts, starts, axis=1)
    p_outs = np.trace(posts, axis1=-2, axis2=-1).real
    kept = p_outs > 1e-15
    weights = (p_outs / p_outs.sum(axis=1, keepdims=True))[kept]
    b_idx, o_idx = np.nonzero(kept)
    labels = []
    for b, o in zip(b_idx.tolist(), o_idx.tolist()):
        x, y = state.blocks[b].x, state.blocks[b].y
        label = y if side else x
        if len(label) <= pos:
            raise ChannelError(f"classical label {label} has no register {layer.store}")
        label = label[:pos] + (values[o],) + label[pos + 1:]
        labels.append((x, label) if side else (label, y))
    probs = (np.array([b.prob for b in state.blocks])[b_idx] * weights).tolist()
    # Real and imaginary parts over the real traces.
    out = (posts[kept].view(float) / p_outs[kept][:, None, None]).view(complex)
    check_density_stack(out)
    return _merge(state.dim_a, state.dim_b, labels, probs, out)


def _register_sizes(layout: RegisterLayout) -> tuple[tuple, tuple]:
    """The alphabet sizes of the side-A and side-B classical registers."""
    return tuple(tuple(c.size for c in layout.classical if c.side == side) for side in "AB")


def _checked_label(values, sizes: tuple, name: str) -> tuple:
    """``values`` as a classical label: one integer in ``[0, size)`` per
    register of ``sizes``; anything else raises ``ChannelError``."""
    label = tuple(values)
    if len(label) == len(sizes) and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < size
        for v, size in zip(label, sizes)
    ):
        return block_label(label)
    raise ChannelError(
        f"classical label {name}={list(label)!r} does not fit the {name} registers "
        f"of alphabet sizes {list(sizes)}"
    )


def _check_labels(state: CcQqState, layout: RegisterLayout) -> None:
    """Raise ``ChannelError`` unless every block label of ``state`` fits the
    layout's classical registers (see :func:`_checked_label`)."""
    sizes_x, sizes_y = _register_sizes(layout)
    for blk in state.blocks:
        _checked_label(blk.x, sizes_x, "x")
        _checked_label(blk.y, sizes_y, "y")


def _classical_successors(layer: ClassicalLayer, layout: RegisterLayout) -> dict:
    """The layer's update map with every successor checked: a finite,
    non-negative probability, labels that fit the layout, and a total of 1
    within 1e-12 per source label.  Every entry is checked, including those
    whose source label no block carries."""
    sizes_x, sizes_y = _register_sizes(layout)
    table = {}
    for key, successors in layer.update.items():
        checked = []
        for p, (x, y) in successors:
            if not isinstance(p, Real) or not math.isfinite(p) or p < 0:
                raise ChannelError(
                    f"classical update for {key} has successor probability {p!r}, "
                    "not a finite non-negative number"
                )
            checked.append((p, (_checked_label(x, sizes_x, "x"), _checked_label(y, sizes_y, "y"))))
        mass = sum(p for p, _ in checked)
        if abs(mass - 1.0) > 1e-12:
            raise ChannelError(f"classical update for {key} has total probability {mass}")
        table[key] = checked
    return table


def _apply_classical_layer(
    state: CcQqState, layer: ClassicalLayer, layout: RegisterLayout
) -> CcQqState:
    """Rewrite the labels and mix the blocks that meet.

    Every new block is a copy of a block of :meth:`CcQqState.rho_stack`,
    which is certified already, or a mixture of such copies, so nothing is
    checked again.
    """
    table = _classical_successors(layer, layout)
    labels, probs, src = [], [], []
    for i, blk in enumerate(state.blocks):
        key = (blk.x, blk.y)
        for p, label in table.get(key, ((1.0, key),)):
            if p <= 0:
                continue
            labels.append(label)
            probs.append(blk.prob * p)
            src.append(i)
    return _merge(state.dim_a, state.dim_b, labels, probs, state.rho_stack()[src])


def apply_layer(state: CcQqState, layer, layout: RegisterLayout) -> CcQqState:
    if isinstance(layer, GateLayer):
        return _apply_gate_layer(state, layer)
    if isinstance(layer, InstrumentLayer):
        return _apply_instrument_layer(state, layer, layout)
    if isinstance(layer, ClassicalLayer):
        return _apply_classical_layer(state, layer, layout)
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
    final_state: CcQqState | None = None
    extras: dict = field(default_factory=dict)


def total_probability(state: CcQqState) -> float:
    return float(sum(b.prob for b in state.blocks))


def run_noisy_circuit(
    circuit: NoisyCircuit,
    input_state: CcQqState,
    record_chisep: bool = False,
) -> TrajectoryReport:
    """Run the noisy implementation of the circuit on a cc-qq input.

    Per time step the i.i.d. noise and the layer are applied in the order
    set by ``circuit.noise_order`` (noise before the layer by default);
    classical layers execute between time steps without noise.  The
    trajectory records probability mass, block counts, and optionally the
    chi-square distance to the separable set after every step.  Those
    distances never feed back into the state, so they are not solved step
    by step: the blocks of consecutive steps wait and are solved together,
    ``CHISEP_CHUNK`` at a time (:func:`chisep_ccqq_stream`).  Each equals
    the step's own :func:`chisep_ccqq` value, whatever the number of steps.
    Every input
    block's classical label must fit the layout's registers, or
    ``ChannelError`` is raised before the first step.
    """
    layout = circuit.layout
    _check_labels(input_state, layout)
    state = input_state

    def evolve():
        # The state after every time step; classical layers run between.
        nonlocal state
        yield state
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
            yield state
        if circuit.trailing_noise:
            state = apply_iid_noise(state, circuit.noise, layout)
            yield state

    measured = chisep_ccqq_stream(evolve()) if record_chisep else ((st, None) for st in evolve())
    steps = []
    for idx, (step_state, res) in enumerate(measured):
        chi = None if res is None else res.value
        prev = steps[-1].chisep_value if steps else None
        ratio = None
        if chi is not None and prev is not None and prev > RATIO_FLOOR:
            ratio = chi / prev
        steps.append(
            TrajectoryStep(
                index=idx,
                total_prob=total_probability(step_state),
                block_count=len(step_state.blocks),
                chisep_value=chi,
                ratio=ratio,
            )
        )
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
    seed: int = 0,
) -> TrajectoryReport:
    """Two parallel copies of an n-qubit memory circuit under i.i.d. noise.

    Side A carries the first copy and side B the second; the per-step gate,
    when given, acts as the same local channel on each copy after the noise
    round, hence every layer is separable across A:B.  Without a gate each
    step is the noise round alone.  The chi-square distance to the separable
    set is recorded after every step and compared against the contraction factor
    1 - p^(2n), where p is the channel constant of the noise (computed on
    demand when ``p_value`` is not given).  For unital noise the factor is
    checked at every step; otherwise only while the distance stays at or
    above the 1/16 threshold.  Once the distance falls below the threshold,
    the endgame check records :func:`dsep_upper` of the most probable block
    at the chi-square minimizer its step already found: an upper side of
    its 1-norm distance to the PPT set, at most sqrt(chisep) < 1/4 up to
    its mix towards I/d (below 1e-10).  The distances
    never feed back into the state, so they are not solved step by step:
    the blocks of consecutive steps wait and are solved together,
    ``CHISEP_CHUNK`` at a time (:func:`chisep_ccqq_stream`).  Each equals
    the step's own :func:`chisep_ccqq` value, so the first k + 1 steps of a
    longer run are those of a run of k steps.  Needs n >= 1, steps >= 0
    and, when given, a ``p_value`` in (0, 1].
    """
    if n < 1 or steps < 0:
        raise ChannelError(f"doubled runs need n >= 1 and steps >= 0, got n={n}, steps={steps}")
    layout = doubled_layout(n)
    if input_state.dim_a != 2**n or input_state.dim_b != 2**n:
        raise ChannelError("input state must hold n qubits per side")
    unital_noise = noise.is_unital()
    if p_value is None:
        p_value = p_constant(noise, seed=seed).p
    elif isinstance(p_value, bool) or not isinstance(p_value, Real) or not 0.0 < p_value <= 1.0:
        raise ChannelError(f"doubled runs need a channel constant p in (0, 1], got {p_value!r}")
    factor = 1.0 - p_value ** (2 * n)

    layer = None if gate is None else GateLayer(channel=local_product_channel(gate, gate))

    def evolve():
        state = CcQqState.single(input_state)
        yield state
        for _ in range(steps):
            state = apply_iid_noise(state, noise, layout)
            if layer is not None:
                state = apply_layer(state, layer, layout)
            yield state

    out_steps = []
    endgame_step = None
    endgame = None
    chi = None
    for i, (state, res) in enumerate(chisep_ccqq_stream(evolve())):
        prev_chi, chi = chi, res.value
        if i == 0:
            out_steps.append(
                TrajectoryStep(index=0, total_prob=total_probability(state), block_count=1,
                               chisep_value=chi)
            )
            continue
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
            k = max(range(len(state.blocks)), key=lambda k: state.blocks[k].prob)
            sigma = res.extras["minimizers"][k].matrix
            endgame = dsep_upper(state.blocks[k].rho, sigma, state.dim_a, state.dim_b)[0]
    return TrajectoryReport(
        steps=tuple(out_steps),
        width=2 * n,
        length=steps,
        endgame_step=endgame_step,
        endgame_dsep=endgame,
        final_state=state,
        extras={
            "p_value": p_value,
            "factor": factor,
            "unital_noise": unital_noise,
        },
    )
