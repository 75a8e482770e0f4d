"""Quantitative consequences: memory-time thresholds, capacity brackets,
and the fault-tolerance space-overhead lower bound.

All logarithms are base 2 (qubits as units).  The capacity term of the
overhead bound always uses an UPPER bound on the quantum capacity, so the
emitted number is a sound lower bound on the physical qubit count; the
coherent-information maximization only ever feeds the bracket's lower
endpoint.

That maximization writes a qubit input with Bloch vector x as
I/2 + sum_i x_i sigma_i/2, so its images under T and under the complement
T^c are affine in x with fixed coefficient stacks A_i and E_i.  All
restarts climb together in one projected-gradient ascent over the Bloch
ball on I_c = S(A) - S(E) and its gradient
-Tr(A_i log2 A) + Tr(E_i log2 E).  A 2x2 image tau I + b . sigma (the
output side always, the environment side at Choi rank 2) takes these from
its eigenvalues tau -/+ |b| in closed form; a larger one takes one batched
eigensolve.  Each point is evaluated once: the value and gradient of an
accepted step are carried into the next one.  The Armijo backtracking tries
a ladder of halvings, round r the next 2^r of them in one stacked
evaluation, and takes the largest step that passes, which is the step a
one-at-a-time search would take.  So no step lowers the value, and every
value is I_c at a valid input: the maximum found is a certified lower
bound on Q (Devetak 2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import linalg as la
from .channels import (
    ChannelError,
    KrausChannel,
    canonical_kraus,
    choi_distance,
    depolarizing,
    identity_channel,
    tensor,
    to_bloch_affine,
)
from .config import CONV_TOL, EPSILON_0
from .contraction import _batched_ascent, sign_ascent
from .decompose import PConstantReport
from .sampling import random_pure, rng_from

ENTROPY_EIG_FLOOR = 1e-14


@dataclass(frozen=True)
class MemoryTimeBound:
    n: int
    p: float
    log2_threshold: float
    epsilon0: float = EPSILON_0

    @property
    def threshold(self) -> float:
        """(2/p)^(2n); inf when it overflows double precision."""
        try:
            return float(2.0**self.log2_threshold)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class CapacityBracket:
    lower: float
    upper: float
    lower_provenance: str
    upper_provenance: str

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ChannelError(
                f"capacity bracket endpoints must be finite, got [{self.lower}, {self.upper}]"
            )
        if self.lower > self.upper + 1e-12:
            raise ChannelError(
                f"inconsistent capacity bracket: lower {self.lower} above upper {self.upper}"
            )


@dataclass(frozen=True)
class OverheadBound:
    n: int
    log2_t: float
    alpha: float
    bracket: CapacityBracket
    impossible: bool
    bound_value: float | None
    capacity_term_vacuous: bool
    notes: tuple[str, ...] = ()


def memory_time_bound(n: int, p_report: PConstantReport | float) -> MemoryTimeBound:
    """Circuit length (2/p)^(2n) beyond which no eps < 1/128 memory exists."""
    p = p_report.p if isinstance(p_report, PConstantReport) else float(p_report)
    if not 0.0 < p <= 1.0:
        raise ChannelError("channel constant must lie in (0, 1]")
    if n < 1:
        raise ChannelError("qubit count must be positive")
    log2_threshold = 2.0 * n * math.log2(2.0 / p)
    return MemoryTimeBound(n=n, p=p, log2_threshold=log2_threshold)


# ---------------------------------------------------------------------------
# Coherent information and capacity brackets
# ---------------------------------------------------------------------------


def _bloch_images(ch: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """Images of I/2 and sigma_i/2 under a qubit channel T and under its
    complement T^c, one side each.

    The input with Bloch vector x maps to a[0] + sum_i x_i a[i] and to
    e[0] + sum_i x_i e[i]; T^c(X)_jk = Tr(K_j X K_k^dag) for the minimal
    Kraus list, so e is (4, r, r) with r the Choi rank.  A side of 2x2
    images comes as its (4, 4) real Pauli coordinates: row i holds
    (tau_i, b_i) with image i = tau_i I + b_i . sigma.  Any other side
    stays a (4, r, r) stack.
    """
    k = np.array(canonical_kraus(ch).kraus)
    paulis = np.array(la.PAULIS)
    a = np.einsum("kij,ajl,kml->aim", k, 0.5 * paulis, k.conj())
    e = np.einsum("jmn,anl,kml->ajk", k, 0.5 * paulis, k.conj())
    return tuple(
        0.5 * np.einsum("aij,bji->ab", s, paulis).real if s.shape[-1] == 2 else s
        for s in (a, e)
    )


def _floored_entropy(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S in bits from the eigenvalues ``w`` (n, d), dropping those at or below
    ``ENTROPY_EIG_FLOOR``, and log2 w floored there."""
    log_w = np.log2(np.maximum(w, ENTROPY_EIG_FLOOR))
    return -np.einsum("rs,rs->r", np.where(w > ENTROPY_EIG_FLOOR, w, 0.0), log_w), log_w


_SIGNS = np.array([-1.0, 1.0])


def _entropy_value_grad(side: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(rho) in bits of rho = side[0] + sum_i x_i side[i] for each row of
    ``x``, and its gradient -Tr(side[i] log2 rho).

    A qubit side (Pauli coordinates, see ``_bloch_images``) takes the
    closed form: rho = tau I + b . sigma has eigenvalues tau -/+ |b| with
    eigenprojectors (I -/+ b . sigma / |b|) / 2, so the gradient is
    -tau_i (log2 w_+ + log2 w_-) - (b_i . b) (log2 w_+ - log2 w_-) / |b|,
    whose second term is 0 at b = 0.  Any other side takes one batched
    eigensolve.  The gradient omits -Tr(side[i]) / ln 2, which is zero for a
    trace-preserving map.  Every row is computed as for that point alone (no
    matrix product spans rows), so a stacked evaluation gives the bits of
    separate ones.
    """
    if side.ndim == 2:
        c = side[0] + np.einsum("ri,ij->rj", x, side[1:])
        b = c[:, 1:]
        length = np.sqrt(np.einsum("rj,rj->r", b, b))
        value, log_w = _floored_entropy(c[:, :1] + np.multiply.outer(length, _SIGNS))
        spread = (log_w[:, 1] - log_w[:, 0]) / np.where(length > 0.0, length, 1.0)
        return value, -(np.multiply.outer(log_w[:, 0] + log_w[:, 1], side[1:, 0])
                        + np.einsum("rj,ij,r->ri", b, side[1:, 1:], spread))
    w, v = np.linalg.eigh(side[0] + np.einsum("ri,ijk->rjk", x, side[1:]))
    value, log_w = _floored_entropy(w)
    log_rho = (v * log_w[:, None, :]) @ la.dag(v)
    return value, -np.sum((side[1:] * log_rho[:, None].swapaxes(-1, -2)).real, axis=(-2, -1))


def _coherent_info_value_grad(a, e, x):
    """I_c = S(T(rho)) - S(T^c(rho)) and its gradient at the Bloch vectors ``x``."""
    s_out, g_out = _entropy_value_grad(a, x)
    s_env, g_env = _entropy_value_grad(e, x)
    return s_out - s_env, g_out - g_env


_BLOCH_RADIUS = 1.0 - 1e-12
_ARMIJO = 1e-4
_HALVINGS = 60
# The factors 2^-k of the step sizes a line search tries, k < _HALVINGS.
_LADDER = 0.5 ** np.arange(_HALVINGS)


def _into_ball(x: np.ndarray) -> np.ndarray:
    """Radial projection of each row onto the ball of radius ``_BLOCH_RADIUS``."""
    nrm = np.linalg.norm(x, axis=-1, keepdims=True)
    return x * (_BLOCH_RADIUS / np.maximum(nrm, _BLOCH_RADIUS))


def _coherent_info_step(a, e, x, t, value, grad):
    """One projected-gradient step of I_c per restart, from its point ``x``,
    step size ``t``, and the value and gradient carried at ``x``.

    Each restart takes the largest of the steps t, t/2, ..., t/2^59 that
    passes the Armijo test, so its value never falls, and keeps its point
    when none passes.  Round r tries the next 2^r of these steps of every
    restart still searching in one stacked evaluation, whose value and
    gradient at the accepted point are carried to the next step.  An
    accepted step size is doubled for the next step.
    """
    x_next, t_next, value_next, grad_next = x.copy(), t.copy(), value.copy(), grad.copy()
    todo = np.arange(len(x))
    tried, span = 0, 1
    while todo.size and tried < _HALVINGS:
        span = min(span, _HALVINGS - tried)
        steps = t[todo] * _LADDER[tried:tried + span]
        here, slope = x[todo, None], grad[todo, None]
        cand = _into_ball(here + steps[..., None] * slope)
        cand_value, cand_grad = _coherent_info_value_grad(a, e, cand.reshape(-1, 3))
        cand_value = cand_value.reshape(steps.shape)
        ok = cand_value >= value[todo] + _ARMIJO * np.sum(slope * (cand - here), axis=-1)
        hit = ok.any(axis=1)
        rows, k = np.flatnonzero(hit), ok[hit].argmax(axis=1)
        done = todo[rows]
        x_next[done] = cand[rows, k]
        t_next[done, 0] = 2.0 * steps[rows, k]
        value_next[done, 0] = cand_value[rows, k]
        grad_next[done] = cand_grad.reshape(*steps.shape, 3)[rows, k]
        todo = todo[~hit]
        tried, span = tried + span, 2 * span
    t_next[todo] = t[todo] * 0.5**_HALVINGS
    return value[:, 0], (x, t, value, grad), (x_next, t_next, value_next, grad_next)


def coherent_info_lower(ch: KrausChannel, restarts: int = 16, seed: int = 0) -> float:
    """Certified lower bound on the quantum capacity from maximizing the
    single-use coherent information over qubit inputs (clamped at zero).

    All restarts run one batched projected-gradient ascent of up to 400
    steps over the Bloch ball; restart 0 starts at the maximally mixed
    state, restart i > 0 at a point drawn from ``rng_from(seed, i)``.  Every
    value it reports is I_c at a feasible input, so the maximum is a lower
    bound on Q.
    """
    if not ch.is_qubit():
        raise ChannelError("the coherent-information search is implemented for qubit channels")
    a, e = _bloch_images(ch)
    starts = _into_ball(np.array(
        [np.zeros(3) if i == 0 else rng_from(seed, i).uniform(-0.7, 0.7, size=3)
         for i in range(restarts)]
    ).reshape(restarts, 3))
    value, grad = _coherent_info_value_grad(a, e, starts)
    values, _, _ = _batched_ascent(
        partial(_coherent_info_step, a, e),
        (starts, np.ones((restarts, 1)), value[:, None], grad), 400, 0.0,
    )
    return float(np.max(values, initial=0.0))


_DEPOLARIZING_ZERO_CAPACITY_P = 1.0 / 3.0


def _match_depolarizing(ch: KrausChannel) -> float | None:
    """Parameter p if the channel equals a depolarizing channel within
    conversion tolerance, else None."""
    if not ch.is_qubit():
        return None
    aff = to_bloch_affine(ch)
    if not aff.unital:
        return None
    lam = np.asarray(aff.lam, dtype=float)
    p_hat = float(np.clip(1.0 - np.mean(lam), 0.0, 1.0))
    if choi_distance(ch, depolarizing(p_hat)) <= CONV_TOL:
        return p_hat
    return None


def capacity_bracket(
    ch: KrausChannel,
    user_upper: float | None = None,
    restarts: int = 16,
    seed: int = 0,
) -> CapacityBracket:
    """Two-sided capacity estimate: coherent information from below; the
    trivial one-qubit rate, a preset table (depolarizing with p > 1/3 has
    zero capacity), and any user certificate from above, which must be
    finite."""
    if user_upper is not None and not math.isfinite(user_upper):
        raise ChannelError(f"user capacity upper bound must be finite, got {user_upper}")
    lower = coherent_info_lower(ch, restarts=restarts, seed=seed)
    upper = 1.0
    provenance = "trivial_log_d"
    p_hat = _match_depolarizing(ch)
    if p_hat is not None and p_hat > _DEPOLARIZING_ZERO_CAPACITY_P:
        upper = 0.0
        provenance = f"preset_depolarizing_p={p_hat:.6f}"
    if user_upper is not None:
        if user_upper < lower - 1e-9:
            raise ChannelError(
                f"user capacity upper bound {user_upper} is below the computed lower bound {lower}"
            )
        if user_upper < upper:
            upper = float(user_upper)
            provenance = "user_certificate"
    lower = min(lower, upper)
    return CapacityBracket(
        lower=lower, upper=upper,
        lower_provenance="coherent_information_max", upper_provenance=provenance,
    )


def overhead_lower_bound(
    n: int,
    log2_t: float,
    p_report: PConstantReport | float,
    bracket: CapacityBracket,
) -> OverheadBound:
    """max(n / Q_upper, log2(T) / (2 log2(2/p))) physical qubits.

    When the capacity upper bound is zero the result is the tagged
    "impossible" variant; when it is only the trivial value 1 the capacity
    term degenerates to n and is flagged vacuous.
    """
    if not math.isfinite(log2_t):
        raise ChannelError(f"log2(T) must be finite, got {log2_t}")
    if n < 1 or log2_t < 0:
        raise ChannelError("need n >= 1 and T >= 1")
    p = p_report.p if isinstance(p_report, PConstantReport) else float(p_report)
    if not 0.0 < p <= 1.0:
        raise ChannelError("channel constant must lie in (0, 1]")
    alpha = 1.0 / (2.0 * math.log2(2.0 / p))
    notes = []
    if bracket.upper <= 0.0:
        return OverheadBound(
            n=n, log2_t=log2_t, alpha=alpha, bracket=bracket,
            impossible=True, bound_value=None, capacity_term_vacuous=False,
            notes=("zero quantum capacity: no noisy implementation at any size",),
        )
    vacuous = bracket.upper_provenance == "trivial_log_d"
    if vacuous:
        notes.append("capacity term uses the trivial upper bound 1 and reduces to n")
    log_term = alpha * log2_t
    cap_term = n / bracket.upper
    return OverheadBound(
        n=n, log2_t=log2_t, alpha=alpha, bracket=bracket,
        impossible=False, bound_value=float(max(cap_term, log_term)),
        capacity_term_vacuous=vacuous, notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Near-identity stability estimates
# ---------------------------------------------------------------------------


def _max_pure_deviation(ch: KrausChannel, restarts: int, seed: int) -> float:
    """max over pure inputs of || T(psi psi) - psi psi ||_1: the sign-operator
    ascent of the contraction coefficients, run on the map T - I."""
    d = ch.in_dim
    starts = np.array([random_pure(rng_from(seed, 7000 + i), d) for i in range(restarts)])
    norms, _, _ = sign_ascent(ch.transfer_matrix() - np.eye(d * d), (starts,), 200, 1e-12)
    return float(np.max(norms, initial=0.0))


@dataclass(frozen=True)
class StabilityReport:
    epsilon: float
    extended_estimate: float
    extended_bound: float
    doubled_estimate: float
    doubled_bound: float
    passed: bool
    extras: dict = field(default_factory=dict)


def verify_stability_lemma(ch: KrausChannel, restarts: int = 12, seed: int = 0) -> StabilityReport:
    """Check the dimension-free stability of closeness to the identity.

    eps estimates ||T - I||_1 over pure inputs; the estimate of
    ||T (x) I - I (x) I||_1 over pure entangled two-qubit inputs must stay
    below sqrt(2 eps), and the doubled estimate (noise on both factors)
    below 2 sqrt(2 eps).  Estimated maxima are lower bounds of the true
    induced norms, so the checks are sound.  Both pass with 1e-6 slack.
    """
    if not ch.is_qubit():
        raise ChannelError("the stability check is implemented for qubit channels")
    eps = _max_pure_deviation(ch, restarts=restarts, seed=seed)
    ident = identity_channel()
    extended = tensor(ch, ident)
    ext_est = _max_pure_deviation(extended, restarts=restarts, seed=seed + 1)
    doubled = tensor(ch, ch)
    dbl_est = _max_pure_deviation(doubled, restarts=restarts, seed=seed + 2)
    ext_bound = math.sqrt(2.0 * eps)
    dbl_bound = 2.0 * ext_bound
    passed = ext_est <= ext_bound + 1e-6 and dbl_est <= dbl_bound + 1e-6
    return StabilityReport(
        epsilon=eps,
        extended_estimate=ext_est,
        extended_bound=ext_bound,
        doubled_estimate=dbl_est,
        doubled_bound=dbl_bound,
        passed=bool(passed),
        extras={"restarts": restarts, "seed": seed},
    )
