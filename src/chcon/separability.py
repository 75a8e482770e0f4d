"""Separability machinery: PPT tests, distances to the separable set, and
the classical-quantum block formula for the chi-square distance.

The separable set is represented by the positive-partial-transpose (PPT)
spectrahedron, which is exact for 2x2 and 2x3 bipartitions and a relaxation
above; results carry a method tag making the distinction explicit.  Over
the PPT set, dsep runs a split ADMM whose steps are closed-form density
projections, and the chi-square solvers share one path: one stacked
chi-square kernel whose gradient is evaluated only where it is read, one
closed-form projection (:func:`project_pt_trace`, a matrix or a stack of
blocks with a joint trace) and one barrier driver (:func:`_min_chi2`) that
keeps the best barrier-free stage value.  chisep runs it on one block
from the maximally mixed state and certifies the result with a
convex-duality lower bound (:func:`_chi2_lower`, read off the iterate's
eigendecomposition and, while the gap stays open, off the same basis mixed
towards I/d; its partial-transpose multiplier comes from the same
eigen-step as the projection).  A second start from the separable twirl
runs only while that gap exceeds ``VERDICT_SLACK``, the slack of the
verdicts that read the value.  The cc-qq block-diagonal cross-check runs
:func:`_min_chi2` once on all blocks.  Each reports its objective at a
feasible point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import NamedTuple

import numpy as np

from . import linalg as la
from .channels import EPS, ChannelError, DensityState, KrausChannel, check_density_stack, check_int
from .config import DIM_CAP, PSD_TOL, TP_TOL, VERDICT_SLACK
from .contraction import eta_tr_upper_minoutev

PPT_EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}
# Proximal step of the split ADMM (the soft threshold of dsep's 1-norm).
ADMM_STEP = 0.25
# Iteration cap of the split ADMM.
ADMM_ITERS = 3000
# Barrier weights laddered down by the chi-square solvers, one stage each.
BARRIER_STAGES = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
# Weight of the identity in the separable twirl that warm-starts chisep.
TWIRL_MIX = 0.1
# Duality gap, relative to max(1, value), up to which a chisep value is
# certified optimal; the certificate stops mixing towards I/d once it holds.
CHISEP_GAP_TOL = 1e-9
# Steps alpha of the projected-gradient map whose PSD multiplier, over
# alpha, is tried as the partial-transpose dual of chisep's lower bound.
CERT_STEPS = (1.0, 0.1, 0.01)
# Weights eps of I/d in the points (1 - eps) sigma + eps I/d at which that
# lower bound is taken, the iterate sigma itself first.
CERT_MIX = (0.0, 1e-4)
# Rounding margin of that lower bound, in units of d * eps times its scale.
CERT_MARGIN_ULPS = 64.0


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteState:
    dim_a: int
    dim_b: int
    state: DensityState

    @classmethod
    def from_matrix(cls, matrix, dim_a: int, dim_b: int):
        st = DensityState.from_matrix(matrix)
        if st.dim != dim_a * dim_b:
            raise ChannelError(f"state dim {st.dim} != {dim_a} * {dim_b}")
        return cls(dim_a=dim_a, dim_b=dim_b, state=st)

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix


def block_label(values) -> tuple:
    """A classical label as a flat tuple of ints (other entries become strings)."""
    if type(values) is tuple and all(type(v) is int for v in values):
        return values
    flat = np.atleast_1d(np.asarray(values, dtype=object))
    return tuple(int(v) if isinstance(v, (int, np.integer)) else str(v) for v in flat)


def check_total_probability(probs) -> None:
    """Raise unless the block probabilities sum to 1 within 1e-12; a NaN or
    infinite probability makes the sum fail too."""
    total = sum(probs, 0.0)
    if not abs(total - 1.0) <= 1e-12:
        raise ChannelError(f"block probabilities sum to {total}, not 1")


class CcQqBlock(NamedTuple):
    """One classical label ``(x, y)`` with its probability and density matrix."""

    x: tuple
    y: tuple
    prob: float
    rho: np.ndarray


@dataclass(frozen=True)
class CcQqState:
    """Finitely supported classical labels (x, y) with one bipartite quantum
    state per label; classical registers are stored exactly."""

    dim_a: int
    dim_b: int
    blocks: tuple[CcQqBlock, ...]
    # The frozen (B, d, d) stack the blocks are views of, when built from one.
    _stack: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_blocks(cls, dim_a: int, dim_b: int, blocks):
        """Validated state from ``(x, y, prob, rho)`` tuples with distinct
        labels ``(x, y)``.

        The block matrices are checked together as one ``(B, d, d)`` stack by
        :func:`check_density_stack`; each block's ``rho`` is a read-only view
        into that stack.
        """
        d = dim_a * dim_b
        labels, probs, mats, seen = [], [], [], set()
        for x, y, p, rho in blocks:
            if not -1e-15 <= p < math.inf:
                raise ChannelError(f"block probabilities must be finite and non-negative, got {p!r}")
            m = np.asarray(rho, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ChannelError(f"density matrix must be square, got shape {m.shape}")
            if m.shape[0] != d:
                raise ChannelError("block dimension mismatch")
            label = (block_label(x), block_label(y))
            if label in seen:
                raise ChannelError(f"duplicate block label {label}")
            seen.add(label)
            labels.append(label)
            probs.append(float(p))
            mats.append(m)
        rhos = np.array(mats, dtype=complex).reshape(len(mats), d, d)
        check_density_stack(rhos)
        return cls.from_checked_stack(dim_a, dim_b, labels, probs, rhos)

    @classmethod
    def from_checked_stack(cls, dim_a: int, dim_b: int, labels, probs, rhos: np.ndarray):
        """State from labels ``(x, y)``, probabilities and a ``(B, d, d)`` stack
        whose matrices already passed :func:`check_density_stack`, or are
        convex combinations of matrices that did.

        Only the probability total is checked here.  The stack is frozen,
        each block's ``rho`` is a view into it, and the state keeps it for
        :meth:`rho_stack`.
        """
        check_total_probability(probs)
        rhos.setflags(write=False)
        blocks = tuple(CcQqBlock(x, y, p, rho) for (x, y), p, rho in zip(labels, probs, rhos))
        state = cls(dim_a=dim_a, dim_b=dim_b, blocks=blocks)
        object.__setattr__(state, "_stack", rhos)
        return state

    def rho_stack(self) -> np.ndarray:
        """The block density matrices as one read-only ``(B, d, d)`` array
        that has passed :func:`check_density_stack`.

        A state built by :meth:`from_blocks` or :meth:`from_checked_stack`
        returns the stack its blocks are views of, without copying; a state
        constructed directly from blocks returns a frozen copy of them,
        checked on every call.
        """
        if self._stack is not None:
            return self._stack
        d = self.dim_a * self.dim_b
        stack = la.frozen([b.rho for b in self.blocks]).reshape(-1, d, d)
        check_density_stack(stack)
        return stack

    @classmethod
    def single(cls, state: BipartiteState):
        return cls.from_blocks(state.dim_a, state.dim_b, [((), (), 1.0, state.matrix)])


@dataclass(frozen=True)
class SepApproxResult:
    value: float
    minimizer: DensityState | None
    method: str
    iterations: int
    converged: bool
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SepConfig:
    """Settings of the separability optimizers.

    max_iter:  iteration cap shared by the barrier stages of one chi-square
               solver run (default 10k); chisep's twirl start, when it
               runs, gets its own
    obj_tol:   objective-decrease tolerance of those solvers (default 1e-12,
               the last barrier weight): the stage at barrier weight mu
               stalls on decreases below 1e-2 * max(obj_tol, mu), so the
               default lets every stage resolve its own weight

    ``max_iter`` must be an integer >= 1 and ``obj_tol`` a finite real
    number > 0, neither of them a boolean; anything else raises
    ``ChannelError``.
    """

    max_iter: int = 10000
    obj_tol: float = BARRIER_STAGES[-1]

    def __post_init__(self):
        check_int("max_iter", self.max_iter, 1)
        tol = self.obj_tol
        real = isinstance(tol, Real) and not isinstance(tol, bool)
        if not (real and math.isfinite(tol) and tol > 0):
            raise ChannelError(f"obj_tol must be a finite real number > 0, got {tol!r}")


# ---------------------------------------------------------------------------
# PPT test
# ---------------------------------------------------------------------------


def is_ppt(s: BipartiteState) -> bool:
    return ppt_min_eigenvalue(s) >= -PSD_TOL


def ppt_min_eigenvalue(s: BipartiteState) -> float:
    return la.min_eig(la.partial_transpose(s.matrix, s.dim_a, s.dim_b))


def _check_desk_scale(s: BipartiteState):
    if s.dim_a * s.dim_b > DIM_CAP:
        raise ChannelError(f"separability machinery capped at total dimension {DIM_CAP}")


def _method_tag(dim_a: int, dim_b: int) -> str:
    return "ppt_exact_2x2" if (dim_a, dim_b) in PPT_EXACT_DIMS else "ppt_lower_bound"


# ---------------------------------------------------------------------------
# chi-square objective on eigendata
# ---------------------------------------------------------------------------


def _chi2_values(taus: np.ndarray, w: np.ndarray, v: np.ndarray):
    """Values ``(n,)`` of chi2(tau_k, x_k) for a stack of ``n`` blocks, given
    the eigendecompositions x_k = v_k diag(w_k) v_k^dag with every w > 0,
    and the eigenbasis data that :func:`_chi2_grad` reuses.
    """
    roots = np.sqrt(w)
    h = 1.0 / roots
    t2 = la.dag(v) @ taus @ v
    values = np.sum((np.abs(t2) ** 2) * (h[:, :, None] * h[:, None, :]), axis=(1, 2)) - 1.0
    return values, (roots, h, t2)


def _chi2_grad(w: np.ndarray, v: np.ndarray, eig_data, mu: float) -> np.ndarray:
    """Gradients ``(n, d, d)`` of chi2(tau_k, x_k) - mu * logdet(x_k) in x_k,
    from the eigendecompositions ``(w, v)`` and the eigenbasis data that
    :func:`_chi2_values` returned for them.

    Uses the Daleckii-Krein derivative of s -> s^{-1/2} on the eigenbasis of
    each x_k.
    """
    roots, h, t2 = eig_data
    # Divided differences of g(s) = s^{-1/2}; the closed form
    # (g(a) - g(b)) / (a - b) = -1 / (sqrt(ab) (sqrt(a) + sqrt(b)))
    # is exact, has no cancellation, and covers coincident eigenvalues.
    r_row, r_col = roots[:, :, None], roots[:, None, :]
    phi = -1.0 / ((r_row * r_col) * (r_row + r_col))
    b = t2 @ (h[:, :, None] * t2)  # = tau' G tau' in the eigenbasis
    grad_eig = 2.0 * b * phi
    if mu > 0.0:
        diag = np.arange(w.shape[1])
        grad_eig[:, diag, diag] -= mu * (1.0 / w)
    grad = v @ grad_eig @ la.dag(v)
    return la.herm_part(grad)


def _interior_chi2(taus: np.ndarray, weights: np.ndarray, mu: float):
    """Barrier objective on stacks of blocks,

        f(x) = sum_k weights_k (chi2(taus_k, x_k) - mu logdet x_k + 1) - 1,

    +inf outside the open PSD cone.  The barrier keeps iterates strictly
    positive, so the partial-transpose constraint is enforced by exact
    projection without a second wall.

    ``evaluate(x, eig=None) -> (f, grad, score, eig)`` takes one
    eigendecomposition ``eig = (w, v)`` of x, or reuses the one given, and
    computes f from it at once.  ``grad()`` and ``score()`` are read from
    the same eigendecomposition only when called: the gradient (cached
    after its first read) and the barrier-free chi-square value
    sum_k weights_k (chi2(taus_k, x_k) + 1) - 1, summed before the barrier
    term is added.  Outside the cone grad, score and eig are None.
    """

    def evaluate(x, eig=None):
        # Iterates are Hermitian up to rounding; eigh reads one triangle.
        w, v = np.linalg.eigh(x) if eig is None else eig
        if float(w[:, 0].min()) <= 0.0:
            return math.inf, None, None, None
        chi, eig_data = _chi2_values(taus, w, v)
        values = chi - mu * np.sum(np.log(w), axis=1) if mu > 0.0 else chi

        memo = []

        def grad():
            if not memo:
                memo.append(weights[:, None, None] * _chi2_grad(w, v, eig_data, mu))
            return memo[0]

        def score():
            return float(weights @ (chi + 1.0)) - 1.0

        return float(weights @ (values + 1.0)) - 1.0, grad, score, (w, v)

    return evaluate


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def _pt_eig_step(x: np.ndarray, dim_a: int, dim_b: int):
    """Eigendecomposition ``(w, v)`` of x^PT (batched over a stack) and the
    simplex shift ``theta`` of all its eigenvalues jointly.

    x^PT - theta I splits as ``v diag((w - theta)_+) v^dag``, its projection
    onto the (block-diagonal) density matrices, minus
    ``N = v diag((theta - w)_+) v^dag``, the PSD multiplier of that
    projection.
    """
    w, v = np.linalg.eigh(la.partial_transpose(la.herm_part(np.asarray(x)), dim_a, dim_b))
    return w, v, la.simplex_shift(w.reshape(-1))


def project_pt_trace(x: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Exact projection of a matrix onto {Tr x = 1, x^PT >= 0}, or of an
    ``(n, d, d)`` stack onto {sum_k Tr x_k = 1, every x_k^PT >= 0}.

    The partial transpose only permutes matrix entries and keeps the trace,
    so it is a Frobenius isometry taking this set onto the (block-diagonal)
    density matrices.  Their projection is one batched eigendecomposition
    with the eigenvalues of all blocks projected jointly onto the simplex.
    """
    w, v, theta = _pt_eig_step(x, dim_a, dim_b)
    w = np.clip(w - theta, 0.0, None)
    return la.partial_transpose((v * w[..., None, :]) @ la.dag(v), dim_a, dim_b)


def _ppt_split(x_step, dim_a: int, dim_b: int) -> tuple[np.ndarray, int, bool]:
    """ADMM over the density matrices z with z^PT >= 0, using a copy x = z
    for the objective, whose proximal map with step ``ADMM_STEP`` is
    ``x_step``, and a density copy y = z^PT.  The z-step is one density
    projection of the average of x + u1 and (y + u2)^PT, because the partial
    transpose is a Frobenius isometry.  Stops when x - z, y - z^PT and the
    step in z are below 1e-10, or after ``ADMM_ITERS`` iterations.  Returns
    (z, iterations, converged).
    """
    d = dim_a * dim_b
    z = np.eye(d, dtype=complex) / d
    u1 = np.zeros_like(z)
    u2 = np.zeros_like(z)
    for it in range(1, ADMM_ITERS + 1):
        x = x_step(z - u1)
        y = la.density_project(la.partial_transpose(z, dim_a, dim_b) - u2)
        z_new = la.density_project(0.5 * (x + u1 + la.partial_transpose(y + u2, dim_a, dim_b)))
        zt_new = la.partial_transpose(z_new, dim_a, dim_b)
        u1 += x - z_new
        u2 += y - zt_new
        done = max(map(np.linalg.norm, (x - z_new, y - zt_new, z_new - z))) < 1e-10
        z = z_new
        if done:
            return z, it, True
    return z, ADMM_ITERS, False


def project_ppt_density(x: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Frobenius projection onto {rho >= 0, Tr rho = 1} intersect {rho^PT >= 0}.

    The split ADMM of :func:`_ppt_split` with the proximal map of
    ||x - rho||^2 / 2.  Raises ``ChannelError`` if it stops at ``ADMM_ITERS``.
    """
    x0 = la.herm_part(np.asarray(x, dtype=complex))
    z, it, converged = _ppt_split(
        lambda v: (v + ADMM_STEP * x0) / (1.0 + ADMM_STEP), dim_a, dim_b
    )
    if not converged:
        raise ChannelError(f"PPT density projection did not converge in {it} iterations")
    return z


def separable_twirl(tau: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Classically correlated shadow of ``tau``: dephased in the product of
    the local reduced-state eigenbases, mixed towards the identity so the
    result is full rank."""
    ra = la.partial_trace(tau, (dim_a, dim_b), keep=(0,))
    rb = la.partial_trace(tau, (dim_a, dim_b), keep=(1,))
    _, va = np.linalg.eigh(la.herm_part(ra))
    _, vb = np.linalg.eigh(la.herm_part(rb))
    basis = np.kron(va, vb)
    diag = np.real(np.diag(la.dag(basis) @ tau @ basis))
    diag = np.clip(diag, 0.0, None)
    diag = diag / diag.sum() if diag.sum() > 0 else np.ones_like(diag) / diag.size
    dephased = (basis * diag) @ la.dag(basis)
    d = dim_a * dim_b
    return (1.0 - TWIRL_MIX) * dephased + TWIRL_MIX * np.eye(d) / d


# ---------------------------------------------------------------------------
# chi-square distance to the PPT set (projected gradient with barrier)
# ---------------------------------------------------------------------------


def _accelerated_pgd(evaluate, proj, x0, max_iter, stall_tol, eig0=None):
    """Projected gradient with Nesterov extrapolation and adaptive restart.

    ``evaluate(x, eig) -> (f, grad, score, eig)`` follows
    :func:`_interior_chi2` and ``proj(x) -> x``; both operate on (n, d, d)
    stacks of Hermitian blocks.
    Gradients are evaluated only where they are read, at the points a step
    is launched from: a line-search candidate is judged by its value alone,
    and its gradient is computed only if a later step launches from it.
    With momentum coefficient 0 (the first accepted step after every start
    and restart) the extrapolated point is the candidate itself, and its
    evaluation is reused.  ``x0`` must be feasible with a
    finite objective; it is taken as given, since re-projecting a warm start
    with an eigenvalue near zero can push it out of the open PSD cone.
    ``eig0``, if given, is the eigendecomposition of ``x0``.
    Stops after three stalls with no larger decrease in between; a stall is
    a decrease below ``stall_tol``, or no decrease after a plain (not
    extrapolated) step.  Returns (x, ``score()`` of x from the eigensolve
    that evaluated it, iterations, converged, that eigendecomposition).
    """
    x = x0
    f_x, g_x, s_x, e_x = evaluate(x, eig0)
    if not math.isfinite(f_x):
        raise ChannelError("optimizer started outside the feasible interior")
    y, f_y, g_y = x, f_x, g_x
    t = 1.0
    step = 1.0
    iters = 0
    stall = 0
    momentum = False

    while iters < max_iter:
        grad = g_y()
        # Cap the raw excursion so projections stay numerically meaningful;
        # the sufficient-decrease test below still sees the actual move.
        gnorm = float(np.linalg.norm(grad))
        cap = 1e3 / gnorm if gnorm > 0 else math.inf
        halvings = 0
        while True:
            cand = proj(y - min(step, cap) * grad)
            f_c, g_c, s_c, e_c = evaluate(cand)
            move = cand - y
            model = float(np.real(np.vdot(grad, move))) + np.linalg.norm(move) ** 2 / (2 * step)
            if f_c <= f_y + model + 1e-14 or halvings >= 60:
                break
            step *= 0.5
            halvings += 1
        iters += 1
        if f_c > f_x - 1e-15:
            # No decrease.  After an extrapolated launch it is an overshoot,
            # not a stall; either way restart from the best iterate.
            stalled, restart = not momentum, True
        else:
            decrease = f_x - f_c
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            if beta == 0.0:
                # The first step after a (re)start: the launch point is cand.
                y, f_y, g_y = cand, f_c, g_c
            else:
                # The extrapolated launch point may leave the feasible region
                # (its value is then +inf); fall back to the plain iterate.
                y = cand + beta * (cand - x)
                f_y, g_y = evaluate(y)[:2]
            x, f_x, g_x, s_x, e_x = cand, f_c, g_c, s_c, e_c
            t = t_new
            momentum = True
            restart = not math.isfinite(f_y)
            if halvings == 0:
                step *= 1.2
            stalled = decrease < stall_tol + 1e-14
            if not stalled:
                stall = 0
        if stalled:
            stall += 1
            if stall >= 3:
                return x, s_x(), iters, True, e_x
        if restart:
            y, f_y, g_y = x, f_x, g_x
            t = 1.0
            momentum = False
    return x, s_x(), iters, False, e_x


def _min_chi2(taus, weights, x0, dim_a: int, dim_b: int, cfg: SepConfig):
    """Minimize sum_k weights_k (chi2(taus_k, x_k) + 1) - 1 over stacks x
    with sum_k Tr x_k = 1 and every x_k^PT >= 0.

    Barrier path following: each of ``BARRIER_STAGES`` minimizes the
    ``_interior_chi2`` objective by accelerated projected gradient, warm
    started from the previous stage, and all stages share the
    ``cfg.max_iter`` budget.  A stage at barrier weight mu stalls on
    decreases below ``1e-2 * max(cfg.obj_tol, mu)``.  The binding
    constraint at a chi-square optimum is the partial-transpose one, which
    :func:`project_pt_trace` handles with no conditioning penalty; the
    positivity barrier stays inactive for minimizers of full support.
    After every stage the iterate is scored without barrier (``mu = 0``)
    and the best one is kept; the score is the chi-square sum taken from
    the iterate's own eigensolve, before the barrier term is added, and
    the next stage starts from that same eigendecomposition, so no stage
    needs a fresh eigensolve.  ``x0`` must be feasible and strictly
    positive.  Returns (value, x, iterations, converged, eig), with
    ``converged`` from the last stage run and ``eig = (w, v)`` the
    eigendecomposition of x.
    """
    taus = np.asarray(taus, dtype=complex)
    weights = np.asarray(weights, dtype=float)

    def proj(x):
        # Through the public name, so per-layer profiles see the projection.
        return project_pt_trace(x, dim_a, dim_b)

    best_val, best_x, best_eig = math.inf, x0, None
    x, eig, total_iters, converged = x0, None, 0, False
    for mu in BARRIER_STAGES:
        budget = cfg.max_iter - total_iters
        if budget <= 0:
            break
        x, value, it, converged, eig = _accelerated_pgd(
            _interior_chi2(taus, weights, mu), proj, x, budget,
            1e-2 * max(cfg.obj_tol, mu), eig,
        )
        total_iters += it
        if value < best_val:
            best_val, best_x, best_eig = value, x, eig
    return max(best_val, 0.0), best_x, total_iters, converged, best_eig


def _chi2_lower(tau: np.ndarray, eig, dim_a: int, dim_b: int, target: float) -> float:
    """Certified lower bound on min chi2(tau, rho) over density matrices rho
    with rho^PT >= 0, from the convexity of chi2(tau, .) at points x > 0
    built on the eigendecomposition ``eig = (w, v)``, every w > 0, of a
    unit-trace iterate sigma = v diag(w) v^dag.

    With f and G the value and gradient at x, and any Y >= 0,

        chi2(tau, rho) >= f - <G, x> + <G - Y^PT, rho>
                       >= f - <G, x> + lambda_min(G - Y^PT),

    because <Y^PT, rho> = <Y, rho^PT> >= 0 and Tr rho = 1.  chi2(tau, .) + 1
    is homogeneous of degree -1, so f - <G, x> = 2 f + 1 (Euler), exact at
    the matrix that the eigendata represent.  The bound holds at any x > 0;
    it is taken at x = (1 - eps) sigma + eps I/d for each eps in
    ``CERT_MIX``, the iterate itself first, which share sigma's eigenbasis.
    Mixing tames the gradient at near-singular iterates.  Y is the
    multiplier N of the projection of (x - alpha G)^PT, over alpha, for
    each alpha in ``CERT_STEPS``; at a minimizer the bound equals f.  Each
    bound is lowered by a margin for the rounding of the eigensolves and
    inner products and clipped at 0.  Returns the highest, and takes no
    further point once a bound reaches ``target``.
    """
    w0, v = eig
    d = len(w0)
    ulp = CERT_MARGIN_ULPS * d * EPS
    best = 0.0
    for eps in CERT_MIX:
        w = (1.0 - eps) * w0 + eps / d
        values, eig_data = _chi2_values(tau[None], w[None], v[None])
        f, g = float(values[0]), _chi2_grad(w[None], v[None], eig_data, 0.0)[0]
        x = (v * w) @ la.dag(v)
        dual = -math.inf
        for alpha in CERT_STEPS:
            wp, vp, theta = _pt_eig_step(x - alpha * g, dim_a, dim_b)
            y = (vp * (np.clip(theta - wp, 0.0, None) / alpha)) @ la.dag(vp)
            lam = float(np.linalg.eigvalsh(g - la.partial_transpose(y, dim_a, dim_b))[0])
            dual = max(dual, lam - ulp * float(np.linalg.norm(y)))
        roots = math.sqrt(max(f + 1.0, 0.0)) * float(np.sum(w**-0.5))
        scale = abs(f) + 1.0 + float(np.linalg.norm(g)) + roots
        best = max(best, 2.0 * f + 1.0 + dual - ulp * scale)
        if best >= target:
            break
    return best


def chisep(s: BipartiteState, cfg: SepConfig = SepConfig()) -> SepApproxResult:
    """Minimum chi-square divergence from ``s`` to the PPT set.

    Separable inputs short-circuit to zero (the infimum is attained in the
    closure at the state itself).  Otherwise :func:`_min_chi2` runs from the
    maximally mixed state, and :func:`_chi2_lower` certifies a lower bound
    from its iterate's eigendecomposition, mixing towards I/d only while
    the gap between the value and that bound exceeds
    ``CHISEP_GAP_TOL * max(1, value)``.  Only while the gap exceeds
    ``VERDICT_SLACK``, the slack of the verdicts that read chisep values,
    does a second run start from the input's separable twirl, certified
    the same way; no start can go below the bound, so skipping it moves the
    value by at most the gap.  Each start is projected once.  The lowest
    feasible value and the highest lower bound are returned, with no
    minimizer (its callers read only the value and the bound); ``extras``
    hold ``lower``, ``gap``, ``certified`` (gap within ``CHISEP_GAP_TOL *
    max(1, value)``) and the value of each start that ran
    (``start_values``).
    """
    _check_desk_scale(s)
    tau = s.matrix
    d = s.dim_a * s.dim_b
    ppt_min = ppt_min_eigenvalue(s)
    if ppt_min >= -PSD_TOL:
        return SepApproxResult(
            value=0.0, minimizer=s.state, method=_method_tag(s.dim_a, s.dim_b),
            iterations=0, converged=True,
            extras={"note": "input is PPT; chi-square distance zero in the closure",
                    "ppt_min_eig": ppt_min, "lower": 0.0, "gap": 0.0, "certified": True},
        )
    dims = (s.dim_a, s.dim_b)
    runs, lower = [], 0.0
    # The twirl is built only if its start runs.
    for start in (lambda: np.eye(d, dtype=complex) / d, lambda: separable_twirl(tau, *dims)):
        run = _min_chi2(tau[None], [1.0], project_pt_trace(start()[None], *dims), *dims, cfg)
        runs.append(run)
        value = min(r[0] for r in runs)
        w, v = run[4]
        target = value - CHISEP_GAP_TOL * max(1.0, value)
        lower = max(lower, _chi2_lower(tau, (w[0], v[0]), *dims, target))
        if value - lower <= VERDICT_SLACK:
            break
    return SepApproxResult(
        value=value,
        minimizer=None,
        method=_method_tag(s.dim_a, s.dim_b),
        iterations=sum(run[2] for run in runs),
        converged=all(run[3] for run in runs),
        extras={
            "ppt_min_eig_input": ppt_min,
            "start_values": [run[0] for run in runs],
            "lower": lower,
            "gap": value - lower,
            "certified": value - lower <= CHISEP_GAP_TOL * max(1.0, value),
        },
    )


# ---------------------------------------------------------------------------
# 1-norm distance to the PPT set
# ---------------------------------------------------------------------------


def _soft_threshold_eig(x: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(la.herm_part(x))
    w = np.sign(w) * np.clip(np.abs(w) - t, 0.0, None)
    return (v * w) @ la.dag(v)


def dsep(s: BipartiteState) -> SepApproxResult:
    """Minimum of ||tau - zeta||_1 over the PPT set by the split ADMM.

    The 1-norm enters through its proximal map, an eigenvalue soft
    threshold.  The value is ||tau - z||_1 at the final iterate z, a density
    matrix whose partial transpose is positive within the stop tolerance
    once ``converged``: a feasible, hence upper, value of the PPT minimum.
    That minimum is the separable distance for 2x2 and 2x3 and a lower
    bound on it above.
    """
    _check_desk_scale(s)
    tau = s.matrix
    if is_ppt(s):
        return SepApproxResult(
            value=0.0, minimizer=s.state, method=_method_tag(s.dim_a, s.dim_b),
            iterations=0, converged=True, extras={"note": "input is PPT"},
        )
    z, it, converged = _ppt_split(
        lambda v: tau - _soft_threshold_eig(tau - v, ADMM_STEP), s.dim_a, s.dim_b
    )
    return SepApproxResult(
        value=la.trace_norm(tau - z),
        minimizer=DensityState.from_matrix(z),
        method=_method_tag(s.dim_a, s.dim_b),
        iterations=it,
        converged=converged,
        extras={},
    )


# ---------------------------------------------------------------------------
# cc-qq states: the block formula and the direct block-diagonal oracle
# ---------------------------------------------------------------------------


def chisep_ccqq(s: CcQqState, cfg: SepConfig = SepConfig()) -> SepApproxResult:
    """Chi-square distance to the separable set across (XA : BY) for a cc-qq
    state, via per-block values combined as (sum_xy p sqrt(chi+1))^2 - 1.

    The optimal block weights q_xy = p sqrt(chi+1) / Z are exposed in the
    extras for diagnostics.  ``extras["lower"]`` pushes the per-block
    certified lower bounds of :func:`chisep` through the same formula, which
    is increasing in each chi, so it is a certified lower bound too once
    shrunk by the formula's own rounding.
    """
    per_block, per_lower = [], []
    iters = 0
    conv = True
    for blk in s.blocks:
        if blk.prob <= 1e-15:
            per_block.append(0.0)
            per_lower.append(0.0)
            continue
        res = chisep(BipartiteState.from_matrix(blk.rho, s.dim_a, s.dim_b), cfg)
        per_block.append(res.value)
        per_lower.append(res.extras["lower"])
        iters += res.iterations
        conv = conv and res.converged

    def terms(chis):
        return [blk.prob * math.sqrt(v + 1.0) for blk, v in zip(s.blocks, chis)]

    z_terms = terms(per_block)
    z = sum(z_terms)
    value = max(z * z - 1.0, 0.0)
    # The roots, products, sum and square round z^2 by under (2B + 5) eps.
    z_low = sum(terms(per_lower))
    lower = max(z_low * z_low * (1.0 - 4.0 * (len(s.blocks) + 3) * EPS) - 1.0, 0.0)
    q = [t / z for t in z_terms] if z > 0 else [0.0 for _ in z_terms]
    return SepApproxResult(
        value=float(value),
        minimizer=None,
        method=_method_tag(s.dim_a, s.dim_b),
        iterations=iters,
        converged=conv,
        extras={"per_block": per_block, "q_weights": q, "lower": lower},
    )


def chisep_ccqq_blockdiag(s: CcQqState) -> SepApproxResult:
    """Direct minimization of chi2 over block-diagonal PPT states.

    The variable is one unnormalized PSD-and-PT-PSD matrix per classical
    label with unit total trace; the objective sum_b p_b^2 Tr(rho_b S_b^-1/2
    rho_b S_b^-1/2) - 1 is minimized over all blocks at once by the same
    :func:`_min_chi2` that :func:`chisep` runs per block.  Serves as the
    independent cross-check of the closed block formula, which solves each
    block alone and combines the values.
    """
    blocks = [b for b in s.blocks if b.prob > 1e-15]
    n = len(blocks)
    d = s.dim_a * s.dim_b
    # The start I / (n d) is feasible and strictly positive.
    value, mats, iters, converged, _ = _min_chi2(
        [b.rho for b in blocks], [b.prob**2 for b in blocks],
        np.stack([np.eye(d) / (n * d)] * n), s.dim_a, s.dim_b, SepConfig(),
    )
    return SepApproxResult(
        value=value,
        minimizer=None,
        method=_method_tag(s.dim_a, s.dim_b),
        iterations=iters,
        converged=converged,
        extras={"block_traces": [float(np.real(np.trace(m))) for m in mats]},
    )


# ---------------------------------------------------------------------------
# Separable channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparableChannel:
    """Bipartite channel with product Kraus operators K_A (x) K_B."""

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    a_in: int
    a_out: int
    b_in: int
    b_out: int

    @cached_property
    def channel(self) -> KrausChannel:
        """The product Kraus channel, built on first use and kept."""
        return KrausChannel.from_kraus([np.kron(ka, kb) for ka, kb in self.pairs])

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.channel.apply(rho)


def make_separable_channel(pairs) -> SeparableChannel:
    """Build and validate a separable channel from explicit factor pairs.

    The factor list must be dimension consistent and the derived map trace
    preserving; anything else is rejected (a global unitary like SWAP has no
    such factorization and simply cannot be expressed here).
    """
    frozen_pairs = []
    a_shape = b_shape = None
    for ka, kb in pairs:
        ka = np.asarray(ka, dtype=complex)
        kb = np.asarray(kb, dtype=complex)
        if ka.ndim != 2 or kb.ndim != 2:
            raise ChannelError("factor operators must be matrices")
        if a_shape is None:
            a_shape, b_shape = ka.shape, kb.shape
        if ka.shape != a_shape or kb.shape != b_shape:
            raise ChannelError("inconsistent factor dimensions across pairs")
        frozen_pairs.append((la.frozen(ka), la.frozen(kb)))
    if not frozen_pairs:
        raise ChannelError("separable channel needs at least one factor pair")
    sep = SeparableChannel(
        pairs=tuple(frozen_pairs),
        a_in=a_shape[1], a_out=a_shape[0], b_in=b_shape[1], b_out=b_shape[0],
    )
    res = sep.channel.tp_residual()
    if res > TP_TOL:
        raise ChannelError(f"factor pairs do not form a channel (TP residual {res:.3e})")
    return sep


def local_product_channel(ch_a: KrausChannel, ch_b: KrausChannel) -> SeparableChannel:
    """The separable channel T_A (x) T_B from two local channels."""
    pairs = [(ka, kb) for ka in ch_a.kraus for kb in ch_b.kraus]
    return make_separable_channel(pairs)


def mixture_of_local_pairs(terms) -> SeparableChannel:
    """sum_i p_i (A_i (x) B_i) from (prob, channel_a, channel_b) terms."""
    pairs = []
    for p, ch_a, ch_b in terms:
        if p < 0:
            raise ChannelError("mixture weights must be non-negative")
        root = math.sqrt(p)
        pairs.extend((root * ka, kb) for ka in ch_a.kraus for kb in ch_b.kraus)
    return make_separable_channel(pairs)


def apply_separable_to_ccqq(s: CcQqState, t: SeparableChannel) -> CcQqState:
    if t.a_in != s.dim_a or t.b_in != s.dim_b:
        raise ChannelError("separable channel dimensions do not match the state")
    blocks = [(b.x, b.y, b.prob, t.apply(b.rho)) for b in s.blocks]
    return CcQqState.from_blocks(t.a_out, t.b_out, blocks)


# ---------------------------------------------------------------------------
# Single-step contraction check
# ---------------------------------------------------------------------------


class PreconditionError(ChannelError):
    """The input of :func:`verify_contraction_step` lies within epsilon of
    the separable set in chi-square distance, where the step bound does not
    apply."""


@dataclass(frozen=True)
class ContractionStepReport:
    passed: bool
    chi_in: float
    chi_out: float
    eta_upper: float
    rhs: float


def verify_contraction_step(
    s: CcQqState, t: SeparableChannel, epsilon: float, seed: int = 0
) -> ContractionStepReport:
    """Check one separable-channel step of the chi-square contraction bound.

    Both sides of chi_out <= (1 - eps^2/100 (1 - eta)) chi_in are evaluated
    with eta the certified minimal-output-eigenvalue upper bound on the
    trace-norm contraction coefficient of ``t``, estimated from ``seed``;
    it upper-bounds the chi-square coefficient, making the right side
    sound.  Both chi-square distances run with the default
    :class:`SepConfig`.  The check passes with ``VERDICT_SLACK`` (1e-6).  An
    input with chi_in below ``epsilon`` raises :class:`PreconditionError`.
    """
    if not 0.0 < epsilon < 1.0:
        raise ChannelError("epsilon must lie in (0, 1)")
    chi_in = chisep_ccqq(s).value
    if chi_in < epsilon:
        raise PreconditionError(
            f"precondition violated: chi-square distance {chi_in:.6f} below epsilon {epsilon}"
        )
    out = apply_separable_to_ccqq(s, t)
    chi_out = chisep_ccqq(out).value
    eta_up = eta_tr_upper_minoutev(t.channel, seed=seed).value
    rhs = (1.0 - epsilon**2 / 100.0 * (1.0 - eta_up)) * chi_in
    return ContractionStepReport(
        passed=bool(chi_out <= rhs + VERDICT_SLACK),
        chi_in=chi_in,
        chi_out=chi_out,
        eta_upper=eta_up,
        rhs=rhs,
    )
