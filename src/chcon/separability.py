"""Separability machinery: PPT tests, distances to the separable set, and
the classical-quantum block formula for the chi-square distance.

The separable set is represented by the positive-partial-transpose (PPT)
spectrahedron, which is exact for 2x2 and 2x3 bipartitions and a relaxation
above; results carry a method tag making the distinction explicit.  Over
the PPT set, dsep runs a split ADMM whose steps are closed-form density
projections, and the chi-square solvers share one path: one stacked
chi-square kernel whose gradient is evaluated only where it is read, one
closed-form projection (:func:`project_pt_trace`, a matrix, a stack of
blocks with a joint trace, or a batch of such stacks) and one barrier
driver (:func:`_min_chi2`) that solves a batch of independent problems in
lockstep and keeps each one's best barrier-free stage value.
:func:`chisep_batch` runs it on one block per state from the maximally
mixed state and certifies the results with a convex-duality lower bound
(:func:`_chi2_lower`, read off each iterate's eigendecomposition and,
while the gap stays open, off the same basis mixed towards I/d; its
partial-transpose multiplier comes from the same eigen-step as the
projection).  A second start from the separable twirl runs only for the
states whose gap exceeds ``VERDICT_SLACK``, the slack of the verdicts that
read the value.  :func:`chisep` is a batch of one state, and a state's
result is the same in any batch.  The cc-qq block formula solves the
blocks of many states together (:func:`chisep_ccqq_stream`); the
block-diagonal cross-check runs :func:`_min_chi2` as one problem of all
blocks.  Each reports its objective at a feasible point.
"""

from __future__ import annotations

import math
from collections import deque
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
# Problems per call of the batched chi-square solver; its memory grows with
# the chunk, not with the number of problems.
CHISEP_CHUNK = 64
# Halvings of a line-search step tried together in each round after the
# first, for blocks of dimension up to ``SEARCH_HALVINGS_DIM`` (one above):
# there the extra eigensolves cost less than the fixed cost of the rounds
# they save, and from 9x9 blocks up they cost more.
SEARCH_HALVINGS = 4
SEARCH_HALVINGS_DIM = 8


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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products ``(P,)`` of the rows of two ``(P, ...)`` arrays, one BLAS
    dot per row, so each is what ``np.dot`` gives for that row pair alone."""
    count = len(a)
    return (a.reshape(count, 1, -1) @ b.reshape(count, -1, 1))[:, 0, 0]


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm`` of a contiguous complex array, summed the same way
    (one BLAS dot of the real parts, one of the imaginary parts)."""
    flat = a.reshape(-1)
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norms ``(P,)`` of the rows of a complex ``(P, ...)`` stack,
    each summed as ``np.linalg.norm`` sums that row alone."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(_dots(flat.real, flat.real) + _dots(flat.imag, flat.imag))


def _chi2_values(taus: np.ndarray, w: np.ndarray, v: np.ndarray):
    """Values chi2(tau, x) of a stack of blocks ``(..., d, d)``, one per
    block, given the eigendecompositions x = v diag(w) v^dag with every
    w > 0, and the eigenbasis data that :func:`_chi2_grad` reuses.
    """
    roots = np.sqrt(w)
    h = 1.0 / roots
    t2 = la.dag(v) @ taus @ v
    values = np.add.reduce((np.abs(t2) ** 2) * (h[..., :, None] * h[..., None, :]), axis=(-2, -1))
    return values - 1.0, (roots, h, t2)


def _chi2_grad(w: np.ndarray, v: np.ndarray, eig_data, mu) -> np.ndarray:
    """Gradients ``(..., d, d)`` of chi2(tau, x) - mu * logdet(x) in x for a
    stack of blocks, from the eigendecompositions ``(w, v)`` and the
    eigenbasis data that :func:`_chi2_values` returned for them; ``mu`` is
    a barrier weight that broadcasts against ``w``.

    Uses the Daleckii-Krein derivative of s -> s^{-1/2} on the eigenbasis of
    each x.
    """
    roots, h, t2 = eig_data
    # Divided differences of g(s) = s^{-1/2}; the closed form
    # (g(a) - g(b)) / (a - b) = -1 / (sqrt(ab) (sqrt(a) + sqrt(b)))
    # is exact, has no cancellation, and covers coincident eigenvalues.
    r_row, r_col = roots[..., :, None], roots[..., None, :]
    phi = -1.0 / ((r_row * r_col) * (r_row + r_col))
    b = t2 @ (h[..., :, None] * t2)  # = tau' G tau' in the eigenbasis
    grad_eig = 2.0 * b * phi
    d = w.shape[-1]
    # The diagonal of each block, as a view; mu = 0 subtracts exact zeros.
    grad_eig.reshape(grad_eig.shape[:-2] + (d * d,))[..., :: d + 1] -= mu * (1.0 / w)
    grad = v @ grad_eig @ la.dag(v)
    return la.herm_part(grad)


def _chi2_eval(taus, weights, x, mu, eig=None) -> tuple:
    """Barrier objective of a batch of problems at points x ``(P, n, d, d)``,

        f_p = sum_k weights_pk (chi2(taus_pk, x_pk) - mu_p logdet x_pk + 1) - 1,

    +inf for a problem with a block outside the open PSD cone.  The barrier
    keeps iterates strictly positive, so the partial-transpose constraint is
    enforced by exact projection without a second wall.

    Takes one batched eigendecomposition ``eig = (w, v)`` of x, or reuses
    the one given.  Returns f ``(P,)`` and the point
    ``[x, w, v, roots, h, t2]``, with the eigenbasis data ``(roots, h, t2)``
    of :func:`_chi2_values` from which :func:`_chi2_grad_at` reads the
    gradient (zeros for a problem outside the cone).  Every row is computed
    as for that problem alone.
    """
    w, v = np.linalg.eigh(x) if eig is None else eig
    if not w[:, :, 0].min() > 0.0:
        f = np.full(len(x), math.inf)
        point = [x, w, v, np.zeros_like(w), np.zeros_like(w), np.zeros_like(v)]
        rows = np.flatnonzero(w[:, :, 0].min(axis=1) > 0.0)
        if len(rows):
            f[rows], part = _chi2_eval(taus[rows], weights[rows], x[rows], mu[rows], (w[rows], v[rows]))
            for data, rows_data in zip(point[3:], part[3:]):
                data[rows] = rows_data
        return f, point
    chi, eig_data = _chi2_values(taus, w, v)
    values = chi - mu[:, None] * np.add.reduce(np.log(w), axis=-1)
    if values.shape[1] == 1:
        # One block per problem: the dot product is its one term.
        return weights[:, 0] * (values[:, 0] + 1.0) - 1.0, [x, w, v, *eig_data]
    return _dots(weights, values + 1.0) - 1.0, [x, w, v, *eig_data]


def _chi2_grad_at(weights, point, mu) -> np.ndarray:
    """Weighted gradients ``(P, n, d, d)`` of the barrier objective of
    :func:`_chi2_eval` at a batch of points inside the cone, read from
    their eigendata."""
    _, w, v, *eig_data = point
    return weights[:, :, None, None] * _chi2_grad(w, v, eig_data, mu[:, None, None])


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def _pt_eig_step(x: np.ndarray, dim_a: int, dim_b: int):
    """Eigendecomposition ``(w, v)`` of x^PT (batched over a stack) and the
    simplex shift ``theta`` of all its eigenvalues jointly, or, for a
    ``(P, n, d, d)`` batch of problems, of each problem's eigenvalues
    jointly (``theta`` then has shape ``(P, 1, 1)``).

    x^PT - theta I splits as ``v diag((w - theta)_+) v^dag``, its projection
    onto the (block-diagonal) density matrices, minus
    ``N = v diag((theta - w)_+) v^dag``, the PSD multiplier of that
    projection.
    """
    w, v = np.linalg.eigh(la.partial_transpose(la.herm_part(np.asarray(x)), dim_a, dim_b))
    # The eigenvalues of one block come in ascending order.
    one = w.ndim == 1 or w.shape[-2] == 1
    if w.ndim < 3:
        return w, v, la.simplex_shift(w.reshape(-1), one)
    return w, v, la.simplex_shift(w.reshape(len(w), -1), one)[:, None, None]


def project_pt_trace(x: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Exact projection of a matrix onto {Tr x = 1, x^PT >= 0}, or of an
    ``(n, d, d)`` stack onto {sum_k Tr x_k = 1, every x_k^PT >= 0}, or of
    each problem of a ``(P, n, d, d)`` batch onto its own such set.

    The partial transpose only permutes matrix entries and keeps the trace,
    so it is a Frobenius isometry taking this set onto the (block-diagonal)
    density matrices.  Their projection is one batched eigendecomposition
    with the eigenvalues of all blocks of a problem projected jointly onto
    the simplex; each problem of a batch is projected as if alone.
    """
    w, v, theta = _pt_eig_step(x, dim_a, dim_b)
    w = np.maximum(w - theta, 0.0)
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


class _Chi2Runs(NamedTuple):
    """Per-problem results of :func:`_min_chi2`."""

    value: np.ndarray  # (P,) best barrier-free value over the stages, clipped at 0
    x: np.ndarray  # (P, n, d, d) the iterate that scored it
    iterations: np.ndarray  # (P,) iterations over all stages
    converged: np.ndarray  # (P,) whether the last stage run stalled out
    w: np.ndarray  # (P, n, d) eigenvalues of x
    v: np.ndarray  # (P, n, d, d) eigenvectors of x


class _Run:
    """The scalar state of one problem of :func:`_min_chi2`: its barrier
    stage, its best value so far, and the projected-gradient state within
    the stage."""

    __slots__ = (
        "index", "budget", "obj_tol", "stage", "spent", "best", "converged", "stall_tol",
        "f_x", "f_y", "t", "step", "iters", "stall", "same_y", "y_is_x", "cap", "halvings",
        "took", "stalled", "restart", "launched", "slot",
    )

    def __init__(self, index: int, cfg: SepConfig, f: float):
        self.index = index
        self.budget = cfg.max_iter
        self.obj_tol = cfg.obj_tol
        self.stage = 0
        self.spent = 0  # iterations of the finished stages
        self.best = math.inf
        self.converged = False
        self.start_stage(f)

    def start_stage(self, f: float):
        """Start stage ``self.stage`` at an iterate of objective value f."""
        self.stall_tol = 1e-2 * max(self.obj_tol, BARRIER_STAGES[self.stage])
        self.f_x = self.f_y = f
        self.t = 1.0  # the momentum coefficient; 1 right after a (re)start
        self.step = 1.0
        self.iters = 0
        self.stall = 0
        self.same_y = False  # whether the launch point is the last one
        self.y_is_x = True

    def passes(self, f_c: float, grad, move) -> bool:
        """The sufficient-decrease test of a candidate at the current step:
        value ``f_c`` against the quadratic model of the ``move`` to it."""
        model = float(np.vdot(grad, move).real) + _norm(move) ** 2 / (2 * self.step)
        return f_c <= self.f_y + model + 1e-14


def _take(arrays: list, rows) -> list:
    """The rows ``rows`` of every array of ``arrays``; all of them, as they
    are, for ``rows`` None."""
    return arrays if rows is None else [a[rows] for a in arrays]


def _put(point: list, rows, values: list) -> list:
    """``point`` with its rows ``rows`` replaced by ``values``, as fresh
    arrays (``point`` itself is left as it is)."""
    out = [a.copy() for a in point]
    for a, b in zip(out, values):
        a[rows] = b
    return out


def _factors(values: list):
    """Real factors, one per problem, to scale a ``(P, n, d, d)`` stack by: a
    float for one problem, a complex column for more.  A real factor enters
    a complex product as (a + 0i) either way, so each problem's product is
    the one it gets alone."""
    if len(values) == 1:
        return values[0]
    return np.array(values, dtype=complex)[:, None, None, None]


def _min_chi2(taus, weights, x0, dim_a: int, dim_b: int, cfgs) -> _Chi2Runs:
    """Minimize, for each problem p of a batch, sum_k weights_pk
    (chi2(taus_pk, x_pk) + 1) - 1 over stacks x_p with sum_k Tr x_pk = 1 and
    every x_pk^PT >= 0.  ``taus`` and ``x0`` are ``(P, n, d, d)``,
    ``weights`` is ``(P, n)`` and ``cfgs`` holds one :class:`SepConfig`
    per problem.

    Barrier path following: each of ``BARRIER_STAGES`` minimizes the
    :func:`_chi2_eval` objective by accelerated projected gradient, warm
    started from the previous stage, and all stages share the
    ``max_iter`` budget.  The binding constraint at a chi-square optimum is
    the partial-transpose one, which :func:`project_pt_trace` handles with
    no conditioning penalty; the positivity barrier stays inactive for
    minimizers of full support.

    One stage is projected gradient with Nesterov extrapolation and
    adaptive restart.  A step launches with step ``min(step, 1e3 / |grad|)``
    (the cap keeps projections numerically meaningful) and is halved until
    the candidate passes the sufficient-decrease test, at most 60 times;
    the test sees the actual move.  A candidate with no decrease restarts
    the momentum from the best iterate; after an extrapolated launch that
    is an overshoot, not a stall.  The first step after a (re)start
    launches from the candidate itself, later ones from the extrapolated
    point, which may leave the feasible region (its value is then +inf)
    and then restarts too.  The stage ends after three stalls with no
    larger decrease in between, a stall being a decrease below
    ``1e-2 * max(obj_tol, mu)``, or when the budget runs out.  Its iterate
    is then scored without barrier, from the chi-square sum of its own
    eigensolve, and the best one is kept; the next stage starts from that
    eigendecomposition, so no stage needs a fresh eigensolve.  Gradients
    are read only at launch points.

    The problems run in lockstep.  An iteration takes one batched
    gradient, line-search rounds that each project and evaluate the
    candidates of every problem still searching in one stacked call, and
    one batched evaluation of the extrapolated points.  The first round
    tries each problem's step, each later round the next
    ``SEARCH_HALVINGS`` halvings of each problem that has not passed (one
    for blocks above ``SEARCH_HALVINGS_DIM``), each the step its own
    search tries next, of which it takes the first to pass.  The scalar
    state of each problem is its own :class:`_Run`, updated as for
    that problem alone, and a problem leaves the batch once it finishes.
    Work on all the problems skips the row selection, and the factors of
    one problem are plain floats (:func:`_factors`).  Stacked
    eigensolves and products are row-wise, and every norm and inner
    product is taken on the problem's own rows, so its results do not
    depend on the others in its batch.  ``x0`` must be feasible and
    strictly positive; it is taken as given, since re-projecting a warm
    start with an eigenvalue near zero can push it out of the open PSD
    cone.
    """
    taus = np.asarray(taus, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    x0 = np.asarray(x0, dtype=complex)
    count = len(x0)
    out = _Chi2Runs(
        np.empty(count), np.empty_like(x0), np.zeros(count, dtype=int),
        np.zeros(count, dtype=bool), np.empty(x0.shape[:3]), np.empty_like(x0),
    )
    mu = np.full(count, BARRIER_STAGES[0])
    f, x = _chi2_eval(taus, weights, x0, mu)
    if not np.isfinite(f).all():
        raise ChannelError("optimizer started outside the feasible interior")
    runs = [_Run(i, cfg, value) for i, (cfg, value) in enumerate(zip(cfgs, f.tolist()))]
    y, grad = x, None
    span = SEARCH_HALVINGS if x0.shape[-1] <= SEARCH_HALVINGS_DIM else 1

    def trial(rows, steps):
        # Candidates of the problems ``rows`` (all for None) at the step
        # lengths ``steps``, stacked.
        y0, g, t, wt, m = _take([y[0], grad, taus, weights, mu], rows)
        c = project_pt_trace(y0 - _factors(steps) * g, dim_a, dim_b)
        f, point = _chi2_eval(t, wt, c, m)
        return f.tolist(), point, c - y0

    while runs:
        # The gradient at each launch point, kept from the last iteration
        # where the launch point is the same.
        new = [k for k, run in enumerate(runs) if not run.same_y]
        if len(new) == len(runs):
            grad = _chi2_grad_at(weights, y, mu)
        elif new:
            grad[new] = _chi2_grad_at(weights[new], _take(y, new), mu[new])
        for k in new:
            gnorm = _norm(grad[k])
            runs[k].cap = 1e3 / gnorm if gnorm > 0 else math.inf
        f_cand, cand, move = trial(None, [min(run.step, run.cap) for run in runs])
        retry = []
        for k, run in enumerate(runs):
            run.halvings = 0
            if not run.passes(f_cand[k], grad[k], move[k]):
                retry.append(k)
        while retry:
            # The next ``span`` halvings of every problem still searching,
            # stacked, each the step its own search tries next.
            rows, steps = [], []
            for k in retry:
                run = runs[k]
                rows += [k] * span
                steps += [min(run.step * 0.5**j, run.cap) for j in range(1, span + 1)]
            every = span == 1 and len(retry) == len(runs)
            f_point, point, move = trial(None if every else rows, steps)
            found, picks, still = [], [], []
            for i, k in enumerate(retry):
                run = runs[k]
                for q in range(i * span, (i + 1) * span):
                    run.step *= 0.5
                    run.halvings += 1
                    if run.halvings >= 60 or run.passes(f_point[q], grad[k], move[q]):
                        f_cand[k] = f_point[q]
                        found.append(k)
                        picks.append(q)
                        break
                else:
                    still.append(k)
            if every and not still:
                cand = point
            elif found:
                for a, b in zip(cand, point):
                    a[found] = b[picks]
            retry = still

        # Take the candidates that decrease the objective.  The first step
        # after a (re)start launches from the candidate itself, later ones
        # from the extrapolated point.
        launch, betas = [], []
        for k, (run, f_c) in enumerate(zip(runs, f_cand)):
            run.iters += 1
            run.took = not f_c > run.f_x - 1e-15
            if not run.took:
                # No decrease.  After an extrapolated launch it is an
                # overshoot, not a stall; either way restart from the best
                # iterate.
                run.stalled, run.restart = run.t == 1.0, True
                continue
            decrease = run.f_x - f_c
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * run.t * run.t))
            beta = (run.t - 1.0) / t_new
            run.launched = beta != 0.0
            if run.launched:
                run.slot = len(launch)
                launch.append(k)
                betas.append(beta)
            else:
                run.f_y = f_c
            run.f_x, run.t, run.restart = f_c, t_new, False
            if run.halvings == 0:
                run.step *= 1.2
            run.stalled = decrease < run.stall_tol + 1e-14
            if not run.stalled:
                run.stall = 0
        if launch:
            rows = None if len(launch) == len(runs) else launch
            cx, px, t, wt, m = _take([cand[0], x[0], taus, weights, mu], rows)
            f_far, far = _chi2_eval(t, wt, cx + _factors(betas) * (cx - px), m)
            for k, f_y in zip(launch, f_far.tolist()):
                runs[k].f_y = f_y
                runs[k].restart = not math.isfinite(f_y)

        # Close the stages that stalled out or ran out of budget; restart
        # the others where due (a restart without a step taken launches from
        # the same point again); the rest launch from the extrapolated point.
        took, ended, onward = [], [], []
        for k, run in enumerate(runs):
            if run.took:
                took.append(k)
            run.same_y = False
            if run.stalled:
                run.stall += 1
            if run.stall >= 3 or run.iters >= run.budget - run.spent:
                run.converged = run.stall >= 3
                ended.append(k)
            elif run.restart:
                run.same_y = run.y_is_x and not run.took
                run.f_y, run.t, run.y_is_x = run.f_x, 1.0, True
            else:
                run.y_is_x = not run.launched
                if run.launched:
                    onward.append(k)
        if len(took) == len(runs):
            x = cand
        elif took:
            x = _put(x, took, _take(cand, took))
        finished = []
        for k in ended:
            run = runs[k]
            run.spent += run.iters
            # The stage's value without barrier, from the iterate's eigensolve.
            w, v = x[1][k], x[2][k]
            chi = _chi2_values(taus[k], w, v)[0]
            score = float(weights[k] @ (chi + 1.0)) - 1.0
            if score < run.best:
                run.best = score
                out.x[run.index], out.w[run.index], out.v[run.index] = x[0][k], w, v
            run.stage += 1
            if run.stage < len(BARRIER_STAGES) and run.budget - run.spent > 0:
                # The next stage's objective at the iterate, from its eigendata.
                mu[k] = BARRIER_STAGES[run.stage]
                values = chi - BARRIER_STAGES[run.stage] * np.sum(np.log(w), axis=1)
                run.start_stage(float(weights[k] @ (values + 1.0)) - 1.0)
            else:
                finished.append(k)
                out.value[run.index] = max(run.best, 0.0)
                out.iterations[run.index] = run.spent
                out.converged[run.index] = run.converged
        if len(onward) == len(runs):
            y = far
        elif onward:
            y = _put(x, onward, _take(far, [runs[k].slot for k in onward]))
        else:
            y = x
        if finished:
            keep = [k for k in range(len(runs)) if k not in finished]
            runs = [runs[k] for k in keep]
            taus, weights, mu = taus[keep], weights[keep], mu[keep]
            x, y, grad = _take(x, keep), _take(y, keep), grad[keep]
    return out


def _chi2_lower(taus: np.ndarray, eig, dim_a: int, dim_b: int, targets: np.ndarray) -> np.ndarray:
    """Certified lower bounds ``(P,)`` on min chi2(tau_p, rho) over density
    matrices rho with rho^PT >= 0, from the convexity of chi2(tau_p, .) at
    points x > 0 built on the eigendecompositions ``eig = (w, v)``, every
    w > 0, of unit-trace iterates sigma_p = v_p diag(w_p) v_p^dag.

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
    each alpha in ``CERT_STEPS``, all of them projected in one stacked
    call; at a minimizer the bound equals f.  Each
    bound is lowered by a margin for the rounding of the eigensolves and
    inner products and clipped at 0.  Returns the highest per problem, and
    takes no further point for a problem once its bound reaches its
    ``targets`` entry.  Every row is computed as for that problem alone.
    """
    w0, v0 = eig
    d = w0.shape[1]
    ulp = CERT_MARGIN_ULPS * d * EPS
    best = np.zeros(len(w0))
    rows = np.arange(len(w0))
    alphas = np.array(CERT_STEPS)
    for eps in CERT_MIX:
        w, v = (1.0 - eps) * w0[rows] + eps / d, v0[rows]
        f, eig_data = _chi2_values(taus[rows], w, v)
        g = _chi2_grad(w, v, eig_data, 0.0)
        x = (v * w[:, None, :]) @ la.dag(v)
        # The multipliers of every alpha at once, stacked alpha-major, each
        # row projected as its own problem.
        count = len(rows)
        points = (x - alphas[:, None, None, None] * g).reshape(-1, 1, d, d)
        wp, vp, theta = _pt_eig_step(points, dim_a, dim_b)
        scaled = np.clip(theta - wp, 0.0, None) / np.repeat(alphas, count)[:, None, None]
        y = ((vp * scaled[..., None, :]) @ la.dag(vp))[:, 0]
        pt = la.partial_transpose(y, dim_a, dim_b).reshape(-1, count, d, d)
        lam = np.linalg.eigvalsh(g - pt)[..., 0]
        dual = np.max(lam - ulp * _norms(y).reshape(-1, count), axis=0)
        roots = np.sqrt(np.maximum(f + 1.0, 0.0)) * np.sum(w**-0.5, axis=1)
        scale = np.abs(f) + 1.0 + _norms(g) + roots
        best[rows] = np.maximum(best[rows], 2.0 * f + 1.0 + dual - ulp * scale)
        rows = rows[best[rows] < targets[rows]]
        if not len(rows):
            break
    return best


def chisep_batch(states, cfg: SepConfig = SepConfig()) -> list[SepApproxResult]:
    """:func:`chisep` of each state of ``states`` under the settings
    ``cfg``, solved together.

    States of one bipartition are solved in chunks of at most
    ``CHISEP_CHUNK``: one :func:`_min_chi2` call runs the maximally mixed
    start of every entangled state of a chunk, one :func:`_chi2_lower` call
    certifies them, and one more pair runs the twirl start for the states
    whose gap is still above ``VERDICT_SLACK``.  Each state's result is
    bit-identical to its solo solve, whatever else is in the batch.
    """
    states = list(states)
    groups: dict = {}
    for i, s in enumerate(states):
        _check_desk_scale(s)
        groups.setdefault((s.dim_a, s.dim_b), []).append(i)
    results = [None] * len(states)
    for dims, members in groups.items():
        for lo in range(0, len(members), CHISEP_CHUNK):
            chunk = members[lo:lo + CHISEP_CHUNK]
            solved = _chisep_chunk([states[i] for i in chunk], cfg, *dims)
            for i, res in zip(chunk, solved):
                results[i] = res
    return results


def _chisep_chunk(states, cfg: SepConfig, dim_a: int, dim_b: int) -> list[SepApproxResult]:
    """:func:`chisep_batch` of states of one bipartition, in one batch."""
    d = dim_a * dim_b
    method = _method_tag(dim_a, dim_b)
    taus = np.stack([s.matrix for s in states])
    ppt_min = np.linalg.eigvalsh(la.herm_part(la.partial_transpose(taus, dim_a, dim_b)))[:, 0]
    results = [
        SepApproxResult(
            value=0.0, minimizer=s.state, method=method, iterations=0, converged=True,
            extras={"note": "input is PPT; chi-square distance zero in the closure",
                    "ppt_min_eig": float(m), "lower": 0.0, "gap": 0.0, "certified": True},
        ) if m >= -PSD_TOL else None
        for s, m in zip(states, ppt_min)
    ]
    todo = [i for i, res in enumerate(results) if res is None]
    if not todo:
        return results
    taus = taus[todo]

    def solve(starts, rows):
        # One start per problem, projected once; then its certificate.
        runs = _min_chi2(
            taus[rows, None], np.ones((len(rows), 1)),
            project_pt_trace(starts[:, None], dim_a, dim_b), dim_a, dim_b, [cfg] * len(rows),
        )
        return runs, (runs.w[:, 0], runs.v[:, 0])

    rows = np.arange(len(todo))
    first, eig = solve(np.broadcast_to(np.eye(d, dtype=complex) / d, taus.shape), rows)
    value = first.value
    lower = _chi2_lower(taus, eig, dim_a, dim_b, value - CHISEP_GAP_TOL * np.maximum(1.0, value))
    iterations, converged = first.iterations, first.converged
    starts = [[v] for v in value.tolist()]
    # The twirl start runs only where the gap is above the verdict slack; no
    # start can go below the bound, so skipping it moves a value by at most
    # the gap.
    rows = np.flatnonzero(value - lower > VERDICT_SLACK)
    if len(rows):
        twirls = np.stack([separable_twirl(taus[i], dim_a, dim_b) for i in rows])
        second, eig = solve(twirls, rows)
        value, lower = value.copy(), lower.copy()
        value[rows] = np.minimum(value[rows], second.value)
        target = value[rows] - CHISEP_GAP_TOL * np.maximum(1.0, value[rows])
        lower[rows] = np.maximum(lower[rows], _chi2_lower(taus[rows], eig, dim_a, dim_b, target))
        iterations, converged = iterations.copy(), converged.copy()
        iterations[rows] += second.iterations
        converged[rows] &= second.converged
        for i, v in zip(rows.tolist(), second.value.tolist()):
            starts[i].append(v)
    for k, i in enumerate(todo):
        val, low = float(value[k]), float(lower[k])
        results[i] = SepApproxResult(
            value=val,
            minimizer=None,
            method=method,
            iterations=int(iterations[k]),
            converged=bool(converged[k]),
            extras={
                "ppt_min_eig_input": float(ppt_min[i]),
                "start_values": starts[k],
                "lower": low,
                "gap": val - low,
                "certified": val - low <= CHISEP_GAP_TOL * max(1.0, val),
            },
        )
    return results


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

    This is :func:`chisep_batch` of the one state: a batch of one problem
    of the same solver that batches trajectories, and the same result that
    state gets in any batch.
    """
    return chisep_batch([s], cfg)[0]


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


def _ccqq_blocks(s: CcQqState) -> list[BipartiteState]:
    """The blocks whose chisep the block formula reads: those of
    probability above 1e-15 (the others contribute nothing), as views into
    the checked stack of :meth:`CcQqState.rho_stack`."""
    d = s.dim_a * s.dim_b
    return [
        BipartiteState(s.dim_a, s.dim_b, DensityState(dim=d, matrix=rho))
        for b, rho in zip(s.blocks, s.rho_stack()) if b.prob > 1e-15
    ]


def _ccqq_result(s: CcQqState, solved) -> SepApproxResult:
    """The block formula of :func:`chisep_ccqq` from the chisep results of
    the blocks of :func:`_ccqq_blocks`, in order."""
    per_block, per_lower = [], []
    iters = 0
    conv = True
    solved = iter(solved)
    for blk in s.blocks:
        if blk.prob <= 1e-15:
            per_block.append(0.0)
            per_lower.append(0.0)
            continue
        res = next(solved)
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


def chisep_ccqq_stream(states, cfg: SepConfig = SepConfig()):
    """Yield ``(state, chisep_ccqq(state, cfg))`` for each cc-qq state of
    the iterable ``states``, in order.

    The blocks of consecutive states are solved together by
    :func:`chisep_batch`, ``CHISEP_CHUNK`` at a time, and the states are
    read lazily: a chunk is solved once enough blocks are waiting (or the
    states run out), and a state is yielded as soon as its last block is
    solved.  So the blocks held at once are one chunk plus those of the
    state just read, whatever the number of states.  Each block gets the
    result of its solo solve, so a state's result does not depend on the
    states around it.
    """
    held = deque()  # (state, number of its blocks) read but not yielded
    queue = []  # their blocks not solved yet
    solved = []  # results of their blocks solved so far

    def ready(flush: bool):
        while len(queue) >= CHISEP_CHUNK or (flush and queue):
            solved.extend(chisep_batch(queue[:CHISEP_CHUNK], cfg))
            del queue[:CHISEP_CHUNK]
        while held and len(solved) >= held[0][1]:
            state, count = held.popleft()
            result = _ccqq_result(state, solved[:count])
            del solved[:count]
            yield state, result

    for state in states:
        blocks = _ccqq_blocks(state)
        held.append((state, len(blocks)))
        queue.extend(blocks)
        yield from ready(False)
    yield from ready(True)


def chisep_ccqq(s: CcQqState, cfg: SepConfig = SepConfig()) -> SepApproxResult:
    """Chi-square distance to the separable set across (XA : BY) for a cc-qq
    state, via per-block values combined as (sum_xy p sqrt(chi+1))^2 - 1.

    The blocks of probability above 1e-15 are solved in one
    :func:`chisep_batch` call (one chunk per ``CHISEP_CHUNK`` blocks); the
    others contribute nothing.  The optimal block weights
    q_xy = p sqrt(chi+1) / Z are exposed in the extras for diagnostics.
    ``extras["lower"]`` pushes the per-block certified lower bounds of
    :func:`chisep` through the same formula, which is increasing in each
    chi, so it is a certified lower bound too once shrunk by the formula's
    own rounding.  :func:`chisep_ccqq_stream` gives the same result for
    each of many states with their blocks solved together.
    """
    return next(chisep_ccqq_stream([s], cfg))[1]


def chisep_ccqq_blockdiag(s: CcQqState) -> SepApproxResult:
    """Direct minimization of chi2 over block-diagonal PPT states.

    The variable is one unnormalized PSD-and-PT-PSD matrix per classical
    label with unit total trace; the objective sum_b p_b^2 Tr(rho_b S_b^-1/2
    rho_b S_b^-1/2) - 1 is minimized over all blocks at once by the same
    :func:`_min_chi2` that :func:`chisep` runs per block, as one problem of
    n blocks.  Serves as the independent cross-check of the closed block
    formula, which solves each block alone and combines the values.
    """
    blocks = [b for b in s.blocks if b.prob > 1e-15]
    n = len(blocks)
    d = s.dim_a * s.dim_b
    # The start I / (n d) is feasible and strictly positive.
    runs = _min_chi2(
        np.array([b.rho for b in blocks])[None], np.array([[b.prob**2 for b in blocks]]),
        np.stack([np.eye(d) / (n * d)] * n)[None], s.dim_a, s.dim_b, [SepConfig()],
    )
    return SepApproxResult(
        value=float(runs.value[0]),
        minimizer=None,
        method=_method_tag(s.dim_a, s.dim_b),
        iterations=int(runs.iterations[0]),
        converged=bool(runs.converged[0]),
        extras={"block_traces": [float(np.real(np.trace(m))) for m in runs.x[0]]},
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
    :class:`SepConfig`, their blocks solved in one batch.  The check
    passes with ``VERDICT_SLACK`` (1e-6).  An input with chi_in below
    ``epsilon`` raises :class:`PreconditionError`, once both are solved.
    """
    if not 0.0 < epsilon < 1.0:
        raise ChannelError("epsilon must lie in (0, 1)")
    out = apply_separable_to_ccqq(s, t)
    (_, before), (_, after) = chisep_ccqq_stream([s, out])
    chi_in, chi_out = before.value, after.value
    if chi_in < epsilon:
        raise PreconditionError(
            f"precondition violated: chi-square distance {chi_in:.6f} below epsilon {epsilon}"
        )
    eta_up = eta_tr_upper_minoutev(t.channel, seed=seed).value
    rhs = (1.0 - epsilon**2 / 100.0 * (1.0 - eta_up)) * chi_in
    return ContractionStepReport(
        passed=bool(chi_out <= rhs + VERDICT_SLACK),
        chi_in=chi_in,
        chi_out=chi_out,
        eta_upper=eta_up,
        rhs=rhs,
    )
