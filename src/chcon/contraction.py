"""Contraction coefficients of channels and their computable bounds.

The trace-norm coefficient is estimated from below by a multi-start
alternating ascent over orthogonal pure-state pairs (exact in closed form
for qubit channels), and bounded from above by two certified quantities:
the minimal-output-eigenvalue bound sqrt(1 - lmin_out/d^2) and the weaker
Choi-eigenvalue bound sqrt(1 - lmin(C)/d^2).  The chi-square coefficient is
only ever reported as a sampled lower estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import linalg as la
from .channels import ChannelError, KrausChannel, adjoint, bloch_transfer, compose, kraus_to_choi
from .divergences import chi2_divergence
from .sampling import random_density, random_full_rank_density, random_pure, rng_from

KINDS = ("eta_tr_estimate", "eta_tr_upper_minoutev", "eta_tr_upper_choi", "eta_chi_lower")

# Step budget and stop tolerance of the eta_tr sign ascent.
ETA_TR_MAX_ITER = 300
ETA_TR_TOL = 1e-9
# Step budget and stop tolerance of the minimal-output-eigenvalue descent.
MIN_OUT_MAX_ITER = 200
MIN_OUT_TOL = 1e-12
# Local ascent steps of eta_chi_lower, and the chi-square denominator below
# which a sampled pair counts as degenerate.
CHI_ASCENT_STEPS = 200
CHI_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class OrthogonalPair:
    """A pair of orthogonal unit vectors witnessing a contraction value."""

    psi: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        psi = la.frozen(self.psi).reshape(-1)
        phi = la.frozen(self.phi).reshape(-1)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)
        if abs(np.linalg.norm(psi) - 1) > 1e-12 or abs(np.linalg.norm(phi) - 1) > 1e-12:
            raise ChannelError("witness vectors must be unit norm")
        if abs(np.vdot(psi, phi)) > 1e-9:
            raise ChannelError("witness vectors must be orthogonal")

    def difference(self) -> np.ndarray:
        return np.outer(self.psi, self.psi.conj()) - np.outer(self.phi, self.phi.conj())


@dataclass(frozen=True)
class StatePair:
    rho: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class ContractionReport:
    value: float
    kind: str
    witness: object | None
    restarts: int
    iterations: int
    seed: int
    method: str
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ChannelError(f"unknown report kind {self.kind!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ChannelError(f"contraction value {self.value} outside [0, 1]")


def _require_endomorphism(ch: KrausChannel):
    if ch.in_dim != ch.out_dim:
        raise ChannelError("contraction coefficients require in_dim == out_dim")


def _apply_transfer(tmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a transfer matrix to a square matrix or a stack of them."""
    # Stacked matrix-vector products keep each restart's bits identical to a
    # one-restart run; a single matrix-matrix product would not.
    return (tmat @ x.reshape(*x.shape[:-2], -1, 1)).reshape(x.shape)


def _proj(v: np.ndarray) -> np.ndarray:
    """The rank-one projectors v v^dag of a stack of vectors."""
    return v[..., :, None] * v.conj()[..., None, :]


def _batched_ascent(step, state, max_iter: int, tol: float, sense: float = 1.0):
    """Run every restart of a multistart search at once.

    ``state`` holds one (R, d) array per iterate vector; row r is restart r.
    Each array keeps its dtype, so ``step`` must return rows of that dtype.
    ``step`` maps the rows of the live restarts to (value, witness, next):
    the objective of this step, the vectors it belongs to, and the next
    iterate.  A restart stops at the first step whose value does not beat
    its best so far by more than ``tol`` (``sense`` +1 ascends, -1
    descends) and keeps that step's witness; a restart still live after
    ``max_iter`` steps keeps its last iterate.  Returns the best value, the
    final vectors and the step count, all per restart.
    """
    state = [np.array(s) for s in state]
    best = np.full(len(state[0]), -np.inf)
    steps = np.zeros(len(best), dtype=int)
    live = np.arange(len(best))
    for _ in range(max_iter):
        if live.size == 0:
            break
        val, here, nxt = step(*(s[live] for s in state))
        stop = sense * val <= best[live] + tol
        best[live] = np.maximum(best[live], sense * val)
        steps[live] += 1
        for s, h, n in zip(state, here, nxt):
            s[live] = np.where(stop[:, None], h, n)
        live = live[~stop]
    return sense * best, state, steps


def _sign_step(tmat: np.ndarray, tadj: np.ndarray, psi: np.ndarray, phi: np.ndarray | None = None):
    """One sign-operator step on Delta = psi psi^dag (- phi phi^dag).

    A single eigensolve of T(Delta) gives both its trace norm and its sign
    S; the next psi (and phi) is the top (and bottom) eigenvector of
    T^dag(S).
    """
    delta = _proj(psi) if phi is None else _proj(psi) - _proj(phi)
    w, v = np.linalg.eigh(la.herm_part(_apply_transfer(tmat, delta)))
    sign = (v * np.where(w >= 0, 1.0, -1.0)[..., None, :]) @ la.dag(v)
    _, u = np.linalg.eigh(la.herm_part(_apply_transfer(tadj, sign)))
    if phi is None:
        return np.abs(w).sum(axis=-1), (psi,), (u[..., -1],)
    return np.abs(w).sum(axis=-1), (psi, phi), (u[..., -1], u[..., 0])


def sign_ascent(tmat: np.ndarray, starts: tuple, max_iter: int, tol: float):
    """Multistart ascent of || T(Delta) ||_1 for the transfer matrix ``tmat``.

    ``starts`` is (psi,) for Delta = psi psi^dag or (psi, phi) for
    Delta = psi psi^dag - phi phi^dag, each an (R, d) stack of unit
    vectors.  Returns (trace norms, final vectors, steps) per restart.
    """
    return _batched_ascent(partial(_sign_step, tmat, la.dag(tmat)), starts, max_iter, tol)


def _min_eigvec_step(amat: np.ndarray, psi: np.ndarray, phi: np.ndarray):
    """psi, then phi: the smallest eigenvectors of A(phi phi^dag), A(psi psi^dag)."""
    w1, v1 = np.linalg.eigh(la.herm_part(_apply_transfer(amat, _proj(phi))))
    psi = v1[..., 0]
    w2, v2 = np.linalg.eigh(la.herm_part(_apply_transfer(amat, _proj(psi))))
    phi = v2[..., 0]
    return np.minimum(w1[..., 0], w2[..., 0]), (psi, phi), (psi, phi)


def evaluate_pair(ch: KrausChannel, pair: OrthogonalPair) -> float:
    """The maximand (1/2) || T(psi psi^dag - phi phi^dag) ||_1."""
    return 0.5 * la.trace_norm(ch.apply(pair.difference()))


def _random_orthogonal_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q = la.expi(la.herm_part(h))
    return q[:, 0], q[:, 1]


def eta_tr(ch: KrausChannel, restarts: int = 64, seed: int = 0) -> ContractionReport:
    """Trace-norm contraction coefficient.

    Qubit channels use the closed Bloch form (largest singular value of the
    3x3 transfer block), reported as exact.  Larger dimensions run a
    multi-start alternating ascent and report a certified lower bound.
    """
    _require_endomorphism(ch)
    d = ch.in_dim
    if ch.is_qubit():
        _, m = bloch_transfer(ch)
        _, s, vt = np.linalg.svd(m)
        value = float(min(max(s[0], 0.0), 1.0))
        n = vt[0]
        pair = OrthogonalPair(
            psi=la.pure_state_from_bloch(n), phi=la.pure_state_from_bloch(-n)
        )
        return ContractionReport(
            value=value, kind="eta_tr_estimate", witness=pair,
            restarts=0, iterations=0, seed=seed, method="bloch_exact",
        )

    starts = np.array([_random_orthogonal_pair(rng_from(seed, i), d) for i in range(restarts)])
    # The maximand is half the trace norm.  Halving is exact in floating
    # point, so stopping the norm ascent at 2 * ETA_TR_TOL is the same stop test.
    norms, (psi, phi), steps = sign_ascent(
        ch.transfer_matrix(), (starts[:, 0], starts[:, 1]), ETA_TR_MAX_ITER, 2 * ETA_TR_TOL
    )
    best = int(np.argmax(norms))
    return ContractionReport(
        value=float(min(max(0.5 * norms[best], 0.0), 1.0)),
        kind="eta_tr_estimate",
        witness=OrthogonalPair(psi=psi[best], phi=phi[best]),
        restarts=restarts,
        iterations=int(steps.sum()),
        seed=seed,
        method="multistart_sign_ascent",
    )


def min_output_eigenvalue(
    ch: KrausChannel, restarts: int = 24, seed: int = 0
) -> tuple[float, tuple[np.ndarray, np.ndarray], int]:
    """Minimize <psi| (T^dag o T)(|phi><phi|) |psi> over pure pairs.

    The bilinear form is symmetric under swapping (psi, phi) because the
    superoperator T^dag o T is self-adjoint, so alternating smallest-
    eigenvector steps descend monotonically.  Restart i < d starts from the
    i-th basis vector, later ones from a random pure state.  Returns
    (value, (psi, phi), iterations); the value is an upper estimate of the
    true minimum.
    """
    _require_endomorphism(ch)
    d = ch.in_dim
    tmat = ch.transfer_matrix()
    amat = la.dag(tmat) @ tmat
    starts = np.array(
        [np.eye(d)[i] if i < d else random_pure(rng_from(seed, i), d) for i in range(restarts)],
        dtype=complex,
    )
    vals, (psi, phi), steps = _batched_ascent(
        partial(_min_eigvec_step, amat), (starts, starts), MIN_OUT_MAX_ITER, MIN_OUT_TOL, sense=-1.0
    )
    best = int(np.argmin(vals))
    return max(float(vals[best]), 0.0), (psi[best], phi[best]), int(steps.sum())


def eta_tr_upper_minoutev(
    ch: KrausChannel, restarts: int = 24, seed: int = 0
) -> ContractionReport:
    """Upper bound sqrt(1 - lmin_out(T^dag o T) / d^2) on the trace-norm
    contraction coefficient."""
    _require_endomorphism(ch)
    d = ch.in_dim
    lam, (psi, phi), iters = min_output_eigenvalue(ch, restarts=restarts, seed=seed)
    value = float(np.sqrt(max(1.0 - lam / d**2, 0.0)))
    try:
        witness = OrthogonalPair(psi=psi, phi=phi)
    except ChannelError:
        witness = None  # the minimizing pair need not be orthogonal
    return ContractionReport(
        value=min(value, 1.0),
        kind="eta_tr_upper_minoutev",
        witness=witness,
        restarts=restarts,
        iterations=iters,
        seed=seed,
        method="alternating_min_eigenvector",
        extras={"lambda_min_out": lam},
    )


def lambda_min_choi_of_adjoint_composition(ch: KrausChannel) -> float:
    """Smallest eigenvalue of the Choi matrix of T^dag o T (exact eigensolve)."""
    comp = compose(adjoint(ch), ch)
    return float(kraus_to_choi(comp).eigenvalues()[0])


def _choi_bound(lam: float, d: int, n_copies: int = 1) -> float:
    """sqrt(1 - (lam / d^2)^n) with lam clamped at zero, capped at one."""
    return min(float(np.sqrt(max(1.0 - (max(lam, 0.0) / d**2) ** n_copies, 0.0))), 1.0)


def eta_tr_upper_choi(ch: KrausChannel, n_copies: int = 1) -> ContractionReport:
    """Upper bound sqrt(1 - (lmin(C_{T^dag o T}) / d^2)^n) for the n-fold
    tensor power, using multiplicativity of the smallest Choi eigenvalue."""
    _require_endomorphism(ch)
    if n_copies < 1:
        raise ChannelError("n_copies must be positive")
    lam = max(lambda_min_choi_of_adjoint_composition(ch), 0.0)
    return ContractionReport(
        value=_choi_bound(lam, ch.in_dim, n_copies),
        kind="eta_tr_upper_choi",
        witness=None,
        restarts=0,
        iterations=0,
        seed=0,
        method="choi_eigensolve",
        extras={"lambda_min_choi": lam, "n_copies": n_copies},
    )


def eta_chi_lower(ch: KrausChannel, trials: int = 200, seed: int = 0) -> ContractionReport:
    """Sampled lower estimate of the chi-square contraction coefficient.

    Maximizes chi2(T(rho), T(sigma)) / chi2(rho, sigma) over random pairs
    (sigma kept full rank), then refines the best pair by random local
    ascent.  Degenerate samples (denominator below ``CHI_DENOM_FLOOR``) are
    resampled.
    """
    _require_endomorphism(ch)
    d = ch.in_dim

    def ratio(rho, sigma):
        denom = chi2_divergence(rho, sigma)
        if not np.isfinite(denom) or denom < CHI_DENOM_FLOOR:
            return None
        num = chi2_divergence(ch.apply(rho), ch.apply(sigma))
        if not np.isfinite(num):
            return None
        return num / denom

    rng = rng_from(seed, 0)
    best = 0.0
    best_pair = None
    drawn = 0
    budget = 10 * trials
    while drawn < trials and budget > 0:
        budget -= 1
        sigma = random_full_rank_density(rng, d, floor=1e-2)
        rho = random_density(rng, d)
        r = ratio(rho, sigma)
        if r is None:
            continue
        drawn += 1
        if r > best:
            best, best_pair = r, (rho, sigma)

    iters = 0
    if best_pair is not None:
        rho, sigma = best_pair
        rng2 = rng_from(seed, 1)
        for step in range(CHI_ASCENT_STEPS):
            scale = 0.5 * (1.0 - step / CHI_ASCENT_STEPS) + 1e-3
            mode = rng2.integers(0, 2)
            rho2, sigma2 = rho, sigma
            if mode == 0:
                bump = random_density(rng2, d, rank=1)
                rho2 = (1 - scale) * rho + scale * bump
            else:
                bump = random_full_rank_density(rng2, d, floor=1e-2)
                sigma2 = (1 - scale) * sigma + scale * bump
            r = ratio(rho2, sigma2)
            iters += 1
            if r is not None and r > best:
                best, (rho, sigma) = r, (rho2, sigma2)
        best_pair = (rho, sigma)

    witness = StatePair(rho=la.frozen(best_pair[0]), sigma=la.frozen(best_pair[1])) if best_pair else None
    return ContractionReport(
        value=float(min(max(best, 0.0), 1.0)),
        kind="eta_chi_lower",
        witness=witness,
        restarts=trials,
        iterations=iters,
        seed=seed,
        method="sampled_ratio_ascent",
    )


@dataclass(frozen=True)
class IndependenceReport:
    """Verdict on whether the channel trivializes orthogonality in one use.

    ``certified`` is decided by the exact smallest eigenvalue of the Choi
    matrix of T^dag o T (a rigorous lower bound on the minimal output
    eigenvalue): when it is positive the minimal-output-eigenvalue upper
    bound on the trace-norm contraction coefficient is strictly below one,
    certifying that no orthogonal pair stays perfectly distinguishable.
    ``eta_upper_bound`` is the certified Choi bound of the same eigenvalue,
    the value of ``eta_tr_upper_choi``.
    """

    certified: bool
    status: str
    eta_upper_bound: float
    lambda_min_choi: float

    def __bool__(self) -> bool:
        return self.certified


def independence_trivial(ch: KrausChannel) -> IndependenceReport:
    _require_endomorphism(ch)
    lam_choi = lambda_min_choi_of_adjoint_composition(ch)
    certified = lam_choi > 1e-10
    return IndependenceReport(
        certified=certified,
        status="certified_alpha_one" if certified else "unknown",
        eta_upper_bound=_choi_bound(lam_choi, ch.in_dim),
        lambda_min_choi=float(lam_choi),
    )
