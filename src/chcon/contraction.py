"""Contraction coefficients of channels and their computable bounds.

The trace-norm coefficient is estimated from below by a multi-start
alternating ascent over orthogonal pure-state pairs (exact in closed form
for qubit channels), and bounded from above by two certified quantities:
the minimal-output-eigenvalue bound sqrt(1 - lmin_out/d^2) and the weaker
Choi-eigenvalue bound sqrt(1 - lmin(C)/d^2).  The chi-square coefficient is
computed exactly at each full-rank reference state sigma by one spectral
kernel, batched over stacks of sigma; its supremum over sigma is reported
as a lower estimate from a seeded search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import isqrt

import numpy as np

from . import linalg as la
from .channels import ChannelError, KrausChannel, bloch_transfer, reshuffle
from .config import SUPP_TOL
from .sampling import random_full_rank_density, random_pure, rng_from

KINDS = ("eta_tr_estimate", "eta_tr_upper_minoutev", "eta_tr_upper_choi", "eta_chi_lower")

# Step budget and stop tolerance of the eta_tr sign ascent.
ETA_TR_MAX_ITER = 300
ETA_TR_TOL = 1e-9
# Step budget and stop tolerance of the minimal-output-eigenvalue descent.
MIN_OUT_MAX_ITER = 200
MIN_OUT_TOL = 1e-12
# eta_chi_lower scores reference states CHI_CHUNK per kernel call, and
# ascends from the best CHI_STARTS candidates for at most CHI_ROUNDS steps,
# each trying CHI_LADDER step lengths from CHI_STEP down by factors of
# sqrt(2).  A start stops once a step gains no more than CHI_TOL.  Every
# reference state keeps at least CHI_FLOOR of I/d mixed in.
CHI_CHUNK = 32
CHI_STARTS = 2
CHI_ROUNDS = 8
CHI_LADDER = 16
CHI_STEP = 0.5
CHI_TOL = 1e-12
CHI_FLOOR = 1e-2
# Largest accepted ||K^dag K v - v|| at the chosen reference state, and the
# rounding band around [0, 1] inside which a contraction value is clipped.
CHI_RESIDUAL_TOL = 1e-8
CHI_VALUE_BAND = 1e-12


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


def adjoint_composition_spectrum(ch: KrausChannel) -> np.ndarray:
    """Ascending eigenvalues of the Choi matrix of T^dag o T, whose transfer
    matrix is M^dag M for the transfer matrix M of T (one eigensolve)."""
    tmat = ch.transfer_matrix()
    return np.linalg.eigvalsh(la.herm_part(reshuffle(la.dag(tmat) @ tmat, ch.in_dim, ch.in_dim)))


def lambda_min_choi_of_adjoint_composition(ch: KrausChannel) -> float:
    """Smallest eigenvalue of the Choi matrix of T^dag o T (exact eigensolve)."""
    return float(adjoint_composition_spectrum(ch)[0])


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


def _kron_t(a: np.ndarray) -> np.ndarray:
    """A (x) A^T for each matrix of a stack: vec(A X A) = (A (x) A^T) vec(X)
    in the row-major vec convention of ``transfer_matrix``."""
    d = a.shape[-1]
    return np.einsum("...ik,...lj->...ijkl", a, a).reshape(*a.shape[:-2], d * d, d * d)


def _from_eig(u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """U diag(f) U^dag for each eigenbasis U and spectrum f of a stack."""
    return (u * f[..., None, :]) @ la.dag(u)


def _chi_kernel(tmat: np.ndarray, sigma: np.ndarray):
    """The chi-square kernel of each full-rank state of a stack.

    With B = sigma^{1/4} and A = T(sigma)^{-1/4} (the generalized inverse on
    the support of T(sigma), as in ``chi2_divergence``), the kernel
    K(Y) = A T(B Y B) A is (A (x) A^T) M (B (x) B^T) in row-major vec form.
    For X = rho - sigma = B Y B, ||Y||_F^2 = chi2(rho, sigma) and
    ||K(Y)||_F^2 = chi2(T(rho), T(sigma)).  K's top singular pair is
    v = vec(sigma^{1/2}) with singular value 1; Tr X = 0 means Y is
    orthogonal to v.  Returns K^dag K, v, and the eigenbases and quarter
    powers behind B and A as (w, u, f) triples.
    """
    ws, us = np.linalg.eigh(la.herm_part(sigma))
    wt, ut = np.linalg.eigh(la.herm_part(_apply_transfer(tmat, sigma)))
    keep = wt > SUPP_TOL * wt[..., -1:]
    fb = ws**0.25
    fa = np.where(keep, np.where(keep, wt, 1.0) ** -0.25, 0.0)
    b, a = _from_eig(us, fb), _from_eig(ut, fa)
    k = _kron_t(a) @ tmat @ _kron_t(b)
    v = (b @ b).reshape(*sigma.shape[:-2], -1)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return la.dag(k) @ k, v, (ws, us, fb), (wt, ut, fa)


def _deflate(gram: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K^dag K with its top eigenvalue 1 at v moved to -1.

    Every other eigenvalue is a chi-square ratio over traceless deviations,
    so the largest eigenvalue is the contraction at sigma, and v can never
    be its eigenvector.
    """
    return gram - 2.0 * _proj(v)


def _chi_at(tmat: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The chi-square contraction at each state of a stack, scored
    ``CHI_CHUNK`` states per kernel call."""
    out = []
    for lo in range(0, len(sigma), CHI_CHUNK):
        gram, v, _, _ = _chi_kernel(tmat, sigma[lo:lo + CHI_CHUNK])
        out.append(np.linalg.eigvalsh(_deflate(gram, v))[..., -1])
    return np.concatenate(out)


def _divided_differences(w: np.ndarray, f: np.ndarray, p: float) -> np.ndarray:
    """Daleckii-Krein matrix of f = w^p: (f_i - f_j) / (w_i - w_j), and
    p w_i^(p-1) on ties; zero in rows and columns where f is cut to 0."""
    wi, wj = w[..., :, None], w[..., None, :]
    fi, fj = f[..., :, None], f[..., None, :]
    gap = wi - wj
    tie = np.abs(gap) <= 1e-9 * np.abs(wi)
    slope = p * np.where(f != 0, f / np.where(f != 0, w, 1.0), 0.0)
    dd = np.where(tie, slope[..., :, None], (fi - fj) / np.where(tie, 1.0, gap))
    return np.where((fi != 0) & (fj != 0), dd, 0.0)


def _chi_top(tmat: np.ndarray, sigma: np.ndarray):
    """Value, witness direction, gradient and deflation residual of the
    chi-square contraction at each state of a stack.

    The top eigenvector of the deflated K^dag K is a Hermitian Y up to a
    phase.  X = B Y B is a traceless deviation attaining the value, and by
    Hellmann-Feynman the gradient in sigma is that of ||K(Y)||_F^2 with Y
    held fixed, taken through A and B by their divided differences.
    """
    tadj = la.dag(tmat)
    gram, v, (ws, us, fb), (wt, ut, fa) = _chi_kernel(tmat, sigma)
    residual = np.linalg.norm((gram @ v[..., None])[..., 0] - v, axis=-1)
    lam, vec = np.linalg.eigh(_deflate(gram, v))
    top = vec[..., -1].reshape(sigma.shape)
    re, im = la.herm_part(top), la.herm_part(-1j * top)
    y = np.where(
        (np.linalg.norm(re, axis=(-2, -1)) >= np.linalg.norm(im, axis=(-2, -1)))[..., None, None], re, im
    )
    # Remove rounding along v so that Tr X = 0 holds to machine precision.
    along = np.einsum("...i,...i->...", v.conj(), y.reshape(v.shape)).real
    y = y - along[..., None, None] * v.reshape(y.shape)
    b, a = _from_eig(us, fb), _from_eig(ut, fa)
    w_out = la.herm_part(_apply_transfer(tmat, b @ y @ b))
    z = a @ w_out @ a
    s = la.herm_part(_apply_transfer(tadj, a @ z @ a))
    scale = 2.0 / np.linalg.norm(y, axis=(-2, -1))[..., None, None] ** 2
    grad_a = scale * (w_out @ a @ z + z @ a @ w_out)
    grad_b = scale * (y @ b @ s + s @ b @ y)
    grad_a = ut @ (_divided_differences(wt, fa, -0.25) * (la.dag(ut) @ grad_a @ ut)) @ la.dag(ut)
    grad_b = us @ (_divided_differences(ws, fb, 0.25) * (la.dag(us) @ grad_b @ us)) @ la.dag(us)
    grad = la.herm_part(_apply_transfer(tadj, grad_a) + grad_b)
    return lam[..., -1], b @ y @ b, grad, residual


def _chi_step(tmat: np.ndarray, rows: np.ndarray):
    """One ascent step from each state of a stack (rows are flattened states).

    The traceless gradient direction is tried at ``CHI_LADDER`` step lengths
    in one kernel call; each candidate is retracted into the floored state
    set by clipping the eigenvalues of its floor-free part at zero.  The best
    candidate is the next iterate if it beats the current value.
    """
    d = isqrt(rows.shape[-1])
    sigma = rows.reshape(-1, d, d)
    value, _, grad, _ = _chi_top(tmat, sigma)
    eye = np.eye(d)
    grad = grad - np.trace(grad, axis1=-2, axis2=-1)[..., None, None] * eye / d
    norm = np.linalg.norm(grad, axis=(-2, -1))[..., None, None]
    direction = np.where(norm > 0, grad / np.where(norm > 0, norm, 1.0), 0.0)
    steps = CHI_STEP * 0.5 ** (np.arange(CHI_LADDER) / 2)
    base = (sigma - CHI_FLOOR * eye / d) / (1.0 - CHI_FLOOR)
    w, u = np.linalg.eigh(base[:, None] + steps[:, None, None] * direction[:, None] / (1.0 - CHI_FLOOR))
    w = np.clip(w, 0.0, None)
    cand = (1.0 - CHI_FLOOR) * _from_eig(u, w / w.sum(axis=-1, keepdims=True)) + CHI_FLOOR * eye / d
    cvals = _chi_at(tmat, cand.reshape(-1, d, d)).reshape(len(sigma), CHI_LADDER)
    pick = np.argmax(cvals, axis=1)
    better = cvals[np.arange(len(sigma)), pick] > value
    nxt = np.where(better[:, None, None], cand[np.arange(len(sigma)), pick], sigma)
    return value, (rows,), (nxt.reshape(rows.shape),)


def eta_chi_lower(ch: KrausChannel, trials: int = 200, seed: int = 0) -> ContractionReport:
    """Lower estimate of the chi-square contraction coefficient.

    For a full-rank reference state sigma, chcon's chi-square divergence is
    exactly quadratic in X = rho - sigma, so the supremum of
    chi2(T(rho), T(sigma)) / chi2(rho, sigma) over rho is the largest
    eigenvalue of K^dag K off its top singular vector (``_chi_kernel``;
    Temme et al., arXiv:1005.2358).  That value is exact at each sigma; the
    coefficient is its supremum over sigma, estimated from ``trials``
    candidates (I/d and Hilbert-Schmidt draws, all mixed with ``CHI_FLOOR``
    of I/d) and a batched gradient ascent from the best ``CHI_STARTS`` of
    them.  The witness is sigma* and rho = sigma* + t X on the top
    eigenvector.  The deflation residual ||K^dag K v - v|| at sigma* is
    checked, and a value outside [0, 1] beyond rounding raises.
    """
    _require_endomorphism(ch)
    d = ch.in_dim
    tmat = ch.transfer_matrix()
    draws = random_full_rank_density(rng_from(seed, 0), d, floor=CHI_FLOOR, count=trials - 1)
    sigmas = np.concatenate([np.eye(d)[None] / d, draws])
    starts = sigmas[np.argsort(-_chi_at(tmat, sigmas), kind="stable")[:CHI_STARTS]]
    _, (rows,), steps = _batched_ascent(
        partial(_chi_step, tmat), (starts.reshape(len(starts), -1),), CHI_ROUNDS, CHI_TOL
    )
    # A start still climbing at the step budget ends on an iterate it has not
    # scored yet, so the final states are scored once more.
    finals = rows.reshape(-1, d, d)
    sigma = finals[int(np.argmax(_chi_at(tmat, finals)))]
    lam, x, _, res = _chi_top(tmat, sigma[None])
    value, x, residual = float(lam[0]), x[0], float(res[0])
    if residual > CHI_RESIDUAL_TOL:
        raise ChannelError(f"chi-square kernel deflation residual {residual:.3e} above {CHI_RESIDUAL_TOL}")
    if not -CHI_VALUE_BAND <= value <= 1.0 + CHI_VALUE_BAND:
        raise ChannelError(f"chi-square contraction {value!r} outside [0, 1]")
    t = np.linalg.eigvalsh(sigma)[0] / (2.0 * np.linalg.norm(x, 2))
    return ContractionReport(
        value=min(max(value, 0.0), 1.0),
        kind="eta_chi_lower",
        witness=StatePair(rho=la.frozen(sigma + t * x), sigma=la.frozen(sigma)),
        restarts=trials,
        iterations=int(steps.sum()),
        seed=seed,
        method="chi2_kernel_gradient_ascent",
        extras={"deflation_residual": residual},
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
