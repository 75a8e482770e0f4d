"""Channel-constant machinery for non-unitary qubit channels.

Unital channels split as (1-p1) * unitary + p1 * entanglement-breaking via
the tetrahedron/octahedron geometry of the diagonal Bloch form.  Non-unital
channels get a certified lower bound on the constant p2 from the self peel
N >= 1 * N, which is (lmin(C_{N^dag o N}) - err) / P2_DENOMINATOR when that
eigenvalue exceeds the eigensolver's rounding bound err and 0 otherwise, and
an entanglement-breaking weight from a seeded random peel search.  That
weight is 0, without a search, whenever C_N is rank-deficient, so there
(amplitude damping included) p is the self-peel p2.  The channel constant is
p = max(p1, p2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .channels import (
    EPS,
    ChannelError,
    KrausChannel,
    channel_from_bloch_transfer,
    compose,
    is_unitary_channel,
    kraus_to_choi,
    to_bloch_affine,
    unitary_channel,
    validate_channel,
)
from .config import P2_DENOMINATOR, PSD_TOL, SUPP_TOL
from .contraction import adjoint_composition_spectrum
from .sampling import random_eb_qubit_channel, rng_from

TETRA_CORNERS = (
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
)
CORNER_PAULIS = la.PAULIS  # corner i is conjugation by PAULIS[i]

OCTA_SLACK = 1e-9
# Rounding bound of the p2 self-peel eigenvalue, in units of dim * eps * lmax.
P2_MARGIN_ULPS = 64.0


@dataclass(frozen=True)
class UnitalDecomposition:
    p1: float
    unitary_part: KrausChannel
    eb_part: KrausChannel
    corner: int


@dataclass(frozen=True)
class PConstantReport:
    p1: float
    p2_lower: float
    p: float
    certification: str

    def __post_init__(self):
        if self.certification not in ("exact_p1", "certified_lower_bound"):
            raise ChannelError(f"unknown certification {self.certification!r}")
        if abs(self.p - max(self.p1, self.p2_lower)) > 1e-15:
            raise ChannelError("p must equal max(p1, p2_lower)")


# ---------------------------------------------------------------------------
# Tetrahedron geometry
# ---------------------------------------------------------------------------


def _require_unital_qubit(ch: KrausChannel):
    if not ch.is_qubit():
        raise ChannelError("tetrahedron geometry applies to qubit channels only")
    if not ch.is_unital():
        raise ChannelError("channel is not unital within tolerance")


def barycentric_weights(lam: np.ndarray) -> np.ndarray:
    """Weights of lam over the four tetrahedron corners (sum to one)."""
    a = np.vstack([np.array(TETRA_CORNERS).T, np.ones(4)])
    b = np.concatenate([np.asarray(lam, dtype=float), [1.0]])
    return np.linalg.solve(a, b)


def tetrahedron_coords(ch: KrausChannel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal form (lambda, U, V) of a unital qubit channel, with lambda
    certified to lie in the Pauli tetrahedron."""
    _require_unital_qubit(ch)
    aff = to_bloch_affine(ch)
    w = barycentric_weights(aff.lam)
    if w.min() < -OCTA_SLACK:
        raise ChannelError(
            f"lambda {aff.lam} escapes the tetrahedron (barycentric minimum {w.min():.3e})"
        )
    return aff.lam, aff.post_unitary, aff.pre_unitary


def corner_feasibility(lam: np.ndarray, corner: int, q: float) -> float:
    """Octahedron excess of the peeled part (lam - (1-q) v) / q at weight q."""
    v = np.array(TETRA_CORNERS[corner])
    lam = np.asarray(lam, dtype=float)
    return float(np.abs(lam - (1.0 - q) * v).sum() - q)


def corner_max_q(lam: np.ndarray, corner: int) -> float | None:
    """Largest q in (0, 1] with (lam - (1-q) v)/q inside the octahedron.

    The excess h(q) = sum_i |lam_i - (1-q) v_i| - q is piecewise linear and
    convex, so the feasible set {h <= OCTA_SLACK} is an interval; the upper
    endpoint is found exactly by scanning the linear segments from the right.
    Returns None when no q is feasible for this corner.
    """
    v = np.array(TETRA_CORNERS[corner])
    lam = np.asarray(lam, dtype=float)

    def h(q):
        return float(np.abs(lam - (1.0 - q) * v).sum() - q)

    knots = {0.0, 1.0}
    for li, vi in zip(lam, v):
        q_break = 1.0 - li / vi  # vi is +-1
        if 0.0 < q_break < 1.0:
            knots.add(float(q_break))
    ks = sorted(knots)
    if h(1.0) <= 0.0:
        return 1.0
    for right in range(len(ks) - 1, 0, -1):
        a, b = ks[right - 1], ks[right]
        ha, hb = h(a), h(b)
        if ha <= 0.0 < hb:
            return a + (b - a) * (0.0 - ha) / (hb - ha)
        if ha <= 0.0 and hb <= 0.0:
            return b
    # No strictly feasible segment; accept a touching minimum (within slack).
    vals = [(h(k), k) for k in ks]
    hmin, qmin = min(vals)
    if hmin <= OCTA_SLACK:
        return qmin
    return None


def unital_split(ch: KrausChannel) -> UnitalDecomposition:
    """Maximal split N = (1 - p1) * unitary + p1 * entanglement-breaking.

    The unitary part ranges over the four tetrahedron corners in the
    channel's diagonal frame; each corner contributes a one-dimensional
    feasibility problem whose largest weight is solved exactly.
    """
    _require_unital_qubit(ch)
    if is_unitary_channel(ch):
        raise ChannelError("unitary channel: the entanglement-breaking weight would be zero")
    lam, u, v = tetrahedron_coords(ch)
    best_q, best_corner = -1.0, -1
    for corner in range(4):
        q = corner_max_q(lam, corner)
        if q is not None and q > best_q:
            best_q, best_corner = q, corner
    if best_corner < 0 or best_q <= 0.0:
        raise ChannelError("no tetrahedron corner admits a positive split weight")
    p1 = min(best_q, 1.0)
    vtx = np.array(TETRA_CORNERS[best_corner])
    lam_b = (lam - (1.0 - p1) * vtx) / p1
    u_ch = unitary_channel(u)
    v_ch = unitary_channel(v)
    unitary_part = unitary_channel(u @ CORNER_PAULIS[best_corner] @ v)
    diag_eb = channel_from_bloch_transfer(np.zeros(3), np.diag(lam_b), rank_tol=1e-12)
    eb_part = compose(u_ch, compose(diag_eb, v_ch))
    return UnitalDecomposition(p1=float(p1), unitary_part=unitary_part, eb_part=eb_part, corner=best_corner)


# ---------------------------------------------------------------------------
# Completely positive order and the p2 peel
# ---------------------------------------------------------------------------


def _choi_support(n: KrausChannel) -> tuple[np.ndarray, np.ndarray, float]:
    """One eigendecomposition of C_N, shared by every candidate M.

    Returns the kernel basis of C_N, its support basis scaled by the inverse
    square roots of the eigenvalues (columns of C_N^{+1/2}), and the support
    threshold ``SUPP_TOL * lmax(C_N)``.
    """
    w, v = np.linalg.eigh(kraus_to_choi(n).matrix)
    supp = w > SUPP_TOL * w[-1]
    return v[:, ~supp], v[:, supp] / np.sqrt(w[supp]), SUPP_TOL * w[-1]


def _max_cp_weight_on(support: tuple[np.ndarray, np.ndarray, float], m: KrausChannel) -> float:
    """:func:`max_cp_weight` for the C_N support from :func:`_choi_support`."""
    kernel, s, threshold = support
    cm = kraus_to_choi(m).matrix
    if np.real(np.trace(la.dag(kernel) @ cm @ kernel)) > threshold:
        return 0.0
    lam = np.linalg.eigvalsh(la.dag(s) @ cm @ s)[-1]
    return 1.0 if lam <= 1.0 else float(1.0 / lam)


def max_cp_weight(n: KrausChannel, m: KrausChannel) -> float:
    """Largest q in [0, 1] keeping N - q M completely positive.

    Closed form q = min(1, 2^-D_max(C_M || C_N)) = min(1, 1 / lmax(C_N^{+1/2}
    C_M C_N^{+1/2})) on the support of C_N (Datta, arXiv:0803.2770), and
    q = 0 when the support of C_M leaves that of C_N.  Supports are taken at
    the relative threshold ``SUPP_TOL``.
    """
    return _max_cp_weight_on(_choi_support(n), m)


def p2_certificate(ch: KrausChannel) -> float:
    """Certified lower bound on the non-unital channel constant p2.

    The self peel N >= 1 * N gives p2 >= lmin(C_{N^dag o N}) / P2_DENOMINATOR
    whenever C_{N^dag o N} is positive definite.  The computed eigenvalue is
    trusted only down to the eigensolver's rounding bound ``err =
    P2_MARGIN_ULPS * 4 * eps * lmax`` on the 4x4 Choi matrix, so the bound
    is ``(lmin - err) / P2_DENOMINATOR`` when ``lmin > err``; otherwise it
    is 0 and the entanglement-breaking weight of :func:`p_constant` decides
    alone.  One eigensolve.
    """
    if not ch.is_qubit():
        raise ChannelError("p2 certificates are implemented for qubit channels only")
    if ch.is_unital():
        raise ChannelError("channel is unital; p2 certificates apply to non-unital channels")
    w = adjoint_composition_spectrum(ch)
    err = P2_MARGIN_ULPS * len(w) * EPS * w[-1]
    return float(w[0] - err) / P2_DENOMINATOR if w[0] > err else 0.0


def eb_peel_weight(ch: KrausChannel, candidates: int = 64, seed: int = 0) -> float:
    """Best q with N >= q B over random entanglement-breaking candidates B
    (a lower bound on the entanglement-breaking weight of N).

    Candidate i is drawn from ``rng_from(seed, 1_000_000 + i)`` and scored
    against one decomposition of C_N.  Every candidate has a full-rank Choi
    matrix, so when C_N is rank-deficient at ``SUPP_TOL`` the weight is 0
    without drawing any: 0 is always a sound lower bound, and the search
    would return 0 there almost surely, since a candidate scores only if its
    Choi matrix is negligible on the kernel of C_N.
    """
    support = _choi_support(ch)
    if support[0].shape[1]:
        return 0.0
    best = 0.0
    for i in range(candidates):
        rng = rng_from(seed, 1_000_000 + i)
        b = random_eb_qubit_channel(rng)
        best = max(best, _max_cp_weight_on(support, b))
    return best


def p_constant(ch: KrausChannel, eb_candidates: int = 64, seed: int = 0) -> PConstantReport:
    """The channel constant p = max(p1, p2) for a non-unitary qubit channel.

    Unital channels take the exact corner-search p1.  Non-unital channels
    combine two certified lower bounds: the self-peel p2 of
    :func:`p2_certificate` and the entanglement-breaking weight of
    :func:`eb_peel_weight`, the only random search left, over
    ``eb_candidates`` candidates drawn from ``seed``.  That weight is 0
    without a search when C_N is rank-deficient, so p is then the self-peel
    p2 alone.
    """
    if not ch.is_qubit():
        raise ChannelError("the channel constant is defined for qubit channels")
    report = validate_channel(ch)
    if not report.ok:
        raise ChannelError("channel fails validation; cannot certify a constant")
    if is_unitary_channel(ch):
        raise ChannelError("unitary channel: out of scope of the memory-time bound")
    if ch.is_unital():
        split = unital_split(ch)
        return PConstantReport(
            p1=split.p1, p2_lower=0.0, p=split.p1, certification="exact_p1"
        )
    p2 = p2_certificate(ch)
    p1_style = eb_peel_weight(ch, candidates=eb_candidates, seed=seed)
    p = max(p2, p1_style)
    if p <= 0.0:
        raise ChannelError("could not certify a positive channel constant")
    return PConstantReport(p1=p1_style, p2_lower=p2, p=p, certification="certified_lower_bound")


# ---------------------------------------------------------------------------
# Entanglement-breaking test
# ---------------------------------------------------------------------------


def is_entanglement_breaking(ch: KrausChannel) -> bool:
    """Positive-partial-transpose test on the Choi matrix (exact for qubit
    channels)."""
    if not ch.is_qubit():
        raise ChannelError("the PPT-of-Choi criterion is asserted for qubit channels only")
    c = kraus_to_choi(ch)
    pt = la.partial_transpose(c.matrix, c.out_dim, c.in_dim)
    return la.min_eig(pt) >= -PSD_TOL
