"""Quantum channels and states: representations, conversions, validation.

Channels are carried as Kraus operator lists, and every other form is read
off the one superoperator :meth:`KrausChannel.transfer_matrix`.  The Choi
matrix, its :func:`reshuffle`, places the output factor first,

    C = sum_ij T(|i><j|) (x) |i><j|,

so ``C`` is a (out_dim * in_dim) square matrix with ``Tr C = in_dim`` and the
partial trace over the output factor equal to the in_dim identity for any
trace-preserving map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import linalg as la
from .config import HERM_TOL, PSD_TOL, TP_TOL

# Eigenvalue threshold below which a Choi eigenvalue counts as zero.
RANK_TOL = 1e-9
# Margin of the Cholesky positivity certificate of check_density_stack, in
# units of d * eps times the trace scale.
CHOL_MARGIN_ULPS = 256.0
EPS = float(np.finfo(float).eps)


class ChannelError(ValueError):
    """Raised for malformed channels, states, or unsupported inputs."""


def check_int(name: str, n, low: int, high: int | None = None) -> None:
    """Raises ``ChannelError`` unless ``n`` is a non-boolean integer in [low, high)."""
    integer = isinstance(n, (int, np.integer)) and not isinstance(n, bool)
    if not integer or n < low or (high is not None and n >= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ChannelError(f"{name} must be an integer {bound}, got {n!r}")


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def check_density_stack(ms: np.ndarray) -> None:
    """Validate a ``(B, d, d)`` stack of density matrices in one pass.

    The checks run in order over the whole stack: finite entries, the
    Hermitian residual ``||A - A^H||_2``, positive semidefiniteness of the
    Hermitian part ``H``, and unit trace.  The residual is the largest
    ``|eigenvalue|`` of the Hermitian matrix ``i (A - A^H)``; it is computed
    only for the matrices whose Frobenius norm ``||A - A^H||_F`` (an upper
    bound on it) exceeds ``HERM_TOL``.  One dot product first takes that
    norm over the whole stack: when it is at most ``HERM_TOL`` every entry
    is finite and every block's residual is within tolerance, so neither
    per-block test runs.

    Positivity is certified by one batched Cholesky factorization of
    ``H + (PSD_TOL - m) I``, taken at twice that scale as ``A + A^H +
    2 (PSD_TOL - m) I`` so that ``H`` itself is never formed; the error bound
    below scales with it.  A factorization that runs to completion is
    exact for ``H + (PSD_TOL - m) I + E`` with ``||E||_2 <= gamma_{d+1}
    ||L||_F^2``, about ``(d + 1) eps Tr H`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, Thm. 10.3), so ``lmin(H) >= -PSD_TOL`` holds
    whenever the margin ``m = CHOL_MARGIN_ULPS * d * eps * max(1, |Tr H|)``
    exceeds that error and the error of an ``eigvalsh`` reference; it is
    about 1e-12 for unit-trace blocks at d = 16.  Only when a factorization
    fails does one batched ``eigvalsh`` of the Hermitian parts decide, with
    the exact ``lmin < -PSD_TOL`` test.  Raises :class:`ChannelError`
    naming the first failed check.
    """
    ms = np.asarray(ms, dtype=complex)
    adj = la.dag(ms)
    skew = ms - adj
    # A non-finite entry makes the stack's ||A - A^H||_F^2 non-finite.
    flat = skew.view(float).ravel()
    if not flat @ flat <= HERM_TOL**2:
        if not np.isfinite(ms).all():
            raise ChannelError("density matrix has non-finite entries")
        unsure = skew[np.einsum("bij,bij->b", skew, skew.conj()).real > HERM_TOL**2]
        if len(unsure) and np.abs(np.linalg.eigvalsh(1j * unsure)).max() > HERM_TOL:
            raise ChannelError("density matrix is not Hermitian within tolerance")
    count, d = ms.shape[0], ms.shape[-1]
    tr = np.trace(ms, axis1=-2, axis2=-1)
    margin = CHOL_MARGIN_ULPS * d * EPS * np.maximum(1.0, np.abs(tr.real))
    # 2 H + 2 (PSD_TOL - m) I, certified like H + (PSD_TOL - m) I.
    shifted = ms + adj
    shifted.reshape(count, d * d)[:, :: d + 1] += (2.0 * (PSD_TOL - margin))[:, None]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        if np.linalg.eigvalsh(0.5 * (ms + adj))[:, :1].min(initial=0.0) < -PSD_TOL:
            raise ChannelError("density matrix is not positive semidefinite within tolerance") from None
    # Real part Tr - 1 and imaginary part Tr, side by side.
    if np.abs((tr - 1.0).view(float)).max(initial=0.0) > TP_TOL:
        raise ChannelError("density matrix trace differs from 1 beyond tolerance")


@dataclass(frozen=True)
class DensityState:
    """A validated density operator."""

    dim: int
    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DensityState":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ChannelError(f"density matrix must be square, got shape {m.shape}")
        check_density_stack(m[None])
        return cls(dim=m.shape[0], matrix=la.frozen(m))

    @classmethod
    def pure(cls, vec: np.ndarray) -> "DensityState":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise ChannelError("zero vector cannot be normalized to a pure state")
        v = v / n
        return cls(dim=v.size, matrix=la.frozen(np.outer(v, v.conj())))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls(dim=dim, matrix=la.frozen(np.eye(dim) / dim))


def bell_state() -> DensityState:
    """The maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityState.pure(v)


# ---------------------------------------------------------------------------
# Channel carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by Kraus operators.

    Construction only enforces shape consistency so that invalid candidates
    can still be inspected; use :func:`validate_channel` for the
    trace-preservation / complete-positivity report.
    """

    in_dim: int
    out_dim: int
    kraus: tuple[np.ndarray, ...]

    @classmethod
    def from_kraus(cls, ops: Iterable[np.ndarray]) -> "KrausChannel":
        mats = tuple(la.frozen(np.asarray(k, dtype=complex)) for k in ops)
        if not mats:
            raise ChannelError("Kraus list must be nonempty")
        out_dim, in_dim = mats[0].shape
        if out_dim < 1 or in_dim < 1:
            raise ChannelError(f"Kraus operators of shape {mats[0].shape} act on an empty space")
        for k in mats:
            if k.ndim != 2 or k.shape != (out_dim, in_dim):
                raise ChannelError(
                    f"inconsistent Kraus shapes: expected {(out_dim, in_dim)}, got {k.shape}"
                )
            if not np.all(np.isfinite(k)):
                raise ChannelError("Kraus operator has non-finite entries")
        return cls(in_dim=in_dim, out_dim=out_dim, kraus=mats)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """T(rho) for a matrix or for every matrix of a ``(B, d, d)`` stack."""
        rho = np.asarray(rho, dtype=complex)
        first, *rest = self.kraus
        out = first @ rho @ la.dag(first)
        for k in rest:
            out += k @ rho @ la.dag(k)
        return out

    @cached_property
    def _transfer(self) -> np.ndarray:
        m = np.zeros((self.out_dim**2, self.in_dim**2), dtype=complex)
        for k in self.kraus:
            m += np.kron(k, k.conj())
        m.setflags(write=False)
        return m

    def transfer_matrix(self) -> np.ndarray:
        """Row-major superoperator: vec(T(X)) = M vec(X).

        Built from the Kraus operators on the first call and kept: every
        call on the same channel object returns the same read-only array.
        """
        return self._transfer

    @cached_property
    def _transfer_powers(self) -> dict:
        return {}

    def transfer_power(self, k: int) -> np.ndarray:
        """Row-major superoperator of the k-fold tensor power of the channel:
        ``vec(T^{(x)k}(X)) = M vec(X)`` for an operator ``X`` on k systems.

        It is the k-fold Kronecker power of :meth:`transfer_matrix`, whose
        index runs over the systems' (row, column) pairs in turn, with the
        k row indices moved before the k column indices; ``k = 0`` gives
        ``[[1]]``.  Kept like the transfer matrix: every call with the same
        ``k`` on the same channel object returns the same read-only array.
        """
        powers = self._transfer_powers
        if k not in powers:
            m = np.ones((1, 1), dtype=complex)
            for _ in range(k):
                m = np.kron(m, self._transfer)
            # Axes (r1, c1, ..., rk, ck) on each side, to (r1..rk, c1..ck).
            grouped = [*range(0, 2 * k, 2), *range(1, 2 * k, 2)]
            m = m.reshape((self.out_dim, self.out_dim) * k + (self.in_dim, self.in_dim) * k)
            m = m.transpose(grouped + [2 * k + a for a in grouped]).reshape(self.out_dim ** (2 * k), -1)
            m.setflags(write=False)
            powers[k] = m
        return powers[k]

    def tp_residual(self) -> float:
        acc = sum(la.dag(k) @ k for k in self.kraus)
        return float(np.linalg.norm(acc - np.eye(self.in_dim), 2))

    def is_unital(self) -> bool:
        acc = sum(k @ la.dag(k) for k in self.kraus)
        return bool(np.linalg.norm(acc - np.eye(self.out_dim), 2) <= TP_TOL)

    def is_qubit(self) -> bool:
        return self.in_dim == 2 and self.out_dim == 2


@dataclass(frozen=True)
class ChoiMatrix:
    in_dim: int
    out_dim: int
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(la.herm_part(self.matrix))

    def rank(self) -> int:
        return int(np.sum(self.eigenvalues() > RANK_TOL))


@dataclass(frozen=True)
class StinespringIsometry:
    in_dim: int
    out_dim: int
    env_dim: int
    v: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        big = self.v @ np.asarray(rho, dtype=complex) @ la.dag(self.v)
        return la.partial_trace(big, (self.out_dim, self.env_dim), keep=(0,))

    def environment_output(self, rho: np.ndarray) -> np.ndarray:
        big = self.v @ np.asarray(rho, dtype=complex) @ la.dag(self.v)
        return la.partial_trace(big, (self.out_dim, self.env_dim), keep=(1,))


@dataclass(frozen=True)
class BlochAffine:
    """Qubit-channel normal form: rho -> U C_[t,lambda](V rho V^dag) U^dag.

    ``t`` and ``lam`` live in the rotated frame fixed by the pre/post
    unitaries.  Convention: transfer matrices that are already diagonal are
    returned as-is with identity rotations; otherwise a rotation-constrained
    SVD is used, absorbing reflections into the sign of the last entry of
    ``lam``.
    """

    t: np.ndarray
    lam: np.ndarray
    pre_unitary: np.ndarray
    post_unitary: np.ndarray

    @property
    def unital(self) -> bool:
        return bool(np.linalg.norm(self.t) <= TP_TOL)

    def transfer(self) -> tuple[np.ndarray, np.ndarray]:
        """Overall Bloch action (t_total, M) with r -> t_total + M r."""
        _, ru = bloch_transfer(unitary_channel(self.post_unitary))
        _, rv = bloch_transfer(unitary_channel(self.pre_unitary))
        m = ru @ np.diag(self.lam) @ rv
        return ru @ self.t, m

    def to_channel(self) -> KrausChannel:
        t_total, m = self.transfer()
        return channel_from_bloch_transfer(t_total, m)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelValidation:
    tp_residual: float
    choi_min_eigenvalue: float
    tp_ok: bool
    cp_ok: bool

    @property
    def ok(self) -> bool:
        return self.tp_ok and self.cp_ok


def validate_channel(ch: KrausChannel) -> ChannelValidation:
    """Report trace-preservation and complete-positivity residuals."""
    tp_res = ch.tp_residual()
    cmin = la.min_eig(kraus_to_choi(ch).matrix)
    return ChannelValidation(
        tp_residual=tp_res,
        choi_min_eigenvalue=cmin,
        tp_ok=tp_res <= TP_TOL,
        cp_ok=cmin >= -PSD_TOL,
    )


# ---------------------------------------------------------------------------
# Representation conversions
# ---------------------------------------------------------------------------


def reshuffle(m: np.ndarray, out_dim: int, in_dim: int) -> np.ndarray:
    """Choi matrix ``C[(a, i), (b, j)] = M[(a, b), (i, j)]`` of the transfer
    matrix ``m`` of a map from ``in_dim`` to ``out_dim``."""
    t = np.reshape(m, (out_dim, out_dim, in_dim, in_dim)).swapaxes(1, 2)
    return t.reshape(out_dim * in_dim, out_dim * in_dim)


def kraus_to_choi(ch: KrausChannel) -> ChoiMatrix:
    c = reshuffle(ch.transfer_matrix(), ch.out_dim, ch.in_dim)
    return ChoiMatrix(in_dim=ch.in_dim, out_dim=ch.out_dim, matrix=la.frozen(c))


def choi_to_kraus(c: ChoiMatrix, rank_tol: float = RANK_TOL) -> KrausChannel:
    """Minimal Kraus list from the Choi eigendecomposition."""
    w, v = np.linalg.eigh(la.herm_part(c.matrix))
    if w[0] < -PSD_TOL:
        raise ChannelError(f"Choi matrix is not PSD (min eigenvalue {w[0]:.3e})")
    ops = []
    for i in range(len(w) - 1, -1, -1):
        if w[i] > rank_tol:
            ops.append(np.sqrt(w[i]) * v[:, i].reshape(c.out_dim, c.in_dim))
    if not ops:
        raise ChannelError("Choi matrix has no eigenvalue above rank_tol")
    return KrausChannel.from_kraus(ops)


def canonical_kraus(ch: KrausChannel) -> KrausChannel:
    """Re-express a channel with a minimal (Choi-rank) Kraus list."""
    return choi_to_kraus(kraus_to_choi(ch))


def stinespring(ch: KrausChannel) -> StinespringIsometry:
    """Isometry V with T(X) = Tr_E(V X V^dag) and env_dim = Choi rank."""
    minimal = canonical_kraus(ch)
    env = len(minimal.kraus)
    v = np.zeros((minimal.out_dim * env, minimal.in_dim), dtype=complex)
    for e, k in enumerate(minimal.kraus):
        v[e::env, :] = k
    return StinespringIsometry(
        in_dim=minimal.in_dim, out_dim=minimal.out_dim, env_dim=env, v=la.frozen(v)
    )


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------


def compose(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """The map X -> a(b(X)); ``b`` acts first."""
    if b.out_dim != a.in_dim:
        raise ChannelError(
            f"compose dimension mismatch: inner output {b.out_dim} vs outer input {a.in_dim}"
        )
    return KrausChannel.from_kraus([ka @ kb for ka in a.kraus for kb in b.kraus])


def tensor(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    return KrausChannel.from_kraus([np.kron(ka, kb) for ka in a.kraus for kb in b.kraus])


def adjoint(a: KrausChannel) -> KrausChannel:
    """Adjoint (Heisenberg-picture) map; unital whenever ``a`` is TP.

    The result is a completely positive map carrier and generally not
    trace preserving.
    """
    return KrausChannel.from_kraus([la.dag(k) for k in a.kraus])


def choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    """1-norm distance between the Choi matrices of two channels."""
    return la.trace_norm(kraus_to_choi(a).matrix - kraus_to_choi(b).matrix)


# ---------------------------------------------------------------------------
# Qubit Bloch-affine normal form
# ---------------------------------------------------------------------------


# The vec'd Paulis I, X, Y, Z as columns: B^dag B = B B^dag = 2 I.
PAULI_COLUMNS = np.stack([p.reshape(-1) for p in la.PAULIS], axis=1)


def bloch_transfer(ch: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """(t, M) with Bloch action r -> t + M r for a qubit channel: the first
    column and the lower-right block of ``0.5 B^dag T B`` for the
    transfer matrix ``T`` and ``B`` = ``PAULI_COLUMNS``."""
    if not ch.is_qubit():
        raise ChannelError("Bloch representation requires a qubit channel")
    r = 0.5 * (la.dag(PAULI_COLUMNS) @ ch.transfer_matrix() @ PAULI_COLUMNS).real
    return r[1:, 0], r[1:, 1:]


def channel_from_bloch_transfer(t: np.ndarray, m: np.ndarray, rank_tol: float = RANK_TOL) -> KrausChannel:
    """Qubit channel with the given affine Bloch action (must be CP): the
    transfer matrix ``0.5 B R B^dag`` inverts :func:`bloch_transfer`, and its
    reshuffle is the Choi matrix."""
    r = np.zeros((4, 4))
    r[0, 0] = 1.0
    r[1:, 0] = t
    r[1:, 1:] = m
    tmat = 0.5 * PAULI_COLUMNS @ r @ la.dag(PAULI_COLUMNS)
    return choi_to_kraus(ChoiMatrix(in_dim=2, out_dim=2, matrix=reshuffle(tmat, 2, 2)), rank_tol=rank_tol)


def _signed_rotation_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m = W diag(lam) X with W, X in SO(3); reflections go into lam's sign."""
    w, s, xt = np.linalg.svd(m)
    x = xt.T
    flip_w = np.diag([1.0, 1.0, np.linalg.det(w)])
    flip_x = np.diag([1.0, 1.0, np.linalg.det(x)])
    lam = flip_w @ np.diag(s) @ flip_x
    return w @ flip_w, np.diag(lam).copy(), (x @ flip_x).T


def to_bloch_affine(ch: KrausChannel) -> BlochAffine:
    """Normal form of a qubit channel; see :class:`BlochAffine` for the
    sign convention."""
    t_total, m = bloch_transfer(ch)
    off = m - np.diag(np.diag(m))
    if np.max(np.abs(off)) <= TP_TOL:
        lam = np.diag(m).copy()
        ru = np.eye(3)
        rv = np.eye(3)
    else:
        ru, lam, rv = _signed_rotation_svd(m)
    t_mid = ru.T @ t_total
    return BlochAffine(
        t=la.frozen(t_mid).real,
        lam=la.frozen(lam).real,
        pre_unitary=la.frozen(la.su2_from_rotation(rv)),
        post_unitary=la.frozen(la.su2_from_rotation(ru)),
    )


# ---------------------------------------------------------------------------
# Extreme points
# ---------------------------------------------------------------------------


def extremality_gap(ch: KrausChannel) -> float:
    """Smallest singular value of the {K_i^dag K_j} linear system.

    Computed on the minimal (Choi-rank) Kraus list; the channel is an
    extreme point of the CPTP set iff the gap is positive.
    """
    minimal = canonical_kraus(ch)
    prods = [la.dag(ki) @ kj for ki in minimal.kraus for kj in minimal.kraus]
    g = np.stack([p.reshape(-1) for p in prods], axis=1)
    if g.shape[1] > g.shape[0]:
        return 0.0
    return float(np.linalg.svd(g, compute_uv=False)[-1])


def is_extreme_point(ch: KrausChannel) -> bool:
    """Extremality test: the gap of :func:`extremality_gap` exceeds 1e-8."""
    return extremality_gap(ch) > 1e-8


def is_unitary_channel(ch: KrausChannel) -> bool:
    """Choi-rank-1 test (second Choi eigenvalue below ``RANK_TOL``)."""
    if ch.in_dim != ch.out_dim:
        return False
    w = kraus_to_choi(ch).eigenvalues()
    return bool(w[-2] < RANK_TOL) if len(w) >= 2 else True


# ---------------------------------------------------------------------------
# Preset channel families
# ---------------------------------------------------------------------------


def identity_channel(dim: int = 2) -> KrausChannel:
    return KrausChannel.from_kraus([np.eye(dim)])


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    if not la.is_unitary(u, TP_TOL):
        raise ChannelError("matrix is not unitary within tolerance")
    return KrausChannel.from_kraus([u])


def depolarizing(p: float) -> KrausChannel:
    """rho -> (1-p) rho + p I/2.  p=1 is the completely depolarizing channel."""
    if not 0.0 <= p <= 1.0:
        raise ChannelError(f"depolarizing parameter must be in [0, 1], got {p}")
    ops = [np.sqrt(1.0 - 3.0 * p / 4.0) * la.I2]
    for pauli in la.PAULIS[1:]:
        ops.append(np.sqrt(p / 4.0) * pauli)
    return KrausChannel.from_kraus([k for k in ops if np.linalg.norm(k) > 0])


def completely_depolarizing() -> KrausChannel:
    return depolarizing(1.0)


def dephasing(p: float) -> KrausChannel:
    """rho -> (1-p/2) rho + (p/2) Z rho Z, i.e. lambda = (1-p, 1-p, 1)."""
    if not 0.0 <= p <= 1.0:
        raise ChannelError(f"dephasing parameter must be in [0, 1], got {p}")
    ops = [np.sqrt(1.0 - p / 2.0) * la.I2, np.sqrt(p / 2.0) * la.PAULI_Z]
    return KrausChannel.from_kraus([k for k in ops if np.linalg.norm(k) > 0])


def amplitude_damping(gamma: float) -> KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ChannelError(f"damping parameter must be in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    ops = [k0, k1] if gamma > 0 else [k0]
    return KrausChannel.from_kraus(ops)


_PRESETS = {
    "identity": lambda **kw: identity_channel(int(kw.get("dim", 2))),
    "depolarizing": lambda **kw: depolarizing(float(kw["p"])),
    "dephasing": lambda **kw: dephasing(float(kw["p"])),
    "amplitude_damping": lambda **kw: amplitude_damping(float(kw["gamma"])),
    "unitary": lambda **kw: unitary_channel(np.asarray(kw["matrix"], dtype=complex)),
}


def preset(name: str, **params) -> KrausChannel:
    """Named channel family; see the channel-spec file format for parameters."""
    try:
        builder = _PRESETS[name]
    except (KeyError, TypeError):
        raise ChannelError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}") from None
    try:
        return builder(**params)
    except ChannelError:
        raise
    except KeyError as missing:
        raise ChannelError(f"preset {name!r} missing parameter {missing}") from None
    except (TypeError, ValueError) as exc:
        raise ChannelError(f"preset {name!r} has a malformed parameter: {exc}") from None
