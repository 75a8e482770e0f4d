"""The Cholesky positivity certificate of ``check_density_stack`` against the
eigvalsh-only check it replaced: same decisions, same messages, and no
eigensolve on a stack whose factorization succeeds."""

import numpy as np
import pytest

import chcon.linalg as la
from chcon.channels import ChannelError, check_density_stack
from chcon.config import HERM_TOL, PSD_TOL, TP_TOL

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

NOT_FINITE = "density matrix has non-finite entries"
NOT_HERMITIAN = "density matrix is not Hermitian within tolerance"
NOT_PSD = "density matrix is not positive semidefinite within tolerance"
BAD_TRACE = "density matrix trace differs from 1 beyond tolerance"


def eigvalsh_reference(ms: np.ndarray) -> str | None:
    """The message of the first failed check, all decided by eigensolves, or
    None: the same checks in the same order, positivity read off one
    batched ``eigvalsh`` of the Hermitian parts."""
    if not np.all(np.isfinite(ms)):
        return NOT_FINITE
    skew = ms - la.dag(ms)
    if len(ms) and np.abs(np.linalg.eigvalsh(1j * skew)).max() > HERM_TOL:
        return NOT_HERMITIAN
    if np.linalg.eigvalsh(la.herm_part(ms))[:, :1].min(initial=0.0) < -PSD_TOL:
        return NOT_PSD
    tr = np.trace(ms, axis1=-2, axis2=-1)
    if np.abs(tr.real - 1.0).max(initial=0.0) > TP_TOL or np.abs(tr.imag).max(initial=0.0) > TP_TOL:
        return BAD_TRACE
    return None


def outcome(ms: np.ndarray) -> str | None:
    try:
        check_density_stack(ms)
    except ChannelError as exc:
        return str(exc)
    return None


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_min_eigenvalue(rng, d: int, lam: float) -> np.ndarray:
    """A unit-trace Hermitian matrix in a random basis whose smallest
    eigenvalue is ``lam`` (the others are positive and of order 1/d)."""
    rest = rng.uniform(0.5, 1.5, size=d - 1)
    rest *= (1.0 - lam) / rest.sum()
    u = random_unitary(rng, d)
    return (u * np.concatenate(([lam], rest))) @ u.conj().T


def random_density(rng, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class CountingEigvalsh:
    def __init__(self, original):
        self.original = original
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.original(*args, **kwargs)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    counter = CountingEigvalsh(np.linalg.eigvalsh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counter)
    return counter


class TestBoundaryParity:
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_min_eigenvalue_at_the_tolerance(self, d, side):
        rng = np.random.default_rng(int(1000 * side) + d)
        for _ in range(8):
            ms = np.stack([random_density(rng, d, d), with_min_eigenvalue(rng, d, -PSD_TOL * side)])
            expected = NOT_PSD if side > 1.0 else None
            assert eigvalsh_reference(ms) == expected
            assert outcome(ms) == expected

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_factorization_failure_inside_the_tolerance_passes(self, d, eigvalsh_calls):
        # lmin = -PSD_TOL + m / 2, inside the Cholesky margin m = 256 d eps:
        # the shifted factorization fails, and the eigvalsh fallback accepts.
        lam = -PSD_TOL + 128.0 * d * np.finfo(float).eps
        ms = with_min_eigenvalue(np.random.default_rng(d), d, lam)[None]
        assert outcome(ms) is None
        assert eigvalsh_calls.calls == 1


BLOCK_KINDS = ("density", "pure", "psd_edge_in", "psd_edge_out", "psd_far", "skew", "trace")


@st.composite
def stacks(draw):
    """(B, d, d) stacks, B <= 16 and d <= 16, mixing valid blocks with
    blocks near or past each tolerance."""
    d = draw(st.integers(1, 16))
    kinds = draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for kind in kinds:
        if kind == "pure":
            m = random_density(rng, d, 1)
        elif kind == "psd_edge_in":
            m = with_min_eigenvalue(rng, d, -PSD_TOL * (1.0 - 1e-3)) if d > 1 else np.ones((1, 1))
        elif kind == "psd_edge_out":
            m = with_min_eigenvalue(rng, d, -PSD_TOL * (1.0 + 1e-3)) if d > 1 else np.ones((1, 1))
        elif kind == "psd_far":
            m = with_min_eigenvalue(rng, d, -rng.uniform(0.0, 4.0) * PSD_TOL) if d > 1 else np.ones((1, 1))
        else:
            m = random_density(rng, d, int(rng.integers(1, d + 1)))
            if kind == "skew":
                # A real antisymmetric k adds 2 k to A - A^H: residual 0 to 4 HERM_TOL.
                k = rng.normal(size=(d, d))
                k -= k.T
                m = m + rng.uniform(0.0, 2.0) * HERM_TOL * k / max(np.linalg.norm(k, 2), 1e-300)
            elif kind == "trace":
                m = m * (1.0 + rng.uniform(-2.0, 2.0) * TP_TOL)
        blocks.append(np.asarray(m, dtype=complex))
    return np.stack(blocks)


class TestRandomStackParity:
    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(stacks())
    def test_same_decision_and_message_as_eigvalsh(self, ms):
        assert outcome(ms) == eigvalsh_reference(ms)


class TestMessages:
    def test_every_rejection_keeps_its_message(self):
        good = np.eye(2, dtype=complex) / 2
        cases = {
            NOT_FINITE: np.array([[np.nan, 0], [0, 0.5]], dtype=complex),
            NOT_HERMITIAN: np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex),
            NOT_PSD: np.diag([1.0 + 2e-9, -2e-9]).astype(complex),
            BAD_TRACE: np.diag([0.6, 0.5]).astype(complex),
        }
        for message, bad in cases.items():
            ms = np.stack([good, bad])
            assert eigvalsh_reference(ms) == message
            with pytest.raises(ChannelError) as err:
                check_density_stack(ms)
            assert str(err.value) == message

    def test_not_psd_decided_before_the_trace(self):
        # Positivity is checked before the trace, whatever the trace's scale.
        ms = (1000.0 * with_min_eigenvalue(np.random.default_rng(3), 4, -1.01e-12))[None]
        assert outcome(ms) == eigvalsh_reference(ms) == NOT_PSD


class TestNoEigensolveOnSuccess:
    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    def test_valid_stacks_take_no_eigvalsh(self, d, eigvalsh_calls):
        rng = np.random.default_rng(d)
        for count in (1, 5, 16):
            ms = [random_density(rng, d, int(rng.integers(1, d + 1))) for _ in range(count)]
            if d > 1:
                ms.append(with_min_eigenvalue(rng, d, -0.5 * PSD_TOL))
            check_density_stack(np.stack(ms))
        assert eigvalsh_calls.calls == 0

    def test_failed_factorization_takes_one_eigvalsh(self, eigvalsh_calls):
        ms = np.stack([np.eye(2) / 2, np.diag([1.0 + 2e-9, -2e-9])]).astype(complex)
        with pytest.raises(ChannelError, match="not positive semidefinite"):
            check_density_stack(ms)
        assert eigvalsh_calls.calls == 1
