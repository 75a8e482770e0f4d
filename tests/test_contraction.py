"""Contraction coefficients and their certified bounds."""

import numpy as np
import pytest

import chcon.linalg as la
from chcon.channels import (
    ChannelError,
    KrausChannel,
    amplitude_damping,
    bloch_transfer,
    completely_depolarizing,
    compose,
    adjoint,
    dephasing,
    depolarizing,
    identity_channel,
    kraus_to_choi,
    tensor,
    unitary_channel,
)
import chcon.contraction as contraction
from chcon.bounds import _max_pure_deviation
from chcon.contraction import (
    CHI_FLOOR,
    ContractionReport,
    OrthogonalPair,
    _chi_at,
    _chi_top,
    _random_orthogonal_pair,
    eta_chi_lower,
    eta_tr,
    eta_tr_upper_choi,
    eta_tr_upper_minoutev,
    independence_trivial,
    min_output_eigenvalue,
    sign_ascent,
)
from chcon.divergences import chi2_divergence
from chcon.sampling import (
    random_channel,
    random_density,
    random_full_rank_density,
    random_pure,
    random_unital_qubit_channel,
    rng_from,
)

from conftest import evaluate_pair, seeded


class TestEtaTr:
    def test_identity_is_one(self):
        assert eta_tr(identity_channel()).value == pytest.approx(1.0)

    def test_depolarizing_closed_form(self):
        for p in (0.1, 0.25, 0.8):
            assert eta_tr(depolarizing(p)).value == pytest.approx(1 - p, abs=1e-12)

    def test_amplitude_damping_is_sqrt_one_minus_gamma(self):
        rep = eta_tr(amplitude_damping(0.36))
        assert rep.value == pytest.approx(0.8, abs=1e-12)
        assert rep.method == "bloch_exact"

    def test_witness_reproduces_value(self):
        for ch in (amplitude_damping(0.36), dephasing(0.3), depolarizing(0.5)):
            rep = eta_tr(ch)
            assert evaluate_pair(ch, rep.witness) == pytest.approx(rep.value, abs=1e-6)

    def test_qutrit_multistart_close_to_known(self):
        # A unitary qutrit channel has coefficient one; the multi-start
        # search must find an orthogonal pair achieving it.
        from chcon.sampling import haar_unitary

        u = haar_unitary(seeded(8), 3)
        rep = eta_tr(unitary_channel(u), restarts=8, seed=2)
        assert rep.value == pytest.approx(1.0, abs=1e-9)
        assert rep.method == "multistart_sign_ascent"

    def test_tensor_estimate_at_least_single_factor(self):
        # Tensoring cannot shrink the coefficient (fix one factor's input);
        # how much it can grow is exactly what the Choi bound controls.
        a = amplitude_damping(0.5)
        t = tensor(a, a)
        est = eta_tr(t, restarts=16, seed=3).value
        single = eta_tr(a).value
        assert est >= single - 1e-6
        assert est <= eta_tr_upper_choi(a, n_copies=2).value + 1e-6

    def test_zero_restarts_rejected(self):
        with pytest.raises(ChannelError, match="restarts must be an integer >= 1"):
            eta_tr(random_channel(seeded(63), 3), restarts=0)


class TestMinOutputEigenvalue:
    def test_completely_depolarizing(self):
        rep = eta_tr_upper_minoutev(completely_depolarizing(), restarts=8, seed=1)
        assert rep.extras["lambda_min_out"] == pytest.approx(0.5, abs=1e-9)
        assert rep.value == pytest.approx(np.sqrt(1 - 1 / 8), abs=1e-9)
        # Vacuous but valid against the true coefficient of zero.
        assert eta_tr(completely_depolarizing()).value <= rep.value

    def test_zero_restarts_rejected(self):
        with pytest.raises(ChannelError, match="restarts must be an integer >= 1"):
            eta_tr_upper_minoutev(random_channel(seeded(64), 3), restarts=0)

    def test_identity_gives_bound_one(self):
        rep = eta_tr_upper_minoutev(identity_channel(), restarts=8, seed=1)
        assert rep.extras["lambda_min_out"] == pytest.approx(0.0, abs=1e-12)
        assert rep.value == pytest.approx(1.0)

    def test_amplitude_damping_upper_bounds_eta(self):
        ch = amplitude_damping(0.3)
        rep = eta_tr_upper_minoutev(ch, restarts=12, seed=1)
        assert rep.value >= np.sqrt(0.7) - 1e-9

    def test_bilinear_symmetry_of_minimum(self):
        # The minimizing (psi, phi) pair can be swapped without changing the
        # value because the composed superoperator is self-adjoint.
        ch = random_channel(seeded(12), 2, env_dim=2)
        lam, (psi, phi), _ = min_output_eigenvalue(ch, restarts=8, seed=0)
        tmat = ch.transfer_matrix()
        amat = la.dag(tmat) @ tmat
        val1 = np.real(
            np.vdot(psi, (amat @ np.outer(phi, phi.conj()).reshape(-1)).reshape(2, 2) @ psi)
        )
        val2 = np.real(
            np.vdot(phi, (amat @ np.outer(psi, psi.conj()).reshape(-1)).reshape(2, 2) @ phi)
        )
        assert val1 == pytest.approx(val2, abs=1e-9)
        assert lam == pytest.approx(val1, abs=1e-9)


def brute_force_adjoint_composition_choi(ch) -> np.ndarray:
    """Choi of T^dag o T built from explicit Kraus products."""
    comp = compose(adjoint(ch), ch)
    d = ch.in_dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(comp.apply(e), e)
    return c


class TestChoiBound:
    def test_unitary_channel_bound_is_one(self):
        rep = eta_tr_upper_choi(unitary_channel(la.PAULI_Y))
        assert rep.extras["lambda_min_choi"] == pytest.approx(0.0, abs=1e-12)
        assert rep.value == pytest.approx(1.0)

    def test_completely_depolarizing_explicit_eigensolve(self):
        rep = eta_tr_upper_choi(completely_depolarizing())
        ref = np.linalg.eigvalsh(brute_force_adjoint_composition_choi(completely_depolarizing()))
        assert rep.extras["lambda_min_choi"] == pytest.approx(ref[0], abs=1e-12)
        assert rep.extras["lambda_min_choi"] == pytest.approx(0.5, abs=1e-12)

    def test_amplitude_damping_explicit_eigensolve(self):
        ch = amplitude_damping(0.5)
        rep = eta_tr_upper_choi(ch)
        ref = np.linalg.eigvalsh(brute_force_adjoint_composition_choi(ch))
        assert rep.extras["lambda_min_choi"] == pytest.approx(ref[0], abs=1e-12)
        assert 0.0 < rep.value < 1.0

    def test_tensor_power_multiplicativity(self):
        ch = amplitude_damping(0.3)
        doubled = tensor(ch, ch)
        direct = eta_tr_upper_choi(doubled)
        shortcut = eta_tr_upper_choi(ch, n_copies=2)
        assert shortcut.value == pytest.approx(direct.value, abs=1e-9)
        lam1 = eta_tr_upper_choi(ch).extras["lambda_min_choi"]
        lam2 = direct.extras["lambda_min_choi"]
        assert lam2 == pytest.approx(lam1**2, abs=1e-10)


class TestSandwich:
    def test_estimate_below_minout_below_choi(self):
        for d in (2, 3):
            for i in range(60):
                ch = random_channel(seeded(50, d, i), d)
                est = eta_tr(ch, restarts=10, seed=i).value
                up = eta_tr_upper_minoutev(ch, restarts=10, seed=i)
                upc = eta_tr_upper_choi(ch)
                assert est <= up.value + 1e-6
                assert up.value <= upc.value + 1e-6
                assert up.extras["lambda_min_out"] >= upc.extras["lambda_min_choi"] - 1e-8


def _apply(tmat, x):
    d = x.shape[0]
    return (tmat @ x.reshape(-1)).reshape(d, d)


def _sign(a):
    w, v = np.linalg.eigh(la.herm_part(a))
    return (v * np.where(w >= 0, 1.0, -1.0)) @ la.dag(v)


def ref_sign_ascent(tmat, psi, phi, max_iter=300, tol=1e-9):
    """One restart of the eta_tr ascent, written as a plain loop."""
    tadj = la.dag(tmat)
    best, iters = -np.inf, 0
    for _ in range(max_iter):
        img = _apply(tmat, np.outer(psi, psi.conj()) - np.outer(phi, phi.conj()))
        val = 0.5 * la.trace_norm(img)
        iters += 1
        if val <= best + tol:
            best = max(best, val)
            break
        best = val
        _, v = np.linalg.eigh(la.herm_part(_apply(tadj, _sign(img))))
        psi, phi = v[:, -1], v[:, 0]
    return best, (psi, phi), iters


def ref_deviation_ascent(tmat, psi, max_iter=200, tol=1e-12):
    """One restart of the pure-deviation ascent on T - I, as a plain loop."""
    tadj = la.dag(tmat)
    prev, iters = -np.inf, 0
    for _ in range(max_iter):
        img = _apply(tmat, np.outer(psi, psi.conj()))
        val = la.trace_norm(img)
        iters += 1
        if val <= prev + tol:
            break
        prev = val
        _, v = np.linalg.eigh(la.herm_part(_apply(tadj, _sign(img))))
        psi = v[:, -1]
    return prev, iters


def ref_min_eigvec_descent(amat, phi, max_iter=200, tol=1e-12):
    """One restart of the min-output-eigenvalue descent, as a plain loop."""
    psi, best, iters = phi, np.inf, 0
    for _ in range(max_iter):
        w, v = np.linalg.eigh(la.herm_part(_apply(amat, np.outer(phi, phi.conj()))))
        psi, val = v[:, 0], float(w[0])
        w2, v2 = np.linalg.eigh(la.herm_part(_apply(amat, np.outer(psi, psi.conj()))))
        phi, val = v2[:, 0], min(val, float(w2[0]))
        iters += 1
        if val >= best - tol:
            best = min(best, val)
            break
        best = val
    return best, (psi, phi), iters


def _same_ray(a, b):
    return abs(abs(np.vdot(a, b)) - 1.0) < 1e-8


def _kernel_channels():
    qubit = random_channel(seeded(60, 2), 2)
    return {
        "qutrit": random_channel(seeded(60, 3), 3),
        "ququart": random_channel(seeded(60, 4), 4),
        "doubled_qubit": tensor(qubit, qubit),
    }


class TestBatchedKernel:
    """The batched multistart kernel against per-restart reference loops."""

    @pytest.mark.parametrize("name", ["qutrit", "ququart", "doubled_qubit"])
    def test_eta_tr_matches_sequential(self, name):
        ch = _kernel_channels()[name]
        restarts, seed = 16, 4
        tmat = ch.transfer_matrix()
        ref = [
            ref_sign_ascent(tmat, *_random_orthogonal_pair(rng_from(seed, i), ch.in_dim))
            for i in range(restarts)
        ]
        best = int(np.argmax([r[0] for r in ref]))
        rep = eta_tr(ch, restarts=restarts, seed=seed)
        assert rep.value == pytest.approx(ref[best][0], abs=1e-10)
        assert rep.iterations == sum(r[2] for r in ref)
        assert _same_ray(rep.witness.psi, ref[best][1][0])
        assert _same_ray(rep.witness.phi, ref[best][1][1])

    @pytest.mark.parametrize("name", ["qutrit", "ququart", "doubled_qubit"])
    def test_min_output_eigenvalue_matches_sequential(self, name):
        ch = _kernel_channels()[name]
        restarts, seed, d = 10, 2, ch.in_dim
        tmat = ch.transfer_matrix()
        amat = la.dag(tmat) @ tmat
        starts = [np.eye(d, dtype=complex)[i] if i < d else random_pure(rng_from(seed, i), d)
                  for i in range(restarts)]
        ref = [ref_min_eigvec_descent(amat, phi) for phi in starts]
        best = int(np.argmin([r[0] for r in ref]))
        lam, (psi, phi), iters = min_output_eigenvalue(ch, restarts=restarts, seed=seed)
        assert lam == pytest.approx(max(ref[best][0], 0.0), abs=1e-10)
        assert iters == sum(r[2] for r in ref)
        assert _same_ray(psi, ref[best][1][0])
        assert _same_ray(phi, ref[best][1][1])

    @pytest.mark.parametrize("name", ["qutrit", "ququart", "doubled_qubit"])
    def test_pure_deviation_matches_sequential(self, name):
        ch = _kernel_channels()[name]
        restarts, seed, d = 8, 3, ch.in_dim
        tmat = ch.transfer_matrix() - np.eye(d * d)
        starts = np.array([random_pure(rng_from(seed, 7000 + i), d) for i in range(restarts)])
        ref = [ref_deviation_ascent(tmat, psi) for psi in starts]
        norms, _, steps = sign_ascent(tmat, (starts,), 200, 1e-12)
        assert np.argmax(norms) == np.argmax([r[0] for r in ref])
        assert list(steps) == [r[1] for r in ref]
        assert norms == pytest.approx([r[0] for r in ref], abs=1e-10)
        assert _max_pure_deviation(ch, restarts, seed) == pytest.approx(
            max(r[0] for r in ref), abs=1e-10
        )

    def test_restarts_stay_independent(self):
        # Adding restarts only adds rows: the first k restarts give the same
        # values with or without the others.
        ch = _kernel_channels()["qutrit"]
        tmat = ch.transfer_matrix()
        ref = [ref_sign_ascent(tmat, *_random_orthogonal_pair(rng_from(5, i), 3))[0]
               for i in range(6)]
        for k in range(1, 7):
            assert eta_tr(ch, restarts=k, seed=5).value == pytest.approx(max(ref[:k]), abs=1e-10)


def test_expi_matches_scipy_expm():
    from scipy.linalg import expm

    rng = seeded(61)
    for d in (2, 3, 4):
        for _ in range(5):
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = la.herm_part(h)
            assert np.abs(la.expi(h) - expm(1j * h)).max() < 1e-12


class TestEtaChi:
    def test_identity_is_one(self):
        assert eta_chi_lower(identity_channel(), trials=30, seed=1).value == pytest.approx(1.0)

    def test_completely_depolarizing_is_zero(self):
        assert eta_chi_lower(completely_depolarizing(), trials=30, seed=1).value < 1e-9

    def test_dephasing_below_eta_tr(self):
        ch = dephasing(0.5)
        est = eta_chi_lower(ch, trials=100, seed=2).value
        tr = eta_tr(ch).value
        assert tr == pytest.approx(1.0)  # computational basis stays orthogonal
        assert est <= tr + 1e-6

    def test_below_eta_tr_on_random_corpus(self):
        for d in (2, 3):
            for i in range(40):
                ch = random_channel(seeded(51, d, i), d)
                chi_est = eta_chi_lower(ch, trials=40, seed=i).value
                tr_est = eta_tr(ch, restarts=10, seed=i).value
                assert chi_est <= tr_est + 1e-6


def _rank_deficient_qutrit_channel(rng) -> KrausChannel:
    """A qutrit channel whose outputs all lie in a two-dimensional subspace,
    so T(sigma) is singular for every sigma."""
    env = 3
    g = rng.standard_normal((2 * env, 3)) + 1j * rng.standard_normal((2 * env, 3))
    q, _ = np.linalg.qr(g)
    embed = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))[0]
    return KrausChannel.from_kraus([embed @ q[e::env, :] for e in range(env)])


def _kernel_corpus():
    out = []
    for d in (2, 3, 4):
        for i in range(3):
            out.append(random_channel(seeded(71, d, i), d))
    out.append(_rank_deficient_qutrit_channel(seeded(72)))
    return out


class TestChiKernel:
    def test_value_at_sigma_bounds_sampled_ratios(self):
        # The kernel value at sigma is the supremum over rho of the ratio of
        # chi-square divergences, so no sampled rho may beat it.
        for ch in _kernel_corpus():
            d = ch.in_dim
            rng = seeded(73, d)
            sigmas = random_full_rank_density(rng, d, floor=CHI_FLOOR, count=3)
            values = _chi_at(ch.transfer_matrix(), sigmas)
            for sigma, value in zip(sigmas, values):
                for rho in random_density(rng, d, count=50):
                    ratio = chi2_divergence(ch.apply(rho), ch.apply(sigma)) / chi2_divergence(rho, sigma)
                    assert ratio <= value + 1e-10

    def test_top_direction_attains_value(self):
        for ch in _kernel_corpus():
            d = ch.in_dim
            sigma = random_full_rank_density(seeded(74, d), d, floor=CHI_FLOOR)
            value, x, _, residual = (r[0] for r in _chi_top(ch.transfer_matrix(), sigma[None]))
            assert abs(np.trace(x)) < 1e-12
            rho = sigma + 0.5 * np.linalg.eigvalsh(sigma)[0] * x / np.linalg.norm(x, 2)
            ratio = chi2_divergence(ch.apply(rho), ch.apply(sigma)) / chi2_divergence(rho, sigma)
            assert ratio == pytest.approx(value, abs=1e-8)
            assert residual < 1e-10

    def test_unital_qubit_between_bloch_square_and_eta_tr(self):
        # sigma = I/2 is a candidate, where the kernel is the Bloch matrix.
        for i in range(20):
            ch = random_unital_qubit_channel(seeded(75, i))
            s1 = np.linalg.svd(bloch_transfer(ch)[1], compute_uv=False)[0]
            rep = eta_chi_lower(ch, trials=20, seed=i)
            assert rep.value >= s1**2 - 1e-12
            assert rep.value <= eta_tr(ch).value + 1e-9

    def test_deflation_residual_recorded(self):
        for i, ch in enumerate(_kernel_corpus()):
            rep = eta_chi_lower(ch, trials=20, seed=i)
            assert rep.extras["deflation_residual"] < 1e-10

    def test_value_is_exact_at_the_witness(self, monkeypatch):
        # The ascent carries the value of each iterate, so the report scores
        # no state again: its value is the kernel value at its witness sigma,
        # bit for bit, and no step lowered it below the best scored candidate.
        scored = []

        def recording(tmat, sigma):
            scored.append(_chi_at(tmat, sigma))
            return scored[-1]

        monkeypatch.setattr(contraction, "_chi_at", recording)
        for i, ch in enumerate(_kernel_corpus()):
            scored.clear()
            rep = eta_chi_lower(ch, trials=20, seed=i)
            assert len(scored) == 1 and len(scored[0]) == 20
            assert rep.value == _chi_at(ch.transfer_matrix(), np.array(rep.witness.sigma)[None])[0]
            assert rep.value >= scored[0].max()

    def test_zero_trials_rejected(self):
        with pytest.raises(ChannelError, match="trials must be an integer >= 1"):
            eta_chi_lower(random_channel(seeded(78), 3), trials=0)

    def test_same_seed_same_report(self):
        ch = random_channel(seeded(76), 3)
        a = eta_chi_lower(ch, trials=40, seed=3)
        b = eta_chi_lower(ch, trials=40, seed=3)
        assert a.value == b.value
        assert np.array_equal(a.witness.rho, b.witness.rho)
        assert np.array_equal(a.witness.sigma, b.witness.sigma)

    def test_untransposed_kernel_is_caught(self, monkeypatch):
        # Building A (x) A instead of A (x) A^T breaks the top singular pair,
        # which the deflation residual detects; with that check disabled the
        # value leaves [0, 1] and is rejected rather than clipped.
        def untransposed(a):
            d = a.shape[-1]
            return np.einsum("...ik,...jl->...ijkl", a, a).reshape(*a.shape[:-2], d * d, d * d)

        ch = random_channel(seeded(77), 3)
        monkeypatch.setattr(contraction, "_kron_t", untransposed)
        with pytest.raises(ChannelError, match="deflation residual"):
            eta_chi_lower(ch, trials=20, seed=0)
        monkeypatch.setattr(contraction, "CHI_RESIDUAL_TOL", np.inf)
        with pytest.raises(ChannelError, match="outside"):
            eta_chi_lower(ch, trials=20, seed=0)


class TestIndependence:
    def test_completely_depolarizing_certified(self):
        rep = independence_trivial(completely_depolarizing())
        assert bool(rep)
        assert rep.status == "certified_alpha_one"
        assert rep.eta_upper_bound < 1.0

    def test_unitary_unknown(self):
        rep = independence_trivial(identity_channel())
        assert not bool(rep)
        assert rep.status == "unknown"
        assert rep.eta_upper_bound == pytest.approx(1.0)

    def test_upper_bound_is_certified_choi_bound(self):
        ch = random_channel(seeded(62), 3)
        rep = independence_trivial(ch)
        assert rep.eta_upper_bound == eta_tr_upper_choi(ch).value
        assert rep.eta_upper_bound >= eta_tr(ch).value

    def test_dephasing_unknown(self):
        # Dephasing keeps the computational basis orthogonal, so nothing can
        # certify contraction strictly below one.
        rep = independence_trivial(dephasing(0.5))
        assert not bool(rep)


class TestReportInvariants:
    def test_value_range_enforced(self):
        with pytest.raises(Exception):
            ContractionReport(value=1.5, kind="eta_tr_estimate", witness=None,
                              restarts=0, iterations=0, seed=0, method="x")

    def test_orthogonal_pair_validation(self):
        with pytest.raises(Exception):
            OrthogonalPair(psi=np.array([1.0, 0.0]), phi=np.array([1.0, 0.0]))
