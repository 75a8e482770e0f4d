"""Memory-time thresholds, capacity brackets, overhead bounds, stability."""

import math
from functools import partial

import numpy as np
import pytest

import chcon.linalg as la
from chcon.bounds import (
    _BLOCH_RADIUS,
    ENTROPY_EIG_FLOOR,
    CapacityBracket,
    _bloch_images,
    _coherent_info_step,
    _coherent_info_value_grad,
    _entropy_value_grad,
    _into_ball,
    MemoryTimeBound,
    capacity_bracket,
    coherent_info_lower,
    memory_time_bound,
    overhead_lower_bound,
    verify_stability_lemma,
)
from chcon.channels import (
    ChannelError,
    KrausChannel,
    amplitude_damping,
    canonical_kraus,
    completely_depolarizing,
    dephasing,
    depolarizing,
    identity_channel,
)
from chcon.contraction import (
    _ARMIJO,
    _HALVINGS,
    CHI_FLOOR,
    CHI_ROUNDS,
    CHI_STEP,
    CHI_TOL,
    _batched_ascent,
    _chi_step,
    _chi_value_grad,
    _floored_clip,
)
from chcon.decompose import p_constant
from chcon.sampling import (
    random_channel,
    random_full_rank_density,
    random_near_identity_qubit_channel,
    rng_from,
)

from conftest import seeded
from test_contraction import _kernel_corpus


# Loop reference for the batched coherent-information ascent in chcon.bounds.


def entropy_bits(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(la.herm_part(np.asarray(rho, dtype=complex)))
    w = w[w > ENTROPY_EIG_FLOOR]
    return float(-np.sum(w * np.log2(w)))


def complementary_output(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Environment (complementary-channel) output state for input rho."""
    minimal = canonical_kraus(ch)
    r = len(minimal.kraus)
    env = np.empty((r, r), dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    for i, ki in enumerate(minimal.kraus):
        for j, kj in enumerate(minimal.kraus):
            env[i, j] = np.trace(ki @ rho @ la.dag(kj))
    return env


def coherent_information(ch: KrausChannel, rho: np.ndarray) -> float:
    """Single-use coherent information S(T(rho)) - S(env(rho))."""
    return entropy_bits(ch.apply(rho)) - entropy_bits(complementary_output(ch, rho))


class TestMemoryTimeBound:
    def test_pinned_values(self):
        assert memory_time_bound(1, 0.5).threshold == pytest.approx(16.0)
        assert memory_time_bound(2, 0.5).threshold == pytest.approx(256.0)

    def test_depolarizing_pipeline(self):
        rep = p_constant(depolarizing(0.2))
        mb = memory_time_bound(1, rep)
        assert mb.threshold == pytest.approx((2 / 0.3) ** 2, rel=1e-9)

    def test_log_form_avoids_overflow(self):
        mb = memory_time_bound(4, 1e-4)
        assert mb.log2_threshold == pytest.approx(8 * math.log2(2e4))
        assert math.isinf(mb.threshold) or mb.threshold > 1e30

    def test_monotone_in_n_and_p(self):
        assert memory_time_bound(2, 0.5).log2_threshold > memory_time_bound(1, 0.5).log2_threshold
        assert memory_time_bound(1, 0.2).log2_threshold > memory_time_bound(1, 0.5).log2_threshold

    def test_threshold_floor(self):
        # (2/p)^(2n) >= 16 for any constant p <= 1/2; at p = 1 the floor is 4.
        for p in (0.1, 0.3, 0.5):
            assert memory_time_bound(1, p).threshold >= 16.0 - 1e-9
        assert memory_time_bound(1, 1.0).threshold == pytest.approx(4.0)

    def test_invalid_p_rejected(self):
        with pytest.raises(ChannelError):
            memory_time_bound(1, 0.0)


class TestCoherentInformation:
    def test_identity_is_one(self):
        assert coherent_info_lower(identity_channel(), restarts=4) == pytest.approx(1.0, abs=1e-6)

    def test_completely_depolarizing_is_zero(self):
        assert coherent_info_lower(completely_depolarizing(), restarts=4) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_amplitude_damping_positive_and_matches_sweep(self):
        ch = amplitude_damping(0.25)
        best = coherent_info_lower(ch, restarts=8, seed=1)
        assert best > 0.1
        # One-dimensional sweep over diagonal inputs: the symmetry of the
        # channel makes the diagonal family contain the maximizer.
        grid = np.linspace(1e-6, 1 - 1e-6, 2001)
        sweep = max(
            coherent_information(ch, np.diag([1 - a, a]).astype(complex)) for a in grid
        )
        assert best == pytest.approx(sweep, abs=1e-5)

    def test_zero_restarts_rejected(self):
        with pytest.raises(ChannelError, match="restarts must be an integer >= 1"):
            coherent_info_lower(amplitude_damping(0.25), restarts=0)

    def test_entropy_convention(self):
        assert entropy_bits(np.diag([1.0, 0.0])) == pytest.approx(0.0)
        assert entropy_bits(np.eye(2) / 2) == pytest.approx(1.0)


def nelder_mead_reference(ch, restarts, seed, max_iter=400):
    """The per-restart Nelder-Mead search that coherent_info_lower ran before
    its batched ascent, kept as the reference it must not fall below."""
    from scipy.optimize import minimize

    def neg_ic(r3):
        r = np.asarray(r3, dtype=float)
        nrm = np.linalg.norm(r)
        if nrm > 1.0 - 1e-12:
            r = r * ((1.0 - 1e-12) / nrm)
        return -coherent_information(ch, la.bloch_state(r))

    best = 0.0
    for i in range(restarts):
        rng = rng_from(seed, i)
        x0 = np.zeros(3) if i == 0 else rng.uniform(-0.7, 0.7, size=3)
        res = minimize(neg_ic, x0, method="Nelder-Mead",
                       options={"maxiter": max_iter, "xatol": 1e-9, "fatol": 1e-11})
        best = max(best, -float(res.fun))
    return best


def kernel_channels():
    """Presets and seeded random qubit channels of Choi rank 1-4; every other
    one is mixed with the identity, so many have positive coherent information."""
    chans = [identity_channel(), completely_depolarizing(), amplitude_damping(0.25),
             amplitude_damping(0.45), dephasing(0.3), depolarizing(0.05), depolarizing(0.2)]
    for i in range(20):
        ch = random_channel(seeded(95, i), 2, env_dim=1 + i % 4)
        if i % 2 == 0:
            w = 0.5 + 0.02 * i
            ch = KrausChannel.from_kraus(
                [np.sqrt(w) * np.eye(2)] + [np.sqrt(1 - w) * k for k in ch.kraus]
            )
        chans.append(ch)
    return chans


def interior_points(rng, n):
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True) * rng.uniform(0.0, 0.95, (n, 1))


def one_rung_step(evaluate, retract, tol, x, t, value, grad):
    """The line search that the rung ladder of ``_armijo_step`` batches: it
    tries 2t, then t, t/2, ..., one size per call, stops before the first
    size whose first-order gain is at most ``tol``, and keeps the accepted
    size for the next step, or 0 if it takes no step."""
    x_next, t_next, value_next, grad_next = x.copy(), np.zeros_like(t), value.copy(), grad.copy()
    slope_sq = np.sum(grad.conj() * grad, axis=-1).real
    todo = np.arange(len(x))
    for k in range(_HALVINGS + 1):
        step = t[todo] * 2.0 ** (1 - k)
        live = step[:, 0] * slope_sq[todo] > tol
        todo, step = todo[live], step[live]
        if todo.size == 0:
            break
        cand = retract(x[todo] + step * grad[todo])
        cand_value, cand_grad = evaluate(cand)
        gain = np.sum(grad[todo].conj() * (cand - x[todo]), axis=-1).real
        ok = cand_value >= value[todo, 0] + _ARMIJO * gain
        x_next[todo[ok]] = cand[ok]
        t_next[todo[ok]] = step[ok]
        value_next[todo[ok], 0] = cand_value[ok]
        grad_next[todo[ok]] = cand_grad[ok]
        todo = todo[~ok]
    return value[:, 0], (x, t, value, grad), (x_next, t_next, value_next, grad_next)


def coherent_info_case(index):
    """The coherent-information ascent on ``kernel_channels()[index]``: the
    path of its evaluate function, that function bound to the channel, its
    retraction, stop tolerance and step, the starts, their first step sizes
    and the step budget."""
    a, e = _bloch_images(kernel_channels()[index])
    starts = np.vstack([np.zeros((1, 3)), interior_points(seeded(98, index), 5)])
    return ("chcon.bounds._coherent_info_value_grad", partial(_coherent_info_value_grad, a, e),
            _into_ball, 0.0, partial(_coherent_info_step, a, e), starts, np.ones((len(starts), 1)), 400)


def chi_case(index):
    """The same for the chi-square ascent on ``_kernel_corpus()[index]``,
    from I/d and three floored draws, run past its usual step budget."""
    ch = _kernel_corpus()[index]
    d, tmat = ch.in_dim, ch.transfer_matrix()
    draws = random_full_rank_density(seeded(99, index), d, floor=CHI_FLOOR, count=3)
    starts = np.concatenate([np.eye(d)[None] / d, draws]).reshape(4, -1).astype(complex)
    evaluate = partial(_chi_value_grad, tmat)
    t = CHI_STEP / np.linalg.norm(evaluate(starts)[1], axis=-1, keepdims=True)
    return ("chcon.contraction._chi_value_grad", evaluate,
            _floored_clip, CHI_TOL, partial(_chi_step, tmat), starts, t, 5 * CHI_ROUNDS)


LADDER_CASES = [("coherent_info", i) for i in range(27)] + [("chi", i) for i in range(10)]


def qubit_stack(coords: np.ndarray) -> np.ndarray:
    """The 2x2 images tau I + b . sigma of Pauli coordinates (tau, b)."""
    return np.einsum("ab,bij->aij", coords.astype(complex), np.array(la.PAULIS))


def eigh_entropy_value_grad(images: np.ndarray, x: np.ndarray):
    """Eigensolver reference for the entropy and its gradient -Tr(images[i] log2 rho)."""
    w, v = np.linalg.eigh(images[0] + np.einsum("ri,ijk->rjk", x, images[1:]))
    keep = w > ENTROPY_EIG_FLOOR
    log_w = np.log2(np.where(keep, w, ENTROPY_EIG_FLOOR))
    log_rho = (v * log_w[:, None, :]) @ la.dag(v)
    value = -np.sum(np.where(keep, w * log_w, 0.0), axis=-1)
    return value, -np.einsum("ijk,rkj->ri", images[1:], log_rho).real, w


def on_sphere(polar, azimuth):
    polar, azimuth = np.asarray(polar, dtype=float), np.asarray(azimuth, dtype=float)
    return _BLOCH_RADIUS * np.stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1
    )


class TestCoherentInfoKernel:
    @pytest.mark.parametrize("index", range(27))
    def test_never_below_nelder_mead(self, index):
        ch = kernel_channels()[index]
        ref = nelder_mead_reference(ch, restarts=4, seed=index)
        assert coherent_info_lower(ch, restarts=4, seed=index) == pytest.approx(ref, abs=1e-9)

    def test_hoisted_objective_matches_complementary_output(self):
        for index, ch in enumerate(kernel_channels()):
            a, e = _bloch_images(ch)
            x = interior_points(seeded(96, index), 8)
            values, _ = _coherent_info_value_grad(a, e, x)
            ref = [coherent_information(ch, la.bloch_state(r)) for r in x]
            assert np.abs(values - ref).max() < 1e-12

    def test_gradient_matches_central_differences(self):
        h = 1e-6
        for index, ch in enumerate(kernel_channels()):
            a, e = _bloch_images(ch)
            x = interior_points(seeded(97, index), 4)
            _, grad = _coherent_info_value_grad(a, e, x)
            for i in range(3):
                step = h * np.eye(3)[i]
                up, _ = _coherent_info_value_grad(a, e, x + step)
                down, _ = _coherent_info_value_grad(a, e, x - step)
                assert grad[:, i] == pytest.approx((up - down) / (2 * h), abs=1e-6)

    @pytest.mark.parametrize("ascent, index", LADDER_CASES)
    def test_ladder_takes_the_one_rung_path(self, ascent, index, monkeypatch):
        target, evaluate, retract, tol, step, starts, t, max_iter = (
            coherent_info_case if ascent == "coherent_info" else chi_case
        )(index)
        calls = []

        def counted(x):
            calls.append(len(x))
            return evaluate(x)

        value, grad = evaluate(starts)
        state = (starts, t, value[:, None], grad)
        old_values, old_state, old_steps = _batched_ascent(
            partial(one_rung_step, counted, retract, tol), state, max_iter, tol
        )
        old_calls = len(calls)
        # The step's evaluations, of the same function, go through the counter.
        monkeypatch.setattr(target, lambda *args: counted(args[-1]))
        values, new_state, steps = _batched_ascent(step, state, max_iter, tol)
        assert np.array_equal(values, old_values)
        assert np.array_equal(steps, old_steps)
        for new, old in zip(new_state, old_state):
            assert np.array_equal(new, old)
        stopped = steps < max_iter
        assert np.array_equal(new_state[2][stopped, 0], values[stopped])
        assert len(calls) - old_calls < old_calls

    def test_closed_form_entropy_matches_eigensolver(self):
        chans = kernel_channels() + [amplitude_damping(0.3)]
        cases = []
        for index, ch in enumerate(chans):
            x = interior_points(seeded(99, index), 6)
            cases += [(side, x) for side in _bloch_images(ch) if side.ndim == 2]
        # Sphere points whose smaller eigenvalue lies below the floor: near |0>
        # the output of AD(0.99), the environment of AD(0.01) (rank 2), and
        # every output of the reset channel AD(1).
        near_zero = on_sphere([0.0, 1e-9, 1e-8], [0.0, 1.0, 2.0])
        cases += [
            (_bloch_images(amplitude_damping(0.99))[0], near_zero),
            (_bloch_images(amplitude_damping(0.01))[1], near_zero),
            (_bloch_images(amplitude_damping(1.0))[0], on_sphere([0.3, 1.7, 2.9], [0.5, 4.0, 6.0])),
        ]
        floored = len(cases) - 3
        # The maximally mixed input, where the output has b = 0 (exactly so
        # for dephasing).
        cases += [(_bloch_images(ch)[0], np.zeros((1, 3))) for ch in (depolarizing(0.2), dephasing(0.3))]
        assert np.all(_bloch_images(dephasing(0.3))[0][0, 1:] == 0.0)
        for i, (side, x) in enumerate(cases):
            value, grad = _entropy_value_grad(side, x)
            ref_value, ref_grad, w = eigh_entropy_value_grad(qubit_stack(side), x)
            assert np.isfinite(grad).all()
            assert np.abs(value - ref_value).max() < 1e-13
            assert np.abs(grad - ref_grad).max() < 1e-13
            if floored <= i < floored + 3:
                assert np.all(w[:, 0] <= ENTROPY_EIG_FLOOR)

    def test_qubit_sides_take_the_closed_form(self):
        a, e = _bloch_images(amplitude_damping(0.3))
        assert a.shape == e.shape == (4, 4) and a.dtype == e.dtype == float
        a, e = _bloch_images(depolarizing(0.2))
        assert a.shape == (4, 4) and e.shape == (4, 4, 4)

    def test_repeat_calls_are_identical(self):
        ch = kernel_channels()[19]
        first = coherent_info_lower(ch, restarts=6, seed=3)
        assert first > 0.0
        assert coherent_info_lower(ch, restarts=6, seed=3) == first


class TestCapacityBracket:
    def test_noisy_depolarizing_is_impossible_region(self):
        br = capacity_bracket(depolarizing(0.4), restarts=4)
        assert br.lower == 0.0 and br.upper == 0.0
        assert "depolarizing" in br.upper_provenance

    def test_identity_bracket(self):
        br = capacity_bracket(identity_channel(), restarts=4)
        assert br.lower == pytest.approx(1.0, abs=1e-6)
        assert br.upper == 1.0

    def test_amplitude_damping_bracket(self):
        br = capacity_bracket(amplitude_damping(0.25), restarts=6)
        assert 0.0 < br.lower <= br.upper == 1.0
        assert br.upper_provenance == "trivial_log_d"

    def test_inconsistent_user_upper_rejected(self):
        with pytest.raises(ChannelError, match="below the computed lower"):
            capacity_bracket(identity_channel(), user_upper=0.5, restarts=4)

    @pytest.mark.parametrize("upper", [math.nan, math.inf, -math.inf])
    def test_nonfinite_user_upper_rejected(self, upper):
        with pytest.raises(ChannelError, match="must be finite"):
            capacity_bracket(amplitude_damping(0.25), user_upper=upper, restarts=4)

    @pytest.mark.parametrize("lower, upper", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0)])
    def test_nonfinite_endpoints_rejected(self, lower, upper):
        with pytest.raises(ChannelError, match="must be finite"):
            CapacityBracket(lower, upper, "none", "user_certificate")

    def test_user_upper_tightens(self):
        br = capacity_bracket(amplitude_damping(0.25), user_upper=0.8, restarts=6)
        assert br.upper == pytest.approx(0.8)
        assert br.upper_provenance == "user_certificate"

    def test_low_noise_depolarizing_keeps_trivial_upper(self):
        br = capacity_bracket(depolarizing(0.05), restarts=4)
        assert br.upper == 1.0


def trivial_bracket() -> CapacityBracket:
    return CapacityBracket(0.0, 1.0, "none", "trivial_log_d")


class TestOverheadBound:
    def test_impossible_for_zero_capacity(self):
        br = capacity_bracket(depolarizing(0.4), restarts=4)
        ob = overhead_lower_bound(10, math.log2(100), 0.6, br)
        assert ob.impossible
        assert ob.bound_value is None

    def test_log_term_pinned(self):
        ob = overhead_lower_bound(1, 40.0, 0.5, trivial_bracket())
        assert ob.alpha == pytest.approx(0.25)
        assert ob.bound_value == pytest.approx(10.0)
        assert ob.capacity_term_vacuous

    @pytest.mark.parametrize("log2_t", [math.nan, math.inf, -math.inf])
    def test_nonfinite_log2_t_rejected(self, log2_t):
        with pytest.raises(ChannelError, match="must be finite"):
            overhead_lower_bound(1, log2_t, 0.5, trivial_bracket())

    def test_capacity_term_dominates_for_wide_circuits(self):
        br = CapacityBracket(0.8, 0.9, "x", "user_certificate")
        ob = overhead_lower_bound(100, 4.0, 0.5, br)
        assert ob.bound_value == pytest.approx(100 / 0.9)
        assert not ob.capacity_term_vacuous

    def test_monotone_grid(self):
        vals = {}
        for n in range(1, 6):
            for t in range(1, 6):
                vals[(n, t)] = overhead_lower_bound(n, 10.0 * t, 0.5, trivial_bracket()).bound_value
        for n in range(2, 6):
            for t in range(1, 6):
                assert vals[(n, t)] >= vals[(n - 1, t)] - 1e-12
        for n in range(1, 6):
            for t in range(2, 6):
                assert vals[(n, t)] >= vals[(n, t - 1)] - 1e-12


class TestStabilityLemma:
    def test_identity_all_zero(self):
        rep = verify_stability_lemma(identity_channel(), restarts=4)
        assert rep.epsilon == pytest.approx(0.0, abs=1e-9)
        assert rep.passed

    def test_depolarizing_closed_form_epsilon(self):
        rep = verify_stability_lemma(depolarizing(0.01), restarts=8)
        assert rep.epsilon == pytest.approx(0.01, abs=1e-9)
        assert rep.extended_estimate <= math.sqrt(0.02) + 1e-6
        assert rep.passed

    def test_dephasing_near_identity(self):
        rep = verify_stability_lemma(dephasing(0.02), restarts=8)
        assert rep.passed
        assert rep.doubled_estimate <= rep.doubled_bound + 1e-6

    def test_random_near_identity_corpus(self):
        for i in range(30):
            ch = random_near_identity_qubit_channel(seeded(90, i), 0.05)
            rep = verify_stability_lemma(ch, restarts=8, seed=i)
            if rep.epsilon > 0.1:
                continue
            assert rep.passed
