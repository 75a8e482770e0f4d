"""Separability distances, the cc-qq block formula, separable channels."""

import math

import numpy as np
import pytest

import chcon.contraction
import chcon.linalg as la
import chcon.separability
from chcon.channels import (
    ChannelError,
    KrausChannel,
    amplitude_damping,
    bell_state,
    completely_depolarizing,
    dephasing,
    depolarizing,
    identity_channel,
)
from chcon.config import VERDICT_SLACK
from chcon.contraction import eta_chi_lower
from chcon.divergences import chi2_divergence
from chcon.sampling import haar_unitary, random_channel, random_density, random_pure, rng_from
from chcon.simulate import GateLayer, apply_iid_noise, apply_layer, doubled_layout
from chcon.separability import (
    BARRIER_STAGES,
    CERT_MIX,
    SEARCH_HALVINGS,
    _chi2_eval,
    _chi2_grad,
    _chi2_grad_at,
    _chi2_lower,
    _chi2_values,
    _min_chi2,
    BipartiteState,
    CcQqState,
    PreconditionError,
    SepConfig,
    apply_separable_to_ccqq,
    check_total_probability,
    chisep,
    chisep_batch,
    chisep_ccqq,
    chisep_ccqq_blockdiag,
    dsep,
    is_ppt,
    local_product_channel,
    make_separable_channel,
    mixture_of_local_pairs,
    ppt_min_eigenvalue,
    project_ppt_density,
    project_pt_trace,
    separable_twirl,
    verify_contraction_step,
)

from conftest import seeded


def bell() -> BipartiteState:
    return BipartiteState.from_matrix(bell_state().matrix, 2, 2)


def werner(w: float) -> BipartiteState:
    mat = w * bell_state().matrix + (1 - w) * np.eye(4) / 4
    return BipartiteState.from_matrix(mat, 2, 2)


def werner_chisep(w: float) -> float:
    """Closed form from the twirling argument: the optimal separable state
    is the boundary Werner state, where the pair commutes."""
    if w <= 1 / 3:
        return 0.0
    return (1 + 3 * w) ** 2 / 8 + 9 * (1 - w) ** 2 / 8 - 1


def werner_dsep(w: float) -> float:
    return max(1.5 * (w - 1 / 3), 0.0)


def doubled_step(noise: KrausChannel) -> BipartiteState:
    """The state after one step of the n = 1 doubled memory on a Bell pair,
    as the simulator builds it: ``noise`` on both halves, then the identity
    gate."""
    layout = doubled_layout(1)
    state = apply_iid_noise(CcQqState.single(bell()), noise, layout)
    gate = local_product_channel(identity_channel(), identity_channel())
    state = apply_layer(state, GateLayer(channel=gate), layout)
    return BipartiteState.from_matrix(state.blocks[0].rho, 2, 2)


def product_state(rng) -> BipartiteState:
    a, b = random_pure(rng, 2), random_pure(rng, 2)
    v = np.kron(a, b)
    return BipartiteState.from_matrix(np.outer(v, v.conj()), 2, 2)


class TestPpt:
    def test_product_states_pass(self):
        for i in range(10):
            assert is_ppt(product_state(seeded(70, i)))

    def test_bell_minus_half(self):
        assert not is_ppt(bell())
        assert ppt_min_eigenvalue(bell()) == pytest.approx(-0.5, abs=1e-12)

    def test_strong_werner_mixture_fails(self):
        assert not is_ppt(werner(0.9))
        assert is_ppt(werner(1 / 3))


def random_herm(rng, *shape) -> np.ndarray:
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


def normal_cone_excess(xs, zs, dim_a: int, dim_b: int) -> float:
    """max over feasible y of Re<x - z, y - z> for the projection z of x onto
    {sum_k Tr y_k = 1, every y_k^PT >= 0}; it is <= 0 exactly when z is the
    projection.  The maximum sits at an extreme point, a single block equal
    to PT(|psi><psi|), so it is a largest eigenvalue."""
    residual = la.partial_transpose(xs - zs, dim_a, dim_b)
    top = float(np.linalg.eigvalsh(residual)[:, -1].max())
    return top - float(np.real(np.vdot(xs - zs, zs)))


def feasible_points(rng, dim_a: int, dim_b: int) -> list:
    """Unit-trace PPT states: separable twirls and product states."""
    d = dim_a * dim_b
    twirl = separable_twirl(random_density(rng, d), dim_a, dim_b)
    product = np.kron(random_density(rng, dim_a), random_density(rng, dim_b))
    return [twirl, product, np.eye(d) / d]


def assert_ppt_density(z, dim_a: int, dim_b: int):
    assert np.trace(z).real == pytest.approx(1.0, abs=1e-9)
    assert la.min_eig(z) >= -1e-9
    assert la.min_eig(la.partial_transpose(z, dim_a, dim_b)) >= -1e-9


class TestProjection:
    def test_pt_trace_projection_feasible(self):
        for dim_a, dim_b in [(2, 2), (2, 3), (3, 2)]:
            d = dim_a * dim_b
            for i in range(20):
                rng = seeded(71, dim_a, dim_b, i)
                x = random_herm(rng, d, d)
                z = project_pt_trace(x, dim_a, dim_b)
                assert np.trace(z).real == pytest.approx(1.0, abs=1e-9)
                assert la.min_eig(la.partial_transpose(z, dim_a, dim_b)) >= -1e-10
                assert np.linalg.norm(project_pt_trace(z, dim_a, dim_b) - z) <= 1e-10
                # Optimality: x - P(x) lies in the normal cone at P(x).
                for y in feasible_points(rng, dim_a, dim_b):
                    assert np.real(np.vdot(x - z, y - z)) <= 1e-10
                assert normal_cone_excess(x[None], z[None], dim_a, dim_b) <= 1e-10

    def test_block_projection(self):
        for i in range(10):
            rng = seeded(74, i)
            xs = random_herm(rng, 3, 6, 6)
            zs = project_pt_trace(xs, 2, 3)
            assert sum(np.trace(z).real for z in zs) == pytest.approx(1.0, abs=1e-9)
            for z in zs:
                assert la.min_eig(la.partial_transpose(z, 2, 3)) >= -1e-10
            weights = rng.dirichlet(np.ones(3))
            ys = np.stack([w * feasible_points(rng, 2, 3)[0] for w in weights])
            assert np.real(np.vdot(xs - zs, ys - zs)) <= 1e-10
            assert normal_cone_excess(xs, zs, 2, 3) <= 1e-10
            single = project_pt_trace(xs[:1], 2, 3)[0]
            assert np.allclose(single, project_pt_trace(xs[0], 2, 3), atol=1e-14)

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4)])
    def test_ppt_density_projection_feasible(self, dim_a, dim_b):
        # Rank-2 states pushed off the set by a Hermitian perturbation.
        d = dim_a * dim_b
        rng = seeded(80, dim_a, dim_b)
        xs = [random_density(rng, d, 2) + random_herm(rng, d, d) / d for _ in range(3)]
        zs = [project_ppt_density(x, dim_a, dim_b) for x in xs]
        for x, z in zip(xs, zs):
            assert_ppt_density(z, dim_a, dim_b)
            # Optimality: Re<x - z, y - z> <= 0 on points y of the set:
            # separable ones, the other projections, and the best product
            # state for x - z that the alternating sweeps find.
            ys = feasible_points(rng, dim_a, dim_b) + zs
            runs = product_oracle_loop(z - x, dim_a, dim_b, seeded(81, dim_a, dim_b))
            ys.append(min(runs, key=lambda run: run[0])[1])
            for y in ys:
                assert np.real(np.vdot(x - z, y - z)) <= 1e-8
            # The set lies in both the density set and the PT-trace set.
            dist = np.linalg.norm(x - z)
            assert dist >= np.linalg.norm(x - la.density_project(x)) - 1e-9
            assert dist >= np.linalg.norm(x - project_pt_trace(x, dim_a, dim_b)) - 1e-9

    def test_twirl_is_separable_and_full_rank(self):
        t = separable_twirl(bell_state().matrix, 2, 2)
        st = BipartiteState.from_matrix(t, 2, 2)
        assert is_ppt(st)
        assert np.linalg.eigvalsh(t)[0] > 1e-3


def product_projector(a, b) -> np.ndarray:
    v = np.kron(a, b)
    return np.outer(v, v.conj())


def product_oracle_loop(g, dim_a, dim_b, rng, restarts=6, sweeps=12):
    """Approximate minimizers of Tr(G (rho_a x rho_b)) over pure product
    states by alternating smallest-eigenvector sweeps, one restart at a
    time.  Returns every restart's final value and product projector."""
    g = la.herm_part(g)
    results = []
    for r in range(restarts):
        b = random_pure(rng, dim_b) if r > 0 else np.ones(dim_b, dtype=complex) / math.sqrt(dim_b)
        for _ in range(sweeps):
            rho_b = np.outer(b, b.conj())
            ma = la.partial_trace(g @ np.kron(np.eye(dim_a), rho_b), (dim_a, dim_b), keep=(0,))
            a = np.linalg.eigh(la.herm_part(ma))[1][:, 0]
            rho_a = np.outer(a, a.conj())
            mb = la.partial_trace(g @ np.kron(rho_a, np.eye(dim_b)), (dim_a, dim_b), keep=(1,))
            wb, vb = np.linalg.eigh(la.herm_part(mb))
            b = vb[:, 0]
        results.append((float(wb[0]), product_projector(a, b)))
    return results


class TestDsep:
    def test_product_state_zero(self):
        assert dsep(product_state(seeded(72))).value == 0.0

    def test_bell_at_least_half(self):
        assert dsep(bell()).value >= 0.5

    def test_bell_exact_via_sandwich(self):
        # (|00><00| + |11><11|) / 2 is separable at 1-norm distance 1 from
        # the Bell state, which is the minimum; dsep is exact on 2x2, so it
        # must meet the witness from both sides.
        witness_state = BipartiteState.from_matrix(np.diag([0.5, 0.0, 0.0, 0.5]), 2, 2)
        assert is_ppt(witness_state)
        witness = la.trace_norm(bell().matrix - witness_state.matrix)
        assert witness == pytest.approx(1.0, abs=1e-12)
        value = dsep(bell()).value
        assert value >= witness - 1e-9
        assert value - witness <= 1e-6

    def test_werner_closed_form(self):
        for w in (0.5, 0.75, 0.95):
            assert dsep(werner(w)).value == pytest.approx(werner_dsep(w), abs=1e-6)

    def test_method_tags(self):
        assert dsep(bell()).method == "ppt_exact_2x2"

    def test_oversize_rejected(self):
        big = BipartiteState.from_matrix(np.eye(32) / 32, 4, 8)
        with pytest.raises(ChannelError, match="capped"):
            dsep(big)

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 3), (2, 4), (3, 3)])
    def test_minimizer_feasible(self, dim_a, dim_b):
        st = BipartiteState.from_matrix(
            random_density(seeded(90, dim_a, dim_b, 0), dim_a * dim_b), dim_a, dim_b
        )
        assert not is_ppt(st)
        res = dsep(st)
        assert res.converged
        assert_ppt_density(res.minimizer.matrix, dim_a, dim_b)
        gap = la.trace_norm(st.matrix - res.minimizer.matrix)
        assert res.value == pytest.approx(gap, abs=1e-12)


def _chi2_value_grad(taus, w, v, mu=0.0):
    """Eager reference: values ``(n,)`` and gradients ``(n, d, d)`` of
    chi2(tau_k, x_k) - mu * logdet(x_k) for a stack of blocks, from the
    eigendecompositions x_k = v_k diag(w_k) v_k^dag with every w > 0."""
    values, eig_data = _chi2_values(taus, w, v)
    if mu > 0.0:
        values = values - mu * np.sum(np.log(w), axis=1)
    return values, _chi2_grad(w, v, eig_data, mu)


class TestChi2Kernel:
    @pytest.mark.parametrize("d", [4, 6])
    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    def test_stacked_gradient_matches_central_differences(self, d, mu):
        rng = seeded(86, d)
        taus = np.stack([random_density(rng, d) for _ in range(3)])
        xs = np.stack([0.8 * random_density(rng, d) + 0.2 * np.eye(d) / d for _ in range(3)])
        directions = random_herm(rng, 3, d, d)

        def values(x):
            w, v = np.linalg.eigh(x)
            return _chi2_value_grad(taus, w, v, mu)

        vals, grads = values(xs)
        assert vals.shape == (3,) and grads.shape == (3, d, d)
        h = 1e-6
        fd = (values(xs + h * directions)[0] - values(xs - h * directions)[0]) / (2 * h)
        exact = np.real(np.einsum("kij,kij->k", grads.conj(), directions))
        np.testing.assert_allclose(fd, exact, rtol=1e-6, atol=1e-6)
        for k in range(3):
            w, v = np.linalg.eigh(xs[k])
            val_k, grad_k = _chi2_value_grad(taus[k:k + 1], w[None], v[None], mu)
            assert val_k[0] == pytest.approx(vals[k], rel=1e-12, abs=1e-12)
            assert np.allclose(grad_k[0], grads[k], atol=1e-12)
            barrier = mu * float(np.sum(np.log(w)))
            assert vals[k] + barrier == pytest.approx(chi2_divergence(taus[k], xs[k]), abs=1e-10)

    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    def test_batched_evaluation_is_the_eager_kernel(self, mu):
        # Two problems of three blocks each, evaluated and differentiated in
        # one batch, against the eager kernel on each problem alone.
        rng = seeded(87)
        taus = np.stack([random_density(rng, 6) for _ in range(6)]).reshape(2, 3, 6, 6)
        xs = np.stack(
            [0.8 * random_density(rng, 6) + 0.2 * np.eye(6) / 6 for _ in range(6)]
        ).reshape(2, 3, 6, 6)
        weights = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        f, point = _chi2_eval(taus, weights, xs, np.full(2, mu))
        grad = _chi2_grad_at(weights, point, np.full(2, mu))
        for p in range(2):
            w, v = np.linalg.eigh(xs[p])
            assert np.array_equal(point[1][p], w) and np.array_equal(point[2][p], v)
            values, grads = _chi2_value_grad(taus[p], w, v, mu)
            assert f[p] == float(weights[p] @ (values + 1.0)) - 1.0
            assert np.array_equal(grad[p], weights[p][:, None, None] * grads)

    def test_outside_the_cone_scores_infinity(self):
        # The first problem has a singular block, the second is inside.
        x = np.stack([np.diag([0.5, 0.5, 0.0, 0.0]), np.eye(4) / 4]).astype(complex)[:, None]
        taus = np.stack([bell().matrix] * 2)[:, None]
        f, point = _chi2_eval(taus, np.ones((2, 1)), x, np.full(2, 1e-4))
        assert f[0] == math.inf and not any(data[0].any() for data in point[3:])
        alone, _ = _chi2_eval(taus[1:], np.ones((1, 1)), x[1:], np.full(1, 1e-4))
        assert f[1] == alone[0] and np.isfinite(alone[0])

    @pytest.mark.parametrize("max_iter", [40, 300])
    def test_stage_value_is_a_fresh_score(self, max_iter):
        # The best stage value, also of a run its budget cuts short, is the
        # barrier-free objective at the returned iterate.
        taus = np.stack([bell().matrix, werner(0.8).matrix])[None]
        weights = np.array([[0.36, 0.16]])
        x0 = np.stack([np.eye(4, dtype=complex) / 8] * 2)[None]
        runs = _min_chi2(taus, weights, x0, 2, 2, [SepConfig(max_iter=max_iter, obj_tol=1e-6)])
        assert runs.iterations[0] > 0 and not np.array_equal(runs.x, x0)
        fresh, _ = _chi2_eval(taus, weights, runs.x, np.zeros(1))
        assert runs.value[0] == fresh[0]


# Eager reference for the batched chi-square loop in chcon.separability, one
# problem at a time: value and gradient at every point, one eigendecomposition
# per evaluation, and a fresh eigensolve of every stage's start and to score
# every stage.  The batched loop must follow it bit for bit.


def eager_interior_chi2(taus, weights, mu):
    def value_grad(x):
        w, v = np.linalg.eigh(x)
        if float(w[:, 0].min()) <= 0.0:
            return math.inf, None
        values, grads = _chi2_value_grad(taus, w, v, mu)
        return float(weights @ (values + 1.0)) - 1.0, weights[:, None, None] * grads

    return value_grad


def eager_pgd(value_grad, proj, x0, max_iter, stall_tol):
    x = x0
    f_x, g_x = value_grad(x)
    y, f_y, g_y = x, f_x, g_x
    t, step, iters, stall, momentum = 1.0, 1.0, 0, 0, False

    def trial(base, grad, alpha):
        gnorm = float(np.linalg.norm(grad))
        alpha = min(alpha, 1e3 / gnorm) if gnorm > 0 else alpha
        return proj(base - alpha * grad)

    while iters < max_iter:
        halvings = 0
        while True:
            cand = trial(y, g_y, step)
            f_c, g_c = value_grad(cand)
            move = cand - y
            model = float(np.real(np.vdot(g_y, move))) + np.linalg.norm(move) ** 2 / (2 * step)
            if f_c <= f_y + model + 1e-14 or halvings >= 60:
                break
            step *= 0.5
            halvings += 1
        iters += 1
        if f_c > f_x - 1e-15:
            stalled, restart = not momentum, True
        else:
            decrease = f_x - f_c
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            if beta == 0.0:
                # The launch point is the candidate itself.
                y, f_y, g_y = cand, f_c, g_c
            else:
                y = cand + beta * (cand - x)
                f_y, g_y = value_grad(y)
            x, f_x, g_x = cand, f_c, g_c
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
                return x, iters, True
        if restart:
            y, f_y, g_y = x, f_x, g_x
            t, momentum = 1.0, False
    return x, iters, False


def eager_min_chi2(taus, weights, x0, dim_a, dim_b, cfg):
    taus = np.asarray(taus, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    score = eager_interior_chi2(taus, weights, 0.0)
    best_val, best_x = math.inf, x0
    x, total_iters, converged = x0, 0, False
    for mu in BARRIER_STAGES:
        budget = cfg.max_iter - total_iters
        if budget <= 0:
            break
        stall_tol = cfg.obj_tol * 1e-2
        if mu != BARRIER_STAGES[-1]:
            stall_tol = max(stall_tol, mu * 1e-2)
        x, it, converged = eager_pgd(
            eager_interior_chi2(taus, weights, mu),
            lambda z: project_pt_trace(z, dim_a, dim_b), x, budget, stall_tol,
        )
        total_iters += it
        value = score(x)[0]
        if value < best_val:
            best_val, best_x = value, x
    return max(best_val, 0.0), best_x, total_iters, converged


def counting_eigh(monkeypatch):
    calls = [0]
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls[0] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestLazyLoopMatchesEagerReference:
    @pytest.mark.parametrize("name", ["bell", "doubled-ad-step", "2x3-rank1-i3"])
    def test_bit_identical_with_fewer_eigensolves(self, name, monkeypatch):
        cfg = SepConfig()
        if name == "bell":
            st = bell()
        elif name == "doubled-ad-step":
            # One step of the n = 1 doubled memory: amplitude damping on both
            # halves of the Bell pair, then the identity gate.
            ad = amplitude_damping(0.28)
            rho = local_product_channel(ad, ad).apply(bell().matrix)
            st = BipartiteState.from_matrix(rho, 2, 2)
        else:
            # A near-singular 2x3 input, stopped at the iteration cap.
            st = BipartiteState.from_matrix(random_density(rng_from(7, 2, 3, 3), 6, 1), 2, 3)
            cfg = SepConfig(max_iter=300)
        d = st.dim_a * st.dim_b
        x0 = project_pt_trace(np.eye(d, dtype=complex)[None] / d, st.dim_a, st.dim_b)
        calls = counting_eigh(monkeypatch)
        ref = eager_min_chi2(st.matrix[None], [1.0], x0, st.dim_a, st.dim_b, cfg)
        ref_calls, calls[0] = calls[0], 0
        got = _min_chi2(st.matrix[None, None], [[1.0]], x0[None], st.dim_a, st.dim_b, [cfg])
        assert got.value[0] == ref[0]
        assert (got.iterations[0], got.converged[0]) == ref[2:]
        assert got.converged[0] == (name != "2x3-rank1-i3")
        assert np.array_equal(got.x[0], ref[1])
        assert 0 < calls[0] < ref_calls
        # The returned eigendata are those of the returned iterate.
        w, v = np.linalg.eigh(got.x[0])
        assert np.array_equal(got.w[0], w) and np.array_equal(got.v[0], v)

    def test_stage_boundaries_and_certificate_take_no_eigensolve(self, monkeypatch):
        # With one halving per line-search round the kernel tries the eager
        # loop's candidates one at a time.  The eager loop also takes a fresh
        # eigensolve of every stage's start but the first, and one to score
        # every stage; the kernel carries both over from the iterate.
        monkeypatch.setattr("chcon.separability.SEARCH_HALVINGS", 1)
        st = doubled_step(amplitude_damping(0.28))
        cfg = SepConfig()
        x0 = project_pt_trace(np.eye(4, dtype=complex)[None] / 4, 2, 2)
        calls = counting_eigh(monkeypatch)
        runs = _min_chi2(st.matrix[None, None], [[1.0]], x0[None], 2, 2, [cfg])
        carried, calls[0] = calls[0], 0
        value, _, iters, _ = eager_min_chi2(st.matrix[None], [1.0], x0, 2, 2, cfg)
        assert (runs.iterations[0], runs.value[0]) == (iters, value)
        assert calls[0] == carried + 2 * len(BARRIER_STAGES) - 1
        # The certificate reads the iterate's eigendata: its only eigensolves
        # are the projections that pick its multipliers, one stacked call
        # for all of CERT_STEPS at each mixing point.
        calls[0] = 0
        _chi2_lower(st.matrix[None], (runs.w[:, 0], runs.v[:, 0]), 2, 2, np.array([math.inf]))
        assert calls[0] == len(CERT_MIX)

    def test_speculative_halvings_take_the_same_path(self, monkeypatch):
        # 4x4 blocks try SEARCH_HALVINGS halvings per line-search round after
        # the first: the same iterates as one at a time, in fewer rounds and
        # eigensolve calls.
        st = doubled_step(amplitude_damping(0.28))
        x0 = project_pt_trace(np.eye(4, dtype=complex)[None] / 4, 2, 2)
        calls = counting_eigh(monkeypatch)
        runs = {}
        for span in (SEARCH_HALVINGS, 1):
            monkeypatch.setattr("chcon.separability.SEARCH_HALVINGS", span)
            calls[0] = 0
            runs[span] = (_min_chi2(st.matrix[None, None], [[1.0]], x0[None], 2, 2, [SepConfig()]), calls[0])
        (fast, fast_calls), (slow, slow_calls) = runs[SEARCH_HALVINGS], runs[1]
        for got, alone in zip(fast, slow):
            assert np.array_equal(got, alone)
        assert fast.iterations[0] == 38
        assert (fast_calls, slow_calls) == (125, 155)


def assert_lower_below_both_starts(dim_a, dim_b, rank, cfg):
    """Any feasible value bounds the PPT minimum from above, so chisep's
    certified lower side must sit below both starts at any budget, the
    twirl start run here if chisep skipped it."""
    d = dim_a * dim_b
    for i in range(6):
        tau = random_density(rng_from(7, dim_a, dim_b, i), d, rank)
        res = chisep(BipartiteState.from_matrix(tau, dim_a, dim_b), cfg)
        values = list(res.extras["start_values"])
        if len(values) == 1:
            start = project_pt_trace(separable_twirl(tau, dim_a, dim_b)[None], dim_a, dim_b)
            values.append(_min_chi2(tau[None, None], [[1.0]], start[None], dim_a, dim_b, [cfg]).value[0])
        assert 0.0 < res.extras["lower"] <= min(values)


class TestChisep:
    def test_product_state_zero_with_note(self):
        res = chisep(product_state(seeded(73)))
        assert res.value == 0.0
        assert "closure" in res.extras["note"]

    def test_bell_below_dimensional_bound(self):
        assert chisep(bell()).value <= 3.0 + 1e-9

    def test_bell_exact_via_sandwich(self):
        # The boundary Werner state Phi/3 + (2/3) I/4 is separable at
        # chi-square distance 1 from the Bell state, which is the minimum;
        # chisep is exact on 2x2, so it must meet the witness from both sides.
        witness_state = werner(1 / 3)
        assert is_ppt(witness_state)
        witness = chi2_divergence(bell().matrix, witness_state.matrix)
        assert witness == pytest.approx(1.0, abs=1e-12)
        value = chisep(bell()).value
        assert value >= witness - 1e-9
        assert value - witness <= 1e-6

    def test_werner_closed_forms(self):
        for w in (0.45, 0.6, 0.8, 1.0):
            res = chisep(werner(w))
            assert res.value == pytest.approx(werner_chisep(w), abs=1e-6)
            assert min(res.extras["start_values"]) == res.value
            assert res.extras["lower"] <= werner_chisep(w) <= res.value + 1e-6

    def test_bell_certified_from_one_start(self):
        res = chisep(bell())
        assert len(res.extras["start_values"]) == 1
        assert abs(res.value - 1.0) <= 1e-9
        assert res.extras["lower"] <= 1.0
        assert res.extras["certified"] is True
        assert res.extras["gap"] == res.value - res.extras["lower"]

    def test_twirl_start_runs_while_gap_open(self):
        # On this input the twirl start wins (0.912694 against 0.918901 from I/d).
        st = BipartiteState.from_matrix(random_density(rng_from(7, 2, 3, 3), 6, 1), 2, 3)
        res = chisep(st)
        first, twirl = res.extras["start_values"]
        assert first == pytest.approx(0.918901, abs=1e-6)
        assert twirl == pytest.approx(0.912694, abs=1e-6)
        assert res.value == twirl
        assert res.extras["certified"] is False
        assert res.extras["gap"] > VERDICT_SLACK
        # A rank-1 input, whose optimum is singular: the certificate still
        # stays positive.
        assert 0.0 < res.extras["lower"] <= res.value

    def test_doubled_ad_step_certified_from_one_start(self):
        res = chisep(doubled_step(amplitude_damping(0.28)))
        assert len(res.extras["start_values"]) == 1
        assert 0.0 <= res.extras["gap"] <= 1e-6
        # 0.2841913922476358 is the lower of the two starts' values on this
        # state under the stall tolerances of obj_tol = 1e-8.
        assert res.value <= 0.2841913922476358 + 1e-12

    def test_entangled_call_skips_minimizer_eigensolves(self, monkeypatch):
        # chisep keeps the iterate it scored as its minimizer, with no eigh
        # to project it and no eigvalsh to validate it, and reports no
        # smallest iterate eigenvalue (an eigvalsh).  Its 131 eigensolves
        # here are the PPT test, the start's projection, the solver's 125
        # and the certificate's two mixing points, each one stacked
        # projection and one stacked eigvalsh.
        st = doubled_step(amplitude_damping(0.28))
        calls = counting_eigh(monkeypatch)
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls[0] += 1
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        res = chisep(st)
        assert calls[0] == 131
        sigma = res.minimizer.matrix
        assert not sigma.flags.writeable
        assert chi2_divergence(st.matrix, sigma) == pytest.approx(res.value, rel=1e-9)
        assert "final_min_eig_sigma" not in res.extras
        assert res.value == pytest.approx(0.2841913922476371, rel=1e-12)
        assert res.extras["lower"] == pytest.approx(0.2841913542141693, rel=1e-12)
        assert res.iterations == 38 and res.converged

    def test_mixed_point_certificate_closes_dephasing_gap(self, monkeypatch):
        # Step 1 of the dephasing(0.1) doubled memory: the I/d iterate is
        # near-singular, and the certificate at it alone leaves a gap of
        # about 1e-3 although both starts agree within 1e-12.
        st = doubled_step(dephasing(0.1))
        tau = st.matrix
        res = chisep(st)
        assert len(res.extras["start_values"]) == 1
        assert 0.0 <= res.extras["gap"] <= 1e-6
        start = project_pt_trace(separable_twirl(tau, 2, 2)[None], 2, 2)
        twirl = _min_chi2(tau[None, None], [[1.0]], start[None], 2, 2, [SepConfig()]).value[0]
        assert res.extras["lower"] <= twirl
        monkeypatch.setattr("chcon.separability.CERT_MIX", (0.0,))
        assert chisep(st).extras["gap"] > 1e-4

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 3), (2, 4), (3, 3), (4, 4)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_lower_below_both_starts(self, dim_a, dim_b, rank):
        # A 500-iteration budget keeps the 4x4 rank-2 inputs to seconds.
        assert_lower_below_both_starts(dim_a, dim_b, rank, SepConfig(obj_tol=1e-6, max_iter=500))

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_lower_below_both_starts_default_config(self, dim_a, dim_b, rank):
        assert_lower_below_both_starts(dim_a, dim_b, rank, SepConfig())

    @pytest.mark.parametrize("kwargs", [
        {"max_iter": 0}, {"max_iter": -5}, {"max_iter": True}, {"max_iter": 2.5},
        {"obj_tol": float("nan")}, {"obj_tol": float("inf")}, {"obj_tol": 0.0}, {"obj_tol": -1e-8},
        {"obj_tol": "1e-8"}, {"obj_tol": True}, {"obj_tol": None}, {"obj_tol": 1e-8 + 0j},
    ])
    def test_config_rejects_unusable_settings(self, kwargs):
        with pytest.raises(ChannelError):
            SepConfig(**kwargs)

    def test_dsep_squared_below_chisep(self):
        for i in range(15):
            rho = random_density(seeded(74, i), 4)
            st = BipartiteState.from_matrix(rho, 2, 2)
            if is_ppt(st):
                continue
            assert dsep(st).value ** 2 <= chisep(st).value + 1e-6

    def test_monotone_under_separable_channels(self):
        # 200 random separable channels over 50 entangled inputs; each input's
        # distance is computed once and compared against four channel outputs.
        cfg = SepConfig(obj_tol=1e-7)
        checked = 0
        for i in range(50):
            rng = seeded(75, i)
            w = rng.uniform(0.45, 1.0)
            u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            mat = u @ werner(w).matrix @ la.dag(u)
            st = BipartiteState.from_matrix(mat, 2, 2)
            chi_in = chisep(st, cfg).value
            for j in range(4):
                crng = seeded(75, i, j)
                if j % 2 == 0:
                    sep = local_product_channel(random_channel(crng, 2), random_channel(crng, 2))
                else:
                    sep = mixture_of_local_pairs(
                        [(0.5, random_channel(crng, 2), random_channel(crng, 2)),
                         (0.5, random_channel(crng, 2), random_channel(crng, 2))]
                    )
                out = BipartiteState.from_matrix(sep.apply(st.matrix), 2, 2)
                assert chisep(out, cfg).value <= chi_in + 1e-6
                checked += 1
        assert checked == 200


def solo_fields(res):
    """Every field of a chisep result that a batch must leave unchanged."""
    return (res.value, res.method, res.iterations, res.converged, res.extras,
            None if res.minimizer is None else res.minimizer.matrix.tobytes())


def mixed_batch():
    """Named 4x4 problems that leave a batch at different iterations."""
    twirl = random_density(rng_from(7, 2, 2, 0), 4, 1)
    rank2 = random_density(rng_from(7, 2, 2, 0), 4, 2)
    return [
        ("ppt", product_state(seeded(73))),
        ("bell", bell()),
        ("ad", doubled_step(amplitude_damping(0.28))),
        ("depolarizing", doubled_step(depolarizing(0.3))),
        ("dephasing", doubled_step(dephasing(0.1))),
        ("rank2", BipartiteState.from_matrix(rank2, 2, 2)),
        ("twirl", BipartiteState.from_matrix(twirl, 2, 2)),
    ]


class TestBatchedChisep:
    def test_batch_equals_solo_solves(self, kernel_sizes):
        names, states = zip(*mixed_batch())
        solo = {name: chisep(s) for name, s in mixed_batch()}
        kernel_sizes.clear()
        batch = dict(zip(names, chisep_batch(states)))
        # One call for the maximally mixed start of the six entangled
        # inputs, one for the twirl start of those whose gap stays open.
        assert kernel_sizes == [6, 1]
        for name in names:
            assert solo_fields(batch[name]) == solo_fields(solo[name]), name
        assert batch["ppt"].value == 0.0 and "closure" in batch["ppt"].extras["note"]
        assert len(batch["twirl"].extras["start_values"]) == 2
        assert batch["twirl"].extras["gap"] > VERDICT_SLACK
        # The problems leave the batch at different iterations.
        iterations = [batch[name].iterations for name in names[1:]]
        assert len(set(iterations)) == len(iterations)

    def test_cut_short_batch_equals_solo_solves(self):
        names, states = zip(*mixed_batch())
        cfg = SepConfig(max_iter=60)
        batch = dict(zip(names, chisep_batch(states, cfg)))
        for name, s in mixed_batch():
            assert solo_fields(batch[name]) == solo_fields(chisep(s, cfg)), name
        # Each start of the rank-2 problem runs to its own budget.
        assert len(batch["rank2"].extras["start_values"]) == 2
        assert batch["rank2"].iterations == 120 and not batch["rank2"].converged

    def test_kernel_budgets_are_per_problem(self):
        # One kernel batch whose problems run under different budgets, each
        # as it runs alone under its own.
        _, states = zip(*mixed_batch()[1:])
        taus = np.stack([s.matrix for s in states])[:, None]
        x0 = project_pt_trace(np.eye(4, dtype=complex)[None, None] / 4, 2, 2)
        starts = np.broadcast_to(x0, taus.shape)
        cfgs = [SepConfig(max_iter=m) for m in (10000, 20, 10000, 7, 10000, 25)]
        ones = np.ones((len(states), 1))
        batch = _min_chi2(taus, ones, starts, 2, 2, cfgs)
        for p, cfg in enumerate(cfgs):
            solo = _min_chi2(taus[p:p + 1], ones[:1], starts[:1], 2, 2, [cfg])
            for got, alone in zip(batch, solo):
                assert np.array_equal(got[p], alone[0]), p
        assert [int(i) for i in batch.iterations[[1, 3, 5]]] == [20, 7, 25]
        assert not batch.converged[[1, 3, 5]].any()

    def test_chunks_leave_every_problem_unchanged(self, monkeypatch, kernel_sizes):
        _, states = zip(*mixed_batch())
        whole = chisep_batch(states)
        monkeypatch.setattr(chcon.separability, "CHISEP_CHUNK", 2)
        kernel_sizes.clear()
        chunked = chisep_batch(states)
        # Chunks of two states: the PPT input leaves one problem in the
        # first, and the twirl start of the last chunk runs alone.
        assert kernel_sizes == [1, 2, 2, 1, 1]
        assert [solo_fields(r) for r in chunked] == [solo_fields(r) for r in whole]

    def test_mixed_bipartitions_are_solved_per_bipartition(self, kernel_sizes):
        s23 = BipartiteState.from_matrix(random_density(seeded(87, 2, 3), 6, 2), 2, 3)
        states = [bell(), s23, doubled_step(amplitude_damping(0.28))]
        batch = chisep_batch(states)
        # The two 2x2 states in one call; the 2x3 state alone, then its
        # twirl start.
        assert kernel_sizes == [2, 1, 1]
        assert [solo_fields(r) for r in batch] == [solo_fields(chisep(s)) for s in states]

    def test_blockdiag_still_matches_the_block_formula(self):
        rng = seeded(88)
        p = rng.dirichlet((1, 1, 1))
        s = CcQqState.from_blocks(
            2, 2, [((b,), (b,), p[b], random_density(rng, 4)) for b in range(3)]
        )
        formula = chisep_ccqq(s)
        direct = chisep_ccqq_blockdiag(s)
        assert abs(formula.value - direct.value) < 1e-3
        assert formula.extras["lower"] <= direct.value
        np.testing.assert_allclose(
            formula.extras["q_weights"], direct.extras["block_traces"], atol=1e-3
        )

    def test_rowwise_simplex_shift_is_the_vector_one(self):
        rng = seeded(89)
        for m in (1, 2, 4, 12, 16):
            rows = np.concatenate([
                rng.standard_normal((20, m)) * 10.0 ** rng.uniform(-3, 3, (20, 1)),
                np.round(rng.standard_normal((5, m)), 1),  # ties
                np.full((1, m), 1.0 / m),
            ])
            shifts = la.simplex_shift(rows)
            assert shifts.shape == (len(rows),)
            for row, shift in zip(rows, shifts):
                assert shift == la.simplex_shift(row)
                projected = np.clip(row - shift, 0.0, None)
                assert projected.sum() == pytest.approx(1.0, abs=1e-9)
            # Rows given in ascending order skip the sort and keep every shift.
            assert np.array_equal(la.simplex_shift(np.sort(rows), ascending=True), shifts)


class TestCcQq:
    def test_single_block_collapses_to_chisep(self):
        s = CcQqState.single(bell())
        assert chisep_ccqq(s).value == pytest.approx(chisep(bell()).value, abs=1e-9)

    def test_blockdiag_single_block_matches_chisep(self):
        for dim_a, dim_b, mat in [
            (2, 2, werner(0.8).matrix),
            (2, 3, random_density(seeded(87, 2, 3), 6, 2)),
        ]:
            st = BipartiteState.from_matrix(mat, dim_a, dim_b)
            assert not is_ppt(st)
            direct = chisep_ccqq_blockdiag(CcQqState.single(st))
            assert direct.value == pytest.approx(chisep(st).value, abs=1e-6)
            assert direct.extras["block_traces"] == [pytest.approx(1.0, abs=1e-12)]

    def test_two_product_blocks_zero(self):
        blocks = []
        for b in range(2):
            st = product_state(seeded(76, b))
            blocks.append(((b,), (b,), 0.5, st.matrix))
        s = CcQqState.from_blocks(2, 2, blocks)
        res = chisep_ccqq(s)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.extras["lower"] == 0.0

    def test_bell_product_mixture_formula_vs_direct(self):
        prod = product_state(seeded(77))
        s = CcQqState.from_blocks(
            2, 2, [((0,), (0,), 0.5, bell_state().matrix), ((1,), (1,), 0.5, prod.matrix)]
        )
        formula = chisep_ccqq(s)
        direct = chisep_ccqq_blockdiag(s)
        assert abs(formula.value - direct.value) < 1e-3
        # Closed form: blocks contribute sqrt(2)/2 and 1/2 to the mixture sum.
        expected = (0.5 * math.sqrt(2.0) + 0.5) ** 2 - 1.0
        assert formula.value == pytest.approx(expected, abs=1e-6)
        q = formula.extras["q_weights"]
        assert q[0] == pytest.approx(math.sqrt(2.0) / (math.sqrt(2.0) + 1.0), abs=1e-6)

    def test_optimal_weights_match_direct_traces(self):
        s = CcQqState.from_blocks(
            2, 2,
            [((0,), (0,), 0.4, werner(0.9).matrix), ((1,), (1,), 0.6, werner(0.7).matrix)],
        )
        formula = chisep_ccqq(s)
        direct = chisep_ccqq_blockdiag(s)
        assert abs(formula.value - direct.value) < 1e-3
        np.testing.assert_allclose(
            formula.extras["q_weights"], direct.extras["block_traces"], atol=1e-3
        )

    def test_dimensional_bound(self):
        fast = SepConfig(obj_tol=1e-6, max_iter=2000)
        for i in range(40):
            rng = seeded(78, i)
            p = rng.dirichlet((1, 1))
            blocks = [((b,), (b,), p[b], random_density(rng, 4)) for b in range(2)]
            s = CcQqState.from_blocks(2, 2, blocks)
            assert chisep_ccqq(s, fast).value <= 3.0 + 1e-6

    def test_lower_below_blockdiag(self):
        # The block-diagonal minimization is feasible, so its value bounds the
        # minimum from above and the certified formula lower side from below.
        for i in range(40):
            rng = seeded(78, i)
            p = rng.dirichlet((1, 1))
            blocks = [((b,), (b,), p[b], random_density(rng, 4)) for b in range(2)]
            s = CcQqState.from_blocks(2, 2, blocks)
            formula = chisep_ccqq(s)
            assert formula.extras["lower"] <= chisep_ccqq_blockdiag(s).value
            assert formula.extras["lower"] <= formula.value

    def test_probability_validation(self):
        with pytest.raises(ChannelError, match="sum"):
            CcQqState.from_blocks(2, 2, [((0,), (0,), 0.7, np.eye(4) / 4)])

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, p):
        with pytest.raises(ChannelError, match="finite"):
            CcQqState.from_blocks(2, 2, [((0,), (0,), p, np.eye(4) / 4)])
        with pytest.raises(ChannelError, match="sum"):
            check_total_probability([p])
        with pytest.raises(ChannelError, match="sum"):
            check_total_probability([0.5, p])

    def test_duplicate_label_rejected(self):
        # Phi+ and Phi- under one label are the separable mixture of the two;
        # as separate blocks they would score chisep 1.
        z_a = np.kron(la.PAULI_Z, la.I2)
        phi_minus = z_a @ bell_state().matrix @ z_a
        blocks = [((0,), (0,), 0.5, bell_state().matrix), ([0], (0,), 0.5, phi_minus)]
        with pytest.raises(ChannelError, match="duplicate block label"):
            CcQqState.from_blocks(2, 2, blocks)


class TestSeparableChannels:
    def test_identity_pair(self):
        sep = make_separable_channel([(np.eye(2), np.eye(2))])
        rho = bell_state().matrix
        assert np.allclose(sep.apply(rho), rho)

    def test_local_depolarizing_product(self):
        sep = local_product_channel(depolarizing(0.3), depolarizing(0.5))
        assert sep.channel.tp_residual() < 1e-12
        out = sep.apply(bell_state().matrix)
        expected = 0.7 * 0.5 * bell_state().matrix + (1 - 0.7 * 0.5) * np.eye(4) / 4
        assert np.allclose(out, expected, atol=1e-12)

    def test_non_tp_factor_list_rejected(self):
        with pytest.raises(ChannelError, match="TP residual"):
            make_separable_channel([(0.5 * np.eye(2), np.eye(2))])

    def test_swap_cannot_be_expressed(self):
        # SWAP has no product-form Kraus pair of local 2x2 factors; the
        # nearest attempt (a single identity pair) simply is not SWAP.
        sep = make_separable_channel([(np.eye(2), np.eye(2))])
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        v = np.kron(np.array([1, 0]), np.array([0, 1])).astype(complex)
        rho = np.outer(v, v.conj())
        assert not np.allclose(sep.apply(rho), swap @ rho @ swap.conj().T)

    def test_product_channel_built_once(self, monkeypatch):
        sep = local_product_channel(depolarizing(0.3), amplitude_damping(0.2))
        assert sep.channel is sep.channel
        built = []
        original = KrausChannel.from_kraus.__func__

        def counting(cls, ops):
            built.append(1)
            return original(cls, ops)

        monkeypatch.setattr(KrausChannel, "from_kraus", classmethod(counting))
        blocks = [((b,), (), 0.5, product_state(seeded(85, b)).matrix) for b in range(2)]
        out = apply_separable_to_ccqq(CcQqState.from_blocks(2, 2, blocks), sep)
        verify_contraction_step(CcQqState.single(bell()), sep, 0.1)
        assert built == []
        for blk, src in zip(out.blocks, blocks):
            assert np.allclose(blk.rho, sep.channel.apply(src[3]), atol=1e-14)

    def test_mixture_of_local_pairs_is_tp(self):
        rng = seeded(79)
        sep = mixture_of_local_pairs(
            [(0.3, random_channel(rng, 2), random_channel(rng, 2)),
             (0.7, random_channel(rng, 2), random_channel(rng, 2))]
        )
        assert sep.channel.tp_residual() < 1e-10


class TestContractionStep:
    def test_identity_channel_trivially_holds(self):
        s = CcQqState.single(bell())
        t = local_product_channel(identity_channel(), identity_channel())
        rep = verify_contraction_step(s, t, 1 / 16)
        assert rep.passed
        assert rep.chi_out == pytest.approx(rep.chi_in, abs=1e-6)

    def test_completely_depolarizing_zeroes_output(self):
        s = CcQqState.single(bell())
        t = local_product_channel(completely_depolarizing(), completely_depolarizing())
        rep = verify_contraction_step(s, t, 0.1)
        assert rep.passed
        assert rep.chi_out == pytest.approx(0.0, abs=1e-9)

    def test_local_depolarizing_numeric(self):
        s = CcQqState.single(bell())
        t = local_product_channel(depolarizing(0.5), depolarizing(0.5))
        rep = verify_contraction_step(s, t, 1 / 16)
        assert rep.passed
        assert rep.chi_out < rep.chi_in
        assert eta_chi_lower(t.channel, trials=50).value <= rep.eta_upper + 1e-6

    def test_step_runs_no_chi_square_coefficient_ascent(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("eta_chi_lower called")

        monkeypatch.setattr(chcon.contraction, "eta_chi_lower", boom)
        monkeypatch.setattr(chcon.separability, "eta_chi_lower", boom, raising=False)
        s = CcQqState.single(bell())
        t = local_product_channel(depolarizing(0.5), depolarizing(0.5))
        rep = verify_contraction_step(s, t, 1 / 16)
        assert rep.passed and rep.chi_out < rep.chi_in

    def test_precondition_enforced(self):
        s = CcQqState.single(werner(0.4))
        t = local_product_channel(identity_channel(), identity_channel())
        with pytest.raises(PreconditionError, match="precondition"):
            verify_contraction_step(s, t, 0.9)

    def test_both_sides_solved_in_one_batch(self, kernel_sizes):
        blocks = [((0,), (0,), 0.6, bell().matrix), ((1,), (1,), 0.4, werner(0.8).matrix)]
        s = CcQqState.from_blocks(2, 2, blocks)
        t = local_product_channel(depolarizing(0.3), depolarizing(0.3))
        expected = (chisep_ccqq(s).value, chisep_ccqq(apply_separable_to_ccqq(s, t)).value)
        kernel_sizes.clear()
        rep = verify_contraction_step(s, t, 1 / 16)
        assert kernel_sizes == [4]
        assert (rep.chi_in, rep.chi_out) == expected
