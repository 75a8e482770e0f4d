"""Channel-constant machinery: tetrahedron geometry, splits, peels."""

import numpy as np
import pytest

import chcon.linalg as la
from chcon.channels import (
    ChannelError,
    KrausChannel,
    adjoint,
    amplitude_damping,
    channel_from_bloch_transfer,
    choi_distance,
    completely_depolarizing,
    compose,
    dephasing,
    depolarizing,
    identity_channel,
    kraus_to_choi,
    unitary_channel,
)
from chcon.config import P2_DENOMINATOR, PSD_TOL
from chcon.contraction import adjoint_composition_spectrum, lambda_min_choi_of_adjoint_composition
from chcon.decompose import (
    _choi_support,
    _max_cp_weight_on,
    barycentric_weights,
    corner_feasibility,
    corner_max_q,
    eb_peel_weight,
    is_entanglement_breaking,
    max_cp_weight,
    p2_certificate,
    p_constant,
    tetrahedron_coords,
    unital_split,
)
from chcon.sampling import (
    random_channel,
    random_eb_qubit_channel,
    random_nonunital_qubit_channel,
    random_unital_qubit_channel,
    rng_from,
)

from conftest import random_extremal_nonunital_qubit_channel, seeded


def cp_order_margin(choi_n, choi_m, q: float) -> float:
    """Smallest eigenvalue of C_N - q C_M (non-negative means N >= q M)."""
    return la.min_eig(choi_n.matrix - q * choi_m.matrix)


def corner_max_q_grid_bisect(lam, corner, feas_tol=1e-9, tol=1e-10):
    """Independent oracle: grid scan plus bisection on the upper boundary."""
    grid = np.linspace(0.0, 1.0, 401)
    feasible = [q for q in grid if corner_feasibility(lam, corner, q) <= feas_tol]
    if not feasible:
        return None
    lo = max(feasible)
    if lo >= 1.0:
        return 1.0
    hi = min(lo + grid[1], 1.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if corner_feasibility(lam, corner, mid) <= feas_tol:
            lo = mid
        else:
            hi = mid
    return lo


def p1_oracle(lam):
    vals = [corner_max_q_grid_bisect(lam, c) for c in range(4)]
    return max(v for v in vals if v is not None)


def reconstruct(split):
    ops = [np.sqrt(1 - split.p1) * k for k in split.unitary_part.kraus]
    ops += [np.sqrt(split.p1) * k for k in split.eb_part.kraus]
    return KrausChannel.from_kraus(ops)


class TestTetrahedron:
    def test_identity_corner(self):
        lam, u, v = tetrahedron_coords(identity_channel())
        assert np.allclose(lam, [1, 1, 1])

    def test_depolarizing_center_line(self):
        lam, _, _ = tetrahedron_coords(depolarizing(0.4))
        assert np.allclose(lam, [0.6, 0.6, 0.6], atol=1e-12)

    def test_pauli_x_corner(self):
        lam, _, _ = tetrahedron_coords(unitary_channel(la.PAULI_X))
        assert np.allclose(lam, [1, -1, -1])

    def test_barycentric_membership_on_random_channels(self):
        for i in range(100):
            ch = random_unital_qubit_channel(seeded(60, i))
            lam, _, _ = tetrahedron_coords(ch)
            w = barycentric_weights(lam)
            assert w.min() >= -1e-9
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_nonunital_rejected(self):
        with pytest.raises(ChannelError, match="not unital"):
            tetrahedron_coords(amplitude_damping(0.3))


class TestUnitalSplit:
    def test_completely_depolarizing_weight_one(self):
        assert unital_split(completely_depolarizing()).p1 == pytest.approx(1.0)

    def test_depolarizing_three_halves_p(self):
        sp = unital_split(depolarizing(0.2))
        assert sp.p1 == pytest.approx(0.3, abs=1e-6)
        assert sp.p1 == pytest.approx(p1_oracle((0.8, 0.8, 0.8)), abs=1e-6)

    def test_dephasing_split(self):
        sp = unital_split(dephasing(0.5))
        assert sp.p1 == pytest.approx(p1_oracle((0.5, 0.5, 1.0)), abs=1e-6)
        assert sp.p1 == pytest.approx(0.5, abs=1e-6)

    def test_unitary_rejected(self):
        with pytest.raises(ChannelError, match="unitary"):
            unital_split(unitary_channel(la.PAULI_Z))

    def test_maximality_bump_breaks_membership(self):
        # For depolarizing parameters up to 2/3 the corner search sits at the
        # octahedron boundary (weight 3p/2 < 1), so any bump leaves the set.
        for p in (0.1, 0.3, 0.5, 2.0 / 3.0 - 1e-3):
            sp = unital_split(depolarizing(p))
            assert sp.p1 == pytest.approx(1.5 * p, abs=1e-9)
            lam = np.array([1 - p] * 3)
            assert corner_feasibility(lam, sp.corner, sp.p1 + 1e-3) > 1e-9

    def test_random_corpus(self):
        for i in range(150):
            ch = random_unital_qubit_channel(seeded(61, i))
            sp = unital_split(ch)
            assert sp.p1 > 0.0
            assert choi_distance(ch, reconstruct(sp)) < 1e-7
            assert is_entanglement_breaking(sp.eb_part)
            lam, _, _ = tetrahedron_coords(ch)
            assert sp.p1 == pytest.approx(p1_oracle(lam), abs=1e-6)


class TestCpOrder:
    def test_mixture_recovers_component_weight(self):
        ad = amplitude_damping(0.3)
        mix = KrausChannel.from_kraus(
            [np.sqrt(0.5) * k for k in ad.kraus] + [np.sqrt(0.5) * np.eye(2)]
        )
        q = max_cp_weight(mix, ad)
        assert q == pytest.approx(0.5, abs=1e-12)
        assert cp_order_margin(kraus_to_choi(mix), kraus_to_choi(ad), q) >= -1e-12

    def test_self_weight_is_one(self):
        ch = amplitude_damping(0.4)
        assert max_cp_weight(ch, ch) == pytest.approx(1.0)

    def test_rank_two_channel_peels_no_full_rank_part(self):
        # Amplitude damping has a rank-2 Choi matrix, so no channel with a
        # full-rank Choi matrix sits below it: the peel weight is exactly 0.
        assert eb_peel_weight(amplitude_damping(0.3)) == 0.0

    def test_random_weights_are_maximal_cp_peels(self):
        for i in range(40):
            m = random_nonunital_qubit_channel(seeded(63, i), min_nonunitality=0.02)
            b = random_nonunital_qubit_channel(seeded(64, i), min_nonunitality=0.02)
            w = 0.1 + 0.8 * i / 40
            n = KrausChannel.from_kraus(
                [np.sqrt(w) * k for k in m.kraus] + [np.sqrt(1 - w) * k for k in b.kraus]
            )
            cn, cm = kraus_to_choi(n), kraus_to_choi(m)
            q = max_cp_weight(n, m)
            assert q >= w - 1e-12
            assert cp_order_margin(cn, cm, q) >= -1e-12
            if q < 1.0:
                assert cp_order_margin(cn, cm, min(1.0, q * (1 + 1e-6))) < 0.0


    @pytest.mark.parametrize("index", range(4))
    def test_shared_support_equals_per_candidate_calls(self, index):
        # eb_peel_weight decomposes C_N once for all its candidates; every
        # weight must equal a per-candidate max_cp_weight.
        ad = amplitude_damping(0.3)
        m = random_nonunital_qubit_channel(seeded(65, index), min_nonunitality=0.02)
        n = KrausChannel.from_kraus(
            [np.sqrt(0.6) * k for k in m.kraus] + [np.sqrt(0.4) * k for k in ad.kraus]
        )
        seed = 7 + index
        support = _choi_support(n)
        eb = [random_eb_qubit_channel(rng_from(seed, 1_000_000 + i)) for i in range(32)]
        peels = [random_extremal_nonunital_qubit_channel(rng_from(seed, i)) for i in range(32)]
        for cand in eb + peels + [ad, n]:
            assert _max_cp_weight_on(support, cand) == max_cp_weight(n, cand)
        assert eb_peel_weight(n, candidates=32, seed=seed) == max(
            max_cp_weight(n, b) for b in eb
        )


EPS = float(np.finfo(float).eps)


def self_peel_bound(ch) -> float:
    """The self-peel p2 bound (lmin - err) / P2_DENOMINATOR of C_{N^dag o N},
    with err = 64 * 4 * eps * lmax, and 0 where lmin <= err."""
    w = adjoint_composition_spectrum(ch)
    err = 64.0 * 4 * EPS * w[-1]
    return float(w[0] - err) / P2_DENOMINATOR if w[0] > err else 0.0


def kraus_route_spectrum(ch) -> np.ndarray:
    """Spectrum of C_{N^dag o N} from the composed Kraus list, independent of
    the transfer-matrix route."""
    return np.linalg.eigvalsh(kraus_to_choi(compose(adjoint(ch), ch)).matrix)


class TestP2Certificate:
    def test_amplitude_damping_self_route(self):
        ch = amplitude_damping(0.3)
        p2 = p2_certificate(ch)
        assert p2 == self_peel_bound(ch)
        assert p2 == pytest.approx(kraus_route_spectrum(ch)[0] / 204800.0, rel=1e-12)
        assert p2 > 0

    def test_full_damping_still_certifies(self):
        assert p2_certificate(amplitude_damping(1.0)) > 0

    def test_unital_input_rejected(self):
        with pytest.raises(ChannelError, match="unital"):
            p2_certificate(depolarizing(0.3))

    def test_non_qubit_input_rejected(self):
        with pytest.raises(ChannelError, match="qubit channels only"):
            p2_certificate(identity_channel(3))

    def test_random_corpus_certificates(self):
        for i in range(120):
            ch = random_nonunital_qubit_channel(seeded(62, i), min_nonunitality=0.02)
            assert lambda_min_choi_of_adjoint_composition(ch) > PSD_TOL
            assert p2_certificate(ch) == self_peel_bound(ch)

    def test_extremal_channels_select_q_one(self):
        for i in range(40):
            ch = random_extremal_nonunital_qubit_channel(seeded(63, i))
            assert lambda_min_choi_of_adjoint_composition(ch) > PSD_TOL
            assert p2_certificate(ch) == self_peel_bound(ch)

    @pytest.mark.parametrize("gamma", [1e-7, 1e-8])
    def test_near_unitary_amplitude_damping_is_zero(self, gamma):
        # lmin(C_{N^dag o N}) is 5.0e-15 at gamma = 1e-7 and 5.5e-18 at 1e-8,
        # below the eigensolver's rounding bound 64 * 4 * eps * lmax = 1.1e-13.
        ch = amplitude_damping(gamma)
        w = adjoint_composition_spectrum(ch)
        assert 0.0 <= w[0] <= 64.0 * 4 * EPS * w[-1]
        assert p2_certificate(ch) == 0.0

    @pytest.mark.parametrize("gamma", [1e-5, 3e-6, 1e-6])
    def test_near_unitary_amplitude_damping_certified(self, gamma):
        # lmin tracks gamma^2 / 2 (5.0e-13 at 1e-6), below PSD_TOL but far
        # above rounding, so the self peel certifies a positive p2.
        ch = amplitude_damping(gamma)
        lam = kraus_route_spectrum(ch)[0]
        assert lam < PSD_TOL
        assert lam == pytest.approx(gamma**2 / 2, rel=1e-3)
        p2 = p2_certificate(ch)
        assert p2 == self_peel_bound(ch)
        assert 0.0 < p2 < lam / P2_DENOMINATOR
        assert p2 == pytest.approx(lam / P2_DENOMINATOR, rel=0.25)


class TestPConstant:
    def test_depolarizing(self):
        rep = p_constant(depolarizing(0.2))
        assert rep.p == pytest.approx(0.3, abs=1e-6)
        assert rep.certification == "exact_p1"

    def test_amplitude_damping(self):
        rep = p_constant(amplitude_damping(0.3), eb_candidates=8)
        assert rep.p > 0
        assert rep.certification == "certified_lower_bound"
        assert rep.p == max(rep.p1, rep.p2_lower)

    def test_non_extremal_channel_pinned(self):
        # A non-extremal channel: p1 from the entanglement-breaking peel,
        # p2_lower from the self peel.
        rep = p_constant(compose(amplitude_damping(0.3), depolarizing(0.1)))
        assert rep.p1 == pytest.approx(0.11712617610178538, rel=1e-12)
        assert rep.p2_lower == pytest.approx(7.118140733797671e-07, rel=1e-12)
        assert rep.p == rep.p1

    def test_identity_rejected(self):
        with pytest.raises(ChannelError, match="out of scope"):
            p_constant(identity_channel())

    def test_near_unitary_amplitude_damping_rejected(self):
        # Neither the self peel nor an entanglement-breaking peel fits.
        with pytest.raises(ChannelError, match="could not certify a positive channel constant"):
            p_constant(amplitude_damping(1e-8))

    def test_near_unitary_amplitude_damping_takes_self_peel(self):
        rep = p_constant(amplitude_damping(1e-6))
        assert rep.p == rep.p2_lower == p2_certificate(amplitude_damping(1e-6)) > 0

    def test_never_zero_on_random_corpus(self):
        for i in range(30):
            ch = random_nonunital_qubit_channel(seeded(64, i), min_nonunitality=0.02)
            assert p_constant(ch, eb_candidates=4, seed=i).p > 0
        for i in range(30):
            ch = random_unital_qubit_channel(seeded(65, i))
            assert p_constant(ch).p > 0


class TestEntanglementBreaking:
    def test_completely_depolarizing(self):
        assert is_entanglement_breaking(completely_depolarizing())

    def test_identity_is_not(self):
        assert not is_entanglement_breaking(identity_channel())

    def test_octahedron_interior_case(self):
        ch = channel_from_bloch_transfer(np.zeros(3), np.diag([0.5, 0.4, 0.05]))
        assert is_entanglement_breaking(ch)

    def test_consistency_with_octahedron_on_unital(self):
        for i in range(80):
            ch = random_unital_qubit_channel(seeded(66, i))
            lam, _, _ = tetrahedron_coords(ch)
            octa = float(np.abs(lam).sum()) <= 1.0 + 1e-9
            ppt = is_entanglement_breaking(ch)
            if abs(float(np.abs(lam).sum()) - 1.0) > 1e-6:
                assert octa == ppt


def eb_peel_oracle(n, seed, candidates=64) -> float:
    """The entanglement-breaking peel scored one candidate at a time."""
    return max(
        max_cp_weight(n, random_eb_qubit_channel(rng_from(seed, 1_000_000 + i)))
        for i in range(candidates)
    )


def rank_deficient_corpus():
    """Qubit channels whose Choi matrix has a kernel: amplitude damping up to
    AD(1), AD o dephasing, extremal channels and Stinespring channels with a
    2- or 3-dimensional environment."""
    chans = [amplitude_damping(g) for g in np.linspace(0.01, 1.0, 12)]
    for g, p in ((0.1, 0.2), (0.5, 1.0), (0.9, 0.4)):
        chans.append(compose(amplitude_damping(g), dephasing(p)))
    chans += [random_extremal_nonunital_qubit_channel(seeded(67, i)) for i in range(5)]
    for env in (2, 3):
        chans += [random_channel(seeded(68, env, i), 2, env_dim=env) for i in range(5)]
    return chans


class TestEbPeel:
    def test_peel_weight_bounded(self):
        w = eb_peel_weight(amplitude_damping(0.2), candidates=8, seed=0)
        assert 0.0 <= w <= 1.0

    def test_rank_deficient_choi_scores_zero_without_draws(self, monkeypatch):
        corpus = rank_deficient_corpus()
        for i, ch in enumerate(corpus):
            assert _choi_support(ch)[0].shape[1] > 0
            assert eb_peel_weight(ch, seed=i) == eb_peel_oracle(ch, i) == 0.0

        def no_draws(rng):
            raise AssertionError("a rank-deficient C_N must not draw candidates")

        monkeypatch.setattr("chcon.decompose.random_eb_qubit_channel", no_draws)
        assert all(eb_peel_weight(ch) == 0.0 for ch in corpus)

    def test_full_rank_weight_equals_per_candidate_oracle(self):
        chans = [
            compose(amplitude_damping(g), depolarizing(p))
            for g in (0.1, 0.3, 0.7)
            for p in (0.05, 0.1, 0.3)
        ]
        chans += [random_channel(seeded(69, i), 2, env_dim=4) for i in range(12)]
        weights = []
        for i, ch in enumerate(chans):
            assert not ch.is_unital()
            assert _choi_support(ch)[0].shape[1] == 0
            weights.append(eb_peel_weight(ch, seed=i))
            assert weights[-1] == eb_peel_oracle(ch, i)
        assert min(weights) > 0.0
