"""Channel representations, conversions, and validation."""

import numpy as np
import pytest

import chcon.linalg as la
from chcon.channels import (
    BlochAffine,
    ChannelError,
    ChoiMatrix,
    DensityState,
    KrausChannel,
    adjoint,
    amplitude_damping,
    bell_state,
    bloch_transfer,
    canonical_kraus,
    channel_from_bloch_transfer,
    choi_distance,
    choi_to_kraus,
    completely_depolarizing,
    compose,
    dephasing,
    depolarizing,
    extremality_gap,
    identity_channel,
    is_extreme_point,
    is_unitary_channel,
    kraus_to_choi,
    preset,
    stinespring,
    tensor,
    to_bloch_affine,
    unitary_channel,
    validate_channel,
)
from chcon.contraction import lambda_min_choi_of_adjoint_composition
from chcon.sampling import random_channel, random_pure

from conftest import seeded


def brute_force_choi(ch: KrausChannel) -> np.ndarray:
    """Element-by-element Choi construction, independent of the vec trick."""
    d_in, d_out = ch.in_dim, ch.out_dim
    c = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            e = np.zeros((d_in, d_in), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(ch.apply(e), e)
    return c


class TestValidation:
    def test_identity_passes_with_zero_residuals(self):
        rep = validate_channel(identity_channel())
        assert rep.ok
        assert rep.tp_residual == 0.0
        assert rep.choi_min_eigenvalue >= -1e-15

    def test_scaled_identity_fails_tp(self):
        rep = validate_channel(KrausChannel.from_kraus([0.9 * np.eye(2)]))
        assert not rep.ok
        assert rep.tp_residual == pytest.approx(0.19, abs=1e-12)

    def test_amplitude_damping_passes(self):
        ch = amplitude_damping(0.3)
        acc = sum(la.dag(k) @ k for k in ch.kraus)
        assert np.allclose(acc, np.eye(2))
        assert validate_channel(ch).ok

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ChannelError, match="inconsistent"):
            KrausChannel.from_kraus([np.eye(2), np.eye(3)])


class TestChoi:
    def test_identity_choi_rank_one_eigenvalue_two(self):
        c = kraus_to_choi(identity_channel())
        w = c.eigenvalues()
        assert w[-1] == pytest.approx(2.0, abs=1e-12)
        assert c.rank() == 1

    def test_completely_depolarizing_choi_is_half_identity(self):
        c = kraus_to_choi(completely_depolarizing())
        assert np.allclose(c.matrix, np.eye(4) / 2)

    def test_amplitude_damping_choi_matches_brute_force(self):
        ch = amplitude_damping(0.5)
        c = kraus_to_choi(ch)
        ref = brute_force_choi(ch)
        assert np.allclose(c.matrix, ref, atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(c.matrix), np.linalg.eigvalsh(ref), atol=1e-12)

    def test_trace_equals_input_dimension(self):
        for d in (2, 3, 4):
            ch = random_channel(seeded(d), d)
            assert np.trace(kraus_to_choi(ch).matrix) == pytest.approx(d, abs=1e-9)

    def test_choi_to_kraus_identity_single_kraus_up_to_phase(self):
        ch = choi_to_kraus(kraus_to_choi(identity_channel()))
        assert len(ch.kraus) == 1
        k = ch.kraus[0]
        phase = k[0, 0] / abs(k[0, 0])
        assert np.allclose(k / phase, np.eye(2), atol=1e-12)

    def test_full_rank_choi_gives_four_kraus(self):
        ch = choi_to_kraus(ChoiMatrix(in_dim=2, out_dim=2, matrix=np.eye(4) / 2))
        assert len(ch.kraus) == 4

    def test_non_psd_choi_rejected(self):
        bad = np.diag([1.0, 1.0, 1.0, -0.5])
        with pytest.raises(ChannelError, match="not PSD"):
            choi_to_kraus(ChoiMatrix(in_dim=2, out_dim=2, matrix=bad))

    def test_two_kraus_channel_recovers_rank_two(self):
        ch = random_channel(seeded(5), 2, env_dim=2)
        minimal = canonical_kraus(ch)
        assert len(minimal.kraus) == 2
        assert choi_distance(ch, minimal) < 1e-9


class TestRoundTrips:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_choi_round_trip_preserves_action(self, dim):
        for i in range(200):
            ch = random_channel(seeded(dim, i), dim)
            back = canonical_kraus(ch)
            rng = seeded(dim, i, 1)
            for _ in range(3):
                v = random_pure(rng, dim)
                rho = np.outer(v, v.conj())
                assert np.linalg.norm(ch.apply(rho) - back.apply(rho)) < 1e-7
            c = kraus_to_choi(ch)
            assert la.min_eig(c.matrix) >= -1e-9
            out_traced = la.partial_trace(c.matrix, (ch.out_dim, ch.in_dim), keep=(1,))
            assert np.linalg.norm(out_traced - np.eye(dim)) < 1e-9
            assert np.trace(c.matrix).real == pytest.approx(dim, abs=1e-9)


class TestStinespring:
    def test_identity_env_one(self):
        iso = stinespring(identity_channel())
        assert iso.env_dim == 1
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        assert np.allclose(iso.apply(rho), rho)

    def test_completely_depolarizing_env_four(self):
        assert stinespring(completely_depolarizing()).env_dim == 4

    def test_dephasing_env_two(self):
        assert stinespring(dephasing(0.5)).env_dim == 2

    def test_isometry_and_reconstruction(self):
        for i in range(20):
            ch = random_channel(seeded(31, i), 3)
            iso = stinespring(ch)
            assert np.linalg.norm(la.dag(iso.v) @ iso.v - np.eye(3)) < 1e-9
            assert iso.env_dim <= 9
            v = random_pure(seeded(31, i, 2), 3)
            rho = np.outer(v, v.conj())
            assert np.linalg.norm(iso.apply(rho) - ch.apply(rho)) < 1e-7


class TestBlochAffine:
    def test_identity(self):
        aff = to_bloch_affine(identity_channel())
        assert np.allclose(aff.t, 0)
        assert np.allclose(aff.lam, [1, 1, 1])

    def test_depolarizing(self):
        aff = to_bloch_affine(depolarizing(0.3))
        assert np.allclose(aff.t, 0, atol=1e-12)
        assert np.allclose(aff.lam, [0.7, 0.7, 0.7], atol=1e-12)
        assert aff.unital

    def test_amplitude_damping_closed_form(self):
        gamma = 0.4
        aff = to_bloch_affine(amplitude_damping(gamma))
        root = np.sqrt(1 - gamma)
        assert np.allclose(aff.t, [0, 0, gamma], atol=1e-12)
        assert np.allclose(aff.lam, [root, root, 1 - gamma], atol=1e-12)
        assert not aff.unital

    def test_unital_iff_t_zero(self):
        for i in range(40):
            ch = random_channel(seeded(77, i), 2)
            aff = to_bloch_affine(ch)
            assert aff.unital == ch.is_unital()

    def test_reconstruction_on_random_channels(self):
        from chcon.divergences import trace_distance

        axes = [np.array(v) for v in
                ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1])]
        for i in range(200):
            ch = random_channel(seeded(78, i), 2)
            rec = to_bloch_affine(ch).to_channel()
            worst = max(
                trace_distance(ch.apply(la.bloch_state(r)), rec.apply(la.bloch_state(r)))
                for r in axes
            )
            assert worst < 1e-7


def _rotations():
    """Random SO(3) matrices, the identity and pi rotations about several axes."""
    from scipy.spatial.transform import Rotation

    mats = [Rotation.random(random_state=i).as_matrix() for i in range(200)]
    mats += [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
             np.diag([-1.0, -1.0, 1.0])]
    for axis in ([1, 1, 0], [1, 1, 1], [0, 1, -1], [0.3, -0.2, 0.9]):
        n = np.array(axis, dtype=float) / np.linalg.norm(axis)
        mats.append(Rotation.from_rotvec(np.pi * n).as_matrix())
        mats.append(Rotation.from_rotvec((np.pi - 1e-9) * n).as_matrix())
    return mats


class TestSu2FromRotation:
    def test_matches_scipy_quaternion(self):
        from scipy.spatial.transform import Rotation

        for r in _rotations():
            x, y, z, w = Rotation.from_matrix(r).as_quat()
            ref = w * la.I2 - 1j * (x * la.PAULI_X + y * la.PAULI_Y + z * la.PAULI_Z)
            u = la.su2_from_rotation(r)
            assert np.real(np.trace(u)) >= 0.0
            if abs(np.trace(u)) < 1e-9:  # pi rotation: the sign is not fixed
                assert min(np.abs(u - ref).max(), np.abs(u + ref).max()) < 1e-12
            else:
                ref = ref if np.real(np.trace(ref)) >= 0 else -ref
                assert np.abs(u - ref).max() < 1e-12

    def test_round_trip(self):
        for r in _rotations():
            u = la.su2_from_rotation(r)
            assert np.allclose(la.dag(u) @ u, np.eye(2), atol=1e-12)
            t, m = bloch_transfer(unitary_channel(u))
            assert np.abs(t).max() < 1e-12
            assert np.abs(m - r).max() < 1e-12


def _random_channels():
    """200 random channels alternating between qubits and qutrits."""
    return [random_channel(seeded(79, i), 2 + i % 2) for i in range(200)]


class TestRepresentationLayer:
    """Every form read off ``transfer_matrix`` against an independent route."""

    def test_choi_matches_its_definition(self):
        for ch in _random_channels():
            assert np.abs(kraus_to_choi(ch).matrix - brute_force_choi(ch)).max() < 1e-12

    def test_adjoint_composition_choi_matches_kraus_composition(self):
        for ch in _random_channels():
            reference = kraus_to_choi(compose(adjoint(ch), ch))
            lam = lambda_min_choi_of_adjoint_composition(ch)
            assert abs(lam - reference.eigenvalues()[0]) < 1e-12

    def test_bloch_transfer_matches_pauli_traces(self):
        for ch in _random_channels()[::2]:
            t, m = bloch_transfer(ch)
            paulis = la.PAULIS[1:]
            t_ref = [0.5 * np.trace(p @ ch.apply(la.I2)).real for p in paulis]
            m_ref = [[0.5 * np.trace(p @ ch.apply(q)).real for q in paulis] for p in paulis]
            assert np.abs(t - t_ref).max() < 1e-12
            assert np.abs(m - m_ref).max() < 1e-12

    def test_bloch_round_trip(self):
        for ch in (random_channel(seeded(81, i), 2) for i in range(200)):
            t, m = bloch_transfer(ch)
            t2, m2 = bloch_transfer(channel_from_bloch_transfer(t, m))
            assert np.abs(t2 - t).max() < 1e-12
            assert np.abs(m2 - m).max() < 1e-12

    def test_stacked_apply_is_per_matrix_apply(self):
        for i, ch in enumerate(_random_channels()):
            rng = seeded(80, i)
            d = ch.in_dim
            rhos = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
            stacked = ch.apply(rhos)
            assert stacked.shape == (5, ch.out_dim, ch.out_dim)
            assert stacked.tobytes() == np.stack([ch.apply(r) for r in rhos]).tobytes()


class TestTransferMatrixReuse:
    """The transfer matrix is built once per channel object and shared."""

    def test_same_read_only_array_on_every_call(self):
        ch = amplitude_damping(0.3)
        m = ch.transfer_matrix()
        assert ch.transfer_matrix() is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        assert m.tobytes() == sum(np.kron(k, k.conj()) for k in ch.kraus).tobytes()

    def test_distinct_channel_objects_get_distinct_arrays(self):
        a = depolarizing(0.2)
        b = KrausChannel.from_kraus(a.kraus)
        assert a.transfer_matrix() is not b.transfer_matrix()
        assert a.transfer_matrix().tobytes() == b.transfer_matrix().tobytes()
        assert not np.shares_memory(a.transfer_matrix(), b.transfer_matrix())

    def test_readers_leave_it_unchanged(self):
        ch = random_channel(seeded(83, 0), 2)
        before = ch.transfer_matrix().tobytes()
        kraus_to_choi(ch)
        bloch_transfer(ch)
        lambda_min_choi_of_adjoint_composition(ch)
        validate_channel(ch)
        assert ch.transfer_matrix().tobytes() == before
        assert "_transfer" not in repr(ch)


class TestAlgebra:
    def test_compose_with_identity(self):
        ch = amplitude_damping(0.3)
        assert choi_distance(compose(identity_channel(), ch), ch) < 1e-12
        assert choi_distance(compose(ch, identity_channel()), ch) < 1e-12

    def test_tensor_dimensions(self):
        t = tensor(depolarizing(0.5), dephasing(0.2))
        assert t.in_dim == 4 and t.out_dim == 4
        assert validate_channel(t).ok

    def test_adjoint_of_tp_is_unital(self):
        adj = adjoint(depolarizing(0.3))
        assert np.allclose(adj.apply(np.eye(2)), np.eye(2))

    def test_compose_matches_choi_of_sequential_action(self):
        for i in range(10):
            a = random_channel(seeded(9, i), 2)
            b = random_channel(seeded(9, i, 1), 2)
            combined = compose(a, b)
            seq = KrausChannel.from_kraus(combined.kraus)
            rho = np.outer(random_pure(seeded(9, i, 2), 2), random_pure(seeded(9, i, 2), 2).conj())
            rho = la.herm_part(rho) + np.eye(2)
            rho /= np.trace(rho)
            assert np.linalg.norm(seq.apply(rho) - a.apply(b.apply(rho))) < 1e-10

    def test_tensor_commutes_with_choi_up_to_factor_swap(self):
        for i in range(10):
            a = random_channel(seeded(10, i), 2)
            b = random_channel(seeded(10, i, 1), 2)
            direct = kraus_to_choi(tensor(a, b))
            # kron of the factor Chois orders (out_a, in_a, out_b, in_b); the
            # Choi of a (x) b needs (out_a, out_b, in_a, in_b).
            big = np.kron(kraus_to_choi(a).matrix, kraus_to_choi(b).matrix)
            assembled = big.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
            assert np.linalg.norm(direct.matrix - assembled) < 1e-9


class TestExtremePoints:
    def test_unitary_is_extreme(self):
        assert is_extreme_point(identity_channel())
        assert is_extreme_point(unitary_channel(la.PAULI_X))

    def test_amplitude_damping_is_extreme(self):
        for gamma in (0.1, 0.5, 0.9):
            assert is_extreme_point(amplitude_damping(gamma))
            assert extremality_gap(amplitude_damping(gamma)) > 1e-4

    def test_depolarizing_is_not_extreme(self):
        for p in (0.2, 0.7):
            assert not is_extreme_point(depolarizing(p))

    def test_unitary_detection(self):
        assert is_unitary_channel(identity_channel())
        assert not is_unitary_channel(depolarizing(0.1))


class TestPresets:
    def test_depolarizing_zero_is_identity(self):
        assert choi_distance(depolarizing(0.0), identity_channel()) < 1e-12

    def test_depolarizing_one_maps_to_maximally_mixed(self):
        ch = depolarizing(1.0)
        for i in range(5):
            v = random_pure(seeded(3, i), 2)
            out = ch.apply(np.outer(v, v.conj()))
            assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_amplitude_damping_one_maps_to_ground(self):
        ch = amplitude_damping(1.0)
        for i in range(5):
            v = random_pure(seeded(4, i), 2)
            out = ch.apply(np.outer(v, v.conj()))
            assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_preset_dispatch_and_errors(self):
        assert choi_distance(preset("dephasing", p=0.5), dephasing(0.5)) < 1e-12
        with pytest.raises(ChannelError, match="unknown preset"):
            preset("nonsense")
        with pytest.raises(ChannelError, match="must be in"):
            depolarizing(1.5)
        with pytest.raises(ChannelError, match="not unitary"):
            unitary_channel(np.array([[1, 0], [0, 0.5]]))
        # Builder errors on malformed parameters surface as ChannelError.
        for name, params in (("depolarizing", {"p": "abc"}), ("dephasing", {"p": None}),
                             ("identity", {"dim": [2]})):
            with pytest.raises(ChannelError, match="malformed parameter"):
                preset(name, **params)
        with pytest.raises(ChannelError, match="unknown preset"):
            preset(["depolarizing"], p=0.1)


def test_bell_state_is_maximally_entangled():
    rho = bell_state().matrix
    assert np.trace(rho).real == pytest.approx(1.0)
    red = la.partial_trace(rho, (2, 2), keep=(0,))
    assert np.allclose(red, np.eye(2) / 2)
