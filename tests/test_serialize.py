"""Wire-format round trips and determinism of emitted documents."""

import json
import math

import numpy as np
import pytest

import chcon.linalg as la
from chcon import serialize as ser
from chcon.channels import (
    ChannelError,
    amplitude_damping,
    bell_state,
    choi_distance,
    depolarizing,
    is_unitary_channel,
    unitary_channel,
)
from chcon.config import DIM_CAP
from chcon.contraction import eta_tr, eta_tr_upper_minoutev
from chcon.decompose import p_constant
from chcon.sampling import random_channel, random_density
from chcon.separability import BipartiteState, CcQqState, local_product_channel

from conftest import seeded


class TestMatrices:
    def test_complex_pairs_row_major(self):
        m = np.array([[1 + 2j, 3], [0, -1j]])
        enc = ser.matrix_to_json(m)
        assert enc == [[[1.0, 2.0], [3.0, 0.0]], [[0.0, 0.0], [-0.0, -1.0]]] or enc[0][0] == [1.0, 2.0]
        back = ser.matrix_from_json(enc)
        assert np.allclose(back, m)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ChannelError, match="malformed"):
            ser.matrix_from_json([[1.0, 2.0]])

    @pytest.mark.parametrize(
        "rows",
        [
            [[["1.5", 0.0]]],
            [[[0.0, "1.5"]]],
            [["1.5"]],
            [[[None, 0.0]]],
            None,
            [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]],
            [[[1.0, 0.0, 0.0]]],
            [[[1.0]]],
            [[[1.0, 0.0], [0.0]]],
            [[[[1.0, 0.0]]]],
            [[[10**400, 0.0]]],
            [[]],
            [],
            "ab",
            5,
        ],
    )
    def test_malformed_payloads_rejected(self, rows):
        with pytest.raises(ChannelError, match="^malformed matrix payload: "):
            ser.matrix_from_json(rows)

    def test_ints_and_booleans_parse_as_floats(self):
        got = ser.matrix_from_json([[[1, 0], [True, False]], [[0, -2], [2**63, 1.5]]])
        expected = np.array([[complex(1, 0), complex(True, False)],
                             [complex(0, -2), complex(2**63, 1.5)]])
        assert got.dtype == complex and got.shape == (2, 2)
        assert got.tobytes() == expected.tobytes()

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        m[0, 0] = complex(1.0, -0.0)
        m[1, 2] = complex(-0.0, 0.0)
        m[3, 1] = complex(5e-324, -1.7976931348623157e308)
        back = ser.matrix_from_json(json.loads(json.dumps(ser.matrix_to_json(m))))
        assert back.tobytes() == m.tobytes()
        assert math.copysign(1.0, back[0, 0].imag) == -1.0
        reference = np.array([[complex(c[0], c[1]) for c in row] for row in ser.matrix_to_json(m)])
        assert back.tobytes() == reference.tobytes()


class TestChannels:
    def test_round_trip(self):
        for i in range(5):
            ch = random_channel(seeded(100, i), 3)
            doc = {"in_dim": ch.in_dim, "out_dim": ch.out_dim,
                   "kraus": [ser.matrix_to_json(k) for k in ch.kraus]}
            back = ser.channel_from_json(doc)
            assert choi_distance(ch, back) < 1e-12

    def test_preset_spec(self):
        ch = ser.channel_from_json({"preset": "depolarizing", "p": 0.25})
        assert choi_distance(ch, depolarizing(0.25)) < 1e-12
        ad = ser.channel_from_json({"preset": "amplitude_damping", "gamma": 0.3})
        assert choi_distance(ad, amplitude_damping(0.3)) < 1e-12

    def test_unitary_preset_reads_complex_pairs(self):
        pauli_x = ser.matrix_to_json(la.PAULI_X)
        ch = ser.channel_from_json({"preset": "unitary", "matrix": pauli_x})
        assert choi_distance(ch, unitary_channel(la.PAULI_X)) < 1e-12
        assert is_unitary_channel(ch)
        not_unitary = [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(ChannelError, match="not unitary"):
            ser.channel_from_json({"preset": "unitary", "matrix": not_unitary})

    def test_dim_mismatch_rejected(self):
        doc = {"in_dim": 3, "out_dim": 2,
               "kraus": [ser.matrix_to_json(k) for k in depolarizing(0.25).kraus]}
        with pytest.raises(ChannelError, match="disagrees"):
            ser.channel_from_json(doc)

    def test_missing_fields_rejected(self):
        with pytest.raises(ChannelError, match="preset' or 'kraus"):
            ser.channel_from_json({"dims": 2})

    def test_dimension_cap(self):
        assert ser.channel_from_json({"preset": "identity", "dim": DIM_CAP}).in_dim == DIM_CAP
        # A preparation channel from a 1-dimensional input onto 17 levels.
        prep = {"kraus": [ser.matrix_to_json(np.eye(DIM_CAP + 1, 1))]}
        with pytest.raises(ChannelError, match="1 -> 17 exceed"):
            ser.channel_from_json(prep)


class TestStates:
    def test_bipartite_round_trip(self):
        st = BipartiteState.from_matrix(bell_state().matrix, 2, 2)
        doc = {"dimA": st.dim_a, "dimB": st.dim_b, "matrix": ser.matrix_to_json(st.matrix)}
        back = ser.bipartite_state_from_json(doc)
        assert np.allclose(back.matrix, st.matrix)

    @pytest.mark.parametrize("dim", [2.7, True, "2", None])
    def test_non_integral_dimension_rejected(self, dim):
        bell = ser.matrix_to_json(bell_state().matrix)
        with pytest.raises(ChannelError, match="dimA must be an integer"):
            ser.bipartite_state_from_json({"dimA": dim, "dimB": 2, "matrix": bell})
        one = {"x": [], "y": [], "p": 1.0, "matrix": bell}
        with pytest.raises(ChannelError, match="dimA must be an integer"):
            ser.ccqq_from_json({"dimA": dim, "dimB": 2, "blocks": [one]})

    def test_ccqq_round_trip(self):
        rng = seeded(101)
        s = CcQqState.from_blocks(
            2, 2,
            [((0,), (1,), 0.3, random_density(rng, 4)), ((1,), (0,), 0.7, random_density(rng, 4))],
        )
        back = ser.ccqq_from_json(ser.ccqq_to_json(s))
        assert back.dim_a == 2 and back.dim_b == 2
        for a, b in zip(s.blocks, back.blocks):
            assert a.x == b.x and a.y == b.y
            assert a.prob == pytest.approx(b.prob)
            assert np.allclose(a.rho, b.rho)


class TestReports:
    def test_contraction_report_fields(self):
        rep = eta_tr(amplitude_damping(0.36))
        doc = ser.contraction_report_to_json(rep)
        assert doc["value"] == pytest.approx(0.8)
        assert doc["kind"] == "eta_tr_estimate"
        assert set(doc["witness"]) == {"psi", "phi"}
        assert json.dumps(doc)  # serializable

    def test_infinity_encoding(self):
        assert ser._json_float(math.inf) == "inf"
        assert ser._json_float(1.5) == 1.5

    def test_separable_channel_round_trip(self):
        sep = local_product_channel(depolarizing(0.3), amplitude_damping(0.2))
        back = ser.separable_channel_from_json(ser.separable_channel_to_json(sep))
        assert choi_distance(back.channel, sep.channel) < 1e-12

    def test_overhead_impossible_is_tagged(self):
        from chcon.bounds import capacity_bracket, overhead_lower_bound

        br = capacity_bracket(depolarizing(0.4), restarts=4)
        ob = overhead_lower_bound(3, 10.0, 0.5, br)
        doc = ser.overhead_to_json(ob)
        assert doc["bound"] == {"kind": "impossible"}

    def test_p_report_json(self):
        doc = ser.p_report_to_json(p_constant(depolarizing(0.2)))
        assert doc["certification"] == "exact_p1"
        assert doc["p"] == pytest.approx(0.3, abs=1e-6)


class TestDeterminism:
    def test_canonical_dump_is_stable(self):
        rep1 = ser.contraction_report_to_json(eta_tr_upper_minoutev(amplitude_damping(0.3), seed=5))
        rep2 = ser.contraction_report_to_json(eta_tr_upper_minoutev(amplitude_damping(0.3), seed=5))
        assert ser.dumps_canonical(rep1) == ser.dumps_canonical(rep2)

    def test_compact_lines_sorted_keys(self):
        line = ser.dumps_compact({"b": 1, "a": 2})
        assert line == '{"a":2,"b":1}'
