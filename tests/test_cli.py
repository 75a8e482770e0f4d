"""End-to-end command-line behavior: exit codes, formats, determinism."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

RUN = [sys.executable, "-m", "chcon.cli"]


def run_cli(*args, **kw):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, **kw)


@pytest.fixture
def spec_dir(tmp_path):
    (tmp_path / "dep02.json").write_text('{"preset": "depolarizing", "p": 0.2}')
    (tmp_path / "dep04.json").write_text('{"preset": "depolarizing", "p": 0.4}')
    (tmp_path / "ident.json").write_text('{"preset": "identity"}')
    (tmp_path / "ad03.json").write_text('{"preset": "amplitude_damping", "gamma": 0.3}')
    (tmp_path / "ad1e-6.json").write_text('{"preset": "amplitude_damping", "gamma": 1e-6}')
    (tmp_path / "ad1e-8.json").write_text('{"preset": "amplitude_damping", "gamma": 1e-8}')
    (tmp_path / "broken.json").write_text('{"preset": "depolarizing", ')
    return tmp_path


class TestAnalyze:
    def test_depolarizing_report(self, spec_dir):
        res = run_cli("analyze", str(spec_dir / "dep02.json"), "--restarts", "6", "--seed", "1")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["p_constant"]["p1"] == pytest.approx(0.3, abs=1e-6)
        assert doc["validation"]["ok"]
        assert doc["flags"]["unital"]
        assert doc["eta_tr"]["value"] == pytest.approx(0.8)

    def test_identity_gets_unitary_note(self, spec_dir):
        res = run_cli("analyze", str(spec_dir / "ident.json"), "--restarts", "4")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert "unitary" in doc["p_constant"]["error"]
        assert doc["choi_spectrum"][-1] == pytest.approx(2.0)

    @pytest.mark.parametrize("spec, message", [
        ({"preset": "depolarizing", "p": "abc"}, "preset 'depolarizing' has a malformed parameter"),
        ({"preset": "identity", "dim": 0}, "empty space"),
        ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "in_dim": "x"}, "disagrees"),
        ({"preset": "identity", "dim": 17}, "exceed the desk-scale cap of 16"),
    ], ids=["preset-parameter", "zero-dimension", "dimension-type", "above-dimension-cap"])
    def test_malformed_channel_spec_exits_two(self, tmp_path, spec, message):
        (tmp_path / "bad.json").write_text(json.dumps(spec))
        # The spec is rejected before any analysis runs.
        res = run_cli("analyze", str(tmp_path / "bad.json"), timeout=30)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("chcon: error:") and message in res.stderr
        assert "Traceback" not in res.stderr

    def test_near_unitary_amplitude_damping_reports_p_error(self, spec_dir):
        # No positive channel constant is certified at gamma = 1e-8; the rest
        # of the report is still written.
        res = run_cli("analyze", str(spec_dir / "ad1e-8.json"), "--restarts", "4")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["p_constant"] == {"error": "could not certify a positive channel constant"}
        assert doc["validation"]["ok"]

    def test_malformed_json_exits_two(self, spec_dir):
        res = run_cli("analyze", str(spec_dir / "broken.json"))
        assert res.returncode == 2
        assert "malformed JSON" in res.stderr

    def test_missing_file_exits_two(self, spec_dir):
        res = run_cli("analyze", str(spec_dir / "nope.json"))
        assert res.returncode == 2


class TestBound:
    def test_zero_capacity_impossible(self, spec_dir):
        res = run_cli("bound", str(spec_dir / "dep04.json"), "--n", "10", "--T", "100",
                      "--restarts", "4")
        assert res.returncode == 0
        assert "IMPOSSIBLE" in res.stderr
        doc = json.loads(res.stdout)
        assert doc["overhead"]["bound"] == {"kind": "impossible"}

    def test_direct_p_log_term(self):
        res = run_cli("bound", "--p", "0.5", "--n", "1", "--log2-T", "40")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["overhead"]["alpha"] == pytest.approx(0.25)
        assert doc["overhead"]["bound"]["value"] == pytest.approx(10.0)
        assert doc["memory_time_bound"]["threshold"] == pytest.approx(16.0)

    def test_full_pipeline_amplitude_damping(self, spec_dir):
        res = run_cli("bound", str(spec_dir / "ad03.json"), "--n", "4", "--T", "1000000",
                      "--restarts", "4", "--seed", "2")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["overhead"]["bound"]["kind"] == "qubits"
        assert doc["overhead"]["bound"]["value"] >= 4.0
        assert doc["overhead"]["capacity_bracket"]["lower"] > 0

    def test_near_unitary_amplitude_damping_exits_two(self, spec_dir):
        res = run_cli("bound", str(spec_dir / "ad1e-8.json"), "--n", "2", "--log2-T", "40")
        assert res.returncode == 2
        assert res.stderr == "chcon: error: could not certify a positive channel constant\n"
        assert res.stdout == ""

    def test_near_unitary_amplitude_damping_gets_self_peel_constant(self, spec_dir):
        # lmin(C_{N^dag o N}) = 5e-13 at gamma = 1e-6: below PSD_TOL, far above rounding.
        res = run_cli("bound", str(spec_dir / "ad1e-6.json"), "--n", "2", "--log2-T", "40",
                      "--restarts", "4")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert 0.0 < doc["p"] < 5e-13 / 204800.0

    def test_usage_errors(self, spec_dir):
        assert run_cli("bound", "--n", "1", "--T", "4").returncode == 2
        assert run_cli("bound", "--p", "0.5", "--n", "1").returncode == 2

    @pytest.mark.parametrize("t", ["0", "-4"])
    def test_nonpositive_T_is_usage_error(self, t):
        res = run_cli("bound", "--p", "0.5", "--n", "1", "--T", t)
        assert res.returncode == 2
        assert "need n >= 1 and T >= 1" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("log2_t", ["nan", "inf", "-inf"])
    def test_nonfinite_log2_T_is_usage_error(self, log2_t):
        res = run_cli("bound", "--p", "0.5", "--n", "1", f"--log2-T={log2_t}")
        assert res.returncode == 2
        assert "log2(T) must be finite" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("upper", ["nan", "inf"])
    def test_nonfinite_capacity_upper_is_usage_error(self, spec_dir, upper):
        for source in (["--p", "0.5"], [str(spec_dir / "ad03.json"), "--restarts", "2"]):
            res = run_cli("bound", *source, "--n", "1", "--log2-T", "40",
                          f"--capacity-upper={upper}")
            assert res.returncode == 2
            assert "must be finite" in res.stderr
            assert res.stdout == ""


def instrument_circuit(value) -> dict:
    """One qubit measured into a two-valued register, the second outcome
    stored as ``value``."""
    return {
        "layout": {"qubits": [{"label": "q0", "side": "A"}],
                   "classical": [{"label": "c0", "size": 2, "side": "A"}]},
        "noise": {"preset": "identity"},
        "layers": [{"kind": "instrument", "store": "c0", "outcomes": [
            {"value": 0, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]},
            {"value": value, "kraus": [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]},
        ]}],
    }


def ccqq_input_circuit(p=1.0, dim_a=2, layers=()):
    """One A-side qubit with a one-block cc-qq input |0><0| of probability
    ``p`` and declared ``dimA``."""
    block = {"x": [], "y": [], "p": p, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    return {
        "layout": {"qubits": [{"label": "q0", "side": "A"}]},
        "noise": {"preset": "identity"},
        "input": {"kind": "ccqq", "dimA": dim_a, "dimB": 1, "blocks": [block]},
        "layers": list(layers),
    }


def doubled_input_spec(dim_a):
    bell = [[[0.5 if i in (0, 3) and j in (0, 3) else 0.0, 0.0] for j in range(4)] for i in range(4)]
    return {"n": 1, "steps": 1, "p": 0.375, "noise": {"preset": "depolarizing", "p": 0.25},
            "input": {"dimA": dim_a, "dimB": 2, "matrix": bell}}


class TestSimulate:
    def test_doubled_stream(self, tmp_path):
        (tmp_path / "doubled.json").write_text(json.dumps(
            {"n": 1, "steps": 3, "noise": {"preset": "depolarizing", "p": 0.25}, "p": 0.375}
        ))
        res = run_cli("simulate", str(tmp_path / "doubled.json"), "--doubled", "--seed", "1")
        assert res.returncode == 0
        lines = [json.loads(line) for line in res.stdout.strip().splitlines()]
        steps = [l for l in lines if "step" in l]
        summary = [l for l in lines if l.get("type") == "summary"][0]
        assert len(steps) == 4
        assert steps[1]["factor_ok"] is True
        # The endgame number is at most sqrt(chisep) at its step, up to the
        # 1-norm cost of the mix that certifies its point PPT.
        assert set(summary) == {"type", "p_value", "factor", "endgame_step", "endgame_dsep",
                                "width", "length"}
        assert summary["endgame_dsep"] ** 2 <= steps[summary["endgame_step"]]["chisep"] + 1e-10

    def test_plain_circuit(self, tmp_path):
        circuit = {
            "layout": {"qubits": [{"label": "q0", "side": "A"}],
                       "classical": [{"label": "c0", "size": 2, "side": "A"}]},
            "noise": {"preset": "depolarizing", "p": 0.1},
            "input": {"kind": "zeros"},
            "layers": [
                {"kind": "instrument", "store": "c0", "outcomes": [
                    {"value": 0, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]},
                    {"value": 1, "kraus": [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]},
                ]},
                {"kind": "gate", "channel": {"preset": "identity"}},
            ],
        }
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(circuit))
        res = run_cli("simulate", str(path))
        assert res.returncode == 0
        lines = [json.loads(line) for line in res.stdout.strip().splitlines()]
        assert len(lines) == 3
        assert all(abs(l["total_prob"] - 1.0) < 1e-9 for l in lines)

    def test_csv_format(self, tmp_path):
        (tmp_path / "doubled.json").write_text(json.dumps(
            {"n": 1, "steps": 2, "noise": {"preset": "depolarizing", "p": 0.25}, "p": 0.375}
        ))
        res = run_cli("simulate", str(tmp_path / "doubled.json"), "--doubled", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0].startswith("step,total_prob,blocks,chisep")
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]

    def test_duplicate_ccqq_label_exits_two(self, tmp_path):
        bell = np.zeros((4, 4))
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        flip = np.diag([1.0, 1.0, -1.0, -1.0])
        blocks = [{"x": [0], "y": [], "p": 0.5, "matrix": [[[v, 0.0] for v in row] for row in m]}
                  for m in (bell, flip @ bell @ flip)]
        circuit = {
            "layout": {"qubits": [{"label": "a", "side": "A"}, {"label": "b", "side": "B"}],
                       "classical": [{"label": "c0", "size": 2, "side": "A"}]},
            "noise": {"preset": "identity"},
            "input": {"kind": "ccqq", "dimA": 2, "dimB": 2, "blocks": blocks},
            "layers": [],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(circuit))
        res = run_cli("simulate", str(path), "--record-chisep")
        assert res.returncode == 2
        assert "duplicate block label" in res.stderr

    def test_bad_circuit_exits_two(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"layers": [{"kind": "mystery"}], "noise": {"preset": "identity"}}')
        res = run_cli("simulate", str(tmp_path / "bad.json"))
        assert res.returncode == 2
        assert "bad circuit" in res.stderr

    @pytest.mark.parametrize("layer", [
        {"kind": "gate", "channel": {"preset": "identity"}},
        {"kind": "gate", "channel": {"preset": "identity", "dim": 4},
         "controls": [{"x": [0], "y": [], "channel": {"preset": "identity"}}]},
        {"kind": "instrument", "store": "c0", "outcomes": [
            {"value": 0, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]},
            {"value": 1, "kraus": [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]},
        ]},
    ], ids=["gate", "control", "instrument"])
    def test_wrong_sized_layer_operator_exits_two(self, tmp_path, layer):
        # A 2x2 operator on the 4-dimensional register of one qubit per side.
        circuit = {
            "layout": {"qubits": [{"label": "a", "side": "A"}, {"label": "b", "side": "B"}],
                       "classical": [{"label": "c0", "size": 2, "side": "A"}]},
            "noise": {"preset": "identity"},
            "input": {"kind": "bell"},
            "layers": [layer],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(circuit))
        res = run_cli("simulate", str(path))
        assert res.returncode == 2, res.stderr
        assert "bad circuit description" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("spec, extra", [
        ({"n": 1, "steps": -3}, []),
        ({"n": 1}, ["--steps", "-2"]),
        ({"n": 0, "steps": 2, "input": {"dimA": 1, "dimB": 1, "matrix": [[[1.0, 0.0]]]}}, []),
    ], ids=["steps-in-spec", "steps-flag", "zero-width"])
    def test_doubled_out_of_scope_exits_two(self, tmp_path, spec, extra):
        spec = {**spec, "noise": {"preset": "depolarizing", "p": 0.25}, "p": 0.375}
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(spec))
        res = run_cli("simulate", str(path), "--doubled", *extra)
        assert res.returncode == 2, res.stderr
        assert "doubled runs need n >= 1 and steps >= 0" in res.stderr


    @pytest.mark.parametrize("p", ["0", "-0.5", "2", "1e400"])
    def test_doubled_channel_constant_out_of_range_exits_two(self, tmp_path, p):
        path = tmp_path / "doubled.json"
        path.write_text('{"n": 1, "steps": 1, "noise": {"preset": "depolarizing", "p": 0.2}, '
                        f'"p": {p}}}')
        res = run_cli("simulate", str(path), "--doubled")
        assert res.returncode == 2, res.stderr
        assert "p in (0, 1]" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("spec, extra", [
        ([1, 2], []),
        ([1, 2], ["--doubled"]),
        ({"layers": [3], "noise": {"preset": "identity"}}, []),
        ({"layout": {"qubits": [{"label": "q"}], "classical": [{"label": "c", "size": "x"}]},
          "noise": {"preset": "identity"}}, []),
        ({"n": "two", "steps": 1, "p": 0.1, "noise": {"preset": "depolarizing", "p": 0.2}},
         ["--doubled"]),
        ({"n": 1, "steps": 1, "p": "abc", "noise": {"preset": "depolarizing", "p": 0.2}},
         ["--doubled"]),
        ({"layers": [], "noise": {"preset": "depolarizing", "p": "abc"}}, []),
        # Counts must be integral: these were truncated or read as 1.
        ({"layout": {"qubits": [{"label": "q"}], "classical": [{"label": "c", "size": 2.5}]},
          "noise": {"preset": "identity"}}, []),
        ({"layout": {"qubits": [{"label": "q"}], "classical": [{"label": "c", "size": True}]},
          "noise": {"preset": "identity"}}, []),
        ({"n": 1.5, "steps": 1, "p": 0.1, "noise": {"preset": "depolarizing", "p": 0.2}},
         ["--doubled"]),
        ({"n": True, "steps": 1, "p": 0.1, "noise": {"preset": "depolarizing", "p": 0.2}},
         ["--doubled"]),
        ({"n": 1, "steps": 1.5, "p": 0.1, "noise": {"preset": "depolarizing", "p": 0.2}},
         ["--doubled"]),
        ({"n": 1, "steps": True, "p": 0.1, "noise": {"preset": "depolarizing", "p": 0.2}},
         ["--doubled"]),
        (instrument_circuit(1.5), []),
        (instrument_circuit(True), []),
        # A NaN block probability printed NaN; fractional and boolean
        # dimensions were truncated.
        (ccqq_input_circuit(p=float("nan")), []),
        (ccqq_input_circuit(dim_a=2.7), []),
        (ccqq_input_circuit(dim_a=True), []),
        (doubled_input_spec(2.7), ["--doubled"]),
        (doubled_input_spec(True), ["--doubled"]),
    ], ids=["list", "list-doubled", "layer-not-object", "register-size", "doubled-n",
            "doubled-p", "noise-parameter", "register-size-fraction", "register-size-boolean",
            "doubled-n-fraction", "doubled-n-boolean", "doubled-steps-fraction",
            "doubled-steps-boolean", "outcome-value-fraction", "outcome-value-boolean",
            "ccqq-p-nan", "ccqq-dim-fraction", "ccqq-dim-boolean", "doubled-dim-fraction",
            "doubled-dim-boolean"])
    def test_malformed_description_exits_two(self, tmp_path, spec, extra):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        res = run_cli("simulate", str(path), *extra)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("chcon: error: bad circuit description")
        assert "Traceback" not in res.stderr

    def test_nan_probability_is_named_before_any_layer(self, tmp_path):
        # With a layer, the NaN used to surface as a probability total of 0.0.
        gate = {"kind": "gate", "channel": {"preset": "identity"}}
        spec = ccqq_input_circuit(p=float("nan"), layers=[gate])
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(spec))
        res = run_cli("simulate", str(path))
        assert res.returncode == 2 and res.stdout == ""
        assert "block probabilities must be finite and non-negative, got nan" in res.stderr

    def test_integral_float_count_runs(self, tmp_path):
        spec = {"n": 1.0, "steps": 2.0, "p": 0.375, "noise": {"preset": "depolarizing", "p": 0.25}}
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(spec))
        res = run_cli("simulate", str(path), "--doubled")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1])["length"] == 2


class TestVerify:
    def test_pass_exit_zero(self):
        res = run_cli("verify", "trace-chi2", "--trials", "50", "--seed", "3")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["passed"] and doc["checks"] == 50
        assert "PASS" in res.stderr

    def test_unknown_suite_exits_two_with_listing(self):
        res = run_cli("verify", "not-a-suite")
        assert res.returncode == 2
        assert "available suites" in res.stderr

    def test_byte_identical_reruns(self):
        a = run_cli("verify", "trace-chi2", "--trials", "40", "--seed", "9")
        b = run_cli("verify", "trace-chi2", "--trials", "40", "--seed", "9")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_replay_mechanism(self, tmp_path):
        # Hand-build a dump whose recorded witness does not actually violate:
        # replay must confirm it no longer (and never did) violate.
        rho = np.diag([1.0, 0.0]); sigma = np.eye(2) / 2
        dump = {
            "suite": "trace-chi2",
            "config": {"trials": 1, "seed": 0, "restarts": 4},
            "violations": [{
                "index": 0, "dim": 2,
                "trace_distance_sq": 99.0, "chi2": 0.0,
                "rho": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "sigma": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            }],
        }
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump))
        res = run_cli("verify", "--replay", str(path))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["replayed"] == 1
        assert doc["still_violating"] == 0
        assert doc["results"][0]["replayed"]["trace_distance_sq"] == pytest.approx(1.0)

    def test_verify_requires_suite_or_replay(self):
        res = run_cli("verify")
        assert res.returncode == 2

    TRACE_CHI2_RECORD = {"index": 0, "rho": [[[1.0, 0.0]]], "sigma": [[[1.0, 0.0]]]}

    @pytest.mark.parametrize("config, record", [
        ({"seed": 0, "note": 1}, TRACE_CHI2_RECORD),
        ({"seed": 0}, {"index": 0}),
        # The dump's config is held to the CLI's ranges.
        ({"seed": 0, "restarts": 0}, TRACE_CHI2_RECORD),
        ({"seed": 0, "restarts": True}, TRACE_CHI2_RECORD),
        ({"seed": 0, "trials": 1.5}, TRACE_CHI2_RECORD),
        ({"seed": -1}, TRACE_CHI2_RECORD),
        ({"seed": 2**64}, TRACE_CHI2_RECORD),
    ])
    def test_malformed_replay_record_exits_two(self, tmp_path, config, record):
        path = tmp_path / "dump.json"
        path.write_text(json.dumps({"suite": "trace-chi2", "config": config, "violations": [record]}))
        res = run_cli("verify", "--replay", str(path))
        assert res.returncode == 2
        assert "malformed trace-chi2 record" in res.stderr
        assert "Traceback" not in res.stderr

    def test_replay_checks_config_without_violations(self, tmp_path):
        dump = tmp_path / "eta.json"
        assert run_cli("verify", "eta-upper", "--trials", "1", "--out", str(dump)).returncode == 0
        doc = json.loads(dump.read_text())
        assert doc["violations"] == []
        doc["config"]["restarts"] = 0
        dump.write_text(json.dumps(doc))
        res = run_cli("verify", "--replay", str(dump))
        assert res.returncode == 2
        assert "restarts must be an integer >= 1" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("dump, message", [
        ([1, 2], "malformed replay file"),
        ({"reports": 3}, "malformed replay file"),
        ({"suite": [1]}, "unknown suite [1]"),
    ])
    def test_malformed_replay_file_exits_two(self, tmp_path, dump, message):
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump))
        res = run_cli("verify", "--replay", str(path))
        assert res.returncode == 2
        assert message in res.stderr
        assert "Traceback" not in res.stderr

    def test_replay_of_verify_all_report(self, tmp_path):
        # `verify all` writes {"reports": [...]}; replay checks every suite in
        # it and exits 1 because the unitary channel's error record still fails.
        all_path = tmp_path / "all.json"
        res = run_cli("verify", "all", "--trials", "1", "--restarts", "2", "--out", str(all_path))
        assert res.returncode == 0, res.stderr
        doc = json.loads(all_path.read_text())
        unitary = [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]
        split = next(r for r in doc["reports"] if r["suite"] == "unital-split")
        split["violations"] = [{"index": 0, "error": "unitary channel", "kraus": unitary}]
        all_path.write_text(json.dumps(doc))
        res = run_cli("verify", "--replay", str(all_path))
        assert res.returncode == 1, res.stderr
        replayed = json.loads(res.stdout)["reports"]
        assert [r["suite"] for r in replayed] == [r["suite"] for r in doc["reports"]]
        assert [r["still_violating"] for r in replayed] == [
            int(r["suite"] == "unital-split") for r in doc["reports"]
        ]


@pytest.mark.parametrize("argv", [
    ["analyze", "ch.json"],
    ["bound", "--p", "0.5", "--n", "1", "--T", "4"],
    ["verify", "trace-chi2"],
])
def test_format_only_on_simulate(argv):
    # Only simulate honours --format; elsewhere it is a usage error.
    res = run_cli(*argv, "--format", "csv")
    assert res.returncode == 2
    assert "unrecognized arguments: --format" in res.stderr


def test_import_leaves_scipy_linalg_out():
    res = subprocess.run(
        [sys.executable, "-c", "import sys, chcon.cli; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_analyze_and_bound_import_no_scipy(spec_dir):
    # The capacity search and the Bloch normal form run on numpy alone.
    code = (
        "import sys, chcon.cli as cli\n"
        f"path = {str(spec_dir / 'ad03.json')!r}\n"
        "rc = [cli.main(['analyze', path, '--restarts', '4', '--out', path + '.a']),\n"
        "      cli.main(['bound', path, '--n', '2', '--log2-T', '40', '--out', path + '.b'])]\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[0, 0] []"
    bound = json.loads((spec_dir / "ad03.json.b").read_text())
    assert bound["overhead"]["capacity_bracket"]["lower"] > 0.3


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must fit in 64 unsigned bits"),
    ("--seed", str(2**64), "seed must fit in 64 unsigned bits"),
    ("--restarts", "0", "restarts and trials must be positive"),
    ("--trials", "0", "restarts and trials must be positive"),
])
def test_run_setting_range_checks(flag, value, message):
    # bound reads --seed and --restarts; --trials is checked on verify, which reads it.
    cmd = ("verify", "overhead-calculator") if flag == "--trials" else (
        "bound", "--p", "0.5", "--n", "1", "--log2-T", "40")
    res = run_cli(*cmd, flag, value)
    assert res.returncode == 2
    assert message in res.stderr


@pytest.mark.parametrize("cmd, flag", [
    (("simulate", "circuit.json"), "--trials"),
    (("simulate", "circuit.json"), "--restarts"),
    (("bound", "--p", "0.5", "--n", "1", "--log2-T", "40"), "--trials"),
])
def test_subcommands_reject_flags_they_do_not_read(cmd, flag):
    res = run_cli(*cmd, flag, "3")
    assert res.returncode == 2
    assert f"unrecognized arguments: {flag}" in res.stderr


class TestDeterminism:
    def test_analyze_byte_identical(self, spec_dir):
        a = run_cli("analyze", str(spec_dir / "ad03.json"), "--restarts", "4", "--seed", "11")
        b = run_cli("analyze", str(spec_dir / "ad03.json"), "--restarts", "4", "--seed", "11")
        assert a.stdout == b.stdout


def test_cached_parser_leaks_nothing_between_calls(monkeypatch):
    # main runs back to back in one process with one parser; each call must
    # parse exactly what a freshly built parser parses from the same argv.
    from chcon import cli

    assert cli.build_parser() is cli.build_parser()
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        ns = parse_args(self, *args, **kwargs)
        seen.append(dict(vars(ns)))
        ns.fn = lambda _args: 0  # parsing only; no command runs
        return ns

    argvs = [
        ["analyze", "a.json", "--trials", "7", "--restarts", "3", "--seed", "5", "--out", "x"],
        ["analyze", "b.json"],
        ["simulate", "c.json", "--doubled", "--record-chisep", "--format", "csv", "--steps", "4"],
        ["simulate", "c.json"],
        ["verify", "all", "--trials", "2", "--seed", "9"],
        ["verify", "--replay", "r.json"],
        ["bound", "--p", "0.5", "--n", "1", "--log2-T", "40", "--restarts", "2"],
        ["bound", "ch.json", "--n", "2", "--T", "8"],
        ["analyze", "a.json"],
    ]
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert [cli.main(argv) for argv in argvs] == [0] * len(argvs)
    monkeypatch.undo()
    fresh = [dict(vars(cli.build_parser.__wrapped__().parse_args(argv))) for argv in argvs]
    assert seen == fresh
    # The subcommand default set through set_defaults comes back after an override.
    assert seen[0]["trials"] == 7 and seen[1]["trials"] == 200 and seen[-1]["trials"] == 200
    assert seen[3]["doubled"] is False and seen[3]["fmt"] == "json" and seen[3]["steps"] is None
    assert seen[5]["trials"] is None and seen[5]["seed"] == 0 and seen[5]["suite"] is None
    assert "trials" not in seen[6] and seen[7]["restarts"] == 12 and seen[7]["p"] is None
