"""Replay of dumped suite records: the replay runs each suite's own check."""

import dataclasses
import json

import numpy as np
import pytest

import chcon.verify as V
from chcon import serialize as ser
from chcon.channels import (
    ChannelError,
    KrausChannel,
    amplitude_damping,
    completely_depolarizing,
    depolarizing,
)
from chcon.decompose import p_constant, unital_split
from chcon.sampling import (
    random_near_identity_qubit_channel,
    random_nonunital_qubit_channel,
    random_unital_qubit_channel,
    rng_from,
)
from chcon.separability import PreconditionError, SepConfig, chisep_ccqq

SEED = 7


def _first_sep_step(cfg):
    for index in range(20):
        try:
            return V._check_sep_step(index, *V.sep_step_instance(cfg.seed, index), cfg)
        except PreconditionError:
            continue
    raise AssertionError("no instance met the sep-step precondition")


def _unital_trajectory(cfg):
    noise = random_unital_qubit_channel(rng_from(cfg.seed, 0), max_weight=0.95)
    return V._trajectory_checks(0, noise, 2, cfg, unital_split(noise).p1)[1]


def _nonunital_trajectory(cfg):
    noise = random_nonunital_qubit_channel(rng_from(cfg.seed, 10_000), min_nonunitality=0.05)
    p = p_constant(noise, eb_candidates=4, seed=cfg.seed).p
    return V._trajectory_checks(0, noise, 2, cfg, p)[1]


# Every kind of record each suite writes, for seeded instances.
SEEDED_CHECKS = {
    "trace-chi2": lambda cfg: [V._check_trace_chi2(0, *V._trace_chi2_instance(cfg.seed, 0))],
    "eta-upper": lambda cfg: [
        V._check_eta_upper(i, V._eta_upper_instance(cfg.seed, i), cfg) for i in (0, 1)
    ],
    "chi2-vs-trace-contraction": lambda cfg: [
        V._check_chi2_vs_trace(i, V._eta_upper_instance(cfg.seed, i), cfg) for i in (0, 1)
    ],
    "unital-split": lambda cfg: [
        V._check_unital_split(0, random_unital_qubit_channel(rng_from(cfg.seed, 0))),
        V._check_unital_split(1, depolarizing(0.0)),
        V._check_unital_pin(),
    ],
    "doubled-contraction-unital": lambda cfg: (
        _unital_trajectory(cfg)
        + V._trajectory_checks("depolarizing(0.6)", depolarizing(0.6), 2, cfg, 0.9)[1]
    ),
    "doubled-contraction-nonunital": lambda cfg: (
        _nonunital_trajectory(cfg)
        + V._trajectory_checks("amplitude_damping(0.9)", amplitude_damping(0.9), 2, cfg)[1]
    ),
    "ccqq-formula": lambda cfg: [
        V._check_ccqq_formula(0, V._random_two_block_state(cfg.seed, 0), cfg),
        V._check_ccqq_bound(50_000, V._random_two_block_state(cfg.seed, 50_000, True), cfg),
    ],
    "sep-step-contraction": lambda cfg: [_first_sep_step(cfg)],
    "near-identity-stability": lambda cfg: [
        V._check_stability(0, random_near_identity_qubit_channel(rng_from(cfg.seed, 0), 0.05), cfg),
        V._check_stability(1, random_near_identity_qubit_channel(rng_from(cfg.seed, 1), 0.5), cfg),
    ],
    "overhead-calculator": lambda cfg: V._overhead_checks(cfg)[:4],
}


def _dumped(obj):
    return json.loads(ser.dumps_canonical(obj))


def test_every_suite_has_seeded_checks():
    assert sorted(SEEDED_CHECKS) == sorted(V.SUITES)


@pytest.mark.parametrize("suite", sorted(V.SUITES))
def test_replay_reruns_the_suite_check(suite):
    cfg = V.VerifyConfig(trials=2, seed=SEED, restarts=4)
    dumped_cfg = V.VerifyConfig(**_dumped(dataclasses.asdict(cfg)))
    checks = SEEDED_CHECKS[suite](cfg)
    assert checks
    for record, violates in checks:
        dumped = _dumped(record)
        out = V.replay_violation(suite, dumped, dumped_cfg)
        assert _dumped(out["replayed"]) == dumped
        assert out["still_violates"] is bool(violates)
        assert {k: out[k] for k in dumped} == dumped


def test_trajectory_records_cover_the_endgame():
    cfg = V.VerifyConfig(seed=SEED)
    for suite in ("doubled-contraction-unital", "doubled-contraction-nonunital"):
        assert any("endgame_dsep" in r for r, _ in SEEDED_CHECKS[suite](cfg))


def test_endgame_verdict_has_no_slack(monkeypatch):
    # Completely depolarizing noise reaches the endgame at step 1; its
    # number, stubbed here, violates exactly when it is above 1/4.
    import chcon.simulate

    cfg = V.VerifyConfig(seed=SEED)

    def violates(value):
        monkeypatch.setattr(chcon.simulate, "dsep_upper", lambda tau, sigma, *dims: (value, sigma))
        rep, checks = V._trajectory_checks("stub", completely_depolarizing(), 1, cfg, 1.0)
        assert rep.endgame_step == 1
        [(record, bad)] = [(r, bad) for r, bad in checks if "endgame_dsep" in r]
        assert record["endgame_dsep"] == value
        assert sorted(k for k in record if k.startswith("endgame")) == ["endgame_dsep", "endgame_step"]
        return bad

    assert not violates(0.25)
    assert violates(np.nextafter(0.25, 1.0))


def test_unital_split_error_witness_replays():
    # A unitary channel has no split; its error record still violates on replay.
    ch = KrausChannel.from_kraus([np.array([[1, 1], [1, -1]]) / np.sqrt(2)])
    with pytest.raises(ChannelError, match="unitary") as err:
        unital_split(ch)
    record = {"index": 3, "error": str(err.value), "kraus": [ser.matrix_to_json(k) for k in ch.kraus]}
    out = V.replay_violation("unital-split", _dumped(record), V.VerifyConfig())
    assert out["still_violates"] is True
    assert _dumped(out["replayed"]) == _dumped(record)


def test_ccqq_bound_record_replays_with_the_suite_solver():
    # The bound check runs a looser solver than the formula check; replaying
    # index 50_011 with the formula check's settings moves the value by 3e-10.
    s = V._random_two_block_state(0, 50_011)
    value = chisep_ccqq(s, SepConfig(obj_tol=1e-6, max_iter=2000)).value
    record = {"index": 50_011, "value": value, "state": ser.ccqq_to_json(s)}
    out = V.replay_violation("ccqq-formula", _dumped(record), V.VerifyConfig())
    assert out["replayed"]["value"] == value
    assert out["still_violates"] is False


@pytest.mark.parametrize("kwargs", [
    {"restarts": 0}, {"restarts": True}, {"restarts": 2.0},
    {"trials": 0}, {"trials": 1.5}, {"trials": False},
    {"seed": -1}, {"seed": 2**64}, {"seed": True}, {"seed": "0"},
])
def test_config_rejects_unusable_settings(kwargs):
    with pytest.raises(ChannelError):
        V.VerifyConfig(**kwargs)


def test_config_accepts_range_ends():
    cfg = V.VerifyConfig(trials=1, seed=2**64 - 1, restarts=1)
    assert (cfg.trials, cfg.seed, cfg.restarts) == (1, 2**64 - 1, 1)
    assert V.VerifyConfig(trials=None).n(50) == 50


@pytest.mark.parametrize("error", [RuntimeError("solver crashed"), ChannelError("not a density")])
def test_sep_step_suite_surfaces_other_errors(monkeypatch, error):
    # Only a failed chi-square precondition skips an instance.
    def crash(*args, **kwargs):
        raise error

    monkeypatch.setattr(V, "verify_contraction_step", crash)
    with pytest.raises(type(error), match=str(error)):
        V.suite_sep_step(V.VerifyConfig(trials=1))


def test_sep_step_suite_skips_failed_preconditions(monkeypatch):
    def below(*args, **kwargs):
        raise PreconditionError("precondition violated")

    monkeypatch.setattr(V, "verify_contraction_step", below)
    rep = V.suite_sep_step(V.VerifyConfig(trials=1))
    assert rep.checks == 0 and rep.extras["attempts"] == 20
