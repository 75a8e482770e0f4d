"""Acceptance battery: the quantitative exit criteria, one test per criterion.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s``) and
asserts both the inequality checks at their stated tolerances and the
runtime budget.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from chcon.bounds import CapacityBracket, capacity_bracket, overhead_lower_bound
from chcon.channels import amplitude_damping, bell_state, depolarizing
from chcon.decompose import p2_certificate
from chcon.separability import BipartiteState
from chcon.simulate import doubled_memory_experiment
from chcon.verify import (
    VerifyConfig,
    suite_ccqq_formula,
    suite_eta_upper,
    suite_sep_step,
    suite_stability,
    suite_trace_chi2,
    suite_unital_split,
)

SEED = 424242


def announce(criterion: str, passed: bool, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")


def test_criterion_1_squared_trace_distance_vs_chi2():
    budget = 10.0
    t0 = time.monotonic()
    rep = suite_trace_chi2(VerifyConfig(trials=1000, seed=SEED))
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < budget
    announce("1 squared-trace-distance vs chi2 (1000 pairs)", ok, elapsed, budget)
    assert rep.passed, rep.violations[:3]
    assert elapsed < budget


def test_criterion_2_contraction_upper_bounds():
    budget = 120.0
    t0 = time.monotonic()
    rep = suite_eta_upper(VerifyConfig(trials=500, seed=SEED, restarts=12))
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < budget
    announce("2 contraction upper bounds (500 channels)", ok, elapsed, budget)
    assert rep.passed, rep.violations[:3]
    assert elapsed < budget


def test_criterion_3_unital_split():
    budget = 30.0
    t0 = time.monotonic()
    rep = suite_unital_split(VerifyConfig(trials=300, seed=SEED))
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < budget
    announce("3 unital split (300 channels + pinned depolarizing)", ok, elapsed, budget)
    assert rep.passed, rep.violations[:3]
    assert abs(rep.extras["depolarizing_p1"] - 0.3) <= 1e-6
    assert abs(rep.extras["depolarizing_p1"] - rep.extras["bisect_oracle"]) <= 1e-6
    assert elapsed < budget


def _bell():
    return BipartiteState.from_matrix(bell_state().matrix, 2, 2)


@pytest.fixture(scope="module")
def doubled_runs():
    """Criteria 4 and 5 share the two pinned ten-step trajectories."""
    t0 = time.monotonic()
    dep = doubled_memory_experiment(1, depolarizing(0.25), 10, _bell(), p_value=0.375, seed=SEED)
    p2 = p2_certificate(amplitude_damping(0.3))
    ad = doubled_memory_experiment(1, amplitude_damping(0.3), 10, _bell(), p_value=p2, seed=SEED)
    return dep, ad, p2, time.monotonic() - t0


def test_criterion_4_doubled_memory_contraction(doubled_runs):
    budget = 300.0
    dep, ad, p2, elapsed = doubled_runs
    factor_dep = 1.0 - (3 * 0.25 / 2) ** 2
    assert factor_dep == pytest.approx(0.859375)
    ok = True
    for s in dep.steps[1:]:
        prev = dep.steps[s.index - 1].chisep_value
        ok &= s.chisep_value <= factor_dep * prev + 1e-3
        if s.ratio is not None:
            ok &= s.ratio <= factor_dep + 1e-3
    factor_ad = 1.0 - p2**2
    for s in ad.steps[1:]:
        prev = ad.steps[s.index - 1].chisep_value
        if prev >= 1 / 16:
            ok &= s.chisep_value <= factor_ad * prev + 1e-3
            if s.ratio is not None:
                ok &= s.ratio <= factor_ad + 1e-3
    announce("4 doubled-memory per-step contraction (dep 0.25, AD 0.3)", ok and elapsed < budget,
             elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_5_endgame_distance(doubled_runs):
    dep, ad, _, elapsed = doubled_runs
    ok = True
    for rep in (dep, ad):
        assert rep.endgame_step is not None, "trajectory never crossed the 1/16 threshold"
        ok &= rep.endgame_dsep <= 0.25 + 1e-3
    announce("5 endgame separable distance <= 1/4 + 1e-3", ok, elapsed, 300.0)
    assert ok


def test_criterion_6_ccqq_formula_and_bound():
    budget = 300.0
    t0 = time.monotonic()
    rep = suite_ccqq_formula(VerifyConfig(trials=50, seed=SEED))
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < budget
    announce("6 cc-qq block formula (50 agreements, 200 bound checks)", ok, elapsed, budget)
    assert rep.passed, rep.violations[:3]
    assert rep.extras["worst_formula_gap"] <= 1e-3
    assert rep.extras["bound_states"] == 200
    assert elapsed < budget


def test_criterion_7_separable_step_contraction():
    budget = 600.0
    t0 = time.monotonic()
    rep = suite_sep_step(VerifyConfig(trials=50, seed=SEED))
    elapsed = time.monotonic() - t0
    ok = rep.passed and rep.checks == 50 and elapsed < budget
    announce("7 separable-step chi2 contraction (50 instances)", ok, elapsed, budget)
    assert rep.checks == 50
    assert rep.passed, rep.violations[:3]
    assert elapsed < budget


def test_criterion_8_near_identity_stability():
    budget = 120.0
    t0 = time.monotonic()
    rep = suite_stability(VerifyConfig(trials=100, seed=SEED, restarts=8))
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < budget
    announce("8 near-identity stability (100 channels)", ok, elapsed, budget)
    assert rep.passed, rep.violations[:3]
    assert elapsed < budget


def test_criterion_9_overhead_calculator():
    budget = 5.0
    t0 = time.monotonic()
    br = capacity_bracket(depolarizing(0.4), restarts=4, seed=SEED)
    impossible = overhead_lower_bound(10, math.log2(100), 0.6, br).impossible

    trivial = CapacityBracket(0.0, 1.0, "none", "trivial_log_d")
    pinned = overhead_lower_bound(1, 40.0, 0.5, trivial)
    exact = pinned.alpha == 0.25 and pinned.bound_value == 10.0

    monotone = True
    vals = {}
    for n in range(1, 6):
        for t in range(1, 6):
            vals[(n, t)] = overhead_lower_bound(n, 7.0 * t, 0.5, trivial).bound_value
    for n in range(1, 6):
        for t in range(1, 6):
            if n > 1:
                monotone &= vals[(n, t)] >= vals[(n - 1, t)] - 1e-12
            if t > 1:
                monotone &= vals[(n, t)] >= vals[(n, t - 1)] - 1e-12
    elapsed = time.monotonic() - t0
    ok = impossible and exact and monotone and elapsed < budget
    announce("9 overhead calculator (impossible / exact log term / monotone)", ok, elapsed, budget)
    assert impossible and exact and monotone
    assert elapsed < budget


def test_criterion_10_byte_identical_reports():
    # The determinism contract is configuration-independent; the battery is
    # re-run here at reduced trial counts to keep the gate fast.
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "chcon.cli", "verify", "all",
           "--trials", "4", "--seed", str(SEED), "--restarts", "6"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    ok = (first.stdout == second.stdout and first.returncode == second.returncode == 0)
    announce("10 byte-identical verification reports", ok, elapsed, 600.0)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert all(r["passed"] for r in doc["reports"])
