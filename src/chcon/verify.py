"""Named verification suites: each re-checks one of the library's core
inequalities on seeded random corpora and reports violations with full
replayable witnesses.

Each suite has one check that takes an instance and returns its record and
its verdict, ``(record, violates)``.  The suite draws every instance from
(seed, index) alone and reports the records that violate;
``replay_violation`` decodes the instance from a dumped record and runs the
same check under the dump's configuration, so a dumped witness replays to
the same numbers.  Reports contain no timestamps and serialize
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from . import serialize as ser
from .bounds import CapacityBracket, capacity_bracket, overhead_lower_bound, verify_stability_lemma
from .channels import (
    ChannelError,
    KrausChannel,
    bell_state,
    check_int,
    choi_distance,
    depolarizing,
    amplitude_damping,
)
from .config import CHISEP_THRESHOLD, VERDICT_SLACK
from .contraction import eta_chi_lower, eta_tr, eta_tr_upper_choi, eta_tr_upper_minoutev
from .decompose import corner_feasibility, is_entanglement_breaking, p_constant, unital_split
from .divergences import chi2_divergence, trace_distance
from .sampling import (
    haar_unitary,
    random_channel,
    random_density,
    random_full_rank_density,
    random_near_identity_qubit_channel,
    random_nonunital_qubit_channel,
    random_unital_qubit_channel,
    rng_from,
)
from .separability import (
    BipartiteState,
    CcQqState,
    PreconditionError,
    SepConfig,
    chisep_ccqq,
    chisep_ccqq_blockdiag,
    mixture_of_local_pairs,
    verify_contraction_step,
)
from .simulate import doubled_memory_experiment

# Steps of each random doubled-memory trajectory (the pinned runs take 10).
DOUBLED_STEPS = 5
# Distance from the identity of the near-identity stability corpus.
STABILITY_STRENGTH = 0.05


@dataclass(frozen=True)
class VerifyConfig:
    """Settings of a suite run, as the CLI takes them or a dump records them.

    ``trials`` (or None, for each suite's default) and ``restarts`` must be
    integers >= 1 and ``seed`` an integer in [0, 2**64); booleans and
    anything else raise ``ChannelError``.
    """

    trials: int | None = None
    seed: int = 0
    restarts: int = 12

    def __post_init__(self):
        if self.trials is not None:
            check_int("trials", self.trials, 1)
        check_int("seed", self.seed, 0, 2**64)
        check_int("restarts", self.restarts, 1)

    def n(self, default: int) -> int:
        return self.trials if self.trials is not None else default


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: int
    violations: tuple
    passed: bool
    config: dict
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checks": self.checks,
            "violations": list(self.violations),
            "passed": self.passed,
            "config": self.config,
            "extras": self.extras,
        }


def _report(suite, cfg, checks, violations, extras=None):
    return SuiteReport(
        suite=suite,
        checks=checks,
        violations=tuple(violations),
        passed=not violations,
        config={"trials": cfg.trials, "seed": cfg.seed, "restarts": cfg.restarts},
        extras=extras or {},
    )


def _failing(checks) -> list:
    """The records of the (record, violates) pairs that violate."""
    return [record for record, violates in checks if violates]


def _kraus_to_json(ch: KrausChannel) -> list:
    return [ser.matrix_to_json(k) for k in ch.kraus]


def _kraus_from_json(record: dict) -> KrausChannel:
    return KrausChannel.from_kraus([ser.matrix_from_json(k) for k in record["kraus"]])


# ---------------------------------------------------------------------------
# Squared trace distance vs chi-square
# ---------------------------------------------------------------------------


def _trace_chi2_instance(seed: int, index: int):
    rng = rng_from(seed, index)
    d = int(rng.choice([2, 3, 4]))
    return random_density(rng, d), random_full_rank_density(rng, d, floor=1e-3)


def _check_trace_chi2(index, rho, sigma):
    td = trace_distance(rho, sigma)
    chi = chi2_divergence(rho, sigma)
    record = {
        "index": index,
        "dim": rho.shape[0],
        "trace_distance_sq": td * td,
        "chi2": chi,
        "rho": ser.matrix_to_json(rho),
        "sigma": ser.matrix_to_json(sigma),
    }
    return record, td * td > chi + 1e-8


def suite_trace_chi2(cfg: VerifyConfig) -> SuiteReport:
    """||rho - sigma||_1^2 <= chi2(rho, sigma) + 1e-8 on full-rank sigma."""
    n = cfg.n(1000)
    checks = (_check_trace_chi2(i, *_trace_chi2_instance(cfg.seed, i)) for i in range(n))
    return _report("trace-chi2", cfg, n, _failing(checks))


# ---------------------------------------------------------------------------
# Contraction-coefficient upper bounds
# ---------------------------------------------------------------------------


def _eta_upper_instance(seed: int, index: int) -> KrausChannel:
    rng = rng_from(seed, index)
    d = 2 if index % 2 == 0 else 3
    return random_channel(rng, d)


def _check_eta_upper(index, ch, cfg):
    est = eta_tr(ch, restarts=cfg.restarts, seed=cfg.seed + index).value
    up = eta_tr_upper_minoutev(ch, restarts=cfg.restarts, seed=cfg.seed + index)
    lam_out = up.extras["lambda_min_out"]
    lam_choi = eta_tr_upper_choi(ch).extras["lambda_min_choi"]
    record = {
        "index": index,
        "eta_estimate": est,
        "minout_bound": up.value,
        "lambda_min_out": lam_out,
        "lambda_min_choi": lam_choi,
        "kraus": _kraus_to_json(ch),
    }
    return record, est > up.value + 1e-6 or lam_out < lam_choi - 1e-8


def suite_eta_upper(cfg: VerifyConfig) -> SuiteReport:
    """Estimated trace-norm contraction <= sqrt(1 - lmin_out/d^2) + 1e-6 and
    lmin_out >= lmin(Choi of the adjoint composition) - 1e-8."""
    n = cfg.n(500)
    checks = (_check_eta_upper(i, _eta_upper_instance(cfg.seed, i), cfg) for i in range(n))
    return _report("eta-upper", cfg, n, _failing(checks))


def _check_chi2_vs_trace(index, ch, cfg):
    chi_est = eta_chi_lower(ch, trials=50, seed=cfg.seed + index).value
    tr_est = eta_tr(ch, restarts=cfg.restarts, seed=cfg.seed + index).value
    record = {"index": index, "eta_chi_lower": chi_est, "eta_tr": tr_est, "kraus": _kraus_to_json(ch)}
    return record, chi_est > tr_est + 1e-6


def suite_chi2_vs_trace_contraction(cfg: VerifyConfig) -> SuiteReport:
    """Chi-square contraction estimate <= trace-norm estimate + 1e-6.

    The chi-square side is exact at each reference state it tries and so is
    a lower estimate of the coefficient; the trace-norm side is exact for
    qubits and a multistart lower estimate above.
    """
    n = cfg.n(200)
    checks = (_check_chi2_vs_trace(i, _eta_upper_instance(cfg.seed, i), cfg) for i in range(n))
    return _report("chi2-vs-trace-contraction", cfg, n, _failing(checks))


# ---------------------------------------------------------------------------
# Unital split
# ---------------------------------------------------------------------------


def corner_max_q_bisect(lam, corner: int, feas_tol: float = 1e-9, tol: float = 1e-10) -> float | None:
    """Independent grid-plus-bisection solver for the per-corner split weight.

    Scans a grid for feasibility of the octahedron condition and bisects the
    upper boundary; deliberately avoids the exact piecewise-linear solver so
    the two routes cross-check each other.
    """
    grid = np.linspace(0.0, 1.0, 201)
    feasible = [q for q in grid if corner_feasibility(lam, corner, q) <= feas_tol]
    if not feasible:
        return None
    lo = max(feasible)
    if lo >= 1.0:
        return 1.0
    hi = lo + (grid[1] - grid[0])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if corner_feasibility(lam, corner, mid) <= feas_tol:
            lo = mid
        else:
            hi = mid
    return lo


def p1_bisect_oracle(lam) -> float:
    vals = [corner_max_q_bisect(lam, c) for c in range(4)]
    vals = [v for v in vals if v is not None]
    return max(vals) if vals else 0.0


def mix_channels(weight: float, a: KrausChannel, b: KrausChannel) -> KrausChannel:
    ops = [np.sqrt(1.0 - weight) * k for k in a.kraus]
    ops += [np.sqrt(weight) * k for k in b.kraus]
    return KrausChannel.from_kraus(ops)


def _check_unital_split(index, ch):
    try:
        sp = unital_split(ch)
        err = choi_distance(ch, mix_channels(sp.p1, sp.unitary_part, sp.eb_part))
        eb_ok = is_entanglement_breaking(sp.eb_part)
    except Exception as exc:  # noqa: BLE001 - suite reports, never raises
        return {"index": index, "error": str(exc), "kraus": _kraus_to_json(ch)}, True
    record = {
        "index": index,
        "reconstruction_error": err,
        "eb_part_ppt": eb_ok,
        "p1": sp.p1,
        "kraus": _kraus_to_json(ch),
    }
    return record, not (err <= 1e-7 and eb_ok and sp.p1 > 0.0)


def _check_unital_pin():
    """Pinned cross-check: depolarizing(0.2) against the independent oracle."""
    p1 = unital_split(depolarizing(0.2)).p1
    oracle = p1_bisect_oracle((0.8, 0.8, 0.8))
    record = {"index": "depolarizing(0.2)", "p1": p1, "oracle": oracle}
    return record, not (abs(p1 - 0.3) <= 1e-6 and abs(p1 - oracle) <= 1e-6)


def suite_unital_split(cfg: VerifyConfig) -> SuiteReport:
    """Random unital non-unitary qubit channels split into unitary plus
    entanglement-breaking parts: reconstruction within 1e-7, the breaking
    part confirmed by the partial-transpose test, the weight positive, and
    the depolarizing pin cross-checked against the bisection oracle."""
    n = cfg.n(300)
    checks = [
        _check_unital_split(i, random_unital_qubit_channel(rng_from(cfg.seed, i))) for i in range(n)
    ]
    pin = _check_unital_pin()
    return _report(
        "unital-split", cfg, n + 1, _failing(checks + [pin]),
        extras={"depolarizing_p1": pin[0]["p1"], "bisect_oracle": pin[0]["oracle"]},
    )


# ---------------------------------------------------------------------------
# Doubled-memory contraction
# ---------------------------------------------------------------------------


def _bell() -> BipartiteState:
    return BipartiteState.from_matrix(bell_state().matrix, 2, 2)


def _trajectory_checks(index, noise, steps, cfg, p_value=None):
    """Run one doubled-memory trajectory; return its report and a (record,
    violates) pair for every step's contraction factor and for the endgame
    distance, an upper side that violates above 1/4 with no slack."""
    rep = doubled_memory_experiment(1, noise, steps, _bell(), p_value=p_value, seed=cfg.seed)
    context = {
        "index": index,
        "steps": steps,
        "p_value": rep.extras["p_value"],
        "unital": rep.extras["unital_noise"],
        "kraus": _kraus_to_json(noise),
    }
    checks = [
        (
            {**context, "step": s.index, "chisep": s.chisep_value, "ratio": s.ratio,
             "factor_bound": s.factor_bound},
            s.factor_ok is False,
        )
        for s in rep.steps[1:]
    ]
    if rep.endgame_dsep is not None:
        checks.append((
            {**context, "endgame_step": rep.endgame_step, "endgame_dsep": rep.endgame_dsep},
            rep.endgame_dsep > 0.25,
        ))
    return rep, checks


def suite_doubled_unital(cfg: VerifyConfig) -> SuiteReport:
    """Per-step contraction of the separability chi-square in the doubled
    experiment for unital noise, checked at every step, plus the pinned
    depolarizing(0.25) ten-step run and its endgame distance."""
    n = cfg.n(20)
    violations = []
    for i in range(n):
        noise = random_unital_qubit_channel(rng_from(cfg.seed, i), max_weight=0.95)
        _, checks = _trajectory_checks(i, noise, DOUBLED_STEPS, cfg, unital_split(noise).p1)
        violations += _failing(checks)
    pinned, checks = _trajectory_checks("depolarizing(0.25)", depolarizing(0.25), 10, cfg, 0.375)
    violations += _failing(checks)
    return _report(
        "doubled-contraction-unital", cfg, n + 1, violations,
        extras={
            "pinned_factor": pinned.extras["factor"],
            "pinned_chisep": [s.chisep_value for s in pinned.steps],
            "pinned_endgame_dsep": pinned.endgame_dsep,
        },
    )


def suite_doubled_nonunital(cfg: VerifyConfig) -> SuiteReport:
    """Same contraction check for non-unital noise, asserted only while the
    chi-square distance stays above the 1/16 threshold, with the pinned
    amplitude-damping(0.3) ten-step run."""
    n = cfg.n(20)
    violations = []
    for i in range(n):
        noise = random_nonunital_qubit_channel(rng_from(cfg.seed, 10_000 + i), min_nonunitality=0.05)
        p = p_constant(noise, eb_candidates=16, seed=cfg.seed + i).p
        _, checks = _trajectory_checks(i, noise, DOUBLED_STEPS, cfg, p)
        violations += _failing(checks)
    pinned, checks = _trajectory_checks("amplitude_damping(0.3)", amplitude_damping(0.3), 10, cfg)
    violations += _failing(checks)
    return _report(
        "doubled-contraction-nonunital", cfg, n + 1, violations,
        extras={
            "pinned_p": pinned.extras["p_value"],
            "pinned_chisep": [s.chisep_value for s in pinned.steps],
            "pinned_endgame_step": pinned.endgame_step,
            "pinned_endgame_dsep": pinned.endgame_dsep,
        },
    )


# ---------------------------------------------------------------------------
# Classical-quantum block formula
# ---------------------------------------------------------------------------


def _random_two_block_state(seed: int, index: int, entangled_bias: bool = False) -> CcQqState:
    rng = rng_from(seed, index)
    probs = rng.dirichlet((2.0, 2.0))
    blocks = []
    for b in range(2):
        if entangled_bias:
            w = rng.uniform(0.6, 1.0)
            u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            rho = w * bell_state().matrix + (1.0 - w) * np.eye(4) / 4
            rho = u @ rho @ la.dag(u)
        else:
            rho = random_density(rng, 4)
        blocks.append(((b,), (b,), probs[b], rho))
    return CcQqState.from_blocks(2, 2, blocks)


def _check_ccqq_formula(index, s, cfg):
    f = chisep_ccqq(s).value
    d = chisep_ccqq_blockdiag(s).value
    return {"index": index, "formula": f, "direct": d, "state": ser.ccqq_to_json(s)}, abs(f - d) > 1e-3


def _check_ccqq_bound(index, s, cfg):
    val = chisep_ccqq(s, SepConfig(obj_tol=1e-6, max_iter=2000)).value
    return {"index": index, "value": val, "state": ser.ccqq_to_json(s)}, val > 3.0 + VERDICT_SLACK


def suite_ccqq_formula(cfg: VerifyConfig) -> SuiteReport:
    """The closed block formula for the chi-square separability distance of
    cc-qq states agrees with direct block-diagonal minimization within 1e-3,
    and the dimensional bound dA dB - 1 holds with 1e-6 slack on four times
    as many states."""
    n_agree = cfg.n(50)
    n_bound = 4 * n_agree
    agree = [_check_ccqq_formula(i, _random_two_block_state(cfg.seed, i), cfg) for i in range(n_agree)]
    bound = [
        _check_ccqq_bound(
            50_000 + i, _random_two_block_state(cfg.seed, 50_000 + i, entangled_bias=(i % 2 == 0)), cfg
        )
        for i in range(n_bound)
    ]
    worst_gap = max([0.0] + [abs(r["formula"] - r["direct"]) for r, _ in agree])
    return _report(
        "ccqq-formula", cfg, n_agree + n_bound, _failing(agree + bound),
        extras={"worst_formula_gap": worst_gap, "bound_states": n_bound},
    )


# ---------------------------------------------------------------------------
# Single-step separable-channel contraction
# ---------------------------------------------------------------------------


def _random_separable_channel(rng):
    terms = []
    weights = rng.dirichlet((1.5, 1.5))
    for w in weights:
        terms.append((float(w), random_channel(rng, 2), random_channel(rng, 2)))
    return mixture_of_local_pairs(terms)


def sep_step_instance(seed: int, index: int):
    rng = rng_from(seed, 90_000 + index)
    state = _random_two_block_state(seed, 90_000 + index, entangled_bias=True)
    channel = _random_separable_channel(rng)
    return state, channel


def _check_sep_step(index, state, channel, cfg):
    """Raises ``PreconditionError`` when the instance does not meet the
    step's chi-square precondition."""
    rep = verify_contraction_step(state, channel, CHISEP_THRESHOLD, cfg.seed)
    record = {
        "index": index,
        "chi_in": rep.chi_in,
        "chi_out": rep.chi_out,
        "eta_upper": rep.eta_upper,
        "rhs": rep.rhs,
        "state": ser.ccqq_to_json(state),
        "channel": ser.separable_channel_to_json(channel),
    }
    return record, not rep.passed


def suite_sep_step(cfg: VerifyConfig) -> SuiteReport:
    """One separable-channel step contracts the chi-square separability
    distance by at least the eps^2/100 margin, using the certified upper
    bound on the channel's contraction coefficient."""
    n = cfg.n(50)
    checks = []
    attempts = 0
    while len(checks) < n and attempts < 20 * n:
        state, channel = sep_step_instance(cfg.seed, attempts)
        attempts += 1
        try:
            checks.append(_check_sep_step(attempts - 1, state, channel, cfg))
        except PreconditionError:
            continue  # precondition not met; draw the next instance
    return _report("sep-step-contraction", cfg, len(checks), _failing(checks),
                   extras={"epsilon": CHISEP_THRESHOLD, "attempts": attempts})


# ---------------------------------------------------------------------------
# Near-identity stability
# ---------------------------------------------------------------------------


def _check_stability(index, ch, cfg):
    rep = verify_stability_lemma(ch, restarts=cfg.restarts, seed=cfg.seed + index)
    record = {
        "index": index,
        "epsilon": rep.epsilon,
        "extended_estimate": rep.extended_estimate,
        "extended_bound": rep.extended_bound,
        "doubled_estimate": rep.doubled_estimate,
        "doubled_bound": rep.doubled_bound,
        "kraus": _kraus_to_json(ch),
    }
    # The lemma only covers channels within 0.1 of the identity.
    return record, not (rep.epsilon > 0.1 or rep.passed)


def suite_stability(cfg: VerifyConfig) -> SuiteReport:
    """Channels within 0.1 of the identity in induced trace norm satisfy the
    sqrt(2 eps) extension bound (and its doubled form)."""
    n = cfg.n(100)
    checks = (
        _check_stability(
            i, random_near_identity_qubit_channel(rng_from(cfg.seed, i), STABILITY_STRENGTH), cfg
        )
        for i in range(n)
    )
    return _report("near-identity-stability", cfg, n, _failing(checks))


# ---------------------------------------------------------------------------
# Overhead calculator
# ---------------------------------------------------------------------------


def _overhead_checks(cfg):
    """(record, violates) for each pinned overhead-calculator fact."""
    br = capacity_bracket(depolarizing(0.4), restarts=4, seed=cfg.seed)
    ob = overhead_lower_bound(10, math.log2(100), 0.3, br)
    checks = [({"case": "depolarizing(0.4)", "expected": "impossible"}, not ob.impossible)]

    trivial = CapacityBracket(0.0, 1.0, "none", "trivial_log_d")
    ob2 = overhead_lower_bound(1, 40.0, 0.5, trivial)
    checks.append((
        {"case": "p=0.5,T=2^40", "alpha": ob2.alpha, "bound": ob2.bound_value},
        not (abs(ob2.alpha - 0.25) < 1e-12 and abs(ob2.bound_value - 10.0) < 1e-9),
    ))

    grid = {
        (ni, ti): overhead_lower_bound(ni, 8.0 * ti, 0.5, trivial).bound_value
        for ni in range(1, 6)
        for ti in range(1, 6)
    }
    for (ni, ti), val in grid.items():
        for case, prev in (("monotone_n", (ni - 1, ti)), ("monotone_T", (ni, ti - 1))):
            if prev in grid:
                checks.append(({"case": case, "at": [ni, ti]}, val < grid[prev] - 1e-12))
    return checks


def suite_overhead(cfg: VerifyConfig) -> SuiteReport:
    """Pinned overhead-calculator facts: zero-capacity depolarizing noise is
    impossible, the alpha log T term evaluates exactly, and the bound is
    monotone over an n x T grid."""
    return _report("overhead-calculator", cfg, 2 + 25, _failing(_overhead_checks(cfg)))


SUITES = {
    "trace-chi2": suite_trace_chi2,
    "eta-upper": suite_eta_upper,
    "chi2-vs-trace-contraction": suite_chi2_vs_trace_contraction,
    "unital-split": suite_unital_split,
    "doubled-contraction-unital": suite_doubled_unital,
    "doubled-contraction-nonunital": suite_doubled_nonunital,
    "ccqq-formula": suite_ccqq_formula,
    "sep-step-contraction": suite_sep_step,
    "near-identity-stability": suite_stability,
    "overhead-calculator": suite_overhead,
}


def run_suite(name: str, cfg: VerifyConfig) -> SuiteReport:
    try:
        fn = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}") from None
    return fn(cfg)


# ---------------------------------------------------------------------------
# Replay of dumped counterexamples
# ---------------------------------------------------------------------------


def _same_check(checks, violation, keys):
    """The pair in ``checks`` whose ``keys`` match the dumped record; a check
    that no longer runs does not violate."""
    for record, violates in checks:
        if all(record.get(k) == violation.get(k) for k in keys):
            return record, violates
    return None, False


def replay_violation(suite: str, violation: dict, cfg: VerifyConfig) -> dict:
    """Re-evaluate one dumped counterexample from its embedded witness.

    The instance is decoded from the record and run through the suite's own
    check with the dump's configuration ``cfg``.  Returns the violation dict
    extended with ``replayed`` (the check's fresh record) and
    ``still_violates`` (its verdict).
    """
    v = violation
    if suite == "trace-chi2":
        record, violates = _check_trace_chi2(
            v["index"], ser.matrix_from_json(v["rho"]), ser.matrix_from_json(v["sigma"])
        )
    elif suite == "eta-upper":
        record, violates = _check_eta_upper(v["index"], _kraus_from_json(v), cfg)
    elif suite == "chi2-vs-trace-contraction":
        record, violates = _check_chi2_vs_trace(v["index"], _kraus_from_json(v), cfg)
    elif suite == "unital-split":
        record, violates = (
            _check_unital_pin() if "oracle" in v else _check_unital_split(v["index"], _kraus_from_json(v))
        )
    elif suite in ("doubled-contraction-unital", "doubled-contraction-nonunital"):
        _, checks = _trajectory_checks(
            v["index"], _kraus_from_json(v), int(v["steps"]), cfg, float(v["p_value"])
        )
        record, violates = _same_check(checks, v, ("step",))
    elif suite == "ccqq-formula":
        check = _check_ccqq_formula if "direct" in v else _check_ccqq_bound
        record, violates = check(v["index"], ser.ccqq_from_json(v["state"]), cfg)
    elif suite == "sep-step-contraction":
        record, violates = _check_sep_step(
            v["index"], ser.ccqq_from_json(v["state"]), ser.separable_channel_from_json(v["channel"]), cfg
        )
    elif suite == "near-identity-stability":
        record, violates = _check_stability(v["index"], _kraus_from_json(v), cfg)
    elif suite == "overhead-calculator":
        record, violates = _same_check(_overhead_checks(cfg), v, ("case", "at"))
    else:
        raise KeyError(f"no replay handler for suite {suite!r}")
    return {**violation, "replayed": record, "still_violates": bool(violates)}
