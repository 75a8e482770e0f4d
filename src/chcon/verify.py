"""Named verification suites: each re-checks one of the library's core
inequalities on seeded random corpora and reports violations with full
replayable witnesses.

Every instance is generated from (seed, index) alone, so a dumped witness
replays to the same numbers; reports contain no timestamps and serialize
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from . import serialize as ser
from .bounds import CapacityBracket, overhead_lower_bound, verify_stability_lemma
from .channels import (
    KrausChannel,
    bell_state,
    choi_distance,
    depolarizing,
    amplitude_damping,
)
from .config import CHISEP_THRESHOLD
from .contraction import eta_chi_lower, eta_tr, eta_tr_upper_choi, eta_tr_upper_minoutev
from .decompose import corner_feasibility, is_entanglement_breaking, unital_split
from .divergences import chi2_divergence, trace_distance
from .sampling import (
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
    SepConfig,
    chisep_ccqq,
    chisep_ccqq_blockdiag,
    mixture_of_local_pairs,
    verify_contraction_step,
)
from .simulate import doubled_memory_experiment


@dataclass(frozen=True)
class VerifyConfig:
    trials: int | None = None
    seed: int = 0
    restarts: int = 12

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


# ---------------------------------------------------------------------------
# Squared trace distance vs chi-square
# ---------------------------------------------------------------------------


def _trace_chi2_instance(seed: int, index: int):
    rng = rng_from(seed, index)
    d = int(rng.choice([2, 3, 4]))
    rho = random_density(rng, d)
    sigma = random_full_rank_density(rng, d, floor=1e-3)
    return d, rho, sigma


def suite_trace_chi2(cfg: VerifyConfig) -> SuiteReport:
    """||rho - sigma||_1^2 <= chi2(rho, sigma) + 1e-8 on full-rank sigma."""
    n = cfg.n(1000)
    violations = []
    for i in range(n):
        d, rho, sigma = _trace_chi2_instance(cfg.seed, i)
        td = trace_distance(rho, sigma)
        chi = chi2_divergence(rho, sigma)
        if td * td > chi + 1e-8:
            violations.append(
                {
                    "index": i,
                    "dim": d,
                    "trace_distance_sq": td * td,
                    "chi2": chi,
                    "rho": ser.matrix_to_json(rho),
                    "sigma": ser.matrix_to_json(sigma),
                }
            )
    return _report("trace-chi2", cfg, n, violations)


# ---------------------------------------------------------------------------
# Contraction-coefficient upper bounds
# ---------------------------------------------------------------------------


def _eta_upper_instance(seed: int, index: int) -> KrausChannel:
    rng = rng_from(seed, index)
    d = 2 if index % 2 == 0 else 3
    return random_channel(rng, d)


def suite_eta_upper(cfg: VerifyConfig) -> SuiteReport:
    """Estimated trace-norm contraction <= sqrt(1 - lmin_out/d^2) + 1e-6 and
    lmin_out >= lmin(Choi of the adjoint composition) - 1e-8."""
    n = cfg.n(500)
    violations = []
    for i in range(n):
        ch = _eta_upper_instance(cfg.seed, i)
        est = eta_tr(ch, restarts=cfg.restarts, seed=cfg.seed + i).value
        up = eta_tr_upper_minoutev(ch, restarts=cfg.restarts, seed=cfg.seed + i)
        upc = eta_tr_upper_choi(ch)
        lam_out = up.extras["lambda_min_out"]
        lam_choi = upc.extras["lambda_min_choi"]
        bad = est > up.value + 1e-6 or lam_out < lam_choi - 1e-8
        if bad:
            violations.append(
                {
                    "index": i,
                    "eta_estimate": est,
                    "minout_bound": up.value,
                    "lambda_min_out": lam_out,
                    "lambda_min_choi": lam_choi,
                    "kraus": [ser.matrix_to_json(k) for k in ch.kraus],
                }
            )
    return _report("eta-upper", cfg, n, violations)


def suite_chi2_vs_trace_contraction(cfg: VerifyConfig) -> SuiteReport:
    """Sampled chi-square contraction estimate <= trace-norm estimate + 1e-6."""
    n = cfg.n(200)
    violations = []
    for i in range(n):
        ch = _eta_upper_instance(cfg.seed, i)
        chi_est = eta_chi_lower(ch, trials=50, seed=cfg.seed + i).value
        tr_est = eta_tr(ch, restarts=cfg.restarts, seed=cfg.seed + i).value
        if chi_est > tr_est + 1e-6:
            violations.append(
                {
                    "index": i,
                    "eta_chi_lower": chi_est,
                    "eta_tr": tr_est,
                    "kraus": [ser.matrix_to_json(k) for k in ch.kraus],
                }
            )
    return _report("chi2-vs-trace-contraction", cfg, n, violations)


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


def suite_unital_split(cfg: VerifyConfig) -> SuiteReport:
    """Random unital non-unitary qubit channels split into unitary plus
    entanglement-breaking parts: reconstruction within 1e-7, the breaking
    part confirmed by the partial-transpose test, the weight positive, and
    the depolarizing pin cross-checked against the bisection oracle."""
    n = cfg.n(300)
    violations = []
    for i in range(n):
        rng = rng_from(cfg.seed, i)
        ch = random_unital_qubit_channel(rng)
        try:
            sp = unital_split(ch)
            recon = mix_channels(sp.p1, sp.unitary_part, sp.eb_part)
            err = choi_distance(ch, recon)
            eb_ok = is_entanglement_breaking(sp.eb_part)
            ok = err <= 1e-7 and eb_ok and sp.p1 > 0.0
        except Exception as exc:  # noqa: BLE001 - suite reports, never raises
            violations.append({"index": i, "error": str(exc),
                               "kraus": [ser.matrix_to_json(k) for k in ch.kraus]})
            continue
        if not ok:
            violations.append(
                {
                    "index": i,
                    "reconstruction_error": err,
                    "eb_part_ppt": eb_ok,
                    "p1": sp.p1,
                    "kraus": [ser.matrix_to_json(k) for k in ch.kraus],
                }
            )
    # Pinned cross-check: depolarizing(0.2) against the independent oracle.
    sp = unital_split(depolarizing(0.2))
    oracle = p1_bisect_oracle((0.8, 0.8, 0.8))
    pin_ok = abs(sp.p1 - 0.3) <= 1e-6 and abs(sp.p1 - oracle) <= 1e-6
    if not pin_ok:
        violations.append({"index": "depolarizing(0.2)", "p1": sp.p1, "oracle": oracle})
    return _report(
        "unital-split", cfg, n + 1, violations,
        extras={"depolarizing_p1": sp.p1, "bisect_oracle": oracle},
    )


# ---------------------------------------------------------------------------
# Doubled-memory contraction
# ---------------------------------------------------------------------------


def _bell() -> BipartiteState:
    return BipartiteState.from_matrix(bell_state().matrix, 2, 2)


def _traj_violations(rep, index, noise, steps, tol=1e-3):
    context = {
        "index": index,
        "steps": steps,
        "p_value": rep.extras["p_value"],
        "unital": rep.extras["unital_noise"],
        "kraus": [ser.matrix_to_json(k) for k in noise.kraus],
    }
    out = []
    for s in rep.steps[1:]:
        if s.factor_ok is False:
            out.append(
                {
                    **context,
                    "step": s.index,
                    "chisep": s.chisep_value,
                    "ratio": s.ratio,
                    "factor_bound": s.factor_bound,
                }
            )
    if rep.endgame_dsep is not None and rep.endgame_dsep > 0.25 + tol:
        out.append(
            {
                **context,
                "endgame_step": rep.endgame_step,
                "endgame_dsep": rep.endgame_dsep,
            }
        )
    return out


def suite_doubled_unital(cfg: VerifyConfig, steps: int = 5) -> SuiteReport:
    """Per-step contraction of the separability chi-square in the doubled
    experiment for unital noise, checked at every step, plus the pinned
    depolarizing(0.25) ten-step run and its endgame distance."""
    n = cfg.n(20)
    sep_cfg = SepConfig(seed=cfg.seed)
    violations = []
    from .decompose import unital_split as do_split

    for i in range(n):
        rng = rng_from(cfg.seed, i)
        noise = random_unital_qubit_channel(rng, max_weight=0.95)
        p1 = do_split(noise).p1
        rep = doubled_memory_experiment(
            1, noise, steps, _bell(), p_value=p1, unital_noise=True, sep_cfg=sep_cfg, seed=cfg.seed
        )
        violations.extend(_traj_violations(rep, i, noise, steps))
    pinned = doubled_memory_experiment(
        1, depolarizing(0.25), 10, _bell(), p_value=0.375, unital_noise=True,
        sep_cfg=sep_cfg, seed=cfg.seed,
    )
    violations.extend(_traj_violations(pinned, "depolarizing(0.25)", depolarizing(0.25), 10))
    return _report(
        "doubled-contraction-unital", cfg, n + 1, violations,
        extras={
            "pinned_factor": pinned.extras["factor"],
            "pinned_chisep": [s.chisep_value for s in pinned.steps],
            "pinned_endgame_dsep": pinned.endgame_dsep,
        },
    )


def suite_doubled_nonunital(cfg: VerifyConfig, steps: int = 5) -> SuiteReport:
    """Same contraction check for non-unital noise, asserted only while the
    chi-square distance stays above the 1/16 threshold, with the pinned
    amplitude-damping(0.3) ten-step run."""
    n = cfg.n(20)
    sep_cfg = SepConfig(seed=cfg.seed)
    violations = []
    from .decompose import p_constant

    for i in range(n):
        rng = rng_from(cfg.seed, 10_000 + i)
        noise = random_nonunital_qubit_channel(rng, min_nonunitality=0.05)
        p = p_constant(noise, candidates=32, eb_candidates=16, seed=cfg.seed + i).p
        rep = doubled_memory_experiment(
            1, noise, steps, _bell(), p_value=p, unital_noise=False, sep_cfg=sep_cfg, seed=cfg.seed
        )
        violations.extend(_traj_violations(rep, i, noise, steps))
    pinned = doubled_memory_experiment(
        1, amplitude_damping(0.3), 10, _bell(), sep_cfg=sep_cfg, seed=cfg.seed
    )
    violations.extend(_traj_violations(pinned, "amplitude_damping(0.3)", amplitude_damping(0.3), 10))
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
            u = np.kron(_haar2(rng), _haar2(rng))
            rho = w * bell_state().matrix + (1.0 - w) * np.eye(4) / 4
            rho = u @ rho @ la.dag(u)
        else:
            rho = random_density(rng, 4)
        blocks.append(((b,), (b,), probs[b], rho))
    return CcQqState.from_blocks(2, 2, blocks)


def _haar2(rng):
    from .sampling import haar_unitary

    return haar_unitary(rng, 2)


def suite_ccqq_formula(cfg: VerifyConfig, n_bound: int | None = None) -> SuiteReport:
    """The closed block formula for the chi-square separability distance of
    cc-qq states agrees with direct block-diagonal minimization within 1e-3,
    and the dimensional bound dA dB - 1 holds with 1e-6 slack."""
    n_agree = cfg.n(50)
    n_bound = n_bound if n_bound is not None else 4 * n_agree
    sep_cfg = SepConfig(seed=cfg.seed)
    fast_cfg = SepConfig(seed=cfg.seed, obj_tol=1e-6, max_iter=2000)
    violations = []
    worst_gap = 0.0
    for i in range(n_agree):
        s = _random_two_block_state(cfg.seed, i)
        f = chisep_ccqq(s, sep_cfg).value
        d = chisep_ccqq_blockdiag(s, sep_cfg).value
        worst_gap = max(worst_gap, abs(f - d))
        if abs(f - d) > 1e-3:
            violations.append(
                {"index": i, "formula": f, "direct": d, "state": ser.ccqq_to_json(s)}
            )
    for i in range(n_bound):
        s = _random_two_block_state(cfg.seed, 50_000 + i, entangled_bias=(i % 2 == 0))
        val = chisep_ccqq(s, fast_cfg).value
        if val > 3.0 + 1e-6:
            violations.append({"index": 50_000 + i, "value": val, "state": ser.ccqq_to_json(s)})
    return _report(
        "ccqq-formula", cfg, n_agree + n_bound, violations,
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


def suite_sep_step(cfg: VerifyConfig, epsilon: float = CHISEP_THRESHOLD) -> SuiteReport:
    """One separable-channel step contracts the chi-square separability
    distance by at least the eps^2/100 margin, using the certified upper
    bound on the channel's contraction coefficient."""
    n = cfg.n(50)
    sep_cfg = SepConfig(seed=cfg.seed)
    violations = []
    accepted = 0
    index = 0
    attempts = 0
    while accepted < n and attempts < 20 * n:
        state, channel = sep_step_instance(cfg.seed, index)
        index += 1
        attempts += 1
        try:
            rep = verify_contraction_step(state, channel, epsilon, sep_cfg)
        except Exception:
            continue  # precondition not met; draw the next instance
        accepted += 1
        if not rep.passed:
            violations.append(
                {
                    "index": index - 1,
                    "chi_in": rep.chi_in,
                    "chi_out": rep.chi_out,
                    "eta_upper": rep.eta_upper,
                    "rhs": rep.rhs,
                    "state": ser.ccqq_to_json(state),
                    "channel": ser.separable_channel_to_json(channel),
                }
            )
    return _report("sep-step-contraction", cfg, accepted, violations,
                   extras={"epsilon": epsilon, "attempts": attempts})


# ---------------------------------------------------------------------------
# Near-identity stability
# ---------------------------------------------------------------------------


def suite_stability(cfg: VerifyConfig, strength: float = 0.05) -> SuiteReport:
    """Channels within 0.1 of the identity in induced trace norm satisfy the
    sqrt(2 eps) extension bound (and its doubled form)."""
    n = cfg.n(100)
    violations = []
    for i in range(n):
        rng = rng_from(cfg.seed, i)
        ch = random_near_identity_qubit_channel(rng, strength)
        rep = verify_stability_lemma(ch, restarts=cfg.restarts, seed=cfg.seed + i)
        if rep.epsilon > 0.1:
            continue
        if not rep.passed:
            violations.append(
                {
                    "index": i,
                    "epsilon": rep.epsilon,
                    "extended_estimate": rep.extended_estimate,
                    "extended_bound": rep.extended_bound,
                    "doubled_estimate": rep.doubled_estimate,
                    "doubled_bound": rep.doubled_bound,
                    "kraus": [ser.matrix_to_json(k) for k in ch.kraus],
                }
            )
    return _report("near-identity-stability", cfg, n, violations)


# ---------------------------------------------------------------------------
# Overhead calculator
# ---------------------------------------------------------------------------


def suite_overhead(cfg: VerifyConfig) -> SuiteReport:
    """Pinned overhead-calculator facts: zero-capacity depolarizing noise is
    impossible, the alpha log T term evaluates exactly, and the bound is
    monotone over an n x T grid."""
    violations = []
    from .bounds import capacity_bracket

    br = capacity_bracket(depolarizing(0.4), restarts=4, seed=cfg.seed)
    ob = overhead_lower_bound(10, math.log2(100), 0.3, br)
    if not ob.impossible:
        violations.append({"case": "depolarizing(0.4)", "expected": "impossible"})

    trivial = CapacityBracket(0.0, 1.0, "none", "trivial_log_d")
    ob2 = overhead_lower_bound(1, 40.0, 0.5, trivial)
    if not (abs(ob2.alpha - 0.25) < 1e-12 and abs(ob2.bound_value - 10.0) < 1e-9):
        violations.append({"case": "p=0.5,T=2^40", "alpha": ob2.alpha, "bound": ob2.bound_value})

    grid_vals = {}
    for ni in range(1, 6):
        for ti in range(1, 6):
            res = overhead_lower_bound(ni, 8.0 * ti, 0.5, trivial)
            grid_vals[(ni, ti)] = res.bound_value
    for ni in range(1, 6):
        for ti in range(1, 6):
            if ni > 1 and grid_vals[(ni, ti)] < grid_vals[(ni - 1, ti)] - 1e-12:
                violations.append({"case": "monotone_n", "at": [ni, ti]})
            if ti > 1 and grid_vals[(ni, ti)] < grid_vals[(ni, ti - 1)] - 1e-12:
                violations.append({"case": "monotone_T", "at": [ni, ti]})
    return _report("overhead-calculator", cfg, 2 + 25, violations)


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


def replay_violation(suite: str, violation: dict, config: dict) -> dict:
    """Re-evaluate one dumped counterexample from its embedded witness.

    Returns the violation dict extended with ``replayed`` (the recomputed
    numbers) and ``still_violates``.
    """
    seed = int(config.get("seed", 0))
    restarts = int(config.get("restarts", 12))
    out = dict(violation)
    if suite == "trace-chi2":
        rho = ser.matrix_from_json(violation["rho"])
        sigma = ser.matrix_from_json(violation["sigma"])
        td = trace_distance(rho, sigma)
        chi = chi2_divergence(rho, sigma)
        out["replayed"] = {"trace_distance_sq": td * td, "chi2": chi}
        out["still_violates"] = bool(td * td > chi + 1e-8)
    elif suite in ("eta-upper", "chi2-vs-trace-contraction"):
        ch = KrausChannel.from_kraus([ser.matrix_from_json(k) for k in violation["kraus"]])
        i = int(violation["index"])
        est = eta_tr(ch, restarts=restarts, seed=seed + i).value
        if suite == "eta-upper":
            up = eta_tr_upper_minoutev(ch, restarts=restarts, seed=seed + i)
            upc = eta_tr_upper_choi(ch)
            out["replayed"] = {
                "eta_estimate": est,
                "minout_bound": up.value,
                "lambda_min_out": up.extras["lambda_min_out"],
                "lambda_min_choi": upc.extras["lambda_min_choi"],
            }
            out["still_violates"] = bool(
                est > up.value + 1e-6
                or up.extras["lambda_min_out"] < upc.extras["lambda_min_choi"] - 1e-8
            )
        else:
            chi_est = eta_chi_lower(ch, trials=50, seed=seed + i).value
            out["replayed"] = {"eta_chi_lower": chi_est, "eta_tr": est}
            out["still_violates"] = bool(chi_est > est + 1e-6)
    elif suite == "unital-split":
        ch = (
            depolarizing(0.2)
            if violation.get("index") == "depolarizing(0.2)"
            else KrausChannel.from_kraus([ser.matrix_from_json(k) for k in violation["kraus"]])
        )
        sp = unital_split(ch)
        recon = mix_channels(sp.p1, sp.unitary_part, sp.eb_part)
        err = choi_distance(ch, recon)
        eb_ok = is_entanglement_breaking(sp.eb_part)
        out["replayed"] = {"reconstruction_error": err, "eb_part_ppt": eb_ok, "p1": sp.p1}
        out["still_violates"] = bool(err > 1e-7 or not eb_ok or sp.p1 <= 0.0)
    elif suite in ("doubled-contraction-unital", "doubled-contraction-nonunital"):
        noise = KrausChannel.from_kraus([ser.matrix_from_json(k) for k in violation["kraus"]])
        rep = doubled_memory_experiment(
            1, noise, int(violation["steps"]), _bell(),
            p_value=float(violation["p_value"]), unital_noise=bool(violation["unital"]),
            sep_cfg=SepConfig(seed=seed), seed=seed,
        )
        new = _traj_violations(rep, violation["index"], noise, int(violation["steps"]))
        out["replayed"] = {"violations": len(new)}
        out["still_violates"] = bool(new)
    elif suite == "ccqq-formula":
        s = ser.ccqq_from_json(violation["state"])
        sep_cfg = SepConfig(seed=seed)
        f = chisep_ccqq(s, sep_cfg).value
        if "direct" in violation:
            d = chisep_ccqq_blockdiag(s, sep_cfg).value
            out["replayed"] = {"formula": f, "direct": d}
            out["still_violates"] = bool(abs(f - d) > 1e-3)
        else:
            out["replayed"] = {"value": f}
            out["still_violates"] = bool(f > 3.0 + 1e-6)
    elif suite == "sep-step-contraction":
        s = ser.ccqq_from_json(violation["state"])
        channel = ser.separable_channel_from_json(violation["channel"])
        rep = verify_contraction_step(s, channel, CHISEP_THRESHOLD, SepConfig(seed=seed))
        out["replayed"] = {"chi_in": rep.chi_in, "chi_out": rep.chi_out, "rhs": rep.rhs}
        out["still_violates"] = not rep.passed
    elif suite == "near-identity-stability":
        ch = KrausChannel.from_kraus([ser.matrix_from_json(k) for k in violation["kraus"]])
        rep = verify_stability_lemma(ch, restarts=restarts, seed=seed + int(violation["index"]))
        out["replayed"] = {
            "epsilon": rep.epsilon,
            "extended_estimate": rep.extended_estimate,
            "doubled_estimate": rep.doubled_estimate,
        }
        out["still_violates"] = not rep.passed
    elif suite == "overhead-calculator":
        rep = suite_overhead(VerifyConfig(seed=seed, restarts=restarts))
        out["replayed"] = {"violations": len(rep.violations)}
        out["still_violates"] = not rep.passed
    else:
        raise KeyError(f"no replay handler for suite {suite!r}")
    return out
