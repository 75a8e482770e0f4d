"""Command-line front end: channel analysis, overhead bounds, circuit
simulation, and the inequality verification suites.

Exit codes: 0 success (or all checks verified), 1 a verified inequality
violation was found, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial

import numpy as np

from . import serialize as ser
from .bounds import CapacityBracket, capacity_bracket, memory_time_bound, overhead_lower_bound
from .channels import (
    ChannelError,
    bell_state,
    is_extreme_point,
    is_unitary_channel,
    kraus_to_choi,
    to_bloch_affine,
    validate_channel,
)
from .contraction import eta_chi_lower, eta_tr, eta_tr_upper_choi, eta_tr_upper_minoutev, independence_trivial
from .decompose import is_entanglement_breaking, p_constant
from .separability import BipartiteState, CcQqState
from .simulate import (
    ClassicalLayer,
    ClassicalReg,
    GateLayer,
    InstrumentLayer,
    NoisyCircuit,
    QubitReg,
    RegisterLayout,
    doubled_memory_experiment,
    run_noisy_circuit,
)
from .verify import SUITES, VerifyConfig, replay_violation, run_suite

USAGE_ERROR = 2
VIOLATION_ERROR = 1


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SystemExit(_fail(f"no such file: {path}"))
    except json.JSONDecodeError as exc:
        raise SystemExit(_fail(f"malformed JSON in {path}: line {exc.lineno}: {exc.msg}"))


def _fail(msg: str) -> int:
    print(f"chcon: error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    try:
        ch = ser.channel_from_json(_load_json(args.channel))
    except ChannelError as exc:
        return _fail(str(exc))
    report: dict = {}
    val = validate_channel(ch)
    report["validation"] = {
        "tp_residual": val.tp_residual,
        "choi_min_eigenvalue": val.choi_min_eigenvalue,
        "ok": val.ok,
    }
    choi = kraus_to_choi(ch)
    report["choi_spectrum"] = [float(x) for x in choi.eigenvalues()]
    if ch.is_qubit():
        aff = to_bloch_affine(ch)
        report["bloch"] = {
            "t": [float(x) for x in aff.t],
            "lambda": [float(x) for x in aff.lam],
            "unital": aff.unital,
        }
        report["flags"] = {
            "unital": ch.is_unital(),
            "unitary": is_unitary_channel(ch),
            "entanglement_breaking": is_entanglement_breaking(ch),
            "extremal": is_extreme_point(ch),
        }
    if ch.in_dim == ch.out_dim:
        report["eta_tr"] = ser.contraction_report_to_json(
            eta_tr(ch, restarts=args.restarts, seed=args.seed)
        )
        report["eta_tr_upper_minoutev"] = ser.contraction_report_to_json(
            eta_tr_upper_minoutev(ch, restarts=args.restarts, seed=args.seed)
        )
        report["eta_tr_upper_choi"] = ser.contraction_report_to_json(eta_tr_upper_choi(ch))
        report["eta_chi_lower"] = ser.contraction_report_to_json(
            eta_chi_lower(ch, trials=args.trials, seed=args.seed)
        )
        ind = independence_trivial(ch)
        report["independence"] = {
            "certified": ind.certified,
            "status": ind.status,
            "eta_upper_bound": ind.eta_upper_bound,
            "lambda_min_choi": ind.lambda_min_choi,
        }
    if ch.is_qubit():
        try:
            report["p_constant"] = ser.p_report_to_json(p_constant(ch, seed=args.seed))
        except ChannelError as exc:
            report["p_constant"] = {"error": str(exc)}
    _emit(ser.dumps_canonical(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(args) -> int:
    if args.channel is None and args.p is None:
        return _fail("bound needs a channel spec or --p")
    if args.T is None and args.log2_T is None:
        return _fail("bound needs --T or --log2-T")
    if args.log2_T is not None:
        log2_t = float(args.log2_T)
    elif args.T >= 1:
        log2_t = math.log2(args.T)
    else:
        return _fail("need n >= 1 and T >= 1")
    try:
        if args.channel is not None:
            ch = ser.channel_from_json(_load_json(args.channel))
            p_rep = p_constant(ch, seed=args.seed)
            p_val = p_rep.p
            bracket = capacity_bracket(
                ch, user_upper=args.capacity_upper, restarts=args.restarts, seed=args.seed
            )
        else:
            p_val = float(args.p)
            upper = 1.0 if args.capacity_upper is None else float(args.capacity_upper)
            provenance = "trivial_log_d" if args.capacity_upper is None else "user_certificate"
            bracket = CapacityBracket(0.0, upper, "none", provenance)
        bound = overhead_lower_bound(args.n, log2_t, p_val, bracket)
        mem = memory_time_bound(args.n, p_val)
    except ChannelError as exc:
        return _fail(str(exc))
    doc = {
        "p": p_val,
        "memory_time_bound": ser.memory_bound_to_json(mem),
        "overhead": ser.overhead_to_json(bound),
    }
    if bound.impossible:
        print("IMPOSSIBLE: the noise channel has zero quantum capacity; "
              "no fault-tolerant implementation exists at any size.", file=sys.stderr)
    _emit(ser.dumps_canonical(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _layout_from_json(obj) -> RegisterLayout:
    qubits = tuple(QubitReg(label=q["label"], side=q.get("side", "A")) for q in obj.get("qubits", []))
    classical = tuple(
        ClassicalReg(
            label=c["label"], size=ser.int_from_json(c["size"], "register size"), side=c.get("side", "A")
        )
        for c in obj.get("classical", [])
    )
    return RegisterLayout(qubits=qubits, classical=classical)


def _layer_from_json(obj):
    if not isinstance(obj, dict):
        raise ChannelError(f"layer entries must be JSON objects, got {obj!r}")
    kind = obj.get("kind")
    if kind == "gate":
        if "separable" in obj:
            channel = ser.separable_channel_from_json(obj["separable"])
        else:
            channel = ser.channel_from_json(obj["channel"])
        controls = None
        if "controls" in obj:
            controls = {}
            for entry in obj["controls"]:
                key = (tuple(entry.get("x", [])), tuple(entry.get("y", [])))
                controls[key] = ser.channel_from_json(entry["channel"])
        return GateLayer(channel=channel, controls=controls)
    if kind == "instrument":
        outcomes = tuple(
            (
                ser.int_from_json(o["value"], "outcome value"),
                tuple(ser.matrix_from_json(k) for k in o["kraus"]),
            )
            for o in obj["outcomes"]
        )
        return InstrumentLayer(outcomes=outcomes, store=obj["store"])
    if kind == "classical":
        update = {}
        for entry in obj["map"]:
            src = (tuple(entry["from"].get("x", [])), tuple(entry["from"].get("y", [])))
            update[src] = [
                (float(t["p"]), (tuple(t.get("x", [])), tuple(t.get("y", []))))
                for t in entry["to"]
            ]
        return ClassicalLayer(update=update)
    raise ChannelError(f"unknown layer kind {kind!r}")


def _input_state(obj, layout: RegisterLayout) -> CcQqState:
    dim_a, dim_b = layout.dim_a, layout.dim_b
    x, y = layout.blank_labels()
    kind = (obj or {"kind": "zeros"}).get("kind", "zeros")
    if kind == "zeros":
        vec = np.zeros(dim_a * dim_b, dtype=complex)
        vec[0] = 1.0
        rho = np.outer(vec, vec.conj())
    elif kind == "maximally_mixed":
        d = dim_a * dim_b
        rho = np.eye(d) / d
    elif kind == "bell":
        if dim_a != 2 or dim_b != 2:
            raise ChannelError("bell input needs one qubit per side")
        rho = bell_state().matrix
    elif kind == "density":
        rho = ser.matrix_from_json(obj["matrix"])
    elif kind == "ccqq":
        return ser.ccqq_from_json(obj)
    else:
        raise ChannelError(f"unknown input kind {kind!r}")
    return CcQqState.from_blocks(dim_a, dim_b, [(x, y, 1.0, rho)])


def cmd_simulate(args) -> int:
    spec = _load_json(args.circuit)
    # Errors raised while reading the description mean it is malformed; the
    # run itself stays out of this guard so numerical errors surface as-is.
    try:
        if not isinstance(spec, dict):
            raise ChannelError("expected a JSON object")
        if args.doubled:
            noise = ser.channel_from_json(spec["noise"])
            n = ser.int_from_json(spec.get("n", 1), "n")
            steps = args.steps
            if steps is None:
                steps = ser.int_from_json(spec.get("steps", 10), "steps")
            gate = ser.channel_from_json(spec["gate"]) if "gate" in spec else None
            if "input" in spec:
                inp = ser.bipartite_state_from_json(spec["input"])
            else:
                if n > 1:
                    return _fail("doubled runs with n > 1 need an explicit input state")
                inp = BipartiteState.from_matrix(bell_state().matrix, 2, 2)
            run = partial(
                doubled_memory_experiment, n, noise, steps, inp, gate=gate,
                p_value=spec.get("p"), seed=args.seed,
            )
        else:
            layout = _layout_from_json(spec.get("layout", {}))
            layers = tuple(_layer_from_json(o) for o in spec.get("layers", []))
            noise = ser.channel_from_json(spec["noise"])
            circuit = NoisyCircuit(
                layout=layout,
                layers=layers,
                noise=noise,
                noise_order=args.noise_order,
                trailing_noise=args.trailing_noise == "on",
            )
            state = _input_state(spec.get("input"), layout)
            run = partial(
                run_noisy_circuit, circuit, state,
                record_chisep=args.record_chisep,
            )
    except (AttributeError, ChannelError, KeyError, TypeError, ValueError) as exc:
        return _fail(f"bad circuit description: {exc}")
    try:
        rep = run()
    except ChannelError as exc:
        return _fail(f"bad circuit description: {exc}")
    if args.fmt == "csv":
        lines = ser.trajectory_to_csv_lines(rep)
    else:
        lines = ser.trajectory_to_json_lines(rep)
        if args.doubled:
            summary = {
                "type": "summary",
                "p_value": rep.extras["p_value"],
                "factor": rep.extras["factor"],
                "endgame_step": rep.endgame_step,
                "endgame_dsep": rep.endgame_dsep,
                "width": rep.width,
                "length": rep.length,
            }
            lines.append(ser.dumps_compact(summary))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.replay:
        dump = _load_json(args.replay)
        if not isinstance(dump, dict):
            return _fail("malformed replay file: expected a JSON object")
        # `verify all` writes {"reports": [...]}; a single suite writes one report.
        dumps = dump["reports"] if "reports" in dump else [dump]
        if not isinstance(dumps, list) or not all(isinstance(rep, dict) for rep in dumps):
            return _fail("malformed replay file: \"reports\" must be a list of suite reports")
        docs = []
        for rep in dumps:
            suite = rep.get("suite")
            if not isinstance(suite, str) or suite not in SUITES:
                return _fail(f"replay file names unknown suite {suite!r}")
            try:
                cfg = VerifyConfig(**rep.get("config", {}))
                results = [replay_violation(suite, v, cfg) for v in rep.get("violations", [])]
            except (ChannelError, KeyError, TypeError) as exc:
                return _fail(f"malformed {suite} record in replay file: {exc}")
            still = [r for r in results if r["still_violates"]]
            docs.append({"suite": suite, "replayed": len(results), "still_violating": len(still),
                         "results": results})
        doc = {"reports": docs} if "reports" in dump else docs[0]
        _emit(ser.dumps_canonical(doc), args.out)
        return VIOLATION_ERROR if any(d["still_violating"] for d in docs) else 0

    if args.suite is None:
        return _fail("verify needs a suite name or --replay FILE")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"chcon: error: unknown suite {unknown[0]!r}", file=sys.stderr)
        print("available suites: " + ", ".join(sorted(SUITES)) + ", all", file=sys.stderr)
        return USAGE_ERROR
    cfg = VerifyConfig(trials=args.trials, seed=args.seed, restarts=args.restarts)
    reports = [run_suite(n, cfg) for n in names]
    doc = {"reports": [r.to_json() for r in reports]} if len(reports) > 1 else reports[0].to_json()
    _emit(ser.dumps_canonical(doc), args.out)
    for r in reports:
        status = "PASS" if r.passed else f"FAIL ({len(r.violations)} violations)"
        print(f"{r.suite}: {status} [{r.checks} checks]", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else VIOLATION_ERROR


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  ``parse_args`` reads
    it without changing it and returns a fresh namespace, and no default is
    a mutable object, so one call leaves nothing behind for the next."""
    parser = argparse.ArgumentParser(
        prog="chcon",
        description="Noisy-channel contraction analysis, separability distances, "
        "noisy-memory simulation, and overhead bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *searches, seed_help="64-bit unsigned RNG seed"):
        # Each subcommand registers only the search sizes ("restarts", "trials") it reads.
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        if "restarts" in searches:
            p.add_argument("--restarts", type=int, default=12, help="multi-start restarts")
        if "trials" in searches:
            p.add_argument("--trials", type=int, default=None, help="sample count override")
        p.add_argument("--out", default=None, help="write the JSON report to this path")

    p_an = sub.add_parser("analyze", help="full single-channel report")
    p_an.add_argument("channel", help="channel spec file (JSON)")
    common(p_an, "restarts", "trials")
    p_an.set_defaults(fn=cmd_analyze, trials=200)

    p_bd = sub.add_parser("bound", help="memory-time and overhead lower bounds")
    p_bd.add_argument("channel", nargs="?", default=None, help="channel spec file (JSON)")
    p_bd.add_argument("--p", type=float, default=None, help="channel constant supplied directly")
    p_bd.add_argument("--n", type=int, required=True, help="logical qubit count")
    p_bd.add_argument("--T", type=int, default=None, help="circuit length")
    p_bd.add_argument("--log2-T", dest="log2_T", type=float, default=None)
    p_bd.add_argument("--capacity-upper", dest="capacity_upper", type=float, default=None,
                      help="user-certified upper bound on the quantum capacity")
    common(p_bd, "restarts")
    p_bd.set_defaults(fn=cmd_bound)

    p_sim = sub.add_parser("simulate", help="run a noisy circuit description")
    p_sim.add_argument("circuit", help="circuit description file (JSON)")
    p_sim.add_argument("--doubled", action="store_true",
                       help="run the doubled-memory entanglement-decay experiment")
    p_sim.add_argument("--steps", type=int, default=None, help="override the step count")
    p_sim.add_argument("--noise-order", dest="noise_order",
                       choices=("noise-first", "layer-first"), default="noise-first")
    p_sim.add_argument("--trailing-noise", dest="trailing_noise",
                       choices=("on", "off"), default="off")
    p_sim.add_argument("--record-chisep", dest="record_chisep", action="store_true",
                       help="record every step's chi-square distance to the separable set "
                       "(a circuit run; a doubled run always records it)")
    p_sim.add_argument("--format", dest="fmt", choices=("json", "jsonl", "csv"), default="json")
    common(p_sim, seed_help="64-bit unsigned RNG seed; only a doubled run without p reads it, "
           "to compute the channel constant")
    p_sim.set_defaults(fn=cmd_simulate)

    p_vf = sub.add_parser("verify", help="run a named inequality suite")
    p_vf.add_argument("suite", nargs="?", default=None,
                      help="suite name or 'all'; see --help for the list")
    p_vf.add_argument("--replay", default=None, help="re-check a dumped violations file")
    common(p_vf, "restarts", "trials")
    p_vf.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    if not 0 <= args.seed < 2**64:
        return _fail("seed must fit in 64 unsigned bits")
    sizes = [getattr(args, name, None) for name in ("restarts", "trials")]
    if any(size is not None and size < 1 for size in sizes):
        return _fail("restarts and trials must be positive")
    try:
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ChannelError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
