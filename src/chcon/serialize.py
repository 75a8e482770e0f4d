"""JSON wire formats: channels, states, circuits, and analysis reports.

Complex numbers are always [re, im] pairs and matrices are row-major nested
lists.  Serialization is deterministic: keys are emitted sorted and no
timestamps or environment data enter the payload, so identical inputs and
configuration produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .channels import ChannelError, KrausChannel, preset
from .config import DIM_CAP
from .contraction import ContractionReport, OrthogonalPair, StatePair
from .separability import BipartiteState, CcQqState, SeparableChannel, make_separable_channel
from .decompose import PConstantReport
from .bounds import CapacityBracket, MemoryTimeBound, OverheadBound

# Python types of the numbers json.load returns.
JSON_NUMBER_TYPES = frozenset((bool, float, int))


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    """The complex matrix of rows of ``[re, im]`` pairs of JSON numbers.

    The payload is flattened and converted with one float array call whose
    complex view is the matrix, so every entry is exactly ``complex(re,
    im)``.  Rows of unequal length, pairs of any length but 2, and entries
    that are not numbers (strings, nulls, lists) raise ``ChannelError``;
    integers and booleans read as floats.
    """
    try:
        pairs = list(chain.from_iterable(rows))
        flat = list(chain.from_iterable(pairs))
        if (
            len(set(map(len, rows))) != 1
            or set(map(len, pairs)) != {2}
            or not set(map(type, flat)) <= JSON_NUMBER_TYPES
        ):
            raise ValueError("expected equal rows of [re, im] number pairs")
        return np.array(flat, dtype=float).view(complex).reshape(len(rows), -1)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ChannelError(f"malformed matrix payload: {exc}") from None


def int_from_json(value, name: str) -> int:
    """An integral JSON number; booleans, strings and fractions are rejected."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ChannelError(f"{name} must be an integer, got {value!r}")
    return int(value)


def vector_to_json(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).reshape(-1)]


def channel_from_json(obj: dict) -> KrausChannel:
    """Parse either a preset spec {"preset": ..., params} or an explicit
    Kraus list {"in_dim", "out_dim", "kraus": [...]}.  Input and output
    dimensions above ``DIM_CAP`` are rejected."""
    if not isinstance(obj, dict):
        raise ChannelError("channel spec must be a JSON object")
    if "preset" in obj:
        params = {k: v for k, v in obj.items() if k != "preset"}
        if "matrix" in params:
            params["matrix"] = matrix_from_json(params["matrix"])
        ch = preset(obj["preset"], **params)
    elif "kraus" in obj:
        ch = KrausChannel.from_kraus([matrix_from_json(k) for k in obj["kraus"]])
        for key in ("in_dim", "out_dim"):
            if key in obj and obj[key] != getattr(ch, key):
                raise ChannelError(
                    f"channel spec {key}={obj[key]} disagrees with Kraus shape {getattr(ch, key)}"
                )
    else:
        raise ChannelError("channel spec needs either 'preset' or 'kraus'")
    if max(ch.in_dim, ch.out_dim) > DIM_CAP:
        raise ChannelError(
            f"channel dimensions {ch.in_dim} -> {ch.out_dim} exceed the desk-scale cap of {DIM_CAP}"
        )
    return ch


def separable_channel_to_json(sep: SeparableChannel) -> dict:
    return {
        "pairs": [[matrix_to_json(ka), matrix_to_json(kb)] for ka, kb in sep.pairs],
    }


def separable_channel_from_json(obj: dict) -> SeparableChannel:
    pairs = [(matrix_from_json(a), matrix_from_json(b)) for a, b in obj["pairs"]]
    return make_separable_channel(pairs)


def bipartite_state_from_json(obj: dict) -> BipartiteState:
    dim_a, dim_b = int_from_json(obj["dimA"], "dimA"), int_from_json(obj["dimB"], "dimB")
    return BipartiteState.from_matrix(matrix_from_json(obj["matrix"]), dim_a, dim_b)


def ccqq_to_json(s: CcQqState) -> dict:
    return {
        "dimA": s.dim_a,
        "dimB": s.dim_b,
        "blocks": [
            {"x": list(b.x), "y": list(b.y), "p": b.prob, "matrix": matrix_to_json(b.rho)}
            for b in s.blocks
        ],
    }


def ccqq_from_json(obj: dict) -> CcQqState:
    blocks = [
        (tuple(b["x"]), tuple(b["y"]), float(b["p"]), matrix_from_json(b["matrix"]))
        for b in obj["blocks"]
    ]
    dim_a, dim_b = int_from_json(obj["dimA"], "dimA"), int_from_json(obj["dimB"], "dimB")
    return CcQqState.from_blocks(dim_a, dim_b, blocks)


def _json_float(x: float):
    if x is None:
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def contraction_report_to_json(rep: ContractionReport) -> dict:
    witness = None
    if isinstance(rep.witness, OrthogonalPair):
        witness = {"psi": vector_to_json(rep.witness.psi), "phi": vector_to_json(rep.witness.phi)}
    elif isinstance(rep.witness, StatePair):
        witness = {"rho": matrix_to_json(rep.witness.rho), "sigma": matrix_to_json(rep.witness.sigma)}
    return {
        "value": rep.value,
        "kind": rep.kind,
        "witness": witness,
        "restarts": rep.restarts,
        "iterations": rep.iterations,
        "seed": rep.seed,
        "method": rep.method,
        "extras": {k: _json_float(v) if isinstance(v, float) else v for k, v in rep.extras.items()},
    }


def p_report_to_json(rep: PConstantReport) -> dict:
    return {
        "p1": rep.p1,
        "p2_lower": rep.p2_lower,
        "p": rep.p,
        "certification": rep.certification,
    }


def bracket_to_json(br: CapacityBracket) -> dict:
    return {
        "lower": br.lower,
        "upper": br.upper,
        "lower_provenance": br.lower_provenance,
        "upper_provenance": br.upper_provenance,
    }


def memory_bound_to_json(mb: MemoryTimeBound) -> dict:
    return {
        "n": mb.n,
        "p": mb.p,
        "log2_threshold": mb.log2_threshold,
        "threshold": _json_float(mb.threshold),
        "epsilon0": mb.epsilon0,
    }


def overhead_to_json(ob: OverheadBound) -> dict:
    bound = {"kind": "impossible"} if ob.impossible else {"kind": "qubits", "value": ob.bound_value}
    return {
        "n": ob.n,
        "log2_T": ob.log2_t,
        "alpha": ob.alpha,
        "capacity_bracket": bracket_to_json(ob.bracket),
        "bound": bound,
        "capacity_term_vacuous": ob.capacity_term_vacuous,
        "notes": list(ob.notes),
    }


def trajectory_to_json_lines(rep) -> list[str]:
    """One compact JSON document per trajectory step."""
    lines = []
    for s in rep.steps:
        lines.append(
            dumps_compact(
                {
                    "step": s.index,
                    "total_prob": s.total_prob,
                    "blocks": s.block_count,
                    "chisep": _json_float(s.chisep_value),
                    "ratio": _json_float(s.ratio),
                    "factor_bound": _json_float(s.factor_bound),
                    "precondition": s.precondition,
                    "factor_ok": s.factor_ok,
                }
            )
        )
    return lines


def trajectory_to_csv_lines(rep) -> list[str]:
    header = "step,total_prob,blocks,chisep,ratio,factor_bound,precondition,factor_ok"
    lines = [header]
    for s in rep.steps:
        cells = [
            str(s.index),
            repr(s.total_prob),
            str(s.block_count),
            "" if s.chisep_value is None else repr(s.chisep_value),
            "" if s.ratio is None else repr(s.ratio),
            "" if s.factor_bound is None else repr(s.factor_bound),
            "" if s.precondition is None else str(s.precondition).lower(),
            "" if s.factor_ok is None else str(s.factor_ok).lower(),
        ]
        lines.append(",".join(cells))
    return lines


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dumps_compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
