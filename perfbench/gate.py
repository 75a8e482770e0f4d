"""Correctness gate for every benchmark job.

``check`` applies invariants that hold on any seed; ``pinned`` extracts the
values that ``reference.json`` pins at the default workload seed, and
``compare`` checks them against the reference with the tolerances below.
"""

from __future__ import annotations

import json
import math

DEFAULT_SEED = 0

# Tolerances for the pinned comparison: |got - want| <= abs + rel * |want|.
# Loose enough for an exact closed-form replacement of the Dykstra
# projection (about 1e-10 per call) and for a corrected p1 peel weight.
TOLERANCES = {
    "eta_tr": (1e-6, 0.0),
    "eta_tr_upper_minoutev": (1e-6, 0.0),
    "eta_tr_upper_choi": (1e-6, 0.0),
    "p": (1e-8, 1e-3),
    "chisep": (1e-5, 1e-4),
}
EXACT = ("endgame_step", "passed", "blocks")

# Slack for the eta_tr <= min(upper bounds) and total-probability invariants.
INVARIANT_SLACK = 1e-9


def _lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def parse(kind: str, text: str):
    """The job's JSON output: one document, or a list of JSONL records."""
    if kind in ("doubled", "circuit"):
        return _lines(text)
    return json.loads(text)


def check(kind: str, rc: int, doc) -> list[str]:
    """Invariant violations of one job's output (empty when it passes)."""
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    if kind == "analyze":
        if not doc["validation"]["ok"]:
            errors.append("channel failed validation")
        if "eta_tr" in doc:
            eta = doc["eta_tr"]["value"]
            upper = min(doc["eta_tr_upper_minoutev"]["value"], doc["eta_tr_upper_choi"]["value"])
            if eta > upper + INVARIANT_SLACK:
                errors.append(f"eta_tr {eta!r} above its upper bound {upper!r}")
        if "error" in doc.get("p_constant", {}):
            errors.append(f"p_constant: {doc['p_constant']['error']}")
    elif kind == "bound":
        if not 0.0 < doc["p"] <= 1.0:
            errors.append(f"p {doc['p']!r} outside (0, 1]")
    elif kind == "verify":
        if doc.get("passed") is not True:
            errors.append(f"suite {doc.get('suite')} did not pass")
    else:
        steps = [r for r in doc if r.get("type") != "summary"]
        if not steps:
            errors.append("empty trajectory")
        for r in steps:
            if r["chisep"] is not None and not r["chisep"] >= 0.0:
                errors.append(f"step {r['step']}: chisep {r['chisep']!r} < 0")
            if r.get("factor_ok") is False:
                errors.append(f"step {r['step']}: factor_ok is false")
            if abs(r["total_prob"] - 1.0) > INVARIANT_SLACK:
                errors.append(f"step {r['step']}: total probability {r['total_prob']!r}")
        if kind == "doubled" and not any(r.get("type") == "summary" for r in doc):
            errors.append("doubled run printed no summary line")
    return errors


def pinned(kind: str, doc) -> dict:
    """The values ``reference.json`` pins for one job."""
    if kind == "analyze":
        out = {}
        for key in ("eta_tr", "eta_tr_upper_minoutev", "eta_tr_upper_choi"):
            if key in doc:
                out[key] = doc[key]["value"]
        if "p" in doc.get("p_constant", {}):
            out["p"] = doc["p_constant"]["p"]
        return out
    if kind == "bound":
        return {"p": doc["p"]}
    if kind == "verify":
        return {"passed": doc["passed"]}
    steps = [r for r in doc if r.get("type") != "summary"]
    out = {"chisep": [r["chisep"] for r in steps], "blocks": [r["blocks"] for r in steps]}
    for r in doc:
        if r.get("type") == "summary":
            out["endgame_step"] = r["endgame_step"]
    return out


def _close(key: str, got, want) -> bool:
    if want is None or got is None:
        return got is want
    tol_abs, tol_rel = TOLERANCES[key]
    return math.isfinite(got) and abs(got - want) <= tol_abs + tol_rel * abs(want)


def compare(got: dict, want: dict) -> list[str]:
    """Differences between a job's pinned values and the reference."""
    errors = []
    for key, ref in want.items():
        if key not in got:
            errors.append(f"{key} missing")
        elif key in EXACT:
            if got[key] != ref:
                errors.append(f"{key} {got[key]!r} != reference {ref!r}")
        elif isinstance(ref, list):
            if len(got[key]) != len(ref) or not all(_close(key, g, w) for g, w in zip(got[key], ref)):
                errors.append(f"{key} {got[key]!r} differs from reference {ref!r}")
        elif not _close(key, got[key], ref):
            errors.append(f"{key} {got[key]!r} differs from reference {ref!r}")
    return errors
