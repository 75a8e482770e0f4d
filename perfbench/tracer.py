"""Outside-in tracer for the traced benchmark run.

It wraps the listed public functions of each chcon layer on their module
objects and on every other chcon module that bound them by ``from .x import
y`` at import time.  chcon looks module globals up at call time, so internal
calls nest correctly.  It also counts the calls to ``numpy.linalg.eigh``,
``eigvalsh`` and ``svd`` that go through the ``numpy.linalg`` namespace; an
eigensolve is attributed to every span open when it happens.

Spans are kept in memory (name, start, end, parent, job id) and written as
JSONL by :meth:`Tracer.write_jsonl`.  Nothing here runs in the untraced run.
"""

from __future__ import annotations

import json
import sys
import time

# module -> functions; the stats each function reports besides calls and self_s.
TARGETS = {
    "cli": {"main": ()},
    "channels": {"kraus_to_choi": (), "to_bloch_affine": (), "validate_channel": ()},
    "divergences": {"chi2_divergence": ()},
    "contraction": {
        "eta_tr": ("eigensolves", "iterations"),
        "eta_tr_upper_minoutev": ("eigensolves", "iterations"),
        "eta_chi_lower": (),
        "independence_trivial": (),
    },
    "decompose": {
        "p_constant": ("eigensolves",),
        "max_cp_weight": ("eigensolves",),
        "p2_certificate": (),
        "eb_peel_weight": (),
        "unital_split": (),
    },
    "bounds": {
        "capacity_bracket": (),
        "coherent_info_lower": (),
        "verify_stability_lemma": ("eigensolves",),
    },
    "separability": {
        "chisep": ("eigensolves", "iterations", "converged_frac"),
        "project_pt_trace": ("eigensolves",),
        "chisep_ccqq_blockdiag": ("iterations",),
        "dsep": ("iterations",),
        "chisep_ccqq": (),
        "project_ppt_density": (),
        "verify_contraction_step": (),
    },
    "simulate": {
        "apply_iid_noise": ("blocks",),
        "apply_layer": ("blocks",),
        "doubled_memory_experiment": (),
        "run_noisy_circuit": (),
    },
    "verify": {"run_suite": ()},
    "serialize": {"dumps_canonical": (), "trajectory_to_json_lines": ()},
}

KERNELS = ("eigh", "eigvalsh", "svd")


def span_stats():
    """(span name, stat) for every per-span metric, in report order."""
    for mod, funcs in TARGETS.items():
        for fn, extra in funcs.items():
            for stat in ("calls", "self_s") + extra:
                yield f"{mod}.{fn}", stat


class _Agg:
    __slots__ = ("calls", "self_s", "eigensolves", "iterations", "blocks", "converged")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.eigensolves = 0
        self.iterations = 0
        self.blocks = 0
        self.converged = 0


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    ``begin_job`` sets the id shared by every span of the next job;
    ``take_pass`` returns and resets the per-name aggregates.
    """

    def __init__(self):
        self.spans = []  # (span id, parent id, job id, name, start, end)
        self._stack = []  # [span id, start, child time, eigensolves at entry]
        self._next_id = 0
        self._job = None
        self._eig = 0
        self._kernel_calls = dict.fromkeys(KERNELS, 0)
        self._agg = {}
        self._patched = []  # (object, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        import numpy

        wrappers = {}
        for mod, funcs in TARGETS.items():
            module = sys.modules[f"chcon.{mod}"]
            for fn in funcs:
                original = getattr(module, fn)
                wrappers[id(original)] = self._wrap(original, f"{mod}.{fn}")
        for name, module in list(sys.modules.items()):
            if name != "chcon" and not name.startswith("chcon."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for kernel in KERNELS:
            self._patch(numpy.linalg, kernel, self._count(getattr(numpy.linalg, kernel), kernel))

    def uninstall(self):
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def _patch(self, obj, attr, value):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _count(self, original, kernel):
        def counted(*args, **kwargs):
            self._eig += 1
            self._kernel_calls[kernel] += 1
            return original(*args, **kwargs)

        return counted

    def _wrap(self, original, name):
        perf = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, perf(), 0.0, self._eig]
            self._stack.append(frame)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf()
                self._stack.pop()
                parent = self._stack[-1] if self._stack else None
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                self.spans.append(
                    (span_id, parent[0] if parent else None, self._job, name, frame[1], end)
                )
                agg = self._agg.get(name)
                if agg is None:
                    agg = self._agg[name] = _Agg()
                agg.calls += 1
                agg.self_s += duration - frame[2]
                agg.eigensolves += self._eig - frame[3]
                if result is not None:
                    agg.iterations += int(getattr(result, "iterations", 0) or 0)
                    blocks = getattr(result, "blocks", None)
                    if isinstance(blocks, tuple):
                        agg.blocks += len(blocks)
                    if getattr(result, "converged", False) is True:
                        agg.converged += 1

        return traced

    # -- bookkeeping ------------------------------------------------------

    def begin_job(self, job_id: str):
        self._job = job_id

    def take_pass(self) -> dict:
        """Per-span metrics of everything traced since the last call."""
        out = {}
        for span, stat in span_stats():
            agg = self._agg.get(span, _Agg())
            if stat == "converged_frac":
                value = agg.converged / agg.calls if agg.calls else 0.0
            else:
                value = getattr(agg, stat)
            out[f"{span}.{stat}"] = value
        for kernel in KERNELS:
            out[f"linalg.{kernel}.calls"] = self._kernel_calls[kernel]
        self._agg = {}
        self._kernel_calls = dict.fromkeys(KERNELS, 0)
        return out

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                     "name": name, "start": start, "end": end}) + "\n")
