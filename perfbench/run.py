"""chcon benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload channel-report --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload doubled-memory --seed 1 --seconds 34 --trace 1

Run from the root of a checkout.  It times ``setup_s`` over fresh workload
processes, runs the workload in one more process (see worker.py), gates
every job's output, prints every metric by name with its unit, the machine
facts, and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics (see README.md).
The full result, the spans and the job digests go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import KERNELS, span_stats  # noqa: E402
from worker import BLAS_ENV, WORK_DIR  # noqa: E402

SETUP_PROBES = 4  # fresh processes timed for setup_s besides the workload process
DEADLINE_S = 170.0
WORK = os.path.join(ROOT, WORK_DIR)

UNITS = {"calls": "count", "self_s": "s", "eigensolves": "count", "iterations": "count",
         "blocks": "count", "converged_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = "1"
    env.pop("CHCON_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class BenchError(RuntimeError):
    pass


def launch(args, workdir: str, extra: list, deadline: float):
    """Start one workload process; return it and its setup time and import time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT, "--workdir", workdir] + extra
    err = open(os.path.join(workdir, "worker.stderr"), "a", encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=child_env())
    err.close()
    ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if not line.startswith("READY "):
        if not ready:
            proc.kill()
        finish(proc, deadline)
        with open(os.path.join(workdir, "worker.stderr"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"workload process failed during set-up:\n{tail}")
    return proc, setup, float(line.split()[1])


def finish(proc, deadline: float) -> int:
    try:
        return proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran past the deadline and was killed")
    finally:
        proc.stdout.close()


def tail_percentile(durations: list, pct: int):
    """The ``pct``-th percentile of the job times: (value, jobs beyond it, n).

    The percentile is fixed per workload (``workloads.TAIL_PCT``), so every
    run estimates the same point of the job-time distribution.  Taking the
    eleventh-largest job instead moved that point up the distribution when a
    slower machine fitted fewer passes into the window.
    """
    n = len(durations)
    if n == 1:
        return durations[0], 0, 1
    value = statistics.quantiles(durations, n=100, method="inclusive")[pct - 1]
    return value, sum(t > value for t in durations), n


def end_to_end(result: dict, setups: list) -> tuple[dict, list]:
    per_job = {}
    for r in result["records"]:
        if r["pass"] >= 0:
            per_job.setdefault(r["job"], []).append(r["seconds"])
    timed = [t for times in per_job.values() for t in times]
    # A pass made of each job's median time, which a single disturbed job cannot skew.
    median_pass = sum(statistics.median(v) for v in per_job.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(per_job) / median_pass, "1/s"),
        "job_p50_s": (statistics.median(timed), "s"),
    }
    notes = [f"jobs timed: {len(timed)} in {len(result['passes'])} passes of "
             f"{result['jobs_per_pass']} jobs, {result['elapsed_s']:.3f} s; "
             f"setup samples: {len(setups)}"]
    pct = workloads.TAIL_PCT[result["workload"]]
    tail, beyond, n = tail_percentile(timed, pct)
    metrics["job_tail_s"] = (tail, "s")
    notes.append(f"job_tail_s is p{pct} of {n} jobs, {beyond} beyond it"
                 + ("" if beyond >= 10 else " (fewer than ten: a short run)"))
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    return metrics, notes


def per_layer(result: dict, import_times: list) -> tuple[dict, list]:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    first = traced[0]["layers"]
    metrics = {"cli.import_s": (statistics.median(import_times), "s")}
    for span, stat in span_stats():
        name = f"{span}.{stat}"
        if stat == "self_s":
            value = statistics.median(p["layers"][name] for p in traced)
        else:
            value = first[name]
        metrics[name] = (value, UNITS[stat])
    for kernel in KERNELS:
        metrics[f"linalg.{kernel}.calls"] = (first[f"linalg.{kernel}.calls"], "count")
    overhead = (statistics.median(p["seconds"] for p in traced)
                / statistics.median(p["seconds"] for p in plain) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    counters = [k for k in first if not k.endswith(".self_s")]
    repeat = all(p["layers"][k] == first[k] for p in traced for k in counters)
    notes = [f"passes: {len(traced)} traced, {len(plain)} untraced; "
             f"tracing overhead {100 * overhead:.1f}% of an untraced pass; "
             f"counters repeat across traced passes: {repeat}",
             f"spans: {result['spans_file']}"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "chcon", "cli.py")):
        print(f"perfbench: no chcon sources under {ROOT}/src", file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    setups, import_times = [], []
    try:
        for k in range(SETUP_PROBES):
            probe_dir = os.path.join(run_dir, f"probe{k}")
            os.makedirs(probe_dir)
            proc, setup, import_s = launch(args, probe_dir, ["--setup-only"], deadline)
            if finish(proc, deadline) != 0:
                raise BenchError("set-up probe exited non-zero")
            setups.append(setup)
            import_times.append(import_s)
            shutil.rmtree(probe_dir)
        workdir = os.path.join(run_dir, "run")
        os.makedirs(workdir)
        result_path = os.path.join(run_dir, "worker-result.json")
        proc, setup, import_s = launch(args, workdir, ["--result", result_path], deadline)
        setups.append(setup)
        import_times.append(import_s)
        if finish(proc, deadline) != 0:
            raise BenchError("workload process exited non-zero; see "
                             + os.path.join(workdir, "worker.stderr"))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    if args.trace:
        metrics, notes = per_layer(result, import_times)
    else:
        metrics, notes = end_to_end(result, setups)
    records = result["records"]
    failed = [r for r in records if r["errors"]]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "closed_loop": "one client, next job after the previous returns",
        "error_rate": len(failed) / len(records),
        "failures": [{"job": r["job"], "pass": r["pass"], "errors": r["errors"]} for r in failed],
        "notes": notes, "facts": result["facts"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(f"{'error_rate':48s} {summary['error_rate']:.6g} ratio "
          f"({len(failed)} failed of {len(records)} attempted)")
    for note in notes:
        print(note)
    for fail in summary["failures"][:10]:
        print(f"FAILED {fail['job']} (pass {fail['pass']}): {'; '.join(fail['errors'])}")
    print(json.dumps({"facts": result["facts"]}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
