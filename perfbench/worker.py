"""The workload process: one closed-loop client calling ``chcon.cli.main``.

Started by run.py with BLAS pinned to one thread.  It imports ``chcon.cli``
from the checkout's ``src``, writes the seeded inputs, prints ``READY
<import seconds>`` and, unless ``--setup-only``, runs one warm-up job, then
whole passes over the fixed job list, ending at the pass boundary nearest
``--seconds``.  With ``--trace 1`` the passes are
alternately traced and untraced, and at least one of each runs.

Outputs are gated after the timed window, and everything is written to the
``--result`` JSON file for run.py to summarise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK_DIR = ".perfbench_work"  # run outputs, under the checkout root
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _import_cli(src: str):
    start = time.perf_counter()
    import chcon.cli

    elapsed = time.perf_counter() - start
    origin = os.path.realpath(chcon.cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"chcon imported from {origin}, not from {src}")
    return chcon.cli, elapsed


def run_job(cli, job) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception:
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    return {"job": job.name, "seconds": seconds, "rc": rc, "error": error,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def gate_records(records: list, jobs_by_name: dict, seed: int, reference: dict | None) -> None:
    """Fill ``errors`` and ``digest`` of each record and drop its captured output.

    A job fails on a non-zero exit, an exception, a broken invariant, a
    pinned value off its reference, or output bytes that differ from an
    earlier run of the same job.
    """
    first_digest = {}
    for rec in records:
        job = jobs_by_name[rec["job"]]
        errors = []
        if rec["error"] is not None:
            errors.append("raised: " + rec["error"].strip().splitlines()[-1])
        else:
            try:
                doc = gate.parse(job.kind, rec["stdout"])
                errors += gate.check(job.kind, rec["rc"], doc)
                if seed == gate.DEFAULT_SEED:
                    want = (reference or {}).get(job.name)
                    if want is None:
                        errors.append("no pinned reference for this job")
                    else:
                        errors += gate.compare(gate.pinned(job.kind, doc), want)
            except (ValueError, KeyError, TypeError) as exc:
                errors.append(f"unreadable output: {exc!r}; stderr: {rec['stderr'][-300:]!r}")
        digest = hashlib.sha256(rec["stdout"].encode("utf-8")).hexdigest()
        if first_digest.setdefault(job.name, digest) != digest:
            errors.append("output bytes differ from an earlier pass")
        rec["digest"] = digest
        rec["errors"] = errors
        del rec["stdout"], rec["stderr"]


def machine_facts(root: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # the config layout differs across numpy releases
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "CHCON_THREADS": os.environ.get("CHCON_THREADS", "unset (default)"),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: str) -> str:
    """sha256 over the chcon sources, which identifies the code under test."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "chcon")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_stored_digests(records: list, path: str) -> None:
    """Compare each job's digest with an earlier run of the same code and seed."""
    digests = {r["job"]: r["digest"] for r in records}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        for rec in records:
            want = stored.get(rec["job"])
            if want is not None and want != rec["digest"]:
                rec["errors"].append("output bytes differ from an earlier run of the same code")
        stored.update(digests)
        digests = stored
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, sort_keys=True, indent=1)


def run_passes(cli, jobs, seconds: float, tracer: Tracer | None = None):
    """Whole passes over the job list, ending at the pass boundary nearest ``seconds``.

    With a tracer, even passes are traced and odd ones are not, and at least
    one of each runs.  Returns the job records, the passes and the elapsed time.
    """
    records, passes = [], []
    start = time.perf_counter()
    index = 0
    while True:
        is_traced = tracer is not None and index % 2 == 0
        if is_traced:
            tracer.install()
        t0 = time.perf_counter()
        for j, job in enumerate(jobs):
            if is_traced:
                tracer.begin_job(f"{index}:{j}:{job.name}")
            rec = run_job(cli, job)
            rec["pass"] = index
            records.append(rec)
        duration = time.perf_counter() - t0
        layers = None
        if is_traced:
            tracer.uninstall()
            layers = tracer.take_pass()
        passes.append({"traced": is_traced, "seconds": duration, "layers": layers})
        index += 1
        elapsed = time.perf_counter() - start
        enough = tracer is None or index >= 2
        if enough and elapsed + 0.5 * elapsed / index >= seconds:
            return records, passes, elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli, import_s = _import_cli(os.path.join(args.root, "src"))
    jobs = workloads.build_jobs(args.workload, args.seed, args.workdir)
    print(f"READY {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    jobs_by_name = {j.name: j for j in jobs}
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload)

    warm = run_job(cli, jobs[0])
    warm["pass"] = -1
    tracer = Tracer() if args.trace else None
    records, passes, elapsed = run_passes(cli, jobs, args.seconds, tracer)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": passes, "elapsed_s": elapsed}
    if tracer is not None:
        result["spans_file"] = os.path.join(args.workdir, "spans.jsonl")
        tracer.write_jsonl(result["spans_file"])
    records = [warm] + records
    gate_records(records, jobs_by_name, args.seed, reference)
    facts = machine_facts(args.root)
    # Stored outputs are comparable only for the same chcon sources and the
    # same input generators.
    with open(os.path.join(HERE, "workloads.py"), "rb") as fh:
        inputs_digest = hashlib.sha256(fh.read()).hexdigest()
    digest_dir = os.path.join(args.root, WORK_DIR, "digests")
    os.makedirs(digest_dir, exist_ok=True)
    check_stored_digests(records, os.path.join(
        digest_dir, f"{args.workload}-seed{args.seed}-{facts['source_digest'][:16]}"
                    f"-{inputs_digest[:16]}.json"))
    result["records"] = records
    result["jobs_per_pass"] = len(jobs)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["facts"] = facts
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
