"""Rewrite reference.json: the values the correctness gate pins at the default seed.

    python3 perfbench/pin_reference.py [WORKLOAD ...]

Runs every job of each workload once at ``gate.DEFAULT_SEED`` and records
what ``gate.pinned`` extracts.  Re-pinning changes the benchmark, so do it
only in a change that redefines the benchmark, never in one that claims a
gain.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

# Pin BLAS to one thread, as run.py does, before numpy is imported.
for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_key] = "1"
os.environ.pop("CHCON_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from worker import run_job  # noqa: E402


def main(names) -> int:
    import chcon.cli as cli

    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in names or workloads.WORKLOADS:
        pins = {}
        with tempfile.TemporaryDirectory(dir=HERE) as workdir:
            for job in workloads.build_jobs(workload, gate.DEFAULT_SEED, workdir):
                rec = run_job(cli, job)
                doc = gate.parse(job.kind, rec["stdout"])
                errors = gate.check(job.kind, rec["rc"], doc)
                if rec["error"] or errors:
                    print(f"{job.name}: {rec['error'] or errors}", file=sys.stderr)
                    return 1
                pins[job.name] = gate.pinned(job.kind, doc)
                print(f"{workload} {job.name}: {pins[job.name]}")
        reference[workload] = pins
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
