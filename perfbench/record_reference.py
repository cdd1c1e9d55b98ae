"""Record the reference results that `results.max_rel_drift` is measured against.

    python3 perfbench/record_reference.py

Solves every problem of the solve catalogue once and runs every sweep and
certify command once (seed 1), then writes `reference.json`.  At default
options the results do not depend on the seed: twelve restarts use only the
deterministic start families.  Re-record only when a change of results is
intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    import mtlab

    solve = {}
    for pid, job in workloads.solve_catalog().items():
        p = mtlab.MTParams(N=job["N"], alpha=job["alpha"], a=job["a"], b=job["b"])
        report = mtlab.maximize_d(p, mtlab.MaximizeOptions(n_nodes=job["nodes"]))
        solve[pid] = {
            "params": job,
            "best_value": report.best_value,
            "restart_values": [workloads.nan_to_none(v) for v in report.restart_values],
        }
        print(pid, report.best_value, flush=True)

    workdir = os.path.join(run.WORK, f"record-{os.getpid()}")
    os.makedirs(workdir)
    runner = run.Runner(workdir)
    cli = {}
    for workload in ("sweep", "certify"):
        for job in run._cli_pass(runner, workloads.cli_jobs(workload, 1), "ref", traced=False)["jobs"]:
            checked = run._check_cli_job(runner, job, None, job["name"])
            if checked is None:
                print("\n".join(runner.errors), file=sys.stderr)
                return 1
            cli[job["name"]] = checked["values"]
            print(job["name"], checked["values"], flush=True)
    shutil.rmtree(workdir)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"solve": solve, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
