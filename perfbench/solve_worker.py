"""The process that runs the solve workload: set-up, then timed passes.

    python3 solve_worker.py SPEC_JSON OUT_JSON T_SPAWN

`run.py` starts it with the checkout's `src` on PYTHONPATH and passes the
`time.perf_counter()` it read just before starting it, so set-up time counts
interpreter start, `import mtlab` and one untimed warm-up solve per
(N, nodes), which fills the GN cache.  The spec holds the generated jobs
and the pass policy: passes run until `min_passes` are done and another
would end past `seconds`, or until `max_passes`.  Each job is checked after
its pass, outside the timed region.  With `trace` the tracer records the
set-up and every second pass, never the checks; the passes in between run
with the wrappers installed but idle, for the overhead ratio.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time


def _params(mtlab, job):
    return mtlab.MTParams(N=job["N"], alpha=job["alpha"], a=job["a"], b=job["b"])


def _check(mtlab, workloads, report) -> str | None:
    """The first contract violation of a solve report, or None."""
    p, best = report.params, report.best_value
    constraint = mtlab.constraint_value(report.best_profile, p)
    if abs(constraint - 1.0) > workloads.CONSTRAINT_TOL:
        return f"best profile is infeasible: constraint value {constraint!r}"
    value = mtlab.mt_integral(report.best_profile, p)
    if abs(value - best) > workloads.VALUE_RTOL * abs(best):
        return f"mt_integral(best_profile) = {value!r} differs from best_value {best!r}"
    if not best >= report.lower_bound - workloads.LOWER_BOUND_SLACK:
        return f"best_value {best!r} below lower_bound {report.lower_bound!r}"
    return None


def _fingerprint(report) -> str:
    h = hashlib.sha256()
    h.update(repr((report.best_value, report.restart_values, report.iterations)).encode())
    h.update(report.best_profile.values.tobytes())
    h.update(report.best_profile.grid.nodes.tobytes())
    return h.hexdigest()


def main(spec_path: str, out_path: str, t_spawn: float) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import mtlab
    import workloads

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for job in spec["warmup"]:
        mtlab.maximize_d(_params(mtlab, job), mtlab.MaximizeOptions(n_nodes=job["nodes"]))
    out = {"setup_s": time.perf_counter() - t_spawn, "passes": [], "values": {}, "fingerprints": {}}
    if spec["setup_only"]:
        return _write(out, out_path)

    start = time.perf_counter()
    while True:
        reports, records = [], []
        traced = tracer is not None and len(out["passes"]) % 2 == 1
        if tracer is not None:
            tracer.active = traced
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for job in spec["jobs"]:
            t0 = time.perf_counter()
            try:
                report = mtlab.maximize_d(
                    _params(mtlab, job), mtlab.MaximizeOptions(n_nodes=job["nodes"], seed=job["seed"])
                )
                error = None
            except Exception as exc:  # a failed job is counted, the loop goes on
                report, error = None, f"{type(exc).__name__}: {exc}"
            records.append({"id": job["id"], "latency_s": time.perf_counter() - t0, "error": error})
            reports.append(report)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.active = False
        for record, report in zip(records, reports):
            if report is None:
                continue
            record["error"] = _check(mtlab, workloads, report)
            fp = _fingerprint(report)
            first = out["fingerprints"].setdefault(record["id"], fp)
            if record["error"] is None and fp != first:
                record["error"] = "repeating the problem gave a different result"
            out["values"].setdefault(
                record["id"],
                {
                    "best_value": report.best_value,
                    "restart_values": [workloads.nan_to_none(v) for v in report.restart_values],
                },
            )
        out["passes"].append({"wall_s": wall, "cpu_s": cpu, "traced": traced, "jobs": records})
        done = len(out["passes"])
        if done == spec.get("max_passes"):
            break
        if not workloads.keep_passing(done, spec["min_passes"], time.perf_counter() - start, wall, spec["seconds"]):
            break
    if tracer is not None:
        out["trace"] = tracer.aggregate()
    return _write(out, out_path)


def _write(out: dict, path: str) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
