"""The mtlab benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload {solve,sweep,certify} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout: it uses the `src/` next to
this directory and nothing installed, and it fails at once when `src/mtlab`
is missing.  Scratch files go to `.perfbench/` at the checkout root.

Every workload is a closed loop with one client: jobs run one after another
and a pass over the workload's fixed job list repeats until another pass
would end after `--seconds`, but at least `workloads.MIN_PASSES` times.  The seed
generates every input (see `workloads.py`); each job's output is checked
after its pass and a failed check counts the job as failed.

`--trace 0` prints the end-to-end metrics: set-up time, the medians of pass
wall and CPU time over the passes, the median and tail per-job latency, and
peak RSS.  `--trace 1` prints the per-layer metrics of `tracing.py` from one
traced pass, the per-command medians of the untraced passes, the tracing
overhead (traced over untraced pass wall) and the drift from
`reference.json`.  For solve one process runs the traced set-up, an
untraced pass and a traced pass; for the command-line workloads untraced
passes fill half of `--seconds`, then each command of the traced pass runs
in `cli_child.py`.  The human-readable report goes first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

#: Children still running this long after the start are killed, so a run ends within 180 s.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = {"solve": 3, "sweep": 9, "certify": 9}

#: What the `mt` console script runs.
MT_ENTRY = "import sys; from mtlab.cli import main; sys.exit(main())"


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


class Runner:
    """Starts children with the checkout's source, reaps them and keeps the score."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        env = dict(os.environ)
        env.pop("MT_LAB_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + [p for p in [env.get("PYTHONPATH")] if p])
        self.env = env
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{label}: {error}")

    def spawn(self, argv: list[str], log: str, pass_t0: bool = False):
        """Run a child to completion; return (exit code, wall seconds, rusage)."""
        with open(os.path.join(self.workdir, log + ".out"), "wb") as out, open(
            os.path.join(self.workdir, log + ".err"), "wb"
        ) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv + ([repr(t0)] if pass_t0 else []), stdout=out, stderr=err, env=self.env, cwd=self.workdir
            )
            timer = threading.Timer(max(0.1, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def stderr_tail(self, log: str) -> str:
        with open(os.path.join(self.workdir, log + ".err"), encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines()
        return lines[-1] if lines else ""


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


# -- solve ----------------------------------------------------------------------


def _solve_worker(runner: Runner, spec: dict, tag: str):
    spec_path = os.path.join(runner.workdir, f"{tag}.spec.json")
    out_path = os.path.join(runner.workdir, f"{tag}.result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    argv = [sys.executable, os.path.join(HERE, "solve_worker.py"), spec_path, out_path]
    code, _, usage = runner.spawn(argv, tag, pass_t0=True)
    if code != 0 or not os.path.exists(out_path):
        raise BenchError(f"solve worker {tag} exited {code}: {runner.stderr_tail(tag)}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh), usage


def _score_solve_passes(runner: Runner, result: dict, label: str) -> None:
    for k, p in enumerate(result["passes"]):
        for job in p["jobs"]:
            runner.record(f"{label} pass {k} {job['id']}", job["error"])


def run_solve(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    spec = {
        "jobs": workloads.solve_jobs(seed),
        "warmup": workloads.warmup_problems(),
        "seconds": seconds,
        "min_passes": workloads.MIN_PASSES["solve"],
        "max_passes": None,
        "trace": False,
        "setup_only": False,
    }
    out = {}
    if not trace:
        setups = [
            _solve_worker(runner, dict(spec, setup_only=True), f"setup{i}")[0]["setup_s"]
            for i in range(SETUP_SAMPLES["solve"] - 1)
        ]
        result, usage = _solve_worker(runner, spec, "solve")
        setups.append(result["setup_s"])
        out["setup_samples"] = setups
    else:
        result, usage = _solve_worker(runner, dict(spec, trace=True, min_passes=2, max_passes=2), "traced")
        out["trace"] = result["trace"]
        out["traced_wall_s"] = result["passes"][1]["wall_s"]
    _score_solve_passes(runner, result, "solve")
    untraced = [p for p in result["passes"] if not p["traced"]]
    out["pass_walls"] = [p["wall_s"] for p in untraced]
    out["pass_cpus"] = [p["cpu_s"] for p in untraced]
    out["latencies"] = [j["latency_s"] for p in untraced for j in p["jobs"]]
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["solve"]
    out["drift"] = workloads.solve_drift(result["values"], reference)
    out["cli_p50"] = {}
    return out


# -- sweep and certify ------------------------------------------------------------


def _cli_pass(runner: Runner, jobs: list[dict], tag: str, traced: bool) -> dict:
    pass_rec = {"wall_s": 0.0, "cpu_s": 0.0, "jobs": []}
    wall0 = time.perf_counter()
    for job in jobs:
        log = f"{tag}-{job['name']}"
        out_file = os.path.join(runner.workdir, f"{log}.{job['ext']}")
        mt_args = job["argv"] + ["--out", out_file]
        agg = os.path.join(runner.workdir, f"{log}.trace.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), agg, "--"] + mt_args
        else:
            argv = [sys.executable, "-c", MT_ENTRY] + mt_args
        code, wall, usage = runner.spawn(argv, log)
        pass_rec["cpu_s"] += _cpu(usage)
        pass_rec["jobs"].append(
            {
                "name": job["name"],
                "log": log,
                "out": out_file,
                "agg": agg,
                "code": code,
                "latency_s": wall,
                "rss_kb": usage.ru_maxrss,
            }
        )
    pass_rec["wall_s"] = time.perf_counter() - wall0
    return pass_rec


def _check_cli_job(runner: Runner, job: dict, first: dict | None, label: str):
    """Score one finished command; return its checked values, or None if it failed."""
    if job["code"] != 0:
        runner.record(label, f"exit code {job['code']}: {runner.stderr_tail(job['log'])}")
        return None
    try:
        with open(job["out"], "rb") as fh:
            data = fh.read()
        values = workloads.check_cli_output(job["name"], data.decode("utf-8"))
    except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        runner.record(label, f"{type(exc).__name__}: {exc}")
        return None
    if first is not None and data != first["data"]:
        runner.record(label, "output differs from the first pass")
        return None
    runner.record(label, None)
    return {"data": data, "values": values}


def run_cli(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workloads.cli_jobs(workload, seed)
    out = {}
    if not trace:
        setups = []
        for i in range(SETUP_SAMPLES[workload]):
            code, wall, _ = runner.spawn([sys.executable, "-c", MT_ENTRY, "--version"], f"setup{i}")
            if code != 0:
                raise BenchError(f"mt --version exited {code}: {runner.stderr_tail(f'setup{i}')}")
            setups.append(wall)
        out["setup_samples"] = setups
    budget, min_passes = (seconds / 2, 1) if trace else (seconds, workloads.MIN_PASSES[workload])
    passes = []
    start = time.perf_counter()
    while not passes or workloads.keep_passing(
        len(passes), min_passes, time.perf_counter() - start, passes[-1]["wall_s"], budget
    ):
        passes.append(_cli_pass(runner, jobs, f"p{len(passes)}", traced=False))
    first: dict = {}
    for k, p in enumerate(passes):
        for job in p["jobs"]:
            checked = _check_cli_job(runner, job, first.get(job["name"]), f"pass {k} {job['name']}")
            if checked is not None:
                first.setdefault(job["name"], checked)
    if trace:
        traced = _cli_pass(runner, jobs, "traced", traced=True)
        aggregates = []
        for job in traced["jobs"]:
            _check_cli_job(runner, job, first.get(job["name"]), f"traced {job['name']}")
            if job["code"] == 0:
                with open(job["agg"], encoding="utf-8") as fh:
                    aggregates.append(json.load(fh))
        out["trace"] = tracing.merge(aggregates)
        out["traced_wall_s"] = traced["wall_s"]
    out["pass_walls"] = [p["wall_s"] for p in passes]
    out["pass_cpus"] = [p["cpu_s"] for p in passes]
    out["latencies"] = [j["latency_s"] for p in passes for j in p["jobs"]]
    out["peak_rss_mb"] = max(j["rss_kb"] for p in passes for j in p["jobs"]) / 1024.0
    out["cli_p50"] = {
        job["name"]: statistics.median(j["latency_s"] for p in passes for j in p["jobs"] if j["name"] == job["name"])
        for job in jobs
    }
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["cli"]
    out["drift"] = workloads.cli_drift({name: c["values"] for name, c in first.items()}, reference)
    return out


# -- metrics ----------------------------------------------------------------------


def end_to_end_metrics(workload: str, m: dict) -> dict:
    jobs_per_pass = len(workloads.solve_jobs(0) if workload == "solve" else workloads.cli_jobs(workload, 0))
    tail_p = workloads.tail_percentile(jobs_per_pass * workloads.MIN_PASSES[workload])
    lat = m["latencies"]
    return {
        "setup_s": (statistics.median(m["setup_samples"]), "s", f"median of {len(m['setup_samples'])} set-ups"),
        "wall_s": (statistics.median(m["pass_walls"]), "s", f"median of {len(m['pass_walls'])} passes"),
        "job_p50_s": (statistics.median(lat), "s", f"n={len(lat)}"),
        "job_tail_s": (workloads.percentile(lat, tail_p), "s", f"p{tail_p}, n={len(lat)}"),
        "cpu_s": (statistics.median(m["pass_cpus"]), "s", f"median of {len(m['pass_cpus'])} passes"),
        "peak_rss_mb": (m["peak_rss_mb"], "MiB", "largest job process"),
    }


def per_layer_metrics(agg: dict, cli_p50: dict, overhead: float, drift: float) -> dict:
    m = {}
    for name, entry in agg["functions"].items():
        m[f"{name}.calls"] = (entry["calls"], "count")
        m[f"{name}.self_s"] = (entry["self_s"], "s")
        if name in tracing.WITH_TOTAL:
            m[f"{name}.total_s"] = (entry["total_s"], "s")
    c = agg["counters"]
    iters = c["maximize.iterations"]
    evals = agg["functions"]["functional.mt_integral"]["calls"]
    m["maximize.evals_per_iter"] = (evals / iters if iters else 0.0, "1")
    m["maximize.iterations"] = (iters, "count")
    m["maximize.gn_iterations"] = (c["maximize.gn_iterations"], "count")
    for key in ("radial.RadialGrid.constructions", "radial.RadialProfile.constructions"):
        m[key] = (c[key], "count")
    m["radial.validation_s"] = (c["radial.validation_s"], "s")
    m["sweeps.cells"] = (c["sweeps.cells"], "count")
    m["sweeps.threads"] = (agg["sweep_threads"], "count")
    wall = agg["sweep_wall_s"]
    m["sweeps.parallel_ratio"] = (agg["sweep_maximize_d_s"] / wall if wall else 0.0, "1")
    cells = c["bounds.cells"]
    m["bounds.maximize_d_per_cell"] = (agg["bracket_maximize_d_calls"] / cells if cells else 0.0, "1")
    for name in workloads.CLI_JOB_NAMES:
        m[f"cli.{name}.p50_s"] = (cli_p50.get(name, 0.0), "s")
    m["trace.overhead_ratio"] = (overhead, "1")
    m["results.max_rel_drift"] = (drift, "1")
    return m


# -- provenance and report ----------------------------------------------------------


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def provenance(workload: str, seed: int) -> dict:
    """Machine, library versions and the thread count the measured default implies."""
    sys.path.insert(0, SRC)
    import mtlab
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "threads": 1 if workload == "solve" else (os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "mtlab": mtlab.__version__,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mtlab", "__init__.py")):
        print(f"perfbench: no mtlab source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir)
    trace = bool(args.trace)
    try:
        if args.workload == "solve":
            m = run_solve(runner, args.seed, args.seconds, trace)
        else:
            m = run_cli(runner, args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: {exc} (logs in {workdir})", file=sys.stderr)
        return 1

    wall = statistics.median(m["pass_walls"])
    if trace:
        overhead = m["traced_wall_s"] / wall
        rows = per_layer_metrics(m["trace"], m["cli_p50"], overhead, m["drift"])
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in rows.items()}
        lines = [f"  {name:<44} {v:>14.6g} {u}" for name, (v, u) in rows.items()]
    else:
        rows = end_to_end_metrics(args.workload, m)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in rows.items()}
        lines = [f"  {name:<12} {v:>12.6g} {u:<4} {note}" for name, (v, u, note) in rows.items()]
        lines.append(f"  {'results.max_rel_drift':<12} {m['drift']:.3g} (not gated)")
    failed = len(runner.errors)
    lines.append(f"  {'failed_ratio':<12} {failed / runner.attempted:>12.6g} 1    {failed} of {runner.attempted} jobs")
    prov = provenance(args.workload, args.seed)
    print(f"workload {args.workload} ({'traced' if trace else 'end to end'}): {prov['why']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for err in runner.errors[:20]:
        print(f"  FAILED {err}")
    print("\n".join(lines))
    report = {"provenance": prov, "metrics": metrics, "errors": runner.errors, "raw": m}
    report_name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, report_name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if not runner.errors:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": not runner.errors, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
