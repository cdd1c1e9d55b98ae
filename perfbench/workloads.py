"""Workload definitions: inputs generated from the seed, output checks, reference drift.

This module imports nothing from mtlab, so `run.py` stays light;
the programs under test run in child processes.

* solve: a closed loop of in-process `maximize_d` calls over a fixed list of
  16 problems (N in {2, 3}, 512 and 2048 nodes, `(a, b)` on both sides of
  `N'` and `N`, alpha from 0.05 to 0.9 of `alpha_N`, vanishing and interior
  cells).  The seed orders the list and gives each job its `maximize_d`
  seed; it does not pick the problems, because their costs differ by up to
  4x: drawn by the seed from 64 problems, the pass time spread twice as
  much over ten seeds as the seed-independent set-up time did.  The list is
  also what `reference.json` records.
* sweep and certify: closed loops of cold `mt` processes; the seed generates
  every `--seed` they receive.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

WHY = {
    "solve": "in-process maximize_d at N=2,3 and 512/2048 nodes: the ascent hot path alone, no GN, threads, sweeps or CLI",
    "sweep": "cold mt phase-map and alpha sweep at the default thread count: sweeps orchestration, nested pools, CSV out",
    "certify": "cold mt bgn, g-test, alpha0, alpha-star, verify-appendix: GN recomputed per command, bounds, appendix",
}

#: Passes every run completes; the tail percentile is fixed from the job count they guarantee.
MIN_PASSES = {"solve": 3, "sweep": 2, "certify": 2}

NODES = (512, 2048)
ALPHA_FRACTIONS = (0.05, 0.3, 0.6, 0.9)

#: Sharp GN constant for N = 2, 2/||Q||_2^2 of the Townes profile (Weinstein 1983).
BGN_SHARP_N2 = 0.1709270735
BGN_TOLERANCE = 1e-4

#: Tolerances of the solve checks.
CONSTRAINT_TOL = 1e-9
VALUE_RTOL = 1e-12
LOWER_BOUND_SLACK = 1e-9

VERDICTS = ("attained-certified-numerically", "no-verdict")


class CheckFailed(Exception):
    """An output broke the documented contract of its command."""


def critical_exponent(N: int) -> float:
    """alpha_N = N * omega_{N-1}^{1/(N-1)}, the same formula as mtlab.radial."""
    omega = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    return N * omega ** (1.0 / (N - 1))


def _quadrants(N: int) -> list[tuple[str, float, float]]:
    n_prime = N / (N - 1)
    a_lo, a_hi, b_lo, b_hi = 0.7 * n_prime, 1.4 * n_prime, 0.6 * N, 2.0 * N
    return [("aLbL", a_lo, b_lo), ("aHbL", a_hi, b_lo), ("aLbH", a_lo, b_hi), ("aHbH", a_hi, b_hi)]


def solve_catalog() -> dict:
    """The solve problems by id.

    Per N the four `(a, b)` quadrants take the four alpha fractions in turn
    at 512 nodes, shifted by two fractions at 2048 nodes, so each quadrant
    meets two fractions and each fraction two quadrants.
    """
    out = {}
    for N in (2, 3):
        alpha_n = critical_exponent(N)
        for nodes, shift in zip(NODES, (0, 2)):
            fracs = ALPHA_FRACTIONS[shift:] + ALPHA_FRACTIONS[:shift]
            for (quadrant, a, b), frac in zip(_quadrants(N), fracs):
                pid = f"N{N}-n{nodes}-{quadrant}-f{frac}"
                out[pid] = {"id": pid, "N": N, "alpha": frac * alpha_n, "a": a, "b": b, "nodes": nodes}
    return out


def solve_jobs(seed: int) -> list[dict]:
    """One solve pass: the problems in seeded order, each with a seeded maximize_d seed."""
    rng = random.Random(seed)
    jobs = [dict(job, seed=rng.randrange(1, 2**31)) for job in solve_catalog().values()]
    rng.shuffle(jobs)
    return jobs


def warmup_problems() -> list[dict]:
    """One fixed untimed solve per (N, nodes); the first per N fills the GN cache."""
    return [
        {"N": N, "alpha": 0.5 * critical_exponent(N), "a": 1.2 * N / (N - 1), "b": 1.5 * N, "nodes": nodes}
        for N in (2, 3)
        for nodes in NODES
    ]


_CLI_JOBS = {
    "sweep": [
        ("phase-map", "phase-map --N 2 --alpha 3 --a-min 1 --a-max 3 --a-count 2 --b-min 1 --b-max 8 --b-count 2 --format csv", "csv"),
        ("sweep", "sweep --N 2 --axis alpha --min 0.5 --max 6 --count 4 --a 3 --b 2 --format csv", "csv"),
    ],
    "certify": [
        ("bgn-N2", "bgn --N 2", "json"),
        ("bgn-N3", "bgn --N 3", "json"),
        ("g-test", "g-test --N 2 --alpha 4 --a 2 --b 8", "json"),
        ("alpha0", "alpha0 --N 2 --a 2 --b 2", "json"),
        ("alpha-star", "alpha-star --N 2 --a 2 --b 8", "json"),
        ("verify-appendix", "verify-appendix --n-max 1000 --format json", "json"),
    ],
}

CLI_JOB_NAMES = tuple(name for jobs in _CLI_JOBS.values() for name, _, _ in jobs)


def cli_jobs(workload: str, seed: int) -> list[dict]:
    """mt argument lists of one pass; `--out` is appended by the runner."""
    rng = random.Random(seed)
    return [
        {"name": name, "argv": args.split() + ["--seed", str(rng.randrange(1, 2**31))], "ext": ext}
        for name, args, ext in _CLI_JOBS[workload]
    ]


def check_cli_output(name: str, text: str) -> dict:
    """Check one command's output; return the values compared with the reference."""
    if name in ("phase-map", "sweep"):
        return _check_sweep_csv(name, text)
    payload = json.loads(text)
    if name.startswith("bgn-"):
        est = float(payload["bgn_estimate"])
        if not (est > 0 and math.isfinite(est)):
            raise CheckFailed(f"{name}: bgn_estimate {est!r} is not a positive number")
        if name == "bgn-N2" and abs(est - BGN_SHARP_N2) > BGN_TOLERANCE:
            raise CheckFailed(f"bgn-N2: {est!r} is not within {BGN_TOLERANCE} of {BGN_SHARP_N2}")
        return {"bgn_estimate": est}
    if name == "g-test":
        if payload["verdict"] not in VERDICTS:
            raise CheckFailed(f"g-test: unknown verdict {payload['verdict']!r}")
        return {"max_g": float(payload["values"]["max_g"])}
    if name == "alpha0":
        alpha0 = float(payload["values"]["alpha0"])
        if not alpha0 > 0:
            raise CheckFailed(f"alpha0: {alpha0!r} is not positive")
        return {"alpha0": alpha0}
    if name == "alpha-star":
        low, high = float(payload["alpha_low"]), float(payload["alpha_high"])
        if not low < high:
            raise CheckFailed(f"alpha-star: alpha_low {low!r} is not below alpha_high {high!r}")
        return {"alpha_low": low, "alpha_high": high}
    if name == "verify-appendix":
        if payload["all_claims_hold"] is not True:
            raise CheckFailed("verify-appendix: all_claims_hold is not true")
        return {}
    raise ValueError(f"unknown job {name!r}")


def _check_sweep_csv(name: str, text: str) -> dict:
    reader = csv.DictReader(io.StringIO(text))
    axes = reader.fieldnames[: reader.fieldnames.index("best_value")]
    values = {}
    for row in reader:
        key = ",".join(f"{ax}={row[ax]}" for ax in axes)
        if row["verdict"] == "error":
            raise CheckFailed(f"{name}: error row at {key} ({row['mode']})")
        best, lower = float(row["best_value"]), float(row["lower_bound"])
        if not best >= lower - LOWER_BOUND_SLACK:
            raise CheckFailed(f"{name}: best_value {best!r} below lower_bound {lower!r} at {key}")
        values[key] = best
    if not values:
        raise CheckFailed(f"{name}: no rows")
    return values


def nan_to_none(x: float):
    """JSON has no NaN; a rejected restart's value is stored as None."""
    return None if x != x else x


def rel_drift(value, ref) -> float:
    """Relative deviation from a reference value; None stands for a rejected restart."""
    if value is None or ref is None:
        return 0.0 if value is ref else 1.0
    if ref == 0:
        return abs(value)
    return abs(value - ref) / abs(ref)


def solve_drift(values: dict, reference: dict) -> float:
    """Largest drift of best and restart values over the solved problems."""
    worst = 0.0
    for pid, got in values.items():
        ref = reference[pid]
        worst = max(worst, rel_drift(got["best_value"], ref["best_value"]))
        if len(got["restart_values"]) != len(ref["restart_values"]):
            return 1.0
        for v, r in zip(got["restart_values"], ref["restart_values"]):
            worst = max(worst, rel_drift(v, r))
    return worst


def cli_drift(values: dict, reference: dict) -> float:
    """Largest drift over the values `check_cli_output` returned, by job name."""
    worst = 0.0
    for name, got in values.items():
        ref = reference[name]
        if set(got) != set(ref):
            return 1.0
        for key, v in got.items():
            worst = max(worst, rel_drift(v, ref[key]))
    return worst


# -- pass policy and statistics ----------------------------------------------


def keep_passing(done: int, min_passes: int, elapsed: float, last_wall: float, budget: float) -> bool:
    """Start another pass until `min_passes` are done and one more would end after `budget`."""
    return done < min_passes or elapsed + last_wall <= budget


TAIL_LADDER = (50, 75, 90, 95, 99)


def tail_percentile(n: int) -> int:
    """Highest ladder percentile with at least 10 of n samples beyond it; 100 (the max) if none."""
    fitting = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10]
    return fitting[-1] if fitting else 100


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
