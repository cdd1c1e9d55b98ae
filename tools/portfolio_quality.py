"""Quality of maximize_d's default restart portfolio on a fixed set of 155 seeded problems.

Runs maximize_d once per problem with the default starts and prints the wall
time and the summed ascent iterations, then, for each
start (by its index in the portfolio), the worst relative loss of the best
value had that start been dropped, and the number of problems it wins
strictly.  With --out it writes one JSON line per problem (id, best value,
verdict, mode); with --against it compares the run with such a file, so a
change and its parent can be diffed: it counts the best values that rose and
fell, the largest fall, verdict flips and mode changes, and lists each moved
value as parent -> change:

    PYTHONPATH=src python tools/portfolio_quality.py --out parent.jsonl     # in the parent's checkout
    PYTHONPATH=src python tools/portfolio_quality.py --against parent.jsonl

The set: the 16 problems of the perfbench solve catalogue, 60 random problems
(random.Random(7)), the 3 criterion-06 cells, 18 cells at alpha_N, 16 cells at
N = 5 and 11, 40 random draws up to N = 6 on 256- to 2048-node grids of both
schemes (random.Random(11)) and 2 more cells at N = 5 and 11.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import time

import numpy as np

from mtlab import MaximizeOptions, MTParams, critical_exponent, maximize_d
from mtlab.radial import GRID_SCHEMES

FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.97)


def _problem(pid, N, alpha, a, b, nodes=512, scheme="composite-gauss", seed=1):
    return pid, MTParams(N=N, alpha=alpha, a=a, b=b), MaximizeOptions(n_nodes=nodes, scheme=scheme, seed=seed)


def _random_problem(rng, N):
    """alpha = a fraction of alpha_N, a = U(0.6, 3) N' and b = U(0.4, 3) N, drawn in this order."""
    alpha = rng.choice(FRACTIONS) * critical_exponent(N)
    return alpha, rng.uniform(0.6, 3.0) * N / (N - 1), rng.uniform(0.4, 3.0) * N


def problems():
    out = []
    for N in (2, 3):  # the solve catalogue: (a, b) quadrants around (N', N), fractions shifted by 2 at 2048 nodes
        n_prime = N / (N - 1)
        quadrants = [("aLbL", 0.7, 0.6), ("aHbL", 1.4, 0.6), ("aLbH", 0.7, 2.0), ("aHbH", 1.4, 2.0)]
        fractions = (0.05, 0.3, 0.6, 0.9)
        for nodes, shift in ((512, 0), (2048, 2)):
            for (name, fa, fb), frac in zip(quadrants, fractions[shift:] + fractions[:shift]):
                pid = f"solve-N{N}-n{nodes}-{name}-f{frac}"
                out.append(_problem(pid, N, frac * critical_exponent(N), fa * n_prime, fb * N, nodes))
    rng = random.Random(7)
    for i in range(60):
        N = rng.choice([2, 2, 3, 4])
        out.append(_problem(f"random7-{i}", N, *_random_problem(rng, N)))
    for alpha in (1.0, 2.0, 3.0):
        out.append(_problem(f"criterion06-alpha{alpha:g}", 2, alpha, 3.0, 2.0, seed=7))
    for N in (2, 3, 4):
        n_prime = N / (N - 1)
        for a in (n_prime / 2, n_prime, 2 * n_prime):
            for b in (N / 2, N):
                out.append(_problem(f"alphaN-N{N}-a{a:.4g}-b{b:g}", N, critical_exponent(N), a, b))
    for N in (5, 11):
        n_prime = N / (N - 1)
        for frac in (0.3, 0.9):
            for fa in (0.8, 1.5):
                for fb in (0.6, 1.2):
                    pid = f"high-N{N}-f{frac}-a{fa}N'-b{fb}N"
                    out.append(_problem(pid, N, frac * critical_exponent(N), fa * n_prime, fb * N))
    rng = random.Random(11)
    for i in range(40):
        N = rng.randint(2, 6)
        params = _random_problem(rng, N)
        out.append(_problem(f"random11-{i}", N, *params, rng.choice([256, 512, 1024, 2048]), rng.choice(GRID_SCHEMES)))
    out.append(_problem("portfolio-N11", 11, 0.3 * critical_exponent(11), 2.2, 6.6))
    out.append(_problem("portfolio-N5", 5, 0.9 * critical_exponent(5), 2.5, 3.0))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write one JSON line per problem here")
    parser.add_argument("--against", help="compare with the JSON lines of an earlier run")
    args = parser.parse_args(argv)

    rows, values, iterations = [], [], 0
    start = time.perf_counter()
    for pid, p, opts in problems():
        rep = maximize_d(p, opts)
        values.append(np.array(rep.restart_values))
        iterations += rep.iterations
        rows.append({"id": pid, "best_value": rep.best_value, "exceeds_lower_bound": rep.exceeds_lower_bound,
                     "mode": rep.mode_diagnostic})
    wall = time.perf_counter() - start

    print(f"{len(rows)} problems, {wall:.2f} s of maximize_d, {iterations} ascent iterations")
    print("start  worst relative loss if dropped  strict wins")
    for i in range(len(values[0])):
        losses, wins = [], 0
        for v in values:
            others = np.delete(v, i)
            rest = np.nanmax(others) if np.isfinite(others).any() else -math.inf
            best = np.nanmax(v)
            losses.append((best - rest) / abs(best) if math.isfinite(rest) else math.inf)
            wins += bool(v[i] > rest)
        print(f"{i:5d}  {max(losses):30.3e}  {wins:11d}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = {row["id"]: row for row in map(json.loads, fh)}
        pairs = [(row, before[row["id"]]) for row in rows]
        moved = [(new, old) for new, old in pairs if new["best_value"] != old["best_value"]]
        change = [(new["best_value"] - old["best_value"]) / abs(old["best_value"]) for new, old in moved]
        falls = [-c for c in change if c < 0]
        flips = sum(new["exceeds_lower_bound"] != old["exceeds_lower_bound"] for new, old in pairs)
        modes = sum(new["mode"] != old["mode"] for new, old in pairs)
        print(f"against {args.against}: {len(moved)} of {len(rows)} best values moved, by at most "
              f"{max(map(abs, change), default=0.0):.2e} relative; {len(change) - len(falls)} rose, {len(falls)} fell "
              f"(largest fall {max(falls, default=0.0):.2e} relative); {flips} verdict flips, {modes} mode changes")
        for (new, old), c in zip(moved, change):
            mode = f", {old['mode']} -> {new['mode']}" if new["mode"] != old["mode"] else ""
            print(f"  {new['id']}: {old['best_value']!r} -> {new['best_value']!r} ({c:+.2e}{mode})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
