"""Closed-form bounds, attainment criteria and threshold bracketing.

Certification is one-sided throughout: a feasible profile whose value
exceeds the universal lower bound alpha^{N-1}/(N-1)! by more than
CERTIFY_MARGIN certifies that the supremum exceeds it (and hence is
attained, in the subcritical range); no numerical computation here ever
claims non-attainment.  Verdicts encode that asymmetry explicitly.

The bound and the margin are defined in `functional.py`, the verdict strings
here and nowhere else.  A maximize_d run certifies iff its report's
`exceeds_lower_bound` is set, and `bracket_alpha_star` runs the g-test, on the
ratio of `maximize.cached_gn_report`, before any maximize_d at each alpha.
Where `MTParams.finite_supremum` is false, the supremum is infinite and nothing certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import BracketNotFoundError, InvalidParameterError, SeriesOverflowError
from .functional import EXP_ARG_LIMIT, MTParams
from .maximize import MaximizeOptions, MaximizerReport, cached_gn_report, maximize_d
from .radial import check_dimension, critical_exponent

__all__ = [
    "VERDICT_CERTIFIED",
    "VERDICT_NONE",
    "VERDICT_NONEXISTENCE_REGIME",
    "VERDICT_INFINITE_SUP",
    "VERDICT_ERROR",
    "BoundReport",
    "g_function",
    "g_function_test",
    "c_tilde_series",
    "alpha0_nonexistence",
    "BracketOptions",
    "BracketReport",
    "bracket_alpha_star",
]

VERDICT_CERTIFIED = "attained-certified-numerically"
VERDICT_NONE = "no-verdict"
VERDICT_NONEXISTENCE_REGIME = "nonexistence-regime"
#: The verdict of the g-test and of sweep rows where the supremum is infinite (alpha = alpha_N with b > N, no
#: maximization runs), and of sweep rows whose cell raised.
VERDICT_INFINITE_SUP = "infinite-sup-regime"
VERDICT_ERROR = "error"

#: The g-test certifies iff max g > 1 + G_TEST_MARGIN; g is scanned at G_TEST_SAMPLES points first.
G_TEST_MARGIN = 1e-8
G_TEST_SAMPLES = 10_000


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus the identity that produced it, for audit."""

    kind: str
    values: dict
    verdict: str
    provenance: str

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def g_function(t, alpha: float, a: float, b: float, N: int, bgn: float):
    """g(t) = t^{N/b} (1 + (alpha/N) * bgn * (1-t)^{N'/a}) on [0, 1].

    Built from the two-parameter family on a GN maximizer: the truncated
    objective there equals (alpha^{N-1}/(N-1)!) * g(t), so max g > 1
    certifies exceedance of the universal lower bound.
    """
    t = np.asarray(t, dtype=float)
    n_prime = N / (N - 1.0)
    return t ** (N / b) * (1.0 + (alpha / N) * bgn * (1.0 - t) ** (n_prime / a))


INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, max_iter: int, tol: float):
    """Golden-section search for a maximum of f on [lo, hi].

    Stops after max_iter shrinks or once the bracket is narrower than tol;
    returns (x, f(x)) of the better of the last two points, x1 on a tie.
    """
    x1 = hi - INV_GOLDEN * (hi - lo)
    x2 = lo + INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        if hi - lo < tol:
            break
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _check_constant(name: str, value: float) -> None:
    """A user-supplied constant (bgn, the interpolation constant C) must lie in (0, inf)."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be positive and finite, got {value}")


def g_function_test(alpha: float, a: float, b: float, N: int, bgn: float) -> BoundReport:
    """Scan g over [0, 1]; max g > 1 certifies attainment (sufficient test) where the supremum is finite.

    `bgn` must be a certified lower bound for the GN best constant: g is
    increasing in bgn, so undershooting it only weakens the test, never
    breaks its validity.  Also reports the endpoint derivative
    g'(1) = N/b - alpha * bgn / N at a = N' (negative iff
    b > N^2/(alpha * bgn), the condition that forces max g > 1).
    """
    finite = MTParams(N=N, alpha=alpha, a=a, b=b).finite_supremum
    _check_constant("bgn", bgn)
    _check_constant("alpha * bgn / N", alpha / N * bgn)  # finite, so g is: g <= 1 + alpha bgn / N
    ts = np.linspace(0.0, 1.0, G_TEST_SAMPLES)
    gs = g_function(ts, alpha, a, b, N, bgn)
    k = int(np.argmax(gs))
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, G_TEST_SAMPLES - 1)]
    t_best, g_best = golden_section_max(lambda t: float(g_function(t, alpha, a, b, N, bgn)), lo, hi, 80, 1e-14)
    if float(gs[k]) > g_best:
        t_best, g_best = float(ts[k]), float(gs[k])
    gprime_at_1 = N / b - alpha * bgn / N
    verdict = VERDICT_CERTIFIED if g_best > 1.0 + G_TEST_MARGIN else VERDICT_NONE
    verdict = verdict if finite else VERDICT_INFINITE_SUP
    return BoundReport(
        kind="g-test",
        values={
            "max_g": g_best,
            "argmax_t": t_best,
            "gprime_at_1_for_a_conjugate": gprime_at_1,
            "alpha": alpha,
            "a": a,
            "b": b,
            "bgn": bgn,
        },
        verdict=verdict,
        provenance="g-test:gn-two-parameter-family",
    )


@cache
def _relative_series(N: int) -> float:
    """T = C~ (N-1)! / (N C)^N = sum_j t_j, t_0 = 1, t_{j+1} = t_j (1 + 1/k)^{k+1} / (2e), k = j + N.

    The ratio is below 1 and tends to 1/2, so 1 <= T < 3; the sum stops at a term below 1e-16 of it, once j > 4.
    """
    total, term, k = 1.0, 1.0, N
    while not (term < 1e-16 * total and k > N + 4):
        term *= math.exp((k + 1) * math.log1p(1.0 / k) - 1.0) / 2.0
        total += term
        k += 1
    return total


def c_tilde_series(N: int, gn_c: float) -> float:
    """C~ = C^N sum_{j>=0} (j+N)^{j+N}/(j+N-1)! (2e)^{-j} = (N C)^N T / (N-1)!, formed in log space.

    Raises SeriesOverflowError where C~ leaves the double range.
    """
    check_dimension(N)
    _check_constant("interpolation constant", gn_c)
    log_c = N * math.log(N * gn_c) - math.lgamma(N) + math.log(_relative_series(N))
    if log_c > EXP_ARG_LIMIT:
        raise SeriesOverflowError(f"C~ = e^{log_c:.6g} for N = {N}, C = {gn_c:g} exceeds the double range")
    return math.exp(log_c)


def _check_alpha0_powers(a: float, b: float, N: int) -> None:
    """alpha0_nonexistence needs 0 < a <= N' and 0 < b < inf."""
    if not (0 < a <= N / (N - 1.0)):
        raise InvalidParameterError(f"a must lie in (0, N'] = (0, {N / (N - 1.0):.6g}], got {a}")
    _check_constant("b", b)


def alpha0_nonexistence(a: float, b: float, N: int, gn_c: float) -> BoundReport:
    """Explicit alpha_0 below which the supremum is certainly not attained.

    alpha_0 = min{ min{a/b, 1} / (C~ (N-2)!), 1/(2 e C), alpha_N }, valid
    for a <= N'; gn_c is a constant C for the interpolation inequality
    ||v||_{N'j}^{N'j} <= C^j j^j ||v||_N^N ||grad v||_N^{N'j - N}.  The series
    bound, min{a/b, 1} (N-1) / (T (N C)^N), is capped at alpha_N, where it stops
    binding, and is 0 where (N C)^N overflows; SeriesOverflowError if C~ does.
    """
    check_dimension(N)
    _check_alpha0_powers(a, b, N)
    alpha_critical = critical_exponent(N)
    c_tilde = c_tilde_series(N, gn_c)
    with np.errstate(over="ignore", divide="ignore"):  # (N C)^N may leave the doubles at either end
        first = float(min(a / b, 1.0) * (N - 1) / (_relative_series(N) * np.float64(N * gn_c) ** N))
    first = min(first, alpha_critical)
    second = 1.0 / (2.0 * math.e * gn_c)
    alpha0 = min(first, second, alpha_critical)
    return BoundReport(
        kind="alpha0",
        values={
            "alpha0": alpha0,
            "c_tilde": c_tilde,
            "series_bound": first,
            "radius_bound": second,
            "alpha_critical": alpha_critical,
        },
        verdict=VERDICT_NONEXISTENCE_REGIME,
        provenance="alpha0:series-contradiction-bound",
    )


@dataclass(frozen=True)
class BracketOptions:
    """alpha grid, bisection steps and maximize_d options of bracket_alpha_star; every cell runs the g-test first."""

    alpha_min: float | None = None
    alpha_max: float | None = None
    count: int = 12
    bisect_iters: int = 0
    maximize_opts: MaximizeOptions = field(default_factory=MaximizeOptions)

    def __post_init__(self):
        if self.count < 2:
            raise InvalidParameterError(f"count must be >= 2, got {self.count}")
        if self.bisect_iters < 0:
            raise InvalidParameterError(f"bisect_iters must be >= 0, got {self.bisect_iters}")

    def alpha_range(self, a: float, b: float, N: int) -> tuple[float, float]:
        """(alpha_min, alpha_max) for the problem (a, b, N), defaults alpha_N / 50 and 0.98 alpha_N.

        Raises InvalidParameterError unless MTParams accepts the problem at
        both ends and alpha_min < alpha_max.
        """
        check_dimension(N)
        a_N = critical_exponent(N)
        alpha_lo = self.alpha_min if self.alpha_min is not None else a_N / 50.0
        alpha_hi = self.alpha_max if self.alpha_max is not None else a_N * (1.0 - 1.0 / 50.0)
        for alpha in (alpha_lo, alpha_hi):
            MTParams(N=N, alpha=alpha, a=a, b=b)
        if not alpha_lo < alpha_hi:
            raise InvalidParameterError(f"alpha_min must be below alpha_max, got {alpha_lo:.6g} >= {alpha_hi:.6g}")
        return alpha_lo, alpha_hi


@dataclass(frozen=True)
class BracketReport:
    """One-sided bracket for the attainment threshold.

    alpha_star <= alpha_high is numerically certified (a feasible profile
    exceeds the lower bound there); alpha_low is only the largest grid
    point that failed to certify, a heuristic floor.  No verdict is ever
    claimed at the bracket edges themselves.
    """

    a: float
    b: float
    N: int
    alpha_low: float
    alpha_high: float
    grid: tuple[float, ...]
    certified: tuple[bool, ...]
    bgn_estimate: float

    def to_json_dict(self) -> dict:
        return dict(vars(self), semantics="alpha_star <= alpha_high certified; alpha_low heuristic only")


def _certify_cell(p: MTParams, opts: BracketOptions, bgn: float, extra) -> tuple[bool, MaximizerReport | None]:
    """No certificate where the supremum is infinite, else the g-test, then maximize_d (its report, else None)."""
    if not p.finite_supremum:
        return False, None
    if g_function_test(p.alpha, p.a, p.b, p.N, bgn).verdict == VERDICT_CERTIFIED:
        return True, None
    report = maximize_d(p, opts.maximize_opts, extra_candidates=extra)
    return report.exceeds_lower_bound, report


def bracket_alpha_star(
    a: float,
    b: float,
    N: int,
    opts: BracketOptions | None = None,
) -> BracketReport:
    """Bracket the attainment threshold on an alpha grid, one-sided.

    Scans alpha ascending, each cell by the g-test on cached_gn_report(N)
    and, where that gives no verdict, maximize_d, warm-chaining the best
    profile between cells (evaluating a lower cell's maximizer at a higher
    alpha never lowers the normalized value, so certification is monotone
    along the scan).  Optional bisection tightens [alpha_low, alpha_high].
    """
    opts = opts or BracketOptions()
    alpha_lo, alpha_hi = opts.alpha_range(a, b, N)
    grid = tuple(float(x) for x in np.linspace(alpha_lo, alpha_hi, opts.count))
    bgn = cached_gn_report(N).bgn_estimate

    certified: list[bool] = []
    chained: tuple = ()
    for alpha in grid:
        ok, report = _certify_cell(MTParams(N=N, alpha=alpha, a=a, b=b), opts, bgn, chained)
        certified.append(ok)
        if report is not None:
            chained = (report.best_profile,)
    if True not in certified:
        raise BracketNotFoundError(
            f"no alpha in [{alpha_lo:.6g}, {alpha_hi:.6g}] certified attainment for "
            f"(a={a}, b={b}, N={N})",
            grid=grid,
        )
    first = certified.index(True)
    alpha_high = grid[first]
    alpha_low = grid[first - 1] if first else 0.0
    for _ in range(opts.bisect_iters):
        if alpha_high - alpha_low < 1e-12:
            break
        mid = 0.5 * (alpha_low + alpha_high)
        ok, _ = _certify_cell(MTParams(N=N, alpha=mid, a=a, b=b), opts, bgn, chained)
        if ok:
            alpha_high = mid
        else:
            alpha_low = mid
    return BracketReport(
        a=a,
        b=b,
        N=N,
        alpha_low=alpha_low,
        alpha_high=alpha_high,
        grid=grid,
        certified=tuple(certified),
        bgn_estimate=bgn,
    )
