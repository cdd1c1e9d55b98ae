"""Closed-form bounds, attainment criteria and threshold bracketing.

Certification is one-sided throughout: a feasible profile whose value
exceeds the universal lower bound alpha^{N-1}/(N-1)! by more than
CERTIFY_MARGIN certifies that the supremum exceeds it (and hence is
attained, in the subcritical range); no numerical computation here ever
claims non-attainment.  Verdicts encode that asymmetry explicitly.

The bound and the margin are defined in `functional.py`, the verdict strings
here and nowhere else.  A maximize_d run certifies iff its report's
`exceeds_lower_bound` is set.  The g-test finds max g exactly, from the sign
of g', and certifies iff ln max g exceeds its own rounding bound, with no
margin; `bracket_alpha_star` runs it, on the ratio of
`maximize.cached_gn_report`, before any maximize_d at each alpha.  Where
`MTParams.finite_supremum` is false, the supremum is infinite and nothing certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

from . import _numpy as np
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


def _check_constant(name: str, value: float) -> None:
    """A user-supplied constant (bgn, the interpolation constant C) must lie in (0, inf)."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be positive and finite, got {value}")


def g_function_test(alpha: float, a: float, b: float, N: int, bgn: float) -> BoundReport:
    """max g on [0, 1] from the sign of g'; max g > 1 certifies attainment (sufficient test) if the sup is finite.

    With s = 1 - t, beta = N/b, k = N'/a and c = alpha bgn / N, d ln g / ds has the sign of
    psi(s) = c k (1-s) s^(k-1) - beta (1 + c s^k), and psi' that of (k-1) - (k+beta) s: psi falls
    from +inf (k < 1) or from c - beta (k = 1), and for k > 1 rises from -beta to one peak at
    s_p = (k-1)/(k+beta), then falls to -beta (1+c).  Where psi is positive at 0 (at s_p), the maximum
    sits at the one root where psi turns negative, which bisection finds (in log s while the bracket
    spans more than a factor 16, so roots down to the subnormals resolve); else, or where g < 1
    there, max g = g(1) = 1.  The report carries ln max g and s too: they certify where max g rounds to 1.

    There ln g = X + Y, X = beta log1p(-s), Y = log1p(c s^k) >= 0, has no cancellation.  With
    u = 2^-53, each arithmetic step off by at most u and each log1p or pow by one ulp (2u): X is
    within 4u|X|; k within 2u, so s^k within (2k |ln s| + 2) u and c s^k within (2k |ln s| + 5) u;
    as log1p(P) - log1p(Q) <= Y (P - Q) / Q, Y is within (2k |ln s| + 7) u Y; the sum rounds once
    more.  With one more u each for second-order terms, ln g > 0 is certain where
    X + Y > u (6|X| + (2k |ln s| + 9) Y) + (beta + c + 4) 2^-1074, the last term bounding steps that
    underflow.  That is the only floor: `bgn` must be a certified lower bound for the GN constant,
    and g only rises with it, so undershooting weakens the test but never breaks it.  Also reports
    g'(1) = N/b - alpha bgn / N at a = N' (negative iff b > N^2/(alpha bgn), which forces max g > 1).
    """
    finite = MTParams(N=N, alpha=alpha, a=a, b=b).finite_supremum
    _check_constant("bgn", bgn)
    c = alpha / N * bgn
    _check_constant("alpha * bgn / N", c)  # finite, so g is: g <= 1 + alpha bgn / N
    beta, k = N / b, N / (N - 1.0) / a

    def psi_positive(s):  # compared in logs, so no power overflows
        log_s = math.log(s)
        lhs = math.log(c) + math.log(k) + math.log1p(-s) + (k - 1.0) * log_s
        return lhs > math.log(beta) + math.log1p(c * math.exp(k * log_s))

    lo = max(0.0, (k - 1.0) / (k + beta))  # psi's peak where k > 1; it rounds to 1 where k dwarfs 1 + beta
    rises = lo < 1.0 and psi_positive(lo) if lo > 0 else k < 1 or c > beta
    ln_max_g, s_best, certified = 0.0, 0.0, False
    if rises:
        hi = 1.0
        while True:
            mid = math.sqrt(max(lo, math.ulp(0.0))) * math.sqrt(hi) if lo < hi / 16 else 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            lo, hi = (mid, hi) if psi_positive(mid) else (lo, mid)
        s = hi if hi < 1.0 else lo
        x, y = beta * math.log1p(-s), math.log1p(c * s**k)
        ln_g = x + y
        bound = 2.0**-53 * (6.0 * abs(x) + (2.0 * k * abs(math.log(s)) + 9.0) * y) + (beta + c + 4.0) * math.ulp(0.0)
        certified = ln_g > bound
        if ln_g > 0:
            ln_max_g, s_best = ln_g, s
    gprime_at_1 = N / b - alpha * bgn / N
    verdict = VERDICT_CERTIFIED if certified else VERDICT_NONE
    verdict = verdict if finite else VERDICT_INFINITE_SUP
    return BoundReport(
        kind="g-test",
        values={
            "max_g": math.exp(ln_max_g),
            "argmax_t": 1.0 - s_best,
            "ln_max_g": ln_max_g,
            "argmax_s": s_best,
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
    try:
        first = min(min(a / b, 1.0) * (N - 1) / (_relative_series(N) * (N * gn_c) ** N), alpha_critical)
    except (OverflowError, ZeroDivisionError):  # (N C)^N left the doubles: the bound is 0 above, capped below
        first = 0.0 if N * gn_c > 1 else alpha_critical
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
    exceeds the lower bound there); alpha_low, a heuristic floor, is the
    largest alpha tried below it that failed to certify (a grid point or a
    bisection midpoint), 0.0 if the first grid point certifies.  No verdict
    is ever claimed at the bracket edges themselves.
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
