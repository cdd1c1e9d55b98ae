"""Exponential-series integrands and the scalar functionals built on them.

The objective throughout the package is

    F(u) = int_{R^N} Phi_N(alpha |u|^{N'}) dx,
    Phi_N(t) = e^t - sum_{j=0}^{N-2} t^j / j! = sum_{j >= N-1} t^j / j!,

maximized over the constraint surface ||grad u||_N^a + ||u||_N^b = 1,
with N' = N/(N-1) the Hoelder conjugate.  Expanding the series termwise
turns F into a weighted sum of p-norms,

    F(u) = sum_{j >= N-1} (alpha^j / j!) ||u||_{N'j}^{N'j},

which is the identity the analysis manipulates; both evaluation routes
are implemented and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import _numpy as np
from .errors import InvalidParameterError, SeriesOverflowError
from .radial import RadialProfile, check_dimension, critical_exponent, grad_norm_pow, lp_norm_pow

__all__ = [
    "CERTIFY_MARGIN",
    "MTParams",
    "alpha_in_range",
    "universal_lower_bound",
    "phi",
    "mt_integral",
    "mt_integral_series",
    "constraint_terms",
    "constraint_value",
    "j_truncated",
]

#: Largest series argument before e^t leaves the double range.
EXP_ARG_LIMIT = 700.0

#: A feasible value certifies attainment iff it beats the lower bound by more than this.
CERTIFY_MARGIN = 1e-6

#: Largest rounding amplification (expm1(t) + head) / tail allowed in the
#: subtraction branch of `_phi_tail`; below its switch point the series runs.
TAIL_CANCELLATION = 16.0

#: `mt_integral_series` stops at a term below SERIES_RTOL of the partial sum, or after SERIES_MAX_TERMS.
SERIES_RTOL = 1e-14
SERIES_MAX_TERMS = 512


def alpha_in_range(alpha: float, N: int) -> bool:
    """True iff 0 < alpha <= alpha_N, with 1e-12 relative slack at alpha_N for round-off."""
    return 0 < alpha <= critical_exponent(N) * (1 + 1e-12)


@dataclass(frozen=True)
class MTParams:
    """Problem tuple (N, alpha, a, b).

    Invariants: N integer >= 2, 0 < alpha <= alpha_N, 0 < a < inf, 0 < b < inf.
    `finite_supremum` records whether (alpha, b) lies in the regime where
    the supremum is finite: alpha < alpha_N always, alpha = alpha_N only
    for b <= N.  Evaluations are legal either way; finiteness is a
    property of the supremum, not of single profiles.
    """

    N: int
    alpha: float
    a: float
    b: float

    def __post_init__(self):
        check_dimension(self.N)
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise InvalidParameterError(f"constraint powers must be positive and finite, got a={self.a}, b={self.b}")
        if not alpha_in_range(self.alpha, self.N):
            raise InvalidParameterError(
                f"alpha must lie in (0, alpha_N]; got alpha={self.alpha}, "
                f"alpha_N={critical_exponent(self.N):.12g}"
            )

    @property
    def n_prime(self) -> float:
        return self.N / (self.N - 1)

    @property
    def alpha_critical(self) -> float:
        return critical_exponent(self.N)

    @property
    def is_critical(self) -> bool:
        return self.alpha >= self.alpha_critical * (1 - 1e-12)

    @property
    def finite_supremum(self) -> bool:
        return (not self.is_critical) or self.b <= self.N

    def as_dict(self) -> dict:
        return {"N": self.N, "alpha": self.alpha, "a": self.a, "b": self.b}


def universal_lower_bound(alpha: float, N: int) -> float:
    """alpha^{N-1}/(N-1)!, valid for every (a, b): the vanishing-family value."""
    check_dimension(N)
    if not alpha_in_range(alpha, N):
        raise InvalidParameterError(f"alpha must lie in (0, alpha_N], got {alpha}")
    return alpha ** (N - 1) / math.factorial(N - 1)


def _tail_terms(t: float, k: int, rel: float) -> list[float]:
    """t^j/j! for j = k, k+1, ... while the terms exceed rel times the first."""
    terms = [t**k / math.factorial(k)]
    while (term := terms[-1] * t / (k + len(terms))) > rel * terms[0]:
        terms.append(term)
    return terms


@lru_cache(maxsize=None)
def _tail_kernel(k: int) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Switch point s_k and the Horner coefficients (highest power first) of the order-k tail.

    s_k is where expm1(t) - head(t), head = sum_{j=1}^{k-1} t^j/j!, amplifies
    rounding by (expm1 + head) / tail = 2 expm1 / tail - 1 = TAIL_CANCELLATION;
    the ratio falls in t, so bisection finds s_k = 0.245, 0.956, 1.723, 2.493
    for k = 2..5.  Below s_k the series t^k sum_m t^m/(k+m)! keeps the terms
    above half a unit roundoff of the first at t = s_k: 12 for k = 2, 16 for k = 3.
    """
    lo, hi = 0.0, float(k)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 2.0 * math.expm1(mid) > (1.0 + TAIL_CANCELLATION) * math.fsum(_tail_terms(mid, k, 2.0 ** -60)):
            lo = mid
        else:
            hi = mid
    top = k + len(_tail_terms(hi, k, 2.0 ** -54)) - 1
    coeffs = [1.0 / math.factorial(j) for j in range(top, 0, -1)]
    return hi, tuple(coeffs[: top - k + 1]), tuple(coeffs[top - k + 1 :])


def _horner(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    acc = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        acc *= x
        acc += c
    return acc


def _phi_tail(t, k: int):
    """sum_{j >= k} t^j / j! = e^t P(k, t) for t >= 0, vectorized.

    P is the regularized lower incomplete gamma function; for an integer k
    the tail is e^t minus its finite head (DLMF 8.4), so no special function
    is needed.  k = 0 is e^t and k = 1 is expm1(t).  For k >= 2 the series
    of `_tail_kernel` runs by Horner below the switch point s_k, and
    expm1(t) - sum_{j=1}^{k-1} t^j/j! at and above it.  Against a 40-digit
    reference the relative error stays below 3e-15 for k = 2..9.  t is not checked for sign: inside the package
    it is alpha u^{N'} of a checked profile, and `phi` checks what comes from outside.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    t_max = t.max(initial=0.0)
    if t_max > EXP_ARG_LIMIT:
        raise SeriesOverflowError(f"series argument exceeds {EXP_ARG_LIMIT:g}; e^t overflows")
    if k == 0:
        return np.exp(t)
    if k == 1:
        return np.expm1(t)
    switch, series, head = _tail_kernel(int(k))
    # Most nodes lie far below s_k, so the series runs on all of them and
    # only the few at or above s_k are recomputed.
    out = _horner(t, series) * t**k
    if t_max >= switch:
        large = t >= switch
        t_large = t[large]
        out[large] = np.expm1(t_large) - _horner(t_large, head) * t_large
    return out


def _tail_ratio(t: np.ndarray, k: int) -> np.ndarray:
    """_phi_tail(t, k) / t^k = sum_{j >= 0} t^j / (k + j)!, k >= 1: the series alone below s_k, so 1/k! at t = 0."""
    switch, series, _ = _tail_kernel(int(k))
    big = np.maximum(t, switch)
    return np.where(t >= switch, _phi_tail(big, k) / big**k, _horner(t, series))


def phi(t, N: int):
    """Phi_N(t) = sum_{j >= N-1} t^j / j!, for t >= 0: a float for a scalar t, a negative t refused."""
    check_dimension(N)
    if np.any(np.asarray(t) < 0):
        raise InvalidParameterError("series argument must be non-negative")
    result = _phi_tail(t, N - 1)
    return float(result[0]) if np.ndim(t) == 0 else result


def _series_arguments(u: RadialProfile, p: MTParams) -> np.ndarray:
    t = p.alpha * u.values ** p.n_prime
    if np.any(t > EXP_ARG_LIMIT):
        raise SeriesOverflowError(
            f"alpha * max(u)^(N') = {float(np.max(t)):.3g} exceeds {EXP_ARG_LIMIT:g}"
        )
    return t


def _check_profile_dimension(u: RadialProfile, p: MTParams) -> None:
    if u.grid.N != p.N:
        raise InvalidParameterError("profile grid dimension does not match params")


def _integrand(u: RadialProfile, p: MTParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(u^{N'}, t = alpha u^{N'}, Phi_N(t) = the order N-1 tail, F(u)): the terms every evaluation of F forms."""
    powers = u.values**p.n_prime
    t = p.alpha * powers
    tail = _phi_tail(t, p.N - 1)
    return powers, t, tail, u.grid.omega * float(np.dot(u.grid.mass, tail))


def mt_integral(u: RadialProfile, p: MTParams) -> float:
    """int Phi_N(alpha |u|^{N'}) dx by pointwise quadrature of the integrand."""
    _check_profile_dimension(u, p)
    return _integrand(u, p)[3]


def mt_integral_series(u: RadialProfile, p: MTParams) -> float:
    """Same integral by the series of norms sum_j (alpha^j/j!) ||u||_{N'j}^{N'j}.

    Truncates when the running term drops below SERIES_RTOL of the partial
    sum *and* the index is past the series hump j ~ alpha max(u)^{N'};
    stopping before the hump would truncate a still-growing series.
    """
    _check_profile_dimension(u, p)
    t = _series_arguments(u, p)
    if not np.any(t > 0):
        return 0.0
    mass = u.grid.mass
    hump = float(np.max(t))
    log_t = np.log(np.where(t > 0, t, 1.0))
    positive = t > 0
    total = 0.0
    j = p.N - 1
    for _ in range(SERIES_MAX_TERMS):
        log_term = j * log_t - math.lgamma(j + 1)
        term = float(np.dot(mass[positive], np.exp(log_term[positive])))
        total += term
        if term <= SERIES_RTOL * max(total, 1e-300) and j > hump:
            break
        j += 1
    return u.grid.omega * total


def constraint_terms(u: RadialProfile, p: MTParams) -> tuple[float, float]:
    """(||grad u||_N^a, ||u||_N^b): the gradient and norm terms of the constraint."""
    _check_profile_dimension(u, p)
    return grad_norm_pow(u) ** (p.a / p.N), lp_norm_pow(u, p.N) ** (p.b / p.N)


def constraint_value(u: RadialProfile, p: MTParams) -> float:
    """||grad u||_N^a + ||u||_N^b; zero iff u is identically zero."""
    return sum(constraint_terms(u, p))


def j_truncated(u: RadialProfile, p: MTParams) -> float:
    """First two series terms: (alpha^{N-1}/(N-1)!)||u||_N^N + (alpha^N/N!)||u||_{NN'}^{NN'}.

    Always a lower bound for mt_integral (the dropped terms are positive).
    """
    _check_profile_dimension(u, p)
    N = p.N
    c1 = p.alpha ** (N - 1) / math.factorial(N - 1)
    c2 = p.alpha**N / math.factorial(N)
    return c1 * lp_norm_pow(u, N) + c2 * lp_norm_pow(u, N * p.n_prime)

