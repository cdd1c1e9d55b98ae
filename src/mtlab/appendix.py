"""Exact verification of the closed-form test-profile computations.

The strict inequality N^2 / (alpha_N * B_GN) < N reduces, after the
radial change of variables, to exhibiting a single radial profile whose
ratio

    Q(u) = [int r^{N-1} |u|^N dr] [int r^{N-1} |u'|^N dr]^{1/(N-1)}
           / int r^{N-1} |u|^{NN'} dr

is strictly below 1.  For N = 2 the cubic bump max{0, (1-r)^3} gives
Q = 39/40 by pure beta-function arithmetic; for N >= 3 the profile
e^{-r} gives Q = C_N with

    C_N        = Gamma(N)^{1/(N-1)} (N-1)^{-N} N^{(N^2-2N)/(N-1)},
    C_N^{N-1}  = (N-1)! N^{N^2-2N} (N-1)^{-(N^2-N)}     (a rational),

and C_N < 1 follows from the log decomposition
log C_N^{N-1} = d_N + e_N with

    d_N = sum_{k=1}^{N-1} log k - N (log N - 1),
    e_N = -N + N(N-1) log(1 + 1/(N-1)),

via three claims: e_N < -1/2 for N >= 3; d_N strictly decreasing; and
d_3 < 1/2, which is equivalent to e^5 < 729/4 (the cruder rational bound
(2.8)^5 = 172.10368 < 182.25 suffices).

Everything with integer gamma arguments is computed in exact rational
arithmetic (`fractions.Fraction`); the log comparisons run at 50
significant digits in the standard library's `decimal`, from one table
of logs that takes one `ln` per prime and sums prime logs for composites.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .errors import InvalidParameterError
from .maximize import gn_ratio
from .radial import RadialProfile

__all__ = [
    "gamma_exact",
    "beta_exact",
    "gn_ratio_radial",
    "n2_cubic_exact",
    "c_n_pow_exact",
    "c_n_value",
    "e_upper_rational",
    "exp5_claims",
    "ClaimRow",
    "ClaimLedger",
    "claim_ledger",
]

DPS = 50

#: Terms of the partial sum in e_upper_rational.
E_TERMS = 20


def gamma_exact(n: int) -> Fraction:
    """Gamma(n) = (n-1)! for integer n >= 1, exactly."""
    if n < 1 or n != int(n):
        raise InvalidParameterError(f"gamma_exact needs an integer >= 1, got {n}")
    return Fraction(math.factorial(n - 1))


def beta_exact(x: int, y: int) -> Fraction:
    """B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for integers, exactly."""
    return gamma_exact(x) * gamma_exact(y) / gamma_exact(x + y)


def gn_ratio_radial(u: RadialProfile, N: int) -> float:
    """The raw-integral ratio Q(u); inf over u of Q < 1 iff N^2/(alpha_N B_GN) < N.

    The omega factors of the three integrals leave Q = omega^{-1/(N-1)} / gn_ratio(u).
    """
    if u.grid.N != N:
        raise InvalidParameterError("profile grid dimension does not match N")
    return u.grid.omega ** (-1.0 / (N - 1.0)) / gn_ratio(u)


def n2_cubic_exact() -> Fraction:
    """Q at N = 2, u = max{0, (1-r)^3}: exactly 39/40.

    int_0^1 r (1-r)^6 dr = B(2,7);  int_0^1 r |u'|^2 dr = 9 B(2,5);
    int_0^1 r (1-r)^12 dr = B(2,13); ratio = B(2,7) * 9 B(2,5) / B(2,13).
    """
    numerator = beta_exact(2, 7) * 9 * beta_exact(2, 5)
    return numerator / beta_exact(2, 13)


def c_n_pow_exact(N: int) -> Fraction:
    """C_N^{N-1} = (N-1)! N^{N^2-2N} (N-1)^{-(N^2-N)}, exactly, for N >= 3."""
    if N < 3 or N != int(N):
        raise InvalidParameterError(f"c_n_pow_exact needs an integer N >= 3, got {N}")
    return Fraction(math.factorial(N - 1)) * Fraction(N) ** (N * N - 2 * N) / Fraction(N - 1) ** (N * N - N)


def _ln(q: Fraction) -> Decimal:
    """log q in the caller's context: one ln of the quotient rounded to its precision."""
    return (Decimal(q.numerator) / q.denominator).ln()


def c_n_value(N: int) -> tuple[float, Fraction]:
    """(C_N as a float, C_N^{N-1} as an exact rational)."""
    exact_pow = c_n_pow_exact(N)
    with localcontext(Context(prec=DPS)):
        value = (_ln(exact_pow) / (N - 1)).exp()
    return float(value), exact_pow


def e_upper_rational() -> Fraction:
    """A rational upper bound for e: the partial sum to K = E_TERMS plus the tail bound.

    sum_{k > K} 1/k! < 1/(K! K), so the bound is exact-arithmetic valid.
    """
    partial = sum(Fraction(1, math.factorial(k)) for k in range(E_TERMS + 1))
    return partial + Fraction(1, math.factorial(E_TERMS) * E_TERMS)


def exp5_claims() -> dict:
    """The d_3 < 1/2 chain: e^5 < 729/4, with the cruder (2.8)^5 route.

    Returns the exact comparisons: (14/5)^5 = 537824/3125 < 729/4 in
    rationals, a rational e-upper-bound fifth power below 729/4, and the
    50-digit float comparison for the report.
    """
    bound = Fraction(729, 4)
    crude = Fraction(14, 5) ** 5
    e_up = e_upper_rational()
    with localcontext(Context(prec=DPS)):
        e5_float = float(Decimal(5).exp())
    return {
        "e5": e5_float,
        "bound": float(bound),
        "crude_pow": crude,
        "crude_value": float(crude),
        "e_upper_fifth_lt_bound": e_up ** 5 < bound,
        "crude_lt_bound": crude < bound,
        "e5_lt_bound": e5_float < float(bound),
        "e_lt_crude_base": float(e_upper_rational()) < 2.8,
    }


@dataclass(frozen=True)
class ClaimRow:
    """Per-dimension record of the log decomposition and claim outcomes."""

    N: int
    d_N: float
    e_N: float
    log_cn_pow: float
    claim1: bool  # e_N < -1/2
    claim2: bool  # d_{N+1} < d_N
    claim3_chain: bool  # log C_N^{N-1} < 0


@dataclass(frozen=True)
class ClaimLedger:
    rows: tuple[ClaimRow, ...]
    exp5: dict
    decomposition_max_error: float

    @property
    def all_claims_hold(self) -> bool:
        return (
            all(r.claim1 and r.claim2 and r.claim3_chain for r in self.rows)
            and self.exp5["e_upper_fifth_lt_bound"]
            and self.exp5["crude_lt_bound"]
            and self.decomposition_max_error < 1e-12
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("N,d_N,e_N,log_CN_pow,claim1,claim2,claim3_chain\n")
        for r in self.rows:
            buf.write(
                f"{r.N},{r.d_N:.17g},{r.e_N:.17g},{r.log_cn_pow:.17g},"
                f"{str(r.claim1).lower()},{str(r.claim2).lower()},{str(r.claim3_chain).lower()}\n"
            )
        return buf.getvalue()


def _ln_table(n: int) -> list[Decimal]:
    """log k for k in [0, n] (entry 0 unused) in the caller's context: one ln per prime; a composite
    adds the logs of its smallest prime factor and its cofactor."""
    ln = [Decimal(0)] * (n + 1)
    for k in range(2, n + 1):
        p = next((q for q in range(2, math.isqrt(k) + 1) if k % q == 0), k)
        ln[k] = Decimal(k).ln() if p == k else ln[p] + ln[k // p]
    return ln


def claim_ledger(n_max: int = 1000) -> ClaimLedger:
    """Verify the three claims for every 3 <= N <= n_max.

    Exactness policy: rational quantities (C_N^{N-1}, (2.8)^5, 729/4,
    the e upper bound) are exact; the log comparisons are 50-digit,
    with the decomposition identity log C_N^{N-1} = d_N + e_N checked
    against the log of the exact rational to 1e-12 on small N.
    """
    if n_max < 3:
        raise InvalidParameterError(f"n_max must be >= 3, got {n_max}")
    rows = []
    max_err = 0.0
    with localcontext(Context(prec=DPS)):
        ln = _ln_table(n_max + 1)
        d = {}  # d_N for N in [3, n_max + 1], via a running log (N-1)!
        log_fact = ln[1]
        for N in range(3, n_max + 2):
            log_fact += ln[N - 1]
            d[N] = log_fact - N * (ln[N] - 1)
        for N in range(3, n_max + 1):
            d_N = d[N]
            e_N = -N + N * (N - 1) * (ln[N] - ln[N - 1])
            log_cn = d_N + e_N
            if N <= 40:
                max_err = max(max_err, abs(float(_ln(c_n_pow_exact(N)) - log_cn)))
            rows.append(
                ClaimRow(
                    N=N,
                    d_N=float(d_N),
                    e_N=float(e_N),
                    log_cn_pow=float(log_cn),
                    claim1=e_N < Decimal("-0.5"),
                    claim2=d[N + 1] < d_N,
                    claim3_chain=log_cn < 0,
                )
            )
    return ClaimLedger(rows=tuple(rows), exp5=exp5_claims(), decomposition_max_error=max_err)
