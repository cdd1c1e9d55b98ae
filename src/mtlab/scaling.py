"""Dilation families and constraint normalization.

The lower-bound constructions all run through the same device: dilate a
base profile, then rescale its amplitude back onto the constraint
surface.  With v_t(x) = t^{1/N} v(t^{1/N} x) the norms obey

    ||v_t||_p^p = t^{p/N - 1} ||v||_p^p,      ||grad v_t||_N^N = t ||grad v||_N^N,

so the constraint for beta * v_t reads

    beta^a t^{a/N} ||grad v||_N^a + beta^b ||v||_N^b = 1,

a strictly increasing smooth map of beta with a unique positive root
beta_star(t); in the norm share x = beta^b ||v||_N^b it is explicit
(`on_constraint`).  Dilation rescales the grid (same values, stretched
nodes), which makes the scaling laws above exact in floating point.
"""

from __future__ import annotations

import math

from . import _numpy as np
from .errors import DegenerateProfileError, InvalidParameterError
from .functional import MTParams, constraint_terms
from .radial import RadialProfile, grad_norm_pow, lp_norm_pow

__all__ = [
    "dilate",
    "solve_amplitude",
    "solve_beta_star",
    "beta_star_derivative",
    "rescale_to_norms",
    "on_constraint",
]


def dilate(v: RadialProfile, t: float) -> RadialProfile:
    """v_t(x) = t^{1/N} v(t^{1/N} x), realized by grid rescaling."""
    if t <= 0:
        raise InvalidParameterError(f"dilation parameter must be positive, got {t}")
    if t == 1.0:
        return v
    N = v.grid.N
    s = t ** (-1.0 / N)
    return RadialProfile(v.grid.rescaled(s), v.values * t ** (1.0 / N))


def solve_amplitude(grad_pow_a: float, norm_pow_b: float, a: float, b: float) -> float:
    """Unique beta > 0 with beta^a * G + beta^b * L = 1 for G, L >= 0.

    Solved as x = log beta by plain Newton: h(x) = G e^{ax} + L e^{bx} - 1 is
    convex and increasing, and h >= 0 at x0 = min(-log G / a, -log L / b), so
    the iterates descend monotonically onto the root with no bracket.  Log
    space keeps the iteration conditioned even when the root is many orders
    of magnitude from 1.  Every quantity is a float, so math.exp and math.log
    serve; as x <= x0, each term G e^{ax}, L e^{bx} stays at most 1.
    """
    G, L = grad_pow_a, norm_pow_b
    if G <= 0.0 and L <= 0.0:
        raise DegenerateProfileError("both constraint terms vanish; amplitude undefined")

    def h(x: float) -> tuple[float, float]:
        ta = G * math.exp(a * x) if G > 0 else 0.0
        tb = L * math.exp(b * x) if L > 0 else 0.0
        return ta + tb - 1.0, a * ta + b * tb

    x = min(-math.log(G) / a if G > 0 else math.inf, -math.log(L) / b if L > 0 else math.inf)
    tol = 1e-15 * max(1.0, a, b)
    for _ in range(200):
        val, slope = h(x)
        if abs(val) <= tol:
            break
        x, previous = x - val / slope, x
        if abs(x - previous) <= 1e-16 * max(abs(previous), 1.0):
            break
    return math.exp(x)


def _beta_star(v: RadialProfile, t: float, p: MTParams) -> tuple[float, float, float]:
    """v's gradient and norm terms and beta_star(t), the amplitude that puts beta v_t on the constraint."""
    if t <= 0:
        raise InvalidParameterError(f"dilation parameter must be positive, got {t}")
    grad_a, norm_b = constraint_terms(v, p)
    return grad_a, norm_b, solve_amplitude(grad_a * t ** (p.a / p.N), norm_b, p.a, p.b)


def solve_beta_star(v: RadialProfile, t: float, p: MTParams) -> float:
    """beta_star(t): the root of beta^a t^{a/N} ||grad v||_N^a + beta^b ||v||_N^b = 1."""
    return _beta_star(v, t, p)[2]


def beta_star_derivative(v: RadialProfile, t: float, p: MTParams) -> float:
    """d beta_star / dt by implicit differentiation of the constraint.

    Always negative: stretching transfers weight to the gradient term, so
    the admissible amplitude shrinks.
    """
    grad_a, norm_b, beta = _beta_star(v, t, p)
    a, b, N = p.a, p.b, p.N
    numerator = (a / N) * t ** (a / N - 1.0) * beta ** a * grad_a
    denominator = a * beta ** (a - 1) * t ** (a / N) * grad_a + b * beta ** (b - 1) * norm_b
    return -numerator / denominator


def rescale_to_norms(u: RadialProfile, grad_norm: float, lp_norm: float) -> RadialProfile:
    """Amplitude-and-dilation rescale so the discrete norms hit exact targets.

    For w(x) = c u(lambda x): ||grad w||_N = c ||grad u||_N (gradient is
    dilation invariant at p = N) and ||w||_N = c ||u||_N / lambda, so the
    two targets decouple.  Because dilation rescales the grid, the
    resulting discrete norms equal the targets to machine precision,
    which is what the closed-form normalizer identities require.
    """
    if grad_norm <= 0 or lp_norm <= 0:
        raise InvalidParameterError("norm targets must be positive")
    N = u.grid.N
    G = grad_norm_pow(u) ** (1.0 / N)
    L = lp_norm_pow(u, N) ** (1.0 / N)
    if G <= 0 or L <= 0:
        raise DegenerateProfileError("cannot rescale a profile with a vanishing norm")
    c = grad_norm / G
    lam = c * L / lp_norm
    return RadialProfile(u.grid.rescaled(1.0 / lam), u.values * c)


def _share_scales(G: float, L: float, x, p: MTParams):
    """(c, lam) with gradient term (c^N G)^{a/N} = 1 - x and norm term (c^N L / lam^N)^{b/N} = x.

    So c = (1-x)^{1/a} G^{-1/N} and lam = c L^{1/N} x^{-1/b}, for G, L > 0.  lam is formed first, in
    the order of the two-parameter family, so a normalized V gets its bits; past the doubles it is inf.
    x is a float, or an array of shares under np.errstate(over="ignore", invalid="ignore") (the dilation scan
    bounds every point in one pass; an array's inf, and inf * 0 = nan, marks an unbuildable x).
    """
    try:
        lam = x ** (-1.0 / p.b) * (1.0 - x) ** (1.0 / p.a) * (L / G) ** (1.0 / p.N)
    except OverflowError:  # a float x^{-1/b} alone exceeds the doubles
        lam = math.inf
    return lam * x ** (1.0 / p.b) / L ** (1.0 / p.N), lam


def _on_share(u: RadialProfile, G: float, L: float, x: float, p: MTParams) -> RadialProfile:
    """on_constraint(u, x, p) for u with ||grad u||_N^N = G > 0 and ||u||_N^N = L > 0."""
    c, lam = _share_scales(G, L, x, p)
    # a lam that underflowed to 0 dilates past grid.max_radius: rescaled raises GridOverflowError
    return RadialProfile(u.grid.rescaled(1.0 / lam if lam else np.inf), u.values * c)


def on_constraint(u: RadialProfile, x: float, p: MTParams) -> RadialProfile:
    """w = c u(lam .) with norm term ||w||_N^b = x and gradient term ||grad w||_N^a = 1 - x, for any nonzero u.

    On a GN maximizer with ||grad V||_N = 1 = ||V||_N: lam x^{1/b} V(lam .), lam = x^{-1/b} (1-x)^{1/a}.
    """
    if not 0.0 < x < 1.0:
        raise InvalidParameterError(f"norm share x must lie in (0, 1), got {x}")
    x = float(x)  # a numpy scalar would warn where a float raises OverflowError
    G, L = grad_norm_pow(u), lp_norm_pow(u, p.N)
    if not (G > 0 and L > 0):
        raise DegenerateProfileError("a profile with a vanishing norm has no constraint curve")
    return _on_share(u, G, L, x, p)
