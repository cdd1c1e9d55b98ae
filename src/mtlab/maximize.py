"""Numerical maximization over the constraint surface.

`maximize_d` runs a multi-start projected gradient ascent for the
exponential functional under ||grad u||_N^a + ||u||_N^b = 1.  Every
profile it ever evaluates is feasible (projected onto the constraint by
amplitude rescaling), so the reported best value is a certified lower
bound for the supremum; the supremum itself is never claimed.

The restart families mirror the competing compactness modes:

* localized bumps (Gaussian / exponential), the generic interior starts;
* the vanishing family: deeply spread, constraint-normalized dilations,
  which realize the universal lower bound alpha^{N-1}/(N-1)! in the
  spread limit;
* points of the constraint curve of a numerically computed
  Gagliardo-Nirenberg maximizer (`scaling.on_constraint`), which is what
  certifies attainment near a = N'.

Each start is built, projected onto the constraint once and, unless the
concentration guard rejects it at alpha_N, ascended; a start that cannot be
built, projected or evaluated scores NaN and the other restarts still run.
Each ascent step preconditions the nodal gradient by the radial masses
(so the direction is a function-space gradient, monotone for monotone
iterates), projects back onto the monotone cone and the constraint, and
is accepted at the first of 25 rungs, each 0.4 times the last, that improves
the objective.  An ascent ends only on rules that do not depend on the
profile's amplitude or dilation:
* no rung improves;
* the first rung fails and the closed-form slope of the projected path at
  the start (`_ascent_slope`) is <= 0: the step descends the constraint
  surface, and under a quadratic model no shorter rung can then gain;
* an accepted step (kept) gains at most n u of the value, the rounding bound
  of a sum of n positive terms (n nodes, u = UNIT_ROUNDOFF);
* at alpha_N, the concentration guard fires;
* MAX_ITERS steps are done.
The projection forms each point's constraint terms, Phi_N tail and value once,
into a record (`_Point`) that the gradient, slope, scan and report read.
A line search along the
norm-share curve x -> on_constraint(u, x) = c u(lam .) finishes each restart,
since a plain nodal ascent is slow to translate profiles across scales.  As
||w||_{N'j}^{N'j} <= ||w||_inf^{N'j-N} ||w||_N^N, a point w of the curve has
F(w) <= alpha^{N-1} x^{N/b} R(T), T = alpha ||w||_inf^{N'}, R = Phi_{N-1}(T) /
T^{N-1} (1/(N-1)! at T = 0).  The scan bounds 33 points of s = logit(x) at once,
then scores them by the scaling laws, best bound first, one Phi_N sweep each,
up to the first bound (with rounding slack) below the best score.  Newton on
the slope ends it: with t_k = alpha c^{N'} u_k^{N'}, Phi_j' = Phi_{j-1}
(Phi_{-1} = Phi_0 = e^t), A, B, C = sum_k m_k t_k^i Phi_{N-1-i}(t_k)
(i = 0, 1, 2), q = (1-x)/b + x/a and r = N'x/a, F = omega A / lam^N and
F' = omega g / lam^N for g = N q A - r B, g' = N x(1-x)(1/a - 1/b) A -
(N q + 1 - x) r B + r^2 (B + C).  Newton stops at the first step that predicts
a gain of at most u F, 0.5 g^2 / (|g'| A) <= u = 2^-53.  Each score and slope
forms its curve point (x, alpha c^{N'}, lam) in floats, as the winner is built;
the 33 ceilings alone are formed in one array pass.  No root is solved; only
the winner is built.

`maximize_gn` computes the Gagliardo-Nirenberg maximizer from its
Euler-Lagrange equation, the radial ground state of
-Delta_N Q + Q^{N-1} = Q^{NN'-1}: RK4 shots in floats, one per Q(0), bisect for
a Q(0) bracket.  Its certified bgn_estimate is the GN ratio, in Python floats, of
the midpoint shot as a piecewise-linear (PL) function on its nodes r_k = k GN_STEP;
the shot sampled on the GN grid and normalized to ||grad V||_N = 1 = ||V||_N,
which maximize_d's GN starts and `--profile-out` read, is formed on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple, Sequence

from . import _numpy as np
from .errors import (
    BracketNotFoundError,
    DegenerateProfileError,
    GridOverflowError,
    InvalidParameterError,
    SeriesOverflowError,
)
from .functional import (
    CERTIFY_MARGIN,
    EXP_ARG_LIMIT,
    MTParams,
    _check_profile_dimension,
    _integrand,
    _phi_tail,
    _tail_ratio,
    universal_lower_bound,
)
from .radial import (
    DEFAULT_CELL_ORDER,
    RadialGrid,
    RadialProfile,
    _cell_slopes,
    build_grid,
    check_dimension,
    check_grid,
    decreasing_rearrangement,
    grad_norm_pow,
    lp_norm_pow,
    sphere_area,
)
from .scaling import _on_share, _share_scales, dilate, on_constraint, rescale_to_norms, solve_amplitude

__all__ = [
    "MaximizeOptions",
    "MaximizerReport",
    "GNReport",
    "functional_gradient",
    "project_to_constraint",
    "maximize_d",
    "maximize_gn",
    "cached_gn_report",
    "gn_ratio",
]


#: Ascent step budget, about twice the longest winning ascent (26 steps over 169 seeded problems; restarts
#: that ran on to 300 steps never won).
MAX_ITERS = 50
#: The unit roundoff u of a double; an ascent step that gains at most n u of the value (n nodes) ends the ascent.
UNIT_ROUNDOFF = 2.0**-53
#: At alpha_N a start or ascent stops once the gradient term exceeds this share of the constraint.
CONCENTRATION_GUARD = 0.999
#: Mode labels: a norm (gradient) share above 1 - MODE_EPS is near-vanishing (near-concentration).
MODE_EPS = 0.05


@dataclass(frozen=True)
class MaximizeOptions:
    """Grid and restart policy for maximize_d."""

    r_max: float = 40.0
    n_nodes: int = 512
    scheme: str = "composite-gauss"
    restarts: int = 8
    seed: int = 1
    allow_infinite_regime: bool = False

    def __post_init__(self):
        check_grid(self.r_max, self.n_nodes, self.scheme)
        if self.restarts < 1:
            raise InvalidParameterError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")

    def check_regime(self, p: MTParams, switch: str = "allow_infinite_regime=True") -> None:
        """Refuse alpha = alpha_N with b > N (infinite supremum) unless allowed; `switch` names how to allow it."""
        if not p.finite_supremum and not self.allow_infinite_regime:
            raise InvalidParameterError(f"alpha = alpha_N with b > N is the infinite-supremum regime; pass {switch}")


@dataclass(frozen=True)
class MaximizerReport:
    """Outcome of one maximize_d run.  best_value is a certified lower bound."""

    params: MTParams
    best_value: float
    best_profile: RadialProfile
    norm_split: tuple[float, float]
    lower_bound: float
    margin: float
    exceeds_lower_bound: bool
    mode_diagnostic: str
    iterations: int
    restarts: int
    seed: int
    restart_values: tuple[float, ...]
    grid_meta: dict

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "best_value": self.best_value,
            "lower_bound": self.lower_bound,
            "margin": self.margin,
            "exceeds_lower_bound": self.exceeds_lower_bound,
            "norm_split": {"grad_norm": self.norm_split[0], "norm": self.norm_split[1]},
            "mode": self.mode_diagnostic,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "seed": self.seed,
            "restart_values": [v if np.isfinite(v) else None for v in self.restart_values],
            "grid": {**self.grid_meta, "best_profile_nodes": self.best_profile.grid.n_nodes},
        }


class _Point(NamedTuple):
    """A feasible profile with the terms the ascent reads again, formed once when the profile is built.

    G = ||grad u||_N^N and L = ||u||_N^N (for a projection, beta^N times the sums before the amplitude beta), then
    powers = u^{N'}, t = alpha u^{N'}, tail = Phi_N(t) (the order N-1 tail) and value = F(u).
    """

    u: RadialProfile
    G: float
    L: float
    powers: np.ndarray
    t: np.ndarray
    tail: np.ndarray
    value: float


def _point(u: RadialProfile, G: float, L: float, p: MTParams) -> _Point:
    return _Point(u, G, L, *_integrand(u, p))


def _onto_constraint(u: RadialProfile, p: MTParams) -> tuple[RadialProfile, float, float]:
    """u rearranged into the monotone cone and rescaled onto the constraint, with its G and L."""
    prof = decreasing_rearrangement(u)
    G, L = grad_norm_pow(prof), lp_norm_pow(prof, p.N)
    beta = solve_amplitude(G ** (p.a / p.N), L ** (p.b / p.N), p.a, p.b)
    scale = beta**p.N
    return RadialProfile._unchecked(prof.grid, prof.values * beta), scale * G, scale * L


def _project(u: RadialProfile, p: MTParams) -> _Point:
    """The projection core: u on the constraint, as a record."""
    return _point(*_onto_constraint(u, p), p)


def _gradient(u: RadialProfile, t: np.ndarray, tail: np.ndarray, p: MTParams) -> np.ndarray:
    """functional_gradient from u's t and Phi_N tail: the order N-2 tail is tail + t^{N-2}/(N-2)!."""
    tail = tail + t ** (p.N - 2) / math.factorial(p.N - 2)
    return u.grid.omega * u.grid.mass * p.alpha * p.n_prime * u.values ** (p.n_prime - 1.0) * tail


def functional_gradient(u: RadialProfile, p: MTParams) -> np.ndarray:
    """Nodal gradient of the discretized objective.

    Component i is d/du_i of omega sum_k m_k Phi_N(alpha u_k^{N'}), i.e.
    omega m_i alpha N' u_i^{N'-1} sum_{j >= N-2} (alpha u_i^{N'})^j / j!.
    """
    _check_profile_dimension(u, p)
    _, t, tail, _ = _integrand(u, p)
    return _gradient(u, t, tail, p)


def project_to_constraint(u: RadialProfile, p: MTParams) -> RadialProfile:
    """Rearrange into the monotone cone, rescale onto the constraint (DegenerateProfileError for zero)."""
    _check_profile_dimension(u, p)
    return _onto_constraint(u, p)[0]


def _concentrated(pt: _Point, p: MTParams) -> bool:
    """At alpha_N, whether the gradient term of the point exceeds CONCENTRATION_GUARD."""
    return p.is_critical and pt.G ** (p.a / p.N) > CONCENTRATION_GUARD


def _mode_label(pt: _Point, p: MTParams) -> str:
    if pt.L ** (p.b / p.N) > 1.0 - MODE_EPS:
        return "near-vanishing"
    if pt.G ** (p.a / p.N) > 1.0 - MODE_EPS:
        return "near-concentration"
    return "interior"


def _dilation_curve(pt: _Point, p: MTParams):
    """(scan, slope) of s -> F(on_constraint(u, x, p)), x = 1 / (1 + e^{-s}) the norm share, by the scaling laws.

    scan(ss) is (scores, ceilings), a ceiling being the bound on F times 1 + slack: it bounds every s in one array
    pass, then scores best ceiling first, one Phi_N sweep each, up to the first ceiling below the best score.
    slope(s) is (g, g', A, F).  An s off the curve (lam not in [max(r_max, 1) / R, R], R = grid.max_radius, or
    T > EXP_ARG_LIMIT) has score -inf and slope nan.  Each score and slope reads one float point (x, alpha c^{N'},
    lam), formed as the line search builds its winner, so slope(s), scan([s]) and the built profile agree to the bit.
    """
    N, G, L, powers = p.N, pt.G, pt.L, pt.powers
    u, mass = pt.u, pt.u.grid.mass
    if not (G > 0 and L > 0):  # a term underflowed: no curve to walk
        return (lambda ss: (np.full(len(ss), -np.inf),) * 2), None
    top = float(powers[0])  # the profile is monotone
    lam_lo, lam_hi = max(u.grid.r_max, 1.0) / u.grid.max_radius, u.grid.max_radius
    # The bound's rounding slack, first order in u = 2^-53: n u per dot product of n positive terms (the score's and
    # L's), 6N u each for c^N L / lam^N ~ x^{N/b} and t_k^{N-1} ~ alpha^{N-1} c^N u_k^N, 40 u for the other powers,
    # products and Horner sums, 3e-15 for Phi_{N-1} at the t_k and as much at T.  Per point (`scan`), the rounded
    # exponents: 1/b in the score's lam^N and N/b in the ceiling's x^{N/b} each err by |N/b ln x| u, and 1/N in
    # c^N L / lam^N = x^{N/b} L^{1 - N (1/N)} by |ln L| u.  And the score's float T against the ceiling's array T: a
    # path forms lam by 3 pows within 1 ulp (2u) and 2 products (8 u), c by 2 more pows and 2 products (14 u), then
    # alpha c^{N'} top (14 N' + 4 <= 32 u), so the two differ by at most 64 u, which R(T) amplifies by T R'/R <= T.
    lead = (1.0 + (powers.size + 6 * N + 20) * 2.0**-52 + 6e-15) * p.alpha ** (N - 1)
    log_l = abs(math.log(L))

    def point(s: float):
        """(x, alpha c^{N'}, lam) at s as floats, or None where s cannot be built; alpha c^{N'} top is the largest t."""
        x = float(_norm_share(s))
        try:
            c, lam = _share_scales(G, L, x, p)
            coef = p.alpha * c**p.n_prime
        except OverflowError:
            return None
        return (x, coef, lam) if lam_lo <= lam <= lam_hi and coef * top <= EXP_ARG_LIMIT else None

    def score(s: float) -> float:
        at = point(s)
        if at is None:
            return -np.inf
        return u.grid.omega * float(np.dot(mass, _phi_tail(at[1] * powers, N - 1))) / at[2] ** N

    def scan(ss) -> tuple[np.ndarray, np.ndarray]:
        ss = np.asarray(ss, dtype=float)
        x = _norm_share(ss)
        with np.errstate(over="ignore", invalid="ignore"):
            c, lam = _share_scales(G, L, x, p)
            arg = p.alpha * c**p.n_prime * top
        ok = (lam_lo <= lam) & (lam <= lam_hi) & (arg <= EXP_ARG_LIMIT)
        arg = np.where(ok, arg, 0.0)
        slack = 1.0 + (2.0 * N / p.b * np.abs(np.log(x)) + log_l + 64.0 * arg) * 2.0**-53
        bounds = np.where(ok, lead * x ** (N / p.b) * slack * _tail_ratio(arg, N - 1), -np.inf)
        out = np.full(len(ss), -np.inf)
        for i in np.argsort(-bounds, kind="stable"):
            if bounds[i] == -np.inf or bounds[i] < out.max():
                break
            out[i] = score(float(ss[i]))
        return out, bounds

    def slope(s: float) -> tuple[float, float, float, float]:
        at = point(s)
        if at is None:
            return np.nan, np.nan, np.nan, -np.inf
        x, coef, lam = at
        t = coef * powers
        tails = [_phi_tail(t, N - 1)]  # Phi_{N-1}, Phi_{N-2}, Phi_{N-3}, with Phi_{-1} = Phi_0 = e^t
        for j in (N - 2, N - 3):
            tails.append(tails[-1] + (t**j / math.factorial(j) if j >= 0 else 0.0))
        A, B, C = (float(np.dot(mass, w)) for w in (tails[0], t * tails[1], t * t * tails[2]))  # t^i Phi_{N-1-i}
        q, r = (1.0 - x) / p.b + x / p.a, p.n_prime * x / p.a
        dg = N * x * (1.0 - x) * (1.0 / p.a - 1.0 / p.b) * A - (N * q + 1.0 - x) * r * B + r * r * (B + C)
        return N * q * A - r * B, dg, A, u.grid.omega * A / lam**N

    return scan, slope


def _norm_share(s):
    """The logistic 1 / (1 + e^{-s}), for a float or an array of s."""
    return 1.0 / (1.0 + np.exp(-s))


def _newton_max(slope, lo: float, s: float, hi: float) -> tuple[float, float]:
    """Safeguarded Newton on the curve's slope (g, g', A, F) from s in [lo, hi]: the last s whose slope formed, F there.

    Each step shrinks [lo, hi] by the sign of g and bisects when the Newton step leaves it or g' >= 0.  It stops at
    the first s whose Newton step predicts a gain of at most u F, 0.5 g^2 / (|g'| A) <= u = 2^-53 (F' / F = g / A),
    at |ds| <= 1e-13 max(1, |s|), or after 50 steps.  lam and c are monotone in s, so a slope that is nan at s is
    nan past it: the bracket is cut there (F = -inf if it is cut at the start).
    """
    good, value = s, -np.inf
    for _ in range(50):
        g, dg, A, val = slope(s)
        if math.isfinite(g) and math.isfinite(dg):
            ds = -g / dg if dg < 0 else math.nan
            if 0.5 * g * ds <= 2.0**-53 * A:  # false for nan: no Newton step
                return s, val
            good, value, step = s, val, s + ds
            lo, hi = (s, hi) if g > 0 else (lo, s)
        elif s == good:  # the start itself
            return s, value
        else:
            lo, hi, step = (lo, s, np.nan) if s > good else (s, hi, np.nan)
        new = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(new - s) <= 1e-13 * max(1.0, abs(s)):
            break
        s = new
    return good, value


def _dilation_line_search(pt: _Point, p: MTParams) -> _Point:
    """Best point of pt's constraint curve: s = logit(x) at 33 points of [-30, 30], then `_newton_max`.

    Only the best-scoring s is built, by `_share_scales` on pt's G and L; it replaces pt only if its own
    value beats pt's, so the returned value is mt_integral of the returned profile.
    """
    scan, slope = _dilation_curve(pt, p)
    ss = np.linspace(-30.0, 30.0, 33)
    scan_vals = scan(ss)[0]
    k = int(np.argmax(scan_vals))
    if not np.isfinite(scan_vals[k]):
        return pt
    s, val = _newton_max(slope, float(ss[max(k - 1, 0)]), float(ss[k]), float(ss[min(k + 1, len(ss) - 1)]))
    x = float(_norm_share(s if val > scan_vals[k] else float(ss[k])))
    try:  # the built profile's terms are its shares: (c^N G)^{a/N} = 1 - x and (c^N L / lam^N)^{b/N} = x
        new = _point(_on_share(pt.u, pt.G, pt.L, x, p), (1.0 - x) ** (p.N / p.a), x ** (p.N / p.b), p)
    except (SeriesOverflowError, GridOverflowError):
        return pt
    return new if new.value > pt.value else pt


def _ascent_slope(pt: _Point, p: MTParams, g: np.ndarray, d: np.ndarray) -> float:
    """d/deta at 0 of F(project_to_constraint(u + eta d)), for the point u on the constraint and g = F'(u).

    The constraint terms (t_grad, t_norm) are homogeneous of degrees a and b in the amplitude, so
    beta'(0) = -<C', d> / (a t_grad + b t_norm) and the slope is <g, d> + beta'(0) <g, u>.  Where the weighted
    sum <w_grad, u'> or <w_norm, u> behind a term is not positive (its powers underflowed), the slope is 0.0,
    which ends the step as a descent does.
    """
    u, grid = pt.u, pt.u.grid
    t_grad, t_norm = pt.G ** (p.a / p.N), pt.L ** (p.b / p.N)
    s_u = _cell_slopes(grid, u.values)
    w_grad, w_norm = np.abs(s_u) ** (p.N - 2) * s_u * grid.cell_moments, grid.mass * u.values ** (p.N - 1)
    grad_sum, norm_sum = np.dot(w_grad, s_u), np.dot(w_norm, u.values)
    if not (grad_sum > 0 and norm_sum > 0):
        return 0.0
    dc = p.a * t_grad * np.dot(w_grad, _cell_slopes(grid, d)) / grad_sum  # <C', d>
    dc += p.b * t_norm * np.dot(w_norm, d) / norm_sum
    return float(np.dot(g, d) - dc * np.dot(g, u.values) / (p.a * t_grad + p.b * t_norm))


def _ascend(pt: _Point, p: MTParams) -> tuple[_Point, int]:
    """Projected gradient ascent from a point on the constraint; returns (best point, iters)."""
    eta = 0.25
    for iters in range(1, MAX_ITERS + 1):
        u = pt.u
        g = _gradient(u, pt.t, pt.tail, p)
        direction = g / (u.grid.omega * u.grid.mass)  # >= 0, as g is
        dmax = float(np.max(direction))
        if not dmax > 0:
            break
        step_scale = float(u.values[0]) / dmax  # values[0] is the largest value of a monotone profile
        improved = False
        for rung in range(25):
            trial = RadialProfile._unchecked(u.grid, u.values + eta * step_scale * direction)
            try:
                new = _project(trial, p)
            except (SeriesOverflowError, DegenerateProfileError):
                eta *= 0.4
                continue
            if new.value > pt.value:
                # a gain within the rounding bound n u of a sum of n positive terms: keep the step, end the ascent
                improved = new.value - pt.value > u.grid.n_nodes * UNIT_ROUNDOFF * pt.value
                pt, eta = new, min(eta * 1.4, 4.0)
                break
            if rung == 0 and _ascent_slope(pt, p, g, direction) <= 0:
                break  # the step descends the constraint surface: no shorter rung can gain
            eta *= 0.4
        if not improved or _concentrated(pt, p):
            break
    return _dilation_line_search(pt, p), iters


def _gaussian(grid: RadialGrid, width: float) -> RadialProfile:
    return RadialProfile(grid, np.exp(-((grid.nodes / width) ** 2)))


def _exponential(grid: RadialGrid, width: float) -> RadialProfile:
    return RadialProfile(grid, np.exp(-grid.nodes / width))


def _vanishing(grid: RadialGrid, p: MTParams, depth: float) -> RadialProfile:
    """Spread profile whose gradient constraint share is ~depth, any (a, N).

    The dilation parameter enters the constraint as t^{a/N}, so the depth
    is converted through the exponent N/a and clipped at t_min, where the
    rescaled grid reaches half of grid.max_radius.
    """
    base = project_to_constraint(_gaussian(grid, grid.r_max / 8.0), p)
    t = depth ** (p.N / p.a)
    t_min = (grid.r_max / (0.5 * grid.max_radius)) ** p.N
    return dilate(base, max(t, t_min))


def _candidate_starts(p: MTParams, opts: MaximizeOptions, grid: RadialGrid):
    """Builders of the opts.restarts starts; the random Gaussian mixtures draw in turn from one generator seeded
    by opts.seed, made on the first draw, so starts that draw nothing never import numpy.random."""
    scale = min(grid.r_max / 8.0, 2.0)
    rng = cache(lambda: np.random.default_rng(np.random.SeedSequence(opts.seed)))

    def mixture() -> RadialProfile:
        widths = 10.0 ** rng().uniform(-1.0, 1.0, size=3) * scale
        weights = rng().uniform(0.2, 1.0, size=3)
        return RadialProfile(grid, sum(amp * np.exp(-((grid.nodes / wdt) ** 2)) for wdt, amp in zip(widths, weights)))

    builders = [
        lambda: _vanishing(grid, p, 1e-8),
        lambda: _gaussian(grid, scale),
        lambda: on_constraint(cached_gn_report(p.N).maximizer_profile, 0.9, p),
        lambda: _exponential(grid, scale),
        lambda: on_constraint(cached_gn_report(p.N).maximizer_profile, 0.99, p),
        lambda: on_constraint(cached_gn_report(p.N).maximizer_profile, 0.5, p),
        lambda: _gaussian(grid, 2.5 * scale),
        lambda: _vanishing(grid, p, 1e-4),
    ][: opts.restarts]
    return builders + [mixture] * (opts.restarts - len(builders))


def maximize_d(
    p: MTParams,
    opts: MaximizeOptions | None = None,
    extra_candidates: Sequence[RadialProfile] = (),
) -> MaximizerReport:
    """Multi-start maximization; reports a certified lower bound for the supremum."""
    opts = opts or MaximizeOptions()
    opts.check_regime(p)
    grid = build_grid(p.N, opts.r_max, opts.n_nodes, opts.scheme)
    for c in extra_candidates:
        _check_profile_dimension(c, p)
    builders = _candidate_starts(p, opts, grid) + [lambda c=c: c for c in extra_candidates]

    # Only the running best is kept: the first strict maximum over the starts.
    best, restart_values, total_iters = None, [], 0
    for build in builders:
        try:
            start = _project(build(), p)
            pt, iters = (None, 0) if _concentrated(start, p) else _ascend(start, p)
        except (BracketNotFoundError, DegenerateProfileError, GridOverflowError, SeriesOverflowError):
            pt, iters = None, 0
        restart_values.append(np.nan if pt is None else pt.value)
        total_iters += iters
        if pt is not None and (best is None or pt.value > best.value):
            best = pt
    if best is None:
        raise DegenerateProfileError("all restarts were rejected; no feasible profile evaluated")
    best_value = best.value
    lower = universal_lower_bound(p.alpha, p.N)
    margin = best_value - lower
    report = MaximizerReport(
        params=p,
        best_value=best_value,
        best_profile=best.u,
        norm_split=(best.G ** (1.0 / p.N), best.L ** (1.0 / p.N)),
        lower_bound=lower,
        margin=margin,
        exceeds_lower_bound=margin > CERTIFY_MARGIN,
        mode_diagnostic=_mode_label(best, p),
        iterations=total_iters,
        restarts=len(builders),
        seed=opts.seed,
        restart_values=tuple(restart_values),
        grid_meta={
            "r_max": opts.r_max,
            "n_nodes": opts.n_nodes,
            "scheme": opts.scheme,
            "cell_order": DEFAULT_CELL_ORDER,
        },
    )
    return report


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg best constant
# ---------------------------------------------------------------------------

#: The grid the GN ground state is sampled on; shots run to GN_R_MAX.
GN_R_MAX = 30.0
GN_NODES = 1536
#: Gauss points per cell of the GN ratio's p-norms.
GN_GAUSS_ORDER = 16
#: Shooting policy of maximize_gn: RK4 step in r, halvings of the initial Q(0) bracket, that bracket.
GN_STEP = 0.02
GN_HALVINGS = 32
GN_BRACKET = (1.05, 4.0)
#: Exactly _bracket_q0(N, *GN_BRACKET, GN_R_MAX); maximize_gn(N) re-proves each, a test prints any entry that moved.
GN_Q0_BRACKETS = {
    2: (2.2062045690603553, 2.2062045697472055),
    3: (2.42611058333423, 2.42611058402108),
    4: (2.5154971129028127, 2.515497113589663),
}
#: The first event of a shot: Q reaches zero, or phi turns positive (Q turns back up).
OVERSHOOT, UNDERSHOOT = 1, -1


@dataclass(frozen=True)
class GNReport:
    """The GN state: trajectory is a shot's Q at r_k = k GN_STEP, cut before its event, q0 its Q(0), residual
    the final bracket's width on Q(0), iterations the shots.  Formed on first use: bgn_estimate, the GN ratio of
    the PL function through those nodes shifted to 0 at the last (a true lower bound), and maximizer_profile."""

    N: int
    q0: float
    residual: float
    iterations: int
    trajectory: tuple[float, ...] = field(repr=False)

    @cached_property
    def bgn_estimate(self) -> float:
        q, N = self.trajectory, self.N
        r, v = [GN_STEP * k for k in range(len(q))], [x - q[-1] for x in q]
        grad, big, norm = _pl_norm_pows(N, r, v, (N * N / (N - 1.0), N))
        return big / (norm * grad ** (1.0 / (N - 1.0)))

    @cached_property
    def maximizer_profile(self) -> RadialProfile:
        grid = build_grid(self.N, GN_R_MAX, GN_NODES)
        q = np.array(self.trajectory)
        values = np.interp(grid.nodes, GN_STEP * np.arange(q.size), q - q[-1], right=0.0)
        return rescale_to_norms(RadialProfile(grid, values), 1.0, 1.0)

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in ("N", "bgn_estimate", "q0", "residual", "iterations")}


def gn_ratio(u: RadialProfile) -> float:
    """||u||_{NN'}^{NN'} / (||u||_N^N ||grad u||_N^{NN'-N}) by the grid quadrature; scale and dilation invariant."""
    N = u.grid.N
    I_g = grad_norm_pow(u)
    if I_g <= 0:
        raise DegenerateProfileError("gradient norm vanishes; GN ratio undefined")
    return lp_norm_pow(u, N * N / (N - 1.0)) / (lp_norm_pow(u, N) * I_g ** (1.0 / (N - 1.0)))


@cache
def _gauss_rule(n: int) -> tuple[tuple[float, float], ...]:
    """The n-point Gauss-Legendre rule on [0, 1], (node, weight) pairs, by Newton on P_n from its Tricomi guesses."""
    rule = []
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))  # near the (i+1)-th largest root of P_n
        for _ in range(8):  # quadratic convergence from that guess: 3 or 4 steps reach a double
            p0, p1 = 1.0, x  # P_{k-1}, P_k at x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (p0 - x * p1) / (1.0 - x * x)
            x -= p1 / dp
        rule.append((0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


def _pl_norm_pows(N: int, r: Sequence[float], v: Sequence[float], powers: Sequence[float]) -> list[float]:
    """||grad w||_N^N, then ||w||_p^p for each p, of the PL function w through (r_k, v_k), zero past the last node.

    In floats: the exact cell sum, then Gauss per cell.  An integer p takes (N + p + 1) // 2 points, at most
    GN_GAUSS_ORDER, exact for r^{N-1} |w|^p, a polynomial of degree N - 1 + p on a cell where w keeps its sign
    (both norms at N = 2); any other p takes GN_GAUSS_ORDER."""
    if min(powers) < 1:
        raise InvalidParameterError(f"p must be >= 1, got {min(powers)}")
    omega, cells = sphere_area(N), list(zip(r, r[1:], v, v[1:]))
    out = [sum((abs(v1 - v0) / (r1 - r0)) ** N * (r1**N - r0**N) / N for r0, r1, v0, v1 in cells)]
    for p in powers:
        rule = _gauss_rule(min((N + int(p) + 1) // 2, GN_GAUSS_ORDER) if p == int(p) else GN_GAUSS_ORDER)
        out.append(sum(w * (r1 - r0) * (r0 + x * (r1 - r0)) ** (N - 1) * abs(v0 + x * (v1 - v0)) ** p
                       for x, w in rule for r0, r1, v0, v1 in cells))
    return [omega * term for term in out]


def _shoot(N: int, q0: float, r_end: float) -> tuple[int, list[float]]:
    """One fixed-step RK4 shot of the radial ground-state equation from Q(0) = q0 > 1, in floats.

    The state is (Q, phi), phi = r^{N-1} |Q'|^{N-2} Q', with
    phi' = r^{N-1} (Q^{N-1} - Q^{NN'-1}).  It starts at r = GN_STEP from the
    small-r series phi = c r^N / N, Q = Q(0) - (|c| r / N)^{1/(N-1)} r / N',
    where c = Q(0)^{N-1} - Q(0)^{NN'-1} < 0.  Returns the shot's first event
    (OVERSHOOT, UNDERSHOOT, or 0 if none by r_end) and its Q at r = 0,
    GN_STEP, ... up to the step of that event.
    """
    h, e, inv = GN_STEP, N * N / (N - 1.0) - 1.0, 1.0 / (N - 1)

    def rhs(r, q, phi):
        rn = r ** (N - 1)
        qp = max(q, 0.0)
        return math.copysign(abs(phi / rn) ** inv, phi), rn * (qp ** (N - 1) - qp ** e)

    c = q0 ** (N - 1) - q0 ** e
    q = q0 - (-c * h / N) ** inv * h * (N - 1.0) / N
    phi = c * h ** N / N
    trajectory = [q0, q]
    for k in range(1, int(round(r_end / h))):
        r = k * h
        k1q, k1p = rhs(r, q, phi)
        k2q, k2p = rhs(r + h / 2, q + h / 2 * k1q, phi + h / 2 * k1p)
        k3q, k3p = rhs(r + h / 2, q + h / 2 * k2q, phi + h / 2 * k2p)
        k4q, k4p = rhs(r + h, q + h * k3q, phi + h * k3p)
        q = q + h / 6 * (k1q + 2 * (k2q + k3q) + k4q)
        phi = phi + h / 6 * (k1p + 2 * (k2p + k3p) + k4p)
        trajectory.append(q)
        # Both events are final: past zero phi' = 0, so phi stays negative and
        # Q keeps falling; a shot that turned at Q > 0 lacks the energy to reach 0.
        if q <= 0:
            return OVERSHOOT, trajectory
        if phi > 0:
            return UNDERSHOOT, trajectory
    return 0, trajectory


def _bracket_q0(N: int, lo: float, hi: float, r_end: float) -> tuple[float, float]:
    """Halve [lo, hi] on Q(0) GN_HALVINGS times, shooting the midpoints: hi takes one that overshoots, lo any other."""
    if not 1.0 < lo < hi:
        raise InvalidParameterError(f"a Q(0) bracket needs 1 < lo < hi (Q(0) > 1 is necessary), got [{lo}, {hi}]")
    for _ in range(GN_HALVINGS):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _shoot(N, mid, r_end)[0] == OVERSHOOT else (mid, hi)
    return lo, hi


def maximize_gn(N: int) -> GNReport:
    """The radial GN ground state by shooting on Q(0), as the report of its midpoint shot.

    The maximizer solves -Delta_N Q + Q^{N-1} = Q^{NN'-1}.  The Q(0) bracket
    (GN_Q0_BRACKETS[N] or searched) is proved: lo must undershoot, hi overshoot.  The
    midpoint shot is cut before its event; GNReport forms its ratio and its profile.
    """
    check_dimension(N)
    lo, hi = GN_Q0_BRACKETS.get(N) or _bracket_q0(N, *GN_BRACKET, GN_R_MAX)
    if _shoot(N, lo, GN_R_MAX)[0] != UNDERSHOOT or _shoot(N, hi, GN_R_MAX)[0] != OVERSHOOT:
        raise BracketNotFoundError(f"Q(0) in [{lo!r}, {hi!r}] must undershoot, then overshoot (N = {N})")
    q0 = 0.5 * (lo + hi)
    event, trajectory = _shoot(N, q0, GN_R_MAX)
    iterations = 3 if N in GN_Q0_BRACKETS else GN_HALVINGS + 3
    return GNReport(N=N, q0=q0, residual=hi - lo, iterations=iterations,
                    trajectory=tuple(trajectory[:-1] if event else trajectory))


@cache
def cached_gn_report(N: int) -> GNReport:
    """maximize_gn(N), computed once per process.

    The one source of the GN maximizer and its ratio for maximize_d,
    bracket_alpha_star and the command line; its profile's arrays are
    read-only, so every caller can share the one report.
    """
    return maximize_gn(N)
