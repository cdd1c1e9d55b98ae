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
the objective.  When the first rung fails and the closed-form slope of the
projected path at the start (`_ascent_slope`) is <= 0, the step descends the
constraint surface; under a quadratic model no shorter rung can then gain, so
the ascent stops as it would after the whole ladder.  A line search along the
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
(N q + 1 - x) r B + r^2 (B + C).  No root is solved; only the winner is built.

`maximize_gn` computes the Gagliardo-Nirenberg maximizer from its
Euler-Lagrange equation, the radial ground state of
-Delta_N Q + Q^{N-1} = Q^{NN'-1}: batched RK4 shots bracket Q(0), the
shot from the final bracket is sampled on the GN grid, and the profile is
normalized to ||grad V||_N = 1 = ||V||_N.  Its certified bgn_estimate is
the GN ratio of that profile's piecewise-linear interpolant (`pl_norm_pow`);
`gn_ratio` with the grid quadrature is the working value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

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
    _phi_tail,
    _tail_ratio,
    constraint_terms,
    mt_integral,
    universal_lower_bound,
)
from .radial import (
    DEFAULT_CELL_ORDER,
    RadialGrid,
    RadialProfile,
    _cell_slopes,
    build_grid,
    check_grid,
    decreasing_rearrangement,
    grad_norm_pow,
    lp_norm_pow,
    pl_norm_pow,
)
from .scaling import _share_scales, dilate, on_constraint, rescale_to_norms, solve_amplitude

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
#: that ran on to 300 steps never won), and the floor on the direction's largest component.
MAX_ITERS = 50
GRAD_TOL = 1e-8
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


def functional_gradient(u: RadialProfile, p: MTParams) -> np.ndarray:
    """Nodal gradient of the discretized objective.

    Component i is d/du_i of omega sum_k m_k Phi_N(alpha u_k^{N'}), i.e.
    omega m_i alpha N' u_i^{N'-1} sum_{j >= N-2} (alpha u_i^{N'})^j / j!.
    """
    if u.grid.N != p.N:
        raise InvalidParameterError("profile grid dimension does not match params")
    t = p.alpha * u.values ** p.n_prime
    tail = _phi_tail(t, p.N - 2)
    return u.grid.omega * u.grid.mass * p.alpha * p.n_prime * u.values ** (p.n_prime - 1.0) * tail


def project_to_constraint(u: RadialProfile, p: MTParams) -> RadialProfile:
    """Rearrange into the monotone cone, rescale onto the constraint (DegenerateProfileError for zero)."""
    prof = decreasing_rearrangement(u)
    return prof.scaled(solve_amplitude(*constraint_terms(prof, p), p.a, p.b))


def _concentrated(u: RadialProfile, p: MTParams) -> bool:
    """At alpha_N, whether the gradient term of u exceeds CONCENTRATION_GUARD."""
    return p.is_critical and constraint_terms(u, p)[0] > CONCENTRATION_GUARD


def _mode_label(u: RadialProfile, p: MTParams) -> str:
    grad_share, norm_share = constraint_terms(u, p)
    if norm_share > 1.0 - MODE_EPS:
        return "near-vanishing"
    if grad_share > 1.0 - MODE_EPS:
        return "near-concentration"
    return "interior"


def _dilation_curve(u: RadialProfile, p: MTParams):
    """(scan, slope) of s -> F(on_constraint(u, x, p)), x = 1 / (1 + e^{-s}) the norm share, by the scaling laws.

    scan(ss) is (scores, ceilings), a ceiling being the bound on F times 1 + slack: it scores best ceiling first, one
    Phi_N sweep each, up to the first ceiling below the best score.  slope(s) is (g, g', F).  An s off the curve (lam
    not in [max(r_max, 1) / R, R], R = grid.max_radius, or T > EXP_ARG_LIMIT) has both -inf and slope nan.
    """
    N, mass = p.N, u.grid.mass
    G, L = grad_norm_pow(u), lp_norm_pow(u, N)
    if not (G > 0 and L > 0):  # a term underflowed: no curve to walk
        return (lambda ss: (np.full(len(ss), -np.inf),) * 2), None
    powers = u.values ** p.n_prime
    top = float(np.max(powers))
    lam_lo, lam_hi = max(u.grid.r_max, 1.0) / u.grid.max_radius, u.grid.max_radius
    # The bound's rounding slack, first order in u = 2^-53: n u per dot product of n positive terms (the score's and
    # L's), 6N u each for c^N L / lam^N ~ x^{N/b} and t_k^{N-1} ~ alpha^{N-1} c^N u_k^N, 40 u for the other powers,
    # products and Horner sums, 3e-15 for Phi_{N-1} at the t_k and as much at T.
    lead = (1.0 + (powers.size + 6 * N + 20) * 2.0**-52 + 6e-15) * p.alpha ** (N - 1)

    def point(s: float):
        """(x, alpha c^{N'}, lam) at s, or None; alpha c^{N'} top is the largest series argument."""
        x = _norm_share(s)
        c, lam = _share_scales(G, L, x, p)
        coef = p.alpha * c**p.n_prime if lam_lo <= lam <= lam_hi else np.inf
        return (x, coef, lam) if coef * top <= EXP_ARG_LIMIT else None

    def scan(ss) -> tuple[np.ndarray, np.ndarray]:
        pts = [point(s) or (np.nan,) * 3 for s in ss]  # nan where s cannot be built
        x, coef, _ = np.array(pts).T
        bounds = np.nan_to_num(lead * x ** (N / p.b) * _tail_ratio(coef * top, N - 1), nan=-np.inf)
        out = np.full(len(ss), -np.inf)
        for i in np.argsort(-bounds, kind="stable"):
            if bounds[i] == -np.inf or bounds[i] < out.max():
                break
            out[i] = u.grid.omega * float(np.dot(mass, _phi_tail(pts[i][1] * powers, N - 1))) / pts[i][2] ** N
        return out, bounds

    def slope(s: float) -> tuple[float, float, float]:
        if (pt := point(s)) is None:
            return np.nan, np.nan, -np.inf
        x, t = pt[0], pt[1] * powers
        tails = [_phi_tail(t, N - 1)]  # Phi_{N-1}, Phi_{N-2}, Phi_{N-3}, with Phi_{-1} = Phi_0 = e^t
        for j in (N - 2, N - 3):
            tails.append(tails[-1] + (t**j / math.factorial(j) if j >= 0 else 0.0))
        A, B, C = (float(np.dot(mass, t**i * tail)) for i, tail in enumerate(tails))
        q, r = (1.0 - x) / p.b + x / p.a, p.n_prime * x / p.a
        dg = N * x * (1.0 - x) * (1.0 / p.a - 1.0 / p.b) * A - (N * q + 1.0 - x) * r * B + r * r * (B + C)
        return N * q * A - r * B, dg, u.grid.omega * A / pt[2] ** N

    return scan, slope


def _norm_share(s: float) -> float:
    return 1.0 / (1.0 + math.exp(-s))


def _newton_max(slope, lo: float, s: float, hi: float) -> tuple[float, float]:
    """Safeguarded Newton on the curve's slope (g, g') from s in [lo, hi]: the last s whose slope formed, F there.

    Each step shrinks [lo, hi] by the sign of g and bisects when the Newton step leaves it or g' >= 0, up to
    |ds| <= 1e-13 max(1, |s|) or 50 steps.  lam and c are monotone in s, so a slope that is nan at s is nan
    past it: the bracket is cut there (F = -inf if it is cut at the start).
    """
    good, value = s, -np.inf
    for _ in range(50):
        g, dg, val = slope(s)
        if np.isfinite([g, dg]).all():
            good, value, step = s, val, s - g / dg if dg < 0 else np.nan
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


def _dilation_line_search(u: RadialProfile, p: MTParams, value: float):
    """Best point of u's constraint curve: s = logit(x) at 33 points of [-30, 30], then `_newton_max`.

    Only the best-scoring s is built; it replaces u only if its own value
    beats `value`, so the returned value is mt_integral of the returned profile.
    """
    scan, slope = _dilation_curve(u, p)
    ss = np.linspace(-30.0, 30.0, 33)
    scan_vals = scan(ss)[0]
    k = int(np.argmax(scan_vals))
    if not np.isfinite(scan_vals[k]):
        return value, u
    s, val = _newton_max(slope, float(ss[max(k - 1, 0)]), float(ss[k]), float(ss[min(k + 1, len(ss) - 1)]))
    try:
        prof = on_constraint(u, _norm_share(s if val > scan_vals[k] else float(ss[k])), p)
        val = mt_integral(prof, p)
    except (SeriesOverflowError, GridOverflowError):
        return value, u
    return (val, prof) if val > value else (value, u)


def _ascent_slope(u: RadialProfile, p: MTParams, g: np.ndarray, d: np.ndarray) -> float:
    """d/deta at 0 of F(project_to_constraint(u + eta d)), for u on the constraint and g = F'(u).

    The constraint terms (t_grad, t_norm) are homogeneous of degrees a and b in the amplitude, so
    beta'(0) = -<C', d> / (a t_grad + b t_norm) and the slope is <g, d> + beta'(0) <g, u>.
    """
    t_grad, t_norm = constraint_terms(u, p)
    grid = u.grid
    s_u = _cell_slopes(grid, u.values)
    w_grad, w_norm = np.abs(s_u) ** (p.N - 2) * s_u * grid.cell_moments, grid.mass * u.values ** (p.N - 1)
    dc = p.a * t_grad * np.dot(w_grad, _cell_slopes(grid, d)) / np.dot(w_grad, s_u)  # <C', d>
    dc += p.b * t_norm * np.dot(w_norm, d) / np.dot(w_norm, u.values)
    return float(np.dot(g, d) - dc * np.dot(g, u.values) / (p.a * t_grad + p.b * t_norm))


def _ascend(u: RadialProfile, p: MTParams):
    """Projected gradient ascent from a start on the constraint; returns (value, profile, iters)."""
    value = mt_integral(u, p)
    eta = 0.25
    for iters in range(1, MAX_ITERS + 1):
        g = functional_gradient(u, p)
        direction = g / (u.grid.omega * u.grid.mass)
        dmax = float(np.max(np.abs(direction)))
        if dmax < GRAD_TOL:
            break
        umax = float(np.max(u.values))
        step_scale = umax / dmax
        improved = False
        for rung in range(25):
            trial = RadialProfile(u.grid, u.values + eta * step_scale * direction)
            try:
                prof = project_to_constraint(trial, p)
                val = mt_integral(prof, p)
            except (SeriesOverflowError, DegenerateProfileError):
                eta *= 0.4
                continue
            if val > value:
                u, value = prof, val
                eta = min(eta * 1.4, 4.0)
                improved = True
                break
            if rung == 0 and _ascent_slope(u, p, g, direction) <= 0:
                break  # the step descends the constraint surface: no shorter rung can gain
            eta *= 0.4
        if not improved or _concentrated(u, p):
            break
    value, u = _dilation_line_search(u, p, value)
    return value, u, iters


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


def _candidate_starts(p: MTParams, opts: MaximizeOptions, grid: RadialGrid, rng):
    """Builders of the opts.restarts starts; a random Gaussian mixture draws from rng when it is built."""
    scale = min(grid.r_max / 8.0, 2.0)

    def mixture() -> RadialProfile:
        widths = 10.0 ** rng.uniform(-1.0, 1.0, size=3) * scale
        weights = rng.uniform(0.2, 1.0, size=3)
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
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    builders = _candidate_starts(p, opts, grid, rng) + [lambda c=c: c for c in extra_candidates]

    # Only the running best is kept: the first strict maximum over the starts.
    best_value, best_profile, restart_values, total_iters = -np.inf, None, [], 0
    for build in builders:
        try:
            u = project_to_constraint(build(), p)
            val, prof, iters = (np.nan, None, 0) if _concentrated(u, p) else _ascend(u, p)
        except (BracketNotFoundError, DegenerateProfileError, GridOverflowError, SeriesOverflowError):
            val, prof, iters = np.nan, None, 0
        restart_values.append(float(val))
        total_iters += iters
        if prof is not None and val > best_value:
            best_value, best_profile = val, prof
    if best_profile is None:
        raise DegenerateProfileError("all restarts were rejected; no feasible profile evaluated")
    lower = universal_lower_bound(p.alpha, p.N)
    margin = best_value - lower
    grad_norm = grad_norm_pow(best_profile) ** (1.0 / p.N)
    norm = lp_norm_pow(best_profile, p.N) ** (1.0 / p.N)
    report = MaximizerReport(
        params=p,
        best_value=best_value,
        best_profile=best_profile,
        norm_split=(grad_norm, norm),
        lower_bound=lower,
        margin=margin,
        exceeds_lower_bound=margin > CERTIFY_MARGIN,
        mode_diagnostic=_mode_label(best_profile, p),
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
#: Shooting policy of maximize_gn: RK4 step in r, shots per round, rounds, initial Q(0) bracket.
GN_STEP = 0.02
GN_SHOTS = 257
GN_ROUNDS = 4
GN_BRACKET = (1.05, 4.0)
#: Exactly _bracket_q0(N, *GN_BRACKET, GN_R_MAX); maximize_gn(N) re-proves each, a test prints any entry that moved.
GN_Q0_BRACKETS = {
    2: (2.2062045690603553, 2.206204569747206),
    3: (2.42611058333423, 2.42611058402108),
    4: (2.5154971129028127, 2.5154971135896633),
}
#: A final Q(0) bracket wider than this marks the report low_accuracy.
GN_RESIDUAL_TOL = 1e-6
#: The first event of a shot: Q reaches zero, or phi turns positive (Q turns back up).
OVERSHOOT, UNDERSHOOT = 1, -1


@dataclass(frozen=True)
class GNReport:
    """bgn_estimate is the ratio of a profile's PL interpolant: a true lower bound.

    grid_ratio is the working ratio gn_ratio(maximizer_profile) of the grid
    quadrature.  q0 is the Q(0) of the sampled shot, residual the width of
    the final bracket on Q(0) and iterations the number of shots.
    """

    N: int
    bgn_estimate: float
    grid_ratio: float
    q0: float
    maximizer_profile: RadialProfile
    residual: float
    low_accuracy: bool
    iterations: int

    def to_json_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "maximizer_profile"}


def gn_ratio(u: RadialProfile, norm_pow=lp_norm_pow) -> float:
    """||u||_{NN'}^{NN'} / (||u||_N^N ||grad u||_N^{NN'-N}); scale and dilation invariant.

    `norm_pow` evaluates the two p-norms: the grid quadrature by default
    (the working ratio), `pl_norm_pow` for the ratio of the PL interpolant.
    """
    N = u.grid.N
    I_g = grad_norm_pow(u)
    if I_g <= 0:
        raise DegenerateProfileError("gradient norm vanishes; GN ratio undefined")
    return norm_pow(u, N * N / (N - 1.0)) / (norm_pow(u, N) * I_g ** (1.0 / (N - 1.0)))


def _shoot(N: int, q0: np.ndarray, r_end: float) -> tuple[np.ndarray, list]:
    """Fixed-step RK4 shots of the radial ground-state equation, one per Q(0) > 1.

    The state is (Q, phi), phi = r^{N-1} |Q'|^{N-2} Q', with
    phi' = r^{N-1} (Q^{N-1} - Q^{NN'-1}).  It starts at r = GN_STEP from the
    small-r series phi = c r^N / N, Q = Q(0) - (|c| r / N)^{1/(N-1)} r / N',
    where c = Q(0)^{N-1} - Q(0)^{NN'-1} < 0.  Returns each shot's first event
    (OVERSHOOT, UNDERSHOOT, or 0 if none by r_end; all shots stop once each
    has one) and the first shot's Q at r = 0, GN_STEP, ... up to its own event.
    """
    h, e = GN_STEP, N * N / (N - 1.0) - 1.0

    def rhs(r, q, phi):
        rn = r ** (N - 1)
        qp = np.maximum(q, 0.0)
        if N == 2:  # Q' = phi / r: the general branch below with exponent 1, in fewer array passes
            return phi / rn, rn * (qp - qp ** e)
        return np.copysign(np.abs(phi / rn) ** (1.0 / (N - 1)), phi), rn * (qp ** (N - 1) - qp ** e)

    c = q0 ** (N - 1) - q0 ** e
    q = q0 - (-c * h / N) ** (1.0 / (N - 1)) * h * (N - 1.0) / N
    phi = c * h ** N / N
    turned = crossed = np.zeros(q0.shape, dtype=bool)
    trajectory = [q0[0], q[0]]
    for k in range(1, int(round(r_end / h))):
        r = k * h
        k1q, k1p = rhs(r, q, phi)
        k2q, k2p = rhs(r + h / 2, q + h / 2 * k1q, phi + h / 2 * k1p)
        k3q, k3p = rhs(r + h / 2, q + h / 2 * k2q, phi + h / 2 * k2p)
        k4q, k4p = rhs(r + h, q + h * k3q, phi + h * k3p)
        q = q + h / 6 * (k1q + 2 * (k2q + k3q) + k4q)
        phi = phi + h / 6 * (k1p + 2 * (k2p + k3p) + k4p)
        # Both events are final: past zero phi' = 0, so phi stays negative and
        # Q keeps falling; a shot that turned at Q > 0 lacks the energy to reach 0.
        if not (turned[0] or crossed[0]):  # the first shot had no event before this step
            trajectory.append(q[0])
        turned = turned | (phi > 0)
        crossed = q <= 0
        if (turned | crossed).all():
            break
    return np.where(crossed, OVERSHOOT, np.where(turned, UNDERSHOOT, 0)), trajectory


def _check_straddle(N: int, events: np.ndarray, lo: float, hi: float) -> None:
    """The shots from lo and hi (events[0], events[-1]) must undershoot, then overshoot."""
    if events[0] != UNDERSHOOT or events[-1] != OVERSHOOT:
        raise BracketNotFoundError(f"Q(0) in [{lo!r}, {hi!r}] must undershoot, then overshoot (N = {N})")


def _bracket_q0(N: int, lo: float, hi: float, r_end: float) -> tuple[float, float]:
    """Narrow [lo, hi] on Q(0) in GN_ROUNDS rounds of GN_SHOTS equally spaced shots.

    Each round keeps the adjacent undershoot/overshoot pair around the first
    overshoot.  hi must overshoot and lo must not; lo's shot may have no event.
    """
    if not 1.0 < lo < hi:
        raise InvalidParameterError(f"a Q(0) bracket needs 1 < lo < hi (Q(0) > 1 is necessary), got [{lo}, {hi}]")
    for _ in range(GN_ROUNDS):
        q0 = np.linspace(lo, hi, GN_SHOTS)
        events = _shoot(N, q0, r_end)[0]
        j = int(np.argmax(events == OVERSHOOT))
        under = np.flatnonzero(events[:j] == UNDERSHOOT)
        if events[-1] != OVERSHOOT or not under.size:
            raise BracketNotFoundError(f"Q(0) in [{lo!r}, {hi!r}] must undershoot, then overshoot (N = {N})")
        lo, hi = float(q0[under[-1]]), float(q0[j])
    return lo, hi


def maximize_gn(N: int) -> GNReport:
    """The radial GN ground state by shooting on Q(0), normalized to ||grad V||_N = 1 = ||V||_N.

    The maximizer solves -Delta_N Q + Q^{N-1} = Q^{NN'-1}.  Shots from lo, hi
    prove the Q(0) bracket (GN_Q0_BRACKETS[N] or searched) beside the midpoint
    shot, which is cut before its event, shifted to 0 there, sampled at the grid
    nodes (0 beyond) and normalized; bgn_estimate is its PL interpolant's ratio.
    """
    grid = build_grid(N, GN_R_MAX, GN_NODES)
    lo, hi = GN_Q0_BRACKETS.get(N) or _bracket_q0(N, *GN_BRACKET, GN_R_MAX)
    q0 = 0.5 * (lo + hi)
    events, trajectory = _shoot(N, np.array([q0, lo, hi]), GN_R_MAX)
    _check_straddle(N, events[1:], lo, hi)
    q = np.array(trajectory[:-1] if events[0] else trajectory)
    values = np.interp(grid.nodes, GN_STEP * np.arange(q.size), q - q[-1], right=0.0)
    profile = rescale_to_norms(RadialProfile(grid, values), 1.0, 1.0)
    return GNReport(
        N=N,
        bgn_estimate=gn_ratio(profile, pl_norm_pow),
        grid_ratio=gn_ratio(profile),
        q0=q0,
        maximizer_profile=profile,
        residual=hi - lo,
        low_accuracy=hi - lo > GN_RESIDUAL_TOL,
        iterations=3 if N in GN_Q0_BRACKETS else GN_ROUNDS * GN_SHOTS + 3,
    )


@cache
def cached_gn_report(N: int) -> GNReport:
    """maximize_gn(N), computed once per process.

    The one source of the GN maximizer and its ratio for maximize_d,
    bracket_alpha_star and the command line; its arrays are read-only, so
    every caller can share the one report.
    """
    return maximize_gn(N)
