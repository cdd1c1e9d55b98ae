"""Radial grids, radial profiles and the weighted 1D integrals they support.

Every functional in this package reduces, for radial functions u(|x|) on
R^N, to one-dimensional integrals against the measure r^{N-1} dr:

    ||u||_p^p      = omega_{N-1} * int_0^inf r^{N-1} |u(r)|^p dr
    ||grad u||_N^N = omega_{N-1} * int_0^inf r^{N-1} |u'(r)|^N dr

where omega_{N-1} = 2 pi^{N/2} / Gamma(N/2) is the surface area of the
unit sphere in R^N.  A profile is stored as nodal values on a fixed
quadrature grid over [0, r_max]; it is interpreted as piecewise linear
between nodes, constant on [0, r_1] (radial regularity, u'(0) = 0) and
decaying linearly to zero on [r_n, r_max], zero beyond.

Design notes:

* p-norms are evaluated by the grid's nodal quadrature rule, so they are
  spectrally accurate for smooth profiles sampled on the grid.
  `pl_norm_pow` instead integrates the piecewise-linear interpolant
  itself, exactly for integer p; it is what certified values use.
* The gradient integral is the *exact* integral of the piecewise-linear
  interpolant: a cell sum over node intervals with moments
  (r_{i+1}^N - r_i^N)/N.  Its accuracy against an underlying smooth
  function is O(h^2) in the local node spacing, which is why the graded
  scheme (small cells near the origin, geometrically growing outward)
  exists.
* Dilations are implemented elsewhere by rescaling the grid itself, so
  the scaling laws for norms hold to machine precision.

All values are immutable after construction (a grid's cached geometry is
read-only) and all operations are pure functions, so `build_grid` builds one
grid per (N, r_max, n_nodes, scheme, grading) per process, which every
caller and thread shares.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GridOverflowError, InvalidParameterError, SeriesOverflowError

__all__ = [
    "RadialGrid",
    "RadialProfile",
    "sphere_area",
    "critical_exponent",
    "check_dimension",
    "check_grid",
    "build_grid",
    "equal_mass_grid",
    "lp_norm_pow",
    "grad_norm_pow",
    "pl_norm_pow",
    "decreasing_rearrangement",
    "evaluate",
    "sample_profile",
    "profile_to_csv",
    "profile_from_csv",
]

#: The node layouts build_grid offers; equal_mass_grid builds the equal-mass grid directly.
GRID_SCHEMES = ("composite-gauss", "graded")

#: Gauss points per cell of the composite grids.
DEFAULT_CELL_ORDER = 3

#: Gauss points per cell of pl_norm_pow.
PL_GAUSS_ORDER = 16

#: The largest dimension any function accepts; check_dimension says why.
N_MAX = 57


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def check_dimension(N) -> None:
    """Reject any N but an integer in [2, N_MAX].

    The problem is posed for every N >= 2, but the GN ground state (bgn, the
    default --gn-c of alpha0, three starts of maximize_d) is found by
    maximize_gn's shots for N = 2..57 only: from N = 58 the Q(0) bracket no
    longer undershoots, then overshoots.  Up to 57 every double stays in range
    without rescaling: 700^57 < 2^1000 for the Phi_N kernel, its 1/j! up to
    j = 120, Gamma(N/2), and 2^{1000/N} >= GN_R_MAX for the GN grid.
    """
    if not (2 <= N <= N_MAX and N == int(N)):
        raise InvalidParameterError(f"dimension N must be an integer >= 2 and at most {N_MAX}, got {N}")


def max_radius(N: int) -> float:
    """2^{1000/N}, the largest r_max of any grid in R^N: r^N = 2^1000 leaves masses and moments finite."""
    return 2.0 ** (1000 / N)


def check_grid(r_max: float, n_nodes: int, scheme: str) -> None:
    """Reject a grid request that build_grid cannot honour: r_max > 0 finite, n_nodes >= 16, a known scheme."""
    if n_nodes < 16:
        raise InvalidParameterError(f"n_nodes must be >= 16, got {n_nodes}")
    if not 0 < r_max < math.inf:
        raise InvalidParameterError(f"r_max must be positive and finite, got {r_max}")
    if scheme not in GRID_SCHEMES:
        raise InvalidParameterError(f"unknown grid scheme {scheme!r}; expected one of {GRID_SCHEMES}")


def sphere_area(N: int) -> float:
    """Surface area omega_{N-1} of the unit sphere in R^N."""
    check_dimension(N)
    return float(2.0 * np.pi ** (N / 2.0) / math.gamma(N / 2.0))


def critical_exponent(N: int) -> float:
    """Critical exponential-growth constant alpha_N = N * omega_{N-1}^{1/(N-1)}."""
    return float(N * sphere_area(N) ** (1.0 / (N - 1)))


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature nodes and weights for integrals over [0, r_max].

    Attributes:
        N: ambient dimension (integer >= 2); fixes the measure r^{N-1} dr.
        nodes: strictly increasing node radii, all in (0, r_max].
        weights: positive quadrature weights for int_0^{r_max} f(r) dr.
        r_max: outer truncation radius.
        scheme: construction scheme label, kept for report provenance.

    r_max is at most max_radius.  The nodal masses weights * nodes^{N-1} are
    computed at construction.  omega, cell_widths and
    cell_moments are computed on first use and cached on the grid; the
    arrays are read-only.
    """

    N: int
    nodes: np.ndarray
    weights: np.ndarray
    r_max: float
    scheme: str = "custom"
    mass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        check_dimension(self.N)
        if not self.r_max <= self.max_radius:
            raise InvalidParameterError(f"r_max {self.r_max!r} exceeds 2^(1000/N) = {self.max_radius:.6g}")
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size < 2:
            raise InvalidParameterError("nodes and weights must be 1D arrays of equal length >= 2")
        if not (np.all(np.diff(nodes) > 0) and nodes[0] > 0 and nodes[-1] <= self.r_max):
            raise InvalidParameterError("nodes must be strictly increasing and lie in (0, r_max]")
        if not np.all(weights > 0):
            raise InvalidParameterError("quadrature weights must be strictly positive")
        total = float(np.sum(weights))
        if abs(total - self.r_max) > 1e-12 * self.r_max:
            raise InvalidParameterError(
                f"weights integrate the constant 1 to {total!r}, expected r_max={self.r_max!r}"
            )
        object.__setattr__(self, "nodes", _read_only(nodes))
        object.__setattr__(self, "weights", _read_only(weights))
        object.__setattr__(self, "mass", _read_only(weights * nodes ** (self.N - 1)))

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def max_radius(self) -> float:
        return max_radius(self.N)

    @cached_property
    def omega(self) -> float:
        return sphere_area(self.N)

    def cell_edges(self) -> np.ndarray:
        """Node radii, then the virtual decay node r_max when r_max > r_n (not cached)."""
        return np.append(self.nodes, self.r_max) if self.r_max > self.nodes[-1] else self.nodes

    @cached_property
    def cell_widths(self) -> np.ndarray:
        """Widths r_{i+1} - r_i of the gradient cells between the cell edges."""
        return _read_only(np.diff(self.cell_edges()))

    @cached_property
    def cell_moments(self) -> np.ndarray:
        """Moments (r_{i+1}^N - r_i^N)/N of the gradient cells."""
        r = self.cell_edges()
        return _read_only((r[1:] ** self.N - r[:-1] ** self.N) / self.N)

    def quadrature(self, values: np.ndarray) -> float:
        """int_0^{r_max} f(r) dr for nodal samples of f."""
        return float(np.dot(self.weights, values))

    def rescaled(self, factor: float) -> "RadialGrid":
        """Grid for r -> factor * r; preserves quadrature exactness.  Its r_max must lie in (0, max_radius]."""
        new_rmax = self.r_max * factor
        if not 0 < new_rmax <= self.max_radius:
            raise GridOverflowError(f"rescaled r_max {new_rmax!r} outside (0, {self.max_radius:g}]")
        return RadialGrid(
            N=self.N,
            nodes=self.nodes * factor,
            weights=self.weights * factor,
            r_max=new_rmax,
            scheme=self.scheme,
        )


@dataclass(frozen=True)
class RadialProfile:
    """Non-negative nodal values of a radial function on a grid.

    Admissible profiles (the maximizer iterates) are additionally
    non-increasing in r; use :func:`decreasing_rearrangement` to project
    onto that cone.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise InvalidParameterError("profile values must match the grid node count")
        if not (0 <= values.min() and values.max() < np.inf):  # also false for NaN
            raise InvalidParameterError("profile values must be finite and non-negative")
        object.__setattr__(self, "values", _read_only(values))

    @property
    def is_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.values) <= 0))

    def scaled(self, amplitude: float) -> "RadialProfile":
        return RadialProfile(self.grid, self.values * amplitude)


def _cell_counts(n_nodes: int) -> list[int]:
    """Split n_nodes into per-cell Gauss point counts, sizes q or q+1 for q = DEFAULT_CELL_ORDER.

    Odd-sized cells go at the outer end: the near-origin spacing pattern
    dominates the piecewise-linear gradient error, so it stays uniform.
    """
    n_cells = max(1, n_nodes // DEFAULT_CELL_ORDER)
    base = n_nodes // n_cells
    rem = n_nodes - base * n_cells
    return [base] * (n_cells - rem) + [base + 1] * rem


def _gauss_on_cells(edges: np.ndarray, counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    rules = {q: leggauss(q) for q in set(counts)}
    nodes, weights = [], []
    for a, b, q in zip(edges[:-1], edges[1:], counts):
        x, w = rules[q]
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def build_grid(
    N: int,
    r_max: float,
    n_nodes: int,
    scheme: str = "composite-gauss",
    grading: float = 1.05,
) -> RadialGrid:
    """Build a quadrature grid on [0, r_max], once per process for each value of the arguments.

    composite-gauss: equal cells, DEFAULT_CELL_ORDER-point Gauss-Legendre each.
    graded: cell widths grow geometrically by `grading` away from the
        origin (clusters nodes where concentrating profiles live), same
        per-cell Gauss rule.
    The cache sees normalized arguments (40 and 40.0 give one grid); r_max past 2^{1000/N} is refused.
    """
    check_dimension(N)
    check_grid(r_max, n_nodes, scheme)
    return _build_grid(int(N), float(r_max), int(n_nodes), scheme, float(grading))


@lru_cache(maxsize=None)
def _build_grid(N: int, r_max: float, n_nodes: int, scheme: str, grading: float) -> RadialGrid:
    counts = _cell_counts(n_nodes)
    n_cells = len(counts)
    if scheme == "composite-gauss":
        edges = np.linspace(0.0, r_max, n_cells + 1)
    else:
        if grading < 1.0:
            raise InvalidParameterError(f"grading ratio must be >= 1, got {grading}")
        widths = grading ** np.arange(n_cells)
        widths = widths / widths.sum() * r_max
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        edges[-1] = r_max
    nodes, weights = _gauss_on_cells(edges, counts)
    # Gauss weights sum to the exact cell widths; nail Sum w = r_max to the bit.
    weights = weights * (r_max / weights.sum())
    return RadialGrid(N=N, nodes=nodes, weights=weights, r_max=r_max, scheme=scheme)


def equal_mass_grid(N: int, r_max: float, n_nodes: int) -> RadialGrid:
    """Grid whose nodal masses w_i r_i^{N-1} are all exactly equal.

    Nodes sit at the midpoints of equal slabs of the radial measure
    rho = r^N / N.  On such a grid a permutation of nodal values
    preserves every lp_norm_pow exactly, which makes it the natural
    habitat of the discrete decreasing rearrangement.  The declared
    outer radius is Sum w_i (slightly above the requested r_max) so the
    constant-exactness invariant holds by construction.
    """
    check_dimension(N)
    if n_nodes < 2:
        raise InvalidParameterError("equal-mass grid needs at least 2 nodes")
    rho_max = r_max ** N / N
    drho = rho_max / n_nodes
    rho = (np.arange(n_nodes) + 0.5) * drho
    nodes = (N * rho) ** (1.0 / N)
    weights = drho / nodes ** (N - 1)
    # A uniform weight rescale keeps the masses exactly equal while making
    # the declared outer radius consistent (Sum w = r_max >= last node).
    target = max(float(weights.sum()), float(nodes[-1]) * (1.0 + 1e-9))
    weights = weights * (target / weights.sum())
    return RadialGrid(N=N, nodes=nodes, weights=weights, r_max=target, scheme="equal-mass")


def lp_norm_pow(u: RadialProfile, p: float) -> float:
    """||u||_p^p = omega_{N-1} int_0^inf r^{N-1} |u(r)|^p dr."""
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    return u.grid.omega * _power_sum(u.grid.mass, u.values, p)


def _edge_values(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Values at grid.cell_edges(): the nodal values, then 0 at a decay node (r_max, 0)."""
    return np.concatenate([values, [0.0]]) if grid.r_max > grid.nodes[-1] else values


def _cell_slopes(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Slopes of the piecewise-linear interpolant of nodal `values` on the gradient cells."""
    return np.diff(_edge_values(grid, values)) / grid.cell_widths


def grad_norm_pow(u: RadialProfile) -> float:
    """||grad u||_N^N via the exact cell sum for the piecewise-linear profile.

    Each node interval contributes |du/dr|^N (r_{i+1}^N - r_i^N)/N; the
    profile is flat on [0, r_1] and decays linearly to zero at r_max.
    Zero iff u is identically zero.
    """
    grid = u.grid
    return grid.omega * _power_sum(grid.cell_moments, np.abs(_cell_slopes(grid, u.values)), grid.N)


@np.errstate(over="raise")
def _power_sum(weights: np.ndarray, x: np.ndarray, p: float) -> float:
    """sum_i weights_i x_i^p; SeriesOverflowError where a power or the sum leaves the double range."""
    try:
        return float(np.dot(weights, x**p))
    except FloatingPointError:
        raise SeriesOverflowError(f"a sum of {p:g}-th powers exceeds the double range") from None


def pl_norm_pow(u: RadialProfile, p: float) -> float:
    """||u||_p^p of the piecewise-linear interpolant, by PL_GAUSS_ORDER-point Gauss per cell.

    The cells are the constant piece [0, r_1], the node intervals and the
    decay cell to r_max.  On each, r^{N-1} |u|^p is a polynomial of degree
    N - 1 + p when p is an integer, which the rule integrates exactly up to
    degree 2 * PL_GAUSS_ORDER - 1.  The loop runs over the Gauss points, so
    the temporaries are one value per cell.
    """
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    grid = u.grid
    edges = np.concatenate([[0.0], grid.cell_edges()])
    vals = np.concatenate([u.values[:1], _edge_values(grid, u.values)])
    left, width = edges[:-1], np.diff(edges)
    total = 0.0
    for x, w in zip(*leggauss(PL_GAUSS_ORDER)):
        s = 0.5 * (1.0 + x)
        v = (1.0 - s) * vals[:-1] + s * vals[1:]
        total += 0.5 * w * float(np.dot(width * (left + s * width) ** (grid.N - 1), v ** p))
    return grid.omega * float(total)


def decreasing_rearrangement(u: RadialProfile) -> RadialProfile:
    """Project a profile onto the non-increasing cone, measure-respectfully.

    The nodal values are stacked in descending order, each carrying its
    node's radial mass, and the resulting layered step function is read
    back at the nodes' mass midpoints.  On an equal-mass grid this is
    exactly the descending sort and preserves every p-norm; on general
    grids it is the discrete analogue of the radially symmetric
    decreasing rearrangement.  Already monotone profiles are returned
    unchanged.
    """
    if u.is_nonincreasing:
        return u
    mass = u.grid.mass
    order = np.argsort(-u.values, kind="stable")
    sorted_values = u.values[order]
    cum = np.cumsum(mass[order])
    midpoints = np.cumsum(mass) - 0.5 * mass
    idx = np.searchsorted(cum, midpoints, side="left")
    idx = np.minimum(idx, sorted_values.size - 1)
    return RadialProfile(u.grid, sorted_values[idx])


def evaluate(u: RadialProfile, r) -> np.ndarray:
    """Pointwise values of the piecewise-linear profile at radii r."""
    grid = u.grid
    r = np.asarray(r, dtype=float)
    out = np.interp(r, grid.cell_edges(), _edge_values(grid, u.values), left=u.values[0], right=0.0)
    return np.where(r > grid.r_max, 0.0, out)


def sample_profile(grid: RadialGrid, func) -> RadialProfile:
    """Profile from nodal samples of a callable r -> u(r)."""
    values = np.asarray(func(grid.nodes), dtype=float)
    return RadialProfile(grid, np.maximum(values, 0.0))


def profile_to_csv(u: RadialProfile) -> str:
    """Serialize to CSV with header ``r,u``, 17 significant digits."""
    buf = io.StringIO()
    buf.write("r,u\n")
    for r, v in zip(u.grid.nodes, u.values):
        buf.write(f"{r:.17g},{v:.17g}\n")
    return buf.getvalue()


def profile_from_csv(text: str, N: int) -> RadialProfile:
    """Parse a ``r,u`` CSV back into a profile.

    Weights are reconstructed from the midpoint partition of the node
    radii, rescaled so the constant-exactness invariant holds; r_max is
    the partition's outer edge.  Malformed text raises InvalidParameterError.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].lower().replace(" ", "") != "r,u":
        raise InvalidParameterError("profile CSV must start with header 'r,u'")
    rows = [ln.split(",") for ln in lines[1:]]
    try:
        r = np.array([float(a) for a, _ in rows])
        v = np.array([float(b) for _, b in rows])
    except ValueError as exc:
        raise InvalidParameterError(f"profile CSV rows must be two numbers r,u: {exc}") from exc
    if r.size < 2:
        raise InvalidParameterError("profile CSV needs at least two nodes")
    edges = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [r[-1] + 0.5 * (r[-1] - r[-2])]])
    weights = np.diff(edges)
    grid = RadialGrid(N=N, nodes=r, weights=weights, r_max=float(weights.sum()), scheme="csv")
    return RadialProfile(grid, v)
