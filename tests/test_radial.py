import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mtlab
from mtlab import (
    GridOverflowError,
    InvalidParameterError,
    RadialProfile,
    build_grid,
    decreasing_rearrangement,
    equal_mass_grid,
    grad_norm_pow,
    lp_norm_pow,
    profile_from_csv,
    profile_to_csv,
    sample_profile,
    sphere_area,
)
from mtlab.radial import N_MAX, _cell_slopes
from conftest import edge_values, pl_norm_pow, random_monotone_profile, smooth_bump_profile


def cubic(r):
    return np.maximum(0.0, 1.0 - r) ** 3


class TestGridConstruction:
    @pytest.mark.parametrize("scheme", ["composite-gauss", "graded"])
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_invariants(self, scheme, N):
        g = build_grid(N, 7.5, 96, scheme=scheme)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0 and g.nodes[-1] <= g.r_max
        assert np.all(g.weights > 0)
        assert abs(np.sum(g.weights) - g.r_max) <= 1e-12 * g.r_max

    def test_constant_weight_sum(self):
        g = build_grid(2, 1.0, 64, scheme="composite-gauss")
        assert abs(np.sum(g.weights) - 1.0) <= 1e-12

    def test_linear_function_exact(self):
        g = build_grid(2, 1.0, 64)
        assert abs(np.dot(g.weights, g.nodes) - 0.5) <= 1e-12

    def test_graded_cell_widths_grow(self):
        # n divisible by the cell order so node gaps chunk cleanly per cell
        g = build_grid(2, 10.0, 240, scheme="graded", grading=1.05)
        gaps = np.diff(g.nodes)
        cell_means = gaps[: 3 * 79].reshape(79, 3).mean(axis=1)
        assert np.all(np.diff(cell_means) > 0)

    def test_parameter_errors(self):
        with pytest.raises(InvalidParameterError):
            build_grid(1, 1.0, 64)
        with pytest.raises(InvalidParameterError):
            build_grid(2, 1.0, 8)
        with pytest.raises(InvalidParameterError):
            build_grid(2, -1.0, 64)
        with pytest.raises(InvalidParameterError):
            build_grid(2, 1.0, 64, scheme="chebyshev")

    def test_equal_mass_grid_masses(self):
        g = equal_mass_grid(3, 5.0, 200)
        assert np.allclose(g.mass, g.mass[0], rtol=1e-12)
        assert abs(np.sum(g.weights) - g.r_max) <= 1e-12 * g.r_max

    def test_sphere_area(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)

    def test_sphere_area_and_alpha_N_at_the_dimension_limit(self):
        # against 40-digit arithmetic at N_MAX
        import mpmath

        N = N_MAX
        with mpmath.workdps(40):
            omega = 2 * mpmath.pi ** (mpmath.mpf(N) / 2) / mpmath.gamma(mpmath.mpf(N) / 2)
            alpha_n = N * omega ** (mpmath.mpf(1) / (N - 1))
        assert mtlab.critical_exponent(N) == pytest.approx(float(alpha_n), rel=1e-13)
        assert sphere_area(N) == pytest.approx(float(omega), rel=1e-12)

    @pytest.mark.parametrize("N", [300, 343, 344, 400, 455, 1000])
    def test_sphere_area_and_alpha_N_past_the_gamma_overflow(self, N):
        # Gamma(N/2) leaves the doubles at N = 344; both constants refuse such N before any arithmetic
        with pytest.raises(InvalidParameterError, match=f"at most {N_MAX}, got {N}"):
            sphere_area(N)
        with pytest.raises(InvalidParameterError, match=f"at most {N_MAX}, got {N}"):
            mtlab.critical_exponent(N)

    @pytest.mark.parametrize("N", [0, 1, 2.5, N_MAX + 1])
    def test_sphere_area_and_alpha_N_check_the_dimension(self, N):
        # unchecked, N = 1 divided by zero, N = 0 was a math domain error, 2.5 gave a number and 500 gave 0.0
        with pytest.raises(InvalidParameterError, match="dimension N must be an integer"):
            sphere_area(N)
        with pytest.raises(InvalidParameterError, match="dimension N must be an integer"):
            mtlab.critical_exponent(N)


class TestNorms:
    def test_lp_cubic_p2(self):
        # omega * int_0^1 r (1-r)^6 dr = 2 pi B(2,7) = pi/28
        g = build_grid(2, 1.0, 512)
        u = sample_profile(g, cubic)
        assert lp_norm_pow(u, 2) == pytest.approx(math.pi / 28, rel=1e-10)

    def test_lp_cubic_p4(self):
        # 2 pi B(2,13) = pi/91
        g = build_grid(2, 1.0, 512)
        u = sample_profile(g, cubic)
        assert lp_norm_pow(u, 4) == pytest.approx(math.pi / 91, rel=1e-10)

    def test_lp_zero_profile(self):
        g = build_grid(2, 1.0, 64)
        u = RadialProfile(g, np.zeros(g.n_nodes))
        assert lp_norm_pow(u, 2) == 0.0

    def test_lp_p_below_one_rejected(self):
        g = build_grid(2, 1.0, 64)
        u = sample_profile(g, cubic)
        with pytest.raises(InvalidParameterError):
            lp_norm_pow(u, 0.5)

    def test_grad_cubic(self):
        # 2 pi * 9 B(2,5) = 3 pi / 5; piecewise-linear error is O(h^2)
        g = build_grid(2, 1.0, 4096)
        u = sample_profile(g, cubic)
        assert grad_norm_pow(u) == pytest.approx(3 * math.pi / 5, abs=1e-7)

    def test_grad_exponential_n3(self):
        # omega_2 Gamma(3)/3^3 = 8 pi / 27, from int r^2 e^{-3r} dr
        g = build_grid(3, 40.0, 49152, scheme="graded", grading=1.0004)
        u = sample_profile(g, lambda r: np.exp(-r))
        assert abs(grad_norm_pow(u) - 8 * math.pi / 27) <= 1e-8

    def test_grad_zero_profile(self):
        g = build_grid(2, 1.0, 64)
        u = RadialProfile(g, np.zeros(g.n_nodes))
        assert grad_norm_pow(u) == 0.0

    def test_quadrature_convergence_order(self):
        # composite Gauss(3) is order >= 6; doubling nodes must cut the
        # lp error accordingly (or hit the roundoff floor)
        exact = 2 * math.pi * (math.gamma(2) / 4)  # ||e^{-r}||_2^2 in 2D
        errs = []
        for n in (32, 64):
            g = build_grid(2, 20.0, n)
            u = sample_profile(g, lambda r: np.exp(-r))
            errs.append(abs(lp_norm_pow(u, 2) - exact))
        assert errs[1] <= errs[0] / 2 ** 4 or errs[1] < 1e-13

    def test_holder_interpolation(self):
        rng = np.random.default_rng(11)
        g = build_grid(2, 10.0, 128)
        for _ in range(25):
            u = smooth_bump_profile(g, rng)
            p, s = 2.0, 6.0
            q = 3.0
            theta = (1 / p - 1 / q) / (1 / p - 1 / s)
            lhs = lp_norm_pow(u, q) ** (1 / q)
            rhs = lp_norm_pow(u, p) ** ((1 - theta) / p) * lp_norm_pow(u, s) ** (theta / s)
            assert lhs <= rhs * (1 + 1e-9)

    @pytest.mark.parametrize("N, r_max", [(57, 1e-3), (50, 1e-4)])
    def test_power_sum_where_only_a_power_overflows(self, N, r_max):
        # the decay cell's slope to the N-th power leaves the doubles while ||grad u||_N^N does not: the sum is formed
        # in logs, against the same cell sum in 40-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        g = build_grid(N, r_max, 64)
        u = sample_profile(g, lambda r: np.exp(-((r / 5.0) ** 2)))
        slopes = np.abs(np.diff(np.append(u.values, 0.0)) / g.cell_widths)
        assert np.max(slopes) > 2.0 ** (1024 / N)  # its N-th power overflows
        with mpmath.workdps(40):
            exact = g.omega * mpmath.fsum(mpmath.mpf(m) * mpmath.mpf(x) ** N for m, x in zip(g.cell_moments, slopes))
        assert grad_norm_pow(u) == pytest.approx(float(exact), rel=1e-12)

    def test_power_sum_past_the_double_range_still_refused(self):
        g = build_grid(2, 1.0, 64)
        u = RadialProfile(g, np.full(g.n_nodes, 1e200))
        with pytest.raises(mtlab.SeriesOverflowError, match="double range"):
            lp_norm_pow(u, 2)


class TestRearrangement:
    def test_monotone_unchanged(self):
        g = build_grid(2, 5.0, 64)
        u = sample_profile(g, lambda r: np.exp(-r))
        v = decreasing_rearrangement(u)
        assert np.array_equal(v.values, u.values)

    def test_single_spike_permutation(self):
        g = equal_mass_grid(2, 4.0, 16)
        vals = np.zeros(16)
        vals[1] = 1.0
        u = RadialProfile(g, vals)
        v = decreasing_rearrangement(u)
        expect = np.zeros(16)
        expect[0] = 1.0
        assert np.array_equal(v.values, expect)
        for p in (2.0, 3.5):
            assert lp_norm_pow(v, p) == pytest.approx(lp_norm_pow(u, p), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=4, max_size=40))
    def test_norms_preserved_on_equal_mass_grids(self, values):
        g = equal_mass_grid(2, 3.0, len(values))
        u = RadialProfile(g, np.array(values))
        v = decreasing_rearrangement(u)
        assert v.is_nonincreasing
        for p in (1.5, 2.0, 4.0):
            assert lp_norm_pow(v, p) == pytest.approx(lp_norm_pow(u, p), rel=1e-10, abs=1e-300)

    def test_l2_preserved_against_sort_oracle(self):
        rng = np.random.default_rng(7)
        g = equal_mass_grid(3, 6.0, 200)
        vals = rng.random(200)
        u = RadialProfile(g, vals)
        v = decreasing_rearrangement(u)
        oracle = np.sort(vals)[::-1]
        assert np.array_equal(v.values, oracle)
        assert lp_norm_pow(v, 2) == pytest.approx(lp_norm_pow(u, 2), rel=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_never_increases_on_smooth_profiles(self, seed):
        # grid-resolved profiles: the discrete statement tracks the
        # continuum rearrangement inequality
        rng = np.random.default_rng(seed)
        g = equal_mass_grid(2, 10.0, 512)
        u = smooth_bump_profile(g, rng)
        v = decreasing_rearrangement(u)
        assert grad_norm_pow(v) <= grad_norm_pow(u) + 1e-10


def _cells_reference(grid):
    """Reference: cell widths and moments of the gradient cell sum, computed directly from the nodes."""
    r = np.concatenate([grid.nodes, [grid.r_max]]) if grid.r_max > grid.nodes[-1] else grid.nodes
    return np.diff(r), (r[1:] ** grid.N - r[:-1] ** grid.N) / grid.N


def _grad_reference(u):
    """Reference: grad_norm_pow from the reference cells."""
    grid, N = u.grid, u.grid.N
    widths, moments = _cells_reference(grid)
    v = np.concatenate([u.values, [0.0]]) if widths.size == u.values.size else u.values
    slopes = np.diff(v) / widths
    return grid.omega * float(np.dot(np.abs(slopes) ** N, moments))


_CACHE_GRIDS = {
    "composite-gauss": lambda N: build_grid(N, 12.0, 96),
    "graded": lambda N: build_grid(N, 12.0, 96, scheme="graded"),
    "equal-mass": lambda N: equal_mass_grid(N, 12.0, 96),
    "csv": lambda N: profile_from_csv(profile_to_csv(sample_profile(build_grid(N, 5.0, 48), cubic)), N).grid,
    "rescaled": lambda N: build_grid(N, 12.0, 96).rescaled(0.37),
    "no-decay-node": lambda N: mtlab.RadialGrid(N=N, nodes=[0.5, 1.0, 2.0], weights=[0.75, 0.75, 0.5], r_max=2.0),
}


class TestCachedGeometry:
    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(_CACHE_GRIDS))
    def test_bit_equal_to_formula_and_read_only(self, kind, N):
        grid = _CACHE_GRIDS[kind](N)
        widths, moments = _cells_reference(grid)
        assert grid.cell_widths.tobytes() == widths.tobytes()
        assert grid.cell_moments.tobytes() == moments.tobytes()
        assert grid.omega == sphere_area(N)
        assert grid.cell_widths is grid.cell_widths  # computed once
        for arr in (grid.cell_widths, grid.cell_moments):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        u = sample_profile(grid, lambda r: np.exp(-r))
        assert grad_norm_pow(u) == _grad_reference(u)
        edges = grid.cell_edges()
        assert np.array_equal(edges[: grid.n_nodes], grid.nodes) and edges[-1] == grid.r_max

    def test_build_grid_builds_each_grid_once(self):
        grid = build_grid(3, 40.0, 512, "graded")
        assert build_grid(3, 40.0, 512, "graded") is grid
        assert build_grid(3, 40.0, 512) is not grid
        for arr in (grid.nodes, grid.weights, grid.mass, grid.cell_widths, grid.cell_moments):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_build_grid_normalizes_its_cache_key(self):
        grid = build_grid(2, 40.0, 512)
        assert build_grid(2, 40, 512) is grid
        assert build_grid(2, np.array(40.0), 512) is grid
        assert build_grid(2, 40.0, 512, "composite-gauss") is grid
        assert build_grid(np.int64(2), np.float64(40.0), np.int64(512)) is grid

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(_CACHE_GRIDS)), st.sampled_from([2, 3, 5, N_MAX]), st.floats(0.0, 1.0))
    def test_rescaled_equals_the_checked_grid(self, kind, N, depth):
        # factors with r_max f = 2^y in (0, max_radius], y from -1100 (the first node below the normal doubles is
        # refused there) up to log2 max_radius = 1000 / N
        grid = _CACHE_GRIDS[kind](N)
        factor = 2.0 ** (-1100.0 + depth * (1100.0 + 1000.0 / N)) / grid.r_max
        assume(0 < grid.r_max * factor <= grid.max_radius)
        if grid.nodes[0] * factor < np.finfo(float).tiny:
            with pytest.raises(GridOverflowError):
                grid.rescaled(factor)
            return
        fast = grid.rescaled(factor)
        checked = mtlab.RadialGrid(N, grid.nodes * factor, grid.weights * factor, grid.r_max * factor, grid.scheme)
        assert vars(fast).keys() == vars(checked).keys()
        for name, value in vars(checked).items():
            mine = getattr(fast, name)
            if isinstance(value, np.ndarray):
                assert mine.dtype == value.dtype and mine.tobytes() == value.tobytes() and not mine.flags.writeable
            else:
                assert type(mine) is type(value) and mine == value
        for name in ("cell_widths", "cell_moments", "omega"):
            assert np.array_equal(getattr(fast, name), getattr(checked, name))

    @pytest.mark.parametrize("kind", ["composite-gauss", "no-decay-node"])
    def test_cell_slopes_are_the_edge_differences(self, kind):
        # a grid with a decay cell to r_max, and one whose last node is r_max (no decay cell)
        grid = _CACHE_GRIDS[kind](3)
        assert (grid.cell_widths.size == grid.n_nodes) == (kind == "composite-gauss")
        values = np.random.default_rng(3).random(grid.n_nodes)
        reference = np.diff(edge_values(grid, values)) / grid.cell_widths
        assert _cell_slopes(grid, values).tobytes() == reference.tobytes()

    def test_rescaled_grid_gets_its_own_cache(self):
        grid = build_grid(3, 12.0, 96)
        before = grid.cell_moments.copy()
        small = grid.rescaled(0.5)
        assert small.cell_moments.tobytes() == _cells_reference(small)[1].tobytes()
        assert grid.cell_moments.tobytes() == before.tobytes()


def _pl_reference(u, p):
    """Reference: ||u||_p^p of the PL interpolant (integer p, grid with a decay cell), integrating each cell's polynomial."""
    from numpy.polynomial import Polynomial

    grid = u.grid
    edges = np.concatenate([[0.0], grid.nodes, [grid.r_max]])
    vals = np.concatenate([u.values[:1], u.values, [0.0]])
    total = 0.0
    for a, b, ua, ub in zip(edges[:-1], edges[1:], vals[:-1], vals[1:]):
        # in x = r - a on [0, b - a]: (a + x)^{N-1} (ua + slope x)^p
        slope = (ub - ua) / (b - a)
        integral = (Polynomial([a, 1.0]) ** (grid.N - 1) * Polynomial([ua, slope]) ** p).integ()
        total += integral(b - a)
    return grid.omega * total


class TestPLNormPow:
    """The float Gauss rule of the GN ratio (`maximize._pl_norm_pows`) on profiles' PL interpolants."""

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_constant_profile_closed_form(self, N, p):
        # c on [0, r_n], then c (r_max - r) / d on the decay cell of width d = r_max - r_n
        grid = build_grid(N, 3.0, 48)
        c, r_n, r_max = 0.7, grid.nodes[-1], grid.r_max
        d = r_max - r_n
        decay = sum(
            math.comb(N - 1, j) * (-1) ** j * r_max ** (N - 1 - j) * d ** (j + 1) / (j + p + 1) for j in range(N)
        )
        exact = sphere_area(N) * c ** p * (r_n ** N / N + decay)
        u = RadialProfile(grid, np.full(grid.n_nodes, c))
        assert pl_norm_pow(u, p) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 3, 5, 8])
    @pytest.mark.parametrize("kind", ["composite-gauss", "graded", "equal-mass"])
    def test_matches_cellwise_polynomials(self, N, p, kind):
        grid = equal_mass_grid(N, 5.0, 24) if kind == "equal-mass" else build_grid(N, 5.0, 24, scheme=kind)
        rng = np.random.default_rng(N * 100 + p)
        u = RadialProfile(grid, rng.random(grid.n_nodes))  # not monotone: every cell shape
        assert pl_norm_pow(u, p) == pytest.approx(_pl_reference(u, p), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4]),
        st.floats(1.0, 8.0),
        st.floats(0.1, 10.0),
        st.floats(-3.0, 3.0),
    )
    def test_scaling_laws(self, seed, N, p, amplitude, log_t):
        u = random_monotone_profile(build_grid(N, 10.0, 64), np.random.default_rng(seed))
        t = 10.0 ** log_t
        base = pl_norm_pow(u, p)
        scaled = RadialProfile(u.grid, u.values * amplitude)
        assert pl_norm_pow(scaled, p) == pytest.approx(amplitude ** p * base, rel=1e-12)
        assert pl_norm_pow(mtlab.dilate(u, t), p) == pytest.approx(t ** (p / N - 1.0) * base, rel=1e-12)

    def test_rejects_p_below_one(self):
        u = sample_profile(build_grid(2, 1.0, 32), cubic)
        with pytest.raises(InvalidParameterError):
            pl_norm_pow(u, 0.5)


class TestProfileBasics:
    def test_negative_values_rejected(self):
        g = build_grid(2, 1.0, 64)
        with pytest.raises(InvalidParameterError):
            RadialProfile(g, np.full(g.n_nodes, -1.0))

    @pytest.mark.parametrize("bad", [np.inf, float("1e400"), np.nan])
    def test_non_finite_values_rejected(self, bad):
        g = build_grid(2, 1.0, 64)
        values = np.linspace(1.0, 0.0, g.n_nodes)
        values[0] = bad
        with pytest.raises(InvalidParameterError, match="finite and non-negative"):
            RadialProfile(g, values)

    def test_grid_rescale_overflow(self):
        g = build_grid(2, 40.0, 64)
        with pytest.raises(GridOverflowError):
            g.rescaled(1e150)

    @pytest.mark.parametrize("N", [2, 4, 20])
    def test_rescale_limit_follows_N(self, N):
        # up to max_radius = 2^{1000/N} every mass and moment is finite; a step past it is refused
        g = build_grid(N, 40.0, 64)
        inside = g.rescaled(0.99 * g.max_radius / 40.0)
        assert np.isfinite(inside.mass).all() and np.isfinite(inside.cell_moments).all()
        with pytest.raises(GridOverflowError):
            g.rescaled(1.01 * g.max_radius / 40.0)

    @pytest.mark.parametrize("N", [2, 4, 20])
    def test_every_grid_stops_at_the_stretch_limit(self, N):
        # the rule `rescaled` applies holds for every grid, however it is built
        limit = build_grid(N, 1.0, 64).max_radius
        assert build_grid(N, limit, 64).r_max == limit
        with pytest.raises(InvalidParameterError, match="exceeds"):
            build_grid(N, 1.01 * limit, 64)
        with pytest.raises(InvalidParameterError, match="exceeds"):
            equal_mass_grid(N, 1.01 * limit, 64)
        with pytest.raises(InvalidParameterError, match="exceeds"):
            profile_from_csv(f"r,u\n1,1\n{limit!r},0\n", N)  # the outer edge lies half a gap past the last node


class TestProfileCsv:
    def test_round_trip(self):
        g = build_grid(2, 3.0, 64)
        u = sample_profile(g, lambda r: np.exp(-(r ** 2)))
        text = profile_to_csv(u)
        assert text.splitlines()[0] == "r,u"
        v = profile_from_csv(text, N=2)
        assert np.array_equal(v.values, u.values)
        assert np.array_equal(v.grid.nodes, u.grid.nodes)

    def test_significant_digits(self):
        g = build_grid(2, 1.0, 32)
        u = sample_profile(g, lambda r: np.full_like(r, 1.0 / 3.0))
        line = profile_to_csv(u).splitlines()[1]
        digits = line.split(",")[1].replace("0.", "")
        assert len(digits) >= 15

    def test_bad_header(self):
        with pytest.raises(InvalidParameterError):
            profile_from_csv("x,y\n1,2\n2,3\n", N=2)
