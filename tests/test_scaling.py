import math

import numpy as np
import pytest

import mtlab
from mtlab import (
    GridOverflowError,
    InvalidParameterError,
    MTParams,
    beta_star_derivative,
    build_grid,
    constraint_value,
    DegenerateProfileError,
    RadialProfile,
    dilate,
    grad_norm_pow,
    lp_norm_pow,
    on_constraint,
    sample_profile,
    solve_beta_star,
)
from mtlab.scaling import rescale_to_norms


@pytest.fixture()
def gaussian_half_half():
    """Profile with discrete norms ||grad v||_2^2 = ||v||_2^2 = 1/2 exactly."""
    g = build_grid(2, 14.0, 768)
    u = sample_profile(g, lambda r: np.exp(-(r ** 2) / 2))
    return rescale_to_norms(u, math.sqrt(0.5), math.sqrt(0.5))


class TestDilate:
    def test_identity(self):
        g = build_grid(2, 5.0, 64)
        v = sample_profile(g, lambda r: np.exp(-r))
        assert dilate(v, 1.0) is v

    def test_lp_scaling_law_p_equals_n(self):
        g = build_grid(3, 10.0, 256)
        v = sample_profile(g, lambda r: np.exp(-r))
        for t in (0.25, 4.0):
            assert lp_norm_pow(dilate(v, t), 3) == pytest.approx(lp_norm_pow(v, 3), rel=1e-13)

    def test_grad_scaling_law(self):
        g = build_grid(2, 10.0, 256)
        v = sample_profile(g, lambda r: np.exp(-r))
        for t in (0.5, 4.0):
            assert grad_norm_pow(dilate(v, t)) == pytest.approx(t * grad_norm_pow(v), rel=1e-13)

    def test_p4_law_against_requadrature_oracle(self):
        # ||v_t||_4^4 = t ||v||_4^4 at N=2, t=4; oracle = fresh sampling of
        # the dilated function on its own grid
        g = build_grid(2, 12.0, 2048)
        v = sample_profile(g, lambda r: np.exp(-(r ** 2)))
        t = 4.0
        vt = dilate(v, t)
        oracle_grid = build_grid(2, 12.0 / t ** 0.5, 2048)
        oracle = sample_profile(oracle_grid, lambda r: t ** 0.5 * np.exp(-((t ** 0.5 * r) ** 2)))
        assert lp_norm_pow(vt, 4) == pytest.approx(t * lp_norm_pow(v, 4), rel=1e-13)
        assert lp_norm_pow(oracle, 4) == pytest.approx(lp_norm_pow(vt, 4), rel=1e-9)

    def test_invalid_t(self):
        g = build_grid(2, 5.0, 64)
        v = sample_profile(g, lambda r: np.exp(-r))
        with pytest.raises(InvalidParameterError):
            dilate(v, 0.0)

    def test_grid_overflow(self):
        g = build_grid(2, 40.0, 64)
        v = sample_profile(g, lambda r: np.exp(-r))
        with pytest.raises(GridOverflowError):
            dilate(v, 1e-300)


class TestBetaStar:
    def test_unit_at_normalized_profile(self):
        p = MTParams(N=2, alpha=1.0, a=2.5, b=1.5)
        g = build_grid(2, 12.0, 512)
        v = mtlab.project_to_constraint(sample_profile(g, lambda r: np.exp(-r)), p)
        assert solve_beta_star(v, 1.0, p) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self, gaussian_half_half):
        # beta^2 (t+1)/2 = 1  =>  beta = sqrt(2/(t+1))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        for t in (0.25, 0.5, 1.0, 2.0, 7.0):
            assert solve_beta_star(gaussian_half_half, t, p) == pytest.approx(
                math.sqrt(2.0 / (t + 1.0)), abs=1e-12
            )

    def test_small_t_limit(self):
        # beta_star(t) -> ||v||_N^{-1}
        g = build_grid(2, 12.0, 512)
        u = sample_profile(g, lambda r: np.exp(-(r ** 2)))
        v = rescale_to_norms(u, 0.7, 1.0)  # ||v||_2 = 1
        p = MTParams(N=2, alpha=1.0, a=2.0, b=3.0)
        assert solve_beta_star(v, 1e-10, p) == pytest.approx(1.0, abs=1e-6)

    def test_derivative_closed_form(self, gaussian_half_half):
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        # beta(t) = sqrt(2/(t+1)) gives beta'(1) = -1/4
        assert beta_star_derivative(gaussian_half_half, 1.0, p) == pytest.approx(-0.25, abs=1e-12)

    def test_derivative_formula_at_unit_constraint(self):
        p = MTParams(N=2, alpha=1.0, a=3.0, b=1.5)
        g = build_grid(2, 12.0, 512)
        v = mtlab.project_to_constraint(sample_profile(g, lambda r: np.exp(-r)), p)
        ga = grad_norm_pow(v) ** (p.a / p.N)
        lb = lp_norm_pow(v, p.N) ** (p.b / p.N)
        expected = -(p.a / p.N) * ga / (p.a * ga + p.b * lb)
        assert beta_star_derivative(v, 1.0, p) == pytest.approx(expected, rel=1e-12)

    def test_derivative_negative(self, gaussian_half_half):
        p = MTParams(N=2, alpha=1.0, a=1.5, b=2.5)
        for t in np.geomspace(0.1, 10.0, 7):
            assert beta_star_derivative(gaussian_half_half, float(t), p) < 0

    def test_derivative_vs_finite_differences(self):
        g = build_grid(2, 12.0, 512)
        v = sample_profile(g, lambda r: np.exp(-(r ** 2)))
        h = 1e-5
        for a in (1.0, 2.0, 3.0):
            for b in (1.5, 2.0, 4.0):
                p = MTParams(N=2, alpha=1.0, a=a, b=b)
                for t in (0.3, 1.0, 3.0):
                    fd = (solve_beta_star(v, t + h, p) - solve_beta_star(v, t - h, p)) / (2 * h)
                    analytic = beta_star_derivative(v, t, p)
                    assert analytic == pytest.approx(fd, rel=1e-5)


class TestNormalizedDilation:
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 3.0), (3.5, 0.8)])
    def test_constraint_identity(self, N, a, b):
        # beta_star(t) v_t lies on the constraint surface
        p = MTParams(N=N, alpha=1.0, a=a, b=b)
        g = build_grid(N, 12.0, 384)
        v = sample_profile(g, lambda r: np.exp(-r))
        for t in (0.2, 1.0, 5.0):
            vt = dilate(v, t)
            w = RadialProfile(vt.grid, vt.values * solve_beta_star(v, t, p))
            assert constraint_value(w, p) == pytest.approx(1.0, abs=1e-12)


class TestGnTwoParameterFamily:
    """on_constraint on a normalized V is the two-parameter family W_t of a GN maximizer."""

    @pytest.fixture()
    def normalized_v(self):
        g = build_grid(2, 14.0, 768)
        u = sample_profile(g, lambda r: np.exp(-(r ** 2) / 2))
        return rescale_to_norms(u, 1.0, 1.0)

    def test_constraint_is_one(self, normalized_v):
        p = MTParams(N=2, alpha=3.0, a=2.0, b=8.0)
        for t in (0.1, 0.5, 0.9):
            W = on_constraint(normalized_v, t, p)
            assert constraint_value(W, p) == pytest.approx(1.0, abs=1e-10)

    def test_norm_split_identities(self, normalized_v):
        p = MTParams(N=2, alpha=3.0, a=1.7, b=6.0)
        for t in (0.2, 0.6, 0.95):
            W = on_constraint(normalized_v, t, p)
            assert lp_norm_pow(W, 2) ** (p.b / 2) == pytest.approx(t, rel=1e-12)
            assert grad_norm_pow(W) ** (p.a / 2) == pytest.approx(1.0 - t, rel=1e-12)

    def test_high_norm_identity(self, normalized_v):
        # ||W_t||_{NN'}^{NN'} = ratio(V) t^{N/b} (1-t)^{N'/a} for any unit-norm V
        p = MTParams(N=2, alpha=3.0, a=2.0, b=8.0)
        ratio_v = lp_norm_pow(normalized_v, 4)
        for t in (0.3, 0.8):
            W = on_constraint(normalized_v, t, p)
            expected = ratio_v * t ** (2 / p.b) * (1 - t) ** (2.0 / p.a)
            assert lp_norm_pow(W, 4) == pytest.approx(expected, rel=1e-12)

    def test_t_out_of_range(self, normalized_v):
        p = MTParams(N=2, alpha=3.0, a=2.0, b=8.0)
        for t in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(InvalidParameterError):
                on_constraint(normalized_v, t, p)

    def test_zero_profile_is_degenerate(self):
        g = build_grid(2, 10.0, 128)
        p = MTParams(N=2, alpha=3.0, a=2.0, b=8.0)
        with pytest.raises(DegenerateProfileError):
            on_constraint(RadialProfile(g, np.zeros(g.n_nodes)), 0.5, p)

    @pytest.mark.parametrize("N,a,b", [(2, 2.0, 8.0), (3, 0.7, 1.9)])
    def test_any_nonzero_profile_splits_exactly(self, N, a, b):
        # no normalization needed: an unnormalized u lands on the constraint at share t
        g = build_grid(N, 10.0, 256)
        u = sample_profile(g, lambda r: 3.7 * np.exp(-r))
        p = MTParams(N=N, alpha=1.0, a=a, b=b)
        for t in (0.05, 0.5, 0.999):
            W = on_constraint(u, t, p)
            assert lp_norm_pow(W, N) ** (b / N) == pytest.approx(t, rel=1e-12)
            assert grad_norm_pow(W) ** (a / N) == pytest.approx(1.0 - t, rel=1e-12)

    def test_matches_family_formula(self, normalized_v):
        # W_t(x) = lam w_t(lam x), w_t = t^{1/b} V, lam = t^{-1/b} (1-t)^{1/a}
        p = MTParams(N=2, alpha=3.0, a=1.7, b=6.0)
        for t in (0.1, 0.5, 0.9, 0.99):
            lam = t ** (-1.0 / p.b) * (1.0 - t) ** (1.0 / p.a)
            W = on_constraint(normalized_v, t, p)
            np.testing.assert_allclose(W.values, normalized_v.values * lam * t ** (1.0 / p.b), rtol=1e-14)
            np.testing.assert_allclose(W.grid.nodes, normalized_v.grid.nodes / lam, rtol=1e-14)


class TestSolveAmplitude:
    def test_residual_contract_across_powers(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from mtlab.scaling import solve_amplitude

        @settings(max_examples=200, deadline=None)
        @given(
            st.floats(0.2, 20.0),
            st.floats(0.2, 20.0),
            st.floats(1e-8, 1e4),
            st.floats(1e-8, 1e4),
        )
        def check(a, b, G, L):
            beta = solve_amplitude(G, L, a, b)
            residual = abs(G * beta ** a + L * beta ** b - 1.0)
            assert residual <= 1e-13

        check()

    def test_residual_off_the_beaten_range(self):
        # beta <= G^{-1/a} and beta <= L^{-1/b}, so beta^a and beta^b stay finite here
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from mtlab.scaling import solve_amplitude

        @settings(max_examples=300, deadline=None)
        @given(
            st.floats(0.1, 20.0),
            st.floats(0.1, 20.0),
            st.floats(1e-30, 1e30),
            st.floats(1e-30, 1e30),
        )
        def check(a, b, G, L):
            beta = solve_amplitude(G, L, a, b)
            assert abs(G * beta ** a + L * beta ** b - 1.0) <= 1e-13

        check()

    def test_single_term_closed_form(self):
        # with one term zero, beta = G^{-1/a} or L^{-1/b}; exp(log beta) carries the
        # rounding of log beta, so the relative tolerance grows with |log beta|
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from mtlab.scaling import solve_amplitude

        @settings(max_examples=300, deadline=None)
        @given(st.floats(0.1, 20.0), st.floats(0.1, 20.0), st.floats(1e-30, 1e30))
        def check(a, b, T):
            for G, L, power in ((0.0, T, b), (T, 0.0, a)):
                expected = T ** (-1.0 / power)
                tol = 1e-14 * max(1.0, abs(math.log(expected)))
                assert solve_amplitude(G, L, a, b) == pytest.approx(expected, rel=tol)

        check()

    def test_degenerate(self):
        from mtlab.scaling import solve_amplitude

        with pytest.raises(mtlab.DegenerateProfileError):
            solve_amplitude(0.0, 0.0, 2.0, 2.0)


class TestRescaleToNorms:
    def test_exact_targets(self):
        g = build_grid(3, 10.0, 256)
        u = sample_profile(g, lambda r: np.exp(-r))
        v = rescale_to_norms(u, 0.8, 1.3)
        assert grad_norm_pow(v) ** (1 / 3) == pytest.approx(0.8, rel=1e-13)
        assert lp_norm_pow(v, 3) ** (1 / 3) == pytest.approx(1.3, rel=1e-13)
