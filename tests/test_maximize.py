import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtlab
from mtlab import (
    DegenerateProfileError,
    GNOptions,
    InvalidParameterError,
    MTParams,
    RadialProfile,
    build_grid,
    constraint_value,
    critical_exponent,
    diagnose_mode,
    functional_gradient,
    gn_ratio,
    grad_norm_pow,
    j_truncated,
    lp_norm_pow,
    maximize_d,
    maximize_gn,
    project_to_constraint,
    sample_profile,
    sphere_area,
)
from mtlab.appendix import gn_ratio_radial
from mtlab import maximize as maximize_mod
from mtlab.maximize import _dilation_curve, _gn_log_gradient, _gn_ratio_and_integrals
from mtlab.radial import grad_norm_pow_gradient
from mtlab.scaling import rescale_to_norms
from conftest import random_monotone_profile


class TestFunctionalGradient:
    def test_zero_profile_gradient(self):
        for N in (2, 3):
            g = build_grid(N, 5.0, 64)
            u = RadialProfile(g, np.zeros(g.n_nodes))
            p = MTParams(N=N, alpha=1.0, a=2.0, b=2.0)
            assert np.all(functional_gradient(u, p) == 0.0)

    def test_nonnegative_components(self):
        rng = np.random.default_rng(4)
        g = build_grid(2, 10.0, 96)
        u = random_monotone_profile(g, rng)
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        assert np.all(functional_gradient(u, p) >= 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        g = build_grid(2, 10.0, 48)
        u = random_monotone_profile(g, rng)
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        grad = functional_gradient(u, p)
        eps = 1e-6
        for i in range(0, g.n_nodes, 7):
            up = u.values.copy()
            um = u.values.copy()
            up[i] += eps
            um[i] -= eps
            fd = (
                mtlab.mt_integral(RadialProfile(g, up), p)
                - mtlab.mt_integral(RadialProfile(g, um), p)
            ) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-12)


class TestProjection:
    def test_constraint_met(self):
        rng = np.random.default_rng(2)
        g = build_grid(2, 10.0, 128)
        p = MTParams(N=2, alpha=1.0, a=1.7, b=2.3)
        for _ in range(5):
            u = project_to_constraint(random_monotone_profile(g, rng), p)
            assert constraint_value(u, p) == pytest.approx(1.0, abs=1e-12)
            assert u.is_nonincreasing

    def test_zero_profile_rejected(self):
        g = build_grid(2, 10.0, 64)
        u = RadialProfile(g, np.zeros(g.n_nodes))
        with pytest.raises(DegenerateProfileError):
            project_to_constraint(u, MTParams(N=2, alpha=1, a=2, b=2))


class TestMaximizeD:
    def test_attained_regime_certifies(self, fast_opts):
        p = MTParams(N=2, alpha=3.0, a=3.0, b=2.0)
        rep = maximize_d(p, fast_opts)
        assert rep.exceeds_lower_bound
        assert rep.margin > 1e-4

    def test_report_invariants(self, fast_opts):
        p = MTParams(N=2, alpha=2.0, a=3.0, b=2.0)
        rep = maximize_d(p, fast_opts)
        assert constraint_value(rep.best_profile, p) == pytest.approx(1.0, abs=1e-8)
        assert rep.best_value >= j_truncated(rep.best_profile, p) - 1e-12
        assert rep.best_value >= rep.lower_bound - 1e-6
        assert rep.lower_bound == pytest.approx(p.alpha, rel=1e-14)  # N=2

    def test_determinism(self, fast_opts):
        p = MTParams(N=2, alpha=1.5, a=2.0, b=2.0)
        r1 = maximize_d(p, fast_opts)
        r2 = maximize_d(p, fast_opts)
        assert r1.best_value == r2.best_value
        assert r1.restart_values == r2.restart_values
        assert np.array_equal(r1.best_profile.values, r2.best_profile.values)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.floats(0.05, 0.9),
        st.floats(0.5, 8.0),
        st.floats(0.5, 8.0),
        st.floats(-3.0, 3.0),
    )
    def test_dilation_scan_scaling_law(self, seed, N, frac, a, b, log_t):
        # the scan scores beta_star(t) u_t without building it; the built profile must agree
        grid = build_grid(N, 20.0, 128)
        u = random_monotone_profile(grid, np.random.default_rng(seed))
        p = MTParams(N=N, alpha=frac * critical_exponent(N), a=a, b=b)
        t = 10.0 ** log_t
        built = mtlab.mt_integral(project_to_constraint(mtlab.dilate(u, t), p), p)
        assert _dilation_curve(u, p)(t) == pytest.approx(built, rel=1e-12)

    def test_duplicated_extra_candidate(self):
        # one vanishing start, then a rejected zero start and twice the same Gaussian
        p = MTParams(N=2, alpha=3.0, a=3.0, b=2.0)
        opts = mtlab.MaximizeOptions(restarts=1, n_nodes=256, seed=5)
        grid = build_grid(2, opts.r_max, opts.n_nodes)
        zero = RadialProfile(grid, np.zeros(grid.n_nodes))
        bump = sample_profile(grid, lambda r: np.exp(-((r / 2.0) ** 2)))
        base = maximize_d(p, opts)
        once = maximize_d(p, opts, extra_candidates=(zero, bump))
        twice = maximize_d(p, opts, extra_candidates=(zero, bump, bump))
        assert math.isnan(once.restart_values[1]) and once.restart_values[2] > base.best_value
        assert twice.restart_values == once.restart_values + (once.restart_values[2],)
        assert twice.iterations - once.iterations == once.iterations - base.iterations > 0
        assert twice.best_value == once.best_value == once.restart_values[2]
        assert twice.best_profile.values.tobytes() == once.best_profile.values.tobytes()

    def test_first_strict_maximum_wins(self, monkeypatch):
        # scripted ascents: restarts 1 and 2 tie at the maximum, so restart 1 must win
        grid = build_grid(2, 10.0, 32)
        profs = [sample_profile(grid, lambda r, w=w: np.exp(-r / w)) for w in (1.0, 2.0, 3.0, 4.0)]
        scripted = iter(zip([1.0, 5.0, 5.0, 2.0], profs, [3, 4, 5, 6]))
        monkeypatch.setattr(maximize_mod, "_ascend", lambda start, p: next(scripted))
        opts = mtlab.MaximizeOptions(restarts=2, n_nodes=32, r_max=10.0)
        rep = maximize_d(MTParams(N=2, alpha=1.0, a=3.0, b=2.0), opts, extra_candidates=profs[:2])
        assert rep.best_profile is profs[1] and rep.best_value == 5.0
        assert rep.restart_values == (1.0, 5.0, 5.0, 2.0) and rep.iterations == 18

    def test_critical_gate(self):
        a2 = critical_exponent(2)
        with pytest.raises(InvalidParameterError):
            maximize_d(MTParams(N=2, alpha=a2, a=2.0, b=3.0))

    def test_critical_override_and_attained_side(self, fast_opts):
        from dataclasses import replace

        a2 = critical_exponent(2)
        p = MTParams(N=2, alpha=a2, a=2.0, b=1.5)
        rep = maximize_d(p, replace(fast_opts, restarts=6))
        assert rep.best_value >= rep.lower_bound - 1e-6

    def test_vanishing_regime(self, fast_opts):
        p = MTParams(N=2, alpha=0.05, a=2.0, b=2.0)
        rep = maximize_d(p, fast_opts)
        assert rep.margin <= 1e-7
        assert rep.mode_diagnostic == "near-vanishing"
        assert not rep.exceeds_lower_bound

    def test_monotone_in_constraint_powers(self, fast_opts):
        # growing (a, b) grows the feasible set, so the supremum grows
        alpha = 3.0
        small = maximize_d(MTParams(N=2, alpha=alpha, a=2.5, b=2.0), fast_opts)
        large = maximize_d(MTParams(N=2, alpha=alpha, a=3.0, b=3.0), fast_opts)
        assert small.best_value <= large.best_value + 1e-6

    def test_json_payload_fields(self, fast_opts):
        p = MTParams(N=2, alpha=1.0, a=3.0, b=2.0)
        payload = maximize_d(p, fast_opts).to_json_dict()
        for key in (
            "params",
            "best_value",
            "lower_bound",
            "margin",
            "norm_split",
            "mode",
            "iterations",
            "seed",
        ):
            assert key in payload


class TestDiagnoseMode:
    def _report_with_profile(self, u, p):
        return mtlab.MaximizerReport(
            params=p,
            best_value=1.0,
            best_profile=u,
            norm_split=(0.0, 0.0),
            lower_bound=1.0,
            margin=0.0,
            exceeds_lower_bound=False,
            mode_diagnostic="",
            iterations=0,
            restarts=0,
            seed=0,
            restart_values=(),
            grid_meta={},
        )

    def test_concentration_threshold(self):
        g = build_grid(2, 10.0, 256)
        u = sample_profile(g, lambda r: np.exp(-(r ** 2)))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        conc = rescale_to_norms(u, 1.0, (1e-6) ** (1.0 / 2.0))  # grad share ~ 1
        assert diagnose_mode(self._report_with_profile(conc, p)) == "near-concentration"

    def test_interior(self):
        g = build_grid(2, 10.0, 256)
        u = sample_profile(g, lambda r: np.exp(-(r ** 2)))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        balanced = rescale_to_norms(u, math.sqrt(0.5), math.sqrt(0.5))
        assert diagnose_mode(self._report_with_profile(balanced, p)) == "interior"


class TestMaximizeGN:
    def test_ratio_amplitude_invariance(self):
        g = build_grid(2, 20.0, 256)
        u = sample_profile(g, lambda r: np.exp(-r))
        assert gn_ratio(u.scaled(5.0)) == pytest.approx(gn_ratio(u), rel=1e-12)

    def test_ratio_dilation_invariance(self):
        g = build_grid(2, 20.0, 256)
        u = sample_profile(g, lambda r: np.exp(-r))
        w = mtlab.dilate(u, 3.0)
        assert gn_ratio(w) == pytest.approx(gn_ratio(u), rel=1e-9)

    def test_n2_beats_appendix_bound(self, gn_report_n2):
        assert gn_report_n2.bgn_estimate > 1.0 / (2 * math.pi) + 1e-3

    def test_n3_beats_exponential_profile(self, gn_report_n3):
        # closed-form ratio of e^{-r}: omega^{-1/(N-1)} / C_3
        c3 = math.sqrt(27.0 / 32.0)
        exp_ratio = sphere_area(3) ** (-0.5) / c3
        assert gn_report_n3.bgn_estimate >= exp_ratio - 1e-9

    def test_profile_normalized(self, gn_report_n2):
        V = gn_report_n2.maximizer_profile
        assert grad_norm_pow(V) ** 0.5 == pytest.approx(1.0, abs=1e-10)
        assert lp_norm_pow(V, 2) ** 0.5 == pytest.approx(1.0, abs=1e-10)

    def test_ratio_matches_profile(self, gn_report_n2):
        V = gn_report_n2.maximizer_profile
        assert gn_ratio(V) == pytest.approx(gn_report_n2.bgn_estimate, rel=1e-10)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_critical_condition_holds(self, N, gn_report_n2, gn_report_n3, gn_report_n4):
        rep = {2: gn_report_n2, 3: gn_report_n3, 4: gn_report_n4}[N]
        assert N ** 2 / (critical_exponent(N) * rep.bgn_estimate) < N

    def test_determinism(self):
        r1 = maximize_gn(2, GNOptions(max_iters=100))
        r2 = maximize_gn(2, GNOptions(max_iters=100))
        assert r1.bgn_estimate == r2.bgn_estimate

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]), st.sampled_from(["composite-gauss", "graded"]))
    def test_log_gradient_from_given_integrals(self, seed, N, scheme):
        # the ascent hands over the accepted profile's integrals; the gradient must not move a bit
        u = random_monotone_profile(build_grid(N, 15.0, 96, scheme=scheme), np.random.default_rng(seed))
        nn = N * N / (N - 1.0)
        integrals = (lp_norm_pow(u, nn), lp_norm_pow(u, N), grad_norm_pow(u))
        assert _gn_ratio_and_integrals(u) == (gn_ratio(u), integrals)
        om_mass = u.grid.omega * u.grid.mass
        reference = (
            nn * u.values ** (nn - 1.0) * om_mass / integrals[0]
            - N * u.values ** (N - 1.0) * om_mass / integrals[1]
            - grad_norm_pow_gradient(u) / ((N - 1.0) * integrals[2])
        ) / om_mass
        assert _gn_log_gradient(u, integrals).tobytes() == reference.tobytes()
        assert _gn_log_gradient(u).tobytes() == reference.tobytes()

    def test_consistent_with_raw_ratio(self, gn_report_n2):
        # bgn = omega^{-1/(N-1)} / Q for the same profile
        V = gn_report_n2.maximizer_profile
        q = gn_ratio_radial(V, 2)
        assert gn_report_n2.bgn_estimate == pytest.approx(sphere_area(2) ** -1.0 / q, rel=1e-12)
