import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtlab
from mtlab import (
    DegenerateProfileError,
    InvalidParameterError,
    MTParams,
    RadialProfile,
    build_grid,
    constraint_value,
    critical_exponent,
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
from mtlab.maximize import (
    GN_BRACKET,
    GN_HALVINGS,
    GN_Q0_BRACKETS,
    GN_R_MAX,
    GN_STEP,
    UNDERSHOOT,
    _ascent_slope,
    _bracket_q0,
    _dilation_curve,
    _dilation_line_search,
    _gauss_rule,
    _pl_norm_pows,
    _mode_label,
    _newton_max,
    _norm_share,
    _project,
    _shoot,
)
from mtlab.functional import EXP_ARG_LIMIT, _phi_tail
from mtlab.radial import N_MAX
from mtlab.scaling import _share_scales, rescale_to_norms
from conftest import pl_nodes, random_monotone_profile, smooth_bump_profile


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
        st.floats(-8.0, 8.0),
    )
    def test_dilation_scan_scaling_law(self, seed, N, frac, a, b, s):
        # the scan scores the point at norm share x = logistic(s) without building it; building
        # it by dilating u by lam^N and projecting, the root-solve route, must agree
        grid = build_grid(N, 20.0, 128)
        u = random_monotone_profile(grid, np.random.default_rng(seed))
        p = MTParams(N=N, alpha=frac * critical_exponent(N), a=a, b=b)
        x = _norm_share(s)
        w = mtlab.on_constraint(u, x, p)
        assert constraint_value(w, p) == pytest.approx(1.0, abs=1e-12)
        lam = grid.r_max / w.grid.r_max
        built = mtlab.mt_integral(project_to_constraint(mtlab.dilate(u, lam**N), p), p)
        assert _dilation_curve(_project(u, p), p)[0]([s])[0][0] == pytest.approx(built, rel=1e-12)

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
        p = MTParams(N=2, alpha=1.0, a=3.0, b=2.0)
        points = [_project(u, p)._replace(u=u, value=v) for u, v in zip(profs, [1.0, 5.0, 5.0, 2.0])]
        scripted = iter(zip(points, [3, 4, 5, 6]))
        monkeypatch.setattr(maximize_mod, "_ascend", lambda start, p: next(scripted))
        opts = mtlab.MaximizeOptions(restarts=2, n_nodes=32, r_max=10.0)
        rep = maximize_d(p, opts, extra_candidates=profs[:2])
        assert rep.best_profile is profs[1] and rep.best_value == 5.0
        assert rep.restart_values == (1.0, 5.0, 5.0, 2.0) and rep.iterations == 18

    def test_unbuildable_start_scores_nan(self):
        # at a = 0.01 the x = 0.99 GN start (restart 4) dilates past max_radius; the others still run
        rep = maximize_d(MTParams(N=2, alpha=3.0, a=0.01, b=2.0))
        assert len(rep.restart_values) == 8 and math.isnan(rep.restart_values[4])
        assert all(math.isfinite(v) for i, v in enumerate(rep.restart_values) if i != 4)
        assert rep.to_json_dict()["restart_values"][4] is None

    @pytest.mark.parametrize("N, alpha", [(2, 3.0), (3, 10.0), (4, 8.0)])
    @pytest.mark.parametrize("a", [0.05, 0.1])
    def test_small_a_reaches_the_universal_bound(self, N, alpha, a):
        # the vanishing starts spread until their grid reaches max_radius, far enough to meet alpha^{N-1}/(N-1)!
        rep = maximize_d(MTParams(N=N, alpha=alpha, a=a, b=N), mtlab.MaximizeOptions(seed=7))
        assert rep.margin >= -1e-12
        assert all(math.isfinite(v) for v in rep.restart_values)

    @pytest.mark.parametrize("N", [11, 20])
    def test_concentrated_start_scans_without_underflow(self, N):
        # at b = 0.05 the x = 0.5 GN start lives on a grid with r_max ~ 1e-5, where r_max / max_radius alone
        # would let the scan's lam^N underflow to 0; the bound max(r_max, 1) / max_radius keeps it >= 2^-1000
        p = MTParams(N=N, alpha=0.3 * critical_exponent(N), a=0.3, b=0.05)
        rep = maximize_d(p, mtlab.MaximizeOptions(n_nodes=64, seed=3))
        assert math.isfinite(rep.restart_values[5]) and rep.best_value >= rep.restart_values[5]

    def test_unbuildable_gn_start_scores_nan(self, monkeypatch):
        # a GN state whose Q(0) bracket cannot be found costs its three starts (2, 4, 5), not the run
        def no_bracket(N):
            raise mtlab.BracketNotFoundError("no bracket")

        monkeypatch.setattr(maximize_mod, "cached_gn_report", no_bracket)
        rep = maximize_d(MTParams(N=2, alpha=3.0, a=3.0, b=2.0), mtlab.MaximizeOptions(n_nodes=256))
        assert [i for i, v in enumerate(rep.restart_values) if math.isnan(v)] == [2, 4, 5]
        assert math.isfinite(rep.best_value)

    def test_report_names_the_grid_of_its_profile(self):
        # the winner at alpha = 1 is a GN start, which lives on the GN grid, not the options' grid
        rep = maximize_d(MTParams(N=2, alpha=1.0, a=3.0, b=2.0), mtlab.MaximizeOptions(seed=7))
        grid = rep.to_json_dict()["grid"]
        assert grid["best_profile_nodes"] == rep.best_profile.grid.n_nodes == maximize_mod.GN_NODES
        assert grid["n_nodes"] == 512

    @pytest.mark.parametrize(
        "kw", [{"n_nodes": 8}, {"restarts": 0}, {"r_max": -1.0}, {"scheme": "chebyshev"}, {"seed": -1}],
        ids=["n_nodes", "restarts", "r_max", "scheme", "seed"],
    )
    def test_options_rejected_when_built(self, kw):
        with pytest.raises(InvalidParameterError):
            mtlab.MaximizeOptions(**kw)

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


class TestFeasiblePoint:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.floats(0.05, 1.0),
        st.floats(0.3, 8.0),
        st.floats(0.3, 8.0),
        st.sampled_from(["composite-gauss", "graded"]),
        st.booleans(),
    )
    def test_record_matches_its_profile(self, seed, N, frac, a, b, scheme, bump):
        # the projection core's G, L, tail and value are the profile's own, and the gradient's Phi_{N-2} tail,
        # derived from the Phi_{N-1} tail, is the tail evaluated directly
        grid = build_grid(N, 20.0, 128, scheme)
        rng = np.random.default_rng(seed)
        u = smooth_bump_profile(grid, rng) if bump else random_monotone_profile(grid, rng)
        p = MTParams(N=N, alpha=frac * critical_exponent(N), a=a, b=b)
        pt = _project(u, p)
        assert pt.u.values.tobytes() == project_to_constraint(u, p).values.tobytes()
        assert pt.G == pytest.approx(grad_norm_pow(pt.u), rel=1e-14, abs=0)
        assert pt.L == pytest.approx(lp_norm_pow(pt.u, N), rel=1e-14, abs=0)
        np.testing.assert_allclose(pt.tail, _phi_tail(p.alpha * pt.u.values ** p.n_prime, N - 1), rtol=1e-14, atol=0)
        assert pt.value == pytest.approx(mtlab.mt_integral(pt.u, p), rel=1e-14, abs=0)
        grid = pt.u.grid
        direct = grid.omega * grid.mass * p.alpha * p.n_prime * pt.u.values ** (p.n_prime - 1) * _phi_tail(pt.t, N - 2)
        np.testing.assert_allclose(functional_gradient(pt.u, p), direct, rtol=1e-14, atol=0)


class TestRoundingStop:
    def test_vanishing_start_stops_at_the_rounding_bound(self, monkeypatch):
        # perfbench's N2-n512-aHbL-f0.3 (seed 301): the depth-1e-8 vanishing start (restart 0) took all MAX_ITERS
        # steps, each gaining ~4.5e-15 of its value, below the 512 u ~ 5.7e-14 rounding bound of a 512-term sum
        p = MTParams(N=2, alpha=0.3 * critical_exponent(2), a=2.8, b=1.2)
        opts = mtlab.MaximizeOptions(n_nodes=512, seed=1344417024)
        iters, ascend = [], maximize_mod._ascend

        def recorded(start, p):
            pt, n = ascend(start, p)
            iters.append(n)
            return pt, n

        monkeypatch.setattr(maximize_mod, "_ascend", recorded)
        stopped = maximize_d(p, opts)
        stop_iters = iters[:]
        iters.clear()
        monkeypatch.setattr(maximize_mod, "UNIT_ROUNDOFF", 0.0)  # only a step that gains nothing ends the ascent
        full = maximize_d(p, opts)
        assert iters[0] == maximize_mod.MAX_ITERS and stop_iters[0] < maximize_mod.MAX_ITERS
        assert stopped.iterations < full.iterations
        assert stopped.best_value == full.best_value
        assert stopped.best_profile.values.tobytes() == full.best_profile.values.tobytes()

    def test_vanishing_starts_climb_from_a_small_gradient(self):
        # the spread starts' preconditioned gradient starts far below any fixed floor (an absolute one of 1e-8 held
        # both at 755.11); the scale-free stops let them climb, while GN 0.9 still gives the best value
        p = MTParams(N=5, alpha=0.9 * critical_exponent(5), a=1.74, b=14.1)
        report = maximize_d(p, mtlab.MaximizeOptions(n_nodes=2048, scheme="graded"))
        assert report.restart_values[0] > 1600 and report.restart_values[7] > 1600
        assert report.best_value == 1712.0623738482716


class TestAscentSlope:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.floats(0.05, 0.95),
        st.floats(0.5, 8.0),
        st.floats(0.5, 8.0),
        st.floats(0.5, 8.0),
    )
    def test_slope_is_the_derivative_along_the_projected_path(self, N, frac, a, b, width):
        # the ascent's direction, scaled as its step is, from a Gaussian start on the constraint
        p = MTParams(N=N, alpha=frac * critical_exponent(N), a=a, b=b)
        grid = build_grid(N, 40.0, 512)
        pt = _project(sample_profile(grid, lambda r: np.exp(-((r / width) ** 2))), p)
        u = pt.u
        g = functional_gradient(u, p)
        d = g / (grid.omega * grid.mass)
        d *= np.max(u.values) / np.max(d)
        h = 1e-6

        def f(eta):
            return mtlab.mt_integral(project_to_constraint(RadialProfile(grid, u.values + eta * d), p), p)

        central = (f(h) - f(-h)) / (2 * h)
        slope = _ascent_slope(pt, p, g, d)
        assert abs(slope - central) <= max(1e-5 * abs(central), 1e-8 * mtlab.mt_integral(u, p))

    def test_slope_stop_keeps_the_full_ladder_results(self, monkeypatch):
        # an infinite slope never stops a step, which is the full 25-rung ladder
        count = [0]
        project = maximize_mod._project

        def counted(u, p):
            count[0] += 1
            return project(u, p)

        monkeypatch.setattr(maximize_mod, "_project", counted)
        problems = [
            MTParams(N=3, alpha=0.3 * critical_exponent(3), a=2.1, b=1.8),
            MTParams(N=2, alpha=0.9 * critical_exponent(2), a=2.8, b=4.0),
            MTParams(N=2, alpha=0.05, a=2.0, b=2.0),
        ]
        opts = mtlab.MaximizeOptions(seed=7)
        stopped = [maximize_d(p, opts) for p in problems]
        with_stop = count[0]
        monkeypatch.setattr(maximize_mod, "_ascent_slope", lambda u, p, g, d: math.inf)
        count[0] = 0
        ladder = [maximize_d(p, opts) for p in problems]
        assert with_stop <= count[0] / 2
        assert stopped[-1].mode_diagnostic == "near-vanishing"
        for fast, full in zip(stopped, ladder):
            assert fast.best_value == pytest.approx(full.best_value, rel=1e-12, abs=0)
            assert fast.mode_diagnostic == full.mode_diagnostic
            assert fast.exceeds_lower_bound == full.exceeds_lower_bound


def _single_point_score(pt, p, s):
    """The curve's value at s by one Phi_N sweep of its own, as the scan scored each point one by one.

    x, c and lam are floats formed as the line search builds its winner: float(_norm_share(s)), then _share_scales.
    """
    u = pt.u
    try:
        c, lam = _share_scales(pt.G, pt.L, float(_norm_share(s)), p)
        coef = p.alpha * c ** p.n_prime
    except OverflowError:
        return -np.inf
    if not max(u.grid.r_max, 1.0) / u.grid.max_radius <= lam <= u.grid.max_radius:
        return -np.inf
    args = coef * u.values ** p.n_prime
    if np.max(args) > EXP_ARG_LIMIT:
        return -np.inf
    return u.grid.omega * float(np.dot(u.grid.mass, _phi_tail(args, p.N - 1))) / lam ** p.N


INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, max_iter: int, tol: float):
    """Golden-section search for a maximum of f on [lo, hi], the oracle of the Newton line search.

    Stops after max_iter shrinks or once the bracket is narrower than tol;
    returns (x, f(x)) of the better of the last two points, x1 on a tie.
    """
    x1 = hi - INV_GOLDEN * (hi - lo)
    x2 = lo + INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        if hi - lo < tol:
            break
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _newton_and_golden(pt, p):
    """The line search's value by `_newton_max` and by golden section on the same bracket."""
    scan, slope = _dilation_curve(pt, p)
    score = lambda s: scan([s])[0][0]  # a scan of one buildable point scores it
    ss = np.linspace(-30.0, 30.0, 33)
    vals = scan(ss)[0]
    k = int(np.argmax(vals))
    if not np.isfinite(vals[k]):
        return None
    lo, hi = float(ss[max(k - 1, 0)]), float(ss[min(k + 1, 32)])
    s, newton = _newton_max(slope, lo, float(ss[k]), hi)
    assert newton == -np.inf or newton == score(s)  # the value Newton keeps is the score's, bit for bit
    golden = golden_section_max(score, lo, hi, 40, 1e-10)[1]
    return max(newton, vals[k]), max(golden, vals[k])


class TestDilationCurve:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4]),
        st.floats(0.05, 0.9),
        st.floats(0.5, 8.0),
        st.floats(0.5, 8.0),
        st.floats(-8.0, 8.0),
    )
    def test_slope_is_the_derivative_of_the_curve(self, seed, N, frac, a, b, s):
        # F' = omega g / lam^N and g' against central differences; where a derivative nearly
        # vanishes the differences carry the rounding of F (of A = F lam^N / omega), hence the floor
        grid = build_grid(N, 20.0, 128)
        p = MTParams(N=N, alpha=frac * critical_exponent(N), a=a, b=b)
        pt = _project(random_monotone_profile(grid, np.random.default_rng(seed)), p)
        scan, slope = _dilation_curve(pt, p)
        score = lambda s: scan([s])[0][0]  # a scan of one buildable point scores it
        h = 1e-5
        lam = _share_scales(pt.G, pt.L, _norm_share(s), p)[1]
        g, dg, _, value = slope(s)
        assert value == score(s)
        central = (score(s + h) - score(s - h)) / (2 * h)
        assert grid.omega * g / lam**N == pytest.approx(central, rel=1e-7, abs=1e-9 * value)
        central = (slope(s + h)[0] - slope(s - h)[0]) / (2 * h)
        assert dg == pytest.approx(central, rel=1e-7, abs=1e-9 * value * lam**N / grid.omega)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("n_nodes", [512, 2048])
    def test_scan_argmax_equals_single_point_argmax(self, N, n_nodes):
        # a = 0.08 puts lam below its bound at the scan's top end, so unbuildable points take part too
        grid = build_grid(N, 40.0, n_nodes)
        rng = np.random.default_rng(n_nodes + N)
        ss, unbuilt = np.linspace(-30.0, 30.0, 33), 0
        for a, b in ((0.08, 2.0), (2.0, 0.4), (3.0, 5.0)):
            p = MTParams(N=N, alpha=0.7 * critical_exponent(N), a=a, b=b)
            for u in (random_monotone_profile(grid, rng), sample_profile(grid, lambda r: np.exp(-((r / 3.0) ** 2)))):
                pt = _project(u, p)
                scanned = _dilation_curve(pt, p)[0](ss)[0]
                single = np.array([_single_point_score(pt, p, float(s)) for s in ss])
                k = int(np.argmax(single))
                assert int(np.argmax(scanned)) == k and scanned[k] == single[k]
                scored = np.isfinite(scanned)
                assert scanned[scored].tolist() == single[scored].tolist()
                assert np.isneginf(scanned[np.isneginf(single)]).all()  # unbuildable points still lose
                assert scored.sum() < 33
                unbuilt += int(np.isneginf(single).sum())
        assert unbuilt > 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.floats(0.01, 1.0),
        st.floats(0.05, 8.0),
        st.floats(0.05, 8.0),
        st.sampled_from(["composite-gauss", "graded"]),
        st.sampled_from(["random", "bump"]) | st.integers(1, 255),
        st.floats(-30.0, 30.0),
    )
    # c ~ 3e-55
    @example(0, 3, 7.7215486 / critical_exponent(3), 0.19556694, 4.4472999, "composite-gauss", "random", 0.0)
    @example(0, 20, 1e-6, 0.3, 2.0, "composite-gauss", "random", 0.0)  # T^{N-1} underflows to 0 at s = 9.375
    # a step on 115 nodes, where |N/b ln x| ~ 680 amplifies the rounding of the exponents 1/b and N/b
    @example(
        0, 3, 0.47577547121173064, 2.51532664927264, 0.09063121284201667, "composite-gauss", 115, -20.598559516728553
    )
    def test_ceiling_dominates_every_score(self, seed, N, frac, a, b, scheme, shape, s):
        # shape: a random monotone profile, a bump mixture, or 1 on the first `shape` nodes and 0 after;
        # the curve is bounded at the scan's 33 points and at s
        grid = build_grid(N, 40.0, 256, scheme)
        rng = np.random.default_rng(seed)
        if shape == "random":
            u = random_monotone_profile(grid, rng)
        elif shape == "bump":
            u = smooth_bump_profile(grid, rng)
        else:
            u = RadialProfile(grid, (np.arange(grid.n_nodes) < shape).astype(float))
        p = MTParams(N=N, alpha=frac * critical_exponent(N), a=a, b=b)
        pt = _project(u, p)
        ss = np.append(np.linspace(-30.0, 30.0, 33), s)
        ceilings = _dilation_curve(pt, p)[0](ss)[1]
        for s, ceiling in zip(ss, ceilings):
            value = _single_point_score(pt, p, float(s))
            assert value <= ceiling and (ceiling == -np.inf) == (value == -np.inf), (s, value, ceiling)
        assert np.isfinite(ceilings[ceilings > -np.inf]).all()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4]),
        st.floats(0.05, 0.95),
        st.floats(0.5, 8.0),
        st.floats(0.5, 8.0),
    )
    @example(0, 2, 0.5, 0.5, 1.0)  # the curve rises up to where lam leaves its bounds: the bracket is cut there
    def test_newton_is_no_worse_than_golden_section(self, seed, N, frac, a, b):
        grid = build_grid(N, 20.0, 128)
        p = MTParams(N=N, alpha=frac * critical_exponent(N), a=a, b=b)
        newton, golden = _newton_and_golden(_project(random_monotone_profile(grid, np.random.default_rng(seed)), p), p)
        assert newton >= golden * (1 - 1e-14)

    def test_scan_scores_few_points_on_criterion_06_cells(self, monkeypatch):
        # Phi_N sweeps per scan: a ceiling gone loose (inf, say) scores every buildable point, about 33 a scan
        sweeps, per_scan = [0], []
        phi_tail, curve = maximize_mod._phi_tail, maximize_mod._dilation_curve

        def counted_tail(t, k):
            sweeps[0] += 1
            return phi_tail(t, k)

        def counted_curve(u, p):
            scan, slope = curve(u, p)

            def counted_scan(ss):
                before = sweeps[0]
                out = scan(ss)
                per_scan.append(sweeps[0] - before)
                return out

            return counted_scan, slope

        monkeypatch.setattr(maximize_mod, "_phi_tail", counted_tail)
        monkeypatch.setattr(maximize_mod, "_dilation_curve", counted_curve)
        for alpha in (1.0, 2.0, 3.0):
            maximize_d(MTParams(N=2, alpha=alpha, a=3.0, b=2.0), mtlab.MaximizeOptions(seed=7))
        assert len(per_scan) == 24 and np.mean(per_scan) <= 12

    def test_newton_stops_at_the_rounding_bound_on_criterion_06_cells(self, monkeypatch):
        # slope evaluations per line search: stopping only at |ds| <= 1e-13 max(1, |s|) took 8.25 on average (198)
        per_search, curve = [], maximize_mod._dilation_curve

        def counted_curve(u, p):
            scan, slope = curve(u, p)
            per_search.append(0)

            def counted_slope(s):
                per_search[-1] += 1
                return slope(s)

            return scan, counted_slope

        monkeypatch.setattr(maximize_mod, "_dilation_curve", counted_curve)
        for alpha in (1.0, 2.0, 3.0):
            maximize_d(MTParams(N=2, alpha=alpha, a=3.0, b=2.0), mtlab.MaximizeOptions(seed=7))
        assert len(per_search) == 24 and np.mean(per_search) <= 6

    def test_newton_is_no_worse_than_golden_section_on_criterion_06_cells(self, monkeypatch):
        # every restart's line search of the three attained-regime cells
        pairs = []

        def recorded(pt, p):
            pairs.append(_newton_and_golden(pt, p))
            return _dilation_line_search(pt, p)

        monkeypatch.setattr(maximize_mod, "_dilation_line_search", recorded)
        for alpha in (1.0, 2.0, 3.0):
            maximize_d(MTParams(N=2, alpha=alpha, a=3.0, b=2.0), mtlab.MaximizeOptions(seed=7))
        assert len(pairs) == 24 and None not in pairs
        for newton, golden in pairs:
            assert newton >= golden * (1 - 1e-14)


def _moser_bubble(grid, eps, outer):
    """The truncated logarithm log(outer / max(r, eps)), cut at 0: a critical-growth concentrator."""
    return RadialProfile(grid, np.maximum(np.log(outer / np.maximum(grid.nodes, eps)), 0.0))


def _cell(label, N, alpha, a, b, seed=1):
    return pytest.param(MTParams(N=N, alpha=alpha, a=a, b=b), seed, id=label)


PORTFOLIO_CELLS = [
    *(_cell(f"criterion06-alpha{alpha:g}", 2, alpha, 3.0, 2.0, seed=7) for alpha in (1.0, 2.0, 3.0)),
    _cell("alphaN-N2", 2, critical_exponent(2), 1.0, 1.0),
    _cell("alphaN-N3", 3, critical_exponent(3), 1.5, 3.0),
    _cell("alphaN-N4", 4, critical_exponent(4), 8.0 / 3.0, 2.0),
    _cell("N11", 11, 0.3 * critical_exponent(11), 2.2, 6.6),  # GN x = 0.99 wins, by 4.9e-6 relative
    _cell("N5", 5, 0.9 * critical_exponent(5), 2.5, 3.0),
]


class TestPortfolio:
    """The default starts and step budget lose nothing the pruned starts and budget found."""

    @pytest.mark.parametrize("p, seed", PORTFOLIO_CELLS)
    def test_pruned_starts_and_budget_never_win(self, p, seed, monkeypatch):
        opts = mtlab.MaximizeOptions(seed=seed)
        base = maximize_d(p, opts)
        grid = build_grid(p.N, opts.r_max, opts.n_nodes, opts.scheme)
        scale = min(grid.r_max / 8.0, 2.0)
        pruned = [
            _moser_bubble(grid, 1e-4 * grid.r_max, grid.r_max / 4.0),
            sample_profile(grid, lambda r: np.exp(-((r / (0.4 * scale)) ** 2))),
            _moser_bubble(grid, 1e-2 * grid.r_max, grid.r_max / 4.0),
        ]
        assert maximize_d(p, opts, extra_candidates=pruned).best_value == base.best_value
        monkeypatch.setattr(maximize_mod, "MAX_ITERS", 300)
        assert maximize_d(p, opts).best_value == base.best_value

    @pytest.mark.parametrize("p, seed", PORTFOLIO_CELLS)
    def test_deep_vanishing_start_gains_only_last_bits(self, p, seed):
        # the vanishing start at depth 1e-13 re-finds the plateau that depth 1e-8 reaches
        opts = mtlab.MaximizeOptions(seed=seed)
        base = maximize_d(p, opts)
        grid = build_grid(p.N, opts.r_max, opts.n_nodes, opts.scheme)
        deep = maximize_d(p, opts, extra_candidates=[maximize_mod._vanishing(grid, p, 1e-13)])
        assert base.best_value <= deep.best_value <= base.best_value * (1 + 3e-13)

    def test_every_default_start_decides_a_cell(self):
        # cell k is (N, alpha / alpha_N, a, b) where default start k beats the others by more than 1e-9 relative
        cells = [
            (3, 0.7, 4.0, 1.0),  # vanishing 1e-8
            (2, 0.9, 3.0, 8.0),  # Gaussian
            (4, 0.9, 3.0, 8.0),  # GN 0.9
            (3, 0.9, 0.5, 8.0),  # exponential
            (4, 1.0, 4.0, 4.0),  # GN 0.99
            (2, 0.9, 2.0, 8.0),  # GN 0.5
            (2, 0.9, 0.5, 8.0),  # wide Gaussian
            (3, 0.7, 3.0, 4.0),  # vanishing 1e-4
        ]
        winners = []
        for N, frac, a, b in cells:
            values = np.array(maximize_d(MTParams(N=N, alpha=frac * critical_exponent(N), a=a, b=b)).restart_values)
            k = int(np.nanargmax(values))
            assert values[k] > np.nanmax(np.delete(values, k)) * (1 + 1e-9)
            winners.append(k)
        assert winners == list(range(mtlab.MaximizeOptions().restarts))

    @pytest.mark.parametrize("N", [2, 5])
    def test_default_starts_draw_nothing_from_the_rng(self, N, monkeypatch):
        # the default starts make no generator at all, so a cold default-restart run never imports numpy.random
        def no_generator(*args):
            raise AssertionError("a default start made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        opts = mtlab.MaximizeOptions()
        p = MTParams(N=N, alpha=0.5 * critical_exponent(N), a=1.0, b=float(N))
        grid = build_grid(N, opts.r_max, opts.n_nodes, opts.scheme)
        starts = [build() for build in maximize_mod._candidate_starts(p, opts, grid)]
        assert len(starts) == 8

    def test_mixtures_draw_in_turn_from_the_seeded_stream(self):
        opts = mtlab.MaximizeOptions(restarts=11, seed=7)
        p = MTParams(N=2, alpha=3.0, a=3.0, b=2.0)
        grid = build_grid(2, opts.r_max, opts.n_nodes, opts.scheme)
        mixtures = [build().values for build in maximize_mod._candidate_starts(p, opts, grid)[8:]]
        rng = np.random.default_rng(np.random.SeedSequence(7))
        scale = min(grid.r_max / 8.0, 2.0)
        for values in mixtures:
            widths = 10.0 ** rng.uniform(-1.0, 1.0, size=3) * scale
            weights = rng.uniform(0.2, 1.0, size=3)
            expected = sum(amp * np.exp(-((grid.nodes / wdt) ** 2)) for wdt, amp in zip(widths, weights))
            assert np.array_equal(values, expected)


class TestDiagnoseMode:
    def test_concentration_threshold(self):
        g = build_grid(2, 10.0, 256)
        u = sample_profile(g, lambda r: np.exp(-(r ** 2)))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        conc = rescale_to_norms(u, 1.0, (1e-6) ** (1.0 / 2.0))  # grad share ~ 1
        assert _mode_label(_project(conc, p), p) == "near-concentration"

    def test_interior(self):
        g = build_grid(2, 10.0, 256)
        u = sample_profile(g, lambda r: np.exp(-(r ** 2)))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        balanced = rescale_to_norms(u, math.sqrt(0.5), math.sqrt(0.5))
        assert _mode_label(_project(balanced, p), p) == "interior"


class TestMaximizeGN:
    def test_ratio_amplitude_invariance(self):
        g = build_grid(2, 20.0, 256)
        u = sample_profile(g, lambda r: np.exp(-r))
        assert gn_ratio(RadialProfile(u.grid, u.values * 5.0)) == pytest.approx(gn_ratio(u), rel=1e-12)

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
        # the certified value is the ratio of the PL function on the shot's nodes; the sampled profile's agrees
        grad, big, norm = _pl_norm_pows(2, *pl_nodes(gn_report_n2.maximizer_profile), (4.0, 2.0))
        assert big / (norm * grad) == pytest.approx(gn_report_n2.bgn_estimate, rel=1e-5)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_critical_condition_holds(self, N, gn_report_n2, gn_report_n3, gn_report_n4):
        rep = {2: gn_report_n2, 3: gn_report_n3, 4: gn_report_n4}[N]
        assert N ** 2 / (critical_exponent(N) * rep.bgn_estimate) < N

    def test_determinism(self):
        r1, r2 = maximize_gn(2), maximize_gn(2)
        assert r1.to_json_dict() == r2.to_json_dict()
        assert r1.maximizer_profile.values.tobytes() == r2.maximizer_profile.values.tobytes()
        assert r1.maximizer_profile.grid.nodes.tobytes() == r2.maximizer_profile.grid.nodes.tobytes()

    def test_consistent_with_raw_ratio(self, gn_report_n2):
        # gn_ratio = omega^{-1/(N-1)} / Q for the same profile
        V = gn_report_n2.maximizer_profile
        q = gn_ratio_radial(V, 2)
        assert gn_ratio(V) == pytest.approx(sphere_area(2) ** -1.0 / q, rel=1e-12)


#: Sharp GN constant for N = 2, 2/||Q||_2^2 of the Townes profile (Weinstein 1983), and its Q(0).
B_SHARP_N2 = 0.1709270735
TOWNES_Q0 = 2.2062008647


class TestGNShooting:
    def test_townes_q0(self, gn_report_n2):
        assert abs(gn_report_n2.q0 - TOWNES_Q0) < 1e-5

    def test_certified_value_below_sharp_constant(self, gn_report_n2):
        assert B_SHARP_N2 - 2e-5 <= gn_report_n2.bgn_estimate < B_SHARP_N2

    @pytest.mark.parametrize("N, ascent", [(2, 0.1708799928), (3, 0.3141531927), (4, 0.4135215738)])
    def test_beats_projected_ascent(self, N, ascent, gn_report_n2, gn_report_n3, gn_report_n4):
        # PL-exact ratios of the profiles the earlier 5-start projected ascent returned
        rep = {2: gn_report_n2, 3: gn_report_n3, 4: gn_report_n4}[N]
        assert rep.bgn_estimate >= ascent

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_gauss_order_converged(self, N, monkeypatch, gn_report_n2, gn_report_n3, gn_report_n4):
        rep = {2: gn_report_n2, 3: gn_report_n3, 4: gn_report_n4}[N]
        monkeypatch.setattr(maximize_mod, "GN_GAUSS_ORDER", 2 * maximize_mod.GN_GAUSS_ORDER)
        doubled = maximize_gn(N).bgn_estimate
        assert abs(doubled - rep.bgn_estimate) < 1e-13 * rep.bgn_estimate

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_ratio_matches_adaptive_quadrature(self, N, gn_report_n2, gn_report_n3, gn_report_n4):
        # scipy's adaptive quad on each cell of the same PL function, an oracle independent of the Gauss rule
        from scipy.integrate import quad

        rep = {2: gn_report_n2, 3: gn_report_n3, 4: gn_report_n4}[N]
        q = rep.trajectory
        r, v = [GN_STEP * k for k in range(len(q))], [x - q[-1] for x in q]
        cells = list(zip(r, r[1:], v, v[1:]))

        def norm_pow(p, slope=False):
            def f(t, r0, r1, v0, v1):
                w = (v1 - v0) / (r1 - r0) if slope else v0 + (t - r0) * (v1 - v0) / (r1 - r0)
                return t ** (N - 1) * abs(w) ** p

            return sphere_area(N) * math.fsum(quad(f, c[0], c[1], args=c, epsabs=0, epsrel=1e-13)[0] for c in cells)

        oracle = [norm_pow(N, slope=True), norm_pow(N * N / (N - 1.0)), norm_pow(N)]
        assert _pl_norm_pows(N, r, v, (N * N / (N - 1.0), N)) == pytest.approx(oracle, rel=1e-12)
        grad, big, norm = oracle
        assert rep.bgn_estimate == pytest.approx(big / (norm * grad ** (1.0 / (N - 1.0))), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
    def test_gauss_rule_matches_numpy(self, n):
        x, w = np.polynomial.legendre.leggauss(n)
        nodes, weights = zip(*sorted(_gauss_rule(n)))
        assert np.allclose(nodes, np.sort(0.5 * (1.0 - x)), rtol=0, atol=4e-16)
        assert np.allclose(weights, 0.5 * w[np.argsort(0.5 * (1.0 - x))], rtol=0, atol=4e-16)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_report_bookkeeping(self, N, gn_report_n2, gn_report_n3, gn_report_n4):
        rep = {2: gn_report_n2, 3: gn_report_n3, 4: gn_report_n4}[N]
        assert rep.iterations == 3
        assert 0 < rep.residual < 1e-8
        assert GN_BRACKET[0] < rep.q0 < GN_BRACKET[1]
        assert rep.maximizer_profile.is_nonincreasing
        payload = rep.to_json_dict()
        assert payload == {"N": N, "bgn_estimate": rep.bgn_estimate, "q0": rep.q0, "residual": rep.residual, "iterations": 3}

    @pytest.mark.parametrize(
        "N, q0, bgn", [(2, 2.2062045694037806, 0.17092023052462535), (3, 2.426110583677655, 0.3142674409885343)]
    )
    def test_q0_and_bgn_estimate_are_pinned(self, N, q0, bgn, gn_report_n2, gn_report_n3):
        # exact values, so any change to the arithmetic of the shots at N = 2, 3 shows here
        rep = {2: gn_report_n2, 3: gn_report_n3}[N]
        assert (rep.q0, rep.bgn_estimate) == (q0, bgn)

    @pytest.mark.parametrize("lo, hi", [(2.3, 4.0), (1.05, 2.1)], ids=["both-overshoot", "both-undershoot"])
    def test_bracket_must_straddle_ground_state(self, lo, hi, monkeypatch):
        # the bisection keeps one end of such a bracket; the proof shot from that end refuses it
        monkeypatch.setattr(maximize_mod, "GN_Q0_BRACKETS", {})
        monkeypatch.setattr(maximize_mod, "GN_BRACKET", (lo, hi))
        with pytest.raises(mtlab.BracketNotFoundError):
            maximize_gn(2)

    def test_search_lo_may_have_no_event(self):
        # from Q(0) = 1.05 the N = 11 shot has no event by r = 30; the search still narrows onto Q(0)
        assert _shoot(11, GN_BRACKET[0], GN_R_MAX)[0] == 0
        lo, hi = _bracket_q0(11, *GN_BRACKET, GN_R_MAX)
        assert 0 < hi - lo < 1e-8
        assert _shoot(11, lo, GN_R_MAX)[0] == UNDERSHOOT

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("N", range(5, N_MAX + 1))
    def test_found_across_the_dimension_range(self, N):
        # searched brackets (no table entry) for every N past the table, up to N_MAX
        rep = maximize_gn(N)
        assert rep.iterations == GN_HALVINGS + 3
        assert 0 < rep.residual < 1e-8
        assert GN_BRACKET[0] < rep.q0 < GN_BRACKET[1]
        assert rep.bgn_estimate > 0 and math.isfinite(rep.bgn_estimate)

    def test_bracket_needs_q0_above_one(self):
        with pytest.raises(InvalidParameterError):
            _bracket_q0(2, 1.0, 4.0, 30.0)


class TestTabulatedBracket:
    @pytest.mark.parametrize("N", sorted(GN_Q0_BRACKETS))
    def test_table_matches_the_search(self, N):
        found = _bracket_q0(N, *GN_BRACKET, GN_R_MAX)
        assert found == GN_Q0_BRACKETS[N], f"regenerate GN_Q0_BRACKETS; the entry is now\n    {N}: {found!r},"

    def test_search_path_gives_the_same_report(self, monkeypatch, gn_report_n2):
        monkeypatch.setattr(maximize_mod, "GN_Q0_BRACKETS", {})
        searched = maximize_gn(2)
        assert searched.iterations == GN_HALVINGS + 3
        fields = dict(searched.to_json_dict(), iterations=gn_report_n2.iterations)
        assert fields == gn_report_n2.to_json_dict()
        u, v = searched.maximizer_profile, gn_report_n2.maximizer_profile
        assert u.values.tobytes() == v.values.tobytes()
        assert u.grid.nodes.tobytes() == v.grid.nodes.tobytes()

    def test_corrupted_entry_is_refused(self, monkeypatch):
        monkeypatch.setitem(GN_Q0_BRACKETS, 2, (2.3, 2.4))
        with pytest.raises(mtlab.BracketNotFoundError):
            maximize_gn(2)
