import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import mtlab
from mtlab import (
    BracketNotFoundError,
    SeriesOverflowError,
    BracketOptions,
    InvalidParameterError,
    MTParams,
    MaximizeOptions,
    alpha0_nonexistence,
    bracket_alpha_star,
    c_tilde_series,
    critical_exponent,
    g_function_test,
    universal_lower_bound,
)
from mtlab.bounds import VERDICT_CERTIFIED, VERDICT_INFINITE_SUP, VERDICT_NONE, BoundReport, g_function
from mtlab.functional import CERTIFY_MARGIN
from mtlab.radial import N_MAX


def light_bracket_opts(**kw):
    defaults = dict(
        count=6,
        maximize_opts=MaximizeOptions(restarts=6, n_nodes=256, seed=3),
    )
    defaults.update(kw)
    return BracketOptions(**defaults)


@pytest.fixture
def no_g_test(monkeypatch):
    """Send every bracket cell to maximize_d: the g-test gives no verdict."""

    def no_verdict(alpha, a, b, N, bgn):
        return BoundReport(kind="g-test", values={}, verdict=VERDICT_NONE, provenance="test:no-verdict")

    monkeypatch.setattr(mtlab.bounds, "g_function_test", no_verdict)


class TestUniversalLowerBound:
    def test_values(self):
        assert universal_lower_bound(4 * math.pi, 2) == pytest.approx(4 * math.pi, rel=1e-14)
        assert universal_lower_bound(1.0, 3) == pytest.approx(0.5, rel=1e-14)
        assert universal_lower_bound(2.0, 4) == pytest.approx(4.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("N", [20, N_MAX])
    def test_past_the_factorial_range(self, N):
        # alpha^{N-1} / (N-1)! in doubles matches exact rationals; (N-1)! leaves the doubles only past N_MAX, at 172
        alpha = mtlab.critical_exponent(N)
        exact = Fraction(alpha) ** (N - 1) / math.factorial(N - 1)
        assert universal_lower_bound(alpha, N) == pytest.approx(float(exact), rel=1e-15)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            universal_lower_bound(0.0, 2)
        with pytest.raises(InvalidParameterError):
            universal_lower_bound(100.0, 2)


class TestGFunction:
    def test_value_at_one(self):
        for alpha, a, b, N in [(1.0, 2.0, 2.0, 2), (3.0, 1.5, 8.0, 2), (5.0, 1.2, 4.0, 3)]:
            assert g_function(1.0, alpha, a, b, N, 0.17) == pytest.approx(1.0, rel=1e-14)

    def test_value_at_zero(self):
        assert g_function(0.0, 2.0, 2.0, 4.0, 2, 0.17) == 0.0

    def test_derivative_formula_against_fd(self, gn_report_n2):
        bgn = gn_report_n2.bgn_estimate
        alpha, b, N = 4.0, 8.0, 2
        rep = g_function_test(alpha, 2.0, b, N, bgn)
        analytic = rep.values["gprime_at_1_for_a_conjugate"]
        # second-order one-sided difference at t = 1 (g is only defined on [0,1])
        h = 1e-5
        g1 = 1.0
        gm1 = float(g_function(1.0 - h, alpha, 2.0, b, N, bgn))
        gm2 = float(g_function(1.0 - 2 * h, alpha, 2.0, b, N, bgn))
        fd = (3 * g1 - 4 * gm1 + gm2) / (2 * h)
        assert analytic == pytest.approx(fd, abs=1e-7)
        assert analytic == pytest.approx(N / b - alpha * bgn / N, rel=1e-14)

    def test_negative_slope_iff_condition(self, gn_report_n2):
        bgn = gn_report_n2.bgn_estimate
        alpha, N = 4.0, 2
        threshold = N ** 2 / (alpha * bgn)
        above = g_function_test(alpha, 2.0, threshold * 1.1, N, bgn)
        below = g_function_test(alpha, 2.0, threshold * 0.9, N, bgn)
        assert above.values["gprime_at_1_for_a_conjugate"] < 0
        assert below.values["gprime_at_1_for_a_conjugate"] > 0

    def test_certifies_when_condition_holds(self, gn_report_n2):
        bgn = gn_report_n2.bgn_estimate
        rep = g_function_test(4.0, 2.0, 8.0, 2, bgn)
        assert rep.verdict == VERDICT_CERTIFIED
        assert rep.values["max_g"] > 1.0
        assert 0.0 < rep.values["argmax_t"] < 1.0

    def test_invalid_bgn(self):
        with pytest.raises(InvalidParameterError):
            g_function_test(1.0, 2.0, 2.0, 2, -1.0)

    def test_no_verdict_of_attainment_where_the_supremum_is_infinite(self, gn_report_n2):
        # at alpha_N with b > N the supremum is infinite, so max g > 1 certifies nothing; at b = N it is finite
        bgn, a_N = gn_report_n2.bgn_estimate, critical_exponent(2)
        rep = g_function_test(a_N, 2.0, 8.0, 2, bgn)
        assert rep.verdict == VERDICT_INFINITE_SUP and rep.values["max_g"] > 1.0
        assert g_function_test(a_N, 2.0, 2.0, 2, bgn).verdict != VERDICT_INFINITE_SUP


#: A problem of the exact g-test: N, a and b log-uniform over [0.1, 10] N' and N, alpha in [1e-3 alpha_N, alpha_N), bgn.
G_PROBLEMS = dict(
    N=st.integers(2, 6),
    a_frac=st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
    b_frac=st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
    alpha_frac=st.floats(1e-3, 1.0, exclude_max=True),
    bgn=st.floats(0.05, 1.0),
)


class TestGTestIsExact:
    """max g from the sign of g', against a 10,001-point scan of g and the closed forms at a >= N'."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(**G_PROBLEMS)
    def test_max_is_at_least_the_scan_and_is_g_at_its_argmax(self, N, a_frac, b_frac, alpha_frac, bgn):
        alpha, a, b = alpha_frac * critical_exponent(N), a_frac * N / (N - 1.0), b_frac * N
        values = g_function_test(alpha, a, b, N, bgn).values
        max_g, t = values["max_g"], values["argmax_t"]
        scan = float(np.max(g_function(np.linspace(0.0, 1.0, 10_001), alpha, a, b, N, bgn)))
        assert max_g >= scan - 4 * math.ulp(scan)
        if t < 1.0:
            assert float(g_function(t, alpha, a, b, N, bgn)) == pytest.approx(max_g, abs=4 * math.ulp(max_g))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(**dict(G_PROBLEMS, a_frac=st.floats(math.log(1.1), math.log(10.0)).map(math.exp)))
    def test_every_alpha_certifies_above_the_conjugate_exponent(self, N, a_frac, b_frac, alpha_frac, bgn):
        # k = N'/a < 1: g - 1 ~ c s^k - (N/b) s is positive for small s at every alpha > 0 (max_g may round to 1)
        p = MTParams(N=N, alpha=alpha_frac * critical_exponent(N), a=a_frac * N / (N - 1.0), b=b_frac * N)
        rep = g_function_test(p.alpha, p.a, p.b, N, bgn)
        assert rep.verdict == (VERDICT_CERTIFIED if p.finite_supremum else VERDICT_INFINITE_SUP)
        assert rep.values["max_g"] >= 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(N=G_PROBLEMS["N"], b_frac=G_PROBLEMS["b_frac"], bgn=G_PROBLEMS["bgn"])
    def test_threshold_at_the_conjugate_exponent(self, N, b_frac, bgn):
        # a = N': g'(1) = N/b - alpha bgn / N < 0, so max g > 1, exactly above alpha = N^2/(b bgn)
        a, b = N / (N - 1.0), b_frac * N
        threshold = N**2 / (b * bgn)
        assume(1.000001 * threshold < critical_exponent(N))
        assert g_function_test(1.000001 * threshold, a, b, N, bgn).verdict == VERDICT_CERTIFIED
        assert g_function_test(0.999999 * threshold, a, b, N, bgn).verdict == VERDICT_NONE

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        N=G_PROBLEMS["N"],
        excess=st.floats(1e-15, 1e-7),
        b_frac=G_PROBLEMS["b_frac"],
        alpha_frac=st.floats(1e-3, 1e-2),
        bgn=G_PROBLEMS["bgn"],
    )
    def test_a_root_that_underflows_gives_no_verdict(self, N, excess, b_frac, alpha_frac, bgn):
        # k just below 1: the maximum sits at s ~ (c k / beta)^(1/(1-k)), below the smallest double, and
        # g - 1 there is below its rounding bound, so the test cannot certify it
        a = N / (N - 1.0) * (1.0 + excess)
        rep = g_function_test(alpha_frac * critical_exponent(N), a, b_frac * N, N, bgn)
        assert rep.verdict == VERDICT_NONE and rep.values["max_g"] == 1.0


class TestCTildeSeries:
    def test_term_ratio_tends_to_half(self):
        # independent oracle: raw terms of the series.  The ratio approaches
        # 1/2 like 1 + 1/(2(j+N)), so the deviation at j is ~1/(4j).
        N = 2
        log_2e = math.log(2.0) + 1.0
        terms = [
            math.exp((j + N) * math.log(j + N) - gammaln(j + N) - j * log_2e)
            for j in range(300)
        ]
        dev60 = abs(terms[61] / terms[60] - 0.5)
        dev250 = abs(terms[251] / terms[250] - 0.5)
        assert dev60 == pytest.approx(1.0 / (4 * 62), rel=0.05)
        assert dev250 <= 1e-3
        assert dev250 < dev60

    def test_prefactor_scaling(self):
        base = c_tilde_series(3, 1.0)
        assert c_tilde_series(3, 2.0) == pytest.approx(2 ** 3 * base, rel=1e-13)

    def test_truncation_stability(self):
        # the sum's own stop rule against an exactly rounded sum of 400 raw terms
        log_2e = math.log(2.0) + 1.0
        for N in (2, 3, 5, 20):
            reference = math.fsum(
                math.exp((j + N) * math.log(j + N) - gammaln(j + N) - j * log_2e) for j in range(400)
            )
            assert c_tilde_series(N, 1.0) == pytest.approx(reference, rel=1e-13)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            c_tilde_series(1, 1.0)
        with pytest.raises(InvalidParameterError):
            c_tilde_series(2, 0.0)


class TestAlpha0:
    def test_monotone_in_b(self):
        vals = [alpha0_nonexistence(1.0, b, 2, 1.0).values["alpha0"] for b in (1.0, 2.0, 8.0)]
        assert np.all(np.diff(vals) <= 0)

    def test_a_equals_b_uses_unit_ratio(self):
        rep = alpha0_nonexistence(1.5, 1.5, 2, 1.0)
        c_tilde = rep.values["c_tilde"]
        assert rep.values["series_bound"] == pytest.approx(1.0 / c_tilde, rel=1e-13)

    def test_n2_formula(self):
        C = 3.0
        rep = alpha0_nonexistence(2.0, 2.0, 2, C)
        expected = min(
            1.0 / c_tilde_series(2, C),
            1.0 / (2 * math.e * C),
            critical_exponent(2),
        )
        assert rep.values["alpha0"] == pytest.approx(expected, rel=1e-13)

    def test_requires_a_at_most_conjugate(self):
        with pytest.raises(InvalidParameterError):
            alpha0_nonexistence(2.5, 2.0, 2, 1.0)  # N' = 2 for N = 2

    def test_dimension_is_checked_first(self):
        # N' = N/(N-1) divided by zero at N = 1
        with pytest.raises(InvalidParameterError, match="dimension"):
            alpha0_nonexistence(1.0, 1.0, 1, 1.0)
        with pytest.raises(InvalidParameterError, match="dimension"):
            g_function_test(1.0, 1.0, 1.0, 1, 0.1)

    def test_series_bound_against_exact_arithmetic(self):
        import mpmath

        for N in (2, 3, 7, 20):
            for a, b, C in [(N / (N - 1), N, 5.85), (0.5, 3 * N, 1.0), (1.0, 0.5, 0.3)]:
                with mpmath.workdps(40):
                    S = mpmath.nsum(
                        lambda j: (j + N) ** (j + N) / mpmath.factorial(j + N - 1) / (2 * mpmath.e) ** j, [0, mpmath.inf]
                    )
                    exact = min(mpmath.mpf(a) / b, 1) / (mpmath.mpf(C) ** N * S * mpmath.factorial(N - 2))
                got = alpha0_nonexistence(a, b, N, C).values["series_bound"]
                assert got == pytest.approx(float(exact), rel=5e-15)

    def test_bounds_past_the_double_range(self):
        # (N C)^N overflows while C~ stays a double: the series bound underflows to a vacuous 0 instead
        rep = alpha0_nonexistence(1.0, 1.0, N_MAX, 1.5e4).values
        assert rep["series_bound"] == rep["alpha0"] == 0.0 and math.isfinite(rep["c_tilde"])
        # C~ underflows to 0 at C = 1e-300: the series bound is capped at alpha_N, where it stops binding
        rep = alpha0_nonexistence(1.0, 1.0, 2, 1e-300).values
        assert rep["c_tilde"] == 0.0 and rep["series_bound"] == rep["alpha0"] == critical_exponent(2)
        with pytest.raises(SeriesOverflowError, match="C~"):  # C~ itself leaves the doubles
            alpha0_nonexistence(1.0, 1.0, 2, 1e300)
        with pytest.raises(InvalidParameterError, match=f"at most {N_MAX}"):  # N = 173 and 800 were cases here
            alpha0_nonexistence(1.0, 1.0, N_MAX + 1, 1.0)


class TestBgnCondition:
    def test_threshold_drops_with_b(self, gn_report_n2):
        # alpha needed for certification falls like 1/b: check via the g-test
        bgn = gn_report_n2.bgn_estimate
        for b in (4.0, 8.0, 16.0):
            alpha_hat = 2 ** 2 / (b * bgn) * 1.05
            rep = g_function_test(alpha_hat, 2.0, b, 2, bgn)
            assert rep.verdict == VERDICT_CERTIFIED


class TestBracketAlphaStar:
    def test_supercritical_a_brackets_low(self, no_g_test):
        report = bracket_alpha_star(
            3.0, 2.0, 2, light_bracket_opts(alpha_min=0.3, alpha_max=2.0, count=7)
        )
        assert report.alpha_high <= 1.0
        assert report.alpha_low < report.alpha_high

    def test_conjugate_a_large_b(self, gn_report_n2):
        opts = light_bracket_opts(count=8)
        report = bracket_alpha_star(2.0, 8.0, 2, opts)
        assert report.alpha_high < critical_exponent(2)
        # consistency with the closed-form non-attainment bound
        alpha0 = alpha0_nonexistence(2.0, 8.0, 2, 1.0 / gn_report_n2.bgn_estimate).values["alpha0"]
        assert report.alpha_low >= alpha0

    def test_certified_cells_run_no_maximize_d(self, monkeypatch, gn_report_n2):
        def refuse(*args, **kwargs):
            raise AssertionError("maximize_d ran at a cell the g-test certified")

        monkeypatch.setattr(mtlab.bounds, "maximize_d", refuse)
        report = bracket_alpha_star(2.0, 8.0, 2, light_bracket_opts(alpha_min=4.0, alpha_max=6.0, count=2))
        assert report.certified == (True, True)
        assert report.bgn_estimate == gn_report_n2.bgn_estimate

    @pytest.mark.parametrize("a, alpha_min", [(2.0, 6.0), (0.5, 12.0)])
    def test_infinite_supremum_cell_runs_nothing_and_is_not_certified(self, monkeypatch, a, alpha_min):
        # at alpha_N with b > N nothing is attained: neither the g-test nor maximize_d runs there
        a_N = critical_exponent(2)
        alphas = []
        g_test, maximize = mtlab.bounds.g_function_test, mtlab.bounds.maximize_d

        def spy_g_test(alpha, *args):
            alphas.append(alpha)
            return g_test(alpha, *args)

        def spy_maximize(p, *args, **kwargs):
            alphas.append(p.alpha)
            return maximize(p, *args, **kwargs)

        monkeypatch.setattr(mtlab.bounds, "g_function_test", spy_g_test)
        monkeypatch.setattr(mtlab.bounds, "maximize_d", spy_maximize)
        report = bracket_alpha_star(a, 8.0, 2, light_bracket_opts(alpha_min=alpha_min, alpha_max=a_N, count=2))
        assert report.certified == (True, False) and report.alpha_high == alpha_min
        assert alphas and a_N not in alphas

    def test_monotone_in_parameters(self, no_g_test):
        highs = {}
        for a, b in [(2.5, 2.0), (3.5, 3.0)]:
            rep = bracket_alpha_star(
                a, b, 2, light_bracket_opts(alpha_min=0.3, alpha_max=3.0, count=7)
            )
            highs[(a, b)] = rep.alpha_high
        grid_step = (3.0 - 0.3) / 6
        assert highs[(3.5, 3.0)] <= highs[(2.5, 2.0)] + grid_step + 1e-12

    @pytest.mark.parametrize("kw", [{"count": 1}, {"bisect_iters": -1}], ids=["count", "bisect_iters"])
    def test_options_rejected_when_built(self, kw):
        with pytest.raises(InvalidParameterError):
            BracketOptions(**kw)

    def test_not_found(self, no_g_test):
        with pytest.raises(BracketNotFoundError) as err:
            bracket_alpha_star(
                2.0, 2.0, 2, light_bracket_opts(alpha_min=0.01, alpha_max=0.05, count=3)
            )
        assert err.value.grid is not None

    def test_bisection_refines(self, no_g_test):
        coarse = light_bracket_opts(alpha_min=0.3, alpha_max=3.0, count=5)
        refined = light_bracket_opts(alpha_min=0.3, alpha_max=3.0, count=5, bisect_iters=3)
        r1 = bracket_alpha_star(3.0, 2.0, 2, coarse)
        r2 = bracket_alpha_star(3.0, 2.0, 2, refined)
        assert (r2.alpha_high - r2.alpha_low) <= (r1.alpha_high - r1.alpha_low)


class TestLowerBoundChain:
    def test_g_value_matches_truncated_functional_at_family(self, gn_report_n2):
        # lower_bound * g(t) equals the two-term functional at the realized
        # family profile when g is built from that profile's own ratio, and
        # the truncation sits below the full objective
        V = gn_report_n2.maximizer_profile
        ratio_v = mtlab.gn_ratio(V)
        for alpha, a, b in [(3.0, 2.0, 8.0), (2.0, 1.5, 6.0)]:
            p = MTParams(N=2, alpha=alpha, a=a, b=b)
            lb = universal_lower_bound(alpha, 2)
            for t in (0.3, 0.7, 0.95):
                W = mtlab.on_constraint(V, t, p)
                g_val = float(g_function(t, alpha, a, b, 2, ratio_v))
                j_val = mtlab.j_truncated(W, p)
                assert lb * g_val == pytest.approx(j_val, rel=1e-12)
                assert j_val <= mtlab.mt_integral(W, p) + 1e-12


class TestCertificationAgreement:
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_routes_agree_at_margin(self, monkeypatch, no_g_test, factor):
        # Shift the lower bound so the seeded maximizer's margin sits just
        # below or just above CERTIFY_MARGIN; every certification route
        # must then give the same answer.  Four restarts use no random
        # starts, so the per-cell seeds of the sweep do not matter.
        N, alpha, a, b = 2, 2.0, 3.0, 2.0
        opts = MaximizeOptions(restarts=4, n_nodes=256, seed=3)
        base = mtlab.maximize_d(MTParams(N=N, alpha=alpha, a=a, b=b), opts)
        shift = base.margin - factor * CERTIFY_MARGIN
        real = mtlab.functional.universal_lower_bound
        shifted = lambda al, n: real(al, n) + shift  # noqa: E731
        monkeypatch.setattr(mtlab.maximize, "universal_lower_bound", shifted)
        expected = factor > 1.0

        report = mtlab.maximize_d(MTParams(N=N, alpha=alpha, a=a, b=b), opts)
        assert report.best_value == base.best_value
        assert report.exceeds_lower_bound is expected

        plan = mtlab.SweepPlan(
            N=N, axes=(mtlab.AxisSpec("b", b, 2 * b, 2),), fixed={"alpha": alpha, "a": a}, options=opts
        )
        row = mtlab.run_sweep(plan).rows[0]
        assert row.best_value == base.best_value
        assert (row.verdict == VERDICT_CERTIFIED) is expected

        bracket = bracket_alpha_star(
            a, b, N, BracketOptions(alpha_min=alpha, alpha_max=3.0, count=2, maximize_opts=opts)
        )
        assert bracket.certified[0] is expected


class TestBoundReportSerialization:
    def test_keys(self):
        rep = g_function_test(4.0, 2.0, 8.0, 2, 0.17)
        payload = rep.to_json_dict()
        assert set(payload) == {"kind", "values", "verdict", "provenance"}
        assert payload["provenance"]
