import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtlab
from mtlab import (
    InvalidParameterError,
    MTParams,
    RadialProfile,
    SeriesOverflowError,
    build_grid,
    constraint_value,
    critical_exponent,
    grad_norm_pow,
    j_truncated,
    lp_norm_pow,
    mt_integral,
    mt_integral_series,
    phi,
    sample_profile,
)
from mtlab.functional import EXP_ARG_LIMIT, _horner, _phi_tail, _tail_kernel, _tail_ratio
from mtlab.maximize import GN_R_MAX
from mtlab.radial import N_MAX, max_radius
from mtlab.scaling import rescale_to_norms
from conftest import random_monotone_profile


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MTParams(N=1, alpha=1.0, a=1.0, b=1.0)
        with pytest.raises(InvalidParameterError):
            MTParams(N=2, alpha=0.0, a=1.0, b=1.0)
        with pytest.raises(InvalidParameterError):
            MTParams(N=2, alpha=20.0, a=1.0, b=1.0)
        with pytest.raises(InvalidParameterError):
            MTParams(N=2, alpha=1.0, a=-1.0, b=1.0)
        with pytest.raises(InvalidParameterError, match=f"at most {N_MAX}"):
            MTParams(N=N_MAX + 1, alpha=1.0, a=1.0, b=1.0)

    def test_derived_quantities(self):
        p = MTParams(N=3, alpha=1.0, a=2.0, b=2.0)
        assert p.n_prime == pytest.approx(1.5)
        assert p.alpha_critical == pytest.approx(critical_exponent(3))

    def test_finite_supremum_flag(self):
        a2 = critical_exponent(2)
        assert MTParams(N=2, alpha=1.0, a=1.0, b=5.0).finite_supremum
        assert MTParams(N=2, alpha=a2, a=1.0, b=1.5).finite_supremum
        assert not MTParams(N=2, alpha=a2, a=1.0, b=3.0).finite_supremum


class TestPhiPsi:
    def test_phi_values(self):
        assert phi(0.0, 2) == 0.0
        assert phi(1.0, 2) == pytest.approx(math.e - 1, rel=1e-14)
        assert phi(2.0, 3) == pytest.approx(math.e ** 2 - 3, rel=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 60.0), st.integers(2, 7))
    def test_defining_identity(self, s, N):
        # Phi_N drops the terms below s^{N-1}/(N-1)!, so Phi_N = Phi_{N+1} + s^{N-1}/(N-1)!
        lhs = phi(s, N + 1) + s ** (N - 1) / math.factorial(N - 1)
        assert lhs == pytest.approx(phi(s, N), rel=1e-12, abs=1e-300)

    def test_phi_strictly_increasing(self):
        ts = np.linspace(0.0, 30.0, 200)
        for N in (2, 4):
            vals = phi(ts, N)
            assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8, 9, 20, 21, 40, 41, N_MAX])
    def test_against_high_precision_reference(self, N):
        # Phi_N(t) = e^t P(N-1, t), referenced at 40 digits, on both sides of the tail's series/subtraction switch
        # point; N = 9, 21 and 41 are the tail orders 8, 20 and 40
        ts = np.concatenate([[1e-50, 1e-12, 5e-11], np.geomspace(1e-10, 630.0, 64), [700.0]])
        k = N - 1
        assert phi(0.0, N) == 0.0
        seam = []
        if k >= 2:
            s_k = _tail_kernel(k)[0]
            seam = [np.nextafter(s_k, 0.0), s_k, np.nextafter(s_k, np.inf)]
        args = np.concatenate([ts, seam])
        with mpmath.workdps(40):
            for t, value in zip(args, phi(args, N)):
                ref = mpmath.exp(t) * mpmath.gammainc(k, 0, t, regularized=True)
                if abs(float(ref)) < sys.float_info.min:  # below the normal doubles (t = 1e-50, k >= 7)
                    assert value == float(ref), t
                else:
                    assert abs(mpmath.mpf(float(value)) / ref - 1) <= 5e-14, t

    def test_overflow(self):
        with pytest.raises(SeriesOverflowError):
            phi(800.0, 2)
        with pytest.raises(InvalidParameterError, match=f"at most {N_MAX}"):
            phi(1.0, N_MAX + 1)

    def test_the_dimension_limit_keeps_every_kernel_in_the_doubles(self):
        # the preconditions under which Phi_N needs no scaled kernel and the GN grid no clip;
        # raising N_MAX past them fails here first
        assert EXP_ARG_LIMIT**N_MAX <= 2.0**1000  # t^k stays finite for every k <= N_MAX, t <= EXP_ARG_LIMIT
        _, series, _ = _tail_kernel(N_MAX)  # order N_MAX, one above the largest any call uses (Phi_N's, N_MAX - 1)
        assert N_MAX + len(series) - 1 <= 170  # the top Horner index: 1/j! is a double
        assert max_radius(N_MAX) >= GN_R_MAX

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 19])
    def test_tail_ratio_stays_finite_at_zero(self, k):
        # Phi_k(t) / t^k, 1/k! at t = 0 and where t^k underflows; the quotient itself wherever it forms
        tiny = np.array([0.0, 5e-324, 1e-300, 1e-30])
        assert _tail_ratio(tiny, k).tolist() == [1.0 / math.factorial(k)] * 4
        ts = np.geomspace(1e-3, 700.0, 50)
        assert _tail_ratio(ts, k) == pytest.approx(_phi_tail(ts, k) / ts**k, rel=1e-14)
        assert np.all(np.diff(_tail_ratio(ts, k)) > 0)

    @pytest.mark.parametrize("k", [2, 3, 5, 19, N_MAX - 1])
    def test_horner_matches_the_filled_start_to_the_bit(self, k):
        # the reference starts from an array filled with the lead coefficient: one array op more per tail
        ts = np.concatenate([[0.0, 5e-324], np.geomspace(1e-12, 700.0, 200)])
        for coeffs in _tail_kernel(k)[1:]:
            acc = np.full_like(ts, coeffs[0])
            for c in coeffs[1:]:
                acc *= ts
                acc += c
            assert _horner(ts, coeffs).tobytes() == acc.tobytes()

    def test_vectorized(self):
        out = phi(np.array([0.0, 1.0, 2.0]), 2)
        assert out.shape == (3,)
        assert out[0] == 0.0


class TestMtIntegral:
    def test_zero_profile(self):
        g = build_grid(2, 5.0, 64)
        u = RadialProfile(g, np.zeros(g.n_nodes))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        assert mt_integral(u, p) == 0.0
        assert mt_integral_series(u, p) == 0.0

    def test_dual_paths_agree_exponential(self):
        g = build_grid(2, 40.0, 1024)
        u = sample_profile(g, lambda r: np.exp(-r))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        q = mt_integral(u, p)
        s = mt_integral_series(u, p)
        assert abs(q - s) <= 1e-9 * (1 + q)

    def test_dual_paths_agree_random_profiles(self):
        rng = np.random.default_rng(3)
        for N in (2, 3):
            g = build_grid(N, 20.0, 256)
            alpha = 0.9 * critical_exponent(N)
            p = MTParams(N=N, alpha=alpha, a=2.0, b=2.0)
            for _ in range(10):
                u = mtlab.project_to_constraint(random_monotone_profile(g, rng), p)
                q = mt_integral(u, p)
                s = mt_integral_series(u, p)
                assert abs(q - s) <= 1e-9 * (1 + q)

    def test_monotone_in_alpha(self):
        g = build_grid(2, 20.0, 256)
        u = sample_profile(g, lambda r: np.exp(-(r ** 2)))
        vals = [mt_integral(u, MTParams(N=2, alpha=al, a=2, b=2)) for al in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(vals) > 0)

    def test_overflow_propagates(self):
        g = build_grid(2, 5.0, 64)
        u = RadialProfile(g, np.full(g.n_nodes, 30.0))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        with pytest.raises(SeriesOverflowError):
            mt_integral(u, p)


class TestConstraint:
    def test_zero(self):
        g = build_grid(2, 5.0, 64)
        u = RadialProfile(g, np.zeros(g.n_nodes))
        assert constraint_value(u, MTParams(N=2, alpha=1, a=2, b=2)) == 0.0

    def test_sum_of_halves(self):
        g = build_grid(2, 14.0, 512)
        u = sample_profile(g, lambda r: np.exp(-(r ** 2) / 2))
        v = rescale_to_norms(u, math.sqrt(0.5), math.sqrt(0.5))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        assert constraint_value(v, p) == pytest.approx(1.0, abs=1e-13)

    def test_strictly_increasing_in_amplitude(self):
        g = build_grid(2, 10.0, 128)
        u = sample_profile(g, lambda r: np.exp(-r))
        p = MTParams(N=2, alpha=1.0, a=1.5, b=3.0)
        assert constraint_value(RadialProfile(u.grid, u.values * 1.5), p) > constraint_value(u, p)


class TestJTruncated:
    def test_zero(self):
        g = build_grid(2, 5.0, 64)
        u = RadialProfile(g, np.zeros(g.n_nodes))
        assert j_truncated(u, MTParams(N=2, alpha=1, a=2, b=2)) == 0.0

    def test_exponential_closed_moments(self):
        # ||e^{-r}||_2^2 = 2 pi / 4, ||e^{-r}||_4^4 = 2 pi / 16 (2D)
        g = build_grid(2, 40.0, 4096)
        u = sample_profile(g, lambda r: np.exp(-r))
        p = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
        assert lp_norm_pow(u, 2) == pytest.approx(math.pi / 2, rel=1e-10)
        assert lp_norm_pow(u, 4) == pytest.approx(math.pi / 8, rel=1e-10)
        assert j_truncated(u, p) == pytest.approx(math.pi / 2 + math.pi / 16, rel=1e-10)

    def test_below_mt_integral_on_random_profiles(self):
        rng = np.random.default_rng(12)
        g = build_grid(2, 15.0, 128)
        p = MTParams(N=2, alpha=2.0, a=2.0, b=2.0)
        for _ in range(100):
            u = mtlab.project_to_constraint(random_monotone_profile(g, rng), p)
            assert j_truncated(u, p) <= mt_integral(u, p) + 1e-12


class TestNormalizedMapMonotonicity:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_pointwise_strict(self, N):
        a_N = critical_exponent(N)
        n_prime = N / (N - 1)
        betas = [0.3 * a_N, 0.6 * a_N, a_N]
        ss = np.linspace(0.05, 4.0, 40)
        prev = None
        for beta in betas:
            vals = math.factorial(N - 1) / beta ** (N - 1) * phi(beta * ss ** n_prime, N)
            if prev is not None:
                assert np.all(vals > prev)
            prev = vals


class TestUniformBoundEnvelope:
    def test_envelope_finite_and_monotone_in_beta(self):
        rng = np.random.default_rng(21)
        g = build_grid(2, 15.0, 128)
        profiles = []
        for _ in range(200):
            u = random_monotone_profile(g, rng)
            gn = grad_norm_pow(u) ** 0.5
            profiles.append(RadialProfile(u.grid, u.values * (rng.uniform(0.1, 1.0) / gn)))
        a2 = critical_exponent(2)
        envelopes = []
        for beta in (0.3 * a2, 0.5 * a2, 0.7 * a2):
            p = MTParams(N=2, alpha=beta, a=2.0, b=2.0)
            ratios = [mt_integral(u, p) / lp_norm_pow(u, 2) for u in profiles]
            env = max(ratios)
            assert np.isfinite(env)
            envelopes.append(env)
        assert np.all(np.diff(envelopes) > 0)



def _cli_alpha_star(alpha):
    from mtlab.cli import main

    argv = ["alpha-star", "--N", "2", "--a", "2", "--b", "8", "--alpha-min", "12", "--alpha-max", repr(alpha), "--bisect", "0"]
    code = main(argv)
    if code == 2:
        raise InvalidParameterError("usage error")
    assert code == 0


#: Every place that checks alpha against alpha_N; the g-test certifies the
#: bracket's alpha_min = 12 at b = 8, so the bracket gates run no maximize_d.
ALPHA_GATES = {
    "MTParams": lambda alpha: MTParams(N=2, alpha=alpha, a=2.0, b=2.0),
    "universal_lower_bound": lambda alpha: mtlab.universal_lower_bound(alpha, 2),
    "SweepPlan-axis": lambda alpha: mtlab.SweepPlan(
        N=2, axes=(mtlab.AxisSpec("alpha", 1.0, alpha, 2),), fixed={"a": 2.0, "b": 8.0}
    ),
    "SweepPlan-fixed": lambda alpha: mtlab.SweepPlan(
        N=2, axes=(mtlab.AxisSpec("b", 2.0, 8.0, 2),), fixed={"alpha": alpha, "a": 2.0}
    ),
    "bracket_alpha_star": lambda alpha: mtlab.bracket_alpha_star(
        2.0, 8.0, 2, mtlab.BracketOptions(alpha_min=12.0, alpha_max=alpha, bisect_iters=0)
    ),
    "cli-alpha-star": _cli_alpha_star,
}


class TestAlphaRange:
    """Every alpha gate accepts alpha_N up to 1e-12 relative round-off and nothing beyond."""

    @pytest.mark.parametrize("gate", list(ALPHA_GATES))
    def test_gates_agree(self, gate, capsys):
        a_N = critical_exponent(2)
        ALPHA_GATES[gate](a_N * (1 + 5e-13))
        with pytest.raises(InvalidParameterError):
            ALPHA_GATES[gate](a_N * (1 + 2e-12))
