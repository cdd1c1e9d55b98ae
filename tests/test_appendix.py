import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import mtlab
from mtlab import DegenerateProfileError, InvalidParameterError, RadialProfile, build_grid, sample_profile
from mtlab.appendix import (
    beta_exact,
    c_n_pow_exact,
    c_n_value,
    claim_ledger,
    e_upper_rational,
    exp5_claims,
    gamma_exact,
    gn_ratio_radial,
    n2_cubic_exact,
)


#: SHA-256 of claim_ledger(1000).to_csv() as computed with mpmath at 50 digits.
LEDGER_1000_SHA256 = "12e110c7a6c1a2b1ebc30b513ad611896aef54c06740459dfdb6988952280ed9"


def cubic(r):
    return np.maximum(0.0, 1.0 - r) ** 3


class TestExactArithmetic:
    def test_gamma_and_beta(self):
        assert gamma_exact(7) == Fraction(720)
        assert beta_exact(2, 7) == Fraction(1, 56)
        assert beta_exact(2, 5) == Fraction(1, 30)
        assert beta_exact(2, 13) == Fraction(1, 182)

    def test_n2_cubic_is_39_over_40(self):
        q = n2_cubic_exact()
        assert q == Fraction(39, 40)
        assert q.denominator > 0
        # the integer chain the gamma ratios reduce to
        assert Fraction(9, 8 * 7 * 6 * 5) * 14 * 13 == Fraction(39, 40)

    def test_c3_squared(self):
        value, exact = c_n_value(3)
        assert exact == Fraction(27, 32)
        assert value == pytest.approx(math.sqrt(27 / 32), rel=1e-14)

    def test_c4_cubed(self):
        _, exact = c_n_value(4)
        assert exact == Fraction(393216, 531441)
        assert exact == Fraction(math.factorial(3) * 4 ** 8, 3 ** 12)

    def test_cn_requires_n_at_least_3(self):
        with pytest.raises(InvalidParameterError):
            c_n_value(2)

    def test_log_decomposition_matches_exact(self):
        ledger = claim_ledger(12)
        assert ledger.decomposition_max_error < 1e-12
        with mpmath.workdps(50):
            for row in ledger.rows:
                exact = c_n_pow_exact(row.N)
                direct = float(
                    mpmath.log(mpmath.mpf(exact.numerator)) - mpmath.log(mpmath.mpf(exact.denominator))
                )
                assert row.log_cn_pow == pytest.approx(direct, abs=1e-12)


class TestClaims:
    def test_e3_value(self):
        ledger = claim_ledger(5)
        e3 = ledger.rows[0].e_N
        assert e3 == pytest.approx(-3 + 6 * math.log(1.5), rel=1e-12)
        assert e3 < -0.5

    def test_d3_d4_decreasing(self):
        ledger = claim_ledger(5)
        d3, d4 = ledger.rows[0].d_N, ledger.rows[1].d_N
        assert d3 == pytest.approx(math.log(2) - 3 * (math.log(3) - 1), rel=1e-12)
        assert d4 == pytest.approx(math.log(6) - 4 * (math.log(4) - 1), rel=1e-12)
        assert d4 < d3 < 0.5

    def test_exp5_chain(self):
        info = exp5_claims()
        assert info["crude_pow"] == Fraction(537824, 3125)
        assert float(info["crude_pow"]) == 172.10368
        assert info["crude_lt_bound"]  # (2.8)^5 < 729/4 in exact rationals
        assert info["e_upper_fifth_lt_bound"]  # rational e upper bound route
        assert info["e5"] == pytest.approx(148.4131591025766, rel=1e-12)
        assert info["e5"] < 182.25

    def test_e_upper_bound_is_valid(self):
        e_up = e_upper_rational()
        # math.e is the nearest double below e, so the exact comparison is safe
        assert e_up > Fraction(math.e)
        assert float(e_up - Fraction(math.e)) < 1e-15
        assert e_up ** 5 < Fraction(729, 4)

    def test_full_ledger(self):
        ledger = claim_ledger(1000)
        assert len(ledger.rows) == 998
        assert ledger.all_claims_hold
        for row in ledger.rows:
            assert row.claim1 and row.claim2 and row.claim3_chain
            assert row.log_cn_pow < 0.0
            assert row.log_cn_pow == pytest.approx(row.d_N + row.e_N, abs=1e-12)

    def test_ledger_csv_bytes_are_pinned(self):
        # the 50-digit logs round to the same doubles whichever arbitrary-precision library forms them
        csv_text = claim_ledger(1000).to_csv()
        assert hashlib.sha256(csv_text.encode()).hexdigest() == LEDGER_1000_SHA256

    def test_ledger_csv_format(self):
        ledger = claim_ledger(6)
        lines = ledger.to_csv().splitlines()
        assert lines[0] == "N,d_N,e_N,log_CN_pow,claim1,claim2,claim3_chain"
        assert len(lines) == 1 + len(ledger.rows)
        first = lines[1].split(",")
        assert first[0] == "3"
        assert first[4] == "true" and first[5] == "true" and first[6] == "true"


class TestGnRatioRadial:
    def test_cubic_matches_exact(self):
        g = build_grid(2, 1.0, 512)
        u = sample_profile(g, cubic)
        assert gn_ratio_radial(u, 2) == pytest.approx(39 / 40, abs=1e-6)

    def test_cubic_fine_grid_cross_check(self):
        g = build_grid(2, 1.0, 32768)
        u = sample_profile(g, cubic)
        assert gn_ratio_radial(u, 2) == pytest.approx(float(n2_cubic_exact()), abs=1e-9)

    def test_exponential_matches_c3(self):
        g = build_grid(3, 25.0, 8192, scheme="graded", grading=1.0015)
        u = sample_profile(g, lambda r: np.exp(-r))
        assert gn_ratio_radial(u, 3) == pytest.approx(math.sqrt(27 / 32), abs=1e-6)

    def test_scale_invariance(self):
        g = build_grid(2, 1.0, 512)
        u = sample_profile(g, cubic)
        w = mtlab.dilate(u, 8.0)
        assert gn_ratio_radial(w, 2) == pytest.approx(gn_ratio_radial(u, 2), rel=1e-9)

    def test_degenerate(self):
        g = build_grid(2, 1.0, 64)
        u = RadialProfile(g, np.zeros(g.n_nodes))
        with pytest.raises(DegenerateProfileError):
            gn_ratio_radial(u, 2)


class TestBridgeToGn:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_margin_identity(self, N, gn_report_n2, gn_report_n3, gn_report_n4):
        # N - N^2/(alpha_N gn_ratio(V)) = N (1 - Q) when both ratios come from
        # the same profile: pure exponent bookkeeping
        rep = {2: gn_report_n2, 3: gn_report_n3, 4: gn_report_n4}[N]
        V = rep.maximizer_profile
        q = gn_ratio_radial(V, N)
        lhs = N - N ** 2 / (mtlab.critical_exponent(N) * mtlab.gn_ratio(V))
        rhs = N * (1 - q)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs > 0
        assert N - N ** 2 / (mtlab.critical_exponent(N) * rep.bgn_estimate) > 0
