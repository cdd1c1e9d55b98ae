"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line so the suite doubles as a checklist:

    mt-acceptance 01 appendix-exactness ........ PASS

Criterion 6 checks that the optimizer finds the attained maximum in three
cells (N=2, a=3, b=2, alpha = 1, 2, 3), not merely some value above the
vanishing level.  Its reference is the two-term analysis of the supremum.
With s = ||u||_2^2 and g = ||grad u||_2 the constraint is g^3 + s = 1 and

    F(u) = alpha s + alpha^2/2 ||u||_4^4 + (k >= 3 terms).

The sharp Gagliardo-Nirenberg inequality ||u||_4^4 <= B g^2 s, with
B = 2/||Q||_2^2 = 0.1709270735 for the Townes profile Q (Weinstein 1983),
is an equality along dilations of Q, and the k >= 3 terms are
non-negative.  So the supremum margin over the lower bound alpha is at
least

    m2(alpha) = alpha * (max_{g in [0,1]} (1 - g^3)(1 + c g^2) - 1),

with c = alpha B / 2 and the maximizing g the root of 3g + 5c g^3 = 2c.
It exceeds m2 only by the k >= 3 tail, which is O(g^4): with g ~ 0.057 at
alpha = 1 it is ~8e-8 on the seeded maximizer.  m2 is 9.243e-5, 1.473e-3
and 7.382e-3 at alpha = 1, 2, 3, so the supremum margin at alpha = 1 is
~9.25e-5; a fixed demand of margin >= 1e-4 lies above the supremum there
and no feasible profile can meet it.  The criterion therefore asserts
margin >= (1 - 1e-3) m2(alpha) in every cell and margin < 1e-4 at
alpha = 1, where a larger value would overstate the supremum.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

import mtlab
from mtlab import (
    AxisSpec,
    MTParams,
    MaximizeOptions,
    SweepPlan,
    build_grid,
    critical_exponent,
    sample_profile,
)
from mtlab.appendix import claim_ledger, gn_ratio_radial, n2_cubic_exact, c_n_value
from mtlab.bounds import g_function, g_function_test
from mtlab.maximize import cached_gn_report
from mtlab.scaling import rescale_to_norms
from mtlab.sweeps import run_sweep, sweep_to_csv


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    pad = "." * max(1, 44 - len(name))
    print(f"mt-acceptance {number:02d} {name} {pad} {status}  {detail}")


@pytest.fixture(scope="module")
def gn_estimates():
    return {N: cached_gn_report(N) for N in (2, 3, 4)}


def test_criterion_01_appendix_exactness():
    t0 = time.monotonic()
    ledger = claim_ledger(1000)
    cubic_ok = n2_cubic_exact() == Fraction(39, 40)
    _, c3sq = c_n_value(3)
    c3_ok = c3sq == Fraction(27, 32)
    exp5 = ledger.exp5
    e5_ok = (
        exp5["e_upper_fifth_lt_bound"]
        and exp5["crude_lt_bound"]
        and exp5["crude_pow"] == Fraction(537824, 3125)
        and float(exp5["crude_pow"]) == 172.10368
    )
    claims_ok = all(r.claim1 and r.claim2 and r.claim3_chain for r in ledger.rows)
    rows_ok = len(ledger.rows) == 998 and all(r.log_cn_pow < 0 for r in ledger.rows)
    decomp_ok = ledger.decomposition_max_error < 1e-12
    elapsed = time.monotonic() - t0
    ok = cubic_ok and c3_ok and e5_ok and claims_ok and rows_ok and decomp_ok and elapsed < 5.0
    report(1, "appendix-exactness", ok, f"{elapsed:.2f}s, decomp err {ledger.decomposition_max_error:.1e}")
    assert cubic_ok and c3_ok and e5_ok and claims_ok and rows_ok and decomp_ok
    assert elapsed < 5.0


def test_criterion_02_quadrature_fidelity():
    t0 = time.monotonic()
    g2 = build_grid(2, 1.0, 512)
    u2 = sample_profile(g2, lambda r: np.maximum(0.0, 1.0 - r) ** 3)
    q2 = gn_ratio_radial(u2, 2)
    g3 = build_grid(3, 25.0, 8192, scheme="graded", grading=1.0015)
    u3 = sample_profile(g3, lambda r: np.exp(-r))
    q3 = gn_ratio_radial(u3, 3)
    elapsed = time.monotonic() - t0
    err2 = abs(q2 - 0.975)
    err3 = abs(q3 - math.sqrt(27.0 / 32.0))
    ok = err2 <= 1e-6 and err3 <= 1e-6 and elapsed < 1.0
    report(2, "quadrature-fidelity", ok, f"cubic err {err2:.2e}, exp err {err3:.2e}, {elapsed:.2f}s")
    assert err2 <= 1e-6
    assert err3 <= 1e-6
    assert elapsed < 1.0


def test_criterion_03_gn_bridge(gn_estimates):
    times = {}
    for N in (2, 3, 4):
        t0 = time.monotonic()
        mtlab.maximize_gn(N)
        times[N] = time.monotonic() - t0
    b2 = gn_estimates[2].bgn_estimate
    margin_ok = b2 > 1.0 / (2 * math.pi) + 1e-3
    cond_ok = all(
        N ** 2 / (critical_exponent(N) * gn_estimates[N].bgn_estimate) < N for N in (2, 3, 4)
    )
    time_ok = all(t < 60.0 for t in times.values())
    ok = margin_ok and cond_ok and time_ok
    report(3, "gn-bridge", ok, f"bgn(2)={b2:.6f}, times={{{', '.join(f'{N}: {t:.1f}s' for N, t in times.items())}}}")
    assert margin_ok and cond_ok and time_ok


def test_criterion_04_universal_lower_bound():
    t0 = time.monotonic()
    opts = MaximizeOptions(restarts=8, n_nodes=256, seed=5)
    worst = np.inf
    for N in (2, 3):
        a_N = critical_exponent(N)
        for frac in (0.05, 0.5, 0.9):
            alpha = frac * a_N * 0.99
            for a in (0.75, 2.0, 4.0):
                for b in (0.75, 2.0, 4.0):
                    p = MTParams(N=N, alpha=alpha, a=a, b=b)
                    rep = mtlab.maximize_d(p, opts)
                    worst = min(worst, rep.best_value - rep.lower_bound)
    elapsed = time.monotonic() - t0
    ok = worst >= -1e-6 and elapsed < 600.0
    report(4, "universal-lower-bound", ok, f"worst deficit {worst:+.2e}, {elapsed:.0f}s / 54 cells")
    assert worst >= -1e-6
    assert elapsed < 600.0


def test_criterion_05_normalized_monotonicity():
    plan = SweepPlan(
        N=2,
        axes=(AxisSpec("alpha", 0.5, 6.0, 12),),
        fixed={"a": 3.0, "b": 2.0},
        seed=1,
        options=MaximizeOptions(restarts=8, n_nodes=384, seed=1),
    )
    result = run_sweep(plan)
    normalized = [row.best_value / row.params["alpha"] for row in result.rows]
    slack = 2.0 * 1e-9  # relative allowance for restart noise between neighbouring cells
    ok = all(b >= a - slack * max(1.0, a) for a, b in zip(normalized, normalized[1:]))
    report(5, "normalized-monotonicity", ok, f"head {normalized[0]:.8f}, tail {normalized[-1]:.8f}")
    assert ok


# Sharp Gagliardo-Nirenberg constant of R^2: ||u||_4^4 <= B ||grad u||_2^2 ||u||_2^2,
# B = 2/||Q||_2^2 for the Townes profile Q (Weinstein, Comm. Math. Phys. 87 (1983)).
B_GN_SHARP_N2 = 0.1709270735
M2_RTOL = 1e-3


def two_term_margin(alpha):
    """m2(alpha): supremum margin of the two-term truncation at N=2, a=3, b=2."""
    c = alpha * B_GN_SHARP_N2 / 2
    g = brentq(lambda g: 3 * g + 5 * c * g ** 3 - 2 * c, 0.0, 1.0, xtol=1e-15)
    return alpha * ((1 - g ** 3) * (1 + c * g ** 2) - 1)


def test_criterion_06_attained_regime_margins():
    opts = MaximizeOptions(seed=7)
    cells = {}
    for alpha in (1.0, 2.0, 3.0):
        p = MTParams(N=2, alpha=alpha, a=3.0, b=2.0)
        rep = mtlab.maximize_d(p, opts)
        cells[alpha] = (rep.margin, two_term_margin(alpha), rep.exceeds_lower_bound)
    below_floor = cells[1.0][0] < 1e-4
    ok = below_floor and all(
        exceeds and margin >= (1 - M2_RTOL) * m2 for margin, m2, exceeds in cells.values()
    )
    certificates = {a: f"{m:.3e} = {m / m2:.5f} m2" for a, (m, m2, _) in cells.items()}
    report(6, "attained-regime-margins", ok, f"margins {certificates}")
    breakdown = "; ".join(
        f"alpha={a}: margin {m:.6e}, m2 {m2:.6e}, margin/m2 {m / m2:.5f}"
        for a, (m, m2, _) in cells.items()
    )
    for alpha, (margin, m2, exceeds) in cells.items():
        assert exceeds, f"alpha={alpha}: maximizer does not beat the lower bound ({breakdown})"
        assert margin >= (1 - M2_RTOL) * m2, (
            f"alpha={alpha}: margin below (1 - {M2_RTOL}) m2 with B = {B_GN_SHARP_N2} ({breakdown})"
        )
    assert below_floor, f"alpha=1.0: margin at or above 1e-4 overstates the supremum ({breakdown})"


def test_criterion_07_g_test_consistency(gn_estimates):
    bgn = gn_estimates[2].bgn_estimate
    alpha, N = 4.0, 2
    threshold = N ** 2 / (alpha * bgn)
    opts = MaximizeOptions(restarts=8, n_nodes=384, seed=2)
    ok = True
    details = []
    for b in (8.0, 12.0):
        assert b > threshold
        g_rep = g_function_test(alpha, 2.0, b, N, bgn)
        max_g_ok = g_rep.values["max_g"] > 1.0
        analytic = g_rep.values["gprime_at_1_for_a_conjugate"]
        h = 1e-5
        fd = (3 * 1.0 - 4 * float(g_function(1 - h, alpha, 2.0, b, N, bgn))
              + float(g_function(1 - 2 * h, alpha, 2.0, b, N, bgn))) / (2 * h)
        fd_ok = abs(analytic - fd) <= 1e-7
        rep = mtlab.maximize_d(MTParams(N=N, alpha=alpha, a=2.0, b=b), opts)
        max_ok = rep.margin > 1e-6
        ok = ok and max_g_ok and fd_ok and max_ok
        details.append(f"b={b}: g={g_rep.values['max_g']:.4f}, |dg|={abs(analytic - fd):.1e}, margin={rep.margin:.1e}")
    report(7, "g-test-consistency", ok, "; ".join(details))
    assert ok


def test_criterion_08_scaling_identities():
    # beta_star(1) = 1 on constraint-normalized profiles
    p = MTParams(N=2, alpha=1.0, a=2.5, b=1.5)
    g = build_grid(2, 12.0, 512)
    v = mtlab.project_to_constraint(sample_profile(g, lambda r: np.exp(-r)), p)
    unit_err = abs(mtlab.solve_beta_star(v, 1.0, p) - 1.0)

    # closed-form case on an exactly-normalized Gaussian
    gh = build_grid(2, 14.0, 768)
    w = rescale_to_norms(sample_profile(gh, lambda r: np.exp(-(r ** 2) / 2)),
                         math.sqrt(0.5), math.sqrt(0.5))
    p22 = MTParams(N=2, alpha=1.0, a=2.0, b=2.0)
    closed_err = max(
        abs(mtlab.solve_beta_star(w, t, p22) - math.sqrt(2.0 / (t + 1.0)))
        for t in (0.25, 1.0, 4.0)
    )
    deriv_err = abs(mtlab.beta_star_derivative(w, 1.0, p22) + 0.25)

    # analytic derivative vs central differences across a (t, a, b) grid
    fd_worst = 0.0
    h = 1e-5
    for a in (1.5, 2.0, 3.0):
        for b in (1.0, 2.0, 4.0):
            pp = MTParams(N=2, alpha=1.0, a=a, b=b)
            for t in (0.3, 1.0, 3.0):
                fd = (mtlab.solve_beta_star(w, t + h, pp) - mtlab.solve_beta_star(w, t - h, pp)) / (2 * h)
                an = mtlab.beta_star_derivative(w, t, pp)
                fd_worst = max(fd_worst, abs(an - fd) / abs(fd))
    ok = unit_err <= 1e-12 and closed_err <= 1e-10 and deriv_err <= 1e-10 and fd_worst <= 1e-5
    report(8, "scaling-identities", ok,
           f"beta(1) err {unit_err:.1e}, closed-form err {closed_err:.1e}, fd rel {fd_worst:.1e}")
    assert unit_err <= 1e-12
    assert closed_err <= 1e-10
    assert deriv_err <= 1e-10
    assert fd_worst <= 1e-5


def test_criterion_09_vanishing_consistency():
    p = MTParams(N=2, alpha=0.05, a=2.0, b=2.0)
    rep = mtlab.maximize_d(p, MaximizeOptions(restarts=12, seed=11))
    finite = [v for v in rep.restart_values if np.isfinite(v)]
    excess = max(v - rep.lower_bound for v in finite)
    ok = (
        len(finite) == 12
        and excess <= 1e-7
        and rep.mode_diagnostic == "near-vanishing"
        and not rep.exceeds_lower_bound
    )
    report(9, "vanishing-consistency", ok, f"12 restarts, max excess {excess:+.1e}, mode {rep.mode_diagnostic}")
    assert ok


def test_criterion_10_determinism():
    plan = SweepPlan(
        N=2,
        axes=(AxisSpec("alpha", 0.5, 3.0, 4),),
        fixed={"a": 3.0, "b": 2.0},
        seed=9,
        options=MaximizeOptions(restarts=6, n_nodes=256, seed=9),
    )
    csv1 = sweep_to_csv(run_sweep(plan))
    csv2 = sweep_to_csv(run_sweep(plan))
    ok = csv1.encode() == csv2.encode()
    report(10, "sweep-determinism", ok, f"{len(csv1)} bytes compared")
    assert ok
