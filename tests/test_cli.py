import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtlab
from mtlab.cli import COMMANDS, main
from mtlab.radial import N_MAX


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(argv):
    """main(argv) in process with RuntimeWarning as an error: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def alpha_n(N):
    """alpha_N; past N_MAX, where mtlab refuses the dimension, by the same closed form."""
    if N <= N_MAX:
        return mtlab.critical_exponent(N)
    return N * (2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)) ** (1.0 / (N - 1))


class TestParsing:
    def test_usage_error_on_alpha_gate(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--N", "2", "--alpha", "20", "--a", "2", "--b", "2")
        assert code == 2
        assert "alpha" in err

    def test_missing_subcommand_flag(self, capsys):
        code, _, _ = run_cli(capsys, "maximize", "--N", "2")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_restarts_only_where_maximize_runs(self, capsys):
        code, _, err = run_cli(capsys, "bgn", "--N", "2", "--restarts", "1")
        assert code == 2
        assert "--restarts" in err

    def test_csv_only_for_tables(self, capsys):
        code, _, err = run_cli(
            capsys, "g-test", "--N", "2", "--alpha", "4", "--a", "2", "--b", "8",
            "--bgn", "0.165", "--format", "csv",
        )
        assert code == 2
        assert "csv" in err

    def test_defaults_are_the_options_defaults(self):
        from mtlab.cli import _make_options, build_parser

        parser = build_parser()
        problem = ["--N", "2", "--a", "2", "--b", "8"]
        args = parser.parse_args(["maximize", *problem, "--alpha", "3"])
        assert _make_options(args) == mtlab.MaximizeOptions()
        args = parser.parse_args(["alpha-star", *problem])
        bracket = mtlab.BracketOptions()
        assert (args.alpha_min, args.alpha_max) == (bracket.alpha_min, bracket.alpha_max)
        assert args.bisect == bracket.bisect_iters
        assert _make_options(args) == bracket.maximize_opts

    def test_grid_schemes_are_every_grid_scheme_choice(self):
        from mtlab.cli import build_parser
        from mtlab.radial import GRID_SCHEMES

        commands = build_parser()._subparsers._group_actions[0].choices
        choices = {
            name: action.choices
            for name, sp in commands.items()
            for action in sp._actions
            if action.dest == "grid_scheme"
        }
        assert sorted(choices) == ["alpha-star", "eval", "maximize", "phase-map", "sweep"]
        assert all(c is GRID_SCHEMES for c in choices.values()) and GRID_SCHEMES == ("composite-gauss", "graded")


class TestEval:
    def test_family_eval_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--N", "2", "--alpha", "1", "--a", "2", "--b", "2",
            "--family", "exp", "--normalize",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constraint_value"] == pytest.approx(1.0, abs=1e-10)
        assert payload["mt_integral"] == pytest.approx(payload["mt_integral_series"], rel=1e-9)
        assert payload["j_truncated"] <= payload["mt_integral"] + 1e-12

    def test_reports_no_seed(self, capsys):
        # eval draws nothing, so its report names no seed; --seed stays accepted, as on every subcommand
        code, out, _ = run_cli(capsys, "eval", "--N", "2", "--alpha", "1", "--a", "2", "--b", "2", "--seed", "5")
        assert code == 0 and "seed" not in json.loads(out)

    def test_profile_csv_input(self, capsys, tmp_path):
        grid = mtlab.build_grid(2, 10.0, 64)
        u = mtlab.sample_profile(grid, lambda r: np.exp(-r))
        path = tmp_path / "prof.csv"
        path.write_text(mtlab.profile_to_csv(u))
        code, out, _ = run_cli(
            capsys, "eval", "--N", "2", "--alpha", "1", "--a", "2", "--b", "2",
            "--profile", str(path),
        )
        assert code == 0
        assert json.loads(out)["mt_integral"] > 0

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("x,y\n1,2\n2,1\n", "header"),
            ("r,u\n2,1\n1,0.5\n", "strictly increasing"),
            ("r,u\n1,abc\n2,0\n", "abc"),
            ("r,u\n1,inf\n2,0\n", "finite and non-negative"),
            ("r,u\n1,1e400\n2,0\n", "finite and non-negative"),
            ("r,u\n1,1\n1e200,0\n", "exceeds 2^(1000/N)"),
        ],
        ids=["bad-header", "decreasing-radii", "non-numeric", "infinite-value", "overflowing-value", "radii-past-limit"],
    )
    def test_malformed_profile_csv_is_usage_error(self, capsys, tmp_path, text, reason):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "eval", "--N", "2", "--alpha", "1", "--a", "2", "--b", "2", "--profile", str(path),
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error: --profile") and reason in err


    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 4, 11, 20, 40, N_MAX, N_MAX + 1]), st.floats(-1.0, 300.0), st.booleans())
    @example(2, 300.0, False)  # every norm was NaN, and the command exited 0
    @example(2, 300.0, True)  # solve_amplitude divided by zero
    @example(N_MAX + 1, math.log10(5.0), False)  # at N = 100 and 400 the Phi_N tail kernel overflowed
    @example(100, -1.0, False)  # a power sum overflowed (exit 1) where the norm itself was a double
    @example(N_MAX, -3.0, False)  # the decay cell's slope^57 overflowed (exit 1); ||grad u||_N^N is ~1e124
    @example(50, -4.0, False)  # the same at N = 50
    def test_every_failure_maps_to_an_exit_code(self, N, log_r, normalize):
        # an N past N_MAX or an r_max past 2^{1000/N} is a usage error (2); any other run reports finite numbers (0)
        # or fails (1)
        r_max = 10.0**log_r
        argv = ["eval", "--N", str(N), "--alpha", "1", "--a", "2", "--b", "2", "--r-max", repr(r_max), "--n-nodes", "64"]
        code, out, _ = run_strict(argv + ["--normalize"] * normalize)
        assert code == 2 if N > N_MAX or r_max > 2.0 ** (1000 / N) else code in (0, 1)
        if code == 0:
            payload = json.loads(out)
            assert all(math.isfinite(v) for v in payload.values() if isinstance(v, float))

    @pytest.mark.parametrize("N, r_max, grad_norm", [(N_MAX, "0.001", 153.378), (50, "0.0001", 161.843)])
    def test_power_sums_where_only_a_power_overflows(self, N, r_max, grad_norm):
        # at the parent both exited 1: "a sum of N-th powers exceeds the double range"
        argv = ["eval", "--N", str(N), "--alpha", "1", "--a", "2", "--b", "2", "--r-max", r_max, "--n-nodes", "64"]
        code, out, _ = run_strict(argv)
        assert code == 0
        assert json.loads(out)["grad_norm"] == pytest.approx(grad_norm, rel=1e-5)


class TestMaximize:
    def test_json_report_and_api_equivalence(self, capsys, tmp_path):
        args = [
            "maximize", "--N", "2", "--alpha", "3", "--a", "3", "--b", "2",
            "--seed", "7", "--restarts", "8", "--n-nodes", "256",
        ]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        payload = json.loads(out)
        api = mtlab.maximize_d(
            mtlab.MTParams(N=2, alpha=3.0, a=3.0, b=2.0),
            mtlab.MaximizeOptions(restarts=8, n_nodes=256, seed=7),
        )
        assert payload["best_value"] == api.best_value
        assert payload["seed"] == 7
        assert payload["exceeds_lower_bound"] is True

    def test_one_unbuildable_start_does_not_abort(self, capsys):
        # the x = 0.99 GN start cannot be built at a = 0.01; it scores null and the run goes on
        code, out, _ = run_cli(capsys, "maximize", "--N", "2", "--alpha", "3", "--a", "0.01", "--b", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["restart_values"][4] is None and payload["exceeds_lower_bound"] is False

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3, 4, 6, 11, 16, 20]),
        st.floats(0.05, 0.99),
        st.floats(-2.0, 0.8),
        st.floats(-1.3, 1.5),
        st.sampled_from([None, 2.0]),
    )
    @example(20, 0.5, -1.0, 0.0, None)  # the vanishing starts spread toward max_radius, where r^20 nears 2^1000
    @example(N_MAX + 1, 0.05, 0.0, 0.0, None)  # at N = 100, 1 / 171! of the Phi_N tail kernel overflowed
    @example(200, 0.5, 0.0, 0.0, 2.0)  # the dilation curve's slope raised a raw OverflowError
    def test_every_failure_maps_to_an_exit_code(self, N, frac, log_a, log_b, r_max):
        # up to N_MAX a run either reports (0) or fails as a computation (1), past it --N is a usage error (2);
        # no exception or RuntimeWarning escapes
        argv = [
            "maximize", "--N", str(N), "--alpha", repr(frac * alpha_n(N)),
            "--a", repr(10.0**log_a), "--b", repr(10.0**log_b), "--n-nodes", "64", "--restarts", "4", "--seed", "3",
        ]
        code = run_strict(argv + ([] if r_max is None else ["--r-max", repr(r_max)]))[0]
        assert code == 2 if N > N_MAX else code in (0, 1)

    def test_human_disclaimer(self, capsys):
        code, out, _ = run_cli(
            capsys, "maximize", "--N", "2", "--alpha", "3", "--a", "3", "--b", "2",
            "--restarts", "6", "--n-nodes", "256", "--format", "human",
        )
        assert code == 0
        assert "never certify non-attainment" in out

    def test_profile_out(self, capsys, tmp_path):
        out_path = tmp_path / "best.csv"
        code, _, _ = run_cli(
            capsys, "maximize", "--N", "2", "--alpha", "2", "--a", "3", "--b", "2",
            "--restarts", "6", "--n-nodes", "256",
            "--profile-out", str(out_path),
        )
        assert code == 0
        prof = mtlab.profile_from_csv(out_path.read_text(), N=2)
        assert prof.values.max() > 0


class TestBgn:
    def test_estimate_above_appendix_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bgn", "--N", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["bgn_estimate"] > 1 / (2 * math.pi) + 1e-3

    def test_profile_out_is_unchanged(self, capsys, tmp_path):
        # the sampled GN profile, byte for byte as before bgn_estimate moved to the shot's own nodes
        out_path = tmp_path / "gn.csv"
        code, out, _ = run_cli(capsys, "bgn", "--N", "2", "--profile-out", str(out_path))
        assert code == 0 and json.loads(out)["profile_out"] == str(out_path)
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == "59fe38e23ea88d537ada1f5afd982059ff826cfb5ea6160346dc04baa02462e2"

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "bgn", "--N", "2", "--format", "human")
        assert code == 0
        assert out.startswith("bgn_estimate (certified lower bound") and "grid_ratio" not in out

    def test_searched_bracket_where_lo_has_no_event(self, capsys):
        # N = 11 is searched from [1.05, 4], and the shot from 1.05 has no event by r = 30
        code, out, _ = run_cli(capsys, "bgn", "--N", "11")
        assert code == 0
        assert json.loads(out)["residual"] < 1e-8

    @settings(max_examples=6, deadline=None)
    @given(st.integers(2, N_MAX + 1))
    @example(N_MAX)
    @example(N_MAX + 1)  # at N = 400 the GN grid ran past 2^(1000/N)
    def test_every_failure_maps_to_an_exit_code(self, N):
        # up to N_MAX the GN state is found (0); past it --N is a usage error (2)
        assert run_strict(["bgn", "--N", str(N)])[0] == (0 if N <= N_MAX else 2)


class TestBounds:
    def test_g_test(self, capsys):
        code, out, _ = run_cli(
            capsys, "g-test", "--N", "2", "--alpha", "4", "--a", "2", "--b", "8",
            "--bgn", "0.165",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["max_g"] > 1.0
        assert payload["verdict"] == "attained-certified-numerically"

    def test_g_test_reports_the_certified_log_where_g_rounds_to_one(self, capsys):
        # the root s is about 1e-16: max g rounds to 1 (t to within an ulp of it), while ln g, which certified, and
        # s do not
        argv = ["g-test", "--N", "2", "--alpha", "0.7853981633974483", "--a", "2.2311612292849614", "--b", "2",
                "--bgn", "0.0625"]
        code, out, _ = run_cli(capsys, *argv)
        values = json.loads(out)["values"]
        assert code == 0 and json.loads(out)["verdict"] == "attained-certified-numerically"
        assert values["max_g"] == 1.0 and values["argmax_t"] == 1.0 - values["argmax_s"]
        assert values["ln_max_g"] > 0 and 0 < values["argmax_s"] < 1e-15
        code, out, _ = run_cli(capsys, *argv, "--format", "human")
        lines = out.splitlines()
        assert lines[0] == "max g: 1 at t = 1"
        assert lines[1] == f"ln max g: {values['ln_max_g']:.6g} at s = {values['argmax_s']:.6g}"

    def test_g_test_gives_no_attainment_verdict_where_the_supremum_is_infinite(self, capsys):
        # alpha = alpha_N with b > N: max g > 1, but the supremum is infinite, so nothing is attained
        alpha = repr(mtlab.critical_exponent(2))
        code, out, _ = run_cli(capsys, "g-test", "--N", "2", "--alpha", alpha, "--a", "2", "--b", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["max_g"] > 1.0 and payload["verdict"] == "infinite-sup-regime"

    @pytest.mark.parametrize(
        "extra, maximized, bracket",
        [
            (["--a", "2"], [mtlab.critical_exponent(2) / 50], None),
            (["--a", "0.5", "--alpha-min", "12", "--bisect", "0"], [12.0], [0.0, 12.0]),
        ],
        ids=["a-conjugate", "a-small"],
    )
    def test_alpha_star_does_not_certify_the_infinite_supremum_cell(
        self, capsys, monkeypatch, extra, maximized, bracket
    ):
        # the alpha_N end with b > N is not certified, and no maximize_d runs there to refuse it; at a = N' the
        # default alpha_min fails too, so no end certifies (exit 1)
        maximize, alphas = mtlab.bounds.maximize_d, []

        def spy(p, *args, **kwargs):
            alphas.append(p.alpha)
            return maximize(p, *args, **kwargs)

        monkeypatch.setattr(mtlab.bounds, "maximize_d", spy)
        alpha = repr(mtlab.critical_exponent(2))
        argv = ["alpha-star", "--N", "2", "--b", "8", "--alpha-max", alpha, "--restarts", "2", *extra]
        code, out, err = run_cli(capsys, *argv)
        assert alphas == maximized
        if bracket is None:
            assert code == 1 and out == "" and err.startswith("computation failed: neither end of [0.251327, 12.5664]")
        else:
            assert code == 0, err
            assert [json.loads(out)[key] for key in ("alpha_low", "alpha_high")] == bracket

    def test_alpha0(self, capsys):
        code, out, _ = run_cli(capsys, "alpha0", "--N", "2", "--a", "2", "--b", "2", "--gn-c", "3")
        assert code == 0
        payload = json.loads(out)
        assert 0 < payload["values"]["alpha0"] < mtlab.critical_exponent(2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, N_MAX + 1), st.floats(0.01, 1.0), st.floats(-2.0, 2.0), st.floats(-300.0, 300.0))
    @example(N_MAX + 1, 1.0, 0.0, 0.0)  # at N = 173 math.gamma(N - 1) overflowed, at 800 a term of the C~ series
    @example(2, 1.0, 0.0, 300.0)  # gn_c ** N overflowed
    @example(2, 1.0, 0.0, -300.0)  # C~ underflowed to 0, then divided by
    def test_alpha0_every_failure_maps_to_an_exit_code(self, N, a_frac, log_b, log_c):
        # up to N_MAX alpha0 either reports a finite bound (0) or fails as a computation (1), past it --N is a usage
        # error (2); nothing escapes main
        argv = [
            "alpha0", "--N", str(N), "--a", repr(a_frac * N / (N - 1)), "--b", repr(10.0**log_b),
            "--gn-c", repr(10.0**log_c),
        ]
        code, out, _ = run_strict(argv)
        assert code == 2 if N > N_MAX else code in (0, 1)
        if code == 0:
            alpha0 = json.loads(out)["values"]["alpha0"]
            assert 0 <= alpha0 <= mtlab.critical_exponent(N)

    def test_alpha0_invalid_a(self, capsys):
        code, _, err = run_cli(capsys, "alpha0", "--N", "2", "--a", "3", "--b", "2", "--gn-c", "3")
        assert code == 2

    def test_alpha0_checks_powers_before_the_gn_bound(self, capsys, monkeypatch):
        def refuse(N):
            raise AssertionError("the default --gn-c was derived before --a was checked")

        monkeypatch.setattr(mtlab.cli, "cached_gn_report", refuse)
        code, out, err = run_cli(capsys, "alpha0", "--N", "2", "--a", "3", "--b", "2")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "a must lie in (0, N']" in err

    def test_alpha_star_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "alpha-star", "--N", "2", "--a", "2", "--b", "8",
            "--alpha-min", "2.0", "--alpha-max", "6.0",
            "--restarts", "6", "--n-nodes", "256",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_high"] < mtlab.critical_exponent(2)
        assert "certified" in payload["semantics"]

    def test_alpha_star_above_the_conjugate_exponent_brackets_from_zero(self, capsys):
        # at a > N' the g-test certifies alpha_min, alpha_N / 50, so alpha_low is 0.0 and each of the six
        # bisection midpoints certifies too
        code, out, err = run_cli(capsys, "alpha-star", "--N", "2", "--a", "3", "--b", "2", "--bisect", "6")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["alpha_low"] == 0.0
        assert payload["alpha_high"] == pytest.approx(mtlab.critical_exponent(2) / 50 / 2**6, rel=1e-15)

    def test_alpha_star_not_found_exit_code(self, capsys):
        # neither end certifies: exit 1 like every failed computation, with the range and the problem on stderr
        code, out, err = run_cli(
            capsys, "alpha-star", "--N", "2", "--a", "2", "--b", "2",
            "--alpha-min", "0.01", "--alpha-max", "0.05",
            "--restarts", "2", "--n-nodes", "128",
        )
        assert code == 1 and out == ""
        assert err == "computation failed: neither end of [0.01, 0.05] certified attainment for (a=2.0, b=2.0, N=2)\n"

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([2, 3, 4]),
        st.floats(0.01, 1.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.one_of(st.none(), st.floats(-300.0, 308.25)),
    )
    @example(2, 1.0, -2.0, 2.0, 308.25)  # alpha bgn / N overflowed, and g was inf * 0 at t = 1
    @example(2, 0.5, -17.0, 0.0, None)  # k = N'/a is so large that psi's peak (k-1)/(k+beta) rounds to s = 1
    def test_g_test_every_failure_maps_to_an_exit_code(self, N, frac, log_a, log_b, log_bgn):
        argv = [
            "g-test", "--N", str(N), "--alpha", repr(frac * mtlab.critical_exponent(N)),
            "--a", repr(10.0**log_a), "--b", repr(10.0**log_b),
        ]
        assert run_strict(argv + ([] if log_bgn is None else ["--bgn", repr(10.0**log_bgn)]))[0] in (0, 1, 2)

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.floats(-1.5, 1.0),
        st.floats(-1.3, 1.5),
        st.floats(0.005, 0.99),
        st.floats(0.01, 1.0),
        st.integers(0, 2),
    )
    def test_alpha_star_every_failure_maps_to_an_exit_code(self, N, log_a, log_b, lo, width, bisect):
        # the alpha range is alpha_N times [lo, hi], hi = lo + width (1 - lo)
        alpha_n = mtlab.critical_exponent(N)
        argv = [
            "alpha-star", "--N", str(N), "--a", repr(10.0**log_a), "--b", repr(10.0**log_b),
            "--alpha-min", repr(lo * alpha_n), "--alpha-max", repr((lo + width * (1.0 - lo)) * alpha_n),
            "--bisect", str(bisect), "--n-nodes", "64", "--restarts", "2",
        ]
        assert run_strict(argv)[0] in (0, 1, 2)


    @pytest.mark.parametrize(
        "extra, reason",
        [
            (["--alpha-min", "6", "--alpha-max", "3"], "alpha_min must be below alpha_max"),
            (["--count", "3"], "unrecognized arguments: --count 3"),
            (["--alpha-min", "12.4"], "alpha_min must be below alpha_max"),
            (["--a", "-1"], "constraint powers must be positive"),
        ],
        ids=["reversed-range", "count", "min-above-default-max", "negative-a"],
    )
    def test_alpha_star_usage_errors(self, capsys, extra, reason):
        code, out, err = run_cli(capsys, "alpha-star", "--N", "2", "--a", "2", "--b", "8", *extra)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and reason in err


PARAMS = ["--N", "2", "--alpha", "3", "--a", "3", "--b", "2"]
SWEEP = ["sweep", "--N", "2", "--axis", "alpha", "--min", "0.5", "--max", "2", "--count", "3", "--a", "3", "--b", "2"]
PHASE_MAP = [
    "phase-map", "--N", "2", "--alpha", "3", "--a-min", "1", "--a-max", "3", "--a-count", "2",
    "--b-min", "1", "--b-max", "8", "--b-count", "2",
]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["bgn", "--N", "1"], "dimension N must be an integer >= 2"),
        (["maximize", *PARAMS, "--r-max", "-1"], "r_max"),
        (["maximize", *PARAMS, "--n-nodes", "8"], "n_nodes must be >= 16"),
        (["maximize", *PARAMS, "--restarts", "0"], "restarts must be >= 1"),
        (["maximize", *PARAMS, "--r-max", "1e200"], "r_max 1e+200 exceeds 2^(1000/N)"),
        (["eval", *PARAMS, "--r-max", "1e300", "--normalize"], "r_max 1e+300 exceeds 2^(1000/N)"),
        ([*SWEEP, "--r-max", "1e200"], "exceeds 2^(1000/N)"),
        (["alpha-star", "--N", "20", "--a", "2", "--b", "8", "--r-max", "1e16"], "exceeds 2^(1000/N)"),
        (["eval", *PARAMS, "--n-nodes", "8"], "n_nodes must be >= 16"),
        (["eval", *PARAMS, "--width", "-1"], "--width must be positive"),
        (["sweep", "--N", "1", *SWEEP[3:]], "dimension N must be an integer >= 2"),
        ([*SWEEP, "--n-nodes", "4"], "n_nodes must be >= 16"),
        (["phase-map", "--N", "1", *PHASE_MAP[3:]], "dimension N must be an integer >= 2"),
        ([*PHASE_MAP, "--r-max", "-5"], "r_max"),
        (["alpha-star", "--N", "2", "--a", "2", "--b", "8", "--bisect", "-1"], "bisect_iters must be >= 0"),
        (["g-test", "--N", "2", "--alpha", "4", "--a", "2", "--b", "8", "--bgn", "-1"], "bgn must be positive"),
        (["maximize", "--N", "2", "--alpha", repr(4 * math.pi), "--a", "2", "--b", "3"], "--allow-infinite-regime"),
        (["maximize", "--N", "2", "--alpha", "3", "--a", "2", "--b", "inf"], "constraint powers must be positive and finite"),
        (["maximize", "--N", "2", "--alpha", "3", "--a", "nan", "--b", "2"], "constraint powers must be positive and finite"),
        (["g-test", "--N", "2", "--alpha", "1", "--a", "nan", "--b", "2", "--bgn", "0.1"], "constraint powers"),
        (["g-test", "--N", "2", "--alpha", "1", "--a", "2", "--b", "2", "--bgn", "inf"], "bgn must be positive and finite"),
        (["alpha0", "--N", "2", "--a", "2", "--b", "2", "--gn-c", "nan"], "interpolation constant must be positive and finite"),
        (["alpha0", "--N", "2", "--a", "2", "--b", "inf", "--gn-c", "2"], "b must be positive and finite"),
        (["sweep", "--N", "2", "--axis", "a", "--min", "1", "--max", "inf", "--count", "2", "--alpha", "3", "--b", "2"],
         "max < inf"),
        (["sweep", "--N", "2", "--axis", "alpha", "--min", "0.5", "--max", "1", "--count", "2", "--a", "-1", "--b", "2"],
         "constraint powers must be positive"),
        (["maximize", *PARAMS, "--seed", "-1"], "seed must be >= 0"),
        (["maximize", *PARAMS, "--seed", "-1", "--restarts", "12"], "seed must be >= 0"),
        (["alpha-star", "--N", "2", "--a", "2", "--b", "8", "--seed", "-1"], "seed must be >= 0"),
        (["alpha-star", "--N", "2", "--a", "2", "--b", "8", "--seed", "-1", "--restarts", "12"], "seed must be >= 0"),
        ([*SWEEP, "--seed", "-1"], "seed must be >= 0"),
        ([*PHASE_MAP, "--seed", "-1", "--restarts", "12"], "seed must be >= 0"),
    ],
    ids=[
        "bgn-N1", "maximize-r-max", "maximize-n-nodes", "maximize-restarts", "maximize-r-max-past-limit",
        "eval-r-max-past-limit", "sweep-r-max-past-limit", "alpha-star-r-max-past-limit", "eval-n-nodes", "eval-width",
        "sweep-N1", "sweep-n-nodes", "phase-map-N1", "phase-map-r-max", "alpha-star-bisect", "g-test-bgn",
        "maximize-infinite-regime", "maximize-b-inf", "maximize-a-nan", "g-test-a-nan", "g-test-bgn-inf",
        "alpha0-gn-c-nan", "alpha0-b-inf", "sweep-axis-max-inf", "sweep-fixed-a-negative",
        "maximize-seed-negative", "maximize-seed-negative-restarts12", "alpha-star-seed-negative",
        "alpha-star-seed-negative-restarts12", "sweep-seed-negative", "phase-map-seed-negative-restarts12",
    ],
)
def test_bad_input_is_usage_error(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and reason in err


_LIMIT_ALPHA = repr(0.5 * mtlab.critical_exponent(N_MAX))
_SMALL = ["--n-nodes", "64", "--restarts", "2"]
#: One run of each command that takes --N; the dimension goes after the command name.
AT_DIMENSION = {
    "eval": ["--alpha", "1", "--a", "2", "--b", "2", "--normalize"],
    "maximize": ["--alpha", _LIMIT_ALPHA, "--a", "1", "--b", "57", *_SMALL],
    "bgn": [],
    "g-test": ["--alpha", _LIMIT_ALPHA, "--a", "1", "--b", "57"],
    "alpha0": ["--a", "1", "--b", "2"],
    "alpha-star": ["--a", "1", "--b", "114", "--bisect", "0", *_SMALL],
    "sweep": ["--axis", "alpha", "--min", "5", "--max", "15", "--count", "2", "--a", "1", "--b", "57", *_SMALL],
    "phase-map": [
        "--alpha", "15", "--a-min", "0.5", "--a-max", "1", "--a-count", "2",
        "--b-min", "10", "--b-max", "57", "--b-count", "2", *_SMALL,
    ],
}


def test_every_command_but_verify_appendix_takes_the_dimension():
    assert set(AT_DIMENSION) == set(COMMANDS) - {"verify-appendix"}


@pytest.mark.parametrize("command", sorted(AT_DIMENSION))
def test_every_command_runs_at_N_MAX_and_refuses_past_it(command):
    code, _, err = run_strict([command, "--N", str(N_MAX), *AT_DIMENSION[command]])
    assert code == 0, err
    code, out, err = run_strict([command, "--N", str(N_MAX + 1), *AT_DIMENSION[command]])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and f"at most {N_MAX}" in err


class TestSweepCommands:
    def test_sweep_csv_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        args = [
            "sweep", "--N", "2", "--axis", "alpha", "--min", "0.5", "--max", "2.0",
            "--count", "3", "--a", "3", "--b", "2", "--format", "csv",
            "--restarts", "6", "--n-nodes", "256", "--seed", "4",
            "--out", str(out_path),
        ]
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        text = out_path.read_text()
        assert text.splitlines()[0] == "alpha,best_value,lower_bound,margin,verdict,mode,iters,seed"
        sidecar = json.loads((tmp_path / "sweep.csv.plan.json").read_text())
        assert sidecar["seed"] == 4
        code2, _, _ = run_cli(capsys, *args)
        assert code2 == 0
        assert out_path.read_text() == text

    def test_sweep_axis_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--N", "2", "--axis", "alpha", "--min", "0.5", "--max", "2.0",
            "--count", "3", "--alpha", "1.0", "--a", "2", "--b", "2",
        )
        assert code == 2

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from(["alpha", "a", "b"]),
        st.floats(0.01, 0.99),
        st.floats(0.01, 1.0),
        st.integers(2, 3),
        st.sampled_from(["linear", "log"]),
        st.floats(0.01, 1.0),
        st.floats(-1.5, 1.0),
        st.floats(-1.3, 1.5),
    )
    def test_sweep_every_failure_maps_to_an_exit_code(self, N, axis, lo, width, count, spacing, frac, log_a, log_b):
        # the axis runs over [lo, lo + width (1 - lo)] times alpha_N for alpha, times 8 for a or b
        scale = mtlab.critical_exponent(N) if axis == "alpha" else 8.0
        fixed = {"alpha": frac * mtlab.critical_exponent(N), "a": 10.0**log_a, "b": 10.0**log_b}
        argv = [
            "sweep", "--N", str(N), "--axis", axis, "--min", repr(lo * scale),
            "--max", repr((lo + width * (1.0 - lo)) * scale), "--count", str(count), "--spacing", spacing,
            "--n-nodes", "64", "--restarts", "2",
        ]
        argv += [arg for name, value in fixed.items() if name != axis for arg in (f"--{name}", repr(value))]
        assert run_strict(argv)[0] in (0, 1, 2)

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.floats(0.01, 1.0),
        st.floats(-1.5, 1.0),
        st.floats(0.01, 1.0),
        st.floats(-1.3, 1.5),
        st.floats(0.01, 1.0),
    )
    def test_phase_map_every_failure_maps_to_an_exit_code(self, N, frac, log_a, log_da, log_b, log_db):
        # a 2 x 2 map over [10^log_a, 10^(log_a + log_da)] x [10^log_b, 10^(log_b + log_db)]
        argv = [
            "phase-map", "--N", str(N), "--alpha", repr(frac * mtlab.critical_exponent(N)),
            "--a-min", repr(10.0**log_a), "--a-max", repr(10.0 ** (log_a + log_da)), "--a-count", "2",
            "--b-min", repr(10.0**log_b), "--b-max", repr(10.0 ** (log_b + log_db)), "--b-count", "2",
            "--n-nodes", "64", "--restarts", "2",
        ]
        assert run_strict(argv)[0] in (0, 1, 2)

    def test_phase_map_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase-map", "--N", "2", "--alpha", "3",
            "--a-min", "2.5", "--a-max", "3.0", "--a-count", "2",
            "--b-min", "1.0", "--b-max", "2.0", "--b-count", "2",
            "--restarts", "6", "--n-nodes", "256",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 4


class TestVerifyAppendix:
    def test_happy_path_defaults_to_ledger_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify-appendix", "--n-max", "50")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "all claims hold"
        assert lines[0] == "N,d_N,e_N,log_CN_pow,claim1,claim2,claim3_chain"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify-appendix", "--n-max", "20", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_claims_hold"] is True

    def test_bad_n_max(self, capsys):
        code, _, _ = run_cli(capsys, "verify-appendix", "--n-max", "2")
        assert code == 2


def test_cli_import_path_loads_no_scipy_or_mpmath():
    # A cold `mt` command imports neither, verify-appendix included: its 50-digit logs run in decimal.
    script = (
        "import json, sys\n"
        "import mtlab.cli\n"
        "code = mtlab.cli.main(['verify-appendix', '--n-max', '50', '--format', 'json'])\n"
        "print(json.dumps({'code': code, 'loaded': sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath'))}))\n"
    )
    src = str(Path(mtlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *ledger, seen = proc.stdout.splitlines()
    assert json.loads(seen) == {"code": 0, "loaded": []}
    assert json.loads("\n".join(ledger))["all_claims_hold"] is True


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _cold_footprint(script, env):
    """The last stdout line of a fresh interpreter running script, as JSON."""
    src = str(Path(mtlab.__file__).resolve().parents[1])
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("caller_threads", [None, "2"], ids=["unset", "caller-set"])
def test_cold_maximize_runs_one_thread_and_draws_nothing(tmp_path, caller_threads):
    # conftest imports numpy before mtlab, so only a fresh interpreter shows what a cold `mt` process holds
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc to count threads")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if caller_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = caller_threads
    # numpy loads lazily on the first command that computes with it; each command then counts the threads
    commands = [
        ["maximize", "--N", "2", "--alpha", "3", "--a", "3", "--b", "2", "--n-nodes", "128"],
        ["alpha-star", "--N", "2", "--a", "2", "--b", "8", "--bisect", "0", "--n-nodes", "128"],
        SWEEP + ["--n-nodes", "128"],
    ]
    script = (
        "import json, os, sys\n"
        "import mtlab.cli\n"
        "seen = []\n"
        f"for i, argv in enumerate({commands!r}):\n"
        f"    code = mtlab.cli.main(argv + ['--out', os.path.join({str(tmp_path)!r}, str(i))])\n"
        "    seen.append([code, len(os.listdir('/proc/self/task'))])\n"
        "print(json.dumps({'seen': seen, 'blas_env': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                  'random': 'numpy.random' in sys.modules}))\n"
    )
    seen = _cold_footprint(script, env)
    assert [code for code, _ in seen["seen"]] == [0, 0, 0]
    assert json.loads((tmp_path / "0").read_text())["best_value"] > 0
    assert seen["random"] is False
    assert seen["blas_env"] == caller_threads
    threads = {count for _, count in seen["seen"]}
    if caller_threads is None:
        assert threads == {1}
    else:
        # the caller's choice stands: as many threads as numpy alone starts under the same environment
        control = "import json, os\nimport numpy\nprint(json.dumps(len(os.listdir('/proc/self/task'))))\n"
        assert threads == {_cold_footprint(control, env)}


#: Commands that compute in Python floats and decimals, with the arguments the benchmark gives them, and an
#: alpha-star whose every cell the g-test decides (a > N').
NUMPY_FREE = {
    "version": ["--version"],
    "bgn-N2": ["bgn", "--N", "2"],
    "bgn-N3": ["bgn", "--N", "3"],
    "g-test": ["g-test", "--N", "2", "--alpha", "4", "--a", "2", "--b", "8"],
    "alpha0": ["alpha0", "--N", "2", "--a", "2", "--b", "2"],
    "verify-appendix": ["verify-appendix", "--n-max", "1000", "--format", "json"],
    "alpha-star-g-test": ["alpha-star", "--N", "2", "--a", "3", "--b", "2"],
}


def _stdout_of(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_cold_command_never_loads_numpy(argv):
    # numpy sits in sys.modules as a lazy module from `import mtlab` on; numpy._core appears only once it loads
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import mtlab.cli\n"
        "out = io.StringIO()\n"
        "with redirect_stdout(out):\n"
        f"    code = mtlab.cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'out': out.getvalue(), 'numpy': 'numpy._core' in sys.modules}))\n"
    )
    seen = _cold_footprint(script, dict(os.environ))
    code, out = _stdout_of(argv)
    assert seen == {"code": 0, "out": out, "numpy": False} and code == 0


def test_cold_commands_load_only_what_they_compute_with(tmp_path):
    # grids take their Gauss rules from a table, not numpy.polynomial; only the appendix ledger loads decimal and
    # fractions, so it runs last
    grid = ["--n-nodes", "128"]
    commands = [
        ["eval", "--N", "2", "--alpha", "3", "--a", "3", "--b", "2"] + grid,
        ["maximize", "--N", "2", "--alpha", "3", "--a", "3", "--b", "2"] + grid,
        ["bgn", "--N", "2", "--profile-out", str(tmp_path / "gn.csv")],
        ["alpha-star", "--N", "2", "--a", "2", "--b", "8", "--bisect", "0"] + grid,
        SWEEP + grid,
        PHASE_MAP + grid,
        ["verify-appendix", "--n-max", "50"],
    ]
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import mtlab.cli\n"
        "seen = []\n"
        f"for argv in {commands!r}:\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        code = mtlab.cli.main(argv)\n"
        "    seen.append([argv[0], code] + [m for m in ('numpy.polynomial', 'decimal', 'fractions') if m in sys.modules])\n"
        "print(json.dumps({'seen': seen, 'numpy': 'numpy._core' in sys.modules}))\n"
    )
    assert _cold_footprint(script, dict(os.environ)) == {
        "seen": [[argv[0], 0] for argv in commands[:-1]] + [["verify-appendix", 0, "decimal", "fractions"]],
        "numpy": True,
    }


def test_lazy_numpy_is_the_one_numpy():
    script = (
        "import json, sys, types\n"
        "import mtlab\n"
        "lazy = type(sys.modules['numpy']) is not types.ModuleType\n"
        "import numpy\n"
        "print(json.dumps({'lazy': lazy, 'same': numpy is mtlab.radial.np is mtlab._numpy is sys.modules['numpy'],\n"
        "                  'loaded': type(numpy) is types.ModuleType and 'numpy._core' in sys.modules,\n"
        "                  'sum': float(numpy.ones(3).sum())}))\n"
    )
    assert _cold_footprint(script, dict(os.environ)) == {"lazy": True, "same": True, "loaded": True, "sum": 3.0}


def test_numpy_imported_first_is_left_untouched():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    script = (
        "import json, os, sys, types\n"
        "import numpy\n"
        "import mtlab\n"
        "print(json.dumps({'same': numpy is mtlab.radial.np is sys.modules['numpy'],\n"
        "                  'plain': type(numpy) is types.ModuleType, 'blas_env': os.environ.get('OPENBLAS_NUM_THREADS')}))\n"
    )
    assert _cold_footprint(script, env) == {"same": True, "plain": True, "blas_env": None}


def test_import_fails_without_numpy():
    script = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import mtlab\n"
        "except ImportError as exc:\n"
        "    print(json.dumps({'raised': True, 'mtlab': 'mtlab' in sys.modules}))\n"
    )
    assert _cold_footprint(script, dict(os.environ)) == {"raised": True, "mtlab": False}


@pytest.mark.parametrize("argv", [SWEEP, PHASE_MAP], ids=["sweep", "phase-map"])
def test_cold_sweep_never_loads_numpy_random(tmp_path, argv):
    # the per-cell seeds are hashed in Python, and the default starts draw nothing
    script = (
        "import json, sys\n"
        "import mtlab.cli\n"
        f"code = mtlab.cli.main({argv!r} + ['--n-nodes', '128', '--format', 'csv', '--out', {str(tmp_path / 'rows.csv')!r}])\n"
        "print(json.dumps({'code': code, 'random': 'numpy.random' in sys.modules}))\n"
    )
    assert _cold_footprint(script, dict(os.environ)) == {"code": 0, "random": False}
    assert (tmp_path / "rows.csv").read_text().count("\n") > 2
