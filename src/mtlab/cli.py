"""Command-line front door.  Every subcommand is a thin adapter over the API.

Exit codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import __version__, _numpy as np
from .appendix import claim_ledger
from .bounds import (
    BracketOptions,
    _check_alpha0_powers,
    alpha0_nonexistence,
    bracket_alpha_star,
    g_function_test,
)
from .errors import InvalidParameterError, MTLabError
from .functional import (
    MTParams,
    constraint_value,
    j_truncated,
    mt_integral,
    mt_integral_series,
)
from .maximize import MaximizeOptions, cached_gn_report, maximize_d, project_to_constraint
from .radial import (
    GRID_SCHEMES,
    N_MAX,
    build_grid,
    check_dimension,
    check_radius,
    critical_exponent,
    grad_norm_pow,
    lp_norm_pow,
    profile_from_csv,
    profile_to_csv,
    sample_profile,
)
from .sweeps import AxisSpec, SweepPlan, plan_to_json, run_sweep, sweep_to_csv

__all__ = ["build_parser", "main"]

DISCLAIMER = (
    "note: reported values are certified lower bounds from feasible profiles; "
    "numerics never certify non-attainment."
)

#: Every flag that sets an option takes its default from the options class.
_OPTS, _SCAN = MaximizeOptions(), BracketOptions()


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line the way main reports every other usage error."""

    def error(self, message):
        self.exit(2, f"usage error: {message}\n{self.format_usage()}")


def _dimension(text: str) -> int:
    """--N: an integer that radial.check_dimension accepts."""
    try:
        N = int(text)
        check_dimension(N)
    except ValueError as exc:  # InvalidParameterError is a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return N


@contextmanager
def _request(source: str = ""):
    """Build a command's inputs: an InvalidParameterError raised here is a usage error.

    The objects validate themselves when built, so the block runs before any
    computing; it also wraps closed-form calls whose only InvalidParameterError
    is their own input check.  Raised anywhere else, the error is a failed
    computation (exit 1).  `source` prefixes the message, e.g. a profile's file.
    """
    try:
        yield
    except InvalidParameterError as exc:
        raise UsageError(f"{source}{exc}") from exc


_PARAM_HELP = dict(
    N=f"dimension, integer in [2, {N_MAX}]", alpha="growth parameter in (0, alpha_N]",
    a="gradient-norm power", b="norm power",
)


def _add_param_args(sp, names=("N", "alpha", "a", "b"), required: bool = True):
    """The problem flags `names` of --N, --alpha, --a, --b; one that is not required defaults to None."""
    for name in names:
        kind = _dimension if name == "N" else float
        sp.add_argument(f"--{name}", type=kind, required=required, help=_PARAM_HELP[name])


def _add_grid_args(sp):
    sp.add_argument("--r-max", type=float, default=_OPTS.r_max, help="truncation radius (default %(default)s)")
    sp.add_argument("--n-nodes", type=int, default=_OPTS.n_nodes, help="quadrature nodes (default %(default)s)")
    sp.add_argument(
        "--grid-scheme", choices=GRID_SCHEMES, default=_OPTS.scheme, help="node layout (default %(default)s)"
    )


def _add_common_args(sp, restarts: bool = False, csv: bool = False, profile: bool = False):
    """--seed, --format and --out; --restarts only where maximize_d runs, csv only for tables, --profile-out."""
    sp.add_argument("--seed", type=int, default=_OPTS.seed, help="RNG seed (default %(default)s)")
    if restarts:
        sp.add_argument("--restarts", type=int, default=_OPTS.restarts, help="multi-start count (default %(default)s)")
    if profile:
        sp.add_argument("--profile-out", type=str, default=None, help="write the reported profile CSV here")
    formats = ["json", "csv", "human"] if csv else ["json", "human"]
    sp.add_argument("--format", choices=formats, default="json")
    sp.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mt",
        description="Numerical laboratory for the constrained exponential-growth maximization problem.",
    )
    parser.add_argument("--version", action="version", version=f"mtlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate the functional at a profile")
    _add_param_args(sp)
    _add_grid_args(sp)
    sp.add_argument("--profile", type=str, default=None, help="CSV file with header r,u")
    sp.add_argument(
        "--family",
        choices=["gaussian", "exp", "sech", "cubic"],
        default="gaussian",
        help="built-in profile family when no CSV is given",
    )
    sp.add_argument("--width", type=float, default=1.0, help="family width parameter")
    sp.add_argument("--normalize", action="store_true", help="project onto the constraint first")
    _add_common_args(sp)

    sp = sub.add_parser("maximize", help="maximize the functional over the constraint surface")
    _add_param_args(sp)
    _add_grid_args(sp)
    sp.add_argument(
        "--allow-infinite-regime",
        action="store_true",
        help="evaluate even at alpha = alpha_N with b > N (infinite supremum)",
    )
    _add_common_args(sp, restarts=True, profile=True)

    sp = sub.add_parser("bgn", help="lower-bound the Gagliardo-Nirenberg best constant")
    _add_param_args(sp, ["N"])
    _add_common_args(sp, profile=True)

    sp = sub.add_parser("g-test", help="sufficient attainment test from the GN family")
    _add_param_args(sp)
    sp.add_argument("--bgn", type=float, default=None, help="certified GN lower bound (default: compute)")
    _add_common_args(sp)

    sp = sub.add_parser("alpha0", help="explicit non-attainment bound for small alpha (a <= N')")
    _add_param_args(sp, ["N", "a", "b"])
    sp.add_argument("--gn-c", type=float, default=None, help="interpolation constant C (default: derived)")
    _add_common_args(sp)

    sp = sub.add_parser("alpha-star", help="bracket the attainment threshold, one-sided")
    _add_param_args(sp, ["N", "a", "b"])
    sp.add_argument("--alpha-min", type=float, default=None)
    sp.add_argument("--alpha-max", type=float, default=None)
    sp.add_argument("--bisect", type=int, default=_SCAN.bisect_iters, help="bracket halvings (default %(default)s)")
    _add_grid_args(sp)
    _add_common_args(sp, restarts=True)

    sp = sub.add_parser("sweep", help="1D parameter sweep with the remaining parameters fixed")
    _add_param_args(sp, ["N"])
    _add_param_args(sp, ["alpha", "a", "b"], required=False)
    sp.add_argument("--axis", choices=["alpha", "a", "b"], required=True)
    sp.add_argument("--min", type=float, required=True)
    sp.add_argument("--max", type=float, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--spacing", choices=["linear", "log"], default="linear")
    _add_grid_args(sp)
    _add_common_args(sp, restarts=True, csv=True)

    sp = sub.add_parser("phase-map", help="attainment map over (a, b) at fixed alpha")
    _add_param_args(sp, ["N", "alpha"])
    sp.add_argument("--a-min", type=float, required=True)
    sp.add_argument("--a-max", type=float, required=True)
    sp.add_argument("--a-count", type=int, required=True)
    sp.add_argument("--b-min", type=float, required=True)
    sp.add_argument("--b-max", type=float, required=True)
    sp.add_argument("--b-count", type=int, required=True)
    _add_grid_args(sp)
    _add_common_args(sp, restarts=True, csv=True)

    sp = sub.add_parser("verify-appendix", help="exact verification of the closed-form computations")
    sp.add_argument("--n-max", type=int, default=1000, help="verify claims for 3 <= N <= n-max")
    _add_common_args(sp, csv=True)
    sp.set_defaults(format="human")  # ledger CSV plus the final claims line

    return parser


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _report(args, payload: dict, human_lines: list[str]) -> int:
    """Emit the payload under --format json, else the human lines; 0, the exit code."""
    as_json = args.format == "json"
    _emit(json.dumps(payload, indent=2, sort_keys=True) if as_json else "\n".join(human_lines) + "\n", args.out)
    return 0


def _make_options(args, allow_infinite: bool = False) -> MaximizeOptions:
    """The maximize_d options of the flags; its grid's r_max is checked here, so one past 2^{1000/N} is a usage error."""
    opts = MaximizeOptions(
        r_max=args.r_max,
        n_nodes=args.n_nodes,
        scheme=args.grid_scheme,
        restarts=args.restarts,
        seed=args.seed,
        allow_infinite_regime=allow_infinite,
    )
    check_radius(opts.r_max, args.N)
    return opts


def _write_profile(args, profile, payload: dict) -> None:
    """Write --profile-out, if given, and name it in the payload."""
    if args.profile_out:
        with open(args.profile_out, "w", encoding="utf-8") as fh:
            fh.write(profile_to_csv(profile))
        payload["profile_out"] = args.profile_out


def _params(args) -> MTParams:
    return MTParams(N=args.N, alpha=args.alpha, a=args.a, b=args.b)


def _cmd_eval(args) -> int:
    if not args.width > 0:
        raise UsageError(f"--width must be positive, got {args.width}")
    with _request():
        p = _params(args)
        grid = None if args.profile else build_grid(args.N, args.r_max, args.n_nodes, args.grid_scheme)
    if args.profile:
        with open(args.profile, "r", encoding="utf-8") as fh:
            text = fh.read()
        with _request(f"--profile {args.profile}: "):
            u = profile_from_csv(text, N=args.N)
    else:
        w = args.width
        families = {
            "gaussian": lambda r: np.exp(-((r / w) ** 2)),
            "exp": lambda r: np.exp(-r / w),
            "sech": lambda r: 1.0 / np.cosh(r / w),
            "cubic": lambda r: np.maximum(0.0, 1.0 - r / w) ** 3,
        }
        u = sample_profile(grid, families[args.family])
    if args.normalize:
        u = project_to_constraint(u, p)
    payload = {
        "params": p.as_dict(),
        "grid": {"r_max": float(u.grid.r_max), "n_nodes": u.grid.n_nodes, "scheme": u.grid.scheme},
        "mt_integral": mt_integral(u, p),
        "mt_integral_series": mt_integral_series(u, p),
        "constraint_value": constraint_value(u, p),
        "j_truncated": j_truncated(u, p),
        "grad_norm": grad_norm_pow(u) ** (1.0 / p.N),
        "norm": lp_norm_pow(u, p.N) ** (1.0 / p.N),
        "finite_supremum_regime": p.finite_supremum,
    }
    human = [f"{k}: {v}" for k, v in payload.items()]
    return _report(args, payload, human)


def _cmd_maximize(args) -> int:
    with _request():
        p = _params(args)
        opts = _make_options(args, allow_infinite=args.allow_infinite_regime)
        opts.check_regime(p, "--allow-infinite-regime")
    report = maximize_d(p, opts)
    payload = report.to_json_dict()
    _write_profile(args, report.best_profile, payload)
    human = [
        f"best_value (certified lower bound): {report.best_value:.12g}",
        f"universal lower bound: {report.lower_bound:.12g}",
        f"margin: {report.margin:.3e}",
        f"exceeds lower bound: {report.exceeds_lower_bound}",
        f"norm split (grad, norm): ({report.norm_split[0]:.6g}, {report.norm_split[1]:.6g})",
        f"mode: {report.mode_diagnostic}",
        f"iterations: {report.iterations}, restarts: {report.restarts}, seed: {report.seed}",
        DISCLAIMER,
    ]
    return _report(args, payload, human)


def _cmd_bgn(args) -> int:
    report = cached_gn_report(args.N)
    payload = report.to_json_dict()
    if args.profile_out:  # the sampled profile, and numpy, only when asked for
        _write_profile(args, report.maximizer_profile, payload)
    human = [
        f"bgn_estimate (certified lower bound, PL function on the shot's nodes): {report.bgn_estimate:.12g}",
        f"q0: {report.q0:.12g}, final bracket width (residual): {report.residual:.3e}",
        f"shots: {report.iterations}",
        DISCLAIMER,
    ]
    return _report(args, payload, human)


def _cmd_g_test(args) -> int:
    with _request():
        p = _params(args)
    bgn = args.bgn if args.bgn is not None else cached_gn_report(args.N).bgn_estimate
    with _request():  # closed form: its only InvalidParameterError is its bgn check
        report = g_function_test(p.alpha, p.a, p.b, p.N, bgn)
    payload, values = report.to_json_dict(), report.values
    max_g = f"{values['max_g']:.12g}"
    human = [f"max g: {max_g} at t = {values['argmax_t']:.6g}"]
    if max_g == "1":  # where g rounds to 1, ln g and s carry what was certified
        human.append(f"ln max g: {values['ln_max_g']:.6g} at s = {values['argmax_s']:.6g}")
    human += [f"g'(1) at a = N': {values['gprime_at_1_for_a_conjugate']:.6g}", f"verdict: {report.verdict}"]
    return _report(args, payload, human)


def _cmd_alpha0(args) -> int:
    with _request():
        _check_alpha0_powers(args.a, args.b, args.N)
    # By default a valid interpolation constant derived from the computed GN
    # bound; any valid C yields a valid alpha0, smaller C a sharper one.
    gn_c = args.gn_c if args.gn_c is not None else max(1.0, 1.0 / cached_gn_report(args.N).bgn_estimate)
    with _request():  # closed form: its only InvalidParameterErrors are its input checks
        report = alpha0_nonexistence(args.a, args.b, args.N, gn_c)
    payload = report.to_json_dict()
    payload["gn_c"] = gn_c
    human = [
        f"alpha0: {report.values['alpha0']:.12g}",
        f"series constant C~: {report.values['c_tilde']:.12g}",
        "below alpha0 the supremum is not attained (closed-form regime)",
    ]
    return _report(args, payload, human)


def _cmd_alpha_star(args) -> int:
    with _request():
        opts = BracketOptions(
            alpha_min=args.alpha_min,
            alpha_max=args.alpha_max,
            bisect_iters=args.bisect,
            maximize_opts=_make_options(args),
        )
        opts.alpha_range(args.a, args.b, args.N)
    report = bracket_alpha_star(args.a, args.b, args.N, opts)
    payload = report.to_json_dict()
    human = [
        f"alpha_high (threshold is certified <= this): {report.alpha_high:.12g}",
        f"alpha_low (largest uncertified alpha probed below alpha_high, 0 if none; heuristic): {report.alpha_low:.12g}",
        f"alpha_N: {critical_exponent(args.N):.12g}",
        DISCLAIMER,
    ]
    return _report(args, payload, human)


def _run_plan(args, axes, fixed: dict) -> int:
    """Build the SweepPlan of (name, min, max, count[, spacing]) axes, run it and emit the table."""
    with _request():
        axes = tuple(AxisSpec(*axis) for axis in axes)
        plan = SweepPlan(N=args.N, axes=axes, fixed=fixed, seed=args.seed, options=_make_options(args))
    result = run_sweep(plan)
    table = sweep_to_csv(result)
    if args.format != "csv":
        payload = {"plan": result.plan.to_json_dict(), "rows": [vars(row) for row in result.rows]}
        return _report(args, payload, [table.rstrip("\n"), DISCLAIMER])
    _emit(table, args.out)
    if args.out:
        with open(args.out + ".plan.json", "w", encoding="utf-8") as fh:
            fh.write(plan_to_json(result.plan))
    return 0


def _cmd_sweep(args) -> int:
    fixed = {name: getattr(args, name) for name in ("alpha", "a", "b") if getattr(args, name) is not None}
    return _run_plan(args, [(args.axis, args.min, args.max, args.count, args.spacing)], fixed)


def _cmd_phase_map(args) -> int:
    axes = [("a", args.a_min, args.a_max, args.a_count), ("b", args.b_min, args.b_max, args.b_count)]
    return _run_plan(args, axes, {"alpha": args.alpha})


def _cmd_verify_appendix(args) -> int:
    with _request():  # its only InvalidParameterError is its n_max check
        ledger = claim_ledger(args.n_max)
    csv_text, ok = ledger.to_csv(), ledger.all_claims_hold
    tail = "all claims hold" if ok else "CLAIM FAILURE"
    payload = {
        "n_max": args.n_max,
        "all_claims_hold": ok,
        "exp5": {k: (str(v) if not isinstance(v, (bool, float, int)) else v) for k, v in ledger.exp5.items()},
        "decomposition_max_error": ledger.decomposition_max_error,
        "csv": csv_text,
    }
    _report(args, payload, [csv_text.rstrip("\n"), tail])  # the ledger CSV, then the verdict line
    if args.out:
        print(tail)  # keep the console confirmation even when the ledger goes to a file
    return 0 if ok else 1


COMMANDS = {
    "eval": _cmd_eval,
    "maximize": _cmd_maximize,
    "bgn": _cmd_bgn,
    "g-test": _cmd_g_test,
    "alpha0": _cmd_alpha0,
    "alpha-star": _cmd_alpha_star,
    "sweep": _cmd_sweep,
    "phase-map": _cmd_phase_map,
    "verify-appendix": _cmd_verify_appendix,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MTLabError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
