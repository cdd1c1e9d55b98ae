"""mtlab: a numerical laboratory for constrained exponential-growth maximization.

The package evaluates the critical-growth functional
int Phi_N(alpha |u|^{N'}) dx on radial profiles, maximizes it under the
inhomogeneous constraint ||grad u||_N^a + ||u||_N^b = 1, lower-bounds the
Gagliardo-Nirenberg best constant, brackets the attainment threshold in
alpha, and verifies the closed-form test-profile computations in exact
arithmetic.  The `mt` console script runs each of these; `mt verify-appendix`
reports the N >= 3 ledger and the e^5 chain, while the N = 2 ratio 39/40 and
C_3^2 = 27/32 are checked by acceptance criterion 01 through `n2_cubic_exact`
and `c_n_value`.

numpy loads on first use, so `mt --version`, `bgn`, `g-test`, `alpha0` and
`verify-appendix` never load it, and starts OpenBLAS with one thread, so every
command runs in one thread.  A caller who sets OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS, or who imports numpy first, keeps that.
"""

import importlib.util
import os
import sys


def _lazy_numpy():
    """numpy in sys.modules by the stdlib LazyLoader, so modules bind it as `from . import _numpy as np` (an `import
    numpy` statement loads it); one OpenBLAS worker per core would idle (a cold load took 171 ms, not 104)."""
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    load = spec.loader.exec_module

    def exec_module(module):
        if {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
            return load(module)
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            load(module)
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]

    spec.loader.exec_module = exec_module
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_numpy = sys.modules.get("numpy") or _lazy_numpy()

__version__ = "0.1.0"

from .appendix import (
    ClaimLedger,
    c_n_value,
    claim_ledger,
    gn_ratio_radial,
    n2_cubic_exact,
)
from .bounds import (
    BoundReport,
    BracketOptions,
    BracketReport,
    alpha0_nonexistence,
    bracket_alpha_star,
    c_tilde_series,
    g_function_test,
)
from .errors import (
    BracketNotFoundError,
    DegenerateProfileError,
    GridOverflowError,
    InvalidParameterError,
    MTLabError,
    SeriesOverflowError,
)
from .functional import (
    MTParams,
    constraint_terms,
    constraint_value,
    j_truncated,
    mt_integral,
    mt_integral_series,
    phi,
    universal_lower_bound,
)
from .maximize import (
    GNReport,
    MaximizeOptions,
    MaximizerReport,
    functional_gradient,
    gn_ratio,
    maximize_d,
    maximize_gn,
    project_to_constraint,
)
from .radial import (
    RadialGrid,
    RadialProfile,
    build_grid,
    critical_exponent,
    decreasing_rearrangement,
    equal_mass_grid,
    grad_norm_pow,
    lp_norm_pow,
    profile_from_csv,
    profile_to_csv,
    sample_profile,
    sphere_area,
)
from .scaling import (
    beta_star_derivative,
    dilate,
    on_constraint,
    solve_beta_star,
)
from .sweeps import AxisSpec, SweepPlan, SweepResult, run_sweep, sweep_to_csv
