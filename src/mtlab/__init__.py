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

Importing mtlab before numpy starts numpy's OpenBLAS with one thread, so
every command runs in a single thread.  A caller who sets
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, or who imports
numpy first, keeps that choice.
"""

import os
import sys

# OpenBLAS starts one worker per core when numpy loads, and mtlab's BLAS calls (1-D dots, leggauss's small
# eigenproblems) never use it: on 2 cores the idle worker made a cold `import numpy` take 171 ms instead of
# 104 ms and cost each cold `mt` command about 0.13 s of CPU.  The variable is removed again, so child
# processes and later code see the environment as they found it.
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
