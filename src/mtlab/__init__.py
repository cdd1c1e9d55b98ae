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
"""

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
