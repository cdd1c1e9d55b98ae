import numpy as np
import pytest

import mtlab
from mtlab.maximize import _pl_norm_pows, cached_gn_report


@pytest.fixture(scope="session")
def gn_report_n2():
    return cached_gn_report(2)


@pytest.fixture(scope="session")
def gn_report_n3():
    return cached_gn_report(3)


@pytest.fixture(scope="session")
def gn_report_n4():
    return cached_gn_report(4)


@pytest.fixture(scope="session")
def fast_opts():
    """Light optimizer settings for tests that only need qualitative behavior."""
    return mtlab.MaximizeOptions(restarts=8, n_nodes=256, seed=5)


def random_monotone_profile(grid, rng, amplitude=1.0):
    """Non-increasing random profile: cumulative sums of random decrements."""
    steps = rng.random(grid.n_nodes)
    vals = np.cumsum(steps[::-1])[::-1]
    return mtlab.RadialProfile(grid, amplitude * vals / vals.max())


def smooth_bump_profile(grid, rng, n_bumps=3):
    """Random smooth mixture of Gaussian bumps (possibly off-center)."""
    r = grid.nodes
    vals = np.zeros_like(r)
    for _ in range(n_bumps):
        center = rng.uniform(0.0, 0.6 * grid.r_max)
        width = rng.uniform(grid.r_max / 15.0, grid.r_max / 4.0)
        amp = rng.uniform(0.2, 1.0)
        vals += amp * np.exp(-(((r - center) / width) ** 2))
    return mtlab.RadialProfile(grid, vals)


def edge_values(grid, values):
    """Values at grid.cell_edges(): the nodal values, then 0 at a decay node (r_max, 0)."""
    return np.concatenate([values, [0.0]]) if grid.r_max > grid.nodes[-1] else values


def pl_nodes(u):
    """The nodes (r_k, v_k) of a profile's PL interpolant: constant on [0, r_1], then to 0 at a decay node r_max."""
    return [0.0, *map(float, u.grid.cell_edges())], [float(u.values[0]), *map(float, edge_values(u.grid, u.values))]


def pl_norm_pow(u, p):
    """||u||_p^p of a profile's PL interpolant, by the float Gauss rule of the GN ratio."""
    return _pl_norm_pows(u.grid.N, *pl_nodes(u), (p,))[1]
