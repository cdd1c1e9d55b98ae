"""Deterministic parameter sweeps over (alpha, a, b).

A sweep is a cartesian grid over one or two parameter axes with the
remaining problem parameters fixed.  Each cell runs the maximizer with a
seed derived stably from (global seed, cell index), so reruns are
byte-identical.  Cells run one after another in a single thread.

A cell's verdict is the maximizer report's `exceeds_lower_bound`, spelled
with the verdict strings of `bounds.py`; cells in the infinite-supremum
regime and cells that raise get the `infinite-sup-regime` and `error`
rows instead.  A plan is valid iff `MTParams` accepts its cell where
every axis takes its max.

Cells run in grid order.  Cells that differ only in alpha form a chain:
the best profile found at a lower alpha is injected as a candidate at
the chain's next one, and since every axis ascends, a chain meets its
alphas in ascending order.  Evaluating a fixed profile at a larger alpha
strictly increases the normalized objective (N-1)!/alpha^{N-1} * F, so
the chained sweep inherits the monotonicity of the normalized supremum
instead of fighting optimizer noise.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

from . import _numpy as np
from .bounds import VERDICT_CERTIFIED, VERDICT_ERROR, VERDICT_INFINITE_SUP, VERDICT_NONE
from .errors import InvalidParameterError
from .functional import CERTIFY_MARGIN, MTParams
from .maximize import MaximizeOptions, maximize_d

__all__ = [
    "AxisSpec",
    "SweepPlan",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "sweep_to_csv",
    "plan_to_json",
]

AXIS_NAMES = ("alpha", "a", "b")


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: name, range, count and spacing."""

    name: str
    min: float
    max: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise InvalidParameterError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if self.count < 2:
            raise InvalidParameterError("axis count must be >= 2")
        if not (0 < self.min < self.max < np.inf):
            raise InvalidParameterError("axis range must satisfy 0 < min < max < inf")
        if self.spacing not in ("linear", "log"):
            raise InvalidParameterError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.min, self.max, self.count)
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class SweepPlan:
    """Axes, fixed parameters and optimizer options for one sweep."""

    N: int
    axes: tuple[AxisSpec, ...]
    fixed: dict
    seed: int = 1
    options: MaximizeOptions = field(default_factory=MaximizeOptions)

    def __post_init__(self):
        if not self.axes or len(self.axes) > 2:
            raise InvalidParameterError("a sweep needs one or two axes")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise InvalidParameterError("axis names must be distinct")
        for name in AXIS_NAMES:
            if (name in names) == (name in self.fixed):
                raise InvalidParameterError(f"parameter {name!r} must be either swept or fixed, not both or neither")
        # every axis takes its max here: alpha's binds (0, alpha_N], the rest bind finiteness
        top = {**self.fixed, **{ax.name: ax.max for ax in self.axes}}
        MTParams(N=self.N, alpha=top["alpha"], a=top["a"], b=top["b"])
        replace(self.options, seed=self.seed)  # the plan's seed obeys the options' seed rule

    def axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)

    def cells(self) -> list[dict]:
        """Cell parameters, the last axis varying fastest."""
        grids = itertools.product(*(ax.values() for ax in self.axes))
        return [dict(zip(self.axis_names(), map(float, values))) for values in grids]

    def to_json_dict(self) -> dict:
        out = dict(asdict(self), margin=CERTIFY_MARGIN)
        # options.seed is replaced per cell, and a sweep never runs an infinite-regime cell
        del out["options"]["seed"], out["options"]["allow_infinite_regime"]
        return out


@dataclass(frozen=True)
class SweepRow:
    """One cell's outcome; a cell that ran no maximization keeps the empty defaults."""

    params: dict
    verdict: str
    seed: int
    best_value: float | None = None
    lower_bound: float | None = None
    margin: float | None = None
    mode: str = ""
    iterations: int = 0


@dataclass(frozen=True)
class SweepResult:
    plan: SweepPlan
    rows: tuple[SweepRow, ...]


_MASK32 = 0xFFFFFFFF


def _cell_seed(global_seed: int, index: int) -> int:
    """numpy's SeedSequence(entropy=(global_seed, index)).generate_state(1)[0], bit for bit, without numpy.random.

    Each int splits into 32-bit words, least significant first (to_bytes refuses a negative one); the words
    fill and mix a 4-word pool as in O'Neill's seed_seq, and the first pool word, hashed once more, is the seed.
    """
    entropy = []
    for n in (global_seed, index):
        raw = n.to_bytes(4 * max(1, (n.bit_length() + 31) // 32), "little")
        entropy += [int.from_bytes(raw[i : i + 4], "little") for i in range(0, len(raw), 4)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(1): one output word, the first pool word hashed with its own constants
    value = (pool[0] ^ 0x8B51F9DD) * (0x8B51F9DD * 0x58F38DED & _MASK32) & _MASK32
    return value ^ value >> 16


def _run_cell(plan: SweepPlan, index: int, cell: dict, extra) -> tuple[SweepRow, object]:
    params_dict = dict(plan.fixed)
    params_dict.update(cell)
    seed = _cell_seed(plan.seed, index)
    try:
        p = MTParams(N=plan.N, alpha=params_dict["alpha"], a=params_dict["a"], b=params_dict["b"])
        if not p.finite_supremum:
            return SweepRow(params=params_dict, verdict=VERDICT_INFINITE_SUP, seed=seed), None
        opts = replace(plan.options, seed=seed)
        report = maximize_d(p, opts, extra_candidates=extra)
        row = SweepRow(
            params=params_dict,
            best_value=report.best_value,
            lower_bound=report.lower_bound,
            margin=report.margin,
            verdict=VERDICT_CERTIFIED if report.exceeds_lower_bound else VERDICT_NONE,
            mode=report.mode_diagnostic,
            iterations=report.iterations,
            seed=seed,
        )
        return row, report.best_profile
    except Exception as exc:  # per-cell failures never abort the sweep
        return SweepRow(params=params_dict, verdict=VERDICT_ERROR, seed=seed, mode=type(exc).__name__), None


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Execute the plan serially in cell-grid order, chaining each setting of the non-alpha axes along alpha."""
    chains: dict = {}
    rows = []
    for index, cell in enumerate(plan.cells()):
        key = tuple(v for k, v in cell.items() if k != "alpha")
        row, best_profile = _run_cell(plan, index, cell, chains.get(key, ()))
        rows.append(row)
        if best_profile is not None:
            chains[key] = (best_profile,)
    return SweepResult(plan=plan, rows=tuple(rows))


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def sweep_to_csv(result: SweepResult) -> str:
    """CSV rows in grid order; 17 significant digits for reproducible bytes."""
    names = result.plan.axis_names()
    buf = io.StringIO()
    buf.write(",".join(names) + ",best_value,lower_bound,margin,verdict,mode,iters,seed\n")
    for row in result.rows:
        lead = ",".join(_fmt(row.params[n]) for n in names)
        buf.write(
            f"{lead},{_fmt(row.best_value)},{_fmt(row.lower_bound)},{_fmt(row.margin)},"
            f"{row.verdict},{row.mode},{row.iterations},{row.seed}\n"
        )
    return buf.getvalue()


def plan_to_json(plan: SweepPlan) -> str:
    return json.dumps(plan.to_json_dict(), indent=2, sort_keys=True)
