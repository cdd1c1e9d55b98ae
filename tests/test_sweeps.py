import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtlab
from mtlab import AxisSpec, InvalidParameterError, MaximizeOptions, SweepPlan, critical_exponent
from mtlab.sweeps import _cell_seed, plan_to_json, run_sweep, sweep_to_csv


def light_opts(**kw):
    defaults = dict(restarts=6, n_nodes=256, seed=2)
    defaults.update(kw)
    return MaximizeOptions(**defaults)


class TestPlanValidation:
    def test_axis_errors(self):
        with pytest.raises(InvalidParameterError):
            AxisSpec("gamma", 0.1, 1.0, 4)
        with pytest.raises(InvalidParameterError):
            AxisSpec("alpha", 0.1, 1.0, 1)
        with pytest.raises(InvalidParameterError):
            AxisSpec("alpha", 1.0, 0.1, 4)

    def test_dimension_checked_when_built(self):
        with pytest.raises(InvalidParameterError):
            SweepPlan(N=1, axes=(AxisSpec("alpha", 0.5, 2.0, 3),), fixed={"a": 2.0, "b": 2.0})

    @pytest.mark.parametrize("fixed", [{"a": -1.0, "b": 2.0}, {"a": 2.0, "b": float("inf")}])
    def test_fixed_powers_checked_when_built(self, fixed):
        with pytest.raises(InvalidParameterError):
            SweepPlan(N=2, axes=(AxisSpec("alpha", 0.5, 1.0, 2),), fixed=fixed)

    def test_infinite_axis_max_rejected(self):
        with pytest.raises(InvalidParameterError):
            AxisSpec("a", 1.0, float("inf"), 2)

    def test_missing_fixed_parameter(self):
        with pytest.raises(InvalidParameterError):
            SweepPlan(N=2, axes=(AxisSpec("alpha", 0.5, 2.0, 3),), fixed={"a": 2.0})

    def test_alpha_range_checked(self):
        with pytest.raises(InvalidParameterError):
            SweepPlan(
                N=2,
                axes=(AxisSpec("alpha", 0.5, 20.0, 3),),
                fixed={"a": 2.0, "b": 2.0},
            )

    def test_negative_seed_refused(self):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
            SweepPlan(N=2, axes=(AxisSpec("alpha", 0.5, 2.0, 3),), fixed={"a": 2.0, "b": 2.0}, seed=-1)


class TestCellSeed:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**130), st.integers(0, 2**40))
    @example(0, 0)
    @example(2**32 - 1, 2**32)
    @example(2**128, 2**40)
    def test_equals_numpy_seed_sequence(self, seed, index):
        # seeds past 2^96 spill the entropy past the 4-word pool, so every mixing stage is pinned
        assert _cell_seed(seed, index) == int(np.random.SeedSequence(entropy=(seed, index)).generate_state(1)[0])

    @pytest.mark.parametrize("seed, index", [(-1, 0), (-(2**40), 3), (5, -1)])
    def test_negative_entropy_raises(self, seed, index):
        # a word split by shifting would never reach 0 on a negative int; the port raises instead of looping
        with pytest.raises(OverflowError):
            _cell_seed(seed, index)


@pytest.fixture(scope="module")
def alpha_sweep():
    plan = SweepPlan(
        N=2,
        axes=(AxisSpec("alpha", 0.5, 4.0, 6),),
        fixed={"a": 3.0, "b": 2.0},
        seed=1,
        options=light_opts(),
    )
    return plan, run_sweep(plan)


@pytest.fixture(scope="module")
def small_map():
    return run_sweep(
        SweepPlan(
            N=2,
            axes=(AxisSpec("a", 2.0, 3.0, 2), AxisSpec("b", 2.0, 8.0, 2)),
            fixed={"alpha": 3.0},
            seed=1,
            options=light_opts(),
        )
    )


class TestRunSweep:
    def test_row_count_and_order(self, alpha_sweep):
        plan, result = alpha_sweep
        assert len(result.rows) == 6
        alphas = [row.params["alpha"] for row in result.rows]
        assert alphas == sorted(alphas)

    def test_normalized_monotonicity(self, alpha_sweep):
        _, result = alpha_sweep
        normalized = [row.best_value / row.params["alpha"] for row in result.rows]
        assert all(b >= a - 1e-12 for a, b in zip(normalized, normalized[1:]))

    def test_verdict_monotone_along_alpha(self, alpha_sweep):
        _, result = alpha_sweep
        certified = [row.verdict == "attained-certified-numerically" for row in result.rows]
        first = certified.index(True)
        assert all(certified[first:])

    def test_csv_bytes_deterministic(self, alpha_sweep):
        plan, result = alpha_sweep
        again = run_sweep(plan)
        assert sweep_to_csv(result) == sweep_to_csv(again)

    def test_csv_schema(self, alpha_sweep):
        _, result = alpha_sweep
        header = sweep_to_csv(result).splitlines()[0]
        assert header == "alpha,best_value,lower_bound,margin,verdict,mode,iters,seed"

    def test_plan_json_round_trip_fields(self, alpha_sweep):
        plan, _ = alpha_sweep
        import json

        payload = json.loads(plan_to_json(plan))
        assert payload["N"] == 2
        assert payload["axes"][0]["name"] == "alpha"
        assert payload["fixed"] == {"a": 3.0, "b": 2.0}


class TestAlphaChains:
    """Each setting of the non-alpha axes chains its best profile along ascending alpha."""

    @staticmethod
    def recorded_calls(monkeypatch, axes, fixed):
        real = mtlab.sweeps.maximize_d
        calls = []

        def recorder(p, opts, extra_candidates=()):
            report = real(p, opts, extra_candidates=extra_candidates)
            calls.append((p, tuple(extra_candidates), report.best_profile))
            return report

        monkeypatch.setattr("mtlab.sweeps.maximize_d", recorder)
        run_sweep(SweepPlan(N=2, axes=axes, fixed=fixed, seed=3, options=light_opts(restarts=2, n_nodes=64)))
        return calls

    @pytest.mark.parametrize(
        "axes",
        [
            (AxisSpec("alpha", 0.5, 4.0, 3), AxisSpec("b", 1.0, 4.0, 2)),
            (AxisSpec("b", 1.0, 4.0, 2), AxisSpec("alpha", 0.5, 4.0, 3, "log")),
        ],
        ids=["alpha-b", "b-alpha"],
    )
    def test_previous_alpha_of_the_same_setting_is_injected(self, monkeypatch, axes):
        calls = self.recorded_calls(monkeypatch, axes, {"a": 3.0})
        assert len(calls) == 6
        for p, extra, _ in calls:
            below = [(q.alpha, best) for q, _, best in calls if q.b == p.b and q.alpha < p.alpha]
            expected = (max(below, key=lambda item: item[0])[1],) if below else ()
            assert [id(u) for u in extra] == [id(u) for u in expected]

    def test_no_chain_without_an_alpha_axis(self, monkeypatch):
        axes = (AxisSpec("a", 2.0, 3.0, 2), AxisSpec("b", 1.0, 4.0, 2))
        calls = self.recorded_calls(monkeypatch, axes, {"alpha": 3.0})
        assert len(calls) == 4
        assert all(extra == () for _, extra, _ in calls)


class TestUncertifiedSideValue:
    def test_normalized_value_is_one_below_threshold(self):
        # where no verdict is possible the computed value sits at the
        # universal lower bound itself
        plan = SweepPlan(
            N=2,
            axes=(AxisSpec("alpha", 0.05, 0.3, 3),),
            fixed={"a": 2.0, "b": 2.0},
            seed=1,
            options=light_opts(),
        )
        result = run_sweep(plan)
        for row in result.rows:
            assert row.verdict == "no-verdict"
            assert abs(row.best_value / row.lower_bound - 1.0) <= 1e-6


class TestRegimeAndFailureRows:
    def test_infinite_sup_cell_flagged(self):
        a2 = critical_exponent(2)
        plan = SweepPlan(
            N=2,
            axes=(AxisSpec("alpha", a2 / 2, a2, 3),),
            fixed={"a": 2.0, "b": 3.0},
            seed=1,
            options=light_opts(),
        )
        result = run_sweep(plan)
        last = result.rows[-1]
        assert last.verdict == "infinite-sup-regime"
        assert last.best_value is None
        assert all(row.verdict != "infinite-sup-regime" for row in result.rows[:-1])
        # b = N at alpha_N has a finite supremum: the cell is solved, not an error row
        at_n = run_sweep(SweepPlan(N=2, axes=plan.axes, fixed={"a": 2.0, "b": 2.0}, seed=1, options=light_opts()))
        assert all(row.verdict not in ("error", "infinite-sup-regime") for row in at_n.rows)
        assert at_n.rows[-1].best_value >= at_n.rows[-1].lower_bound

    def test_cell_failures_recorded_not_raised(self, monkeypatch):
        calls = {"n": 0}

        def exploding(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("injected")

        monkeypatch.setattr("mtlab.sweeps.maximize_d", exploding)
        plan = SweepPlan(
            N=2,
            axes=(AxisSpec("alpha", 0.5, 1.0, 2),),
            fixed={"a": 2.0, "b": 2.0},
            seed=1,
            options=light_opts(),
        )
        result = run_sweep(plan)
        assert calls["n"] == 2
        assert all(row.verdict == "error" for row in result.rows)
        assert all(row.mode == "RuntimeError" for row in result.rows)


class TestPhaseMap:
    def test_supercritical_row_certified(self, small_map):
        for row in small_map.rows:
            if row.params["a"] == 3.0:
                assert row.verdict == "attained-certified-numerically"

    def test_conjugate_large_b_certified(self, small_map, gn_report_n2):
        # a = N' = 2 with b = 8 > N^2/(alpha bgn) ~ 7.8: the GN-family cell
        bgn = gn_report_n2.bgn_estimate
        assert 8.0 > 4.0 / (3.0 * bgn)
        for row in small_map.rows:
            if row.params["a"] == 2.0 and row.params["b"] == 8.0:
                assert row.verdict == "attained-certified-numerically"

    def test_small_alpha_conjugate_cell_uncertified(self):
        result = run_sweep(
            SweepPlan(
                N=2,
                axes=(AxisSpec("a", 2.0, 3.0, 2), AxisSpec("b", 2.0, 4.0, 2)),
                fixed={"alpha": 0.05},
                seed=1,
                options=light_opts(),
            )
        )
        for row in result.rows:
            if row.params["a"] == 2.0 and row.params["b"] == 2.0:
                assert row.verdict == "no-verdict"
                assert row.mode == "near-vanishing"
