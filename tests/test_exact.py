from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import CANONICAL_WEIGHTS, random_functional_spec
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import poisson as poisson_dist

from poisson_malliavin import (
    BoundaryLeakError,
    BudgetExceededError,
    ExactBackend,
    GroundSpace,
    Mean,
    StateTable,
    TruncationError,
    TruncationPlan,
    affine_of,
    bounded_sigmoid,
    build_generator_matrix,
    constant,
    deterministic_field,
    duality_check,
    exact_expectation,
    functional_from_spec,
    functional_times_indicator,
    linear_count,
    ou_pseudo_inverse,
    plan_truncation,
    poly_count,
    site_indicator_field,
)
from poisson_malliavin import exact as exact_module
from poisson_malliavin.errors import ConfigError, ShapeError, SolverError
from poisson_malliavin.exact import _site_eigen
from poisson_malliavin.identities import mecke_kernel


def _record_factors(monkeypatch) -> list:
    """Keep every LU factor ``spla.splu`` returns while the test runs."""
    factors = []
    splu = spla.splu

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", recording_splu)
    return factors


def _coo_generator(table) -> tuple[sp.csr_matrix, float]:
    """The generator and its boundary leak assembled from the (S, n) counts:
    one COO entry per in-box jump, the diagonal keeping the full outflow."""
    space = table.space
    caps = np.asarray(table.plan.caps, dtype=np.int64)
    counts = table.states
    S, n = counts.shape
    idx = np.arange(S, dtype=np.int64)
    strides = exact_module._box_strides(caps + 1)

    rows, cols, data = [], [], []
    diag = np.zeros(S, dtype=np.float64)
    for z in range(n):
        lam = space.weights[z]
        up_ok = counts[:, z] < caps[z]
        rows.append(idx[up_ok])
        cols.append(idx[up_ok] + strides[z])
        data.append(np.full(int(up_ok.sum()), lam))
        diag -= lam

        down_ok = counts[:, z] > 0
        rows.append(idx[down_ok])
        cols.append(idx[down_ok] - strides[z])
        data.append(counts[down_ok, z].astype(np.float64))
        diag -= counts[:, z]

    rows.append(idx)
    cols.append(idx)
    data.append(diag)
    matrix = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(S, S),
    )
    at_cap = counts == caps
    return matrix, float(table.probs @ (at_cap @ space.weights_array))


def _site_chain(lam: float, cap: int) -> np.ndarray:
    """Conservative generator of one site on {0..cap}, dense: birth rate lam
    below the cap, death rate k at level k, reflected at the cap."""
    k = np.arange(cap + 1, dtype=np.float64)
    outflow = k + np.where(k < cap, lam, 0.0)
    return np.diag(k[1:], -1) - np.diag(outflow) + np.diag(np.full(cap, lam), 1)


def _dense_grounded_reference(F, table):
    """The conservative generator grounded at the mode, solved dense and
    re-centred; returns it with F's state vector."""
    gen = build_generator_matrix(table)
    f = F.batch(table.states)
    centered = f - float(table.probs @ f) / table.total_prob
    killed = (table.states == np.asarray(table.plan.caps)) @ table.space.weights_array
    A = gen.matrix.toarray() + np.diag(killed)
    keep = np.arange(table.state_count) != np.argmax(table.probs)
    y = np.zeros(table.state_count)
    y[keep] = np.linalg.solve(A[np.ix_(keep, keep)], centered[keep])
    return y - float(table.probs @ y) / table.total_prob, f


class TestPlanTruncation:
    def test_tail_bound_within_tolerance(self, space):
        plan = plan_truncation(space, 1e-12)
        assert 0.0 < plan.tail_bound <= 1e-12
        assert all(cap >= 1 for cap in plan.caps)

    def test_caps_minimal_against_scipy(self, space):
        # oracle: P(Poisson(lam) > K) = poisson.sf(K, lam); each site gets an
        # equal share of the tolerance
        tol = 1e-12
        share = tol / space.n
        plan = plan_truncation(space, tol)
        for lam, cap in zip(space.weights, plan.caps):
            assert poisson_dist.sf(cap, lam) <= share
            if cap > 1:
                assert poisson_dist.sf(cap - 1, lam) > share

    def test_tiny_weight_small_cap(self):
        space = GroundSpace((1e-6,))
        plan = plan_truncation(space, 1e-9)
        assert plan.caps[0] <= 2
        assert plan.tail_bound <= 1e-9
        # oracle sanity: cap 2 more than suffices
        assert poisson_dist.sf(2, 1e-6) < 1e-18

    def test_degenerate_tolerance(self, space):
        # tolerances >= 1 are satisfiable by the smallest positive caps
        plan = plan_truncation(space, 1.0)
        assert all(cap >= 1 for cap in plan.caps)
        assert plan.tail_bound <= 1.0

    def test_rejects_nonpositive_tolerance(self, space):
        with pytest.raises(ValueError):
            plan_truncation(space, 0.0)

    def test_budget_exceeded_reports_required(self, space):
        with pytest.raises(BudgetExceededError) as err:
            plan_truncation(space, 1e-12, budget=10)
        assert err.value.required > 10
        assert err.value.budget == 10

    @pytest.mark.parametrize(
        "tol, budget", [(float("nan"), 10), (float("inf"), 10), ("1e-9", 10), (1e-9, 0), (1e-9, 2.5)]
    )
    def test_bad_tolerance_or_budget_is_config_error(self, space, tol, budget):
        with pytest.raises(ConfigError, match="^(tolerance|budget) must be"):
            plan_truncation(space, tol, budget)

    def test_no_cap_below_max_is_config_error(self, monkeypatch):
        monkeypatch.setattr(exact_module, "_MAX_CAP", 50)
        assert plan_truncation(GroundSpace((10.0,)), 1e-12).caps == (39,)
        with pytest.raises(ConfigError, match="^no cap below 50 reaches tail share"):
            plan_truncation(GroundSpace((100.0,)), 1e-12)


def _assert_smallest_cap(lam: float, share: float, cap: int, tail: float) -> None:
    """``cap`` is the smallest cap >= 1 whose tail, scipy's
    ``poisson.sf(cap, lam)``, is at most ``share`` (up to the 1e-10 boundary
    slack of ``TestLargeWeights``), and ``tail`` is that tail."""
    sf = poisson_dist.sf(cap, lam)
    assert sf <= share * (1.0 + 1e-10)
    if cap > 1:
        assert poisson_dist.sf(cap - 1, lam) > share * (1.0 - 1e-10)
    assert tail == pytest.approx(sf, rel=1e-12)


class TestCapSearch:
    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0])
    def test_caps_and_tails_equal_linear_search(self, lam):
        for tol in (1e-3, 1e-5, 1e-8, 1e-11, 1e-14):
            plan = plan_truncation(GroundSpace((lam,)), tol)
            _assert_smallest_cap(lam, tol, plan.caps[0], plan.site_tails[0])

    def test_sites_search_their_share(self, space):
        plan = plan_truncation(space, 1e-9)
        for lam, cap, tail in zip(space.weights, plan.caps, plan.site_tails):
            _assert_smallest_cap(lam, 1e-9 / space.n, cap, tail)

    def test_large_weight_plans_in_under_a_second(self):
        start = time.perf_counter()
        plan = plan_truncation(GroundSpace((1e4,)), 1e-12)
        assert time.perf_counter() - start < 1.0
        (cap,) = plan.caps
        assert plan.site_tails[0] <= 1e-12 < poisson_dist.sf(cap - 1, 1e4)
        with pytest.raises(BudgetExceededError):
            plan_truncation(GroundSpace((1e4, 1e4)), 1e-12)

    def test_unreachable_cap_is_refused_fast(self):
        """Every cap of weight 1e5 is read off one pmf vector of 1.2e5 terms,
        and none up to 1e5 reaches the share."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ConfigError, match="^no cap below 100000 "):
                plan_truncation(GroundSpace((1e5,)), 1e-12)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1
        assert poisson_dist.sf(100_000, 1e5) > 1e-12

    @pytest.mark.parametrize("lam", [1e9, 1e19])
    def test_mass_past_the_largest_cap_is_refused_without_a_vector(self, lam, monkeypatch):
        """A weight whose mass lies wholly past ``_MAX_CAP`` is refused
        before any pmf vector is made (one would hold about lam entries),
        and a share >= 1 takes cap 1 with tail 1 on it; a weight with a
        vector gets its own tail."""
        made = []
        pmf_vector = exact_module._poisson_pmf_vector
        monkeypatch.setattr(
            exact_module, "_poisson_pmf_vector",
            lambda w, cap: made.append(w) or pmf_vector(w, cap),
        )
        with pytest.raises(ConfigError, match="^no cap below 100000 reaches tail share"):
            plan_truncation(GroundSpace((lam,)), 0.5)
        plan = plan_truncation(GroundSpace((lam, 1.0)), 2.0)
        assert plan.caps == (1, 1)
        assert plan.site_tails[0] == 1.0
        assert plan.site_tails[1] == pytest.approx(poisson_dist.sf(1, 1.0), rel=1e-14)
        assert made == [1.0]

    @pytest.mark.parametrize("lam", [0.01, 0.5, 3.0, 30.0, 300.0, 700.0])
    def test_tails_and_plans_unchanged_where_exp_does_not_underflow(self, lam):
        # the caps the earlier doubling-and-bisection search chose
        caps = {
            0.01: [(1, 6), (3, 11), (5, 14), (5, 16)],
            0.5: [(4, 6), (8, 11), (11, 14), (13, 16)],
            3.0: [(10, 6), (17, 11), (22, 14), (24, 16)],
            30.0: [(50, 6), (66, 11), (77, 14), (81, 16)],
            300.0: [(359, 6), (404, 11), (432, 14), (444, 16)],
            700.0: [(789, 6), (857, 11), (897, 14), (914, 16)],
        }[lam]
        tols = (1e-3, 1e-8, 1e-12, 1e-14)
        plans = [plan_truncation(GroundSpace((lam, 1.0)), tol) for tol in tols]
        assert [plan.caps for plan in plans] == caps
        for tol, plan in zip(tols, plans):
            for w, cap, tail in zip((lam, 1.0), plan.caps, plan.site_tails):
                _assert_smallest_cap(w, tol / 2, cap, tail)

    def test_tail_below_an_underflowing_mode_is_one(self):
        # scipy's tails of these caps are 1 to double precision, so no share
        # below 1 takes them
        for lam, cap in [(1e3, 50), (1e4, 5000), (1e5, 80_000)]:
            assert poisson_dist.sf(cap, lam) == 1.0
            assert exact_module._smallest_cap(lam, 1.0 - 1e-12)[0] > cap

    @pytest.mark.parametrize("lam", [1e3, 1e4, 5e4])
    def test_tails_within_1e_13_of_scipy_at_large_weights(self, lam):
        """Tails summed from the far end of the pmf vector stay within
        1e-13 relative of scipy's, which is within 2.5e-14 of 50-digit
        arithmetic here."""
        for tol in (0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            plan = plan_truncation(GroundSpace((lam,)), tol)
            sf = poisson_dist.sf(plan.caps[0], lam)
            assert plan.site_tails[0] == pytest.approx(sf, rel=1e-13, abs=0.0), tol

    @pytest.mark.parametrize(
        "weights, tol, caps",
        [
            (CANONICAL_WEIGHTS, 1e-12, (11, 14, 17)),
            ((1.0,) * 5, 1e-9, (12,) * 5),
            ((0.3,) * 4, 1e-8, (7,) * 4),
            ((0.3,) * 4, 1e-9, (8,) * 4),
            ((0.3,) * 4, 1e-10, (9,) * 4),
        ],
        ids=["canonical", "exact_scale", "ou_solve 1e-8", "ou_solve 1e-9", "ou_solve 1e-10"],
    )
    def test_benchmark_boxes_pinned(self, weights, tol, caps):
        assert plan_truncation(GroundSpace(weights), tol).caps == caps


class TestLargeWeights:
    """exp(-lam) underflows above lam ~ 708; the tails and the pmf must not."""

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.floats(min_value=1e-3, max_value=300.0),
        tol=st.sampled_from([1e-12, 1e-9, 1e-4, 0.5]),
    )
    def test_tail_and_box_mass_against_scipy(self, lam, tol):
        space = GroundSpace((lam,))
        table = StateTable.from_tolerance(space, tol)
        (cap,) = table.plan.caps
        tail = table.plan.tail_bound
        # the tail bound never falls below the true tail by more than rounding
        assert tail >= poisson_dist.sf(cap, lam) * (1.0 - 1e-10)
        assert tail <= tol
        if cap > 1:
            assert poisson_dist.sf(cap - 1, lam) > tol * (1.0 - 1e-10)
        assert table.total_prob == pytest.approx(poisson_dist.cdf(cap, lam), rel=1e-11)

    @pytest.mark.parametrize("lam", [740.0, 760.0])
    def test_weight_past_exp_underflow(self, lam):
        table = StateTable.from_tolerance(GroundSpace((lam,)), 1e-12)
        (cap,) = table.plan.caps
        assert cap > lam
        assert 0.0 < table.plan.tail_bound <= 1e-12
        assert table.plan.tail_bound >= poisson_dist.sf(cap, lam) * (1.0 - 1e-10)
        assert 1.0 - table.plan.tail_bound - 1e-14 <= table.total_prob <= 1.0
        for k in [int(lam) - 100, int(lam), int(lam) + 100, cap]:
            assert table.probs[k] == pytest.approx(poisson_dist.pmf(k, lam), rel=1e-11)

    def test_build_rejects_mass_below_tail_bound(self):
        # caps (1,) on weight 5 keep P(N <= 1) = 6 e^-5, far below 1 - 0
        plan = TruncationPlan((1,), (0.0,), 0.0)
        with pytest.raises(TruncationError):
            StateTable.build(GroundSpace((5.0,)), plan)


class TestStateTable:
    def test_normalization(self, space):
        table = StateTable.from_tolerance(space, 1e-12)
        assert 1.0 - table.plan.tail_bound <= table.total_prob <= 1.0 + 1e-15
        assert (table.probs > 0.0).all()

    def test_lexicographic_order(self, space):
        table = StateTable.from_tolerance(space, 1e-12)
        states = table.states
        assert states[0].tolist() == [0, 0, 0]
        assert states[1].tolist() == [0, 0, 1]  # last site varies fastest
        flat = [tuple(s) for s in states]
        assert flat == sorted(flat)

    @pytest.mark.parametrize("weights, tol", [((0.5, 1.0, 1.5), 1e-12), ((0.7, 2.3, 0.05, 1.1), 1e-6)])
    def test_states_equal_meshgrid(self, weights, tol):
        table = StateTable.from_tolerance(GroundSpace(weights), tol)
        grids = np.meshgrid(
            *[np.arange(cap + 1, dtype=np.int64) for cap in table.plan.caps], indexing="ij"
        )
        expected = np.stack(grids, axis=-1).reshape(-1, len(weights))
        assert table.states.dtype == expected.dtype
        assert table.states.tobytes() == expected.tobytes()

    def test_build_peak_is_the_table(self):
        # 5 unit-weight sites at tol 1e-9: 13^5 = 371,293 states
        space = GroundSpace((1.0,) * 5)
        plan = plan_truncation(space, 1e-9)
        tracemalloc.start()
        try:
            table = StateTable.build(space, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.state_count == 371_293
        assert peak <= 1.15 * (table.states.nbytes + table.probs.nbytes)

    def test_probs_match_independent_pmf_product(self, space):
        table = StateTable.from_tolerance(space, 1e-8)
        idx = [0, 7, len(table.probs) // 2, len(table.probs) - 1]
        for i in idx:
            s = table.states[i]
            expected = np.prod(
                [poisson_dist.pmf(k, lam) for k, lam in zip(s, space.weights)]
            )
            assert table.probs[i] == pytest.approx(expected, rel=1e-12)


class TestExactExpectation:
    def test_means_reduce_the_table_once(self, space, exact):
        """Expectations and paired sweeps are the pairwise sums
        ``np.sum(probs * values)`` with tail_bound times the certified bound
        or the enumerated sup."""
        states, probs = exact.table.states, exact.table.probs
        S, tail = exact.state_count, exact.tail_bound
        F = bounded_sigmoid(space, [1, 2], 1.0)
        assert exact.expectation(F) == Mean(
            float(np.sum(probs * F.batch(states))), S, error_bound=tail * F.bound
        )
        kernel = mecke_kernel(functional_times_indicator(space, [1, 3], F))
        lhs, rhs = kernel(states)
        diff = lhs - rhs
        assert exact.paired(kernel) == (
            float(np.sum(probs * lhs)),
            float(np.sum(probs * rhs)),
            Mean(float(np.sum(probs * diff)), S, error_bound=tail * float(np.abs(diff).max())),
        )

    def test_report_bytes_do_not_depend_on_blas_threads(self):
        """The exact report on a 28,561-state box is the same byte for byte
        with one BLAS thread and with two: every printed mean is one
        pairwise sum, not a BLAS dot product, which OpenBLAS splits across
        threads on a table this long.  The thread count is set in each
        child's environment only."""
        config = {
            "space": {"weights": [1.0, 1.0, 1.0, 1.0]},
            "truncation": {"tol": 1e-9},
            "cases": [
                {"identity": "mecke", "u": {"name": "deterministic", "values": [1.0] * 4}},
                {
                    "identity": "duality",
                    "F": {"name": "poly_count", "B": [1, 2], "degree": 2},
                    "u": {"name": "site_indicator", "B": [1, 3]},
                },
            ],
        }
        script = (
            "import json, sys\n"
            "from poisson_malliavin import parse_config, reports_to_json, run_suite\n"
            "print(reports_to_json(run_suite(parse_config(json.loads(sys.argv[1])), 'exact')))"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(config)],
                env=env, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
            )
            reports.append(proc.stdout)
        assert '"n": 28561' in reports[0]
        assert reports[0] == reports[1]

    def test_poisson_mean(self, space, exact):
        F = linear_count(space, list(space.sites))
        res = exact_expectation(F, exact.table)
        assert res.value == pytest.approx(3.0, abs=1e-10 + res.error_bound)

    def test_poisson_second_moment(self, space, exact):
        # oracle: E N^2 = lam + lam^2 for N ~ Poisson(lam), lam = nu(Z) = 3
        F = poly_count(space, [1, 2, 3], 2)
        res = exact_expectation(F, exact.table)
        assert res.value == pytest.approx(12.0, abs=1e-10 + res.error_bound)

    def test_normalization_functional(self, space, exact):
        res = exact_expectation(constant(space, 1.0), exact.table)
        # rounding slack: the sum sits exactly at the tail boundary
        assert 1.0 - exact.tail_bound - 1e-15 <= res.value <= 1.0 + 1e-15
        # certified bound: tail mass times sup-norm
        assert res.error_bound == pytest.approx(exact.tail_bound)

    def test_heuristic_bound_uses_enumerated_sup(self, space, exact):
        F = linear_count(space, [1])
        res = exact_expectation(F, exact.table)
        sup = float(np.abs(F.batch(exact.table.states)).max())
        assert res.error_bound == pytest.approx(exact.tail_bound * sup)

    def test_mean_matches_measure_for_every_singleton(self, space, exact):
        for z in space.sites:
            F = linear_count(space, [z])
            res = exact_expectation(F, exact.table)
            nu = space.weights[z - 1]
            assert abs(res.value - nu) <= 1e-10 + res.error_bound

    def test_mean_needs_one_value_per_state(self, space, exact):
        S = exact.state_count
        for values in (np.ones(5), np.ones(S + 1), np.ones((S, 1))):
            message = rf"one value per row, shape \({S},\), got shape {re.escape(str(values.shape))}"
            with pytest.raises(ShapeError, match=message):
                exact.mean(values)
            with pytest.raises(ShapeError, match=message):
                exact_expectation(constant(space, 1.0), exact.table, values)
        assert exact.mean(np.ones(S)).value == float(np.sum(exact.table.probs))


class TestExactPairing:
    """The pairing E int u D+F dnu is the right-hand side of the duality
    check's paired sweep."""

    def test_zero_field(self, space, exact):
        u = deterministic_field(space, [0.0, 0.0, 0.0])
        F = poly_count(space, [1, 2], 2)
        assert duality_check(F, u, exact).rhs == 0.0

    def test_indicator_pairing_equals_measure(self, space, exact):
        B = [1, 2]
        F = linear_count(space, B)
        u = site_indicator_field(space, B)
        assert duality_check(F, u, exact).rhs == pytest.approx(1.5, abs=1e-10)

    def test_pairing_matches_divergence_expectation(self, space, exact):
        """Duality at the oracle level: E[F delta u] computed as a plain
        expectation agrees with the pairing sweep."""
        from poisson_malliavin.functionals import add_diff_all
        from poisson_malliavin.operators import divergence_batch

        sig = bounded_sigmoid(space, [1, 2], 1.0)
        pairs = [
            (linear_count(space, [1, 2]), deterministic_field(space, [1.0, -0.5, 2.0])),
            (sig, functional_times_indicator(space, [1, 3], sig)),
            (poly_count(space, [1, 2, 3], 2), site_indicator_field(space, [2])),
        ]
        w = space.weights_array
        for F, u in pairs:
            report = duality_check(F, u, exact)
            pairing = report.rhs
            vals = F.batch(exact.table.states) * divergence_batch(
                u, exact.table.states
            )
            direct = float(np.sum(exact.table.probs * vals))
            pair_vals = (
                w * u.values(exact.table.states) * add_diff_all(F, exact.table.states)
            ).sum(-1)
            # the paired sweep reduces exactly these per-state values
            assert report.lhs == direct
            assert pairing == float(np.sum(exact.table.probs * pair_vals))
            # duality holds in full expectation; on the box the sides differ
            # by at most the omitted mass times the kernels' enumerated sups
            slack = exact.tail_bound * (
                float(np.abs(vals).max()) + float(np.abs(pair_vals).max())
            )
            assert pairing == pytest.approx(direct, abs=1e-10 + slack)


class TestMeckeAtOracleLevel:
    def test_bounded_fields(self, space, exact):
        table = exact.table
        w = space.weights_array
        for u in [
            deterministic_field(space, [1.0, -0.5, 2.0]),
            functional_times_indicator(
                space, [1, 2], bounded_sigmoid(space, [1, 2], 1.0)
            ),
            site_indicator_field(space, [1, 3]),
        ]:
            lhs = float(table.probs @ (table.states * u.values(table.states)).sum(-1))
            rhs = 0.0
            for z in space.sites:
                shifted = table.states.copy()
                shifted[:, z - 1] += 1
                rhs += w[z - 1] * float(
                    table.probs @ u.values(shifted)[:, z - 1]
                )
            bound = (u.bound or 1.0) * (3.0 + space.total_mass)
            assert lhs == pytest.approx(rhs, abs=1e-10 + exact.tail_bound * bound * 50)


class TestGeneratorMatrix:
    @pytest.mark.parametrize(
        "weights, tol",
        [
            (CANONICAL_WEIGHTS, 1e-12),  # the conftest table
            ((2.0,), 1e-12),
            ((0.3,) * 4, 1e-8),
            ((0.3,) * 4, 1e-10),
            ((0.01,) * 11, 1e-3),
            ((300.0, 0.3), 1e-6),
            ((8.0, 0.2, 3.0), 1e-12),
        ],
    )
    def test_bands_equal_coo_assembly_bit_for_bit(self, weights, tol):
        table = StateTable.from_tolerance(GroundSpace(weights), tol)
        gen = build_generator_matrix(table)
        matrix, leak = _coo_generator(table)
        for field in ("indptr", "indices", "data"):
            expected = getattr(matrix, field)
            assert getattr(gen.matrix, field).dtype == expected.dtype
            assert getattr(gen.matrix, field).tobytes() == expected.tobytes()
        assert gen.boundary_leak.hex() == leak.hex()
        # killed sums the capped sites' weights in site order; the matmul may
        # sum them in another order
        at_cap = table.states == np.asarray(table.plan.caps)
        expected = at_cap @ table.space.weights_array
        assert np.abs(gen.killed - expected).max() <= 4 * sys.float_info.epsilon * expected.max()

    def test_constants_in_kernel_at_interior(self, space, exact):
        gen = build_generator_matrix(exact.table)
        ones = np.ones(exact.state_count)
        applied = gen.matrix @ ones
        assert np.abs(applied[gen.interior]).max() == 0.0

    def test_row_sums_vanish_at_interior(self, space, exact):
        gen = build_generator_matrix(exact.table)
        sums = np.asarray(gen.matrix.sum(axis=1)).ravel()
        assert np.abs(sums[gen.interior]).max() == 0.0
        # rows at capped states sum to minus their killed birth rate
        at_cap = ~gen.interior
        assert (sums[at_cap] < 0.0).all()

    def test_first_chaos_eigenvector(self, space, exact):
        B = [1, 2]
        nuB = sum(space.weights[z - 1] for z in B)
        F = affine_of([(1.0, linear_count(space, B))], -nuB)
        gen = build_generator_matrix(exact.table)
        f = F.batch(exact.table.states)
        applied = gen.matrix @ f
        assert np.abs(applied[gen.interior] + f[gen.interior]).max() <= 1e-10

    def test_pi_weighted_symmetry(self, space, exact):
        gen = build_generator_matrix(exact.table)
        rng = np.random.default_rng(2)
        probs = exact.table.probs
        for _ in range(5):
            f = rng.standard_normal(exact.state_count)
            g = rng.standard_normal(exact.state_count)
            lhs = float(probs @ (f * (gen.matrix @ g)))
            rhs = float(probs @ (g * (gen.matrix @ f)))
            assert abs(lhs - rhs) <= gen.boundary_leak + 1e-12

    def test_boundary_leak_direct_sum(self, space, exact):
        gen = build_generator_matrix(exact.table)
        caps = np.asarray(exact.plan.caps)
        expected = 0.0
        for s, p in zip(exact.table.states, exact.table.probs):
            expected += p * sum(
                w for w, k, cap in zip(space.weights, s, caps) if k == cap
            )
        assert gen.boundary_leak == pytest.approx(expected, rel=1e-12)


def test_engine_refuses_functional_of_another_space(exact):
    """Same number of sites, other weights: refused as the checks refuse it."""
    F = linear_count(GroundSpace((0.5, 1.0, 1.6)), [1, 2])
    for call in (
        lambda: exact_expectation(F, exact.table),
        lambda: exact.expectation(F),
        lambda: ou_pseudo_inverse(F, exact.table),
    ):
        with pytest.raises(ShapeError, match="is bound to a different ground space than the backend"):
            call()


class TestOuPseudoInverse:
    def test_first_chaos_inverse_is_minus_identity(self, space, exact):
        B = [1, 2]
        nuB = sum(space.weights[z - 1] for z in B)
        F = linear_count(space, B)
        g = ou_pseudo_inverse(F, exact.table, tol=1e-9)
        centered = F.batch(exact.table.states) - nuB
        # pi-weighted RMS distance to -centered; boundary states carry
        # negligible mass so the distance is tiny
        err = float(np.sqrt(exact.table.probs @ (g + centered) ** 2))
        assert err <= 1e-6

    def test_constant_maps_to_zero(self, space, exact):
        g = ou_pseudo_inverse(constant(space, 5.0), exact.table, tol=1e-9)
        assert np.abs(g).max() <= 1e-9

    def test_residual_contract(self, space, exact):
        gen = build_generator_matrix(exact.table)
        F = bounded_sigmoid(space, [1, 2], 1.0)
        g = ou_pseudo_inverse(F, exact.table, tol=1e-9, generator=gen)
        f = F.batch(exact.table.states)
        centered = f - float(exact.table.probs @ f)
        residual = gen.matrix @ g - centered
        assert np.abs(residual[gen.interior]).max() <= 1e-9
        # centering constraint holds exactly up to rounding
        assert abs(float(exact.table.probs @ g)) <= 1e-12

    def test_contract_measured_against_solved_vector(self):
        # 4,096 states: the box-normalised and the enumerated mean differ by
        # 1.8e-9 here, more than the solve tolerance, while the solve itself
        # is exact to rounding
        table = StateTable.from_tolerance(GroundSpace((0.3,) * 4), 1e-8)
        F = bounded_sigmoid(table.space, [1, 2], 1.0)
        gen = build_generator_matrix(table)
        g = ou_pseudo_inverse(F, table, tol=1e-9, generator=gen)
        f = F.batch(table.states)
        shift = float(table.probs @ f) * (1.0 / table.total_prob - 1.0)
        assert shift > 1e-9
        residual = gen.matrix @ g - (f - float(table.probs @ f) / table.total_prob)
        assert np.abs(residual[gen.interior]).max() <= 1e-12

    def test_leaves_no_counts_array(self):
        # the generator is built from the weights and caps, and F is swept
        # over box slices, so the (S, n) counts are never made
        table = StateTable.from_tolerance(GroundSpace((0.3,) * 4), 1e-8)
        gen = build_generator_matrix(table)
        ou_pseudo_inverse(bounded_sigmoid(table.space, [1, 2], 1.0), table, generator=gen)
        assert "states" not in vars(table)

    def test_generator_of_another_table_is_shape_error(self):
        small = StateTable.from_tolerance(GroundSpace((0.3,) * 4), 1e-8)
        large = StateTable.from_tolerance(GroundSpace((0.3,) * 4), 1e-10)
        F = bounded_sigmoid(small.space, [1, 2], 1.0)
        message = "^generator matrix is 10000 x 10000, the table has 4096 states$"
        with pytest.raises(ShapeError, match=message):
            ou_pseudo_inverse(F, small, generator=build_generator_matrix(large))

    def test_mean_shift_beyond_tail_bound_raises(self, space, exact):
        t = exact.table
        halved = StateTable(t.space, t.plan, t.probs * 0.5)
        with pytest.raises(TruncationError, match="box-normalised mean"):
            ou_pseudo_inverse(linear_count(space, [1]), halved, tol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        weights=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3),
        tol=st.floats(1e-10, 1e-4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve_of_grounded_system(self, weights, tol, seed):
        space = GroundSpace(tuple(weights))
        try:
            table = StateTable.build(space, plan_truncation(space, tol, budget=2000))
        except BudgetExceededError:
            assume(False)
        F = functional_from_spec(
            space, random_functional_spec(np.random.default_rng(seed), space.n)
        )
        gen = build_generator_matrix(table)
        g = ou_pseudo_inverse(F, table, tol=tol, max_leak=1.0, generator=gen)

        # reference: the conservative generator grounded at the mode, dense
        f = F.batch(table.states)
        centered = f - float(table.probs @ f) / table.total_prob
        caps = np.asarray(table.plan.caps)
        killed = (table.states == caps) @ space.weights_array
        A = gen.matrix.toarray() + np.diag(killed)
        keep = np.arange(table.state_count) != np.argmax(table.probs)
        y = np.zeros(table.state_count)
        y[keep] = np.linalg.solve(A[np.ix_(keep, keep)], centered[keep])
        ref = y - float(table.probs @ y) / table.total_prob

        scale = max(np.abs(ref).max(), np.abs(f).max())
        assert np.abs(g - ref).max() <= 1e-10 * scale
        residual = gen.matrix @ g - centered
        assert np.abs(residual[gen.interior]).max() <= tol

    def test_factor_keeps_diagonal_pivots_and_low_fill(self, monkeypatch):
        # the largest table of the ou_solve benchmark: 4 sites at weight 0.3
        table = StateTable.from_tolerance(GroundSpace((0.3,) * 4), 1e-10)
        assert table.state_count == 10_000
        factors = _record_factors(monkeypatch)
        ou_pseudo_inverse(bounded_sigmoid(table.space, [1, 2], 1.0), table, tol=1e-9)
        # three sites diagonalised: one factor of 1,000 blocks of 10 levels
        assert len(factors) == 1
        # 38 k measured; one factor of the whole grounded box: 6.1e6
        assert sum(lu.L.nnz + lu.U.nnz for lu in factors) <= 0.1e6
        # SuperLU kept every pivot on the diagonal
        for lu in factors:
            assert (lu.perm_r == lu.perm_c).all()

    @pytest.mark.parametrize("lam", [0.05, 0.3, 1.0, 5.0])
    @pytest.mark.parametrize("tol", [1e-4, 1e-12])
    def test_site_eigen(self, lam, tol):
        table = StateTable.from_tolerance(GroundSpace((lam,)), tol)
        (cap,) = table.plan.caps
        chain = _site_chain(lam, cap)
        # the one-site box's generator with the killed birth rate put back
        killed = np.diag(np.where(table.states[:, 0] == cap, lam, 0.0))
        assert np.abs(build_generator_matrix(table).matrix.toarray() + killed - chain).max() <= 1e-14
        w, right, left = _site_eigen(lam, cap)
        # compared in the pi-symmetrised basis D^(1/2) M D^(-1/2): in the
        # plain basis entry (i, j) carries the rounding of the eigenvectors
        # times sqrt(pi_j / pi_i), up to 2.7e-10 at weight 5, tol 1e-12
        root = np.sqrt(table.probs / table.probs.max())
        error = root[:, None] * (right @ np.diag(w) @ left - chain) / root
        assert np.abs(error).max() <= 1e-12
        assert np.abs(left @ right - np.eye(cap + 1)).max() <= 1e-12
        # the zero eigenvalue alone lies above -0.5, and it comes last
        assert np.flatnonzero(w > -0.5).tolist() == [cap]
        assert abs(w[cap]) <= 1e-12
        assert (w[:cap] <= -1.0 + 1e-9).all()

    @pytest.mark.parametrize(
        "weights, tol, splu_calls",
        [
            # one site: nothing is diagonalised, the whole box is grounded
            ((2.0,), 1e-10, 1),
            # caps (7, 18, 4): the widest site is not first
            ((0.3, 3.0, 0.05), 1e-8, 1),
            # heavy single sites: the whole box is grounded
            ((170.0,), 1e-4, 1),
            ((1000.0,), 1e-6, 1),
            # caps (273, 6) and (372, 6): the heavy site is the one kept sparse
            ((200.0, 0.3), 1e-6, 1),
            ((300.0, 0.3), 1e-6, 1),
        ],
    )
    def test_matches_dense_reference(self, monkeypatch, weights, tol, splu_calls):
        table = StateTable.from_tolerance(GroundSpace(weights), tol)
        space = table.space
        F = affine_of(
            [(1.0, bounded_sigmoid(space, [1], 0.5)), (0.25, linear_count(space, [space.n]))]
        )
        factors = _record_factors(monkeypatch)
        g = ou_pseudo_inverse(F, table, tol=1e-9, max_leak=1.0)
        ref, f = _dense_grounded_reference(F, table)
        assert np.abs(g - ref).max() <= 1e-12 * max(np.abs(ref).max(), np.abs(f).max())
        assert len(factors) == splu_calls
        for lu in factors:
            assert (lu.perm_r == lu.perm_c).all()

    def test_retries_with_nothing_diagonalised(self, monkeypatch):
        table = StateTable.from_tolerance(GroundSpace((0.3, 0.5, 0.2)), 1e-8)
        F = bounded_sigmoid(table.space, [1, 2], 1.0)
        site_eigen = exact_module._site_eigen

        def perturbed(lam, cap):
            w, right, left = site_eigen(lam, cap)
            return w, right, left * 1.01

        monkeypatch.setattr(exact_module, "_site_eigen", perturbed)
        factors = _record_factors(monkeypatch)
        gen = build_generator_matrix(table)
        g = ou_pseudo_inverse(F, table, tol=1e-9, generator=gen)
        assert len(factors) == 2
        f = F.batch(table.states)
        residual = gen.matrix @ g - (f - float(table.probs @ f) / table.total_prob)
        assert np.abs(residual[gen.interior]).max() <= 1e-9
        with pytest.raises(
            SolverError, match=r"contract: \d\.\d{3}e-\d+ > 1\.000e-30$"
        ) as err:
            ou_pseudo_inverse(F, table, tol=1e-30, generator=gen)
        assert len(factors) == 4
        # the achieved residual is the retry's, rounding-sized
        assert float(str(err.value).split()[-3]) <= 1e-12

    def test_retries_on_two_heavy_sites(self, monkeypatch):
        # the diagonalised site's back transform fails from weight about 250,
        # so the first solve misses the contract and the whole box is grounded
        table = StateTable.from_tolerance(GroundSpace((260.0, 260.0)), 1e-3)
        assert table.state_count == 99_856
        F = bounded_sigmoid(table.space, [1], 0.5)
        factors = _record_factors(monkeypatch)
        gen = build_generator_matrix(table)
        g = ou_pseudo_inverse(F, table, tol=1e-9, max_leak=1.0, generator=gen)
        assert len(factors) == 2
        f = F.batch(table.states)
        residual = gen.matrix @ g - (f - float(table.probs @ f) / table.total_prob)
        assert np.abs(residual[gen.interior]).max() <= 1e-9

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9, True])
    def test_rejects_solve_tol_outside_finite_positive(self, space, exact, tol):
        with pytest.raises(ConfigError, match="solve tol"):
            ou_pseudo_inverse(linear_count(space, [1]), exact.table, tol=tol)

    @pytest.mark.parametrize("max_leak", [float("nan"), float("inf"), -1.0])
    def test_rejects_max_leak_outside_finite_nonnegative(self, space, max_leak):
        loose = ExactBackend(space, tol=0.2)
        with pytest.raises(ConfigError, match="max_leak"):
            ou_pseudo_inverse(linear_count(space, [1]), loose.table, max_leak=max_leak)

    def test_refuses_excessive_leak(self, space):
        loose = ExactBackend(space, tol=0.2)
        F = linear_count(space, [1])
        with pytest.raises(BoundaryLeakError):
            ou_pseudo_inverse(F, loose.table, max_leak=1e-9)
