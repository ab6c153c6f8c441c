from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import poisson as poisson_dist

from poisson_malliavin import (
    BoundaryLeakError,
    BudgetExceededError,
    ExactBackend,
    GroundSpace,
    SiteSet,
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
    measure_of,
    ou_pseudo_inverse,
    plan_truncation,
    poly_count,
    random_functional_spec,
    site_indicator_field,
)
from poisson_malliavin import exact as exact_module
from poisson_malliavin.errors import ConfigError, SolverError
from poisson_malliavin.exact import _site_chain, _site_schur


def _record_factors(monkeypatch) -> list:
    """Keep every LU factor ``spla.splu`` returns while the test runs."""
    factors = []
    splu = spla.splu

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", recording_splu)
    return factors


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
    def test_poisson_mean(self, space, exact):
        F = linear_count(space, SiteSet.full(space).sorted_members())
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
            nu = measure_of(space, SiteSet.of([z]))
            assert abs(res.value - nu) <= 1e-10 + res.error_bound


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
            direct = float(exact.table.probs @ vals)
            pair_vals = (
                w * u.values(exact.table.states) * add_diff_all(F, exact.table.states)
            ).sum(-1)
            # the paired sweep reduces exactly these per-state values
            assert report.lhs == direct
            assert pairing == float(exact.table.probs @ pair_vals)
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
        nuB = measure_of(space, SiteSet.of(B))
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


class TestOuPseudoInverse:
    def test_first_chaos_inverse_is_minus_identity(self, space, exact):
        B = [1, 2]
        nuB = measure_of(space, SiteSet.of(B))
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

    def test_mean_shift_beyond_tail_bound_raises(self, space, exact):
        t = exact.table
        halved = StateTable(t.space, t.plan, t.states, t.probs * 0.5)
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
        # one block per level of the diagonalised site (caps 9: 10 levels)
        assert len(factors) == 10
        # blocks: 0.67e6; one factor of the whole grounded box: 6.1e6
        assert sum(lu.L.nnz + lu.U.nnz for lu in factors) <= 1.5e6
        # SuperLU kept every pivot on the diagonal
        for lu in factors:
            assert (lu.perm_r == lu.perm_c).all()

    @pytest.mark.parametrize("lam", [0.05, 0.3, 1.0, 5.0])
    @pytest.mark.parametrize("tol", [1e-4, 1e-12])
    def test_site_schur_factor(self, lam, tol):
        table = StateTable.from_tolerance(GroundSpace((lam,)), tol)
        (cap,) = table.plan.caps
        chain = _site_chain(lam, cap).toarray()
        # the one-site box's generator with the killed birth rate put back
        killed = np.diag(np.where(table.states[:, 0] == cap, lam, 0.0))
        assert np.abs(build_generator_matrix(table).matrix.toarray() + killed - chain).max() <= 1e-14
        U, R = _site_schur(lam, cap)
        assert np.abs(U.T @ U - np.eye(cap + 1)).max() <= 1e-14
        assert np.abs(U @ R @ U.T - chain).max() <= 1e-12
        assert (np.tril(R, -1) == 0.0).all()
        assert abs(R[0, 0]) <= 1e-12
        assert np.abs(chain @ U[:, 0]).max() <= 1e-12
        assert (np.diag(R)[1:] <= -1.0 + 1e-9).all()

    def test_site_schur_refuses_a_second_sorted_eigenvalue(self, monkeypatch):
        schur = exact_module.sla.schur

        def two_sorted(*args, **kwargs):
            R, U, _ = schur(*args, **kwargs)
            return R, U, 2

        monkeypatch.setattr(exact_module.sla, "schur", two_sorted)
        with pytest.raises(SolverError, match="eigenvalues above"):
            _site_schur(0.3, 6)

    @pytest.mark.parametrize(
        "weights, tol, splu_calls",
        [
            # one site, 17 levels: its j = 0 block is empty and has no factor
            ((2.0,), 1e-10, 16),
            # caps (7, 18, 4): the widest site is not first, 19 blocks
            ((0.3, 3.0, 0.05), 1e-8, 19),
            # rounding splits the weight-170 chain into complex pairs: the
            # whole box is the grounded block
            ((170.0,), 1e-4, 1),
            # more levels than a dense Schur form is built for
            ((1000.0,), 1e-6, 1),
            # caps (273, 6): the widest site is passed over, 7 blocks
            ((200.0, 0.3), 1e-6, 7),
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
