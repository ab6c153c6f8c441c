from __future__ import annotations

import itertools

import numpy as np
import pytest

from poisson_malliavin import (
    BracketKind,
    Functional,
    RandomField,
    affine_of,
    bracket_batch,
    build_generator_matrix,
    constant,
    count_times_deterministic,
    derivative_field,
    deterministic_field,
    dirichlet_integrand,
    divergence_batch,
    functional_times_indicator,
    gamma_batch,
    indicator_leq,
    linear_count,
    ou_generator_batch,
    poly_count,
    product_formula_check,
    site_indicator_field,
    bounded_sigmoid,
)
from poisson_malliavin import identities, operators
from poisson_malliavin.functionals import add_diff_all
from conftest import d_minus, d_plus, functional_pool, sample_batch, shift


def field_pool(space):
    sig = bounded_sigmoid(space, [1, 2], 1.0)
    return [
        deterministic_field(space, [1.0, 1.0, 1.0]),
        deterministic_field(space, [1.0, -0.5, 2.0]),
        site_indicator_field(space, [1, 3]),
        functional_times_indicator(space, [1, 2], sig),
        count_times_deterministic(space, [1, 2, 3], [1.0, 1.0, 1.0]),
        derivative_field(sig),
    ]


def divergence_oracle(u, eta):
    """Independent scalar route: eta - delta_z built by hand, u read site by site."""
    total = 0.0
    for z, (k, lam) in enumerate(zip(eta, u.space.weights), start=1):
        if k >= 1:
            total += k * u.values(shift(eta, z, -1))[z - 1]
        total -= lam * u.values(eta)[z - 1]
    return total


class TestDivergence:
    def test_centered_unit_field(self, space, eta102):
        u = deterministic_field(space, [1.0, 1.0, 1.0])
        # eta(Z) - nu(Z) = 3 - 3
        assert divergence_batch(u, eta102) == 0.0

    def test_zero_field(self, space, eta102):
        u = deterministic_field(space, [0.0, 0.0, 0.0])
        assert divergence_batch(u, eta102) == 0.0

    def test_hand_evaluation(self, space):
        u = deterministic_field(space, [1.0, 0.0, 0.0])
        # 2*1 - 0.5*1
        assert divergence_batch(u, np.array([2, 1, 0])) == pytest.approx(1.5)

    def test_matches_scalar_oracle(self, space):
        counts = sample_batch(space, seed=11, m=40)[:15]
        for u in field_pool(space):
            expected = [divergence_oracle(u, row) for row in counts]
            assert divergence_batch(u, counts) == pytest.approx(expected, abs=1e-12)


class TestOuGenerator:
    def test_first_chaos_hand_value(self, space, eta102):
        # L eta(B) = nu(B) - eta(B) = 1.5 - 1
        F = linear_count(space, [1, 2])
        assert ou_generator_batch(F, eta102) == pytest.approx(0.5)

    def test_constants_in_kernel(self, space):
        F = constant(space, 7.0)
        assert (ou_generator_batch(F, sample_batch(space, seed=5, m=20)) == 0.0).all()

    def test_eigenvalue_minus_one_on_centered_first_chaos(self, space):
        B = [1, 2]
        nuB = sum(space.weights[z - 1] for z in B)
        F = affine_of([(1.0, linear_count(space, B))], -nuB)
        counts = sample_batch(space, seed=13, m=10)
        assert ou_generator_batch(F, counts) == pytest.approx(-F.batch(counts), abs=1e-12)


class TestBrackets:
    def test_unit_field_hand_sums(self, space, eta102):
        u = deterministic_field(space, [1.0, 1.0, 1.0])
        assert bracket_batch(u, u, BracketKind.PLUS, eta102) == pytest.approx(3.0)
        assert bracket_batch(u, u, BracketKind.MINUS, eta102) == pytest.approx(3.0)
        assert bracket_batch(u, u, BracketKind.GAMMA, eta102) == pytest.approx(3.0)

    def test_zero_field(self, space, eta102):
        z = deterministic_field(space, [0.0, 0.0, 0.0])
        for kind in BracketKind:
            assert bracket_batch(z, z, kind, eta102) == 0.0
            for v in field_pool(space):
                assert bracket_batch(z, v, kind, eta102) == 0.0

    def test_gamma_is_mean_of_plus_and_minus(self, space):
        counts = sample_batch(space, seed=17, m=25)[:8]
        pool = field_pool(space)
        for i, u in enumerate(pool):
            v = pool[(i + 1) % len(pool)]
            g = bracket_batch(u, v, BracketKind.GAMMA, counts)
            p = bracket_batch(u, v, BracketKind.PLUS, counts)
            m = bracket_batch(u, v, BracketKind.MINUS, counts)
            assert g == pytest.approx(0.5 * (p + m), abs=1e-12)


def gamma_oracle(F, G, eta):
    """1/2 sum_z lambda_z D+F D+G + 1/2 sum_z k_z D-F D-G from the hand-built
    differences: the paper's two integrals, independent of ``gamma_batch``."""
    plus = minus = 0.0
    for z, (k, lam) in enumerate(zip(eta, F.space.weights), start=1):
        plus += lam * d_plus(F, eta, z) * d_plus(G, eta, z)
        minus += k * d_minus(F, eta, z) * d_minus(G, eta, z)
    return 0.5 * plus + 0.5 * minus


class TestGamma:
    def test_hand_anchor(self, space, eta102):
        # 1/2 nu(B) + 1/2 eta(B) with B = {1,2}
        F = linear_count(space, [1, 2])
        assert gamma_batch(F, F, eta102) == pytest.approx(1.25)

    def test_constant_vanishes(self, space, eta102):
        F = constant(space, 3.0)
        assert gamma_batch(F, F, eta102) == 0.0

    def test_nonnegative(self, space):
        counts = sample_batch(space, seed=19, m=30)[:10]
        for F in functional_pool(space):
            assert (gamma_batch(F, F, counts) >= 0.0).all()

    def test_pointwise_cauchy_schwarz(self, space):
        counts = sample_batch(space, seed=23, m=30)[:10]
        pool = functional_pool(space)
        for i, F in enumerate(pool):
            G = pool[(i + 3) % len(pool)]
            lhs = gamma_batch(F, G, counts) ** 2
            rhs = gamma_batch(F, F, counts) * gamma_batch(G, G, counts)
            assert (lhs <= rhs + 1e-12).all()

    def test_symmetry_and_bilinearity(self, space, eta102):
        pool = functional_pool(space)
        F, G, H = pool[2], pool[6], pool[8]
        assert gamma_batch(F, G, eta102) == pytest.approx(gamma_batch(G, F, eta102), abs=1e-12)
        combo = affine_of([(0.5, F), (2.0, G)])
        assert gamma_batch(combo, H, eta102) == pytest.approx(
            0.5 * gamma_batch(F, H, eta102) + 2.0 * gamma_batch(G, H, eta102), abs=1e-12
        )

    def test_drop_route_representation(self, space):
        """Gamma(F, G) equals the two displayed integrals computed with
        hand-built add and drop differences (the independent route)."""
        counts = sample_batch(space, seed=29, m=20)[:8]
        pool = functional_pool(space)
        for i, F in enumerate(pool):
            for G in (F, pool[(i + 5) % len(pool)]):
                expected = [gamma_oracle(F, G, row) for row in counts]
                assert gamma_batch(F, G, counts) == pytest.approx(expected, abs=1e-11)

    def test_evaluations_per_row(self, space):
        """D+ reads F at eta and every eta + delta_z, D- at eta and every
        eta - delta_z: at most 2(n + 1) rows of F per configuration."""
        m = 40
        counts = sample_batch(space, seed=31, m=m)
        rows = {}

        def counted(F):
            def fn(c):
                rows[F.name] = rows.get(F.name, 0) + c.size // c.shape[-1]
                return F.fn(c)

            return Functional(space, fn, F.name)

        F = counted(poly_count(space, [1, 2], 2))
        G = counted(bounded_sigmoid(space, [2, 3], 1.0))
        gamma_batch(F, G, counts)
        assert set(rows) == {F.name, G.name}
        assert all(r <= 2 * (space.n + 1) * m for r in rows.values()), rows


class TestCarreDuChampAgainstGenerator:
    """The paper's proposition, pathwise: the carre du champ of the OU
    generator, 1/2 (L(FG) - F LG - G LF), equals gamma_batch's
    1/2 int D+F D+G dnu + 1/2 int D-F D-G d eta at every interior state of
    the canonical table.  L is the sparse matrix M of
    ``build_generator_matrix``, written from the weights and caps alone, so
    it shares no code with the add/drop differences.  Each defect is gated
    at 4 eps times the state's rounding scale, the sum of the absolute
    terms, with |M| the entrywise absolute matrix (Higham ch. 3)."""

    EPS = np.finfo(np.float64).eps

    @pytest.fixture(scope="class")
    def generator(self, exact):
        gen = build_generator_matrix(exact.table)
        return exact.table.states, gen.matrix, abs(gen.matrix), gen.interior

    @staticmethod
    def _functionals(space):
        return [
            bounded_sigmoid(space, [1, 2], 1.0),
            bounded_sigmoid(space, [2, 3], 0.3),
            indicator_leq(space, [1, 2, 3], 4),
            linear_count(space, [1, 3]),
            poly_count(space, [1, 2, 3], 2),
            poly_count(space, [1, 3], 3),
        ]

    def _gamma_excess(self, space, generator) -> list[float]:
        """Per pair of the 21, the most an interior |defect| exceeds its gate
        4 eps scale by: not above 0 while the proposition holds."""
        states, M, absM, interior = generator
        Fs = self._functionals(space)
        values = [F.batch(states) for F in Fs]
        excess = []
        for (F, f), (G, g) in itertools.combinations_with_replacement(zip(Fs, values), 2):
            Mf, Mg = M @ f, M @ g
            via_generator = 0.5 * (M @ (f * g) - f * Mg - g * Mf)
            scale = absM @ np.abs(f * g) + np.abs(f) * (absM @ np.abs(g))
            scale += np.abs(g) * (absM @ np.abs(f))
            defect = np.abs(via_generator - gamma_batch(F, G, states))[interior]
            excess.append(float((defect - 4 * self.EPS * scale[interior]).max()))
        assert len(excess) == 21
        return excess

    def test_gamma_equals_generator_form(self, space, generator):
        assert max(self._gamma_excess(space, generator)) <= 0.0

    def test_ou_generator_equals_matrix(self, space, generator):
        states, M, absM, interior = generator
        for F in self._functionals(space):
            f = F.batch(states)
            defect = np.abs(M @ f - ou_generator_batch(F, states))[interior]
            assert (defect <= 4 * self.EPS * (absM @ np.abs(f))[interior]).all(), F

    def test_add_difference_in_drop_half_fails(self, monkeypatch, space, generator):
        """With D+ in place of D- in Gamma's drop half, 1/2 int k_z D+F D+G,
        the generator form no longer matches: defects of order one."""
        monkeypatch.setattr(
            operators, "field_dropped_diag", lambda u, counts: add_diff_all(u.gradient_of, counts)
        )
        assert max(self._gamma_excess(space, generator)) > 1.0


class TestDirichletEnergy:
    def test_first_chaos_value(self, space, exact):
        F = linear_count(space, [1, 2])
        assert exact.expectation(dirichlet_integrand(F, F)).value == pytest.approx(1.5, abs=1e-10)

    def test_constant(self, space, exact):
        c = constant(space, 2.0)
        assert exact.expectation(dirichlet_integrand(c, c)).value == 0.0

    def test_symmetry(self, space, exact):
        pool = functional_pool(space)
        for i in range(0, len(pool), 3):
            F, G = pool[i], pool[(i + 4) % len(pool)]
            FG = exact.expectation(dirichlet_integrand(F, G)).value
            GF = exact.expectation(dirichlet_integrand(G, F)).value
            assert FG == pytest.approx(GF, abs=1e-12)


class TestDivergenceProductFormula:
    """delta(F u) = F delta u - [DF, u]_-, through ``product_formula_check``
    on its 200 seeded configurations (eta102 among them)."""

    def test_constant_functional(self, space):
        points = identities._pointwise_counts(space, 0, "product_formula", 200)
        assert (points == [1, 0, 2]).all(axis=1).any()
        u = count_times_deterministic(space, [1, 2, 3], [1.0, 1.0, 1.0])
        F = constant(space, 2.5)
        report = product_formula_check(F, u)
        assert report.passed
        assert report.defect == pytest.approx(0.0, abs=1e-12)

    def test_zero_field(self, space):
        u = deterministic_field(space, [0.0, 0.0, 0.0])
        F = linear_count(space, [1])
        assert product_formula_check(F, u).defect == 0.0

    def test_random_triples_vanish(self, space):
        pool = functional_pool(space)
        fields = field_pool(space)
        for i, F in enumerate(pool):
            u = fields[i % len(fields)]
            report = product_formula_check(F, u, seed=31, points=30)
            assert report.defect == pytest.approx(0.0, abs=1e-12)


class TestHeisenbergPathwise:
    def test_relation_on_random_draws(self, space):
        """D+_z(delta u) = u(., z) + delta(D+_z u), with eta + delta_z and the
        field D+_z u built by hand around the batch divergence."""
        counts = sample_batch(space, seed=37, m=20)
        for u in field_pool(space):
            for eta in counts[:6]:
                for z in space.sites:
                    lhs = divergence_batch(u, shift(eta, z, 1)) - divergence_batch(u, eta)

                    def vfn(c, zi=z - 1):
                        bumped = np.asarray(c).copy()
                        bumped[..., zi] += 1
                        return np.asarray(u.fn(bumped)) - np.asarray(u.fn(c))

                    v = RandomField(space, vfn, f"D+_{z}(u)")
                    rhs = u.values(eta)[z - 1] + divergence_batch(v, eta)
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_deterministic_field_shifts_by_its_value(self, space, eta102):
        u = deterministic_field(space, [1.0, -0.5, 2.0])
        for z in space.sites:
            lhs = divergence_batch(u, shift(eta102, z, 1)) - divergence_batch(u, eta102)
            assert lhs == pytest.approx(u.values(eta102)[z - 1], abs=1e-14)
