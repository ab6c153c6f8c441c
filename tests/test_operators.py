from __future__ import annotations

import numpy as np
import pytest

from poisson_malliavin import (
    BracketKind,
    Configuration,
    Functional,
    add_diff,
    bracket,
    constant,
    count_times_deterministic,
    derivative_field,
    deterministic_field,
    dirichlet_energy,
    divergence,
    divergence_product_defect,
    functional_times_indicator,
    gamma,
    linear_count,
    ou_generator,
    poly_count,
    site_indicator_field,
    bounded_sigmoid,
)
from poisson_malliavin.operators import gamma_batch
from conftest import functional_pool, sample_batch


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
    """Independent scalar route: configuration ops and per-site evaluation."""
    space = eta.space
    total = 0.0
    for z in space.sites:
        k = eta.counts[z - 1]
        if k >= 1:
            total += k * u(eta.drop_point(z), z)
        total -= space.weights[z - 1] * u(eta, z)
    return total


class TestDivergence:
    def test_centered_unit_field(self, space, eta102):
        u = deterministic_field(space, [1.0, 1.0, 1.0])
        # eta(Z) - nu(Z) = 3 - 3
        assert divergence(u, eta102) == 0.0

    def test_zero_field(self, space, eta102):
        u = deterministic_field(space, [0.0, 0.0, 0.0])
        assert divergence(u, eta102) == 0.0

    def test_hand_evaluation(self, space):
        u = deterministic_field(space, [1.0, 0.0, 0.0])
        eta = Configuration(space, (2, 1, 0))
        # 2*1 - 0.5*1
        assert divergence(u, eta) == pytest.approx(1.5)

    def test_matches_scalar_oracle(self, space):
        counts = sample_batch(space, seed=11, m=40)
        for u in field_pool(space):
            for row in counts[:15]:
                eta = Configuration(space, tuple(int(k) for k in row))
                assert divergence(u, eta) == pytest.approx(
                    divergence_oracle(u, eta), abs=1e-12
                )


class TestOuGenerator:
    def test_first_chaos_hand_value(self, space, eta102):
        # L eta(B) = nu(B) - eta(B) = 1.5 - 1
        F = linear_count(space, [1, 2])
        assert ou_generator(F, eta102) == pytest.approx(0.5)

    def test_constants_in_kernel(self, space):
        F = constant(space, 7.0)
        for row in sample_batch(space, seed=5, m=20):
            eta = Configuration(space, tuple(int(k) for k in row))
            assert ou_generator(F, eta) == 0.0

    def test_eigenvalue_minus_one_on_centered_first_chaos(self, space):
        from poisson_malliavin import affine_of, measure_of, SiteSet

        B = [1, 2]
        nuB = measure_of(space, SiteSet.of(B))
        F = affine_of([(1.0, linear_count(space, B))], -nuB)
        for row in sample_batch(space, seed=13, m=10):
            eta = Configuration(space, tuple(int(k) for k in row))
            assert ou_generator(F, eta) == pytest.approx(-F(eta), abs=1e-12)


class TestBrackets:
    def test_unit_field_hand_sums(self, space, eta102):
        u = deterministic_field(space, [1.0, 1.0, 1.0])
        assert bracket(u, u, BracketKind.PLUS, eta102) == pytest.approx(3.0)
        assert bracket(u, u, BracketKind.MINUS, eta102) == pytest.approx(3.0)
        assert bracket(u, u, BracketKind.GAMMA, eta102) == pytest.approx(3.0)

    def test_zero_field(self, space, eta102):
        z = deterministic_field(space, [0.0, 0.0, 0.0])
        for kind in BracketKind:
            assert bracket(z, z, kind, eta102) == 0.0
            for v in field_pool(space):
                assert bracket(z, v, kind, eta102) == 0.0

    def test_gamma_is_mean_of_plus_and_minus(self, space):
        counts = sample_batch(space, seed=17, m=25)
        pool = field_pool(space)
        for i, u in enumerate(pool):
            v = pool[(i + 1) % len(pool)]
            for row in counts[:8]:
                eta = Configuration(space, tuple(int(k) for k in row))
                g = bracket(u, v, BracketKind.GAMMA, eta)
                p = bracket(u, v, BracketKind.PLUS, eta)
                m = bracket(u, v, BracketKind.MINUS, eta)
                assert g == pytest.approx(0.5 * (p + m), abs=1e-12)


class TestGamma:
    def test_hand_anchor(self, space, eta102):
        # 1/2 nu(B) + 1/2 eta(B) with B = {1,2}
        F = linear_count(space, [1, 2])
        assert gamma(F, F, eta102) == pytest.approx(1.25)

    def test_constant_vanishes(self, space, eta102):
        F = constant(space, 3.0)
        assert gamma(F, F, eta102) == 0.0

    def test_nonnegative(self, space):
        counts = sample_batch(space, seed=19, m=30)
        for F in functional_pool(space):
            for row in counts[:10]:
                eta = Configuration(space, tuple(int(k) for k in row))
                assert gamma(F, F, eta) >= 0.0

    def test_pointwise_cauchy_schwarz(self, space):
        counts = sample_batch(space, seed=23, m=30)
        pool = functional_pool(space)
        for i, F in enumerate(pool):
            G = pool[(i + 3) % len(pool)]
            for row in counts[:10]:
                eta = Configuration(space, tuple(int(k) for k in row))
                lhs = gamma(F, G, eta) ** 2
                rhs = gamma(F, F, eta) * gamma(G, G, eta)
                assert lhs <= rhs + 1e-12

    def test_symmetry_and_bilinearity(self, space, eta102):
        from poisson_malliavin import affine_of

        pool = functional_pool(space)
        F, G, H = pool[2], pool[6], pool[8]
        assert gamma(F, G, eta102) == pytest.approx(gamma(G, F, eta102), abs=1e-12)
        combo = affine_of([(0.5, F), (2.0, G)])
        assert gamma(combo, H, eta102) == pytest.approx(
            0.5 * gamma(F, H, eta102) + 2.0 * gamma(G, H, eta102), abs=1e-12
        )

    def test_drop_route_representation(self, space):
        """Gamma(F, F) equals the two displayed integrals computed with
        add and drop differences directly (the independent route)."""
        from poisson_malliavin import drop_diff

        counts = sample_batch(space, seed=29, m=20)
        w = space.weights
        for F in functional_pool(space):
            for row in counts[:8]:
                eta = Configuration(space, tuple(int(k) for k in row))
                plus = sum(
                    w[z - 1] * add_diff(F, eta, z) ** 2 for z in space.sites
                )
                minus = sum(
                    eta.counts[z - 1] * drop_diff(F, eta, z) ** 2
                    if eta.counts[z - 1] >= 1
                    else 0.0
                    for z in space.sites
                )
                assert gamma(F, F, eta) == pytest.approx(
                    0.5 * plus + 0.5 * minus, abs=1e-11
                )

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


class TestDirichletEnergy:
    def test_first_chaos_value(self, space, exact):
        F = linear_count(space, [1, 2])
        assert dirichlet_energy(F, F, exact) == pytest.approx(1.5, abs=1e-10)

    def test_constant(self, space, exact):
        assert dirichlet_energy(constant(space, 2.0), constant(space, 2.0), exact) == 0.0

    def test_symmetry(self, space, exact):
        pool = functional_pool(space)
        for i in range(0, len(pool), 3):
            F, G = pool[i], pool[(i + 4) % len(pool)]
            assert dirichlet_energy(F, G, exact) == pytest.approx(
                dirichlet_energy(G, F, exact), abs=1e-12
            )


class TestDivergenceProductFormula:
    def test_constant_functional(self, space, eta102):
        u = count_times_deterministic(space, [1, 2, 3], [1.0, 1.0, 1.0])
        F = constant(space, 2.5)
        assert divergence_product_defect(F, u, eta102) == pytest.approx(0.0, abs=1e-12)

    def test_zero_field(self, space, eta102):
        u = deterministic_field(space, [0.0, 0.0, 0.0])
        F = linear_count(space, [1])
        assert divergence_product_defect(F, u, eta102) == 0.0

    def test_random_triples_vanish(self, space):
        counts = sample_batch(space, seed=31, m=30)
        pool = functional_pool(space)
        fields = field_pool(space)
        for i, F in enumerate(pool):
            u = fields[i % len(fields)]
            for row in counts[:8]:
                eta = Configuration(space, tuple(int(k) for k in row))
                assert divergence_product_defect(F, u, eta) == pytest.approx(
                    0.0, abs=1e-12
                )


class TestHeisenbergPathwise:
    def test_relation_on_random_draws(self, space):
        """D+_z(delta u) = u(., z) + delta(D+_z u), checked through the scalar
        configuration API (independent of the batched implementation)."""
        from poisson_malliavin import RandomField

        counts = sample_batch(space, seed=37, m=20)
        for u in field_pool(space):
            for row in counts[:6]:
                eta = Configuration(space, tuple(int(k) for k in row))
                for z in space.sites:
                    lhs = divergence(u, eta.add_point(z)) - divergence(u, eta)

                    def vfn(c, zi=z - 1):
                        bumped = np.asarray(c).copy()
                        bumped[..., zi] += 1
                        return np.asarray(u.fn(bumped)) - np.asarray(u.fn(c))

                    v = RandomField(space, vfn, f"D+_{z}(u)")
                    rhs = u(eta, z) + divergence(v, eta)
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_deterministic_field_shifts_by_its_value(self, space, eta102):
        u = deterministic_field(space, [1.0, -0.5, 2.0])
        for z in space.sites:
            lhs = divergence(u, eta102.add_point(z)) - divergence(u, eta102)
            assert lhs == pytest.approx(u(eta102, z), abs=1e-14)
