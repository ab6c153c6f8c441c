from __future__ import annotations

import json
import re

import numpy as np
import pytest

from poisson_malliavin import (
    ConfigError,
    GroundSpace,
    MonteCarloBackend,
    NonFiniteValueError,
    SamplerConfig,
    ShapeError,
    bounded_sigmoid,
    bracket_expectation_check,
    chain_rule_control_check,
    commutation_check,
    constant,
    count_times_deterministic,
    deterministic_field,
    duality_check,
    energy_derivation_check,
    derivative_field,
    functional_times_indicator,
    gamma_form_bound_check,
    gamma_representation_check,
    indicator_leq,
    linear_count,
    mecke_check,
    non_diffusion_counterexample,
    product_formula_check,
    site_indicator_field,
    skorokhod_check,
)
from poisson_malliavin import identities
from poisson_malliavin.functionals import RandomField
from conftest import same_bits

MC_CFG = SamplerConfig(seed=20260810, samples=50_000)


@pytest.fixture(scope="module")
def mc(space):
    return MonteCarloBackend(space, MC_CFG)


class TestMecke:
    def test_unit_field_exact(self, space, exact):
        r = mecke_check(deterministic_field(space, [1.0, 1.0, 1.0]), exact)
        assert r.passed and abs(r.defect) <= 1e-10

    def test_total_count_field_moments(self, space, exact):
        # both sides equal E[eta(Z)^2] = 12 for u(eta, z) = eta(Z)
        u = count_times_deterministic(space, [1, 2, 3], [1.0, 1.0, 1.0])
        r = mecke_check(u, exact)
        assert r.passed
        assert r.lhs == pytest.approx(12.0, abs=1e-8)
        assert r.rhs == pytest.approx(12.0, abs=1e-8)

    def test_mc_backend(self, space, mc):
        u = functional_times_indicator(
            space, [1, 2], bounded_sigmoid(space, [1, 2], 1.0)
        )
        r = mecke_check(u, mc)
        assert r.passed
        assert r.gate > 0.0  # 4 sigma of the paired defect
        assert r.seed == MC_CFG.seed
        assert r.n == MC_CFG.samples


class TestDuality:
    def test_deterministic_field_hand_value(self, space, exact):
        # both sides sum lambda_z g(z) over B = {1, 2}
        g = [1.0, -0.5, 2.0]
        r = duality_check(
            linear_count(space, [1, 2]), deterministic_field(space, g), exact
        )
        expected = 0.5 * 1.0 + 1.0 * (-0.5)
        assert r.passed
        assert r.lhs == pytest.approx(expected, abs=1e-8)
        assert r.rhs == pytest.approx(expected, abs=1e-8)

    def test_zero_field(self, space, exact):
        r = duality_check(
            linear_count(space, [1]),
            deterministic_field(space, [0.0, 0.0, 0.0]),
            exact,
        )
        assert r.passed and r.lhs == 0.0 and r.rhs == 0.0

    def test_constant_functional(self, space, exact):
        u = count_times_deterministic(space, [2, 3], [0.5, 1.0, 0.25])
        r = duality_check(constant(space, 1.0), u, exact)
        assert r.passed
        assert r.rhs == 0.0  # DF = 0
        assert abs(r.lhs) <= r.gate  # E[delta u] = 0


class TestSkorokhod:
    def test_deterministic_unit_field(self, space, exact):
        r = skorokhod_check(deterministic_field(space, [1.0, 1.0, 1.0]), exact)
        assert r.passed
        assert r.lhs == pytest.approx(3.0, abs=1e-8)

    def test_total_count_field_value_45(self, space, exact):
        u = count_times_deterministic(space, [1, 2, 3], [1.0, 1.0, 1.0])
        r = skorokhod_check(u, exact)
        assert r.passed
        assert r.lhs == pytest.approx(45.0, abs=1e-10 + r.gate)

    def test_zero_field(self, space, exact):
        r = skorokhod_check(deterministic_field(space, [0.0, 0.0, 0.0]), exact)
        assert r.passed and r.defect == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_double_integral_is_the_transposed_einsum_bitwise(self, n):
        """The double integral's column loop equals the einsum it replaces,
        sum_ij d_ij d_ji w_i w_j, bit for bit on asymmetric d, whatever the
        layout of its inputs, across row blocks and on one configuration;
        it is not the untransposed pairing sum_ij d_ij d_ij w_i w_j."""
        rng = np.random.default_rng(n)
        rows = 2 * identities._DOUBLE_INTEGRAL_BYTES // (8 * n * n) + 7  # three blocks
        added = rng.standard_normal((rows, n, n)) * 10.0 ** rng.integers(-3, 4, (rows, n, n))
        vals = rng.standard_normal((rows, n))
        w = rng.uniform(0.1, 2.0, n)
        d = added - vals[..., None, :]
        want = np.einsum("...ij,...ji,i,j->...", d, d, w, w)
        layouts = [
            (added, vals),
            # site-major: the row axis innermost in memory
            (np.moveaxis(np.ascontiguousarray(np.moveaxis(added, 0, -1)), -1, 0),
             np.ascontiguousarray(vals.T).T),
            (np.ascontiguousarray(added.transpose(1, 0, 2)).transpose(1, 0, 2), vals),
        ]
        for a, v in layouts:
            assert same_bits(identities._double_integral(a, v, w), want)
        assert same_bits(identities._double_integral(added[3], vals[3], w), want[3])
        if n > 1:
            untransposed = np.einsum("...ij,...ij,i,j->...", d, d, w, w)
            assert not np.allclose(identities._double_integral(added, vals, w), untransposed)


class TestCommutation:
    def test_deterministic_field(self, space):
        r = commutation_check(deterministic_field(space, [1.0, -0.5, 2.0]), seed=5)
        assert r.passed and r.defect <= 1e-12

    def test_random_fields(self, space):
        for u in [
            functional_times_indicator(space, [1, 2], bounded_sigmoid(space, [1, 2], 1.0)),
            count_times_deterministic(space, [1, 2, 3], [1.0, 1.0, 1.0]),
            derivative_field(bounded_sigmoid(space, [1, 2], 1.0)),
        ]:
            r = commutation_check(u, seed=7, points=100)
            assert r.passed, r

    def test_site_subset(self, space):
        u = site_indicator_field(space, [1, 3])
        r = commutation_check(u, [2], seed=1, points=50)
        assert r.passed and r.n == 50

    def test_empty_site_set_is_config_error(self, space):
        with pytest.raises(ConfigError, match="needs at least one site"):
            commutation_check(site_indicator_field(space, [1, 3]), [])


@pytest.mark.parametrize("points", [0, -1, 2.5, True, "3"])
def test_bad_points_is_config_error(space, points):
    u = site_indicator_field(space, [1, 3])
    message = re.escape(f"points must be an integer >= 1, got {points!r}")
    with pytest.raises(ConfigError, match=message):
        commutation_check(u, points=points)
    with pytest.raises(ConfigError, match=message):
        product_formula_check(constant(space, 1.0), u, points=points)


class TestProductFormula:
    def test_cases(self, space):
        sig = bounded_sigmoid(space, [1, 2], 1.0)
        cases = [
            (constant(space, 2.5), count_times_deterministic(space, [1, 2, 3], [1, 1, 1])),
            (linear_count(space, [1]), deterministic_field(space, [1.0, -0.5, 2.0])),
            (sig, functional_times_indicator(space, [1, 2], sig)),
        ]
        for F, u in cases:
            r = product_formula_check(F, u, seed=11)
            assert r.passed and r.defect <= 1e-12


class TestPathwiseNonFinite:
    """A non-finite value in a pathwise check raises like any sweep's; the
    commutation check used to drop it in a Python max and pass."""

    @pytest.fixture()
    def nan_field(self, space):
        return RandomField(space, lambda c: np.where(c >= 2, np.nan, c * 1.0), "nan")

    def test_commutation_raises(self, nan_field):
        with pytest.raises(NonFiniteValueError, match=r"^commutation defect produced"):
            commutation_check(nan_field, seed=3, points=50)

    def test_product_formula_raises(self, space, nan_field):
        with pytest.raises(NonFiniteValueError, match=r"^product_formula defect produced"):
            product_formula_check(linear_count(space, [1]), nan_field, seed=3, points=50)

    def test_error_names_a_configuration_holding_the_value(self, space, nan_field):
        with pytest.raises(NonFiniteValueError) as info:
            product_formula_check(constant(space, 1.0), nan_field, seed=3, points=50)
        counts = json.loads(info.value.args[0].split("counts=")[1])
        assert max(counts) >= 2  # the field is finite below two points per site


class TestEnergyDerivation:
    def test_unit_functional_reduces(self, space, exact):
        sig = bounded_sigmoid(space, [1, 2], 1.0)
        r = energy_derivation_check(
            constant(space, 1.0), sig, deterministic_field(space, [1.0, 1.0, 1.0]), exact
        )
        assert r.passed

    def test_derivative_binding(self, space, exact):
        sig = bounded_sigmoid(space, [1, 2], 1.0)
        u = derivative_field(linear_count(space, [1, 2]))
        r = energy_derivation_check(sig, sig, u, exact)
        assert r.passed

    def test_zero_field(self, space, exact):
        sig = bounded_sigmoid(space, [1, 2], 1.0)
        r = energy_derivation_check(
            sig, sig, deterministic_field(space, [0.0, 0.0, 0.0]), exact
        )
        assert r.passed and r.defect == 0.0


class TestGammaRepresentation:
    def test_unit_test_factor(self, space, exact):
        # Phi = 1: reduces to E Gamma(F) = energy(F, F)
        r = gamma_representation_check(
            bounded_sigmoid(space, [1, 2], 1.0), constant(space, 1.0), exact
        )
        assert r.passed

    def test_constant_functional(self, space, exact):
        r = gamma_representation_check(
            constant(space, 3.0), bounded_sigmoid(space, [1, 2], 1.0), exact
        )
        assert r.passed and r.defect == 0.0

    def test_bounded_pair(self, space, exact):
        r = gamma_representation_check(
            bounded_sigmoid(space, [1, 2], 1.0),
            indicator_leq(space, [1, 2, 3], 2),
            exact,
        )
        assert r.passed and abs(r.defect) <= 1e-10


class TestGammaFormBound:
    def test_unit_test_factor(self, space, exact):
        r = gamma_form_bound_check(
            bounded_sigmoid(space, [1, 2], 1.0), constant(space, 1.0), exact
        )
        assert r.passed
        assert 0.0 <= r.lhs <= r.rhs + r.gate

    def test_constant_functional(self, space, exact):
        r = gamma_form_bound_check(
            constant(space, 2.0), indicator_leq(space, [1], 1), exact
        )
        assert r.passed and r.lhs == 0.0 and r.rhs == 0.0

    def test_random_bounded_pair(self, space, exact):
        r = gamma_form_bound_check(
            bounded_sigmoid(space, [1, 2, 3], 0.5),
            indicator_leq(space, [1, 2, 3], 2),
            exact,
        )
        assert r.passed and r.defect <= 1e-10


class TestBracketExpectation:
    def test_unit_fields(self, space, exact):
        u = deterministic_field(space, [1.0, 1.0, 1.0])
        r = bracket_expectation_check(u, u, exact)
        assert r.passed
        assert r.lhs == pytest.approx(3.0, abs=1e-8)  # E[u,u]_Gamma
        assert r.rhs == pytest.approx(3.0, abs=1e-8)  # E[u,u]_+

    def test_zero_field(self, space, exact):
        z = deterministic_field(space, [0.0, 0.0, 0.0])
        u = count_times_deterministic(space, [1, 2, 3], [1.0, 1.0, 1.0])
        r = bracket_expectation_check(z, u, exact)
        assert r.passed and r.lhs == 0.0 and r.rhs == 0.0

    def test_mc_backend(self, space, mc):
        u = derivative_field(bounded_sigmoid(space, [1, 2], 1.0))
        v = deterministic_field(space, [1.0, -0.5, 2.0])
        r = bracket_expectation_check(u, v, mc)
        assert r.passed

    def test_defect_is_gamma_minus_plus(self, space, exact):
        """The defect is lhs - rhs = E[u,v]_Gamma - E[u,v]_+, even where the
        opposite comparison, gamma - minus, has the larger gate excess by
        rounding (as it has on this binding)."""
        u = functional_times_indicator(space, [1, 2], bounded_sigmoid(space, [1, 2], 1.0))
        v = count_times_deterministic(space, [1, 2, 3], [1.0, 1.0, 1.0])
        r = bracket_expectation_check(u, v, exact)
        assert r.passed and r.lhs < r.rhs and r.defect < 0
        assert r.defect == pytest.approx(r.lhs - r.rhs, abs=1e-15)


class TestNonDiffusion:
    def test_search_exhibits_counterexample(self, space, exact):
        Fs = [linear_count(space, [1]), linear_count(space, [1, 2])]
        r = non_diffusion_counterexample(exact, ["square", "tanh", "cube"], Fs, Fs)
        assert r.passed  # inverted convention: defect must clear the gate
        assert r.gate_kind == "lower"
        assert r.defect > 1e-9

    def test_square_alone_fails_pointwise_only(self, space, exact):
        """phi = x^2 satisfies the integrated identity (it is the derivation
        lemma at F = G) but breaks the pointwise chain rule."""
        F = [linear_count(space, [1])]
        r = non_diffusion_counterexample(exact, ["square"], F, F)
        assert r.lhs <= 1e-10  # integrated defect vanishes
        assert r.rhs > 1e-9  # pointwise carre du champ defect is macroscopic
        assert r.passed

    def test_tanh_breaks_integrated_identity(self, space, exact):
        F = [linear_count(space, [1])]
        r = non_diffusion_counterexample(exact, ["tanh"], F, F)
        assert r.lhs > 1e-9

    def test_identity_control(self, space, exact):
        r = chain_rule_control_check(
            linear_count(space, [1]), linear_count(space, [1]), exact
        )
        assert r.passed and r.defect <= 1e-10

    def test_budget_limits_grid(self, space, exact):
        Fs = [linear_count(space, [1]), linear_count(space, [2])]
        r = non_diffusion_counterexample(exact, ["identity"], Fs, Fs, budget=0)
        assert not r.passed  # nothing evaluated, nothing exhibited

    @pytest.mark.parametrize("budget", [2.5, "3", -1, None, True])
    def test_bad_budget_is_config_error(self, space, exact, budget):
        Fs = [linear_count(space, [1])]
        message = re.escape(f"budget must be a non-negative integer, got {budget!r}")
        with pytest.raises(ConfigError, match=message):
            non_diffusion_counterexample(exact, ["identity"], Fs, Fs, budget=budget)

    def test_search_needs_exact_backend(self, space, mc):
        F = [linear_count(space, [1])]
        with pytest.raises(ConfigError) as err:
            non_diffusion_counterexample(mc, ["square"], F, F)
        assert str(err.value) == (
            "non_diffusion_counterexample enumerates the state table, so it"
            " needs an ExactBackend, not a MonteCarloBackend"
        )

    def test_control_needs_exact_backend(self, space, mc):
        F = linear_count(space, [1])
        with pytest.raises(ConfigError) as err:
            chain_rule_control_check(F, F, mc)
        assert str(err.value) == (
            "chain_rule_control_check enumerates the state table, so it"
            " needs an ExactBackend, not a MonteCarloBackend"
        )

    def test_search_checks_binding_space(self, exact):
        # on the wrong space the identity map would "exhibit" a defect of 0.75
        Fs = [linear_count(GroundSpace((2.0, 2.0, 2.0)), [1])]
        with pytest.raises(ShapeError):
            non_diffusion_counterexample(exact, ["identity"], Fs, Fs)


class TestReports:
    def test_pass_iff_defect_within_gate(self, space, exact):
        r = mecke_check(deterministic_field(space, [1.0, 1.0, 1.0]), exact)
        assert r.passed == (abs(r.defect) <= r.gate)

    def test_serialization_fields(self, space, exact):
        r = mecke_check(deterministic_field(space, [1.0, 1.0, 1.0]), exact)
        d = r.to_dict()
        assert list(d)[:9] == [
            "case", "lhs", "rhs", "defect", "gate", "gate_kind", "pass", "seed", "n",
        ]
        assert "tail_bound" in d
        assert "wall_time" not in d  # measured, hence excluded from bytes
        json.dumps(d)  # must be JSON-clean

    def test_serialization_stability(self, space, exact):
        u = deterministic_field(space, [1.0, -0.5, 2.0])
        a = mecke_check(u, exact).to_dict()
        b = mecke_check(u, exact).to_dict()
        assert json.dumps(a) == json.dumps(b)

    def test_cross_backend_coherence(self, space, exact, mc):
        u = functional_times_indicator(
            space, [1, 2], bounded_sigmoid(space, [1, 2], 1.0)
        )
        r_exact = mecke_check(u, exact)
        r_mc = mecke_check(u, mc)
        # the 4 sigma interval of the mc defect contains the exact defect
        assert abs(r_mc.defect - r_exact.defect) <= r_mc.gate + r_exact.gate
