from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson_malliavin import (
    ConfigError,
    NonFiniteValueError,
    Functional,
    RandomField,
    ShapeError,
    affine_of,
    bounded_sigmoid,
    compose,
    constant,
    derivative_field,
    deterministic_field,
    count_times_deterministic,
    field_from_spec,
    functional_from_spec,
    functional_times_indicator,
    indicator_leq,
    linear_count,
    poly_count,
    product_field,
    product_of,
    random_functional_spec,
    site_indicator_field,
)
from poisson_malliavin.functionals import (
    add_diff_all,
    drop_diff_all,
    field_add_tensor,
    field_dropped_diag,
)
from poisson_malliavin.identities import _shifted_diff_field
from poisson_malliavin.operators import dirichlet_integrand
from poisson_malliavin.registry import _describe
from conftest import d_minus, d_plus, functional_pool, sample_batch, shift


class TestAddDiff:
    def test_counting_functional(self, space, eta102):
        F = linear_count(space, [1])
        assert add_diff_all(F, eta102).tolist() == [1.0, 0.0, 0.0]

    def test_constant_vanishes(self, space, eta102):
        F = constant(space, 4.25)
        assert add_diff_all(F, eta102).tolist() == [0.0, 0.0, 0.0]

    def test_square_count(self, space, eta102):
        # (N+1)^2 - N^2 = 2N + 1 with N = eta(Z) = 3
        F = poly_count(space, [1, 2, 3], 2)
        assert add_diff_all(F, eta102).tolist() == [7.0, 7.0, 7.0]


class TestDropDiff:
    def test_counting_functional(self, space, eta102):
        F = linear_count(space, [1])
        assert drop_diff_all(F, eta102)[0] == 1.0

    def test_indicator_kills_absent_site(self, space, eta102):
        for F in functional_pool(space):
            assert drop_diff_all(F, eta102)[1] == 0.0

    def test_square_count(self, space, eta102):
        # N^2 - (N-1)^2 = 2N - 1 with N = 3
        F = poly_count(space, [1, 2, 3], 2)
        assert drop_diff_all(F, eta102)[2] == 5.0


def field_add_diff(u, eta):
    """D+_z u(eta, zp) = u(eta + delta_z, zp) - u(eta, zp), shape (n, n)."""
    return field_add_tensor(u, eta) - u.values(eta)


class TestSecondAddDiff:
    def test_deterministic_field(self, space, eta102):
        u = deterministic_field(space, [1.0, -2.0, 0.5])
        assert (field_add_diff(u, eta102) == 0.0).all()

    def test_count_scaled_field(self, space, eta102):
        g = [1.0, 0.5, 0.25]
        u = count_times_deterministic(space, [1, 2, 3], g)
        assert field_add_diff(u, eta102).tolist() == [g] * 3

    def test_total_count_field(self, space, eta102):
        u = count_times_deterministic(space, [1, 2, 3], [1.0, 1.0, 1.0])
        hand = u.values(shift(eta102, 2, 1))[2] - u.values(eta102)[2]
        assert field_add_diff(u, eta102)[1, 2] == hand == 1.0


class TestDerivativeField:
    def test_counting_functional(self, space, eta102):
        u = derivative_field(linear_count(space, [1, 2]))
        assert u.values(eta102).tolist() == [1.0, 1.0, 0.0]

    def test_constant(self, space, eta102):
        u = derivative_field(constant(space, 2.0))
        assert u.values(eta102).tolist() == [0.0, 0.0, 0.0]

    def test_matches_add_diff(self, space, eta102):
        F = poly_count(space, [1, 2, 3], 2)
        u = derivative_field(F)
        for z in space.sites:
            assert u.values(eta102)[z - 1] == d_plus(F, eta102, z) == 7.0

    def test_bound_doubles(self, space):
        F = bounded_sigmoid(space, [1, 2], 1.0)
        assert derivative_field(F).bound == 2.0


class TestBoundedness:
    def test_add_diff_within_two_bounds(self, space):
        counts = sample_batch(space, seed=7, m=300)
        for F in functional_pool(space):
            if F.bound is None:
                continue
            assert (np.abs(add_diff_all(F, counts[:50])) <= 2.0 * F.bound + 1e-15).all()


# ---------------------------------------------------------------------------
# algebraic properties on randomized draws
# ---------------------------------------------------------------------------

from conftest import CANONICAL_WEIGHTS
from poisson_malliavin import GroundSpace

SPACE = GroundSpace(CANONICAL_WEIGHTS)
POOL = functional_pool(SPACE)

counts_st = st.lists(st.integers(min_value=0, max_value=8), min_size=3, max_size=3)
site_st = st.integers(min_value=1, max_value=3)
dyadic_st = st.sampled_from([-2.0, -0.5, 0.25, 0.5, 1.0, 2.0])
functional_st = st.sampled_from(POOL)


# Each property compares a batch operator (add_diff_all / drop_diff_all) on
# one side with the hand-built differences of conftest on the other.

@settings(deadline=None)
@given(counts_st, site_st, dyadic_st, dyadic_st, functional_st, functional_st)
def test_diff_operators_linear(counts, z, a, b, F, G):
    eta = np.array(counts)
    combo = affine_of([(a, F), (b, G)])
    assert add_diff_all(combo, eta)[z - 1] == pytest.approx(
        a * d_plus(F, eta, z) + b * d_plus(G, eta, z), abs=1e-11
    )
    assert drop_diff_all(combo, eta)[z - 1] == pytest.approx(
        a * d_minus(F, eta, z) + b * d_minus(G, eta, z), abs=1e-11
    )


@settings(deadline=None)
@given(counts_st, site_st, functional_st)
def test_square_chain_rules(counts, z, F):
    eta = np.array(counts)
    F2 = product_of(F, F)
    fval = float(F.batch(eta))
    dplus = d_plus(F, eta, z)
    dminus = d_minus(F, eta, z)
    assert add_diff_all(F2, eta)[z - 1] == pytest.approx(
        2.0 * fval * dplus + dplus * dplus, abs=1e-12
    )
    assert drop_diff_all(F2, eta)[z - 1] == pytest.approx(
        2.0 * fval * dminus - dminus * dminus, abs=1e-12
    )


@settings(deadline=None)
@given(counts_st, site_st, functional_st, functional_st)
def test_product_rule(counts, z, F, G):
    eta = np.array(counts)
    lhs = add_diff_all(product_of(F, G), eta)[z - 1]
    dF, dG = d_plus(F, eta, z), d_plus(G, eta, z)
    fval, gval = float(F.batch(eta)), float(G.batch(eta))
    assert lhs == pytest.approx(fval * dG + gval * dF + dF * dG, abs=1e-11)


@settings(deadline=None)
@given(counts_st, site_st, functional_st)
def test_drop_add_conjugation(counts, z, F):
    eta = np.array(counts)
    minus = shift(eta, z, -1)
    if minus is not None:
        assert drop_diff_all(F, eta)[z - 1] == d_plus(F, minus, z)
    else:
        assert drop_diff_all(F, eta)[z - 1] == 0.0


# ---------------------------------------------------------------------------
# registry surface
# ---------------------------------------------------------------------------

class TestRegistrySpecs:
    def test_poly_count_spec(self, space, eta102):
        F = functional_from_spec(
            space, {"name": "poly_count", "B": [1, 2, 3], "degree": 2}
        )
        assert F.batch(eta102) == 9.0

    def test_bounds_certified(self, space):
        assert bounded_sigmoid(space, [1, 2], 1.0).bound == 1.0
        assert indicator_leq(space, [1, 2, 3], 2).bound == 1.0
        both = product_of(
            bounded_sigmoid(space, [1], 0.5), indicator_leq(space, [2], 1)
        )
        assert both.bound == 1.0
        assert linear_count(space, [1]).bound is None

    def test_affine_bound(self, space):
        F = affine_of([(2.0, bounded_sigmoid(space, [1], 1.0))], -1.0)
        assert F.bound == pytest.approx(3.0)

    def test_nested_spec(self, space, eta102):
        spec = {
            "name": "affine",
            "terms": [[0.5, {"name": "linear_count", "B": [1, 3]}]],
            "constant": 1.0,
        }
        F = functional_from_spec(space, spec)
        assert F.batch(eta102) == pytest.approx(1.0 + 0.5 * 3)

    def test_unknown_name(self, space):
        functionals = (
            "['affine', 'bounded_sigmoid', 'compose', 'constant', 'indicator_leq',"
            " 'linear_count', 'poly_count', 'product']"
        )
        with pytest.raises(ConfigError) as err:
            functional_from_spec(space, {"name": "nope"})
        assert str(err.value) == f"unknown functional name 'nope'; known: {functionals}"
        fields = (
            "['count_times_deterministic', 'derivative', 'deterministic',"
            " 'functional_times_indicator', 'site_indicator']"
        )
        with pytest.raises(ConfigError) as err:
            field_from_spec(space, {"name": "nope"})
        assert str(err.value) == f"unknown field name 'nope'; known: {fields}"

    def test_missing_param(self, space):
        with pytest.raises(ConfigError):
            functional_from_spec(space, {"name": "poly_count", "B": [1]})

    def test_field_specs(self, space, eta102):
        u = field_from_spec(space, {"name": "site_indicator", "B": [2]})
        assert u.values(eta102).tolist() == [0.0, 1.0, 0.0]
        v = field_from_spec(
            space,
            {"name": "derivative", "F": {"name": "linear_count", "B": [1, 2]}},
        )
        assert v.values(eta102).tolist() == [1.0, 1.0, 0.0]

    def test_names_identify_bindings(self, space):
        assert linear_count(space, [1]).name == "linear_count(B=[1])"
        assert linear_count(space, [1, 2]).name == "linear_count(B=[1,2])"
        # an object built from a spec is named by the spec's case-id text
        F = {
            "name": "product",
            "factors": [
                {"name": "bounded_sigmoid", "B": [1, 3], "scale": 0.5},
                {"name": "compose", "phi": "square",
                 "F": {"name": "indicator_leq", "B": [2], "m": 1}},
            ],
        }
        assert functional_from_spec(space, F).name == _describe(F)
        u = {"name": "functional_times_indicator", "B": [2], "F": F}
        assert field_from_spec(space, u).name == _describe(u)

    def test_non_finite_errors_name_the_failing_pair(self, space, exact):
        G = poly_count(space, [1], 400)  # overflows from 6 points at site 1 on
        for B, text in (([1], "B=[1]"), ([1, 2], "B=[1,2]")):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteValueError) as err:
                    exact.expectation(dirichlet_integrand(linear_count(space, B), G))
            assert str(err.value).startswith(
                f"dirichlet[linear_count({text}),poly_count(B=[1],degree=400)] produced"
            )

    def test_batch_shapes(self, space):
        counts = sample_batch(space, seed=3, m=17)
        F = poly_count(space, [1, 2], 2)
        assert F.batch(counts).shape == (17,)
        u = deterministic_field(space, [1.0, 2.0, 3.0])
        assert u.values(counts).shape == (17, 3)


# ---------------------------------------------------------------------------
# drop-side evaluation: site-by-site shifts against the (..., n, n) brute force
# ---------------------------------------------------------------------------

def dropped_diag_brute_force(u, counts):
    """u(eta - delta_z, z) 1_{z in eta} by evaluating u at every eta - delta_z
    as one (..., n, n) array and keeping the diagonal."""
    eye = np.eye(u.space.n, dtype=np.int64)
    minus = np.maximum(counts[..., None, :] - eye, 0)
    return np.diagonal(u.values(minus), axis1=-2, axis2=-1) * (counts > 0)


class TestDropSideEquivalence:
    @pytest.fixture(scope="class")
    def inputs(self, space, exact):
        n = space.n
        return [
            sample_batch(space, seed=11, m=64),
            exact.table.states,
            np.array([2, 0, 1], dtype=np.int64),
            sample_batch(space, seed=12, m=8 * n).reshape(8, n, n),
        ]

    @pytest.fixture(scope="class")
    def random_functionals(self, space):
        rng = np.random.default_rng(20260811)
        return [
            functional_from_spec(space, random_functional_spec(rng, space.n))
            for _ in range(200)
        ]

    # The brute force multiplies D+F by the indicator at empty sites, which
    # leaves -0.0 where D+F < 0; the drop difference there is +0.0.  Values
    # are equal, bit patterns are not, so compare with np.array_equal.

    def test_gradient_fields(self, space, random_functionals, inputs):
        # 1 / (1 + eta(Z)) is infinite at a count of -1: the clip must hold
        reciprocal = Functional(space, lambda c: 1.0 / (1.0 + c.sum(axis=-1)), "1/(1+N)")
        for F in random_functionals + [reciprocal]:
            u = derivative_field(F)
            for counts in inputs:
                expected = dropped_diag_brute_force(u, counts)
                assert np.array_equal(field_dropped_diag(u, counts), expected), F
                assert np.array_equal(drop_diff_all(F, counts), expected), F

    def test_other_fields(self, space, inputs):
        sig = bounded_sigmoid(space, [1, 2], 1.0)
        lin = linear_count(space, [1, 3])
        fields = [
            deterministic_field(space, [1.0, -0.5, 2.0]),
            site_indicator_field(space, [1, 3]),
            functional_times_indicator(space, [1, 2], sig),
            count_times_deterministic(space, [1, 2, 3], [1.0, -2.0, 0.5]),
            product_field(lin, derivative_field(sig)),
            product_field(sig, count_times_deterministic(space, [2], [0.5, 1.0, -1.0])),
            RandomField(space, lambda c: 1.0 / (1.0 + c), "1/(1+k_z)"),
        ]
        for u in fields:
            for counts in inputs:
                got = field_dropped_diag(u, counts)
                assert got.shape == counts.shape
                assert np.array_equal(got, dropped_diag_brute_force(u, counts)), u

    def test_shape_mismatch_is_typed(self, space):
        F = linear_count(space, [1])
        for u in (derivative_field(F), deterministic_field(space, [1.0, 1.0, 1.0])):
            with pytest.raises(ShapeError):
                field_dropped_diag(u, np.zeros((4, 2), dtype=np.int64))

    def test_gradient_field_is_not_evaluated_off_support(self, space):
        # F = 1 / (1 - k_1) is infinite only where k_1 = 1.  At eta = (0, 1, 1)
        # the drop differences are 0 by definition; evaluating the gradient
        # field at eta - delta_1 (clipped to eta) would read F(eta + delta_1)
        # and turn the empty site into 0 * inf = NaN.
        F = Functional(space, lambda c: 1.0 / (1.0 - c[..., 0]), "inverse")
        eta = np.array([0, 1, 1], dtype=np.int64)
        u = derivative_field(F)
        assert field_dropped_diag(u, eta).tolist() == [0.0, 0.0, 0.0]
        assert drop_diff_all(F, eta).tolist() == [0.0, 0.0, 0.0]
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.isnan(dropped_diag_brute_force(u, eta)[0])


class TestCompose:
    def test_tanh_bounds_unbounded_functional(self, space):
        # bound_map only runs for a bounded F, so this 1.0 comes from tanh
        # being bounded by 1 whatever its argument
        assert compose("tanh", linear_count(space, [1, 2])).bound == 1.0

    def test_bounded_functional_maps_its_bound(self, space):
        F = bounded_sigmoid(space, [1, 2], 1.0)
        assert compose("tanh", F).bound == float(np.tanh(F.bound))
        assert compose("square", linear_count(space, [1])).bound is None


# ---------------------------------------------------------------------------
# every evaluation of an inner functional or field goes through batch/values
# ---------------------------------------------------------------------------

_COMBINATORS = {
    "derivative_field": lambda F, G, u: derivative_field(F),
    "product_field": lambda F, G, u: product_field(F, u),
    "product_of": lambda F, G, u: product_of(F, G),
    "affine_of": lambda F, G, u: affine_of([(0.5, F), (2.0, G)], 1.0),
    "compose": lambda F, G, u: compose("tanh", F),
    "functional_times_indicator": lambda F, G, u: functional_times_indicator(SPACE, [1, 3], F),
    "shifted_diff_field": lambda F, G, u: _shifted_diff_field(u, 1),
}


@pytest.mark.parametrize("name", sorted(_COMBINATORS))
def test_batch_and_values_see_every_row_fn_sees(monkeypatch, name):
    fn_rows: dict[str, int] = {}
    batch_rows: dict[int, int] = {}

    def counting(label, fn):
        def counted(c):
            fn_rows[label] = fn_rows.get(label, 0) + int(np.prod(c.shape[:-1]))
            return fn(c)

        return counted

    for cls, method in ((Functional, "batch"), (RandomField, "values")):
        def wrapper(self, c, _raw=getattr(cls, method)):
            batch_rows[id(self)] = batch_rows.get(id(self), 0) + int(np.prod(np.shape(c)[:-1]))
            return _raw(self, c)

        monkeypatch.setattr(cls, method, wrapper)

    sig, poly = bounded_sigmoid(SPACE, [1, 2], 1.0), poly_count(SPACE, [2, 3], 2)
    field = count_times_deterministic(SPACE, [1], [1.0, -0.5, 2.0])
    F = Functional(SPACE, counting("F", sig.fn), "F")
    G = Functional(SPACE, counting("G", poly.fn), "G")
    u = RandomField(SPACE, counting("u", field.fn), "u")
    combined = _COMBINATORS[name](F, G, u)
    counts = sample_batch(SPACE, 11, 50).reshape(5, 10, 3)
    if isinstance(combined, Functional):
        combined.batch(counts)
    else:
        combined.values(counts)
    assert fn_rows
    for label, leaf in (("F", F), ("G", G), ("u", u)):
        assert batch_rows.get(id(leaf), 0) == fn_rows.get(label, 0), label
