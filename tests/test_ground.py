from __future__ import annotations

import importlib
import pkgutil
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import poisson_malliavin
from poisson_malliavin import (
    BracketKind,
    ConfigError,
    Functional,
    GroundSpace,
    InvalidSiteError,
    ShapeError,
    affine_of,
    bounded_sigmoid,
    bracket_batch,
    commutation_check,
    constant,
    count_times_deterministic,
    deterministic_field,
    indicator_leq,
    linear_count,
    poly_count,
    site_indicator_field,
)
from poisson_malliavin.ground import _is_real
from poisson_malliavin.functionals import add_diff_all, drop_diff_all, shifted_all


class TestGroundSpace:
    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            GroundSpace(())

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_weight(self, bad):
        with pytest.raises(ConfigError):
            GroundSpace((0.5, bad))

    def test_rejects_non_real_weight(self):
        with pytest.raises(ConfigError, match=r"weights must be real numbers, got \(None,\)"):
            GroundSpace((None,))

    @pytest.mark.parametrize("bad", ["2", "0.5", True, False])
    def test_rejects_string_and_bool_weights(self, bad):
        """Refused as the registry refuses them, not coerced by float()."""
        with pytest.raises(ConfigError, match="weights must be real numbers"):
            GroundSpace((0.5, bad))

    def test_config_rejects_string_and_bool_weights(self):
        message = "space.weights: weights must be real numbers, got ('0.5', True, 1.5)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            poisson_malliavin.parse_config({"space": {"weights": ["0.5", True, 1.5]}})

    def test_accepts_numpy_numbers(self):
        space = GroundSpace((np.float32(0.5), np.int64(2), np.float64(1.5)))
        assert space.weights == (0.5, 2.0, 1.5)
        assert all(type(w) is float for w in space.weights)

    def test_total_mass(self, space):
        assert space.total_mass == pytest.approx(3.0)
        assert space.n == 3


def nu(space, B) -> float:
    """nu(B) as the plus bracket [1_B, 1_B]_+ = sum_z lambda_z 1_B(z)."""
    u = site_indicator_field(space, B)
    return float(bracket_batch(u, u, BracketKind.PLUS, np.zeros(space.n, dtype=np.int64)))


class TestMeasureOf:
    def test_empty_set(self, space):
        assert nu(space, []) == 0.0

    def test_full_set_is_total_mass(self, space):
        assert nu(space, space.sites) == space.total_mass == 3.0

    def test_hand_sum(self, space):
        # 0.5 + 1.5, sites 1 and 3
        assert nu(space, [1, 3]) == pytest.approx(2.0)

    def test_out_of_range_site(self, space):
        with pytest.raises(InvalidSiteError):
            space.site_mask([4])


class TestSiteNumbers:
    """Sites are integers in 1..n, given as any iterable; nothing else is
    rounded or parsed into one."""

    @pytest.mark.parametrize("bad", [[1.5], ["2"], [True], [4], [0], [1, 2.0]])
    def test_non_integer_or_outside_site_is_refused(self, space, bad):
        message = re.escape(f"site {bad[-1]!r} is not an integer in 1..3")
        with pytest.raises(InvalidSiteError, match=message):
            space.site_mask(bad)
        for build in (linear_count, site_indicator_field):
            with pytest.raises(InvalidSiteError):
                build(space, bad)
        with pytest.raises(InvalidSiteError):
            commutation_check(site_indicator_field(space, [1]), bad)

    @pytest.mark.parametrize("bad", [2, np.int64(2), np.array(2)])
    def test_site_set_that_is_not_iterable_is_refused(self, space, bad):
        message = re.escape(f"site set {bad!r} is not iterable")
        with pytest.raises(InvalidSiteError, match=message):
            space.site_mask(bad)
        with pytest.raises(InvalidSiteError, match=message):
            linear_count(space, bad)
        with pytest.raises(InvalidSiteError, match=message):
            commutation_check(site_indicator_field(space, [1]), bad)

    def test_repeated_sites_collapse(self, space):
        assert space.site_mask((3, 1, 3)).tolist() == [1, 0, 1]
        assert space.site_mask(np.array([2])).tolist() == [0, 1, 0]
        assert linear_count(space, [3, 1, 3]).name == "linear_count(B=[1,3])"

    @pytest.mark.parametrize("degree", [2.7, 2.0, "2", True, 0])
    def test_non_integer_degree_is_refused(self, space, degree):
        with pytest.raises(ConfigError, match="degree must be an integer >= 1"):
            poly_count(space, [1], degree)

    @pytest.mark.parametrize("m", [2.5, 2.0, "2", None])
    def test_non_integer_m_is_refused(self, space, m):
        with pytest.raises(ConfigError, match="m must be an integer"):
            indicator_leq(space, [1], m)


class TestRealParameters:
    """Real parameters of a direct constructor call are numbers within the
    double range, as on the config path: strings, bools, nan and inf are
    refused, not parsed or coerced."""

    BAD = ["0.5", True, float("nan"), float("inf"), None]

    @pytest.mark.parametrize("bad", BAD)
    def test_constant_value(self, space, bad):
        with pytest.raises(ConfigError, match="constant value must be a number"):
            constant(space, bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_bounded_sigmoid_scale(self, space, bad):
        with pytest.raises(ConfigError, match="bounded_sigmoid scale must be a number"):
            bounded_sigmoid(space, [1], bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_affine_coefficients_and_constant(self, space, bad):
        F = linear_count(space, [1])
        with pytest.raises(ConfigError, match="affine coefficient must be a number"):
            affine_of([(1.0, F), (bad, F)])
        with pytest.raises(ConfigError, match="affine constant must be a number"):
            affine_of([(2, F)], bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_deterministic_field_values(self, space, bad):
        with pytest.raises(ConfigError, match="deterministic field values must be numbers"):
            deterministic_field(space, [1.0, 2, bad])

    @pytest.mark.parametrize("bad", BAD)
    def test_count_times_deterministic_values(self, space, bad):
        with pytest.raises(ConfigError, match="count_times_deterministic values must be numbers"):
            count_times_deterministic(space, [1], [bad, 2, 3])

    def test_numbers_of_any_type_are_taken(self, space):
        assert constant(space, 2).name == "constant(value=2.0)"
        assert bounded_sigmoid(space, [1], np.float64(0.5)).name == (
            "bounded_sigmoid(B=[1],scale=0.5)"
        )
        assert deterministic_field(space, np.array([1, 2, 3])).name == (
            "deterministic(values=[1.0,2.0,3.0])"
        )
        assert site_indicator_field(space, [2]).name == "site_indicator(B=[2])"

    def test_narrow_numpy_floats_are_taken_without_warnings(self, space):
        """The double-range check compares a float32 or float16 parameter as
        a Python float, so no overflowing cast warns, and values past the
        double range are still refused, as every warning here is an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bounded_sigmoid(space, [1], np.float32(0.5)).name == (
                "bounded_sigmoid(B=[1],scale=0.5)"
            )
            assert constant(space, np.float16(-2.0)).name == "constant(value=-2.0)"
            assert deterministic_field(space, np.array([1, 2, 3], np.float32)).bound == 3.0
            for good in (np.float32(3e38), np.int8(-7), 10**300, Fraction(1, 3)):
                assert _is_real(good), good
            for bad in (np.float32("inf"), np.float16("nan"), np.longdouble(2.0) ** 2000,
                        10**400, Fraction(10**400)):
                assert not _is_real(bad), bad


def test_every_export_resolves():
    for info in pkgutil.iter_modules(poisson_malliavin.__path__):
        module = importlib.import_module(f"poisson_malliavin.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names missing {name!r}"
    assert not hasattr(poisson_malliavin, "SiteSet")


class TestCountOf:
    """eta(B) is ``linear_count(space, B)`` on a counts row."""

    def test_total(self, space, eta102):
        assert linear_count(space, [1, 2, 3]).batch(eta102) == 3

    def test_empty_site(self, space, eta102):
        assert linear_count(space, [2]).batch(eta102) == 0

    def test_hand_sum(self, space, eta102):
        assert linear_count(space, [1, 3]).batch(eta102) == 3

    def test_shape_mismatch(self, space):
        with pytest.raises(ShapeError):
            linear_count(space, [1]).batch(np.array([1, 0]))


def digits(space) -> Functional:
    """Reads a counts row as decimal digits, so (1, 0, 2) -> 102."""
    place = 10.0 ** np.arange(space.n)[::-1]
    return Functional(space, lambda c: c @ place, "digits")


class TestAddDrop:
    """eta +- delta_z as the batch shift ``shifted_all`` evaluates it."""

    def test_add_increments(self, space, eta102):
        assert shifted_all(digits(space), eta102, 1).tolist() == [202, 112, 103]
        assert eta102.tolist() == [1, 0, 2]  # the input is not touched

    def test_add_from_empty(self, space):
        assert shifted_all(digits(space), np.zeros(3, dtype=np.int64), 1).tolist() == [100, 10, 1]

    def test_add_then_drop_is_identity(self, space, eta102):
        F = digits(space)
        assert shifted_all(F, eta102 + np.eye(3, dtype=np.int64)[1], -1)[1] == F.batch(eta102)

    def test_drop_decrements(self, space):
        F = digits(space)
        assert shifted_all(F, np.array([1, 1, 2]), -1)[1] == 102
        assert shifted_all(F, np.array([2, 0, 0]), -1)[0] == 100

    def test_drop_absent_point(self, space, eta102):
        # the drop clips at an empty site, and the indicator zeroes D- there
        F = digits(space)
        assert shifted_all(F, eta102, -1).tolist() == [2, 102, 101]
        assert drop_diff_all(F, eta102)[1] == 0.0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

weights_st = st.lists(
    st.floats(min_value=0.05, max_value=5.0, allow_nan=False), min_size=1, max_size=5
).map(tuple)


@st.composite
def space_and_config(draw):
    space = GroundSpace(draw(weights_st))
    counts = draw(st.lists(st.integers(0, 6), min_size=space.n, max_size=space.n))
    return space, np.array(counts, dtype=np.int64)


@given(space_and_config(), st.data())
def test_count_of_add_point(sc, data):
    # eta(B) gains one point from eta + delta_z exactly when z is in B
    space, eta = sc
    members = data.draw(st.sets(st.integers(min_value=1, max_value=space.n)))
    bumped = add_diff_all(linear_count(space, members), eta)
    assert bumped.tolist() == [1.0 if z in members else 0.0 for z in space.sites]

