from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poisson_malliavin import (
    BracketKind,
    ConfigError,
    Functional,
    GroundSpace,
    InvalidSiteError,
    ShapeError,
    SiteSet,
    bracket_batch,
    linear_count,
    site_indicator_field,
)
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
            SiteSet.of([4]).imask(space)


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

