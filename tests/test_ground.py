from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from poisson_malliavin import (
    Configuration,
    GroundSpace,
    InvalidSiteError,
    PointAbsentError,
    ShapeError,
    SiteSet,
    add_point,
    count_of,
    drop_point,
    measure_of,
)


class TestGroundSpace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroundSpace(())

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_weight(self, bad):
        with pytest.raises(ValueError):
            GroundSpace((0.5, bad))

    def test_total_mass(self, space):
        assert space.total_mass == pytest.approx(3.0)
        assert space.n == 3

    def test_json_roundtrip(self, space):
        text = space.to_json()
        assert json.loads(text) == {"weights": [0.5, 1.0, 1.5]}
        assert GroundSpace.from_json(text) == space


class TestMeasureOf:
    def test_empty_set(self, space):
        assert measure_of(space, SiteSet.of([])) == 0.0

    def test_full_set_is_total_mass(self, space):
        assert measure_of(space, SiteSet.full(space)) == space.total_mass == 3.0

    def test_hand_sum(self, space):
        # 0.5 + 1.5, sites 1 and 3
        assert measure_of(space, SiteSet.of([1, 3])) == pytest.approx(2.0)

    def test_out_of_range_site(self, space):
        with pytest.raises(InvalidSiteError):
            measure_of(space, SiteSet.of([4]))


class TestCountOf:
    def test_total(self, eta102):
        assert count_of(eta102, SiteSet.of([1, 2, 3])) == 3

    def test_empty_site(self, eta102):
        assert count_of(eta102, SiteSet.of([2])) == 0

    def test_hand_sum(self, eta102):
        assert count_of(eta102, SiteSet.of([1, 3])) == 3

    def test_shape_mismatch(self, space):
        with pytest.raises(ShapeError):
            Configuration(space, (1, 0))


class TestAddDrop:
    def test_add_increments(self, space):
        eta = Configuration(space, (1, 0, 2))
        assert add_point(eta, 2).counts == (1, 1, 2)
        assert eta.counts == (1, 0, 2)  # value semantics

    def test_add_from_empty(self, space):
        eta = Configuration(space, (0, 0, 0))
        assert add_point(eta, 1).counts == (1, 0, 0)

    def test_add_then_drop_is_identity(self, space):
        eta = Configuration(space, (1, 0, 2))
        assert drop_point(add_point(eta, 2), 2) == eta

    def test_drop_decrements(self, space):
        assert drop_point(Configuration(space, (1, 1, 2)), 2).counts == (1, 0, 2)
        assert drop_point(Configuration(space, (2, 0, 0)), 1).counts == (1, 0, 0)

    def test_drop_absent_point(self, space):
        with pytest.raises(PointAbsentError):
            drop_point(Configuration(space, (1, 0, 2)), 2)

    def test_site_out_of_range(self, space):
        eta = Configuration(space, (1, 0, 2))
        with pytest.raises(InvalidSiteError):
            add_point(eta, 0)
        with pytest.raises(InvalidSiteError):
            add_point(eta, 4)

    def test_negative_count_rejected(self, space):
        with pytest.raises(ValueError):
            Configuration(space, (1, -1, 0))


class TestConfigurationSerialization:
    def test_json_roundtrip(self, space, eta102):
        text = eta102.to_json()
        assert json.loads(text) == {"counts": [1, 0, 2]}
        assert Configuration.from_json(space, text) == eta102

    def test_missing_key(self, space):
        with pytest.raises(ShapeError):
            Configuration.from_dict(space, {"c": [1, 0, 2]})


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

weights_st = st.lists(
    st.floats(min_value=0.05, max_value=5.0, allow_nan=False), min_size=1, max_size=5
).map(tuple)


@st.composite
def space_and_config(draw):
    space = GroundSpace(draw(weights_st))
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=space.n,
            max_size=space.n,
        )
    )
    return space, Configuration(space, tuple(counts))


@given(space_and_config(), st.data())
def test_add_drop_mutual_inverse(sc, data):
    space, eta = sc
    z = data.draw(st.integers(min_value=1, max_value=space.n))
    assert drop_point(add_point(eta, z), z) == eta
    if eta.counts[z - 1] >= 1:
        assert add_point(drop_point(eta, z), z) == eta


@given(space_and_config(), st.data())
def test_count_of_add_point(sc, data):
    space, eta = sc
    z = data.draw(st.integers(min_value=1, max_value=space.n))
    members = data.draw(st.sets(st.integers(min_value=1, max_value=space.n)))
    B = SiteSet.of(members)
    bumped = count_of(add_point(eta, z), B)
    assert bumped == count_of(eta, B) + (1 if z in members else 0)


@given(space_and_config(), st.data())
def test_measure_additive_over_disjoint_sets(sc, data):
    space, _ = sc
    members = data.draw(st.sets(st.integers(min_value=1, max_value=space.n)))
    split = data.draw(st.sets(st.sampled_from(sorted(members)))) if members else set()
    A = SiteSet.of(split)
    B = SiteSet.of(members - split)
    total = measure_of(space, SiteSet.of(members))
    assert measure_of(space, A) + measure_of(space, B) == pytest.approx(
        total, abs=1e-12
    )
