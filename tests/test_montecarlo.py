from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

from poisson_malliavin import (
    ConfigError,
    Functional,
    Mean,
    MonteCarloBackend,
    NonFiniteValueError,
    SamplerConfig,
    ShapeError,
    affine_of,
    bounded_sigmoid,
    constant,
    deterministic_field,
    exact_expectation,
    functional_times_indicator,
    linear_count,
    poly_count,
    product_of,
)
from poisson_malliavin import GroundSpace, montecarlo
from poisson_malliavin.montecarlo import draw, draw_blocks, sample_counts
from poisson_malliavin.identities import mecke_kernel

from conftest import mc_rows, same_bits

CFG = SamplerConfig(seed=424242, samples=100_000)


class TestSampler:
    def test_single_draw_counts(self, space):
        rng = np.random.default_rng(1)
        counts = sample_counts(space, rng, 1)
        assert counts.shape == (1, space.n)
        assert counts.dtype == np.int64
        assert (counts >= 0).all()

    def test_mean_total_count(self, space):
        F = linear_count(space, [1, 2, 3])
        est = MonteCarloBackend(space, CFG).expectation(F)
        assert abs(est.value - 3.0) <= 4.0 * est.std_error

    def test_variance_of_site_count(self, space):
        # Var eta({1}) = lambda_1 = 0.5; estimate it as E[(eta({1}) - 0.5)^2]
        centered = affine_of([(1.0, linear_count(space, [1]))], -0.5)
        est = MonteCarloBackend(space, CFG).expectation(product_of(centered, centered))
        assert abs(est.value - 0.5) <= 4.0 * est.std_error

    def test_second_moment(self, space):
        # E eta(Z)^2 = nu(Z) + nu(Z)^2 = 12
        est = MonteCarloBackend(space, CFG).expectation(poly_count(space, [1, 2, 3], 2))
        assert abs(est.value - 12.0) <= 4.0 * est.std_error


    def test_weight_past_the_sampler_limit_is_config_error(self):
        """numpy's Poisson sampler takes means up to int64 max - 10 sqrt(int64
        max) and raises a bare ValueError past them; every draw refuses such
        a weight first, naming it and the limit."""
        limit = 9.223372006484771e18
        assert montecarlo._MAX_WEIGHT == limit
        at = GroundSpace((0.5, limit))
        counts = sample_counts(at, np.random.default_rng(1), 3)
        assert counts.shape == (3, 2) and (counts[:, 1] > 0).all()
        past = GroundSpace((0.5, float(np.nextafter(limit, np.inf))))
        message = "^" + re.escape(f"weight {past.weights[1]!r} is above {limit!r}, ")
        for call in (
            lambda: sample_counts(past, np.random.default_rng(1), 3),
            lambda: next(draw_blocks(past, 1, 3)),
            lambda: MonteCarloBackend(past, CFG).expectation(linear_count(past, [1])),
        ):
            with pytest.raises(ConfigError, match=message):
                call()


class TestReproducibility:
    def test_bitwise_identical_single_worker(self, space):
        F = poly_count(space, [1, 2], 2)
        a = MonteCarloBackend(space, CFG).expectation(F)
        b = MonteCarloBackend(space, CFG).expectation(F)
        assert a == b  # bitwise: same dataclass values



class TestEstimate:
    def test_constant_functional(self, space):
        est = MonteCarloBackend(space, SamplerConfig(0, 1000)).expectation(constant(space, 2.5))
        assert est == Mean(2.5, 1000, std_error=0.0)

    def test_mean_needs_one_value_per_row(self, space):
        be = MonteCarloBackend(space, SamplerConfig(1, 1000))
        rows = len(be._distinct()[0])
        assert rows < 1000  # a per-sample array is refused too
        for values in (np.ones(5), np.ones(1000), np.ones((rows, 1))):
            message = rf"one value per row, shape \({rows},\), got shape {re.escape(str(values.shape))}"
            with pytest.raises(ShapeError, match=message):
                be.mean(values)
        assert be.mean(np.ones(rows)) == Mean(1.0, 1000, std_error=0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ConfigError, match="samples must be an integer >= 2"):
            SamplerConfig(seed=0, samples=1)

    @pytest.mark.parametrize("seed, samples", [(True, 10), (0, 10.0), (0, "10"), (None, 10)])
    def test_sampler_config_needs_integers(self, seed, samples):
        with pytest.raises(ConfigError, match="must be an integer"):
            SamplerConfig(seed=seed, samples=samples)

    def test_sampler_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1, samples=10)
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, samples=0)


class TestMeckeDefect:
    """The paired Mecke defect is zero exactly when the sampler realises the
    Poisson law."""

    def test_unit_field(self, space):
        u = deterministic_field(space, [1.0, 1.0, 1.0])
        *_, defect = MonteCarloBackend(space, CFG).paired(mecke_kernel(u))
        assert abs(defect.value) <= 4.0 * defect.std_error

    def test_bounded_sigmoid_field(self, space):
        u = functional_times_indicator(
            space, [1, 2], bounded_sigmoid(space, [1, 2], 1.0)
        )
        *_, defect = MonteCarloBackend(space, CFG).paired(mecke_kernel(u))
        assert abs(defect.value) <= 4.0 * defect.std_error

    def test_deterministic_field(self, space):
        u = deterministic_field(space, [1.0, -0.5, 2.0])
        *_, defect = MonteCarloBackend(space, CFG).paired(mecke_kernel(u))
        assert abs(defect.value) <= 4.0 * defect.std_error


class TestNonFiniteAbort:
    @staticmethod
    def _abort(space, sorted_path: bool) -> str:
        def fn(c):
            vals = c.sum(axis=-1).astype(float)
            return np.where(vals > 4, np.inf, vals)

        F = Functional(space, fn, "explodes")
        be = MonteCarloBackend(space, SamplerConfig(seed=3, samples=5000))
        assert (be._levels is None) == sorted_path
        with pytest.raises(NonFiniteValueError) as err:
            be.expectation(F)
        return str(err.value)

    def test_offending_configuration_echoed(self, space):
        # the first offending sample in draw order, not in distinct-row order
        assert self._abort(space, sorted_path=False) == (
            "explodes produced a non-finite value at configuration counts=[2, 1, 3]"
        )

    def test_sorted_path_echoes_the_same_configuration(self, space, monkeypatch):
        _sorted_path(monkeypatch)
        assert self._abort(space, sorted_path=True) == (
            "explodes produced a non-finite value at configuration counts=[2, 1, 3]"
        )

    def test_first_draw_walks_the_blocks(self, monkeypatch):
        """Locating the first bad draw walks the stream block by block, each
        keyed with the run's plan, up to the block holding it: here the
        second, on 12 sites whose keys are ranked."""
        be = MonteCarloBackend(WIDE, SamplerConfig(seed=3, samples=10_000))
        keys, _ = be._distinct()
        assert any(table is not None for *_, table in be._plan)
        counts = draw(WIDE, 3, 10_000)
        drawn = _record_draws(monkeypatch)
        finite = keys != montecarlo._keys(counts)[0][5000]
        assert same_bits(be._first_draw(finite), counts[5000])
        assert [len(b) for b in drawn] == [4096, 4096]


def test_engine_refuses_functional_of_another_space(space):
    """Same number of sites, other weights: refused as the checks refuse it."""
    F = linear_count(GroundSpace((0.5, 1.0, 1.6)), [1, 2])
    cfg = SamplerConfig(seed=1, samples=100)
    message = "is bound to a different ground space than the backend"
    with pytest.raises(ShapeError, match=message):
        MonteCarloBackend(space, cfg).expectation(F)


class TestAgreementWithExact:
    def test_registry_functionals(self, space, exact):
        pool = [
            linear_count(space, [1, 2]),
            poly_count(space, [1, 2, 3], 2),
            bounded_sigmoid(space, [1, 2], 1.0),
        ]
        for F in pool:
            est = MonteCarloBackend(space, CFG).expectation(F)
            ex = exact_expectation(F, exact.table)
            assert abs(est.value - ex.value) <= 4.0 * est.std_error + ex.error_bound

    def test_backend_facade(self, space):
        be = MonteCarloBackend(space, CFG)
        est = be.expectation(linear_count(space, [3]))
        assert abs(est.value - 1.5) <= 4.0 * est.std_error
        assert be.seed == CFG.seed


def _full_draw(space, cfg):
    """The run's draws in full, as the stream discipline defines it."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    return rng.poisson(lam=space.weights_array, size=(cfg.samples, space.n))


WIDE = GroundSpace((60.0,) * 12)  # 60^12 > 2^62: rows cannot share an int64 key
# each site's radix times the sample count overflows int64: a site's column
# is ranked too, not only the key of the sites after it
HUGE = GroundSpace((1e15, 1e15))
TWENTY = GroundSpace((8.0,) * 20)


def _summation_bound(m: int) -> float:
    """k eps for numpy's pairwise ``np.sum`` of m terms, k bounding the
    rounding depth (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3-4: the error of a summation tree of depth k is at
    most about k eps sum |x_i|).  Below 8 terms numpy adds in sequence;
    up to 128 it runs 8 accumulators of at most 16 terms and joins them in
    3 levels; longer sums are halved first.  So the depth is at most
    ceil(log2 m) + 16, plus 2 for the weighting product and the final
    division."""
    return (math.ceil(math.log2(max(m, 2))) + 18) * np.finfo(np.float64).eps


def _assert_reduced(mean: Mean, per_sample: np.ndarray, rows: int) -> None:
    """``mean`` lies within the summation bound of the correctly rounded
    sample mean and standard error, both from ``math.fsum`` over the
    per-sample values; the variance's terms are all >= 0, so its bound is
    relative."""
    n = per_sample.size
    tol = _summation_bound(rows)
    ref = math.fsum(per_sample) / n
    se_ref = math.sqrt(math.fsum((per_sample - ref) ** 2) / (n - 1) / n)
    assert mean.n == n
    assert abs(mean.value - ref) <= tol * math.fsum(np.abs(per_sample)) / n
    assert abs(mean.std_error - se_ref) <= tol * se_ref


class TestDedupEquivalence:
    """Kernels on distinct rows reproduce a sweep over the full block bit
    for bit, row for row, and the multiplicity-weighted means lie within
    the summation bound of the correctly rounded per-sample means."""

    # decreasing weights give the first site the widest radix, which an
    # off-by-one place value would fold onto the next site; the last three
    # spaces' radix products overflow int64
    @pytest.fixture(params=["canonical", "decreasing", "wide", "huge", "twenty"])
    def case(self, request, space):
        return {
            "canonical": (space, 20_000, [1, 2]),
            "decreasing": (GroundSpace((6.0, 1.0, 0.5)), 20_000, [1, 2]),
            "wide": (WIDE, 3_001, [1, 5, 12]),
            "huge": (HUGE, 20_000, [1, 2]),
            "twenty": (TWENTY, 20_000, [1, 7, 20]),
        }[request.param]

    # the per-sample reference runs on the draws whole and in 4 pieces,
    # batches the sweep's parts never match
    @pytest.mark.parametrize("pieces", [1, 4])
    def test_matches_brute_force(self, case, pieces):
        sp, samples, B = case
        cfg = SamplerConfig(seed=5, samples=samples)
        counts = _full_draw(sp, cfg)
        blocks = np.array_split(counts, pieces)
        be = MonteCarloBackend(sp, cfg)
        rows = mc_rows(be)
        _, weights = be._distinct()
        # every draw's distinct row, found here by the row's bytes
        index = {row.tobytes(): r for r, row in enumerate(rows)}
        inverse = np.array([index[draw.tobytes()] for draw in counts])
        assert np.array_equal(rows[inverse], counts)
        assert np.array_equal(weights, np.bincount(inverse, minlength=len(rows)))

        F = poly_count(sp, B, 2)
        values = np.concatenate([F.batch(b) for b in blocks])
        (per_row,) = be.sweep(lambda c: (F.batch(c),), (F.name,))
        assert same_bits(per_row[inverse], values)
        est = MonteCarloBackend(sp, cfg).expectation(F)
        assert est == be.expectation(F, per_row)
        _assert_reduced(est, values, len(rows))

        u = functional_times_indicator(sp, B, bounded_sigmoid(sp, B, 1.0))
        kernel = mecke_kernel(u)
        outs = [kernel(b) for b in blocks]
        lhs = np.concatenate([o[0] for o in outs])
        rhs = np.concatenate([o[1] for o in outs])
        row_lhs, row_rhs = be.sweep(kernel, ("lhs", "rhs"))
        assert same_bits(row_lhs[inverse], lhs) and same_bits(row_rhs[inverse], rhs)
        means = [be.mean(v) for v in (row_lhs, row_rhs, row_lhs - row_rhs)]
        assert be.paired(kernel) == (means[0].value, means[1].value, means[2])
        for mean, per_sample in zip(means, (lhs, rhs, lhs - rhs)):
            _assert_reduced(mean, per_sample, len(rows))

    def test_distinct_rows_rebuild_the_block(self, case):
        sp, samples, _ = case
        cfg = SamplerConfig(seed=9, samples=samples)
        counts = _full_draw(sp, cfg)
        be = MonteCarloBackend(sp, cfg)
        keys, multiplicity = be._distinct()
        assert (np.diff(keys) > 0).all()
        # the same rows and multiplicities as a whole-row sort finds
        rows = mc_rows(be)
        want, drawn = np.unique(counts, axis=0, return_counts=True)
        order = np.lexsort(rows.T[::-1])
        assert np.array_equal(rows[order], want)
        assert np.array_equal(multiplicity[order], drawn)
        assert multiplicity.dtype == np.float64 and multiplicity.sum() == samples
        # keys were ranked exactly where the mixed-radix product overflows
        _, plan = montecarlo._keys(counts)
        ranked = any(table is not None for *_, table in plan)
        fits = math.prod((counts.max(axis=0) + 1).tolist()) <= np.iinfo(np.int64).max
        assert ranked != fits
        assert any(values is not None for _, values, _ in plan) == (sp is HUGE)


@pytest.mark.parametrize(
    "weights", [(0.5, 1.0, 1.5), (6.0, 1.0, 0.5), (8.0,) * 6, (0.01,) * 11]
)
def test_keys_are_mixed_radix_where_they_fit(weights):
    """Where the radix product fits in int64, keys are ``counts @ [1, r_0,
    r_0 r_1, ...]``, so distinct rows keep the order they always had."""
    space = GroundSpace(weights)
    counts = draw(space, 3, 20_000)
    radix = counts.max(axis=0) + 1
    keys, plan = montecarlo._keys(counts)
    assert np.array_equal(keys, counts @ np.concatenate(([1], np.cumprod(radix[:-1]))))
    assert plan == [(int(r), None, None) for r in radix]


@pytest.mark.parametrize(
    "weights", [(0.5, 1.0, 1.5), (8.0,) * 6, (8.0,) * 8, (8.0,) * 20, (1e15, 1e15)]
)
def test_decoded_rows_are_the_draws_in_the_memo_layout(weights):
    """Every draw's key decodes to the draw bit for bit, site-major below 8
    sites and C-ordered from 8 on, as a row stencil stores its rows; so do
    a backend's distinct keys, part by part."""
    space = GroundSpace(weights)
    counts = draw(space, 11, 5_000)
    keys, plan = montecarlo._keys(counts)
    rows = montecarlo._decode(keys, plan)
    assert same_bits(rows, counts)
    be = MonteCarloBackend(space, SamplerConfig(seed=11, samples=5_000))
    part = be._rows_of(7, 300)
    for got in (rows, part):
        assert got.dtype == np.int64
        assert (got.T if space.n < 8 else got).flags.c_contiguous
    distinct = mc_rows(be)
    assert same_bits(part, distinct[7:300])
    assert len(np.unique(distinct, axis=0)) == len(distinct)
    assert {row.tobytes() for row in distinct} == {row.tobytes() for row in counts}


def test_distinct_frees_the_draw_before_the_sort():
    """6 sites at weight 8, 1e5 samples, almost every row distinct: the
    first ``_distinct`` call frees the 4.6 MiB draw before it sorts, so its
    tracemalloc peak is the draw and its keys, and it keeps only the sorted
    keys and their weights (numpy 2.4: 5.34 MiB peak, 1.45 MiB kept, against
    11.88 and 5.81 while the rows, their first-draw indices and the sort
    were held at once)."""
    be = MonteCarloBackend(GroundSpace((8.0,) * 6), SamplerConfig(seed=20260810, samples=100_000))
    tracemalloc.start()
    try:
        be._distinct()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 << 20
    assert held <= 2 << 20


def test_dense_distinct_holds_no_draw():
    """Canonical space, 1e6 samples: the dense path holds one 4,096-row
    block and an 880-cell count grid, never the 24 MiB (samples, n) draw or
    its 8 MiB of keys (numpy 2.4: 0.22 MiB peak, 0.02 MiB kept)."""
    be = MonteCarloBackend(GroundSpace((0.5, 1.0, 1.5)), SamplerConfig(seed=20260810, samples=10**6))
    assert be._levels == [7, 9, 10]
    tracemalloc.start()
    try:
        be._distinct()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
    assert held <= 64 << 10


class TestDrawBudget:
    """The sorted path holds samples x (n + 1) int64 values at once, the
    draw and its keys; past ``DRAW_BUDGET`` bytes it is refused before
    anything is drawn.  The dense path holds its grid and one block."""

    def test_sorted_draw_past_the_budget_is_refused(self):
        wide = GroundSpace((8.0,) * 7)
        at = MonteCarloBackend(wide, SamplerConfig(seed=0, samples=2**24))
        assert at._levels is None and 2**24 * 8 * 8 == montecarlo.DRAW_BUDGET
        message = (
            "samples: 16777217 x 8 int64 values need 1073741888 bytes at once,"
            " past the draw budget of 1073741824 bytes"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            MonteCarloBackend(wide, SamplerConfig(seed=0, samples=2**24 + 1))

    def test_dense_path_is_not_priced_by_samples(self, space):
        assert MonteCarloBackend(space, SamplerConfig(seed=0, samples=10**10))._levels is not None

    def test_fallback_prices_the_sorted_draw(self, monkeypatch):
        """A grid grown past its limit falls back to the sorted path only
        within the budget: here the first block already overflows it."""
        space = GroundSpace((30.0,) * 6)
        monkeypatch.setattr(montecarlo, "_grid_levels", lambda sp, samples: [0] * sp.n)
        be = MonteCarloBackend(space, SamplerConfig(seed=0, samples=10**10))
        with pytest.raises(ConfigError, match="^samples: 10000000000 x 7 int64 values need "):
            be._distinct()


@pytest.mark.parametrize("weights", [(0.5,), (8.0,), (30.0,), (0.5, 8.0, 30.0)])
def test_blocks_are_the_one_shot_draw(weights):
    """``draw_blocks`` cuts one stream into blocks whose rows are the one-shot
    draw's, bit for bit: weights 0.5, 8 and 30 reach numpy's inversion and
    rejection Poisson samplers."""
    space = GroundSpace(weights)
    blocks = list(draw_blocks(space, 9, 10_000))
    assert [len(b) for b in blocks] == [4096, 4096, 1808]
    assert same_bits(np.concatenate(blocks), draw(space, 9, 10_000))


class TestDrawOnce:
    def test_one_draw_per_worker_and_distinct_rows_only(self, space, monkeypatch):
        """The dense path draws the stream in blocks: together they are the
        one-shot draw bit for bit, 30,000 rows across four sweeps, so the
        stream is drawn once per backend."""
        want = draw(space, 1, 30_000)
        drawn = _record_draws(monkeypatch)
        seen = []

        def sized(kernel):
            def wrapped(counts):
                seen.append(len(counts))
                return kernel(counts)

            return wrapped

        be = MonteCarloBackend(space, SamplerConfig(seed=1, samples=30_000))
        assert be._levels is not None
        F = poly_count(space, [1, 2, 3], 2)
        u = deterministic_field(space, [1.0, -0.5, 2.0])
        for _ in range(2):
            be.paired(sized(mecke_kernel(u)))
            be.expectation(Functional(space, sized(F.batch), "sized"))

        assert sum(len(b) for b in drawn) == 30_000
        assert same_bits(np.concatenate(drawn), want)
        assert seen == [len(np.unique(want, axis=0))] * 4


def _record_draws(monkeypatch) -> list:
    """Every block ``sample_counts`` draws from here on, in draw order."""
    drawn, real = [], montecarlo.sample_counts
    monkeypatch.setattr(montecarlo, "sample_counts", lambda *a: drawn.append(real(*a)) or drawn[-1])
    return drawn


def _sorted_path(monkeypatch):
    """Send every backend made from here on down the sorted path."""
    monkeypatch.setattr(montecarlo, "_grid_levels", lambda space, samples: None)


class TestTwoPaths:
    """The dense count grid and the sorted keys give the same keys, plan,
    multiplicities and decoded rows: sorted keys are lexicographic in
    (eta_{n-1}, ..., eta_0) whatever the radix, and the grid is cut to the
    drawn maxima at the end."""

    @staticmethod
    def _both(space, cfg, monkeypatch):
        dense = MonteCarloBackend(space, cfg)
        with monkeypatch.context() as m:
            _sorted_path(m)
            ranked = MonteCarloBackend(space, cfg)
        assert dense._levels is not None and ranked._levels is None
        return dense, ranked

    @staticmethod
    def _assert_same(a, b):
        (ka, wa), (kb, wb) = a._distinct(), b._distinct()
        assert np.array_equal(ka, kb) and same_bits(wa, wb)
        assert a._plan == b._plan
        assert same_bits(mc_rows(a), mc_rows(b))

    @pytest.mark.parametrize("weights", [(0.5,), (0.5, 1.0, 1.5), (0.2,) * 6])
    @pytest.mark.parametrize("seed", [3, 20260810])
    def test_paths_agree(self, weights, seed, monkeypatch):
        space = GroundSpace(weights)
        self._assert_same(*self._both(space, SamplerConfig(seed=seed, samples=20_000), monkeypatch))

    def test_grid_grows_mid_stream(self, space, monkeypatch):
        """At seed 0 the first block stays inside each site's level at tail
        1 / samples, and a later one passes site 3's: the grid grows."""
        cfg = SamplerConfig(seed=0, samples=20_000)
        levels = montecarlo._grid_levels(space, cfg.samples)
        assert levels == [5, 7, 8]
        counts = draw(space, cfg.seed, cfg.samples)
        assert (counts[:4096].max(axis=0) <= levels).all()
        assert counts.max(axis=0).tolist() == [5, 7, 10]
        dense, ranked = self._both(space, cfg, monkeypatch)
        self._assert_same(dense, ranked)
        assert dense._plan == [(6, None, None), (8, None, None), (11, None, None)]

    def test_grid_past_samples_falls_back_to_sorted(self, monkeypatch):
        """From a one-cell grid the first block grows the box to 9,500 cells;
        the second would grow it past ``samples`` cells, so the grid is given
        up and the stream drawn again, whole, on the sorted path."""
        space = GroundSpace((8.0,) * 3)
        cfg = SamplerConfig(seed=5, samples=10_000)
        with monkeypatch.context() as m:
            _sorted_path(m)
            ranked = MonteCarloBackend(space, cfg)
            ranked._distinct()
        monkeypatch.setattr(montecarlo, "_grid_levels", lambda sp, samples: [0] * sp.n)
        drawn = _record_draws(monkeypatch)
        self._assert_same(MonteCarloBackend(space, cfg), ranked)
        assert [len(b) for b in drawn] == [4096, 4096, 10_000]

    @pytest.mark.parametrize(
        "weights, samples",
        [((8.0,) * 6, 100_000), ((0.5, 40.0), 40), ((0.01,) * 11, 100_000), ((2e5,), 10**7)],
    )
    def test_box_wider_than_samples_is_sorted(self, weights, samples):
        """A box of more than ``samples`` cells, a weight >= samples, or a
        weight whose level the pmf walk refuses takes the sorted path."""
        assert montecarlo._grid_levels(GroundSpace(weights), samples) is None
