from __future__ import annotations

import math
import re

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
    mc_expectation,
    poly_count,
    product_of,
)
from poisson_malliavin import GroundSpace, montecarlo
from poisson_malliavin.montecarlo import sample_counts
from poisson_malliavin.identities import mecke_kernel

from conftest import same_bits

CFG = SamplerConfig(seed=424242, samples=100_000, workers=1)


class TestSampler:
    def test_single_draw_counts(self, space):
        rng = np.random.default_rng(1)
        counts = sample_counts(space, rng, 1)
        assert counts.shape == (1, space.n)
        assert counts.dtype == np.int64
        assert (counts >= 0).all()

    def test_mean_total_count(self, space):
        F = linear_count(space, [1, 2, 3])
        est = mc_expectation(F, space, CFG)
        assert abs(est.value - 3.0) <= 4.0 * est.std_error

    def test_variance_of_site_count(self, space):
        # Var eta({1}) = lambda_1 = 0.5; estimate it as E[(eta({1}) - 0.5)^2]
        centered = affine_of([(1.0, linear_count(space, [1]))], -0.5)
        est = mc_expectation(product_of(centered, centered), space, CFG)
        assert abs(est.value - 0.5) <= 4.0 * est.std_error

    def test_second_moment(self, space):
        # E eta(Z)^2 = nu(Z) + nu(Z)^2 = 12
        est = mc_expectation(poly_count(space, [1, 2, 3], 2), space, CFG)
        assert abs(est.value - 12.0) <= 4.0 * est.std_error


class TestReproducibility:
    def test_bitwise_identical_single_worker(self, space):
        F = poly_count(space, [1, 2], 2)
        a = mc_expectation(F, space, CFG)
        b = mc_expectation(F, space, CFG)
        assert a == b  # bitwise: same dataclass values

    def test_bitwise_identical_multi_worker(self, space):
        F = poly_count(space, [1, 2], 2)
        cfg = SamplerConfig(seed=99, samples=10_001, workers=4)
        assert mc_expectation(F, space, cfg) == mc_expectation(F, space, cfg)

    def test_worker_split_agrees_in_distribution(self, space):
        F = linear_count(space, [1, 2, 3])
        one = mc_expectation(F, space, SamplerConfig(seed=7, samples=50_000, workers=1))
        many = mc_expectation(F, space, SamplerConfig(seed=7, samples=50_000, workers=5))
        assert one != many  # different substreams
        for est in (one, many):
            assert abs(est.value - 3.0) <= 4.0 * est.std_error


class TestEstimate:
    def test_constant_functional(self, space):
        est = mc_expectation(constant(space, 2.5), space, SamplerConfig(0, 1000))
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

    @pytest.mark.parametrize(
        "seed, samples, workers", [(True, 10, 1), (0, 10.0, 1), (0, 10, "2"), (0, 10, None)]
    )
    def test_sampler_config_needs_integers(self, seed, samples, workers):
        with pytest.raises(ConfigError, match="must be an integer"):
            SamplerConfig(seed=seed, samples=samples, workers=workers)

    def test_sampler_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1, samples=10)
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, samples=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, samples=10, workers=0)

    def test_workers_at_most_samples(self):
        # a worker past the sample count would draw nothing; small values
        # only, so no large stream spawn is ever started
        with pytest.raises(ConfigError) as err:
            SamplerConfig(seed=1, samples=10, workers=11)
        assert str(err.value) == "workers must be at most samples, got workers=11 > samples=10"
        assert SamplerConfig(seed=1, samples=10, workers=10).workers == 10


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
    def test_offending_configuration_echoed(self, space):
        def fn(c):
            vals = c.sum(axis=-1).astype(float)
            return np.where(vals > 4, np.inf, vals)

        F = Functional(space, fn, "explodes")
        for workers in (1, 3):
            cfg = SamplerConfig(seed=3, samples=5000, workers=workers)
            with pytest.raises(NonFiniteValueError) as err:
                mc_expectation(F, space, cfg)
            # the first offending sample in draw order, not in distinct-row order
            assert str(err.value) == (
                "explodes produced a non-finite value at configuration counts=[2, 1, 3]"
            )


def test_engine_refuses_functional_of_another_space(space):
    """Same number of sites, other weights: refused as the checks refuse it."""
    F = linear_count(GroundSpace((0.5, 1.0, 1.6)), [1, 2])
    cfg = SamplerConfig(seed=1, samples=100)
    message = "is bound to a different ground space than the backend"
    with pytest.raises(ShapeError, match=message):
        MonteCarloBackend(space, cfg).expectation(F)
    with pytest.raises(ShapeError, match=message):
        mc_expectation(F, space, cfg)


class TestAgreementWithExact:
    def test_registry_functionals(self, space, exact):
        pool = [
            linear_count(space, [1, 2]),
            poly_count(space, [1, 2, 3], 2),
            bounded_sigmoid(space, [1, 2], 1.0),
        ]
        for F in pool:
            est = mc_expectation(F, space, CFG)
            ex = exact_expectation(F, exact.table)
            assert abs(est.value - ex.value) <= 4.0 * est.std_error + ex.error_bound

    def test_backend_facade(self, space):
        be = MonteCarloBackend(space, CFG)
        est = be.expectation(linear_count(space, [3]))
        assert abs(est.value - 1.5) <= 4.0 * est.std_error
        assert be.seed == CFG.seed


def _full_blocks(space, cfg):
    """Every worker's block drawn in full, as the stream discipline defines it."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.workers)
    base, rem = divmod(cfg.samples, cfg.workers)
    return [
        np.random.default_rng(child)
        .poisson(lam=space.weights_array, size=(base + (j < rem), space.n))
        .astype(np.int64)
        for j, child in enumerate(children)
    ]


WIDE = GroundSpace((60.0,) * 12)  # 60^12 > 2^62: rows cannot share an int64 key


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
    # off-by-one place value would fold onto the next site
    @pytest.fixture(params=["canonical", "decreasing", "wide"])
    def case(self, request, space):
        if request.param == "canonical":
            return space, 20_000, [1, 2]
        if request.param == "decreasing":
            return GroundSpace((6.0, 1.0, 0.5)), 20_000, [1, 2]
        return WIDE, 3_001, [1, 5, 12]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_brute_force(self, case, workers):
        sp, samples, B = case
        cfg = SamplerConfig(seed=5, samples=samples, workers=workers)
        blocks = _full_blocks(sp, cfg)
        counts = np.concatenate(blocks)
        fits = math.prod((counts.max(axis=0) + 1).tolist()) <= np.iinfo(np.int64).max
        assert fits == (sp.n == 3)

        be = MonteCarloBackend(sp, cfg)
        rows, _, weights = be._distinct()
        # every draw's distinct row, found here by the row's bytes
        index = {row.tobytes(): r for r, row in enumerate(rows)}
        inverse = np.array([index[draw.tobytes()] for draw in counts])
        assert np.array_equal(rows[inverse], counts)
        assert np.array_equal(weights, np.bincount(inverse, minlength=len(rows)))

        F = poly_count(sp, B, 2)
        values = np.concatenate([F.batch(b) for b in blocks])
        (per_row,) = be.sweep(lambda c: (F.batch(c),), (F.name,))
        assert same_bits(per_row[inverse], values)
        est = mc_expectation(F, sp, cfg)
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
        (counts,) = _full_blocks(sp, SamplerConfig(seed=9, samples=samples))
        rows, first, multiplicity = montecarlo._distinct_rows(counts)
        assert np.array_equal(rows, counts[first])
        assert len(rows) == len(np.unique(counts, axis=0))
        assert multiplicity.sum() == samples
        # each row's first draw is at ``first`` and it is drawn ``multiplicity`` times
        for row, at, k in zip(rows, first, multiplicity):
            (draws,) = np.nonzero((counts == row).all(axis=1))
            assert draws[0] == at and len(draws) == k


class TestDrawOnce:
    def test_one_draw_per_worker_and_distinct_rows_only(self, space, monkeypatch):
        drawn = []
        real = montecarlo.sample_counts

        def counting(*args):
            block = real(*args)
            drawn.append(block)
            return block

        monkeypatch.setattr(montecarlo, "sample_counts", counting)
        seen = []

        def sized(kernel):
            def wrapped(counts):
                seen.append(len(counts))
                return kernel(counts)

            return wrapped

        be = MonteCarloBackend(space, SamplerConfig(seed=1, samples=30_000, workers=3))
        F = poly_count(space, [1, 2, 3], 2)
        u = deterministic_field(space, [1.0, -0.5, 2.0])
        for _ in range(2):
            be.paired(sized(mecke_kernel(u)))
            be.expectation(Functional(space, sized(F.batch), "sized"))

        assert len(drawn) == 3
        # the workers' draws are deduplicated together, once
        assert seen == [len(np.unique(np.concatenate(drawn), axis=0))] * 4
