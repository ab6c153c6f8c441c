"""Fixed-size row sweeps: every engine evaluates its kernels in slices of at
most ``_SWEEP_BYTES // (8 n^2)`` rows and reduces the full per-row arrays, so
results do not depend on the slice size."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from poisson_malliavin import (
    ExactBackend,
    Functional,
    GroundSpace,
    MonteCarloBackend,
    NonFiniteValueError,
    SamplerConfig,
    bounded_sigmoid,
    chain_rule_control_check,
    count_times_deterministic,
    deterministic_field,
    exact_expectation,
    functional_times_indicator,
    identities,
    indicator_leq,
    linear_count,
    non_diffusion_counterexample,
    poly_count,
    skorokhod_check,
)
from poisson_malliavin import functionals
from poisson_malliavin.identities import mecke_kernel
from poisson_malliavin.montecarlo import sample_counts

from conftest import mc_rows

# rows per slice in the sliced runs: prime, so the last slice is partial
ROWS = 97


def _slice_rows(monkeypatch, n: int, rows: int = ROWS) -> None:
    monkeypatch.setattr(functionals, "_SWEEP_BYTES", 8 * n * n * rows)


def _checks(space: GroundSpace):
    """One call per exact check kind, each on a backend passed in."""
    sig = bounded_sigmoid(space, [1, 2], 1.0)
    ind = indicator_leq(space, [2, 3], 2)
    lin = linear_count(space, [1, 3])
    det = deterministic_field(space, [1.0, -0.5, 2.0])
    ctd = count_times_deterministic(space, [1, 2], [1.0, 0.5, -1.0])
    fti = functional_times_indicator(space, [1, 3], sig)
    return {
        "mecke": lambda b: identities.mecke_check(fti, b),
        "duality": lambda b: identities.duality_check(poly_count(space, [1, 2], 2), ctd, b),
        "skorokhod": lambda b: skorokhod_check(ctd, b),
        "energy_derivation": lambda b: identities.energy_derivation_check(sig, ind, det, b),
        "gamma_representation": lambda b: identities.gamma_representation_check(sig, ind, b),
        "gamma_form_bound": lambda b: identities.gamma_form_bound_check(sig, ind, b),
        "bracket_expectation": lambda b: identities.bracket_expectation_check(det, fti, b),
        "non_diffusion": lambda b: non_diffusion_counterexample(
            b, ["square", "tanh", "cube"], [sig, lin], [ind, sig]
        ),
        "non_diffusion_control": lambda b: chain_rule_control_check(sig, lin, b),
    }


def _random_space() -> GroundSpace:
    weights = np.random.default_rng(11).uniform(0.4, 1.6, size=3)
    return GroundSpace(tuple(round(float(w), 6) for w in weights))


@pytest.mark.parametrize("which", ["canonical", "random"])
def test_exact_checks_match_one_slice_bitwise(monkeypatch, space, exact, which):
    if which == "canonical":
        backend = exact
    else:
        space = _random_space()
        backend = ExactBackend(space, tol=1e-10)
    S, n = backend.table.states.shape
    # the default budget sweeps these tables in one slice
    assert S <= functionals._SWEEP_BYTES // (8 * n * n)
    assert S > 10 * ROWS
    checks = _checks(space)
    F = poly_count(space, [1, 2, 3], 2)

    def run():
        out = {name: check(backend).to_dict() for name, check in checks.items()}
        out["expectation"] = exact_expectation(F, backend.table)
        return out

    whole = run()
    _slice_rows(monkeypatch, n)
    sliced = run()
    for name in whole:
        assert sliced[name] == whole[name], name


def test_monte_carlo_matches_one_slice_bitwise(monkeypatch):
    space = GroundSpace((3.0, 3.0, 3.0))
    cfg = SamplerConfig(seed=5, samples=20_000)
    u = functional_times_indicator(space, [1, 2], bounded_sigmoid(space, [2, 3], 0.5))
    F = poly_count(space, [1, 2, 3], 2)

    def run():
        backend = MonteCarloBackend(space, cfg)
        rows = len(backend._distinct()[0])
        pv = backend.paired(mecke_kernel(u))
        return rows, repr(pv), backend.expectation(F)

    rows, *whole = run()
    assert rows > 5 * ROWS
    _slice_rows(monkeypatch, space.n)
    _, *sliced = run()
    assert sliced == whole


def _nan_at(space: GroundSpace, bad: np.ndarray) -> Functional:
    """linear_count(1) with NaN at the configurations listed in ``bad``."""

    def fn(c: np.ndarray) -> np.ndarray:
        out = c[..., 0].astype(np.float64)
        hit = (c[..., None, :] == bad).all(axis=-1).any(axis=-1)
        return np.where(hit, np.nan, out)

    return Functional(space, fn, "nan_at")


def _message(call) -> str:
    with pytest.raises(NonFiniteValueError) as err:
        call()
    return str(err.value)


def test_exact_non_finite_names_first_state_in_later_slice(monkeypatch, space, exact):
    states = exact.table.states
    # both bad states lie past the first slices; the earlier one is named
    first, second = 7 * ROWS + 3, 20 * ROWS + 50
    F = _nan_at(space, states[[second, first]])
    u = deterministic_field(space, [1.0, 1.0, 1.0])
    calls = [
        lambda: exact_expectation(F, exact.table),
        lambda: identities.duality_check(F, u, exact),
    ]
    whole = [_message(call) for call in calls]
    assert all(f"counts={states[first].tolist()}" in m for m in whole)
    _slice_rows(monkeypatch, space.n)
    assert [_message(call) for call in calls] == whole


def test_monte_carlo_non_finite_names_first_draw_in_later_slice(monkeypatch):
    space = GroundSpace((3.0, 3.0, 3.0))
    backend = MonteCarloBackend(space, SamplerConfig(seed=5, samples=20_000))
    late = mc_rows(backend)[[5 * ROWS + 1, 3 * ROWS + 2]]
    F = _nan_at(space, late)
    # the first sample, in draw order, that holds either bad row
    (child,) = np.random.SeedSequence(5).spawn(1)
    drawn = sample_counts(space, np.random.default_rng(child), 20_000)
    first = int(np.flatnonzero((drawn[:, None, :] == late).all(-1).any(-1))[0])
    whole = _message(lambda: backend.expectation(F))
    assert f"counts={drawn[first].tolist()}" in whole
    _slice_rows(monkeypatch, space.n)
    assert _message(lambda: backend.expectation(F)) == whole


def test_skorokhod_peak_memory_tied_to_budget(monkeypatch):
    """On 10^5 states the check's traced peak stays within a few slice
    budgets plus the O(S n) per-state arrays; without slicing the (S, n, n)
    add-side temporaries alone take several times that."""
    space = GroundSpace((1.0,) * 5)
    backend = ExactBackend(space, tol=1e-6)
    S, n = backend.table.states.shape
    assert S == 100_000
    budget = 1 << 20
    monkeypatch.setattr(functionals, "_SWEEP_BYTES", budget)
    u = functional_times_indicator(space, [1, 2], bounded_sigmoid(space, [1, 2], 1.0))
    tracemalloc.start()
    try:
        report = skorokhod_check(u, backend)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 3 * budget + 8 * S * n
