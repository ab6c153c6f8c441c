"""One sweep per check: the checks that need several means take them all
from one backend sweep, and the non-diffusion search sweeps the table once
per (F, G) for every phi.  Each report must equal the one rebuilt the old
way, one ``paired`` sweep per combination or comparison, bit for bit."""
from __future__ import annotations

import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from poisson_malliavin import (
    DEFAULT_GATES,
    ExactBackend,
    GroundSpace,
    MonteCarloBackend,
    SamplerConfig,
    VerificationReport,
    bounded_sigmoid,
    bracket_expectation_check,
    chain_rule_control_check,
    compose,
    count_times_deterministic,
    deterministic_field,
    derivative_field,
    functional_times_indicator,
    gamma_form_bound_check,
    indicator_leq,
    linear_count,
    non_diffusion_counterexample,
    product_of,
)
from poisson_malliavin import exact as exact_module
from poisson_malliavin import functionals, lattice
from poisson_malliavin.operators import (
    BracketKind,
    bracket_batch,
    dirichlet_integrand,
    gamma_batch,
)
from poisson_malliavin.registry import scalar_map
from poisson_malliavin.suite import _bind, load_config, run_suite

PHIS = ["square", "tanh", "cube"]


# ---------------------------------------------------------------------------
# the checks rebuilt the old way: one paired sweep per combination
# ---------------------------------------------------------------------------

def _gate_for(defect):
    if defect.std_error is not None:
        return DEFAULT_GATES.mc_z * defect.std_error
    return DEFAULT_GATES.exact + defect.error_bound


def _report(backend, case, lhs, rhs, defect, gate, passed, n, gate_kind="upper"):
    return VerificationReport(
        case=case,
        lhs=lhs,
        rhs=rhs,
        defect=defect,
        gate=gate,
        gate_kind=gate_kind,
        passed=passed,
        seed=getattr(backend, "seed", None),
        n=n,
        tail_bound=getattr(backend, "tail_bound", None),
    ).to_dict()


def _old_chain_rule_defects(phi, F, G, backend):
    phiF = compose(phi, F)
    energy_fun = dirichlet_integrand(phiF, G)
    worst = []

    def kernel(counts):
        rhs = phi.deriv(F.batch(counts)) * gamma_batch(F, G, counts)
        worst.append(np.abs(gamma_batch(phiF, G, counts) - rhs).max())
        return energy_fun.batch(counts), rhs

    *_, defect = backend.paired(kernel)
    return defect, float(np.max(worst))


def _old_non_diffusion(backend, phis, Fs, Gs, budget=100):
    best_integrated = best_pointwise = 0.0
    evaluated = 0
    for phi in map(scalar_map, phis):
        for F in Fs:
            for G in Gs:
                if evaluated >= budget:
                    break
                integrated, pointwise = _old_chain_rule_defects(phi, F, G, backend)
                best_integrated = max(best_integrated, abs(integrated.value))
                best_pointwise = max(best_pointwise, pointwise)
                evaluated += 1
    gate = DEFAULT_GATES.counterexample_factor * DEFAULT_GATES.exact
    defect = max(best_integrated, best_pointwise)
    return _report(
        backend, "non_diffusion", best_integrated, best_pointwise, defect, gate,
        defect > gate, backend.state_count, "lower",
    )


def _old_control(F, G, backend):
    integrated, pointwise = _old_chain_rule_defects(scalar_map("identity"), F, G, backend)
    gate = _gate_for(integrated)
    lhs = abs(integrated.value)
    defect = max(lhs, pointwise)
    return _report(
        backend, "non_diffusion_control", lhs, pointwise, defect, gate, defect <= gate,
        integrated.n,
    )


def _old_bracket_expectation(u, v, backend):
    """Gamma against plus, paired: lhs = E[u,v]_Gamma, rhs = E[u,v]_+."""

    def kernel(counts):
        return (
            bracket_batch(u, v, BracketKind.GAMMA, counts),
            bracket_batch(u, v, BracketKind.PLUS, counts),
        )

    gamma, plus, d = backend.paired(kernel)
    gate = _gate_for(d)
    return _report(
        backend, "bracket_expectation", gamma, plus, d.value, gate, abs(d.value) <= gate, d.n
    )


def _old_gamma_form_bound(F, Phi, backend):
    lhs_fun = dirichlet_integrand(F, product_of(F, Phi))
    mid_fun = dirichlet_integrand(product_of(F, F), Phi)
    *_, form = backend.paired(lambda c: (lhs_fun.batch(c), 0.5 * mid_fun.batch(c)))
    energy = backend.expectation(dirichlet_integrand(F, F))
    value = form.value
    upper = Phi.bound * energy.value
    if form.std_error is not None:
        gate = DEFAULT_GATES.mc_z * (form.std_error + Phi.bound * energy.std_error)
    else:
        gate = DEFAULT_GATES.exact + form.error_bound + Phi.bound * energy.error_bound
    defect = max(-value, value - upper)
    return _report(
        backend, "gamma_form_bound", value, upper, defect, gate, defect <= gate, form.n
    )


# ---------------------------------------------------------------------------
# tables: canonical, a random 3-site one, and one swept in row stencils
# ---------------------------------------------------------------------------

def _random_space() -> GroundSpace:
    weights = np.random.default_rng(11).uniform(0.4, 1.6, size=3)
    return GroundSpace(tuple(round(float(w), 6) for w in weights))


@pytest.fixture(scope="module", params=["canonical", "random", "plain counts"])
def backend(request, exact):
    if request.param == "canonical":
        return exact
    if request.param == "random":
        return ExactBackend(_random_space(), tol=1e-10)
    # 11 sites at weight 0.01 (cap 1): box slices would evaluate more rows
    plain = ExactBackend(GroundSpace((0.01,) * 11), tol=1e-3)
    step = functionals._SWEEP_BYTES // (8 * 11 * 11)
    assert lattice._box_slicing(plain.plan.caps, step) is None
    return plain


def _grid(space: GroundSpace):
    """Fs and Gs that share an object (the sigmoid is in both)."""
    sig = bounded_sigmoid(space, [1, 2], 1.0)
    Fs = [linear_count(space, [1]), sig, indicator_leq(space, [2, 3], 2)]
    Gs = [linear_count(space, [1, 2]), sig]
    return Fs, Gs


@pytest.mark.parametrize("budget", [0, 1, 5, 7, 13, 100])
def test_non_diffusion_matches_one_sweep_per_combination(backend, budget):
    """The whole 3 x 3 x 2 grid and budgets that stop inside an (F, G)
    group's phis."""
    Fs, Gs = _grid(backend.space)
    new = non_diffusion_counterexample(backend, PHIS, Fs, Gs, budget=budget)
    assert new.to_dict() == _old_non_diffusion(backend, PHIS, Fs, Gs, budget)


def test_non_diffusion_budget_cuts_a_group(exact, monkeypatch):
    """Budget 5 on a 3 x 2 x 2 grid takes square on all four (F, G) and tanh
    on the first, so one group sweeps two phis and three sweep one, with an
    integrated and a pointwise output per phi."""
    Fs, Gs = _grid(exact.space)
    Fs, Gs = Fs[:2], Gs
    seen = []
    sweep = exact.sweep

    def logged(kernel, names):
        seen.append(names)
        return sweep(kernel, names)

    monkeypatch.setattr(exact, "sweep", logged)
    new = non_diffusion_counterexample(exact, PHIS, Fs, Gs, budget=5)
    monkeypatch.undo()
    assert new.to_dict() == _old_non_diffusion(exact, PHIS, Fs, Gs, 5)
    assert [len(names) for names in seen] == [4, 2, 2, 2]
    assert [name.split()[5].split("(")[0] for name in seen[0]] == ["square"] * 2 + ["tanh"] * 2
    assert [name.split()[0] for name in seen[0]] == ["integrated", "pointwise"] * 2


def test_one_object_in_both_lists(backend):
    F = bounded_sigmoid(backend.space, [1, 2], 1.0)
    new = non_diffusion_counterexample(backend, PHIS, [F], [F])
    assert new.to_dict() == _old_non_diffusion(backend, PHIS, [F], [F])
    control = chain_rule_control_check(F, F, backend)
    assert control.to_dict() == _old_control(F, F, backend)


def test_control_matches_old_sweep(backend):
    Fs, Gs = _grid(backend.space)
    for F, G in [(Fs[0], Gs[0]), (Fs[1], Gs[0]), (Fs[2], Gs[1])]:
        new = chain_rule_control_check(F, G, backend)
        assert new.to_dict() == _old_control(F, G, backend)


def _fields(space: GroundSpace):
    sig = bounded_sigmoid(space, [1, 2], 1.0)
    return [
        (deterministic_field(space, [1.0 - 0.25 * z for z in range(space.n)]),
         functional_times_indicator(space, [1, 3], sig)),
        (derivative_field(sig), count_times_deterministic(space, [2, 3], [0.5] * space.n)),
    ]


def _form_pairs(space: GroundSpace):
    sig = bounded_sigmoid(space, [1, 2], 1.0)
    ind = indicator_leq(space, [1, 2, 3], 2)
    return [(sig, ind), (product_of(sig, ind), indicator_leq(space, [1, 3], 1))]


def test_bracket_and_form_bound_match_old_sweeps(backend):
    for u, v in _fields(backend.space):
        new = bracket_expectation_check(u, v, backend, case="bracket_expectation")
        assert new.to_dict() == _old_bracket_expectation(u, v, backend)
    for F, Phi in _form_pairs(backend.space):
        new = gamma_form_bound_check(F, Phi, backend, case="gamma_form_bound")
        assert new.to_dict() == _old_gamma_form_bound(F, Phi, backend)


def test_bracket_and_form_bound_match_old_sweeps_on_monte_carlo(space):
    mc = MonteCarloBackend(space, SamplerConfig(seed=3, samples=20_000, workers=2))
    for u, v in _fields(space):
        new = bracket_expectation_check(u, v, mc, case="bracket_expectation")
        assert new.to_dict() == _old_bracket_expectation(u, v, mc)
    for F, Phi in _form_pairs(space):
        new = gamma_form_bound_check(F, Phi, mc, case="gamma_form_bound")
        assert new.to_dict() == _old_gamma_form_bound(F, Phi, mc)


def test_checks_need_no_backend_type(exact):
    """A stand-in exposing the exact backend's attributes runs the exact-only
    checks: they ask for the state table, not for a class."""
    stand_in = SimpleNamespace(
        **{
            name: getattr(exact, name)
            for name in ("space", "table", "state_count", "tail_bound", "sweep", "mean")
        }
    )
    Fs, Gs = _grid(exact.space)
    assert non_diffusion_counterexample(stand_in, PHIS, Fs, Gs).to_dict() == (
        non_diffusion_counterexample(exact, PHIS, Fs, Gs).to_dict()
    )


# ---------------------------------------------------------------------------
# sweep counts and memory
# ---------------------------------------------------------------------------

@pytest.fixture()
def sweeps(monkeypatch):
    """Counts of table sweeps ("exact") and Monte Carlo sweeps ("mc")."""
    count = Counter()
    table_sweep = exact_module._sweep_table
    mc_sweep = MonteCarloBackend.sweep

    def counting_table(kernel, table, names):
        count["exact"] += 1
        return table_sweep(kernel, table, names)

    def counting_mc(self, kernel, names):
        count["mc"] += 1
        return mc_sweep(self, kernel, names)

    monkeypatch.setattr(exact_module, "_sweep_table", counting_table)
    monkeypatch.setattr(MonteCarloBackend, "sweep", counting_mc)
    return count


def _packaged_non_diffusion(space: GroundSpace) -> dict:
    (case,) = [c for c in load_config(None).cases if c["identity"] == "non_diffusion"]
    return {key: _bind(key, case[key], space) for key in ("phis", "Fs", "Gs")}


def test_non_diffusion_sweeps_once_per_f_g(exact, sweeps):
    args = _packaged_non_diffusion(exact.space)
    assert (len(args["phis"]), len(args["Fs"]), len(args["Gs"])) == (3, 4, 4)
    assert non_diffusion_counterexample(exact, **args).passed
    assert sweeps == {"exact": 16}


def test_bracket_and_form_bound_sweep_once_on_both_engines(space, exact, sweeps):
    mc = MonteCarloBackend(space, SamplerConfig(seed=3, samples=2_000))
    (u, v), _ = _fields(space)
    (F, Phi), _ = _form_pairs(space)
    for backend, engine in ((exact, "exact"), (mc, "mc")):
        for check in (
            lambda: bracket_expectation_check(u, v, backend),
            lambda: gamma_form_bound_check(F, Phi, backend),
        ):
            sweeps.clear()
            assert check().passed
            assert sweeps == {engine: 1}


def test_packaged_exact_run_sweep_count(sweeps):
    """verify --backend exact on the packaged config: 58 paired sweeps, 32
    non_diffusion, 2 control, 12 bracket_expectation and 10
    gamma_form_bound sweeps (200 with one sweep per mean)."""
    reports = run_suite(load_config(None), "exact")
    assert all(r.passed for r in reports)
    assert sweeps["exact"] <= 114
    assert sweeps["mc"] == 0


def test_non_diffusion_peak_memory(exact):
    args = _packaged_non_diffusion(exact.space)
    tracemalloc.start()
    try:
        report = non_diffusion_counterexample(exact, **args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 2 << 20
