"""Acceptance suite: the binding criteria for the whole package.

Each test implements one criterion at its stated tolerance and prints one
``[PASS]``/``[FAIL]`` line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Tolerances are pinned here, not configurable:

1. exact identity suite on the canonical space, tolerance 1e-12 truncation,
   every check within 1e-10 plus reported truncation terms, >= 5 bindings
   per identity;
2. Monte Carlo suite on the same grid with 1e5 samples, all paired defects
   within 4 standard errors, byte-identical report on rerun;
3. hand-value anchors: E eta(Z) = 3, E eta(Z)^2 = 12, energy(eta(B)) = 1.5
   for B = {1,2}, Gamma at eta = (1,0,2) equals 1.25, Skorokhod second
   moment 45 for u = eta(Z) * 1;
4. pointwise algebra (square chain rules, drop/add conjugation, Gamma >= 0,
   Gamma equal to its two integrals from hand-built differences,
   Cauchy-Schwarz) exact to 1e-12 on 10^3 randomized draws;
5. spectral sanity of the generator matrix (first chaos eigenvalue -1 at
   interior states, zero interior row sums, pi-weighted symmetry within the
   boundary leak);
6. the non-diffusion counterexample search exhibits a defect > 1e-9,
   including for phi(x) = x^2 with linear-count F = G, while the identity
   control stays below 1e-10;
7. exact and Monte Carlo expectations agree within 4 standard errors plus
   the truncation bound on 20 randomized registry functionals.
"""
from __future__ import annotations

import numpy as np
import pytest

from poisson_malliavin import (
    SamplerConfig,
    affine_of,
    build_generator_matrix,
    count_times_deterministic,
    dirichlet_integrand,
    exact_expectation,
    functional_from_spec,
    gamma_batch,
    linear_count,
    load_config,
    mc_expectation,
    non_diffusion_counterexample,
    chain_rule_control_check,
    poly_count,
    product_of,
    reports_to_json,
    run_suite,
    skorokhod_check,
)
from poisson_malliavin.functionals import add_diff_all, drop_diff_all
from conftest import d_minus, d_plus, functional_pool, random_functional_spec, sample_batch, shift


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


IDENTITIES = (
    "mecke",
    "duality",
    "skorokhod",
    "commutation",
    "product_formula",
    "energy_derivation",
    "gamma_representation",
    "gamma_form_bound",
    "bracket_expectation",
)


@pytest.fixture(scope="module")
def config():
    return load_config(None)


def test_exact_identity_suite(config):
    counts = {
        ident: sum(1 for c in config.cases if c["identity"] == ident)
        for ident in IDENTITIES
    }
    assert all(n >= 5 for n in counts.values()), counts
    reports = run_suite(config, backend="exact")
    failed = [r.case for r in reports if not r.passed]
    _criterion(
        "exact identity suite",
        not failed,
        f"{len(reports) - len(failed)}/{len(reports)} checks within"
        f" 1e-10 + truncation terms"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_monte_carlo_suite_and_report_determinism(config):
    assert config.mc.samples == 100_000
    first = run_suite(config, backend="mc")
    second = run_suite(config, backend="mc")
    failed = [r.case for r in first if not r.passed]
    identical = reports_to_json(first) == reports_to_json(second)
    _criterion(
        "monte carlo identity suite",
        not failed and identical,
        f"{len(first) - len(failed)}/{len(first)} paired defects within"
        f" 4 std errors; rerun bytes identical: {identical}"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_hand_value_anchors(space, exact):
    checks = []

    full = list(space.sites)
    mean = exact_expectation(linear_count(space, full), exact.table)
    checks.append(("E eta(Z) = 3", abs(mean.value - 3.0) <= 1e-10 + mean.error_bound))

    second = exact_expectation(poly_count(space, full, 2), exact.table)
    checks.append(
        ("E eta(Z)^2 = 12", abs(second.value - 12.0) <= 1e-10 + second.error_bound)
    )

    B = [1, 2]
    F = linear_count(space, B)
    energy = exact.expectation(dirichlet_integrand(F, F)).value
    checks.append(("energy(eta(B)) = nu(B) = 1.5", abs(energy - 1.5) <= 1e-10))

    g = float(gamma_batch(F, F, np.array([1, 0, 2])))
    checks.append(("Gamma(eta(B)) at (1,0,2) = 1.25", abs(g - 1.25) <= 1e-10))

    u = count_times_deterministic(space, full, [1.0, 1.0, 1.0])
    sk = skorokhod_check(u, exact)
    checks.append(
        ("Skorokhod second moment = 45", abs(sk.lhs - 45.0) <= 1e-10 + sk.gate)
    )

    bad = [name for name, ok in checks if not ok]
    _criterion("hand-value anchors", not bad, f"5 anchors; failed: {bad or 'none'}")


def test_pointwise_algebra(space):
    pool = functional_pool(space)
    counts = sample_batch(space, seed=20260810, m=1000)
    draws = 0
    worst = 0.0
    rng = np.random.default_rng(4)
    for eta in counts:
        F = pool[int(rng.integers(len(pool)))]
        G = pool[int(rng.integers(len(pool)))]
        z = int(rng.integers(1, space.n + 1))
        F2 = product_of(F, F)
        fval = float(F.batch(eta))
        dplus, dminus = d_plus(F, eta, z), d_minus(F, eta, z)
        worst = max(
            worst,
            abs(add_diff_all(F2, eta)[z - 1] - (2 * fval * dplus + dplus**2)),
            abs(drop_diff_all(F2, eta)[z - 1] - (2 * fval * dminus - dminus**2)),
        )
        if eta[z - 1] >= 1:
            worst = max(worst, abs(drop_diff_all(F, eta)[z - 1] - d_plus(F, shift(eta, z, -1), z)))
        gFF, gGG, gFG = gamma_batch(F, F, eta), gamma_batch(G, G, eta), gamma_batch(F, G, eta)
        # Gamma against the paper's two integrals, from hand-built differences
        hand = 0.0
        for y, (k, lam) in enumerate(zip(eta, space.weights), start=1):
            hand += 0.5 * lam * d_plus(F, eta, y) * d_plus(G, eta, y)
            hand += 0.5 * k * d_minus(F, eta, y) * d_minus(G, eta, y)
        worst = max(worst, -gFF, gFG * gFG - gFF * gGG, abs(gFG - hand))
        draws += 1
    _criterion(
        "pointwise algebra",
        draws == 1000 and worst <= 1e-12,
        f"{draws} randomized (F, eta, z) draws, worst defect {worst:.3e} <= 1e-12",
    )


def test_spectral_sanity(space, exact):
    gen = build_generator_matrix(exact.table)
    issues = []

    B = [1, 2]
    nuB = sum(space.weights[z - 1] for z in B)
    centered = affine_of([(1.0, linear_count(space, B))], -nuB)
    f = centered.batch(exact.table.states)
    eigen_defect = float(np.abs((gen.matrix @ f + f)[gen.interior]).max())
    if eigen_defect > 1e-10:
        issues.append(f"eigenvalue defect {eigen_defect:.3e}")

    row_sums = np.asarray(gen.matrix.sum(axis=1)).ravel()
    row_defect = float(np.abs(row_sums[gen.interior]).max())
    if row_defect > 1e-12:
        issues.append(f"interior row sums {row_defect:.3e}")

    rng = np.random.default_rng(8)
    sym_defect = 0.0
    for _ in range(10):
        a = rng.standard_normal(exact.state_count)
        b = rng.standard_normal(exact.state_count)
        lhs = float(exact.table.probs @ (a * (gen.matrix @ b)))
        rhs = float(exact.table.probs @ (b * (gen.matrix @ a)))
        sym_defect = max(sym_defect, abs(lhs - rhs))
    if sym_defect > gen.boundary_leak + 1e-12:
        issues.append(f"symmetry defect {sym_defect:.3e} > leak {gen.boundary_leak:.3e}")

    _criterion(
        "spectral sanity",
        not issues,
        f"eigen {eigen_defect:.1e}, rows {row_defect:.1e},"
        f" symmetry {sym_defect:.1e} vs leak {gen.boundary_leak:.1e}"
        + (f"; issues: {issues}" if issues else ""),
    )


def test_non_diffusion_counterexample(space, exact):
    lin = [
        linear_count(space, [1]),
        linear_count(space, [2]),
        linear_count(space, [1, 2]),
        linear_count(space, [1, 2, 3]),
    ]
    search = non_diffusion_counterexample(exact, ["square", "tanh", "cube"], lin, lin)

    F1 = [linear_count(space, [1])]
    square = non_diffusion_counterexample(exact, ["square"], F1, F1)

    control = chain_rule_control_check(
        linear_count(space, [1]), linear_count(space, [1]), exact
    )

    ok = (
        search.passed
        and search.defect > 1e-9
        and square.defect > 1e-9
        and control.defect <= 1e-10
    )
    _criterion(
        "non-diffusion counterexample",
        ok,
        f"search defect {search.defect:.3e} > 1e-9;"
        f" square/linear defect {square.defect:.3e} > 1e-9"
        f" (integrated {square.lhs:.1e}, pointwise {square.rhs:.1e});"
        f" identity control {control.defect:.3e} <= 1e-10",
    )


def test_backend_cross_validation(space, exact):
    rng = np.random.default_rng(20260810)
    cfg = SamplerConfig(seed=987654321, samples=100_000, workers=1)
    bad = []
    for i in range(20):
        spec = random_functional_spec(rng, space.n)
        F = functional_from_spec(space, spec)
        est = mc_expectation(F, space, cfg)
        ex = exact_expectation(F, exact.table)
        if abs(est.value - ex.value) > 4.0 * est.std_error + ex.error_bound:
            bad.append((i, spec))
    _criterion(
        "backend cross-validation",
        not bad,
        f"20 randomized functionals within 4 std errors + truncation bound"
        + (f"; failed: {bad}" if bad else ""),
    )
