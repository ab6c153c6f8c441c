"""Mutation checks: a plausible bug in an identity's kernel must make a
check fail.  Each mutant is applied by monkeypatching, with no source edit,
and runs on the exact engine.

The Skorokhod double integral pairs D+_z u(., z') with D+_z' u(., z).  A
kernel that forgets the transposition pairs D+_z u(., z') with itself, and
agrees with the isometry whenever the double integral is symmetric in
(z, z'): for deterministic fields, for count_times_deterministic with equal
values, and for fields over a functional whose add difference is the same
at every site of the field.  The two bindings below are asymmetric, so the
mutant moves their defect far past the gate.

The energy derivation E[D(FG), u] = E F[DG, u] + E G[DF, u] is symmetric
in (F, G) as a whole, but not in the pairing of each functional with the
other's gradient: pairing F with DF fails every packaged case with F != G.
(Swapping u and v anywhere in the bracket expectation check changes
nothing beyond rounding, since every bracket is symmetric, so that mutant
is not tested.)"""
from __future__ import annotations

import numpy as np
import pytest

from poisson_malliavin import (
    BracketKind,
    bounded_sigmoid,
    bracket_batch,
    count_times_deterministic,
    derivative_field,
    functional_times_indicator,
    identities,
    load_config,
    product_of,
    run_suite,
    skorokhod_check,
)


def _einsum_double_integral(subscripts: str):
    """``identities._double_integral`` as one einsum over d = added - vals."""

    def double_integral(added, vals, w):
        d = added - vals[..., None, :]
        return np.einsum(subscripts, d, d, w, w)

    return double_integral


def _asymmetric_fields(space):
    """The two asymmetric Skorokhod bindings, with the defect each reads
    under the untransposed mutant."""
    return [
        (count_times_deterministic(space, [1, 2, 3], [1.0, -0.5, 2.0]), -11.25),
        (
            functional_times_indicator(space, [1, 3], bounded_sigmoid(space, [1, 2], 1.0)),
            -0.394,
        ),
    ]


@pytest.mark.parametrize("which", [0, 1])
def test_untransposed_skorokhod_double_integral_fails(monkeypatch, exact, which):
    """Both bindings pass with the packaged kernel and with the einsum of
    the transposed pairing, and fail, by their measured defects, when the
    double integral pairs each difference with itself."""
    u, mutant_defect = _asymmetric_fields(exact.space)[which]
    assert skorokhod_check(u, exact).passed
    monkeypatch.setattr(
        identities, "_double_integral", _einsum_double_integral("...ij,...ji,i,j->...")
    )
    assert skorokhod_check(u, exact).passed
    monkeypatch.setattr(
        identities, "_double_integral", _einsum_double_integral("...ij,...ij,i,j->...")
    )
    report = skorokhod_check(u, exact)
    assert not report.passed
    assert report.defect == pytest.approx(mutant_defect, rel=1e-3)


def _energy_derivation_own_gradients(
    F, G, u, backend, gates=identities.DEFAULT_GATES, case="energy_derivation"
):
    """``energy_derivation_check`` with F paired with DF and G with DG."""
    dF, dG = derivative_field(F), derivative_field(G)
    dFG = derivative_field(product_of(F, G))

    def kernel(counts):
        lhs = bracket_batch(dFG, u, BracketKind.GAMMA, counts)
        rhs = F.batch(counts) * bracket_batch(
            dF, u, BracketKind.GAMMA, counts
        ) + G.batch(counts) * bracket_batch(dG, u, BracketKind.GAMMA, counts)
        return lhs, rhs

    return identities._paired_report(case, kernel, backend, gates)


def test_energy_derivation_with_own_gradients_fails(monkeypatch):
    """On the packaged config the mutant fails exactly the energy rows whose
    F and G differ, on both spaces; row 29 binds F = G, where it is exact."""
    monkeypatch.setattr(identities, "energy_derivation_check", _energy_derivation_own_gradients)
    failed = {
        (r.case.split("[", 1)[0], r.case.rsplit("#", 1)[1])
        for r in run_suite(load_config(None), "exact")
        if not r.passed
    }
    assert failed == {
        (f"{row}:energy_derivation", space)
        for row in (28, 30, 31, 32)
        for space in ("canonical", "random")
    }
