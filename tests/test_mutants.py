"""Mutation checks: a plausible bug in an identity's kernel must make a
check fail.  Each mutant is applied by monkeypatching, with no source edit,
and each check runs on the canonical exact backend.

The Skorokhod double integral pairs D+_z u(., z') with D+_z' u(., z).  A
kernel that forgets the transposition pairs D+_z u(., z') with itself, and
agrees with the isometry whenever the double integral is symmetric in
(z, z'): for deterministic fields, for count_times_deterministic with equal
values, and for fields over a functional whose add difference is the same
at every site of the field.  The two bindings below are asymmetric, so the
mutant moves their defect far past the gate."""
from __future__ import annotations

import numpy as np
import pytest

from poisson_malliavin import (
    bounded_sigmoid,
    count_times_deterministic,
    functional_times_indicator,
    identities,
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
