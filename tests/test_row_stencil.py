"""Row stencils: Monte Carlo's distinct rows, and exact tables too thin to
cut into box slices, are swept in parts that evaluate each functional once
per part, at the rows and at their neighbours eta +- delta_z.  Every
shifted value must equal the plain counts-array evaluation bit for bit;
each functional's fn sees at most (2n + 1) m rows of an m-row part, plus
n^2 m for a gradient's second-order shift; and a sweep's memory stays below
that of the plain slices the stencils replaced."""
from __future__ import annotations

import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from poisson_malliavin import (
    ExactBackend,
    Functional,
    GroundSpace,
    MonteCarloBackend,
    SamplerConfig,
    bounded_sigmoid,
    compose,
    count_times_deterministic,
    derivative_field,
    deterministic_field,
    functional_times_indicator,
    identities,
    indicator_leq,
    poly_count,
    product_field,
    product_of,
    site_indicator_field,
    skorokhod_check,
)
from poisson_malliavin import exact as exact_module, functionals, lattice
from poisson_malliavin.functionals import (
    add_diff_all,
    drop_diff_all,
    field_add_tensor,
    field_added_diag,
    field_dropped_diag,
    shifted_all,
)
from poisson_malliavin.registry import field_from_spec, functional_from_spec
from poisson_malliavin.suite import _random_space, load_config
from conftest import mc_rows, plain_sweep, same_bits, shift


def test_neighbour_rows_match_hand_built_shifts():
    """Row z of a row's neighbours is eta + step delta_z; a drop below 0
    stays at 0, the clip that callers zero by 1_{z in eta}."""
    rows = np.array([[0, 2, 1], [3, 0, 0], [0, 0, 0]])
    for step in (1, -1):
        got = lattice.neighbour_rows(rows, step)
        assert got.shape == (3, 3, 3)
        for r, eta in enumerate(rows):
            for z in range(3):
                want = shift(eta, z + 1, step)
                assert got[r, z].tolist() == (eta if want is None else want).tolist()
    assert lattice.neighbour_rows(rows[0], -1).tolist() == [[0, 2, 1], [0, 1, 1], [0, 2, 0]]


def _packaged_bindings(space: GroundSpace):
    """Every functional and field the packaged config binds, built on
    ``space``, once per name."""
    Fs, us = {}, {}
    for case in load_config(None).cases:
        specs = [(k, case[k]) for k in ("F", "G", "Phi", "u", "v") if k in case]
        specs += [("F", spec) for k in ("Fs", "Gs") for spec in case.get(k, [])]
        for key, spec in specs:
            if key in ("u", "v"):
                u = field_from_spec(space, spec)
                us.setdefault(u.name, u)
            else:
                F = functional_from_spec(space, spec)
                Fs.setdefault(F.name, F)
    return list(Fs.values()), list(us.values())


def _wide_bindings(space: GroundSpace):
    """Functionals and fields over every site of a space of 6 sites or more,
    mc_wide's kinds among them; the site vectors are not constant."""
    n = space.n
    sig = bounded_sigmoid(space, [1, 3, 5], 0.1)
    ind = indicator_leq(space, [4, 5, 6], 12)
    poly = poly_count(space, [2, n], 2)
    prod = product_of(sig, ind)
    values = [1.0, -0.5, 2.0, 0.5, 1.0, -1.0] + [0.25 * z for z in range(6, n)]
    Fs = [sig, ind, poly, prod, compose("tanh", poly)]
    us = [
        functional_times_indicator(space, [2, 4, n], sig),
        deterministic_field(space, values),
        count_times_deterministic(space, [1, n], values),
        site_indicator_field(space, [2, 3]),
        derivative_field(prod),
        derivative_field(poly),
    ]
    return Fs, us


def _is_site_major(a: np.ndarray) -> bool:
    """Whether a (rows, n) array has its row axis innermost in memory, so
    that each site's column is contiguous, as in any one-row array."""
    return a.strides[0] == a.itemsize or len(a) == 1


_SPACES = {
    "6 sites": (0.4, 1.0, 8.0, 2.0, 0.7, 8.0),  # mc_wide's site count
    "8 sites": (0.4, 1.0, 8.0, 2.0, 0.7, 8.0, 0.3, 1.5),  # the C-ordered layout
}


@pytest.mark.parametrize("which", ["packaged", "random", "6 sites", "8 sites"])
def test_stencil_matches_plain_counts_bitwise(which):
    """On Monte Carlo rows of the packaged space, of a random one and of
    spaces of 6 and 8 sites, split into a one-row part and the rest, every
    helper on stencil-tagged rows equals its plain call byte for byte:
    batch and values, the shifts, add and drop differences, a gradient's
    second-order shift, and the add tensor and shifted diagonals of
    gradient, factored and other fields.  On fewer than 8 sites the rows
    and a functional's shifts are site-major, on 8 C-ordered; every stored
    (rows, n, n) tensor is C-ordered."""
    cfg = load_config(None)
    if which in _SPACES:
        space = GroundSpace(_SPACES[which])
        Fs, us = _wide_bindings(space)
    else:
        space = cfg.space if which == "packaged" else _random_space(cfg)
        Fs, us = _packaged_bindings(space)
    us.append(product_field(Fs[0], us[0]))  # neither gradient nor factored
    assert any(u.gradient_of is not None for u in us)
    assert any(u.factors is not None for u in us)
    rows = mc_rows(MonteCarloBackend(space, SamplerConfig(seed=5, samples=400)))
    assert (rows == 0).any() and len(rows) > 2  # the drop clip is reached
    site_major = space.n < 8
    for part in (rows[:1], rows[1:]):
        stencil = lattice._RowStencil(part)
        counts, plain = stencil.tagged("slice"), np.array(part)
        assert lattice.is_slice(counts) and not lattice.is_tagged(plain)
        assert (_is_site_major(counts) if site_major else counts.flags.c_contiguous)
        for F in Fs:
            assert same_bits(F.batch(counts), F.batch(plain)), F
            for step in (1, -1):
                shifted = shifted_all(F, counts, step)
                assert same_bits(shifted, shifted_all(F, plain, step)), (step, F)
                assert (_is_site_major(shifted) if site_major else shifted.flags.c_contiguous)
            for helper in (add_diff_all, drop_diff_all):
                assert same_bits(helper(F, counts), helper(F, plain)), (helper, F)
            assert {(F, "slice"), (F, "plus"), (F, "minus")} <= set(stencil._values)
        for u in us:
            assert same_bits(u.values(counts), u.values(plain)), u
            for helper in (field_add_tensor, field_added_diag, field_dropped_diag):
                assert same_bits(helper(u, counts), helper(u, plain)), (helper, u)
            tensor = field_add_tensor(u, counts)
            assert tensor.flags.c_contiguous or tensor.strides[:2] == (0, 0), u
            F = u.gradient_of
            if F is not None:
                second = counts.box.second_order(F)
                twice = lattice.neighbour_rows(lattice.neighbour_rows(plain, 1), 1)
                assert same_bits(second, F.batch(twice)), F
                assert second.flags.c_contiguous
                assert (F, "second") in stencil._values


def _counting(obj: Functional, log: list) -> Functional:
    """A copy of ``obj`` whose fn logs the rows it sees, by the memo they
    are tagged with (None for plain rows)."""

    def fn(counts, inner=obj.fn):
        log.append((getattr(counts, "box", None), counts.size // counts.shape[-1]))
        return inner(counts)

    return Functional(obj.space, fn, obj.name, obj.bound)


def test_each_object_evaluated_once_per_part(monkeypatch):
    """One Monte Carlo sweep each of gamma_representation's kernel and of
    mecke's on a gradient field: every kernel receives a stencil's own rows,
    each object is evaluated at most once per part and part of the stencil,
    so its fn sees at most (2n + 1) m rows of an m-row part, plus n^2 m for
    the second-order shift; F and Phi are evaluated only through the
    stencils, composites included."""
    space = GroundSpace((8.0,) * 6)
    n = space.n
    backend = MonteCarloBackend(space, SamplerConfig(seed=3, samples=6000))
    fn_rows = []
    F = _counting(bounded_sigmoid(space, [1, 2, 3], 0.1), fn_rows)
    Phi = _counting(indicator_leq(space, [4, 5, 6], 24), fn_rows)
    parts = {}
    evaluated = Counter()
    rows = defaultdict(int)
    evaluate = lattice._evaluate

    def logged(obj, counts):
        evaluated[counts.box, obj, counts.part] += 1
        rows[counts.box, obj] += counts.size // n
        return evaluate(obj, counts)

    def checking(kernel):
        def tagged(counts):
            assert lattice.is_slice(counts)
            assert isinstance(counts.box, lattice._RowStencil)
            parts[counts.box] = len(counts)
            return kernel(counts)

        return tagged

    sweep = MonteCarloBackend.sweep
    monkeypatch.setattr(lattice, "_evaluate", logged)
    monkeypatch.setattr(
        MonteCarloBackend, "sweep", lambda self, k, names: sweep(self, checking(k), names)
    )
    assert identities.gamma_representation_check(F, Phi, backend).passed
    assert len(parts) > 1
    assert set(evaluated.values()) == {1}
    for (box, obj), seen in rows.items():
        assert seen <= (2 * n + 1) * parts[box], obj
    assert {part for *_, part in evaluated} == {"slice", "plus", "minus"}
    gamma_parts = set(parts)
    assert identities.mecke_check(derivative_field(product_of(F, Phi)), backend).passed
    assert set(evaluated.values()) == {1}
    assert any(part == "second" for *_, part in evaluated)
    for (box, obj), seen in rows.items():
        assert seen <= (2 * n + 1 + n * n) * parts[box], obj
    assert set(parts) > gamma_parts
    assert fn_rows and all(box in parts for box, _ in fn_rows)
    assert sum(m for _, m in fn_rows) == sum(
        m for (box, obj), m in rows.items() if obj in (F, Phi)
    )


def test_thin_exact_table_swept_in_stencils_matches_plain(monkeypatch):
    """11 sites at weight 0.01 with tol 1e-3 cap every site at 1, too thin
    for box slices: the table is swept in row stencils, and the mecke,
    duality and skorokhod kernels, on a gradient field and another, give
    arrays bit-identical to a sweep over plain counts."""
    space = GroundSpace((0.01,) * 11)
    backend = ExactBackend(space, tol=1e-3)
    assert backend.plan.caps == (1,) * 11
    step = functionals._sweep_step(space.n)
    assert lattice._box_slicing(backend.plan.caps, step) is None
    parts = list(lattice.sweep_parts(backend.plan.caps, step))
    assert len(parts) > 1
    assert all(isinstance(c.box, lattice._RowStencil) and lattice.is_slice(c) for *_, c in parts)
    sig = bounded_sigmoid(space, [1, 2, 5], 0.7)
    F = product_of(sig, indicator_leq(space, [3, 4], 1))
    us = [functional_times_indicator(space, [1, 3, 11], sig), derivative_field(F)]
    kernels = []
    paired = ExactBackend.paired

    def recording(self, kernel):
        kernels.append(kernel)
        return paired(self, kernel)

    monkeypatch.setattr(ExactBackend, "paired", recording)
    for u in us:
        identities.mecke_check(u, backend)
        identities.duality_check(poly_count(space, [1, 2], 2), u, backend)
        skorokhod_check(u, backend)
    assert len(kernels) == 6
    states = backend.table.states
    names = ("lhs", "rhs")
    for kernel in kernels:
        stencils = exact_module._sweep_table(kernel, backend.table, names)
        plain = plain_sweep(kernel, states, names)
        assert all(same_bits(a, b) for a, b in zip(stencils, plain))


def test_monte_carlo_sweep_peak_memory(monkeypatch):
    """The traced peak of one Monte Carlo sweep of the skorokhod kernel on
    6 sites at weight 8, 20,000 samples (19,787 distinct rows).  Swept as
    one plain slice of at most ``_sweep_step(6)`` rows it peaked at
    13,591,484 bytes; in row stencils of an eighth of that it peaks at
    6,555,897 bytes (numpy 2.4).  Stencils of whole slices would hold the
    plus and minus rows and a field's values at both, 5.7 MB each."""
    space = GroundSpace((8.0,) * 6)
    backend = MonteCarloBackend(space, SamplerConfig(seed=20260810, samples=20_000))
    keys, _ = backend._distinct()  # drawn before tracing: not the sweep's
    assert len(keys) == 19_787
    u = functional_times_indicator(space, [2, 4, 6], bounded_sigmoid(space, [1, 3, 5], 0.1))
    peaks = []
    sweep = MonteCarloBackend.sweep

    def traced(self, kernel, names):
        tracemalloc.start()
        try:
            out = sweep(self, kernel, names)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(MonteCarloBackend, "sweep", traced)
    assert skorokhod_check(u, backend).passed
    (peak,) = peaks
    assert peak <= 13_591_484
