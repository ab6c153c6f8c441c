"""Box slices of the exact engine: on a slice of the table, functionals and
fields are evaluated once and D+ / D- are stride offsets into their values.
Every shifted value must equal the plain counts-array evaluation bit for bit,
whatever the slice shape; each object's fn runs once per slice after a
sweep's first; and the sweep takes box slices only where they evaluate no
more rows than plain ones."""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest

from poisson_malliavin import (
    ExactBackend,
    GroundSpace,
    bounded_sigmoid,
    compose,
    count_times_deterministic,
    deterministic_field,
    exact_expectation,
    functional_times_indicator,
    identities,
    indicator_leq,
    poly_count,
    product_of,
)
from poisson_malliavin import exact as exact_module, functionals, lattice
from poisson_malliavin.functionals import (
    Functional,
    RandomField,
    add_diff_all,
    derivative_field,
    drop_diff_all,
    field_add_tensor,
    field_dropped_diag,
)


def _same(a, b) -> bool:
    """Equal with ``np.array_equal`` and bit for bit, signed zeros too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_space() -> GroundSpace:
    weights = np.random.default_rng(23).uniform(0.4, 1.6, size=3)
    return GroundSpace(tuple(round(float(w), 6) for w in weights))


@pytest.fixture(params=["canonical", "random"])
def backend(request, exact):
    if request.param == "canonical":
        return exact
    return ExactBackend(_random_space(), tol=1e-10)


_SHAPES = {"one level": (0, 1), "several levels": (0, 4), "second site": (1, 2)}


def _slice_rows(monkeypatch, shape: str) -> None:
    """Cut the table into box slices of one level of the first site, several
    levels of it, or two levels of the second site, whichever the slicing
    rule would pick: the lattice arithmetic must hold on every shape."""
    monkeypatch.setattr(lattice, "_box_slicing", lambda caps, step: _SHAPES[shape])


def _pool(space: GroundSpace):
    sig = bounded_sigmoid(space, [1, 2], 1.0)
    ind = indicator_leq(space, [2, 3], 2)
    poly = poly_count(space, [1, 3], 2)
    prod = product_of(sig, ind)
    Fs = [sig, poly, prod, compose("tanh", poly)]
    us = [
        functional_times_indicator(space, [1, 3], sig),
        count_times_deterministic(space, [1, 2], [1.0, 0.5, -1.0]),
        deterministic_field(space, [1.0, -0.5, 2.0]),
        derivative_field(prod),  # gradient: second-order shift in the tensor
        derivative_field(poly),
    ]
    return Fs, us


def _sweep_slices(backend, kernel) -> list[tuple[tuple, tuple]]:
    """Run ``kernel(counts)`` over the table's box slices; the (lo, hi) of
    each slice, in sweep order."""
    seen = []

    def paired(counts):
        seen.append((counts.box._lo, counts.box._hi))
        kernel(counts)
        zero = np.zeros(len(counts))
        return zero, zero

    backend.paired(paired)
    return seen


def _assert_slicing(seen, backend, shape: str) -> None:
    first_site_levels = {hi[0] - lo[0] for lo, hi in seen}
    assert sum(math.prod(h - l for l, h in zip(lo, hi)) for lo, hi in seen) == (
        backend.state_count
    )
    if shape == "one level":
        assert first_site_levels == {1} and len(seen) == backend.plan.caps[0] + 1
    elif shape == "several levels":
        assert max(first_site_levels) >= 4
    else:
        assert first_site_levels == {1} and len(seen) > backend.plan.caps[0] + 1


@pytest.mark.parametrize("shape", ["one level", "several levels", "second site"])
@pytest.mark.parametrize("first", ["shift", "slice"])
def test_shift_helpers_match_plain_counts_bitwise(monkeypatch, backend, shape, first):
    """The four shift helpers on a box slice equal their plain counts-array
    results with ``np.array_equal``.  With ``first="slice"`` every object is
    evaluated on the slice before it is shifted; otherwise the halo is
    evaluated at once, or taken over from the previous slice at the
    border."""
    _slice_rows(monkeypatch, shape)
    Fs, us = _pool(backend.space)
    checked = defaultdict(int)

    def kernel(counts):
        plain = np.array(counts)
        assert counts.box is not None and getattr(plain, "box", None) is None
        if first == "slice":
            for F in Fs:
                assert _same(F.batch(counts), F.batch(plain))
            for u in us:
                assert _same(u.values(counts), u.values(plain))
        for F in Fs:
            for helper in (add_diff_all, drop_diff_all):
                assert _same(helper(F, counts), helper(F, plain)), helper
                checked[helper.__name__] += 1
        for u in us:
            for helper in (field_add_tensor, field_dropped_diag):
                assert _same(helper(u, counts), helper(u, plain)), (helper, u)
                checked[helper.__name__] += 1
            assert _same(u.values(counts), u.values(plain))

    seen = _sweep_slices(backend, kernel)
    _assert_slicing(seen, backend, shape)
    assert set(checked) == {
        "add_diff_all",
        "drop_diff_all",
        "field_add_tensor",
        "field_dropped_diag",
    }


@pytest.mark.parametrize(
    "weights, levels", [((0.8,), 2), ((0.3, 1.2), 3), ((0.5, 0.2, 1.1, 0.7), 2)]
)
def test_shift_helpers_match_plain_counts_on_other_sizes(monkeypatch, weights, levels):
    """One, two and four sites: slices of a few levels of the last site,
    with the sites before it fixed."""
    space = GroundSpace(weights)
    backend = ExactBackend(space, tol=1e-6)
    n = space.n
    monkeypatch.setattr(lattice, "_box_slicing", lambda caps, step: (n - 1, levels))
    sites = list(range(1, n + 1))
    Fs = [product_of(bounded_sigmoid(space, sites, 0.7), indicator_leq(space, [1], 2))]
    Fs.append(poly_count(space, sites, 2))
    us = [
        functional_times_indicator(space, sites[-1:], Fs[0]),
        derivative_field(Fs[1]),
        count_times_deterministic(space, sites, [0.5 * z for z in sites]),
    ]

    def kernel(counts):
        plain = np.array(counts)
        for F in Fs:
            for helper in (add_diff_all, drop_diff_all):
                assert _same(helper(F, counts), helper(F, plain)), helper
        for u in us:
            for helper in (field_add_tensor, field_dropped_diag):
                assert _same(helper(u, counts), helper(u, plain)), (helper, u)

    seen = _sweep_slices(backend, kernel)
    assert len(seen) > 1


def _plain_sweep(kernel, states: np.ndarray, names) -> tuple[np.ndarray, ...]:
    """The one sweep loop over plain counts parts of ``states``, as Monte
    Carlo rows reach it."""
    m, n = states.shape
    step = functionals._sweep_step(n)
    parts = ((a, min(a + step, m), states[a : a + step]) for a in range(0, m, step))
    return functionals._sweep(kernel, m, parts, names, lambda finite: states[np.argmin(finite)])


@pytest.mark.parametrize("shape", ["one level", "several levels", "second site"])
def test_exact_results_match_plain_states_bitwise(monkeypatch, backend, shape):
    """Whole checks and expectations over box slices equal the same kernels
    swept over plain slices of the table's states."""
    Fs, us = _pool(backend.space)
    F, u, v = Fs[2], us[0], us[3]
    kernels = [
        identities.mecke_kernel(u),
        identities.mecke_kernel(v),
        lambda c: (
            identities.divergence_batch(v, c) ** 2,
            (field_add_tensor(v, c) * field_add_tensor(u, c)).sum(axis=(-2, -1)),
        ),
        lambda c: (
            F.batch(c) * identities.divergence_batch(u, c),
            (u.values(c) * add_diff_all(F, c)).sum(-1),
        ),
        lambda c: (Fs[3].batch(c),),
    ]
    names = [("lhs", "rhs")] * 4 + [(Fs[3].name,)]
    states = backend.table.states
    plain = [_plain_sweep(k, states, w) for k, w in zip(kernels, names)]
    _slice_rows(monkeypatch, shape)
    boxed = [exact_module._sweep_table(k, backend.table, w) for k, w in zip(kernels, names)]
    for want, got in zip(plain, boxed):
        for a, b in zip(want, got):
            assert _same(a, b)
    assert exact_expectation(Fs[3], backend.table).value == float(
        backend.table.probs @ plain[-1][0]
    )


def _counting(obj, log, where):
    """A copy of ``obj`` whose fn logs, per call, the slice being swept, the
    sweep's slice index, whether the rows are a slice's and the rows."""

    def fn(counts, inner=obj.fn):
        box = getattr(counts, "box", None)
        rows = np.array(counts).reshape(-1, counts.shape[-1])
        log.append((where["slice"], where["index"], box is not None, rows))
        return inner(counts)

    if isinstance(obj, Functional):
        return Functional(obj.space, fn, obj.name, obj.params, obj.bound)
    return RandomField(obj.space, fn, obj.name, obj.params, obj.bound)


@pytest.mark.parametrize("shape", ["one level", "several levels", "second site"])
def test_each_object_evaluated_once_per_slice(monkeypatch, backend, shape):
    """Over the identity checks, from the second slice of a sweep on, each
    object's fn runs at most once on rows of the slice (its own rows, its
    halo, or the part of the halo past the border with the previous slice)
    and sees each configuration at most once.  The faces past the halo that
    a gradient's second-order shift reads are evaluated by one more call, on
    plain rows.  In a sweep's first slice an object asked for on the slice
    and then shifted runs twice, on the slice and on the halo.  Composites
    evaluate their inner objects through the slice too."""
    _slice_rows(monkeypatch, shape)
    space = backend.space
    where = {"slice": None, "index": -1}
    sweep = exact_module._sweep

    def tracking(kernel, m, parts, names, locate):
        def tracked(counts):
            where["slice"] = counts.box
            where["index"] += 1
            return kernel(counts)

        where["index"] = -1
        return sweep(tracked, m, parts, names, locate)

    monkeypatch.setattr(exact_module, "_sweep", tracking)
    logs = defaultdict(list)
    sig = _counting(bounded_sigmoid(space, [1, 2], 1.0), logs["sig"], where)
    ind = _counting(indicator_leq(space, [2, 3], 2), logs["ind"], where)
    prod = _counting(product_of(sig, ind), logs["prod"], where)
    u = _counting(functional_times_indicator(space, [1, 3], sig), logs["u"], where)
    det = _counting(deterministic_field(space, [1.0, -0.5, 2.0]), logs["det"], where)
    checks = [
        lambda: identities.mecke_check(u, backend),
        lambda: identities.skorokhod_check(derivative_field(prod), backend),
        lambda: identities.duality_check(prod, u, backend),
        lambda: identities.skorokhod_check(u, backend),
        lambda: identities.energy_derivation_check(sig, ind, det, backend),
        lambda: identities.bracket_expectation_check(det, u, backend),
        lambda: identities.gamma_representation_check(sig, prod, backend),
    ]
    slices = 0
    for check in checks:
        for log in logs.values():
            log.clear()
        assert check().passed
        for name, log in logs.items():
            by_slice = defaultdict(list)
            for box, index, tagged, rows in log:
                by_slice[id(box)].append((index, tagged, rows))
            for entries in by_slice.values():
                rows = np.concatenate([r for _, _, r in entries])
                tagged_calls = sum(tagged for _, tagged, _ in entries)
                if entries[0][0] > 0:
                    assert len(np.unique(rows, axis=0)) == len(rows), name
                    assert tagged_calls <= 1, name
                else:
                    assert tagged_calls <= 2, name
                slices += 1
        assert logs["sig"]
    assert slices > len(checks)


def _step(n: int) -> int:
    return max(1, functionals._SWEEP_BYTES // (8 * n * n))


def test_box_slicing_rule_on_known_tables():
    """Hand-computed choices: one level of the first site on 5 sites at
    cap 12, several levels of the second site on 5 sites at cap 15, the
    whole table on small 3-site tables, and plain counts where few levels
    per site make halos large: 11 sites at cap 1 (3^11 halo rows against
    11 * 2^11 table rows) and 7 sites at cap 6 (two levels of the third
    site fit the budget, but their halos hold 4x the plain rows)."""
    assert lattice._box_slicing((12,) * 5, _step(5)) == (0, 1)
    assert lattice._box_slicing((15,) * 5, _step(5)) == (1, 10)
    assert lattice._box_slicing((11, 14, 17), _step(3)) == (0, 12)
    assert lattice._box_slicing((1,) * 11, _step(11)) is None
    assert lattice._box_slicing((6,) * 7, _step(7)) is None


def _sweep_halos(caps, step: int) -> int:
    """Check that the runs ``sweep_parts`` yields tile the table in order
    and that each box slice holds at most ``step`` rows and its halo at most
    n * step; return the halo rows of the whole sweep."""
    n = len(caps)
    shape = tuple(c + 1 for c in caps)
    at, halos = 0, 0
    for start, stop, counts in lattice.sweep_parts(caps, step):
        assert start == at and start < stop <= start + step
        want = np.stack(np.unravel_index(np.arange(start, stop), shape), axis=-1)
        assert np.array_equal(np.asarray(counts), want)
        at = stop
        if lattice.is_slice(counts):
            halo = math.prod(counts.box.shape)
            assert halo <= n * step
            halos += halo
    assert at == math.prod(shape)
    return halos


def test_box_slices_keep_to_budget_and_plain_work():
    """On random boxes and budgets, and on two shapes where the rule takes
    one level of the first site or eight of the second, the halos of a
    whole box-sliced sweep hold at most n rows per table row, the least
    plain counts evaluate a shifted object on."""
    rng = np.random.default_rng(11)
    sliced = set()
    cases = [((12,) * 5, _step(5)), ((30,) * 4, 8000)]
    for _ in range(200):
        n = int(rng.integers(1, 6))
        caps = tuple(int(c) for c in rng.integers(0, 9, size=n))
        cases.append((caps, int(rng.integers(1, 3000))))
    for caps, step in cases:
        halos = _sweep_halos(caps, step)
        assert halos <= len(caps) * math.prod(c + 1 for c in caps)
        slicing = lattice._box_slicing(caps, step)
        assert (halos > 0) == (slicing is not None)
        sliced.add(None if slicing is None else slicing[0])
    assert lattice._box_slicing((30,) * 4, 8000) == (1, 8)
    assert sliced == {None, 0, 1}


def _rows_seen(backend, objects, plain: bool, monkeypatch) -> dict:
    """Rows each object's fn sees over a set of identity checks, on the
    slicing the rule picks, or on plain counts with ``plain``."""
    with monkeypatch.context() as m:
        if plain:
            m.setattr(lattice, "_box_slicing", lambda caps, step: None)
        logs = defaultdict(list)
        where = {"slice": None, "index": 0}
        sig, ind, u, det = (
            _counting(obj, logs[name], where) for name, obj in objects.items()
        )
        prod = _counting(product_of(sig, ind), logs["prod"], where)
        identities.mecke_check(u, backend)
        identities.skorokhod_check(derivative_field(prod), backend)
        identities.duality_check(prod, u, backend)
        identities.skorokhod_check(u, backend)
        identities.energy_derivation_check(sig, ind, det, backend)
        identities.gamma_representation_check(sig, prod, backend)
    return {name: sum(len(rows) for *_, rows in log) for name, log in logs.items()}


@pytest.mark.parametrize("table", ["11 sites at cap 1", "canonical"])
def test_box_slices_evaluate_no_more_rows_than_plain(monkeypatch, exact, table):
    """Over the identity checks, every object's fn sees no more rows on the
    sweep's slicing than on plain counts: on 11 sites at weight 0.01 (cap 1)
    the sweep takes plain counts, on the canonical table one box slice."""
    if table == "11 sites at cap 1":
        backend = ExactBackend(GroundSpace((0.01,) * 11), tol=1e-3)
        assert backend.plan.caps == (1,) * 11
    else:
        backend = exact
    space = backend.space
    objects = {
        "sig": bounded_sigmoid(space, [1, 2], 1.0),
        "ind": indicator_leq(space, [2, 3], 2),
        "u": functional_times_indicator(space, [1, 3], bounded_sigmoid(space, [2], 0.5)),
        "det": deterministic_field(space, [1.0 - 0.25 * z for z in range(space.n)]),
    }
    boxed = _rows_seen(backend, objects, False, monkeypatch)
    plain = _rows_seen(backend, objects, True, monkeypatch)
    assert set(boxed) == set(plain) == {"sig", "ind", "u", "det", "prod"}
    for name in plain:
        assert boxed[name] <= plain[name], (name, boxed[name], plain[name])
    if table == "11 sites at cap 1":
        assert boxed == plain
    else:
        assert sum(boxed.values()) < sum(plain.values())
