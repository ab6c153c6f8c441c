"""Box slices of the exact engine: on a slice of the table, functionals and
fields are evaluated once and D+ / D- are stride offsets into their values.
Every shifted value must equal the plain counts-array evaluation bit for bit,
whatever the slice shape; each object's fn runs once per slice after a
sweep's first; and the sweep takes box slices only where they evaluate no
more rows than row stencils."""
from __future__ import annotations

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest

from poisson_malliavin import (
    ExactBackend,
    GroundSpace,
    MonteCarloBackend,
    SamplerConfig,
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
    site_indicator_field,
)
from poisson_malliavin import exact as exact_module, functionals, lattice
from poisson_malliavin.functionals import (
    Functional,
    RandomField,
    add_diff_all,
    derivative_field,
    drop_diff_all,
    field_add_tensor,
    field_added_diag,
    field_dropped_diag,
    shifted_all,
)
from conftest import plain_sweep, same_bits


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
    """Functionals and fields on 3 or more sites; the site vectors are not
    constant, so a tensor that reads g at z instead of z' differs."""
    sig = bounded_sigmoid(space, [1, 2], 1.0)
    ind = indicator_leq(space, [2, 3], 2)
    poly = poly_count(space, [1, 3], 2)
    prod = product_of(sig, ind)
    Fs = [sig, poly, prod, compose("tanh", poly)]
    more = [0.25 * z for z in range(3, space.n)]
    us = [
        functional_times_indicator(space, [1, 3], sig),
        count_times_deterministic(space, [1, 2], [1.0, 0.5, -1.0] + more),
        deterministic_field(space, [1.0, -0.5, 2.0] + more),
        derivative_field(prod),  # gradient: second-order shift in the tensor
        derivative_field(poly),
        site_indicator_field(space, [2, 3]),
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
                assert same_bits(F.batch(counts), F.batch(plain))
            for u in us:
                assert same_bits(u.values(counts), u.values(plain))
        for F in Fs:
            for helper in (add_diff_all, drop_diff_all):
                assert same_bits(helper(F, counts), helper(F, plain)), helper
                checked[helper.__name__] += 1
        for u in us:
            for helper in (field_add_tensor, field_dropped_diag):
                assert same_bits(helper(u, counts), helper(u, plain)), (helper, u)
                checked[helper.__name__] += 1
            assert same_bits(u.values(counts), u.values(plain))

    seen = _sweep_slices(backend, kernel)
    _assert_slicing(seen, backend, shape)
    assert set(checked) == {
        "add_diff_all",
        "drop_diff_all",
        "field_add_tensor",
        "field_dropped_diag",
    }


def _is_site_major(a: np.ndarray) -> bool:
    """Whether a (rows, n) array has its row axis innermost in memory."""
    return a.strides[0] == a.itemsize and a.T.flags.c_contiguous


@pytest.mark.parametrize("shape", ["one level", "several levels", "second site"])
def test_site_major_slices_match_plain_counts_in_either_order(monkeypatch, backend, shape):
    """A box slice's counts, field values and the (rows, n) shifts read off
    it are stored site-major, and every shift helper equals its plain result bit for bit
    on C- and Fortran-ordered counts alike; the table's public states stay
    C-ordered."""
    _slice_rows(monkeypatch, shape)
    Fs, us = _pool(backend.space)
    helpers = (field_add_tensor, field_added_diag, field_dropped_diag)
    checked = defaultdict(int)

    def kernel(counts):
        assert _is_site_major(counts)
        for plain in (np.array(counts, order="C"), np.array(counts, order="F")):
            for F in Fs:
                for step in (1, -1):
                    shifted = shifted_all(F, counts, step)
                    assert _is_site_major(shifted)
                    assert same_bits(shifted, shifted_all(F, plain, step))
                assert same_bits(drop_diff_all(F, counts), drop_diff_all(F, plain))
            for u in us:
                assert _is_site_major(u.values(counts))
                for helper in helpers:
                    assert same_bits(helper(u, counts), helper(u, plain)), (helper, u)
                    checked[helper.__name__, u.gradient_of is None] += 1

    _sweep_slices(backend, kernel)
    assert len(checked) == 2 * len(helpers)
    assert backend.table.states.flags.c_contiguous


def test_numpy_adds_fewer_than_8_sites_in_column_order():
    """The premise of site-major slices: on fewer than 8 sites numpy sums
    each row of a C-ordered array left to right, the order in which the
    columns of a site-major array add up, signed zeros included.  From 8
    sites on it does not, so box slices keep C order there."""
    rng = np.random.default_rng(5)
    for n in range(1, 8):
        a = rng.standard_normal((4000, n)) * 10.0 ** rng.integers(-8, 9, (4000, n))
        a[rng.random(a.shape) < 0.2] = -0.0
        assert same_bits(a.sum(axis=-1), np.ascontiguousarray(a.T).T.sum(axis=-1)), n
        assert _is_site_major(lattice._box_rows((0,) * n, (2,) * n))
    assert lattice._box_rows((0,) * 8, (2,) * 8).flags.c_contiguous


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
                assert same_bits(helper(F, counts), helper(F, plain)), helper
        for u in us:  # values first: in the first slice they are not on the halo yet
            assert same_bits(u.values(counts), u.values(plain))
            for helper in (field_add_tensor, field_added_diag, field_dropped_diag):
                assert same_bits(helper(u, counts), helper(u, plain)), (helper, u)

    seen = _sweep_slices(backend, kernel)
    assert len(seen) > 1


_FIELD_HELPERS = (
    RandomField.values,
    field_added_diag,
    field_dropped_diag,
    field_add_tensor,
)


def _assert_factored_fields_match_plain(us, counts) -> int:
    """Every factored field of ``us`` on tagged ``counts`` equals its plain
    fn's result bit for bit, through values and the three shift helpers;
    returns how many fields were checked."""
    plain = np.array(counts)
    factored = [u for u in us if u.factors is not None]
    for u in factored:
        for helper in _FIELD_HELPERS:
            assert same_bits(helper(u, counts), helper(u, plain)), (helper, u)
    return len(factored)


@pytest.mark.parametrize("shape", ["one level", "second site"])
def test_factored_fields_match_plain_fn_on_8_sites(monkeypatch, shape):
    """On 8 sites box slices are C-ordered: a factored field's values and
    shifts, read off its functional's memo, equal its plain fn's results bit
    for bit there too, the level-0 drops of every slice included."""
    space = GroundSpace(tuple(0.02 + 0.005 * z for z in range(8)))
    backend = ExactBackend(space, tol=1e-3)
    assert backend.plan.caps == (2,) * 8
    _slice_rows(monkeypatch, shape)
    _, us = _pool(space)
    checked = []

    def kernel(counts):
        assert counts.flags.c_contiguous and (counts == 0).any()
        assert all(u.values(counts).flags.c_contiguous for u in us)
        checked.append(_assert_factored_fields_match_plain(us, counts))

    seen = _sweep_slices(backend, kernel)
    assert len(seen) > 2 and set(checked) == {4}


@pytest.mark.parametrize("weights", [(0.5, 1.0, 1.5), tuple(0.4 + 0.1 * z for z in range(8))])
def test_factored_fields_match_plain_fn_on_row_stencils(weights):
    """On Monte Carlo rows, cut into row stencils, every factored registry
    kind equals its plain fn's results bit for bit, empty sites included."""
    space = GroundSpace(weights)
    rows, _, _ = MonteCarloBackend(space, SamplerConfig(seed=8, samples=300))._distinct()
    assert (rows == 0).any()
    _, us = _pool(space)
    for part in (rows[:1], rows[1:]):
        counts = lattice._RowStencil(part).tagged("slice")
        assert _assert_factored_fields_match_plain(us, counts) == 4


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
    plain = [plain_sweep(k, states, w) for k, w in zip(kernels, names)]
    _slice_rows(monkeypatch, shape)
    boxed = [exact_module._sweep_table(k, backend.table, w) for k, w in zip(kernels, names)]
    for want, got in zip(plain, boxed):
        for a, b in zip(want, got):
            assert same_bits(a, b)
    assert exact_expectation(Fs[3], backend.table).value == float(
        backend.table.probs @ plain[-1][0]
    )


def _counting(obj, log, where, factored: bool = False):
    """A copy of ``obj`` whose fn logs, per call, the slice being swept, the
    sweep's slice index, whether the rows are a slice's and the rows.  The
    copy is hand-built, unless ``factored`` keeps a factored field's
    factors."""

    def fn(counts, inner=obj.fn):
        box = getattr(counts, "box", None)
        rows = np.array(counts).reshape(-1, counts.shape[-1])
        log.append((where["slice"], where["index"], box is not None, rows))
        return inner(counts)

    if factored:
        return dataclasses.replace(obj, fn=fn)
    if isinstance(obj, Functional):
        return Functional(obj.space, fn, obj.name, obj.bound)
    return RandomField(obj.space, fn, obj.name, obj.bound)


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


@pytest.mark.parametrize("engine", ["exact", "exact, second site", "monte carlo"])
def test_factored_fields_never_evaluated_on_tagged_rows(monkeypatch, exact, engine):
    """Through mecke, duality, skorokhod, bracket_expectation and
    energy_derivation, a factored field's fn is never called on a memo's
    rows: its values and shifts are its functional's memoised ones times g.
    A hand-built field with the same fn is still evaluated there, on the
    halo of a box slice, and every report is the same bit for bit."""
    space = exact.space
    backend = exact
    if engine == "monte carlo":
        backend = MonteCarloBackend(space, SamplerConfig(seed=9, samples=3000))
    elif engine == "exact, second site":
        _slice_rows(monkeypatch, "second site")
    where = {"slice": None, "index": 0}
    sig = bounded_sigmoid(space, [1, 2], 1.0)
    ind = indicator_leq(space, [2, 3], 2)
    det = deterministic_field(space, [1.0, -0.5, 2.0])
    fields = [
        functional_times_indicator(space, [1, 3], sig),
        count_times_deterministic(space, [1, 2], [0.5, -1.0, 1.5]),
        site_indicator_field(space, [2, 3]),
        det,
    ]

    def reports(u) -> list[str]:
        return [
            repr(dataclasses.astuple(report))
            for report in (
                identities.mecke_check(u, backend),
                identities.duality_check(sig, u, backend),
                identities.skorokhod_check(u, backend),
                identities.bracket_expectation_check(det, u, backend),
                identities.energy_derivation_check(sig, ind, u, backend),
            )
        ]

    caps = np.array(exact.plan.caps)
    for u in fields:
        factored_log, hand_log = [], []
        factored = _counting(u, factored_log, where, factored=True)
        hand = _counting(u, hand_log, where)
        assert factored.factors is u.factors and hand.factors is None
        assert reports(factored) == reports(hand), u
        assert not any(tagged for _, _, tagged, _ in factored_log), u
        tagged = [rows for _, _, is_tagged, rows in hand_log if is_tagged]
        assert tagged, u
        if backend is exact:  # the halo reaches one level past the table
            assert any((rows > caps).any() for rows in tagged), u


def _step(n: int) -> int:
    return max(1, functionals._SWEEP_BYTES // (8 * n * n))


def test_box_slicing_rule_on_known_tables():
    """Hand-computed choices: one level of the first site on 5 sites at
    cap 12, several levels of the second site on 5 sites at cap 15, the
    whole table on small 3-site tables, and row stencils where few levels
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
        if isinstance(counts.box, lattice._BoxSlice):
            halo = math.prod(counts.box.shape)
            assert halo <= n * step
            halos += halo
    assert at == math.prod(shape)
    return halos


def test_box_slices_keep_to_budget_and_plain_work():
    """On random boxes and budgets, and on two shapes where the rule takes
    one level of the first site or eight of the second, the halos of a
    whole box-sliced sweep hold at most n rows per table row, the least a
    row stencil evaluates a shifted object on."""
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
    slicing the rule picks, or on row stencils with ``plain``."""
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
    sweep's slicing than on row stencils: on 11 sites at weight 0.01 (cap 1)
    the sweep takes row stencils, on the canonical table one box slice."""
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
