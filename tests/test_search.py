"""The exhaustive searches against the plain algorithms they speed up.

`div_search` takes one lean verdict per projective class of derivations
and builds full reports only for classes that pass; it is compared,
report field by report field, with a loop that runs the full
`has_invertible_values` on every nonzero coefficient tuple.  The class
images, computed for a chunk of classes at once, are compared with the
images of the combinations.  The lean class test is compared with the
full verdict class by class, and the work it does is counted: one lean
test per class, one full report per hit, and a budget of enumerated
points.  The image verdicts a search
leaves on a table are compared with the reports of a freshly built equal
table, and the class verdicts it keeps must exhaust the point budget at
the same cap as a lean test that enumerates every class's image again.
`ideal_closure`, which stops as soon as it reaches the whole
algebra, is compared with a closure run to its fixpoint.  The search's
walk over the classes is compared with the tuple loop it replaced, and
the facts kept per map (the Leibniz verdict, kernel and image) and per
kernel (the largest ideal inside it) with the same facts on fresh maps
and tables.
"""

import itertools
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanalg import derivations
from jordanalg.algebra import (
    AlgebraTable,
    LinearMap,
    _inversion_kind,
    direct_sum,
    ideal_closure,
    split_null_extension,
)
from jordanalg.constructions import diagonal_spin_factor, matrix_algebra
from jordanalg.derivations import derivation_space, div_search, has_invertible_values
from jordanalg.errors import CapExceeded
from jordanalg.fields import prime_field
from jordanalg.formats import write_algebra
from jordanalg.linalg import Matrix, Subspace, _column_spaces

F3, F5, F7 = prime_field(3), prime_field(5), prime_field(7)


def _sorted_diags(p, nv):
    return [d for d in itertools.product(range(p), repeat=nv) if list(d) == sorted(d)]


def _gf9():
    """GF(3)[t] / (t^2 - 2)."""
    return AlgebraTable(F3, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 2}, unit=[1, 0])


def _generic_gf3():
    """3-dim unital GF(3) table, neither commutative nor associative."""
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1, (2, 0, 2): 1}
    entries.update({
        (1, 1, 0): 2, (1, 1, 1): 1, (1, 1, 2): 2,
        (1, 2, 0): 1, (1, 2, 1): 2, (1, 2, 2): 2,
        (2, 1, 0): 2, (2, 1, 1): 2,
        (2, 2, 0): 1, (2, 2, 2): 2,
    })
    return AlgebraTable(F3, 3, entries, unit=[1, 0, 0])


def _search_tables():
    tables = {}
    for p, field, nvs in ((3, F3, (1, 2, 3)), (5, F5, (1, 2)), (7, F7, (1, 2))):
        for nv in nvs:
            for diag in _sorted_diags(p, nv):
                if nv == 3 and not any(diag):
                    continue  # 19,682 full reports in the reference loop
                tables[f"spin-gf{p}-{diag}"] = diagonal_spin_factor(field, diag)
    for field, diag in ((F5, (1, 2, 3)), (F5, (0, 1, 2)), (F7, (1, 2, 3)), (F7, (0, 1, 3))):
        tables[f"spin-gf{field.p}-{diag}"] = diagonal_spin_factor(field, diag)
    for diag in ((0,), (1,), (1, 0), (1, 1)):
        for shift in (0, 2):
            ext, _ = split_null_extension(diagonal_spin_factor(F3, diag), shift)
            tables[f"ext-gf3-{diag}-shift{shift}"] = ext
    tables["m2-gf3"] = matrix_algebra(AlgebraTable(F3, 1, {(0, 0, 0): 1}, unit=[1]), 2)
    tables["gf9"] = _gf9()
    tables["generic-gf3"] = _generic_gf3()
    return tables


SEARCH_TABLES = _search_tables()


def _reference_div_search(table, point_cap=10**6):
    """The full classifier on every nonzero tuple, in lexicographic order."""
    space = derivation_space(table)
    hits = []
    for tup in itertools.product(range(table.field.p), repeat=space.dim):
        if any(tup):
            report = has_invertible_values(table, space.combination(tup), point_cap=point_cap)
            if report.verdict == "div":
                hits.append(report)
    return hits


def _fields(report):
    return (
        report.map, report.is_derivation, report.kernel, report.image,
        report.verdict, report.witness, report.method, report.note,
    )


@pytest.mark.parametrize("name", sorted(SEARCH_TABLES))
def test_div_search_matches_full_classifier_on_every_tuple(name):
    table = SEARCH_TABLES[name]
    expected = _reference_div_search(table)
    assert [_fields(r) for r in div_search(table)] == [_fields(r) for r in expected]


def test_search_tables_cover_hits_and_misses():
    hits = {name: len(div_search(SEARCH_TABLES[name]))
            for name in ("m2-gf3", "spin-gf7-(1, 2, 3)", "spin-gf5-(1, 1)", "ext-gf3-(1, 1)-shift0")}
    assert hits["m2-gf3"] > 0 and hits["spin-gf7-(1, 2, 3)"] > 0
    assert hits["spin-gf5-(1, 1)"] == 0 and hits["ext-gf3-(1, 1)-shift0"] == 0
    assert derivation_space(SEARCH_TABLES["ext-gf3-(1, 0)-shift0"]).dim == 5


@pytest.mark.parametrize("diag", [(1, 1, 1), (1, 1, 2)])
def test_div_search_leaves_large_images_to_the_full_path(diag):
    """Images of 4 points exceed a cap of 3, so no class is rejected by
    the lean test and the full classifier decides every tuple."""
    table = diagonal_spin_factor(F3, diag)
    expected = _reference_div_search(table, point_cap=3)
    assert [_fields(r) for r in div_search(table, point_cap=3)] == [_fields(r) for r in expected]


def _classes(p, d):
    """Coefficient tuples whose first nonzero entry is 1."""
    return [t for t in itertools.product(range(p), repeat=d) if any(t) and next(c for c in t if c) == 1]


@pytest.mark.parametrize("name", ["spin-gf3-(0, 1, 1)", "spin-gf3-(1, 1, 2)", "spin-gf5-(0, 1, 2)",
                                  "spin-gf7-(1, 2, 3)", "ext-gf3-(1, 0)-shift2", "m2-gf3"])
def test_lean_class_verdict_matches_full_verdict(name):
    table = SEARCH_TABLES[name]
    space = derivation_space(table)
    kind = _inversion_kind(table)
    for key in _classes(table.field.p, space.dim):
        dmap = space.combination(key)
        passes, used = derivations._class_may_pass(table, kind, dmap.image(), 10**6, 10**6)
        full = has_invertible_values(table, dmap)
        assert passes == (full.verdict == "div"), key
        assert 1 <= used <= (table.field.p ** full.image.dim - 1) // (table.field.p - 1)


@pytest.mark.parametrize("name", ["spin-gf3-(1, 1, 1)", "spin-gf5-(0, 1, 2)", "spin-gf7-(1, 2, 3)",
                                  "ext-gf3-(1, 1)-shift0", "m2-gf3"])
def test_div_search_does_one_lean_test_per_class_and_one_report_per_hit(name, monkeypatch):
    table = SEARCH_TABLES[name]
    calls = {"lean": 0, "full": 0}
    lean, full = derivations._class_may_pass, derivations.has_invertible_values

    def counted_lean(*args):
        calls["lean"] += 1
        return lean(*args)

    def counted_full(*args, **kwargs):
        calls["full"] += 1
        return full(*args, **kwargs)

    monkeypatch.setattr(derivations, "_class_may_pass", counted_lean)
    monkeypatch.setattr(derivations, "has_invertible_values", counted_full)
    hits = div_search(table)
    p, d = table.field.p, derivation_space(table).dim
    assert calls["lean"] == (p**d - 1) // (p - 1)
    assert calls["full"] == len(hits)


# ---------------------------------------------------------------------------
# the class images


@pytest.fixture(params=["one_class", "three_classes", "default"])
def class_chunks(request, monkeypatch):
    """Chunks of one class, of three classes of a 4-dim table (one of a
    6-dim one), or at the default size, which takes every class here."""
    if request.param != "default":
        monkeypatch.setattr(derivations, "_CLOSURE_CELLS", 1 if request.param == "one_class" else 48)


@pytest.mark.parametrize("name", sorted(SEARCH_TABLES))
def test_class_images_equal_the_images_of_the_combinations(name, class_chunks, monkeypatch):
    """The image each class test gets, in the order of the classes."""
    table = SEARCH_TABLES[name]
    seen = []

    def spy(searched, kind, image, point_cap, budget):
        seen.append(image)
        return False, 0

    monkeypatch.setattr(derivations, "_class_may_pass", spy)
    div_search(table)
    space = derivation_space(table)
    assert seen == [space.combination(key).image() for key in _classes(table.field.p, space.dim)]


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_column_spaces_at_large_primes(p):
    """int64 maps with object products below 2^31, object maps above."""
    field, rng = prime_field(p), random.Random(p)
    n, d = 4, 3
    # rank-2 maps, the third a multiple of the first: sums of rank 0, 2 and 4
    maps = []
    for _ in range(d):
        left = [[rng.randrange(p) for _ in range(2)] for _ in range(n)]
        right = [[rng.randrange(p) for _ in range(n)] for _ in range(2)]
        maps.append(Matrix(field, left) @ Matrix(field, right))
    maps[2] = maps[0].scale(rng.randrange(1, p))
    coeffs = [[rng.randrange(p) for _ in range(d)] for _ in range(10)]
    coeffs += [[0, 0, 0], [1, 0, 0], [0, 0, 1], [1, 0, p - 1], [0, 1, 0]]
    got = list(_column_spaces(field, coeffs, np.array([m.rows for m in maps], dtype=object), 4))
    expected = [(maps[0].scale(a) + maps[1].scale(b) + maps[2].scale(c)).column_space() for a, b, c in coeffs]
    assert got == expected
    assert {image.dim for image in got} == {0, 2, 4}


@pytest.mark.parametrize("name", ["spin-gf3-(0, 1, 1)", "spin-gf7-(1, 2, 3)", "m2-gf3"])
def test_div_search_takes_one_map_image_per_hit_report(name, monkeypatch):
    calls = []
    real = LinearMap.image
    monkeypatch.setattr(LinearMap, "image", lambda self: calls.append(self) or real(self))
    hits = div_search(_fresh_copy(SEARCH_TABLES[name]))
    assert hits and calls == [hit.map for hit in hits]


# ---------------------------------------------------------------------------
# the point budget


@pytest.fixture(scope="module")
def split_null_8():
    """The 8-dim split-null extension of the GF(3) spin factor diag(1,0,1):
    9-dim derivation space, 19,683 tuples, 9,841 classes."""
    ext, _ = split_null_extension(diagonal_spin_factor(F3, [1, 0, 1]))
    return ext


def test_split_null_8_search_is_empty(split_null_8):
    assert derivation_space(split_null_8).dim == 9
    assert div_search(split_null_8) == []


def test_point_budget_counts_the_whole_search(split_null_8):
    """The lean tests of this table need one point for each of its 9,841
    classes, so a cap of 1000 points runs out early in the search."""
    with pytest.raises(CapExceeded, match="image points"):
        div_search(split_null_8, point_cap=1000)


def test_div_search_refuses_a_class_it_leaves_undecided():
    """Images of M_2(GF(3)) with more than 3 points pass the lean test
    unseen, and the full report has no rung for a matrix algebra, so a
    cap of 3 leaves them "unknown": the search says so instead of
    dropping their hits."""
    table = SEARCH_TABLES["m2-gf3"]
    assert len(div_search(table)) == 6
    with pytest.raises(CapExceeded, match="undecided at the point cap 3"):
        div_search(table, point_cap=3)


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "jordanalg.cli", *argv], capture_output=True, text=True
    )


def test_divsearch_cli_budget(tmp_path, split_null_8):
    path = tmp_path / "ext8.alg"
    path.write_text(write_algebra(split_null_8))
    result = _run_cli("divsearch", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 DIV derivations\n"
    # the 19,683 candidates of this table pass any cap its 9,841 points pass
    result = _run_cli("divsearch", str(path), "--cap", "9841")
    assert result.returncode == 3 and "CapExceeded" in result.stderr
    # 27 tuples fit a cap of 30; the lean tests of GF(3) diag(1,1,1) need 44 points
    spin = tmp_path / "spin111.alg"
    spin.write_text(write_algebra(diagonal_spin_factor(F3, [1, 1, 1])))
    result = _run_cli("divsearch", str(spin), "--cap", "30")
    assert result.returncode == 3
    assert "CapExceeded" in result.stderr and "image points" in result.stderr
    assert _run_cli("divsearch", str(spin), "--cap", "44").returncode == 0


# ---------------------------------------------------------------------------
# ideal closures


def _closure_to_fixpoint(table, space):
    """Add every product with a basis element until nothing changes."""
    f, n = table.field, table.dim
    units = [[f.one() if i == j else f.zero() for i in range(n)] for j in range(n)]
    current = space
    while True:
        products = [table.mul_coords(list(v), e) for v in current.basis for e in units]
        products += [table.mul_coords(e, list(v)) for v in current.basis for e in units]
        grown = Subspace(f, n, list(current.basis) + products)
        if grown == current:
            return current
        current = grown


@st.composite
def closure_cases(draw):
    """Random GF(3) tables and subspaces.  Besides dense tables there are
    strictly triangular ones (b_i b_j in the span of the b_k with
    k > max(i, j)) and chains (b_i b_j a multiple of b_(max(i, j) - 1)),
    where a closure climbs through several rounds, one dimension at a
    time in a chain, before it stops."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["dense", "triangular", "chain"]))
    cells = st.sampled_from([0, 0, 1, 2])
    entries = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        if (
            shape == "dense"
            or (shape == "triangular" and k > max(i, j))
            or (shape == "chain" and k == max(i, j) - 1)
        ):
            entries[(i, j, k)] = draw(cells)
    start = [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(draw(st.integers(1, 3)))]
    return AlgebraTable(F3, n, entries), Subspace(F3, n, start)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(closure_cases())
def test_ideal_closure_matches_fixpoint(case):
    table, space = case
    assert ideal_closure(table, space) == _closure_to_fixpoint(table, space)


# ---------------------------------------------------------------------------
# the image verdicts kept on a table


def _fresh_copy(table):
    """An equal table built anew, so that it has nothing memoized."""
    entries = {(i, j, k): v for i, j, k, v in table.sc_items()}
    return AlgebraTable(table.field, table.dim, entries, labels=table.labels, unit=table.unit, meta=table.meta)


def _fresh_fields(table, dmap):
    fresh = _fresh_copy(table)
    return _fields(has_invertible_values(fresh, LinearMap(fresh, dmap.matrix)))


@pytest.mark.parametrize("name", sorted(SEARCH_TABLES))
def test_warm_table_reports_equal_fresh_table_reports(name):
    """After a search has filled the table's image verdicts, the report of
    every member of every class, lambda*D included, equals the report on a
    fresh equal table: each witness is a preimage under its own map."""
    table = SEARCH_TABLES[name]
    div_search(table)
    space = derivation_space(table)
    verdicts = set()
    for tup in itertools.product(range(table.field.p), repeat=space.dim):
        if any(tup):
            dmap = space.combination(tup)
            warm = _fields(has_invertible_values(table, dmap))
            assert warm == _fresh_fields(table, dmap), tup
            verdicts.add(warm[4])
    if name in ("spin-gf3-(0, 1, 1)", "spin-gf7-(1, 2, 3)", "m2-gf3"):
        assert verdicts == {"div", "not_div"}


def test_capped_search_keeps_no_verdict_for_images_past_the_cap():
    """With point_cap=3 the lean test passes every image of 4 or more
    points without looking at it, so it may not record them as invertible."""
    table = diagonal_spin_factor(F3, [1, 1, 1])
    div_search(table, point_cap=3)
    space = derivation_space(table)
    verdicts = []
    for tup in itertools.product(range(3), repeat=space.dim):
        if any(tup):
            dmap = space.combination(tup)
            report = has_invertible_values(table, dmap)
            assert _fields(report) == _fresh_fields(table, dmap), tup
            verdicts.append((report.image.dim, report.verdict))
    assert (2, "not_div") in verdicts and (2, "div") in verdicts


@pytest.mark.parametrize("name", ["spin-gf3-(0, 1, 1)", "spin-gf7-(1, 2, 3)", "spin-gf5-(0, 1, 2)", "m2-gf3"])
def test_search_and_reductions_invert_no_point_of_the_table_again(name, monkeypatch):
    """The lean class test leaves its verdict on the table, so the full
    reports of the hits and their reductions enumerate no image of the
    table again; the quotient's own images are still enumerated."""
    table = _fresh_copy(SEARCH_TABLES[name])
    real = derivations.invert_element
    seen = []

    def spy(x):
        seen.append(x.algebra is table)
        return real(x)

    monkeypatch.setattr(derivations, "invert_element", spy)
    hits = div_search(table)
    for hit in hits:
        derivations.div_reduction(table, hit.map)
    assert hits and seen and not any(seen)


def test_hits_that_reduce_by_one_ideal_share_one_quotient(monkeypatch):
    table = diagonal_spin_factor(F7, [0, 1, 1])
    hits = div_search(table)
    built = []
    real = derivations.quotient_algebra
    monkeypatch.setattr(derivations, "quotient_algebra", lambda *args: built.append(args) or real(*args))
    results = [derivations.div_reduction(table, hit.map) for hit in hits]
    first = {}
    for result in results:
        twin = first.setdefault(result.ideal.basis, result)
        assert result.quotient is twin.quotient and result.projection is twin.projection
    assert len(hits) > len(first) == len(built)


# ---------------------------------------------------------------------------
# class verdicts kept on a table, charged at their point counts


def _uncached_class_may_pass(table, kind, image, point_cap, budget):
    """The lean class test that enumerates every class's image again."""
    f = table.field
    if (f.p**image.dim - 1) // (f.p - 1) > point_cap:
        return True, 0
    used = 0
    for value in derivations._projective_points(f, image, trailing_first=True):
        used += 1
        if used > budget:
            raise CapExceeded(f"image points enumerated by the search exceed the cap {point_cap}")
        if derivations._invert_coords(table, value, kind) is None:
            return False, used
    table._cache["image_values", image.basis] = None
    return True, used


def _outcome(table, point_cap):
    try:
        return [_fields(r) for r in div_search(table, point_cap=point_cap)]
    except CapExceeded as exc:
        return str(exc)


def _reference_point_total(table, monkeypatch):
    """Points the uncached lean tests enumerate over a whole search, and
    whether some class repeats an image of an earlier class."""
    used, images = [], []

    def counted(searched, kind, image, point_cap, budget):
        images.append(image.basis)
        passes, n = _uncached_class_may_pass(searched, kind, image, point_cap, budget)
        used.append(n)
        return passes, n

    with monkeypatch.context() as m:
        m.setattr(derivations, "_class_may_pass", counted)
        div_search(_fresh_copy(table))
    return sum(used), len(set(images)) < len(images)


def _reference_outcome(table, point_cap, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(derivations, "_class_may_pass", _uncached_class_may_pass)
        return _outcome(_fresh_copy(table), point_cap)


@pytest.mark.parametrize("name", ["spin-gf3-(0, 1, 1)", "spin-gf3-(0, 0, 1)", "spin-gf5-(0, 1, 2)",
                                  "ext-gf3-(1, 0)-shift2", "ext-gf3-(0,)-shift0"])
def test_cached_class_verdicts_run_out_at_the_uncached_point_total(name, monkeypatch):
    """A search runs out of points one below the total that the uncached
    lean tests enumerate and passes at that total, on a fresh table and
    on one whose class verdicts are all kept, with equal hits."""
    table = SEARCH_TABLES[name]
    total, repeats = _reference_point_total(table, monkeypatch)
    assert repeats
    warm = _fresh_copy(table)
    div_search(warm)
    for cap in (total - 1, total):
        expected = _reference_outcome(table, cap, monkeypatch)
        assert _outcome(_fresh_copy(table), cap) == expected
        assert _outcome(warm, cap) == expected
        assert "image points" in expected if cap < total else expected == [_fields(r) for r in div_search(table)]


def test_class_verdicts_charge_like_the_uncached_test_at_every_cap(monkeypatch):
    """Every cap up to past the point total, on a fresh table and on one
    table searched at rising caps, so that it keeps the verdicts of
    searches that ran out of points or took the point-cap shortcut."""
    table = diagonal_spin_factor(F3, [0, 1, 1])
    total, repeats = _reference_point_total(table, monkeypatch)
    assert total == 139 and repeats
    warm = _fresh_copy(table)
    for cap in range(total + 2):
        expected = _reference_outcome(table, cap, monkeypatch)
        assert _outcome(_fresh_copy(table), cap) == expected, cap
        assert _outcome(warm, cap) == expected, cap


# ---------------------------------------------------------------------------
# the class walk against the tuple loop it replaced


def _tuple_loop_div_search(table, point_cap):
    """`div_search` as a loop over all p^d coefficient tuples in
    lexicographic order, testing each class where the loop first meets it
    (at its key, lead coefficient 1) and reporting every member of a class
    that passed."""
    f = table.field
    p = f.p
    space = derivation_space(table)
    kind = _inversion_kind(table)
    budget = point_cap
    keys = derivations._projective_points(f, Subspace.full(f, space.dim), trailing_first=True)
    maps = derivations._int_image(f, space._flat_basis)[0].reshape(space.dim, table.dim, table.dim)
    images = _column_spaces(f, keys, maps, max(1, derivations._CLOSURE_CELLS // table.dim**2))
    class_passes = {}
    hits = []
    for tup in itertools.product(range(p), repeat=space.dim):
        lead = next((c for c in tup if c), 0)
        if not lead:
            continue
        inv = pow(lead, -1, p)
        key = tuple(c * inv % p for c in tup)
        passes = class_passes.get(key)
        if passes is None:
            passes, used = derivations._class_may_pass(table, kind, next(images), point_cap, budget)
            budget -= used
            class_passes[key] = passes
        if not passes:
            continue
        report = has_invertible_values(table, space.combination(tup), point_cap=point_cap)
        if report.verdict == "unknown":
            raise CapExceeded(f"a derivation's values are left undecided at the point cap {point_cap}")
        if report.verdict == "div":
            hits.append(report)
    return hits


@pytest.mark.parametrize("name", sorted(SEARCH_TABLES))
def test_class_walk_matches_the_tuple_loop_at_every_cap(name):
    """The same reports in the same order, or the same CapExceeded."""
    table = SEARCH_TABLES[name]
    for cap in (8, 50, 10**6):
        try:
            expected = [_fields(r) for r in _tuple_loop_div_search(_fresh_copy(table), cap)]
        except CapExceeded as exc:
            expected = str(exc)
        assert _outcome(_fresh_copy(table), cap) == expected, cap


# ---------------------------------------------------------------------------
# facts kept per map and per kernel


@pytest.mark.parametrize("name", ["spin-gf3-(0, 1, 1)", "spin-gf7-(1, 2, 3)", "m2-gf3"])
def test_each_map_is_checked_for_leibniz_once(name, monkeypatch):
    """One `_leibniz_holds` call per map object over a classification, a
    reduction and the classification of the induced map."""
    table = SEARCH_TABLES[name]
    hits = div_search(table)
    checked = []
    real = derivations._leibniz_holds
    monkeypatch.setattr(derivations, "_leibniz_holds", lambda t, maps: checked.extend(maps) or real(t, maps))
    expected = []
    for hit in hits:
        dmap = LinearMap(table, hit.map.matrix)
        assert has_invertible_values(table, dmap).verdict == "div"
        result = derivations.div_reduction(table, dmap)
        assert has_invertible_values(result.quotient, result.induced).verdict == "div"
        expected += [dmap, result.induced]
    assert hits and len(checked) == len(expected)
    assert all(a is b for a, b in zip(checked, expected))


def _reduction_fields(result):
    return result.ideal, result.quotient, result.induced


@pytest.mark.parametrize("name", sorted(SEARCH_TABLES))
def test_warm_table_reductions_equal_fresh_table_reductions(name):
    """Every hit reduced twice on one table, so that the second round reads
    every kernel ideal and quotient it keeps, equals its reduction on a
    fresh equal table."""
    table = SEARCH_TABLES[name]
    hits = div_search(table)
    for _ in range(2):
        warm = [derivations.div_reduction(table, hit.map) for hit in hits]
    for hit, result in zip(hits, warm):
        fresh = _fresh_copy(table)
        expected = derivations.div_reduction(fresh, LinearMap(fresh, hit.map.matrix))
        assert _reduction_fields(result) == _reduction_fields(expected)


def _summand_maps():
    """D + 0 and 0 + D on the direct sum of two copies of the GF(3) spin
    factor diag(1, 1), D spanning its derivations."""
    spin = diagonal_spin_factor(F3, [1, 1])
    (base,) = derivation_space(spin).basis
    table = direct_sum(spin, spin)
    n = spin.dim
    zero = [0] * n
    first = [list(row) + zero for row in base.matrix.rows] + [[0] * (2 * n) for _ in range(n)]
    second = [[0] * (2 * n) for _ in range(n)] + [zero + list(row) for row in base.matrix.rows]
    return table, LinearMap(table, Matrix(F3, first)), LinearMap(table, Matrix(F3, second))


def test_maps_with_one_kernel_share_one_kernel_ideal(monkeypatch):
    table, first, _ = _summand_maps()
    spun = []
    real = derivations.spin_closure
    monkeypatch.setattr(derivations, "spin_closure", lambda *args: spun.append(args) or real(*args))
    twice = first.scale(2)
    assert twice.kernel() == first.kernel() and twice is not first
    ideal = derivations.largest_ideal_in_kernel(table, first)
    assert derivations.largest_ideal_in_kernel(table, twice) == ideal
    assert len(spun) == 1


def test_kernels_of_one_dimension_keep_their_own_ideals():
    table, first, second = _summand_maps()
    assert first.kernel().dim == second.kernel().dim and first.kernel() != second.kernel()
    ideals = [derivations.largest_ideal_in_kernel(table, dmap) for dmap in (first, second)]
    n = table.dim // 2
    assert [ideal.pivots for ideal in ideals] == [tuple(range(n, 2 * n)), tuple(range(n))]
