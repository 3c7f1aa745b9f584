"""Kernel ideals and the ideal lattice against the algorithms they replace.

`largest_ideal_in_kernel` spins the functionals that vanish on ker D
under z -> z o L_b and z -> z o R_b and takes the annihilator of the
result; it is compared with the iterated refinement that cuts the kernel
down by one nullspace solve per round until it stops shrinking.
`enumerate_ideals` adds each new principal closure to every ideal found
so far, in one pass over the points; it is compared with the enumeration
that re-sums every pair of found ideals until a round adds nothing.  The
cases are seeded derivations of spin factors over GF(3), GF(5) and Q,
of their split-null extensions, of M_2(GF(3)) and its extension, and
the upper-triangular T_2(GF(3)), whose kernel holds a one-sided ideal
but no nonzero two-sided one.

`principal_closures` spins the lines of many points together over
GF(p); it is compared with one `ideal_closure` per point on every
projective point of spin factors, their extensions, non-commutative
tables and drawn tables, in chunks of one point and of the default size.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanalg import algebra, derivations
from jordanalg.algebra import (
    AlgebraTable,
    _product_sides,
    direct_sum,
    ideal_closure,
    is_ideal,
    principal_closures,
    split_null_extension,
)
from jordanalg.constructions import diagonal_spin_factor, matrix_algebra
from jordanalg.derivations import (
    _projective_points,
    derivation_space,
    enumerate_ideals,
    extend_derivation_diagonal,
    extend_derivation_eps,
    inner_assoc_derivation,
    largest_ideal_in_kernel,
    sample_derivation,
    simplicity_scan,
)
from jordanalg.errors import CertificationError
from jordanalg.fields import RATIONALS, prime_field
from jordanalg.linalg import Matrix, Subspace, combine_raw, dot_raw

F3, F5, F7 = prime_field(3), prime_field(5), prime_field(7)


def _largest_ideal_by_refinement(table, dmap):
    """Cut ker D down to the vectors whose products with every basis
    element stay in the current space, one nullspace solve per round,
    until the space stops shrinking."""
    f, n = table.field, table.dim
    sides = _product_sides(table)
    space = dmap.kernel()
    while space.dim:
        dual = space.annihilator()
        if dual.dim == 0:
            break
        ops = {side: [table.mult_operator(w, side) for w in space.basis] for side in sides}
        rows = []
        for j in range(n):
            for z in dual.basis:
                for side in sides:
                    rows.append([dot_raw(f, z, [r[j] for r in op]) for op in ops[side]])
        coeff_space = Matrix._wrap(f, rows).nullspace()
        refined = Subspace._wrap(f, n, [combine_raw(f, c, space.basis) for c in coeff_space.basis])
        if refined.dim == space.dim:
            break
        space = refined
    return space


def _ideals_by_pairwise_rounds(table):
    """The principal closures of every projective point, closed under
    pairwise sums round by round until a round adds nothing."""
    f, n = table.field, table.dim
    zero = Subspace.zero(f, n)
    found = {zero.basis: zero}
    for point in _projective_points(f, Subspace.full(f, n)):
        closure = ideal_closure(table, Subspace(f, n, [point]))
        found.setdefault(closure.basis, closure)
    while True:
        fresh = {}
        for a in list(found.values()):
            for b in list(found.values()):
                total = a.sum_with(b)
                if total.basis not in found:
                    fresh[total.basis] = total
        if not fresh:
            return sorted(found.values(), key=lambda s: (s.dim, s.basis))
        found.update(fresh)


def _scalar(field):
    return AlgebraTable(field, 1, {(0, 0, 0): 1}, unit=[1])


def _t2(field):
    """Upper-triangular 2x2 matrices on the basis e11, e12, e22."""
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1}
    return AlgebraTable(field, 3, entries, labels=("e11", "e12", "e22"), unit=[1, 0, 1])


def _sampled(table, seed, count):
    space = derivation_space(table)
    rng = random.Random(seed)
    return [sample_derivation(space, rng) for _ in range(count)] if space.dim else []


def _extended(base, maps, shift):
    ext, _ = split_null_extension(base, shift)
    cases = []
    for dmap in maps:
        cases.append((ext, extend_derivation_eps(ext, dmap)))
        cases.append((ext, extend_derivation_diagonal(ext, dmap)))
    return cases


SPIN_FORMS = [
    (F3, [1, 1]), (F3, [1, 2]), (F3, [0, 1]), (F3, [0, 0]), (F3, [0, 1, 1]), (F3, [1, 1, 1]),
    (F5, [1, 2]), (F5, [0, 3]), (F5, [0, 1, 2]),
    (RATIONALS, [1, 1]), (RATIONALS, [1, -1]), (RATIONALS, [0, 2]), (RATIONALS, [1, -1, 2]),
]


def _spin_cases(seed):
    cases = []
    for field, diag in SPIN_FORMS:
        table = diagonal_spin_factor(field, diag)
        maps = _sampled(table, seed, 3)
        cases += [(table, dmap) for dmap in maps]
        if len(diag) == 2:
            cases += _extended(table, maps[:2], seed % 2)
    return cases


def _m2_cases(seed):
    m2 = matrix_algebra(_scalar(F3), 2)
    rng = random.Random(seed)
    maps = [inner_assoc_derivation(m2, m2.element([rng.randrange(3) for _ in range(4)])) for _ in range(6)]
    maps = [dmap for dmap in maps if not dmap.is_zero()]
    return [(m2, dmap) for dmap in maps] + _extended(m2, maps[:2], 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cases", [_spin_cases, _m2_cases], ids=["spin", "m2"])
def test_largest_ideal_in_kernel_matches_refinement(cases, seed):
    nonzero = 0
    for table, dmap in cases(seed):
        ideal = largest_ideal_in_kernel(table, dmap)
        assert ideal == _largest_ideal_by_refinement(table, dmap)
        nonzero += ideal.dim > 0
    # the extensions by D(a + b eps) = d(a) eps keep the radical in the kernel
    assert nonzero


def test_largest_ideal_in_kernel_of_t2_is_zero():
    t2 = _t2(F3)
    e11, e12, e22 = ([1, 0, 0], [0, 1, 0], [0, 0, 1])
    dmap = inner_assoc_derivation(t2, t2.element(e22))
    kernel = dmap.kernel()
    assert kernel == Subspace(F3, 3, [e11, e22])
    # span(e22) absorbs products on one side only
    line = Subspace(F3, 3, [e22])
    assert all(line.contains_vector(t2.mul_coords(e22, b)) for b in (e11, e12, e22))
    assert not line.contains_vector(t2.mul_coords(e12, e22))
    assert not is_ideal(t2, line)
    assert largest_ideal_in_kernel(t2, dmap).dim == 0
    assert _largest_ideal_by_refinement(t2, dmap).dim == 0


def _lattice_tables():
    null2 = AlgebraTable(F3, 2, {})
    return [
        diagonal_spin_factor(F3, [1, 1]),
        diagonal_spin_factor(F3, [0, 0]),
        diagonal_spin_factor(F3, [0, 1]),
        diagonal_spin_factor(F5, [0, 0]),
        diagonal_spin_factor(F5, [0, 0, 1]),
        split_null_extension(diagonal_spin_factor(F3, [1, 1]))[0],
        split_null_extension(diagonal_spin_factor(F3, [0, 1]))[0],
        matrix_algebra(_scalar(F3), 2),
        _t2(F3),
        null2,
        direct_sum(_scalar(F3), direct_sum(_scalar(F3), _scalar(F3))),
    ]


@pytest.mark.parametrize("index", range(len(_lattice_tables())))
def test_enumerate_ideals_matches_pairwise_rounds(index):
    table = _lattice_tables()[index]
    assert enumerate_ideals(table) == _ideals_by_pairwise_rounds(table)


def test_enumerate_ideals_finds_ideals_that_are_no_closure_of_a_point():
    # F + V with a zero form on a 2-dim V: span(V) is an ideal, but the
    # closure of a point of V is only its line
    table = diagonal_spin_factor(F3, [0, 0])
    ideals = enumerate_ideals(table)
    assert [s.dim for s in ideals] == [0, 1, 1, 1, 1, 2, 3]
    assert Subspace(F3, 3, [[0, 1, 0], [0, 0, 1]]) in ideals
    assert enumerate_ideals(AlgebraTable(F3, 2, {}))[-1].dim == 2


# ---------------------------------------------------------------------------
# batched principal closures


def _closure_tables():
    """Spin factors, degenerate forms included, and the split-null
    extensions of those with dim V at most `extend` (GF(7) stops at
    4-dim extensions, which have 400 points, not 19,608)."""
    tables = []
    for field, extend, diags in ((F3, 2, ([1, 1], [1, 2], [0, 1], [0, 0], [1, 1, 1], [0, 1, 2])),
                                 (F5, 2, ([1, 2], [0, 3], [0, 0], [1, 2, 3])),
                                 (F7, 1, ([1, 3], [0, 0], [0, 5], [3], [0]))):
        for diag in diags:
            spin = diagonal_spin_factor(field, diag)
            tables.append(spin)
            if len(diag) <= extend:
                tables.append(split_null_extension(spin, 1)[0])
    return tables + [_t2(F3), matrix_algebra(_scalar(F3), 2), AlgebraTable(F3, 2, {})]


def _closures_point_by_point(table, points):
    f, n = table.field, table.dim
    return [ideal_closure(table, Subspace(f, n, [point])) for point in points]


@pytest.fixture(params=["one_point", "default"])
def chunking(request, monkeypatch):
    if request.param == "one_point":
        monkeypatch.setattr(algebra, "_CLOSURE_CELLS", 1)


@pytest.mark.parametrize("index", range(len(_closure_tables())))
def test_principal_closures_match_ideal_closure(index, chunking):
    table = _closure_tables()[index]
    f, n = table.field, table.dim
    points = list(_projective_points(f, Subspace.full(f, n)))
    assert list(principal_closures(table, points)) == _closures_point_by_point(table, points)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_principal_closures_at_large_primes(p, chunking):
    # too many points to enumerate: seeded ones, on int64 and on object arrays
    field, rng = prime_field(p), random.Random(p)
    for table in (diagonal_spin_factor(field, [1, p - 1]), split_null_extension(diagonal_spin_factor(field, [0, 3]))[0],
                  matrix_algebra(AlgebraTable(field, 1, {(0, 0, 0): 1}, unit=[1]), 2)):
        points = [[rng.randrange(p) for _ in range(table.dim)] for _ in range(12)]
        points += [[0] * table.dim, [1] + [0] * (table.dim - 1)]
        assert list(principal_closures(table, points)) == _closures_point_by_point(table, points)


@st.composite
def gf3_tables(draw):
    """Sparse GF(3) tables of dim 2-4, commutative or not."""
    n = draw(st.integers(2, 4))
    cells = st.tuples(*[st.integers(0, n - 1)] * 3)
    entries = draw(st.dictionaries(cells, st.integers(1, 2), max_size=2 * n))
    if draw(st.booleans()):
        entries.update({(j, i, k): v for (i, j, k), v in entries.items()})
    return AlgebraTable(F3, n, entries)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(gf3_tables(), st.booleans())
def test_principal_closures_match_ideal_closure_on_drawn_tables(table, one_point):
    f, n = table.field, table.dim
    points = list(_projective_points(f, Subspace.full(f, n)))
    saved = algebra._CLOSURE_CELLS
    algebra._CLOSURE_CELLS = 1 if one_point else saved
    try:
        assert list(principal_closures(table, points)) == _closures_point_by_point(table, points)
    finally:
        algebra._CLOSURE_CELLS = saved


def test_enumeration_and_finite_scans_take_the_batched_closures(monkeypatch):
    calls = []
    monkeypatch.setattr(derivations, "ideal_closure", lambda *args: calls.append(args))
    ext = split_null_extension(diagonal_spin_factor(F3, [1, 1]))[0]
    assert [s.dim for s in enumerate_ideals(ext)] == [0, 3, 6]
    assert simplicity_scan(diagonal_spin_factor(F3, [1, 1])) == "simple"
    assert simplicity_scan(ext) == "not_simple"
    assert calls == []


def test_rational_scan_takes_one_ideal_closure_per_point(monkeypatch):
    calls = []
    real = derivations.ideal_closure
    monkeypatch.setattr(derivations, "ideal_closure", lambda *args: calls.append(args) or real(*args))
    assert simplicity_scan(diagonal_spin_factor(RATIONALS, [1, 1])) == "probably_simple"
    assert len(calls) == 3 + 20


@pytest.mark.parametrize("field", [F3, RATIONALS])
def test_not_simple_is_certified(field, monkeypatch):
    table = diagonal_spin_factor(field, [1, 1])
    line = Subspace(field, 3, [[0, 1, 0]])
    assert not is_ideal(table, line)
    monkeypatch.setattr(derivations, "ideal_closure", lambda table, space: line)
    monkeypatch.setattr(derivations, "principal_closures", lambda table, points: iter([line]))
    with pytest.raises(CertificationError, match="proper principal closure"):
        simplicity_scan(table)
    zero = Subspace.zero(field, 3)
    monkeypatch.setattr(derivations, "ideal_closure", lambda table, space: zero)
    monkeypatch.setattr(derivations, "principal_closures", lambda table, points: iter([zero]))
    with pytest.raises(CertificationError, match="proper principal closure"):
        simplicity_scan(table)


def test_enumerate_ideals_streams_its_points():
    table = split_null_extension(diagonal_spin_factor(F3, [1, 1, 1]))[0]
    assert (3**table.dim - 1) // 2 == 3280
    table.structure_int_tensor()
    assert _product_sides(table) == ("left",)
    tracemalloc.start()
    try:
        ideals = enumerate_ideals(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.dim for s in ideals] == [0, 4, 8]
    assert peak < 1 << 20


def test_kernel_ideal_outside_the_kernel_is_refused(monkeypatch):
    # a dual spin that lost D's rows leaves the whole algebra, an ideal
    # that a nonzero D does not kill
    t2 = _t2(F3)
    dmap = inner_assoc_derivation(t2, t2.element([0, 0, 1]))
    monkeypatch.setattr(derivations, "spin_closure", lambda space, images: Subspace.zero(F3, 3))
    with pytest.raises(CertificationError, match="must lie in the kernel"):
        largest_ideal_in_kernel(t2, dmap)
