import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from jordanalg import algebra, linalg
from jordanalg.algebra import (
    AlgebraTable,
    Element,
    LinearMap,
    associator,
    check_identity,
    direct_sum,
    find_unit,
    ideal_closure,
    ideal_cube,
    invert_element,
    is_division_algebra,
    is_ideal,
    quotient_algebra,
    split_null_extension,
)
from jordanalg.constructions import albert_type, cayley_dickson, diagonal_spin_factor, matrix_algebra, plus_algebra
from jordanalg.errors import (
    AlgebraMismatch,
    BadParameters,
    CapExceeded,
    NotAnIdeal,
    NotUnital,
)
from jordanalg.fields import RATIONALS, is_prime, prime_field
from jordanalg.linalg import Matrix, Subspace, _product_dtype


def m2_table(field):
    """Full 2x2 matrix algebra on the basis e11, e12, e21, e22."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    entries = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                entries[(i, j, idx[(a, d)])] = 1
    return AlgebraTable(
        field, 4, entries, labels=("e11", "e12", "e21", "e22"), unit=[1, 0, 0, 1]
    )


def quadratic_extension_table():
    """GF(3)[t] / (t^2 - 2) on the basis (1, t)."""
    f = prime_field(3)
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 2}
    return AlgebraTable(f, 2, entries, labels=("one", "t"), unit=[1, 0])


def small_spin_table(field, diag):
    """F + V with v u = f(v, u) 1 for the diagonal form on V."""
    n = len(diag) + 1
    entries = {}
    for j in range(n):
        entries[(0, j, j)] = 1
        entries[(j, 0, j)] = 1
    for i, d in enumerate(diag, start=1):
        entries[(i, i, 0)] = d
    return AlgebraTable(field, n, entries, unit=[1] + [0] * (n - 1))


def test_table_construction_and_lookup():
    t = quadratic_extension_table()
    assert t.sc_entry(1, 1, 0) == 2
    assert t.sc_entry(1, 1, 1) == 0
    assert t.nonzero_count() == 4
    assert list(t.sc_items())[0] == (0, 0, 0, 1)
    assert t.label_of(1) == "t"


@pytest.mark.parametrize("field", [prime_field(5), RATIONALS], ids=str)
def test_rows_given_in_reversed_k_order_equal_the_sorted_table(field):
    """Rows of several constants are stored sorted by k, whatever the
    order of the entries; rows of one constant are stored as given."""
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 2, (1, 1, 1): 3, (1, 1, 2): 4, (2, 2, 2): 1}
    ordered = AlgebraTable(field, 3, entries)
    backward = AlgebraTable(field, 3, dict(reversed(entries.items())))
    assert backward == ordered
    assert backward._rows[(1, 1)] == ((0, 2), (1, 3), (2, 4))
    assert backward._rows[(0, 1)] == ((1, 1),)
    items = list(backward.sc_items())
    assert items == sorted(items) == list(ordered.sc_items())
    assert [item[:3] for item in items] == sorted(entries)


def test_table_rejects_bad_input():
    f = prime_field(5)
    with pytest.raises(BadParameters):
        AlgebraTable(f, 0, {})
    with pytest.raises(BadParameters):
        AlgebraTable(f, 2, {(0, 0, 5): 1})
    with pytest.raises(BadParameters):
        AlgebraTable(f, 2, {}, labels=("x",))
    with pytest.raises(BadParameters):
        AlgebraTable(f, 2, {}, labels=("x", "x"))
    with pytest.raises(NotUnital):
        AlgebraTable(f, 2, {(0, 0, 0): 1}, unit=[1, 1])


def test_multiplication_matches_table():
    t = m2_table(prime_field(3))
    e12 = t.basis_element(1)
    e21 = t.basis_element(2)
    assert (e12 * e21).coords == (1, 0, 0, 0)
    assert (e21 * e12).coords == (0, 0, 0, 1)
    assert (e12 * e12).is_zero()
    x = t.element([1, 2, 0, 1])
    assert (t.one() * x) == x and (x * t.one()) == x


def test_spin_product_formula():
    t = small_spin_table(prime_field(3), [1, 1])
    v = t.element([0, 1, 2])
    prod = v * v
    assert prod.coords == (2, 0, 0)
    assert prod == t.one().scale(2)


def test_element_vector_operations():
    t = quadratic_extension_table()
    x = t.element([1, 2])
    y = t.element([2, 1])
    assert (x + y).coords == (0, 0)
    assert (x - y).coords == (2, 1)
    assert (-x).coords == (2, 1)
    assert x.scale(2).coords == (2, 1)
    assert (2 * x) == x.scale(2)
    assert x.square() == x * x
    other = m2_table(prime_field(3)).element([1, 0, 0, 0])
    with pytest.raises(AlgebraMismatch):
        x + other


def test_find_unit():
    u = find_unit(m2_table_without_declared_unit(prime_field(5)))
    assert u is not None and u.coords == (1, 0, 0, 1)
    zero_mult = AlgebraTable(prime_field(5), 2, {})
    assert find_unit(zero_mult) is None
    spin = small_spin_table(prime_field(5), [1, 1, 1])
    w = find_unit(spin)
    assert w is not None and w.coords == (1, 0, 0, 0)


def m2_table_without_declared_unit(field):
    base = m2_table(field)
    return AlgebraTable(field, 4, {(i, j, k): v for i, j, k, v in base.sc_items()})


def _unit_from_structure_loops(table):
    """`_solve_for_unit` with its equations gathered from the structure
    rows: (j, k) of u b_j = b_j, then (i, k) of b_i u = b_i, each distinct
    (row, rhs) kept once."""
    f, n = table.field, table.dim
    zero = f.zero()
    left, right = {}, {}
    for (i, j), pairs in table._rows.items():
        for k, v in pairs:
            left.setdefault((j, k), [zero] * n)[i] = v
            right.setdefault((i, k), [zero] * n)[j] = v
    rows, seen = [], set()
    for eqs in (left, right):
        for j, k in itertools.product(range(n), repeat=2):
            row = eqs.get((j, k), [zero] * n)
            rhs = f.one() if j == k else zero
            if tuple(row) + (rhs,) not in seen:
                seen.add(tuple(row) + (rhs,))
                rows.append((list(row), rhs))
    sol = linalg.solve_raw(f, [r for r, _ in rows], [b for _, b in rows])
    return None if sol is None else tuple(sol)


def _unit_stripped(table):
    return AlgebraTable._wrap(table.field, table.dim, {(i, j, k): v for i, j, k, v in table.sc_items()})


def test_unit_finding_matches_the_structure_loops():
    f3, f5 = prime_field(3), prime_field(5)
    rng = random.Random("unit-finding")
    tables = [
        albert_type(f5, [-1, -1, -1], [1, 1, 1]),
        albert_type(RATIONALS, [-1, -1, -1], [1, 2, 1]),
        cayley_dickson(RATIONALS, [-1, -1, -1])[0],
        matrix_algebra(cayley_dickson(f3, [2])[0], 2),
        diagonal_spin_factor(f5, [1, 2, 0]),
        m2_table(RATIONALS),
        # e_0 is a left unit only, then a right unit only
        AlgebraTable(f5, 2, {(0, 0, 0): 1, (0, 1, 1): 1}),
        AlgebraTable(f5, 2, {(0, 0, 0): 1, (1, 0, 1): 1}),
    ]
    for trial in range(30):
        n = 2 + trial % 4
        if trial % 2:
            tables.append(_random_unital_table((f3, f5)[trial % 4 // 2], n, rng))
        else:
            cells = [key for key in itertools.product(range(n), repeat=3) if rng.random() < 0.3]
            tables.append(AlgebraTable((f3, f5, RATIONALS)[trial % 3], n, {key: rng.randrange(1, 4) for key in cells}))
    found = [0, 0]
    for table in tables:
        stripped = _unit_stripped(table)
        unit = algebra._solve_for_unit(stripped)
        assert unit == _unit_from_structure_loops(stripped)
        if table.unit is not None:
            assert unit == table.unit
        found[unit is None] += 1
    assert min(found) >= 5


def test_identity_checks_on_matrix_algebra():
    t = m2_table(prime_field(3))
    assert check_identity(t, "associative")
    assert not check_identity(t, "commutative")
    assert not check_identity(t, "jordan")
    with pytest.raises(BadParameters):
        check_identity(t, "alternative")


def test_identity_checks_on_spin_table():
    for field in (prime_field(5), RATIONALS):
        t = small_spin_table(field, [1, 1])
        assert check_identity(t, "commutative")
        assert not check_identity(t, "associative")
        assert check_identity(t, "jordan")


def test_jordan_check_rejects_broken_table():
    f = prime_field(5)
    entries = {(0, 0, 1): 1, (1, 1, 0): 1, (0, 1, 0): 1, (1, 0, 0): 1}
    t = AlgebraTable(f, 2, entries)
    assert check_identity(t, "commutative")
    assert not check_identity(t, "jordan")


def test_jordan_identity_pointwise_on_random_elements():
    rng = random.Random(411)
    t = small_spin_table(prime_field(5), [1, 2, 1])
    assert check_identity(t, "jordan")
    for _ in range(200):
        x = t.element([rng.randrange(5) for _ in range(t.dim)])
        y = t.element([rng.randrange(5) for _ in range(t.dim)])
        assert associator(x.square(), y, x).is_zero()


def test_jordan_identity_exhaustive_small_gf3():
    t = small_spin_table(prime_field(3), [1, 1])
    assert check_identity(t, "jordan")
    rng = range(3)
    for a in rng:
        for b in rng:
            for c in rng:
                x = t.element([a, b, c])
                for a2 in rng:
                    for b2 in rng:
                        for c2 in rng:
                            y = t.element([a2, b2, c2])
                            assert associator(x.square(), y, x).is_zero()


# ---------------------------------------------------------------------------
# the identity checks on each number path of `linalg._exact_matmul`, with
# negative controls


def _checked_paths(monkeypatch, table, which):
    """The verdict of one identity check and the set of number paths its
    products took."""
    paths = set()
    real = linalg._product_dtype

    def spy(*args):
        paths.add(real(*args))
        return real(*args)

    monkeypatch.setattr(linalg, "_product_dtype", spy)
    verdict = check_identity(table, which)
    monkeypatch.setattr(linalg, "_product_dtype", real)
    return verdict, paths


def _perturbed(table, i, j, k):
    """The table with c[i][j][k] and c[j][i][k] raised by one: still
    commutative, so the check gets past its commutativity test."""
    f = table.field
    entries = {(a, b, c): v for a, b, c, v in table.sc_items()}
    for key in {(i, j, k), (j, i, k)}:
        entries[key] = f.add(entries.get(key, f.zero()), f.one())
    return AlgebraTable(f, table.dim, entries)


def _plus_matrices(field, n):
    scalars = AlgebraTable(field, 1, {(0, 0, 0): 1}, unit=[1])
    return plus_algebra(matrix_algebra(scalars, n))


def _float_path_top(n):
    """The least b with n * b^2 >= 2^53: products of inner dimension n
    with entries up to b leave the float64 path there."""
    return math.isqrt(((1 << 53) - 1) // n) + 1


def _largest_prime_on_float_path(n):
    p = _float_path_top(n)
    while not is_prime(p):
        p -= 1
    return p


def _smallest_prime_off_float_path(n):
    p = _float_path_top(n) + 1
    while not is_prime(p):
        p += 1
    return p


def _jordan_reference(table):
    """The operator identity [L_ab, L_c] + [L_bc, L_a] + [L_ca, L_b] = 0
    applied to every basis vector d, one product at a time."""
    f = table.field
    n = table.dim
    basis = [[f.one() if i == j else f.zero() for i in range(n)] for j in range(n)]

    def mul(x, y):
        return table.mul_coords(x, y)

    def sub(x, y):
        return [f.sub(a, b) for a, b in zip(x, y)]

    def add(x, y):
        return [f.add(a, b) for a, b in zip(x, y)]

    for a, b, c, d in itertools.product(range(n), repeat=4):
        x, y, z, w = basis[a], basis[b], basis[c], basis[d]
        total = [f.zero()] * n
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            pq = mul(p, q)
            total = add(total, sub(mul(pq, mul(r, w)), mul(r, mul(pq, w))))
        if any(total):
            return False
    return True


def _random_commutative_table(rng, field, n, values):
    entries = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if rng.random() < 0.3:
                    entries[(i, j, k)] = entries[(j, i, k)] = rng.choice(values)
    return AlgebraTable(field, n, entries)


@pytest.mark.parametrize(
    "field, values",
    [
        (prime_field(3), [1, 2]),
        (prime_field(7), [1, 3, 6]),
        (prime_field(2**31 - 1), [1, 2**30, 2**31 - 2]),
        (RATIONALS, [1, -2, Fraction(1, 3)]),
    ],
    ids=["GF3", "GF7", "GF(2^31-1)", "Q"],
)
def test_jordan_check_matches_reference(field, values):
    rng = random.Random(f"jordan-reference-{field}")
    tables = [
        small_spin_table(field, [1, 2]),
        _plus_matrices(field, 2),
        _perturbed(small_spin_table(field, [1, 1]), 1, 2, 1),
        _perturbed(_plus_matrices(field, 2), 0, 1, 3),
    ]
    tables += [_random_commutative_table(rng, field, rng.choice([2, 3]), values) for _ in range(8)]
    verdicts = [check_identity(t, "jordan") for t in tables]
    assert verdicts == [_jordan_reference(t) for t in tables]
    assert verdicts[:4] == [True, True, False, False]


def test_jordan_float_path_bound_is_strict():
    top = _float_path_top(27)
    assert 27 * (top - 1) ** 2 < 1 << 53 <= 27 * top ** 2
    assert _product_dtype(27, top - 1, top - 1) is np.float64
    assert _product_dtype(27, top, top) is np.int64
    # GF(65537) at inner dimension 2^21 lands exactly on 2^53
    assert 2**21 * 65536**2 == 1 << 53
    assert _product_dtype(2**21 - 1, 65536, 65536) is np.float64
    assert _product_dtype(2**21, 65536, 65536) is np.int64
    assert _product_dtype(27, 0, 0) is np.float64


PATH_FIELDS = {
    "GF7-float64": (lambda n: prime_field(7), np.float64),
    "GF-bound-float64": (lambda n: prime_field(_largest_prime_on_float_path(n)), np.float64),
    "GF-past-bound-int64": (lambda n: prime_field(_smallest_prime_off_float_path(n)), np.int64),
    "Q-float64": (lambda n: RATIONALS, np.float64),
    "GF(2^31-1)-object": (lambda n: prime_field(2**31 - 1), object),
}


@pytest.mark.parametrize("case", list(PATH_FIELDS))
def test_jordan_check_paths_on_plus_m3(monkeypatch, case):
    field_of, path = PATH_FIELDS[case]
    t = _plus_matrices(field_of(9), 3)
    assert t.dim == 9
    assert _checked_paths(monkeypatch, t, "jordan") == (True, {path})
    bad = _perturbed(t, 1, 3, 0)
    assert check_identity(bad, "commutative")
    assert _checked_paths(monkeypatch, bad, "jordan") == (False, {path})


@pytest.mark.parametrize("case", list(PATH_FIELDS))
def test_associative_check_paths_on_m2(monkeypatch, case):
    field_of, path = PATH_FIELDS[case]
    t = m2_table(field_of(4))
    assert _checked_paths(monkeypatch, t, "associative") == (True, {path})
    bad = _perturbed(t, 0, 1, 1)
    assert _checked_paths(monkeypatch, bad, "associative") == (False, {path})


@pytest.mark.parametrize(
    "field, path", [(prime_field(7), np.float64), (RATIONALS, np.float64)], ids=["GF7", "Q"]
)
def test_jordan_check_rejects_perturbed_albert(monkeypatch, field, path):
    t = albert_type(field, [1, 2, 3], [1, 2, 3])
    bad = _perturbed(t, 1, 2, 0)
    assert check_identity(bad, "commutative")
    assert _checked_paths(monkeypatch, bad, "jordan") == (False, {path})


def _dense_basis(table, rng, big):
    """The table on a random basis b'_i = sum_r P[i][r] b_r, P with
    residues over GF(p) and entries in [-big, big] over Q, so that every
    structure constant is dense."""
    f, n = table.field, table.dim
    while True:
        rows = [[f.coerce(rng.randrange(f.p) if f.p else rng.randint(-big, big)) for _ in range(n)] for _ in range(n)]
        if Matrix(f, rows).rank() == n:
            break
    cols = [list(col) for col in zip(*rows)]
    entries = {}
    for i, j in itertools.product(range(n), repeat=2):
        coords = linalg.solve_raw(f, cols, table.mul_coords(rows[i], rows[j]))
        entries.update({(i, j, k): v for k, v in enumerate(coords) if v})
    return AlgebraTable(f, n, entries)


DENSE_FIELDS = {
    "GF-bound-float64": (lambda: prime_field(_largest_prime_on_float_path(9)), {np.float64}),
    "GF-past-bound-int64": (lambda: prime_field(_smallest_prime_off_float_path(9)), {np.int64}),
    "Q-past-float64": (lambda: RATIONALS, {object}),
}


@pytest.mark.parametrize("case", list(DENSE_FIELDS))
def test_jordan_check_on_dense_bases(monkeypatch, case):
    # dense constants take the products of the check toward their path's
    # bound; the float64 bound prime of inner dimension 9 reduces each one
    field_of, paths = DENSE_FIELDS[case]
    f = field_of()
    rng = random.Random(f"dense-jordan-{case}")
    for _ in range(3):
        t = _dense_basis(_plus_matrices(f, 3), rng, 1000)
        assert _checked_paths(monkeypatch, t, "jordan") == (True, paths)
        assert not check_identity(_perturbed(t, 1, 2, 0), "jordan")
    for table in (small_spin_table(f, [1, 2, 3]), _plus_matrices(f, 2)):
        t = _dense_basis(table, rng, 1000)
        bad = _perturbed(t, 0, 1, 2)
        verdicts = [check_identity(t, "jordan"), check_identity(bad, "jordan")]
        assert verdicts == [_jordan_reference(t), _jordan_reference(bad)] == [True, False]


def test_jordan_products_are_reduced_before_the_sum_at_the_float64_bound(monkeypatch):
    # at the float64 bound prime of a table's own dimension three
    # unreduced products can pass 2^53 (some dense 3-dim spin factors
    # do), so each product is reduced first and every sum that reaches
    # the zero test is below 3p
    sums = []
    real = algebra._is_zero_mod
    monkeypatch.setattr(algebra, "_is_zero_mod", lambda a, p: sums.append(np.abs(a).max()) or real(a, p))
    rng = random.Random("jordan-float64-bound-sums")
    for n, build in ((3, lambda f: small_spin_table(f, [1, 2])), (4, lambda f: _plus_matrices(f, 2))):
        f = prime_field(_largest_prime_on_float_path(n))
        for _ in range(10):
            t = _dense_basis(build(f), rng, 0)
            bad = _perturbed(t, 0, 1, 2)
            verdicts = [check_identity(t, "jordan"), check_identity(bad, "jordan")]
            assert verdicts == [_jordan_reference(t), _jordan_reference(bad)] == [True, False]
        assert 0 < max(sums) < 3 * f.p
        sums.clear()


def test_jordan_sum_path_reduces_only_at_the_float64_bound():
    top, past = _largest_prime_on_float_path(9), _smallest_prime_off_float_path(9)
    assert linalg._sum_path(9, 6, 6, 7, 3) == (np.float64, False)
    assert linalg._sum_path(9, top - 1, top - 1, top, 3) == (np.float64, True)
    assert linalg._sum_path(9, past - 1, past - 1, past, 3) == (np.int64, False)
    assert linalg._sum_path(9, 2**31 - 2, 2**31 - 2, 2**31 - 1, 3) == (object, False)
    assert linalg._sum_path(9, top - 1, top - 1, None, 3) == (np.int64, False)


def test_zero_test_mod_p_is_exact_near_2_53():
    for p in (2, 3, 5, 7, _largest_prime_on_float_path(9)):
        top = ((1 << 53) - 2) // p
        multiples = np.array([0.0, p, -p, p * top, -p * top, p * (top - 1)])
        assert linalg._is_zero_mod(multiples, p)
        for off in (1, -1):
            assert not linalg._is_zero_mod(multiples + off, p)
    assert linalg._is_zero_mod(np.zeros(3), None) and not linalg._is_zero_mod(np.ones(3), None)


def test_jordan_check_memory_peak_on_albert():
    t = albert_type(prime_field(7), [1, 2, 3], [1, 2, 3])
    t.structure_int_tensor()
    tracemalloc.start()
    try:
        assert algebra._check_jordan(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_jordan_cap_bounds_the_check_size(monkeypatch):
    # the 27-dim Albert check stays far below the cap
    assert 7 * 27**4 * 8 < algebra.JORDAN_BYTE_CAP // 30
    # a commutative 3-dim table: seven arrays of 3^4 entries of 8 bytes
    size = 7 * 3**4 * 8
    monkeypatch.setattr(algebra, "JORDAN_BYTE_CAP", size - 1)
    with pytest.raises(CapExceeded, match=f"needs {size} bytes"):
        check_identity(small_spin_table(prime_field(5), [1, 2]), "jordan")
    # a table that is not commutative is answered without the arrays
    assert not check_identity(m2_table(prime_field(5)), "jordan")
    monkeypatch.setattr(algebra, "JORDAN_BYTE_CAP", size)
    assert check_identity(small_spin_table(prime_field(5), [1, 2]), "jordan")


def test_work_area_cap_refuses_the_tensor_and_the_associativity_check(monkeypatch):
    t = m2_table(prime_field(5))
    # four arrays of 4^3 entries of 8 bytes; the tensor takes one
    size, tensor = 4 * 4**3 * 8, 4**3 * 8
    monkeypatch.setattr(algebra, "JORDAN_BYTE_CAP", size - 1)
    with pytest.raises(CapExceeded, match=f"associativity check of a 4-dim table needs {size} bytes"):
        check_identity(t, "associative")
    assert "int_tensor" not in t._cache
    monkeypatch.setattr(algebra, "JORDAN_BYTE_CAP", tensor - 1)
    with pytest.raises(CapExceeded, match=f"structure tensor of a 4-dim table needs {tensor} bytes"):
        t.structure_int_tensor()
    monkeypatch.setattr(algebra, "JORDAN_BYTE_CAP", size)
    assert check_identity(t, "associative")


def test_identity_checks_past_int64():
    t = diagonal_spin_factor(prime_field(2**64 + 13), [1, -1, 2])
    verdicts = [check_identity(t, which) for which in ("commutative", "associative", "jordan")]
    assert verdicts == [True, False, True]


def test_associator():
    t = m2_table(prime_field(5))
    rng = random.Random(412)
    for _ in range(20):
        x, y, z = (t.element([rng.randrange(5) for _ in range(4)]) for _ in range(3))
        assert associator(x, y, z).is_zero()
    spin = small_spin_table(prime_field(5), [1, 1])
    x = spin.basis_element(1)
    y = spin.basis_element(2)
    assert not associator(x, x, y).is_zero()


def test_multiplication_is_bilinear():
    rng = random.Random(413)
    tables = [
        m2_table(prime_field(7)),
        small_spin_table(RATIONALS, [1, -1]),
        quadratic_extension_table(),
    ]
    for t in tables:
        p = t.field.p or 13
        for _ in range(25):
            x = t.element([rng.randrange(p) for _ in range(t.dim)])
            y = t.element([rng.randrange(p) for _ in range(t.dim)])
            z = t.element([rng.randrange(p) for _ in range(t.dim)])
            alpha = rng.randrange(p)
            lhs = (x.scale(alpha) + y) * z
            rhs = (x * z).scale(alpha) + y * z
            assert lhs == rhs
            lhs = z * (x.scale(alpha) + y)
            rhs = (z * x).scale(alpha) + z * y
            assert lhs == rhs


def test_is_ideal_and_closure():
    t = m2_table(prime_field(3))
    full = Subspace.full(t.field, 4)
    assert is_ideal(t, full)
    line = Subspace(t.field, 4, [[0, 1, 0, 0]])
    assert not is_ideal(t, line)
    assert ideal_closure(t, line) == full
    unit_line = Subspace(t.field, 4, [[1, 0, 0, 1]])
    assert ideal_closure(t, unit_line) == full
    assert ideal_closure(t, full) == full
    zero = Subspace.zero(t.field, 4)
    assert ideal_closure(t, zero) == zero and is_ideal(t, zero)


def test_ideal_closure_is_idempotent_and_monotone():
    rng = random.Random(414)
    t = direct_sum(quadratic_extension_table(), quadratic_extension_table())
    for _ in range(10):
        s = Subspace(t.field, t.dim, [[rng.randrange(3) for _ in range(t.dim)]])
        closed = ideal_closure(t, s)
        assert is_ideal(t, closed)
        assert ideal_closure(t, closed) == closed
        assert closed.contains_subspace(s)


def test_ideal_cube():
    t = quadratic_extension_table()
    zero = Subspace.zero(t.field, 2)
    assert ideal_cube(t, zero) == zero
    full = Subspace.full(t.field, 2)
    assert ideal_cube(t, full) == full
    with pytest.raises(NotAnIdeal):
        ideal_cube(m2_table(prime_field(3)), Subspace(prime_field(3), 4, [[0, 1, 0, 0]]))


def test_split_null_extension_structure():
    base = small_spin_table(prime_field(3), [1, 1])
    ext, radical = split_null_extension(base, shift=1)
    assert ext.dim == 6
    assert radical.dim == 3
    assert is_ideal(ext, radical)
    assert ideal_cube(ext, radical).dim == 0
    assert check_identity(ext, "jordan")
    assert ext.meta.base_dim == 3 and ext.meta.shift == 1
    a = ext.element([1, 2, 0, 0, 0, 0])
    beps = ext.element([0, 0, 0, 1, 1, 0])
    prod = a * beps
    assert prod.coords[:3] == (0, 0, 0)
    u = ext.one()
    assert u.coords == (1, 0, 0, 0, 0, 0)


def test_quotient_by_radical_reproduces_base():
    base = small_spin_table(prime_field(3), [1, 2])
    ext, radical = split_null_extension(base)
    quotient, projection = quotient_algebra(ext, radical)
    assert quotient == base
    rng = random.Random(415)
    for _ in range(30):
        x = ext.element([rng.randrange(3) for _ in range(6)])
        y = ext.element([rng.randrange(3) for _ in range(6)])
        left = projection.apply((x * y).coords)
        right = quotient.mul_coords(projection.apply(x.coords), projection.apply(y.coords))
        assert list(left) == list(right)


def test_quotient_errors_and_trivial_cases():
    t = quadratic_extension_table()
    with pytest.raises(NotAnIdeal):
        quotient_algebra(t, Subspace(t.field, 2, [[0, 1]]))
    with pytest.raises(NotAnIdeal):
        quotient_algebra(t, Subspace.full(t.field, 2))
    q, proj = quotient_algebra(t, Subspace.zero(t.field, 2))
    assert q == t
    assert proj.apply([1, 2]) == (1, 2)


def test_direct_sum():
    a = quadratic_extension_table()
    b = quadratic_extension_table()
    s = direct_sum(a, b)
    assert s.dim == 4
    assert s.unit == (1, 0, 1, 0)
    assert check_identity(s, "commutative") and check_identity(s, "associative")
    x = s.element([0, 1, 0, 0])
    y = s.element([0, 0, 0, 1])
    assert (x * y).is_zero()
    assert is_division_algebra(s) == "no"


def test_is_division_algebra_verdicts():
    one_dim = AlgebraTable(prime_field(5), 1, {(0, 0, 0): 1}, unit=[1])
    assert is_division_algebra(one_dim) == "yes"
    assert is_division_algebra(quadratic_extension_table()) == "yes"
    assert is_division_algebra(m2_table(prime_field(3))) == "no"
    spin = small_spin_table(prime_field(5), [1, 1])
    assert is_division_algebra(spin) == "no"
    assert is_division_algebra(m2_table(prime_field(7)), cap=100) == "unknown"
    assert is_division_algebra(small_spin_table(RATIONALS, [1, 1])) == "unknown"
    with pytest.raises(NotUnital):
        is_division_algebra(AlgebraTable(prime_field(5), 2, {}))


def _division_by_all_tuples(table):
    """The scan that inverts every nonzero tuple, not one point per line."""
    kind = algebra._inversion_kind(table)
    for tup in itertools.product(range(table.field.p), repeat=table.dim):
        if any(tup) and algebra._invert_coords(table, tup, kind) is None:
            return "no"
    return "yes"


def _random_unital_table(field, n, rng):
    """e_0 is the unit; the other products are drawn, often zero."""
    entries = {(0, j, j): 1 for j in range(n)} | {(j, 0, j): 1 for j in range(n)}
    for i, j, k in itertools.product(range(1, n), range(1, n), range(n)):
        if rng.random() < 0.4:
            entries[i, j, k] = rng.randrange(1, field.p)
    return AlgebraTable(field, n, entries, unit=[1] + [0] * (n - 1))


def test_division_scan_inverts_one_point_per_line(monkeypatch):
    """On tables whose every nonzero element is invertible the scan makes
    (p^n - 1)/(p - 1) inversions, one per line; on the three inversion
    kinds its verdicts equal those of the scan over every tuple."""
    f3, f5, f7 = prime_field(3), prime_field(5), prime_field(7)
    fields = [
        AlgebraTable(f5, 1, {(0, 0, 0): 1}, unit=[1]),
        quadratic_extension_table(),
        small_spin_table(f7, [3]),
        # GF(3)[t] / (t^3 - t - 1)
        AlgebraTable(f3, 3, {(0, j, j): 1 for j in range(3)} | {(j, 0, j): 1 for j in range(3)}
                     | {(1, 1, 2): 1, (1, 2, 0): 1, (2, 1, 0): 1, (1, 2, 1): 1, (2, 1, 1): 1,
                        (2, 2, 1): 1, (2, 2, 2): 1}, unit=[1, 0, 0]),
    ]
    calls = []
    real = algebra._invert_coords
    monkeypatch.setattr(algebra, "_invert_coords", lambda *args: calls.append(args) or real(*args))
    for table in fields:
        calls.clear()
        assert is_division_algebra(table) == "yes"
        p, n = table.field.p, table.dim
        assert len(calls) == (p**n - 1) // (p - 1)
    rng = random.Random(7301)
    # dual numbers: the one non-invertible line is the last one scanned
    tables = fields + [small_spin_table(f3, [0]), small_spin_table(f5, [0]), m2_table(f3)]
    tables += [_random_unital_table(f, n, rng) for f, n in ((f3, 2), (f3, 3), (f5, 2), (f3, 4)) for _ in range(8)]
    kinds, verdicts = set(), set()
    for table in tables:
        verdict = is_division_algebra(table)
        assert verdict == _division_by_all_tuples(table)
        kinds.add(algebra._inversion_kind(table))
        verdicts.add(verdict)
    assert kinds == {"jordan", "associative", "generic"} and verdicts == {"yes", "no"}


def test_invert_element():
    t = quadratic_extension_table()
    x = t.element([1, 1])
    inv = invert_element(x)
    assert inv is not None and (x * inv) == t.one()
    m2 = m2_table(prime_field(3))
    e12 = m2.basis_element(1)
    assert invert_element(e12) is None
    g = m2.element([1, 1, 0, 1])
    ginv = invert_element(g)
    assert ginv is not None
    assert (g * ginv) == m2.one() and (ginv * g) == m2.one()


def test_linear_map_basics():
    t = small_spin_table(prime_field(5), [1, 1])
    d = LinearMap.from_images(t, [[0, 0, 0], [0, 0, 1], [0, 4, 0]])
    x = t.basis_element(1)
    assert d.apply(x).coords == (0, 0, 1)
    assert d.compose(d).apply(x).coords == (0, 4, 0)
    assert d.kernel().dim == 1
    assert d.image().dim == 2
    assert (d - d).is_zero()
    assert LinearMap.identity(t).apply(x) == x
    assert LinearMap.scalar(t, 3).apply(x).coords == (0, 3, 0)
    v_space = Subspace(t.field, 3, [[0, 1, 0], [0, 0, 1]])
    assert d.restricts_to(v_space)
    assert not d.restricts_to(Subspace(t.field, 3, [[0, 1, 0]]))
