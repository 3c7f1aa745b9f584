"""Multiplication operators L_x, R_x and the inverse routine built on them.

`AlgebraTable.mult_operator` is compared with operators assembled column
by column from `mul_coords`, and the inverse verdicts of
`invert_element`, `jordan_inverse` and `is_division_algebra` are compared,
element by element, with a reference that solves those column-built
systems through `Matrix.solve`.
"""

import itertools
import random
from fractions import Fraction

import pytest

from jordanalg.algebra import (
    AlgebraTable,
    check_identity,
    invert_element,
    is_division_algebra,
)
from jordanalg.constructions import diagonal_spin_factor, matrix_algebra
from jordanalg.errors import BadParameters
from jordanalg.fields import RATIONALS, prime_field
from jordanalg.jordan import jordan_inverse
from jordanalg.linalg import Matrix

F3 = prime_field(3)
MERSENNE61 = prime_field(2**61 - 1)


def _operator_reference(table, x, side):
    """Rows of L_x or R_x, column j being x * b_j or b_j * x."""
    f = table.field
    n = table.dim
    cols = []
    for j in range(n):
        b = [f.zero()] * n
        b[j] = f.one()
        cols.append(table.mul_coords(list(x), b) if side == "left" else table.mul_coords(b, list(x)))
    return [[cols[j][k] for j in range(n)] for k in range(n)]


def _random_scalar(field, rng):
    if field.is_rational:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randrange(field.p) if rng.random() < 0.7 else 0


def _random_unital_table(field, n, rng):
    """Unit e0; every other product b_i b_j (i, j >= 1) random, so the
    table is in general neither commutative nor associative."""
    entries = {(0, 0, 0): 1}
    for j in range(1, n):
        entries[(0, j, j)] = 1
        entries[(j, 0, j)] = 1
    for i, j, k in itertools.product(range(1, n), range(1, n), range(n)):
        entries[(i, j, k)] = _random_scalar(field, rng)
    return AlgebraTable(field, n, entries, unit=[1] + [0] * (n - 1))


def _operator_tables():
    rng = random.Random(20261018)
    tables = []
    for field in (prime_field(5), MERSENNE61, RATIONALS):
        for n in (3, 4, 5):
            tables.append(_random_unital_table(field, n, rng))
        scalars = AlgebraTable(field, 1, {(0, 0, 0): 1}, unit=[1])
        tables.append(matrix_algebra(scalars, 2))
        tables.append(diagonal_spin_factor(field, [1, 2, 3]))
    return tables


@pytest.mark.parametrize("table", _operator_tables(), ids=repr)
def test_mult_operator_matches_column_reference(table):
    f = table.field
    rng = random.Random(table.dim)
    n = table.dim
    elements = [[f.zero()] * n, list(table.unit_coords())]
    elements += [[f.one() if i == j else f.zero() for i in range(n)] for j in range(n)]
    elements += [[f.coerce(_random_scalar(f, rng)) for _ in range(n)] for _ in range(6)]
    for x in elements:
        for side in ("left", "right"):
            assert table.mult_operator(x, side) == _operator_reference(table, x, side)
        assert table.mult_operator(x) == table.mult_operator(x, "left")
    zero_op = table.mult_operator([f.zero()] * n, "right")
    assert not any(any(row) for row in zero_op)


def test_operator_tables_tell_left_from_right():
    """The comparison above only catches a helper that swaps L and R if
    some tables are non-commutative and non-associative."""
    tables = _operator_tables()
    generic = [
        t for t in tables
        if not check_identity(t, "commutative") and not check_identity(t, "associative")
    ]
    assert {t.field for t in generic} == {prime_field(5), MERSENNE61, RATIONALS}
    for t in generic:
        x = [t.field.one()] * t.dim
        assert _operator_reference(t, x, "left") != _operator_reference(t, x, "right")


def test_mult_operator_rejects_unknown_side():
    table = diagonal_spin_factor(F3, [1, 1])
    with pytest.raises(BadParameters):
        table.mult_operator([1, 0, 0], "both")


# ---------------------------------------------------------------------------
# inverse verdicts


def _generic_gf3_table():
    """3-dim unital GF(3) table, neither commutative nor associative.

    Unit e0; e1e1 = 2e0+e1+2e2, e1e2 = e0+2e1+2e2, e2e1 = 2e0+2e1,
    e2e2 = e0+2e2.
    """
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1, (2, 0, 2): 1}
    entries.update({
        (1, 1, 0): 2, (1, 1, 1): 1, (1, 1, 2): 2,
        (1, 2, 0): 1, (1, 2, 1): 2, (1, 2, 2): 2,
        (2, 1, 0): 2, (2, 1, 1): 2,
        (2, 2, 0): 1, (2, 2, 2): 2,
    })
    return AlgebraTable(F3, 3, entries, unit=[1, 0, 0])


def _gf9_table():
    """GF(3)[t] / (t^2 - 2), a field, so every nonzero element inverts."""
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 2}
    return AlgebraTable(F3, 2, entries, unit=[1, 0])


def _reference_inverse(table, coords, kind):
    """Solve the inverse equations on column-built operators with
    Matrix.solve, then re-verify by products."""
    f = table.field
    x = list(coords)
    one = list(table.unit_coords())
    lx = Matrix(f, _operator_reference(table, x, "left"))
    if kind == "jordan":
        xsq = table.mul_coords(x, x)
        lxsq = Matrix(f, _operator_reference(table, xsq, "left"))
        y = Matrix(f, lx.rows + lxsq.rows).solve(one + x)
        ok = y is not None and table.mul_coords(x, list(y)) == one and table.mul_coords(xsq, list(y)) == x
        return y if ok else None
    if kind == "generic":
        rx = Matrix(f, _operator_reference(table, x, "right"))
        y = Matrix(f, lx.rows + rx.rows).solve(one + one)
    else:
        y = lx.solve(one)
    ok = y is not None and table.mul_coords(x, list(y)) == one and table.mul_coords(list(y), x) == one
    return y if ok else None


def _coords(element):
    return None if element is None else element.coords


@pytest.mark.parametrize(
    "name, build, kind",
    [
        ("spin-gf3", lambda: diagonal_spin_factor(F3, [1, 1]), "jordan"),
        ("gf9", _gf9_table, "jordan"),
        ("m2-gf3", lambda: matrix_algebra(AlgebraTable(F3, 1, {(0, 0, 0): 1}, unit=[1]), 2),
         "associative"),
        ("generic-gf3", _generic_gf3_table, "generic"),
    ],
)
def test_inverse_verdicts_match_reference_on_every_element(name, build, kind):
    table = build()
    commutative = check_identity(table, "commutative")
    associative = check_identity(table, "associative")
    assert kind == ("jordan" if commutative else "associative" if associative else "generic")
    all_invertible = True
    for tup in itertools.product(range(3), repeat=table.dim):
        x = table.element(tup)
        expected = _reference_inverse(table, tup, kind)
        assert _coords(invert_element(x)) == expected, tup
        assert _coords(jordan_inverse(x)) == _reference_inverse(table, tup, "jordan"), tup
        if any(tup) and expected is None:
            all_invertible = False
    assert is_division_algebra(table) == ("yes" if all_invertible else "no")


def test_generic_rule_accepts_a_two_sided_inverse():
    """For x = e0 + e2 the canonical solutions of L_x y = 1 and R_x y = 1
    taken separately differ, although y = e2 satisfies x y = y x = 1.
    The generic rule solves both systems at once, so x is invertible."""
    table = _generic_gf3_table()
    x = table.element([1, 0, 1])
    y = table.element([0, 0, 1])
    assert x * y == table.one() and y * x == table.one()
    inverse = invert_element(x)
    assert inverse is not None
    assert x * inverse == table.one() and inverse * x == table.one()
    assert is_division_algebra(table) == "no"


def _moved(coords, perm):
    """Coordinates on the basis b'_perm[i] = b_i."""
    out = [0] * len(coords)
    for i, c in enumerate(coords):
        out[perm[i]] = c
    return out


def _permuted_table(table, perm):
    """The same algebra written on the basis b'_perm[i] = b_i."""
    entries = {(perm[i], perm[j], perm[k]): c for i, j, k, c in table.sc_items()}
    return AlgebraTable(table.field, table.dim, entries, unit=_moved(table.unit_coords(), perm))


@pytest.mark.parametrize("p", [3, 5])
def test_generic_inverse_does_not_depend_on_the_basis(p):
    field = prime_field(p)
    rng = random.Random(p)
    tables = [_generic_gf3_table()] if p == 3 else []
    tables += [_random_unital_table(field, n, rng) for n in (3, 3, 4)]
    for table in tables:
        assert not check_identity(table, "commutative")
        assert not check_identity(table, "associative")
        perms = list(itertools.permutations(range(table.dim)))
        for perm in [perms[-1]] + rng.sample(perms[1:-1], 3):
            moved = _permuted_table(table, perm)
            for tup in itertools.product(range(p), repeat=table.dim):
                before = invert_element(table.element(tup))
                after = invert_element(moved.element(_moved(tup, perm)))
                assert (before is None) == (after is None), (perm, tup)
