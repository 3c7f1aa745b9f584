"""Raw-vector arithmetic, the value types built on it, and certification.

`combine_raw` and `dot_raw` carry every linear combination and dot
product of raw field values.  Property tests (hypothesis) compare them,
the `Matrix` operators and `Subspace.coords_of` with plain Fraction/int
arithmetic reduced once at the end, over GF(3), GF(2^61 - 1) and Q;
`DerivationSpace.combination` with a sum of scaled basis matrices; and
`ideal_closure` with the closure that adds one product space per round,
on commutative and non-commutative tables over GF(3), GF(5),
GF(2^61 - 1) and Q.
The certification tests check that self-checks raise
`CertificationError` also under ``python -O``, and that no module of the
package certifies with an ``assert`` statement, and that no module but
`linalg` picks a numpy dtype.
"""

import ast
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordanalg
from jordanalg import derivations
from jordanalg.algebra import AlgebraTable, ideal_closure, split_null_extension
from jordanalg.constructions import diagonal_spin_factor, matrix_algebra
from jordanalg.derivations import (
    derivation_space,
    extend_derivation_eps,
    inner_assoc_derivation,
)
from jordanalg.errors import CertificationError
from jordanalg.fields import RATIONALS, prime_field
from jordanalg.linalg import Matrix, Subspace, combine_raw, dot_raw

FIELDS = (prime_field(3), prime_field(2**61 - 1), RATIONALS)
PACKAGE = Path(jordanalg.__file__).resolve().parent
SRC = str(PACKAGE.parent)

checked = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def _reduce(field, value):
    """Reference reduction: a Fraction or int sum into the field's raw form."""
    if field.is_rational:
        return Fraction(value)
    return value % field.p


def _scalars(field):
    if field.is_rational:
        return st.fractions(min_value=-20, max_value=20, max_denominator=7)
    return st.one_of(st.just(0), st.integers(0, field.p - 1))


@st.composite
def field_rows(draw, nrows=st.integers(0, 5), ncols=st.integers(1, 5)):
    field = draw(st.sampled_from(FIELDS))
    r, c = draw(nrows), draw(ncols)
    rows = [[draw(_scalars(field)) for _ in range(c)] for _ in range(r)]
    return field, rows, c


def _raw(field, rows):
    return [[field.coerce(x) for x in row] for row in rows]


@checked
@given(field_rows(), st.data())
def test_combine_raw_matches_reference(case, data):
    field, rows, ncols = case
    rows = _raw(field, rows)
    coeffs = [field.coerce(data.draw(_scalars(field))) for _ in rows]
    got = combine_raw(field, coeffs, rows)
    want = [_reduce(field, sum(c * row[j] for c, row in zip(coeffs, rows))) for j in range(ncols)]
    if rows:
        assert got == want
    else:
        assert got == []
    assert all(type(x) is type(field.zero()) for x in got)


@checked
@given(field_rows(nrows=st.just(2)))
def test_dot_raw_matches_reference(case):
    field, (u, v), _ = case
    u, v = _raw(field, [u, v])
    got = dot_raw(field, u, v)
    assert got == _reduce(field, sum(a * b for a, b in zip(u, v)))
    assert type(got) is type(field.zero())


@checked
@given(field_rows(nrows=st.integers(1, 4)), st.data())
def test_matrix_operators_match_reference(case, data):
    field, rows, ncols = case
    nrows = len(rows)
    other = [[data.draw(_scalars(field)) for _ in range(ncols)] for _ in range(nrows)]
    right = [[data.draw(_scalars(field)) for _ in range(3)] for _ in range(ncols)]
    vec = [data.draw(_scalars(field)) for _ in range(ncols)]
    c = data.draw(_scalars(field))
    a, b, r = Matrix(field, rows), Matrix(field, other), Matrix(field, right)
    a_raw, b_raw, r_raw = _raw(field, rows), _raw(field, other), _raw(field, right)
    cc, v_raw = field.coerce(c), _raw(field, [vec])[0]

    def entrywise(op):
        return tuple(
            tuple(_reduce(field, op(x, y)) for x, y in zip(ra, rb)) for ra, rb in zip(a_raw, b_raw)
        )

    assert (a + b).rows == entrywise(lambda x, y: x + y)
    assert (a - b).rows == entrywise(lambda x, y: x - y)
    assert a.scale(c).rows == tuple(tuple(_reduce(field, cc * x) for x in row) for row in a_raw)
    assert (a @ r).rows == tuple(
        tuple(_reduce(field, sum(row[k] * r_raw[k][j] for k in range(ncols))) for j in range(3))
        for row in a_raw
    )
    assert a.apply(vec) == tuple(_reduce(field, sum(x * y for x, y in zip(row, v_raw))) for row in a_raw)


@checked
@given(field_rows(nrows=st.integers(0, 4), ncols=st.integers(1, 5)), st.data())
def test_coords_of_matches_reference(case, data):
    field, rows, ncols = case
    space = Subspace(field, ncols, rows)
    coeffs = [field.coerce(data.draw(_scalars(field))) for _ in space.basis]
    vec = [
        _reduce(field, sum(c * row[j] for c, row in zip(coeffs, space.basis))) for j in range(ncols)
    ]
    assert space.coords_of(vec) == tuple(coeffs)
    assert space.reduce_vector(vec) == [field.zero()] * ncols
    free = [j for j in range(ncols) if j not in space.pivots]
    if free:
        outside = list(vec)
        outside[free[0]] = _reduce(field, outside[free[0]] + 1)
        assert space.coords_of(outside) is None
        assert not space.contains_vector(outside)


_SPACES = {}


def _space(field, diag):
    key = (field, diag)
    if key not in _SPACES:
        _SPACES[key] = derivation_space(diagonal_spin_factor(field, list(diag)))
    return _SPACES[key]


@checked
@given(
    st.sampled_from([(FIELDS[0], (1, 1, 2)), (FIELDS[1], (1, 2, 3)), (FIELDS[2], (1, -1, 2, 3))]),
    st.data(),
)
def test_combination_matches_sum_of_scaled_basis_maps(choice, data):
    field, diag = choice
    space = _space(field, diag)
    coeffs = [data.draw(st.integers(-3, 3) | _scalars(field)) for _ in space.basis]
    n = space.algebra.dim
    want = tuple(
        tuple(
            _reduce(field, sum(field.coerce(c) * b.matrix.rows[r][k] for c, b in zip(coeffs, space.basis)))
            for k in range(n)
        )
        for r in range(n)
    )
    assert space.combination(coeffs).matrix.rows == want


def test_combination_of_an_empty_basis_is_the_zero_map():
    space = derivation_space(diagonal_spin_factor(FIELDS[0], [1]))
    assert space.dim == 0
    assert space.combination([]).is_zero()


def _closure_by_rounds(table, space):
    """One product space per round, added with sum_with."""
    f, n = table.field, table.dim
    units = [[f.one() if i == j else f.zero() for i in range(n)] for j in range(n)]
    current = space
    while True:
        products = []
        for vec in current.basis:
            for e in units:
                products.append(table.mul_coords(list(vec), e))
                products.append(table.mul_coords(e, list(vec)))
        grown = current.sum_with(Subspace(f, n, products))
        if grown.dim == current.dim:
            return grown
        current = grown


@st.composite
def gf3_tables(draw):
    n = draw(st.integers(1, 4))
    cells = st.integers(0, 2) if draw(st.booleans()) else st.sampled_from([0, 0, 0, 1, 2])
    entries = {(i, j, k): draw(cells) for i in range(n) for j in range(n) for k in range(n)}
    start = [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(draw(st.integers(1, 2)))]
    return AlgebraTable(FIELDS[0], n, entries), start


@st.composite
def field_tables(draw):
    """Tables over GF(3), GF(5), GF(2^61 - 1) and Q, commutative
    (c[i][j] = c[j][i], where the closure takes left products only) or
    not.  Triangular ones (b_i b_j in the span of the b_k with
    k > max(i, j)) have proper ideals for a closure to stop at."""
    field = draw(st.sampled_from(FIELDS + (prime_field(5),)))
    n = draw(st.integers(1, 4))
    cells = _scalars(field) if draw(st.booleans()) else st.sampled_from([0, 0, 0, 1, 2])
    commutative = draw(st.booleans())
    triangular = draw(st.booleans())
    entries = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        if triangular and k <= max(i, j):
            continue
        if commutative and i > j:
            entries[(i, j, k)] = entries[(j, i, k)]
        else:
            entries[(i, j, k)] = draw(cells)
    start = [[draw(_scalars(field)) for _ in range(n)] for _ in range(draw(st.integers(1, 2)))]
    return AlgebraTable(field, n, entries), start


@settings(checked, max_examples=120)
@given(st.one_of(gf3_tables(), field_tables()))
def test_ideal_closure_matches_closure_by_rounds(case):
    table, start = case
    space = Subspace(table.field, table.dim, start)
    assert ideal_closure(table, space) == _closure_by_rounds(table, space)


# ---------------------------------------------------------------------------
# certification


def _split_null_case():
    base = diagonal_spin_factor(FIELDS[0], [1, 1])
    ext, _ = split_null_extension(base)
    return ext, derivation_space(base).basis[0]


def _m2_case():
    m2 = matrix_algebra(AlgebraTable(FIELDS[0], 1, {(0, 0, 0): 1}, unit=[1]), 2)
    return m2, m2.element([0, 1, 2, 0])


@pytest.mark.parametrize(
    "case, construct, message",
    [
        (_split_null_case, extend_derivation_eps, "extended map must satisfy Leibniz"),
        (_m2_case, inner_assoc_derivation, "inner map must satisfy Leibniz"),
    ],
)
def test_failed_leibniz_self_check_raises_certification_error(monkeypatch, case, construct, message):
    args = case()
    monkeypatch.setattr(derivations, "is_derivation", lambda table, dmap: False)
    with pytest.raises(CertificationError, match=message):
        construct(*args)


REJECTED_UNDER_O = """
import sys
import jordanalg.derivations as d
from jordanalg.algebra import AlgebraTable, split_null_extension
from jordanalg.constructions import diagonal_spin_factor, matrix_algebra
from jordanalg.errors import CertificationError
from jordanalg.fields import prime_field

F3 = prime_field(3)
base = diagonal_spin_factor(F3, [1, 1])
ext, _ = split_null_extension(base)
base_map = d.derivation_space(base).basis[0]
m2 = matrix_algebra(AlgebraTable(F3, 1, {(0, 0, 0): 1}, unit=[1]), 2)
d.is_derivation = lambda table, dmap: False
print("optimize", sys.flags.optimize)
for call in (lambda: d.extend_derivation_eps(ext, base_map),
             lambda: d.inner_assoc_derivation(m2, m2.element([0, 1, 2, 0]))):
    try:
        call()
    except CertificationError as exc:
        print("CertificationError:", exc)
    else:
        print("accepted")
"""


def test_failed_leibniz_self_check_raises_under_python_O():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    result = subprocess.run([sys.executable, "-O", "-c", REJECTED_UNDER_O],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "optimize 1\n"
        "CertificationError: extended map must satisfy Leibniz\n"
        "CertificationError: inner map must satisfy Leibniz\n"
    )


def test_package_certifies_without_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _dtype_choices(tree):
    """Line numbers that name np.int64 or np.float64, pass dtype=object or
    call astype(object)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("int64", "float64")
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno
        elif (isinstance(node, ast.keyword) and node.arg == "dtype"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            yield node.value.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and any(isinstance(a, ast.Name) and a.id == "object" for a in node.args)):
            yield node.lineno


def test_only_linalg_picks_a_numpy_dtype():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = sorted(set(_dtype_choices(tree)))
        if path.name == "linalg.py":
            assert lines, "the guard no longer recognizes linalg's own dtype choices"
        else:
            found += [f"{path.name}:{line}" for line in lines]
    assert found == []
