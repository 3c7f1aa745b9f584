import random
from fractions import Fraction

import pytest

from jordanalg.errors import AmbientMismatch, NotSymmetric
from jordanalg.fields import RATIONALS, is_prime, prime_field
from jordanalg.linalg import (
    Matrix,
    Subspace,
    _exact_matmul,
    _product_dtype,
    _nullspace_mod_staged,
    _rref_mod_np,
    _rref_mod_py,
    diagonalize_symmetric_form,
    nullspace_int_crt,
    nullspace_raw,
)

import numpy as np


def test_rref_small_gf():
    f = prime_field(3)
    m = Matrix(f, [[1, 2], [2, 1]])
    red, rank, piv = m.rref()
    assert red.rows == ((1, 2), (0, 0))
    assert rank == 1
    assert piv == (0,)
    assert Matrix.identity(f, 3).rref()[1] == 3
    assert Matrix.zeros(f, 2, 2).rref()[1] == 0


def test_rref_rational():
    m = Matrix(RATIONALS, [[2, 4, 2], [1, 1, 1], [3, 5, 3]])
    red, rank, piv = m.rref()
    assert rank == 2
    assert piv == (0, 1)
    assert red.rows[0] == (1, 0, 1)
    assert red.rows[1] == (0, 1, 0)


def test_nullspace_canonical_gf():
    f = prime_field(5)
    m = Matrix(f, [[1, 2, 0], [0, 0, 1]])
    ns = m.nullspace()
    assert ns.dim == 1
    assert ns.basis == ((1, 2, 0),)
    v = ns.basis[0]
    assert all(x == 0 for x in m.apply(v))


def test_nullspace_single_relation_rational():
    m = Matrix(RATIONALS, [[1, 1]])
    assert m.nullspace().basis == ((1, -1),)
    assert Matrix.identity(RATIONALS, 2).nullspace().dim == 0
    assert Matrix.zeros(RATIONALS, 2, 2).nullspace().dim == 2


def test_nullspace_with_no_constraints_is_full():
    f = prime_field(7)
    assert nullspace_raw(f, [], 4) == [list(r) for r in Matrix.identity(f, 4).rows]


def test_solve():
    f = prime_field(7)
    m = Matrix(f, [[1, 1], [1, 2]])
    x = m.solve([3, 5])
    assert x is not None
    assert m.apply(x) == (3, 5)
    assert Matrix(prime_field(5), [[2]]).solve([3]) == (4,)
    inconsistent = Matrix(f, [[1, 1], [2, 2]])
    assert inconsistent.solve([1, 3]) is None


def test_solve_sets_free_variables_to_zero():
    m = Matrix(RATIONALS, [[1, 5, 0]])
    x = m.solve([7])
    assert x == (7, 0, 0)


def test_matrix_algebra_basics():
    f = prime_field(11)
    a = Matrix(f, [[1, 2], [3, 4]])
    i = Matrix.identity(f, 2)
    assert a @ i == a
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a
    assert a.apply((1, 0)) == (1, 3)
    assert a.scale(2).rows == ((2, 4), (6, 8))


def test_engine_agreement_random():
    rng = random.Random(7001)
    p = 5
    for _ in range(25):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(1, 9)
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        ra, rka, pa = _rref_mod_py([r[:] for r in rows], p)
        arr, rkb, pb = _rref_mod_np(np.array(rows, dtype=np.int64), p)
        assert rka == rkb and pa == pb
        assert [list(map(int, row)) for row in arr] == ra


def test_staged_nullspace_matches_direct():
    rng = random.Random(7002)
    p = 7
    f = prime_field(p)
    for _ in range(10):
        rows = [[rng.randrange(p) for _ in range(12)] for _ in range(30)]
        direct = nullspace_raw(f, rows, 12)
        staged = _nullspace_mod_staged(np.array(rows, dtype=np.int64), p, chunk=5)
        assert [list(map(int, r)) for r in staged] == direct
        for v in direct:
            assert all(sum(r * x for r, x in zip(row, v)) % p == 0 for row in rows)


def test_crt_nullspace_matches_fraction_elimination():
    rng = random.Random(7003)
    for _ in range(8):
        nrows, ncols = 14, 9
        rows = [[rng.randrange(-9, 10) for _ in range(ncols)] for _ in range(nrows)]
        # force nontrivial nullity by duplicating combinations of columns
        for r in rows:
            r[ncols - 1] = r[0] - 2 * r[1]
            r[ncols - 2] = r[2] + r[3]
        frac_rows = [[Fraction(x) for x in row] for row in rows]
        direct = nullspace_raw(RATIONALS, frac_rows, ncols)
        via_crt = nullspace_int_crt(rows, ncols)
        assert via_crt == direct
        for v in direct:
            assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in rows)


def test_crt_nullspace_full_rank():
    assert nullspace_int_crt([[1, 0], [0, 1], [3, 5]], 2) == []


def test_subspace_canonical_equality():
    f = prime_field(5)
    u = Subspace(f, 3, [[1, 2, 0], [0, 1, 1]])
    v = Subspace(f, 3, [[1, 3, 1], [0, 2, 2]])
    assert u == v
    assert hash(u) == hash(v)
    assert u != Subspace(f, 3, [[1, 0, 0]])


def test_subspace_dimension_formula():
    rng = random.Random(7004)
    f = prime_field(5)
    n = 6
    for _ in range(20):
        u = Subspace(f, n, [[rng.randrange(5) for _ in range(n)] for _ in range(3)])
        v = Subspace(f, n, [[rng.randrange(5) for _ in range(n)] for _ in range(3)])
        s = u.sum_with(v)
        i = u.intersect(v)
        assert s.dim + i.dim == u.dim + v.dim
        assert s.contains_subspace(u) and s.contains_subspace(v)
        assert u.contains_subspace(i) and v.contains_subspace(i)


def test_subspace_annihilator_duality():
    rng = random.Random(7005)
    for f in (prime_field(7), RATIONALS):
        for _ in range(10):
            vecs = [[rng.randrange(-4, 5) for _ in range(5)] for _ in range(2)]
            u = Subspace(f, 5, vecs)
            ann = u.annihilator()
            assert u.dim + ann.dim == 5
            assert ann.annihilator() == u


def test_subspace_coords_round_trip():
    f = RATIONALS
    u = Subspace(f, 4, [[1, 0, 2, 0], [0, 1, 0, 3]])
    vec = [2, -1, 4, -3]
    coords = u.coords_of(vec)
    assert coords == (2, -1)
    assert u.contains_vector(vec)
    assert u.coords_of([1, 0, 0, 0]) is None
    with pytest.raises(AmbientMismatch):
        u.contains_vector([1, 0, 0])


def test_subspace_ambient_guard():
    f = prime_field(5)
    with pytest.raises(AmbientMismatch):
        Subspace(f, 3, [[1, 2]])
    u = Subspace(f, 3, [[1, 0, 0]])
    v = Subspace(f, 4, [[1, 0, 0, 0]])
    with pytest.raises(AmbientMismatch):
        u.intersect(v)


def test_diagonalize_hyperbolic_gf3():
    f = prime_field(3)
    g = Matrix(f, [[0, 1], [1, 0]])
    p_mat, d_mat = diagonalize_symmetric_form(g)
    assert d_mat == Matrix(f, [[2, 0], [0, 1]])
    assert p_mat == Matrix(f, [[1, 1], [1, 2]])
    assert p_mat.transpose() @ g @ p_mat == d_mat
    assert p_mat.rank() == 2


def test_diagonalize_already_diagonal():
    f = prime_field(5)
    g = Matrix(f, [[1, 0], [0, 1]])
    p_mat, d_mat = diagonalize_symmetric_form(g)
    assert p_mat == Matrix.identity(f, 2)
    assert d_mat == g


def test_diagonalize_hyperbolic_rational():
    g = Matrix(RATIONALS, [[0, 1], [1, 0]])
    p_mat, d_mat = diagonalize_symmetric_form(g)
    assert d_mat == Matrix(RATIONALS, [[2, 0], [0, -2]])
    assert p_mat == Matrix(RATIONALS, [[1, 1], [1, -1]])
    assert p_mat.transpose() @ g @ p_mat == d_mat


def test_diagonalize_random_forms():
    rng = random.Random(7006)
    for f in (prime_field(7), RATIONALS):
        for _ in range(12):
            n = rng.randrange(1, 5)
            entries = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = rng.randrange(-3, 4)
                    entries[i][j] = entries[j][i] = v
            g = Matrix(f, entries)
            p_mat, d_mat = diagonalize_symmetric_form(g)
            assert p_mat.rank() == n
            assert p_mat.transpose() @ g @ p_mat == d_mat
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert not d_mat.rows[i][j]


def test_diagonalize_rejects_asymmetric():
    g = Matrix(RATIONALS, [[0, 1], [2, 0]])
    with pytest.raises(NotSymmetric):
        diagonalize_symmetric_form(g)


def test_degenerate_form_keeps_radical_as_zero_entries():
    g = Matrix(RATIONALS, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    p_mat, d_mat = diagonalize_symmetric_form(g)
    diag = [d_mat.rows[i][i] for i in range(3)]
    assert diag.count(0) == 2
    assert p_mat.rank() == 3


# ---------------------------------------------------------------------------
# the exact product helper against Python-int products


def _python_product(a, b, p=None):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[v % p for v in row] for row in out] if p else out


def _array(rows):
    # object dtype keeps entries past int64 exact; the helper casts
    return np.array(rows, dtype=object)


# inner dimension 27: the primes next to the float64 edge
# (27 (p-1)^2 < 2^53 iff p <= 18_264_720), the largest prime on the int64
# path (27 (p-1)^2 < 2^63 iff p <= 584_471_019) and primes on the object
# path below and past int64
GF_EDGE_CASES = [
    (18_264_707, np.float64),
    (18_264_767, np.int64),
    (584_471_011, np.int64),
    (2**31 - 1, object),
    (2**64 + 13, object),
]


@pytest.mark.parametrize("p, path", GF_EDGE_CASES, ids=[str(p) for p, _ in GF_EDGE_CASES])
def test_exact_matmul_over_gf_at_each_edge(p, path):
    assert is_prime(p)
    assert _product_dtype(27, p - 1, p - 1) is path
    rng = random.Random(p)
    # the largest residue fills the first row and column, so the largest
    # dot product is reached
    a = [[p - 1] * 27] + [[rng.randrange(p) for _ in range(27)] for _ in range(4)]
    b = [[p - 1] + [rng.randrange(p) for _ in range(5)] for _ in range(27)]
    got = _exact_matmul(_array(a), _array(b), p)
    assert got.tolist() == _python_product(a, b, p)
    assert got.tolist()[0][0] == 27 * (p - 1) ** 2 % p


@pytest.mark.parametrize("p, path", GF_EDGE_CASES, ids=[str(p) for p, _ in GF_EDGE_CASES])
def test_exact_matmul_sum_of_terms_over_gf_at_each_edge(p, path):
    # six products of the largest residues, summed and then reduced once:
    # at 584_471_011 one product fits int64 and six do not
    a = [[p - 1] * 27, [1] * 27]
    b = [[p - 1, 1] for _ in range(27)]
    total = sum(_exact_matmul(_array(a), _array(b), p, terms=6) for _ in range(6)) % p
    assert total.tolist() == [[6 * v % p for v in row] for row in _python_product(a, b, p)]


# integer entries of absolute value at most `big`, inner dimension 27
Z_EDGE_CASES = [
    (18_264_719, np.float64),
    (18_264_720, np.int64),
    (584_471_018, np.int64),
    (584_471_019, object),
    (3**60, object),
]


@pytest.mark.parametrize("big, path", Z_EDGE_CASES, ids=[str(b) for b, _ in Z_EDGE_CASES])
def test_exact_matmul_over_integers_at_each_edge(big, path):
    assert _product_dtype(27, big, big) is path
    rng = random.Random(big)
    a = [[-big] * 27] + [[rng.randint(-big, big) for _ in range(27)] for _ in range(4)]
    b = [[big] + [rng.randint(-big, big) for _ in range(5)] for _ in range(27)]
    b[0][1] = -big
    got = _exact_matmul(_array(a), _array(b))
    assert got.tolist() == _python_product(a, b)
    assert got.tolist()[0][0] == -27 * big * big


def test_exact_matmul_leaves_room_for_summed_terms():
    # each product fits int64, three of them summed do not
    big = 2**29
    assert _product_dtype(27, big, big) is np.int64
    assert _product_dtype(27, big, big, terms=3) is object
    a = [[big] * 27]
    b = [[big] for _ in range(27)]
    total = sum(_exact_matmul(_array(a), _array(b), terms=3) for _ in range(3))
    assert total.tolist() == [[3 * 27 * big * big]]
    # over GF(p) the path is picked for one product, so `terms` does not
    # shrink it
    p = 18_264_707
    assert _exact_matmul(_array(a), _array(b), p, terms=6).dtype == np.int64


def test_int64_path_edge_is_strict():
    assert _product_dtype(1, 2**63 - 1, 1) is np.int64
    assert _product_dtype(2, 2**31, 2**31) is object
    assert _product_dtype(2, 2**31, 2**31 - 1) is np.int64


def test_exact_matmul_by_zeros_keeps_huge_entries_exact():
    huge = _array([[3**700, -(3**700)]])
    zeros = _array([[0], [0]])
    assert _product_dtype(2, 3**700, 0) is object
    assert _exact_matmul(huge, zeros).tolist() == [[0]]
