import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanalg import linalg
from jordanalg.errors import AmbientMismatch, NotSymmetric
from jordanalg.fields import RATIONALS, is_prime, prime_field
from jordanalg.linalg import (
    Matrix,
    Subspace,
    _exact_matmul,
    _identity_raw,
    _normalize_pivot,
    _nullspace_exact,
    _product_dtype,
    _nullspace_mod_staged,
    _rref_mod_np,
    _rref_mod_py,
    combine_raw,
    diagonalize_symmetric_form,
    dot_raw,
    nullspace_int_crt,
    nullspace_raw,
    rref_raw,
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


def test_subspace_always_reduces_outside_vectors():
    # equality compares stored bases, so no caller may skip the reduction
    f = prime_field(5)
    with pytest.raises(TypeError):
        Subspace(f, 3, [[1, 3, 1], [0, 2, 2]], canonical=True)
    assert Subspace(f, 3, [[1, 3, 1], [0, 2, 2]]).basis == ((1, 0, 3), (0, 1, 1))


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


# ---------------------------------------------------------------------------
# each canonical basis from one reduction


def _counted(monkeypatch, name):
    """A list that gets one entry per call of linalg.<name>."""
    calls = []
    real = getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda *args: calls.append(1) or real(*args))
    return calls


def _low_rank_rows(field, rng, nrows, ncols, rank):
    """nrows x ncols raw rows of rank at most `rank`, dense."""
    def draw():
        return field.coerce(rng.randrange(field.p) if field.p else rng.randint(-4, 4))

    if not rank:
        return Matrix.zeros(field, nrows, ncols)
    left = [[draw() for _ in range(rank)] for _ in range(nrows)]
    right = [[draw() for _ in range(ncols)] for _ in range(rank)]
    return Matrix._wrap(field, left) @ Matrix._wrap(field, right)


@pytest.mark.parametrize("field", [prime_field(5), prime_field(2**61 - 1), RATIONALS], ids=str)
def test_nullspace_exact_reduces_once(monkeypatch, field):
    rng = random.Random(f"one-reduction-{field}")
    calls = _counted(monkeypatch, "_rref_mod_py")
    for nrows, ncols, rank in [(3, 5, 2), (6, 6, 4), (4, 7, 4), (5, 3, 3), (2, 4, 0)]:
        m = _low_rank_rows(field, rng, nrows, ncols, rank)
        calls.clear()
        basis = _nullspace_exact(field, [list(r) for r in m.rows], ncols)
        assert len(calls) == 1
        assert len(basis) == ncols - m.rank()
        assert all(not any(m.apply(v)) for v in basis)
        # already reduced echelon: its own reduction leaves it unchanged
        assert rref_raw(field, basis)[0] == basis


@pytest.mark.parametrize("p", [7, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("chunk", [37, 100, 200])
def test_block_nullspace_reduces_each_chunk_once(monkeypatch, p, chunk):
    field = prime_field(p)
    rows = [list(r) for r in _low_rank_rows(field, random.Random(p + chunk), 200, 30, 20).rows]
    m = np.array(rows, dtype=np.int64 if p < 2**31 else object)
    assert m.size > linalg._NP_THRESHOLD
    calls = _counted(monkeypatch, "_rref_mod_np")
    basis, pivots = linalg._block_nullspace(m, p, chunk)
    assert len(calls) == -(-200 // chunk)
    assert basis.tolist() == _nullspace_exact(field, rows, 30)
    assert len(basis) == 10
    assert pivots == [next(c for c, x in enumerate(row) if x) for row in basis.tolist()]
    assert rref_raw(field, basis.tolist())[0] == basis.tolist()


def test_diagonalize_makes_no_rref_raw_call(monkeypatch):
    calls = _counted(monkeypatch, "rref_raw")
    for f in (prime_field(3), RATIONALS):
        for rows in ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[1, 1, 0], [1, 1, 2], [0, 2, 0]], [[2, 1], [1, 2]]):
            diagonalize_symmetric_form(Matrix(f, rows))
    assert calls == []


# ---------------------------------------------------------------------------
# diagonalization against the re-spanning procedure


def _reference_diagonalize(g, branches):
    """`diagonalize_symmetric_form` as it re-spans its working vectors
    after every step, dropping zero vectors and vectors in the span of
    earlier ones; appends the branch of each step to `branches`."""
    field = g.field
    n = g.nrows

    def form(u, v):
        return dot_raw(field, u, g.apply(v))

    working = _identity_raw(field, n)
    chosen, diag = [], []

    def prune(vecs):
        kept = []
        seen = Subspace.zero(field, n)
        for v in vecs:
            if any(v) and not seen.contains_vector(v):
                kept.append(v)
                seen = seen.sum_with(Subspace._wrap(field, n, [v]))
        return kept

    while True:
        working = prune(working)
        if not working:
            break
        pivot = next((v for v in working if form(v, v)), None)
        if pivot is None:
            pair = None
            for i in range(len(working)):
                for j in range(i + 1, len(working)):
                    if form(working[i], working[j]):
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                branches.append("isotropic")
                for v in working:
                    chosen.append(_normalize_pivot(field, v))
                    diag.append(field.zero())
                break
            branches.append("pair")
            pivot = combine_raw(field, (1, 1), (working[pair[0]], working[pair[1]]))
        else:
            branches.append("single")
        pivot = _normalize_pivot(field, pivot)
        fv = form(pivot, pivot)
        chosen.append(pivot)
        diag.append(fv)
        inv = field.inv(fv)
        nxt = []
        for w in working:
            c = field.mul(inv, form(pivot, w))
            if c:
                w = combine_raw(field, (1, -c), (w, pivot))
            nxt.append(w)
        working = nxt
    d_rows = [[field.zero()] * n for _ in range(n)]
    for i, d in enumerate(diag):
        d_rows[i][i] = d
    return Matrix._wrap(field, zip(*chosen)), Matrix._wrap(field, d_rows)


FORM_FIELDS = {"GF3": prime_field(3), "GF5": prime_field(5), "GF7": prime_field(7),
               "GF(2^61-1)": prime_field(2**61 - 1), "Q": RATIONALS}


@st.composite
def symmetric_forms(draw):
    """(kind, form): a symmetric form of dim <= 6 that is random, of
    lower rank (M^T A M), hollow (zero diagonal, so every basis vector is
    isotropic) or zero (totally isotropic)."""
    field = FORM_FIELDS[draw(st.sampled_from(sorted(FORM_FIELDS)))]
    if field.p:
        entry = st.one_of(st.integers(-2, 2), st.integers(0, field.p - 1)).map(field.coerce)
    else:
        entry = st.fractions(-3, 3, max_denominator=3)
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "degenerate", "hollow", "zero"]))

    def symmetric(k):
        rows = [[field.zero()] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                rows[i][j] = rows[j][i] = draw(entry)
        return Matrix._wrap(field, rows)

    if kind == "degenerate":
        k = draw(st.integers(0, n - 1))
        m = Matrix._wrap(field, [[draw(entry) for _ in range(n)] for _ in range(k)])
        return kind, m.transpose() @ symmetric(k) @ m if k else Matrix.zeros(field, n, n)
    if kind == "zero":
        return kind, Matrix.zeros(field, n, n)
    g = [list(r) for r in symmetric(n).rows]
    if kind == "hollow":
        for i in range(n):
            g[i][i] = field.zero()
        if n > 1 and not any(map(any, g)):
            g[0][1] = g[1][0] = field.one()
    return kind, Matrix._wrap(field, g)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(symmetric_forms())
def test_diagonalize_matches_the_re_spanning_reference(case):
    kind, g = case
    branches = []
    expected = _reference_diagonalize(g, branches)
    p_mat, d_mat = diagonalize_symmetric_form(g)
    assert (p_mat.rows, d_mat.rows) == (expected[0].rows, expected[1].rows)
    assert p_mat.transpose() @ g @ p_mat == d_mat
    if kind == "hollow" and g.nrows > 1:
        assert branches[0] == "pair"
    if kind == "zero":
        assert branches == ["isotropic"]


@pytest.mark.parametrize("field", [prime_field(5), RATIONALS], ids=str)
@pytest.mark.parametrize("n", [1, 3, 6])
def test_annihilator_of_zero_and_intersection_of_full_spaces_are_full(field, n):
    full = Subspace.full(field, n)
    assert Subspace.zero(field, n).annihilator() == full
    assert full.annihilator() == Subspace.zero(field, n)
    assert full.intersect(full) == full
    assert full.intersect(Subspace.zero(field, n)) == Subspace.zero(field, n)
