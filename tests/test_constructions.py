import hashlib
import random
from fractions import Fraction

import pytest

import jordanalg.constructions as constructions

from jordanalg.algebra import AlgebraTable, LinearMap, check_identity, ideal_closure, is_ideal
from jordanalg.constructions import (
    AlbertMeta,
    CDMeta,
    SpinMeta,
    albert_type,
    cayley_dickson,
    cd_conjugate,
    cd_norm,
    cd_trace,
    diagonal_spin_factor,
    gamma_involution,
    hermitian_subalgebra,
    involution_check,
    matrix_algebra,
    plus_algebra,
    spin_factor,
)
from jordanalg.errors import (
    BadParameters,
    NotAnInvolution,
    NotClosed,
    NotScalar,
    NotSymmetric,
    NotUnital,
)
from jordanalg.fields import RATIONALS, prime_field
from jordanalg.formats import write_algebra
from jordanalg.linalg import Matrix, Subspace, solve

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)


def scalar_algebra(field):
    return AlgebraTable(field, 1, {(0, 0, 0): field.one()}, labels=("s",), unit=[1])


def full_matrix_table(field, n):
    return matrix_algebra(scalar_algebra(field), n)


def transpose_map(table, n):
    f = table.field
    images = []
    for i in range(n):
        for j in range(n):
            img = [f.zero()] * (n * n)
            img[j * n + i] = f.one()
            images.append(img)
    return LinearMap.from_images(table, images)


@pytest.fixture(scope="module")
def albert5():
    return albert_type(F5, [-1, -1, -1], [1, 1, 1])


def test_plus_algebra_of_m2():
    a = full_matrix_table(F5, 2)
    p = plus_algebra(a)
    assert p.unit_coords() == a.unit_coords()
    assert check_identity(p, "commutative")
    assert check_identity(p, "jordan")
    assert not check_identity(a, "jordan")
    e12 = p.basis_element(1)
    e21 = p.basis_element(2)
    half = F5.half()
    prod = e12 * e21
    assert prod.coords == (half, F5.zero(), F5.zero(), half)


def test_plus_of_commutative_table_is_identical():
    t = diagonal_spin_factor(F5, [1, 2])
    assert plus_algebra(t) == t


def test_involution_check_examples():
    a = full_matrix_table(F5, 2)
    assert involution_check(a, transpose_map(a, 2))
    assert not involution_check(a, LinearMap.identity(a))
    comm = diagonal_spin_factor(F5, [1, 1])
    assert involution_check(comm, LinearMap.identity(comm))


def test_hermitian_symmetric_matrices():
    a = full_matrix_table(F5, 2)
    sym = plus_algebra(a)
    sigma = LinearMap(sym, transpose_map(a, 2).matrix)
    sub, emb = hermitian_subalgebra(sym, sigma)
    assert sub.dim == 3
    assert emb.nrows == 4 and emb.ncols == 3
    for m in range(3):
        col = [emb.rows[r][m] for r in range(4)]
        img = sigma.matrix.apply(col)
        assert list(img) == col
    u = sub.unit_coords()
    assert u is not None
    assert list(emb.apply(u)) == list(sym.unit_coords())


def test_hermitian_rejects_non_involution():
    a = full_matrix_table(F5, 2)
    with pytest.raises(NotAnInvolution):
        hermitian_subalgebra(a, LinearMap.identity(a))


def test_hermitian_not_closed_under_raw_product():
    # symmetric matrices are closed under (xy + yx)/2 but not under xy
    a = full_matrix_table(F5, 2)
    with pytest.raises(NotClosed):
        hermitian_subalgebra(a, transpose_map(a, 2))


def test_hermitian_identity_on_commutative_gives_everything():
    t = diagonal_spin_factor(F5, [1, 2, 3])
    sub, emb = hermitian_subalgebra(t, LinearMap.identity(t))
    assert sub.dim == t.dim
    assert sub == t


def test_symplectic_hermitian_dimension():
    a = full_matrix_table(F5, 4)
    f = F5
    s = Matrix(f, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    cols = [solve(s, [f.one() if r == k else f.zero() for r in range(4)]) for k in range(4)]
    sinv = Matrix(f, list(zip(*cols)))
    images = []
    for i in range(4):
        for j in range(4):
            eji = [[f.one() if (r == j and c == i) else f.zero() for c in range(4)] for r in range(4)]
            prod = sinv @ Matrix(f, eji) @ s
            images.append([prod.rows[r][c] for r in range(4) for c in range(4)])
    sigma = LinearMap.from_images(a, images)
    assert involution_check(a, sigma)
    sym = plus_algebra(a)
    sub, _ = hermitian_subalgebra(sym, LinearMap(sym, sigma.matrix))
    assert sub.dim == 6


def test_spin_factor_shape():
    t = diagonal_spin_factor(F3, [1, 1])
    assert t.dim == 3
    assert t.labels == ("one", "v1", "v2")
    assert t.unit_coords() == (1, 0, 0)
    assert isinstance(t.meta, SpinMeta)
    assert check_identity(t, "jordan")
    v = t.element([0, 1, 2])
    assert (v * v).coords == (2, 0, 0)


def test_spin_factor_rejects_asymmetric_form():
    with pytest.raises(NotSymmetric):
        spin_factor(Matrix(F3, [[0, 1], [2, 0]]))


def test_spin_zero_form_is_not_simple():
    t = spin_factor(Matrix(F3, [[0]]))
    line = Subspace(F3, 2, [[0, 1]])
    closed = ideal_closure(t, line)
    assert closed == line
    assert closed.dim == 1


def test_spin_nondegenerate_is_simple_over_gf3():
    t = diagonal_spin_factor(F3, [1, 2])
    # every nonzero vector generates the whole algebra as an ideal
    seen = set()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                vec = (a, b, c)
                if vec == (0, 0, 0) or vec in seen:
                    continue
                first = next(x for x in vec if x)
                if first != 1:
                    continue
                seen.add(vec)
                closed = ideal_closure(t, Subspace(F3, 3, [vec]))
                assert closed.dim == 3


def test_cayley_dickson_stage_dims_and_laws():
    two, conj2 = cayley_dickson(F7, [1])
    four, conj4 = cayley_dickson(F7, [1, 2])
    eight, conj8 = cayley_dickson(F7, [1, 2, 3])
    assert (two.dim, four.dim, eight.dim) == (2, 4, 8)
    assert check_identity(two, "commutative") and check_identity(two, "associative")
    assert check_identity(four, "associative") and not check_identity(four, "commutative")
    assert not check_identity(eight, "associative")
    assert check_identity(plus_algebra(eight), "jordan")
    for table, conj in ((two, conj2), (four, conj4), (eight, conj8)):
        assert involution_check(table, conj)
        assert isinstance(table.meta, CDMeta)


def test_cayley_dickson_param_validation():
    with pytest.raises(BadParameters):
        cayley_dickson(F5, [])
    with pytest.raises(BadParameters):
        cayley_dickson(F5, [1, 1, 1, 1])
    with pytest.raises(BadParameters):
        cayley_dickson(F5, [1, 0, 1])


def test_cd_trace_norm_frozen_values():
    oct5, _ = cayley_dickson(F5, [-1, -1, -1])
    one = oct5.one()
    e = oct5.basis_element(1)
    assert cd_trace(one).value == 2
    assert cd_norm(one).value == 1
    assert cd_trace(e).value == 0
    # n(e) = -mu1 and mu1 = -1 here
    assert cd_norm(e).value == 1
    assert (e * e).coords == tuple(F5.coerce(x) for x in (-1, 0, 0, 0, 0, 0, 0, 0))


def test_cd_norm_multiplicative_and_scalar_parts():
    import random

    oct3, _ = cayley_dickson(F3, [-1, -1, -1])
    rng = random.Random(11)
    for _ in range(100):
        x = oct3.element([rng.randrange(3) for _ in range(8)])
        y = oct3.element([rng.randrange(3) for _ in range(8)])
        assert (x + cd_conjugate(x)).coords[1:] == (0,) * 7
        assert (x * cd_conjugate(x)).coords[1:] == (0,) * 7
        assert cd_norm(x * y).value == (cd_norm(x) * cd_norm(y)).value


def test_cd_trace_rejects_non_cd_table():
    t = diagonal_spin_factor(F5, [1, 1])
    with pytest.raises(BadParameters):
        cd_trace(t.one())


def test_matrix_algebra_shape():
    m2 = full_matrix_table(F3, 2)
    assert m2.dim == 4
    assert m2.labels == ("e11", "e12", "e21", "e22")
    assert m2.nonzero_count() == 8
    assert m2.unit_coords() == (1, 0, 0, 1)
    assert check_identity(m2, "associative")
    m3 = full_matrix_table(F3, 3)
    assert m3.dim == 9
    assert m3.nonzero_count() == 27
    q4, _ = cayley_dickson(F3, [1, 2])
    over_q = matrix_algebra(q4, 2)
    assert over_q.dim == 16
    assert over_q.labels[0] == "e11_e0"
    assert check_identity(over_q, "associative")


def test_matrix_algebra_requires_unital_coefficients():
    nil = AlgebraTable(F5, 1, {})
    with pytest.raises(NotUnital):
        matrix_algebra(nil, 2)


def test_gamma_involution_validation():
    oct5, conj = cayley_dickson(F5, [-1, -1, -1])
    c3 = matrix_algebra(oct5, 3)
    with pytest.raises(BadParameters):
        gamma_involution(c3, [1, 1], conj.matrix)
    with pytest.raises(BadParameters):
        gamma_involution(c3, [1, 0, 1], conj.matrix)
    sigma = gamma_involution(c3, [1, 2, 3], conj.matrix)
    assert involution_check(c3, sigma)


def test_albert_shape(albert5):
    assert albert5.dim == 27
    assert isinstance(albert5.meta, AlbertMeta)
    assert check_identity(albert5, "jordan")
    assert not check_identity(albert5, "associative")
    assert albert5.labels[0] == "e11"
    assert albert5.labels[1] == "u12_0"
    assert albert5.labels.count("e22") == 1


def test_albert_idempotents(albert5):
    m = albert5.meta
    es = [albert5.element(c) for c in m.idempotents]
    for i, e in enumerate(es):
        assert e * e == e
        for j in range(i + 1, 3):
            assert (e * es[j]).is_zero()
    total = es[0] + es[1] + es[2]
    assert total == albert5.one()


def test_albert_peirce_partition(albert5):
    m = albert5.meta
    dims = {key: space.dim for key, space in m.peirce.items()}
    assert dims == {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 2): 8, (1, 3): 8, (2, 3): 8}
    total = sum(dims.values())
    assert total == 27
    # labels agree with the component a basis vector was assigned to
    for key, space in m.peirce.items():
        for row in space.basis:
            idx = next(i for i, x in enumerate(row) if x)
            label = albert5.labels[idx]
            if key[0] == key[1]:
                assert label == f"e{key[0]}{key[1]}"
            else:
                assert label.startswith(f"u{key[0]}{key[1]}_")


def test_albert_nontrivial_gamma_is_jordan():
    t = albert_type(F7, [1, 2, 3], [1, 2, 3])
    assert t.dim == 27
    assert check_identity(t, "jordan")


def test_albert_rational_build():
    t = albert_type(RATIONALS, [-1, -1, -1], [1, 2, Fraction(1, 3)])
    assert t.dim == 27
    m = t.meta
    assert m.gammas == (1, 2, Fraction(1, 3))
    es = [t.element(c) for c in m.idempotents]
    assert es[0] + es[1] + es[2] == t.one()


def test_albert_param_validation():
    with pytest.raises(BadParameters):
        albert_type(F5, [-1, -1], [1, 1, 1])
    with pytest.raises(BadParameters):
        albert_type(F5, [-1, -1, -1], [1, 0, 1])


# ---------------------------------------------------------------------------
# negative controls for the sparse involution check


def test_involution_check_rejects_order_three_automorphism():
    # cycling v1 -> v2 -> v3 preserves the form diag(1, 1, 1), so it is an
    # (anti-)automorphism of the commutative spin factor; only its square
    # differs from the identity
    t = diagonal_spin_factor(F5, [1, 1, 1])
    images = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]
    cycle = LinearMap.from_images(t, images)
    x, y = t.element([1, 2, 3, 4]), t.element([0, 4, 1, 2])
    assert cycle(x * y) == cycle(y) * cycle(x)
    assert cycle.compose(cycle) != LinearMap.identity(t)
    assert not involution_check(t, cycle)
    with pytest.raises(NotAnInvolution):
        hermitian_subalgebra(t, cycle)


def test_involution_check_rejects_a_map_of_another_table():
    t = diagonal_spin_factor(F5, [1, 1, 1])
    other = diagonal_spin_factor(F5, [1, 1, 2])
    assert not involution_check(t, LinearMap.identity(other))


def _dense_involution_reference(table, sigma):
    """involution_check by dense matrix products, one basis pair at a time."""
    n = table.dim
    if sigma.matrix @ sigma.matrix != Matrix.identity(table.field, n):
        return False
    std = Matrix.identity(table.field, n).rows
    images = [sigma.matrix.apply(vec) for vec in std]
    return all(
        list(sigma.matrix.apply(table.mul_coords(std[i], std[j])))
        == table.mul_coords(images[j], images[i])
        for i in range(n)
        for j in range(n)
    )


@pytest.mark.parametrize("field", [F5, RATIONALS], ids=["GF5", "Q"])
def test_involution_check_matches_dense_reference(field):
    quat, conj = cayley_dickson(field, [-1, 2])
    m2 = full_matrix_table(field, 2)
    cases = [(quat, conj.matrix), (m2, transpose_map(m2, 2).matrix), (m2, Matrix.identity(field, 4))]
    maps = []
    for table, matrix in cases:
        n = table.dim
        maps.append((table, matrix))
        for r, c in ((0, 0), (1, 2), (n - 1, 0)):
            rows = [list(row) for row in matrix.rows]
            rows[r][c] = field.add(rows[r][c], field.one())
            maps.append((table, Matrix(field, rows)))
        # these maps are signed permutations; negating the entry in column c
        # and its mirror keeps the square equal to the identity
        for c in range(n):
            rows = [list(row) for row in matrix.rows]
            r = next(r for r in range(n) if rows[r][c])
            rows[r][c] = field.neg(rows[r][c])
            if r != c:
                rows[c][r] = field.neg(rows[c][r])
            maps.append((table, Matrix(field, rows)))
    verdicts = [involution_check(t, LinearMap(t, m)) for t, m in maps]
    assert verdicts == [_dense_involution_reference(t, LinearMap(t, m)) for t, m in maps]
    assert True in verdicts[1:] and verdicts.count(False) > len(maps) // 2


@pytest.mark.parametrize("field", [F5, RATIONALS], ids=["GF5", "Q"])
def test_involution_check_visits_pairs_reached_through_sigma(field):
    # b0 b0 = b2 is the only product; sigma fixes b0 and b2 and sends b1
    # to b0 - b1, so sigma^2 = id and the law holds on the one nonzero row
    t = AlgebraTable(field, 3, {(0, 0, 2): 1})
    sigma = LinearMap(t, Matrix(field, [[1, 1, 0], [0, -1, 0], [0, 0, 1]]))
    assert sigma.compose(sigma) == LinearMap.identity(t)
    b0 = t.basis_element(0)
    assert sigma(b0 * b0) == sigma(b0) * sigma(b0)
    # b1 b1 = 0, but sigma(b1) sigma(b1) = b0 b0 = b2
    b1 = t.basis_element(1)
    assert sigma(b1 * b1) != sigma(b1) * sigma(b1)
    assert involution_check(t, sigma) is False
    assert _dense_involution_reference(t, sigma) is False


# ---------------------------------------------------------------------------
# the sparse paths against dense references, on tables moved to a random
# basis so that sigma and the fixed basis are dense

TRANSPORT_FIELDS = [F5, prime_field(2**61 - 1), RATIONALS]
TRANSPORT_IDS = ["GF5", "GF(2^61-1)", "Q"]


def _random_basis(field, n, rng):
    """An invertible n x n matrix P and its inverse, with random entries."""
    while True:
        if field.is_rational:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        p = Matrix(field, rows)
        if p.rank() == n:
            break
    std = Matrix.identity(field, n).rows
    return p, Matrix(field, list(zip(*(solve(p, e) for e in std))))


def _transport(table, sigma, p, p_inv):
    """The table and the map sigma in the basis of the columns of P."""
    f = table.field
    n = table.dim
    cols = list(zip(*p.rows))
    entries = {}
    for i in range(n):
        for j in range(n):
            for k, v in enumerate(p_inv.apply(table.mul_coords(cols[i], cols[j]))):
                entries[(i, j, k)] = v
    moved = AlgebraTable(f, n, entries, unit=p_inv.apply(table.unit_coords()))
    return moved, LinearMap(moved, p_inv @ sigma @ p)


def _transported_cases(field, seed):
    """(table, sigma) for M_2 with the transpose and the quaternions with
    their conjugation, each moved to a random basis."""
    rng = random.Random(f"transport-{seed}-{field}")
    quat, conj = cayley_dickson(field, [-1, 2])
    m2 = full_matrix_table(field, 2)
    cases = []
    for table, sigma in ((m2, transpose_map(m2, 2).matrix), (quat, conj.matrix)):
        p, p_inv = _random_basis(field, table.dim, rng)
        cases.append(_transport(table, sigma, p, p_inv))
    return cases


def _hermitian_reference(table, sigma):
    """hermitian_subalgebra by one Subspace.coords_of per product of fixed
    basis vectors, or None when the fixed space is not closed."""
    f = table.field
    fixed = (sigma.matrix - Matrix.identity(f, table.dim)).nullspace()
    entries = {}
    for a, x in enumerate(fixed.basis):
        for b, y in enumerate(fixed.basis):
            coords = fixed.coords_of(table.mul_coords(x, y))
            if coords is None:
                return None
            for k, v in enumerate(coords):
                entries[(a, b, k)] = v
    unit = fixed.coords_of(table.unit_coords())
    return AlgebraTable(f, fixed.dim, entries, unit=unit), Matrix(f, list(zip(*fixed.basis)))


@pytest.mark.parametrize("field", TRANSPORT_FIELDS, ids=TRANSPORT_IDS)
def test_involution_check_on_dense_maps_matches_dense_reference(field):
    maps = []
    for table, sigma in _transported_cases(field, 1):
        assert sum(1 for row in sigma.matrix.rows for x in row if x) > table.dim
        maps.append((table, sigma.matrix))
        for r, c in ((0, 0), (1, 2), (table.dim - 1, 0)):
            rows = [list(row) for row in sigma.matrix.rows]
            rows[r][c] = field.add(rows[r][c], field.one())
            maps.append((table, Matrix(field, rows)))
        maps.append((table, Matrix.identity(field, table.dim)))
    verdicts = [involution_check(t, LinearMap(t, m)) for t, m in maps]
    assert verdicts == [_dense_involution_reference(t, LinearMap(t, m)) for t, m in maps]
    # per table: sigma, three one-entry perturbations, the identity
    assert verdicts == [True, False, False, False, False] * 2


@pytest.mark.parametrize("field", TRANSPORT_FIELDS, ids=TRANSPORT_IDS)
def test_hermitian_on_dense_basis_matches_coords_of_reference(field):
    # symmetric 2x2 matrices, and the scalars of the quaternions
    for (table, sigma), dim in zip(_transported_cases(field, 2), (3, 1)):
        sym = plus_algebra(table)
        sub, embedding = hermitian_subalgebra(sym, LinearMap(sym, sigma.matrix))
        ref_sub, ref_embedding = _hermitian_reference(sym, sigma)
        assert sub == ref_sub and embedding == ref_embedding
        assert sub.dim == dim and sub.unit_coords() is not None
        # the raw product of the transported M_2 does not close its
        # symmetric matrices; the quaternions' scalars are closed
        closed = _hermitian_reference(table, sigma)
        if closed is None:
            with pytest.raises(NotClosed):
                hermitian_subalgebra(table, sigma)
        else:
            assert hermitian_subalgebra(table, sigma)[0] == closed[0]


def test_albert_type_solves_only_for_unit_and_idempotents(monkeypatch):
    solved = []
    real = Subspace.coords_of

    def spy(self, vec):
        solved.append(tuple(vec))
        return real(self, vec)

    def dense_product(*args):
        raise AssertionError("albert_type formed a dense product")

    monkeypatch.setattr(Subspace, "coords_of", spy)
    monkeypatch.setattr(AlgebraTable, "mul_coords", dense_product)
    t = albert_type(F7, [3, 5, 6], [1, 3, 2])
    unit_72 = tuple(1 if r in (0, 32, 64) else 0 for r in range(72))
    assert solved == [unit_72] + [
        tuple(1 if r == slot else 0 for r in range(72)) for slot in (0, 32, 64)
    ]
    assert list(t.meta.embedding.apply(t.unit_coords())) == list(unit_72)


def _flip_gamma_entries(monkeypatch, symmetric: bool):
    """Make the first 72x72 map built by albert_type (the gamma map) wrong
    in one entry: sign of the image of u E_12, and with `symmetric` also of
    its mirror entry, which keeps the square equal to the identity."""
    real = constructions.LinearMap
    flipped = []

    def patched(table, matrix):
        if table.dim == 72 and not flipped:
            f = matrix.field
            rows = [list(r) for r in matrix.rows]
            src = 8  # coefficient basis vector 0 in slot (1, 2)
            dst = next(r for r in range(72) if rows[r][src])
            rows[dst][src] = f.neg(rows[dst][src])
            if symmetric:
                rows[src][dst] = f.neg(rows[src][dst])
            matrix = Matrix(f, rows)
            flipped.append(matrix)
        return real(table, matrix)

    monkeypatch.setattr(constructions, "LinearMap", patched)
    return flipped


@pytest.mark.parametrize("field", [F7, RATIONALS], ids=["GF7", "Q"])
def test_albert_rejects_gamma_map_with_flipped_entry(monkeypatch, field):
    flipped = _flip_gamma_entries(monkeypatch, symmetric=False)
    with pytest.raises(NotAnInvolution):
        albert_type(field, [1, 2, 3], [1, 2, 3])
    assert len(flipped) == 1
    assert flipped[0] @ flipped[0] != Matrix.identity(field, 72)


@pytest.mark.parametrize("field", [F7, RATIONALS], ids=["GF7", "Q"])
def test_albert_rejects_gamma_map_with_flipped_pair(monkeypatch, field):
    # the square is still the identity: the product law is what fails
    flipped = _flip_gamma_entries(monkeypatch, symmetric=True)
    with pytest.raises(NotAnInvolution):
        albert_type(field, [1, 2, 3], [1, 2, 3])
    assert len(flipped) == 1
    assert flipped[0] @ flipped[0] == Matrix.identity(field, 72)


# ---------------------------------------------------------------------------
# golden tables: the written files of fixed Albert builds


@pytest.mark.parametrize(
    "field, mus, gammas, digest",
    [
        (F5, (2, 3, 1), (1, 2, 4),
         "b247ed4f6d78b52c3ec2ef45ba9038c3d3b2f966daa4732815cac76453d10bfc"),
        (F7, (3, 5, 6), (1, 3, 2),
         "f45c775774cde9a2948dcd98df88584b6196641bc7908bbcbd6081b146e1486c"),
        (RATIONALS, (-1, 2, -3), (1, -1, 2),
         "789153329a41c831e9fa266e0a57de852311ed8c52cf2a8d4a57a27b988b35bf"),
        # residues past 2^31 keep every sum of products on Python ints
        (prime_field(2**61 - 1), (2**61 - 2, 2, 5), (1, 2**40, 3),
         "d4876ccc544cff8bb96313a53f937cec14069a87118f06d7b9db7437ea902883"),
    ],
    ids=["GF5", "GF7", "Q", "GF(2^61-1)"],
)
def test_albert_written_file_is_golden(field, mus, gammas, digest):
    text = write_algebra(albert_type(field, mus, gammas))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the one-pass replay certificates against the per-pair and per-product
# checks they replace: involution_check, _fixed_structure and the unit laws


def _combine_terms(p, terms, vectors):
    """Nonzero coordinates {r: value} of sum(c * vectors[k] for k, c in
    terms), each vector given as its (index, raw value) terms."""
    acc = {}
    for k, c in terms:
        for r, v in vectors[k]:
            acc[r] = acc.get(r, 0) + c * v
    if p:
        return {r: w for r, v in acc.items() if (w := v % p)}
    return {r: v for r, v in acc.items() if v}


def _product_terms(table):
    """x * y on (index, raw value) terms, from the structure rows of the
    term pairs."""
    rows = table._rows

    def product(xs, ys):
        pairs = [((i, j), a * b) for i, a in xs for j, b in ys if (i, j) in rows]
        return _combine_terms(table.field.p, pairs, rows)

    return product


def _jordan_terms(table):
    """x o y = (xy + yx) / 2 on (index, raw value) terms."""
    rows, half = table._rows, table.field.half()

    def product(xs, ys):
        terms = [(key, half * a * b) for i, a in xs for j, b in ys for key in ((i, j), (j, i)) if key in rows]
        return _combine_terms(table.field.p, terms, rows)

    return product


def _involution_by_pairs(table, sigma):
    """involution_check with one comparison per basis pair (i, j) that a
    side can be nonzero on, and sigma^2 = id one column at a time."""
    n, p = table.dim, table.field.p
    rows = sigma.matrix.rows
    cols = [[(r, rows[r][j]) for r in range(n) if rows[r][j]] for j in range(n)]
    if any(_combine_terms(p, cols[j], cols) != {j: table.field.one()} for j in range(n)):
        return False
    support = [[j for j, v in enumerate(row) if v] for row in rows]
    pairs = set(table._rows)
    pairs.update((i, j) for a, b in table._rows for j in support[a] for i in support[b])
    product = _product_terms(table)
    return all(
        _combine_terms(p, table._rows.get((i, j), ()), cols) == product(cols[j], cols[i])
        for i, j in pairs
    )


def _fixed_by_products(table, sigma, product):
    """(fixed basis, nonzero constants, unit) with one certified product
    per ordered pair of fixed basis vectors, or "NotClosed"."""
    f = table.field
    fixed = (sigma.matrix - Matrix.identity(f, table.dim)).nullspace()
    basis = [[(r, v) for r, v in enumerate(vec) if v] for vec in fixed.basis]
    slot = {pivot: k for k, pivot in enumerate(fixed.pivots)}
    entries = {}
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            prod = product(x, y)
            coords = [(slot[r], v) for r, v in prod.items() if r in slot]
            if _combine_terms(f.p, coords, basis) != prod:
                return "NotClosed"
            for k, v in coords:
                entries[(a, b, k)] = v
    return fixed.basis, entries, fixed.coords_of(table.unit_coords())


def _fixed_outcome(table, sigma, scale=None):
    """What constructions._fixed_structure gives, in the form of
    _fixed_by_products."""
    try:
        fixed, entries, unit = constructions._fixed_structure(table, sigma, scale)
    except NotClosed:
        return "NotClosed"
    return fixed.basis, {key: v for key, v in entries.items() if v}, unit


P61 = prime_field(2**61 - 1)
C3_CASES = [
    (F5, (2, 3, 1), (1, 2, 4)),
    (F5, (1, 1, 1), (1, 1, 1)),
    (F5, (4, 2, 3), (2, 3, 1)),
    (F7, (3, 5, 6), (1, 3, 2)),
    (F7, (1, 2, 3), (1, 2, 4)),
    (F7, (6, 6, 6), (1, 1, 1)),
    (RATIONALS, (-1, 2, -3), (1, -1, 2)),
    (RATIONALS, (-1, -1, -1), (1, 1, 1)),
    (RATIONALS, (Fraction(1, 2), 3, -5), (2, Fraction(-1, 3), 7)),
    (P61, (3, 5, 6), (1, 3, 2)),
    (P61, (2**61 - 2, 2, 5), (1, 2**40, 3)),
    (P61, (2**50, 7, 2**61 - 3), (5, 2**33, 11)),
]
C3_IDS = [f"{f}-{m}" for m, (f, _, _) in enumerate(C3_CASES)]


def _c3_and_gamma(field, mus, gammas):
    coeff, conj = cayley_dickson(field, mus)
    c3 = matrix_algebra(coeff, 3)
    return c3, gamma_involution(c3, gammas, conj.matrix)


@pytest.mark.parametrize("field, mus, gammas", C3_CASES, ids=C3_IDS)
def test_involution_check_on_c3_matches_per_pair_reference(field, mus, gammas):
    c3, sigma = _c3_and_gamma(field, mus, gammas)
    maps = [sigma.matrix, Matrix.identity(field, 72)]
    # u E_12 -> its image negated: the square breaks; with the mirror
    # entry negated too, only the product law breaks
    for mirror in (False, True):
        rows = [list(r) for r in sigma.matrix.rows]
        dst = next(r for r in range(72) if rows[r][8])
        rows[dst][8] = field.neg(rows[dst][8])
        if mirror:
            rows[8][dst] = field.neg(rows[8][dst])
        maps.append(Matrix(field, rows))
    verdicts = [involution_check(c3, LinearMap(c3, m)) for m in maps]
    assert verdicts == [_involution_by_pairs(c3, LinearMap(c3, m)) for m in maps]
    assert verdicts == [True, False, False, False]


@pytest.mark.parametrize("field, mus, gammas", C3_CASES, ids=C3_IDS)
def test_fixed_structure_on_c3_matches_per_product_reference(field, mus, gammas):
    c3, sigma = _c3_and_gamma(field, mus, gammas)
    outcome = _fixed_outcome(c3, sigma, field.half())
    assert outcome == _fixed_by_products(c3, sigma, _jordan_terms(c3))
    basis, entries, unit = outcome
    assert len(basis) == 27 and unit is not None
    assert AlgebraTable(field, 27, entries, unit=unit) == albert_type(field, mus, gammas)
    # hermitian matrices are not closed under the matrix product itself
    assert _fixed_outcome(c3, sigma) == _fixed_by_products(c3, sigma, _product_terms(c3)) == "NotClosed"


@pytest.mark.parametrize("field", TRANSPORT_FIELDS, ids=TRANSPORT_IDS)
def test_replay_certificates_on_dense_maps_match_references(field):
    outcomes = []
    for seed in (3, 4):
        for table, sigma in _transported_cases(field, seed):
            maps = [sigma.matrix, Matrix.identity(field, table.dim)]
            for r, c in ((0, 1), (2, 2), (table.dim - 1, 1)):
                rows = [list(row) for row in sigma.matrix.rows]
                rows[r][c] = field.add(rows[r][c], field.one())
                maps.append(Matrix(field, rows))
            verdicts = [involution_check(table, LinearMap(table, m)) for m in maps]
            assert verdicts == [_involution_by_pairs(table, LinearMap(table, m)) for m in maps]
            assert verdicts == [True] + [False] * 4
            sym = plus_algebra(table)
            for t, scale, product in (
                (table, field.half(), _jordan_terms(table)),
                (sym, None, _product_terms(sym)),
                (table, None, _product_terms(table)),
            ):
                outcome = _fixed_outcome(t, sigma, scale)
                assert outcome == _fixed_by_products(t, sigma, product)
                outcomes.append(outcome == "NotClosed")
    # per seed: M_2 symmetrized twice, then raw (not closed); the
    # quaternions' scalars under all three
    assert outcomes == [False, False, True, False, False, False] * 2


def _unit_by_operators(table, coords):
    """The unit laws as two dense operators: L_u = R_u = id."""
    identity = [list(row) for row in Matrix.identity(table.field, table.dim).rows]
    return all(table.mult_operator(coords, side) == identity for side in ("left", "right"))


@pytest.mark.parametrize("field", [F5, RATIONALS], ids=["GF5", "Q"])
def test_unit_that_fails_one_law_only_is_rejected(field):
    # b_i b_j = b_j makes every b_i a left unit and no b_i a right unit;
    # b_i b_j = b_i is the mirror
    n = 3
    left_units = AlgebraTable(field, n, {(i, j, j): 1 for i in range(n) for j in range(n)})
    right_units = AlgebraTable(field, n, {(i, j, i): 1 for i in range(n) for j in range(n)})
    u = [1, 0, 0]
    for table, holds in ((left_units, "left"), (right_units, "right")):
        assert not check_identity(table, "commutative")
        fails = "right" if holds == "left" else "left"
        identity = [list(row) for row in Matrix.identity(field, n).rows]
        assert table.mult_operator(u, holds) == identity
        assert table.mult_operator(u, fails) != identity
        assert table._acts_as_unit(u) is False
        with pytest.raises(NotUnital):
            AlgebraTable(field, n, {(i, j, k): v for i, j, k, v in table.sc_items()}, unit=u)


@pytest.mark.parametrize("field", [F5, RATIONALS], ids=["GF5", "Q"])
def test_unit_laws_match_dense_operators(field):
    rng = random.Random(f"unit-laws-{field}")
    quat, _ = cayley_dickson(field, [-1, 2])
    m2 = full_matrix_table(field, 2)
    for table in (quat, m2, plus_algebra(m2)):
        unit = table.unit_coords()
        candidates = [unit, [field.zero()] * table.dim]
        for _ in range(6):
            u = list(unit)
            k = rng.randrange(table.dim)
            u[k] = field.add(u[k], field.coerce(rng.choice([1, 2, -1])))
            candidates.append(u)
        verdicts = [table._acts_as_unit(u) for u in candidates]
        assert verdicts == [_unit_by_operators(table, u) for u in candidates]
        assert verdicts == [True] + [False] * 7


@pytest.mark.parametrize("field", TRANSPORT_FIELDS, ids=TRANSPORT_IDS)
def test_involution_check_rejects_dense_order_three_automorphism(field):
    # the cycle v1 -> v2 -> v3 keeps sigma(xy) = sigma(y) sigma(x) on the
    # commutative spin factor of diag(1, 1, 1); only sigma^2 = id fails
    t = diagonal_spin_factor(field, [1, 1, 1])
    cycle = Matrix(field, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    rng = random.Random(f"dense-cycle-{field}")
    moved, sigma = _transport(t, cycle, *_random_basis(field, 4, rng))
    assert sum(1 for row in sigma.matrix.rows for x in row if x) > 4
    assert sigma.matrix @ sigma.matrix != Matrix.identity(field, 4)
    x, y = moved.element([1, 2, 3, 4]), moved.element([0, 4, 1, 2])
    assert sigma(x * y) == sigma(y) * sigma(x)
    assert involution_check(moved, sigma) is False
    assert _involution_by_pairs(moved, sigma) is False


# ---------------------------------------------------------------------------
# the fixed space of a monomial involution, read off sigma, and tables
# built from raw values without coercing them again


def _nullspace_fixed_space(sigma):
    return (sigma - Matrix.identity(sigma.field, sigma.nrows)).nullspace()


@pytest.mark.parametrize("field, mus, gammas", C3_CASES, ids=C3_IDS)
def test_monomial_fixed_space_matches_nullspace_on_c3(field, mus, gammas):
    _, sigma = _c3_and_gamma(field, mus, gammas)
    fixed = constructions._monomial_fixed_space(sigma.matrix)
    reference = _nullspace_fixed_space(sigma.matrix)
    assert fixed is not None and fixed.dim == 27
    assert fixed.basis == reference.basis and fixed.pivots == reference.pivots
    # the same raw types, so written files and metadata cannot differ
    assert repr(fixed.basis) == repr(reference.basis)


@pytest.mark.parametrize("field", [F5, F7, RATIONALS, P61], ids=["GF5", "GF7", "Q", "GF(2^61-1)"])
def test_monomial_fixed_space_matches_nullspace_on_transpose_of_m3(field):
    m3 = full_matrix_table(field, 3)
    sigma = transpose_map(m3, 3)
    assert involution_check(m3, sigma)
    fixed = constructions._monomial_fixed_space(sigma.matrix)
    reference = _nullspace_fixed_space(sigma.matrix)
    assert fixed.dim == 6
    assert fixed.basis == reference.basis and fixed.pivots == reference.pivots
    # and on the signed transpose E_ij -> -E_ji, whose fixed space is the
    # skew matrices: pairs b_i - b_j and no fixed diagonal
    negated = sigma.matrix.scale(-1)
    fixed = constructions._monomial_fixed_space(negated)
    assert fixed.dim == 3 and fixed == _nullspace_fixed_space(negated)


def test_monomial_fixed_space_declines_maps_it_cannot_certify():
    dense = _transported_cases(F5, 1)[0][1].matrix
    assert constructions._monomial_fixed_space(dense) is None
    # monomial, but 2 b_0 is neither fixed nor negated: the counts miss n
    scaled = Matrix(F5, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert constructions._monomial_fixed_space(scaled) is None
    # a 3-cycle is monomial, but its pairs do not close up
    cycle = Matrix(F5, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert constructions._monomial_fixed_space(cycle) is None


def _count_nullspace_calls(monkeypatch):
    calls = []
    real = Matrix.nullspace

    def spy(self):
        calls.append((self.nrows, self.ncols))
        return real(self)

    monkeypatch.setattr(Matrix, "nullspace", spy)
    return calls


@pytest.mark.parametrize("field", [F7, RATIONALS], ids=["GF7", "Q"])
def test_albert_type_reads_the_fixed_space_off_sigma(monkeypatch, field):
    calls = _count_nullspace_calls(monkeypatch)
    albert_type(field, [1, 2, 3], [1, 2, 4])
    assert calls == []


@pytest.mark.parametrize("field", TRANSPORT_FIELDS, ids=TRANSPORT_IDS)
def test_hermitian_on_a_dense_map_takes_the_nullspace(monkeypatch, field):
    table, sigma = _transported_cases(field, 1)[0]
    sym = plus_algebra(table)
    calls = _count_nullspace_calls(monkeypatch)
    sub, _ = hermitian_subalgebra(sym, LinearMap(sym, sigma.matrix))
    assert calls == [(4, 4)] and sub.dim == 3
    # the transpose of M_2 itself is monomial and takes no nullspace
    sym = plus_algebra(full_matrix_table(field, 2))
    transpose = transpose_map(sym, 2)
    sub, embedding = hermitian_subalgebra(sym, transpose)
    assert calls == [(4, 4)] and sub.dim == 3
    assert embedding == Matrix._wrap(field, zip(*_nullspace_fixed_space(transpose.matrix).basis))


def _c3_table_parts(field):
    coeff, _ = cayley_dickson(field, [1, 2, 3])
    c3 = matrix_algebra(coeff, 3)
    entries = {(i, j, k): v for i, j, k, v in c3.sc_items()}
    return c3, entries


@pytest.mark.parametrize("field", [F7, RATIONALS, P61], ids=["GF7", "Q", "GF(2^61-1)"])
def test_raw_table_equals_the_coerced_table(field):
    c3, entries = _c3_table_parts(field)
    meta = object()
    raw = AlgebraTable._wrap(field, 72, entries, labels=c3.labels, unit=list(c3.unit), meta=meta)
    coerced = AlgebraTable(field, 72, entries, labels=c3.labels, unit=c3.unit, meta=meta)
    assert raw == coerced == c3
    assert raw._rows == coerced._rows and raw.unit == coerced.unit
    assert raw.labels == coerced.labels and raw.meta is coerced.meta
    assert isinstance(raw.unit, tuple)
    # and without labels or unit
    bare = AlgebraTable._wrap(field, 72, entries)
    assert bare == AlgebraTable(field, 72, entries) and bare.unit is None and bare.labels is None


@pytest.mark.parametrize("field", [F7, RATIONALS], ids=["GF7", "Q"])
def test_raw_table_rejects_a_wrong_unit(field):
    c3, entries = _c3_table_parts(field)
    wrong = list(c3.unit)
    wrong[32] = field.zero()  # drop E_22 from the identity matrix
    with pytest.raises(NotUnital):
        AlgebraTable._wrap(field, 72, entries, unit=wrong)
    with pytest.raises(NotUnital):
        AlgebraTable._wrap(field, 72, entries, unit=[field.zero()] * 72)
    with pytest.raises(BadParameters):
        AlgebraTable._wrap(field, 72, entries, unit=c3.unit[:-1])


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling read off the diagonal conjugation


def _reference_double(table, conj, mu):
    """One doubling from general operator products: column j of
    L_{x_i} conj is x_i conj(x_j), of R_{x_i} conj it is conj(x_j) x_i."""
    f = table.field
    d = table.dim
    zero = f.zero()
    entries = {}
    for i, j, k, v in table.sc_items():
        entries[(i, j, k)] = v
        entries[(j, i + d, k + d)] = v
    for i in range(d):
        xi = table.basis_element(i).coords
        left, right = (
            (Matrix._wrap(f, table.mult_operator(xi, side)) @ conj).rows for side in ("left", "right")
        )
        for k in range(d):
            for j in range(d):
                if left[k][j]:
                    entries[(i + d, j, k + d)] = left[k][j]
                if right[k][j]:
                    entries[(i + d, j + d, k)] = f.mul(mu, right[k][j])
    unit = [f.one()] + [zero] * (2 * d - 1)
    doubled = AlgebraTable._wrap(f, 2 * d, entries, unit=unit)
    conj_rows = [list(row) + [zero] * d for row in conj.rows] + [[zero] * (2 * d) for _ in range(d)]
    for i in range(d):
        conj_rows[i + d][i + d] = f.neg(f.one())
    return doubled, Matrix._wrap(f, conj_rows)


P31 = prime_field(2**31 - 1)


@pytest.mark.parametrize("field", [F3, F5, F7, P31, RATIONALS], ids=["GF3", "GF5", "GF7", "GF(2^31-1)", "Q"])
@pytest.mark.parametrize("mus", [[1], [-1], [2, 3], [-1, -1], [1, 2, 3], [-1, 2, -1], [3, 3, 2]])
def test_doubling_from_the_diagonal_conjugation_matches_operator_products(field, mus):
    if any(field.coerce(m) == 0 for m in mus):
        pytest.skip("doubling scalar vanishes in this field")
    table = AlgebraTable(field, 1, {(0, 0, 0): 1}, unit=[1])
    conj = Matrix.identity(field, 1)
    for stage, mu in enumerate(mus, start=1):
        table, conj = _reference_double(table, conj, field.coerce(mu))
        built, built_conj = cayley_dickson(field, mus[:stage])
        assert built == table and built_conj.matrix == conj
        assert built.labels == tuple(f"e{t}" for t in range(2**stage))
        # the conjugation stays diagonal, with +-1 on the diagonal
        minus = field.neg(field.one())
        for r, row in enumerate(built_conj.matrix.rows):
            assert all(not v for c, v in enumerate(row) if c != r)
            assert row[r] in (field.one(), minus)
