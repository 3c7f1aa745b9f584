import itertools
import math
import random
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanalg import algebra, derivations
from jordanalg.algebra import AlgebraTable, LinearMap, invert_element, split_null_extension
from jordanalg.constructions import (
    albert_type,
    cayley_dickson,
    diagonal_spin_factor,
    matrix_algebra,
    plus_algebra,
    spin_factor,
)
from jordanalg.derivations import (
    DerivationSpace,
    albert_div_witness,
    construct_spin_div,
    derivation_space,
    div_reduction,
    div_search,
    enumerate_ideals,
    extend_derivation_diagonal,
    extend_derivation_eps,
    has_invertible_values,
    inner_assoc_derivation,
    is_derivation,
    largest_ideal_in_kernel,
    sample_derivation,
    simplicity_scan,
    spin_div_criterion,
)
from jordanalg.errors import (
    AlgebraMismatch,
    BadParameters,
    CapExceeded,
    CertificationError,
    CriterionNotSatisfied,
    FieldMismatch,
    NotADerivation,
    NotAlbertType,
    NotAssociative,
    NotFinite,
    NotUnital,
)
from jordanalg.fields import Field, is_prime, prime_field
from jordanalg.jordan import jordan_inverse, spin_norm
from jordanalg.linalg import (
    Matrix,
    Subspace,
    _identity_raw,
    combine_raw,
    diagonalize_symmetric_form,
    dot_raw,
    rref_raw,
    solve_raw,
)

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
Q = Field("Q")


def scalar_algebra(field):
    return AlgebraTable(field, 1, {(0, 0, 0): 1}, unit=(1,))


@pytest.fixture(scope="module")
def albert5():
    return albert_type(F5, [-1, -1, -1], [1, 1, 1])


@pytest.fixture(scope="module")
def spin3():
    return diagonal_spin_factor(F3, [1, 1])


@pytest.fixture(scope="module")
def spin3_div(spin3):
    pair = spin_div_criterion(spin3.meta.gram)
    return construct_spin_div(spin3, *pair)


@pytest.fixture(scope="module")
def m2_gf3():
    return matrix_algebra(scalar_algebra(F3), 2)


# ---------------------------------------------------------------------------
# is_derivation


def test_zero_map_is_derivation(spin3):
    assert is_derivation(spin3, LinearMap.zero(spin3))


def test_identity_is_not_derivation(spin3):
    assert not is_derivation(spin3, LinearMap.identity(spin3))


def test_frozen_spin_rotation_is_derivation(spin3):
    rot = LinearMap(spin3, Matrix(F3, [[0, 0, 0], [0, 0, 2], [0, 1, 0]]))
    assert is_derivation(spin3, rot)


def test_is_derivation_rejects_foreign_map(spin3, m2_gf3):
    with pytest.raises(AlgebraMismatch):
        is_derivation(spin3, LinearMap.zero(m2_gf3))


# ---------------------------------------------------------------------------
# derivation_space


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spin_derivation_dimension(n):
    table = diagonal_spin_factor(F5, [1] * n)
    assert derivation_space(table).dim == n * (n - 1) // 2


def test_octonion_derivation_dimension():
    octonions, _ = cayley_dickson(F5, [-1, -1, -1])
    assert derivation_space(octonions).dim == 14


def test_albert_derivation_dimension(albert5):
    assert derivation_space(albert5).dim == 52


def test_albert_derivation_dimension_gf7():
    table = albert_type(F7, [-1, -1, -1], [1, 1, 1])
    assert derivation_space(table).dim == 52


def test_derivation_basis_maps_are_derivations_and_kill_unit():
    table = diagonal_spin_factor(F7, [1, 2, 3])
    space = derivation_space(table)
    assert space.dim == 3
    one = table.one()
    for bmap in space.basis:
        assert is_derivation(table, bmap)
        assert bmap.apply(one).is_zero()


# primes on both sides of 2^31, where the staged int64 elimination stops
# being safe, far beyond it, and past int64 itself
LARGE_PRIMES = (2**31 - 1, 2**31 + 11, 2**33 + 17, 2**62 + 135, 2**64 + 13)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_derivation_space_exact_for_large_primes(p):
    t = diagonal_spin_factor(prime_field(p), [1, 1, 1])
    space = derivation_space(t)
    # so(3) of the form diag(1, 1, 1)
    assert space.dim == 3
    for m in space.basis:
        assert is_derivation(t, m)
        assert not any(m.matrix.apply(t.unit_coords()))


def test_derivation_space_is_cached(spin3):
    assert derivation_space(spin3) is derivation_space(spin3)


def test_leibniz_cap_bounds_the_system_size(monkeypatch):
    # the commutative 27-dim Albert system stays far below the cap
    assert 378 * 27**3 * 8 < derivations.LEIBNIZ_BYTE_CAP // 10
    # a commutative 3-dim table: 6 pairs i <= j, 3 * 9 int64 entries each
    size = 6 * 3**3 * 8
    monkeypatch.setattr(derivations, "LEIBNIZ_BYTE_CAP", size - 1)
    with pytest.raises(CapExceeded, match=f"needs {size} bytes"):
        derivation_space(diagonal_spin_factor(F3, [1, 1]))
    monkeypatch.setattr(derivations, "LEIBNIZ_BYTE_CAP", size)
    assert derivation_space(diagonal_spin_factor(F3, [1, 1])).dim == 1


def test_leibniz_cap_is_checked_before_the_structure_tensor(monkeypatch):
    monkeypatch.setattr(algebra, "JORDAN_BYTE_CAP", 0)
    monkeypatch.setattr(derivations, "LEIBNIZ_BYTE_CAP", 0)
    with pytest.raises(CapExceeded, match="the Leibniz system of a 3-dim table needs"):
        derivation_space(diagonal_spin_factor(F3, [1, 1]))


def _limit_address_space():
    """Cap a child's address space at 2 GiB, so that an allocation the cap
    should have refused ends in MemoryError, not in the host's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def test_oversized_leibniz_system_is_refused_before_allocation():
    # M_8 over GF(3): 4096 pairs x 64^3 int64 entries, about 8.6 GB
    code = (
        "from jordanalg.algebra import AlgebraTable\n"
        "from jordanalg.constructions import matrix_algebra\n"
        "from jordanalg.derivations import derivation_space\n"
        "from jordanalg.errors import CapExceeded\n"
        "from jordanalg.fields import prime_field\n"
        "F3 = prime_field(3)\n"
        "try:\n"
        "    derivation_space(matrix_algebra(AlgebraTable(F3, 1, {(0, 0, 0): 1}, unit=[1]), 8))\n"
        "except CapExceeded as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, preexec_fn=_limit_address_space
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "the Leibniz system of a 64-dim table needs 8589934592 bytes, over the cap of 1073741824\n"
    )


def test_combination_length_mismatch(spin3):
    space = derivation_space(spin3)
    with pytest.raises(BadParameters):
        space.combination([1, 2])


def test_rational_derivation_space_spin():
    table = diagonal_spin_factor(Q, [1, 1, 1])
    space = derivation_space(table)
    assert space.dim == 3
    for bmap in space.basis:
        assert is_derivation(table, bmap)


# ---------------------------------------------------------------------------
# inner_assoc_derivation


def test_inner_derivation_by_central_element_is_zero(m2_gf3):
    assert inner_assoc_derivation(m2_gf3, m2_gf3.one()).is_zero()


def test_inner_derivation_frozen_instance(m2_gf3):
    a = m2_gf3.element([0, 1, 2, 0])
    dmap = inner_assoc_derivation(m2_gf3, a)
    assert dmap.image().dim == 2
    assert dmap.kernel().dim == 2


def test_inner_derivation_leibniz_random(m2_gf3):
    rng = random.Random(5)
    for _ in range(20):
        a = m2_gf3.element([rng.randrange(3) for _ in range(4)])
        dmap = inner_assoc_derivation(m2_gf3, a)
        assert is_derivation(m2_gf3, dmap)


def test_inner_derivation_rejects_nonassociative(spin3):
    with pytest.raises(NotAssociative):
        inner_assoc_derivation(spin3, spin3.one())


# ---------------------------------------------------------------------------
# has_invertible_values


def test_zero_map_not_div_with_note(spin3):
    report = has_invertible_values(spin3, LinearMap.zero(spin3))
    assert report.verdict == "not_div"
    assert report.witness is None
    assert report.note


def test_non_derivation_rejected(spin3):
    with pytest.raises(NotADerivation):
        has_invertible_values(spin3, LinearMap.identity(spin3))


def test_unitless_rejected():
    table = AlgebraTable(F3, 1, {})
    with pytest.raises(NotUnital):
        has_invertible_values(table, LinearMap.zero(table))


def test_spin_gf3_rotation_is_div(spin3, spin3_div):
    report = has_invertible_values(spin3, spin3_div)
    assert report.verdict == "div"
    assert report.method == "exhaustive"
    assert report.is_derivation


def test_verdict_is_scaling_invariant(spin3, spin3_div):
    doubled = spin3_div.scale(2)
    assert has_invertible_values(spin3, doubled).verdict == "div"


def test_spin_gf5_rotation_not_div_with_sound_witness():
    table = diagonal_spin_factor(F5, [1, 1])
    space = derivation_space(table)
    assert space.dim == 1
    dmap = space.basis[0]
    report = has_invertible_values(table, dmap)
    assert report.verdict == "not_div"
    value = dmap.apply(report.witness)
    assert not value.is_zero()
    assert jordan_inverse(value) is None


def test_inner_matrix_derivation_div(m2_gf3):
    dmap = inner_assoc_derivation(m2_gf3, m2_gf3.element([0, 1, 2, 0]))
    report = has_invertible_values(m2_gf3, dmap)
    assert report.verdict == "div"
    assert report.method == "exhaustive"


def test_inner_matrix_derivation_div_on_plus_algebra(m2_gf3):
    dmap = inner_assoc_derivation(m2_gf3, m2_gf3.element([0, 1, 2, 0]))
    plus = plus_algebra(m2_gf3)
    shared = LinearMap(plus, dmap.matrix)
    assert is_derivation(plus, shared)
    assert has_invertible_values(plus, shared).verdict == "div"


def test_spin_norm_method_on_gf3(spin3, spin3_div):
    # a tiny cap pushes the ladder past exhaustive enumeration
    report = has_invertible_values(spin3, spin3_div, point_cap=1)
    assert report.verdict == "div"
    assert report.method == "spin_norm"


def test_spin_norm_method_finds_isotropic_value_gf5():
    table = diagonal_spin_factor(F5, [1, 1])
    dmap = derivation_space(table).basis[0]
    report = has_invertible_values(table, dmap, point_cap=1)
    assert report.verdict == "not_div"
    assert report.method == "spin_norm"
    assert not spin_norm(dmap.apply(report.witness))


def test_spin_norm_ternary_image_always_isotropic():
    table = diagonal_spin_factor(F7, [1, 1, 1, 1])
    # two disjoint plane rotations give a rank-4 image
    rows = [
        [0, 0, 0, 0, 0],
        [0, 0, 6, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 6],
        [0, 0, 0, 1, 0],
    ]
    dmap = LinearMap(table, Matrix(F7, rows))
    assert is_derivation(table, dmap)
    assert dmap.image().dim == 4
    report = has_invertible_values(table, dmap, point_cap=10)
    assert report.verdict == "not_div"
    assert report.method == "spin_norm"
    assert not spin_norm(dmap.apply(report.witness))


def test_rational_definite_image_is_div():
    table = diagonal_spin_factor(Q, [1, 1])
    pair = spin_div_criterion(table.meta.gram)
    dmap = construct_spin_div(table, *pair)
    report = has_invertible_values(table, dmap)
    assert report.verdict == "div"
    assert report.method == "spin_norm"


def test_rational_isotropic_image_not_div():
    table = diagonal_spin_factor(Q, [1, -1])
    dmap = derivation_space(table).basis[0]
    assert not dmap.is_zero()
    report = has_invertible_values(table, dmap)
    assert report.verdict == "not_div"
    assert not spin_norm(dmap.apply(report.witness))


def test_rational_undecided_image_is_unknown():
    table = diagonal_spin_factor(Q, [1, -2])
    dmap = derivation_space(table).basis[0]
    report = has_invertible_values(table, dmap, height_bound=6)
    assert report.verdict == "unknown"
    assert report.method == "spin_norm"
    assert "height" in report.note


def test_albert_recipe_method(albert5):
    space = derivation_space(albert5)
    dmap = sample_derivation(space, random.Random(2))
    report = has_invertible_values(albert5, dmap, point_cap=10)
    assert report.verdict == "not_div"
    assert report.method == "albert_recipe"
    assert jordan_inverse(dmap.apply(report.witness)) is None


def test_rational_generic_table_reports_cap_exceeded():
    m2q = matrix_algebra(scalar_algebra(Q), 2)
    plus = plus_algebra(m2q)
    inner = inner_assoc_derivation(m2q, m2q.element([0, 1, 1, 0]))
    shared = LinearMap(plus, inner.matrix)
    report = has_invertible_values(plus, shared)
    assert report.verdict == "unknown"
    assert report.method == "cap_exceeded"


def _ordered_pair_spin_norm_verdict(table, dmap, kernel, image, height_bound, point_cap):
    """`_spin_norm_verdict` with the binary form over GF(p) as its own
    branch and the rational square ratios tested over all ordered pairs
    i != j, after the definiteness test."""
    f = table.field
    m = image.dim
    DivReport, witnessed = derivations.DivReport, derivations._witnessed_not_div
    pmat, dmat = diagonalize_symmetric_form(derivations._gram_restricted_to(table, image))
    diag = [dmat.rows[t][t] for t in range(m)]
    cols = [[pmat.rows[r][t] for r in range(m)] for t in range(m)]

    def ambient_value(inner_coeffs):
        return combine_raw(f, inner_coeffs, image.basis)

    for t in range(m):
        if not diag[t]:
            return witnessed(table, dmap, kernel, image, ambient_value(cols[t]), "spin_norm",
                             "restricted norm form is degenerate")
    if m == 1:
        return DivReport(dmap, True, kernel, image, "div", None, "spin_norm")
    if not f.is_rational:
        if m == 2:
            ratio = f.neg(f.div(diag[1], diag[0]))
            if not f.is_square_raw(ratio):
                return DivReport(dmap, True, kernel, image, "div", None, "spin_norm")
            coeffs = combine_raw(f, (f.sqrt_raw(ratio), 1), cols[:2])
            return witnessed(table, dmap, kernel, image, ambient_value(coeffs), "spin_norm")
        for s in range(f.p):
            rhs = f.div(f.sub(f.neg(diag[2]), f.mul(diag[0], f.mul(s, s))), diag[1])
            if f.is_square_raw(rhs):
                coeffs = combine_raw(f, (s, f.sqrt_raw(rhs), 1), cols[:3])
                return witnessed(table, dmap, kernel, image, ambient_value(coeffs), "spin_norm")
        raise CertificationError("ternary form over a prime field must be isotropic")
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return DivReport(dmap, True, kernel, image, "div", None, "spin_norm", "restricted norm form is definite")
    for i in range(m):
        for j in range(m):
            if i == j or diag[i] == 0 or diag[j] == 0:
                continue
            ratio = -diag[j] / diag[i]
            if ratio > 0 and f.is_square_raw(ratio):
                coeffs = combine_raw(f, (f.sqrt_raw(ratio), 1), (cols[i], cols[j]))
                return witnessed(table, dmap, kernel, image, ambient_value(coeffs), "spin_norm")
    budget = point_cap
    for height in range(1, height_bound + 1):
        for coeffs in itertools.product(range(-height, height + 1), repeat=m):
            if budget <= 0:
                break
            budget -= 1
            if not any(coeffs) or max(abs(x) for x in coeffs) != height:
                continue
            value = ambient_value(coeffs)
            if any(value) and not spin_norm(table.element(value)):
                return witnessed(table, dmap, kernel, image, value, "spin_norm")
        if budget <= 0:
            break
    return DivReport(
        dmap, True, kernel, image, "unknown", None, "spin_norm",
        f"no isotropic value of height <= {height_bound} found; "
        "anisotropy over the rationals left undecided",
    )


def _spin_report_tables():
    """Diagonal spin factors of dim V 2-4 over GF(3/5/7/11/2^31-1), one
    with a zero entry, and indefinite, definite and degenerate ones over Q
    of dim V 2-3, each with its derivation basis and seeded combinations."""
    rng = random.Random("spin-reports")
    forms = [(prime_field(p), diag) for p in (3, 5, 7, 11, 2**31 - 1)
             for diag in ([1, 1], [1, 2], [1, 1, 1], [1, 2, 3], [0, 1, 2], [1, 1, 1, 1], [1, 2, 1, 3])]
    forms += [(Q, diag) for diag in ([1, 1], [1, -1], [1, -2], [1, 2, -3], [1, -1, 1], [1, 2, 5], [0, 1, -1], [-1, -3])]
    for field, diag in forms:
        table = diagonal_spin_factor(field, diag)
        space = derivation_space(table)
        yield table, list(space.basis) + [sample_derivation(space, rng) for _ in range(6)]


def test_spin_norm_rung_matches_the_ordered_pair_loop(monkeypatch):
    """Verdict, method, note, witness and image of every report, at a point
    cap that reaches the spin_norm rung and at the default cap."""
    def report_fields(table, dmap, point_cap):
        report = has_invertible_values(table, dmap, point_cap=point_cap, height_bound=4)
        witness = None if report.witness is None else report.witness.coords
        return report.verdict, report.method, report.note, witness, report.image.basis

    methods = set()
    for table, maps in _spin_report_tables():
        for dmap in maps:
            for point_cap in (1, 10**6):
                with monkeypatch.context() as patch:
                    patch.setattr(derivations, "_spin_norm_verdict", _ordered_pair_spin_norm_verdict)
                    expected = report_fields(table, dmap, point_cap)
                assert report_fields(table, dmap, point_cap) == expected, (table.field, table.meta.gram.rows)
                methods.add(expected[:2] + (table.field.is_rational, dmap.image().dim))
    # the rungs the rewrite touched: binary forms over GF(p), three or more
    # variables over GF(p), square ratios, definite and undecided forms over Q
    for method in [("div", "spin_norm", False, 2), ("not_div", "spin_norm", False, 2),
                   ("not_div", "spin_norm", False, 4), ("not_div", "spin_norm", True, 2),
                   ("div", "spin_norm", True, 2), ("unknown", "spin_norm", True, 2)]:
        assert method in methods


# ---------------------------------------------------------------------------
# spin_div_criterion


def test_criterion_gf3_returns_first_diagonal_pair():
    gram = Matrix(F3, [[1, 0], [0, 1]])
    assert spin_div_criterion(gram) == ((1, 0), (0, 1))


def test_criterion_gf5_sum_of_squares_absent():
    gram = Matrix(F5, [[1, 0], [0, 1]])
    assert spin_div_criterion(gram) is None


def test_criterion_rational_sum_of_squares():
    gram = Matrix(Q, [[1, 0], [0, 1]])
    x, y = spin_div_criterion(gram)
    assert (x, y) == ((1, 0), (0, 1))


def test_criterion_gf5_mixed_form_present():
    gram = Matrix(F5, [[1, 0], [0, 2]])
    pair = spin_div_criterion(gram)
    assert pair is not None


def test_criterion_gf5_dim3_needs_pair_search():
    # every diagonal ratio is -1, a square mod 5, yet non-basis pairs work
    gram = Matrix(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pair = spin_div_criterion(gram)
    assert pair is not None
    x, y = pair

    def form(u, v):
        return sum(a * b for a, b in zip(u, v)) % 5

    assert form(x, x) != 0
    assert form(y, y) != 0
    assert form(x, y) == 0
    ratio = (-form(y, y) * pow(form(x, x), -1, 5)) % 5
    assert ratio not in {0, 1, 4}


def test_criterion_rejects_asymmetric_matrix():
    from jordanalg.errors import NotSymmetric

    with pytest.raises(NotSymmetric):
        spin_div_criterion(Matrix(F3, [[0, 1], [2, 0]]))


def _reference_criterion(gram, point_cap=10**6, height_bound=50):
    """`spin_div_criterion` with its exhaustive pair search as one Python
    double loop over the vectors, x-major and y-minor."""
    f, nv = gram.field, gram.nrows
    pmat, dmat = diagonalize_symmetric_form(gram)
    diag = [dmat.rows[t][t] for t in range(nv)]
    cols = [tuple(pmat.rows[r][t] for r in range(nv)) for t in range(nv)]
    for i in range(nv):
        for j in range(nv):
            if i != j and diag[i] and diag[j] and not f.is_square_raw(f.neg(f.div(diag[j], diag[i]))):
                return cols[i], cols[j]
    if f.is_rational:
        height = 1
        while height < height_bound and ((2 * (height + 1) + 1) ** nv) ** 2 <= point_cap:
            height += 1
        values = range(-height, height + 1)
    elif (f.p**nv - 1) ** 2 <= point_cap:
        values = range(f.p)
    else:
        return None
    vectors = [tuple(map(f.coerce, vec)) for vec in itertools.product(values, repeat=nv) if any(vec)]
    images = [gram.apply(v) for v in vectors]
    norms = [dot_raw(f, v, gv) for v, gv in zip(vectors, images)]
    for x, gx, fxx in zip(vectors, images, norms):
        if not fxx:
            continue
        for y, fyy in zip(vectors, norms):
            if not fyy or dot_raw(f, y, gx):
                continue
            ratio = f.neg(f.div(fyy, fxx))
            if ratio < 0 or not f.is_square_raw(ratio):
                return x, y
    return None


@pytest.mark.parametrize("p,nv", [(p, nv) for p in (3, 5, 7) for nv in (1, 2, 3)])
def test_criterion_matches_the_pair_loop_on_every_diagonal_form(p, nv):
    field = prime_field(p)
    for diag in itertools.product(range(p), repeat=nv):
        gram = Matrix(field, [[d if r == c else 0 for c in range(nv)] for r, d in enumerate(diag)])
        assert spin_div_criterion(gram) == _reference_criterion(gram), diag


@pytest.mark.parametrize("p,nv", [(p, nv) for p in (3, 5, 7) for nv in (2, 3)])
def test_criterion_matches_the_pair_loop_on_seeded_forms(p, nv):
    field, rng = prime_field(p), random.Random(1000 * p + nv)
    found = 0
    for _ in range(30):
        rows = [[0] * nv for _ in range(nv)]
        for r in range(nv):
            for c in range(r, nv):
                rows[r][c] = rows[c][r] = rng.randrange(p)
        rows[0][1] = rows[1][0] = rng.randrange(1, p)  # not diagonal
        gram = Matrix(field, rows)
        expected = _reference_criterion(gram)
        assert spin_div_criterion(gram) == expected, rows
        found += expected is not None
    assert found


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, 2]], [[2, 1], [1, 3]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # definite
    [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), -1]],  # indefinite
    [[0, 0], [0, 1]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]], [[1, 1], [1, 1]],  # degenerate
])
def test_criterion_matches_the_pair_loop_over_q(rows):
    # 288 vectors for two variables, in 6 chunks; the Python loop takes
    # seconds on the default cap's 960
    gram = Matrix(Q, rows)
    assert spin_div_criterion(gram, point_cap=10**5) == _reference_criterion(gram, point_cap=10**5)


def test_criterion_search_forms_the_gram_products_in_chunks():
    """728 vectors of GF(3)^6 and no pair in any chunk: one unchunked
    product of all pairs would take 728 * 728 * 8 bytes, about 4 MB
    (8.6 MB traced with its masks; 0.36 MB in chunks)."""
    gram = Matrix(F3, [[int(r == c == 5) for c in range(6)] for r in range(6)])
    tracemalloc.start()
    try:
        assert spin_div_criterion(gram) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# construct_spin_div


def test_construct_frozen_matrix(spin3):
    dmap = construct_spin_div(spin3, (1, 0), (0, 1))
    assert dmap.matrix.rows == ((0, 0, 0), (0, 0, 2), (0, 1, 0))


def test_construct_kills_unit(spin3, spin3_div):
    assert spin3_div.apply(spin3.one()).is_zero()


def test_construct_rejects_non_orthogonal_pair(spin3):
    with pytest.raises(CriterionNotSatisfied):
        construct_spin_div(spin3, (1, 0), (1, 1))


def test_construct_rejects_square_ratio():
    table = diagonal_spin_factor(F5, [1, 1])
    with pytest.raises(CriterionNotSatisfied):
        construct_spin_div(table, (1, 0), (0, 1))


def test_construct_rational_pair_is_div():
    table = diagonal_spin_factor(Q, [1, 1])
    dmap = construct_spin_div(table, (1, 0), (0, 1))
    assert is_derivation(table, dmap)
    assert has_invertible_values(table, dmap).verdict == "div"


def test_construct_with_orthogonal_rest():
    table = diagonal_spin_factor(F3, [1, 1, 1])
    dmap = construct_spin_div(table, (1, 0, 0), (0, 1, 0))
    # the third direction is orthogonal to the pair and must be killed
    assert dmap.apply(table.element([0, 0, 0, 1])).is_zero()
    assert has_invertible_values(table, dmap).verdict == "div"


def _reference_construction(table, x, y):
    """The matrix rows of `construct_spin_div`'s map, with the coordinates
    of each e_c on x, y and the orthogonal basis from one solve each."""
    f, gram = table.field, table.meta.gram
    nv = gram.nrows
    x, y = [f.coerce(c) for c in x], [f.coerce(c) for c in y]
    gx, gy = gram.apply(x), gram.apply(y)
    minus_lam = f.neg(f.div(dot_raw(f, y, gy), dot_raw(f, x, gx)))
    ortho = Matrix(f, [gx, gy]).nullspace()
    basis_cols = Matrix(f, list(zip(x, y, *ortho.basis)))
    rows = [[f.zero()] * (nv + 1) for _ in range(nv + 1)]
    for c in range(nv):
        coeffs = basis_cols.solve([f.one() if r == c else f.zero() for r in range(nv)])
        for r in range(nv):
            rows[1 + r][1 + c] = f.add(f.mul(coeffs[0], y[r]), f.mul(f.mul(minus_lam, coeffs[1]), x[r]))
    return tuple(map(tuple, rows))


def _construction_forms():
    """Every diagonal GF(3), GF(5) form with nv <= 3, seeded non-diagonal
    GF(7) forms and a few Q forms."""
    for p in (3, 5):
        for nv in (2, 3):
            for diag in itertools.product(range(p), repeat=nv):
                yield Matrix(prime_field(p), [[d if r == c else 0 for c in range(nv)] for r, d in enumerate(diag)])
    rng = random.Random("construction-forms")
    for nv in (2, 3, 4):
        for _ in range(10):
            rows = [[0] * nv for _ in range(nv)]
            for r, c in itertools.combinations_with_replacement(range(nv), 2):
                rows[r][c] = rows[c][r] = rng.randrange(7)
            yield Matrix(F7, rows)
    for rows in ([[1, 0], [0, 1]], [[2, 1], [1, 3]], [[1, 0, 0], [0, 1, 0], [0, 0, 3]], [[Fraction(1, 2), 0], [0, 5]]):
        yield Matrix(Q, rows)


def test_construction_matches_the_solve_per_basis_vector():
    found = 0
    for gram in _construction_forms():
        pair = spin_div_criterion(gram, point_cap=10**4)
        if pair is None:
            continue
        table = spin_factor(gram)
        # point_cap=0 skips the exhaustive certificate of invertible values
        dmap = construct_spin_div(table, *pair, point_cap=0)
        assert dmap.matrix.rows == _reference_construction(table, *pair), gram.rows
        found += 1
    assert found > 50


def _inverse_basis_construction(table, x, y):
    """`construct_spin_div`'s matrix rows from [B | I], B with columns x, y
    and the nullspace basis of their orthogonal complement: the right half
    of its reduced form is B^-1, and D(e_c) = a y - (f(y,y)/f(x,x)) b x for
    the coordinates a, b of e_c on x, y in column c of B^-1."""
    f, gram = table.field, table.meta.gram
    nv = gram.nrows
    x, y = tuple(map(f.coerce, x)), tuple(map(f.coerce, y))
    gx, gy = gram.apply(x), gram.apply(y)
    ortho = Matrix._wrap(f, [gx, gy]).nullspace()
    red, _, piv = rref_raw(f, [[*b, *e] for b, e in zip(zip(x, y, *ortho.basis), _identity_raw(f, nv))])
    assert piv == list(range(nv))
    minus_lam = f.neg(f.div(dot_raw(f, y, gy), dot_raw(f, x, gx)))
    rows = [[f.zero()] * (nv + 1) for _ in range(nv + 1)]
    for c in range(nv):
        img = combine_raw(f, (red[0][nv + c], f.mul(minus_lam, red[1][nv + c])), (y, x))
        for r in range(nv):
            rows[1 + r][1 + c] = img[r]
    return tuple(map(tuple, rows))


def _criterion_pair_forms():
    """Every diagonal GF(3) form of dim V 2-4 and GF(5), GF(7) form of
    dim V 2-3, seeded symmetric GF(3/5/7) forms of dim V 2-4 (some with a
    zero row, so degenerate), and Q forms of dim V 2-3."""
    for p, top in ((3, 4), (5, 3), (7, 3)):
        for nv in range(2, top + 1):
            for diag in itertools.product(range(p), repeat=nv):
                yield Matrix(prime_field(p), [[d if r == c else 0 for c in range(nv)] for r, d in enumerate(diag)])
    rng = random.Random("criterion-pair-forms")
    for p, nv in itertools.product((3, 5, 7), (2, 3, 4)):
        for trial in range(12):
            rows = [[0] * nv for _ in range(nv)]
            for r, c in itertools.combinations_with_replacement(range(trial % 3 == 0, nv), 2):
                rows[r][c] = rows[c][r] = rng.randrange(p)
            yield Matrix(prime_field(p), rows)
    for rows in ([[1, 0], [0, 1]], [[1, 0], [0, -1]], [[2, 1], [1, 3]], [[0, 0], [0, 1]], [[1, 1], [1, 1]],
                 [[Fraction(1, 2), 0], [0, 5]], [[1, 0, 0], [0, 1, 0], [0, 0, 3]], [[1, 2, 0], [2, -1, 1], [0, 1, 2]],
                 [[0, 0, 0], [0, 1, 0], [0, 0, 2]], [[1, 1, 0], [1, 1, 0], [0, 0, -3]]):
        yield Matrix(Q, rows)


def test_construction_matches_the_inverse_basis_on_every_criterion_pair():
    """The closed form against [B | I] on the criterion's pair and on every
    ordered pair of diagonalizing vectors that meets the criterion."""
    kinds, count = set(), 0
    for gram in _criterion_pair_forms():
        f, nv = gram.field, gram.nrows
        pmat, dmat = diagonalize_symmetric_form(gram)
        diag = [dmat.rows[t][t] for t in range(nv)]
        cols = [tuple(pmat.rows[r][t] for r in range(nv)) for t in range(nv)]
        pairs = [(cols[i], cols[j]) for i, j in itertools.permutations(range(nv), 2)
                 if diag[i] and diag[j] and not f.is_square_raw(f.neg(f.div(diag[j], diag[i])))]
        pair = spin_div_criterion(gram, point_cap=10**4)
        table = spin_factor(gram)
        for x, y in pairs + ([] if pair is None else [pair]):
            # point_cap=0 skips the exhaustive certificate of invertible values
            dmap = construct_spin_div(table, x, y, point_cap=0)
            assert dmap.matrix.rows == _inverse_basis_construction(table, x, y), (gram.rows, x, y)
            fxx, fyy = (dot_raw(f, v, gram.apply(v)) for v in (x, y))
            kinds.add((f.p, all(diag), fxx == fyy))
            count += 1
    assert count > 2000
    # f(x,x) != f(y,y) on nondegenerate and degenerate forms over GF(5),
    # GF(7) and Q; over GF(3) the criterion forces f(x,x) = f(y,y)
    assert {(p, nondegenerate, False) for p in (5, 7, None) for nondegenerate in (True, False)} <= kinds


# ---------------------------------------------------------------------------
# albert_div_witness


def test_witness_absent_for_zero_map(albert5):
    assert albert_div_witness(albert5, LinearMap.zero(albert5)) is None


def test_witness_rejects_non_albert(spin3):
    with pytest.raises(NotAlbertType):
        albert_div_witness(spin3, LinearMap.zero(spin3))


def test_witness_rejects_non_derivation(albert5):
    with pytest.raises(NotADerivation):
        albert_div_witness(albert5, LinearMap.identity(albert5))


def test_witness_recipe_sampled_gf5(albert5):
    space = derivation_space(albert5)
    meta = albert5.meta
    allowed = {tuple(meta.idempotents[i]) for i in range(3)}
    for key in ((1, 2), (1, 3), (2, 3)):
        for row in meta.peirce[key].basis:
            allowed.add(tuple(row))
    rng = random.Random(13)
    for _ in range(30):
        dmap = sample_derivation(space, rng)
        witness = albert_div_witness(albert5, dmap)
        assert witness is not None
        assert tuple(witness.coords) in allowed
        value = dmap.apply(witness)
        assert not value.is_zero()
        assert jordan_inverse(value) is None


def test_witness_recipe_sampled_rational():
    table = albert_type(Q, [-1, -1, -1], [1, 1, 1])
    space = derivation_space(table)
    rng = random.Random(3)
    for _ in range(5):
        dmap = sample_derivation(space, rng)
        witness = albert_div_witness(table, dmap)
        value = dmap.apply(witness)
        assert not value.is_zero()
        assert jordan_inverse(value) is None


# ---------------------------------------------------------------------------
# largest_ideal_in_kernel and div_reduction


def test_largest_ideal_trivial_for_spin_div(spin3, spin3_div):
    assert largest_ideal_in_kernel(spin3, spin3_div).dim == 0


def test_largest_ideal_of_zero_map_is_everything(spin3):
    assert largest_ideal_in_kernel(spin3, LinearMap.zero(spin3)).dim == spin3.dim


def test_largest_ideal_on_simple_albert(albert5):
    dmap = sample_derivation(derivation_space(albert5), random.Random(1))
    assert largest_ideal_in_kernel(albert5, dmap).dim == 0


def test_eps_extension_kernel_ideal_is_radical(spin3, spin3_div):
    ext, radical = split_null_extension(spin3)
    dmap = extend_derivation_eps(ext, spin3_div)
    found = largest_ideal_in_kernel(ext, dmap)
    assert found == radical


def test_largest_ideal_matches_enumeration_oracle(spin3, spin3_div):
    ext, _ = split_null_extension(spin3)
    for dmap in (
        extend_derivation_eps(ext, spin3_div),
        extend_derivation_diagonal(ext, spin3_div),
    ):
        kernel = dmap.kernel()
        inside = [
            ideal
            for ideal in enumerate_ideals(ext)
            if all(kernel.contains_vector(v) for v in ideal.basis)
        ]
        oracle = max(inside, key=lambda s: s.dim)
        assert largest_ideal_in_kernel(ext, dmap) == oracle


def test_reduction_leaves_simple_algebra_alone(spin3, spin3_div):
    result = div_reduction(spin3, spin3_div)
    assert result.ideal.dim == 0
    assert result.quotient.dim == spin3.dim
    assert sorted(result.quotient.sc_items()) == sorted(spin3.sc_items())
    assert result.induced.matrix == spin3_div.matrix


def test_reduction_of_eps_extension_recovers_base(spin3, spin3_div):
    ext, radical = split_null_extension(spin3)
    dmap = extend_derivation_eps(ext, spin3_div)
    result = div_reduction(ext, dmap)
    assert result.ideal == radical
    assert result.quotient.dim == spin3.dim
    assert sorted(result.quotient.sc_items()) == sorted(spin3.sc_items())
    assert result.quotient.labels == spin3.labels
    assert is_derivation(result.quotient, result.induced)
    assert result.induced.is_zero()


def test_reduction_requires_unit():
    table = AlgebraTable(F3, 1, {})
    with pytest.raises(NotUnital):
        div_reduction(table, LinearMap.zero(table))


def _scan_spy(monkeypatch) -> list:
    """Record the table of every simplicity_scan that div_reduction runs."""
    scanned = []
    real = derivations.simplicity_scan

    def spy(table, **kwargs):
        scanned.append(table)
        return real(table, **kwargs)

    monkeypatch.setattr(derivations, "simplicity_scan", spy)
    return scanned


@pytest.mark.parametrize("field", [F3, F7])
def test_reduction_scans_each_quotient_once(monkeypatch, field):
    # every hit on a degenerate form reduces by a nonzero kernel ideal
    table = diagonal_spin_factor(field, [0, 1, 1])
    hits = div_search(table)
    scanned = _scan_spy(monkeypatch)
    ideals = {div_reduction(table, hit.map).ideal for hit in hits}
    assert len(hits) > len(ideals) and min(ideal.dim for ideal in ideals) > 0
    assert len(scanned) == len(ideals)


def test_reduction_scans_again_for_another_cap_or_table(monkeypatch):
    table = diagonal_spin_factor(F3, [0, 1, 1])
    dmap = div_search(table)[0].map
    scanned = _scan_spy(monkeypatch)
    div_reduction(table, dmap)
    div_reduction(table, dmap)
    assert len(scanned) == 1
    div_reduction(table, dmap, point_cap=10**5)
    assert len(scanned) == 2
    other = diagonal_spin_factor(F3, [0, 1, 1])
    div_reduction(other, div_search(other)[0].map)
    assert len(scanned) == 3


def test_reduction_certifies_not_simple_verdict_every_time(monkeypatch):
    table = diagonal_spin_factor(F3, [0, 1, 1])
    dmap = div_search(table)[0].map
    monkeypatch.setattr(derivations, "simplicity_scan", lambda table, **kwargs: "not_simple")
    for _ in range(2):
        with pytest.raises(CertificationError, match="no proper principal ideal"):
            div_reduction(table, dmap)


def test_reduction_scan_verdict_is_kept_per_ideal(monkeypatch):
    # a verdict kept for the radical does not cover another ideal of the
    # same table: by the zero ideal the quotient is the table itself,
    # whose radical is a proper ideal
    table = diagonal_spin_factor(F3, [0, 1, 1])
    dmap = div_search(table)[0].map
    assert div_reduction(table, dmap).ideal.dim == 1
    monkeypatch.setattr(
        derivations, "largest_ideal_in_kernel", lambda table, dmap: Subspace.zero(table.field, table.dim)
    )
    with pytest.raises(CertificationError, match="no proper principal ideal"):
        div_reduction(table, dmap)


# ---------------------------------------------------------------------------
# div_search


def test_search_gf3_finds_both_multiples(spin3, spin3_div):
    reports = div_search(spin3)
    assert len(reports) == 2
    matrices = {r.map.matrix for r in reports}
    assert matrices == {spin3_div.matrix, spin3_div.matrix.scale(2)}
    assert all(r.verdict == "div" for r in reports)


def test_search_gf5_sum_of_squares_empty():
    assert div_search(diagonal_spin_factor(F5, [1, 1])) == []


def test_search_gf5_mixed_form_nonempty():
    assert div_search(diagonal_spin_factor(F5, [1, 2]))


def test_search_rejects_rational():
    with pytest.raises(NotFinite):
        div_search(diagonal_spin_factor(Q, [1, 1]))


def test_search_cap(spin3):
    with pytest.raises(CapExceeded):
        div_search(spin3, tuple_cap=2)


def test_criterion_agrees_with_search_gf3_dim2():
    for diag in itertools.product([0, 1, 2], repeat=2):
        table = diagonal_spin_factor(F3, list(diag))
        pair = spin_div_criterion(table.meta.gram)
        hits = div_search(table)
        assert (pair is not None) == bool(hits), diag


# ---------------------------------------------------------------------------
# split-null extension derivations


def test_extension_derivations_satisfy_leibniz(spin3, spin3_div):
    ext, _ = split_null_extension(spin3, shift=2)
    assert ext.meta.shift == 2
    for dmap in (
        extend_derivation_eps(ext, spin3_div),
        extend_derivation_diagonal(ext, spin3_div),
        extend_derivation_diagonal(ext, spin3_div, shift=0),
        extend_derivation_diagonal(ext, spin3_div, shift=1),
    ):
        assert is_derivation(ext, dmap)


def test_eps_extension_values(spin3, spin3_div):
    ext, _ = split_null_extension(spin3)
    dmap = extend_derivation_eps(ext, spin3_div)
    x = ext.element([0, 1, 0, 0, 0, 0])
    image = spin3_div.apply(spin3.element([0, 1, 0]))
    assert tuple(dmap.apply(x).coords) == (0, 0, 0) + tuple(image.coords)


def test_diagonal_extension_uses_stored_shift(spin3, spin3_div):
    ext, _ = split_null_extension(spin3, shift=1)
    dmap = extend_derivation_diagonal(ext, spin3_div)
    # on the eps copy the map acts as the base map plus the shift
    x = ext.element([0, 0, 0, 0, 1, 0])
    base = spin3_div.apply(spin3.element([0, 1, 0]))
    expected = [0, 0, 0] + [
        (c + (1 if i == 1 else 0)) % 3 for i, c in enumerate(base.coords)
    ]
    assert list(dmap.apply(x).coords) == expected


def test_extension_helpers_reject_plain_tables(spin3, spin3_div):
    with pytest.raises(BadParameters):
        extend_derivation_eps(spin3, spin3_div)


def _checked_split_ext(ext, base_map):
    if not isinstance(ext.meta, algebra.SplitNullMeta):
        raise BadParameters("table does not carry split-null metadata")
    if base_map.algebra.field != ext.field:
        raise FieldMismatch("base map field differs from the extension field")
    if base_map.algebra.dim != ext.meta.base_dim:
        raise BadParameters("base map dimension differs from the base algebra")
    return ext.field, ext.meta.base_dim


def _blockwise_diagonal_extension(ext, base_map, shift=None):
    """`extend_derivation_diagonal`'s matrix rows, entry by entry."""
    f, n = _checked_split_ext(ext, base_map)
    lam = ext.meta.shift if shift is None else f.coerce(shift)
    rows = [[f.zero()] * (2 * n) for _ in range(2 * n)]
    for r in range(n):
        for c in range(n):
            rows[r][c] = rows[n + r][n + c] = base_map.matrix.rows[r][c]
    if lam:
        for c in range(n):
            rows[n + c][n + c] = f.add(rows[n + c][n + c], lam)
    return tuple(map(tuple, rows))


def _blockwise_eps_extension(ext, base_map):
    """`extend_derivation_eps`'s matrix rows, entry by entry."""
    f, n = _checked_split_ext(ext, base_map)
    rows = [[f.zero()] * (2 * n) for _ in range(2 * n)]
    for r in range(n):
        for c in range(n):
            rows[n + r][c] = base_map.matrix.rows[r][c]
    return tuple(map(tuple, rows))


def test_extension_maps_match_the_blockwise_loops(spin3, m2_gf3):
    rng = random.Random("extension-maps")
    for base in (spin3, diagonal_spin_factor(F5, [1, 2]), m2_gf3, diagonal_spin_factor(Q, [1, -1])):
        space = derivation_space(base)
        maps = list(space.basis) + [sample_derivation(space, rng) for _ in range(3)]
        for stored in (0, 1):
            ext, _ = split_null_extension(base, shift=stored)
            for dmap in maps:
                assert extend_derivation_eps(ext, dmap).matrix.rows == _blockwise_eps_extension(ext, dmap)
                for shift in (None, 0, 2):
                    expected = _blockwise_diagonal_extension(ext, dmap, shift)
                    assert extend_derivation_diagonal(ext, dmap, shift).matrix.rows == expected


def test_extension_maps_raise_the_blockwise_errors_in_order(spin3, m2_gf3):
    ext, _ = split_null_extension(spin3)
    spin5_map = derivation_space(diagonal_spin_factor(F5, [1, 1, 1])).basis[0]
    m2_map = LinearMap.zero(m2_gf3)
    cases = [
        (spin3, spin5_map, BadParameters, "split-null metadata"),  # before the field test
        (ext, spin5_map, FieldMismatch, "field"),  # before the dimension test
        (ext, m2_map, BadParameters, "dimension"),
    ]
    for table, base_map, error, words in cases:
        for build, reference in ((extend_derivation_eps, _blockwise_eps_extension),
                                 (extend_derivation_diagonal, _blockwise_diagonal_extension)):
            with pytest.raises(error, match=words) as raised:
                build(table, base_map)
            with pytest.raises(error) as expected:
                reference(table, base_map)
            assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# ideal enumeration oracle and simplicity scan


def test_enumerate_ideals_of_extension(spin3):
    ext, radical = split_null_extension(spin3)
    ideals = enumerate_ideals(ext)
    assert [s.dim for s in ideals] == [0, 3, 6]
    assert ideals[1] == radical


def test_enumerate_ideals_of_simple_spin(spin3):
    assert [s.dim for s in enumerate_ideals(spin3)] == [0, 3]


def test_enumerate_ideals_rejects_rational():
    with pytest.raises(NotFinite):
        enumerate_ideals(diagonal_spin_factor(Q, [1, 1]))


def test_enumerate_ideals_cap(spin3):
    with pytest.raises(CapExceeded):
        enumerate_ideals(spin3, point_cap=3)


def test_div_examples_kill_every_proper_ideal(spin3, spin3_div, m2_gf3):
    # each enumerated proper ideal of an algebra with a DIV derivation
    # must be annihilated by that derivation
    cases = [(spin3, spin3_div)]
    inner = inner_assoc_derivation(m2_gf3, m2_gf3.element([0, 1, 2, 0]))
    cases.append((m2_gf3, inner))
    plus = plus_algebra(m2_gf3)
    cases.append((plus, LinearMap(plus, inner.matrix)))
    for table, dmap in cases:
        assert has_invertible_values(table, dmap).verdict == "div"
        for ideal in enumerate_ideals(table):
            if ideal.dim == table.dim:
                continue
            for vec in ideal.basis:
                assert not any(dmap.matrix.apply(vec))


def test_simplicity_scan_verdicts(spin3):
    assert simplicity_scan(spin3) == "simple"
    ext, _ = split_null_extension(spin3)
    assert simplicity_scan(ext) == "not_simple"
    assert simplicity_scan(diagonal_spin_factor(Q, [1, 1])) == "probably_simple"


# ---------------------------------------------------------------------------
# sampling


def test_sample_derivation_is_deterministic(albert5):
    space = derivation_space(albert5)
    one = sample_derivation(space, random.Random(9))
    two = sample_derivation(space, random.Random(9))
    assert one.matrix == two.matrix


def test_sample_derivation_rational_coefficients():
    table = diagonal_spin_factor(Q, [1, 1, 1])
    space = derivation_space(table)
    dmap = sample_derivation(space, random.Random(4))
    assert not dmap.is_zero()
    assert is_derivation(table, dmap)


def test_sample_derivation_empty_space():
    table = AlgebraTable(F3, 1, {(0, 0, 0): 1}, unit=(1,))
    space = derivation_space(table)
    assert space.dim == 0
    with pytest.raises(BadParameters):
        sample_derivation(space, random.Random(0))


# ---------------------------------------------------------------------------
# the number path of the Leibniz check


def _path_top(n, bits=53):
    """The least b with n * b^2 >= 2^bits: products of inner dimension n
    with entries up to b leave the float64 (bits=53) or int64 (bits=63)
    path there."""
    return math.isqrt(((1 << bits) - 1) // n) + 1


def _prime_below(b):
    while not is_prime(b):
        b -= 1
    return b


def _prime_above(b):
    while not is_prime(b):
        b += 1
    return b


def _on_random_basis(table, rng):
    """The table on a random basis b'_i = sum_r P[i][r] b_r, so that its
    structure constants and derivations are dense residues."""
    f, n = table.field, table.dim
    while True:
        rows = [[f.coerce(rng.randrange(f.p) if f.p else rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if Matrix(f, rows).rank() == n:
            break
    cols = [list(col) for col in zip(*rows)]
    entries = {}
    for i, j in itertools.product(range(n), repeat=2):
        coords = solve_raw(f, cols, table.mul_coords(rows[i], rows[j]))
        entries.update({(i, j, k): v for k, v in enumerate(coords) if v})
    unit = solve_raw(f, cols, list(table.unit_coords()))
    return AlgebraTable(f, n, entries, unit=unit)


# (field, the dtype and reduce flag `_sum_path` gives the 4-dim tables)
LEIBNIZ_PATHS = {
    "GF7": (prime_field(7), np.float64, False),
    "GF-float64-boundary": (prime_field(_prime_below(_path_top(4) - 1)), np.float64, True),
    "GF-past-float64": (prime_field(_prime_above(_path_top(4))), np.int64, False),
    "GF-int64-boundary": (prime_field(_prime_below(_path_top(4, 63) - 1)), np.int64, True),
    "GF(2^31-1)": (prime_field(2**31 - 1), object, False),
    "GF(2^61-1)": (prime_field(2**61 - 1), object, False),
    "Q": (Q, np.float64, False),
}


@pytest.mark.parametrize("case", list(LEIBNIZ_PATHS))
def test_leibniz_check_rejects_every_perturbed_entry(monkeypatch, case):
    field, dtype, reduce = LEIBNIZ_PATHS[case]
    paths = set()
    real = derivations._sum_path
    monkeypatch.setattr(derivations, "_sum_path", lambda *args: paths.add(real(*args)) or real(*args))
    rng = random.Random(f"leibniz-{case}")
    # commutative and not, each on its own basis and on a dense one
    tables = [diagonal_spin_factor(field, [1, 2, 3]), matrix_algebra(scalar_algebra(field), 2)]
    for table in tables + [_on_random_basis(t, rng) for t in tables]:
        space = derivation_space(table)
        assert space.dim == 3
        for dmap in space.basis:
            assert is_derivation(table, dmap)
            for r, c in itertools.product(range(4), repeat=2):
                rows = [list(row) for row in dmap.matrix.rows]
                rows[r][c] = field.add(rows[r][c], field.coerce(rng.choice([1, -1])))
                assert not is_derivation(table, LinearMap(table, Matrix(field, rows))), (r, c)
    assert paths == {(dtype, reduce)}


# ---------------------------------------------------------------------------
# sympy as an independent oracle for the Leibniz system over Q


def _sympy_leibniz_nullspace(sympy, table):
    """Nullspace of the dense Leibniz system of every ordered pair, with
    D(e_j) = sum_r d[r, j] e_r and d[r, c] the unknown r * n + c."""
    n = table.dim
    c = {(i, j, k): v for i, j, k, v in table.sc_items()}
    rows = []
    for i, j, t in itertools.product(range(n), repeat=3):
        row = [0] * (n * n)
        for k in range(n):  # D(e_i e_j)_t - (D(e_i) e_j)_t - (e_i D(e_j))_t
            row[t * n + k] += c.get((i, j, k), 0)
            row[k * n + i] -= c.get((k, j, t), 0)
            row[k * n + j] -= c.get((i, k, t), 0)
        rows.append([sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, row)])
    return sympy.Matrix(rows).nullspace()


@st.composite
def rational_commutative_tables(draw):
    """A few random products on a basis that is, when drawn, unital with
    e_0 as unit; sparse, so that many tables have derivations."""
    n = draw(st.integers(1, 4))
    unital = draw(st.booleans())
    entries = {(0, j, j): 1 for j in range(n)} if unital else {}
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = sorted(draw(st.integers(int(unital and n > 1), n - 1)) for _ in range(2))
        k = draw(st.integers(0, n - 1))
        v = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
        entries[i, j, k] = entries[j, i, k] = v
    return AlgebraTable(Q, n, entries)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(rational_commutative_tables())
def test_derivation_space_spans_the_sympy_nullspace(table):
    sympy = pytest.importorskip("sympy")
    expected = _sympy_leibniz_nullspace(sympy, table)
    ours = [[sympy.Rational(x.numerator, x.denominator) for row in d.matrix.rows for x in row]
            for d in derivation_space(table).basis]
    assert len(ours) == len(expected)
    if ours:
        theirs = sympy.Matrix.hstack(*expected).T
        assert sympy.Matrix(ours).rref()[0] == theirs.rref()[0]


# ---------------------------------------------------------------------------
# the Leibniz check at the float64-boundary prime


def test_leibniz_products_are_reduced_before_the_sum_at_the_float64_bound(monkeypatch):
    # at this prime three unreduced products of a dense 4-dim table can
    # pass 2^53, so each product is reduced first and every defect that
    # reaches the zero test is below 3p
    field, dtype, reduce = LEIBNIZ_PATHS["GF-float64-boundary"]
    assert (dtype, reduce) == (np.float64, True)
    defects = []
    real = derivations._is_zero_mod
    monkeypatch.setattr(derivations, "_is_zero_mod", lambda a, p: defects.append(np.abs(a).max()) or real(a, p))
    rng = random.Random("leibniz-float64-bound-defects")
    tables = [diagonal_spin_factor(field, [1, 2, 3]), matrix_algebra(scalar_algebra(field), 2)]
    for table in [_on_random_basis(t, rng) for t in tables for _ in range(3)]:
        defects.clear()
        for dmap in derivation_space(table).basis:
            assert is_derivation(table, dmap)
            rows = [list(row) for row in dmap.matrix.rows]
            r, c = rng.randrange(4), rng.randrange(4)
            rows[r][c] = field.add(rows[r][c], field.coerce(rng.randrange(1, field.p)))
            assert not is_derivation(table, LinearMap(table, Matrix(field, rows)))
        assert 0 < max(defects) < 3 * field.p


# ---------------------------------------------------------------------------
# derivation combinations as one exact product


def _combine_raw_combination(space, coeffs):
    """`DerivationSpace.combination` as it was before it became one exact
    product: `combine_raw` over the flat basis."""
    f = space.algebra.field
    n = space.algebra.dim
    flat = combine_raw(f, [f.coerce(c) for c in coeffs], space._flat_basis) or [f.zero()] * (n * n)
    return LinearMap(space.algebra, Matrix._wrap(f, [flat[r * n : (r + 1) * n] for r in range(n)]))


F_MERSENNE = prime_field(2**61 - 1)

COMBINATION_TABLES = {
    "spin-gf3": lambda: diagonal_spin_factor(F3, [1, 2, 0]),
    "m2-gf7": lambda: matrix_algebra(scalar_algebra(F7), 2),
    "spin-gf2^61-1": lambda: diagonal_spin_factor(F_MERSENNE, [1, 2, 3]),
    "spin-q": lambda: diagonal_spin_factor(Q, [1, Fraction(1, 2), -3]),
    "quaternions-q": lambda: cayley_dickson(Q, [-1, Fraction(-2, 3)])[0],
    "scalar-gf3": lambda: scalar_algebra(F3),
    "scalar-q": lambda: scalar_algebra(Q),
}


def _coefficient_sets(field, dim, rng):
    p = field.p
    sets = [[0] * dim] + [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(12):
        entries = [0, 1, -1, 2, 3**70, -(3**70) + 1, Fraction(1, 2), Fraction(-5, 4), Fraction(3**70, 7)]
        if p:
            entries = [c for c in entries if not isinstance(c, Fraction) or c.denominator % p]
        sets.append([rng.choice(entries) for _ in range(dim)])
    return sets


@pytest.mark.parametrize("name", sorted(COMBINATION_TABLES))
def test_combination_matches_combine_raw(name):
    """Equal maps with entries of equal types, over GF(3), GF(7),
    GF(2^61 - 1) and Q, for int, Fraction and zero coefficients, and on
    an empty basis."""
    table = COMBINATION_TABLES[name]()
    space = derivation_space(table)
    assert (space.dim == 0) == name.startswith("scalar")
    rng = random.Random(f"combination-{name}")
    for coeffs in _coefficient_sets(table.field, space.dim, rng):
        got = space.combination(coeffs).matrix.rows
        expected = _combine_raw_combination(space, coeffs).matrix.rows
        assert got == expected
        assert [type(x) for row in got for x in row] == [type(x) for row in expected for x in row]


def test_int_image_of_the_flat_basis_is_taken_once_per_space(monkeypatch):
    """Through the unit certificate, combinations and `div_search`."""
    seen = []
    real = derivations._int_image
    monkeypatch.setattr(derivations, "_int_image", lambda f, rows: seen.append(rows) or real(f, rows))
    tables = [
        diagonal_spin_factor(F3, [0, 1, 1]),
        diagonal_spin_factor(Q, [1, 1, 2]),
        AlgebraTable(F5, 2, {(0, 0, 0): 1}),  # no unit, so no unit certificate
    ]
    for table in tables:
        seen.clear()
        space = derivation_space(table)
        assert space.dim
        for seed in range(3):
            sample_derivation(space, random.Random(seed))
        if table.unit_coords() is not None and not table.field.is_rational:
            assert div_search(table)
        assert derivation_space(table) is space
        assert sum(rows is space._flat_basis for rows in seen) == 1


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_basis_map_that_moves_the_unit_fails_the_unit_certificate(monkeypatch, field):
    """A basis row with D(1) = e_last, let through a patched Leibniz check,
    is refused after every Leibniz chunk has run."""
    table = diagonal_spin_factor(field, [1, 1, 1])
    n, dim = table.dim, derivation_space(diagonal_spin_factor(field, [1, 1, 1])).dim
    assert table.unit_coords() == tuple(field.coerce(int(i == 0)) for i in range(n))
    real = derivations._nullspace_mod_staged
    moves_unit = [field.coerce(int(r == n - 1 and c == 0)) for r in range(n) for c in range(n)]
    monkeypatch.setattr(
        derivations, "_nullspace_mod_staged",
        lambda m, p, chunk=3000: np.array(real(m, p, chunk).tolist() + [moves_unit], dtype=object),
    )
    chunks = []
    monkeypatch.setattr(derivations, "_leibniz_holds", lambda t, maps: chunks.append(maps) or True)
    with pytest.raises(CertificationError, match="derivation must kill the unit"):
        derivation_space(table)
    assert sum(map(len, chunks)) == dim + 1
    assert "derivation_space" not in table._cache


# ---------------------------------------------------------------------------
# rank-one derivations of spin factors and the spin-norm rung


def _projective(field, k):
    """Nonzero vectors of length k whose first nonzero entry is 1."""
    values = range(field.p) if field.p else (-1, 0, 1, 2)
    for vec in itertools.product(values, repeat=k):
        if any(vec) and vec[next(i for i, v in enumerate(vec) if v)] == 1:
            yield tuple(map(field.coerce, vec))


def _rank_one_derivations(table):
    """Every derivation w phi^T (on V, zero on the unit line) in the
    derivation space, one per line of maps, w and phi over _projective."""
    f, n = table.field, table.dim
    flat_space = Subspace(f, n * n, [sum(m.matrix.rows, ()) for m in derivation_space(table).basis])
    for w in _projective(f, n - 1):
        for phi in _projective(f, n - 1):
            rows = [[f.zero()] * n] + [[f.zero()] + [f.mul(a, b) for b in phi] for a in w]
            if flat_space.contains_vector(sum(rows, [])):
                yield LinearMap(table, Matrix._wrap(f, rows))


def _diagonal_forms(field, k):
    if field.p:
        return itertools.product(range(field.p), repeat=k)
    # degenerate rational forms
    return {1: [(0,)], 2: [(0, 0), (1, 0), (0, -3)], 3: [(0, 0, 0), (1, 0, 2), (1, -1, 0), (0, 0, 5)]}[k]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("field", [F3, F5, Q], ids=str)
def test_every_rank_one_spin_derivation_has_a_degenerate_restricted_form(field, k):
    """D = w phi^T is skew for the form f: 2 phi(v) f(w, v) = 0 for all v,
    so f(w, w) = 0 unless D = 0, and the spin_norm rung always answers
    from the zero diagonal entry."""
    for diag in _diagonal_forms(field, k):
        table = diagonal_spin_factor(field, diag)
        found = list(_rank_one_derivations(table))
        # w phi^T is a derivation exactly when w is in the form's radical
        radical = sum(1 for d in diag if not field.coerce(d))
        if field.p:
            lines = (field.p**k - 1) // (field.p - 1)
            assert len(found) == (field.p**radical - 1) // (field.p - 1) * lines
        else:
            assert found
        for dmap in found:
            assert dmap.image().dim == 1
            report = has_invertible_values(table, dmap, point_cap=0)
            assert (report.verdict, report.method) == ("not_div", "spin_norm")
            assert report.note == "restricted norm form is degenerate"


@pytest.mark.parametrize("field, diag", [(F3, [1, 1]), (F5, [1, 2]), (F7, [1, 1, 3]), (Q, [1, 1]), (Q, [1, 2, 5])], ids=str)
def test_construct_spin_div_certifies_over_gf_p_at_any_cap(monkeypatch, field, diag):
    table = diagonal_spin_factor(field, diag)
    pair = spin_div_criterion(table.meta.gram)
    reports = []
    real = derivations.has_invertible_values

    def spy(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(derivations, "has_invertible_values", spy)
    dmap = construct_spin_div(table, *pair, point_cap=0)
    if field.p:
        # past the point-count gate the spin_norm rung decides span{x, y}
        assert [(r.verdict, r.method, r.image.dim) for r in reports] == [("div", "spin_norm", 2)]
    else:
        assert reports == []
    assert dmap.image().dim == 2


def test_albert_witness_on_a_derivation_that_kills_the_diagonal(albert5):
    """D(e_ii) = 0 for the three idempotents leaves the off-diagonal
    branch: the first component basis element with a nonzero image."""
    space = derivation_space(albert5)
    idempotents = albert5.meta.idempotents
    # row (i, k) is coordinate k of D_s(e_ii), one column per basis map s
    rows = [[m.matrix.apply(idempotents[i])[k] for m in space.basis] for i in range(3) for k in range(27)]
    killing = Subspace(F5, space.dim, rows).annihilator()
    assert (space.dim, killing.dim) == (52, 28)
    dmap = space.combination(killing.basis[0])
    assert not dmap.is_zero()
    assert all(dmap.apply(albert5.element(e)).is_zero() for e in idempotents)
    witness = albert_div_witness(albert5, dmap)
    assert witness == albert5.basis_element(albert5.labels.index("u12_0"))
    assert dmap.apply(witness).coords == tuple(4 * (i == 2) for i in range(27))
    report = has_invertible_values(albert5, dmap)
    assert (report.verdict, report.method, report.witness) == ("not_div", "albert_recipe", witness)


def test_rational_spin_bounded_search_finds_an_isotropic_value(monkeypatch):
    """A rank-4 derivation of the Q spin factor of diag(1, 1, 1, -3): the
    restricted form -f has no pair with a square ratio and is indefinite,
    so the bounded search runs, and (1, 1, 1, 1) is isotropic."""
    table = diagonal_spin_factor(Q, [1, 1, 1, -3])
    gram_inv = [1, 1, 1, Fraction(-1, 3)]
    skew = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    rows = [[0] * 5] + [[0] + [gram_inv[r] * skew[r][c] for c in range(4)] for r in range(4)]
    dmap = LinearMap(table, Matrix(Q, rows))
    assert is_derivation(table, dmap) and dmap.image().dim == 4
    norms = []
    monkeypatch.setattr(derivations, "spin_norm", lambda x: norms.append(x) or spin_norm(x))
    report = has_invertible_values(table, dmap)
    assert (report.verdict, report.method, report.note) == ("not_div", "spin_norm", "")
    assert report.witness.coords == (0, 1, -1, -3, -1)
    value = dmap.apply(report.witness)
    assert value.coords == (0, -1, -1, -1, -1)
    # the search ran, and its last norm was the witness value's
    assert norms[-1] == value and spin_norm(value) == 0
