"""The two row-reduction kernels and the dispatch around them.

`_rref_mod_py` works on Python lists (integer rows over Q, eliminated
fraction free and returned as Fractions; ints over GF(p)); the Fraction
elimination it replaced over Q is kept here as its reference.
`_rref_mod_np` works on numpy arrays over every GF(p), in int64
below 2^31 and in object dtype from there on.  These tests compare the
kernels with each other and with sympy, pin the derivation maps the
numpy kernel produces, and check the exact fallbacks and self-checks
around them.  Property tests (hypothesis) compare the block-by-block
GF(p) nullspace with exact elimination on block-diagonal systems given
as arrays, rows and entry triples, and the block-by-block nullspace
with sympy over Q and over GF(p).  Column blocks of one shape, reduced
together on `_rref_batch`, are compared with the same blocks reduced one
at a time, and spies count the kernel calls of the batched path and of
the paths it leaves alone.
"""

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordanalg
from jordanalg import derivations, linalg
from jordanalg.algebra import check_identity
from jordanalg.cli import main
from jordanalg.constructions import (
    albert_type,
    cayley_dickson,
    diagonal_spin_factor,
    matrix_algebra,
)
from jordanalg.derivations import derivation_space, is_derivation
from jordanalg.errors import CertificationError
from jordanalg.fields import RATIONALS, prime_field
from jordanalg.linalg import (
    _CRT_PRIMES,
    _NP_THRESHOLD,
    Entries,
    _column_blocks,
    _entries_mod,
    _nullspace_exact,
    _nullspace_mod_staged,
    _rref_mod_np,
    _rref_mod_py,
    nullspace_int_crt,
    nullspace_raw,
    rref_raw,
    solve_raw,
)

# primes whose residues take the object-dtype path of the numpy kernel
OBJECT_PRIMES = (2**31 + 11, 2**62 + 135)
SRC = str(Path(jordanalg.__file__).resolve().parents[1])


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def _low_rank_rows(rng, nrows, ncols, rank, p):
    """Random rows over GF(p) spanned by `rank` random rows."""
    base = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randrange(p) for _ in range(rank)]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) % p for j in range(ncols)])
    return rows


def _is_null(rows, vec, p):
    return all(sum(a * x for a, x in zip(row, vec)) % p == 0 for row in rows)


@pytest.mark.parametrize("p", OBJECT_PRIMES)
def test_numpy_kernel_matches_python_kernel_at_large_primes(p):
    rng = random.Random(7101)
    for _ in range(20):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = _low_rank_rows(rng, nrows, ncols, rng.randrange(1, 5), p)
        expected, rank, pivots = _rref_mod_py([r[:] for r in rows], p)
        for given in (rows, np.array(rows, dtype=object), np.array(rows, dtype=np.int64)):
            arr, rank_np, pivots_np = _rref_mod_np(given, p)
            assert arr.dtype == object
            assert (rank_np, pivots_np) == (rank, pivots)
            assert arr.tolist() == expected


@pytest.mark.parametrize("p", OBJECT_PRIMES)
def test_staged_nullspace_matches_nullspace_raw_at_large_primes(p):
    rng = random.Random(7102)
    f = prime_field(p)
    for _ in range(6):
        rows = _low_rank_rows(rng, 30, 12, rng.randrange(3, 10), p)
        direct = nullspace_raw(f, rows, 12)
        assert direct
        staged = _nullspace_mod_staged(np.array(rows, dtype=object), p, chunk=5)
        assert staged.tolist() == direct
        assert all(_is_null(rows, v, p) for v in direct)


@pytest.mark.parametrize("p", (7,) + OBJECT_PRIMES)
def test_staged_nullspace_keeps_repeated_rows_harmless(p):
    rng = random.Random(7103)
    f = prime_field(p)
    rows = _low_rank_rows(rng, 8, 10, 6, p)
    repeated = rows * 3 + [[0] * 10] * 4 + rows[:3]
    rng.shuffle(repeated)
    direct = nullspace_raw(f, rows, 10)
    assert len(direct) == 4
    for chunk in (1, 4, 3000):
        staged = _nullspace_mod_staged(repeated, p, chunk=chunk)
        assert staged.tolist() == direct
    assert nullspace_raw(f, repeated, 10) == direct


def test_numpy_kernel_serves_large_systems_at_2_61_minus_1(monkeypatch):
    p = 2**61 - 1
    f = prime_field(p)
    rng = random.Random(7104)
    rows = _low_rank_rows(rng, 80, 70, 50, p)
    assert len(rows) * len(rows[0]) > _NP_THRESHOLD
    expected_rref = _rref_mod_py([r[:] for r in rows], p)
    monkeypatch.setattr(linalg, "_NP_THRESHOLD", 10**9)
    expected_null = nullspace_raw(f, rows, 70)
    monkeypatch.undo()

    dtypes = []
    real = linalg._rref_mod_np

    def spy(a, q):
        out = real(a, q)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(linalg, "_rref_mod_np", spy)
    assert rref_raw(f, rows) == expected_rref
    assert dtypes == [object]
    null = nullspace_raw(f, rows, 70)
    assert null == expected_null
    assert len(null) == 20
    assert all(_is_null(rows, v, p) for v in null)
    assert len(dtypes) > 1 and all(d == object for d in dtypes)


def test_python_kernel_over_q_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7105)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rank = rng.randrange(1, 5)
        base = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(ncols)]
                for _ in range(rank)]
        rows = [
            [sum((rng.randrange(-3, 4) * b[j] for b in base), Fraction(0)) for j in range(ncols)]
            for _ in range(nrows)
        ]
        red, rank_py, pivots = _rref_mod_py([r[:] for r in rows], None)
        ref, ref_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        ).rref()
        assert pivots == list(ref_pivots)
        assert rank_py == len(ref_pivots)
        assert red == [
            [Fraction(int(ref[i, j].p), int(ref[i, j].q)) for j in range(ncols)]
            for i in range(nrows)
        ]


# SHA-256 of `derivations --sample --seed S -o FILE` on the GF(5) Albert
# file built with --mu -1,-1,-1 --gamma 1,1,1, taken before the row dedup
# was dropped from the staged nullspace
ALBERT5_MAP_SHA256 = {
    1: "2814dba9ac605930c9307593d186072983203fd92b3e968fae95c120e6643879",
    2: "36c5538316ffbc3f0df22c55ad71b5898c848647791e7506191e224cb14048c8",
}


def test_albert_sample_map_files_are_pinned(tmp_path, capsys):
    alg = tmp_path / "albert5.alg"
    assert main(["build", "albert", "--field", "GF:5", "--mu", "-1,-1,-1",
                 "--gamma", "1,1,1", "-o", str(alg)]) == 0
    for seed, digest in ALBERT5_MAP_SHA256.items():
        out = tmp_path / f"d{seed}.map"
        assert main(["derivations", str(alg), "--sample", "--seed", str(seed), "-o", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "derivation space dimension 52"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the same for the GF(7) Albert file built with --mu 1,2,3 --gamma 1,2,4,
# taken before the Leibniz system was solved block by block
ALBERT7_MAP_SHA256 = {
    1: "19684169d2d35850a3955aafdd44de272285980963486ceb08f5841432312cef",
    2: "c95a1677823c6888c000b23312d729e56b9c8f5e48115a22e17081627cf78a44",
}


def test_albert7_sample_map_files_are_pinned(tmp_path, capsys):
    alg = tmp_path / "albert7.alg"
    assert main(["build", "albert", "--field", "GF:7", "--mu", "1,2,3",
                 "--gamma", "1,2,4", "-o", str(alg)]) == 0
    for seed, digest in ALBERT7_MAP_SHA256.items():
        out = tmp_path / f"d{seed}.map"
        assert main(["derivations", str(alg), "--sample", "--seed", str(seed), "-o", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "derivation space dimension 52"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the Leibniz system from its nonzero entries, solved block by block

BLOCK_PRIMES = (3, 7, 2**31 + 11, 2**64 + 13)
checked = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@st.composite
def block_systems(draw):
    """(p, rows, ncols): a block-diagonal system over GF(p) with its
    columns permuted and its rows shuffled.  A block is triangular with a
    nonzero diagonal (no null vector), of low rank, or random; zero rows
    and repeated rows are mixed in."""
    p = draw(st.sampled_from(BLOCK_PRIMES))
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    ncols = sum(widths)
    perm = draw(st.permutations(range(ncols)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = []
    lo = 0
    for w in widths:
        cols = perm[lo : lo + w]
        lo += w
        kind = draw(st.sampled_from(("triangular", "low_rank", "random")))
        if kind == "triangular":
            local = [[0] * i + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(w - i - 1)]
                     for i in range(w)]
        elif kind == "low_rank":
            local = _low_rank_rows(rng, draw(st.integers(1, 6)), w, draw(st.integers(1, w)), p)
        else:
            local = [[rng.randrange(p) for _ in range(w)] for _ in range(draw(st.integers(0, 4)))]
        for row in local:
            full = [0] * ncols
            for c, v in zip(cols, row):
                full[c] = v
            rows.append(full)
    rows += [[0] * ncols for _ in range(draw(st.integers(1, 3)))]
    rows += [list(rows[rng.randrange(len(rows))]) for _ in range(draw(st.integers(0, 4)))]
    rng.shuffle(rows)
    return p, rows, ncols


def _as_triples(rng, rows, ncols, p):
    """The rows as shuffled entry triples: every nonzero entry split in
    two values that are not residues, and on each row one pair of
    triples that cancel mod p in a random cell."""
    triples = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                x = rng.randrange(p)
                triples += [(i, j, x - p), (i, j, v - x + p * rng.randrange(3))]
        j, y = rng.randrange(ncols), rng.randrange(1, p)
        triples += [(i, j, y), (i, j, -y)]
    rng.shuffle(triples)
    r, c, v = zip(*triples)
    dtype = object if 3 * p >= 2**63 else np.int64
    return Entries((len(rows), ncols), np.array(r), np.array(c), np.array(v, dtype=dtype))


@checked
@given(block_systems(), st.integers(0, 2**32))
def test_block_nullspace_matches_exact_elimination(system, seed):
    p, rows, ncols = system
    expected = _nullspace_exact(prime_field(p), [list(r) for r in rows], ncols)
    inputs = [rows, np.array(rows, dtype=object), _as_triples(random.Random(seed), rows, ncols, p)]
    if max(max(row) for row in rows) < 2**63:
        inputs.append(np.array(rows, dtype=np.int64))
    # a threshold of 0 splits every system into blocks; the default keeps
    # these small ones whole
    for threshold in (0, _NP_THRESHOLD):
        with mock.patch.object(linalg, "_NP_THRESHOLD", threshold):
            for chunk in (5, 3000):
                for m in inputs:
                    assert _nullspace_mod_staged(m, p, chunk).tolist() == expected


def test_staged_nullspace_takes_int64_input_at_primes_past_int64():
    p = 2**64 + 13
    expected = _nullspace_exact(prime_field(p), [[1, 2, 3], [0, 0, 0]], 3)
    assert len(expected) == 2
    dense = np.array([[1, 2, 3], [0, 0, 0]], dtype=np.int64)
    triples = Entries((2, 3), np.zeros(3, dtype=np.int64), np.arange(3), np.arange(1, 4))
    for threshold in (0, _NP_THRESHOLD):
        with mock.patch.object(linalg, "_NP_THRESHOLD", threshold):
            assert _nullspace_mod_staged(dense, p).tolist() == expected
            assert _nullspace_mod_staged(triples, p).tolist() == expected


def test_block_nullspace_of_a_tall_system_with_many_blocks():
    # past _NP_THRESHOLD cells: 30 blocks of 4 columns, rank 2 each
    p = 7
    rng = random.Random(7106)
    perm = list(range(120))
    rng.shuffle(perm)
    rows = []
    for b in range(30):
        for local in _low_rank_rows(rng, 5, 4, 2, p):
            full = [0] * 120
            for c, v in zip(perm[4 * b : 4 * b + 4], local):
                full[c] = v
            rows.append(full)
    assert len(rows) * 120 > _NP_THRESHOLD
    staged = _nullspace_mod_staged(rows, p, chunk=7)
    assert staged.shape == (60, 120)
    assert staged.tolist() == _nullspace_exact(prime_field(p), rows, 120)


def _dense_leibniz_rows(table):
    """The Leibniz system as one dense block per pair (the construction
    the entry triples replace)."""
    c, _ = table.structure_int_tensor()
    n = table.dim
    if check_identity(table, "commutative"):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    system = np.zeros((len(pairs), n, n, n), dtype=c.dtype)
    diag = np.arange(n)
    for t, (i, j) in enumerate(pairs):
        blk = system[t]
        blk[diag, diag, :] += c[i, j, :]
        blk[:, :, i] -= c[:, j, :].T
        blk[:, :, j] -= c[i, :, :].T
    return system.reshape(len(pairs) * n, n * n)


LEIBNIZ_TABLES = {
    "spin-gf3": lambda: diagonal_spin_factor(prime_field(3), [1, 1, 1]),
    "spin-gf5-degenerate": lambda: diagonal_spin_factor(prime_field(5), [1, 2, 0, 3]),
    "spin-gf7": lambda: diagonal_spin_factor(prime_field(7), [1, 3, 5]),
    "spin-q": lambda: diagonal_spin_factor(RATIONALS, [Fraction(1, 2), 1, -3]),
    "m2-spin-gf3": lambda: matrix_algebra(diagonal_spin_factor(prime_field(3), [1]), 2),
    "octonions-q": lambda: cayley_dickson(RATIONALS, [-1, -1, -1])[0],
}


@pytest.mark.parametrize("name", LEIBNIZ_TABLES)
def test_leibniz_entries_and_basis_match_the_dense_system(name):
    table = LEIBNIZ_TABLES[name]()
    dense = _dense_leibniz_rows(table)
    n = table.dim
    c, _ = table.structure_int_tensor()
    if check_identity(table, "commutative"):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    system = derivations._leibniz_entries(c, pairs)
    scattered = np.zeros(system.shape, dtype=c.dtype)
    np.add.at(scattered, (system.rows, system.cols), system.vals)
    assert np.array_equal(scattered, dense)
    f = table.field
    rows = [[f.coerce(int(x)) for x in row] for row in dense.tolist()]
    expected = _nullspace_exact(f, rows, n * n)
    assert [list(sum(m.matrix.rows, ())) for m in derivation_space(table).basis] == expected


def test_albert_derivation_space_allocates_no_dense_system():
    # the dense system would be 10,206 x 729 int64 entries, about 60 MB
    table = albert_type(prime_field(7), [1, 2, 3], [1, 2, 4])
    tracemalloc.start()
    try:
        space = derivation_space(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 52
    assert peak < 16 * 2**20


def test_albert_derivation_space_allocates_no_dense_system_over_q():
    # over Q too: the column blocks come from exact sums of the triples
    table = albert_type(RATIONALS, [1, 2, 3], [1, 2, 4])
    tracemalloc.start()
    try:
        space = derivation_space(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 52
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# GF(p) column blocks of one shape, reduced together


def _leibniz_system(table):
    """The Leibniz system of `table` as `derivation_space` builds it."""
    n = table.dim
    flat, _ = derivations._leibniz_pairs(n, check_identity(table, "commutative"))
    c, _ = table.structure_int_tensor()
    return derivations._leibniz_entries(c, np.stack(np.divmod(flat, n), axis=1))


def _one_block_at_a_time(m, p, chunk=3000):
    """`_nullspace_mod_staged` with every column block on `_block_nullspace`."""
    e = _entries_mod(m, p)
    parts, pivots = [], []
    for cols, a in _column_blocks(e, p):
        ns, piv = linalg._block_nullspace(a, p, chunk)
        full = np.zeros((len(ns), e.shape[1]), dtype=ns.dtype)
        full[:, cols] = ns
        parts.append(full)
        pivots += cols[piv].tolist()
    return np.concatenate(parts)[np.argsort(pivots)].tolist()


def _kernel_calls(monkeypatch, *names):
    """name -> list of the shapes of the first argument of each call of linalg.<name>."""
    calls = {}
    for name in names:
        real, seen = getattr(linalg, name), calls.setdefault(name, [])
        monkeypatch.setattr(linalg, name, lambda a, *rest, real=real, seen=seen: seen.append(np.shape(a)) or real(a, *rest))
    return calls


@pytest.mark.parametrize("p, mus, gammas", [
    (3, [1, 2, 1], [1, 2, 2]),
    (5, [1, 2, 3], [1, 2, 4]),
    (7, [1, 2, 3], [1, 2, 4]),
    (2**31 - 1, [1, 2, 3], [1, 2, 4]),
])
def test_grouped_albert_blocks_match_one_block_at_a_time(monkeypatch, p, mus, gammas):
    system = _leibniz_system(albert_type(prime_field(p), mus, gammas))
    expected = _one_block_at_a_time(system, p)
    calls = _kernel_calls(monkeypatch, "_rref_batch")
    assert _nullspace_mod_staged(system, p).tolist() == expected
    assert calls["_rref_batch"]
    assert len(expected) == 52


def test_grouped_blocks_match_one_block_at_a_time_on_the_search_tables(monkeypatch):
    """The search tables' systems are single blocks of at most
    `_NP_THRESHOLD` cells; a threshold of 0 splits them into blocks and
    sends every block of a shared shape to `_rref_batch`."""
    from test_search import SEARCH_TABLES

    batched = 0
    for name, table in sorted(SEARCH_TABLES.items()):
        p = table.field.p
        system = _leibniz_system(table)
        expected = _nullspace_mod_staged(system, p).tolist()
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_NP_THRESHOLD", 0)
            assert _one_block_at_a_time(system, p) == expected, name
            calls = _kernel_calls(patch, "_rref_batch")
            assert _nullspace_mod_staged(system, p).tolist() == expected, name
        batched += len(calls["_rref_batch"])
    assert batched > len(SEARCH_TABLES)


def test_albert_blocks_take_one_batched_reduction_per_shape(monkeypatch):
    # 24 blocks of 300 x 22 and 7 of 216 x 24 are batched; the one
    # 351 x 33 block is reduced on its own
    system = _leibniz_system(albert_type(prime_field(7), [1, 2, 3], [1, 2, 4]))
    calls = _kernel_calls(monkeypatch, "_rref_batch", "_rref_mod_np", "_block_nullspace")
    _nullspace_mod_staged(system, 7)
    assert sorted(calls["_rref_batch"]) == [(7, 216, 24), (24, 300, 22)]
    assert calls["_block_nullspace"] == [(351, 33)]
    assert calls["_rref_mod_np"] == [(351, 33)]


def _side_by_side(blocks):
    """Blocks of rows on consecutive, disjoint column ranges."""
    widths = [len(b[0]) for b in blocks]
    rows = []
    for k, block in enumerate(blocks):
        rows += [[0] * sum(widths[:k]) + row + [0] * sum(widths[k + 1 :]) for row in block]
    return rows


@pytest.mark.parametrize("case", ["lone block", "rows past chunk", "GF(2^61-1)"])
def test_blocks_the_batch_leaves_to_the_block_solver(monkeypatch, case):
    """A lone block, blocks with more rows than `chunk` and blocks past
    int64 products are reduced one by one on the numpy kernel."""
    p = 2**61 - 1 if case == "GF(2^61-1)" else 7
    rng = random.Random(f"kept-{case}")
    blocks = [_low_rank_rows(rng, 200, 30, 20, p) for _ in range(1 if case == "lone block" else 2)]
    rows = _side_by_side(blocks)
    chunk = 150 if case == "rows past chunk" else 3000
    calls = _kernel_calls(monkeypatch, "_rref_batch", "_rref_mod_np", "_block_nullspace")
    staged = _nullspace_mod_staged(rows, p, chunk).tolist()
    assert calls["_rref_batch"] == []
    assert calls["_block_nullspace"] == [(200, 30)] * len(blocks)
    # past `chunk` rows, the second chunk is reduced in the 10 coordinates left
    per_block = [(200, 30)] if chunk > 200 else [(150, 30), (50, 10)]
    assert calls["_rref_mod_np"] == per_block * len(blocks)
    assert staged == _nullspace_exact(prime_field(p), rows, 30 * len(blocks))
    assert len(staged) == 10 * len(blocks)


# ---------------------------------------------------------------------------
# rational nullspaces, block by block


def _sympy_nullspace(sympy, rows, ncols):
    """The reduced echelon basis of the nullspace, by sympy."""
    vectors = sympy.Matrix(len(rows), ncols, [sympy.Integer(x) if isinstance(x, int) else
                                             sympy.Rational(x.numerator, x.denominator)
                                             for row in rows for x in row]).nullspace()
    if not vectors:
        return []
    red = sympy.Matrix.hstack(*vectors).T.rref()[0]
    return [[Fraction(int(x.p), int(x.q)) for x in red.row(i)] for i in range(red.rows)]


def _linked_groups(rng, link):
    """A tall integer system of two column groups of 20, each of rank 12,
    and one row linking column 0 to column 20 with the entries 1, link."""
    rows = []
    for lo in (0, 20):
        base = [[rng.randrange(-9, 10) for _ in range(20)] for _ in range(12)]
        for _ in range(60):
            full = [0] * 40
            coeffs = [rng.randrange(-3, 4) for _ in base]
            full[lo : lo + 20] = [sum(k * b[j] for k, b in zip(coeffs, base)) for j in range(20)]
            rows.append(full)
    linking = [0] * 40
    linking[0], linking[20] = 1, link
    return rows + [linking]


def _as_rational_triples(rng, rows, ncols):
    """The rows as shuffled entry triples over Z: every nonzero entry
    split in two, and on each row one pair of triples that cancel."""
    triples = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                x = rng.randrange(-50, 50)
                triples += [(i, j, x), (i, j, v - x)]
        j, y = rng.randrange(ncols), rng.randrange(1, 50)
        triples += [(i, j, y), (i, j, -y)]
    rng.shuffle(triples)
    r, c, v = zip(*triples)
    dtype = object if max(abs(x) for x in v) >= 2**62 else np.int64
    return Entries((len(rows), ncols), np.array(r), np.array(c), np.array(v, dtype=dtype))


def test_rational_blocks_keep_a_link_that_vanishes_mod_a_crt_prime():
    p = _CRT_PRIMES[0]
    rows = _linked_groups(random.Random(7107), p)
    assert len(rows) * 40 > _NP_THRESHOLD
    m = np.array(rows, dtype=np.int64)
    # one block over Q; two mod p, where the link is 0
    assert len(list(_column_blocks(_entries_mod(m, None), None))) == 1
    assert len(list(_column_blocks(_entries_mod(m, p), p))) == 2
    expected = _nullspace_exact(RATIONALS, [[Fraction(v) for v in row] for row in rows], 40)
    unlinked = _nullspace_exact(RATIONALS, [[Fraction(v % p) for v in row] for row in rows], 40)
    assert expected != unlinked
    triples = _as_rational_triples(random.Random(7108), rows, 40)
    for given_m in (m, rows, triples):
        assert _nullspace_mod_staged(given_m, None).tolist() == expected


@st.composite
def integer_block_systems(draw):
    """(rows, ncols): a block-diagonal integer system with its columns
    permuted and its rows shuffled, some entries past 2^63.  A block is
    triangular with a nonzero diagonal, of low rank, or random; zero
    rows and repeated rows are mixed in."""
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    ncols = sum(widths)
    perm = draw(st.permutations(range(ncols)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    big = draw(st.sampled_from((9, 2**64 + 13)))

    def entry():
        return rng.choice((rng.randrange(-9, 10), rng.choice((-big, big)) + rng.randrange(-3, 4)))

    rows = []
    lo = 0
    for w in widths:
        cols = perm[lo : lo + w]
        lo += w
        kind = draw(st.sampled_from(("triangular", "low_rank", "random")))
        if kind == "triangular":
            local = [[0] * i + [entry() or 1] + [entry() for _ in range(w - i - 1)] for i in range(w)]
        elif kind == "low_rank":
            base = [[entry() for _ in range(w)] for _ in range(draw(st.integers(1, max(w - 1, 1))))]
            local = [[sum(k * b[j] for k, b in zip(coeffs, base)) for j in range(w)]
                     for coeffs in ([rng.randrange(-2, 3) for _ in base] for _ in range(draw(st.integers(1, 5))))]
        else:
            local = [[entry() for _ in range(w)] for _ in range(draw(st.integers(0, 3)))]
        for row in local:
            full = [0] * ncols
            for c, v in zip(cols, row):
                full[c] = v
            rows.append(full)
    rows += [[0] * ncols for _ in range(draw(st.integers(1, 2)))]
    rows += [list(rows[rng.randrange(len(rows))]) for _ in range(draw(st.integers(0, 3)))]
    rng.shuffle(rows)
    return rows, ncols


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(integer_block_systems(), st.integers(0, 2**32))
def test_rational_block_nullspace_matches_sympy(system, seed):
    sympy = pytest.importorskip("sympy")
    rows, ncols = system
    expected = _sympy_nullspace(sympy, rows, ncols)
    big = max(abs(v) for row in rows for v in row) >= 2**63
    inputs = [rows, np.array(rows, dtype=object), _as_rational_triples(random.Random(seed), rows, ncols)]
    if not big:
        inputs.append(np.array(rows, dtype=np.int64))
    # a threshold of 0 splits every system into blocks; the default keeps
    # these small ones whole
    for threshold in (0, _NP_THRESHOLD):
        with mock.patch.object(linalg, "_NP_THRESHOLD", threshold):
            for m in inputs:
                basis = _nullspace_mod_staged(m, None)
                assert basis.dtype == object
                assert basis.tolist() == expected
                assert all(type(x) is Fraction for row in basis.tolist() for x in row)


SYMPY_PRIMES = (7, 2**31 - 1, 2**61 - 1)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(integer_block_systems(), st.sampled_from(SYMPY_PRIMES), st.integers(0, 2**32))
def test_staged_nullspace_matches_sympy_over_gf_p(system, p, seed):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rows, ncols = system
    null = DomainMatrix.from_list(rows, sympy.GF(p)).nullspace()
    expected = [[int(x) % p for x in row] for row in null.rref()[0].to_list()] if null.shape[0] else []
    big = max(abs(v) for row in rows for v in row) >= 2**63
    inputs = [rows, np.array(rows, dtype=object), _as_rational_triples(random.Random(seed), rows, ncols)]
    if not big:
        inputs.append(np.array(rows, dtype=np.int64))
    for threshold in (0, _NP_THRESHOLD):
        with mock.patch.object(linalg, "_NP_THRESHOLD", threshold):
            for m in inputs:
                assert _nullspace_mod_staged(m, p).tolist() == expected


def test_crt_solves_each_prime_once_on_the_block_solver(monkeypatch):
    solved, tried = [], []
    real_block, real_try = linalg._block_nullspace, linalg._try_reconstruct

    def block(m, p, *args):
        solved.append(p)
        return real_block(m, p, *args)

    def try_reconstruct(combined, int_rows):
        tried.append(len(combined))
        return real_try(combined, int_rows)

    def staged(*args):
        raise AssertionError("the CRT solver split its block again")

    monkeypatch.setattr(linalg, "_block_nullspace", block)
    monkeypatch.setattr(linalg, "_try_reconstruct", try_reconstruct)
    monkeypatch.setattr(linalg, "_nullspace_mod_staged", staged)
    # 1/3^30 needs several primes; 3^200 is past all of them
    for rows, primes in (([[1, -3**30, 0]], range(2, len(_CRT_PRIMES))),
                         ([[3**200, 1, 0], [-2 * 3**200, -2, 0]], [len(_CRT_PRIMES)])):
        solved.clear()
        tried.clear()
        nullspace_int_crt(rows, 3)
        assert len(tried) in primes
        assert solved == list(_CRT_PRIMES[: len(tried)])


def test_crt_certificate_refuses_a_wrong_reconstruction():
    # the first prime alone reconstructs 1/N as a small wrong fraction,
    # which only the exact product with the matrix refuses
    big = 3**30
    p = _CRT_PRIMES[0]
    assert linalg._rat_reconstruct(pow(big, -1, p), p) not in (None, Fraction(1, big))
    assert nullspace_int_crt([[1, -big, 0]], 3) == [[1, Fraction(1, big), 0], [0, 0, 1]]


@st.composite
def rational_rows(draw):
    """(rows, ncols): random rational rows of a low-rank system, each row
    with its own denominators, and a zero row now and then."""
    ncols = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    base = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(ncols)]
            for _ in range(draw(st.integers(1, ncols)))]
    rows = [[sum((Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)) * b[j] for b in base), Fraction(0))
             for j in range(ncols)]
            for _ in range(draw(st.integers(1, 7)))]
    if draw(st.booleans()):
        rows.append([Fraction(0)] * ncols)
    return rows, ncols


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(rational_rows())
def test_nullspace_raw_crt_branch_matches_sympy(system):
    sympy = pytest.importorskip("sympy")
    rows, ncols = system
    expected = _sympy_nullspace(sympy, rows, ncols)
    calls = []
    real = linalg._nullspace_mod_staged

    def spy(m, p, chunk=3000):
        calls.append(p)
        return real(m, p, chunk)

    with mock.patch.object(linalg, "_CRT_THRESHOLD", 0), mock.patch.object(linalg, "_nullspace_mod_staged", spy):
        assert nullspace_raw(RATIONALS, rows, ncols) == expected
    # the branch ran: one rational staged call; each CRT prime is solved on
    # _block_nullspace, which this spy does not see
    assert calls == [None]


def test_crt_nullspace_falls_back_to_exact_elimination(monkeypatch):
    big = 3**200
    rows = [[big, 1, 0], [0, 0, 0], [-2 * big, -2, 0]]
    calls = []
    real = linalg._nullspace_exact

    def spy(field, frac_rows, ncols):
        calls.append(field)
        return real(field, frac_rows, ncols)

    monkeypatch.setattr(linalg, "_nullspace_exact", spy)
    basis = nullspace_int_crt(rows, 3)
    assert calls == [RATIONALS]
    assert basis == [[Fraction(1), Fraction(-big), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    assert nullspace_int_crt(np.array(rows, dtype=object), 3) == basis


def test_crt_folds_each_prime_once(monkeypatch):
    # the primes cannot certify this system, so every prime is tried
    folds, systems = [], []
    real_fold, real_crt = linalg._crt_fold, linalg.nullspace_int_crt

    def fold(r, m, residues, p):
        folds.append(p)
        return real_fold(r, m, residues, p)

    def crt(int_rows, ncols):
        systems.append((int_rows, ncols))
        return real_crt(int_rows, ncols)

    monkeypatch.setattr(linalg, "_crt_fold", fold)
    monkeypatch.setattr(linalg, "nullspace_int_crt", crt)
    space = derivation_space(diagonal_spin_factor(RATIONALS, [3**200, 1, 1]))
    assert folds == list(linalg._CRT_PRIMES[1:])
    (int_rows, ncols), = systems
    frac_rows = [[Fraction(v) for v in row] for row in int_rows.tolist()]
    exact = linalg._nullspace_exact(RATIONALS, frac_rows, ncols)
    assert [sum(m.matrix.rows, ()) for m in space.basis] == [tuple(row) for row in exact]


def test_derivation_space_with_entries_past_the_crt_primes():
    table = diagonal_spin_factor(RATIONALS, [3**200, 1, 1])
    space = derivation_space(table)
    assert space.dim == 3
    assert all(is_derivation(table, m) for m in space.basis)


def test_cli_derivations_with_entries_past_the_crt_primes(tmp_path):
    path = tmp_path / "big.alg"
    cli = [sys.executable, "-m", "jordanalg.cli"]
    built = subprocess.run(cli + ["build", "spin", "--field", "Q", "--diag", f"{3**200},1,1",
                                  "-o", str(path)], capture_output=True, text=True, env=_env())
    assert built.returncode == 0, built.stderr
    result = subprocess.run(cli + ["derivations", str(path)], capture_output=True, text=True,
                            env=_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout == "derivation space dimension 3\n"
    assert result.stderr == ""


def _corrupt_staged(m, p, chunk=3000):
    basis = _nullspace_mod_staged(m, p, chunk)
    basis[0, -1] = (basis[0, -1] + 1) % p
    return basis


def _corrupt_crt(int_rows, ncols):
    basis = nullspace_int_crt(int_rows, ncols)
    basis[0][-1] += 1
    return basis


@pytest.mark.parametrize(
    "field, kernel, corrupted",
    [(prime_field(5), "_nullspace_mod_staged", _corrupt_staged),
     (RATIONALS, "nullspace_int_crt", _corrupt_crt)],
)
def test_corrupted_derivation_basis_fails_certification(monkeypatch, field, kernel, corrupted):
    # over Q the staged nullspace hands each column block to the CRT solver
    monkeypatch.setattr(linalg if kernel == "nullspace_int_crt" else derivations, kernel, corrupted)
    with pytest.raises(CertificationError, match="Leibniz"):
        derivation_space(diagonal_spin_factor(field, [1, 1, 1]))


CORRUPTED_UNDER_O = """
import sys
import jordanalg.derivations as d
from jordanalg.constructions import diagonal_spin_factor
from jordanalg.errors import CertificationError
from jordanalg.fields import prime_field

real = d._nullspace_mod_staged

def corrupted(m, p, chunk=3000):
    basis = real(m, p, chunk)
    basis[0, -1] = (basis[0, -1] + 1) % p
    return basis

d._nullspace_mod_staged = corrupted
print("optimize", sys.flags.optimize)
try:
    d.derivation_space(diagonal_spin_factor(prime_field(5), [1, 1, 1]))
except CertificationError as exc:
    print("CertificationError:", exc)
else:
    print("accepted")
"""


def test_corrupted_derivation_basis_fails_certification_under_python_O():
    result = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_UNDER_O],
                            capture_output=True, text=True, env=_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "optimize 1\nCertificationError: nullspace row fails the Leibniz rule\n"
    )


# ---------------------------------------------------------------------------
# the fraction-free rational kernel against the Fraction kernel it replaced


def _fraction_rref_reference(rows, p):
    """`_rref_mod_py` as it was before rational rows were reduced on
    integers: over Q every entry is a Fraction and each operation on it
    reduces by its own gcd."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] % p if p else rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], p - 2, p) if p else 1 / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv % p for x in rows[r]] if p else [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r:
                f = rows[i][c] % p if p else rows[i][c]
                if f:
                    row_i, row_r = rows[i], rows[r]
                    if p:
                        rows[i] = [(a - f * b) % p for a, b in zip(row_i, row_r)]
                    else:
                        rows[i] = [a - f * b for a, b in zip(row_i, row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, len(pivots), pivots


BIG = 3**200  # far past 2^63


@st.composite
def rational_systems(draw):
    """Rows over Q of up to 7 x 7, tall, wide or square, spanned by a few
    random rows (some repeated, some zero), with zero columns, entries
    past 2^63 and denominators up to 10^6; integral entries are drawn as
    ints or as Fractions."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(
        st.integers(-9, 9).map(Fraction),
        st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
        st.sampled_from([Fraction(BIG), Fraction(-BIG, 7), Fraction(5, BIG), Fraction(BIG + 1, 10**6)]),
    )
    base = [[draw(entry) for _ in range(ncols)] for _ in range(draw(st.integers(1, 4)))]
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("base", "zero", "combination", "random")))
        if kind == "base":
            rows.append(list(draw(st.sampled_from(base))))
        elif kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination":
            coeffs = [draw(st.integers(-3, 3)) for _ in base]
            rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0)) for j in range(ncols)])
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    for c in range(ncols):
        if draw(st.integers(0, 4)) == 0:
            for row in rows:
                row[c] = Fraction(0)
    mixed = [[x.numerator if x.denominator == 1 and draw(st.booleans()) else x for x in row] for row in rows]
    return rows, mixed


def _check_against_fraction_kernel(rows, mixed):
    expected = _fraction_rref_reference([r[:] for r in rows], None)
    given_rows = [r[:] for r in mixed]
    got = _rref_mod_py(given_rows, None)
    assert got[0] is given_rows
    assert got == expected
    assert all(type(x) is Fraction for row in got[0] for x in row)
    assert len(got[0]) == len(rows)


@checked
@given(rational_systems())
def test_rational_kernel_matches_the_fraction_kernel(system):
    """Equal rows, rank and pivots, Fraction entries throughout (zero rows
    included), returned in the list it was given; int entries are taken
    as the Fractions they equal."""
    _check_against_fraction_kernel(*system)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (1, 6), (6, 1), (7, 3), (3, 7)])
def test_rational_kernel_matches_the_fraction_kernel_at_every_shape(shape):
    rng = random.Random(f"rational-kernel-{shape}")
    nrows, ncols = shape
    for _ in range(40):
        rows = [
            [Fraction(rng.choice((0, 0, 1, -2, BIG, 7 * BIG + 1)), rng.choice((1, 3, 10**6, 999_983)))
             for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if nrows > 1:
            rows[-1] = list(rows[0])
        mixed = [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]
        _check_against_fraction_kernel(rows, mixed)


def test_rational_kernel_swaps_in_the_first_nonzero_row():
    rows = [[Fraction(0), Fraction(1), Fraction(2)], [Fraction(3), Fraction(4), Fraction(5)],
            [Fraction(6), Fraction(7), Fraction(9)]]
    red, rank, pivots = _rref_mod_py([r[:] for r in rows], None)
    assert (red, rank, pivots) == _fraction_rref_reference([r[:] for r in rows], None)
    assert rank == 3 and red == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def test_solve_raw_over_q_takes_ints_as_their_fractions():
    rng = random.Random("solve-ints")
    inconsistent = 0
    for _ in range(200):
        nrows, ncols = rng.randrange(0, 6), rng.randrange(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, 2, 5, BIG)) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        rhs = [rng.randrange(-3, 4) for _ in range(nrows)]
        as_ints = solve_raw(RATIONALS, rows, rhs)
        as_fractions = solve_raw(RATIONALS, [[Fraction(x) for x in row] for row in rows], [Fraction(b) for b in rhs])
        assert as_ints == as_fractions
        if as_ints is None:
            inconsistent += 1
        else:
            assert all(type(x) is Fraction for x in as_ints)
            assert all(sum(a * x for a, x in zip(row, as_ints)) == b for row, b in zip(rows, rhs))
    assert 0 < inconsistent < 200
