"""The float32 rung of the float path.

`linalg._sum_path` names the float path float64; `linalg._narrow_path`
runs an unreduced float-path product in float32 when `_product_bound` of
its sum is below 2^23.  These tests pin that boundary on both sides at
the inner dimensions of the 27-dim Albert and 9-dim plus-M3 tables, test
`_is_zero_mod` on float32 sums, compare every verdict and product with
the same computation forced onto float64 (the helper patched to keep its
dtype), and spy on the Albert checks to see that float32 does run.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jordanalg import algebra, derivations, linalg
from jordanalg.algebra import AlgebraTable, LinearMap, check_identity
from jordanalg.constructions import albert_type, diagonal_spin_factor
from jordanalg.derivations import derivation_space
from jordanalg.fields import RATIONALS, is_prime, prime_field
from jordanalg.linalg import Matrix, _exact_matmul, _is_zero_mod, _narrow_path, _sum_path

from test_algebra import _plus_matrices


def _float32_top(n, terms):
    """The least b with terms * n * b^2 >= 2^23: a sum of `terms` products
    of inner dimension n with entries up to b leaves float32 there."""
    return math.isqrt(((1 << 23) - 1) // (terms * n)) + 1


def _largest_prime_on_float32(n, terms):
    p = _float32_top(n, terms)
    while not is_prime(p):
        p -= 1
    return p


def _smallest_prime_past_float32(n, terms):
    p = _float32_top(n, terms) + 1
    while not is_prime(p):
        p += 1
    return p


def _width(n, p, terms):
    """The dtype a sum of `terms` GF(p) products of inner dimension n runs in."""
    return _narrow_path(_sum_path(n, p - 1, p - 1, p, terms), n, p - 1, p - 1, terms)[0]


def _float64_only(monkeypatch):
    """Force every float-path product back onto float64."""
    for module in (linalg, algebra, derivations):
        monkeypatch.setattr(module, "_narrow_path", lambda path, *rest: path)


# ---------------------------------------------------------------------------
# the boundary


@pytest.mark.parametrize("n, top, past", [(27, 317, 331), (9, 557, 563)])
def test_float32_boundary_of_the_three_term_sum(n, top, past):
    assert (_largest_prime_on_float32(n, 3), _smallest_prime_past_float32(n, 3)) == (top, past)
    assert 3 * n * (top - 1) ** 2 < 1 << 23 <= 3 * n * (past - 1) ** 2
    assert _width(n, top, 3) is np.float32
    assert _width(n, past, 3) is np.float64
    # float64 keeps naming the float path
    assert _sum_path(n, top - 1, top - 1, top, 3) == (np.float64, False)


@pytest.mark.parametrize("n", [27, 9])
def test_float32_boundary_of_one_product(n):
    top, past = _largest_prime_on_float32(n, 1), _smallest_prime_past_float32(n, 1)
    assert n * (top - 1) ** 2 < 1 << 23 <= n * (past - 1) ** 2
    assert _width(n, top, 1) is np.float32
    assert _width(n, past, 1) is np.float64


def test_float32_only_replaces_an_unreduced_float64_path():
    for path in ((np.float64, True), (np.int64, False), (np.int64, True), (object, False)):
        assert _narrow_path(path, 9, 6, 6, 3) == path
    # over Q the bound is that of the whole sum, from the scanned magnitudes
    big = math.isqrt(((1 << 23) - 1) // 81)
    assert _narrow_path(_sum_path(27, big, big, None, 3), 27, big, big, 3) == (np.float32, False)
    assert _narrow_path(_sum_path(27, big + 1, big + 1, None, 3), 27, big + 1, big + 1, 3) == (np.float64, False)
    assert _narrow_path(_sum_path(27, 0, 0, None, 3), 27, 0, 0, 3) == (np.float32, False)


# ---------------------------------------------------------------------------
# the zero test on float32 sums


FLOAT32_PRIMES = (2, 3, 5, 7, 317, 557, _largest_prime_on_float32(1, 1))


@pytest.mark.parametrize("p", FLOAT32_PRIMES)
def test_float32_zero_test_is_exact_below_2_23(p):
    assert (p - 1) ** 2 < 1 << 23
    rng = np.random.default_rng(p)
    top = ((1 << 23) - 3) // p
    m = np.concatenate([[0, 1, -1, top, -top, top - 1], rng.integers(-top, top + 1, 200)])
    multiples = (m * p).astype(np.float32)
    assert (multiples.astype(np.int64) == m * p).all()
    assert _is_zero_mod(multiples, p)
    for k in (1, -1, 2, -2, p // 2, -(p // 2)):
        if k % p:
            for at in (0, 3, 4, 7):
                off = multiples.copy()
                off[at] += k
                assert not _is_zero_mod(off, p), (k, at)


@pytest.mark.parametrize("p", [3, 7, 557])
def test_float32_multiples_below_2_23_never_reach_the_int64_remainder(p):
    # a/p is a float32 whenever a is, and a * (1/p) lies within half a
    # unit of it, so rint gives a/p and p * q == a holds on every multiple
    top = ((1 << 23) - 1) // p
    a = (np.arange(-top, top + 1) * p).astype(np.float32)
    q = np.rint(a * (1 / p))
    q *= p
    assert (q == a).all()


# ---------------------------------------------------------------------------
# float32 against float64


def _albert(field):
    return albert_type(field, [1, 2, 1], [1, 2, 2]) if field.p == 3 else albert_type(field, [1, 2, 3], [1, 2, 4])


def _perturbed_by(table, i, j, k, v):
    """The table with v added to c[i][j][k] and c[j][i][k]: still commutative."""
    f = table.field
    entries = {(a, b, c): w for a, b, c, w in table.sc_items()}
    for key in {(i, j, k), (j, i, k)}:
        entries[key] = f.add(entries.get(key, f.zero()), v)
    return AlgebraTable(f, table.dim, entries)


def _verdicts(monkeypatch, tables, maps):
    """Jordan verdicts of `tables` and Leibniz verdicts of (table, map)
    pairs, on the float32 rung and forced onto float64."""
    runs = []
    for forced in (False, True):
        with monkeypatch.context() as patch:
            if forced:
                _float64_only(patch)
            runs.append(([algebra._check_jordan(t) for t in tables],
                          [derivations._leibniz_holds(t, [d]) for t, d in maps]))
    assert runs[0] == runs[1]
    return runs[0]


def _perturbed_maps(space, rng, count):
    t = space.algebra
    f, n = t.field, t.dim
    maps = []
    for _ in range(count):
        rows = [list(row) for row in rng.choice(space.basis).matrix.rows]
        r, c = rng.randrange(n), rng.randrange(n)
        rows[r][c] = f.add(rows[r][c], f.coerce(rng.choice([1, -1, 2])))
        maps.append((t, LinearMap(t, Matrix(f, rows))))
    return maps


ALBERT_FIELDS = {"GF3": prime_field(3), "GF5": prime_field(5), "GF7": prime_field(7), "Q": RATIONALS}


@pytest.mark.parametrize("name", list(ALBERT_FIELDS))
def test_albert_verdicts_equal_float64(monkeypatch, name):
    f = ALBERT_FIELDS[name]
    rng = random.Random(f"float32-albert-{name}")
    t = _albert(f)
    n = t.dim
    bad = []
    for _ in range(40):
        i, j, k = (rng.randrange(n) for _ in range(3))
        v = f.coerce(rng.randrange(1, f.p)) if f.p else Fraction(rng.choice([1, -1, 3]), rng.choice([1, 2]))
        bad.append(_perturbed_by(t, i, j, k, v))
    space = derivation_space(t)
    maps = [(t, d) for d in space.basis[:6]] + _perturbed_maps(space, rng, 10)
    jordan, leibniz = _verdicts(monkeypatch, [t] + bad, maps)
    assert jordan == [True] + [False] * 40
    assert leibniz == [True] * 6 + [False] * 10


def _small_tables():
    tables = []
    for f in (prime_field(3), prime_field(5), prime_field(7), RATIONALS, prime_field(557), prime_field(563)):
        tables += [_plus_matrices(f, 3), diagonal_spin_factor(f, [1, 2, 3]), diagonal_spin_factor(f, [1, 0, 2])]
    return tables


def test_plus_m3_and_spin_verdicts_equal_float64(monkeypatch):
    rng = random.Random("float32-small")
    tables, maps = [], []
    for t in _small_tables():
        f, n = t.field, t.dim
        tables += [t] + [_perturbed_by(t, *(rng.randrange(n) for _ in range(3)), f.one()) for _ in range(4)]
        space = derivation_space(t)
        maps += [(t, d) for d in space.basis] + _perturbed_maps(space, rng, 4)
    jordan, leibniz = _verdicts(monkeypatch, tables, maps)
    assert jordan[::5] == [True] * len(_small_tables()) and jordan.count(False) > 0
    assert leibniz.count(False) > 0


@pytest.mark.parametrize("p, terms", [(7, 1), (7, 3), (557, 1), (563, 1), (317, 3), (331, 3), (None, 1), (None, 3)])
def test_exact_matmul_equals_float64_and_exact_products(monkeypatch, p, terms):
    rng = np.random.default_rng(terms if p is None else p * terms)
    if p:
        a, b = rng.integers(0, p, (40, 27)), rng.integers(0, p, (27, 30))
        a[0], b[:, 0] = p - 1, p - 1  # the largest partial sums
    else:
        big = math.isqrt(((1 << 23) - 1) // (27 * terms))
        a, b = rng.integers(-big, big + 1, (40, 27)), rng.integers(-big, big + 1, (27, 30))
        a[0], b[:, 0] = big, big
    exact = np.array(a.astype(object) @ b.astype(object))
    if p and terms == 1:
        exact %= p
    ours = _exact_matmul(a, b, p, terms)
    with monkeypatch.context() as patch:
        _float64_only(patch)
        forced = _exact_matmul(a, b, p, terms)
    assert ours.dtype == forced.dtype == np.int64
    assert (ours == forced).all() and (ours == exact).all()


# ---------------------------------------------------------------------------
# the rung runs


@pytest.mark.parametrize("p, dtype", [(7, np.float32), (317, np.float32), (331, np.float64)])
def test_albert_checks_multiply_float32_below_the_bound(monkeypatch, p, dtype):
    t = albert_type(prime_field(p), [1, 2, 3], [1, 2, 4])
    seen = {algebra: [], derivations: []}
    for module, dtypes in seen.items():
        real = module._is_zero_mod
        monkeypatch.setattr(module, "_is_zero_mod", lambda a, p, real=real, dtypes=dtypes: dtypes.append(a.dtype) or real(a, p))
    runs_in = []
    real_narrow = linalg._narrow_path
    monkeypatch.setattr(linalg, "_narrow_path", lambda *args: runs_in.append(real_narrow(*args)[0]) or real_narrow(*args))
    assert check_identity(t, "jordan")
    assert not check_identity(_perturbed_by(t, 1, 2, 0, t.field.one()), "jordan")
    assert derivation_space(t).dim == 52
    assert set(seen[algebra]) == set(seen[derivations]) == {np.dtype(dtype)}
    assert np.float32 in runs_in  # the commutator tensor of the Jordan check
