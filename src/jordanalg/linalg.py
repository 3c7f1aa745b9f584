"""Exact dense linear algebra over Q and GF(p).

Everything here is exact.  Row reduction has two kernels:

* `_rref_mod_py`, on Python lists of ints: residues over GF(p), or over
  Q (``p=None``) the integer image of each row, eliminated fraction free
  and divided by its pivot only at the end.  It serves every rational
  system and every GF(p) system of at most `_NP_THRESHOLD` cells.
* `_rref_mod_np`, on numpy arrays over GF(p), for every prime.

`_rref_batch` reduces a stack of small GF(p) matrices at once, column
by column across the stack.  Every canonical nullspace basis is read off
one reduction, that of the column-reversed matrix (`_reversed_nullspace`).

This module is the only one that picks a numpy dtype.  Integer arrays
are stored in the dtype `_int_dtype` picks from their largest entry:
int64 below 2^31, where the row-reduction update (the product of two
entries plus one subtraction) cannot overflow, and object dtype (exact
Python ints) otherwise.  `_int_image` turns raw rows into such an array:
residues over GF(p), denominator-cleared integers over Q.  Every product
of integer arrays takes one of three number paths from a bound checked
before multiplying (`_sum_path`): float64 (BLAS) while every dot product
stays below 2^53, int64 below 2^63, object dtype beyond.  Over GF(p) the
bound follows from p alone; over Q it comes from a scan of the inputs.
float64 names the float path; an unreduced one whose bound is below 2^23
runs in float32 (`_narrow_path`), exact there too at half the memory.
`_exact_matmul` runs one product; `_is_zero_mod` tests a sum exactly.

Tall nullspaces over both fields run through `_nullspace_mod_staged`
(``p=None`` for Q).  It takes a matrix as entry triples (`Entries`), an
array or rows; one of more than `_NP_THRESHOLD` cells is split into its
independent column blocks (over Q from exact sums, never residues), a
smaller one is a single dense block.  Over GF(p) blocks of one shape
share one `_rref_batch`, others go to `_block_nullspace`.  Over Q each
block goes to `nullspace_int_crt`: it is solved modulo several primes on
that same GF(p) block solver and lifted by rational reconstruction; one
exact integer product with the block certifies the lifted basis, and
when it cannot be certified the block is solved on the exact Python
kernel, so the fast path cannot silently produce a wrong answer.  The
Leibniz system comes as triples, so its dense form, which
`derivations.LEIBNIZ_BYTE_CAP` bounds, is never allocated.

Closures under linear maps are spun: `spin_closure` grows one space
vector by vector; over GF(p), `_spin_batch` grows those of many vectors
at once, with one `_rref_batch` per round.  `_rref_batch` also serves
the images of many maps (`_column_spaces`).

Pivoting is deterministic everywhere: leftmost pivot column first, and
within a column the first row with a nonzero entry.

Raw-vector arithmetic goes through two helpers, `combine_raw` (a linear
combination of rows) and `dot_raw` (a dot product).  Each takes the
field branch once per vector: plain arithmetic for Fractions, one
``% p`` at the end for GF(p).  `Matrix` and `Subspace` coerce entries
only in their public constructors; results computed from values that
are already raw are wrapped as they are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, compress, count, islice, product
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AmbientMismatch, FieldMismatch, NotSymmetric
from .fields import RATIONALS, Field, RawScalar

# Size (in cells) above which GF(p) row reduction moves to numpy.
_NP_THRESHOLD = 4096
# Work estimate above which rational nullspaces go through the modular path.
_CRT_THRESHOLD = 4_000_000
# Moduli for the rational reconstruction pass; 20-bit primes keep every
# intermediate of the block elimination far inside int64 range.
_CRT_PRIME_COUNT = 24


def _primes_below_2_20(count: int) -> tuple[int, ...]:
    from .fields import is_prime

    found = []
    n = (1 << 20) - 1
    while len(found) < count:
        if is_prime(n):
            found.append(n)
        n -= 2
    return tuple(found)


_CRT_PRIMES = _primes_below_2_20(_CRT_PRIME_COUNT)


# ---------------------------------------------------------------------------
# integer images and exact products

# float64 holds every integer below 2^53; float32 runs sums that stay below 2^23.
_FLOAT64_EXACT = 1 << 53
_FLOAT32_EXACT = 1 << 23
_INT64_EXACT = 1 << 63


def _int_dtype(big: int):
    """Storage dtype for integers of absolute value at most `big`: int64
    while the product of two of them plus one subtraction stays inside
    int64, object (exact Python ints) otherwise."""
    return np.int64 if big < (1 << 31) else object


def _residues(a, p: int) -> np.ndarray:
    """A fresh array of the residues of `a` mod p, in `_int_dtype(p - 1)`."""
    dtype = _int_dtype(p - 1)
    a = np.asarray(a, dtype=object if dtype is object else None)
    return np.ascontiguousarray(a % p, dtype=dtype)


def _int_image(field: Field, rows: Sequence[Sequence[RawScalar]]) -> tuple[np.ndarray, int]:
    """Raw rows as an integer array, with the scale multiplied in: the
    residues and 1 over GF(p); over Q the entries times the lcm of all
    their denominators, and that lcm."""
    p = field.p
    if p:
        return _residues(rows, p), 1
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    ints = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    big = max((abs(x) for row in ints for x in row), default=0)
    return np.array(ints, dtype=_int_dtype(big)), scale


def _product_bound(inner: int, big_a: int, big_b: int, terms: int = 1) -> int:
    """Bound on every partial sum of `terms` products with inner dimension
    `inner` and entries of absolute value at most big_a and big_b.  A
    zero factor counts as 1, so that every entry converts exactly."""
    return terms * max(inner, 1) * max(big_a, 1) * max(big_b, 1)


def _product_dtype(inner: int, big_a: int, big_b: int, terms: int = 1):
    """The number path of exact integer matrix products: float64 while
    `_product_bound` is below 2^53, int64 while it is below 2^63, object
    dtype beyond."""
    bound = _product_bound(inner, big_a, big_b, terms)
    if bound < _FLOAT64_EXACT:
        return np.float64
    return np.int64 if bound < _INT64_EXACT else object


def _magnitude(a: np.ndarray, p: int | None) -> int:
    """Largest absolute entry of `a`: p - 1 for residues, else a scan."""
    if p:
        return p - 1
    return int(np.abs(a).max()) if a.size else 0


def _exact_matmul(a: np.ndarray, b: np.ndarray, p: int | None = None, terms: int = 1) -> np.ndarray:
    """Exact a @ b of integer arrays: residues mod p, or arbitrary
    integers when p is None, on `_sum_path`'s path for the sum of `terms`
    results of calls that pass the same `terms`; a float product comes
    back as int64.  Over GF(p) a result is left unreduced only where
    terms > 1 and `_sum_path` asks for no reduction; the caller sums it."""
    inner, big_a, big_b = a.shape[-1], _magnitude(a, p), _magnitude(b, p)
    dtype, reduce = _narrow_path(_sum_path(inner, big_a, big_b, p, terms), inner, big_a, big_b, terms)
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    if out.dtype.kind == "f":
        out = out.astype(np.int64)
    if p and (terms == 1 or reduce):
        out %= p
    return out


def _sum_path(inner: int, big_a: int, big_b: int, p: int | None, terms: int) -> tuple:
    """(dtype, reduce) for a sum of `terms` exact products: `_product_dtype`
    of the sum over Q, of one product over GF(p), where `reduce` says that
    the dtype cannot hold `terms` unreduced products: reduce each first.
    float64 names the float path, which may run in float32 (`_narrow_path`)."""
    dtype = _product_dtype(inner, big_a, big_b, 1 if p else terms)
    limit = _FLOAT64_EXACT if dtype is np.float64 else _INT64_EXACT
    return dtype, bool(p) and terms > 1 and dtype is not object and _product_bound(inner, big_a, big_b, terms) >= limit


def _narrow_path(path: tuple, inner: int, big_a: int, big_b: int, terms: int) -> tuple:
    """`_sum_path`'s (dtype, reduce), with float32 in place of float64 when
    no product is reduced and the unreduced sum's `_product_bound` is below
    2^23.  Every partial sum is then an integer below 2^23 in absolute
    value, and float32 holds every integer below 2^24, so the sums are
    exact in any order, with or without fused multiply-add."""
    dtype, reduce = path
    if dtype is np.float64 and not reduce and _product_bound(inner, big_a, big_b, terms) < _FLOAT32_EXACT:
        return np.float32, False
    return path


def _is_zero_mod(a: np.ndarray, p: int | None) -> bool:
    """Whether the integer-valued array `a` is 0, mod p over GF(p).  A
    float `a` of the float path is tested without a float remainder: with
    q = rint(a * (1/p)), p * q == a proves p | a.  In float64 (|a| < 2^53)
    p * q is exact below 2^53 and past |a| above it; in float32 |a| < 2^23,
    and the bound that chose float32, (p - 1)^2 <= `_product_bound` < 2^23,
    forces p < 2^12, so |p * q| < 2^24 is exact.  Where rounding could
    have moved q, the int64 remainder decides."""
    if p and a.dtype.kind == "f":
        q = a * (1 / p)
        np.rint(q, out=q)
        q *= p
        if (q == a).all():
            return True
        a = a.astype(np.int64)
    return not (a % p if p else a).any()


# ---------------------------------------------------------------------------
# row reduction kernels


def _rref_mod_py(rows: list[list], p: int | None) -> tuple[list[list], int, list[int]]:
    """In-place reduced row echelon form on Python lists: over GF(p) on
    Python ints, over Q (p None) fraction free on int or Fraction rows."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if not p:
        for i, row in enumerate(rows):
            scale = math.lcm(*(v.denominator for v in row))
            rows[i] = [v.numerator * (scale // v.denominator) for v in row]
    pivots: list[int] = []
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
        pv = rows[r][c]
        if p and (inv := pow(pv, p - 2, p)) != 1:
            rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nrows):
            if i != r:
                f = rows[i][c] % p if p else rows[i][c]
                if f:
                    row_i, row_r = rows[i], rows[r]
                    if p:
                        rows[i] = [(a - f * b) % p for a, b in zip(row_i, row_r)]
                    else:  # a rational multiple of row_i - (f / pv) * row_r
                        row = [pv * a - f * b for a, b in zip(row_i, row_r)]
                        g = math.gcd(*row)
                        rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if not p:  # rows past the rank are zero
        zero = Fraction(0)
        rows[:] = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(rows, pivots)]
        rows += [[zero] * ncols for _ in range(r, nrows)]
    return rows, len(pivots), pivots


def _rref_mod_np(a, p: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form over GF(p) of a copy of `a`, as residues."""
    a = _residues(a, p)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = a[r] * inv % p
        f = a[r + 1 :, c]
        nzr = np.nonzero(f)[0]
        if nzr.size:
            a[r + 1 :][nzr] = (a[r + 1 :][nzr] - np.outer(f[nzr], a[r])) % p
        pivots.append(c)
        r += 1
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        f = a[:k, c]
        nzr = np.nonzero(f)[0]
        if nzr.size:
            a[:k][nzr] = (a[:k][nzr] - np.outer(f[nzr], a[k])) % p
    return a, len(pivots), pivots


def rref_raw(field: Field, rows: Sequence[Sequence[RawScalar]]):
    """Reduced row echelon form of raw rows; returns (rows, rank, pivots):
    on the numpy kernel past `_NP_THRESHOLD` cells over GF(p), on the
    Python kernel otherwise."""
    p = field.p
    if p and len(rows) * (len(rows[0]) if rows else 0) > _NP_THRESHOLD:
        arr, rank, piv = _rref_mod_np(rows, p)
        return arr.tolist(), rank, piv
    return _rref_mod_py([list(r) for r in rows], p)


def _reversed_nullspace(red, pivots: list[int], ncols: int, p: int | None):
    """Canonical nullspace basis, and the pivot column of each row, from
    the RREF of the column-reversed matrix: its standard nullspace
    vectors, reversed back, have a 1 at their free column and their other
    entries at pivot columns right of it, so they are in reduced echelon form."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols - 1, -1, -1) if c not in pivot_set]
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[ncols - 1 - f] = one
        for k, c in enumerate(pivots):
            entry = red[k][f]
            if entry:
                vec[ncols - 1 - c] = -entry % p if p else -entry
        basis.append(vec)
    return basis, [ncols - 1 - f for f in free]


def _nullspace_exact(field: Field, rows: list[list], ncols: int):
    """Canonical nullspace basis on the Python kernel: one reduction of
    the reversed rows."""
    red, _, piv = _rref_mod_py([r[::-1] for r in rows], field.p)
    return _reversed_nullspace(red, piv, ncols, field.p)[0]


def nullspace_raw(field: Field, rows: Sequence[Sequence[RawScalar]], ncols: int):
    """Canonical (reduced echelon) basis of the right nullspace."""
    nrows = len(rows)
    if field.is_rational:
        if nrows * ncols * min(nrows, ncols) > _CRT_THRESHOLD:
            # each row is scaled on its own, which leaves the nullspace unchanged
            return _nullspace_mod_staged(np.vstack([_int_image(field, [row])[0] for row in rows]), None).tolist()
    elif nrows * ncols > _NP_THRESHOLD:
        return _nullspace_mod_staged([list(r) for r in rows], field.p).tolist()
    return _nullspace_exact(field, [list(r) for r in rows], ncols)


def solve_raw(field: Field, rows: Sequence[Sequence[RawScalar]], rhs: Sequence[RawScalar]):
    """One exact solution of rows @ x = rhs with free variables set to zero,
    or None when the system is inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, rank, piv = rref_raw(field, aug)
    if ncols in piv:
        return None
    x = [field.zero()] * ncols
    for k, c in enumerate(piv):
        x[c] = red[k][ncols]
    return x


def combine_raw(field: Field, coeffs: Sequence[RawScalar], rows: Sequence[Sequence[RawScalar]]) -> list:
    """Sum of c * row over paired coefficients and raw rows, skipping zero
    coefficients; zeros of the rows' length when every coefficient is zero."""
    out = None
    for c, row in zip(coeffs, rows):
        if c:
            if out is None:
                out = list(row) if c == 1 else [c * b for b in row]
            else:
                out = [a + c * b for a, b in zip(out, row)]
    if out is None:
        return [field.zero()] * (len(rows[0]) if rows else 0)
    p = field.p
    return [a % p for a in out] if p else out


def dot_raw(field: Field, u: Sequence[RawScalar], v: Sequence[RawScalar]) -> RawScalar:
    """Sum of a * b over paired raw entries."""
    p = field.p
    if p:
        return sum(map(mul, u, v)) % p
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _identity_raw(field: Field, n: int):
    zero, one = field.zero(), field.one()
    rows = []
    for i in range(n):
        row = [zero] * n
        row[i] = one
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# staged nullspace of tall systems, over GF(p) and Q


class Entries(NamedTuple):
    """A matrix of the given shape as entry triples: value vals[k] at row
    rows[k], column cols[k].  A cell that several triples name holds
    their sum."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _entries_mod(m, p: int | None) -> Entries:
    """A matrix (Entries, array or rows) as triples of its nonzero residues
    mod p, or of its nonzero integers when p is None.  A dense matrix gives
    one triple per nonzero cell, row by row; Entries keep order and repeats."""
    dtype = _int_dtype(p - 1) if p else object
    if isinstance(m, Entries):
        shape, rows, cols, vals = m
    else:
        a = m if isinstance(m, np.ndarray) else np.asarray(m, dtype=object if dtype is object else None)
        shape = a.shape
        rows, cols = np.nonzero(a)
        vals = a[rows, cols]
    if p:
        vals = ((vals.astype(object) if dtype is object else vals) % p).astype(dtype, copy=False)
    keep = np.flatnonzero(vals)
    return Entries(shape, rows[keep], cols[keep], vals[keep])


def _column_blocks(e: Entries, p: int | None):
    """The independent column blocks of a matrix of `_entries_mod`
    triples: (columns, the block's nonzero rows on those columns) per
    block, in the order of the blocks' least columns.  Two columns share
    a block when some row has nonzero entries in both, mod p or, when p
    is None, over Q; a column in no row is a block of its own, with no
    rows.  A matrix of at most `_NP_THRESHOLD` cells is one dense block."""
    nrows, ncols = e.shape
    _, rows, cols, vals = e
    if nrows * ncols <= _NP_THRESHOLD:
        a = np.zeros(e.shape, dtype=vals.dtype)
        np.add.at(a, (rows, cols), vals)
        yield np.arange(ncols), a % p if p else a
        return
    key = rows * ncols + cols
    if not (key[1:] > key[:-1]).all():
        # one triple per nonzero cell, row by row: the sum of its triples
        key, where = np.unique(key, return_inverse=True)
        vals = np.zeros(key.size, dtype=e.vals.dtype)
        np.add.at(vals, where, e.vals)
        if p:
            vals %= p
        keep = np.flatnonzero(vals)
        rows, cols = np.divmod(key[keep], ncols)
        vals = vals[keep]
    # label every column with the least column of its block: give each
    # column the least label in its rows, then its label's label, until
    # nothing moves
    label = np.arange(ncols)
    least = np.empty(nrows, dtype=label.dtype)
    while True:
        least.fill(ncols)
        np.minimum.at(least, rows, label[cols])
        new = label.copy()
        np.minimum.at(new, cols, least[rows])
        new = new[new]
        if (new == label).all():
            break
        label = new
    col_label = label[cols]
    local_col = np.empty(ncols, dtype=np.int64)
    for root in np.flatnonzero(label == np.arange(ncols)):
        block_cols = np.flatnonzero(label == root)
        local_col[block_cols] = np.arange(block_cols.size)
        sel = np.flatnonzero(col_label == root)
        r = rows[sel]
        new_row = np.ones(r.size, dtype=bool)
        new_row[1:] = r[1:] != r[:-1]
        a = np.zeros((int(new_row.sum()), block_cols.size), dtype=vals.dtype)
        a[np.cumsum(new_row) - 1, local_col[cols[sel]]] = vals[sel]
        yield block_cols, a


def _nullspace_mod_staged(m, p: int | None, chunk: int = 3000) -> np.ndarray:
    """Canonical nullspace basis of a tall integer matrix over GF(p), or
    over Q when p is None: entry triples (`Entries`), an array or rows.

    The matrix is split into its independent column blocks; no row links
    two blocks, so the nullspace is the direct sum of the blocks'
    nullspaces, and their canonical bases, placed back in their columns
    and sorted by pivot, make the canonical basis of the whole.  Over
    GF(p) below 2^31, same-shape blocks of more than `_NP_THRESHOLD` cells
    and at most `chunk` rows share one column-reversed `_rref_batch`; lone
    and other blocks go to `_block_nullspace`.
    """
    e = _entries_mod(m, p)
    ncols = e.shape[1]
    solved, groups, parts, pivots = [], {}, [], []
    for block_cols, a in _column_blocks(e, p):
        if p and _int_dtype(p - 1) is not object and a.size > _NP_THRESHOLD and len(a) <= chunk:
            groups.setdefault(a.shape, []).append((block_cols, a))
        else:
            solved.append((block_cols, *_block_nullspace(a, p, chunk)))
    for (_, width), group in groups.items():
        if len(group) == 1:
            solved.append((group[0][0], *_block_nullspace(group[0][1], p, chunk)))
            continue
        red, rank = _rref_batch(np.stack([a[:, ::-1] for _, a in group]), p)
        for (block_cols, _), rows, r in zip(group, red, rank.tolist()):
            ns, piv = _reversed_nullspace(rows[:r].tolist(), (rows[:r] != 0).argmax(axis=1).tolist(), width, p)
            solved.append((block_cols, np.array(ns, dtype=np.int64).reshape(-1, width), piv))
    for block_cols, ns, piv in solved:
        full = np.full((ns.shape[0], ncols), 0 if p else Fraction(0), dtype=ns.dtype)
        full[:, block_cols] = ns
        parts.append(full)
        pivots += block_cols[piv].tolist()
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return np.concatenate(parts)[order]


def _block_nullspace(m: np.ndarray, p: int | None, chunk: int = 3000) -> tuple[np.ndarray, list[int]]:
    """Canonical nullspace basis of an integer array over GF(p), or over
    Q when p is None, and the pivot column of each basis row.

    Over Q the block goes to `nullspace_int_crt`.  Over GF(p), up to
    `_NP_THRESHOLD` cells the rows are reduced on the Python kernel.
    Beyond, they are consumed in chunks on the numpy kernel; after each
    chunk the candidate space is cut down by the chunk's constraints
    expressed in the current basis, so the expensive full-width
    elimination happens only once.  The canonical basis N of a chunk's
    nullspace, in the coordinates of the canonical basis B so far, gives
    N B, which is again canonical, with B's pivots at N's pivots.
    """
    ncols = m.shape[1]
    if p is None:
        basis = nullspace_int_crt(m, ncols)
        return np.array(basis, dtype=object).reshape(-1, ncols), [next(compress(count(), r)) for r in basis]
    dtype = _int_dtype(p - 1)
    if m.size <= _NP_THRESHOLD:
        red, _, piv = _rref_mod_py([r[::-1] for r in m.tolist()], p)
        basis, piv = _reversed_nullspace(red, piv, ncols, p)
        return np.array(basis, dtype=dtype).reshape(-1, ncols), piv
    basis, pivots = None, None
    for lo in range(0, m.shape[0], chunk):
        blk = m[lo : lo + chunk]
        if basis is not None:
            if basis.shape[0] == 0:
                return basis, []
            blk = _exact_matmul(blk, basis.T, p)
        width = blk.shape[1]
        red, rank, piv = _rref_mod_np(blk[:, ::-1], p)
        ns, ns_piv = _reversed_nullspace(red[:rank].tolist(), piv, width, p)
        ns = np.array(ns, dtype=dtype).reshape(-1, width)
        basis = ns if basis is None else _exact_matmul(ns, basis, p)
        pivots = ns_piv if pivots is None else [pivots[k] for k in ns_piv]
    return basis, pivots


# ---------------------------------------------------------------------------
# rational nullspace through modular reconstruction


def _rat_reconstruct(r: int, m: int) -> Fraction | None:
    """Rational number with numerator and denominator below sqrt(m/2)
    congruent to r mod m, or None when none exists."""
    r %= m
    if r == 0:
        return Fraction(0)
    bound = math.isqrt((m - 1) // 2)
    s0, s1 = m, r
    t0, t1 = 0, 1
    while s1 > bound:
        q = s0 // s1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    n, d = s1, t1
    if d < 0:
        n, d = -n, -d
    if d == 0 or d > bound or math.gcd(n, d) != 1:
        return None
    return Fraction(n, d)


def _crt_fold(r: np.ndarray, m: int, residues: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """One Garner step: the residues mod m*p (object dtype, in [0, m*p))
    that are r mod m and `residues` mod p."""
    t = (residues.astype(object) - r) * pow(m, -1, p) % p
    return r + t * m, m * p


def nullspace_int_crt(int_rows, ncols: int) -> list[list[Fraction]]:
    """Canonical rational nullspace basis of an integer matrix.

    ``int_rows`` may be a list of integer rows or an integer numpy array.

    Each 20-bit prime solves the matrix once on the GF(p) block solver
    (`_block_nullspace`); bases of one pivot signature are combined by
    CRT and lifted by rational reconstruction.  The candidate is
    certified exactly: one integer product with the matrix shows that
    every vector is a null vector, and the count is matched against the
    best modular rank bound (rank over Q is at least the rank mod any
    prime, which caps the nullity from above).  When no reconstruction
    certifies (the entries are too large for the primes), the nullspace
    is computed by exact elimination over Q instead.
    """
    # a list may hold ints past int64, which np.asarray would turn to floats
    if not isinstance(int_rows, np.ndarray):
        int_rows = np.array(int_rows, dtype=object).reshape(-1, ncols)
    # one running (residues, modulus) pair per pivot signature, each new
    # prime folded in once
    combined: dict[tuple, tuple[np.ndarray, int]] = {}
    for p in _CRT_PRIMES:
        basis, piv = _block_nullspace(_residues(int_rows, p), p)
        key = (len(piv), tuple(piv))
        if key in combined:
            combined[key] = _crt_fold(*combined[key], basis, p)
        else:
            combined[key] = (basis.astype(object), p)
        candidate = _try_reconstruct(combined, int_rows)
        if candidate is not None:
            return candidate
    frac_rows = [[Fraction(v) for v in row] for row in int_rows.tolist()]
    return _nullspace_exact(RATIONALS, frac_rows, ncols)


def _try_reconstruct(combined, int_rows: np.ndarray):
    # prefer the signature with the smallest nullity (largest rank bound),
    # breaking ties toward the lexicographically smallest pivot tuple
    key = min(combined)
    if key[0] == 0:
        return []
    r, m = combined[key]
    rows = []
    for residues in r.tolist():
        row = []
        for x in residues:
            q = _rat_reconstruct(x, m)
            if q is None:
                return None
            row.append(q)
        rows.append(row)
    # exact certification: each candidate is a null vector of the matrix
    if _exact_matmul(int_rows, _int_image(RATIONALS, rows)[0].T).any():
        return None
    # residues 1 and 0 reconstruct to 1 and 0, so the rows carry the
    # identity at the signature's pivot columns: they are independent and
    # already in reduced echelon form.  Their count, the least modular
    # nullity, bounds the nullity over Q from above, so they are its
    # canonical basis and need no elimination over Q.
    return rows


# ---------------------------------------------------------------------------
# public Matrix / Subspace types


class Matrix:
    """Immutable exact matrix with entries in a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable]):
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        self._set(field, data)

    def _set(self, field: Field, data: tuple):
        self.field = field
        self.rows = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0

    @classmethod
    def _wrap(cls, field: Field, rows: Iterable[Sequence[RawScalar]]) -> "Matrix":
        """A matrix of rows that already hold raw values of the field."""
        m = cls.__new__(cls)
        m._set(field, tuple(map(tuple, rows)))
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._wrap(field, _identity_raw(field, n))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._wrap(field, [[field.zero()] * ncols] * nrows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrix fields differ")

    def _combine(self, c, other: "Matrix") -> "Matrix":
        """self + c * other, entrywise."""
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        f = self.field
        return Matrix._wrap(f, [combine_raw(f, (1, c), pair) for pair in zip(self.rows, other.rows)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(1, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(-1, other)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix._wrap(f, [combine_raw(f, (c,), (row,)) for row in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        cols = list(zip(*other.rows))
        return Matrix._wrap(f, [[dot_raw(f, row, col) for col in cols] for row in self.rows])

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product on a raw coordinate tuple."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple([dot_raw(f, row, v) for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.field, zip(*self.rows))

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        rows, rank, piv = rref_raw(self.field, self.rows)
        return Matrix._wrap(self.field, rows), rank, tuple(piv)

    def rank(self) -> int:
        return self.rref()[1]

    def nullspace(self) -> "Subspace":
        basis = nullspace_raw(self.field, self.rows, self.ncols)
        return Subspace._wrap(self.field, self.ncols, basis, canonical=True)

    def column_space(self) -> "Subspace":
        return Subspace._wrap(self.field, self.nrows, list(zip(*self.rows)))

    def solve(self, rhs: Sequence) -> tuple | None:
        f = self.field
        b = [f.coerce(x) for x in rhs]
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        x = solve_raw(f, self.rows, b)
        return None if x is None else tuple(x)


class Subspace:
    """A linear subspace held in canonical reduced-echelon form.

    Two subspaces are equal exactly when their stored bases are
    identical, which the canonical form guarantees for equal spaces.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, vectors: Iterable[Iterable]):
        rows = [[field.coerce(x) for x in v] for v in vectors]
        if any(len(row) != ambient for row in rows):
            raise AmbientMismatch("vector length differs from ambient dimension")
        self._set(field, ambient, rows, False)

    def _set(self, field: Field, ambient: int, rows: Sequence[Sequence[RawScalar]], canonical: bool):
        if rows and not canonical:
            rows, _, _ = rref_raw(field, rows)
        rows = [tuple(r) for r in rows if any(r)]
        self.field = field
        self.ambient = ambient
        self.basis = tuple(rows)
        # pivot column of each basis row: its first nonzero coordinate
        self.pivots = tuple([next(compress(count(), r)) for r in rows])

    @classmethod
    def _wrap(
        cls, field: Field, ambient: int, rows: Sequence[Sequence[RawScalar]], canonical: bool = False
    ) -> "Subspace":
        """The span of rows of length `ambient` that already hold raw values."""
        space = cls.__new__(cls)
        space._set(field, ambient, rows, canonical)
        return space

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls._wrap(field, ambient, [], canonical=True)

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls._wrap(field, ambient, _identity_raw(field, ambient), canonical=True)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, {self.field})"

    def _check(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("subspace fields differ")
        if self.ambient != other.ambient:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace._wrap(self.field, self.ambient, self.basis + other.basis)

    def annihilator(self) -> "Subspace":
        """Linear functionals (as coordinate vectors) vanishing on this space."""
        basis = nullspace_raw(self.field, self.basis, self.ambient)
        return Subspace._wrap(self.field, self.ambient, basis, canonical=True)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        constraints = list(self.annihilator().basis) + list(other.annihilator().basis)
        basis = nullspace_raw(self.field, constraints, self.ambient)
        return Subspace._wrap(self.field, self.ambient, basis, canonical=True)

    def _eliminate(self, vec: Sequence) -> tuple[list, list]:
        """(coefficients, remainder) of vec, eliminating pivot by pivot."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        if len(v) != self.ambient:
            raise AmbientMismatch("vector length differs from ambient dimension")
        coeffs = []
        for pivot, row in zip(self.pivots, self.basis):
            c = v[pivot]
            coeffs.append(c)
            if c:
                v = combine_raw(f, (1, -c), (v, row))
        return coeffs, v

    def reduce_vector(self, vec: Sequence) -> list:
        """Remainder of vec after eliminating this basis's pivot coordinates."""
        return self._eliminate(vec)[1]

    def contains_vector(self, vec: Sequence) -> bool:
        return not any(self.reduce_vector(vec))

    def coords_of(self, vec: Sequence) -> tuple | None:
        """Coefficients of vec on the canonical basis, or None if outside."""
        coeffs, rest = self._eliminate(vec)
        return None if any(rest) else tuple(coeffs)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(row) for row in other.basis)


def spin_closure(space: Subspace, images) -> Subspace:
    """Smallest subspace containing `space` and closed under the vectors
    that `images(v)` yields, by spinning (Parker's Meat-Axe closure): a
    semi-echelon basis with pivots 1 grows from the space's basis, each
    row's images are formed once, and an image that does not reduce to
    zero against the rows so far becomes a new row.  Stops early at the
    whole ambient space."""
    f, n = space.field, space.ambient
    rows = list(space.basis)
    pivots = list(space.pivots)
    # rows appended below get their images in turn: the tail of rows is the queue
    for vec in rows:
        if len(rows) == n:
            break
        for image in images(vec):
            for pivot, row in zip(pivots, rows):
                c = image[pivot]
                if c:
                    image = combine_raw(f, (1, -c), (image, row))
            pivot = next((k for k, x in enumerate(image) if x), None)
            if pivot is None:
                continue
            inv = f.inv(image[pivot])
            rows.append(image if inv == 1 else combine_raw(f, (inv,), (image,)))
            pivots.append(pivot)
            if len(rows) == n:
                break
    return Subspace.full(f, n) if len(rows) == n else Subspace._wrap(f, n, rows)


def _rref_batch(a, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form over GF(p) of each matrix of a stack, as
    residues, and the rank of each: `_rref_mod_np`'s pivots, one column
    at a time across the stack."""
    a = _residues(a, p)
    rank = np.zeros(len(a), dtype=int)
    for c in range(a.shape[2]):
        found = (a[:, :, c] != 0) & (np.arange(a.shape[1]) >= rank[:, None])
        b = np.flatnonzero(found.any(axis=1))
        r, i = rank[b], found[b].argmax(axis=1)
        pivot = a[b, i]
        a[b, i] = a[b, r]
        pivot = pivot * np.array([pow(x, -1, p) for x in pivot[:, c].tolist()], dtype=a.dtype)[:, None] % p
        f = a[b, :, c]
        f[np.arange(b.size), r] = 0
        k, j = np.nonzero(f)
        a[b[k], j] = (a[b[k], j] - f[k, j, None] * pivot[k]) % p
        a[b, r] = pivot
        rank[b] += 1
    return a, rank


def _spin_batch(gens: np.ndarray, starts, p: int) -> tuple[np.ndarray, np.ndarray]:
    """`spin_closure` over GF(p) of the line of each start vector under
    u -> u @ g for the n x n blocks g of gens = [g_1 | g_2 | ...]: each
    canonical basis (zero rows below) and dimension.  A round reduces
    every active basis stacked over its images and drops the closures
    that filled the space or stopped growing."""
    starts = _residues(starts, p)
    batch, n = starts.shape
    out = np.zeros((batch, n, n), dtype=starts.dtype)
    out[:, 0] = starts
    dims, active = starts.any(axis=1).astype(int), np.arange(batch)
    while active.size:
        # rows past the largest dimension are zero, and so are their images
        top = out[active, : max(1, dims[active].max())]
        images = _exact_matmul(top.reshape(-1, n), gens, p).reshape(active.size, -1, n)
        red, rank = _rref_batch(np.concatenate([out[active], images], axis=1), p)
        grew = rank > dims[active]
        out[active], dims[active] = red[:, :n], rank
        active = active[grew & (rank < n)]
    return out, dims


def _column_spaces(field: Field, coeffs, maps: np.ndarray, step: int):
    """`Matrix.column_space()` over GF(p) of sum_i c_i maps[i], for a stack
    of n x n integer maps and each coefficient row c: per `step` rows, one
    exact product and one `_rref_batch` of the transposed sums."""
    p, n = field.p, maps.shape[-1]
    coeffs = iter(coeffs)
    while chunk := list(islice(coeffs, step)):
        sums = _exact_matmul(_residues(chunk, p), maps.reshape(len(maps), -1), p).reshape(-1, n, n)
        red, rank = _rref_batch(sums.transpose(0, 2, 1), p)
        yield from (Subspace._wrap(field, n, rows[:r], canonical=True) for rows, r in zip(red.tolist(), rank.tolist()))


def _first_anisotropic_pair(field: Field, gram, vectors, rows: int) -> tuple[int, int] | None:
    """Indices (i, j), i-major and j-minor, of the first pair of `vectors`
    with f(v_i, v_j) = 0 and -f(v_j, v_j)/f(v_i, v_i) a nonzero non-square,
    for the form of the raw rows `gram`: one exact Gram product per `rows`
    vectors v_i.  Over GF(p) the test is a lookup, since a quotient of
    nonzero residues is a square when both or neither of them are."""
    p = field.p
    v = _int_image(field, vectors)[0]
    vg = _exact_matmul(v, _int_image(field, gram)[0], p)  # over Q the scale cancels in every ratio
    norms = _exact_matmul(vg[:, None, :], v[:, :, None], p).ravel()
    if p:
        squares = np.zeros(p, dtype=bool)
        squares[np.arange(p) ** 2 % p] = True
    for lo in range(0, len(v), rows):
        hit = (_exact_matmul(vg[lo : lo + rows], v.T, p) == 0) & (norms != 0) & (norms[lo : lo + rows, None] != 0)
        if p:
            hit &= squares[norms[lo : lo + rows], None] != squares[-norms % p]
        for i, j in zip(*np.nonzero(hit)):
            if p or (ratio := Fraction(-int(norms[j]), int(norms[lo + i]))) < 0 or not field.is_square_raw(ratio):
                return lo + int(i), int(j)
    return None


def _projective_points(field: Field, space: Subspace, *, trailing_first: bool = False):
    """Ambient vectors covering every line of the subspace once.

    Enumeration is by coefficient tuples on the echelon basis whose
    first nonzero coefficient is 1, in lexicographic order; with
    `trailing_first` the lead index runs from the last basis vector to
    the first, so the span of the trailing vectors comes first.
    """
    m = space.dim
    leads = range(m - 1, -1, -1) if trailing_first else range(m)
    for lead in leads:
        for tail in product(range(field.p), repeat=m - lead - 1):
            yield [0] * lead + [1, *tail] if m == space.ambient else combine_raw(field, (1,) + tail, space.basis[lead:])


def solve(m: Matrix, rhs: Sequence) -> tuple | None:
    return m.solve(rhs)


# ---------------------------------------------------------------------------
# symmetric form diagonalization


def _normalize_pivot(field: Field, v: list) -> list:
    """Deterministic scaling of a chosen basis vector.

    GF(p): leading coefficient becomes 1.  Q: cleared to a primitive
    integer vector with positive leading coefficient.
    """
    lead = next(x for x in v if x)
    if field.is_rational:
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        lead = next(x for x in ints if x)
        if lead < 0:
            ints = [-x for x in ints]
        return [Fraction(x) for x in ints]
    inv = field.inv(lead)
    return [field.mul(inv, x) for x in v]


def diagonalize_symmetric_form(g: Matrix) -> tuple[Matrix, Matrix]:
    """Congruence diagonalization of a symmetric matrix.

    Returns (P, D) with P invertible and P^T G P = D diagonal.  The
    pivot strategy is deterministic: take the first working vector with
    nonzero form value, otherwise the first pair u, v with f(u, v)
    nonzero through u + v; chosen vectors are normalized (monic leading
    coefficient over GF(p), primitive integer form over Q) and the
    procedure recurses on the orthogonal complement.
    """
    if not g.is_symmetric():
        raise NotSymmetric("form matrix must be symmetric")
    field = g.field
    n = g.nrows

    def form(u, v):
        return dot_raw(field, u, g.apply(v))

    working = _identity_raw(field, n)
    chosen: list[list] = []
    diag: list = []
    # each step pops the one working vector that the projection would send
    # to zero (the pivot's own) or onto minus another (a pair's second);
    # the projections of the rest stay independent
    while working:
        k = next((k for k, v in enumerate(working) if form(v, v)), None)
        if k is not None:
            pivot = working.pop(k)
        else:
            pairs = combinations(range(len(working)), 2)
            pair = next(((i, j) for i, j in pairs if form(working[i], working[j])), None)
            if pair is None:
                # totally isotropic remainder: emit as zero diagonal entries
                for v in working:
                    chosen.append(_normalize_pivot(field, v))
                    diag.append(field.zero())
                break
            i, j = pair
            pivot = combine_raw(field, (1, 1), (working[i], working.pop(j)))
        pivot = _normalize_pivot(field, pivot)
        fv = form(pivot, pivot)
        chosen.append(pivot)
        diag.append(fv)
        inv = field.inv(fv)
        working = [combine_raw(field, (1, -field.mul(inv, form(pivot, w))), (w, pivot)) for w in working]

    d_rows = [[field.zero()] * n for _ in range(n)]
    for i, d in enumerate(diag):
        d_rows[i][i] = d
    return Matrix._wrap(field, zip(*chosen)), Matrix._wrap(field, d_rows)
