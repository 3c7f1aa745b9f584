"""Exact dense linear algebra over Q and GF(p).

Everything here is exact: GF(p) work runs on int64 numpy arrays with
modular reduction (falling back to Python ints when a modulus is large
enough to risk overflow), and rational work runs on `fractions.Fraction`.
Large rational nullspaces are computed through a modular multi-prime
pass with rational reconstruction; the reconstructed basis is verified
against the original matrix with exact integer arithmetic before it is
returned, so the fast path cannot silently produce a wrong answer.

Pivoting is deterministic everywhere: leftmost pivot column first, and
within a column the first row with a nonzero entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import AmbientMismatch, FieldMismatch, NotSymmetric
from .fields import Field, RawScalar

# Size (in cells) above which GF(p) row reduction moves to numpy.
_NP_THRESHOLD = 4096
# Work estimate above which rational nullspaces go through the modular path.
_CRT_THRESHOLD = 4_000_000
# Moduli for the rational reconstruction pass; 20-bit primes keep every
# intermediate of the staged elimination far inside int64 range.
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
# raw row reduction engines


def _rref_frac(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], int, list[int]]:
    """In-place reduced row echelon form over Q."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                if f:
                    row_i, row_r = rows[i], rows[r]
                    rows[i] = [a - f * b for a, b in zip(row_i, row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, len(pivots), pivots


def _rref_mod_py(rows: list[list[int]], p: int) -> tuple[list[list[int]], int, list[int]]:
    """Reduced row echelon form over GF(p) on plain Python ints."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        if inv != 1:
            rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nrows):
            if i != r:
                f = rows[i][c] % p
                if f:
                    row_i, row_r = rows[i], rows[r]
                    rows[i] = [(a - f * b) % p for a, b in zip(row_i, row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, len(pivots), pivots


def _rref_mod_np(a: np.ndarray, p: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form over GF(p) on an int64 array (copied)."""
    a = np.ascontiguousarray(a % p, dtype=np.int64)
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


def _np_safe_modulus(p: int) -> bool:
    # outer-product updates form products up to (p-1)^2 plus one subtraction
    return p < (1 << 31)


def rref_raw(field: Field, rows: Sequence[Sequence[RawScalar]]):
    """Reduced row echelon form of raw rows; returns (rows, rank, pivots)."""
    work = [list(r) for r in rows]
    if field.is_rational:
        return _rref_frac(work)
    p = field.p
    cells = len(work) * (len(work[0]) if work else 0)
    if cells > _NP_THRESHOLD and _np_safe_modulus(p):
        arr, rank, piv = _rref_mod_np(np.array(work, dtype=np.int64), p)
        return [list(map(int, row)) for row in arr], rank, piv
    return _rref_mod_py(work, p)


def _nullspace_standard_basis(field: Field, rref_rows, rank: int, pivots: list[int], ncols: int):
    """Standard nullspace basis (one vector per free column) from an RREF."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    zero, one = field.zero(), field.one()
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for k, c in enumerate(pivots):
            entry = rref_rows[k][f]
            if entry:
                vec[c] = field.neg(entry)
        basis.append(vec)
    return basis


def nullspace_raw(field: Field, rows: Sequence[Sequence[RawScalar]], ncols: int):
    """Canonical (reduced echelon) basis of the right nullspace."""
    nrows = len(rows)
    if nrows == 0:
        return [list(row) for row in _identity_raw(field, ncols)]
    if field.is_rational:
        work = nrows * ncols * min(nrows, ncols)
        if work > _CRT_THRESHOLD:
            int_rows = _integerize_rows(rows)
            return nullspace_int_crt(int_rows, ncols)
        rref_rows, rank, piv = _rref_frac([list(r) for r in rows])
    else:
        p = field.p
        cells = nrows * ncols
        if cells > _NP_THRESHOLD and _np_safe_modulus(p):
            basis = _nullspace_mod_staged(np.array([list(r) for r in rows], dtype=np.int64), p)
            return [list(map(int, row)) for row in basis]
        rref_rows, rank, piv = _rref_mod_py([list(r) for r in rows], p)
    basis = _nullspace_standard_basis(field, rref_rows, rank, piv, ncols)
    basis, _, _ = rref_raw(field, basis) if basis else (basis, 0, [])
    return [row for row in basis if any(row)]


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


def _identity_raw(field: Field, n: int):
    zero, one = field.zero(), field.one()
    rows = []
    for i in range(n):
        row = [zero] * n
        row[i] = one
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# staged modular nullspace (big GF(p) systems)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p on int64 arrays, blocked against overflow."""
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    per_term = (p - 1) * (p - 1)
    block = max(1, (1 << 62) // max(per_term, 1))
    if block >= inner:
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, inner, block):
        out = (out + a[:, lo : lo + block] @ b[lo : lo + block]) % p
    return out


def _nullspace_mod_staged(m: np.ndarray, p: int, chunk: int = 3000) -> np.ndarray:
    """Canonical nullspace basis over GF(p) for a tall int64 matrix.

    Rows are consumed in chunks; after each chunk the candidate space is
    cut down by the chunk's constraints expressed in the current basis,
    so the expensive full-width elimination happens only once.
    """
    m = m % p
    m = np.unique(m, axis=0)
    m = m[np.any(m, axis=1)]
    ncols = m.shape[1]
    basis: np.ndarray | None = None
    for lo in range(0, m.shape[0], chunk):
        blk = m[lo : lo + chunk]
        if basis is not None:
            if basis.shape[0] == 0:
                return basis
            blk = matmul_mod(blk, basis.T, p)
        width = blk.shape[1]
        red, rank, piv = _rref_mod_np(blk, p)
        # standard basis built directly in numpy: one vector per free column
        pivot_set = set(piv)
        free = [c for c in range(width) if c not in pivot_set]
        ns = np.zeros((len(free), width), dtype=np.int64)
        for bi, f in enumerate(free):
            ns[bi, f] = 1
            for k, c in enumerate(piv):
                ns[bi, c] = (-int(red[k, f])) % p
        basis = ns if basis is None else matmul_mod(ns, basis, p)
    if basis is None:
        basis = np.eye(ncols, dtype=np.int64)
    if basis.shape[0]:
        basis, _, _ = _rref_mod_np(basis, p)
        basis = basis[np.any(basis, axis=1)]
    return basis


# ---------------------------------------------------------------------------
# rational nullspace through modular reconstruction


def _integerize_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = math.gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


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


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    inv = pow(m1, -1, m2)
    x = (r1 + (r2 - r1) * inv % m2 * m1) % (m1 * m2)
    return x, m1 * m2


def nullspace_int_crt(int_rows, ncols: int) -> list[list[Fraction]]:
    """Canonical rational nullspace basis of an integer matrix.

    ``int_rows`` may be a list of integer rows or an integer numpy array.

    Solves modulo independent 20-bit primes, reconstructs rational
    entries by CRT plus rational reconstruction, and certifies the
    candidate exactly: every reconstructed vector is checked against the
    integer matrix, and the count is matched against the best modular
    rank bound (rank over Q is at least the rank mod any prime, which
    caps the nullity from above).  A reconstruction that cannot be
    certified raises ArithmeticError rather than returning.
    """
    if isinstance(int_rows, np.ndarray):
        sparse = []
        for r in range(int_rows.shape[0]):
            nz = np.nonzero(int_rows[r])[0]
            row = [(int(j), int(int_rows[r, j])) for j in nz]
            if row:
                sparse.append(row)
    else:
        sparse = [[(j, v) for j, v in enumerate(row) if v] for row in int_rows]
        sparse = [row for row in sparse if row]

    max_abs = max((abs(v) for row in sparse for _, v in row), default=0)
    fits64 = max_abs < (1 << 62)
    if fits64:
        if isinstance(int_rows, np.ndarray):
            base = int_rows.astype(np.int64, copy=False)
        else:
            base = np.array(int_rows, dtype=np.int64).reshape(-1, ncols)

    collected: dict[tuple, list[tuple[int, np.ndarray]]] = {}
    used = 0
    for p in _CRT_PRIMES:
        if fits64:
            arr = base % p
        elif isinstance(int_rows, np.ndarray):
            arr = (int_rows % p).astype(np.int64)
        else:
            arr = np.array([[v % p for v in row] for row in int_rows], dtype=np.int64)
        basis = _nullspace_mod_staged(arr, p)
        # pivot signature of the canonical nullspace basis
        pivcols = tuple(int(np.nonzero(row)[0][0]) for row in basis)
        key = (basis.shape[0], pivcols)
        collected.setdefault(key, []).append((p, basis))
        used += 1
        candidate = _try_reconstruct(collected, int_rows, sparse, ncols)
        if candidate is not None:
            return candidate
        if used >= len(_CRT_PRIMES):
            break
    raise ArithmeticError("rational nullspace reconstruction failed to certify")


def _try_reconstruct(collected, int_rows, sparse, ncols):
    # prefer the signature with the smallest nullity (largest rank bound),
    # breaking ties toward the lexicographically smallest pivot tuple
    key = min(collected, key=lambda k: (k[0], k[1]))
    group = collected[key]
    nullity = key[0]
    if nullity == 0:
        return []
    residues = [b for _, b in group]
    moduli = [p for p, _ in group]
    r, m = residues[0].astype(object), moduli[0]
    for rr, pp in zip(residues[1:], moduli[1:]):
        flat_r = r.reshape(-1)
        flat_n = rr.reshape(-1)
        combined = np.empty(flat_r.shape[0], dtype=object)
        for i in range(flat_r.shape[0]):
            combined[i], _ = _crt_pair(int(flat_r[i]), m, int(flat_n[i]), pp)
        r = combined.reshape(r.shape)
        m = m * pp
    rows = []
    for i in range(r.shape[0]):
        row = []
        for j in range(ncols):
            q = _rat_reconstruct(int(r[i, j]), m)
            if q is None:
                return None
            row.append(q)
        rows.append(row)
    # exact certification: each candidate is a null vector of the matrix
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        w = [int(x * den) for x in row]
        for srow in sparse:
            if sum(c * w[j] for j, c in srow):
                return None
    # nullity certificate: the modular rank bounds nullity from above and
    # the certified vectors bound it from below
    rref_rows, rank, _ = _rref_frac([list(row) for row in rows])
    if rank != nullity:
        return None
    out = [row for row in rref_rows if any(row)]
    return out


# ---------------------------------------------------------------------------
# public Matrix / Subspace types


class Matrix:
    """Immutable exact matrix with entries in a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable]):
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.field = field
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, _identity_raw(field, n))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero()
        return cls(field, [[zero] * ncols for _ in range(nrows)])

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

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        f = self.field
        return Matrix(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        f = self.field
        return Matrix(
            f,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix(f, [[f.mul(c, x) for x in row] for row in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        cols = list(zip(*other.rows)) if other.rows else []
        out = []
        zero = f.zero()
        for row in self.rows:
            new = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                new.append(acc)
            out.append(new)
        return Matrix(f, out)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product on a raw coordinate tuple."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        zero = f.zero()
        for row in self.rows:
            acc = zero
            for a, b in zip(row, v):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)) if self.rows else [])

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
        return Matrix(self.field, rows), rank, tuple(piv)

    def rank(self) -> int:
        return self.rref()[1]

    def nullspace(self) -> "Subspace":
        basis = nullspace_raw(self.field, self.rows, self.ncols)
        return Subspace(self.field, self.ncols, basis, canonical=True)

    def column_space(self) -> "Subspace":
        return Subspace(self.field, self.nrows, list(zip(*self.rows)) if self.rows else [])

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

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: Field, ambient: int, vectors: Iterable[Iterable], canonical: bool = False):
        rows = [[field.coerce(x) for x in v] for v in vectors]
        for row in rows:
            if len(row) != ambient:
                raise AmbientMismatch("vector length differs from ambient dimension")
        if rows and not canonical:
            rows, _, _ = rref_raw(field, rows)
        rows = [tuple(r) for r in rows if any(r)]
        self.field = field
        self.ambient = ambient
        self.basis = tuple(rows)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, [], canonical=True)

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, _identity_raw(field, ambient), canonical=True)

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
        return Subspace(self.field, self.ambient, list(self.basis) + list(other.basis))

    def annihilator(self) -> "Subspace":
        """Linear functionals (as coordinate vectors) vanishing on this space."""
        if not self.basis:
            return Subspace.full(self.field, self.ambient)
        basis = nullspace_raw(self.field, self.basis, self.ambient)
        return Subspace(self.field, self.ambient, basis, canonical=True)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        constraints = list(self.annihilator().basis) + list(other.annihilator().basis)
        if not constraints:
            return Subspace.full(self.field, self.ambient)
        basis = nullspace_raw(self.field, constraints, self.ambient)
        return Subspace(self.field, self.ambient, basis, canonical=True)

    def reduce_vector(self, vec: Sequence) -> list:
        """Remainder of vec after eliminating this basis's pivot coordinates."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        if len(v) != self.ambient:
            raise AmbientMismatch("vector length differs from ambient dimension")
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if x)
            c = v[pivot]
            if c:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def contains_vector(self, vec: Sequence) -> bool:
        return not any(self.reduce_vector(vec))

    def coords_of(self, vec: Sequence) -> tuple | None:
        """Coefficients of vec on the canonical basis, or None if outside."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        coeffs = []
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if x)
            c = v[pivot]
            coeffs.append(c)
            if c:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        if any(v):
            return None
        return tuple(coeffs)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(row) for row in other.basis)


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    return m.rref()


def nullspace(m: Matrix) -> Subspace:
    return m.nullspace()


def solve(m: Matrix, rhs: Sequence) -> tuple | None:
    return m.solve(rhs)


# ---------------------------------------------------------------------------
# symmetric form diagonalization


def _form_value(field: Field, g, u, v):
    acc = field.zero()
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = g[i]
        for j, vj in enumerate(v):
            if vj and row[j]:
                acc = field.add(acc, field.mul(ui, field.mul(row[j], vj)))
    return acc


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
    grows = [list(r) for r in g.rows]
    working = [row[:] for row in _identity_raw(field, n)]
    chosen: list[list] = []
    diag: list = []

    def prune(vecs):
        kept = []
        seen = Subspace.zero(field, n)
        for v in vecs:
            if any(v) and not seen.contains_vector(v):
                kept.append(v)
                seen = seen.sum_with(Subspace(field, n, [v]))
        return kept

    while True:
        working = prune(working)
        if not working:
            break
        pivot = None
        for v in working:
            if _form_value(field, grows, v, v):
                pivot = v
                break
        if pivot is None:
            pair = None
            for i in range(len(working)):
                for j in range(i + 1, len(working)):
                    if _form_value(field, grows, working[i], working[j]):
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                # totally isotropic remainder: emit as zero diagonal entries
                for v in working:
                    v = _normalize_pivot(field, v)
                    chosen.append(v)
                    diag.append(field.zero())
                break
            i, j = pair
            pivot = [field.add(a, b) for a, b in zip(working[i], working[j])]
        pivot = _normalize_pivot(field, pivot)
        fv = _form_value(field, grows, pivot, pivot)
        chosen.append(pivot)
        diag.append(fv)
        inv = field.inv(fv)
        nxt = []
        for w in working:
            c = field.mul(inv, _form_value(field, grows, pivot, w))
            if c:
                w = [field.sub(a, field.mul(c, b)) for a, b in zip(w, pivot)]
            nxt.append(w)
        working = nxt

    p_mat = Matrix(field, list(zip(*chosen)))
    zero = field.zero()
    d_rows = [[zero] * n for _ in range(n)]
    for i, d in enumerate(diag):
        d_rows[i][i] = d
    d_mat = Matrix(field, d_rows)
    return p_mat, d_mat
