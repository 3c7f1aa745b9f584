"""Structure-constant algebras and the operations the rest of the
package builds on: products, units, identity checks, ideals, quotients,
direct sums and split null extensions.

An AlgebraTable stores the multiplication of a finite-dimensional
algebra as structure constants c[i][j][k] (the coefficient of basis
vector k in the product b_i * b_j), kept sparse as nonzero rows.  The
commutative / associative / Jordan identity checks run on an integer
numpy image of the table so that 27-dimensional examples finish in
seconds; every product runs on a number path that `linalg` picks from a
bound it checks, so no check ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AlgebraMismatch,
    BadParameters,
    CapExceeded,
    FieldMismatch,
    NotAnIdeal,
    NotUnital,
    certify,
)
from .fields import Field, RawScalar
from .linalg import (
    Matrix,
    Subspace,
    _exact_matmul,
    _identity_raw,
    _int_image,
    _is_zero_mod,
    _magnitude,
    _narrow_path,
    _projective_points,
    _spin_batch,
    _sum_path,
    combine_raw,
    solve_raw,
    spin_closure,
)


@dataclass(frozen=True)
class SplitNullMeta:
    """How a split null extension was assembled: base dimension and the
    shift scalar reserved for extension derivations (it does not enter
    the product)."""

    base_dim: int
    shift: RawScalar


def _all_zero(p: int | None, values) -> bool:
    """Whether every exact sum in `values` (plain ints or Fractions) is
    zero in the field: one ``% p`` each over GF(p)."""
    return not any(v % p for v in values) if p else not any(values)


class AlgebraTable:
    """A finite-dimensional algebra given by structure constants.

    Equality compares field, dimension, structure constants and unit;
    labels and construction metadata are presentation-only and ignored.
    """

    __slots__ = ("field", "dim", "labels", "unit", "meta", "_rows", "_cache")

    def __init__(
        self,
        field: Field,
        dim: int,
        entries: Mapping[tuple[int, int, int], object],
        labels: Sequence[str] | None = None,
        unit: Sequence | None = None,
        meta: object = None,
    ):
        raw_unit = None if unit is None else map(field.coerce, unit)
        self._set(field, dim, {key: field.coerce(v) for key, v in entries.items()}, labels, raw_unit, meta)

    @classmethod
    def _wrap(cls, field: Field, dim: int, entries, labels=None, unit=None, meta=None) -> "AlgebraTable":
        """A table whose entries and unit already hold raw values of the field."""
        table = cls.__new__(cls)
        table._set(field, dim, entries, labels, unit, meta)
        return table

    def _set(self, field: Field, dim: int, entries, labels, unit, meta):
        if dim <= 0:
            raise BadParameters("dimension must be positive")
        self.field = field
        self.dim = dim
        rows: dict[tuple[int, int], list[tuple[int, RawScalar]]] = {}
        for (i, j, k), v in entries.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise BadParameters(f"structure index ({i},{j},{k}) out of range")
            if v:
                rows.setdefault((i, j), []).append((k, v))
        # a Mapping holds one value per (i, j, k), so no k repeats in a row
        self._rows = {key: tuple(sorted(pairs) if len(pairs) > 1 else pairs) for key, pairs in rows.items()}
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise BadParameters("label count differs from dimension")
            if len(set(labels)) != dim or any((not s) or any(ch.isspace() for ch in s) for s in labels):
                raise BadParameters("labels must be distinct non-empty tokens")
        self.labels = labels
        self.meta = meta
        self._cache: dict = {}
        if unit is not None:
            unit = tuple(unit)
            if len(unit) != dim:
                raise BadParameters("unit length differs from dimension")
            if not self._acts_as_unit(unit):
                raise NotUnital("declared unit fails unit laws")
        self.unit = unit

    # ------------------------------------------------------------------
    # basics

    def sc_entry(self, i: int, j: int, k: int) -> RawScalar:
        for kk, v in self._rows.get((i, j), ()):
            if kk == k:
                return v
        return self.field.zero()

    def sc_items(self):
        """All nonzero structure constants, sorted by (i, j, k)."""
        for (i, j) in sorted(self._rows):
            for k, v in self._rows[(i, j)]:
                yield i, j, k, v

    def nonzero_count(self) -> int:
        return sum(len(pairs) for pairs in self._rows.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraTable)
            and self.field == other.field
            and self.dim == other.dim
            and self._rows == other._rows
            and self.unit == other.unit
        )

    __hash__ = None

    def __repr__(self) -> str:
        unital = "unital" if self.unit is not None else "no unit"
        return f"AlgebraTable(dim={self.dim}, {self.field}, {unital})"

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels else f"b{i + 1}"

    # ------------------------------------------------------------------
    # elements

    def element(self, coords: Sequence) -> "Element":
        return Element(self, coords)

    def zero(self) -> "Element":
        return Element(self, [self.field.zero()] * self.dim)

    def basis_element(self, i: int) -> "Element":
        coords = [self.field.zero()] * self.dim
        coords[i] = self.field.one()
        return Element._wrap(self, coords)

    def basis(self) -> list["Element"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def one(self) -> "Element":
        u = self.unit_coords()
        if u is None:
            raise NotUnital("algebra has no unit")
        return Element(self, u)

    def unit_coords(self) -> tuple | None:
        if self.unit is not None:
            return self.unit
        if "unit" not in self._cache:
            found = _solve_for_unit(self)
            self._cache["unit"] = found
        return self._cache["unit"]

    def _acts_as_unit(self, coords) -> bool:
        """u b_j = b_j = b_j u for all j: key (0, j, k) sums the coefficient of
        b_k in u b_j - b_j, key (1, j, k) in b_j u - b_j, over the nonzero rows."""
        acc = {(side, j, j): -1 for side in (0, 1) for j in range(self.dim)}
        for (i, j), pairs in self._rows.items():
            for side, u, col in ((0, coords[i], j), (1, coords[j], i)):
                if u:
                    for k, v in pairs:
                        acc[side, col, k] = acc.get((side, col, k), 0) + u * v
        return _all_zero(self.field.p, acc.values())

    # ------------------------------------------------------------------
    # multiplication

    def mul_coords(self, x: Sequence[RawScalar], y: Sequence[RawScalar]) -> list:
        f = self.field
        out = [f.zero()] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = self._rows.get((i, j))
                if row:
                    c = f.mul(xi, yj)
                    for k, v in row:
                        out[k] = f.add(out[k], f.mul(c, v))
        return out

    def mult_operator(self, x: Sequence[RawScalar], side: str = "left") -> list[list]:
        """Raw rows of L_x (side "left") or R_x (side "right").

        Entry [k][j] is the coefficient of b_k in x * b_j, respectively
        b_j * x, so column j is the image of b_j.  One pass over the
        nonzero structure rows, skipping zero coordinates of x.
        """
        if side not in ("left", "right"):
            raise BadParameters(f"unknown operator side {side!r}")
        f = self.field
        out = [[f.zero()] * self.dim for _ in range(self.dim)]
        left = side == "left"
        for (i, j), pairs in self._rows.items():
            xi, col = (x[i], j) if left else (x[j], i)
            if not xi:
                continue
            for k, v in pairs:
                row = out[k]
                row[col] = f.add(row[col], f.mul(xi, v))
        return out

    # ------------------------------------------------------------------
    # integer image for the numpy engines

    def structure_int_tensor(self) -> tuple[np.ndarray, int]:
        """The table as an integer numpy tensor C[i, j, k], with the
        denominator scale that was multiplied in (1 over GF(p)); see
        `linalg._int_image`.  Its 8 n^3 bytes are refused past
        JORDAN_BYTE_CAP."""
        cached = self._cache.get("int_tensor")
        if cached is not None:
            return cached
        n = self.dim
        _refuse_over_cap("the structure tensor", n, 8 * n**3)
        # the image of the nonzero constants, scattered into zeros: zeros
        # change neither the denominator lcm nor the largest entry
        flat, values = [], []
        for (i, j), pairs in self._rows.items():
            for k, v in pairs:
                flat.append((i * n + j) * n + k)
                values.append(v)
        image, scale = _int_image(self.field, [values])
        c = np.zeros(n**3, dtype=image.dtype)
        c[flat] = image[0]
        self._cache["int_tensor"] = (c.reshape(n, n, n), scale)
        return self._cache["int_tensor"]


class Element:
    """A vector in an algebra's basis, with product and module syntax."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: AlgebraTable, coords: Sequence):
        f = algebra.field
        coords = tuple(f.coerce(x) for x in coords)
        if len(coords) != algebra.dim:
            raise BadParameters("coordinate length differs from algebra dimension")
        self.algebra = algebra
        self.coords = coords

    @classmethod
    def _wrap(cls, algebra: AlgebraTable, coords: Sequence[RawScalar]) -> "Element":
        """An element whose coordinates already are raw values of the field."""
        x = cls.__new__(cls)
        x.algebra = algebra
        x.coords = tuple(coords)
        return x

    def _same_algebra(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    def _combine(self, coeffs, others) -> "Element":
        return Element._wrap(self.algebra, combine_raw(self.algebra.field, coeffs, others))

    def __add__(self, other: "Element") -> "Element":
        self._same_algebra(other)
        return self._combine((1, 1), (self.coords, other.coords))

    def __sub__(self, other: "Element") -> "Element":
        self._same_algebra(other)
        return self._combine((1, -1), (self.coords, other.coords))

    def __neg__(self) -> "Element":
        return self._combine((-1,), (self.coords,))

    def scale(self, c) -> "Element":
        return self._combine((self.algebra.field.coerce(c),), (self.coords,))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._same_algebra(other)
            return Element._wrap(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.coords == other.coords
        )

    def __bool__(self) -> bool:
        return any(self.coords)

    def __repr__(self) -> str:
        f = self.algebra.field
        parts = []
        for i, c in enumerate(self.coords):
            if c:
                parts.append(f"{f.format_raw(c)}*{self.algebra.label_of(i)}")
        return " + ".join(parts) if parts else "0"

    def square(self) -> "Element":
        return self * self

    def is_zero(self) -> bool:
        return not any(self.coords)


class LinearMap:
    """A linear endomorphism of an algebra's underlying space.

    Column j of the matrix is the image of basis vector j.  A map never
    rebinds `matrix` and a Matrix is immutable, so what depends on the
    matrix alone (kernel, image, the Leibniz verdict of
    `derivations.is_derivation`) is computed once per map in `_facts`.
    """

    __slots__ = ("algebra", "matrix", "_facts")

    def __init__(self, algebra: AlgebraTable, matrix: Matrix):
        if matrix.field != algebra.field:
            raise FieldMismatch("map field differs from algebra field")
        if matrix.nrows != algebra.dim or matrix.ncols != algebra.dim:
            raise BadParameters("map shape differs from algebra dimension")
        self.algebra = algebra
        self.matrix = matrix
        self._facts: dict = {}

    @classmethod
    def from_images(cls, algebra: AlgebraTable, images: Sequence[Sequence]) -> "LinearMap":
        """Build from the list of basis-vector images (image of basis j
        at position j)."""
        cols = [[algebra.field.coerce(x) for x in img] for img in images]
        if len(cols) != algebra.dim:
            raise BadParameters("need one image per basis vector")
        return cls(algebra, Matrix(algebra.field, list(zip(*cols))))

    @classmethod
    def zero(cls, algebra: AlgebraTable) -> "LinearMap":
        return cls(algebra, Matrix.zeros(algebra.field, algebra.dim, algebra.dim))

    @classmethod
    def identity(cls, algebra: AlgebraTable) -> "LinearMap":
        return cls(algebra, Matrix.identity(algebra.field, algebra.dim))

    @classmethod
    def scalar(cls, algebra: AlgebraTable, c) -> "LinearMap":
        return cls(algebra, Matrix.identity(algebra.field, algebra.dim).scale(c))

    def apply(self, x: Element) -> Element:
        if x.algebra is not self.algebra and x.algebra != self.algebra:
            raise AlgebraMismatch("element lives in a different algebra")
        return Element._wrap(self.algebra, self.matrix.apply(x.coords))

    __call__ = apply

    def compose(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.algebra, self.matrix @ other.matrix)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.algebra, self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.algebra, self.matrix - other.matrix)

    def scale(self, c) -> "LinearMap":
        return LinearMap(self.algebra, self.matrix.scale(c))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearMap)
            and self.algebra == other.algebra
            and self.matrix == other.matrix
        )

    def __repr__(self) -> str:
        return f"LinearMap(dim={self.algebra.dim}, {self.algebra.field})"

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def kernel(self) -> Subspace:
        if "kernel" not in self._facts:
            self._facts["kernel"] = self.matrix.nullspace()
        return self._facts["kernel"]

    def image(self) -> Subspace:
        if "image" not in self._facts:
            self._facts["image"] = self.matrix.column_space()
        return self._facts["image"]

    def restricts_to(self, space: Subspace) -> bool:
        """Whether the map sends the given subspace into itself."""
        return all(space.contains_vector(self.matrix.apply(v)) for v in space.basis)


# ---------------------------------------------------------------------------
# unit finding


def _solve_for_unit(table: AlgebraTable) -> tuple | None:
    """The u with R_{b_j} u = b_j and L_{b_j} u = b_j for every j, each
    distinct (row, rhs) equation kept once, or None.  Row k of R_{b_j} is
    C[:, j, k] and of L_{b_j} C[j, :, k], read off the integer tensor,
    whose scale goes on the right-hand side."""
    c, scale = table.structure_int_tensor()
    n = table.dim
    rows = np.concatenate((c.transpose(1, 2, 0), c.transpose(0, 2, 1))).reshape(2 * n * n, n).tolist()
    rhs = [scale if j == k else 0 for _ in range(2) for j in range(n) for k in range(n)]
    eqs = dict.fromkeys(zip(map(tuple, rows), rhs))
    sol = solve_raw(table.field, [row for row, _ in eqs], [b for _, b in eqs])
    return None if sol is None else tuple(sol)


def find_unit(table: AlgebraTable) -> Element | None:
    """The two-sided unit of the table, if one exists."""
    coords = table.unit_coords()
    return None if coords is None else Element(table, coords)


# ---------------------------------------------------------------------------
# identity checks


def _check_commutative(table: AlgebraTable) -> bool:
    for (i, j), pairs in table._rows.items():
        if i == j:
            continue
        if table._rows.get((j, i), ()) != pairs:
            return False
    return True


def _check_associative(table: AlgebraTable) -> bool:
    """(b_i b_j) b_k = b_i (b_j b_k) on all basis triples, compared
    coordinate by coordinate for a block of i at a time.  Past 101
    dimensions a block is one i, whose arrays of n^3 entries peak at
    about four at a time, 8 bytes an entry; a check that would pass
    JORDAN_BYTE_CAP is refused before they are allocated."""
    n = table.dim
    _refuse_over_cap("the associativity check", n, 4 * n**3 * 8)
    c, _ = table.structure_int_tensor()
    p = table.field.p
    flat = c.reshape(n * n, n)
    chunk = max(1, (1 << 20) // max(1, n * n * n))
    for lo in range(0, n, chunk):
        blk = c[lo : lo + chunk]
        m = blk.shape[0]
        left = _exact_matmul(blk.reshape(m * n, n), c.reshape(n, n * n), p).reshape(m, n, n, n)
        # axes (j, k, i, l) of b_i (b_j b_k)
        right = _exact_matmul(flat, blk.transpose(1, 0, 2).reshape(n, m * n), p).reshape(n, n, m, n)
        if not np.array_equal(left, right.transpose(2, 0, 1, 3)):
            return False
    return True


# Largest work area, in bytes, that the structure tensor, the identity
# checks and a dense map read from a file allocate (the 2^30 of
# derivations.LEIBNIZ_BYTE_CAP).  The Jordan check is charged seven n^4
# arrays of 8 bytes; it peaks near four.
JORDAN_BYTE_CAP = 2**30
_JORDAN_ARRAYS = 7


def _refuse_over_cap(what: str, n: int, size: int):
    """CapExceeded when `what` of an n-dim table needs a work area of more
    than JORDAN_BYTE_CAP bytes; called before anything is allocated."""
    if size > JORDAN_BYTE_CAP:
        raise CapExceeded(
            f"{what} of a {n}-dim table needs {size} bytes, "
            f"over the cap of {JORDAN_BYTE_CAP}"
        )


def _check_jordan(table: AlgebraTable) -> bool:
    """Fully multilinearized Jordan identity on all basis triples.

    For a commutative table the six-permutation linearization of
    (x^2 y) x - x^2 (y x) collapses to McCrimmon's operator form
    [L_{ab}, L_c] + [L_{bc}, L_a] + [L_{ca}, L_b] = 0 on basis triples,
    up to the factor -2, invertible in every supported field.  One
    product forms the commutator tensor K[m, z] = [L_m, L_z]; as
    L_{ab} = sum_m c[a, b, m] L_m, two more per c give [L_{ab}, L_c] and
    G[x, y] = [L_{cx}, L_y], and the sum [L_{ab}, L_c] + G + G^T, being
    symmetric in (a, b, c), is formed for a <= b <= c only.  The products,
    their sum and the exact zero test stay on the number path that
    `linalg._sum_path` and `_narrow_path` pick; over GF(p) each product is
    reduced first where that path cannot hold three.  Arrays over
    JORDAN_BYTE_CAP bytes are refused before they are allocated.
    """
    if not check_identity(table, "commutative"):
        return False
    n = table.dim
    _refuse_over_cap("the Jordan check", n, _JORDAN_ARRAYS * n**4 * 8)
    c, _ = table.structure_int_tensor()
    p = table.field.p
    t = c.transpose(0, 2, 1)  # t[i] is the left-multiplication matrix L_i
    # K[m, z] = L_m L_z - L_z L_m, from residues over GF(p), so |K| < p there
    k = _exact_matmul(t.reshape(n * n, n), t.transpose(1, 0, 2).reshape(n, n * n), p, terms=1 if p else 2)
    k = k.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    k = k - k.transpose(1, 0, 2, 3)
    sizes = n, _magnitude(c, p), _magnitude(k, p)
    dtype, reduce = _narrow_path(_sum_path(*sizes, p, 3), *sizes, 3)
    c, k = c.astype(dtype), np.ascontiguousarray(k, dtype=dtype)
    bs, as_ = np.tril_indices(n)  # the pairs a <= b ordered by b, so those with b <= z come first
    pair_rows = c.reshape(n * n, n)[as_ * n + bs]
    for z in range(n):
        m = z + 1
        a, b = as_[: m * (m + 1) // 2], bs[: m * (m + 1) // 2]
        total = pair_rows[: len(a)] @ k[:, z].reshape(n, n * n)
        g = (c[z, :m] @ k[:, :m].reshape(n, m * n * n)).reshape(m * m, n * n)  # g[x m + y] = [L_{zx}, L_y]
        if reduce:
            total, g = np.fmod(total, p), np.fmod(g, p)
        total += g[a * m + b]
        total += g[b * m + a]
        if not _is_zero_mod(total, p):
            return False
    return True


_IDENTITY_CHECKS = {
    "commutative": _check_commutative,
    "associative": _check_associative,
    "jordan": _check_jordan,
}


def check_identity(table: AlgebraTable, which: str) -> bool:
    """Exact verdict for 'commutative', 'associative' or 'jordan'."""
    if which not in _IDENTITY_CHECKS:
        raise BadParameters(f"unknown identity {which!r}")
    key = ("identity", which)
    if key not in table._cache:
        table._cache[key] = _IDENTITY_CHECKS[which](table)
    return table._cache[key]


def associator(x: Element, y: Element, z: Element) -> Element:
    """(xy)z - x(yz)."""
    return (x * y) * z - x * (y * z)


# ---------------------------------------------------------------------------
# ideals and quotients


def _product_sides(table: AlgebraTable) -> tuple[str, ...]:
    """Operator sides an ideal must absorb: on a commutative table
    L_v = R_v, so the left products alone are enough."""
    return ("left",) if check_identity(table, "commutative") else ("left", "right")


def _products(table: AlgebraTable, vec, sides: tuple[str, ...]):
    """The products v * b_j (side "left") and b_j * v (side "right") with
    every basis element: the columns of L_v and of R_v."""
    for side in sides:
        yield from zip(*table.mult_operator(vec, side))


def _dual_products(table: AlgebraTable, z, sides: tuple[str, ...]):
    """The functionals x -> z(b_a x) and, when side "right" is asked for,
    x -> z(x b_b): the rows and columns of S_z[a][b] = z(b_a b_b), formed
    in one pass over the structure rows."""
    f, n = table.field, table.dim
    p = f.p
    s = [[f.zero()] * n for _ in range(n)]
    for (i, j), pairs in table._rows.items():
        v = sum(z[k] * c for k, c in pairs)
        s[i][j] = v % p if p else v
    yield from s
    if "right" in sides:
        yield from zip(*s)


def is_ideal(table: AlgebraTable, space: Subspace) -> bool:
    """Whether the subspace is a two-sided ideal of the table."""
    if space.ambient != table.dim:
        raise BadParameters("subspace ambient differs from algebra dimension")
    sides = _product_sides(table)
    return all(space.contains_vector(pr) for vec in space.basis for pr in _products(table, vec, sides))


def ideal_closure(table: AlgebraTable, space: Subspace) -> Subspace:
    """Smallest ideal containing the subspace: its spin under the products
    with every basis element (`linalg.spin_closure`), which stops early
    at the whole algebra."""
    if space.ambient != table.dim:
        raise BadParameters("subspace ambient differs from algebra dimension")
    sides = _product_sides(table)
    return spin_closure(space, lambda vec: _products(table, vec, sides))


# Most cells of the stacked bases and images that `principal_closures`
# reduces at once: 128 KB of int64, 65 points of a 6-dim commutative table.
_CLOSURE_CELLS = 1 << 14


def principal_closures(table: AlgebraTable, points):
    """`ideal_closure` of the line of each point of a finite-field table,
    spun together (`linalg._spin_batch`) under v -> v b_j, and b_j v on a
    non-commutative table, in chunks of at most _CLOSURE_CELLS cells.
    Equal closures of one chunk are one `Subspace`."""
    f, n = table.field, table.dim
    c, _ = table.structure_int_tensor()
    # column j*n + k of the left block holds coordinate k of b_i b_j in row i;
    # the right block, of b_j b_i
    gens = np.concatenate([c, c.transpose(1, 0, 2)][: len(_product_sides(table))], axis=1).reshape(n, -1)
    step = max(1, _CLOSURE_CELLS // (n * (n + gens.shape[1])))
    points = iter(points)
    while chunk := list(islice(points, step)):
        bases, dims = _spin_batch(gens, chunk, f.p)
        wrapped: dict[tuple, Subspace] = {}
        for flat, d in zip(bases.reshape(len(chunk), -1).tolist(), dims.tolist()):
            if (key := tuple(flat[: d * n])) not in wrapped:
                wrapped[key] = Subspace._wrap(f, n, [key[k : k + n] for k in range(0, d * n, n)], canonical=True)
            yield wrapped[key]


def _product_space(table: AlgebraTable, a: Subspace, b: Subspace) -> Subspace:
    products = [table.mul_coords(u, v) for u in a.basis for v in b.basis]
    return Subspace._wrap(table.field, table.dim, products)


def ideal_cube(table: AlgebraTable, ideal: Subspace) -> Subspace:
    """(I*I)*I for an ideal I; the result is again an ideal, which is
    re-verified here rather than trusted."""
    if not is_ideal(table, ideal):
        raise NotAnIdeal("ideal_cube requires an ideal")
    square = _product_space(table, ideal, ideal)
    cube = _product_space(table, square, ideal)
    certify(is_ideal(table, cube), "cube of an ideal stopped being an ideal")
    return cube


def quotient_algebra(table: AlgebraTable, ideal: Subspace) -> tuple[AlgebraTable, Matrix]:
    """Quotient by an ideal plus the projection matrix onto it.

    The quotient basis is the set of standard basis vectors at the
    non-pivot columns of the ideal's echelon basis, in increasing
    order; the projection sends a coordinate vector to its quotient
    coordinates.  The projection matrix is (quotient dim) x (dim).
    """
    if not is_ideal(table, ideal):
        raise NotAnIdeal("quotient requires an ideal")
    f = table.field
    n = table.dim
    pivot_set = set(ideal.pivots)
    complement = [m for m in range(n) if m not in pivot_set]
    q = len(complement)

    def project(vec) -> list:
        reduced = ideal.reduce_vector(vec)
        return [reduced[m] for m in complement]

    identity = _identity_raw(f, n)
    entries = {}
    for a, ia in enumerate(complement):
        for b, ib in enumerate(complement):
            image = project(table.mul_coords(identity[ia], identity[ib]))
            for k, v in enumerate(image):
                if v:
                    entries[(a, b, k)] = v
    if q == 0:
        raise NotAnIdeal("quotient by the whole algebra is empty")
    labels = tuple(table.labels[m] for m in complement) if table.labels else None
    unit_coords = table.unit_coords()
    unit = project(list(unit_coords)) if unit_coords is not None else None
    quotient = AlgebraTable(f, q, entries, labels=labels, unit=unit)
    projection = Matrix._wrap(f, zip(*map(project, identity)))
    return quotient, projection


# ---------------------------------------------------------------------------
# sums and extensions


def direct_sum(a: AlgebraTable, b: AlgebraTable) -> AlgebraTable:
    """Product algebra on the concatenated bases (no cross terms)."""
    if a.field != b.field:
        raise FieldMismatch("direct sum needs a common field")
    n = a.dim
    entries = {}
    for i, j, k, v in a.sc_items():
        entries[(i, j, k)] = v
    for i, j, k, v in b.sc_items():
        entries[(i + n, j + n, k + n)] = v
    labels = None
    if a.labels and b.labels and len(set(a.labels) | set(b.labels)) == a.dim + b.dim:
        labels = a.labels + b.labels
    unit = None
    ua, ub = a.unit_coords(), b.unit_coords()
    if ua is not None and ub is not None:
        unit = tuple(ua) + tuple(ub)
    return AlgebraTable(a.field, a.dim + b.dim, entries, labels=labels, unit=unit)


def split_null_extension(table: AlgebraTable, shift=0) -> tuple[AlgebraTable, Subspace]:
    """The square-zero extension on J + J*eps.

    The product is (a + b eps)(a' + b' eps) = aa' + (ab' + a'b) eps, so
    the eps copy is an ideal that squares to zero; it is returned as
    the radical subspace.  The shift scalar is carried in the metadata
    for the extension-derivation experiment and does not affect the
    product.
    """
    f = table.field
    n = table.dim
    entries = {}
    for i, j, k, v in table.sc_items():
        entries[(i, j, k)] = v
        entries[(i, j + n, k + n)] = v
        entries[(i + n, j, k + n)] = v
    labels = None
    if table.labels:
        labels = table.labels + tuple(f"{s}_eps" for s in table.labels)
    unit = None
    if table.unit_coords() is not None:
        unit = tuple(table.unit_coords()) + (f.zero(),) * n
    meta = SplitNullMeta(base_dim=n, shift=f.coerce(shift))
    ext = AlgebraTable(f, 2 * n, entries, labels=labels, unit=unit, meta=meta)
    radical = Subspace._wrap(f, 2 * n, _identity_raw(f, 2 * n)[n:], canonical=True)
    square = _product_space(ext, radical, radical)
    certify(square.dim == 0, "radical of a split null extension must square to zero")
    return ext, radical


# ---------------------------------------------------------------------------
# inverses and the division-algebra scan


def _inversion_kind(table: AlgebraTable) -> str:
    """Which equations define an inverse: the Jordan pair on commutative
    tables, L_x y = 1 on associative ones, and x*y = y*x = 1 on any
    other table."""
    if check_identity(table, "commutative"):
        return "jordan"
    if check_identity(table, "associative"):
        return "associative"
    return "generic"


def _invert_coords(table: AlgebraTable, coords, kind: str) -> list | None:
    """Inverse coordinates of x under the equations of `kind`, or None.

    "jordan" solves x*y = 1 and x^2*y = x as one stacked system.
    "associative" solves L_x y = 1; in a finite-dimensional associative
    unital algebra a right inverse is two-sided.  "generic" solves
    L_x y = 1 and R_x y = 1 as one stacked system, so the verdict does
    not depend on the basis.  Every solution is re-verified by products.
    """
    unit = table.unit_coords()
    if unit is None:
        raise NotUnital("inversion needs a unit")
    f = table.field
    x = list(coords)
    one = list(unit)
    if kind == "jordan":
        xsq = table.mul_coords(x, x)
        sol = solve_raw(f, table.mult_operator(x) + table.mult_operator(xsq), one + x)
        if sol is None or table.mul_coords(x, sol) != one or table.mul_coords(xsq, sol) != x:
            return None
        return sol
    if kind == "generic":
        sol = solve_raw(f, table.mult_operator(x) + table.mult_operator(x, "right"), one + one)
    else:
        sol = solve_raw(f, table.mult_operator(x), one)
    if sol is None or table.mul_coords(x, sol) != one or table.mul_coords(sol, x) != one:
        return None
    return sol


def invert_element(x: Element) -> Element | None:
    """Inverse of x in its algebra, or None.

    Jordan-style inversion (x y = 1 and x^2 y = x) on commutative
    tables, plain one-sided solving on associative ones, and the
    two-sided requirement for a general table.
    """
    table = x.algebra
    sol = _invert_coords(table, x.coords, _inversion_kind(table))
    return None if sol is None else Element(table, sol)


def is_division_algebra(table: AlgebraTable, cap: int = 10**6) -> str:
    """'yes' / 'no' / 'unknown': are all nonzero elements invertible?

    Exhaustive over GF(p) when p^dim stays under the cap; anything
    larger (and every rational table) is 'unknown'.  One point per line
    decides the line: if y inverts x then λ⁻¹y inverts λx, under each
    kind's equations, since (λx)(λ⁻¹y) = xy and (λx)²(λ⁻¹y) = λx²y.
    """
    if table.unit_coords() is None:
        raise NotUnital("division-algebra scan needs a unit")
    f = table.field
    if f.is_rational or f.p**table.dim > cap:
        return "unknown"
    kind = _inversion_kind(table)
    points = _projective_points(f, Subspace.full(f, table.dim))
    return "no" if any(_invert_coords(table, v, kind) is None for v in points) else "yes"
