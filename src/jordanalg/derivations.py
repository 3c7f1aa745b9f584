"""Derivations and the invertible-values analysis.

The derivation algebra of a table is computed as the nullspace of the
Leibniz system.  A derivation D is then classified by looking at its
image subspace W = D(J): every value of D lies in W and every element
of W is a value, so D takes only invertible-or-zero values exactly when
every nonzero element of W is invertible.  The classifier runs a ladder
of strategies (exhaustive projective enumeration over a prime field,
the restricted-norm anisotropy test on spin factors, the witness recipe
on 27-dimensional hermitian algebras) and reports a three-valued
verdict with a re-verified witness whenever the answer is negative.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain

import numpy as np

from .algebra import (
    AlgebraTable,
    Element,
    LinearMap,
    SplitNullMeta,
    _CLOSURE_CELLS,
    _invert_coords,
    _inversion_kind,
    _dual_products,
    _product_sides,
    check_identity,
    ideal_closure,
    invert_element,
    is_ideal,
    principal_closures,
    quotient_algebra,
)
from .constructions import AlbertMeta, SpinMeta
from .errors import (
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
    NotSpinFactor,
    NotSymmetric,
    NotUnital,
    RecipeFailure,
    certify,
)
from .jordan import albert_norm, spin_norm
from .linalg import (
    Entries,
    Matrix,
    Subspace,
    _column_spaces,
    _exact_matmul,
    _first_anisotropic_pair,
    _identity_raw,
    _int_image,
    _is_zero_mod,
    _magnitude,
    _narrow_path,
    _nullspace_mod_staged,
    _projective_points,
    _sum_path,
    combine_raw,
    diagonalize_symmetric_form,
    dot_raw,
    spin_closure,
)


# ---------------------------------------------------------------------------
# the Leibniz rule


@cache
def _leibniz_pairs(n: int, commutative: bool) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices i*n + j of the basis pairs of the Leibniz rule, i <= j on
    commutative tables, and j*n + i of the same; cached for is_derivation."""
    pairs = np.arange(n * n)
    pairs = pairs[pairs // n <= pairs % n] if commutative else pairs
    return pairs, pairs % n * n + pairs // n


def _leibniz_holds(table: AlgebraTable, maps) -> bool:
    """Whether D(bi bj) = D(bi)bj + bi D(bj) for every map D in `maps` and
    basis pair (i, j).  On a commutative table bi D(bj) = D(bj) bi and the
    defect is symmetric in (i, j), so only the pairs i <= j are formed.
    The three products, their sum and the zero test stay on the number
    path that `linalg._sum_path` and `_narrow_path` pick, as in the
    Jordan check."""
    c, _ = table.structure_int_tensor()
    n, s, p = table.dim, len(maps), table.field.p
    # d[s*n + k] is row k of maps[s], dt[s*n + m] row m of its transpose
    d, _ = _int_image(table.field, [row for m in maps for row in m.matrix.rows])
    sizes = n, _magnitude(c, p), _magnitude(d, p)
    dtype, reduce = _narrow_path(_sum_path(*sizes, p, 3), *sizes, 3)
    c, d = c.astype(dtype), d.astype(dtype)
    dt = d.reshape(s, n, n).transpose(0, 2, 1).reshape(s * n, n)
    # left[s, i*n + j] = D(bi) bj, right[s, j*n + i] = bi D(bj)
    left = (dt @ c.reshape(n, n * n)).reshape(s, n * n, n)
    commutative = check_identity(table, "commutative")
    pairs, swapped = _leibniz_pairs(n, commutative)
    right = left if commutative else (dt @ c.transpose(1, 0, 2).reshape(n, n * n)).reshape(s, n * n, n)
    defect = (c.reshape(n * n, n)[pairs] @ d.T).reshape(len(pairs), s, n).transpose(1, 0, 2)
    if reduce:
        left, right, defect = (np.fmod(a, p) for a in (left, right, defect))
    defect -= left[:, pairs]
    defect -= right[:, swapped]
    return _is_zero_mod(defect, p)


def is_derivation(table: AlgebraTable, dmap: LinearMap) -> bool:
    """Whether D(xy) = D(x)y + x D(y) holds on all basis pairs, exactly;
    decided once per map (`LinearMap._facts`)."""
    if dmap.algebra != table:
        raise AlgebraMismatch("map is defined on a different algebra")
    if "leibniz" not in dmap._facts:
        dmap._facts["leibniz"] = _leibniz_holds(table, [dmap])
    return dmap._facts["leibniz"]


@dataclass(frozen=True)
class DerivationSpace:
    """All derivations of one algebra, as a canonical echelon basis."""

    algebra: AlgebraTable
    basis: tuple[LinearMap, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _flat_basis(self) -> list[tuple]:
        return [tuple(chain.from_iterable(m.matrix.rows)) for m in self.basis]

    @cached_property
    def _int_basis(self) -> tuple[np.ndarray, int]:
        """`linalg._int_image` of the flat basis, one row per map, and its scale."""
        ints, scale = _int_image(self.algebra.field, self._flat_basis)
        return ints.reshape(self.dim, self.algebra.dim**2), scale

    def combination(self, coeffs) -> LinearMap:
        """The derivation with the given coordinates on the basis, as one exact product."""
        if len(coeffs) != len(self.basis):
            raise BadParameters("need one coefficient per basis map")
        f = self.algebra.field
        n = self.algebra.dim
        basis, scale = self._int_basis
        ints, coeff_scale = _int_image(f, [[f.coerce(c) for c in coeffs]])
        flat = _exact_matmul(ints, basis, f.p)[0].tolist()
        if not f.p:
            flat = [Fraction(v, scale * coeff_scale) for v in flat]
        return LinearMap(self.algebra, Matrix._wrap(f, [flat[r * n : (r + 1) * n] for r in range(n)]))


# Largest Leibniz system, in bytes, that `derivation_space` accepts,
# measured as the dense array of one int64 (or wider) entry per cell.
# That array is never allocated, over either field: the system is kept
# as its nonzero entries.  The dense 27-dim Albert system would take
# about 60 MB; the 64-dim M_8 over GF(3) would take about 8.6 GB and is
# refused with CapExceeded.
LEIBNIZ_BYTE_CAP = 2**30


def _leibniz_entries(c: np.ndarray, pairs: list[tuple[int, int]]) -> Entries:
    """The Leibniz system as entry triples, from the nonzero constants.

    Row t*n + k is coordinate k of D(bi bj) - D(bi)bj - bi D(bj) for the
    pair t = (i, j); unknown r*n + c is entry (r, c) of the matrix of D.
    A constant c[a, b, m] = v gives v at (k, k*n + m) for every k in the
    rows of the pair (a, b), -v at (m, a*n + i) in the rows of each pair
    (i, b), and -v at (m, b*n + j) in the rows of each pair (a, j).  A
    cell is the sum of at most one entry of each kind, which the dtype
    of c leaves room for.
    """
    n = c.shape[0]
    row_of = np.full((n, n), -1)
    row_of[tuple(np.array(pairs).T)] = np.arange(len(pairs)) * n
    a, b, m = np.nonzero(c)
    v = c[a, b, m]
    span = np.arange(n)
    t = row_of[a, b]
    first = t >= 0
    rows = [(t[first, None] + span).ravel()]
    cols = [(span * n + m[first, None]).ravel()]
    vals = [np.repeat(v[first], n)]
    # -D(bi) bj: pairs (i, b); -bi D(bj): pairs (a, j)
    for base, col in ((row_of[:, b].T, a[:, None] * n + span), (row_of[a], b[:, None] * n + span)):
        hit = base >= 0
        rows.append((base + m[:, None])[hit])
        cols.append(col[hit])
        vals.append(np.repeat(-v, n).reshape(hit.shape)[hit])
    shape = (len(pairs) * n, n * n)
    return Entries(shape, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


# Largest number of cells of the stacked Leibniz defect that
# `derivation_space` forms at once when it certifies a basis: 2 MB of
# int64, 13 maps of a 27-dim table.
_DEFECT_CELLS = 1 << 18


def derivation_space(table: AlgebraTable) -> DerivationSpace:
    """Solve the Leibniz system for the full space of derivations.

    Unknowns are the dim^2 matrix entries; one equation per basis pair
    and coordinate.  Commutative tables only need pairs i <= j.  A
    system larger than LEIBNIZ_BYTE_CAP is refused before it is
    allocated.  The basis is certified by the Leibniz defect of its maps
    stacked, _DEFECT_CELLS cells at a time.
    """
    cached = table._cache.get("derivation_space")
    if cached is not None:
        return cached
    f = table.field
    n = table.dim
    commutative = check_identity(table, "commutative")
    size = (n * (n + 1) // 2 if commutative else n * n) * n**3 * 8
    if size > LEIBNIZ_BYTE_CAP:
        raise CapExceeded(
            f"the Leibniz system of a {n}-dim table needs {size} bytes, "
            f"over the cap of {LEIBNIZ_BYTE_CAP}"
        )
    flat, _ = _leibniz_pairs(n, commutative)
    pairs = np.stack(np.divmod(flat, n), axis=1)  # rows (i, j)
    c, _ = table.structure_int_tensor()
    basis = _nullspace_mod_staged(_leibniz_entries(c, pairs), f.p).tolist()
    maps = [
        LinearMap(table, Matrix._wrap(f, [null_row[r * n : (r + 1) * n] for r in range(n)]))
        for null_row in basis
    ]
    space = DerivationSpace(table, tuple(maps))
    step = max(1, _DEFECT_CELLS // n**3)
    for lo in range(0, len(maps), step):
        if not _leibniz_holds(table, maps[lo : lo + step]):
            raise CertificationError("nullspace row fails the Leibniz rule")
    unit = table.unit_coords()
    if unit is not None:  # D(1) = 0, where row s*n + k of the stack is row k of map s
        stacked = space._int_basis[0].reshape(space.dim * n, n)
        if _exact_matmul(stacked, _int_image(f, [unit])[0].T, f.p).any():
            raise CertificationError("derivation must kill the unit")
    table._cache["derivation_space"] = space
    return space


def inner_assoc_derivation(table: AlgebraTable, a: Element) -> LinearMap:
    """The commutator map x -> ax - xa on an associative table."""
    if not check_identity(table, "associative"):
        raise NotAssociative("inner derivations of this form need associativity")
    if a.algebra != table:
        raise AlgebraMismatch("element lives in a different algebra")
    left = Matrix._wrap(table.field, table.mult_operator(a.coords))
    dmap = LinearMap(table, left - Matrix._wrap(table.field, table.mult_operator(a.coords, "right")))
    certify(is_derivation(table, dmap), "inner map must satisfy Leibniz")
    return dmap


# ---------------------------------------------------------------------------
# invertible-values classification


@dataclass(frozen=True)
class DivReport:
    """Verdict on whether a derivation takes only invertible-or-zero values."""

    map: LinearMap
    is_derivation: bool
    kernel: Subspace
    image: Subspace
    verdict: str  # "div" | "not_div" | "unknown"
    witness: Element | None
    method: str  # "exhaustive" | "spin_norm" | "albert_recipe" | "cap_exceeded"
    note: str = ""


def _witnessed_not_div(table, dmap, kernel, image, value_coords, method, note=""):
    """Build a not_div report from a non-invertible nonzero value,
    re-verifying the witness independently of how it was found."""
    preimage = dmap.matrix.solve(list(value_coords))
    certify(preimage is not None, "claimed value is outside the image")
    witness = Element(table, preimage)
    value = dmap.apply(witness)
    certify(not value.is_zero(), "witness value must be nonzero")
    certify(invert_element(value) is None, "witness value must be non-invertible")
    return DivReport(dmap, True, kernel, image, "not_div", witness, method, note)


def _gram_restricted_to(table: AlgebraTable, image: Subspace) -> Matrix:
    """The spin-factor norm's bilinear form restricted to a subspace,
    on the subspace's echelon basis."""
    f = table.field
    gram = table.meta.gram

    def pairing(u, v):
        # B(a + u, b + v) = ab - f(u, v) polarizes alpha^2 - f(v, v)
        return f.sub(f.mul(u[0], v[0]), dot_raw(f, u[1:], gram.apply(v[1:])))

    return Matrix._wrap(f, [[pairing(u, v) for v in image.basis] for u in image.basis])


def _spin_norm_verdict(table, dmap, kernel, image, height_bound, point_cap):
    """Classify a spin-factor derivation by anisotropy of the restricted
    norm form, diagonalized to d_1..d_m: isotropic vectors are nonzero
    non-invertible values.  A zero d_i (always, when m = 1: a rank-one
    map skew for the form has an isotropic image), a form in three or
    more variables over GF(p), and the first pair i < j with -d_j/d_i a
    square (as is -d_i/d_j) each give one; without them binary forms over
    GF(p) and definite ones over Q are anisotropic, and other rational
    forms get a bounded search."""
    f = table.field
    m = image.dim
    restricted = _gram_restricted_to(table, image)
    pmat, dmat = diagonalize_symmetric_form(restricted)
    diag = [dmat.rows[t][t] for t in range(m)]
    cols = [[pmat.rows[r][t] for r in range(m)] for t in range(m)]

    def ambient_value(inner_coeffs):
        return combine_raw(f, inner_coeffs, image.basis)

    for t in range(m):
        if not diag[t]:
            value = ambient_value(cols[t])
            return _witnessed_not_div(
                table, dmap, kernel, image, value, "spin_norm",
                "restricted norm form is degenerate",
            )
    if not f.is_rational and m >= 3:
        for s in range(f.p):
            rhs = f.div(f.sub(f.neg(diag[2]), f.mul(diag[0], f.mul(s, s))), diag[1])
            if f.is_square_raw(rhs):
                coeffs = combine_raw(f, (s, f.sqrt_raw(rhs), 1), cols[:3])
                return _witnessed_not_div(
                    table, dmap, kernel, image, ambient_value(coeffs), "spin_norm"
                )
        raise CertificationError("ternary form over a prime field must be isotropic")
    for i, j in itertools.combinations(range(m), 2):
        ratio = f.neg(f.div(diag[j], diag[i]))
        if f.is_square_raw(ratio):
            coeffs = combine_raw(f, (f.sqrt_raw(ratio), 1), (cols[i], cols[j]))
            return _witnessed_not_div(
                table, dmap, kernel, image, ambient_value(coeffs), "spin_norm"
            )
    if not f.is_rational:
        return DivReport(dmap, True, kernel, image, "div", None, "spin_norm")
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return DivReport(
            dmap, True, kernel, image, "div", None, "spin_norm",
            "restricted norm form is definite",
        )
    budget = point_cap
    for height in range(1, height_bound + 1):
        for coeffs in itertools.product(range(-height, height + 1), repeat=m):
            if budget <= 0:
                break
            budget -= 1
            if not any(coeffs) or max(abs(x) for x in coeffs) != height:
                continue
            value = ambient_value(coeffs)
            if not any(value):
                continue
            if not spin_norm(table.element(value)):
                return _witnessed_not_div(
                    table, dmap, kernel, image, value, "spin_norm"
                )
        if budget <= 0:
            break
    return DivReport(
        dmap, True, kernel, image, "unknown", None, "spin_norm",
        f"no isotropic value of height <= {height_bound} found; "
        "anisotropy over the rationals left undecided",
    )


def has_invertible_values(
    table: AlgebraTable,
    dmap: LinearMap,
    *,
    point_cap: int = 10**6,
    height_bound: int = 50,
) -> DivReport:
    """Decide whether every nonzero value of a derivation is invertible.

    The value set of a linear map is its image subspace, so only that
    subspace is searched.  Strategy ladder: exhaustive projective
    enumeration when the field is finite and the image is small; the
    restricted-norm anisotropy test on spin factors; the witness recipe
    on 27-dimensional hermitian algebras; otherwise unknown.
    """
    if table.unit_coords() is None:
        raise NotUnital("the invertible-values question needs a unit")
    if not is_derivation(table, dmap):
        raise NotADerivation("map fails the Leibniz rule")
    kernel = dmap.kernel()
    image = dmap.image()
    if dmap.is_zero():
        return DivReport(
            dmap, True, kernel, image, "not_div", None, "exhaustive",
            "the zero map is excluded by convention",
        )
    f = table.field
    if not f.is_rational:
        count = (f.p ** image.dim - 1) // (f.p - 1)
        if count <= point_cap:
            # the first non-invertible point of the image, or None, depends on
            # the table and the image alone; the witness is rebuilt per map
            key = ("image_values", image.basis)
            if key not in table._cache:
                points = _projective_points(f, image)
                table._cache[key] = next((tuple(v) for v in points if invert_element(table.element(v)) is None), None)
            if table._cache[key] is not None:
                return _witnessed_not_div(table, dmap, kernel, image, table._cache[key], "exhaustive")
            return DivReport(dmap, True, kernel, image, "div", None, "exhaustive")
    if isinstance(table.meta, SpinMeta):
        return _spin_norm_verdict(table, dmap, kernel, image, height_bound, point_cap)
    if isinstance(table.meta, AlbertMeta):
        witness = albert_div_witness(table, dmap)
        certify(witness is not None, "nonzero map must produce a witness")
        certify(invert_element(dmap.apply(witness)) is None, "witness value must be non-invertible")
        return DivReport(
            dmap, True, kernel, image, "not_div", witness, "albert_recipe"
        )
    return DivReport(
        dmap, True, kernel, image, "unknown", None, "cap_exceeded",
        f"image has too many lines to enumerate (cap {point_cap})",
    )


# ---------------------------------------------------------------------------
# spin factors: the existence criterion and the construction


# Largest height of the rational vectors `spin_div_criterion` searches.
CRITERION_HEIGHT_BOUND = 50


def spin_div_criterion(gram: Matrix, *, point_cap: int = 10**6) -> tuple[tuple, tuple] | None:
    """Search for vectors x, y with f(x,x) != 0, f(y,y) != 0, f(x,y) = 0
    and -f(y,y)/f(x,x) a non-square; such a pair exists exactly when the
    spin factor of the form carries a derivation with invertible values.

    Diagonalizing vectors are tried first; if no diagonal pair works the
    search widens to all vector pairs (exhaustively over a prime field
    when the pair count fits the cap, over bounded integer vectors for
    the rationals), x-major and y-minor, on exact Gram products of
    _CLOSURE_CELLS cells.  Absence of a pair is definitive over a prime
    field within the cap and inconclusive over the rationals.
    """
    if not gram.is_symmetric():
        raise NotSymmetric("the form matrix must be symmetric")
    f = gram.field
    nv = gram.nrows
    pmat, dmat = diagonalize_symmetric_form(gram)
    diag = [dmat.rows[t][t] for t in range(nv)]
    cols = [tuple(pmat.rows[r][t] for r in range(nv)) for t in range(nv)]
    # -d_j/d_i and -d_i/d_j are squares together, so pairs i < j suffice
    for i, j in itertools.combinations(range(nv), 2):
        if diag[i] and diag[j] and not f.is_square_raw(f.neg(f.div(diag[j], diag[i]))):
            return cols[i], cols[j]
    if f.is_rational:
        height = 1
        while height < CRITERION_HEIGHT_BOUND and ((2 * (height + 1) + 1) ** nv) ** 2 <= point_cap:
            height += 1
        values = range(-height, height + 1)
    elif (f.p**nv - 1) ** 2 <= point_cap:
        values = range(f.p)
    else:
        return None
    vectors = [vec for vec in itertools.product(values, repeat=nv) if any(vec)]
    pair = _first_anisotropic_pair(f, gram.rows, vectors, max(1, _CLOSURE_CELLS // len(vectors)))
    return None if pair is None else tuple(tuple(map(f.coerce, vectors[k])) for k in pair)


def construct_spin_div(
    table: AlgebraTable,
    x,
    y,
    *,
    point_cap: int = 10**6,
) -> LinearMap:
    """The derivation sending x to y, y to -(f(y,y)/f(x,x))x, and the
    orthogonal complement of span{x, y} (plus the unit line) to zero:
    D(v) = (f(v,x) y - f(v,y) x)/f(x,x), since v = a x + b y + w with w
    orthogonal to x, y has a = f(v,x)/f(x,x) and b = f(v,y)/f(y,y)."""
    meta = table.meta
    if not isinstance(meta, SpinMeta):
        raise NotSpinFactor("construction lives on a spin factor")
    f = table.field
    gram = meta.gram
    nv = gram.nrows
    x = tuple(f.coerce(c) for c in x)
    y = tuple(f.coerce(c) for c in y)
    if len(x) != nv or len(y) != nv:
        raise BadParameters("vectors must have the form's dimension")
    gx, gy = gram.apply(x), gram.apply(y)
    fxx, fyy = dot_raw(f, x, gx), dot_raw(f, y, gy)
    if not fxx or not fyy or dot_raw(f, x, gy):
        raise CriterionNotSatisfied(
            "need f(x,x) != 0, f(y,y) != 0 and f(x,y) = 0"
        )
    if f.is_square_raw(f.neg(f.div(fyy, fxx))):
        raise CriterionNotSatisfied("-f(y,y)/f(x,x) must be a non-square")
    zero = f.zero()
    rows = [[zero] * (nv + 1)]
    for yr, xr in zip(y, x):
        rows.append([zero] + [f.div(f.sub(f.mul(yr, gxc), f.mul(xr, gyc)), fxx) for gxc, gyc in zip(gx, gy)])
    dmap = LinearMap(table, Matrix._wrap(f, rows))
    certify(is_derivation(table, dmap), "construction must satisfy Leibniz")
    if not f.is_rational:
        report = has_invertible_values(table, dmap, point_cap=point_cap)
        certify(report.verdict == "div", "constructed map must have invertible values")
    return dmap


# ---------------------------------------------------------------------------
# the 27-dimensional witness recipe


def albert_div_witness(table: AlgebraTable, dmap: LinearMap) -> Element | None:
    """A witness that a nonzero derivation of a 27-dimensional hermitian
    algebra takes a non-invertible nonzero value.

    Checks the three diagonal idempotents first: a nonzero D(e_ii) lies
    in the half-eigenspace of e_ii, where the cubic norm vanishes.  If
    the diagonal is killed, D preserves every off-diagonal component
    J_ij, whose elements all have norm zero; the first component basis
    element with nonzero image is returned.  Absence means D = 0.
    """
    meta = table.meta
    if not isinstance(meta, AlbertMeta):
        raise NotAlbertType("witness recipe lives on the 27-dimensional family")
    if not is_derivation(table, dmap):
        raise NotADerivation("map fails the Leibniz rule")
    half_spaces = []
    for i in range(3):
        pieces = [
            meta.peirce[(min(i + 1, j), max(i + 1, j))]
            for j in (1, 2, 3)
            if j != i + 1
        ]
        half_spaces.append(pieces[0].sum_with(pieces[1]))
    for i in range(3):
        e = table.element(meta.idempotents[i])
        value = dmap.apply(e)
        if value.is_zero():
            continue
        if not half_spaces[i].contains_vector(value.coords):
            raise RecipeFailure(
                "idempotent image escapes the half-eigenspace"
            )
        if albert_norm(value) != 0:
            raise RecipeFailure("idempotent image has nonzero norm")
        return e
    for key in ((1, 2), (1, 3), (2, 3)):
        component = meta.peirce[key]
        for brow in component.basis:
            a = table.element(brow)
            value = dmap.apply(a)
            if value.is_zero():
                continue
            if not component.contains_vector(value.coords):
                raise RecipeFailure(
                    "off-diagonal image escapes its component"
                )
            if albert_norm(value) != 0:
                raise RecipeFailure("off-diagonal image has nonzero norm")
            return a
    certify(dmap.is_zero(), "recipe exhausts a basis only for the zero map")
    return None


# ---------------------------------------------------------------------------
# reduction by the largest ideal inside the kernel


def largest_ideal_in_kernel(table: AlgebraTable, dmap: LinearMap) -> Subspace:
    """The largest ideal contained in ker D (the sum of all of them).

    It is the annihilator of the smallest space of functionals that holds
    the annihilator of ker D, which is the row space of D, and is closed
    under z -> z o L_b and z -> z o R_b: the spin (`linalg.spin_closure`)
    of those functionals under `_dual_products`.  It depends on ker D
    alone, so it is spun and certified an ideal once per table and
    kernel; that it lies in ker D is certified on every call.
    """
    if not is_derivation(table, dmap):
        raise NotADerivation("map fails the Leibniz rule")
    key = ("kernel_ideal", dmap.kernel().basis)
    if key not in table._cache:
        sides = _product_sides(table)
        row_space = Subspace._wrap(table.field, table.dim, dmap.matrix.rows)
        space = spin_closure(row_space, lambda z: _dual_products(table, z, sides)).annihilator()
        certify(is_ideal(table, space), "largest kernel ideal must be an ideal")
        table._cache[key] = space
    space = table._cache[key]
    certify(not any(any(dmap.matrix.apply(v)) for v in space.basis), "largest kernel ideal must lie in the kernel")
    return space


@dataclass(frozen=True)
class ReductionResult:
    """Quotient data for a derivation modulo its largest kernel ideal."""

    quotient: AlgebraTable
    induced: LinearMap
    ideal: Subspace
    projection: Matrix


def simplicity_scan(table: AlgebraTable, *, point_cap: int = 10**6) -> str:
    """'simple', 'probably_simple' or 'not_simple' by principal-ideal
    closures, each proper one certified to be an ideal: over GF(p) every
    projective point is tried (exact under the cap, `principal_closures`),
    over the rationals the basis plus 20 random vectors from seed 0.
    """
    f = table.field
    n = table.dim
    if f.is_rational:
        rng = random.Random(0)
        drawn = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(20)]
        points = _identity_raw(f, n) + [vec for vec in drawn if any(vec)]
        closures = (ideal_closure(table, Subspace(f, n, [point])) for point in points)
        verdict = "probably_simple"
    elif (f.p**n - 1) // (f.p - 1) > point_cap:
        return "probably_simple"
    else:
        closures = principal_closures(table, _projective_points(f, Subspace.full(f, n)))
        verdict = "simple"
    for closure in closures:
        if closure.dim != n:
            certify(closure.dim > 0 and is_ideal(table, closure), "a proper principal closure must be a nonzero ideal")
            return "not_simple"
    return verdict


def div_reduction(
    table: AlgebraTable,
    dmap: LinearMap,
    *,
    point_cap: int = 10**6,
) -> ReductionResult:
    """Quotient out the largest ideal inside ker D and push D down.

    The induced map is checked to be a derivation; when D has invertible
    values the quotient is additionally checked to keep them (where
    decidable) and scanned for proper principal ideals.
    """
    if table.unit_coords() is None:
        raise NotUnital("reduction is for unital algebras")
    report = has_invertible_values(table, dmap, point_cap=point_cap)
    ideal = largest_ideal_in_kernel(table, dmap)
    if ("quotient", ideal.basis) not in table._cache:
        table._cache["quotient", ideal.basis] = quotient_algebra(table, ideal)
    quotient, projection = table._cache["quotient", ideal.basis]
    pivots = set(ideal.pivots)
    # the quotient basis sits at the non-pivot columns of the ideal
    cols = [projection.apply(col) for m, col in enumerate(zip(*dmap.matrix.rows)) if m not in pivots]
    induced = LinearMap(quotient, Matrix._wrap(table.field, zip(*cols)))
    certify(is_derivation(quotient, induced), "induced map must satisfy Leibniz")
    if report.verdict == "div":
        reduced_report = has_invertible_values(quotient, induced, point_cap=point_cap)
        certify(reduced_report.verdict != "not_div", "reduction may not destroy invertible values")
        # one quotient per (table, ideal) and a deterministic scan: one scan
        # per quotient and cap serves every hit
        if ("simplicity_scan", point_cap) not in quotient._cache:
            quotient._cache["simplicity_scan", point_cap] = simplicity_scan(quotient, point_cap=point_cap)
        certify(
            quotient._cache["simplicity_scan", point_cap] != "not_simple",
            "quotient by the largest kernel ideal must have no proper principal ideal",
        )
    return ReductionResult(quotient, induced, ideal, projection)


# ---------------------------------------------------------------------------
# exhaustive searches and split-null extensions


def _class_may_pass(
    table: AlgebraTable, kind: str, image: Subspace, point_cap: int, budget: int
) -> tuple[bool, int]:
    """Lean test of one projective class of derivations, given its image,
    plus the number of image points it enumerated.

    False as soon as a point of the image is not invertible; True when
    every point is, or when the image has more than `point_cap` points
    (the verdict is then left to `has_invertible_values`).  The Leibniz
    rule needs no re-check, since the basis is certified and every
    combination inherits it, and no kernel or witness is built.  Needing
    more than `budget` points is refused.  An image found invertible at
    every point is kept as the exhaustive rung's verdict; `kind` must be
    `_inversion_kind(table)`, the equations `invert_element` solves.

    The points enumerated depend on the table and the image alone (up to
    the first non-invertible one), so each image is enumerated once per
    table and a repeat is charged that count again, raising where the
    enumeration would have raised.
    """
    f = table.field
    if (f.p**image.dim - 1) // (f.p - 1) > point_cap:
        return True, 0
    key = ("class_values", image.basis)
    if key not in table._cache:
        used, passes = 0, True
        for value in _projective_points(f, image, trailing_first=True):
            used += 1
            if used > budget:
                raise CapExceeded(f"image points enumerated by the search exceed the cap {point_cap}")
            if _invert_coords(table, value, kind) is None:
                passes = False
                break
        table._cache[key] = passes, used
        if passes:
            table._cache["image_values", image.basis] = None
    passes, used = table._cache[key]
    if used > budget:
        raise CapExceeded(f"image points enumerated by the search exceed the cap {point_cap}")
    return passes, used


def div_search(
    table: AlgebraTable,
    *,
    tuple_cap: int = 10**6,
    point_cap: int = 10**6,
) -> list[DivReport]:
    """Classify every derivation of a finite-field table and return the
    reports of all nonzero ones with invertible values, in the
    lexicographic order of their coordinates on the derivation basis.

    lambda*D has the image of D, so one lean verdict serves each
    projective class; the images of _CLOSURE_CELLS cells of classes come
    from one product and one batched reduction.  Only members of classes
    that pass are visited, each with the full `has_invertible_values`
    report, merged with the class keys in tuple order.  `point_cap`
    bounds the points of one image and of the whole search; a report left
    "unknown" raises CapExceeded.
    """
    f = table.field
    if f.is_rational:
        raise NotFinite("exhaustive search needs a finite field")
    space = derivation_space(table)
    total = f.p**space.dim
    if total > tuple_cap:
        raise CapExceeded(
            f"{total} derivation candidates exceed the cap {tuple_cap}"
        )
    if space.dim and table.unit_coords() is None:
        raise NotUnital("the invertible-values question needs a unit")
    p = f.p
    kind = _inversion_kind(table)
    budget = point_cap
    # the keys (lead 1) come in lexicographic order, and each is where a
    # lexicographic walk of all p^d tuples first meets its class
    keys, walk = itertools.tee(_projective_points(f, Subspace.full(f, space.dim), trailing_first=True))
    maps = space._int_basis[0].reshape(space.dim, table.dim, table.dim)
    images = _column_spaces(f, keys, maps, max(1, _CLOSURE_CELLS // table.dim**2))
    hits = []
    members: list[tuple] = []  # heap of the members c*key, c = 2..p-1, of classes that passed

    def visit(tup):
        report = has_invertible_values(table, space.combination(tup), point_cap=point_cap)
        if report.verdict == "unknown":
            raise CapExceeded(f"a derivation's values are left undecided at the point cap {point_cap}")
        if report.verdict == "div":
            hits.append(report)

    for key in map(tuple, walk):
        while members and members[0] < key:
            visit(heapq.heappop(members))
        passes, used = _class_may_pass(table, kind, next(images), point_cap, budget)
        budget -= used
        if passes:
            visit(key)
            for c in range(2, p):
                heapq.heappush(members, tuple(c * x % p for x in key))
    for tup in sorted(members):
        visit(tup)
    return hits


def sample_derivation(space: DerivationSpace, rng: random.Random) -> LinearMap:
    """A random combination of the basis: uniform residues over GF(p),
    integers in [-3, 3] over the rationals; resampled until nonzero."""
    if space.dim == 0:
        raise BadParameters("no nonzero derivations exist")
    f = space.algebra.field
    while True:
        if f.is_rational:
            coeffs = [rng.randint(-3, 3) for _ in range(space.dim)]
        else:
            coeffs = [rng.randrange(f.p) for _ in range(space.dim)]
        if any(coeffs):
            return space.combination(coeffs)


def _extension_map(ext: AlgebraTable, base_map: LinearMap, blocks, shift) -> LinearMap:
    """The certified derivation of a split-null extension A + A*eps whose
    matrix holds the base map's in each (row, column) block of `blocks`
    (0: A, 1: A*eps), plus `shift` (None: the stored one) on the eps block."""
    meta = ext.meta
    if not isinstance(meta, SplitNullMeta):
        raise BadParameters("table does not carry split-null metadata")
    f = ext.field
    n = meta.base_dim
    if base_map.algebra.field != f:
        raise FieldMismatch("base map field differs from the extension field")
    if base_map.algebra.dim != n:
        raise BadParameters("base map dimension differs from the base algebra")
    lam = meta.shift if shift is None else f.coerce(shift)
    rows = [[f.zero()] * (2 * n) for _ in range(2 * n)]
    for rb, cb in blocks:
        for r, base_row in enumerate(base_map.matrix.rows):
            rows[rb * n + r][cb * n : (cb + 1) * n] = base_row
    if lam:
        for c in range(n, 2 * n):
            rows[c][c] = f.add(rows[c][c], lam)
    dmap = LinearMap(ext, Matrix._wrap(f, rows))
    certify(is_derivation(ext, dmap), "extended map must satisfy Leibniz")
    return dmap


def extend_derivation_diagonal(ext: AlgebraTable, base_map: LinearMap, shift=None) -> LinearMap:
    """The derivation a + b*eps -> d(a) + (d(b) + shift*b)*eps of a
    split-null extension; the shift defaults to the one stored when the
    extension was built."""
    return _extension_map(ext, base_map, ((0, 0), (1, 1)), shift)


def extend_derivation_eps(ext: AlgebraTable, base_map: LinearMap) -> LinearMap:
    """The derivation a + b*eps -> d(a)*eps of a split-null extension;
    its kernel swallows the whole radical, so the largest kernel ideal
    is the radical and the quotient returns the base algebra."""
    return _extension_map(ext, base_map, ((1, 0),), 0)


def enumerate_ideals(
    table: AlgebraTable,
    *,
    point_cap: int = 10**6,
) -> list[Subspace]:
    """Every ideal of a finite-field table, by brute force.

    Each ideal is the sum of the principal closures of its points.  The
    found set holds every sum of the closures met so far, so one pass that
    adds each new closure to every ideal found so far finds all of them.
    Sorted by dimension, then by basis entries.
    """
    f = table.field
    if f.is_rational:
        raise NotFinite("ideal enumeration needs a finite field")
    n = table.dim
    count = (f.p**n - 1) // (f.p - 1)
    if count > point_cap:
        raise CapExceeded(f"{count} projective points exceed the cap {point_cap}")
    zero_space = Subspace.zero(f, n)
    found = {zero_space.basis: zero_space}
    for closure in principal_closures(table, _projective_points(f, Subspace.full(f, n))):
        if closure.basis not in found:
            for ideal in list(found.values()):
                total = ideal.sum_with(closure)
                found.setdefault(total.basis, total)
    out = sorted(found.values(), key=lambda s: (s.dim, tuple(s.basis)))
    for space in out:
        certify(is_ideal(table, space), "enumerated subspace must be an ideal")
    return out
