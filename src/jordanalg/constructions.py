"""Factories for the algebra families the package studies.

Covers the symmetrized product on an associative algebra, hermitian
subalgebras under an involution, spin factors of symmetric bilinear
forms, Cayley-Dickson doublings with their conjugation, matrix algebras
with coefficients in a (possibly nonassociative) unital algebra, the
diagonal gamma involution on 3x3 coefficient matrices, and the
27-dimensional hermitian algebras assembled from all of the above.

Each factory attaches the metadata later stages need: the spin gram
matrix, the Cayley-Dickson doubling scalars and conjugation, and for
the 27-dimensional family the embedding, diagonal idempotents and
Peirce component layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import AlgebraTable, Element, LinearMap, _all_zero
from .errors import (
    BadParameters,
    NotAnInvolution,
    NotClosed,
    NotScalar,
    NotSymmetric,
    NotUnital,
    certify,
)
from .fields import Field, RawScalar, Scalar
from .linalg import Matrix, Subspace, _identity_raw


@dataclass(frozen=True)
class SpinMeta:
    gram: Matrix


@dataclass(frozen=True)
class CDMeta:
    mus: tuple
    conj: Matrix


@dataclass(frozen=True)
class AlbertMeta:
    gammas: tuple
    mus: tuple
    coeff: AlgebraTable
    coeff_conj: Matrix
    embedding: Matrix
    idempotents: tuple
    peirce: dict


def plus_algebra(table: AlgebraTable) -> AlgebraTable:
    """Same space with the symmetrized product x o y = (xy + yx) / 2."""
    half = table.field.half()
    acc: dict[tuple[int, int, int], RawScalar] = {}
    for i, j, k, v in table.sc_items():
        for key in ((i, j, k), (j, i, k)):
            acc[key] = acc.get(key, 0) + v
    entries = {key: half * v for key, v in acc.items()}
    return AlgebraTable(table.field, table.dim, entries, labels=table.labels, unit=table.unit_coords())


def involution_check(table: AlgebraTable, sigma: LinearMap) -> bool:
    """sigma^2 = id and sigma(xy) = sigma(y) sigma(x) on all basis pairs.

    One pass over the sparse columns of sigma (column j is sigma(b_j))
    sums sigma^2 - id; then, one left index i at a time, one pass over
    the structure rows that reach i sums sigma(b_i b_j) - sigma(b_j)
    sigma(b_i) for every j, keyed by j n + k: a work area of n^2 keys.
    Sums are plain ints or Fractions, reduced mod p once per key.
    """
    if sigma.algebra is not table and sigma.algebra != table:
        return False
    n = table.dim
    p = table.field.p
    # support[a] holds (j n, sigma[a][j]) and cols[j] holds (a, sigma[a][j])
    support = [[(j * n, v) for j, v in enumerate(row) if v] for row in sigma.matrix.rows]
    cols = [[(a, v) for a, v in enumerate(col) if v] for col in zip(*sigma.matrix.rows)]
    square = {(j, j): -1 for j in range(n)}
    for j, terms in enumerate(cols):
        for m, s in terms:
            for r, t in cols[m]:
                square[r, j] = square.get((r, j), 0) + t * s
    if not _all_zero(p, square.values()):
        return False
    by_left, by_right = [[] for _ in range(n)], [[] for _ in range(n)]
    for (a, b), pairs in table._rows.items():
        by_left[a].append((b * n, pairs))
        by_right[b].append((a, pairs))
    for i in range(n):
        acc = {}
        for jn, pairs in by_left[i]:
            for m, c in pairs:
                for k, s in cols[m]:
                    acc[jn + k] = acc.get(jn + k, 0) + c * s
        # sigma(b_j) sigma(b_i) sums sigma[a][j] sigma[b][i] b_a b_b over the rows (a, b)
        for b, t in cols[i]:
            for a, pairs in by_right[b]:
                for jn, s in support[a]:
                    for k, c in pairs:
                        acc[jn + k] = acc.get(jn + k, 0) - s * t * c
        if not _all_zero(p, acc.values()):
            return False
    return True


def hermitian_subalgebra(table: AlgebraTable, sigma: LinearMap) -> tuple[AlgebraTable, Matrix]:
    """Fixed space of an involution with the table's product restricted.

    The input table must already carry the intended (symmetrized)
    product; closure of the fixed space is re-verified element by
    element rather than assumed.  Returns the subalgebra table and the
    embedding matrix whose columns are the fixed basis vectors.
    """
    if not involution_check(table, sigma):
        raise NotAnInvolution("map is not an involution of the table")
    fixed, entries, unit = _fixed_structure(table, sigma)
    return AlgebraTable._wrap(table.field, fixed.dim, entries, unit=unit), Matrix._wrap(table.field, zip(*fixed.basis))


def _monomial_fixed_space(sigma: Matrix) -> Subspace | None:
    """The fixed space of a sigma with sigma^2 = id that sends each b_i to
    some c b_j, read off sigma in reduced echelon form: b_i + c b_j when
    i < j, b_i when c b_j = b_i.  The -1 vectors (b_i - c b_j, and b_i when
    c b_j = -b_i) must make up the rest of n, which certifies the basis
    complete; None when sigma is not monomial or they do not."""
    f, n = sigma.field, sigma.ncols
    cols = [[(j, c) for j, c in enumerate(col) if c] for col in zip(*sigma.rows)]
    if any(len(col) != 1 for col in cols):
        return None
    basis, negated = [], 0
    for i, [(j, c)] in enumerate(cols):
        if i < j or i == j and c == 1:
            basis.append([f.zero()] * n)
            basis[-1][j], basis[-1][i] = c, f.one()
        negated += i < j or i == j and c == f.neg(f.one())
    return Subspace._wrap(f, n, basis, canonical=True) if len(basis) + negated == n else None


def _fixed_structure(table: AlgebraTable, sigma: LinearMap, scale=None) -> tuple[Subspace, dict, tuple | None]:
    """The fixed space of a verified sigma, the structure constants on its
    canonical basis, and the coordinates of the table's unit (None
    without one), for the table's product or, with `scale`, the
    commutative x o y = scale (xy + yx), formed for a <= b and mirrored.

    One pass over the nonzero structure rows sums every product of basis
    vectors by (a, b, coordinate).  The basis is in reduced echelon form,
    so a product's entries at the pivots are its coordinates; that
    combination is subtracted, and a nonzero remainder (one reduction
    mod p per key) raises NotClosed.
    """
    f = table.field
    fixed = _monomial_fixed_space(sigma.matrix) or (sigma.matrix - Matrix.identity(f, table.dim)).nullspace()
    if fixed.dim == 0:
        raise NotClosed("fixed space of the involution is zero")
    basis = [[(r, v) for r, v in enumerate(vec) if v] for vec in fixed.basis]
    slot = {pivot: k for k, pivot in enumerate(fixed.pivots)}
    # at[r] holds (a, x_a[r]) for the basis vectors x_a nonzero at r
    at = [[(a, v) for a, v in enumerate(row) if v] for row in zip(*fixed.basis)]
    prod = {}
    for (i, j), pairs in table._rows.items():
        for a, u in at[i]:
            for b, w in at[j]:
                lo, hi, uw = a, b, u * w
                if scale is not None and a >= b:
                    # x_b o x_a sums the terms of x_a x_b and x_b x_a; x_a o x_a those of x_a x_a twice
                    lo, hi, uw = b, a, (uw + uw if a == b else uw)
                for k, c in pairs:
                    prod[lo, hi, k] = prod.get((lo, hi, k), 0) + uw * c
    entries = {}
    for (a, b, r), v in [(key, v) for key, v in prod.items() if key[2] in slot]:
        m = slot[r]
        entries[a, b, m] = f.mul(v, 1 if scale is None else scale)
        if scale is not None:
            entries[b, a, m] = entries[a, b, m]
        for r2, w in basis[m]:
            prod[a, b, r2] = prod.get((a, b, r2), 0) - v * w  # x_m is 0 at the other pivots
    if not _all_zero(f.p, prod.values()):
        raise NotClosed("fixed space is not closed under the product")
    ambient_unit = table.unit_coords()
    unit = None if ambient_unit is None else fixed.coords_of(ambient_unit)
    return fixed, entries, unit


def spin_factor(gram: Matrix) -> AlgebraTable:
    """The Jordan algebra of a symmetric bilinear form on F + V.

    Basis (1, v_1 .. v_n); the product is
    (alpha + v)(beta + u) = alpha beta + f(v, u) + alpha u + beta v.
    """
    if not gram.is_symmetric():
        raise NotSymmetric("spin factor needs a symmetric form")
    nv = gram.nrows
    if nv < 1:
        raise BadParameters("form must act on a space of dimension >= 1")
    f = gram.field
    dim = nv + 1
    entries: dict[tuple[int, int, int], RawScalar] = {}
    entries[(0, 0, 0)] = f.one()
    for j in range(1, dim):
        entries[(0, j, j)] = f.one()
        entries[(j, 0, j)] = f.one()
    for i in range(nv):
        for j in range(nv):
            v = gram.rows[i][j]
            if v:
                entries[(i + 1, j + 1, 0)] = v
    labels = ("one",) + tuple(f"v{i}" for i in range(1, dim))
    unit = [f.one()] + [f.zero()] * nv
    return AlgebraTable(f, dim, entries, labels=labels, unit=unit, meta=SpinMeta(gram))


def diagonal_spin_factor(field: Field, diag: Sequence) -> AlgebraTable:
    """Spin factor of the diagonal form with the given entries."""
    entries = [field.coerce(x) for x in diag]
    n = len(entries)
    zero = field.zero()
    rows = [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
    return spin_factor(Matrix(field, rows))


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling


def _double(table: AlgebraTable, conj: Matrix, mu: RawScalar) -> tuple[AlgebraTable, Matrix]:
    """One Cayley-Dickson doubling, (a, b)(c, d) = (ac + mu conj(d) b, da + b conj(c)),
    of a table whose conjugation is diagonal: conj(x_j) = s_j x_j with
    s_j = +-1.  The doubled conjugation diag(conj, -I) is diagonal again,
    so each constant c[i][j][k] = v of the table gives four of the double."""
    f = table.field
    d = table.dim
    zero = f.zero()
    signs = [conj.rows[j][j] for j in range(d)]
    entries = {}
    for (i, j), pairs in table._rows.items():
        for k, v in pairs:
            # (x_i, 0)(x_j, 0) = (x_i x_j, 0) and (x_j, 0)(0, x_i) = (0, x_i x_j)
            entries[(i, j, k)] = v
            entries[(j, i + d, k + d)] = v
            # (0, x_i)(x_j, 0) = (0, x_i conj(x_j)) and (0, x_j)(0, x_i) = (mu conj(x_i) x_j, 0)
            entries[(i + d, j, k + d)] = f.mul(signs[j], v)
            entries[(j + d, i + d, k)] = f.mul(mu, f.mul(signs[i], v))
    labels = tuple(f"e{t}" for t in range(2 * d))
    unit = [f.one()] + [zero] * (2 * d - 1)
    doubled = AlgebraTable._wrap(f, 2 * d, entries, labels=labels, unit=unit)
    diag = signs + [f.neg(f.one())] * d
    return doubled, Matrix._wrap(f, [[diag[r] if r == c else zero for c in range(2 * d)] for r in range(2 * d)])


def cayley_dickson(field: Field, mus: Sequence) -> tuple[AlgebraTable, LinearMap]:
    """Iterated doubling of the base field by the given nonzero scalars.

    One scalar gives the dimension-2 algebra, two give dimension 4,
    three give dimension 8.  Returns the algebra and its conjugation;
    the doubling scalars and the conjugation matrix ride along as
    metadata.
    """
    raw_mus = tuple(field.coerce(m) for m in mus)
    if not 1 <= len(raw_mus) <= 3:
        raise BadParameters("between one and three doubling scalars")
    if any(not m for m in raw_mus):
        raise BadParameters("doubling scalars must be nonzero")
    table = AlgebraTable(field, 1, {(0, 0, 0): field.one()}, labels=("e0",), unit=[field.one()])
    conj = Matrix.identity(field, 1)
    for mu in raw_mus:
        table, conj = _double(table, conj, mu)
    table.meta = CDMeta(mus=raw_mus, conj=conj)
    return table, LinearMap(table, conj)


def _cd_meta(table: AlgebraTable) -> CDMeta:
    if not isinstance(table.meta, CDMeta):
        raise BadParameters("element does not belong to a Cayley-Dickson algebra")
    return table.meta


def cd_conjugate(x: Element) -> Element:
    meta = _cd_meta(x.algebra)
    return Element(x.algebra, meta.conj.apply(x.coords))


def _scalar_part(x: Element, context: str) -> Scalar:
    if any(x.coords[1:]):
        raise NotScalar(f"{context} is not a scalar multiple of the unit")
    return Scalar(x.algebra.field, x.coords[0])


def cd_trace(x: Element) -> Scalar:
    """t(x) = x + conj(x), read off as a scalar."""
    return _scalar_part(x + cd_conjugate(x), "trace")


def cd_norm(x: Element) -> Scalar:
    """n(x) = x * conj(x), read off as a scalar."""
    return _scalar_part(x * cd_conjugate(x), "norm")


# ---------------------------------------------------------------------------
# matrix algebras over a coefficient algebra


def matrix_algebra(coeff: AlgebraTable, n: int) -> AlgebraTable:
    """n x n matrices with entries in a unital coefficient algebra.

    Basis vectors are a E_{ij} ordered by (i, j, a), labelled e{i}{j}
    (e{i}.{j} from n = 10 on) with _{label of a} appended when coeff has
    more than one dimension; the product is the usual matrix product with
    coefficient products taken in `coeff`, which may be nonassociative.
    """
    if coeff.unit_coords() is None:
        raise NotUnital("coefficient algebra must be unital")
    if n < 1:
        raise BadParameters("matrix size must be positive")
    f = coeff.field
    d = coeff.dim
    dim = n * n * d
    # a E_ij is basis vector (i n + j) d + a
    entries = {}
    for a, b, k, v in coeff.sc_items():
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    entries[(i * n + j) * d + a, (j * n + l) * d + b, (i * n + l) * d + k] = v
    # from n = 10 on, e1 11 and e11 1 would both read e111
    sep = "." if n >= 10 else ""
    if coeff.dim == 1:
        labels = tuple(f"e{i + 1}{sep}{j + 1}" for i in range(n) for j in range(n))
    else:
        labels = tuple(
            f"e{i + 1}{sep}{j + 1}_{coeff.label_of(a)}"
            for i in range(n)
            for j in range(n)
            for a in range(d)
        )
    unit_coeff = coeff.unit_coords()
    unit = [f.zero()] * dim
    for i in range(n):
        for a, v in enumerate(unit_coeff):
            unit[(i * n + i) * d + a] = v
    return AlgebraTable._wrap(f, dim, entries, labels=labels, unit=unit)


def gamma_involution(c3: AlgebraTable, gammas: Sequence, conj: Matrix) -> LinearMap:
    """The involution X -> gamma^{-1} conj(X)^T gamma on 3x3 coefficient
    matrices, for gamma = diag(gamma_1, gamma_2, gamma_3).

    Sends a E_{ij} to (gamma_j^{-1} gamma_i) conj(a) E_{ji}; verified to
    be an involution of the table before it is returned.
    """
    f = c3.field
    raw = tuple(f.coerce(g) for g in gammas)
    if len(raw) != 3:
        raise BadParameters("need exactly three gamma scalars")
    if any(not g for g in raw):
        raise BadParameters("gamma scalars must be nonzero")
    d = conj.nrows
    if c3.dim != 9 * d:
        raise BadParameters("table is not 3x3 over the given coefficients")
    zero = f.zero()
    rows = [[zero] * c3.dim for _ in range(c3.dim)]
    for i in range(3):
        for j in range(3):
            factor = f.mul(f.inv(raw[j]), raw[i])
            for a in range(d):
                src = (i * 3 + j) * d + a
                for k in range(d):
                    c = conj.rows[k][a]
                    if c:
                        dst = (j * 3 + i) * d + k
                        rows[dst][src] = f.mul(factor, c)
    sigma = LinearMap(c3, Matrix._wrap(f, rows))
    if not involution_check(c3, sigma):
        raise NotAnInvolution("gamma map failed the involution laws")
    return sigma


# ---------------------------------------------------------------------------
# the 27-dimensional hermitian family


def albert_type(field: Field, mus: Sequence, gammas: Sequence) -> AlgebraTable:
    """H(C_3, gamma involution): the 27-dimensional Jordan algebra of
    hermitian 3x3 matrices over the stage-3 Cayley-Dickson algebra.

    Metadata records the doubling and gamma parameters, the coefficient
    algebra and its conjugation, the embedding into the 72-dimensional
    matrix space, the three diagonal idempotents, and the Peirce
    component of every basis vector.
    """
    mus = tuple(mus)
    if len(mus) != 3:
        raise BadParameters("need three doubling scalars")
    coeff, conj_map = cayley_dickson(field, mus)
    c3 = matrix_algebra(coeff, 3)
    sigma = gamma_involution(c3, gammas, conj_map.matrix)
    # x o y = (xy + yx) / 2 from c3's rows: sigma, an anti-automorphism
    # of c3, preserves it, and c3's unit is its unit
    fixed, entries, unit = _fixed_structure(c3, sigma, field.half())
    if fixed.dim != 27:
        raise NotClosed(f"hermitian fixed space has dimension {fixed.dim}, expected 27")

    # fixed basis vector m leads with its pivot slot a E_ij of c3
    d = coeff.dim
    labels = []
    blocks: dict[tuple[int, int], list[int]] = {}
    for m, pivot in enumerate(fixed.pivots):
        ij, a = divmod(pivot, d)
        i, j = divmod(ij, 3)
        key = (min(i, j) + 1, max(i, j) + 1)
        blocks.setdefault(key, []).append(m)
        labels.append(f"e{i + 1}{i + 1}" if i == j else f"u{key[0]}{key[1]}_{a}")

    identity = _identity_raw(field, 27)
    peirce = {}
    for key, members in sorted(blocks.items()):
        peirce[key] = Subspace._wrap(field, 27, [identity[m] for m in members], canonical=True)

    idempotents = []
    for i in range(3):
        coords = fixed.coords_of(c3.basis_element((i * 3 + i) * d).coords)
        certify(coords is not None, "diagonal idempotent escaped the fixed space")
        idempotents.append(tuple(coords))

    meta = AlbertMeta(
        gammas=tuple(field.coerce(g) for g in gammas),
        mus=tuple(field.coerce(m) for m in mus),
        coeff=coeff,
        coeff_conj=conj_map.matrix,
        embedding=Matrix._wrap(field, zip(*fixed.basis)),
        idempotents=tuple(idempotents),
        peirce=peirce,
    )
    return AlgebraTable._wrap(field, 27, entries, labels=tuple(labels), unit=unit, meta=meta)
