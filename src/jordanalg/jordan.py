"""Element-level tools for Jordan tables.

Inversion in the two-equation sense (xy = 1 and x^2 y = x), powers,
idempotents, Peirce eigenspace decompositions for single idempotents
and for the diagonal frame of a 27-dimensional hermitian algebra, and
the closed-form norms that decide invertibility on spin factors and on
the 27-dimensional family.
"""

from __future__ import annotations

from .algebra import AlgebraTable, Element, _invert_coords
from .constructions import AlbertMeta, SpinMeta, cd_norm, cd_trace
from .errors import (
    BadParameters,
    IncompletePeirce,
    NotAlbertType,
    NotIdempotent,
    NotSpinFactor,
    certify,
)
from .fields import Scalar
from .linalg import Matrix, Subspace, dot_raw


def jordan_inverse(x: Element) -> Element | None:
    """The unique y with xy = 1 and x^2 y = x, or None.

    Both defining equations are solved as one stacked linear system and
    the solution is re-checked against them before it is returned.
    """
    coords = _invert_coords(x.algebra, x.coords, "jordan")
    return None if coords is None else Element(x.algebra, coords)


def power(x: Element, k: int) -> Element:
    """x^k for k >= 0, with x^0 the unit and x^k = x^(k-1) x."""
    if k < 0:
        raise BadParameters("negative powers are not defined here")
    if k == 0:
        return x.algebra.one()
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def is_idempotent(x: Element) -> bool:
    return x * x == x


def left_multiplication(x: Element) -> Matrix:
    """The matrix of y -> xy on the algebra's basis."""
    return Matrix._wrap(x.algebra.field, x.algebra.mult_operator(x.coords))


def peirce_single(e: Element) -> tuple[Subspace, Subspace, Subspace]:
    """Eigenspaces of multiplication by an idempotent, for 1, 1/2, 0.

    The three parts must fill the whole space; anything left over means
    the table was not a Jordan algebra to begin with.
    """
    if not is_idempotent(e):
        raise NotIdempotent("peirce decomposition needs an idempotent")
    table = e.algebra
    f = table.field
    le = left_multiplication(e)
    ident = Matrix.identity(f, table.dim)
    parts = []
    for lam in (f.one(), f.half(), f.zero()):
        shifted = le - ident.scale(lam)
        parts.append(shifted.nullspace())
    if sum(p.dim for p in parts) != table.dim:
        raise IncompletePeirce(
            "eigenspaces for 1, 1/2, 0 do not exhaust the space"
        )
    return tuple(parts)


def _albert_meta(table: AlgebraTable) -> AlbertMeta:
    if not isinstance(table.meta, AlbertMeta):
        raise NotAlbertType("operation needs the 27-dimensional hermitian metadata")
    return table.meta


def peirce_frame(table: AlgebraTable) -> dict:
    """Joint Peirce components of the three diagonal idempotents.

    Returns the six subspaces keyed like the construction metadata:
    (i,i) is the 1-eigenspace of e_ii, and (i,j) for i < j is the
    intersection of the two 1/2-eigenspaces.
    """
    meta = _albert_meta(table)
    singles = [peirce_single(table.element(c)) for c in meta.idempotents]
    out = {}
    for i in range(3):
        out[(i + 1, i + 1)] = singles[i][0]
        for j in range(i + 1, 3):
            out[(i + 1, j + 1)] = singles[i][1].intersect(singles[j][1])
    covered = sum(space.dim for space in out.values())
    if covered != table.dim:
        raise IncompletePeirce("frame components do not exhaust the space")
    return out


def spin_norm(x: Element) -> Scalar:
    """alpha^2 - f(v, v) for an element alpha + v of a spin factor."""
    table = x.algebra
    if not isinstance(table.meta, SpinMeta):
        raise NotSpinFactor("element does not carry a spin form")
    f = table.field
    alpha, v = x.coords[0], x.coords[1:]
    return Scalar(f, f.sub(f.mul(alpha, alpha), dot_raw(f, v, table.meta.gram.apply(v))))


def albert_slots(x: Element):
    """Split an element into diagonal scalars and the three coefficient
    entries sitting above the diagonal: a at (2,3), b at (3,1), c at (1,2).
    """
    meta = _albert_meta(x.algebra)
    f = x.algebra.field
    coeff = meta.coeff
    d = coeff.dim
    big = meta.embedding.apply(x.coords)

    def block(i: int, j: int) -> list:
        start = (i * 3 + j) * d
        return list(big[start:start + d])

    diag = []
    for i in range(3):
        entry = block(i, i)
        certify(not any(entry[1:]), "diagonal entry is not scalar")
        diag.append(entry[0])
    a = Element(coeff, block(1, 2))
    b = Element(coeff, block(2, 0))
    c = Element(coeff, block(0, 1))
    return tuple(diag), a, b, c


def albert_norm(x: Element) -> Scalar:
    """The cubic form whose nonvanishing detects invertibility.

    N = a1 a2 a3 - a1 (g3^-1 g2) n(a) - a2 (g1^-1 g3) n(b)
        - a3 (g2^-1 g1) n(c) + t((ca)b)
    with diagonal scalars a_i, off-diagonal coefficient entries a, b, c,
    and n, t the norm and trace of the coefficient algebra.
    """
    meta = _albert_meta(x.algebra)
    f = x.algebra.field
    (a1, a2, a3), a, b, c = albert_slots(x)
    g1, g2, g3 = meta.gammas
    na = cd_norm(a).value
    nb = cd_norm(b).value
    nc = cd_norm(c).value
    tr = cd_trace((c * a) * b).value
    weighted = [f.mul(f.div(gj, gi), nx) for gj, gi, nx in ((g2, g3, na), (g3, g1, nb), (g1, g2, nc))]
    cross = dot_raw(f, (a1, a2, a3), weighted)
    return Scalar(f, f.add(f.sub(f.mul(f.mul(a1, a2), a3), cross), tr))
