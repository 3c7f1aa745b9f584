"""Line-oriented text formats for algebra tables and linear maps.

An algebra file lists the field, the dimension, optional basis labels,
an optional unit vector, optional construction metadata, and the
nonzero structure constants one per line.  Writers emit a canonical
form (constants sorted by indices) so that build, write, read, write
round-trips are byte-identical.  A `meta` line names the construction
and its parameters; readers replay the construction and refuse files
whose table does not match, which lets construction-specific data
(norms, Peirce components) survive the trip through text.

Maps are stored as `map <dim>` plus sparse `<row> <col> <scalar>`
entries, ordered by column then row.  All indices are 1-based.
"""

from __future__ import annotations

from .algebra import (
    AlgebraTable,
    Element,
    LinearMap,
    SplitNullMeta,
    _refuse_over_cap,
    split_null_extension,
)
from .constructions import (
    AlbertMeta,
    CDMeta,
    SpinMeta,
    albert_type,
    cayley_dickson,
    spin_factor,
)
from .errors import NotUnital, ParseError
from .fields import Field, parse_field
from .linalg import Matrix


def _format_field(field: Field) -> str:
    if field.is_rational:
        return "field Q"
    return f"field GF {field.p}"


def _meta_line(table: AlgebraTable) -> str | None:
    f = table.field
    meta = table.meta
    if isinstance(meta, SpinMeta):
        cells = " ".join(
            f.format_raw(v) for row in meta.gram.rows for v in row
        )
        return f"meta spin {meta.gram.nrows} {cells}"
    if isinstance(meta, CDMeta):
        return "meta cd " + " ".join(f.format_raw(m) for m in meta.mus)
    if isinstance(meta, AlbertMeta):
        parts = [f.format_raw(m) for m in meta.mus]
        parts += [f.format_raw(g) for g in meta.gammas]
        return "meta albert " + " ".join(parts)
    if isinstance(meta, SplitNullMeta):
        return f"meta splitnull {meta.base_dim} {f.format_raw(meta.shift)}"
    return None


def write_algebra(table: AlgebraTable) -> str:
    f = table.field
    lines = [_format_field(f), f"dim {table.dim}"]
    if table.labels is not None:
        lines.append("basis " + " ".join(table.labels))
    if table.unit is not None:
        lines.append("unit " + " ".join(f.format_raw(v) for v in table.unit))
    meta = _meta_line(table)
    if meta is not None:
        lines.append(meta)
    for i, j, k, v in table.sc_items():
        lines.append(f"sc {i + 1} {j + 1} {k + 1} {f.format_raw(v)}")
    return "\n".join(lines) + "\n"


def _rebuild_from_meta(field, kind: str, args: list[str], parsed: AlgebraTable):
    if kind == "spin":
        if not args:
            raise ParseError("meta spin needs a dimension")
        nv = _parse_index(args[0], "form dimension")
        cells = args[1:]
        if len(cells) != nv * nv:
            raise ParseError("meta spin needs dim^2 form entries")
        rows = [
            [field.parse_raw(cells[r * nv + c]) for c in range(nv)]
            for r in range(nv)
        ]
        return spin_factor(Matrix(field, rows))
    if kind == "cd":
        if not 1 <= len(args) <= 3:
            raise ParseError("meta cd needs one to three parameters")
        table, _ = cayley_dickson(field, [field.parse_raw(a) for a in args])
        return table
    if kind == "albert":
        if len(args) != 6:
            raise ParseError("meta albert needs three mus and three gammas")
        values = [field.parse_raw(a) for a in args]
        return albert_type(field, values[:3], values[3:])
    if kind == "splitnull":
        if len(args) != 2:
            raise ParseError("meta splitnull needs a base dimension and a shift")
        base_dim = _parse_index(args[0], "base dimension")
        if 2 * base_dim != parsed.dim:
            raise ParseError("split-null base dimension must be half the dimension")
        shift = field.parse_raw(args[1])
        base_entries = {}
        for i, j, k, v in parsed.sc_items():
            if i < base_dim and j < base_dim and k < base_dim:
                base_entries[(i, j, k)] = v
        labels = parsed.labels[:base_dim] if parsed.labels else None
        unit = parsed.unit[:base_dim] if parsed.unit is not None else None
        base = AlgebraTable(field, base_dim, base_entries, labels=labels, unit=unit)
        table, _ = split_null_extension(base, shift)
        return table
    raise ParseError(f"unknown construction {kind!r} in meta line")


def _parse_index(token: str, what: str) -> int:
    try:
        value = int(token)
    except ValueError as exc:
        raise ParseError(f"bad {what} {token!r}") from exc
    if value < 1:
        raise ParseError(f"{what} must be positive")
    return value


def read_algebra(text: str) -> AlgebraTable:
    field = None
    dim = None
    labels = None
    unit = None
    meta = None
    entries = {}
    pending_sc = []
    pending_unit = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        word = parts[0]
        if word in seen:
            raise ParseError(f"line {lineno}: duplicate {word} line")
        if word != "sc":
            seen.add(word)
        if word == "field":
            if parts[1:] == ["Q"]:
                field = Field("Q")
            elif len(parts) == 3 and parts[1] == "GF":
                field = parse_field(f"GF:{parts[2]}")
            else:
                raise ParseError(f"line {lineno}: bad field line {line!r}")
        elif word == "dim":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: bad dim line")
            dim = _parse_index(parts[1], "dimension")
        elif word == "basis":
            labels = tuple(parts[1:])
        elif word == "unit":
            pending_unit = parts[1:]
        elif word == "meta":
            if len(parts) < 2:
                raise ParseError(f"line {lineno}: empty meta line")
            meta = (parts[1], parts[2:])
        elif word == "sc":
            if len(parts) != 5:
                raise ParseError(f"line {lineno}: sc lines take i j k value")
            pending_sc.append((lineno, parts[1:]))
        else:
            raise ParseError(f"line {lineno}: unknown directive {word!r}")
    if field is None:
        raise ParseError("missing field line")
    if dim is None:
        raise ParseError("missing dim line")
    if labels is not None and len(labels) != dim:
        raise ParseError("basis line length differs from dimension")
    if pending_unit is not None:
        if len(pending_unit) != dim:
            raise ParseError("unit line length differs from dimension")
        unit = tuple(field.parse_raw(tok) for tok in pending_unit)
    for lineno, (si, sj, sk, sv) in pending_sc:
        i = _parse_index(si, "index")
        j = _parse_index(sj, "index")
        k = _parse_index(sk, "index")
        if i > dim or j > dim or k > dim:
            raise ParseError(f"line {lineno}: index out of range")
        key = (i - 1, j - 1, k - 1)
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate constant for {i} {j} {k}")
        entries[key] = field.parse_raw(sv)
    try:
        table = AlgebraTable(field, dim, entries, labels=labels, unit=unit)
    except NotUnital as exc:
        raise ParseError("unit line fails the unit laws") from exc
    if meta is None:
        return table
    rebuilt = _rebuild_from_meta(field, meta[0], meta[1], table)
    if rebuilt != table:
        raise ParseError("meta line does not reproduce the table")
    if labels is not None and rebuilt.labels != labels:
        raise ParseError("meta line does not reproduce the basis labels")
    return rebuilt


def write_map(dmap: LinearMap) -> str:
    f = dmap.algebra.field
    n = dmap.algebra.dim
    lines = [f"map {n}"]
    rows = dmap.matrix.rows
    for j in range(n):
        for k in range(n):
            v = rows[k][j]
            if v:
                lines.append(f"{k + 1} {j + 1} {f.format_raw(v)}")
    return "\n".join(lines) + "\n"


def read_map(text: str, table: AlgebraTable) -> LinearMap:
    f = table.field
    n = table.dim
    header_seen = False
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_seen:
            if parts[0] != "map" or len(parts) != 2:
                raise ParseError(f"line {lineno}: expected a `map <dim>` header")
            if _parse_index(parts[1], "map dimension") != n:
                raise ParseError("map dimension differs from the algebra")
            header_seen = True
            continue
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: map entries take row col value")
        k = _parse_index(parts[0], "row")
        j = _parse_index(parts[1], "column")
        if k > n or j > n:
            raise ParseError(f"line {lineno}: index out of range")
        if (k, j) in entries:
            raise ParseError(f"line {lineno}: duplicate entry for {k} {j}")
        entries[(k, j)] = f.parse_raw(parts[2])
    if not header_seen:
        raise ParseError("missing `map <dim>` header")
    _refuse_over_cap("the map", n, 8 * n * n)
    zero = f.zero()
    rows = [
        [entries.get((k + 1, j + 1), zero) for j in range(n)] for k in range(n)
    ]
    return LinearMap(table, Matrix(f, rows))


def parse_element(table: AlgebraTable, text: str) -> Element:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != table.dim:
        raise ParseError(
            f"element needs {table.dim} coordinates, got {len(parts)}"
        )
    return table.element([table.field.parse_raw(p) for p in parts])


def format_element(x: Element) -> str:
    f = x.algebra.field
    return ",".join(f.format_raw(v) for v in x.coords)
