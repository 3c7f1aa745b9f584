import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanalg import cli
from jordanalg.algebra import AlgebraTable, LinearMap, SplitNullMeta, split_null_extension
from jordanalg.constructions import (
    AlbertMeta,
    CDMeta,
    SpinMeta,
    albert_type,
    cayley_dickson,
    diagonal_spin_factor,
    matrix_algebra,
    plus_algebra,
    spin_factor,
)
from jordanalg.derivations import (
    derivation_space,
    div_search,
    extend_derivation_eps,
    is_derivation,
    largest_ideal_in_kernel,
    sample_derivation,
)
from jordanalg.errors import NotUnital, ParseError
from jordanalg.fields import RATIONALS, prime_field
from jordanalg.formats import (
    format_element,
    parse_element,
    read_algebra,
    read_map,
    write_algebra,
    write_map,
)
from jordanalg.linalg import Matrix

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)


def scalar_algebra(field):
    return AlgebraTable(field, 1, {(0, 0, 0): field.one()}, labels=("s",), unit=[1])


def roundtrip(table):
    text = write_algebra(table)
    back = read_algebra(text)
    assert back == table
    assert write_algebra(back) == text
    return back


# ---------------------------------------------------------------------------
# algebra files: canonical writing and byte-identical round trips


def test_spin_gf_roundtrip_keeps_meta():
    spin = diagonal_spin_factor(F3, [1, 1])
    back = roundtrip(spin)
    assert isinstance(back.meta, SpinMeta)
    assert back.meta.gram == spin.meta.gram
    assert back.labels == spin.labels


def test_spin_rational_nondiagonal_roundtrip():
    gram = Matrix(RATIONALS, [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(-3)]])
    spin = spin_factor(gram)
    back = roundtrip(spin)
    assert isinstance(back.meta, SpinMeta)
    assert back.meta.gram == gram


def test_cayley_dickson_roundtrip_both_fields():
    for field, mus in ((RATIONALS, [-1, -1, -1]), (F7, [1, 3])):
        table, _ = cayley_dickson(field, mus)
        back = roundtrip(table)
        assert isinstance(back.meta, CDMeta)
        assert back.meta.mus == table.meta.mus


def test_albert_roundtrip_restores_idempotents():
    alb = albert_type(F5, [1, 1, 1], [1, 2, 1])
    back = roundtrip(alb)
    assert isinstance(back.meta, AlbertMeta)
    assert back.meta.idempotents == alb.meta.idempotents
    assert back.meta.mus == alb.meta.mus
    assert back.meta.gammas == alb.meta.gammas


def test_split_null_roundtrip_keeps_shift():
    spin = diagonal_spin_factor(F3, [1, 1])
    ext, _ = split_null_extension(spin, 2)
    back = roundtrip(ext)
    assert isinstance(back.meta, SplitNullMeta)
    assert back.meta.base_dim == 3
    assert back.meta.shift == F3.from_int(2)


def test_plain_table_roundtrip_without_meta():
    m2 = plus_algebra(matrix_algebra(scalar_algebra(RATIONALS), 2))
    back = roundtrip(m2)
    assert back.meta is None


def test_minimal_table_without_labels_or_unit():
    table = AlgebraTable(F5, 2, {(0, 1, 0): 3})
    text = write_algebra(table)
    assert text == "field GF 5\ndim 2\nsc 1 2 1 3\n"
    back = read_algebra(text)
    assert back == table
    assert back.labels is None and back.unit is None


def test_writer_sorts_constants_and_formats_fractions():
    table = AlgebraTable(
        RATIONALS,
        2,
        {(1, 0, 1): Fraction(1, 2), (0, 0, 0): Fraction(-2), (0, 1, 1): 1},
    )
    text = write_algebra(table)
    sc_lines = [l for l in text.splitlines() if l.startswith("sc")]
    assert sc_lines == ["sc 1 1 1 -2", "sc 1 2 2 1", "sc 2 1 2 1/2"]


def test_reader_accepts_any_line_order_comments_and_blanks():
    spin = diagonal_spin_factor(F3, [1, 1])
    lines = write_algebra(spin).splitlines()
    shuffled = lines[::-1]
    text = "# scrambled copy\n\n" + "\n".join(shuffled) + "\n  # trailing note\n"
    assert read_algebra(text) == spin


# ---------------------------------------------------------------------------
# algebra files: rejected inputs


def test_duplicate_constant_rejected():
    text = "field GF 3\ndim 2\nsc 1 1 1 1\nsc 1 1 1 2\n"
    with pytest.raises(ParseError, match="duplicate"):
        read_algebra(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("dim 2\nsc 1 1 1 1\n", "missing field"),
        ("field GF 3\nsc 1 1 1 1\n", "missing dim"),
        ("field GF 3\nfield Q\ndim 1\n", "duplicate field"),
        ("field GF 3\ndim 1\ndim 2\n", "duplicate dim"),
        ("field GF 4\ndim 1\n", "not prime"),
        ("field R\ndim 1\n", "bad field"),
        ("field Q extra\ndim 1\n", "bad field"),
        ("field GF 3\ndim 0\n", "must be positive"),
        ("field GF 3\ndim two\n", "bad dimension"),
        ("field GF 3\ndim 2\nsc 1 3 1 1\n", "out of range"),
        ("field GF 3\ndim 2\nsc 0 1 1 1\n", "must be positive"),
        ("field GF 3\ndim 2\nsc 1 1 1\n", "sc lines take"),
        ("field Q\ndim 1\nsc 1 1 1 x\n", "scalar"),
        ("field GF 3\ndim 2\nbasis a\n", "differs from dimension"),
        ("field GF 3\ndim 2\nbasis a b\nbasis c d\n", "duplicate basis"),
        ("field GF 3\ndim 2\nunit 1\n", "differs from dimension"),
        ("field GF 3\ndim 2\nunit 1 0\nunit 0 1\n", "duplicate unit"),
        ("field GF 3\ndim 2\nfrobnicate 1\n", "unknown directive"),
        ("field GF 3\ndim 1\nmeta\n", "empty meta"),
        ("field GF 3\ndim 1\nmeta warp 1\n", "unknown construction"),
    ],
)
def test_malformed_files_rejected(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        read_algebra(text)


def test_meta_must_reproduce_the_table():
    spin = diagonal_spin_factor(F3, [1, 1])
    text = write_algebra(spin).replace("sc 2 2 1 1", "sc 2 2 1 2")
    with pytest.raises(ParseError, match="does not reproduce"):
        read_algebra(text)


def test_meta_must_reproduce_the_labels():
    spin = diagonal_spin_factor(F3, [1, 1])
    text = write_algebra(spin).replace("basis one v1 v2", "basis one w1 w2")
    with pytest.raises(ParseError, match="labels"):
        read_algebra(text)


def test_meta_argument_counts_checked():
    base = "field GF 3\ndim 3\nsc 1 1 1 1\n"
    with pytest.raises(ParseError, match="dim\\^2 form entries"):
        read_algebra(base + "meta spin 2 1 0 0\n")
    with pytest.raises(ParseError, match="one to three"):
        read_algebra(base + "meta cd 1 1 1 1\n")
    with pytest.raises(ParseError, match="three mus and three gammas"):
        read_algebra(base + "meta albert 1 1 1\n")
    with pytest.raises(ParseError, match="base dimension and a shift"):
        read_algebra(base + "meta splitnull 3\n")


def test_split_null_base_must_be_half_the_dimension():
    spin = diagonal_spin_factor(F3, [1, 1])
    ext, _ = split_null_extension(spin)
    text = write_algebra(ext).replace("meta splitnull 3 0", "meta splitnull 2 0")
    with pytest.raises(ParseError, match="half the dimension"):
        read_algebra(text)


# ---------------------------------------------------------------------------
# map files


def test_map_roundtrip_is_byte_identical():
    spin = diagonal_spin_factor(F3, [1, 1])
    space = derivation_space(spin)
    dmap = sample_derivation(space, random.Random(7))
    text = write_map(dmap)
    back = read_map(text, spin)
    assert back.matrix == dmap.matrix
    assert write_map(back) == text


def test_map_entries_ordered_by_column_then_row():
    table = AlgebraTable(RATIONALS, 2, {(0, 0, 0): 1})
    matrix = Matrix(RATIONALS, [[Fraction(0), Fraction(1, 3)], [Fraction(2), Fraction(0)]])
    lines = write_map(LinearMap(table, matrix)).splitlines()
    assert lines == ["map 2", "2 1 2", "1 2 1/3"]


def test_zero_map_writes_only_the_header():
    table = AlgebraTable(F5, 2, {(0, 0, 0): 1})
    assert write_map(LinearMap.zero(table)) == "map 2\n"
    back = read_map("map 2\n", table)
    assert back.matrix == LinearMap.zero(table).matrix


def test_map_reader_accepts_any_entry_order():
    table = AlgebraTable(F5, 2, {(0, 0, 0): 1})
    a = read_map("map 2\n1 2 4\n2 1 3\n", table)
    b = read_map("# comment\nmap 2\n2 1 3\n\n1 2 4\n", table)
    assert a.matrix == b.matrix


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 1 1\n", "map <dim>"),
        ("map 3\n", "differs from the algebra"),
        ("map 2\n1 1 1 1\n", "row col value"),
        ("map 2\n3 1 1\n", "out of range"),
        ("map 2\n1 1 1\n1 1 2\n", "duplicate entry"),
        ("", "missing"),
    ],
)
def test_malformed_maps_rejected(text, fragment):
    table = AlgebraTable(F5, 2, {(0, 0, 0): 1})
    with pytest.raises(ParseError, match=fragment):
        read_map(text, table)


# ---------------------------------------------------------------------------
# element coordinate strings


def test_element_parse_and_format():
    spin = diagonal_spin_factor(F3, [1, 1])
    x = parse_element(spin, "1, 2, 0")
    assert x.coords == (1, 2, 0)
    assert format_element(x) == "1,2,0"
    assert parse_element(spin, "1 2 0") == x


def test_element_rational_fractions():
    table = AlgebraTable(RATIONALS, 2, {(0, 0, 0): 1})
    x = parse_element(table, "1/2,-3")
    assert x.coords == (Fraction(1, 2), Fraction(-3))
    assert format_element(x) == "1/2,-3"


def test_element_coordinate_count_checked():
    spin = diagonal_spin_factor(F3, [1, 1])
    with pytest.raises(ParseError, match="3 coordinates"):
        parse_element(spin, "1 2")


# ---------------------------------------------------------------------------
# mutated Albert files: the replay of the meta line must reject every one


def _mutate_sc_line(lines, kind, field, rng):
    """Lines of an algebra file with one sc line changed: its value
    shifted (kind "value"), the line dropped ("drop"), or two of its
    distinct indices swapped ("swap")."""
    sc = [n for n, line in enumerate(lines) if line.startswith("sc ")]
    while True:
        n = rng.choice(sc)
        _, i, j, k, value = lines[n].split()
        if kind == "drop":
            return lines[:n] + lines[n + 1:]
        if kind == "value":
            shifted = Fraction(value) + rng.randrange(1, field.p or 5)
            return lines[:n] + [f"sc {i} {j} {k} {shifted}"] + lines[n + 1:]
        idx = [i, j, k]
        a, b = rng.sample(range(3), 2)
        if idx[a] != idx[b]:
            idx[a], idx[b] = idx[b], idx[a]
            return lines[:n] + ["sc " + " ".join(idx + [value])] + lines[n + 1:]


@pytest.mark.parametrize(
    "field, mus, gammas",
    [(F5, (2, 3, 1), (1, 2, 4)), (F7, (3, 5, 6), (1, 3, 2)), (RATIONALS, (-1, 2, -3), (1, -1, 2))],
    ids=["GF5", "GF7", "Q"],
)
def test_mutated_albert_file_is_rejected(tmp_path, capsys, field, mus, gammas):
    lines = write_algebra(albert_type(field, mus, gammas)).splitlines()
    rng = random.Random(f"mutate-albert-{field}")
    path = tmp_path / "mutated.alg"
    for m in range(10):
        text = "\n".join(_mutate_sc_line(lines, ("value", "drop", "swap")[m % 3], field, rng)) + "\n"
        with pytest.raises(ParseError):
            read_algebra(text)
        path.write_text(text)
        assert cli.main(["check", str(path), "--which", "jordan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_unit_line_that_breaks_the_unit_laws_is_a_parse_error(tmp_path, capsys):
    text = write_algebra(albert_type(F5, (2, 3, 1), (1, 2, 4)))
    # e11 e11 = 2 e11 no longer fixes e11 under the unit e11 + e22 + e33
    bad = text.replace("sc 1 1 1 1\n", "sc 1 1 1 2\n")
    assert bad != text
    with pytest.raises(ParseError, match="unit laws"):
        read_algebra(bad)
    path = tmp_path / "bad-unit.alg"
    path.write_text(bad)
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: unit line fails the unit laws\n"
    # the library constructor keeps its own error
    with pytest.raises(NotUnital):
        AlgebraTable(F5, 1, {(0, 0, 0): 2}, unit=[1])


# ---------------------------------------------------------------------------
# mutated map files: divcheck exits 0, 2 or 3, never with a traceback


def _mutate_map_line(lines, kind, n, rng):
    """Lines of a map file with one entry line changed: its value shifted
    (kind "value"), the line dropped ("drop"), its row and column swapped
    ("swap"), an index moved out of 1..n ("range"), or the line written
    twice ("duplicate")."""
    entry = [m for m, line in enumerate(lines) if not line.startswith("map")]
    while True:
        m = rng.choice(entry)
        k, j, value = lines[m].split()
        if kind == "drop":
            return lines[:m] + lines[m + 1:]
        if kind == "duplicate":
            return lines[:m + 1] + lines[m:]
        if kind == "value":
            changed = f"{k} {j} {(int(value) + rng.randrange(1, 5)) % 5}"
        elif kind == "range":
            changed = f"{k} {rng.choice([0, n + 1])} {value}" if rng.random() < 0.5 else f"{n + 1} {j} {value}"
        elif k != j:
            changed = f"{j} {k} {value}"
        else:
            continue
        return lines[:m] + [changed] + lines[m + 1:]


def test_mutated_albert_map_file_exits_cleanly(tmp_path, capsys):
    alg, good = tmp_path / "albert5.alg", tmp_path / "d.map"
    assert cli.main(["build", "albert", "--field", "GF:5", "--mu", "2,3,1", "--gamma", "1,2,4",
                     "-o", str(alg)]) == 0
    assert cli.main(["derivations", str(alg), "--sample", "--seed", "3", "-o", str(good)]) == 0
    assert cli.main(["divcheck", str(alg), str(good)]) == 0
    capsys.readouterr()
    table = read_algebra(alg.read_text())
    lines = good.read_text().splitlines()
    rng = random.Random("mutate-albert-map")
    path = tmp_path / "mutated.map"
    codes = []
    for m in range(15):
        text = "\n".join(_mutate_map_line(lines, ("value", "drop", "swap", "range", "duplicate")[m % 5],
                                          table.dim, rng)) + "\n"
        path.write_text(text)
        try:
            expected = 0 if is_derivation(table, read_map(text, table)) else 3
        except ParseError:
            expected = 2
        code = cli.main(["divcheck", str(alg), str(path)])
        err = capsys.readouterr().err
        assert code == expected
        assert "Traceback" not in err and (code == 0 or err.startswith("error"))
        codes.append(code)
    assert {2, 3} <= set(codes)


# ---------------------------------------------------------------------------
# mutated spin and split-null files: check, divsearch, reduce and invert
# exit 0, 2 or 3, never with a traceback


def _spin_files():
    """(table, a map for `reduce`, an element for `invert`) of the GF(3)
    spin factor diag(0, 1, 1), whose hits reduce by a nonzero ideal, and
    of the split-null extension of diag(1, 1), with the eps-extension of a
    hit, whose kernel ideal is the radical."""
    spin = diagonal_spin_factor(F3, [0, 1, 1])
    base = diagonal_spin_factor(F3, [1, 1])
    ext, _ = split_null_extension(base)
    return {
        "spin": (spin, div_search(spin)[0].map, "1,1,0,0"),
        "splitnull": (ext, extend_derivation_eps(ext, div_search(base)[0].map), "1,1,0,0,0,0"),
    }


def _commands(alg, mapfile, element):
    return [
        ["check", alg, "--which", "jordan"],
        ["divsearch", alg, "--cap", "729"],
        ["reduce", alg, mapfile],
        ["invert", alg, element],
    ]


# SHA-256 of the stdout of `divsearch --cap 729` and `reduce` on the
# unmutated files, with and without their meta line
SPIN_FILE_STDOUT = {
    "divsearch-spin-meta": "50bb46da6f49ee1522d3f5098d69673dd1f1056c72c049eb89094263231aea95",
    "divsearch-spin-plain": "50bb46da6f49ee1522d3f5098d69673dd1f1056c72c049eb89094263231aea95",
    "divsearch-splitnull-meta": "def259884eb2ea815d3f02d02c31335c67d794c63a2ee8778de5a14886663310",
    "divsearch-splitnull-plain": "def259884eb2ea815d3f02d02c31335c67d794c63a2ee8778de5a14886663310",
    "reduce-spin-meta": "25918e8e2945b717dd01b512c9a0d1d40bd893cc601f8ebd43e567bd42520dfc",
    "reduce-spin-plain": "25918e8e2945b717dd01b512c9a0d1d40bd893cc601f8ebd43e567bd42520dfc",
    "reduce-splitnull-meta": "d924961bb77fc232b961998b981865aada424faa25d391f0002f0ffcc112497a",
    "reduce-splitnull-plain": "d924961bb77fc232b961998b981865aada424faa25d391f0002f0ffcc112497a",
}


def _stdout_digests(tmp_path, capsys, name, table, dmap, element):
    digests = {}
    for meta in (True, False):
        text = "".join(line + "\n" for line in write_algebra(table).splitlines() if meta or not line.startswith("meta"))
        alg, mapfile = tmp_path / f"{name}-{meta}.alg", tmp_path / f"{name}.map"
        alg.write_text(text)
        mapfile.write_text(write_map(dmap))
        for argv in _commands(str(alg), str(mapfile), element)[1:3]:
            assert cli.main(argv) == 0
            digests[f"{argv[0]}-{name}-{'meta' if meta else 'plain'}"] = hashlib.sha256(
                capsys.readouterr().out.encode()).hexdigest()
    return digests


def test_spin_file_stdout_is_pinned(tmp_path, capsys):
    digests = {}
    for name, (table, dmap, element) in _spin_files().items():
        digests.update(_stdout_digests(tmp_path, capsys, name, table, dmap, element))
    assert digests == SPIN_FILE_STDOUT


def _mutation_exit_codes(tmp_path, capsys, table, dmap, element, meta, field, seed, commands=None):
    """Exit codes of the commands on 18 seeded value, drop and swap
    mutations of the table's file, each asserted to be 0, 2 or 3 with no
    traceback."""
    lines = [line for line in write_algebra(table).splitlines() if meta or not line.startswith("meta")]
    rng = random.Random(seed)
    alg, mapfile = tmp_path / "mutated.alg", tmp_path / "d.map"
    mapfile.write_text(write_map(dmap))
    # every other mutation spares the unit's rows, so that the unit line
    # still holds and more tables reach the algorithms
    unit_rows = [line for line in lines if line.startswith("sc 1 ") or line[3:].split()[1:2] == ["1"]]
    codes = []
    for m in range(18):
        kind = ("value", "drop", "swap")[m % 3]
        if m % 2:
            text = _mutate_sc_line([line for line in lines if line not in unit_rows], kind, field, rng) + unit_rows
        else:
            text = _mutate_sc_line(lines, kind, field, rng)
        alg.write_text("\n".join(text) + "\n")
        for argv in _commands(str(alg), str(mapfile), element):
            if commands is not None and argv[0] not in commands:
                continue
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), argv
            assert "Traceback" not in err and (code == 0 or err.startswith("error"))
            codes.append(code)
    return codes


@pytest.mark.parametrize("name", ["spin", "splitnull"])
@pytest.mark.parametrize("meta", [True, False], ids=["meta", "plain"])
def test_mutated_spin_file_exits_cleanly(tmp_path, capsys, name, meta):
    table, dmap, element = _spin_files()[name]
    codes = _mutation_exit_codes(tmp_path, capsys, table, dmap, element, meta, F3, f"mutate-{name}-{meta}")
    # with the meta line every mutation is refused when the file is read;
    # without it the mutated tables reach the algorithms
    assert set(codes) == {2} if meta else {0, 3} <= set(codes)


def _q_spin_files():
    """(table, map, element) of the rational spin factor diag(0, 1, 1),
    with a derivation whose kernel holds the radical line, and of the
    split-null extension of diag(1, 1), with the eps-extension of a
    derivation of the base."""
    spin = diagonal_spin_factor(RATIONALS, [0, 1, 1])
    base = diagonal_spin_factor(RATIONALS, [1, 1])
    ext, _ = split_null_extension(base)
    return {
        "spin": (spin, derivation_space(spin).combination((0, 0, 0, 1)), "1,1,0,0"),
        "splitnull": (ext, extend_derivation_eps(ext, derivation_space(base).combination((1,))), "1,1,0,0,0,0"),
    }


@pytest.mark.parametrize("name", ["spin", "splitnull"])
@pytest.mark.parametrize("meta", [True, False], ids=["meta", "plain"])
def test_mutated_q_spin_file_exits_cleanly(tmp_path, capsys, name, meta):
    """The spin mutations on rational files, through check, reduce and
    invert; divsearch refuses every rational table (NotFinite)."""
    table, dmap, element = _q_spin_files()[name]
    assert largest_ideal_in_kernel(table, dmap).dim > 0
    codes = _mutation_exit_codes(
        tmp_path, capsys, table, dmap, element, meta, RATIONALS, f"mutate-q-{name}-{meta}",
        commands={"check", "reduce", "invert"},
    )
    assert set(codes) == {2} if meta else {0, 3} <= set(codes)


# ---------------------------------------------------------------------------
# round trips of tables and maps, on random sparse tables and one file of
# every construction the meta line can replay

P61 = prime_field(2**61 - 1)
ROUNDTRIP_FIELDS = [F7, P61, RATIONALS]
ROUNDTRIP_IDS = ["GF7", "GF(2^61-1)", "Q"]
checked = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def _scalars(field):
    if field.is_rational:
        big = st.sampled_from([2**70 + 1, -(2**64) - 3, 3**45])
        return st.builds(Fraction, st.integers(-9, 9) | big, st.integers(1, 9) | big.map(abs))
    return st.integers(0, field.p - 1) | st.sampled_from([field.p - 1, field.p - 2, 2**40 % field.p])


@st.composite
def sparse_tables(draw, field):
    """A table with a few random products; when drawn unital, e_0 is its
    unit and the random products avoid it."""
    n = draw(st.integers(1, 5))
    unital = draw(st.booleans())
    entries = {}
    if unital:
        entries = {key: 1 for j in range(n) for key in ((0, j, j), (j, 0, j))}
    low = int(unital and n > 1)
    index = st.integers(low, n - 1)
    # e_0 e_0 = e_0 is the whole of a unital table of dimension 1
    for _ in range(0 if unital and n == 1 else draw(st.integers(0, 2 * n))):
        i, j, k = draw(index), draw(index), draw(st.integers(0, n - 1))
        entries[i, j, k] = draw(_scalars(field))
    labels = None
    if draw(st.booleans()):
        labels = tuple(f"{draw(st.sampled_from(['x', 'e', 'u_']))}{t}" for t in range(n))
    unit = [1] + [0] * (n - 1) if unital else None
    return AlgebraTable(field, n, entries, labels=labels, unit=unit)


@st.composite
def tables_and_maps(draw, field):
    table = draw(sparse_tables(field))
    f, n = table.field, table.dim
    cells = st.one_of(st.just(0), _scalars(f))
    return table, Matrix(f, [[draw(cells) for _ in range(n)] for _ in range(n)])


def _assert_roundtrip(table):
    text = write_algebra(table)
    back = read_algebra(text)
    assert back == table
    assert back.labels == table.labels and back.unit == table.unit
    assert write_algebra(back) == text
    return back


@pytest.mark.parametrize("field", ROUNDTRIP_FIELDS, ids=ROUNDTRIP_IDS)
@checked
@given(data=st.data())
def test_sparse_table_roundtrip(field, data):
    _assert_roundtrip(data.draw(sparse_tables(field)))


@pytest.mark.parametrize("field", ROUNDTRIP_FIELDS, ids=ROUNDTRIP_IDS)
@checked
@given(data=st.data())
def test_sparse_map_roundtrip(field, data):
    table, matrix = data.draw(tables_and_maps(field))
    text = write_map(LinearMap(table, matrix))
    back = read_map(text, table)
    assert back.matrix == matrix and back.algebra is table
    assert write_map(back) == text


META_TABLES = {
    "spin": lambda: diagonal_spin_factor(F7, [1, 0, 3]),
    "cd": lambda: cayley_dickson(P61, [2**61 - 2, 3])[0],
    "albert": lambda: albert_type(F5, [2, 3, 1], [1, 2, 4]),
    "splitnull": lambda: split_null_extension(diagonal_spin_factor(RATIONALS, [1, Fraction(-2, 3)]), 2)[0],
}


@pytest.mark.parametrize("kind", list(META_TABLES))
def test_meta_file_roundtrip_keeps_meta_and_maps(kind):
    table = META_TABLES[kind]()
    back = _assert_roundtrip(table)
    assert f"\nmeta {kind} " in write_algebra(table)
    assert type(back.meta) is type(table.meta)
    rng = random.Random(f"roundtrip-{kind}")
    f, n = table.field, table.dim
    scalars = [0, 0, 1, -1, 2, Fraction(1, 3) if f.is_rational else f.p - 1]
    matrix = Matrix(f, [[rng.choice(scalars) for _ in range(n)] for _ in range(n)])
    for m in (matrix, Matrix.identity(f, n)):
        text = write_map(LinearMap(table, m))
        assert read_map(text, back).matrix == m
        assert write_map(read_map(text, back)) == text
