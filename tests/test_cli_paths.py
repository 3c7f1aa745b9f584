"""CLI paths pinned to their exact output, and the refusal of oversized
tables and maps before anything is allocated."""

import hashlib
import json
import resource
import subprocess
import sys

from jordanalg import cli
from jordanalg.constructions import matrix_algebra, spin_factor
from jordanalg.fields import RATIONALS
from jordanalg.formats import read_algebra, write_algebra
from jordanalg.linalg import Matrix


# ---------------------------------------------------------------------------
# refusals before allocation, swept over the commands that read a table

_SWEEP = """
import contextlib, io, json, sys, tracemalloc
from jordanalg import cli
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc = repr(exc)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps([argv, rc, out.getvalue(), err.getvalue(), peak]), flush=True)
"""


def test_every_table_command_refuses_a_huge_table_before_allocating(tmp_path):
    # one constant in 10^8 dimensions: the Leibniz pairs alone would take
    # 71 PiB, and a `map 100000000` file 10^16 cells; the child's address
    # space is capped at 2 GiB, so a missing refusal ends in MemoryError
    # or in the timeout
    (tmp_path / "big.alg").write_text("field GF 7\ndim 100000000\nsc 1 1 1 1\n")
    (tmp_path / "big.map").write_text("map 100000000\n")
    commands = [["check", "big.alg", "--which", w] for w in ("jordan", "commutative", "associative")] + [
        ["derivations", "big.alg"],
        ["derivations", "big.alg", "--sample"],
        ["divsearch", "big.alg"],
        ["divcheck", "big.alg", "big.map"],
        ["reduce", "big.alg", "big.map"],
        ["peirce", "big.alg", "1"],
        ["invert", "big.alg", "1"],
        ["norm", "big.alg", "1"],
        ["build", "plus", "big.alg"],
        ["build", "extend", "big.alg"],
        ["build", "hermitian", "big.alg", "--inv", "big.map"],
        ["build", "matn", "--n", "2", "--coeff", "big.alg"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _SWEEP, json.dumps(commands)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
    )
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert [argv for argv, *_ in records] == commands
    leibniz = "error [CapExceeded]: the Leibniz system of a 100000000-dim table needs "
    dense_map = (
        "error [CapExceeded]: the map of a 100000000-dim table needs 80000000000000000 bytes, "
        "over the cap of 1073741824\n"
    )
    for argv, rc, out, err, peak in records:
        assert peak < 50 * 2**20, argv
        if argv == ["check", "big.alg", "--which", "commutative"]:
            # one sparse pass over the nonzero constants
            assert (rc, out, err) == (0, "commutative: holds\n", "")
            continue
        assert rc in (2, 3), (argv, rc)
        assert out == ""
        assert err.startswith("error") and err.count("\n") == 1 and "Traceback" not in err, (argv, err)
        if argv[0] in ("derivations", "divsearch"):
            assert err.startswith(leibniz) and err.endswith(" bytes, over the cap of 1073741824\n")
        if "big.map" in argv:
            assert err == dense_map


# ---------------------------------------------------------------------------
# command paths pinned to their output


def _main(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


_SPIN_5_12 = (
    "field GF 5\ndim 3\nbasis one v1 v2\nunit 1 0 0\nmeta spin 2 1 0 0 2\n"
    "sc 1 1 1 1\nsc 1 2 2 1\nsc 1 3 3 1\nsc 2 1 2 1\nsc 2 2 1 1\nsc 3 1 3 1\nsc 3 3 1 2\n"
)


def test_build_spin_from_a_gram_matrix(capsys, tmp_path):
    assert _main(capsys, "build", "spin", "--field", "GF:5", "--gram", "1,0;0,2") == (0, _SPIN_5_12, "")
    assert _main(capsys, "build", "spin", "--field", "GF:5", "--diag", "1,2") == (0, _SPIN_5_12, "")
    assert _main(capsys, "build", "spin", "--field", "GF:5", "--gram", "1,0;0") == (
        2, "", "error: form matrix must be square\n"
    )
    rc, _, _ = _main(capsys, "build", "spin", "--field", "Q", "--gram", "1,1;1,-2", "-o", str(tmp_path / "q.alg"))
    assert rc == 0
    assert read_algebra((tmp_path / "q.alg").read_text()) == spin_factor(Matrix(RATIONALS, [[1, 1], [1, -2]]))


# stdout of `build matn --n 2 --coeff` on the GF(3) doubling by mu = 2
_MATN_CD_SHA256 = "f4511eabadea57cb9e26b637e0096b7062785019a3fffaf748b2cf446580eb3d"


def test_build_matn_over_a_coefficient_file(capsys, tmp_path):
    coeff = str(tmp_path / "cd.alg")
    assert _main(capsys, "build", "cd", "--field", "GF:3", "--mu", "2", "-o", coeff)[0] == 0
    rc, out, err = _main(capsys, "build", "matn", "--n", "2", "--coeff", coeff)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _MATN_CD_SHA256
    assert out == write_algebra(matrix_algebra(read_algebra(open(coeff).read()), 2))


def test_build_hermitian_from_an_involution_file(capsys, tmp_path):
    m2, plus = str(tmp_path / "m2.alg"), str(tmp_path / "m2p.alg")
    assert _main(capsys, "build", "matn", "--n", "2", "--coeff", "GF:5", "-o", m2)[0] == 0
    assert _main(capsys, "build", "plus", m2, "-o", plus)[0] == 0
    (tmp_path / "t.map").write_text("map 4\n1 1 1\n2 3 1\n3 2 1\n4 4 1\n")
    assert _main(capsys, "build", "hermitian", plus, "--inv", str(tmp_path / "t.map")) == (
        0,
        "field GF 5\ndim 3\nunit 1 0 1\n"
        "sc 1 1 1 1\nsc 1 2 2 3\nsc 2 1 2 3\nsc 2 2 1 1\nsc 2 2 3 1\nsc 2 3 2 3\nsc 3 2 2 3\nsc 3 3 3 1\n",
        "",
    )


def test_divcheck_prints_the_note_of_the_zero_map(capsys, tmp_path):
    spin = str(tmp_path / "spin3.alg")
    assert _main(capsys, "build", "spin", "--field", "GF:3", "--diag", "1,1", "-o", spin)[0] == 0
    (tmp_path / "zero.map").write_text("map 3\n")
    assert _main(capsys, "divcheck", spin, str(tmp_path / "zero.map")) == (
        0,
        "verdict: not_div\nmethod: exhaustive\nkernel dim 3, image dim 0\n"
        "note: the zero map is excluded by convention\n",
        "",
    )
