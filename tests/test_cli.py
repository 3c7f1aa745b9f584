import json
import re
import resource
import subprocess
import sys

import pytest

from jordanalg import algebra, cli
from jordanalg.constructions import albert_type, diagonal_spin_factor, matrix_algebra
from jordanalg.algebra import AlgebraTable
from jordanalg.fields import prime_field
from jordanalg.formats import read_algebra, write_algebra

F3 = prime_field(3)
F5 = prime_field(5)


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "jordanalg.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Algebra and map files shared by the command tests, produced
    through the build commands themselves."""
    path = tmp_path_factory.mktemp("cli")
    jobs = [
        ("spin3.alg", ["build", "spin", "--field", "GF:3", "--diag", "1,1"]),
        ("spin5.alg", ["build", "spin", "--field", "GF:5", "--diag", "1,1"]),
        ("oct.alg", ["build", "cd", "--field", "Q", "--mu", "-1,-1,-1"]),
        ("m2.alg", ["build", "matn", "--n", "2", "--coeff", "GF:3"]),
        ("albert5.alg", ["build", "albert", "--field", "GF:5", "--mu", "-1,-1,-1",
                         "--gamma", "1,1,1"]),
    ]
    for name, argv in jobs:
        result = run_cli(*argv, "-o", str(path / name))
        assert result.returncode == 0, result.stderr
    result = run_cli("build", "extend", str(path / "spin3.alg"),
                     "-o", str(path / "ext.alg"))
    assert result.returncode == 0, result.stderr
    (path / "eps.map").write_text("map 6\n6 2 1\n5 3 2\n")
    return path


# ---------------------------------------------------------------------------
# build


def test_build_spin_matches_library(workdir):
    text = (workdir / "spin3.alg").read_text()
    assert read_algebra(text) == diagonal_spin_factor(F3, [1, 1])
    assert text == write_algebra(diagonal_spin_factor(F3, [1, 1]))


def test_build_writes_to_stdout_without_output_flag():
    result = run_cli("build", "spin", "--field", "GF:3", "--diag", "1,1")
    assert result.returncode == 0
    assert result.stdout == write_algebra(diagonal_spin_factor(F3, [1, 1]))


def test_build_albert_matches_library(workdir):
    text = (workdir / "albert5.alg").read_text()
    assert text == write_algebra(albert_type(F5, [-1, -1, -1], [1, 1, 1]))


def test_build_matn_has_eight_constants(workdir):
    text = (workdir / "m2.alg").read_text()
    table = read_algebra(text)
    scalars = AlgebraTable(F3, 1, {(0, 0, 0): 1}, labels=("s",), unit=[1])
    assert table == matrix_algebra(scalars, 2)
    assert sum(1 for line in text.splitlines() if line.startswith("sc ")) == 8


def test_build_matn_past_nine_reads_back(tmp_path):
    path = tmp_path / "m11.alg"
    result = run_cli("build", "matn", "--n", "11", "--coeff", "GF:3", "-o", str(path))
    assert result.returncode == 0, result.stderr
    table = read_algebra(path.read_text())
    scalars = AlgebraTable(F3, 1, {(0, 0, 0): 1}, labels=("s",), unit=[1])
    assert table == matrix_algebra(scalars, 11)
    assert table.labels[:12] == ("e1.1", "e1.2", "e1.3", "e1.4", "e1.5", "e1.6",
                                 "e1.7", "e1.8", "e1.9", "e1.10", "e1.11", "e2.1")
    assert len(set(table.labels)) == 121


def test_matrix_labels_up_to_nine_join_the_indices():
    scalars = AlgebraTable(F3, 1, {(0, 0, 0): 1}, labels=("s",), unit=[1])
    assert matrix_algebra(scalars, 9).labels[-2:] == ("e98", "e99")
    assert matrix_algebra(scalars, 10).labels[-2:] == ("e10.9", "e10.10")


def test_build_plus_of_matrix_file(workdir):
    result = run_cli("build", "plus", str(workdir / "m2.alg"))
    assert result.returncode == 0
    table = read_algebra(result.stdout)
    assert table.dim == 4
    assert read_algebra(result.stdout) == table


def test_build_cd_stage_count_mismatch_rejected():
    result = run_cli("build", "cd", "--field", "Q", "--mu", "-1,-1", "--stages", "3")
    assert result.returncode == 2
    assert "stages" in result.stderr


def test_build_extend_records_shift(workdir):
    result = run_cli("build", "extend", str(workdir / "spin3.alg"), "--shift", "2")
    assert result.returncode == 0
    assert "meta splitnull 3 2" in result.stdout.splitlines()


def test_build_round_trip_is_byte_identical(workdir):
    for name in ("spin3.alg", "oct.alg", "albert5.alg", "ext.alg"):
        text = (workdir / name).read_text()
        assert write_algebra(read_algebra(text)) == text


# ---------------------------------------------------------------------------
# verdict commands


def test_check_identities(workdir):
    result = run_cli("check", str(workdir / "albert5.alg"), "--which", "jordan")
    assert result.returncode == 0
    assert result.stdout == "jordan: holds\n"
    result = run_cli("check", str(workdir / "oct.alg"), "--which", "commutative")
    assert result.returncode == 0
    assert result.stdout == "commutative: fails\n"


def test_derivations_dimension(workdir):
    result = run_cli("derivations", str(workdir / "spin3.alg"))
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "derivation space dimension 1"


@pytest.mark.parametrize("p", [2**31 + 11, 2**33 + 17, 2**62 + 135, 2**64 + 13])
def test_derivations_for_large_primes(tmp_path, p):
    path = tmp_path / "spin.alg"
    built = run_cli("build", "spin", "--field", f"GF:{p}", "--diag", "1,1,1", "-o", str(path))
    assert built.returncode == 0, built.stderr
    result = run_cli("derivations", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "derivation space dimension 3\n"


def test_derivations_sample_is_seed_deterministic(workdir):
    a = run_cli("derivations", str(workdir / "spin3.alg"), "--sample", "--seed", "9")
    b = run_cli("derivations", str(workdir / "spin3.alg"), "--sample", "--seed", "9")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert "map 3" in a.stdout


def test_divcheck_reports_div_with_method(workdir, tmp_path):
    mapfile = tmp_path / "d.map"
    sample = run_cli("derivations", str(workdir / "spin3.alg"), "--sample",
                     "--seed", "3", "-o", str(mapfile))
    assert sample.returncode == 0
    result = run_cli("divcheck", str(workdir / "spin3.alg"), str(mapfile))
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "verdict: div"
    assert lines[1] == "method: exhaustive"


def test_divcheck_not_div_prints_witness(workdir):
    result = run_cli("divcheck", str(workdir / "ext.alg"), str(workdir / "eps.map"))
    assert result.returncode == 0
    assert result.stdout.startswith("verdict: not_div\n")
    assert any(line.startswith("witness: ") for line in result.stdout.splitlines())


def test_divsearch_counts(workdir):
    result = run_cli("divsearch", str(workdir / "spin5.alg"))
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "0 DIV derivations"
    result = run_cli("divsearch", str(workdir / "spin3.alg"))
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "2 DIV derivations"
    assert "map 3" in result.stdout


def test_reduce_extension_by_eps_derivation(workdir, tmp_path):
    quotient_file = tmp_path / "quot.alg"
    result = run_cli("reduce", str(workdir / "ext.alg"), str(workdir / "eps.map"),
                     "-o", str(quotient_file))
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "kernel ideal dim 3"
    assert lines[1] == "quotient dim 3"
    quotient = read_algebra(quotient_file.read_text())
    assert quotient == diagonal_spin_factor(F3, [1, 1])


def test_invert_albert_diagonal_idempotent(workdir):
    result = run_cli("invert", str(workdir / "albert5.alg"), "e11")
    assert result.returncode == 0
    assert result.stdout == "not invertible, n(A) = 0\n"


def test_invert_returns_working_inverse(workdir):
    result = run_cli("invert", str(workdir / "spin3.alg"), "0,1,1")
    assert result.returncode == 0
    assert result.stdout.startswith("invertible: ")
    coords = result.stdout.split(": ")[1].strip()
    table = diagonal_spin_factor(F3, [1, 1])
    x = table.element([0, 1, 1])
    y = table.element([int(c) for c in coords.split(",")])
    assert (x * y).coords == (1, 0, 0)


def test_norm_by_construction_kind(workdir):
    result = run_cli("norm", str(workdir / "spin3.alg"), "1,2,0")
    assert result.returncode == 0
    assert result.stdout == "N(x) = 0\n"
    result = run_cli("norm", str(workdir / "oct.alg"), "1,0,0,0,0,0,0,0")
    assert result.returncode == 0
    assert result.stdout == "n(x) = 1\n"
    result = run_cli("norm", str(workdir / "albert5.alg"), "e22")
    assert result.returncode == 0
    assert result.stdout == "n(A) = 0\n"


def test_norm_requires_construction_metadata(workdir):
    result = run_cli("norm", str(workdir / "m2.alg"), "1,0,0,1")
    assert result.returncode == 2
    assert "no norm form" in result.stderr


def test_peirce_dimensions(workdir):
    result = run_cli("peirce", str(workdir / "albert5.alg"), "e11")
    assert result.returncode == 0
    assert result.stdout == (
        "eigenvalue 1: dim 1\neigenvalue 1/2: dim 16\neigenvalue 0: dim 10\n"
    )


def test_spincriterion_both_verdicts():
    result = run_cli("spincriterion", "--field", "GF:3", "--diag", "1,1")
    assert result.returncode == 0
    assert result.stdout == "criterion satisfied: x = 1,0 ; y = 0,1\n"
    result = run_cli("spincriterion", "--field", "GF:5", "--diag", "1,1")
    assert result.returncode == 0
    assert result.stdout == "criterion not satisfied\n"


# ---------------------------------------------------------------------------
# exit codes


def test_invert_takes_fractional_coordinates_over_gf(workdir):
    # 1/3 = 2 in GF(5)
    fractional = run_cli("invert", str(workdir / "spin5.alg"), "1/3,1,0")
    integral = run_cli("invert", str(workdir / "spin5.alg"), "2,1,0")
    assert fractional.returncode == integral.returncode == 0
    assert fractional.stdout == integral.stdout
    assert fractional.stdout.startswith("invertible: ")
    vanishing = run_cli("invert", str(workdir / "spin5.alg"), "1/5,1,0")
    assert vanishing.returncode == 2
    assert "error: bad scalar '1/5' for GF(5)" in vanishing.stderr
    assert "Traceback" not in vanishing.stderr


def test_parse_failure_exits_2(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("garbage\n")
    result = run_cli("check", str(bad))
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_file_exits_2():
    result = run_cli("check", "no-such-file.alg")
    assert result.returncode == 2


def _refused(result, verb):
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: cannot {verb} ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("target", ["missing/out", "."])
def test_unwritable_output_exits_2(workdir, tmp_path, target):
    # -o into a directory that does not exist, or at a directory
    output = str(tmp_path / target)
    _refused(run_cli("build", "spin", "--field", "GF:3", "--diag", "1,1", "-o", output), "write")
    _refused(run_cli("derivations", str(workdir / "spin3.alg"), "--sample", "--seed", "1",
                     "-o", output), "write")


def test_non_utf8_input_exits_2(workdir, tmp_path):
    bad = tmp_path / "latin1.alg"
    bad.write_bytes((workdir / "spin3.alg").read_bytes() + "# é\n".encode("latin-1"))
    _refused(run_cli("check", str(bad)), "read")
    _refused(run_cli("divcheck", str(workdir / "spin3.alg"), str(bad)), "read")


def test_math_precondition_exits_3_with_error_name(workdir):
    result = run_cli("peirce", str(workdir / "spin3.alg"), "0,1,1")
    assert result.returncode == 3
    assert "NotIdempotent" in result.stderr
    result = run_cli("divsearch", str(workdir / "oct.alg"))
    assert result.returncode == 3
    assert "NotFinite" in result.stderr


def test_derivations_sample_without_derivations_exits_3(tmp_path):
    # GF(9) as a Cayley-Dickson double of GF(3) has no nonzero derivation
    path = str(tmp_path / "gf9.alg")
    assert run_cli("build", "cd", "--field", "GF:3", "--mu", "2", "-o", path).returncode == 0
    assert run_cli("derivations", path).stdout == "derivation space dimension 0\n"
    for extra in ([], ["--json"]):
        result = run_cli("derivations", path, "--sample", "--seed", "1", *extra)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == "error [NoDerivations]: no nonzero derivations exist\n"


def test_oversized_leibniz_system_exits_3(tmp_path):
    # the 64-dim M_8 would need about 8.6 GB; the child's address space is
    # capped at 2 GiB, so a missing refusal ends in MemoryError
    path = str(tmp_path / "m8.alg")
    assert run_cli("build", "matn", "--n", "8", "--coeff", "GF:3", "-o", path).returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "jordanalg.cli", "derivations", path],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error [CapExceeded]: the Leibniz system of a 64-dim table")


def test_oversized_jordan_check_exits_3(tmp_path):
    # the 81-dim plus algebra of M_9 would need about 2.4 GB of n^4
    # arrays; the child's address space is capped at 2 GiB, so a missing
    # refusal ends in MemoryError
    m9, plus9 = str(tmp_path / "m9.alg"), str(tmp_path / "plus9.alg")
    assert run_cli("build", "matn", "--n", "9", "--coeff", "GF:3", "-o", m9).returncode == 0
    assert run_cli("build", "plus", m9, "-o", plus9).returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "jordanalg.cli", "check", plus9, "--which", "jordan"],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith(
        "error [CapExceeded]: the Jordan check of a 81-dim table needs 2410616376 bytes"
    )


def test_unknown_suite_check_exits_2():
    result = run_cli("verify-paper", "--only", "no-such-check")
    assert result.returncode == 2


# ---------------------------------------------------------------------------
# json reports


def test_json_schema_keys(workdir):
    result = run_cli("check", str(workdir / "spin3.alg"), "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert list(payload) == ["command", "inputs", "verdict", "witness", "method", "timings"]
    assert payload["command"] == "check"
    assert payload["verdict"] == "holds"
    assert payload["timings"] is None


def test_json_divsearch_payload(workdir):
    result = run_cli("divsearch", str(workdir / "spin5.alg"), "--json")
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "0 DIV derivations"
    assert payload["witness"] == {"count": 0, "maps": []}


def test_json_verify_paper_single_check():
    result = run_cli("verify-paper", "--only", "spin-div-gf3", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert list(payload) == [
        "command", "inputs", "verdict", "witness", "method", "timings", "checks",
    ]
    assert payload["verdict"] == "pass"
    assert payload["timings"] is None
    assert payload["checks"][0]["name"] == "spin-div-gf3"
    assert payload["checks"][0]["repro"].startswith("jordanalg verify-paper")


# ---------------------------------------------------------------------------
# determinism


def test_verify_paper_fixed_seed_is_byte_identical():
    a = run_cli("verify-paper", "--seed", "4", "--only", "spin-div-gf3")
    b = run_cli("verify-paper", "--seed", "4", "--only", "spin-div-gf3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.splitlines()[-1].startswith("SUMMARY checks=1 pass=1")


def test_verify_paper_timings_go_to_stderr_only():
    result = run_cli("verify-paper", "--only", "octonion-noncommutative")
    assert result.returncode == 0
    assert not re.search(r"\d+\.\d+s", result.stdout)
    assert any(line.startswith("# octonion-noncommutative") for line in result.stderr.splitlines())


def test_oversized_work_area_exits_3(tmp_path, capsys, monkeypatch):
    # a 4-dim table with one constant, not commutative: invert runs the
    # associativity check, whose four arrays of 4^3 entries take 2048 bytes
    path = tmp_path / "one-sc.alg"
    path.write_text("field GF 5\ndim 4\nsc 1 2 1 1\n")
    monkeypatch.setattr(algebra, "JORDAN_BYTE_CAP", 2047)
    for argv in (["check", str(path), "--which", "associative"], ["invert", str(path), "1,0,0,0"]):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error [CapExceeded]: the associativity check of a 4-dim table needs 2048 bytes, "
            "over the cap of 2047\n"
        )
