"""The two row-reduction kernels and the dispatch around them.

`_rref_mod_py` works on Python lists (Fractions over Q, ints over
GF(p)); `_rref_mod_np` works on numpy arrays over every GF(p), in int64
below 2^31 and in object dtype from there on.  These tests compare the
kernels with each other and with sympy, pin the derivation maps the
numpy kernel produces, and check the exact fallbacks and self-checks
around them.
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import jordanalg
from jordanalg import derivations, linalg
from jordanalg.cli import main
from jordanalg.constructions import diagonal_spin_factor
from jordanalg.derivations import derivation_space, is_derivation
from jordanalg.errors import CertificationError
from jordanalg.fields import RATIONALS, prime_field
from jordanalg.linalg import (
    _NP_THRESHOLD,
    _nullspace_mod_staged,
    _rref_mod_np,
    _rref_mod_py,
    nullspace_int_crt,
    nullspace_raw,
    rref_raw,
)

# primes whose residues take the object-dtype path of the numpy kernel
OBJECT_PRIMES = (2**31 + 11, 2**62 + 135)
SRC = str(Path(jordanalg.__file__).resolve().parents[1])


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def _low_rank_rows(rng, nrows, ncols, rank, p):
    """Random rows over GF(p) spanned by `rank` random rows."""
    base = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randrange(p) for _ in range(rank)]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) % p for j in range(ncols)])
    return rows


def _is_null(rows, vec, p):
    return all(sum(a * x for a, x in zip(row, vec)) % p == 0 for row in rows)


@pytest.mark.parametrize("p", OBJECT_PRIMES)
def test_numpy_kernel_matches_python_kernel_at_large_primes(p):
    rng = random.Random(7101)
    for _ in range(20):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = _low_rank_rows(rng, nrows, ncols, rng.randrange(1, 5), p)
        expected, rank, pivots = _rref_mod_py([r[:] for r in rows], p)
        for given in (rows, np.array(rows, dtype=object), np.array(rows, dtype=np.int64)):
            arr, rank_np, pivots_np = _rref_mod_np(given, p)
            assert arr.dtype == object
            assert (rank_np, pivots_np) == (rank, pivots)
            assert arr.tolist() == expected


@pytest.mark.parametrize("p", OBJECT_PRIMES)
def test_staged_nullspace_matches_nullspace_raw_at_large_primes(p):
    rng = random.Random(7102)
    f = prime_field(p)
    for _ in range(6):
        rows = _low_rank_rows(rng, 30, 12, rng.randrange(3, 10), p)
        direct = nullspace_raw(f, rows, 12)
        assert direct
        staged = _nullspace_mod_staged(np.array(rows, dtype=object), p, chunk=5)
        assert staged.tolist() == direct
        assert all(_is_null(rows, v, p) for v in direct)


@pytest.mark.parametrize("p", (7,) + OBJECT_PRIMES)
def test_staged_nullspace_keeps_repeated_rows_harmless(p):
    rng = random.Random(7103)
    f = prime_field(p)
    rows = _low_rank_rows(rng, 8, 10, 6, p)
    repeated = rows * 3 + [[0] * 10] * 4 + rows[:3]
    rng.shuffle(repeated)
    direct = nullspace_raw(f, rows, 10)
    assert len(direct) == 4
    for chunk in (1, 4, 3000):
        staged = _nullspace_mod_staged(repeated, p, chunk=chunk)
        assert staged.tolist() == direct
    assert nullspace_raw(f, repeated, 10) == direct


def test_numpy_kernel_serves_large_systems_at_2_61_minus_1(monkeypatch):
    p = 2**61 - 1
    f = prime_field(p)
    rng = random.Random(7104)
    rows = _low_rank_rows(rng, 80, 70, 50, p)
    assert len(rows) * len(rows[0]) > _NP_THRESHOLD
    expected_rref = _rref_mod_py([r[:] for r in rows], p)
    monkeypatch.setattr(linalg, "_NP_THRESHOLD", 10**9)
    expected_null = nullspace_raw(f, rows, 70)
    monkeypatch.undo()

    dtypes = []
    real = linalg._rref_mod_np

    def spy(a, q):
        out = real(a, q)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(linalg, "_rref_mod_np", spy)
    assert rref_raw(f, rows) == expected_rref
    assert dtypes == [object]
    null = nullspace_raw(f, rows, 70)
    assert null == expected_null
    assert len(null) == 20
    assert all(_is_null(rows, v, p) for v in null)
    assert len(dtypes) > 1 and all(d == object for d in dtypes)


def test_python_kernel_over_q_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7105)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rank = rng.randrange(1, 5)
        base = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(ncols)]
                for _ in range(rank)]
        rows = [
            [sum((rng.randrange(-3, 4) * b[j] for b in base), Fraction(0)) for j in range(ncols)]
            for _ in range(nrows)
        ]
        red, rank_py, pivots = _rref_mod_py([r[:] for r in rows], None)
        ref, ref_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        ).rref()
        assert pivots == list(ref_pivots)
        assert rank_py == len(ref_pivots)
        assert red == [
            [Fraction(int(ref[i, j].p), int(ref[i, j].q)) for j in range(ncols)]
            for i in range(nrows)
        ]


# SHA-256 of `derivations --sample --seed S -o FILE` on the GF(5) Albert
# file built with --mu -1,-1,-1 --gamma 1,1,1, taken before the row dedup
# was dropped from the staged nullspace
ALBERT5_MAP_SHA256 = {
    1: "2814dba9ac605930c9307593d186072983203fd92b3e968fae95c120e6643879",
    2: "36c5538316ffbc3f0df22c55ad71b5898c848647791e7506191e224cb14048c8",
}


def test_albert_sample_map_files_are_pinned(tmp_path, capsys):
    alg = tmp_path / "albert5.alg"
    assert main(["build", "albert", "--field", "GF:5", "--mu", "-1,-1,-1",
                 "--gamma", "1,1,1", "-o", str(alg)]) == 0
    for seed, digest in ALBERT5_MAP_SHA256.items():
        out = tmp_path / f"d{seed}.map"
        assert main(["derivations", str(alg), "--sample", "--seed", str(seed), "-o", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "derivation space dimension 52"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_crt_nullspace_falls_back_to_exact_elimination(monkeypatch):
    big = 3**200
    rows = [[big, 1, 0], [0, 0, 0], [-2 * big, -2, 0]]
    calls = []
    real = linalg._nullspace_exact

    def spy(field, frac_rows, ncols):
        calls.append(field)
        return real(field, frac_rows, ncols)

    monkeypatch.setattr(linalg, "_nullspace_exact", spy)
    basis = nullspace_int_crt(rows, 3)
    assert calls == [RATIONALS]
    assert basis == [[Fraction(1), Fraction(-big), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    assert nullspace_int_crt(np.array(rows, dtype=object), 3) == basis


def test_crt_folds_each_prime_once(monkeypatch):
    # the primes cannot certify this system, so every prime is tried
    folds, systems = [], []
    real_fold, real_crt = linalg._crt_fold, derivations.nullspace_int_crt

    def fold(r, m, residues, p):
        folds.append(p)
        return real_fold(r, m, residues, p)

    def crt(int_rows, ncols):
        systems.append((int_rows, ncols))
        return real_crt(int_rows, ncols)

    monkeypatch.setattr(linalg, "_crt_fold", fold)
    monkeypatch.setattr(derivations, "nullspace_int_crt", crt)
    space = derivation_space(diagonal_spin_factor(RATIONALS, [3**200, 1, 1]))
    assert folds == list(linalg._CRT_PRIMES[1:])
    (int_rows, ncols), = systems
    frac_rows = [[Fraction(v) for v in row] for row in int_rows.tolist()]
    exact = linalg._nullspace_exact(RATIONALS, frac_rows, ncols)
    assert [sum(m.matrix.rows, ()) for m in space.basis] == [tuple(row) for row in exact]


def test_derivation_space_with_entries_past_the_crt_primes():
    table = diagonal_spin_factor(RATIONALS, [3**200, 1, 1])
    space = derivation_space(table)
    assert space.dim == 3
    assert all(is_derivation(table, m) for m in space.basis)


def test_cli_derivations_with_entries_past_the_crt_primes(tmp_path):
    path = tmp_path / "big.alg"
    cli = [sys.executable, "-m", "jordanalg.cli"]
    built = subprocess.run(cli + ["build", "spin", "--field", "Q", "--diag", f"{3**200},1,1",
                                  "-o", str(path)], capture_output=True, text=True, env=_env())
    assert built.returncode == 0, built.stderr
    result = subprocess.run(cli + ["derivations", str(path)], capture_output=True, text=True,
                            env=_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout == "derivation space dimension 3\n"
    assert result.stderr == ""


def _corrupt_staged(m, p, chunk=3000):
    basis = _nullspace_mod_staged(m, p, chunk)
    basis[0, -1] = (basis[0, -1] + 1) % p
    return basis


def _corrupt_crt(int_rows, ncols):
    basis = nullspace_int_crt(int_rows, ncols)
    basis[0][-1] += 1
    return basis


@pytest.mark.parametrize(
    "field, kernel, corrupted",
    [(prime_field(5), "_nullspace_mod_staged", _corrupt_staged),
     (RATIONALS, "nullspace_int_crt", _corrupt_crt)],
)
def test_corrupted_derivation_basis_fails_certification(monkeypatch, field, kernel, corrupted):
    monkeypatch.setattr(derivations, kernel, corrupted)
    with pytest.raises(CertificationError, match="Leibniz"):
        derivation_space(diagonal_spin_factor(field, [1, 1, 1]))


CORRUPTED_UNDER_O = """
import sys
import jordanalg.derivations as d
from jordanalg.constructions import diagonal_spin_factor
from jordanalg.errors import CertificationError
from jordanalg.fields import prime_field

real = d._nullspace_mod_staged

def corrupted(m, p, chunk=3000):
    basis = real(m, p, chunk)
    basis[0, -1] = (basis[0, -1] + 1) % p
    return basis

d._nullspace_mod_staged = corrupted
print("optimize", sys.flags.optimize)
try:
    d.derivation_space(diagonal_spin_factor(prime_field(5), [1, 1, 1]))
except CertificationError as exc:
    print("CertificationError:", exc)
else:
    print("accepted")
"""


def test_corrupted_derivation_basis_fails_certification_under_python_O():
    result = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_UNDER_O],
                            capture_output=True, text=True, env=_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "optimize 1\nCertificationError: nullspace row fails the Leibniz rule\n"
    )
