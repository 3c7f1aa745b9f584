"""Negative controls: source mutations that named tests must catch.

    python3 tools/mutants.py

Stdlib only, and not part of the Tier-1 suite.  Each entry of MUTANTS
is (name, file under src/jordanalg, exact old text, new text, tests).
The harness first runs every named test once on an unmutated copy of
the checkout; they must pass there.  Then, for each entry, it copies
`src/`, `tests/` and `pyproject.toml` into a temporary directory,
replaces the one occurrence of the old text in the copy, runs only the
entry's tests there (`python -m pytest -x`, which puts the copy's `src/`
first on the path), and reports one verdict:

* caught: the tests failed on the mutated copy;
* missed: they passed;
* stale: the old text does not occur exactly once in the file, so the
  entry no longer mutates what it was written for;
* error: pytest stopped without a test verdict (a collection or usage
  error, a test id that does not exist, or the timeout).

It exits 0 when every mutation is caught, and 1 otherwise.  A change
that adds a fast path adds its negative controls here.  The whole list
takes about 35 s on a 2-vCPU host (Python 3.11, numpy 2.4),
about 1.5 s per mutation and one run of all named tests unmutated.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


KERNELS = "tests/test_kernels.py::"
DERIVATIONS = "tests/test_derivations.py::"
SEARCH = "tests/test_search.py::"
FLOAT32 = "tests/test_float32.py::"

MUTANTS = (
    Mutant(
        "batched blocks not column-reversed",
        "linalg.py",
        "np.stack([a[:, ::-1] for _, a in group])",
        "np.stack([a for _, a in group])",
        (KERNELS + "test_grouped_albert_blocks_match_one_block_at_a_time",
         KERNELS + "test_grouped_blocks_match_one_block_at_a_time_on_the_search_tables"),
    ),
    Mutant(
        "batched basis placed at the next block's columns",
        "linalg.py",
        "for (block_cols, _), rows, r in zip(group, red, rank.tolist()):",
        "for (block_cols, _), rows, r in zip(group[1:] + group[:1], red, rank.tolist()):",
        (KERNELS + "test_grouped_albert_blocks_match_one_block_at_a_time",
         KERNELS + "test_grouped_blocks_match_one_block_at_a_time_on_the_search_tables"),
    ),
    Mutant(
        "blocks past int64 products batched",
        "linalg.py",
        "if p and _int_dtype(p - 1) is not object and a.size",
        "if p and a.size",
        (KERNELS + "test_blocks_the_batch_leaves_to_the_block_solver",),
    ),
    Mutant(
        "blocks past chunk rows batched",
        "linalg.py",
        "a.size > _NP_THRESHOLD and len(a) <= chunk:",
        "a.size > _NP_THRESHOLD:",
        (KERNELS + "test_blocks_the_batch_leaves_to_the_block_solver",),
    ),
    Mutant(
        "rows of several constants left unsorted",
        "algebra.py",
        "tuple(sorted(pairs) if len(pairs) > 1 else pairs)",
        "tuple(pairs)",
        ("tests/test_algebra.py::test_rows_given_in_reversed_k_order_equal_the_sorted_table",),
    ),
    Mutant(
        "doubling signs s_i and s_j swapped",
        "constructions.py",
        "            entries[(i + d, j, k + d)] = f.mul(signs[j], v)\n"
        "            entries[(j + d, i + d, k)] = f.mul(mu, f.mul(signs[i], v))\n",
        "            entries[(i + d, j, k + d)] = f.mul(signs[i], v)\n"
        "            entries[(j + d, i + d, k)] = f.mul(mu, f.mul(signs[j], v))\n",
        ("tests/test_constructions.py::test_doubling_from_the_diagonal_conjugation_matches_operator_products",),
    ),
    Mutant(
        "rank-one spin derivations called div",
        "derivations.py",
        "    for t in range(m):\n        if not diag[t]:\n",
        "    if m == 1:\n"
        "        return DivReport(dmap, True, kernel, image, \"div\", None, \"spin_norm\")\n"
        "    for t in range(m):\n        if not diag[t]:\n",
        (DERIVATIONS + "test_every_rank_one_spin_derivation_has_a_degenerate_restricted_form",
         DERIVATIONS + "test_spin_norm_rung_matches_the_ordered_pair_loop"),
    ),
    Mutant(
        "construct_spin_div without its has_invertible_values certificate",
        "derivations.py",
        "    if not f.is_rational:\n"
        "        report = has_invertible_values(table, dmap, point_cap=point_cap)\n"
        "        certify(report.verdict == \"div\", \"constructed map must have invertible values\")\n",
        "",
        (DERIVATIONS + "test_construct_spin_div_certifies_over_gf_p_at_any_cap",),
    ),
    Mutant(
        "float32 bound raised to 2^25",
        "linalg.py",
        "_FLOAT32_EXACT = 1 << 23",
        "_FLOAT32_EXACT = 1 << 25",
        (FLOAT32 + "test_float32_boundary_of_the_three_term_sum",
         FLOAT32 + "test_float32_boundary_of_one_product"),
    ),
    Mutant(
        "float32 allowed on a path that reduces each product",
        "linalg.py",
        "if dtype is np.float64 and not reduce and _product_bound(",
        "if dtype is np.float64 and _product_bound(",
        (FLOAT32 + "test_float32_only_replaces_an_unreduced_float64_path",),
    ),
    Mutant(
        "float zero test without rint",
        "linalg.py",
        "        np.rint(q, out=q)\n",
        "",
        (FLOAT32 + "test_float32_zero_test_is_exact_below_2_23",),
    ),
    Mutant(
        "kernel ideal keyed by kernel().dim",
        "derivations.py",
        'key = ("kernel_ideal", dmap.kernel().basis)',
        'key = ("kernel_ideal", dmap.kernel().dim)',
        (SEARCH + "test_kernels_of_one_dimension_keep_their_own_ideals",),
    ),
    Mutant(
        "class members pushed without % p",
        "derivations.py",
        "heapq.heappush(members, tuple(c * x % p for x in key))",
        "heapq.heappush(members, tuple(c * x for x in key))",
        (SEARCH + "test_class_walk_matches_the_tuple_loop_at_every_cap",),
    ),
    Mutant(
        "fraction-free update without its pv factor",
        "linalg.py",
        "row = [pv * a - f * b for a, b in zip(row_i, row_r)]",
        "row = [a - f * b for a, b in zip(row_i, row_r)]",
        (KERNELS + "test_rational_kernel_matches_the_fraction_kernel_at_every_shape",
         KERNELS + "test_rational_kernel_matches_the_fraction_kernel"),
    ),
    Mutant(
        "np.fmod dropped in _leibniz_holds",
        "derivations.py",
        "    if reduce:\n        left, right, defect = (np.fmod(a, p) for a in (left, right, defect))\n",
        "",
        (DERIVATIONS + "test_leibniz_products_are_reduced_before_the_sum_at_the_float64_bound",),
    ),
    Mutant(
        "Jordan products not reduced at the float64 bound prime",
        "algebra.py",
        "        if reduce:\n            total, g = np.fmod(total, p), np.fmod(g, p)\n",
        "",
        ("tests/test_algebra.py::test_jordan_products_are_reduced_before_the_sum_at_the_float64_bound",),
    ),
)


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(checkout: Path, tests) -> int | None:
    """pytest's exit status for `tests` in `checkout`, or None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def _verdict(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        checkout = Path(tmp)
        _copy_checkout(checkout)
        path = checkout / "src" / "jordanalg" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new))
        status = _run_tests(checkout, mutant.tests)
    return {0: "missed", 1: "caught"}.get(status, "error")


def main() -> int:
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        _copy_checkout(Path(tmp))
        if _run_tests(Path(tmp), tests) != 0:
            print("the named tests fail on the unmutated checkout", file=sys.stderr)
            return 1
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = _verdict(mutant)
        failed += verdict != "caught"
        print(f"{verdict:7} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
