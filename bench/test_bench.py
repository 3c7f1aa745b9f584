"""Tests of the benchmark itself: oracles catch wrong verdicts, and traced
counts repeat exactly for a seed.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

J = run.import_jordanalg()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _failures(jobs) -> int:
    return run.Phase(workloads.SpinSearch).run(iter([jobs]), max_passes=1).failed


# ---------------------------------------------------------------------------
# negative controls: a wrong verdict must be counted as failed


def test_spin_search_counts_a_search_that_misses_hits(monkeypatch):
    job = workloads.SpinSearch(1, None)._job((1, 1), 3)
    assert _failures([job]) == 0
    monkeypatch.setattr(J, "div_search", lambda table, **kw: [])
    assert _failures([job]) == 1


def test_spin_search_counts_a_wrong_kernel_ideal(monkeypatch):
    job = workloads.SpinSearch(1, None)._job((2, 2), 3)
    monkeypatch.setattr(J, "largest_ideal_in_kernel", lambda table, dmap: dmap.kernel())
    assert _failures([job]) == 1


@pytest.fixture(scope="module")
def albert_round():
    """The jobs of one albert-cli round, with its file already built."""
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="test-albert-cli-", dir=run.OUT_DIR)
    cli = workloads.AlbertCli(3, workdir)
    cli.setup()
    jobs = dict(zip(cli.kinds, next(cli.passes())))
    assert _failures([jobs["build"]]) == 0
    yield cli, jobs
    shutil.rmtree(workdir, ignore_errors=True)


def test_albert_cli_peirce_passes_on_the_built_file(albert_round):
    _, jobs = albert_round
    assert _failures([jobs["peirce"]]) == 0


def test_albert_cli_counts_a_tampered_expected_value(albert_round, monkeypatch):
    _, jobs = albert_round
    monkeypatch.setattr(workloads, "PEIRCE_DIMS", (1, 16, 9))
    assert _failures([jobs["peirce"]]) == 1


def test_albert_cli_counts_a_tampered_file(albert_round):
    cli, jobs = albert_round
    path = os.path.join(cli.workdir, "round0.alg")
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("sc "))
    *head, value = lines[index].split()
    lines[index] = " ".join(head + [str(int(value) % 4 + 1)])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    assert _failures([jobs["check"]]) == 1


def test_spin_search_counts_a_wrong_rational_inverse(monkeypatch):
    jobs = [workloads._rational_job(workloads._rng(1, i)) for i in range(3)]
    assert _failures(jobs) == 0
    monkeypatch.setattr(J, "jordan_inverse", lambda x: None)
    assert _failures(jobs) > 0


def test_spin_search_counts_a_short_rational_derivation_space(monkeypatch):
    job = workloads._rational_job(workloads._rng(1, 0))
    original = J.derivation_space
    monkeypatch.setattr(J, "derivation_space",
                        lambda table: dataclasses.replace(original(table),
                                                          basis=original(table).basis[:-1]))
    assert _failures([job]) == 1


# ---------------------------------------------------------------------------
# exact counts


def _traced_counts(seed: int) -> dict:
    workload = workloads.SpinSearch(seed, None)
    workload.setup()
    tracer = tracing.Tracer()
    with tracer:
        phase = run.Phase(workload).run(workload.passes(), max_passes=1, tracer=tracer)
    assert phase.failed == 0
    return {
        name: value
        for name, value in tracer.layer_metrics().items()
        if not name.endswith((".s", "self_s"))
    }


def test_traced_counts_repeat_exactly_for_a_seed():
    original = J.div_search
    first = _traced_counts(4)
    assert J.div_search is original, "tracer left a wrapper installed"
    second = _traced_counts(4)
    assert first == second
    assert first["derivations.div_search.candidates"] > 0
    assert first["algebra.invert_element.calls"] > 0
    assert first["fields.Field.coerce.calls"] > 0
    assert first["derivations.has_invertible_values.method.exhaustive"] > 0
