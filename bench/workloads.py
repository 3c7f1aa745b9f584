"""The benchmark's workloads: seeded job streams and their correctness oracles.

Each workload is a closed loop with one client: the next job starts when
the previous one has finished.  A workload hands out *passes*, lists of
jobs that the runner executes whole; the runner starts a new pass only
while the measuring window is open, so every run measures whole passes
and the mix of job kinds does not depend on where the window ends.

Every call into jordanalg goes through a module attribute (``J.name`` or
``J.cli.main``), looked up when the job runs, so the tracer's wrappers
see it.  A job raises `JobFailed` when an oracle disagrees with the
program; the runner counts that, and any other exception, as failed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import jordanalg as J
import jordanalg.cli  # noqa: F401  (J.cli is used below)


class JobFailed(Exception):
    """An oracle disagreed with the program's output."""


def _require(condition: bool, message: str):
    if not condition:
        raise JobFailed(message)


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


# ---------------------------------------------------------------------------
# reference kernels: fixed work that uses no jordanalg code, timed before
# and after every job to follow the host's speed (see bench/run.py)


def integer_loop():
    """A plain loop of integer arithmetic."""
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return acc


def small_row_reductions():
    """Row-reduce 100 fixed 10 x 12 matrices mod 7 in pure Python."""
    p = 7
    rank = 0
    for rep in range(100):
        rows = [[(i * 31 + j * 17 + rep) % p for j in range(12)] for i in range(10)]
        r = 0
        for c in range(12):
            pivot = next((i for i in range(r, 10) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [v * inv % p for v in rows[r]]
            for i in range(10):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
            r += 1
        rank += r
    return rank


# Expected values the oracles check.  Tests tamper with them to show that a
# wrong verdict is counted as failed.
ALBERT_DERIVATION_DIM = 52
PEIRCE_DIMS = (1, 16, 10)


# ---------------------------------------------------------------------------
# albert-cli: in-process CLI jobs on 27-dimensional files


class AlbertCli:
    """Rounds of `jordanalg` CLI calls on Albert files over GF(5) and GF(7).

    A round writes one file with `build albert -o` and then reads it with
    peirce, check, invert, derivations --sample, norm and divcheck; every
    read re-parses the file and replays its construction, as a separate
    CLI process would.  A round is one pass; at the seed commit it takes
    longer than the measuring window, so a run measures exactly one round.
    """

    name = "albert-cli"
    # Its numpy eliminations slow down less than pure-Python work in the
    # host's slow spells; over 13-15 two-round runs this loop's time followed
    # them best (interquartile range of throughput 3-6% of the median
    # after scaling, 12-14% before).  reference_s, the kernel's typical
    # time on the 2-vCPU guest the benchmark was written on, fixes the
    # unit of reference seconds only.
    reference = staticmethod(integer_loop)
    reference_s = 0.0115
    fields = (5, 7)
    kinds = ("build", "peirce", "check", "invert", "derivations", "norm", "divcheck")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)

    def passes(self):
        round_no = 0
        while True:
            yield self._round(round_no)
            round_no += 1

    def _round(self, round_no: int):
        rng = _rng(self.seed, self.name, round_no)
        p = rng.choice(self.fields)
        mus = [rng.randrange(1, p) for _ in range(3)]
        gammas = [rng.randrange(1, p) for _ in range(3)]
        path = os.path.join(self.workdir, f"round{round_no}.alg")
        mapfile = os.path.join(self.workdir, f"round{round_no}.map")
        slot = rng.randrange(1, 4)
        idem = f"e{slot}{slot}"
        coords = ",".join(str(rng.randrange(p)) for _ in range(27))
        sample_seed = rng.randrange(1, 10**6)
        state = {}

        def text(values):
            return ",".join(str(v) for v in values)

        def build():
            out = _cli(["build", "albert", "--field", f"GF:{p}", "--mu", text(mus),
                        "--gamma", text(gammas), "-o", path])
            _require(out == "", f"build printed {out!r}")
            with open(path, encoding="utf-8") as handle:
                head = handle.read(64)
            _require(head.startswith(f"field GF {p}\ndim 27\n"), "build wrote no 27-dim file")

        def peirce():
            out = _cli(["peirce", path, idem])
            dims = tuple(int(line.rsplit(" ", 1)[1]) for line in out.splitlines())
            _require(dims == PEIRCE_DIMS, f"peirce dims {dims} on {idem}")

        def check():
            out = _cli(["check", path, "--which", "jordan"])
            _require(out == "jordan: holds\n", f"check printed {out!r}")

        def invert():
            out = _cli(["invert", path, coords])
            if out.startswith("invertible: "):
                state["invertible"] = True
            else:
                _require(out == "not invertible, n(A) = 0\n", f"invert printed {out!r}")
                state["invertible"] = False

        def derivations():
            out = _cli(["derivations", path, "--sample", "--seed", str(sample_seed),
                        "-o", mapfile])
            _require(out == f"derivation space dimension {ALBERT_DERIVATION_DIM}\n",
                     f"derivations printed {out!r}")
            _require(os.path.getsize(mapfile) > 0, "no sampled map written")

        def norm():
            out = _cli(["norm", path, coords])
            _require(out.startswith("n(A) = "), f"norm printed {out!r}")
            nonzero = out.strip() != "n(A) = 0"
            if "invertible" in state:
                _require(nonzero == state["invertible"], "norm disagrees with invert")

        def divcheck():
            out = _cli(["divcheck", path, mapfile]).splitlines()
            _require(out[:2] == ["verdict: not_div", "method: albert_recipe"],
                     f"divcheck printed {out[:2]}")
            _require(any(line.startswith("witness: ") for line in out), "no witness printed")

        jobs = {"build": build, "peirce": peirce, "check": check, "invert": invert,
                "derivations": derivations, "norm": norm, "divcheck": divcheck}
        return [jobs[kind] for kind in self.kinds]


def _cli(argv: list[str]) -> str:
    """Run one CLI command in-process; its stdout, or JobFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = J.cli.main(argv)
    _require(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# spin-search: exhaustive searches over small diagonal spin factors


def _is_square(a: int, p: int) -> bool:
    return pow(a % p, (p - 1) // 2, p) == 1


# One job per entry and pass: (p, zero entries, nonzero entries, whether the
# two-vector criterion holds, or None where the shape decides it).  Shapes
# are fixed so that every pass costs about the same; the seed picks the
# nonzero entries and the order of the jobs in a pass.  Only shapes with at
# most 729 derivation candidates and well under a second of reductions at
# the seed commit are listed: GF(3) forms with dim V = 4 and GF(5)/GF(7)
# forms with dim V = 3 and hits pass the candidate cap but have 36-126 hits
# to reduce.  Sorted by time, seven shapes are cheaper than the GF(7) pair
# with hits and eight dearer; that pair is repeated five times so that the
# median job falls inside its group, and the GF(3) pair with hits (the
# split-null check) three times so that the slowest tenth of the jobs,
# which `job_tail_s` is taken from, falls inside that group.
SPIN_DECK = (
    (3, 0, 2, False),
    (3, 1, 2, False),
    (3, 2, 0, None),
    (5, 0, 2, False),
    (5, 0, 2, True),
    (7, 0, 2, False),
    (7, 1, 1, None),
    (7, 0, 2, True),
    (7, 0, 2, True),
    (7, 0, 2, True),
    (7, 0, 2, True),
    (7, 0, 2, True),
    (3, 0, 3, None),
    (3, 1, 2, True),
    (3, 2, 1, None),
    (5, 2, 0, None),
    (5, 1, 2, False),
    (3, 0, 2, True),
    (3, 0, 2, True),
    (3, 0, 2, True),
)
CANDIDATE_CAP = 729


def spin_form(rng: random.Random, p: int, zeros: int, nonzeros: int, holds) -> tuple:
    """A diagonal whose two-vector criterion outcome is `holds`: for two
    nonzero entries a, b it holds exactly when -b/a is a non-square.  The
    zeros come first: where they sit changes a search's cost up to
    twofold, which would make pass times depend on the seed."""
    while True:
        entries = [rng.randrange(1, p) for _ in range(nonzeros)]
        if holds is None or _is_square(-entries[1] * pow(entries[0], p - 2, p), p) != holds:
            break
    return (0,) * zeros + tuple(entries)


class SpinSearch:
    """Criterion, exhaustive search and reductions on seeded spin factors.

    Each job builds one diagonal spin factor and checks that
    `spin_div_criterion` agrees with `div_search`, reduces every hit with
    `div_reduction` (the quotient must be the spin factor of the form's
    nonzero entries and the induced map must keep invertible values), and,
    for GF(3) hits with dim V = 2, checks `largest_ideal_in_kernel` on the
    split-null extension against the `enumerate_ideals` oracle.  One more
    job per pass works over Q (`_rational_job`), so that the rational
    Leibniz system and rational inversion are measured too.
    """

    name = "spin-search"
    # The same kind of work as its own thousands of tiny eliminations,
    # so its time follows the host's speed as this workload's does
    # (interquartile range of 45 s throughput 1-4% of the median after
    # scaling, 16-28% before).
    reference = staticmethod(small_row_reductions)
    reference_s = 0.0074

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        pass

    def passes(self):
        pass_no = 0
        while True:
            rng = _rng(self.seed, self.name, pass_no)
            shapes = list(SPIN_DECK)
            rng.shuffle(shapes)
            jobs = [self._job(spin_form(rng, *shape), shape[0]) for shape in shapes]
            jobs.insert(rng.randrange(len(jobs) + 1), _rational_job(rng))
            yield jobs
            pass_no += 1

    def _job(self, diag, p):
        def job():
            field = J.prime_field(p)
            table = J.diagonal_spin_factor(field, diag)
            pair = J.spin_div_criterion(table.meta.gram)
            hits = J.div_search(table, tuple_cap=CANDIDATE_CAP)
            _require((pair is not None) == bool(hits),
                     f"diag{diag} over GF({p}): criterion {pair is not None}, "
                     f"search found {len(hits)} maps")
            if hits:
                reduced = J.diagonal_spin_factor(field, [d for d in diag if d])
            for hit in hits:
                result = J.div_reduction(table, hit.map)
                _require(result.quotient == reduced,
                         f"diag{diag}: quotient is not the reduced-form spin factor")
                report = J.has_invertible_values(result.quotient, result.induced)
                _require(report.verdict == "div", f"diag{diag}: induced map lost invertible values")
            if p == 3 and len(diag) == 2 and hits:
                _check_split_null(table, hits)

        return job


# The rational job: a nondegenerate diagonal form of this dimension, whose
# derivation algebra is so(V, f) of dimension n(n-1)/2, and this many
# random elements checked for norm vs inverse.
RATIONAL_DIM_V = 5
RATIONAL_ELEMENTS = 4


def _rational_job(rng: random.Random):
    """Over Q: the derivation space of a diagonal spin factor has dimension
    n(n-1)/2 and a sampled map is a derivation; for random elements the
    spin norm is nonzero exactly when `jordan_inverse` returns an inverse,
    and then x * y is the unit."""
    n = RATIONAL_DIM_V
    diag = [rng.choice((-1, 1)) * rng.randrange(1, 10) for _ in range(n)]
    coords = [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(RATIONAL_ELEMENTS)]
    sample_rng = random.Random(rng.randrange(10**9))

    def job():
        table = J.diagonal_spin_factor(J.RATIONALS, diag)
        space = J.derivation_space(table)
        _require(space.dim == n * (n - 1) // 2,
                 f"diag{tuple(diag)} over Q: derivation dimension {space.dim}")
        _require(J.is_derivation(table, J.sample_derivation(space, sample_rng)),
                 f"diag{tuple(diag)} over Q: sampled map is not a derivation")
        for values in coords:
            x = table.element(values)
            y = J.jordan_inverse(x)
            _require(bool(J.spin_norm(x)) == (y is not None),
                     f"diag{tuple(diag)} over Q: norm disagrees with invertibility")
            if y is not None:
                _require(x * y == table.one(), "x * inverse is not the unit")

    return job


def _check_split_null(base, hits):
    """On the split-null extension, the largest ideal inside the kernel of
    each hit's eps-extension must be the largest enumerated ideal there."""
    ext, radical = J.split_null_extension(base)
    ideals = J.enumerate_ideals(ext)
    for hit in hits:
        dmap = J.extend_derivation_eps(ext, hit.map)
        ideal = J.largest_ideal_in_kernel(ext, dmap)
        kernel = dmap.matrix.nullspace()
        oracle = max(
            (cand for cand in ideals
             if all(kernel.contains_vector(list(b)) for b in cand.basis)),
            key=lambda s: s.dim,
        )
        _require(ideal == oracle, f"kernel ideal dim {ideal.dim}, oracle says {oracle.dim}")
        _require(ideal == radical, "kernel ideal differs from the radical")


WORKLOADS = {w.name: w for w in (AlbertCli, SpinSearch)}
