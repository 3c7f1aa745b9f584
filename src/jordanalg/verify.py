"""Named end-to-end checks behind the command line's verify-paper command.

Each check rebuilds its own inputs from scratch (shared constructions
are memoized per run), decides pass/fail/unknown, and reports a
one-line detail string.  Detail strings are fully determined by the
seed so that two runs with the same seed print identical reports;
wall-clock timings are collected separately and never enter the
report body.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field as dataclass_field

from .algebra import (
    AlgebraTable,
    LinearMap,
    check_identity,
    invert_element,
    split_null_extension,
)
from .constructions import (
    albert_type,
    cayley_dickson,
    diagonal_spin_factor,
    matrix_algebra,
    plus_algebra,
)
from .derivations import (
    albert_div_witness,
    construct_spin_div,
    derivation_space,
    div_reduction,
    div_search,
    enumerate_ideals,
    extend_derivation_eps,
    has_invertible_values,
    inner_assoc_derivation,
    is_derivation,
    largest_ideal_in_kernel,
    sample_derivation,
    spin_div_criterion,
)
from .errors import BadParameters, RecipeFailure, certify
from .fields import RATIONALS, prime_field
from .formats import read_algebra, write_algebra
from .jordan import albert_norm, jordan_inverse, peirce_frame, peirce_single, spin_norm
from .linalg import Subspace, combine_raw

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str


@dataclass
class SuiteResult:
    seed: int
    cap: int
    checks: list[CheckResult]
    timings: dict[str, float] = dataclass_field(default_factory=dict)

    def count(self, status: str) -> int:
        return sum(1 for c in self.checks if c.status == status)

    @property
    def failed(self) -> bool:
        return self.count(FAIL) > 0


class _Run:
    """Memoized constructions shared by several checks of one run."""

    def __init__(self, seed: int, cap: int):
        self.seed = seed
        self.cap = cap
        self._memo: dict = {}

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")

    def _get(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def albert(self, field):
        return self._get(
            ("albert", field), lambda: albert_type(field, [-1, -1, -1], [1, 1, 1])
        )

    def octonions(self):
        return self._get("oct", lambda: cayley_dickson(RATIONALS, [-1, -1, -1])[0])

    def m2_gf3(self):
        def build():
            scalars = AlgebraTable(F3, 1, {(0, 0, 0): 1}, labels=("s",), unit=[1])
            return matrix_algebra(scalars, 2)

        return self._get("m2", build)

    def spin_gf3_div(self):
        """The dim-3 spin factor over GF(3) together with its constructed
        invertible-values derivation."""

        def build():
            table = diagonal_spin_factor(F3, [1, 1])
            pair = spin_div_criterion(table.meta.gram, point_cap=self.cap)
            certify(pair is not None, "criterion must hold for GF(3) diag(1,1)")
            return table, construct_spin_div(table, *pair, point_cap=self.cap)

        return self._get("spin3div", build)

    def gf3_form_records(self):
        """One record per diagonal form over GF(3) with dim V <= 3:
        (diag, criterion pair or None, full div_search hit list)."""

        def build():
            records = []
            for nv in range(1, 4):
                for diag in itertools.product(range(3), repeat=nv):
                    table = diagonal_spin_factor(F3, diag)
                    pair = spin_div_criterion(table.meta.gram, point_cap=self.cap)
                    hits = div_search(table, tuple_cap=self.cap, point_cap=self.cap)
                    records.append((diag, table, pair, hits))
            return records

        return self._get("gf3forms", build)

    def matrix_pairs(self):
        """The matrix algebra M2(GF(3)) and its symmetrized copy, each
        with the inner derivation by e12 + 2 e21."""

        def build():
            m2 = self.m2_gf3()
            a = m2.element([0, 1, 2, 0])
            inner = inner_assoc_derivation(m2, a)
            sym = plus_algebra(m2)
            return (m2, inner), (sym, LinearMap(sym, inner.matrix))

        return self._get("matrixpairs", build)

    def div_examples(self, *, nondegenerate: bool = False):
        """Every (table, derivation) pair this suite certifies as having
        invertible values: the constructed spin maps over GF(3) and the
        two matrix-algebra maps.  With `nondegenerate`, sweep hits on
        forms with a zero diagonal entry are dropped: the zero directions
        span a nonzero ideal inside every kernel, so only nondegenerate
        forms can have a trivial kernel ideal."""
        pairs = [self.spin_gf3_div()]
        for diag, table, _, hits in self.gf3_form_records():
            if not (nondegenerate and 0 in diag):
                pairs.extend((table, hit.map) for hit in hits)
        pairs.extend(self.matrix_pairs())
        return pairs


def _check_identity_plus_m2(run: _Run):
    sym = plus_algebra(matrix_algebra(
        AlgebraTable(F5, 1, {(0, 0, 0): 1}, labels=("s",), unit=[1]), 2
    ))
    if check_identity(sym, "jordan"):
        return PASS, "symmetrized 2x2 matrix algebra over GF(5) satisfies the jordan identity"
    return FAIL, "symmetrized 2x2 matrix algebra over GF(5) violates the jordan identity"


def _check_identity_spin_sweep(run: _Run):
    count = 0
    for p in (3, 5):
        field = prime_field(p)
        for nv in range(1, 5):
            for diag in itertools.product(range(p), repeat=nv):
                table = diagonal_spin_factor(field, diag)
                if not check_identity(table, "jordan"):
                    text = ",".join(str(d) for d in diag)
                    return FAIL, f"diag({text}) over GF({p}) violates the jordan identity"
                count += 1
    return PASS, f"{count} diagonal spin factors over GF(3) and GF(5) pass the jordan identity"


def _check_identity_albert(run: _Run):
    for field, label in ((F5, "GF(5)"), (F7, "GF(7)"), (RATIONALS, "Q")):
        table = run.albert(field)
        if not check_identity(table, "jordan"):
            return FAIL, f"27-dim hermitian algebra over {label} violates the jordan identity"
    return PASS, "27-dim hermitian algebras over GF(5), GF(7) and Q pass the jordan identity"


def _check_octonion_noncommutative(run: _Run):
    if check_identity(run.octonions(), "commutative"):
        return FAIL, "octonion table is commutative"
    return PASS, "octonion table fails commutativity as it must"


def _check_derivation_dims_spin(run: _Run):
    got = []
    for n in range(2, 6):
        table = diagonal_spin_factor(F5, [1] * n)
        got.append(derivation_space(table).dim)
    want = [n * (n - 1) // 2 for n in range(2, 6)]
    if got != want:
        return FAIL, f"spin derivation dims {got} differ from {want}"
    return PASS, f"spin factors with form dims 2..5 give derivation dims {got}"


def _check_derivation_dims_octonion(run: _Run):
    dim = derivation_space(run.octonions()).dim
    if dim != 14:
        return FAIL, f"octonion derivation space has dim {dim}, expected 14"
    return PASS, "octonion derivation space has dim 14"


def _check_derivation_dims_albert(run: _Run):
    for field, label in ((F5, "GF(5)"), (F7, "GF(7)")):
        dim = derivation_space(run.albert(field)).dim
        if dim != 52:
            return FAIL, f"hermitian algebra over {label} gives derivation dim {dim}, expected 52"
    return PASS, "27-dim hermitian algebras over GF(5) and GF(7) give derivation dim 52"


def _check_spin_div_gf3(run: _Run):
    table, dmap = run.spin_gf3_div()
    if not is_derivation(table, dmap):
        return FAIL, "constructed map violates the Leibniz rule"
    image = dmap.matrix.column_space()
    if image.dim != 2:
        return FAIL, f"constructed map has image dim {image.dim}, expected 2"
    bad = 0
    for coeffs in itertools.product(range(3), repeat=2):
        vec = combine_raw(table.field, coeffs, image.basis)
        if any(vec) and invert_element(table.element(vec)) is None:
            bad += 1
    report = has_invertible_values(table, dmap, point_cap=run.cap)
    if bad or report.verdict != "div" or report.method != "exhaustive":
        return FAIL, (
            f"image check found {bad} non-invertible values, "
            f"classifier said {report.verdict} by {report.method}"
        )
    return PASS, "all 9 image vectors over GF(3) diag(1,1) are invertible or zero"


def _check_spin_div_gf5_negative(run: _Run):
    table = diagonal_spin_factor(F5, [1, 1])
    pair = spin_div_criterion(table.meta.gram, point_cap=run.cap)
    hits = div_search(table, tuple_cap=run.cap, point_cap=run.cap)
    if pair is not None:
        return FAIL, "two-vector criterion unexpectedly holds over GF(5) diag(1,1)"
    if hits:
        return FAIL, f"search found {len(hits)} invertible-values derivations, expected none"
    return PASS, "criterion fails and all 5 derivation candidates over GF(5) diag(1,1) are rejected"


def _check_spin_criterion_search_agreement(run: _Run):
    records = run.gf3_form_records()
    for diag, _, pair, hits in records:
        if (pair is not None) != bool(hits):
            text = ",".join(str(d) for d in diag)
            return FAIL, (
                f"diag({text}) over GF(3): criterion says {pair is not None}, "
                f"search found {len(hits)} maps"
            )
    return PASS, f"criterion and exhaustive search agree on all {len(records)} GF(3) forms with dim V <= 3"


def _albert_witness_batch(run: _Run, field, label: str, count: int):
    table = run.albert(field)
    space = derivation_space(table)
    rng = run.rng(f"albert-witness-{label}")
    for index in range(count):
        dmap = sample_derivation(space, rng)
        try:
            witness = albert_div_witness(table, dmap)
        except RecipeFailure as exc:
            return FAIL, f"sample {index} over {label}: recipe failed ({exc})"
        if witness is None:
            return FAIL, f"sample {index} over {label}: no witness for a nonzero derivation"
        value = dmap.apply(witness)
        if value.is_zero():
            return FAIL, f"sample {index} over {label}: witness value is zero"
        if albert_norm(value) != 0:
            return FAIL, f"sample {index} over {label}: witness value has nonzero norm"
        if jordan_inverse(value) is not None:
            return FAIL, f"sample {index} over {label}: witness value is invertible"
    return PASS, f"{count} sampled derivations over {label} all yield norm-zero non-invertible values"


def _check_albert_witness_gf5(run: _Run):
    return _albert_witness_batch(run, F5, "GF(5)", 100)


def _check_albert_witness_rational(run: _Run):
    return _albert_witness_batch(run, RATIONALS, "Q", 25)


def _check_albert_norm_invertibility(run: _Run):
    total = 0
    for field, label, count in ((F5, "GF(5)", 500), (F7, "GF(7)", 500)):
        table = run.albert(field)
        rng = run.rng(f"albert-norm-{label}")
        for index in range(count):
            x = table.element([rng.randrange(field.p) for _ in range(27)])
            if bool(albert_norm(x)) != (jordan_inverse(x) is not None):
                return FAIL, f"element {index} over {label}: cubic norm disagrees with invertibility"
            total += 1
    return PASS, f"cubic norm matches invertibility on {total} elements over GF(5) and GF(7)"


def _check_spin_norm_invertibility(run: _Run):
    batches = [
        (diagonal_spin_factor(F5, [1, 2]), "GF(5)", 400, lambda r: r.randrange(5)),
        (diagonal_spin_factor(F7, [3, 1, 2]), "GF(7)", 300, lambda r: r.randrange(7)),
        (diagonal_spin_factor(RATIONALS, [1, -1]), "Q", 300, lambda r: r.randint(-9, 9)),
    ]
    total = 0
    for table, label, count, draw in batches:
        rng = run.rng(f"spin-norm-{label}")
        for index in range(count):
            x = table.element([draw(rng) for _ in range(table.dim)])
            if bool(spin_norm(x)) != (jordan_inverse(x) is not None):
                return FAIL, f"element {index} over {label}: spin norm disagrees with invertibility"
            total += 1
    return PASS, f"spin norm matches invertibility on {total} elements over GF(5), GF(7) and Q"


def _check_peirce_single(run: _Run):
    table = run.albert(F5)
    e = table.element(table.meta.idempotents[0])
    one, half, zero = peirce_single(e)
    dims = (one.dim, half.dim, zero.dim)
    if dims != (1, 16, 10):
        return FAIL, f"eigenspace dims {dims} differ from (1, 16, 10)"
    return PASS, "first diagonal idempotent splits the space into dims (1, 16, 10)"


def _check_peirce_frame(run: _Run):
    table = run.albert(F5)
    frame = peirce_frame(table)
    dims = tuple(frame[key].dim for key in sorted(frame))
    if dims != (1, 8, 8, 1, 8, 1):
        return FAIL, f"frame component dims {dims} differ from (1, 8, 8, 1, 8, 1)"
    for key in sorted(frame):
        if frame[key] != table.meta.peirce[key]:
            return FAIL, f"component {key} differs from the construction labels"
    return PASS, "frame components have dims (1,1,1,8,8,8) and equal the construction labels"


def _check_inner_div_matrix_pair(run: _Run):
    m2 = run.m2_gf3()
    sym = plus_algebra(m2)
    found = []
    for coords in itertools.product(range(3), repeat=4):
        a = m2.element(coords)
        dmap = inner_assoc_derivation(m2, a)
        if not any(any(row) for row in dmap.matrix.rows):
            continue
        if has_invertible_values(m2, dmap, point_cap=run.cap).verdict == "div":
            found.append(coords)
    if (0, 1, 2, 0) not in found:
        return FAIL, "inner derivation by e12 + 2 e21 was not classified as invertible-values"
    (m2, inner), (sym, sym_map) = run.matrix_pairs()
    if has_invertible_values(sym, sym_map, point_cap=run.cap).verdict != "div":
        return FAIL, "the same map loses invertible values on the symmetrized algebra"
    for coords in itertools.product(range(3), repeat=4):
        assoc_inv = invert_element(m2.element(coords)) is not None
        jordan_inv = jordan_inverse(sym.element(coords)) is not None
        if assoc_inv != jordan_inv:
            return FAIL, f"invertibility disagrees at coordinates {coords}"
    return PASS, (
        f"{len(found)} of 81 inner maps have invertible values, "
        "e12 + 2 e21 among them, and invertibility transfers to the symmetrized algebra"
    )


def _check_reduction_simple(run: _Run):
    pairs = run.div_examples(nondegenerate=True)
    for table, dmap in pairs:
        ideal = largest_ideal_in_kernel(table, dmap)
        if ideal.dim != 0:
            return FAIL, f"kernel of a dim-{table.dim} example hides an ideal of dim {ideal.dim}"
        result = div_reduction(table, dmap, point_cap=run.cap)
        if result.quotient != table or result.induced.matrix != dmap.matrix:
            return FAIL, f"reduction changed a dim-{table.dim} example with trivial kernel ideal"
    return PASS, f"all {len(pairs)} invertible-values examples on nondegenerate forms reduce to themselves"


def _check_reduction_degenerate_forms(run: _Run):
    f = F3
    count = 0
    for diag, table, _, hits in run.gf3_form_records():
        if 0 not in diag or not hits:
            continue
        zero_dirs = [table.basis_element(i + 1).coords for i, d in enumerate(diag) if d == 0]
        radical = Subspace(f, table.dim, zero_dirs)
        reduced = diagonal_spin_factor(f, [d for d in diag if d])
        for hit in hits:
            ideal = largest_ideal_in_kernel(table, hit.map)
            if ideal != radical:
                return FAIL, (
                    f"kernel ideal on diag{diag} has dim {ideal.dim}, "
                    f"expected the form radical of dim {radical.dim}"
                )
            result = div_reduction(table, hit.map, point_cap=run.cap)
            if result.quotient != reduced:
                return FAIL, f"quotient on diag{diag} is not the reduced-form spin factor"
            if has_invertible_values(result.quotient, result.induced, point_cap=run.cap).verdict != "div":
                return FAIL, f"induced map on diag{diag} lost invertible values"
            count += 1
    return PASS, (
        f"{count} maps on degenerate GF(3) forms all reduce by exactly the "
        "form radical onto the reduced-form spin factor"
    )


def _check_reduction_splitnull(run: _Run):
    base, base_map = run.spin_gf3_div()
    ext, radical = split_null_extension(base)
    dmap = extend_derivation_eps(ext, base_map)
    ideal = largest_ideal_in_kernel(ext, dmap)
    kernel = dmap.matrix.nullspace()
    contained = [
        cand
        for cand in enumerate_ideals(ext, point_cap=run.cap)
        if all(kernel.contains_vector(list(b)) for b in cand.basis)
    ]
    oracle = max(contained, key=lambda s: s.dim)
    if ideal != oracle:
        return FAIL, (
            f"largest kernel ideal has dim {ideal.dim}, "
            f"enumeration oracle says dim {oracle.dim}"
        )
    if ideal != radical:
        return FAIL, "largest kernel ideal differs from the radical"
    result = div_reduction(ext, dmap, point_cap=run.cap)
    if result.quotient != base:
        return FAIL, "quotient by the radical does not reproduce the base table"
    if not is_derivation(result.quotient, result.induced):
        return FAIL, "induced map on the quotient violates the Leibniz rule"
    return PASS, (
        "kernel ideal of the dim-6 extension matches the enumeration oracle "
        "and quotienting recovers the base table"
    )


def _check_div_kills_ideals(run: _Run):
    pairs = run.div_examples()
    zero_maps = 0
    for table, dmap in pairs:
        for ideal in enumerate_ideals(table, point_cap=run.cap):
            if ideal.dim == table.dim:
                continue
            for vec in ideal.basis:
                if any(dmap.matrix.apply(list(vec))):
                    return FAIL, (
                        f"a derivation with invertible values moves a "
                        f"proper ideal of dim {ideal.dim}"
                    )
            zero_maps += 1
    return PASS, (
        f"derivations with invertible values kill all {zero_maps} proper ideals "
        "across the GF(3) examples"
    )


def _check_file_roundtrip(run: _Run):
    base, _ = run.spin_gf3_div()
    ext, _ = split_null_extension(base)
    tables = [
        base,
        ext,
        run.albert(F5),
        run.octonions(),
        plus_algebra(run.m2_gf3()),
    ]
    for table in tables:
        text = write_algebra(table)
        again = read_algebra(text)
        if write_algebra(again) != text or again != table:
            return FAIL, f"round trip altered a dim-{table.dim} table"
    return PASS, f"{len(tables)} algebra files survive write, read, write byte-identically"


def _check_spin_rational_open_form(run: _Run):
    table = diagonal_spin_factor(RATIONALS, [1, -2])
    pair = spin_div_criterion(table.meta.gram, point_cap=run.cap)
    if pair is None:
        return FAIL, "two-vector criterion should hold for diag(1,-2) over Q"
    dmap = construct_spin_div(table, *pair, point_cap=run.cap)
    report = has_invertible_values(table, dmap, point_cap=run.cap)
    if report.verdict == "not_div":
        return FAIL, "diag(1,-2) over Q admits no isotropic vector, yet one was claimed"
    if report.verdict == "div":
        return PASS, "indefinite rational form was certified anisotropic"
    return UNKNOWN, "anisotropy of the indefinite form diag(1,-2) over Q is undecided at desk scale"


CHECKS: tuple[tuple[str, object], ...] = (
    ("identity-plus-m2", _check_identity_plus_m2),
    ("identity-spin-sweep", _check_identity_spin_sweep),
    ("identity-albert", _check_identity_albert),
    ("octonion-noncommutative", _check_octonion_noncommutative),
    ("derivation-dims-spin", _check_derivation_dims_spin),
    ("derivation-dims-octonion", _check_derivation_dims_octonion),
    ("derivation-dims-albert", _check_derivation_dims_albert),
    ("spin-div-gf3", _check_spin_div_gf3),
    ("spin-div-gf5-negative", _check_spin_div_gf5_negative),
    ("spin-criterion-search-agreement", _check_spin_criterion_search_agreement),
    ("albert-witness-gf5", _check_albert_witness_gf5),
    ("albert-witness-rational", _check_albert_witness_rational),
    ("albert-norm-invertibility", _check_albert_norm_invertibility),
    ("spin-norm-invertibility", _check_spin_norm_invertibility),
    ("peirce-single", _check_peirce_single),
    ("peirce-frame", _check_peirce_frame),
    ("inner-div-matrix-pair", _check_inner_div_matrix_pair),
    ("reduction-simple", _check_reduction_simple),
    ("reduction-degenerate-forms", _check_reduction_degenerate_forms),
    ("reduction-splitnull", _check_reduction_splitnull),
    ("div-kills-ideals", _check_div_kills_ideals),
    ("file-roundtrip", _check_file_roundtrip),
    ("spin-rational-open-form", _check_spin_rational_open_form),
)


def check_names() -> list[str]:
    return [name for name, _ in CHECKS]


def run_suite(seed: int = 1, cap: int = 10**6, only: str | None = None) -> SuiteResult:
    if only is not None and only not in check_names():
        raise BadParameters(f"unknown check {only!r}; choose from {', '.join(check_names())}")
    run = _Run(seed, cap)
    results = []
    timings = {}
    for name, fn in CHECKS:
        if only is not None and name != only:
            continue
        start = time.perf_counter()
        try:
            status, detail = fn(run)
        except Exception as exc:  # a crashed check is a failed check
            status, detail = FAIL, f"check crashed: {type(exc).__name__}: {exc}"
        timings[name] = time.perf_counter() - start
        results.append(CheckResult(name, status, detail))
    return SuiteResult(seed=seed, cap=cap, checks=results, timings=timings)
