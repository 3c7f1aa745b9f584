"""Command-line interface.

Exit codes: 0 when a computation completed (whatever its verdict),
2 for unreadable input or unusable parameters, 3 when a mathematical
precondition fails (the library error name is echoed).  verify-paper
additionally exits 1 when a suite check fails.

JSON reports share one schema: command, inputs, verdict, witness,
method, timings.  The timings value is always null so that repeated
runs with the same seed stay byte-identical; wall-clock numbers go to
stderr in text mode instead.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .algebra import (
    AlgebraTable,
    Element,
    check_identity,
    invert_element,
    split_null_extension,
)
from .constructions import (
    AlbertMeta,
    CDMeta,
    SpinMeta,
    albert_type,
    cayley_dickson,
    cd_norm,
    diagonal_spin_factor,
    hermitian_subalgebra,
    matrix_algebra,
    plus_algebra,
    spin_factor,
)
from .derivations import (
    derivation_space,
    div_reduction,
    div_search,
    has_invertible_values,
    sample_derivation,
    spin_div_criterion,
)
from .errors import AlgebraError, BadParameters, NoDerivations, ParseError
from .fields import parse_field
from .formats import (
    format_element,
    parse_element,
    read_algebra,
    read_map,
    write_algebra,
    write_map,
)
from .jordan import albert_norm, peirce_single, spin_norm
from .linalg import Matrix
from .verify import check_names, run_suite


def _load_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_table(path: str) -> AlgebraTable:
    return read_algebra(_load_text(path))


def _load_map(path: str, table: AlgebraTable):
    return read_map(_load_text(path), table)


def _element_arg(table: AlgebraTable, text: str) -> Element:
    if table.labels and text in table.labels:
        return table.basis_element(table.labels.index(text))
    return parse_element(table, text)


def _scalars(field, text: str, what: str) -> list:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ParseError(f"empty {what} list")
    return [field.parse_raw(p) for p in parts]


def _coords_text(field, vec) -> str:
    return ",".join(field.format_raw(c) for c in vec)


def _emit(args, *, command, inputs, verdict, witness=None, method=None,
          lines=(), artifact=None, extra=None):
    """Print one report; write the artifact text to -o when given."""
    if artifact is not None and args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(artifact)
        except OSError as exc:
            raise BadParameters(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    if getattr(args, "json", False):
        payload = {
            "command": command,
            "inputs": inputs,
            "verdict": verdict,
            "witness": witness,
            "method": method,
            "timings": None,
        }
        if extra:
            payload.update(extra)
        print(json.dumps(payload, indent=2))
        return
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# build


def _build_table(args) -> tuple[AlgebraTable, dict]:
    family = args.family
    if family == "spin":
        field = parse_field(args.field)
        if (args.diag is None) == (args.gram is None):
            raise BadParameters("spin takes exactly one of --diag or --gram")
        if args.diag is not None:
            diag = _scalars(field, args.diag, "diagonal")
            return diagonal_spin_factor(field, diag), {
                "field": args.field, "diag": args.diag,
            }
        rows = [_scalars(field, row, "form row") for row in args.gram.split(";")]
        if any(len(r) != len(rows) for r in rows):
            raise BadParameters("form matrix must be square")
        return spin_factor(Matrix(field, rows)), {
            "field": args.field, "gram": args.gram,
        }
    if family == "cd":
        field = parse_field(args.field)
        mus = _scalars(field, args.mu, "doubling scalar")
        if args.stages is not None and args.stages != len(mus):
            raise BadParameters("--stages disagrees with the number of --mu scalars")
        table, _ = cayley_dickson(field, mus)
        return table, {"field": args.field, "mu": args.mu}
    if family == "matn":
        try:
            coeff_field = parse_field(args.coeff)
        except ParseError:
            coeff = _load_table(args.coeff)
        else:
            coeff = AlgebraTable(
                coeff_field, 1, {(0, 0, 0): 1}, labels=("s",), unit=[1]
            )
        return matrix_algebra(coeff, args.n), {"n": args.n, "coeff": args.coeff}
    if family == "plus":
        return plus_algebra(_load_table(args.file)), {"file": args.file}
    if family == "hermitian":
        table = _load_table(args.file)
        sigma = _load_map(args.inv, table)
        sub, _ = hermitian_subalgebra(table, sigma)
        return sub, {"file": args.file, "inv": args.inv}
    if family == "albert":
        field = parse_field(args.field)
        mus = _scalars(field, args.mu, "doubling scalar")
        gammas = _scalars(field, args.gamma, "gamma scalar")
        if len(mus) != 3 or len(gammas) != 3:
            raise BadParameters("albert takes three --mu and three --gamma scalars")
        return albert_type(field, mus, gammas), {
            "field": args.field, "mu": args.mu, "gamma": args.gamma,
        }
    if family == "extend":
        table = _load_table(args.file)
        shift = table.field.parse_raw(args.shift)
        ext, _ = split_null_extension(table, shift)
        return ext, {"file": args.file, "shift": args.shift}
    raise BadParameters(f"unknown build family {family!r}")


def _cmd_build(args) -> int:
    table, inputs = _build_table(args)
    text = write_algebra(table)
    _emit(
        args,
        command="build",
        inputs=inputs,
        verdict="built",
        witness=text,
        method=args.family,
        lines=() if args.output else text.splitlines(),
        artifact=text,
    )
    return 0


# ---------------------------------------------------------------------------
# single-verdict commands


def _cmd_check(args) -> int:
    table = _load_table(args.file)
    verdict = "holds" if check_identity(table, args.which) else "fails"
    _emit(
        args,
        command="check",
        inputs={"file": args.file, "which": args.which},
        verdict=verdict,
        lines=[f"{args.which}: {verdict}"],
    )
    return 0


def _cmd_derivations(args) -> int:
    table = _load_table(args.file)
    space = derivation_space(table)
    sample_text = None
    lines = [f"derivation space dimension {space.dim}"]
    if args.sample:
        if space.dim == 0:
            raise NoDerivations("no nonzero derivations exist")
        dmap = sample_derivation(space, random.Random(args.seed))
        sample_text = write_map(dmap)
        if not args.output:
            lines.extend(sample_text.splitlines())
    _emit(
        args,
        command="derivations",
        inputs={"file": args.file, "seed": args.seed if args.sample else None},
        verdict=str(space.dim),
        witness={"dim": space.dim, "sample": sample_text},
        lines=lines,
        artifact=sample_text,
    )
    return 0


def _cmd_divcheck(args) -> int:
    table = _load_table(args.file)
    dmap = _load_map(args.mapfile, table)
    report = has_invertible_values(table, dmap, point_cap=args.cap)
    lines = [
        f"verdict: {report.verdict}",
        f"method: {report.method}",
        f"kernel dim {report.kernel.dim}, image dim {report.image.dim}",
    ]
    witness = None
    if report.witness is not None:
        value = dmap.apply(report.witness)
        witness = {
            "element": format_element(report.witness),
            "value": format_element(value),
        }
        lines.append(f"witness: {witness['element']} -> {witness['value']}")
    if report.note:
        lines.append(f"note: {report.note}")
        witness = dict(witness or {}, note=report.note)
    _emit(
        args,
        command="divcheck",
        inputs={"file": args.file, "map": args.mapfile, "cap": args.cap},
        verdict=report.verdict,
        witness=witness,
        method=report.method,
        lines=lines,
    )
    return 0


def _cmd_divsearch(args) -> int:
    table = _load_table(args.file)
    hits = div_search(table, tuple_cap=args.cap, point_cap=args.cap)
    lines = [f"{len(hits)} DIV derivations"]
    maps = []
    for hit in hits:
        maps.append(write_map(hit.map))
        lines.append("")
        lines.extend(maps[-1].splitlines())
    _emit(
        args,
        command="divsearch",
        inputs={"file": args.file, "cap": args.cap},
        verdict=f"{len(hits)} DIV derivations",
        witness={"count": len(hits), "maps": maps},
        method="exhaustive",
        lines=lines,
    )
    return 0


def _cmd_reduce(args) -> int:
    table = _load_table(args.file)
    dmap = _load_map(args.mapfile, table)
    result = div_reduction(table, dmap, point_cap=args.cap)
    quotient_text = write_algebra(result.quotient)
    induced_text = write_map(result.induced)
    lines = [
        f"kernel ideal dim {result.ideal.dim}",
        f"quotient dim {result.quotient.dim}",
        "induced map:",
    ]
    lines.extend(induced_text.splitlines())
    _emit(
        args,
        command="reduce",
        inputs={"file": args.file, "map": args.mapfile, "cap": args.cap},
        verdict=f"ideal dim {result.ideal.dim}",
        witness={
            "ideal_dim": result.ideal.dim,
            "quotient": quotient_text,
            "induced": induced_text,
        },
        lines=lines,
        artifact=quotient_text,
    )
    return 0


def _norm_of(table: AlgebraTable, x: Element):
    """The construction's norm form, chosen by metadata: the cubic norm,
    the spin norm or the doubling norm."""
    if isinstance(table.meta, AlbertMeta):
        return "n(A)", albert_norm(x)
    if isinstance(table.meta, SpinMeta):
        return "N(x)", spin_norm(x)
    if isinstance(table.meta, CDMeta):
        return "n(x)", cd_norm(x)
    raise BadParameters(
        "the table was not built by spin, cd or albert; no norm form is attached"
    )


def _cmd_invert(args) -> int:
    table = _load_table(args.file)
    x = _element_arg(table, args.element)
    inverse = invert_element(x)
    if inverse is not None:
        verdict = "invertible"
        witness = format_element(inverse)
        lines = [f"invertible: {witness}"]
    else:
        verdict = "not invertible"
        witness = None
        try:
            name, value = _norm_of(table, x)
        except BadParameters:
            lines = [verdict]
        else:
            rendered = table.field.format_raw(value.value)
            witness = {name: rendered}
            lines = [f"not invertible, {name} = {rendered}"]
    _emit(
        args,
        command="invert",
        inputs={"file": args.file, "element": args.element},
        verdict=verdict,
        witness=witness,
        lines=lines,
    )
    return 0


def _cmd_norm(args) -> int:
    table = _load_table(args.file)
    x = _element_arg(table, args.element)
    name, value = _norm_of(table, x)
    rendered = table.field.format_raw(value.value)
    _emit(
        args,
        command="norm",
        inputs={"file": args.file, "element": args.element},
        verdict=rendered,
        method=name,
        lines=[f"{name} = {rendered}"],
    )
    return 0


def _cmd_peirce(args) -> int:
    table = _load_table(args.file)
    e = _element_arg(table, args.element)
    one, half, zero = peirce_single(e)
    _emit(
        args,
        command="peirce",
        inputs={"file": args.file, "element": args.element},
        verdict=f"dims ({one.dim}, {half.dim}, {zero.dim})",
        witness={"1": one.dim, "1/2": half.dim, "0": zero.dim},
        lines=[
            f"eigenvalue 1: dim {one.dim}",
            f"eigenvalue 1/2: dim {half.dim}",
            f"eigenvalue 0: dim {zero.dim}",
        ],
    )
    return 0


def _cmd_spincriterion(args) -> int:
    field = parse_field(args.field)
    diag = _scalars(field, args.diag, "diagonal")
    table = diagonal_spin_factor(field, diag)
    pair = spin_div_criterion(table.meta.gram, point_cap=args.cap)
    if pair is None:
        verdict = "not satisfied"
        witness = None
        lines = ["criterion not satisfied"]
    else:
        witness = {
            "x": _coords_text(field, pair[0]),
            "y": _coords_text(field, pair[1]),
        }
        verdict = "satisfied"
        lines = [f"criterion satisfied: x = {witness['x']} ; y = {witness['y']}"]
    _emit(
        args,
        command="spincriterion",
        inputs={"field": args.field, "diag": args.diag, "cap": args.cap},
        verdict=verdict,
        witness=witness,
        lines=lines,
    )
    return 0


# ---------------------------------------------------------------------------
# the suite


def _cmd_verify_paper(args) -> int:
    result = run_suite(seed=args.seed, cap=args.cap, only=args.only)
    counts = {
        "pass": result.count("pass"),
        "fail": result.count("fail"),
        "unknown": result.count("unknown"),
    }
    verdict = "fail" if result.failed else "pass"
    width = max(len(c.name) for c in result.checks) if result.checks else 1
    lines = [f"verify-paper seed={args.seed} cap={args.cap}"]
    checks_payload = []
    for check in result.checks:
        repro = f"jordanalg verify-paper --seed {args.seed} --only {check.name}"
        row = f"{check.name:<{width}}  {check.status:<7}  {check.detail}"
        if check.status != "pass":
            row += f"  [repro: {repro}]"
        lines.append(row)
        checks_payload.append(
            {
                "name": check.name,
                "status": check.status,
                "detail": check.detail,
                "repro": repro,
            }
        )
    lines.append(
        f"SUMMARY checks={len(result.checks)} pass={counts['pass']} "
        f"fail={counts['fail']} unknown={counts['unknown']}"
    )
    _emit(
        args,
        command="verify-paper",
        inputs={"seed": args.seed, "cap": args.cap, "only": args.only},
        verdict=verdict,
        witness=counts,
        method="suite",
        lines=lines,
        extra={"checks": checks_payload},
    )
    for name, seconds in result.timings.items():
        print(f"# {name} {seconds:.2f}s", file=sys.stderr)
    return 1 if result.failed else 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanalg",
        description="Structure-constant algebras, derivations and invertible-value checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")
    common.add_argument("-o", "--output", metavar="FILE", help="write the artifact to FILE")

    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=10**6, help="enumeration cap")

    build = sub.add_parser("build", help="construct an algebra file")
    build_sub = build.add_subparsers(dest="family", required=True)
    spin = build_sub.add_parser("spin", parents=[common])
    spin.add_argument("--field", required=True)
    spin.add_argument("--diag", help="comma-separated diagonal form entries")
    spin.add_argument("--gram", help="semicolon-separated rows of the form matrix")
    cd = build_sub.add_parser("cd", parents=[common])
    cd.add_argument("--field", required=True)
    cd.add_argument("--mu", required=True, help="one to three doubling scalars")
    cd.add_argument("--stages", type=int)
    matn = build_sub.add_parser("matn", parents=[common])
    matn.add_argument("--n", type=int, required=True)
    matn.add_argument("--coeff", required=True, help="field spec or algebra file")
    plus = build_sub.add_parser("plus", parents=[common])
    plus.add_argument("file")
    hermitian = build_sub.add_parser("hermitian", parents=[common])
    hermitian.add_argument("file")
    hermitian.add_argument("--inv", required=True, metavar="MAPFILE")
    albert = build_sub.add_parser("albert", parents=[common])
    albert.add_argument("--field", required=True)
    albert.add_argument("--mu", required=True)
    albert.add_argument("--gamma", required=True)
    extend = build_sub.add_parser("extend", parents=[common])
    extend.add_argument("file")
    extend.add_argument("--shift", default="0")
    for family_parser in (spin, cd, matn, plus, hermitian, albert, extend):
        family_parser.set_defaults(handler=_cmd_build)

    check = sub.add_parser("check", parents=[common], help="test a product identity")
    check.add_argument("file")
    check.add_argument(
        "--which",
        default="jordan",
        choices=("jordan", "commutative", "associative"),
    )
    check.set_defaults(handler=_cmd_check)

    derivations = sub.add_parser(
        "derivations", parents=[common], help="dimension of the derivation space"
    )
    derivations.add_argument("file")
    derivations.add_argument("--sample", action="store_true", help="emit one random derivation")
    derivations.add_argument("--seed", type=int, default=1)
    derivations.set_defaults(handler=_cmd_derivations)

    divcheck = sub.add_parser(
        "divcheck", parents=[common, capped], help="classify one derivation's values"
    )
    divcheck.add_argument("file")
    divcheck.add_argument("mapfile")
    divcheck.set_defaults(handler=_cmd_divcheck)

    divsearch = sub.add_parser(
        "divsearch", parents=[common, capped],
        help="classify every derivation over a finite field",
    )
    divsearch.add_argument("file")
    divsearch.set_defaults(handler=_cmd_divsearch)

    reduce_cmd = sub.add_parser(
        "reduce", parents=[common, capped], help="quotient out the largest kernel ideal"
    )
    reduce_cmd.add_argument("file")
    reduce_cmd.add_argument("mapfile")
    reduce_cmd.set_defaults(handler=_cmd_reduce)

    invert = sub.add_parser("invert", parents=[common], help="invert one element")
    invert.add_argument("file")
    invert.add_argument("element", help="coordinates or a basis label")
    invert.set_defaults(handler=_cmd_invert)

    norm = sub.add_parser("norm", parents=[common], help="norm form of one element")
    norm.add_argument("file")
    norm.add_argument("element")
    norm.set_defaults(handler=_cmd_norm)

    peirce = sub.add_parser(
        "peirce", parents=[common], help="eigenspace dims of an idempotent"
    )
    peirce.add_argument("file")
    peirce.add_argument("element")
    peirce.set_defaults(handler=_cmd_peirce)

    spincrit = sub.add_parser(
        "spincriterion", parents=[common, capped],
        help="two-vector test for a diagonal form",
    )
    spincrit.add_argument("--field", required=True)
    spincrit.add_argument("--diag", required=True)
    spincrit.set_defaults(handler=_cmd_spincriterion)

    verify = sub.add_parser(
        "verify-paper", parents=[common, capped], help="run the named check suite"
    )
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--only", metavar="NAME", help=f"one of: {', '.join(check_names())}")
    verify.set_defaults(handler=_cmd_verify_paper)

    return parser


_VALUE_FLAGS = ("--mu", "--gamma", "--diag", "--gram", "--shift")


def _fuse_negative_values(argv: list[str]) -> list[str]:
    """Join scalar-list flags with their values so that entries like
    -1,-1,-1 are not mistaken for options."""
    fused = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            fused.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            fused.append(token)
    return fused


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_fuse_negative_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.handler(args)
    except (ParseError, BadParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
