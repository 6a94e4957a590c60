"""Command-line surface: validate, check, compute, verify.

Exit codes: 0 success/pass, 1 usage error (bad arguments, including an
operation the loaded sets do not admit and an --out path that cannot be
written), 2 load/validation error,
3 property/check failure.  Results go to stdout (or --out), diagnostics
to stderr.  Text reports print verdicts as plain PASS or FAIL.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bracket import bracket_product, bracket_product_oracle
from .cifset import (
    CIFSet,
    cif_sum,
    first_difference,
    image,
    intersection,
    is_cif_ideal,
    is_cif_subspace,
    is_direct_sum,
    is_homogeneous,
    is_z2_graded,
    pair_homogeneous,
    preimage,
    scalar_action,
)
from .generators import make_config
from .degrees import rat_str
from .jsonio import cifset_rows, emit_json, input_digest, report_payload
from .specfile import SpecError, Workspace, parse_spec
from .superalgebra import space_vectors, validate_map, validate_superalgebra
from .theorems import CATALOG, check_theorem, negative_controls

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LOAD = 2
EXIT_CHECK = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise UsageError(message)


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


@functools.cache
def build_parser() -> _Parser:
    # argparse keeps no state between parse_args calls, so one parser
    # serves every run_cli call in a process
    parser = _Parser(prog="ciflie", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="load a file and check all axioms")
    p_validate.add_argument("file")

    p_check = sub.add_parser("check", help="run a structural predicate")
    p_check.add_argument(
        "predicate",
        choices=["subspace", "ideal", "graded", "homogeneous", "direct-sum", "anti-hom"],
    )
    p_check.add_argument("file")
    p_check.add_argument("--name", required=True)
    p_check.add_argument("--with", dest="with_name")

    p_compute = sub.add_parser("compute", help="evaluate a set-level operation")
    p_compute.add_argument(
        "operation",
        choices=["sum", "scalar", "bracket", "image", "preimage", "intersection"],
    )
    p_compute.add_argument("file")
    p_compute.add_argument("--left", required=True)
    p_compute.add_argument("--right")
    p_compute.add_argument("--alpha", type=int)
    p_compute.add_argument("--map", dest="map_name")
    p_compute.add_argument("--oracle", action="store_true")
    p_compute.add_argument("--format", choices=["text", "json"], default="text")
    p_compute.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run a theorem-suite entry")
    p_verify.add_argument("theorem")
    p_verify.add_argument("file")
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--out")

    return parser


def _load(path: str) -> tuple[Workspace, bytes]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SpecError(0, f"cannot read '{path}': {exc}") from None
    text = data.decode("utf-8", errors="replace")
    return parse_spec(text), data


class InvalidWorkspace(Exception):
    """The file loaded, but a space or a map fails validation; the args
    are the problems, one stderr line each."""


def _workspace_reports(ws: Workspace, judged: str | None = None) -> dict:
    """'space NAME' / 'map NAME' -> its validation report, spaces first,
    save the one labelled ``judged`` (say 'map psi')."""
    reports = {f"space {n}": validate_superalgebra(a) for n, a in ws.algebras.items()}
    reports.update(
        {f"map {n}": validate_map(d.map) for n, d in ws.maps.items() if f"map {n}" != judged}
    )
    return reports


def _problems(reports: dict) -> list[str]:
    return [f"{label}: {f}" for label, rep in reports.items() for f in rep.failures]


def _load_valid(path: str, judged: str | None = None) -> tuple[Workspace, bytes]:
    """Load a file whose spaces and maps all validate, save the one
    labelled ``judged``, whose verdict the caller reports."""
    ws, data = _load(path)
    problems = _problems(_workspace_reports(ws, judged))
    if problems:
        raise InvalidWorkspace(*problems)
    return ws, data


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write '{out}': {exc}") from None
    else:
        sys.stdout.write(text)


def _cifset_text(A: CIFSet) -> str:
    lines = ["# vector | mem r w | non r w"]
    for note in A.notes:
        lines.append(f"# note: {note}")
    for v in space_vectors(A.space):
        d = A.table[v]
        coords = " ".join(str(c) for c in v)
        lines.append(
            f"{coords} | {rat_str(d.mem.r)} {rat_str(d.mem.w)}"
            f" | {rat_str(d.non.r)} {rat_str(d.non.w)}"
        )
    return "\n".join(lines) + "\n"


def _cmd_validate(args) -> int:
    ws, _ = _load(args.file)
    reports = _workspace_reports(ws)
    for name in sorted(ws.algebras):
        print(f"space {name}: {'valid' if reports[f'space {name}'].ok else 'INVALID'}")
    for name in sorted(ws.maps):
        rep = reports[f"map {name}"]
        surj = "surjective" if rep.surjective else "not surjective"
        print(f"map {name}: {'valid' if rep.ok else 'INVALID'} ({surj})")
    for name in sorted(ws.sets):
        print(f"cifset {name}: loaded on {ws.sets[name].space}")
    problems = _problems(reports)
    if problems:
        raise InvalidWorkspace(*problems)
    return EXIT_OK


def _require_set(ws: Workspace, name: str) -> CIFSet:
    if name not in ws.sets:
        raise SpecError(0, f"unknown cifset '{name}'")
    return ws.sets[name].cifset


def _require_map(ws: Workspace, name: str | None):
    if name is None:
        raise UsageError("this operation needs --map")
    if name not in ws.maps:
        raise SpecError(0, f"unknown map '{name}'")
    return ws.maps[name].map


# Looked up by name at call time, so a rebound function is the one run.
_PREDICATES = {
    "subspace": lambda A: is_cif_subspace(A),
    "ideal": lambda A: is_cif_ideal(A),
    "graded": lambda A: is_z2_graded(A),
}

_BINARY_OPS = {
    "sum": lambda A, B: cif_sum(A, B),
    "intersection": lambda A, B: intersection(A, B),
    "bracket": lambda A, B: bracket_product(A, B),
}

# The operations that read each option; given to any other, it is a usage error.
_READERS = {
    "with_name": ("--with", "homogeneous", "direct-sum"),
    "right": ("--right", "sum", "intersection", "bracket"),
    "alpha": ("--alpha", "scalar"),
    "map_name": ("--map", "image", "preimage"),
    "oracle": ("--oracle", "bracket"),
}


def _refuse_unread(args, op: str) -> None:
    for dest, (flag, *ops) in _READERS.items():
        value = vars(args).get(dest)  # --alpha 0 is given, so unset is tested by identity
        if op not in ops and value is not None and value is not False:
            listing = ", ".join(ops[:-1]) + " and " * (len(ops) > 1) + ops[-1]
            raise UsageError(f"{flag} applies to {listing} only")


def _cmd_check(args) -> int:
    pred = args.predicate
    _refuse_unread(args, pred)
    judged = f"map {args.name}" if pred == "anti-hom" else None
    ws, _ = _load_valid(args.file, judged)
    if pred == "anti-hom":
        # the anti condition is tested whatever kind the map declares
        rep = validate_map(replace(_require_map(ws, args.name), kind="anti"))
        surj = "surjective" if rep.surjective else "not surjective"
        print(f"anti-hom {args.name}: {_verdict(rep.ok)} ({surj})")
        for failure in rep.failures:
            print(failure, file=sys.stderr)
        return EXIT_OK if rep.ok else EXIT_CHECK
    A = _require_set(ws, args.name)
    B = _require_set(ws, args.with_name) if args.with_name else None
    if pred == "direct-sum":
        if B is None:
            raise UsageError("direct-sum needs --with")
        ok = is_direct_sum(A, B)
        print(f"direct-sum {args.name},{args.with_name}: {_verdict(ok)}")
        return EXIT_OK if ok else EXIT_CHECK
    if pred == "homogeneous":
        rep = pair_homogeneous(A, B) if B is not None else is_homogeneous(A)
    else:
        rep = _PREDICATES[pred](A)
    label = f"{pred} {args.name}" + (f",{args.with_name}" if B is not None else "")
    print(f"{label}: {_verdict(rep.ok)}")
    if not rep.ok:
        print(rep.witness, file=sys.stderr)
    return EXIT_OK if rep.ok else EXIT_CHECK


def _cmd_compute(args) -> int:
    op = args.operation
    _refuse_unread(args, op)
    ws, data = _load_valid(args.file)
    A = _require_set(ws, args.left)
    if op in _BINARY_OPS:
        if args.right is None:
            raise UsageError(f"{op} needs --right")
        B = _require_set(ws, args.right)
        result = _BINARY_OPS[op](A, B)
        if args.oracle:
            diff = first_difference(result, bracket_product_oracle(A, B))
            if diff is not None:
                print(
                    f"oracle mismatch at vector {diff}: ladder and coset oracle disagree",
                    file=sys.stderr,
                )
                return EXIT_CHECK
    elif op == "scalar":
        if args.alpha is None:
            raise UsageError("scalar needs --alpha")
        result = scalar_action(args.alpha, A)
    elif op == "image":
        result = image(_require_map(ws, args.map_name), A)
    else:  # preimage
        result = preimage(_require_map(ws, args.map_name), A)

    if args.format == "json":
        arg_block = {"left": args.left}
        if args.right is not None:
            arg_block["right"] = args.right
        if args.alpha is not None:
            arg_block["alpha"] = args.alpha
        if args.map_name is not None:
            arg_block["map"] = args.map_name
        payload = {
            "tool": "ciflie",
            "version": __version__,
            "input_digest": input_digest(data),
            "operation": op,
            "args": arg_block,
            "oracle_checked": args.oracle,
            "notes": list(result.notes),
            "result": cifset_rows(result),
        }
        _emit(emit_json(payload), args.out)
    else:
        _emit(_cifset_text(result), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    ws, data = _load_valid(args.file)
    theorem = args.theorem
    known = set(CATALOG) | {"neg-controls"}
    if theorem not in known:
        raise UsageError(
            f"unknown theorem id '{theorem}'; known: {', '.join(sorted(known))}"
        )
    if not ws.algebras:
        raise UsageError(f"'{args.file}' declares no space, so there is nothing to verify")
    runs = []
    all_passed = True
    for name in sorted(ws.algebras):
        cfg = make_config(args.seed, ws.algebras[name])
        if theorem == "neg-controls":
            report = negative_controls(cfg, trials=args.trials)
        else:
            report = check_theorem(theorem, cfg, args.trials)
        all_passed = all_passed and report.passed
        runs.append((name, report))
    if args.format == "json":
        payload = {
            "tool": "ciflie",
            "version": __version__,
            "input_digest": input_digest(data),
            "theorem": theorem,
            "seed": args.seed,
            "trials": args.trials,
            "runs": [
                {"space": name, **report_payload(report)} for name, report in runs
            ],
            "passed": all_passed,
        }
        _emit(emit_json(payload), args.out)
    else:
        lines = []
        for name, report in runs:
            lines.append(
                f"{theorem} on {name}: {_verdict(report.passed)} "
                f"({report.trials} trials, {len(report.failures)} failures)"
            )
            if report.note:
                lines.append(f"  note: {report.note}")
            for failure in report.failures[:5]:
                lines.append(f"  seed {failure.seed}: {failure.witness}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_passed else EXIT_CHECK


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "compute":
            return _cmd_compute(args)
        return _cmd_verify(args)
    except (UsageError, ValueError) as exc:
        # A file that loaded but whose sets an operation refuses (say,
        # sets on different spaces) is a usage error, not a load error.
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecError as exc:
        print(f"load error: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except InvalidWorkspace as exc:
        for problem in exc.args:
            print(problem, file=sys.stderr)
        return EXIT_LOAD


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
