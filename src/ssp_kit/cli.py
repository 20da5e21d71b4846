"""Command-line interface.

Exit codes: 0 separated / success, 1 not separated (or a failed check),
2 undecided within budget, 3 usage errors, 4 malformed inputs, 5 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import formats
from .core import InternalCheckFailed, SspKitError, type_name
from .engine import (
    DEFAULT_MAX_NODES,
    AtomStatus,
    Decision,
    decide_ssp,
    solve_atom,
)

# Each subcommand imports classify, reductions or verify only when it runs, so
# check-ssp loads just formats, core and engine.  The parser's help therefore
# spells out the values of reductions.ExtensionKind and verify.SUITES' keys.
_EXTENSION_KINDS = ("backward", "oneway-loop", "loop")
_SUITE_NAMES = (
    "interactions", "classification", "fixtures", "engine", "reductions", "fast-path",
)

EXIT_SEPARATED = 0
EXIT_NOT_SEPARATED = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        raise _UsageError(message)


def _budget(text: str) -> int:
    """A node budget: an integer >= 0, in decimal digits."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not an integer >= 0: {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ssp-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="row and complexity of a type")
    p.add_argument("type", help="comma-separated interactions, e.g. nop,inp")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-ssp", help="decide separation for a system file")
    p.add_argument("file")
    p.add_argument("--type", required=True, dest="type_spec")
    p.add_argument("--budget", type=_budget, default=DEFAULT_MAX_NODES,
                   help="node budget per pair")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve-atom", help="separate one pair of states")
    p.add_argument("file")
    p.add_argument("--type", required=True, dest="type_spec")
    p.add_argument("--atom", required=True, help="'<state>,<state>'")
    p.add_argument("--budget", type=_budget, default=DEFAULT_MAX_NODES)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="generate a hardness instance")
    p.add_argument("flavor", choices=["nop-inp", "nop-free"])
    p.add_argument("formula", help="file with three variable names per line")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--json", action="store_true",
                   help="print metadata as JSON")

    p = sub.add_parser("transform", help="extend a loop-free system")
    p.add_argument("file")
    p.add_argument("--kind", required=True,
                   choices=_EXTENSION_KINDS)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("witness", help="witness regions for an instance")
    p.add_argument("flavor", choices=["nop-inp", "nop-free"])
    p.add_argument("formula")
    p.add_argument("--model", default=None,
                   help="comma-separated variables; defaults to the oracle")
    p.add_argument("--alpha-only", action="store_true",
                   help="emit only the designated-pair region (nop-free)")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("oracle", help="exact-cover model of a formula")
    p.add_argument("formula")

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("suites", nargs="*", metavar="suite",
                   help=f"subset of: {', '.join(_SUITE_NAMES)}")

    p = sub.add_parser("dot", help="render a system file as DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")

    return parser


def _read_text(path: str) -> str:
    """The text of ``path``, or of stdin for ``-``, without a leading
    byte-order mark, which editors on some systems write at the start of
    UTF-8 files."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise SspKitError(f"{path}: not UTF-8 text: {exc}") from None
    return text.removeprefix("\ufeff")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _decision_exit(decision: Decision) -> int:
    return {
        Decision.HAS_SSP: EXIT_SEPARATED,
        Decision.LACKS_SSP: EXIT_NOT_SEPARATED,
        Decision.UNKNOWN: EXIT_UNDECIDED,
    }[decision]


def _cmd_classify(args) -> int:
    from .classify import classify_type

    tau = formats.parse_type_spec(args.type)
    cls = classify_type(tau)
    if args.json:
        print(json.dumps({
            "type": type_name(tau),
            "row": cls.row,
            "complexity": cls.complexity.value,
        }, sort_keys=True))
    else:
        shown = type_name(tau) or "(empty)"
        print(f"{shown}: row {cls.row}, {cls.complexity.value}")
    return EXIT_SEPARATED


def _cmd_check_ssp(args) -> int:
    ts = formats.parse_ts_text(_read_text(args.file))
    tau = formats.parse_type_spec(args.type_spec)
    report = decide_ssp(ts, tau, budget=args.budget)
    if args.json:
        sys.stdout.write(formats.report_to_json(report))
    else:
        print(f"decision: {report.decision.value}")
        if report.witness_atom:
            print(f"witness atom: {report.witness_atom[0]},{report.witness_atom[1]}")
        print(
            f"atoms checked: {report.stats.atoms_checked}, "
            f"nodes: {report.stats.nodes_expanded}, "
            f"regions: {len(report.regions)}"
        )
    return _decision_exit(report.decision)


def _cmd_solve_atom(args) -> int:
    ts = formats.parse_ts_text(_read_text(args.file))
    tau = formats.parse_type_spec(args.type_spec)
    atom = formats.parse_atom(args.atom, ts)
    verdict = solve_atom(ts, tau, atom, budget=args.budget)
    if args.json:
        payload = {
            "status": verdict.status.value,
            "nodes": verdict.nodes,
            "revisions": verdict.revisions,
            "region": (
                formats.region_to_dict(verdict.region)
                if verdict.region
                else None
            ),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"status: {verdict.status.value} (nodes: {verdict.nodes})")
        if verdict.region is not None:
            payload = formats.region_to_dict(verdict.region)
            print(f"support: {payload['support']}")
            print(f"signature: {payload['signature']}")
    return {
        AtomStatus.SOLVED: EXIT_SEPARATED,
        AtomStatus.UNSOLVABLE: EXIT_NOT_SEPARATED,
        AtomStatus.EXHAUSTED: EXIT_UNDECIDED,
    }[verdict.status]


def _generate(flavor: str, formula):
    from .reductions import gen_nop_free, gen_nop_inp

    if flavor == "nop-inp":
        return gen_nop_inp(formula)
    return gen_nop_free(formula)


def _cmd_gen(args) -> int:
    formula = formats.parse_formula_text(_read_text(args.formula))
    inst = _generate(args.flavor, formula)
    _write_text(args.output, formats.serialize_ts(inst.ts))
    meta = {
        "flavor": args.flavor,
        "clauses": formula.m,
        "states": len(inst.ts.states),
        "events": len(inst.ts.events),
        "edges": len(inst.ts.edges),
        "alpha": list(inst.alpha),
    }
    if args.json:
        print(json.dumps(meta, sort_keys=True), file=sys.stderr)
    else:
        print(
            f"{args.flavor}: {meta['states']} states, {meta['events']} events, "
            f"{meta['edges']} edges; designated pair "
            f"{inst.alpha[0]},{inst.alpha[1]}",
            file=sys.stderr,
        )
    return EXIT_SEPARATED


def _cmd_transform(args) -> int:
    from .reductions import ExtensionKind, extend

    ts = formats.parse_ts_text(_read_text(args.file))
    kind = ExtensionKind(args.kind)
    _write_text(args.output, formats.serialize_ts(extend(ts, kind)))
    return EXIT_SEPARATED


def _cmd_witness(args) -> int:
    from .reductions import (
        cm_oracle,
        gen_nop_free_alpha_region,
        gen_nop_free_witness,
        gen_nop_inp_witness,
    )

    formula = formats.parse_formula_text(_read_text(args.formula))
    if args.model is not None:
        model: tuple[str, ...] = tuple(
            part.strip() for part in args.model.split(",") if part.strip()
        )
    else:
        found = cm_oracle(formula)
        if found is None:
            print("formula has no exact-cover model", file=sys.stderr)
            return EXIT_NOT_SEPARATED
        model = found
    if args.alpha_only:
        if args.flavor != "nop-free":
            raise _UsageError("--alpha-only applies to the nop-free flavor")
        regions = [gen_nop_free_alpha_region(formula, model)]
    elif args.flavor == "nop-inp":
        regions = gen_nop_inp_witness(formula, model)
    else:
        regions = gen_nop_free_witness(formula, model)
    payload = {
        "flavor": args.flavor,
        "model": list(model),
        "regions": [formats.region_to_dict(r) for r in regions],
    }
    _write_text(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_SEPARATED


def _cmd_oracle(args) -> int:
    from .reductions import cm_oracle

    formula = formats.parse_formula_text(_read_text(args.formula))
    model = cm_oracle(formula)
    if model is None:
        print("unsatisfiable")
        return EXIT_NOT_SEPARATED
    print(" ".join(model))
    return EXIT_SEPARATED


def _cmd_verify(args) -> int:
    from .verify import run_suites

    try:
        results = run_suites(args.suites or None)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from exc
    failed = 0
    for result in results:
        mark = "PASS" if result.ok else "FAIL"
        extra = f" ({result.detail})" if result.detail else ""
        print(f"{mark} {result.name}{extra}")
        if not result.ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_SEPARATED if failed == 0 else EXIT_NOT_SEPARATED


def _cmd_dot(args) -> int:
    ts = formats.parse_ts_text(_read_text(args.file))
    _write_text(args.output, formats.ts_to_dot(ts))
    return EXIT_SEPARATED


_HANDLERS = {
    "classify": _cmd_classify,
    "check-ssp": _cmd_check_ssp,
    "solve-atom": _cmd_solve_atom,
    "gen": _cmd_gen,
    "transform": _cmd_transform,
    "witness": _cmd_witness,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "dot": _cmd_dot,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckFailed as exc:
        # a failed self-check is the program's fault, not the input's
        fault: Exception = exc
    except (SspKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        fault = exc
    # a crash is not an answer: keep it off the decision exit codes
    print(f"internal error: {type(fault).__name__}: {fault}", file=sys.stderr)
    return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
