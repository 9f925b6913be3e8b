"""Command-line front end: read ideals, dispatch computations, emit reports.

This module holds only argument parsing, the commands and their JSON and
text encoders; parsing, random generation and the invariants cross-check
are library code. Exit codes: 0 success, 1 user error, 2 size cap
exceeded, 3 internal oracle disagreement. JSON output carries a stable
versioned schema whose envelope `_emit` alone writes; the default output
is a compact human-readable report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .cancellation import (
    Deterministic,
    EliminationOutcome,
    Scripted,
    SeededRandom,
    check_theorem71_hypothesis,
    eliminate_face_facet_pairs,
    minimize_generic,
)
from .dominance import (
    classify,
    is_complete_intersection,
    is_generic,
    random_ideal_of_class,
)
from .invariants import (
    InvariantsReport,
    invariants_with_cross_check,
    is_scarf,
    scarf_complex,
    scarf_face_counts,
)

# The benchmark reads cli.parse_ideal and cli.random_ideal and, for its
# negative control, replaces cli.build_taylor, so all three stay names here.
from .monomials import (
    CapExceededError,
    IdealError,
    IdealSpec,
    Monomial,
    MonomialIdeal,
    parse_ideal,
    random_ideal,  # noqa: F401
)
from .taylor import (
    Face,
    Resolution,
    build_taylor,
    lcm_lattice,
    repeated_multidegree_classes,
)
from .verify import (
    OracleDisagreementError,
    _check_betti_by_lcm,
    compose_check,
    minimality_check,
    strand_exactness,
    strands_all_exact,
)

JSON_SCHEMA_VERSION = 1

# Sampling compares each drawn monomial with every generator kept so far,
# so the random command compares about count * vars * gens^2 exponents.
RANDOM_WORK_CAP = 10**6


# ---------------------------------------------------------------------------
# JSON encoding


def monomial_json(m: Monomial) -> dict:
    return {"exponents": list(m.exponents), "display": str(m)}


def ideal_json(ideal: MonomialIdeal) -> dict:
    return {
        "variables": list(ideal.vars.names),
        "generators": [monomial_json(g) for g in ideal.generators],
        "display": str(ideal),
    }


def face_json(face: Face) -> list[int]:
    return list(face.members)


def matrix_json(res: Resolution, degree: int) -> dict:
    triplets = [
        [ri, ci, entry.scalar.numerator, entry.scalar.denominator]
        + [list(entry.monomial.exponents)]
        for (ri, ci), entry in sorted(res.diffs[degree].entries.items())
    ]
    return {
        "rows": [face_json(f) for f in res.modules[degree - 1]],
        "cols": [face_json(f) for f in res.modules[degree]],
        "entries": triplets,
    }


def trail_json(res: Resolution) -> list[dict]:
    return [
        {
            "sigma": face_json(event.sigma),
            "tau": face_json(event.tau),
            "pivot": [event.pivot_scalar.numerator, event.pivot_scalar.denominator],
            "strategy": event.strategy_tag,
        }
        for event in res.trail
    ]


def resolution_json(res: Resolution, full: bool = False) -> dict:
    out = {
        "ranks": list(res.ranks()),
        "modules": [[face_json(f) for f in module] for module in res.modules],
        "trail": trail_json(res),
    }
    if full:
        out["differentials"] = [None] + [
            matrix_json(res, degree) for degree in range(1, res.top + 1)
        ]
    return out


def face_str(face: Face, ideal: MonomialIdeal) -> str:
    if not face.members:
        return "[]"
    return "[" + ",".join(str(ideal.generators[i]) for i in face.members) + "]"


# ---------------------------------------------------------------------------
# Commands


def _load_spec(args) -> IdealSpec:
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise IdealError(f"{args.file} is not UTF-8 text: {exc}")
    else:
        text = args.ideal
        if text is None:
            raise IdealError("an ideal is required (positional argument or --file)")
    return parse_ideal(text, strict=getattr(args, "strict", False))


def _emit(
    args,
    ideal: MonomialIdeal | None,
    payload: dict,
    lines: list[str],
    warnings: list[str],
) -> None:
    """Print a command's report: JSON schema 1, or text after warnings.

    The envelope (schema, warnings, command name and, for the commands
    that read one, the ideal) is written here and nowhere else.
    """
    if ideal is not None:
        payload = {"ideal": ideal_json(ideal), **payload}
        lines = [f"ideal: {ideal}", *lines]
    if args.json:
        envelope = {"schema": JSON_SCHEMA_VERSION, "warnings": warnings}
        print(json.dumps({**envelope, "command": args.command, **payload}))
    else:
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        for line in lines:
            print(line)


def cmd_classify(args, ideal: MonomialIdeal, warnings: list[str]) -> int:
    report = classify(ideal)
    generic = is_generic(ideal)
    complete_intersection = is_complete_intersection(ideal)
    dominant = [
        sorted(ideal.vars.names[v] for v in dom) for _, dom in report.per_generator
    ]
    payload = {
        "p": report.p,
        "class": report.class_label,
        "nondominant_indices": list(report.nondominant_indices),
        "per_generator": [
            {
                "index": i,
                "monomial": monomial_json(ideal.generators[i]),
                "dominant_variables": names,
            }
            for i, names in enumerate(dominant)
        ],
        "generic": generic,
        "complete_intersection": complete_intersection,
    }
    lines = [f"class: {report.class_label} (p={report.p})"]
    for i, names in enumerate(dominant):
        shown = ", ".join(names) or "-"
        lines.append(f"  generator {i}: {ideal.generators[i]}  dominant: {shown}")
    lines.append(f"generic: {generic}")
    lines.append(f"complete intersection: {complete_intersection}")
    _emit(args, ideal, payload, lines, warnings)
    return 0


def cmd_taylor(args, ideal: MonomialIdeal, warnings: list[str]) -> int:
    res = build_taylor(ideal)
    classes = repeated_multidegree_classes(res)
    lattice = lcm_lattice(ideal)
    payload = {
        **resolution_json(res, full=args.full),
        "repeated_multidegrees": [
            {
                "multidegree": monomial_json(mdeg),
                "faces": [face_json(f) for f in faces],
            }
            for mdeg, faces in classes.items()
        ],
        "lcm_lattice_size": len(lattice.monomials),
        "lcm_lattice_boolean": lattice.is_boolean,
    }
    lines = [
        f"taylor ranks: {list(res.ranks())}",
        f"lcm lattice: {len(lattice.monomials)} elements,"
        f" boolean={lattice.is_boolean}",
        f"repeated multidegrees: {len(classes)}",
    ]
    for mdeg, faces in classes.items():
        shown = " ".join(face_str(f, ideal) for f in faces)
        lines.append(f"  {mdeg}: {shown}")
    if args.full:
        for degree in range(1, res.top + 1):
            matrix = res.diffs[degree]
            rows, cols = res.modules[degree - 1], res.modules[degree]
            lines.append(f"differential {degree}: {matrix.nnz()} entries")
            for (ri, ci), entry in sorted(matrix.entries.items()):
                lines.append(
                    f"  [{ri},{ci}] = {entry.scalar} * {entry.monomial}"
                    f"  ({face_str(rows[ri], ideal)} <- {face_str(cols[ci], ideal)})"
                )
    _emit(args, ideal, payload, lines, warnings)
    return 0


def _parse_strategy(text: str):
    if text == "deterministic":
        return Deterministic()
    if text.startswith("random:"):
        seed_text = text.split(":", 1)[1]
        try:
            return SeededRandom(int(seed_text))
        except ValueError:
            raise IdealError(f"strategy seed must be an integer, got {seed_text!r}")
    if text.startswith("script:"):
        path = text.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                pairs = json.load(handle)
            return Scripted(pairs)
        # json raises RecursionError on deeply nested arrays.
        except (ValueError, RecursionError) as exc:
            raise IdealError(f"bad script file {path}: {exc}")
    raise IdealError(
        f"unknown strategy {text!r}; use deterministic, random:<seed>,"
        " or script:<file>"
    )


def cmd_minimize(args, ideal: MonomialIdeal, warnings: list[str]) -> int:
    strategy = _parse_strategy(args.strategy)
    outcome: EliminationOutcome = eliminate_face_facet_pairs(
        build_taylor(ideal), strategy
    )
    res = outcome.resolution
    generic_payload = resolution_json(minimize_generic(res)) if args.generic else None
    payload = {
        "strategy": args.strategy,
        "status": outcome.status,
        "stuck_witness": (
            None
            if outcome.stuck_witness is None
            else [face_json(f) for f in outcome.stuck_witness]
        ),
        **resolution_json(res),
        "generic_phase": generic_payload,
    }
    lines = [
        f"strategy: {args.strategy}",
        f"status: {outcome.status}",
        f"ranks: {list(res.ranks())}",
        f"cancellations: {len(res.trail)}",
    ]
    for event in res.trail:
        lines.append(
            f"  cancelled {face_str(event.sigma, ideal)} /"
            f" {face_str(event.tau, ideal)}"
            f"  pivot {event.pivot_scalar}  ({event.strategy_tag})"
        )
    if outcome.stuck_witness is not None:
        shown = " ".join(face_str(f, ideal) for f in outcome.stuck_witness)
        lines.append(f"stuck witness: {shown}")
    if generic_payload is not None:
        lines.append(f"generic fallback ranks: {generic_payload['ranks']}")
    _emit(args, ideal, payload, lines, warnings)
    return 0


def cmd_scarf(args, ideal: MonomialIdeal, warnings: list[str]) -> int:
    faces = scarf_complex(ideal)
    counts = scarf_face_counts(ideal)
    scarf = is_scarf(ideal)
    payload = {
        "faces": [face_json(f) for f in faces],
        "counts": list(counts),
        "is_scarf": scarf,
    }
    lines = [
        f"scarf face counts: {list(counts)}",
        "faces: " + " ".join(face_str(f, ideal) for f in faces),
        f"is_scarf: {scarf}",
    ]
    _emit(args, ideal, payload, lines, warnings)
    return 0


def cmd_invariants(args, ideal: MonomialIdeal, warnings: list[str]) -> int:
    both = invariants_with_cross_check(ideal)
    closed = both["closed_form"]
    derived = both["derived"]
    report = closed if closed is not None else derived

    def report_json(r: InvariantsReport | None):
        if r is None:
            return None
        return {
            "betti": list(r.betti),
            "pd": r.pd,
            "reg": r.reg,
            "sources": dict(r.sources),
        }

    payload = {
        **report_json(report),
        "closed_form": report_json(closed),
        "from_resolution": report_json(derived),
        "agree": True,
    }
    lines = [
        f"betti: {list(report.betti)}",
        f"pd: {report.pd}",
        f"reg: {report.reg}",
        f"source: {report.source_of('betti')}",
    ]
    if closed is not None:
        lines.append("closed-form and resolution-derived values agree")
    _emit(args, ideal, payload, lines, warnings)
    return 0


def cmd_verify(args, ideal: MonomialIdeal, warnings: list[str]) -> int:
    taylor = build_taylor(ideal)
    minimal = minimize_generic(taylor)

    def section(res: Resolution) -> dict:
        reports = strand_exactness(res, ideal)
        return {
            "compose": compose_check(res),
            "strands_exact": strands_all_exact(reports),
            "strand_failures": [
                {
                    "multidegree": monomial_json(r.multidegree),
                    "degree": r.failure_degree,
                }
                for r in reports
                if not r.exact
            ],
            "minimal": minimality_check(res),
            "ranks": list(res.ranks()),
        }

    taylor_report = section(taylor)
    minimal_report = section(minimal)
    payload = {"taylor": taylor_report, "minimized": minimal_report}
    lines = [
        f"taylor:    compose={taylor_report['compose']}"
        f" strands={taylor_report['strands_exact']}"
        f" minimal={taylor_report['minimal']} ranks={taylor_report['ranks']}",
        f"minimized: compose={minimal_report['compose']}"
        f" strands={minimal_report['strands_exact']}"
        f" minimal={minimal_report['minimal']} ranks={minimal_report['ranks']}",
    ]
    _emit(args, ideal, payload, lines, warnings)
    if not (
        taylor_report["compose"]
        and taylor_report["strands_exact"]
        and minimal_report["compose"]
        and minimal_report["strands_exact"]
        and minimal_report["minimal"]
    ):
        raise OracleDisagreementError("verification failed; see report")
    _check_betti_by_lcm(minimal, ideal)
    return 0


def cmd_t71_check(args, ideal: MonomialIdeal, warnings: list[str]) -> int:
    report = check_theorem71_hypothesis(ideal)
    payload = {
        "holds": report.holds,
        "violations": [
            {
                "tau": face_json(tau),
                "sigma": face_json(sigma),
                "other_facet": face_json(other),
            }
            for tau, sigma, other in report.violations
        ],
    }
    lines = [f"hypothesis holds: {report.holds}"]
    for tau, sigma, other in report.violations:
        lines.append(
            f"  violation: facet {face_str(tau, ideal)} of"
            f" {face_str(sigma, ideal)}; sibling facet {face_str(other, ideal)}"
            " shares the multidegree"
        )
    _emit(args, ideal, payload, lines, warnings)
    return 0


def cmd_random(args) -> int:
    if args.count < 1:
        raise IdealError(f"count must be at least 1, got {args.count}")
    work = args.count * args.vars * args.gens**2
    if args.vars > 0 and args.gens > 0 and work > RANDOM_WORK_CAP:
        raise CapExceededError(
            f"random supports count * vars * gens^2 of at most {RANDOM_WORK_CAP}"
        )
    rng = random.Random(args.seed)
    ideals = [
        random_ideal_of_class(rng, args.vars, args.gens, args.max_exp, args.cls)
        for _ in range(args.count)
    ]
    payload = {
        "seed": args.seed,
        "class": args.cls,
        "count": args.count,
        "vars": args.vars,
        "gens": args.gens,
        "max_exp": args.max_exp,
        "ideals": [ideal_json(ideal) for ideal in ideals],
    }
    lines = [str(ideal) for ideal in ideals]
    _emit(args, None, payload, lines, [])
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for caps only
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message, 1))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _add_ideal_arguments(sub) -> None:
    sub.add_argument("ideal", nargs="?", help="generators, e.g. 'x^2, x*y, y^3'")
    sub.add_argument("--file", help="read the ideal from a file instead")
    sub.add_argument("--strict", action="store_true",
                     help="reject non-minimal input instead of warning")
    sub.add_argument("--json", action="store_true", help="emit JSON")


# Every command but random reads one ideal: name -> (command, help), in
# help order.
_IDEAL_COMMANDS = {
    "classify": (cmd_classify, "dominance classification"),
    "taylor": (cmd_taylor, "build the Taylor resolution"),
    "minimize": (cmd_minimize, "eliminate face/facet pairs of equal multidegree"),
    "scarf": (cmd_scarf, "Scarf complex and Scarf test"),
    "invariants": (cmd_invariants, "Betti numbers, projective dimension, regularity"),
    "verify": (cmd_verify, "exactness and minimality oracles"),
    "t71-check": (cmd_t71_check, "arbitrary-order elimination hypothesis check"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="monores",
                     description="Taylor resolutions of monomial ideals")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in _IDEAL_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_ideal_arguments(p)
    sub.choices["taylor"].add_argument(
        "--full", action="store_true", help="dump the sparse matrices"
    )
    sub.choices["minimize"].add_argument(
        "--strategy", default="deterministic",
        help="deterministic | random:<seed> | script:<file>",
    )
    sub.choices["minimize"].add_argument(
        "--generic", action="store_true",
        help="finish with the generic minimizer (rescues stuck states)",
    )

    p = sub.add_parser("random", help="generate random ideals")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--max-exp", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class", dest="cls", default="any",
                   choices=["dominant", "semi1", "semi2", "any"])
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.command == "random":
            return cmd_random(args)
        command, _ = _IDEAL_COMMANDS[args.command]
        spec = _load_spec(args)
        return command(args, spec.ideal, spec.warnings)
    except CapExceededError as exc:
        return _fail(str(exc), 2)
    except OracleDisagreementError as exc:
        return _fail(f"internal oracle disagreement: {exc}", 3)
    except (IdealError, OSError) as exc:
        return _fail(str(exc), 1)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
