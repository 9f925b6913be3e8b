"""Command-line front end: parse ideals, dispatch computations, emit reports.

Exit codes: 0 success, 1 user error, 2 size cap exceeded, 3 internal
oracle disagreement. JSON output carries a stable versioned schema; the
default output is a compact human-readable report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from .cancellation import (
    Deterministic,
    EliminationOutcome,
    Scripted,
    SeededRandom,
    check_theorem71_hypothesis,
    eliminate_face_facet_pairs,
    minimize_generic,
)
from .dominance import classify, is_complete_intersection, is_generic
from .invariants import (
    InvariantsReport,
    betti_dominant,
    invariants_from_resolution,
    invariants_semidominant,
    is_scarf,
    scarf_complex,
    scarf_face_counts,
)
from .monomials import (
    MAX_EXPONENT,
    CapExceededError,
    IdealError,
    Monomial,
    MonomialIdeal,
    VariableSet,
    minimalize,
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
    compose_check,
    minimality_check,
    strand_exactness,
    strands_all_exact,
)

JSON_SCHEMA_VERSION = 1


class ParseError(IdealError):
    """Ideal text that does not parse; carries the failing offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position


@dataclass
class IdealSpec:
    """Parsed ideal plus its source text and any normalization warnings."""

    source: str
    ideal: MonomialIdeal
    warnings: list[str]


def parse_ideal(text: str, strict: bool = False) -> IdealSpec:
    """Parse comma-separated generators into a minimal monomial ideal.

    A generator is a product of factors `var` or `var^int`, juxtaposed or
    separated by `*`; a variable is a single letter optionally followed
    by digits. Variable order is first appearance. Non-minimal input is
    minimized with a warning, or rejected under strict.
    """
    raw_exponents, var_order = _scan(text)
    vars = VariableSet(tuple(var_order))
    raw_gens = [
        Monomial(vars, tuple(exps.get(name, 0) for name in var_order))
        for exps in raw_exponents
    ]
    ideal, removed = minimalize(vars, raw_gens)
    warnings = []
    if removed:
        if strict:
            raise IdealError("input generating set is not minimal")
        warnings.append(
            f"non-minimal input: reduced {len(raw_gens)} generators to {len(ideal)}"
        )
        ideal = _project_to_support(ideal)
    return IdealSpec(text, ideal, warnings)


def _scan(text: str) -> tuple[list[dict[str, int]], list[str]]:
    generators: list[dict[str, int]] = []
    var_order: list[str] = []
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    while True:
        skip_ws()
        if pos >= n:
            raise ParseError("expected a generator", pos)
        current: dict[str, int] = {}
        while True:
            skip_ws()
            if pos >= n or not text[pos].isalpha():
                raise ParseError("expected a variable", pos)
            start = pos
            pos += 1
            while pos < n and text[pos].isdigit():
                pos += 1
            name = text[start:pos]
            exponent = 1
            if pos < n and text[pos] == "^":
                pos += 1
                if pos >= n or not text[pos].isdecimal():
                    raise ParseError("expected digits after '^'", pos)
                digits_start = pos
                while pos < n and text[pos].isdecimal():
                    pos += 1
                exponent = _exponent(text[digits_start:pos], digits_start)
            if name not in current and name not in var_order:
                var_order.append(name)
            current[name] = current.get(name, 0) + exponent
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            if pos < n and (text[pos].isalpha()):
                continue
            break
        generators.append(current)
        skip_ws()
        if pos >= n:
            break
        if text[pos] != ",":
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
    return generators, var_order


def _exponent(digits: str, position: int) -> int:
    """The value of a run of decimal digits, in any script.

    A run with more significant digits than MAX_EXPONENT is over it and
    is rejected before `int` sees it, since `int` refuses strings past
    Python's int-string limit.
    """
    zeros = 0
    while zeros < len(digits) and int(digits[zeros]) == 0:
        zeros += 1
    significant = digits[zeros:]
    if len(significant) > len(str(MAX_EXPONENT)):
        raise ParseError(f"exponent exceeds the cap of {MAX_EXPONENT}", position)
    if not significant:
        raise ParseError("exponent must be positive", position)
    return int(significant)


def _project_to_support(ideal: MonomialIdeal) -> MonomialIdeal:
    """Keep the variables the surviving generators use, in the order they
    first appear in the printed generators, so that printing and parsing
    again gives the same ideal."""
    used: list[int] = []
    for g in ideal.generators:
        used += [v for v, e in enumerate(g.exponents) if e and v not in used]
    if used == list(range(len(ideal.vars))):
        return ideal
    vars = VariableSet(tuple(ideal.vars.names[v] for v in used))
    gens = tuple(
        Monomial(vars, tuple(g.exponents[v] for v in used)) for g in ideal.generators
    )
    return MonomialIdeal(vars, gens)


# ---------------------------------------------------------------------------
# Random ideal generation


_DEFAULT_NAMES = ("x", "y", "z", "w", "v", "u", "t", "s")


def variable_names(n_vars: int) -> tuple[str, ...]:
    if n_vars <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:n_vars]
    return tuple(f"x{i + 1}" for i in range(n_vars))


def random_ideal(
    rng: random.Random, n_vars: int, n_gens: int, max_exp: int
) -> MonomialIdeal:
    """A random minimal ideal: uniform exponents with rejection sampling.

    Each monomial draws exponents uniformly from [0, max_exp]; the unit
    monomial and any monomial comparable under divisibility with an
    already-drawn one are rejected and redrawn.
    """
    if max_exp < 1:
        raise IdealError("max exponent must be at least 1")
    vars = VariableSet(variable_names(n_vars))
    for _attempt in range(400):
        gens: list[Monomial] = []
        ok = True
        for _slot in range(n_gens):
            for _draw in range(300):
                m = Monomial(
                    vars, tuple(rng.randint(0, max_exp) for _ in range(n_vars))
                )
                if m.is_unit:
                    continue
                if any(m.divides(g) or g.divides(m) for g in gens):
                    continue
                gens.append(m)
                break
            else:
                ok = False
                break
        if ok:
            return MonomialIdeal(vars, tuple(gens))
    raise IdealError(
        f"could not sample a minimal ideal with {n_gens} generators over"
        f" {n_vars} variables (max exponent {max_exp})"
    )


_CLASS_TO_P = {"dominant": 0, "semi1": 1, "semi2": 2}


def random_ideal_of_class(
    rng: random.Random,
    n_vars: int,
    n_gens: int,
    max_exp: int,
    cls: str = "any",
    max_attempts: int = 5000,
) -> MonomialIdeal:
    """Resample random_ideal until the dominance class matches."""
    if cls == "any":
        return random_ideal(rng, n_vars, n_gens, max_exp)
    if cls not in _CLASS_TO_P:
        raise IdealError(f"unknown ideal class {cls!r}")
    want_p = _CLASS_TO_P[cls]
    # distinct generators cannot share a dominant variable, so an ideal with
    # p nondominant generators has at most n_vars + p generators
    if n_gens > n_vars + want_p:
        raise IdealError(
            f"impossible request: a {cls} ideal over {n_vars} variables has at"
            f" most {n_vars + want_p} generators (each dominant generator needs"
            " its own dominant variable)"
        )
    for _attempt in range(max_attempts):
        ideal = random_ideal(rng, n_vars, n_gens, max_exp)
        if classify(ideal).p == want_p:
            return ideal
    raise IdealError(
        f"no {cls} ideal found in {max_attempts} attempts"
        f" (vars={n_vars}, gens={n_gens}, max_exp={max_exp})"
    )


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


def matrix_json(matrix) -> dict:
    triplets = [
        [ri, ci, entry.scalar.numerator, entry.scalar.denominator]
        + [list(entry.monomial.exponents)]
        for (ri, ci), entry in sorted(matrix.entries.items())
    ]
    return {
        "rows": [face_json(f) for f in matrix.rows],
        "cols": [face_json(f) for f in matrix.cols],
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
        out["differentials"] = [None] + [matrix_json(m) for m in res.diffs[1:]]
    return out


def face_str(face: Face, ideal: MonomialIdeal) -> str:
    if not face.members:
        return "[]"
    return "[" + ",".join(str(ideal.generators[i]) for i in face.members) + "]"


# ---------------------------------------------------------------------------
# Commands


def _load_spec(args) -> IdealSpec:
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = args.ideal
        if text is None:
            raise IdealError("an ideal is required (positional argument or --file)")
    return parse_ideal(text, strict=getattr(args, "strict", False))


def _emit(args, payload: dict, lines: list[str], warnings: list[str]) -> None:
    if args.json:
        payload = {"schema": JSON_SCHEMA_VERSION, "warnings": warnings, **payload}
        print(json.dumps(payload))
    else:
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        for line in lines:
            print(line)


def cmd_classify(args) -> int:
    spec = _load_spec(args)
    ideal = spec.ideal
    report = classify(ideal)
    payload = {
        "command": "classify",
        "ideal": ideal_json(ideal),
        "p": report.p,
        "class": report.class_label,
        "nondominant_indices": list(report.nondominant_indices),
        "per_generator": [
            {
                "index": i,
                "monomial": monomial_json(ideal.generators[i]),
                "dominant_variables": sorted(
                    ideal.vars.names[v] for v in dom
                ),
            }
            for i, dom in report.per_generator
        ],
        "generic": is_generic(ideal),
        "complete_intersection": is_complete_intersection(ideal),
    }
    lines = [
        f"ideal: {ideal}",
        f"class: {report.class_label} (p={report.p})",
    ]
    for i, dom in report.per_generator:
        names = ", ".join(sorted(ideal.vars.names[v] for v in dom)) or "-"
        lines.append(f"  generator {i}: {ideal.generators[i]}  dominant: {names}")
    lines.append(f"generic: {is_generic(ideal)}")
    lines.append(f"complete intersection: {is_complete_intersection(ideal)}")
    _emit(args, payload, lines, spec.warnings)
    return 0


def cmd_taylor(args) -> int:
    spec = _load_spec(args)
    ideal = spec.ideal
    res = build_taylor(ideal)
    classes = repeated_multidegree_classes(res)
    lattice = lcm_lattice(ideal)
    payload = {
        "command": "taylor",
        "ideal": ideal_json(ideal),
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
        f"ideal: {ideal}",
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
            lines.append(f"differential {degree}: {matrix.nnz()} entries")
            for (ri, ci), entry in sorted(matrix.entries.items()):
                lines.append(
                    f"  [{ri},{ci}] = {entry.scalar} * {entry.monomial}"
                    f"  ({face_str(matrix.rows[ri], ideal)} <-"
                    f" {face_str(matrix.cols[ci], ideal)})"
                )
    _emit(args, payload, lines, spec.warnings)
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


def cmd_minimize(args) -> int:
    spec = _load_spec(args)
    ideal = spec.ideal
    strategy = _parse_strategy(args.strategy)
    outcome: EliminationOutcome = eliminate_face_facet_pairs(
        build_taylor(ideal), strategy
    )
    res = outcome.resolution
    generic_payload = None
    if args.generic:
        rescued = minimize_generic(res)
        generic_payload = resolution_json(rescued)
    payload = {
        "command": "minimize",
        "ideal": ideal_json(ideal),
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
        f"ideal: {ideal}",
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
    if args.generic and generic_payload is not None:
        lines.append(f"generic fallback ranks: {generic_payload['ranks']}")
    _emit(args, payload, lines, spec.warnings)
    return 0


def cmd_scarf(args) -> int:
    spec = _load_spec(args)
    ideal = spec.ideal
    faces = scarf_complex(ideal)
    counts = scarf_face_counts(ideal)
    scarf = is_scarf(ideal)
    payload = {
        "command": "scarf",
        "ideal": ideal_json(ideal),
        "faces": [face_json(f) for f in faces],
        "counts": list(counts),
        "is_scarf": scarf,
    }
    lines = [
        f"ideal: {ideal}",
        f"scarf face counts: {list(counts)}",
        "faces: " + " ".join(face_str(f, ideal) for f in faces),
        f"is_scarf: {scarf}",
    ]
    _emit(args, payload, lines, spec.warnings)
    return 0


def _closed_form(ideal: MonomialIdeal) -> InvariantsReport | None:
    p = classify(ideal).p
    if p == 0:
        return betti_dominant(ideal)
    if p == 1:
        return invariants_semidominant(ideal)
    return None


def invariants_with_cross_check(ideal: MonomialIdeal) -> dict:
    """Closed-form and resolution-derived invariants; raises if they differ."""
    derived = invariants_from_resolution(minimize_generic(build_taylor(ideal)))
    closed = _closed_form(ideal)
    if closed is not None and (
        closed.betti != derived.betti
        or closed.pd != derived.pd
        or closed.reg != derived.reg
    ):
        raise OracleDisagreementError(
            f"closed-form invariants {closed} disagree with resolution-derived"
            f" {derived}"
        )
    return {"closed_form": closed, "derived": derived}


def cmd_invariants(args) -> int:
    spec = _load_spec(args)
    ideal = spec.ideal
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
        "command": "invariants",
        "ideal": ideal_json(ideal),
        "betti": list(report.betti),
        "pd": report.pd,
        "reg": report.reg,
        "sources": dict(report.sources),
        "closed_form": report_json(closed),
        "from_resolution": report_json(derived),
        "agree": True,
    }
    lines = [
        f"ideal: {ideal}",
        f"betti: {list(report.betti)}",
        f"pd: {report.pd}",
        f"reg: {report.reg}",
        f"source: {report.source_of('betti')}",
    ]
    if closed is not None:
        lines.append("closed-form and resolution-derived values agree")
    _emit(args, payload, lines, spec.warnings)
    return 0


def cmd_verify(args) -> int:
    spec = _load_spec(args)
    ideal = spec.ideal
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
    payload = {
        "command": "verify",
        "ideal": ideal_json(ideal),
        "taylor": taylor_report,
        "minimized": minimal_report,
    }
    lines = [
        f"ideal: {ideal}",
        f"taylor:    compose={taylor_report['compose']}"
        f" strands={taylor_report['strands_exact']}"
        f" minimal={taylor_report['minimal']} ranks={taylor_report['ranks']}",
        f"minimized: compose={minimal_report['compose']}"
        f" strands={minimal_report['strands_exact']}"
        f" minimal={minimal_report['minimal']} ranks={minimal_report['ranks']}",
    ]
    _emit(args, payload, lines, spec.warnings)
    if not (
        taylor_report["compose"]
        and taylor_report["strands_exact"]
        and minimal_report["compose"]
        and minimal_report["strands_exact"]
        and minimal_report["minimal"]
    ):
        raise OracleDisagreementError("verification failed; see report")
    return 0


def cmd_t71_check(args) -> int:
    spec = _load_spec(args)
    ideal = spec.ideal
    report = check_theorem71_hypothesis(ideal)
    payload = {
        "command": "t71-check",
        "ideal": ideal_json(ideal),
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
    lines = [f"ideal: {ideal}", f"hypothesis holds: {report.holds}"]
    for tau, sigma, other in report.violations:
        lines.append(
            f"  violation: facet {face_str(tau, ideal)} of"
            f" {face_str(sigma, ideal)}; sibling facet {face_str(other, ideal)}"
            " shares the multidegree"
        )
    _emit(args, payload, lines, spec.warnings)
    return 0


def cmd_random(args) -> int:
    rng = random.Random(args.seed)
    ideals = [
        random_ideal_of_class(rng, args.vars, args.gens, args.max_exp, args.cls)
        for _ in range(args.count)
    ]
    payload = {
        "command": "random",
        "seed": args.seed,
        "class": args.cls,
        "count": args.count,
        "vars": args.vars,
        "gens": args.gens,
        "max_exp": args.max_exp,
        "ideals": [ideal_json(ideal) for ideal in ideals],
    }
    lines = [str(ideal) for ideal in ideals]
    _emit(args, payload, lines, [])
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="monores",
                     description="Taylor resolutions of monomial ideals")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("classify", "dominance classification"),
        ("taylor", "build the Taylor resolution"),
        ("minimize", "eliminate face/facet pairs of equal multidegree"),
        ("scarf", "Scarf complex and Scarf test"),
        ("invariants", "Betti numbers, projective dimension, regularity"),
        ("verify", "exactness and minimality oracles"),
        ("t71-check", "arbitrary-order elimination hypothesis check"),
    ]:
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


_COMMANDS = {
    "classify": cmd_classify,
    "taylor": cmd_taylor,
    "minimize": cmd_minimize,
    "scarf": cmd_scarf,
    "invariants": cmd_invariants,
    "verify": cmd_verify,
    "t71-check": cmd_t71_check,
    "random": cmd_random,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except CapExceededError as exc:
        return _fail(str(exc), 2)
    except OracleDisagreementError as exc:
        return _fail(f"internal oracle disagreement: {exc}", 3)
    except (IdealError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), 1)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
