"""Command line driver exposing every pipeline stage.

Subcommands mirror the stages in dependency order: ``qybe`` checks braid
consistency of a named R-matrix, ``contract`` transports the deformed
family along a schedule file and compares against the triangular target,
``relations`` derives the exchange table and verifies the recorded
relation set plus confluence, ``hopf`` runs the coalgebra checks on the
derived presentation and its quotient, and ``all`` chains everything
into one aggregated report.

Reports render as deterministic JSON (sorted keys, schema_version field)
or a text summary.  Exit codes: 0 all checks pass, 1 a verification
failed, 2 bad usage or configuration.  The environment variable
JFORGE_MAX_STEPS overrides the rewrite step bound (see freealg); a value
that is not an integer of at least 1 exits with status 2 before any stage
runs.  It bounds the run that makes the report, so --set bindings take the
same route under any bound (see specialize.derive).
"""

from __future__ import annotations

import argparse
import os
import sys

from .contraction import (
    Schedule,
    bundled_schedule,
    contraction_report,
    probe_divergence,
    read_schedule,
)
from .errors import (
    DivisionByZero,
    GrammarError,
    JforgeError,
    ScheduleError,
    UsageError,
)
from .freealg import step_bound
from .grammar import parse
from .hopf import (
    LAYOUT_Q,
    check_antipode_axiom,
    check_bialgebra,
    coaction_covariance,
    delta_centrality,
    hopf_ideal_check,
    qdet_checks,
)
from .report import CheckReport
from .rmat import (
    four_param_deformed_r3,
    jordanian_r2,
    jordanian_r3,
    qybe_check,
    twist_2x2,
    twist_3x3,
    twist_probe_3x3,
    two_param_deformed_r2,
)
from .rtt import LAYOUT_3, DerivedAlgebra, resolve_convention, rtt_zero_report, verify_reference
from .specialize import derive

MATRICES = {
    "rq2": two_param_deformed_r2,
    "rq3": four_param_deformed_r3,
    "rj2": jordanian_r2,
    "rj3": jordanian_r3,
}

# contraction lanes: source family, twist, asserted target (None = probe)
LANES = {
    "g": (two_param_deformed_r2, twist_2x2, jordanian_r2),
    "bigg": (four_param_deformed_r3, twist_3x3, jordanian_r3),
    "gprime": (four_param_deformed_r3, twist_probe_3x3, None),
}

HOPF_GROUPS = ("bialgebra", "hopf-ideal", "antipode", "qdet",
               "delta-centrality", "coaction")


def _bindings(pairs) -> dict:
    out = {}
    for item in pairs or ():
        name, eq, expr = item.partition("=")
        if not eq or not name.isidentifier():
            raise UsageError(f"--set expects NAME=EXPR, got {item!r}")
        if name in out:
            raise UsageError(f"--set {name} is given more than once")
        try:
            out[name] = parse(expr)
        except (GrammarError, DivisionByZero) as exc:
            # a literal like 1/0 is bad usage; a pole met later under
            # substitution (--set p=0) is not, and keeps its own exit
            raise UsageError(f"--set {name}: {exc}") from exc
    return out


def _load_schedule(path, bindings) -> tuple:
    """(schedule, sha256 hex) from an explicit path or the bundled file.

    The --set bindings are substituted into the schedule's expressions as
    well as into the matrices, so a bound parameter is the same number on
    both sides of the limit; the digest stays that of the file.  Binding
    the schedule's limit variable would leave no limit to take, so it is
    bad usage.
    """
    if path is None:
        schedule, digest = bundled_schedule()
    elif not os.path.exists(path):
        raise UsageError(f"schedule file not found: {path}")
    else:
        schedule, digest = read_schedule(path)
    if schedule.limit_var in bindings:
        raise UsageError(f"--set clashes with the schedule: "
                         f"{schedule.limit_var} is its limit variable")
    if bindings:
        bound = {name: expr.substitute(bindings)
                 for name, expr in schedule.bindings.items()}
        try:
            schedule = Schedule(schedule.limit_var, bound, schedule.description)
        except ScheduleError as exc:
            # e.g. --set m=r puts the schedule-bound r into r's own binding
            raise UsageError(f"--set clashes with the schedule: {exc}") from exc
    return schedule, digest


def _emit(report: CheckReport, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from exc
        good = sum(1 for c in report.checks if c.passed)
        print(f"{report.tool}: {good}/{len(report.checks)} checks passed "
              f"-> {args.output}")
    else:
        print(text)
    return 0 if report.passed else 1


def _algebra(args, bindings) -> DerivedAlgebra:
    """The algebra under bindings, which may be read off the symbolic
    derivation (specialize.derive)."""
    convention = args.convention
    scores = alg = None
    if convention == "auto":
        convention, scores, alg = resolve_convention(bindings=bindings)
    if alg is None:
        alg = derive(convention=convention, bindings=bindings)
    else:
        alg = alg.extended()
    alg.resolution_scores = scores
    return alg


# -- subcommands -------------------------------------------------------------

def cmd_qybe(args) -> int:
    bindings = _bindings(args.set)
    rmat = MATRICES[args.matrix]().substitute(bindings)
    report = qybe_check(rmat, name=args.matrix)
    report.metadata["matrix"] = args.matrix
    return _emit(report, args)


def _contract_stage(args, bindings) -> tuple:
    """(limit matrix or None, report) of the --contraction-matrix lane.

    The one contraction stage of ``contract`` and ``all``; the report's
    metadata carries the schedule digest.
    """
    schedule, digest = _load_schedule(args.schedule, bindings)
    source, twist, target = LANES[args.contraction_matrix]
    tm = source().substitute(bindings)
    if target is None:
        # exploratory lane: record the limit behaviour, assert nothing
        result, report = None, CheckReport("contract")
        records = probe_divergence(tm, twist(), schedule)
        report.add("probe-recorded", True, note="no target asserted",
                   records=records)
    else:
        goal = target().substitute(bindings)
        result, report = contraction_report(tm, twist(), schedule, goal)
    report.metadata["schedule_sha256"] = digest
    return result, report


def cmd_contract(args) -> int:
    result, report = _contract_stage(args, _bindings(args.set))
    if result is not None:
        report.metadata["result_matrix"] = result.to_dict()
    report.metadata["lane"] = args.contraction_matrix
    return _emit(report, args)


def _relations_stage(alg: DerivedAlgebra, max_degree: int):
    """The recorded relations, the exchange entries and confluence.

    Degree 3 covers all ambiguities among the quadratic rules and the
    adjoined commutation rules.  Longer collapse patterns only overlap at
    degree 4 and beyond, where localized words are deliberately left stuck
    rather than completed (the presentation stays finite).
    """
    return (verify_reference(alg), rtt_zero_report(alg),
            alg.system.confluence_report(max_degree=max_degree))


def cmd_relations(args) -> int:
    bindings = _bindings(args.set)
    alg = _algebra(args, bindings)
    report = CheckReport("relations")
    for stage in _relations_stage(alg, args.max_degree):
        report.extend(stage)
    report.metadata["convention"] = alg.convention
    if alg.resolution_scores:
        report.metadata["convention_scores"] = {
            k: v["score"] for k, v in alg.resolution_scores.items()}
    report.metadata["table"] = alg.to_dict()
    return _emit(report, args)


def _hopf_report(alg: DerivedAlgebra, groups, braiding: bool) -> CheckReport:
    q = alg.quotient()
    report = CheckReport("hopf")
    if "bialgebra" in groups:
        report.extend(check_bialgebra(alg.system, LAYOUT_3), "full:")
        report.extend(check_bialgebra(q.system, LAYOUT_Q))
    if "hopf-ideal" in groups:
        report.extend(hopf_ideal_check(alg))
    if "antipode" in groups:
        report.extend(check_antipode_axiom(q))
    if "qdet" in groups:
        report.extend(qdet_checks(q))
    if "delta-centrality" in groups:
        report.extend(delta_centrality(alg))
    if "coaction" in groups:
        report.extend(coaction_covariance(q, braiding=braiding))
    return report


def cmd_hopf(args) -> int:
    bindings = _bindings(args.set)
    groups = tuple(args.check) if args.check else HOPF_GROUPS
    unknown = set(groups) - set(HOPF_GROUPS)
    if unknown:
        raise UsageError(f"unknown --check group(s): {sorted(unknown)}; "
                         f"choose from {list(HOPF_GROUPS)}")
    alg = _algebra(args, bindings)
    report = _hopf_report(alg, groups, braiding=not args.no_braiding)
    report.metadata["convention"] = alg.convention
    report.metadata["braiding"] = not args.no_braiding
    return _emit(report, args)


def cmd_all(args) -> int:
    bindings = _bindings(args.set)
    report = CheckReport("all")

    for name in ("rq2", "rq3", "rj2", "rj3"):
        rmat = MATRICES[name]().substitute(bindings)
        report.extend(qybe_check(rmat, name=name))

    # contract stage failures must not block the later stages
    try:
        _result, stage = _contract_stage(args, bindings)
    except (UsageError, ScheduleError) as exc:
        report.add("contract:schedule-loads", False, error=str(exc))
    except DivisionByZero as exc:
        # a pole the schedule's own substitution meets, e.g. s = 0
        report.add("contract:finite-limit", False, error=str(exc))
    else:
        report.extend(stage, "contract:")
        report.metadata["schedule_sha256"] = stage.metadata["schedule_sha256"]

    alg = _algebra(args, bindings)
    for stage in _relations_stage(alg, args.max_degree):
        report.extend(stage, "relations:")
    report.metadata["convention"] = alg.convention

    report.extend(_hopf_report(alg, HOPF_GROUPS, braiding=not args.no_braiding),
                  "hopf:")
    return _emit(report, args)


# -- argument plumbing -------------------------------------------------------

def _common(sub):
    sub.add_argument("--set", action="append", metavar="NAME=EXPR",
                     help="bind a parameter to an expression (repeatable)")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--output", metavar="PATH",
                     help="write the report to PATH instead of stdout")


def _algebraic(sub):
    sub.add_argument("--convention", choices=("plain", "transposed", "auto"),
                     default="plain",
                     help="exchange-identity reading (auto = resolve and record)")
    sub.add_argument("--max-degree", type=int, default=3, metavar="N",
                     help="overlap word bound for the confluence check (>= 3)")


def _contractish(sub):
    sub.add_argument("--schedule", metavar="PATH",
                     help="schedule file (default: the bundled one)")
    sub.add_argument("--contraction-matrix", choices=tuple(LANES),
                     default="bigg", help="which twist lane to run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jforge",
        description="Construct, contract and verify triangular "
                    "quantum-group structures.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("qybe", help="braid-consistency check of one R-matrix")
    p.add_argument("--matrix", choices=tuple(MATRICES), default="rj3")
    _common(p)
    p.set_defaults(func=cmd_qybe)

    p = subs.add_parser("contract", help="run the singular-limit transport")
    _contractish(p)
    _common(p)
    p.set_defaults(func=cmd_contract)

    p = subs.add_parser("relations", help="derive and verify the exchange table")
    _algebraic(p)
    _common(p)
    p.set_defaults(func=cmd_relations)

    p = subs.add_parser("hopf", help="coalgebra checks on the derived algebra")
    _algebraic(p)
    p.add_argument("--check", action="append", metavar="NAME",
                   help=f"run only the named group(s); one of {list(HOPF_GROUPS)}")
    p.add_argument("--no-braiding", action="store_true",
                   help="drop the cross-relation braiding in the coaction "
                        "check (negative control)")
    _common(p)
    p.set_defaults(func=cmd_hopf)

    p = subs.add_parser("all", help="full pipeline, one aggregated report")
    _contractish(p)
    _algebraic(p)
    p.add_argument("--no-braiding", action="store_true")
    _common(p)
    p.set_defaults(func=cmd_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_degree", 3) < 3:
        parser.exit(2, "jforge: --max-degree must be at least 3\n")
    try:
        step_bound()  # a bad JFORGE_MAX_STEPS exits 2 before any stage runs
        return args.func(args)
    except (UsageError, ScheduleError) as exc:
        print(f"jforge: {exc}", file=sys.stderr)
        return 2
    except JforgeError as exc:
        print(f"jforge: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
