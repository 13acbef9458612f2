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

build_parser builds the parser once per process and main reuses it, so a
caller that built it before its first main call (a benchmark child, the
tests) does not pay for a second one; each call parses into a fresh
namespace.

Where os.fork exists and more than one CPU is usable, ``relations``,
``hopf`` and ``all`` overlap their independent stages in forked workers,
through one stage runner, _spawn.  ``relations`` checks confluence in a
worker while the parent checks the recorded relations and the exchange
entries and renders the table.  ``hopf`` runs the full bialgebra checks in
a worker while the parent builds the quotient and runs the other groups,
and forks nothing when --check leaves out bialgebra.  ``all`` forks one
worker, once the algebra is derived, for the hopf checks, while the parent
runs the qybe and contract stages and then the relations.  On a 2-vCPU
KVM guest a fork pays only for about 10 ms or more of offloaded work: for
some 15 ms after it, parent and child both run about 30% slower while
their shared pages are copied on write, so the 3.6 ms of qybe and
contract stay in the parent.  A worker never forks, so ``all``'s hopf
worker runs its stages in one process, and a stage whose fork fails runs
in process.  Each worker sends back its report with marshal, or its
exception pickled, over a pipe, and leaves with os._exit.  The report is
the one of the in-process order, which runs on one CPU, and so are the
errors, in the order qybe, contract, derivation, relations, hopf for
``all``: an error of the parent kills the worker when it comes before the
worker's stage in that order, and waits for it when it comes after, so
the worker's error wins; a derivation error runs the qybe and contract
stages before it is raised.  A worker whose report is in is reaped by
``main`` once the report is out, so its exit overlaps the rendering;
every worker is reaped before ``main`` returns, on every path, and one
that exits without a payload that loads is reaped at once and is a
JforgeError naming its stage.  The step bound counts each normal form's
rewrite tree (see freealg), so it does not depend on which process ran
which stage.
"""

from __future__ import annotations

import argparse
import functools
import marshal
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
from .grammar import parse, serialize
from .hopf import (
    LAYOUT_Q,
    check_antipode_axiom,
    check_bialgebra,
    coaction_covariance,
    delta_centrality,
    hopf_ideal_check,
    qdet_checks,
)
from .laurent import Substitution
from .report import CheckReport, CheckResult
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
    metadata carries the schedule digest.  The bindings go into the twist
    as into the matrices, so --set eta=1 leaves a constant twist that the
    schedule's own eta no longer reaches, and the report lists eta = 1
    among the schedule's bindings.
    """
    schedule, digest = _load_schedule(args.schedule, bindings)
    source, twist, target = LANES[args.contraction_matrix]
    tm = source().substitute(bindings)
    g = twist()
    if bindings:
        value = Substitution(bindings)
        g = [[value(x) for x in row] for row in g]
    if target is None:
        # exploratory lane: record the limit behaviour, assert nothing
        result, report = None, CheckReport("contract")
        records = probe_divergence(tm, g, schedule)
        report.add("probe-recorded", True, note="no target asserted",
                   records=records)
    else:
        goal = target().substitute(bindings)
        result, report = contraction_report(tm, g, schedule, goal)
        # a schedule name that --set binds took the --set value
        report.metadata["bindings"].update(
            (name, serialize(value)) for name, value in bindings.items()
            if name in schedule.bindings)
    report.metadata["schedule_sha256"] = digest
    return result, report


def cmd_contract(args) -> int:
    result, report = _contract_stage(args, _bindings(args.set))
    if result is not None:
        report.metadata["result_matrix"] = result.to_dict()
    report.metadata["lane"] = args.contraction_matrix
    return _emit(report, args)


def _confluence(alg: DerivedAlgebra, max_degree: int) -> CheckReport:
    """The critical pairs of alg's rules up to max_degree letters.

    Degree 3 covers all ambiguities among the quadratic rules and the
    adjoined commutation rules.  Longer collapse patterns only overlap at
    degree 4 and beyond, where localized words are deliberately left stuck
    rather than completed (the presentation stays finite).
    """
    return alg.system.confluence_report(max_degree=max_degree)


def _relations_stage(alg: DerivedAlgebra, max_degree: int) -> tuple:
    """The recorded relations, the exchange entries and confluence, in one
    process: the relations stage of all."""
    return (verify_reference(alg), rtt_zero_report(alg), _confluence(alg, max_degree))


def cmd_relations(args) -> int:
    bindings = _bindings(args.set)
    alg = _algebra(args, bindings)
    confluence = _spawn("confluence", _confluence, alg, args.max_degree)
    try:
        stages = [verify_reference(alg), rtt_zero_report(alg)]
    except BaseException:
        confluence.stop(kill=True)
        raise
    try:
        table = alg.to_dict()
    finally:
        # confluence comes before the table, so an error of its worker
        # replaces the table's
        stages.append(confluence.result())
    report = CheckReport("relations")
    for stage in stages:
        report.extend(stage)
    report.metadata["convention"] = alg.convention
    if alg.resolution_scores:
        report.metadata["convention_scores"] = {
            k: v["score"] for k, v in alg.resolution_scores.items()}
    report.metadata["table"] = table
    return _emit(report, args)


def _hopf_report(alg: DerivedAlgebra, groups, braiding: bool) -> CheckReport:
    """The checks of groups, in the order of HOPF_GROUPS.  The full
    bialgebra check runs in a worker while the quotient is built and the
    other groups run; errors surface in the order quotient, full
    bialgebra, the rest."""
    full = None
    if "bialgebra" in groups:
        full = _spawn("full bialgebra", check_bialgebra, alg.system, LAYOUT_3)
    try:
        q = alg.quotient()
    except BaseException:
        if full is not None:
            full.stop(kill=True)
        raise
    report = CheckReport("hopf")
    rest = []
    try:
        if "bialgebra" in groups:
            rest.append(check_bialgebra(q.system, LAYOUT_Q))
        if "hopf-ideal" in groups:
            rest.append(hopf_ideal_check(alg))
        if "antipode" in groups:
            rest.append(check_antipode_axiom(q))
        if "qdet" in groups:
            rest.append(qdet_checks(q))
        if "delta-centrality" in groups:
            rest.append(delta_centrality(alg))
        if "coaction" in groups:
            rest.append(coaction_covariance(q, braiding=braiding))
    finally:
        if full is not None:
            report.extend(full.result(), "full:")
    for stage in rest:
        report.extend(stage)
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


def _qybe_and_contract(args, bindings) -> CheckReport:
    """The qybe checks of the four matrices and the contract stage of all."""
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
    return report


def cmd_all(args) -> int:
    bindings = _bindings(args.set)
    braiding = not args.no_braiding
    try:
        alg = _algebra(args, bindings)
    except Exception:
        # the qybe and contract stages come first, so an error of theirs
        # replaces the derivation's
        _qybe_and_contract(args, bindings)
        raise
    hopf = _spawn("hopf", _hopf_report, alg, HOPF_GROUPS, braiding)
    try:
        report = _qybe_and_contract(args, bindings)
        relations = _relations_stage(alg, args.max_degree)
    except BaseException:
        hopf.stop(kill=True)
        raise
    for stage in relations:
        report.extend(stage, "relations:")
    report.metadata["convention"] = alg.convention
    report.extend(hopf.result(), "hopf:")
    return _emit(report, args)


# -- stages in forked workers ------------------------------------------------

_FORKED = False  # set in a worker, which runs its stages in one process


def _overlaps() -> bool:
    """Whether stages run in forked workers: not inside a worker, and not
    on one usable CPU, where the workers would only take turns and forking
    costs more than it saves."""
    if _FORKED or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _Worker:
    """work(*args), a CheckReport, run in a forked child.

    The report comes back over a pipe with marshal, as (tool, [(name,
    passed, details, ms), ...], metadata): details are JSON-ready, and
    marshal keeps tuples and lists apart.  An exception comes back
    pickled, and only that path imports pickle.
    """

    def __init__(self, stage: str, work, *args):
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            # never return into the caller's frames, and leave stdout's
            # buffer, a copy of the parent's, unflushed
            global _FORKED
            _FORKED = True
            code = 1
            try:
                os.close(read)
                try:
                    report = work(*args)
                    payload = b"M" + marshal.dumps((
                        report.tool,
                        [(c.name, c.passed, c.details, c.ms) for c in report.checks],
                        report.metadata))
                except BaseException as exc:
                    import pickle

                    payload = b"P" + pickle.dumps(exc)
                with open(write, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.stage, self.pid, self.pipe = stage, pid, open(read, "rb")

    def result(self) -> CheckReport:
        """The report of work, or the exception it raised, raised here.

        A payload that loads leaves the worker to _reap, so its exit
        overlaps what the caller does next; one that does not load, empty
        or cut short, reaps it at once and is an error naming its stage.
        """
        try:
            payload = self.pipe.read()
        except BaseException:
            self.stop(kill=True)
            raise
        self.pipe.close()
        try:
            if payload[:1] == b"P":
                import pickle

                outcome = pickle.loads(payload[1:])
            else:
                tool, checks, metadata = marshal.loads(payload[1:])
                outcome = CheckReport(tool, [CheckResult(*c) for c in checks], metadata)
        except Exception as exc:
            status = self.stop()
            detail = ("and sent a report that does not load" if payload
                      else "before it sent its report")
            raise JforgeError(f"the {self.stage} worker exited with status "
                              f"{status} {detail}") from exc
        _REPORTED.append(self.pid)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def stop(self, kill: bool = False) -> int:
        """Reap the worker, killed first if kill is set; its exit status."""
        self.pipe.close()
        if kill:
            import signal

            os.kill(self.pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


# the pids of workers whose report is in, for _reap; kept per process, as
# the children are, and emptied by every main
_REPORTED = []


def _reap() -> None:
    """Reap every worker whose report is in; main calls it once the report
    is out, so a worker's exit overlaps the rendering."""
    while _REPORTED:
        os.waitpid(_REPORTED.pop(), 0)


class _InProcess:
    """The stand-in for a _Worker where stages do not overlap: work(*args)
    runs here when its result is asked for, and never if it is stopped."""

    def __init__(self, stage: str, work, *args):
        self.work, self.args = work, args

    def result(self) -> CheckReport:
        return self.work(*self.args)

    def stop(self, kill: bool = False) -> int:
        return 0


def _spawn(stage: str, work, *args):
    """work(*args) as a stage beside the caller's own: in a forked _Worker
    where _overlaps() holds and the fork succeeds, else run in process by
    result(), in the one-CPU order."""
    if _overlaps():
        try:
            return _Worker(stage, work, *args)
        except OSError:
            pass  # no process or no pipe to be had (EAGAIN, EMFILE)
    return _InProcess(stage, work, *args)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The jforge parser, built on the first call and reused by every main
    call after it; each parse fills a fresh namespace."""
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
    finally:
        _reap()


if __name__ == "__main__":
    sys.exit(main())
