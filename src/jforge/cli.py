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
``hopf`` and ``all`` fork one worker by one rule, through one stage
runner, _run: once the graded table is derived, and before any inverse
is adjoined, the grid worker is forked for the stages whose input words
are grid words (see GRID), which it runs on the graded table, while the
parent adjoins the inverses and runs the rest.  The contract stage of
``all`` holds no algebra words, and runs in the parent, before the
adjunction: of the layouts measured, that one was the fastest for
``all``.  On a 2-vCPU KVM guest a
fork pays only for about 10 ms or more of offloaded work: for some 15 ms
after it, parent and child both run about 30% slower while their shared
pages are copied on write.  The worker sends back its results with
marshal, and its error pickled, over a pipe, and leaves with os._exit.
With one usable CPU, or where the fork fails, its stages run in process
at the same point, on the graded table.  The report is the same on one
CPU and on two, and so is the error: the first in stage order, which is
derivation, recorded relations, exchange entries, critical pairs, table
for ``relations``; derivation, quotient, full bialgebra, the other groups
for ``hopf``; and qybe, contract, derivation, relations, hopf for
``all``.  A derivation error of ``all`` before the fork runs the qybe and
contract stages before it is raised.  A worker whose report is in is
reaped by ``main`` once the report is out, so its exit overlaps the
rendering; every worker is reaped before ``main`` returns, on every path,
and one that exits without a payload that loads is reaped at once and is
a JforgeError naming it.  The step bound counts each normal form's
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
from .rtt import (
    LAYOUT_3,
    LETTERS,
    DerivedAlgebra,
    QuotientAlgebra,
    resolve_convention,
    rtt_zero_report,
    verify_reference,
)
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


def _graded(args, bindings) -> DerivedAlgebra:
    """The graded table (extend=False) under bindings, which may be read off
    the symbolic derivation (specialize.derive), carrying the convention
    scores in resolution_scores (None unless --convention auto)."""
    convention = args.convention
    scores = graded = None
    if convention == "auto":
        convention, scores, graded = resolve_convention(bindings=bindings)
    if graded is None:
        graded = derive(convention=convention, bindings=bindings, extend=False)
    graded.resolution_scores = scores
    return graded


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


def _derivation(graded: DerivedAlgebra) -> tuple:
    """The stage that adjoins the inverses to the graded table: "algebra"."""
    return ("algebra", False, lambda done: graded.extended())


def _relations_stages(graded: DerivedAlgebra, max_degree: int) -> list:
    """The recorded relations, the exchange entries and the critical pairs
    up to max_degree letters: those on grid words on the grid, the others,
    each with an adjoined inverse in its word, in the parent.

    Degree 3 covers all ambiguities among the quadratic rules and the
    adjoined commutation rules.  Longer collapse patterns only overlap at
    degree 4 and beyond, where localized words are deliberately left stuck
    rather than completed (the presentation stays finite).
    """
    return [
        ("reference", True, lambda: verify_reference(graded)),
        ("entries", True, lambda: rtt_zero_report(graded)),
        ("grid pairs", True, lambda: graded.system.unresolved(max_degree, _on_grid)),
        ("inverse pairs", False, lambda done: done["algebra"].system.unresolved(
            max_degree, lambda word: not _on_grid(word))),
    ]


def _relations_reports(done: dict, max_degree: int) -> tuple:
    """The reports of the relations stages, the critical pairs of both
    sides merged in their order."""
    parts = [done["grid pairs"], done["inverse pairs"]]
    return (done["reference"], done["entries"],
            done["algebra"].system.confluence_report(max_degree, parts))


def cmd_relations(args) -> int:
    bindings = _bindings(args.set)
    graded = _graded(args, bindings)
    done = _run([_derivation(graded), *_relations_stages(graded, args.max_degree),
                 ("table", False, lambda done: done["algebra"].to_dict())])
    report = CheckReport("relations")
    for stage in _relations_reports(done, args.max_degree):
        report.extend(stage)
    report.metadata["convention"] = graded.convention
    if graded.resolution_scores:
        report.metadata["convention_scores"] = {
            k: v["score"] for k, v in graded.resolution_scores.items()}
    report.metadata["table"] = done["table"]
    return _emit(report, args)


def _hopf_stages(graded: DerivedAlgebra, groups, braiding: bool) -> list:
    """The quotient and the checks of groups, in the order of HOPF_GROUPS
    after the full bialgebra check; the quotient's bialgebra check and the
    coaction run on the graded table's quotient by theta and phi (see
    GRID)."""
    grid_quotient = functools.cache(lambda: graded.system.quotient(QuotientAlgebra.KILLED))
    stages = [("quotient", False, lambda done: done["algebra"].quotient())]
    if "bialgebra" in groups:
        stages += [("full bialgebra", True, lambda: check_bialgebra(graded.system, LAYOUT_3)),
                   ("bialgebra", True, lambda: check_bialgebra(grid_quotient(), LAYOUT_Q))]
    checks = {
        "hopf-ideal": (False, lambda done: hopf_ideal_check(done["algebra"])),
        "antipode": (False, lambda done: check_antipode_axiom(done["quotient"])),
        "qdet": (False, lambda done: qdet_checks(done["quotient"])),
        "delta-centrality": (True, lambda: delta_centrality(graded)),
        "coaction": (True, lambda: coaction_covariance(grid_quotient(), braiding=braiding)),
    }
    return stages + [(group, *checks[group]) for group in checks if group in groups]


def _hopf_report(done: dict) -> CheckReport:
    report = CheckReport("hopf")
    if "full bialgebra" in done:
        report.extend(done["full bialgebra"], "full:")
    for group in HOPF_GROUPS:
        if group in done:
            report.extend(done[group])
    return report


def cmd_hopf(args) -> int:
    bindings = _bindings(args.set)
    groups = tuple(args.check) if args.check else HOPF_GROUPS
    unknown = set(groups) - set(HOPF_GROUPS)
    if unknown:
        raise UsageError(f"unknown --check group(s): {sorted(unknown)}; "
                         f"choose from {list(HOPF_GROUPS)}")
    braiding = not args.no_braiding
    graded = _graded(args, bindings)
    report = _hopf_report(_run([_derivation(graded),
                                *_hopf_stages(graded, groups, braiding)]))
    report.metadata["convention"] = graded.convention
    report.metadata["braiding"] = braiding
    return _emit(report, args)


def _qybe_checks(bindings) -> CheckReport:
    """The qybe checks of the four matrices: the qybe stage of all."""
    report = CheckReport("qybe")
    for name in ("rq2", "rq3", "rj2", "rj3"):
        rmat = MATRICES[name]().substitute(bindings)
        report.extend(qybe_check(rmat, name=name))
    return report


def _contract_checks(args, bindings) -> CheckReport:
    """The contract stage of all, the schedule digest in its metadata.

    Its failures are failed checks, so they do not block the later stages.
    """
    report = CheckReport("contract")
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
    try:
        graded = _graded(args, bindings)
    except Exception:
        # the qybe and contract stages come first, so an error of theirs
        # replaces the derivation's
        _qybe_checks(bindings)
        _contract_checks(args, bindings)
        raise
    done = _run([("qybe", True, lambda: _qybe_checks(bindings)),
                 ("contract", False, lambda done: _contract_checks(args, bindings)),
                 _derivation(graded), *_relations_stages(graded, args.max_degree),
                 *_hopf_stages(graded, HOPF_GROUPS, not args.no_braiding)])
    report = CheckReport("all", metadata=done["contract"].metadata)
    report.extend(done["qybe"])
    report.extend(done["contract"])
    for stage in _relations_reports(done, args.max_degree):
        report.extend(stage, "relations:")
    report.metadata["convention"] = graded.convention
    report.extend(_hopf_report(done), "hopf:")
    return _emit(report, args)


# -- the grid worker -----------------------------------------------------------

# The nine grid letters.  A word on them is rewritten by table rules alone,
# since every other rule has an adjoined inverse in its lhs, and to words
# on them again.  So its normal form is the same in the graded table and in
# the algebra with the inverses adjoined, and, for the letters of LAYOUT_Q,
# in the table's quotient by theta and phi and in the quotient.
GRID = frozenset(LETTERS)


def _on_grid(word) -> bool:
    return GRID.issuperset(word)


def _run(stages) -> dict:
    """{name: result} of stages, a command's (name, on_grid, work) stages in
    its error order.

    The grid stages run in one worker forked here (see _spawn), each as
    work() on the graded table, in their order.  The others run here, each
    as work(done), done holding the results of the earlier ones.  The error
    raised is the first in stage order, on one CPU and on two: an error
    here kills the worker when every grid stage comes after it, and else
    waits for it, and the worker's error wins when its stage came first.
    """
    grid = [i for i, (_, on_grid, _) in enumerate(stages) if on_grid]
    worker = None
    if grid:
        worker = _spawn("grid", _run_grid, [stages[i][2] for i in grid])
    done = {}
    for i, (name, on_grid, work) in enumerate(stages):
        if on_grid:
            continue
        try:
            done[name] = work(done)
        except Exception:
            if worker is None:
                raise
            if grid[0] > i:
                worker.stop(kill=True)
                raise
            results, error = worker.result()
            if error is not None and grid[len(results)] < i:
                raise error from None
            raise
        except BaseException:
            if worker is not None:
                worker.stop(kill=True)
            raise
    if worker is not None:
        results, error = worker.result()
        if error is not None:
            raise error
        done.update((stages[i][0], result) for i, result in zip(grid, results))
    return done


def _run_grid(works) -> tuple:
    """(results, error): the results of works, called in order up to the
    first that raised, and that error, None when none did."""
    results = []
    for work in works:
        try:
            results.append(work())
        except Exception as exc:
            return results, exc
    return results, None


def _overlaps() -> bool:
    """Whether the grid stages run in a forked worker: not on one usable
    CPU, where the two processes would only take turns and forking costs
    more than it saves."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _pack(result):
    if isinstance(result, CheckReport):
        return ("report", result.tool,
                [(c.name, c.passed, c.details, c.ms) for c in result.checks], result.metadata)
    return ("value", result)


def _unpack(item):
    if item[0] == "report":
        _kind, tool, checks, metadata = item
        return CheckReport(tool, [CheckResult(*c) for c in checks], metadata)
    return item[1]


class _Worker:
    """work(*args), a (results, error) pair, run in a forked child.

    The pair comes back over a pipe with marshal: each CheckReport result
    as (tool, [(name, passed, details, ms), ...], metadata), any other as it
    is (details and the other results are marshal-ready, and marshal keeps
    tuples and lists apart), and the error pickled, so only a worker with
    an error imports pickle.  An exception that escapes work comes back as
    the error of a worker with no results.
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
            code = 1
            try:
                os.close(read)
                try:
                    results, error = work(*args)
                except BaseException as exc:
                    results, error = [], exc
                if error is not None:
                    import pickle

                    error = pickle.dumps(error)
                payload = marshal.dumps(([_pack(r) for r in results], error))
                with open(write, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.stage, self.pid, self.pipe = stage, pid, open(read, "rb")

    def result(self) -> tuple:
        """The (results, error) pair of work.

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
            packed, error = marshal.loads(payload)
            results = [_unpack(item) for item in packed]
            if error is not None:
                import pickle

                error = pickle.loads(error)
        except Exception as exc:
            status = self.stop()
            detail = ("and sent a report that does not load" if payload
                      else "before it sent its report")
            raise JforgeError(f"the {self.stage} worker exited with status "
                              f"{status} {detail}") from exc
        _REPORTED.append(self.pid)
        return results, error

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
    runs here at once, on the state a worker forked now would see."""

    def __init__(self, stage: str, work, *args):
        self.outcome = work(*args)

    def result(self) -> tuple:
        return self.outcome

    def stop(self, kill: bool = False) -> int:
        return 0


def _spawn(stage: str, work, *args):
    """work(*args) beside the caller's own stages: in a forked _Worker where
    _overlaps() holds and the fork succeeds, else at once, in process."""
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
