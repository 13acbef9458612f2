"""Run a fixed list of jforge commands on REF and on this tree; diff the reports.

REF (any git revision) is extracted with ``git archive`` into a temporary
directory, so the repository's ``.git`` is never written to.  Each command
runs in a fresh interpreter against the ``src`` of either tree.  A pair
matches when the exit codes agree and the two JSON reports are equal with
every ``ms`` key removed (the comparison of ``tools/report_diff.py``); a
command whose stdout is not JSON, such as one that asks for ``--format
text``, is compared byte for byte, with stderr.
Commands that name a schedule as ``{rescaled}``, ``{wrong-slope}``,
``{misplaced-pole}``, ``{zero-pole}``, ``{several-term-lead}`` or
``{limit-is-param}`` get one file derived from this tree's bundled
schedule, written once to the temporary directory and passed to both
trees: eps -> (7/3)*eps in every binding, r with the sign of its slope
flipped (the limit exists and misses the target), eta = 1/eps^2 (the
twist pole is of the wrong order, so entries diverge), s = 0 (the
substitution itself meets a pole), r = (m + n + eps)/(1 + eps) (a
binding whose lowest coefficient in eps has several terms, so its
inverse is no Laurent), and the matrix parameter p as the limit variable
in place of eps.  A command may start
with NAME=VALUE items, each set in that command's environment on both
trees.  Each command runs once more on this tree, pinned to one usable CPU
by os.sched_setaffinity in the launcher, so that its stages run in one
process instead of in forked workers; a difference between the two layouts
is a failure too.  Prints one line per command and exits 1 on any
difference, else 0.  Run from anywhere inside the repository:

    python3 tools/diff_against.py HEAD~1
"""

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from report_diff import first_difference, strip_ms  # noqa: E402

POINT = ["--set", "m=3/2", "--set", "n=-2/3", "--set", "k=5", "--set", "p=7/4"]
PR7_POINT = ["--set", "m=2", "--set", "n=1/3", "--set", "k=-5", "--set", "p=7/2"]
# Points where a verdict differs from a generic point: at K_ZERO ref:f-y
# passes (its residual is 2*k/p*f*x) and plain scores 27; at P_ONE
# scale-noncentral-witness fails; at M_EQUALS_N central-at-m-equals-n
# passes and hopf exits 0.
K_ZERO = ["--set", "m=3/2", "--set", "n=-2/3", "--set", "k=0", "--set", "p=7/4"]
P_ONE = ["--set", "m=3/2", "--set", "n=-2/3", "--set", "k=5", "--set", "p=1"]
M_EQUALS_N = ["--set", "m=2", "--set", "n=2", "--set", "k=3", "--set", "p=5"]
CONTRACT_POINT = ["--set", "m=3", "--set", "n=1/2", "--set", "k=-5", "--set", "p=7/2"]

COMMANDS = (
    ["all"],
    ["all", "--set", "p=1+m"],
    ["all", "--set", "m=n+1"],
    ["all", "--set", "p=2"],
    ["all", "--contraction-matrix", "gprime"],
    ["relations"],
    ["relations", "--max-degree", "4"],
    ["relations", "--set", "p=1+m"],
    ["relations", "--convention", "auto", *PR7_POINT],
    ["hopf", "--convention", "auto", *PR7_POINT],
    ["relations", "--convention", "auto", *POINT],
    ["hopf", "--convention", "auto", *POINT],
    ["relations", "--convention", "auto"],
    ["hopf", "--convention", "auto"],
    ["relations", "--convention", "auto", "--set", "m=0", "--set", "n=0"],
    ["hopf", "--convention", "auto", "--set", "m=0", "--set", "n=0"],
    ["relations", "--convention", "auto", *K_ZERO],
    ["hopf", "--convention", "auto", *K_ZERO],
    # a step bound counts the steps of the run that makes the report, one
    # normal form's rewrite tree as if nothing were cached, and bindings
    # take the same route under any bound: off the locus K_ZERO is read off
    # the symbolic run and needs 406 steps for relations and 1464 for hopf
    # and all; m=0 is on the locus and is derived at the bindings
    ["JFORGE_MAX_STEPS=100", "relations", "--convention", "auto", *K_ZERO],
    ["JFORGE_MAX_STEPS=100", "all", *K_ZERO],
    ["JFORGE_MAX_STEPS=405", "relations", "--convention", "auto", *K_ZERO],
    ["JFORGE_MAX_STEPS=406", "relations", "--convention", "auto", *K_ZERO],
    ["JFORGE_MAX_STEPS=1463", "hopf", "--convention", "auto", *K_ZERO],
    ["JFORGE_MAX_STEPS=1464", "hopf", "--convention", "auto", *K_ZERO],
    ["JFORGE_MAX_STEPS=1463", "all", *K_ZERO],
    ["JFORGE_MAX_STEPS=1464", "all", *K_ZERO],
    ["JFORGE_MAX_STEPS=999999", "all", "--set", "p=1+m"],
    ["JFORGE_MAX_STEPS=1000", "hopf", "--set", "m=0"],
    ["JFORGE_MAX_STEPS=20", "relations", "--convention", "auto", *POINT],
    # a bound that is not an integer >= 1 exits 2 before any stage runs,
    # also on a stage that does no rewriting (exit 0 before that check)
    ["JFORGE_MAX_STEPS=abc", "qybe", "--matrix", "rj3"],
    ["relations", "--convention", "auto", *P_ONE],
    ["hopf", "--convention", "auto", *P_ONE],
    ["relations", "--convention", "auto", *M_EQUALS_N],
    ["hopf", "--convention", "auto", *M_EQUALS_N],
    ["all", *POINT],
    ["relations", "--convention", "auto", "--set", "p=1+m"],
    ["relations", "--convention", "transposed"],
    # the one route where the transposed convention orients, so its
    # adjoined inverses and block inverse are derived and reported: the
    # derivation records on the at-point route
    ["relations", "--convention", "transposed", "--set", "m=0", "--set", "n=0"],
    ["hopf", "--convention", "transposed", "--set", "m=0", "--set", "n=0"],
    ["hopf", "--no-braiding"],
    # the unbraided coaction and the counits read at a point, and Laurent
    # coefficients mixed with the RatFunc ones that 1/(m + 1) leaves
    ["hopf", "--convention", "auto", "--no-braiding", *POINT],
    ["hopf", "--convention", "transposed", "--no-braiding", "--set", "m=0", "--set", "n=0"],
    ["hopf", "--set", "p=1+m"],
    ["hopf", "--no-braiding", "--set", "p=1+m"],
    ["hopf", "--set", "m=n+1"],
    ["contract", "--contraction-matrix", "g"],
    ["contract", "--contraction-matrix", "bigg"],
    ["contract", "--contraction-matrix", "gprime"],
    ["contract", *CONTRACT_POINT],
    ["contract", "--schedule", "{rescaled}", "--contraction-matrix", "g"],
    ["contract", "--schedule", "{rescaled}", "--contraction-matrix", "bigg"],
    ["contract", "--schedule", "{rescaled}", "--contraction-matrix", "gprime"],
    ["contract", "--schedule", "{wrong-slope}", "--contraction-matrix", "g"],
    ["contract", "--schedule", "{wrong-slope}", "--contraction-matrix", "bigg"],
    ["contract", "--schedule", "{misplaced-pole}", "--contraction-matrix", "g"],
    ["contract", "--schedule", "{misplaced-pole}", "--contraction-matrix", "bigg"],
    ["contract", "--schedule", "{wrong-slope}", "--contraction-matrix", "gprime"],
    ["contract", "--schedule", "{misplaced-pole}", "--contraction-matrix", "gprime"],
    # poles met by substitution, before any entry is expanded
    ["contract", "--schedule", "{zero-pole}", "--contraction-matrix", "bigg"],
    ["contract", "--schedule", "{zero-pole}", "--contraction-matrix", "gprime"],
    # the branches of the series route: a bound value inverted as a series
    # with coefficients that are no Laurent, and a limit variable that the
    # entries hold themselves
    ["contract", "--schedule", "{several-term-lead}", "--contraction-matrix", "g"],
    ["contract", "--schedule", "{several-term-lead}", "--contraction-matrix", "bigg"],
    ["contract", "--schedule", "{several-term-lead}", "--contraction-matrix", "gprime"],
    ["contract", "--schedule", "{limit-is-param}", "--contraction-matrix", "g"],
    ["contract", "--schedule", "{limit-is-param}", "--contraction-matrix", "bigg"],
    ["contract", "--schedule", "{limit-is-param}", "--contraction-matrix", "gprime"],
    ["contract", "--set", "p=0", "--contraction-matrix", "bigg"],
    ["contract", "--set", "p=0", "--contraction-matrix", "gprime"],
    # the bindings go into the twist as well: eta = 1 makes it a constant
    # that the schedule's own eta = 1/eps no longer reaches
    ["contract", "--set", "eta=1", "--contraction-matrix", "g"],
    ["contract", "--set", "eta=1", "--contraction-matrix", "bigg"],
    ["contract", "--set", "eta=1", "--contraction-matrix", "gprime"],
    ["all", "--set", "eta=1"],
    # contract failures that all reports as failed checks and runs past,
    # met in the grid worker while the parent adjoins the inverses: a pole
    # met by substitution, entries that diverge, a schedule that --set
    # unloads
    ["all", "--schedule", "{zero-pole}"],
    ["all", "--schedule", "{misplaced-pole}"],
    ["all", "--set", "eps=1"],
    # a schedule name that --set binds is listed with the --set value
    ["contract", "--contraction-matrix", "g", "--set", "r=2"],
    # the entries are expanded unreduced: points that change which terms
    # the substituted entries keep, each compared with the reduced route
    ["contract", "--contraction-matrix", "bigg", "--set", "m=n"],
    ["contract", "--contraction-matrix", "g", "--set", "m=n"],
    ["contract", "--contraction-matrix", "gprime", "--set", "k=0"],
    ["contract", "--contraction-matrix", "gprime", "--set", "m=n", "--set", "p=1"],
    ["qybe", "--matrix", "rq2"],
    ["qybe", "--matrix", "rq3"],
    ["qybe", "--matrix", "rj2"],
    ["qybe", "--matrix", "rj3"],
    # bindings to expressions in other parameters, most over denominators
    # of several terms: substitution clears each bound variable's
    # denominator to its top exponent in every monomial, also in those
    # that lack the variable
    ["contract", "--contraction-matrix", "bigg", "--set", "p=1/(1+k)"],
    ["all", "--set", "n=1/(1+m)"],
    ["qybe", "--matrix", "rj2", "--set", "m=1/(n+1)"],
    ["qybe", "--matrix", "rq3", "--set", "r=1+s"],
    ["hopf", "--set", "k=1/(m+1)"],
    # every binding off the locus is read off the symbolic run: bound
    # factors that are Laurent powers, a binding whose inverse is not
    # Laurent, and bindings on the locus, derived at the bindings
    ["all", "--set", "k=m*n"],
    ["relations", "--set", "m=n"],
    ["relations", "--set", "m=0", "--set", "p=1+k"],
    ["relations", "--convention", "transposed", "--set", "m=n"],
    ["relations", "--set", "p=(n+1)/n"],
    ["hopf", "--convention", "auto", "--set", "m=n", "--set", "p=1+k"],
    # the first five unresolved words at degrees 4 to 6 depend on the order
    # in which the critical pairs are enumerated
    ["relations", "--max-degree", "6"],
    # the bialgebra images, computed word by word, read at a point
    ["hopf", "--no-braiding", *POINT],
    # a pole met where the bindings enter the matrices (TensorMat.substitute)
    ["all", "--set", "p=0"],
    ["relations", "--set", "p=0"],
    ["qybe", "--matrix", "rq3", "--set", "q=0"],
    # m = 0 is on the locus, so the algebra is derived at the bindings and
    # the antipode and the m = n collapse run on its own rules; the
    # hand-written coefficients of the checks (the recorded relations, the
    # block determinant, the plane relation) are built symbolically and
    # read at the bindings as on the symbolic route
    ["hopf", "--set", "m=0"],
    ["hopf", "--set", "m=0", "--no-braiding"],
    ["all", "--set", "m=0"],
    ["hopf", "--set", "m=0", "--set", "p=1+k"],
    # a rational point in some of the parameters, Laurent in the rest
    ["qybe", "--matrix", "rj3", "--set", "m=3/2", "--set", "p=7/4"],
    # the stages that may run in the grid worker: only the qybe stage of
    # all raises, in the worker while the parent adjoins the inverses (q is
    # no parameter of the algebra); all stops at bound 1463 and reports at
    # 1464; the text renderings, and hopf with and without grid stages
    ["all", "--set", "q=0"],
    ["JFORGE_MAX_STEPS=1463", "all"],
    ["JFORGE_MAX_STEPS=1464", "all"],
    ["all", "--format", "text", "--no-braiding"],
    ["relations", "--format", "text"],
    ["hopf", "--check", "bialgebra"],
    ["hopf", "--check", "antipode", "--format", "text"],
    # reports merged from both processes: the critical pairs of degree 4,
    # four of which do not resolve, listed from the worker's half and the
    # parent's in one order, and each grid group of hopf on its own
    ["all", "--max-degree", "4"],
    ["relations", "--max-degree", "4", "--convention", "auto", *POINT],
    ["hopf", "--check", "delta-centrality"],
    ["hopf", "--check", "coaction", "--no-braiding"],
    ["hopf", "--check", "hopf-ideal"],
    ["hopf", "--check", "qdet"],
    # rewriting with RatFunc rule coefficients: m = 0 is on the locus, so
    # the rules are derived at the bindings, and p = 1/(1 + n) leaves 29 of
    # their 141 coefficients RatFunc; no command above rewrites with one.
    # Each takes 0.4-0.6 s.
    ["hopf", "--set", "m=0", "--set", "p=1/(1+n)"],
    ["relations", "--set", "m=0", "--set", "p=1/(1+n)"],
)

RUN_MAIN = "import sys; from jforge.cli import main; sys.exit(main(sys.argv[1:]))"
# the same, pinned to one usable CPU, where jforge runs its stages in one process
RUN_ON_ONE_CPU = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                  + RUN_MAIN)
BUNDLED_SCHEDULE = ROOT / "src" / "jforge" / "data" / "jordanian_gl3.schedule"
EPS = re.compile(r"\beps\b")


def write_schedules(dest: Path) -> dict:
    """{placeholder name: path} of the derived schedules, written under dest."""
    base = json.loads(BUNDLED_SCHEDULE.read_text(encoding="utf-8"))
    bindings = base["bindings"]
    variants = {
        "rescaled": {k: EPS.sub("((7/3)*eps)", v) for k, v in bindings.items()},
        "wrong-slope": dict(bindings, r="1 + (m + n)/2*eps"),
        "misplaced-pole": dict(bindings, eta="1/eps^2"),
        "zero-pole": dict(bindings, s="0"),
        "several-term-lead": dict(bindings, r="(m + n + eps)/(1 + eps)"),
        "limit-is-param": {k: EPS.sub("p", v) for k, v in bindings.items()},
    }
    dest.mkdir()
    paths = {}
    for name, variant in variants.items():
        path = dest / f"{name}.schedule"
        limit_var = "p" if name == "limit-is-param" else base["limit_var"]
        path.write_text(json.dumps(dict(base, bindings=variant, limit_var=limit_var),
                                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def extract(ref: str, dest: Path) -> None:
    """The tree of ref, written under dest by git archive."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter where this Python has it (3.11.4 and later)
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)


def run(tree: Path, argv: list, launcher: str = RUN_MAIN) -> tuple:
    """(exit code, stdout, stderr) of one jforge command against tree/src,
    started by launcher; leading NAME=VALUE items of argv go into its
    environment, and the report is JSON unless argv names a --format."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    while "=" in argv[0]:
        name, _, value = argv[0].partition("=")
        env[name] = value
        argv = argv[1:]
    if "--format" not in argv:
        argv = [*argv, "--format", "json"]
    proc = subprocess.run([sys.executable, "-c", launcher, *argv],
                          cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def compare(ref_run: tuple, new_run: tuple) -> str:
    """None when the two runs match, else what differs."""
    if ref_run[0] != new_run[0]:
        return f"exit code {ref_run[0]} -> {new_run[0]}"
    try:
        a, b = json.loads(ref_run[1]), json.loads(new_run[1])
    except ValueError:
        return None if ref_run[1:] == new_run[1:] else "non-JSON output differs"
    where = first_difference(strip_ms(a), strip_ms(b))
    return None if where is None else f"first difference at {where}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare against")
    args = parser.parse_args(argv)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="jforge-ref-") as tmp:
        ref_tree = Path(tmp) / "ref"
        extract(args.ref, ref_tree)
        schedules = write_schedules(Path(tmp) / "schedules")
        for argv_ in COMMANDS:
            concrete = [a.format_map(schedules) for a in argv_]
            ref_run, new_run = run(ref_tree, concrete), run(ROOT, concrete)
            layout = compare(new_run, run(ROOT, concrete, RUN_ON_ONE_CPU))
            problems = [problem for problem in (
                compare(ref_run, new_run), layout and f"on one CPU, {layout}") if problem]
            failures += bool(problems)
            print(f"{' '.join(argv_)}: exit {new_run[0]}, {'; '.join(problems) or 'identical'}")
    print(f"{len(COMMANDS) - failures}/{len(COMMANDS)} commands identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
