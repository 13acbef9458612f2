"""Run a fixed list of jforge commands on REF and on this tree; diff the reports.

REF (any git revision) is extracted with ``git archive`` into a temporary
directory, so the repository's ``.git`` is never written to.  Each command
runs in a fresh interpreter against the ``src`` of either tree.  A pair
matches when the exit codes agree and the two JSON reports are equal with
every ``ms`` key removed (the comparison of ``tools/report_diff.py``); a
command whose stdout is not JSON is compared byte for byte, with stderr.
Commands that name a schedule as ``{rescaled}``, ``{wrong-slope}`` or
``{misplaced-pole}`` get one file derived from this tree's bundled
schedule, written once to the temporary directory and passed to both
trees: eps -> (7/3)*eps in every binding, r with the sign of its slope
flipped (the limit exists and misses the target), and eta = 1/eps^2 (the
twist pole is of the wrong order, so entries diverge).  Prints one line per
command and exits 1 on any difference, else 0.  Run from anywhere inside
the repository:

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
    ["relations", "--convention", "auto", *P_ONE],
    ["hopf", "--convention", "auto", *P_ONE],
    ["relations", "--convention", "auto", *M_EQUALS_N],
    ["hopf", "--convention", "auto", *M_EQUALS_N],
    ["all", *POINT],
    ["relations", "--convention", "auto", "--set", "p=1+m"],
    ["relations", "--convention", "transposed"],
    # the one route where the transposed convention orients, so its
    # adjoined inverses and block inverse are derived and reported
    ["relations", "--convention", "transposed", "--set", "m=0", "--set", "n=0"],
    ["hopf", "--convention", "transposed", "--set", "m=0", "--set", "n=0"],
    ["hopf", "--no-braiding"],
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
    ["qybe", "--matrix", "rq2"],
    ["qybe", "--matrix", "rq3"],
    ["qybe", "--matrix", "rj2"],
    ["qybe", "--matrix", "rj3"],
)

RUN_MAIN = "import sys; from jforge.cli import main; sys.exit(main(sys.argv[1:]))"
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
    }
    dest.mkdir()
    paths = {}
    for name, variant in variants.items():
        path = dest / f"{name}.schedule"
        path.write_text(json.dumps(dict(base, bindings=variant), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
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


def run(tree: Path, argv: list) -> tuple:
    """(exit code, stdout, stderr) of one jforge command against tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv, "--format", "json"],
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
            problem = compare(ref_run, new_run)
            status = "identical" if problem is None else problem
            failures += problem is not None
            print(f"{' '.join(argv_)}: exit {new_run[0]}, {status}")
    print(f"{len(COMMANDS) - failures}/{len(COMMANDS)} commands identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
