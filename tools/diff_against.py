"""Run a fixed list of jforge commands on REF and on this tree; diff the reports.

REF (any git revision) is extracted with ``git archive`` into a temporary
directory, so the repository's ``.git`` is never written to.  Each command
runs in a fresh interpreter against the ``src`` of either tree.  A pair
matches when the exit codes agree and the two JSON reports are equal with
every ``ms`` key removed (the comparison of ``tools/report_diff.py``); a
command whose stdout is not JSON is compared byte for byte, with stderr.
Prints one line per command and exits 1 on any difference, else 0.  Run
from anywhere inside the repository:

    python3 tools/diff_against.py HEAD~1
"""

import argparse
import io
import json
import os
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

COMMANDS = (
    ["all"],
    ["all", "--set", "p=1+m"],
    ["all", "--set", "m=n+1"],
    ["all", "--set", "p=2"],
    ["relations"],
    ["relations", "--max-degree", "4"],
    ["relations", "--set", "p=1+m"],
    ["relations", "--convention", "auto", *PR7_POINT],
    ["hopf", "--convention", "auto", *PR7_POINT],
    ["relations", "--convention", "auto", *POINT],
    ["hopf", "--convention", "auto", *POINT],
    ["hopf", "--no-braiding"],
    ["hopf", "--set", "m=n+1"],
    ["contract", "--contraction-matrix", "g"],
    ["contract", "--contraction-matrix", "bigg"],
    ["contract", "--contraction-matrix", "gprime"],
    ["qybe", "--matrix", "rq2"],
    ["qybe", "--matrix", "rq3"],
    ["qybe", "--matrix", "rj2"],
    ["qybe", "--matrix", "rj3"],
)

RUN_MAIN = "import sys; from jforge.cli import main; sys.exit(main(sys.argv[1:]))"


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
        ref_tree = Path(tmp)
        extract(args.ref, ref_tree)
        for argv_ in COMMANDS:
            ref_run, new_run = run(ref_tree, argv_), run(ROOT, argv_)
            problem = compare(ref_run, new_run)
            status = "identical" if problem is None else problem
            failures += problem is not None
            print(f"{' '.join(argv_)}: exit {new_run[0]}, {status}")
    print(f"{len(COMMANDS) - failures}/{len(COMMANDS)} commands identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
