"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The traced-run tests start the benchmark as a subprocess, twice per
workload with a one-second budget (one job pair each); together they take
about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import check_verdicts  # noqa: E402
from tracer import TARGETS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())["steps"]
SEED = 3


def _snapshot(workload: str, seed: int, inputs: Path) -> tuple:
    jobs = generate(workload, seed, ROOT, inputs)
    files = {p.name: p.read_bytes() for p in sorted((ROOT / inputs).glob("*"))}
    return jobs, files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    inputs = Path("perfbench/.work/test-inputs") / workload
    for p in (ROOT / inputs).glob("*"):
        p.unlink()
    first = _snapshot(workload, SEED, inputs)
    second = _snapshot(workload, SEED, inputs)
    assert first == second
    if workload == "specialized":
        assert _snapshot(workload, SEED + 1, inputs)[0] != first[0]
    if workload == "contraction":
        files = _snapshot(workload, SEED + 1, inputs)[1]
        assert files[f"contraction-{SEED + 1}-0.schedule"] != files[f"contraction-{SEED}-0.schedule"]


def test_specialized_points_avoid_degenerate_values():
    for job in generate("specialized", SEED, ROOT, Path("unused")):
        argv = job[0][1]
        point = dict(a.split("=") for a in argv if "=" in a)
        values = {k: Fraction(v) for k, v in point.items()}
        assert values["m"] != values["n"]
        assert 0 not in (values["m"], values["n"], values["k"])
        assert values["p"] not in (0, 1, -1)


def _step(rc, checks, error=None):
    return {"rc": rc, "error": error, "checks": [list(c) for c in checks]}


def test_checker_accepts_expected_verdicts():
    good = _step(0, [("finite-limit", True), ("surviving-parameters", True),
                     ("matches-target", True)])
    assert check_verdicts(EXPECTED["contract:g"], good) == []


def test_checker_flags_flipped_verdicts():
    flipped = _step(0, [("finite-limit", True), ("surviving-parameters", True),
                        ("matches-target", False)])
    assert check_verdicts(EXPECTED["contract:g"], flipped)
    # criterion 3 is red by design: a PASS there is a different verdict too
    relations = EXPECTED["relations"]
    names = ["ref:f-y", "entries-reduce-to-zero", "critical-pairs-resolve"]
    names += [f"filler-{i}" for i in range(relations["checks"] - len(names))]
    expected_run = _step(1, [(n, n != "ref:f-y") for n in names])
    assert check_verdicts(relations, expected_run) == []
    all_pass = _step(0, [(n, True) for n in names])
    assert check_verdicts(relations, all_pass)


def test_checker_flags_raised_exception():
    raised = _step(None, [], error="Traceback ...\nZeroDivisionError: division by zero\n")
    problems = check_verdicts(EXPECTED["qybe:rj3"], raised)
    assert problems and "ZeroDivisionError" in problems[0]


def _traced_run(workload: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    trace = json.loads((ROOT / f"perfbench/.work/trace-{workload}-{SEED}.json").read_text())
    calls = {}
    for step in trace["jobs"][0]["steps"]:
        for key, stat in step["stats"].items():
            calls[key] = calls.get(key, 0) + stat[0]
    return result, calls


@pytest.fixture(scope="module")
def traced():
    """Two traced runs with the same seed per workload: (result, calls by key)."""
    return {w: (_traced_run(w), _traced_run(w)) for w in WORKLOADS}


def test_traced_runs_are_correct(traced):
    for workload, runs in traced.items():
        for result, _calls in runs:
            assert result["correct"] and result["failed"] == 0, workload


def test_every_wrapped_function_is_called_where_expected(traced):
    for key, _mod, qualname, _spans, _hook, used_by in TARGETS:
        for workload in used_by:
            calls = traced[workload][0][1]
            assert calls[key] > 0, f"{qualname} not called on {workload}"


def test_predicted_zero_cells(traced):
    contraction = traced["contraction"][0][1]
    specialized = traced["specialized"][0][1]
    for layer in ("freealg.", "rtt.", "hopf."):
        assert all(n == 0 for k, n in contraction.items() if k.startswith(layer)), layer
    for key in ("linalg.mat_mul", "field.laurent", "rmat.qybe", "rmat.conjugate",
                "contraction.contract", "contraction.probe"):
        assert specialized[key] == 0, key
    assert traced["contraction"][0][0]["metrics"]["freealg.normal_form_calls"]["value"] == 0
    assert traced["specialized"][0][0]["metrics"]["linalg.mat_mul_calls"]["value"] == 0


def test_counts_repeat_exactly(traced):
    for workload, ((first, calls1), (second, calls2)) in traced.items():
        assert calls1 == calls2, workload
        counts = {n: m["value"] for n, m in first["metrics"].items()
                  if m["unit"] in ("count", "ratio") and n != "trace.overhead_ratio"}
        again = {n: second["metrics"][n]["value"] for n in counts}
        assert counts == again, workload
