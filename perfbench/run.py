"""jforge benchmark: time to an exact verdict for one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One job runs at a time; each CLI call of a
job is ``jforge.cli.main(argv)`` in a fresh interpreter (``child.py``), so
every call starts with cold caches, as it does for a user.  Jobs start
until ``--seconds`` have passed.  Every step's verdicts are checked
against the hand-written ``expected.json``.

Host speed on a shared machine drifts by tens of percent over seconds, so
every time is scaled to a reference speed: a step's seconds are multiplied
by REF_CALIB_S over the time the child's calibration loop took around that
step.  Times, per-layer self times too, are therefore seconds at the speed
at which the loop takes REF_CALIB_S; span timestamps stay unscaled, and
the unscaled wall median is printed alongside.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs each job twice, untraced then traced (wrappers from
``tracer.py``), prints the per-layer metrics and writes the spans to
``perfbench/.work/trace-<workload>-<seed>.json``.  Counts come from the
first traced job, so they repeat exactly for a seed; times are medians
over the traced jobs.  The last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TARGETS
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
WORK = Path("perfbench/.work")
CHILD_TIMEOUT_S = 150
WARMUP = ["qybe", "--matrix", "rq2", "--format", "json"]
# calibration loop time at the reference speed (its typical time on a
# 2-vCPU Xeon Sapphire Rapids KVM guest with Python 3.11)
REF_CALIB_S = 0.005


def check_verdicts(expected: dict, step: dict) -> list:
    """Every way one step's outcome differs from its expected verdicts."""
    if step["error"]:
        return [f"raised: {step['error'].strip().splitlines()[-1]}"]
    problems = []
    if step["rc"] != expected["exit"]:
        problems.append(f"exit code {step['rc']}, expected {expected['exit']}")
    if len(step["checks"]) != expected["checks"]:
        problems.append(f"{len(step['checks'])} checks, expected {expected['checks']}")
    verdicts = dict(step["checks"])
    for name in expected["fail"]:
        if verdicts.get(name) is not False:
            problems.append(f"{name}: expected FAIL, got {verdicts.get(name)}")
    for name in expected["pass"]:
        if verdicts.get(name) is not True:
            problems.append(f"{name}: expected PASS, got {verdicts.get(name)}")
    problems += [f"{name}: unexpected FAIL" for name, ok in step["checks"]
                 if not ok and name not in expected["fail"]]
    return problems


def run_step(root: Path, env: dict, trace: bool, job: int, argv: list) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(int(trace)), str(job),
           json.dumps(argv)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        out = None
    if out is None:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    out["setup_s"] = out["ready"] - spawned
    return out


def run_job(root, env, expected, trace, job, steps) -> dict:
    rec = {"job": job, "time_s": 0.0, "wall_s": 0.0, "checks": 0, "rss_kb": 0,
           "setup_s": [], "problems": [], "steps": []}
    for key, argv in steps:
        step = run_step(root, env, trace, job, argv)
        if "main_s" not in step:
            rec["problems"].append(f"{key}: {step['error']}")
            continue
        scale = REF_CALIB_S / step["calib_s"]
        rec["time_s"] += step["main_s"] * scale
        rec["wall_s"] += step["main_s"]
        rec["checks"] += len(step["checks"])
        rec["rss_kb"] = max(rec["rss_kb"], step["maxrss_kb"])
        rec["setup_s"].append(step["setup_s"] * REF_CALIB_S / step["calib_setup_s"])
        rec["problems"] += [f"{key}: {p}" for p in check_verdicts(expected[key], step)]
        if trace:
            stats = {k: [n, self_s * scale, x, y]
                     for k, (n, self_s, x, y) in step["stats"].items()}
            rec["steps"].append({"step": key, "stats": stats, "spans": step["spans"]})
    return rec


def tail(times: list) -> tuple:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond.

    With 10 or fewer samples no percentile qualifies and the lowest sample
    stands in, so the reported percentile shows how far the run got.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered)


def end_to_end(jobs: list) -> dict:
    times = [j["time_s"] for j in jobs]
    value, pct, n = tail(times)
    print(f"verdict_s_tail is p{pct:.0f} of {n} jobs; unscaled wall median "
          f"{statistics.median(j['wall_s'] for j in jobs):.4f} s")
    return {
        "verdict_s_p50": statistics.median(times),
        "verdict_s_tail": value,
        "checks_per_s": sum(j["checks"] for j in jobs) / sum(times),
        "peak_rss_mb": statistics.median(j["rss_kb"] for j in jobs) / 1024,
        "setup_s": statistics.median(s for j in jobs for s in j["setup_s"]),
    }


def job_stats(job: dict) -> dict:
    """Aggregates of one job, summed over its steps."""
    total = {key: [0, 0.0, 0, 0] for key, *_ in TARGETS}
    for step in job["steps"]:
        for key, stat in step["stats"].items():
            total[key] = [a + b for a, b in zip(total[key], stat)]
    return total


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def per_layer(plain: list, traced: list) -> dict:
    per_job = [job_stats(j) for j in traced]
    first = per_job[0]
    out = {}
    for key in first:
        out[f"{key}_calls"] = first[key][0]
        out[f"{key}_s"] = statistics.median(s[key][1] for s in per_job)
    pgcd, mul, pairs = first["poly.pgcd"], first["field.mul"], first["freealg.confluence"]
    out["poly.pgcd_trivial_ratio"] = _ratio(pgcd[2], pgcd[0])
    out["field.mul_trivial_ratio"] = _ratio(mul[2], mul[0])
    out["field.ratfunc_new"] = out["field.ratfunc_init_calls"]
    out["rtt.derivations"] = out["rtt.derive_calls"]
    out["freealg.critical_pairs"] = pairs[2]
    out["freealg.critical_pairs_resolved_ratio"] = _ratio(pairs[3], pairs[2])
    out["trace.overhead_ratio"] = (statistics.median(j["time_s"] for j in traced)
                                   / statistics.median(j["time_s"] for j in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src/jforge/cli.py").is_file():
        print("perfbench: run from a jforge checkout; src/jforge/cli.py not found",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))["steps"]
    env = {k: v for k, v in os.environ.items()
           if k not in ("JFORGE_MAX_STEPS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")

    (root / WORK).mkdir(parents=True, exist_ok=True)
    pool = generate(args.workload, args.seed, root, WORK / "inputs")
    warm = run_step(root, env, False, -1, WARMUP)  # compiles bytecode
    if "main_s" not in warm or warm["rc"] != 0:
        print(f"perfbench: jforge does not run: {warm.get('error') or warm['rc']}",
              file=sys.stderr)
        return 1

    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    job = 0
    while not plain or time.monotonic() < deadline:
        steps = pool[job % len(pool)]
        plain.append(run_job(root, env, expected, False, job, steps))
        if args.trace:
            traced.append(run_job(root, env, expected, True, job, steps))
        job += 1

    done = plain + traced
    failed = [j for j in done if j["problems"]]
    for j in failed:
        print(f"job {j['job']}: " + "; ".join(j["problems"]), file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(done)} jobs, {len(failed)} failed")

    if args.trace:
        values = per_layer(plain, traced)
        wanted = bench["per_layer"]
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        (root / trace_file).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "jobs": [{"job": j["job"], "steps": j["steps"]} for j in traced]}),
            encoding="utf-8")
        print(f"spans written to {trace_file}")
    else:
        values = end_to_end(plain)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':<42} {len(failed) / len(done):.6g} ratio")
    print(json.dumps({"correct": not failed, "attempted": len(done),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
