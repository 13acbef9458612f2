"""Seeded job generator for the three workloads.

A job is a list of steps; a step is one ``jforge`` CLI call, named by the
key its verdicts are checked under in ``expected.json``.  The same seed
gives the same argv lists and byte-identical schedule files.  Job ``i`` of
a seed does not depend on how many jobs are generated.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("pipeline", "specialized", "contraction")

BUNDLED_SCHEDULE = Path("src/jforge/data/jordanian_gl3.schedule")

# More jobs than one run of at most 60 seconds can consume; a longer run
# cycles through them.
POOL = 64

_EPS = re.compile(r"\beps\b")


def _rational(rng: random.Random) -> Fraction:
    """A small nonzero rational, so coefficient sizes stay alike across seeds."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def specialized_point(rng: random.Random) -> dict:
    """m != n, none of m, n, k zero, p not in {0, 1, -1}."""
    while True:
        point = {v: _rational(rng) for v in ("m", "n", "k", "p")}
        if point["m"] != point["n"] and abs(point["p"]) != 1:
            return point


def rescaled_schedule(text: str, c: Fraction) -> str:
    """The schedule with eps -> c*eps in every binding."""
    data = json.loads(text)
    data["bindings"] = {name: _EPS.sub(f"({c}*eps)", expr)
                        for name, expr in sorted(data["bindings"].items())}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def generate(workload: str, seed: int, root: Path, inputs: Path) -> list:
    """POOL jobs for workload; schedule files go under inputs (relative to root)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pipeline":
        return [[("all", ["all", "--format", "json"])]] * POOL
    if workload == "specialized":
        jobs = []
        for _ in range(POOL):
            point = specialized_point(rng)
            flags = ["--convention", "auto", "--format", "json"]
            for name, value in point.items():
                flags += ["--set", f"{name}={value}"]
            jobs.append([("relations", ["relations"] + flags),
                         ("hopf", ["hopf"] + flags)])
        return jobs
    if workload == "contraction":
        source = (root / BUNDLED_SCHEDULE).read_text(encoding="utf-8")
        (root / inputs).mkdir(parents=True, exist_ok=True)
        jobs = []
        for i in range(POOL):
            c = _rational(rng)
            rel = inputs / f"contraction-{seed}-{i}.schedule"
            (root / rel).write_text(rescaled_schedule(source, c), encoding="utf-8")
            steps = [(f"contract:{lane}",
                      ["contract", "--schedule", rel.as_posix(),
                       "--contraction-matrix", lane, "--format", "json"])
                     for lane in ("g", "bigg", "gprime")]
            steps += [(f"qybe:{m}", ["qybe", "--matrix", m, "--format", "json"])
                      for m in ("rq2", "rq3", "rj2", "rj3")]
            jobs.append(steps)
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
