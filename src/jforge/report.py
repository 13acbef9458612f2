"""Check reports: a uniform pass/fail record with JSON and text renderings.

Every verification entry point returns a CheckReport so the command line,
the test suite and the fixtures all read the same structure.  JSON output is
deterministic (sorted keys, stable ordering) and carries a schema_version so
downstream consumers can detect format changes.  The records are plain
slotted classes: dataclasses would load inspect and ast into every run.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1


class CheckResult:
    """A single named check.  details holds JSON-ready context values."""

    __slots__ = ("name", "passed", "details", "ms")

    def __init__(self, name: str, passed: bool, details: dict = None, ms: float = 0.0):
        self.name, self.passed, self.ms = name, passed, ms
        self.details = {} if details is None else details


class CheckReport:
    """A group of checks produced by one tool invocation."""

    __slots__ = ("tool", "checks", "metadata")

    def __init__(self, tool: str, checks: list = None, metadata: dict = None):
        self.tool = tool
        self.checks = [] if checks is None else checks
        self.metadata = {} if metadata is None else metadata

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, ms: float = 0.0, **details) -> CheckResult:
        result = CheckResult(name, bool(passed), details, round(ms, 3))
        self.checks.append(result)
        return result

    def extend(self, other: "CheckReport", prefix: str = ""):
        """Append the checks of other, each name under prefix."""
        self.checks.extend(CheckResult(prefix + c.name, c.passed, c.details, c.ms)
                           for c in other.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": self.tool,
            "pass": self.passed,
            "checks": [
                {"name": c.name, "pass": c.passed, "details": c.details, "ms": c.ms}
                for c in self.checks
            ],
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}")
            for key in sorted(c.details):
                lines.append(f"      {key}: {c.details[key]}")
        total = len(self.checks)
        good = sum(1 for c in self.checks if c.passed)
        lines.append(f"{self.tool}: {good}/{total} checks passed")
        return "\n".join(lines)
