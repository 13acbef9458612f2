"""Check reports: a uniform pass/fail record with JSON and text renderings.

Every verification entry point returns a CheckReport so the command line,
the test suite and the fixtures all read the same structure.  JSON output is
deterministic (sorted keys, stable ordering) and carries a schema_version so
downstream consumers can detect format changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

SCHEMA_VERSION = 1


@dataclass
class CheckResult:
    """A single named check.  details holds JSON-ready context values."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    ms: float = 0.0


@dataclass
class CheckReport:
    """A group of checks produced by one tool invocation."""

    tool: str
    checks: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, ms: float = 0.0, **details) -> CheckResult:
        result = CheckResult(name, bool(passed), details, round(ms, 3))
        self.checks.append(result)
        return result

    def extend(self, other: "CheckReport", prefix: str = ""):
        """Append the checks of other, each name under prefix."""
        self.checks.extend(replace(c, name=prefix + c.name) for c in other.checks)

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
