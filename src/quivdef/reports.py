"""Machine-readable verification reports.

Every CLI run produces a report: the command, its parameters (including
the random seed), and a list of named checks, each tied to the statement
it verifies by a free-text anchor, with exact expected/actual values
serialized as strings ('p/q' for rationals).  Serialization is canonical
(sorted keys, no floats), so reports with the same inputs are
byte-identical; timings are only included on request since they would
break that.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from fractions import Fraction

from .linalg import fmt_fraction

TOOL_VERSION = "quivdef 0.1.0"


def exact(value):
    """Recursively stringify exact values for the report."""
    if isinstance(value, Fraction):
        return fmt_fraction(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): exact(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return str(value)


def error_text(exc: Exception) -> str:
    """Failure text that names the exception type, as in error: KeyError: 'arrows'."""
    return "error: %s: %s" % (type(exc).__name__, exc)


class Check(namedtuple("Check", "name anchor status expected actual elapsed_ms", defaults=(None,) * 3)):
    """One named check; status is pass / fail / skipped."""

    __slots__ = ()

    def as_dict(self, with_timings=False):
        doc = {field: exact(getattr(self, field)) for field in self._fields[:5]}
        if with_timings:
            doc["elapsed_ms"] = self.elapsed_ms
        return doc


class Report:
    def __init__(self, command: str, params: dict, checks=None):
        self.command = command
        self.params = params
        self.checks = [] if checks is None else checks

    def run(self, name, anchor, expected, fn):
        """Execute a check; exceptions become failures, never crashes."""
        start = time.monotonic()
        try:
            actual = fn()
            status = "pass" if actual == expected else "fail"
        except Exception as exc:  # surfaced, not silenced
            actual = error_text(exc)
            status = "fail"
        self.checks.append(
            Check(name, anchor, status, expected, actual, (time.monotonic() - start) * 1000.0)
        )
        return self.checks[-1]

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    def as_dict(self, with_timings=False):
        return {
            "command": self.command,
            "params": exact(self.params),
            "tool_version": TOOL_VERSION,
            "checks": [c.as_dict(with_timings) for c in self.checks],
            "summary": {
                "passed": sum(1 for c in self.checks if c.status == "pass"),
                "failed": self.failed,
                "skipped": sum(1 for c in self.checks if c.status == "skipped"),
            },
        }

    def to_json(self, with_timings=False) -> str:
        return json.dumps(self.as_dict(with_timings), indent=2, sort_keys=True)
