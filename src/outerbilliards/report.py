"""Check reports: deterministic, replayable verification outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .errors import MapUndefinedError


@dataclass
class Violation:
    """One failed assertion; (seed, index) replays the offending sample."""

    index: int
    input: str
    expected: str
    actual: str

    def to_json(self) -> dict:
        return {"index": self.index, "input": self.input,
                "expected": self.expected, "actual": self.actual}


@dataclass
class CheckReport:
    check: str
    polygon: dict
    seed: int
    attempted: int = 0
    valid: int = 0
    wall_skipped: int = 0
    violations: List[Violation] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    runtime: Optional[float] = None  # in-memory only; never serialized

    @property
    def passed(self) -> bool:
        return not self.violations

    def fail(self, input_repr: str, expected: str, actual: str, index: int = -1):
        self.violations.append(Violation(index, input_repr, expected, actual))

    def judge(self, index: int, predicate, *args) -> Optional[bool]:
        """Count one sample of `predicate(*args)`: valid when it returns
        None, a violation at `index` when it returns (input, expected,
        actual), a wall skip when it raises MapUndefinedError.  Returns
        True, False or None for those three."""
        self.attempted += 1
        try:
            verdict = predicate(*args)
        except MapUndefinedError:
            self.wall_skipped += 1
            return None
        if verdict is None:
            self.valid += 1
            return True
        self.fail(*verdict, index)
        return False

    def absorb(self, other: CheckReport):
        """Add another report's sample counts and violations to this one."""
        self.attempted += other.attempted
        self.valid += other.valid
        self.wall_skipped += other.wall_skipped
        self.violations.extend(other.violations)

    def wall_skip_rate(self) -> float:
        if self.attempted == 0:
            return 0.0
        return self.wall_skipped / self.attempted

    def to_json(self) -> dict:
        # runtime is deliberately excluded so reports are byte-reproducible
        return {
            "schema": "check-report/1",
            "check": self.check,
            "polygon": self.polygon,
            "seed": self.seed,
            "samples": {
                "attempted": self.attempted,
                "valid": self.valid,
                "wall_skipped": self.wall_skipped,
            },
            "violations": [v.to_json() for v in self.violations],
            "notes": list(self.notes),
            "pass": self.passed,
        }

    def summary_line(self) -> str:
        status = "PASS" if self.passed else f"FAIL({len(self.violations)})"
        return (f"{self.check:<28} {status:<9} samples={self.valid}/{self.attempted} "
                f"wall-skipped={self.wall_skipped}")
