"""Pass/fail reports for exact verification checks.

Failures are entries, never exceptions: verifiers must be able to describe
an invalid object instead of refusing to look at it.
"""

from __future__ import annotations

from . import _Record
from .exactnum import sign


class Check(_Record):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._init(name, passed, detail)

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name}" + (f": {self.detail}" if self.detail else "")


class Report(_Record):
    __slots__ = _fields = ("checks",)

    def __init__(self, checks: tuple[Check, ...] = ()):
        self._init(checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _unequal(values) -> list[int]:
    """Indices of the values whose difference from the first has a nonzero sign."""
    return [i for i, v in enumerate(values) if sign(v - values[0])]
