"""Correctness gate for benchmark operations.

Every check runs outside the timed span. A failed check is recorded as a
message on the Gate and makes its operation count as failed.
"""

from __future__ import annotations

import math

REL = 1e-9


def close(a: float, b: float) -> bool:
    """a equals b within REL relative (both finite)."""
    return math.isfinite(a) and math.isfinite(b) and math.isclose(a, b, rel_tol=REL, abs_tol=REL)


def not_above(a: float, b: float, slack: float = 0.0) -> bool:
    """a <= b + slack, allowing REL relative rounding."""
    return math.isfinite(a) and a <= b + slack + REL * max(abs(a), abs(b))


class Gate:
    """Collects the failed checks of one operation."""

    def __init__(self, label: str):
        self.label = label
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(f"{self.label}: {what}")

    @property
    def ok(self) -> bool:
        return not self.failures


def check_expected(gate: Gate, values: dict[str, float], recorded: dict[str, float] | None) -> None:
    """Optimum values match the ones recorded at the default seed."""
    if recorded is None:
        return
    for name, want in recorded.items():
        got = values.get(name)
        gate.expect(got is not None and close(got, want),
                    f"{name} = {got!r}, recorded {want!r}")
