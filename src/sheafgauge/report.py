"""Check results and deterministic reports.

Every verification routine in this package reduces to one or more
``CheckResult`` values: a named residual compared against a tolerance,
with the worst sample point attached; ``CheckResult.require`` turns a
failed one into an exception.  ``Report`` is an ordered collection of
results whose text renderings are byte-deterministic, so two runs over
the same inputs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    worst_point: object | None = None
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.residual <= self.tolerance

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        return "pass" if self.passed else "fail"

    def require(self, error: type, what: str) -> "CheckResult":
        """This result if it passed; else raise ``error`` with the worst
        point and residual, as ``what (residual R at P)``."""
        if self.passed:
            return self
        raise error(f"{what} (residual {self.residual:.3e} at {self.worst_point!r})",
                    point=self.worst_point, residual=self.residual)


def worst(name: str, tol: float, pairs) -> CheckResult:
    """Reduce ``(point, residual)`` pairs to the result at the worst point.

    The first strict maximum wins, so ties keep the earliest point; an
    empty or all-zero sequence gives residual 0.0 and no worst point.
    """
    residual, at = 0.0, None
    for p, d in pairs:
        if d > residual:
            residual, at = d, p
    return CheckResult(name, residual, tol, at)


class Report:
    """Ordered map of check name to result with stable text output."""

    def __init__(self):
        self._entries: dict[str, CheckResult] = {}

    def add(self, result: CheckResult) -> None:
        if result.name in self._entries:
            raise ValueError(f"duplicate check name {result.name!r}")
        self._entries[result.name] = result

    def __len__(self) -> int:
        return len(self._entries)

    def results(self) -> list[CheckResult]:
        return list(self._entries.values())

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self._entries.values())

    def table(self) -> str:
        """Fixed-width summary table, one line per check."""
        rows = [("check", "residual", "tolerance", "worst", "status")]
        for r in self._entries.values():
            res = "-" if r.error is not None else f"{r.residual:.6e}"
            at = "-" if r.worst_point is None else str(r.worst_point)
            rows.append((r.name, res, f"{r.tolerance:.1e}", at, r.status))
        widths = [max(len(row[i]) for row in rows) for i in range(5)]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        n = len(self._entries)
        good = sum(1 for r in self._entries.values() if r.passed)
        lines.append(f"{n} checks, {good} passed, {n - good} failed")
        return "\n".join(lines)

    def kv_lines(self) -> list[str]:
        """Flat key = value lines for machine consumption."""
        lines = []
        for r in self._entries.values():
            lines.append(f"{r.name}.residual = {r.residual!r}")
            lines.append(f"{r.name}.tolerance = {r.tolerance!r}")
            at = "-" if r.worst_point is None else str(r.worst_point)
            lines.append(f"{r.name}.worst_point = {at}")
            lines.append(f"{r.name}.status = {r.status}")
            if r.error is not None:
                lines.append(f"{r.name}.error = {r.error}")
        return lines
