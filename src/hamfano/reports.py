"""Structured pass/fail/inconclusive reporting shared by all checkers.

Violations are semantic: the document parsed fine but contradicts an
invariant or a proved constraint.  Structural problems (unresolvable ids,
malformed weights, bad arity) raise :class:`StructuralError` instead and
never appear inside a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class StructuralError(ValueError):
    """Document or argument is malformed; no semantic verdict possible."""


class PreconditionError(StructuralError):
    """Operation invoked outside its stated contract."""


class NonUniqueExtremumError(PreconditionError):
    """The extremal component at one end is not unique."""


class InconsistencyError(ValueError):
    """Exact arithmetic certifies the input cannot come from a genuine action."""


@dataclass(frozen=True)
class Violation:
    """One check record tied to its subject: a violated invariant, or with
    status "inconclusive" a check whose hypotheses cannot be certified from
    the data alone."""

    code: str
    message: str
    subject: Optional[str] = None
    status: Optional[str] = None

    def as_dict(self) -> dict:
        d: dict = {"code": self.code, "message": self.message}
        if self.status is not None:
            d["status"] = self.status
        if self.subject is not None:
            d["subject"] = self.subject
        return d


@dataclass
class Report:
    """Outcome of a suite of checks.

    ``ok`` is True precisely when no violation was recorded; inconclusive
    items do not fail a report but are surfaced separately.
    """

    violations: list[Violation] = field(default_factory=list)
    inconclusive: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def flag(self, code: str, message: str, subject: Optional[str] = None) -> None:
        self.violations.append(Violation(code, message, subject))

    def undecided(self, code: str, message: str, subject: Optional[str] = None) -> None:
        self.inconclusive.append(Violation(code, message, subject, "inconclusive"))

    def note(self, message: str) -> None:
        self.notes.append(message)

    def extend(self, other: "Report") -> None:
        self.violations.extend(other.violations)
        self.inconclusive.extend(other.inconclusive)
        self.notes.extend(other.notes)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "inconclusive": [i.as_dict() for i in self.inconclusive],
            "notes": list(self.notes),
        }
