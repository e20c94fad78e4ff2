"""Exception hierarchy.

Two branches matter to the CLI: ``ValidationError`` (malformed input, exit
code 1) and ``ComputationError`` (well-formed input on which the requested
computation is undefined, exit code 2).  Every error survives a pickle round
trip, so one raised in a worker process reaches the CLI unchanged.
"""

from __future__ import annotations


class VcpError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(VcpError):
    """Input, configuration, or file-format violation."""


class ComputationError(VcpError):
    """The computation is undefined or unattainable for valid-looking input."""


class VcpSyntaxError(ValidationError):
    """Syntax error in VCPLang source, with position and expectation set."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        detail = f"line {line}, column {col}: {message}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)

    def __reduce__(self):  # rebuilt from the constructor's arguments, not from ``args``
        return type(self), (self.message, self.line, self.col, self.expected)


class DomainError(ComputationError):
    """Argument outside the mathematical domain of an operation."""


class NotApplicableError(ComputationError):
    """A defect kind has no applicable site in the given program."""

    def __init__(self, kind: str, unit: str):
        self.kind = kind
        self.unit = unit
        super().__init__(f"defect kind {kind!r} has no applicable site in unit {unit!r}")

    def __reduce__(self):
        return type(self), (self.kind, self.unit)


class CalibrationError(ComputationError):
    """Complexity-weight calibration cannot be solved."""


class UndefinedVelocityError(ComputationError):
    """Velocity is undefined because the session has no active time."""


class FitError(ComputationError):
    """A model fit cannot be computed (singular or degenerate design)."""


class ConstantInputError(ComputationError):
    """Correlation is undefined because an input vector is constant."""


class DegenerateAgreementError(ComputationError):
    """Chance agreement is 1, so chance-corrected agreement is undefined."""


class SearchError(ComputationError):
    """A bracketing search exhausted its bounds without an answer."""


class DegenerateOmegaWarning(UserWarning):
    """The complexity weight evaluated to zero; downstream ratios collapse."""


class DegenerateEntropyWarning(UserWarning):
    """Structural entropy is zero; the explanation gap is reported as zero."""
