"""Exception types shared across the package."""


class BoxlabError(Exception):
    """Base class for every error raised by this library."""


class StructuralError(BoxlabError):
    """Input so malformed that invariants cannot even be checked.

    Examples: mismatched array lengths, transform entries outside the point
    range, unparseable rational strings, invalid JSON payloads.
    """


class InvariantViolationError(BoxlabError):
    """Well-formed data that breaks a required invariant."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = list(report or [])


class SupportCapError(BoxlabError):
    """A computation would exceed the configured cap: a sparse construction
    in its support entries, or an oracle evaluation in the table cells
    times points it visits."""

    def __init__(self, needed: int, cap: int, work: str = "sparse support",
                 unit: str = "entries"):
        super().__init__(f"{work} would need {needed} {unit}, exceeding the cap of {cap}")
        self.needed = needed
        self.cap = cap


class PreconditionError(BoxlabError):
    """A documented operation precondition does not hold for these inputs."""
