"""Exception types shared across the package."""

from __future__ import annotations


class RecolorwalkError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(RecolorwalkError):
    """An input file violates its documented text format."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ImproperInput(RecolorwalkError):
    """An input coloring is improper."""


class PaletteTooSmall(RecolorwalkError):
    """The color budget cannot support the requested recoloring."""


class StateSpaceTooLarge(RecolorwalkError):
    """An exhaustive enumeration would exceed its configured cap."""


class SizeGuaranteeViolated(RecolorwalkError):
    """A peeling round's independent set fell short of its guaranteed size.

    This is the symptom callers see when the density precondition
    (maximum average degree at most d - epsilon) does not hold.
    `round_index` is the 1-based peeling round that fell short.
    """

    def __init__(self, achieved: int, threshold: int, residual_size: int,
                 round_index: int):
        super().__init__(
            f"independent set of size {achieved} is below the guaranteed "
            f"threshold {threshold} on a residual graph of {residual_size} "
            f"vertices in round {round_index}; the density precondition likely fails"
        )
        self.achieved = achieved
        self.threshold = threshold
        self.residual_size = residual_size
        self.round_index = round_index


class SequenceViolation(RecolorwalkError):
    """A replayed recoloring sequence broke a walk rule or missed its end state."""

    def __init__(self, step_index: int, reason: str):
        super().__init__(f"step {step_index}: {reason}")
        self.step_index = step_index
        self.reason = reason
