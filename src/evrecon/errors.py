"""Exception types raised across the package.

Kept in one place so callers can catch a single family (`EvreconError`)
or the precise failure they care about.
"""


class EvreconError(Exception):
    """Base class for all errors raised by this package."""


class MalformedLine(EvreconError, ValueError):
    """An event text line did not parse as `t x y p`."""

    def __init__(self, line_number: int, line: str, reason: str = ""):
        self.line_number = line_number
        self.line = line
        msg = f"line {line_number}: cannot parse event from {line!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class UnsortedStream(EvreconError, ValueError):
    """Event timestamps decreased within the input."""


class PolarityOutOfRange(EvreconError, ValueError):
    """Polarity value outside the declared encoding."""


class EmptyStream(EvreconError, ValueError):
    """Operation requires at least one event."""


class InvalidDimensions(EvreconError, ValueError):
    """Scene or sensor dimensions violate the operation's preconditions."""


class NonPositiveIntensity(EvreconError, ValueError):
    """Intensity video contains values <= 0; log intensity is undefined."""


class InvalidArchitecture(EvreconError, ValueError):
    """Layer sizes or frequency scale do not describe a valid network."""


class InvalidCheckpoint(EvreconError, ValueError):
    """Checkpoint of another version, lacking an array, or not fitting its layer sizes."""


class NonFiniteOutput(EvreconError, FloatingPointError):
    """A network forward pass produced NaN or Inf."""


class NonFiniteGradient(EvreconError, FloatingPointError):
    """A backward pass produced NaN or Inf gradients."""


class ShapeMismatch(EvreconError, ValueError):
    """Array shapes do not agree where they must."""


class IndexOutOfRange(EvreconError, IndexError):
    """Frame index outside the stack."""


class DegenerateFrame(EvreconError, ValueError):
    """Frame too small for spatial differencing (needs H >= 2 and W >= 2)."""


class DivergedTraining(EvreconError, RuntimeError):
    """Training loss became non-finite or blew up."""

    def __init__(self, iteration: int, detail: str = "", partition: int | None = None):
        self.iteration = iteration
        self.partition = partition
        msg = f"training diverged at iteration {iteration}"
        if partition is not None:
            msg = f"partition {partition}: {msg}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class TimeOutOfRange(EvreconError, ValueError):
    """Requested sample time lies outside every trained span."""


class TooSmall(EvreconError, ValueError):
    """Image smaller than the metric's window."""
