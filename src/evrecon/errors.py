"""Exception types raised across the package.

Kept in one place so callers can catch a single family (`EvreconError`)
or the precise failure they care about; `check_settings` raises them.
"""

import math


def _rebuild(cls, args, state):
    """An error of type `cls` with `args` and attributes `state`, made
    without calling its `__init__`."""
    error = cls.__new__(cls, *args)  # BaseException.__new__ stores args
    error.__dict__.update(state)
    return error


class EvreconError(Exception):
    """Base class for all errors raised by this package.

    Pickling keeps the type, message and attributes of every subclass, so
    an error raised in a worker process of `parallel.fork_map` reaches the
    caller intact, whatever arguments the subclass's own `__init__` takes.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


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


class InvalidWindow(EvreconError, ValueError):
    """An event stream window [t_start, t_end] that is reversed, not
    finite, or does not hold the stream's events."""


class UnknownName(EvreconError, ValueError):
    """A polarity encoding or scene kind that is not one of the known names."""


class InvalidDimensions(EvreconError, ValueError):
    """Scene or sensor dimensions violate the operation's preconditions."""


class NonPositiveIntensity(EvreconError, ValueError):
    """Intensity video contains values that are not finite and positive;
    log intensity is undefined there."""


class InvalidCounts(EvreconError, ValueError):
    """Event counts that are not whole numbers within int32's range."""


class ZeroWidthBin(EvreconError, ValueError):
    """Bin edges that do not strictly increase (a bin of zero or negative
    width, or a NaN edge), or a bin duration not finite and positive."""


class NonPositiveThreshold(EvreconError, ValueError):
    """A contrast threshold C that is not a finite positive number."""


class InvalidArchitecture(EvreconError, ValueError):
    """Layer sizes or frequency scale do not describe a valid network."""


class InvalidCheckpoint(EvreconError, ValueError):
    """Checkpoint of another version, lacking an array, or not fitting its layer sizes."""


class InvalidConfig(EvreconError, ValueError):
    """Training or simulator configuration with an unknown key, an
    unparsable value, or values that violate its constraints."""


class NonFiniteFrames(EvreconError, ValueError):
    """A log video holding NaN or Inf."""


class NonPositiveSetting(EvreconError, ValueError):
    """A tone-mapping gamma or an enhancement window that is not a finite
    positive number."""


class NonFiniteOutput(EvreconError, FloatingPointError):
    """A network forward pass produced NaN or Inf."""


class NonFiniteGradient(EvreconError, FloatingPointError):
    """A backward pass produced NaN or Inf gradients."""


class ShapeMismatch(EvreconError, ValueError):
    """Array shapes do not agree where they must."""


class DtypeMismatch(EvreconError, TypeError):
    """Arrays that must share one dtype do not."""


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


class WorkerLost(EvreconError, RuntimeError):
    """A worker process of `parallel.fork_map` exited without returning its
    results (killed, for example, when the machine ran out of memory)."""


class InvalidTimestamps(EvreconError, ValueError):
    """Frame times that are empty, not 1-D, not finite or not strictly
    increasing, a times.txt line that is not a number, or an event time
    that is not finite. `index` is the position of the offending time,
    when one is to blame."""

    def __init__(self, msg: str, index: int | None = None):
        self.index = index
        super().__init__(msg)


class InvalidPGM(EvreconError, ValueError):
    """A frame that is not an 8-bit 2-D array, a PGM file that is
    truncated, malformed or deeper than 8 bits, or a frame directory whose
    times.txt does not match its frames."""


class TimeOutOfRange(EvreconError, ValueError):
    """Requested sample time lies outside every trained span."""


class TooSmall(EvreconError, ValueError):
    """Image smaller than the metric's window."""


class NotEightBit(EvreconError, ValueError):
    """Frames whose values are not integers in 0-255."""


def check_settings(error: type, at_least=None, /, **values) -> None:
    """Raise `error`, naming the setting and its value, at the first of
    `values` that is not finite or not > 0 (not >= at_least when given).
    Python ints count as finite however large."""
    for name, value in values.items():
        if not (isinstance(value, int) or math.isfinite(value)):
            raise error(f"{name} must be finite, got {value}")
        if at_least is None and not value > 0:
            raise error(f"{name} must be positive, got {value}")
        if at_least is not None and not value >= at_least:
            raise error(f"{name} must be >= {at_least}, got {value}")
