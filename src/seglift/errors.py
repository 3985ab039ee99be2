"""Typed errors for every parsing, validation, and pipeline failure.

Malformed inputs must surface as one of these types, never as an
uncontrolled crash.  OS-level failures (missing file, permissions)
propagate as the builtin OSError.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ToolkitError):
    """A file or buffer does not conform to its declared on-disk format."""


class LengthError(FormatError):
    """Binary file length is not a multiple of its record size."""


class ParseError(FormatError):
    """A text artifact (calib, class map, CSV table) failed to parse."""


class BadMagic(FormatError):
    """Tensor container does not start with the expected magic bytes."""


class UnsupportedVersion(FormatError):
    """Tensor container declares a version or dtype code we do not handle."""


class SizeMismatch(ToolkitError):
    """Parallel arrays or declared/actual payload sizes disagree."""


class DimMismatch(ToolkitError):
    """Tensor dimensions do not match what the operation requires."""


class NonFiniteValue(ToolkitError):
    """A value that must be finite is NaN or infinite."""


class NotADistribution(ToolkitError):
    """A probability row has an entry outside [0, 1] (or NaN) or does not sum to 1."""


class UnknownClassError(ToolkitError):
    """A label value falls outside the configured class map."""


class EmptyInput(ToolkitError):
    """An operation that needs at least one element received none."""


class BadK(ToolkitError):
    """Invalid neighborhood size (must be odd, >= 1, <= indexed points)."""


class EmptyHistogram(ToolkitError):
    """Class histogram has no nonzero count outside the ignore class."""


class EmptyMatrix(ToolkitError):
    """Confusion matrix contains no evaluated points."""


class LengthMismatch(ToolkitError):
    """Weight vectors in one soup do not all share the same length."""


class EvalCommandFailed(ToolkitError):
    """External metric command exited nonzero or printed no parseable scalar."""


class DegenerateSpec(ToolkitError):
    """Synthetic scene specification describes impossible geometry."""


class ConfigError(ToolkitError):
    """Pipeline configuration is invalid (unknown key, bad value, bad flag)."""
