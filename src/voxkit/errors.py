"""Exception types raised across the toolkit."""


class VoxkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfigError(VoxkitError):
    """A configuration value is out of its legal range."""


class InvalidRateError(VoxkitError):
    """A sample rate is zero, negative, or otherwise unusable."""


class EmptySignalError(VoxkitError):
    """An operation received a zero-length waveform."""


class EmptySequenceError(VoxkitError):
    """An operation received a feature sequence with no frames."""


class DimensionMismatchError(VoxkitError):
    """Two feature sequences disagree on feature dimension."""


class RateMismatchError(VoxkitError):
    """Two inputs that must share a sample rate do not."""


class LengthMismatchError(VoxkitError):
    """Two signals that must share a length do not."""


class FrameRateMismatchError(VoxkitError):
    """Two tracks that must share a frame rate do not."""


class EmptyTrackError(VoxkitError):
    """An operation received a pitch track with no frames."""


class EmptyReferenceError(VoxkitError):
    """The reference text is empty after normalization."""


class AllSilenceError(VoxkitError):
    """Every frame is silence; there is nothing to keep."""


class AllZeroError(VoxkitError):
    """The signal is digital zero and cannot be normalized."""


class ParseError(VoxkitError):
    """A manifest file is malformed.

    Carries the 1-based line number when one is known; the message starts
    with the file's path, when given, and the line.
    """

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedWavError(VoxkitError):
    """A WAV file is malformed, or uses a channel count or sample format we do not read."""


class ClippingWarning(UserWarning):
    """Samples were clipped into [-1, 1] during a mix or write."""


class TruncatedWavWarning(UserWarning):
    """A WAV file ends inside its data chunk; the samples it holds were read."""


class TrackLengthWarning(UserWarning):
    """Two tracks being aligned differ in length by more than 10%."""
