"""Exception types shared across the package.

Every error raised by dualmoco code derives from DualMocoError so callers
can catch the whole family at once. The leaf classes exist so tests and the
CLI can distinguish bad input from numerical trouble. Each class's
`exit_code` is the CLI's exit status for it: 2 (invalid input) unless a
class sets its own, 3 for unreadable data, 4 for numerical failure.
"""


class DualMocoError(Exception):
    """Base class for all dualmoco errors."""

    exit_code = 2


class ZeroVectorError(DualMocoError):
    """A vector with (near-)zero norm where a direction is required."""


class DimensionMismatchError(DualMocoError):
    """Two vectors or matrices with incompatible dimensions."""


class LengthMismatchError(DualMocoError):
    """Paired sequences of unequal length."""


class DegenerateInputError(DualMocoError):
    """Statistically degenerate input, e.g. a constant sequence."""


class TokenOutOfRangeError(DualMocoError):
    """A token id outside [0, vocab_size)."""


class ShapeMismatchError(DualMocoError):
    """Parameter or gradient containers whose array shapes disagree."""


class BatchExceedsCapacityError(DualMocoError):
    """More keys enqueued at once than the queue can hold."""


class NonUnitKeyError(DualMocoError):
    """A queue key whose norm deviates from 1 beyond tolerance."""


class NonPositiveTemperatureError(DualMocoError):
    """Softmax temperature that is zero or negative."""


class BatchLengthMismatchError(DualMocoError):
    """Paired batches from the two sides with different sizes."""


class InvalidLabelError(DualMocoError):
    """An inference label outside {entailment, neutral, contradiction}."""


class EmptyCorpusError(DualMocoError):
    """A corpus (or corpus file) with no usable records."""

    exit_code = 3


class ConfigError(DualMocoError):
    """An invalid configuration value; the message names the field."""


class CorpusParseError(DualMocoError):
    """A malformed corpus or binary file; the message cites the location."""

    exit_code = 3


class KTooLargeError(DualMocoError):
    """Neighbor count k exceeding the corpus size."""


class EmptySideError(DualMocoError):
    """A mining side with no sentences."""


class NoGoldPairsError(DualMocoError):
    """Threshold search invoked without any gold pairs."""


class ZeroDenominatorError(DualMocoError):
    """Ratio margin with a (near-)zero neighborhood average."""


class NumericalFailureError(DualMocoError):
    """A non-finite loss, gradient or output value."""

    exit_code = 4
