"""Exception types shared across the package: one class per failure family.

Every error raised by dualmoco code is one of these, so callers can catch
them all as DualMocoError. A class's `exit_code` is the CLI's exit status
for it:

- ConfigError (2): a setting outside its allowed range, such as a
  non-positive temperature, a neighbour count k above the corpus size or
  a batch larger than the negative queue;
- InvalidInputError (2): arguments that the code cannot work on, such as
  arrays of mismatched shapes or lengths, token ids outside the
  vocabulary, zero vectors, NaN similarities or an empty mining side;
- CorpusParseError (3): a data file that cannot be read, such as a
  malformed or empty corpus, a corrupt binary file or an invalid JSON file;
- NumericalFailureError (4): a non-finite loss, gradient or output value.

Messages name the field, item or file at fault, which is how callers tell
two failures of one family apart.
"""


class DualMocoError(Exception):
    """Base class for all dualmoco errors."""

    exit_code = 2


class ConfigError(DualMocoError):
    """An invalid configuration value; the message names the field."""


class InvalidInputError(DualMocoError):
    """Input the computation cannot use; the message names the item."""


class CorpusParseError(DualMocoError):
    """A malformed, empty or unreadable data file; the message cites the location."""

    exit_code = 3


class NumericalFailureError(DualMocoError):
    """A non-finite loss, gradient or output value."""

    exit_code = 4
