"""Exception types raised across the package.

All subclass ValueError (IndexOutOfRange subclasses IndexError) so that
callers who do not care about the distinction can catch the builtin.
"""


class NotNormalized(ValueError):
    """A state or amplitude pair failed the normalization tolerance."""


class ModeMismatch(ValueError):
    """Operands disagree on mode count, or a mode reference is invalid."""


class ZeroState(ValueError):
    """Every amplitude vanished; the zero vector is not a quantum state."""


class AmplitudeOverflow(ValueError):
    """An amplitude is too large for its squared magnitude to be a float."""


class NotSquare(ValueError):
    """Permanent requested for a non-square matrix."""


class NotUnitary(ValueError):
    """Matrix failed the unitarity check at construction."""


class IndexOutOfRange(IndexError):
    """A mode index lies outside the state's modes."""


class OutOfRange(ValueError):
    """A scalar parameter lies outside its documented interval."""


class ConfigInvalid(ValueError):
    """Command-line or config-file input does not describe a valid job."""
