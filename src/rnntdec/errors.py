"""Exception taxonomy shared by all modules.

Every error raised by the library is a subclass of :class:`RnntError`, so
callers (and the CLI) can map failures to a small set of categories.
"""


class RnntError(Exception):
    """Base class for all library errors."""

    category = "error"


class ShapeError(RnntError):
    """Operand dimensions do not match the operation's contract."""

    category = "shape"


class DomainError(RnntError):
    """A value is outside the operation's domain (bad id, infeasible target...)."""

    category = "domain"


class ConfigError(RnntError):
    """Invalid or inconsistent configuration."""

    category = "schema"


class CapacityError(RnntError):
    """A requested table or buffer would exceed its configured budget."""

    category = "capacity"


class ArchiveError(RnntError):
    """Base class for model-archive I/O failures."""

    category = "io"


class UnsupportedFormatError(ArchiveError):
    """Archive format version is not understood."""

    category = "format"


class CorruptArchiveError(ArchiveError):
    """Archive bytes are inconsistent with their manifest."""

    category = "corrupt"


class ValidationError(ArchiveError):
    """A loaded archive violates a model invariant."""

    category = "validation"


class DivergenceError(RnntError):
    """Training or EMBR produced a non-finite loss or risk."""

    category = "divergence"
