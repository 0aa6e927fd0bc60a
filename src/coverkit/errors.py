"""Exception hierarchy shared across the package."""


class CoverkitError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CoverkitError, ValueError):
    """A spec or argument violates its declared invariants."""


class AlphabetError(CoverkitError, ValueError):
    """An operation that requires a binary alphabet received q != 2,
    or a symbol lies outside {0, ..., q-1}."""


class DomainError(CoverkitError, ValueError):
    """A closed-form bound was evaluated outside its mathematical domain."""


class ResourceLimitError(CoverkitError, RuntimeError):
    """A request's estimated work exceeds the work budget."""


class ConvergenceError(CoverkitError, RuntimeError):
    """A Las Vegas constructor hit its iteration cap without finishing."""


class FormatError(CoverkitError, ValueError):
    """An array document is malformed; the message names the offending line."""


class ConsistencyError(CoverkitError, ValueError):
    """A file header does not agree with the matrix it describes."""
