"""Exception taxonomy shared across the package.

DomainError marks inputs that violate a mathematical precondition (CLI exit
code 1); UsageError marks malformed invocations and configs (exit code 2).
Every error survives a pickle round trip with its type, message and fields,
as the concentration traces need to send one from their child process.
"""

import copyreg


class DsbuError(Exception):
    """Base class for all package errors.

    ``key`` names the input value at fault, when one is, so that the config
    parser can report the line that set it.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key

    def __reduce__(self):
        # rebuilt without __init__, whose arguments differ between subclasses
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DomainError(DsbuError):
    """Input violates a mathematical precondition of an operation."""


class UsageError(DsbuError):
    """Malformed call, config, or file: the request itself is invalid."""


class GridMismatchError(UsageError):
    """Fields defined on different grids were combined."""


class ConfigError(UsageError):
    """Config text rejected; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonConvergenceError(DomainError):
    """Fixed-point iteration ran out of iterations; carries the residual history."""

    def __init__(self, message: str, residual_history):
        self.residual_history = list(residual_history)
        super().__init__(message)


class BlowupOverflowError(DsbuError):
    """A time step produced non-finite values; carries the last finite state."""

    def __init__(self, message: str, last_state):
        self.last_state = last_state
        super().__init__(message)


class NoBlowupError(DomainError):
    """Record sequence shows no blow-up regime to extrapolate from."""


class ResolutionError(DomainError):
    """Target grid too coarse for the requested evaluation; carries the minimal admissible |t|."""

    def __init__(self, message: str, min_abs_t: float):
        self.min_abs_t = min_abs_t
        super().__init__(message)


class SnapshotFormatError(DomainError):
    """Snapshot file failed structural or checksum validation."""
