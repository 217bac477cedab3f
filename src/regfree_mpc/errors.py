"""Exception types used across the package."""


class RegfreeMpcError(Exception):
    """Base class for all package errors; `key` names the config key whose value is refused."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConfigError(RegfreeMpcError):
    """Invalid configuration file or option."""

    def __init__(self, message, line=None, key=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message, key)
        self.line = line


class NumericalError(RegfreeMpcError):
    """Non-finite values or failed numerical procedure."""


class DomainError(RegfreeMpcError):
    """Argument outside the mathematically valid domain."""


class ShapeError(RegfreeMpcError):
    """Inconsistent or unsupported dimensions."""


class ResonanceError(RegfreeMpcError):
    """Regulator equations unsolvable: exosystem pole hits a transmission zero."""


class ObservabilityError(RegfreeMpcError):
    """Finite-time observability constant does not exist for the given window."""


class DegenerateSystemError(RegfreeMpcError):
    """Identically zero input-output map."""


class DetectabilityError(RegfreeMpcError):
    """Detectability prerequisite violated."""
