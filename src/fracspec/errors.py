"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(ValueError):
    """An input exceeds a configured size, depth, or cost budget."""


class ConfigError(ValueError):
    """An experiment configuration file is malformed or incomplete."""
