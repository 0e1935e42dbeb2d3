"""Shared exception types.

ConfigError covers bad parameters and bad scenario files (CLI exit code 2).
InvariantViolation means the simulator caught itself in an impossible state
(CLI exit code 3); it is never raised for legitimate data loss, which is a
result, not an error.
"""


class ConfigError(ValueError):
    pass


class MissingFragmentError(KeyError):
    """Read of a fragment that is not stored."""


class DecodeError(RuntimeError):
    """Fewer than k distinct fragments available, or inconsistent input."""


class InvariantViolation(AssertionError):
    pass
