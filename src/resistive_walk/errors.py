"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """A precondition on an operation's arguments was violated."""


class TruncationError(InvalidArgumentError):
    """A probe radius reaches too close to the window boundary."""


class SolverError(RuntimeError):
    """A solve failed: its factorization broke down or it missed the residual tolerance."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""
