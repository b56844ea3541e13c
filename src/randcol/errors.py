"""Exception types shared across the package."""


class RandcolError(Exception):
    """Base of the package's errors: anything else raised is a bug."""


class InputError(RandcolError, ValueError):
    """Malformed or out-of-contract input (bad vertex ids, wrong regularity, ...)."""


class CapacityError(RandcolError, ValueError):
    """Requested work exceeds a configured enumeration or size cap."""


class GenerationError(RandcolError, RuntimeError):
    """A randomised generator exhausted its rejection budget; retry with a new seed."""


class ConstructionError(RandcolError, RuntimeError):
    """A deterministic construction failed its internal audit (bug guard)."""


class ConvergenceError(RandcolError, RuntimeError):
    """An iterative numerical routine did not converge within its iteration cap."""
