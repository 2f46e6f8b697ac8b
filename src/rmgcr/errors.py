"""The root of every error that bad input raises, and the range checks of numeric settings.

This module imports nothing from the package, so every module can use it.
"""


class InputError(ValueError):
    """A task file, dataset, model file, policy or setting the program cannot use; the CLI exits 3."""


class OutOfRangeError(InputError):
    """A numeric setting outside its range: a seed, a discount, a threshold, a fraction or a weight."""


def check_seed(name: str, value: int) -> None:
    """Raise OutOfRangeError if value is negative, which numpy's seeding refuses."""
    if value < 0:
        raise OutOfRangeError(f"{name} must be non-negative, not {value!r}")


def check_open_unit(name: str, value: float) -> None:
    """Raise OutOfRangeError unless 0 < value < 1, which NaN fails too."""
    if not (0.0 < value < 1.0):
        raise OutOfRangeError(f"{name} must lie in (0, 1), not {value!r}")


def check_count(name: str, value: int) -> None:
    """Raise OutOfRangeError unless value is at least 1."""
    if not value >= 1:
        raise OutOfRangeError(f"{name} must be at least 1, not {value!r}")
