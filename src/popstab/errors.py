"""The two kinds of failure a run ends in: input that cannot be used
(:class:`ConfigError`, exit 2) and a discretization that floating point
cannot carry (:class:`NumericalFailure`, exit 3).  Each error the command
line reports derives from one of them; errors that the package catches
itself derive from neither."""


class ConfigError(ValueError):
    """A model, option or output path that cannot be used."""


class NumericalFailure(ArithmeticError):
    """A discretization that floating point cannot carry."""


def describe(exc: BaseException) -> str:
    """``exc`` in one line; running out of memory is named."""
    return f"out of memory {exc}".rstrip() if isinstance(exc, MemoryError) else str(exc)
