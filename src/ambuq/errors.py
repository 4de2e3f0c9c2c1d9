"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An input is missing, non-positive, non-finite, or the wrong type."""


class NoSteadyStateError(ValueError):
    """The queue has no stationary distribution (traffic intensity >= 1)."""

    def __init__(self, rho: float, message: str | None = None):
        self.rho = rho
        super().__init__(
            message
            or f"no steady state: traffic intensity rho={rho:.6g} is not below 1"
        )

    def __reduce__(self):
        # args hold only the message, so the default would pass it as rho
        return type(self), (self.rho, str(self))
