"""Error types and the work budget shared across the package."""

# bits that one big-int pass of a request may write: the Krawtchouk
# recurrence of a weight distribution, the Pless pass of a moment request,
# the oracle moments' powers and the GL recursion are each charged against
# it, by charge, before they start
TRANSFORM_BIT_BUDGET = 10 ** 8


class BudgetError(RuntimeError):
    """An enumeration would exceed its hard desk-scale cap."""


class ConsistencyError(RuntimeError):
    """Two exact computations that must agree did not.

    Raised with a diagnostic payload; this always indicates a bug, never a
    rounding artifact (all arithmetic is exact).
    """

    def __init__(self, message, **details):
        if details:
            message = message + " | " + ", ".join(
                f"{k}={v}" for k, v in sorted(details.items()))
        super().__init__(message)
        self.details = details


def charge(bits: int, work: str, advice: str):
    """Refuse `work`, which writes about `bits` bits, if that is over TRANSFORM_BIT_BUDGET."""
    if bits > TRANSFORM_BIT_BUDGET:
        raise BudgetError(f"{work}: about {bits} bits, over budget "
                          f"{TRANSFORM_BIT_BUDGET}; {advice}")
