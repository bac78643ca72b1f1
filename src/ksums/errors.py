"""Error types and the work budget shared across the package."""

import sys

# bits that one big-int pass of a request may write: the Krawtchouk
# recurrence of a weight distribution, the Pless pass of a moment request,
# the oracle moments' powers, the levels of a Kloosterman values table and
# the GL recursion are each charged against it, by charge, before they start
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


def charge(bits: int, work: str, advice: str, *args):
    """Refuse `work`, which writes about `bits` bits, if that is over TRANSFORM_BIT_BUDGET.

    `work` is a str.format template filled from `args` only on refusal: a
    code length can run to thousands of digits, and an admitted request
    should not pay for a decimal it never shows. A refusal prints it in
    full, as the CLI does, so Python's int -> str digit limit is lifted
    while the message is formatted and put back after.
    """
    if bits <= TRANSFORM_BIT_BUDGET:
        return
    get_limit = getattr(sys, "get_int_max_str_digits", None)  # absent before Python 3.10.7
    limit = get_limit() if get_limit is not None else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        message = (f"{work.format(*args)}: about {bits} bits, over budget "
                   f"{TRANSFORM_BIT_BUDGET}; {advice}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    raise BudgetError(message)
