"""The shared exception type and the package's two input rules, check_int
and check_real, one message form each (`p_dark must be a number in
[0, 0.5), got 0.5`): every layer may import this module, and it imports
nothing of the package."""

import math


class ContractViolationError(ValueError):
    """An operation was handed a state or operator that breaks its contract
    (non-unitary transform, unnormalized state, a device outcome off its
    one-photon or sign contract).
    """


def check_int(value, name: str, lo: int = 0, hi: int | None = None) -> None:
    """Reject a value that is not an int in [lo, hi] (no upper bound where
    hi is None), a bool included, with a ValueError that names it."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < lo
            or hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def check_real(value, name: str, lo: float = 0, hi: float = math.inf,
               ends: str = "[)") -> None:
    """Reject a value that is not an int or a float in the interval from lo
    to hi, each end closed or open as its bracket in ends says (the default
    [0, inf) is finite and >= 0), with a ValueError that names it. A bool,
    NaN (false in every comparison) and an int past the doubles are refused."""
    try:    # an int (a bool's type is bool) or a float, as its double
        x = (value if type(value) is float else float(value)
             if type(value) is int or isinstance(value, float) else math.nan)
    except OverflowError:
        x = math.nan
    if not ((lo < x or lo == x and ends[0] == "[")
            and (x < hi or x == hi and ends[1] == "]")):
        raise ValueError(f"{name} must be a number in {ends[0]}{lo!r}, "
                         f"{hi!r}{ends[1]}, got {value!r}")
