"""The shared exception type and the one integer check: every layer may
import this module, and it imports nothing of the package."""


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
