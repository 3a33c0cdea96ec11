"""Shared exception types."""


class ContractViolationError(ValueError):
    """An operation was handed a state or operator that breaks its contract
    (non-unitary transform, unnormalized state, a device outcome off its
    one-photon or sign contract).
    """

