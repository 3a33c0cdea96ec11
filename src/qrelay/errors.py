"""Shared exception types."""


class ContractViolationError(ValueError):
    """An operation was handed a state or operator that breaks its contract
    (non-unitary transform, unnormalized state, occupation over the photon cap).
    """

