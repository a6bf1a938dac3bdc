"""Shared exception types."""


class DimensionCapExceeded(Exception):
    """A construction would materialize a space above the caller's dimension cap."""


class ChainComplexError(Exception):
    """A would-be complex fails d*d = 0 or equivariance; carries diagnostics."""
