"""Exception classes shared by several modules of the package."""


class SizeGuard(RuntimeError):
    """Requested computation exceeds the configured desk-scale bounds."""


class InvariantViolation(RuntimeError):
    """Internal inconsistency (a bug upstream, not a user error)."""
