"""Error types shared across modules."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in tamewall, not a property of
    the input and not a mathematical refutation."""
