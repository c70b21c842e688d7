"""Exception types shared across the package."""


class PermChannelError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatchError(PermChannelError, ValueError):
    """A permutation and its operand act on different numbers of positions."""


class ResourceBoundError(PermChannelError):
    """A configured size bound would be exceeded."""


class GroupSizeLimitError(ResourceBoundError):
    """Group closure grew past the configured element limit."""


class StateSpaceBoundError(ResourceBoundError):
    """The d**n state space (or a derived dimension) exceeds the configured bound."""


class InexactDivisionError(PermChannelError):
    """An orbit-averaging sum failed to divide exactly by the group order.

    This can only happen on invalid input (a non-closed element set); for a
    genuine group the division is exact by construction.
    """


class NotTotallyOrthogonalError(PermChannelError):
    """Certification found an irrep whose Frobenius-Schur indicator is not +1."""


class CharacterTableError(PermChannelError):
    """Character table construction failed or did not meet its invariants."""


class MultiplicityRoundingError(PermChannelError):
    """A computed multiplicity or indicator was too far from an integer."""

