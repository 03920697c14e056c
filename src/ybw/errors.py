"""Exception types raised by the exact-arithmetic verification layers.

Every contract violation carries a witness in its message (a basis index,
an element pair, a JSON path) so failed certifications are reproducible.
"""


class YbwError(Exception):
    """Base class for all library errors."""


class SchemaError(YbwError):
    """Malformed input file; ``path`` locates the offending JSON node."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DimensionMismatchError(YbwError):
    pass


class FieldArithmeticError(YbwError):
    """An identity of the exact cyclotomic arithmetic failed: a bug, not bad input."""


class NotInvolutiveError(YbwError):
    pass


class YBEFailsError(YbwError):
    pass


class NonIntegralBlocksError(YbwError):
    pass


class NoMatchError(YbwError):
    """The cycle traces solve to no Thoma parameters with weights k/d: a trace
    is not rational, a weight count is not a non-negative integer, or the
    total mass is not 1 (for a certified R, a certification bug)."""


class SupportExceedsLevelError(YbwError):
    pass


class OperatorTooLargeError(YbwError):
    """An operator would exceed its documented size limit; the message names
    the requested size and the limit."""


class NotAGroupError(YbwError):
    pass


class UnknownCatalogNameError(YbwError):
    pass


class IncompleteIrrepListError(YbwError):
    pass


class NotHomomorphismError(YbwError):
    pass


class NotUnitaryError(YbwError):
    pass


class NotIrreducibleError(YbwError):
    pass


class GroupMismatchError(YbwError):
    pass


class ExtendedREFailsError(YbwError):
    pass


class SupportsNotDisjointError(YbwError):
    pass


class ParamsError(YbwError):
    """Base for parameter-family validation failures."""


class NotNonIncreasingError(ParamsError):
    pass


class NegativeEntryError(ParamsError):
    pass


class MassExceedsOneError(ParamsError):
    pass


class UnknownIrrepLabelError(ParamsError):
    pass
