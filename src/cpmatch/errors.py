"""Exception types shared across the package."""


class CpmatchError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(CpmatchError):
    """The input text is empty."""


class SentinelByteError(CpmatchError):
    """The input text contains the byte reserved for the terminator."""


class EmptyPatternError(CpmatchError):
    """A query pattern is empty."""


class SentinelInPatternError(CpmatchError):
    """A query pattern contains the terminator symbol."""


class EmptyArrayError(CpmatchError):
    """A range-minimum structure was requested over an empty array."""


class InvalidRangeError(CpmatchError):
    """A range query received positions outside 1..n or lo > hi."""


class InvalidPositionError(CpmatchError):
    """A threshold scan received a position outside its valid span."""


class NonSingletonBoundaryError(CpmatchError):
    """A boundary-crossing interval held more than one suffix.

    The terminator occurs at exactly one text position, so this is an
    invariant violation and should be unreachable.
    """


class IndexFormatError(CpmatchError):
    """Base class for errors in the serialized index format."""


class BadMagicError(IndexFormatError):
    """The stream does not start with the index magic bytes."""


class UnsupportedVersionError(IndexFormatError):
    """The stream declares a format version this build cannot read."""


class CorruptSectionError(IndexFormatError):
    """A section is truncated, inconsistent with the header, or violates a
    structural invariant."""
