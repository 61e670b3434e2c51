class PiercingError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(PiercingError):
    pass


class NotCentrallySymmetric(PiercingError):
    pass


class NotHexagon(PiercingError):
    pass


class NotHexagonBase(PiercingError):
    pass


class VerificationFailed(PiercingError):
    pass


class SearchFailed(PiercingError):
    pass


class UnsupportedBase(PiercingError):
    pass


class TooLarge(PiercingError):
    pass


class EpsilonTooLarge(PiercingError):
    pass


class CoverageNotVerified(PiercingError):
    pass


class PackingNotVerified(PiercingError):
    pass


class ConstructionFailed(PiercingError):
    pass


class ParseError(PiercingError):
    pass
