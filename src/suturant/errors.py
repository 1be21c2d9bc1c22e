"""Exception hierarchy shared by all suturant modules."""


class SuturantError(Exception):
    pass


class ParseError(SuturantError):
    """Malformed diagram or script text.  Carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DuplicateIdError(SuturantError):
    pass


class UnknownCurveError(SuturantError):
    pass


class InvalidMultipointError(SuturantError):
    pass


class IllegalMoveError(SuturantError):
    pass


class CharacterMismatchError(SuturantError):
    pass


class OddScalarError(SuturantError):
    pass


class ArcCurveError(SuturantError):
    pass


class InvalidCharacterError(SuturantError):
    pass


class UnknownGeneratorError(SuturantError):
    pass


class NonSquareError(SuturantError):
    pass


class NotDivisibleError(SuturantError):
    pass


class GroupMismatchError(SuturantError):
    pass


class AmbiguousOrientationError(SuturantError):
    pass


class InvalidReferenceError(SuturantError):
    pass


class CyclotomicArithmeticError(SuturantError, ArithmeticError):
    """An exact result that leaves the integers: a non-integral coefficient
    after rational scaling, or division by a non-monic polynomial."""
