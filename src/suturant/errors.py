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


class BudgetExceededError(SuturantError):
    """Work past a stated budget, refused before it starts or once the
    budget is passed: a packed determinant entry wider than
    ``foxcalc.MAX_PACKED_BITS``, a class ranking past
    ``foxcalc.MAX_CLASS_WORK``, more multipoints than
    ``diagram.MAX_MULTIPOINTS``, or characters past
    ``cli.MAX_CHARACTER_WORK``."""


class CyclotomicArithmeticError(SuturantError, ArithmeticError):
    """An exact result that leaves the integers: a non-integral coefficient
    after rational scaling, or division by a non-monic polynomial; or
    arithmetic on scalars of different cyclotomic orders."""
