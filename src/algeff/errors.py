"""Error types shared across the package."""


class AlgeffError(Exception):
    """Base class for all errors raised by this package."""


class UnknownOperation(AlgeffError):
    pass


class ParameterOutOfUniverse(AlgeffError):
    pass


class IncompleteContinuation(AlgeffError):
    pass


class UnboundGenerator(AlgeffError):
    pass


class EmptyStateUniverse(AlgeffError):
    pass


class NonEnumerableCarrier(AlgeffError):
    pass


class TheoryMismatch(AlgeffError):
    pass


class NoNormalizer(AlgeffError):
    pass


class UncoveredOperation(AlgeffError):
    pass


class NonEnumerableWorld(AlgeffError):
    pass


class ImpossibleCooperation(AlgeffError):
    """A cooperation into an empty arity cannot exist over a nonempty world."""


class UnprintableValue(AlgeffError):
    """A result too large for the printer, such as an integer of more digits
    than ``str()`` converts."""


class UnboundVariable(AlgeffError):
    def __init__(self, name, pos=None):
        where = f" at {pos[0]}:{pos[1]}" if pos else ""
        super().__init__(f"unbound variable{where}: {name}")
        self.name = name
        self.pos = pos


class TypeMismatch(AlgeffError):
    def __init__(self, pos, expected, found):
        line, col = pos if pos else ("?", "?")
        super().__init__(f"type error at {line}:{col}: expected {expected}, found {found}")
        self.pos = pos
        self.expected = expected
        self.found = found


class ParseError(AlgeffError):
    def __init__(self, line, col, message):
        super().__init__(f"syntax error at {line}:{col}: {message}")
        self.line = line
        self.col = col
        self.reason = message
