"""Error types shared across the package.

An error that points into a text holds a place: a (line, col) pair, None,
or an object whose ``pos`` is one, such as a parser's mark or a program
node.  Raising it reads no text.  Its line, column and message are worked
out when first read, which may read the text again, so an error met at any
depth of the parser or the type checker is raised where it is met.
"""


class AlgeffError(Exception):
    """Base class for all errors raised by this package."""


class _Placed(AlgeffError):
    """An error at a place in a text (see the module docstring)."""

    place = detail = None

    @classmethod
    def at(cls, place, detail=None):
        """The error at ``place`` about ``detail``: a syntax error's reason,
        or the name of an unknown operation."""
        error = cls.__new__(cls)
        error.place, error.detail = place, detail
        return error

    @property
    def pos(self):
        place = self.place
        return place if place is None or type(place) is tuple else place.pos


def _where(pos) -> str:
    return f" at {pos[0]}:{pos[1]}" if pos else ""


class UnknownOperation(_Placed):
    """An operation where none of that name is declared.  Its argument is
    its message, except for the type checker's, which it raises ``at`` the
    program node that names the operation."""

    def __str__(self):
        if self.detail is None:
            return super().__str__()
        return f"unknown operation{_where(self.pos)}: {self.detail}"


class ParameterOutOfUniverse(AlgeffError):
    pass


class IncompleteContinuation(AlgeffError):
    pass


class UnboundGenerator(AlgeffError):
    pass


class EvalError(AlgeffError):
    """Raised when evaluation meets a value it cannot consume; unreachable
    on well-typed input, except through a symbol (``terms.ParamSymbol``)."""


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


class UnboundVariable(_Placed):
    """A variable no binder binds, at ``pos``: a place."""

    def __init__(self, name, pos=None):
        self.name = name
        self.place = pos

    def __str__(self):
        return f"unbound variable{_where(self.pos)}: {self.name}"


class TypeMismatch(_Placed):
    """A type other than the one expected, at ``pos``: a place."""

    def __init__(self, pos, expected, found):
        self.place = pos
        self.expected = expected
        self.found = found

    def __str__(self):
        line, col = self.pos or ("?", "?")
        return f"type error at {line}:{col}: expected {self.expected}, found {self.found}"


class ParseError(_Placed):
    """A syntax error at ``line`` and ``col``, for ``message``, its
    ``reason``.  The parser raises it ``at`` a place instead; without a
    reason, the place also gives one, as a text's first unreadable token
    does."""

    def __init__(self, line, col, message):
        self.place = (line, col)
        self.detail = message

    @property
    def line(self):
        return self.pos[0]

    @property
    def col(self):
        return self.pos[1]

    @property
    def reason(self):
        return self.place.reason if self.detail is None else self.detail

    def __str__(self):
        line, col = self.pos
        return f"syntax error at {line}:{col}: {self.reason}"
