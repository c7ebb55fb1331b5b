"""Concrete syntax.

Programs (whitespace-insensitive, ``#`` comments to end of line):

    comp   ::= "return" value | ident "!" "(" value ")"
             | "do" ident "<-" comp "in" comp
             | "if" value "then" comp "else" comp
             | value value | "with" value "handle" comp | "(" comp ")"
    value  ::= atom { "+" atom }
    atom   ::= ident | "true" | "false" | "()" | integer | string
             | "(" value "," value ")" | "(" value ")"
             | "fun" ident "->" comp
             | "handler" "{" "return" ident "->" comp
                           { "|" ident "(" ident ";" ident ")" "->" comp } "}"

Theory files:

    theory <name> {
      op <ident> : <universe> ~> <universe>;
      equation <name> [forall <ident> in <universe>] (<universe>) : <tree> = <tree>;
    }
    -- no two operations, and no two equations, share a name
    universe ::= primary { "*" primary }
    primary  ::= "empty" | "unit" | "bool" | "fin" <n>
               | "enum" "{" label {"," label} "}" | "(" universe ")"
    tree     ::= "return" elem | ident "(" elem [";" konts] ")"
    konts    ::= tree {"," tree}            -- positional, enumeration order
               | "\\" ident "." tree        -- one body ranging over the arity
    elem     ::= "()" | "true" | "false" | integer | string | ident
               | "(" elem "," elem ")" | "(" elem ")" | "fst" elem | "snd" elem

Model files hold one table line per operation entry, comodel files one per
cooperation entry:

    model <name>   { carrier <universe>; <op>(<param>; <args,...>) = <elem>; ... }
    comodel <name> { world <universe>;   <op>(<param>; <world>) = (<elem>; <world'>); ... }

The parser reads token values from one regex pass.  A model or comodel file
is read by its entry pattern instead: after its header, each entry is
matched whole by one regex, straight from the text, and each element is
looked up once in the universe it must lie in.  A file with anything the
pattern does not cover (a comment among the entries, a pair, ``fst``, a
keyword, a non-member, a duplicate or missing entry, or text after the
closing brace) is read again from the start, token by token, by the reader
that reports its errors.  A syntax error holds a place, not a position, as
a program node does: a mark of a token or, for an unreadable token, the
text.  Line and column are worked out, by ``tokenize`` over the same regex,
only when one is read.  One reader reads every element, in an equation,
a table or a ``--world`` text: as a shape over the binders in scope,
which outside an equation is built at once into its value.  An
equation's two sides are read once, as shapes, and checked once, by the
universes their elements range over.  A shape is data (see
``terms._builder``): equal shapes build equal trees, so ``free`` compares
a theory's laws with a built-in's by their shapes, and the law checkers
read a side's operations, its coverage, from its shape.
Only an equation that fails that check has its instances built and checked
one by one, to report the first defective one as ``check_theory`` would;
otherwise a side's shape is compiled into a builder the first time a tree
is built from it, and no tree is kept: ``Equation.lhs`` and
``Equation.rhs`` build an instance anew at each call.  So ``run`` and
``type`` never compile an equation side of a theory that loads, ``check
model`` builds each side once at each parameter, and ``check comodel``
builds none: it runs each side from its shape.  A side can also be built
at a value outside its family, such as the handler check's symbolic
parameter, and the handler check builds each instance it replays a branch
at a time.  The built-ins written in theory syntax are read by
``_parse_builtin``, in which a name can stand for a universe.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter
from typing import NamedTuple

from . import lang
from .comodels import Cointerpretation
from .errors import ParameterOutOfUniverse, ParseError, UnboundGenerator
from .models import FiniteModel, table_model
from .terms import _PARAM, Equation, OpDecl, Theory, _builder, _Instances, check_tree
from .universe import BOOL, EMPTY, UNIT, Enum, Fin, FiniteUniverse, Product, _within

# one match per token or comment; the blanks between them match nothing
_TOKEN = re.compile(r"""
      [(){};,!|*.\\+:] | =>? | ~> | <- | ->
    | \d+
    | [^\W\d]\w*                  # an identifier, or a numeral: see _value
    | " [^"\\\n]* (?: \\. [^"\\\n]* )* "?   # a string, maybe without its closing quote
    | \#[^\n]*
    | [^ \t\r\n]                  # any other character is unexpected
    """, re.VERBOSE | re.DOTALL)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself

_KEYWORDS = frozenset(
    "return do in if then else with handle fun handler true false".split()
)
_PUNCT = frozenset("~> <- -> => ( ) { } ; , ! | * . \\ + = :".split())
_RESERVED = _KEYWORDS | _PUNCT  # no identifier names one of these


class _Quoted:
    """A string literal's token value, apart from identifiers and punctuation."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


_COMMENT = object()


class _Unreadable(Exception):
    """A token no value reads: an unexpected character, an unterminated
    string, or a numeral with more digits than int() converts.  ``tokenize``
    reports it with its position."""


class _FirstUnreadable:
    """The place of the first unreadable token of ``text``: its ``pos`` and
    ``reason`` are those of the error ``tokenize`` raises, when first read."""

    def __init__(self, text: str):
        self.text = text

    def __getattr__(self, name):  # pos or reason, not yet read
        try:
            tokenize(self.text)
        except ParseError as error:
            self.pos, self.reason = error.pos, error.reason
        return object.__getattribute__(self, name)


def _unescape(m) -> str:
    return _ESCAPES.get(m[1], m[1])


def _unescaped(body: str) -> str:
    """A string literal's text, its escapes read."""
    if "\\" not in body:
        return body
    if "\\\\" in body or "\\n" in body or "\\t" in body:
        return _ESCAPE.sub(_unescape, body)
    return body.replace("\\", "")  # each escaped character stands for itself


def _value(raw: str):
    """The value of one token's text: an int, a ``_Quoted`` string, an
    identifier or punctuation as itself, or ``_COMMENT``.  Raises
    ``_Unreadable`` for a token no value reads."""
    first = raw[0]
    if first.isdecimal():
        try:
            return int(raw)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise _Unreadable from None
    if raw in _PUNCT:
        return raw
    if first == '"':
        body = raw[1:-1]
        # closed when the last quote is not itself escaped
        if len(raw) < 2 or raw[-1] != '"' or (len(body) - len(body.rstrip("\\"))) % 2:
            raise _Unreadable
        return _Quoted(_unescaped(body))
    if first == "#":
        return _COMMENT
    if first.isalpha() or first == "_":
        return raw
    # a digit or numeral that int() does not read, such as "²", or a stray
    # character
    raise _Unreadable


class Token(NamedTuple):
    kind: str  # ident | int | string | punct | eof
    value: str | int
    line: int
    col: int

    @property
    def pos(self):
        return (self.line, self.col)


def tokenize(text: str) -> list:
    """The tokens of ``text`` with their positions, ending with one ``eof``
    token.  Lines count the newlines outside string literals; columns count
    characters from the start of the line, and the ``eof`` column stops at a
    trailing comment."""
    toks = []
    line, line_start, end, last_end = 1, 0, 0, 0
    for m in _TOKEN.finditer(text):
        start = m.start()
        newline = text.rfind("\n", end, start)
        if newline >= 0:
            line += text.count("\n", end, newline + 1)
            line_start = newline + 1
        end = m.end()
        raw, col = m[0], start - line_start + 1
        try:
            value = _value(raw)
        except _Unreadable:
            if raw[0].isdecimal():
                raise ParseError(
                    line, col, f"integer literal too long ({len(raw)} digits)"
                ) from None
            if raw[0] != '"':
                raise ParseError(line, col, f"unexpected character {raw[0]!r}") from None
            if text.startswith("\\", end):
                raise ParseError(line, col + len(raw), "dangling escape") from None
            raise ParseError(line, col, "unterminated string") from None
        if value is _COMMENT:
            continue
        last_end = end
        if type(value) is int:
            toks.append(Token("int", value, line, col))
        elif type(value) is _Quoted:
            toks.append(Token("string", value.text, line, col))
        else:
            toks.append(Token("punct" if value in _PUNCT else "ident", value, line, col))
    newline = text.rfind("\n", end)
    if newline >= 0:
        line += text.count("\n", end, newline + 1)
        line_start = newline + 1
    comment = text.find("#", max(last_end, line_start))
    col = (comment if comment >= 0 else len(text)) - line_start + 1
    toks.append(Token("eof", "", line, col))
    return toks


def _scan(text: str) -> list:
    """The token values of ``text``, comments left out, then None for the
    end: ``tokenize``'s values, without their positions.  A token no value
    reads raises a ParseError at the text's first unreadable token."""
    raws = _TOKEN.findall(text)
    try:
        values = {raw: _value(raw) for raw in set(raws)}
    except _Unreadable:
        raise ParseError.at(_FirstUnreadable(text)) from None
    toks = list(map(values.__getitem__, raws))
    if _COMMENT in values.values():
        toks = [tok for tok in toks if tok is not _COMMENT]
    toks.append(None)
    return toks


class _Source:
    """A text and, once one is asked for, the positions of its tokens."""

    __slots__ = ("text", "tokens")

    def __init__(self, text: str):
        self.text = text
        self.tokens = None  # tokenize(text), once a position is asked for

    def position(self, i: int) -> tuple:
        """The (line, col) of token ``i``."""
        if self.tokens is None:
            self.tokens = tokenize(self.text)
        return self.tokens[i].pos


class _At:
    """A program node's place: token ``index`` of ``source``.  Its ``pos``
    is found when first read; a copy or pickle of it is that pair."""

    __slots__ = ("source", "index")

    def __init__(self, source: _Source, index: int):
        self.source = source
        self.index = index

    @property
    def pos(self) -> tuple:
        return self.source.position(self.index)

    def __reduce__(self):
        return tuple, (self.pos,)


class _Parser:
    def __init__(self, text: str):
        self.source = _Source(text)
        self.toks = _scan(text)
        self.toks.append(None)  # a second end, for a look two tokens ahead
        self.i = 0
        self.unproven = False  # whether an equation's universes leave a doubt
        self.depth = 0  # the number of binder bodies around the tree being read
        self.universes = {}  # universe names a built-in's text reads (_parse_builtin)

    def pos(self, i=None) -> tuple:
        """The (line, col) of token ``i``, by default the next one."""
        return self.source.position(self.i if i is None else i)

    def mark(self, i=None) -> _At:
        """The place of a node at token ``i``, by default the next one."""
        return _At(self.source, self.i if i is None else i)

    def at(self, value) -> bool:
        return self.toks[self.i] == value

    def eat_punct(self, *values):
        """Read ``values``, one token each, in order."""
        for value in values:
            if self.toks[self.i] != value:
                self.fail(f"expected {value!r}")
            self.i += 1

    def eat_word(self, value):
        if self.toks[self.i] != value:
            self.fail(f"expected keyword {value!r}")
        self.i += 1

    def eat_ident(self, what="an identifier") -> str:
        tok = self.toks[self.i]
        if type(tok) is not str or tok in _RESERVED:
            self.fail(f"expected {what}")
        self.i += 1
        return tok

    def fail(self, message):
        tok = self.toks[self.i]
        found = "end of input" if tok is None else tok.text if type(tok) is _Quoted else tok
        self.error(self.i, f"{message}, found {found!r}")

    def error(self, i, message):
        """Raise a syntax error at token ``i``."""
        # not self.mark(i): a frame fewer, as deep as the parser's success path
        raise ParseError.at(_At(self.source, i), message)

    def expect_eof(self):
        if self.toks[self.i] is not None:
            self.fail("expected end of input")

    # -- programs ------------------------------------------------------------

    def comp(self):
        at = self.i
        tok = self.toks[at]
        if tok == "return":
            self.i += 1
            return lang.Return(self.value(), pos=self.mark(at))
        if tok == "do":
            self.i += 1
            name = self.eat_ident("a binder")
            self.eat_punct("<-")
            first = self.comp()
            self.eat_word("in")
            rest = self.comp()
            return lang.Do(name, first, rest, pos=self.mark(at))
        if tok == "if":
            self.i += 1
            cond = self.value()
            self.eat_word("then")
            then = self.comp()
            self.eat_word("else")
            orelse = self.comp()
            return lang.If(cond, then, orelse, pos=self.mark(at))
        if tok == "with":
            self.i += 1
            h = self.value()
            self.eat_word("handle")
            return lang.WithHandle(h, self.comp(), pos=self.mark(at))
        if type(tok) is str and tok not in _RESERVED and self.toks[at + 1] == "!":
            self.i += 2
            self.eat_punct("(")
            arg = lang.UnitLit(pos=self.mark()) if self.at(")") else self.value()
            self.eat_punct(")")
            return lang.OpCall(tok, arg, pos=self.mark(at))
        # application, or a parenthesized computation
        try:
            fn = self.value()
            arg = self.value()
            return lang.App(fn, arg, pos=self.mark(at))
        except ParseError:
            self.i = at
        if tok == "(":
            self.i += 1
            inner = self.comp()
            self.eat_punct(")")
            return inner
        return self.fail("expected a computation")

    def value(self):
        at = self.i
        out = self.atom()
        while self.at("+"):
            self.i += 1
            out = lang.Plus(out, self.atom(), pos=self.mark(at))
        return out

    def atom(self):
        at = self.i
        tok = self.toks[at]
        if type(tok) is int:
            self.i += 1
            return lang.IntLit(tok, pos=self.mark(at))
        if type(tok) is _Quoted:
            self.i += 1
            return lang.StrLit(tok.text, pos=self.mark(at))
        if type(tok) is str and tok not in _PUNCT:
            if tok == "true":
                self.i += 1
                return lang.BoolLit(True, pos=self.mark(at))
            if tok == "false":
                self.i += 1
                return lang.BoolLit(False, pos=self.mark(at))
            if tok == "fun":
                self.i += 1
                param = self.eat_ident("a parameter name")
                self.eat_punct("->")
                return lang.Fun(param, self.comp(), pos=self.mark(at))
            if tok == "handler":
                self.i += 1
                return self.handler_literal(at)
            if tok in _KEYWORDS:
                self.fail("expected a value")
            self.i += 1
            return lang.Var(tok, pos=self.mark(at))
        if tok == "(":
            self.i += 1
            if self.at(")"):
                self.i += 1
                return lang.UnitLit(pos=self.mark(at))
            first = self.value()
            if self.at(","):
                self.i += 1
                second = self.value()
                self.eat_punct(")")
                return lang.Pair(first, second, pos=self.mark(at))
            self.eat_punct(")")
            return first
        return self.fail("expected a value")

    def handler_literal(self, at):
        self.eat_punct("{")
        self.eat_word("return")
        ret_name = self.eat_ident("a binder")
        self.eat_punct("->")
        ret_body = self.comp()
        clauses = []
        while self.at("|"):
            self.i += 1
            clause_at = self.i
            op = self.eat_ident("an operation name")
            self.eat_punct("(")
            param = self.eat_ident("a parameter binder")
            self.eat_punct(";")
            kont = self.eat_ident("a continuation binder")
            self.eat_punct(")")
            self.eat_punct("->")
            body = self.comp()
            clauses.append(lang.OpClause(op, param, kont, body, pos=self.mark(clause_at)))
        self.eat_punct("}")
        return lang.HandlerLit(ret_name, ret_body, tuple(clauses), pos=self.mark(at))

    # -- universes -----------------------------------------------------------

    def universe(self) -> FiniteUniverse:
        out = self.universe_primary()
        while self.at("*"):
            self.i += 1
            out = Product(out, self.universe_primary())
        return out

    def universe_primary(self) -> FiniteUniverse:
        tok = self.toks[self.i]
        if tok == "empty":
            self.i += 1
            return EMPTY
        if tok == "unit":
            self.i += 1
            return UNIT
        if tok == "bool":
            self.i += 1
            return BOOL
        if tok == "fin":
            self.i += 1
            size = self.toks[self.i]
            if type(size) is not int:
                self.fail("expected a size after fin")
            if size < 1:
                self.error(self.i, "fin needs a positive size")
            self.i += 1
            return Fin(size)
        if tok == "enum":
            at = self.i
            self.i += 1
            self.eat_punct("{")
            labels = [self.enum_label()]
            while self.at(","):
                self.i += 1
                labels.append(self.enum_label())
            self.eat_punct("}")
            try:
                return Enum(tuple(labels))
            except ValueError as exc:
                raise ParseError.at(self.mark(at), str(exc)) from None
        if tok == "(":
            self.i += 1
            out = self.universe()
            self.eat_punct(")")
            return out
        if tok in self.universes:
            self.i += 1
            return self.universes[tok]
        return self.fail("expected a universe")

    def enum_label(self) -> str:
        tok = self.toks[self.i]
        if type(tok) is _Quoted:
            self.i += 1
            return tok.text
        return self.eat_ident("an enum label")

    # -- elements and equation shapes -----------------------------------------

    # One reader, ``elem_template``, reads every element, as a shape (see
    # ``terms._builder``) over the binders in scope: an equation's forall
    # parameter and each "\x." binder.  An element outside any equation
    # (``elem``) is its shape built at once.  Inside an equation, trees are
    # read once as shapes too.  ``scope`` maps each binder in scope to its
    # shape and the universe it ranges over; it is None in a body under an
    # empty arity, which is never instantiated.  Each element shape comes
    # with a universe that holds every value it takes, so an operation
    # parameter or a leaf is checked once, against the universe it must lie
    # in (``site``), and a bad fst or snd fails where it is read.

    def elem(self):
        """An element outside any equation, read as its value."""
        shape, _ = self.elem_template({})
        return _builder(shape)({})

    def elem_template(self, scope) -> tuple:
        """The shape of the element read here, and a universe that holds
        each of its values (unused under an empty arity)."""
        at = self.i
        tok = self.toks[at]
        if tok is None or tok in _PUNCT and tok != "(":
            self.fail("expected an element")
        self.i += 1
        if type(tok) is int:
            return _constant(tok)
        if type(tok) is _Quoted:
            return _constant(tok.text)
        if tok == "(":
            if self.at(")"):
                self.i += 1
                return _constant(())
            first, left = self.elem_template(scope)
            if self.at(","):
                self.i += 1
                second, right = self.elem_template(scope)
                self.eat_punct(")")
                return ("pair", first, second), Product(left, right)
            self.eat_punct(")")
            return first, left
        if tok == "true" or tok == "false":
            return _constant(tok == "true")
        if tok == "fst" or tok == "snd":
            pair, universe = self.elem_template(scope)
            if scope is not None:
                if type(universe) is not Product:
                    # no element of another universe is a pair: the first
                    # instance fails, at the first element
                    value = next(universe.iter_elements())
                    self.error(at, f"{tok} expects a pair, got {value!r}")
                universe = universe.left if tok == "fst" else universe.right
            return (tok, pair), universe
        if scope is None or tok not in scope:
            return _constant(tok)
        return scope[tok]

    def site(self, scope, universe: FiniteUniverse, target: FiniteUniverse):
        """Note an operation parameter or a leaf, whose values ``universe``
        holds and must lie in ``target``; unless they do, every instance of
        the equation is checked."""
        if scope is not None and not _within(universe, target):
            self.unproven = True

    def tree(self, theory: Theory, context: FiniteUniverse, scope) -> tuple:
        """The shape of the tree read here."""
        at = self.i
        if self.at("return"):
            self.i += 1
            leaf, universe = self.elem_template(scope)
            self.site(scope, universe, context)
            return ("return", leaf)
        name = self.eat_ident("an operation or return")
        if not theory.has_op(name):
            self.error(at, f"unknown operation {name!r}")
        decl = theory.op(name)
        self.eat_punct("(")
        param, universe = self.elem_template(scope)
        self.site(scope, universe, decl.param)
        count, shape = 0, ("op", name, param, ())
        if self.at(";"):
            self.i += 1
            count, shape = self.konts(theory, context, decl.arity, scope, name, param)
        self.eat_punct(")")
        if count != decl.arity.size():
            self.error(at, f"{name} needs {decl.arity.size()} subtrees, got {count}")
        return shape

    def konts(self, theory, context, arity: FiniteUniverse, scope, name, param) -> tuple:
        """The subtrees after ``;`` of operation ``name`` at ``param``: their
        number, and the shape of the node."""
        if self.at("\\"):
            self.i += 1
            binder = self.eat_ident("a binder")
            self.eat_punct(".")
            size = arity.size()
            self.depth += 1
            inner = None
            if scope is not None and size:
                inner = {**scope, binder: (("var", self.depth), arity)}
            body = self.tree(theory, context, inner)
            self.depth -= 1
            if not size:  # a body under an empty arity is never built
                return 0, ("op", name, param, ())
            return size, ("bind", name, param, arity, body)
        subtrees = [self.tree(theory, context, scope)]
        while self.at(","):
            self.i += 1
            subtrees.append(self.tree(theory, context, scope))
        return len(subtrees), ("op", name, param, tuple(subtrees))

    # -- theory files ----------------------------------------------------------

    def theory_file(self) -> Theory:
        self.eat_word("theory")
        name = self.eat_ident("a theory name")
        self.eat_punct("{")
        ops = []
        partial = Theory(name, ())
        equations = []
        defects = []
        while not self.at("}"):
            if self.at("op"):
                self.i += 1
                at = self.i
                op_name = self.eat_ident("an operation name")
                if partial.has_op(op_name):
                    self.error(at, f"duplicate operation {op_name!r}")
                self.eat_punct(":")
                param = self.universe()
                self.eat_punct("~>")
                arity = self.universe()
                self.eat_punct(";")
                ops.append(OpDecl(op_name, param, arity))
                partial = Theory(name, tuple(ops))
            elif self.at("equation"):
                self.i += 1
                equation, defect = self.equation_decl(partial, {eq.name for eq in equations})
                equations.append(equation)
                if defect is not None:
                    defects.append(defect)
            else:
                self.fail("expected op, equation, or }")
        self.eat_punct("}")
        if defects:
            raise defects[0]
        return Theory(name, tuple(ops), tuple(equations))

    def equation_decl(self, theory: Theory, taken) -> tuple:
        """The equation read here, and the first defect of its instances, in
        ``check_theory``'s order, or None."""
        at = self.i
        eq_name = self.eat_ident("an equation name")
        if eq_name in taken:
            self.error(at, f"duplicate equation {eq_name!r}")
        param_name = None
        param_universe = UNIT
        if self.at("forall"):
            self.i += 1
            param_name = self.eat_ident("a parameter name")
            self.eat_word("in")
            param_universe = self.universe()
        self.eat_punct("(")
        context = self.universe()
        self.eat_punct(")")
        self.eat_punct(":")
        if param_universe.is_empty():
            self.error(self.i, "forall over an empty universe")
        scope = {} if param_name is None else {param_name: (_PARAM, param_universe)}
        self.unproven = False
        lhs = _Instances(self.tree(theory, context, scope), param_universe)
        self.eat_punct("=")
        rhs = _Instances(self.tree(theory, context, scope), param_universe)
        self.eat_punct(";")
        equation = Equation(eq_name, param_universe, context, lhs, rhs)
        if self.unproven:
            # the defect check_theory meets first: by parameter, lhs before rhs
            try:
                for p in param_universe.iter_elements():
                    check_tree(theory, context, lhs(p))
                    check_tree(theory, context, rhs(p))
            except (ParameterOutOfUniverse, UnboundGenerator) as defect:
                return equation, defect
        return equation, None

    # -- model and comodel files ----------------------------------------------

    # ``parse_model_file`` and ``parse_comodel_file`` read a table by its
    # entry pattern first (``_table_rows``); these token-by-token readers
    # read only a text that does not fit it, and report its errors.

    def model_file(self, theory: Theory) -> FiniteModel:
        carrier = self.model_header()
        return table_model(theory, carrier, self.model_entries(theory, carrier))

    def model_header(self) -> FiniteUniverse:
        self.eat_word("model")
        self.eat_ident("a model name")
        self.eat_punct("{")
        self.eat_word("carrier")
        carrier = self.universe()
        self.eat_punct(";")
        return carrier

    def model_entries(self, theory: Theory, carrier: FiniteUniverse) -> dict:
        table = {}
        while not self.at("}"):
            at = self.i
            op_name = self.eat_ident("an operation name")
            if not theory.has_op(op_name):
                self.error(at, f"unknown operation {op_name!r}")
            self.eat_punct("(")
            param = self.elem()
            args = []
            self.eat_punct(";")
            if not self.at(")"):
                args.append(self.elem())
                while self.at(","):
                    self.i += 1
                    args.append(self.elem())
            self.eat_punct(")", "=")
            result = self.elem()
            self.eat_punct(";")
            decl = theory.op(op_name)
            if len(args) != decl.arity.size():
                self.error(at, f"{op_name} needs {decl.arity.size()} arguments, got {len(args)}")
            self.require_members(at, (
                (param, decl.param, "parameter"),
                *((a, carrier, "argument") for a in args),
                (result, carrier, "result"),
            ))
            key = (op_name, param, tuple(args))
            if key in table:
                self.error(at, f"duplicate entry for {key!r}")
            table[key] = result
        self.eat_punct("}")
        return table

    def comodel_file(self, theory: Theory) -> Cointerpretation:
        world = self.comodel_header()
        return _cointerpretation(theory, world, *self.comodel_entries(theory, world))

    def comodel_header(self) -> FiniteUniverse:
        self.eat_word("comodel")
        self.eat_ident("a comodel name")
        self.eat_punct("{")
        self.eat_word("world")
        world = self.universe()
        self.eat_punct(";")
        return world

    def comodel_entries(self, theory: Theory, world: FiniteUniverse) -> tuple:
        """The cooperation table and the operations it covers, in the order
        they first appear."""
        table = {}
        covered = []
        while not self.at("}"):
            at = self.i
            op_name = self.eat_ident("an operation name")
            if not theory.has_op(op_name):
                self.error(at, f"unknown operation {op_name!r}")
            if op_name not in covered:
                covered.append(op_name)
            self.eat_punct("(")
            param = self.elem()
            self.eat_punct(";")
            w = self.elem()
            self.eat_punct(")", "=", "(")
            result = self.elem()
            self.eat_punct(";")
            w2 = self.elem()
            self.eat_punct(")", ";")
            decl = theory.op(op_name)
            self.require_members(at, (
                (param, decl.param, "parameter"),
                (w, world, "world"),
                (result, decl.arity, "result"),
                (w2, world, "next world"),
            ))
            key = (op_name, param, w)
            if key in table:
                self.error(at, f"duplicate entry for {key!r}")
            table[key] = (result, w2)
        self.eat_punct("}")
        for op_name in covered:
            decl = theory.op(op_name)
            for p, w in itertools.product(decl.param.elements(), world.elements()):
                if (op_name, p, w) not in table:
                    self.error(
                        self.i, f"missing cooperation entry for {op_name!r} at ({p!r}; {w!r})"
                    )
        return table, covered

    def require_members(self, at, checks):
        """Fail at token ``at`` unless every ``(value, universe, what)`` has
        its value in its universe."""
        for value, universe, what in checks:
            if not universe.contains(value):
                self.error(at, f"{what} {value!r} is not in {universe}")


def _constant(value) -> tuple:
    """The shape of an element that no binder binds, and its universe."""
    return ("const", type(value), value), _Single(value)


class _Single(FiniteUniverse):
    """The universe of one constant, or of a name no binder binds; it only
    ever holds a template's values, for ``_within``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self._fill(value)

    def size(self):
        return 1

    def iter_elements(self):
        return iter((self.value,))


def _cointerpretation(theory: Theory, world: FiniteUniverse, table: dict, covered):
    """The comodel of a cooperation table, covering the operations
    ``covered``."""

    def coop(name):
        return lambda p, w: table[(name, p, w)]

    return Cointerpretation(theory, world, {name: coop(name) for name in covered})


# -- tables at regex speed ------------------------------------------------------

# A table entry whose elements are atoms is matched whole, straight from the
# text.  Its blanks are the tokenizer's, so each atom and punctuation mark
# spans the text its token would.  The last row of a table's ``findall`` is
# the closing brace, at the end of the text; any other character that no
# entry starts with makes a row with no operation.  The patterns are compiled
# when a table is first read (``_pattern``).
_B = r"[ \t\r\n]*"
_STRING = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'
_ATOM = r"\(%s\)|\d+|[^\W\d]\w*|%s" % (_B, _STRING)
_ROW_END = r"| (\})%s\Z | ." % _B
_COMODEL_ENTRY = rf"""{_B}(?: ([^\W\d]\w*) {_B}\({_B} ({_ATOM}) {_B};{_B} ({_ATOM}) {_B}\){_B}=
    {_B}\({_B} ({_ATOM}) {_B};{_B} ({_ATOM}) {_B}\){_B}; {_ROW_END})"""
_MODEL_ENTRY = rf"""{_B}(?: ([^\W\d]\w*) {_B}\({_B} ({_ATOM}) {_B};
    {_B} ((?:{_ATOM})(?:{_B},{_B}(?:{_ATOM}))*)? {_B}\){_B}={_B} ({_ATOM}) {_B}; {_ROW_END})"""
# a table's header: its text up to the first ";" outside strings and comments
_HEADER = r'(?: [^;"\#] | %s | \#[^\n]* )* ;' % _STRING


@functools.cache
def _pattern(source: str) -> re.Pattern:
    return re.compile(source, re.VERBOSE | re.DOTALL)


def _atom(raw: str):
    """The element an atom's text reads; KeyError for a keyword, fst or snd
    (which ``elem`` reads otherwise), or a token no value reads."""
    if raw[0] == "(":
        return ()
    try:
        value = _value(raw)
    except _Unreadable:
        raise KeyError(raw) from None
    if type(value) is _Quoted:
        return value.text
    if value == "true":
        return True
    if value == "false":
        return False
    if value in _KEYWORDS or value == "fst" or value == "snd":
        raise KeyError(raw)
    return value


class _Read(dict):
    """Values by the text that reads them, each text read once, when first
    looked up, by ``read``, which raises KeyError for a text that does not
    fit."""

    __slots__ = ("read",)

    def __init__(self, read):
        self.read = read

    def __missing__(self, raw):
        value = self[raw] = self.read(raw)
        return value


def _members(universe: FiniteUniverse) -> _Read:
    """The atoms in ``universe``, by their text."""

    def read(raw):
        value = _atom(raw)
        if not universe.contains(value):
            raise KeyError(raw)
        return value

    return _Read(read)


def _arguments(carrier: _Read, size: int) -> _Read:
    """Tuples of ``size`` atoms of a carrier, by the text that lists them."""

    def read(raw):
        values = tuple([carrier[a] for a in _pattern(_ATOM).findall(raw)])
        if len(values) != size:
            raise KeyError(raw)
        return values

    return _Read(read)


def _table_rows(text: str, header, entry: str):
    """The universe that ``header`` reads from a table's header, and the
    rows of the pattern ``entry`` after it, or None when the header or a
    row does not fit."""
    m = _pattern(_HEADER).match(text)
    if m is None:
        return None
    try:
        p = _Parser(m[0])
        universe = header(p)
        p.expect_eof()
    except ParseError:
        return None
    rows = _pattern(entry).findall(text, m.end())
    if not rows or not rows.pop()[-1]:  # no closing brace at the end
        return None
    return universe, rows


def _comodel_by_pattern(text: str, theory: Theory):
    """The comodel ``text`` holds, read by the entry pattern, or None when
    any part of it does not fit."""
    read = _table_rows(text, _Parser.comodel_header, _COMODEL_ENTRY)
    if read is None:
        return None
    world, rows = read
    worlds = _members(world)
    coops = {d.name: (_members(d.param), _members(d.arity)) for d in theory.ops}
    table = {}
    try:
        for op, p, w, result, w2, _ in rows:
            params, results = coops[op]
            table[op, params[p], worlds[w]] = results[result], worlds[w2]
    except KeyError:  # an unknown operation, a row that does not fit, a non-member
        return None
    covered = Counter([row[0] for row in rows])
    size = world.size()
    if len(table) != len(rows) or any(
        count != theory.op(name).param.size() * size for name, count in covered.items()
    ):
        return None  # a duplicate or a missing entry
    return _cointerpretation(theory, world, table, covered)


def _model_by_pattern(text: str, theory: Theory):
    """The model ``text`` holds, read by the entry pattern, or None when any
    part of it does not fit."""
    read = _table_rows(text, _Parser.model_header, _MODEL_ENTRY)
    if read is None:
        return None
    carrier, rows = read
    carriers = _members(carrier)
    ops = {d.name: (_members(d.param), _arguments(carriers, d.arity.size())) for d in theory.ops}
    table = {}
    try:
        for op, p, args, result, _ in rows:
            params, argses = ops[op]
            table[op, params[p], argses[args]] = carriers[result]
    except KeyError:
        return None
    if len(table) != len(rows):
        return None  # a duplicate
    return table_model(theory, carrier, table)


def parse_program(text: str):
    p = _Parser(text)
    out = p.comp()
    p.expect_eof()
    return out


def parse_value_text(text: str):
    p = _Parser(text)
    out = p.value()
    p.expect_eof()
    return out


def parse_theory_file(text: str) -> Theory:
    p = _Parser(text)
    out = p.theory_file()
    p.expect_eof()
    return out


def _parse_builtin(text: str, **universes: FiniteUniverse) -> Theory:
    """A built-in theory written in theory syntax, in which each name of
    ``universes`` reads as that universe; no user file binds a name."""
    p = _Parser(text)
    p.universes = universes
    out = p.theory_file()
    p.expect_eof()
    return out


def parse_model_file(text: str, theory: Theory) -> FiniteModel:
    out = _model_by_pattern(text, theory)
    if out is None:
        p = _Parser(text)
        out = p.model_file(theory)
        p.expect_eof()
    return out


def parse_comodel_file(text: str, theory: Theory) -> Cointerpretation:
    out = _comodel_by_pattern(text, theory)
    if out is None:
        p = _Parser(text)
        out = p.comodel_file(theory)
        p.expect_eof()
    return out


def parse_element(text: str):
    p = _Parser(text)
    out = p.elem()
    p.expect_eof()
    return out


def element_or(text: str, default):
    """The element ``text`` reads, as ``parse_element`` reads it, or
    ``default`` when it reads none.  No token's position is looked for,
    since no error is read."""
    try:
        return parse_element(text)
    except ParseError:
        return default
