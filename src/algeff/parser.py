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
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from . import lang
from .comodels import Cointerpretation
from .errors import ParseError
from .models import FiniteModel, table_model
from .terms import Equation, OpDecl, OpNode, Return, Theory, check_theory
from .universe import BOOL, EMPTY, UNIT, Enum, Fin, FiniteUniverse, Product

# one match per token: the blanks and comments before it, then the token
_TOKEN = re.compile(r"""
    [ \t\r\n]* (?: \#[^\n]* [ \t\r\n]* )*
    (?: (?P<int> \d+ )
      | (?P<ident> [^\W\d]\w* )  # or a numeral: see tokenize
      | (?P<string> "(?: [^"\\\n] | \\. )* ) "?   # without its closing quote
      | (?P<punct> ~> | <- | -> | => | [(){};,!|*.\\+=:] )
      | (?P<eof> \Z )
      | (?P<bad> . )
    )""", re.VERBOSE | re.DOTALL)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself

_KEYWORDS = frozenset(
    "return do in if then else with handle fun handler true false".split()
)


class Token(NamedTuple):
    kind: str  # ident | int | string | punct | eof
    value: str | int
    line: int
    col: int

    @property
    def pos(self):
        return (self.line, self.col)


def tokenize(text: str) -> list:
    """The tokens of ``text``, ending with one ``eof`` token.  Lines count the
    newlines outside string literals; columns count characters from the
    start of the line, and the ``eof`` column stops at a trailing comment."""
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        blank, start = m.start(), m.start(kind)
        if blank < start:
            newline = text.rfind("\n", blank, start)
            if newline >= 0:
                line += text.count("\n", blank, newline + 1)
                line_start = newline + 1
        col = start - line_start + 1
        value = m[kind]
        if kind == "ident":
            if not (value[0].isalpha() or value[0] == "_"):
                # a digit or numeral that int() does not read, such as "²"
                raise ParseError(line, col, f"unexpected character {value[0]!r}")
        elif kind == "int":
            value = int(value)
        elif kind == "string":
            end = m.end(kind)
            if m.end() == end:
                if end < len(text) and text[end] == "\\":
                    raise ParseError(line, end - line_start + 1, "dangling escape")
                raise ParseError(line, col, "unterminated string")
            value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), value[1:])
        elif kind == "eof":
            comment = text.find("#", max(blank, line_start))
            if comment >= 0:
                col = comment - line_start + 1
            toks.append(Token("eof", "", line, col))
            return toks
        elif kind == "bad":
            raise ParseError(line, col, f"unexpected character {value!r}")
        toks.append(Token(kind, value, line, col))


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.toks.append(self.toks[-1])  # a second eof, for peek(1)
        self.i = 0

    def peek(self, ahead=0) -> Token:
        return self.toks[self.i + ahead]

    def next(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at_punct(self, value) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_word(self, value) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == value

    def eat_punct(self, value) -> Token:
        if not self.at_punct(value):
            return self.fail(f"expected {value!r}")
        return self.next()

    def eat_word(self, value) -> Token:
        if not self.at_word(value):
            return self.fail(f"expected keyword {value!r}")
        return self.next()

    def eat_ident(self, what="an identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.value in _KEYWORDS:
            return self.fail(f"expected {what}")
        return self.next()

    def fail(self, message):
        tok = self.peek()
        found = tok.value if tok.kind != "eof" else "end of input"
        raise ParseError(tok.line, tok.col, f"{message}, found {found!r}")

    def expect_eof(self):
        if self.peek().kind != "eof":
            self.fail("expected end of input")

    # -- programs ------------------------------------------------------------

    def comp(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.value == "return":
            self.next()
            return lang.Return(self.value(), pos=tok.pos)
        if tok.kind == "ident" and tok.value == "do":
            self.next()
            name = self.eat_ident("a binder")
            self.eat_punct("<-")
            first = self.comp()
            self.eat_word("in")
            rest = self.comp()
            return lang.Do(name.value, first, rest, pos=tok.pos)
        if tok.kind == "ident" and tok.value == "if":
            self.next()
            cond = self.value()
            self.eat_word("then")
            then = self.comp()
            self.eat_word("else")
            orelse = self.comp()
            return lang.If(cond, then, orelse, pos=tok.pos)
        if tok.kind == "ident" and tok.value == "with":
            self.next()
            h = self.value()
            self.eat_word("handle")
            return lang.WithHandle(h, self.comp(), pos=tok.pos)
        if (
            tok.kind == "ident"
            and tok.value not in _KEYWORDS
            and self.peek(1).kind == "punct"
            and self.peek(1).value == "!"
        ):
            op = self.next()
            self.eat_punct("!")
            self.eat_punct("(")
            arg = lang.UnitLit(pos=self.peek().pos) if self.at_punct(")") else self.value()
            self.eat_punct(")")
            return lang.OpCall(op.value, arg, pos=tok.pos)
        # application, or a parenthesized computation
        mark = self.i
        try:
            fn = self.value()
            arg = self.value()
            return lang.App(fn, arg, pos=tok.pos)
        except ParseError:
            self.i = mark
        if self.at_punct("("):
            self.next()
            inner = self.comp()
            self.eat_punct(")")
            return inner
        return self.fail("expected a computation")

    def value(self):
        tok = self.peek()
        out = self.atom()
        while self.at_punct("+"):
            self.next()
            out = lang.Plus(out, self.atom(), pos=tok.pos)
        return out

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return lang.IntLit(tok.value, pos=tok.pos)
        if tok.kind == "string":
            self.next()
            return lang.StrLit(tok.value, pos=tok.pos)
        if tok.kind == "ident":
            if tok.value == "true":
                self.next()
                return lang.BoolLit(True, pos=tok.pos)
            if tok.value == "false":
                self.next()
                return lang.BoolLit(False, pos=tok.pos)
            if tok.value == "fun":
                self.next()
                param = self.eat_ident("a parameter name")
                self.eat_punct("->")
                return lang.Fun(param.value, self.comp(), pos=tok.pos)
            if tok.value == "handler":
                self.next()
                return self.handler_literal(tok.pos)
            if tok.value in _KEYWORDS:
                self.fail("expected a value")
            self.next()
            return lang.Var(tok.value, pos=tok.pos)
        if tok.kind == "punct" and tok.value == "(":
            self.next()
            if self.at_punct(")"):
                self.next()
                return lang.UnitLit(pos=tok.pos)
            first = self.value()
            if self.at_punct(","):
                self.next()
                second = self.value()
                self.eat_punct(")")
                return lang.Pair(first, second, pos=tok.pos)
            self.eat_punct(")")
            return first
        return self.fail("expected a value")

    def handler_literal(self, pos):
        self.eat_punct("{")
        self.eat_word("return")
        ret_name = self.eat_ident("a binder")
        self.eat_punct("->")
        ret_body = self.comp()
        clauses = []
        while self.at_punct("|"):
            self.next()
            clause_tok = self.eat_ident("an operation name")
            self.eat_punct("(")
            param = self.eat_ident("a parameter binder")
            self.eat_punct(";")
            kont = self.eat_ident("a continuation binder")
            self.eat_punct(")")
            self.eat_punct("->")
            body = self.comp()
            clauses.append(
                lang.OpClause(clause_tok.value, param.value, kont.value, body,
                              pos=clause_tok.pos)
            )
        self.eat_punct("}")
        return lang.HandlerLit(ret_name.value, ret_body, tuple(clauses), pos=pos)

    # -- universes -----------------------------------------------------------

    def universe(self) -> FiniteUniverse:
        out = self.universe_primary()
        while self.at_punct("*"):
            self.next()
            out = Product(out, self.universe_primary())
        return out

    def universe_primary(self) -> FiniteUniverse:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.value == "empty":
                self.next()
                return EMPTY
            if tok.value == "unit":
                self.next()
                return UNIT
            if tok.value == "bool":
                self.next()
                return BOOL
            if tok.value == "fin":
                self.next()
                size = self.peek()
                if size.kind != "int":
                    self.fail("expected a size after fin")
                self.next()
                if size.value < 1:
                    raise ParseError(size.line, size.col, "fin needs a positive size")
                return Fin(size.value)
            if tok.value == "enum":
                self.next()
                self.eat_punct("{")
                labels = [self.enum_label()]
                while self.at_punct(","):
                    self.next()
                    labels.append(self.enum_label())
                self.eat_punct("}")
                try:
                    return Enum(tuple(labels))
                except ValueError as exc:
                    raise ParseError(tok.line, tok.col, str(exc)) from None
        if self.at_punct("("):
            self.next()
            out = self.universe()
            self.eat_punct(")")
            return out
        return self.fail("expected a universe")

    def enum_label(self) -> str:
        tok = self.peek()
        if tok.kind == "string":
            self.next()
            return tok.value
        return self.eat_ident("an enum label").value

    # -- elements and equation trees -----------------------------------------

    # Inside an equation, elements and trees are read once, as templates:
    # functions from an environment that binds the binders in scope (the
    # forall parameter and each "\x." binder) to elements.  ``sample`` binds
    # them to the first elements of their universes, so that a bad fst or
    # snd fails where it is read; it is None in a body under an empty arity,
    # which is never instantiated.

    def elem(self):
        """An element outside any equation."""
        return self.elem_template({})({})

    def elem_template(self, sample):
        tok = self.peek()
        if tok.kind == "int" or tok.kind == "string":
            self.next()
            return _constant(tok.value)
        if tok.kind == "ident":
            self.next()
            if tok.value == "true":
                return _constant(True)
            if tok.value == "false":
                return _constant(False)
            if tok.value in ("fst", "snd"):
                pair, index = self.elem_template(sample), 0 if tok.value == "fst" else 1

                def project(env):
                    value = pair(env)
                    if type(value) is not tuple or len(value) != 2:
                        raise ParseError(
                            tok.line, tok.col, f"{tok.value} expects a pair, got {value!r}"
                        )
                    return value[index]

                if sample is not None:
                    project(sample)
                return project
            name = tok.value
            return lambda env: env.get(name, name)
        if self.at_punct("("):
            self.next()
            if self.at_punct(")"):
                self.next()
                return _constant(())
            first = self.elem_template(sample)
            if self.at_punct(","):
                self.next()
                second = self.elem_template(sample)
                self.eat_punct(")")
                return lambda env: (first(env), second(env))
            self.eat_punct(")")
            return first
        return self.fail("expected an element")

    def tree(self, theory: Theory, sample):
        tok = self.peek()
        if self.at_word("return"):
            self.next()
            leaf = self.elem_template(sample)
            return lambda env: Return(leaf(env))
        name = self.eat_ident("an operation or return").value
        decl = theory.op(name) if theory.has_op(name) else None
        if decl is None:
            raise ParseError(tok.line, tok.col, f"unknown operation {name!r}")
        self.eat_punct("(")
        param = self.elem_template(sample)
        count, kont = 0, _constant(())
        if self.at_punct(";"):
            self.next()
            count, kont = self.konts(theory, decl.arity, sample)
        self.eat_punct(")")
        if count != decl.arity.size():
            raise ParseError(
                tok.line, tok.col, f"{name} needs {decl.arity.size()} subtrees, got {count}"
            )
        return lambda env: OpNode(name, param(env), kont(env))

    def konts(self, theory: Theory, arity: FiniteUniverse, sample):
        """The subtrees after ``;``: their number, and a template of the tuple."""
        if self.at_punct("\\"):
            self.next()
            binder = self.eat_ident("a binder").value
            self.eat_punct(".")
            elements = arity.elements()
            inner = None if sample is None or not elements else {**sample, binder: elements[0]}
            body = self.tree(theory, inner)
            return len(elements), lambda env: tuple(body({**env, binder: a}) for a in elements)
        subtrees = [self.tree(theory, sample)]
        while self.at_punct(","):
            self.next()
            subtrees.append(self.tree(theory, sample))
        return len(subtrees), lambda env: tuple(t(env) for t in subtrees)

    # -- theory files ----------------------------------------------------------

    def theory_file(self) -> Theory:
        self.eat_word("theory")
        name = self.eat_ident("a theory name")
        self.eat_punct("{")
        ops = []
        partial = Theory(name.value, ())
        equations = []
        while not self.at_punct("}"):
            if self.at_word("op"):
                self.next()
                op_name = self.eat_ident("an operation name")
                if partial.has_op(op_name.value):
                    raise ParseError(
                        op_name.line, op_name.col, f"duplicate operation {op_name.value!r}"
                    )
                self.eat_punct(":")
                param = self.universe()
                self.eat_punct("~>")
                arity = self.universe()
                self.eat_punct(";")
                ops.append(OpDecl(op_name.value, param, arity))
                partial = Theory(name.value, tuple(ops))
            elif self.at_word("equation"):
                self.next()
                equations.append(
                    self.equation_decl(partial, {eq.name for eq in equations})
                )
            else:
                self.fail("expected op, equation, or }")
        self.eat_punct("}")
        theory = Theory(name.value, tuple(ops), tuple(equations))
        check_theory(theory)
        return theory

    def equation_decl(self, theory: Theory, taken) -> Equation:
        eq_name = self.eat_ident("an equation name")
        if eq_name.value in taken:
            raise ParseError(eq_name.line, eq_name.col, f"duplicate equation {eq_name.value!r}")
        param_name = None
        param_universe = UNIT
        if self.at_word("forall"):
            self.next()
            param_name = self.eat_ident("a parameter name").value
            self.eat_word("in")
            param_universe = self.universe()
        self.eat_punct("(")
        context = self.universe()
        self.eat_punct(")")
        self.eat_punct(":")
        if param_universe.is_empty():
            tok = self.peek()
            raise ParseError(tok.line, tok.col, "forall over an empty universe")
        envs = {p: {} if param_name is None else {param_name: p}
                for p in param_universe.iter_elements()}
        sample = next(iter(envs.values()))
        lhs_template = self.tree(theory, sample)
        self.eat_punct("=")
        rhs_template = self.tree(theory, sample)
        # expand the family into a table once
        lhs = {p: lhs_template(env) for p, env in envs.items()}
        rhs = {p: rhs_template(env) for p, env in envs.items()}
        self.eat_punct(";")
        return Equation(eq_name.value, param_universe, context, lhs.__getitem__, rhs.__getitem__)

    # -- model and comodel files ----------------------------------------------

    def model_file(self, theory: Theory) -> FiniteModel:
        self.eat_word("model")
        self.eat_ident("a model name")
        self.eat_punct("{")
        self.eat_word("carrier")
        carrier = self.universe()
        self.eat_punct(";")
        table = {}
        while not self.at_punct("}"):
            tok = self.peek()
            op_name = self.eat_ident("an operation name").value
            if not theory.has_op(op_name):
                raise ParseError(tok.line, tok.col, f"unknown operation {op_name!r}")
            self.eat_punct("(")
            param = self.elem()
            args = []
            self.eat_punct(";")
            if not self.at_punct(")"):
                args.append(self.elem())
                while self.at_punct(","):
                    self.next()
                    args.append(self.elem())
            self.eat_punct(")")
            self.eat_punct("=")
            result = self.elem()
            self.eat_punct(";")
            decl = theory.op(op_name)
            if len(args) != decl.arity.size():
                raise ParseError(
                    tok.line, tok.col,
                    f"{op_name} needs {decl.arity.size()} arguments, got {len(args)}",
                )
            _require_members(tok, (
                (param, decl.param, "parameter"),
                *((a, carrier, "argument") for a in args),
                (result, carrier, "result"),
            ))
            key = (op_name, param, tuple(args))
            if key in table:
                raise ParseError(tok.line, tok.col, f"duplicate entry for {key!r}")
            table[key] = result
        self.eat_punct("}")
        return table_model(theory, carrier, table)

    def comodel_file(self, theory: Theory) -> Cointerpretation:
        self.eat_word("comodel")
        self.eat_ident("a comodel name")
        self.eat_punct("{")
        self.eat_word("world")
        world = self.universe()
        self.eat_punct(";")
        table = {}
        covered = []
        while not self.at_punct("}"):
            tok = self.peek()
            op_name = self.eat_ident("an operation name").value
            if not theory.has_op(op_name):
                raise ParseError(tok.line, tok.col, f"unknown operation {op_name!r}")
            if op_name not in covered:
                covered.append(op_name)
            self.eat_punct("(")
            param = self.elem()
            self.eat_punct(";")
            w = self.elem()
            self.eat_punct(")")
            self.eat_punct("=")
            self.eat_punct("(")
            result = self.elem()
            self.eat_punct(";")
            w2 = self.elem()
            self.eat_punct(")")
            self.eat_punct(";")
            decl = theory.op(op_name)
            _require_members(tok, (
                (param, decl.param, "parameter"),
                (w, world, "world"),
                (result, decl.arity, "result"),
                (w2, world, "next world"),
            ))
            key = (op_name, param, w)
            if key in table:
                raise ParseError(tok.line, tok.col, f"duplicate entry for {key!r}")
            table[key] = (result, w2)
        self.eat_punct("}")
        for op_name in covered:
            decl = theory.op(op_name)
            for p, w in itertools.product(decl.param.elements(), world.elements()):
                if (op_name, p, w) not in table:
                    raise ParseError(
                        self.peek().line,
                        self.peek().col,
                        f"missing cooperation entry for {op_name!r} at ({p!r}; {w!r})",
                    )

        def coop(name):
            return lambda p, w: table[(name, p, w)]

        return Cointerpretation(theory, world, {name: coop(name) for name in covered})


def _constant(value):
    return lambda env: value


def _require_members(tok: Token, checks):
    """Fail at ``tok`` unless every ``(value, universe, what)`` has its value
    in its universe."""
    for value, universe, what in checks:
        if not universe.contains(value):
            raise ParseError(tok.line, tok.col, f"{what} {value!r} is not in {universe}")


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


def parse_model_file(text: str, theory: Theory) -> FiniteModel:
    p = _Parser(text)
    out = p.model_file(theory)
    p.expect_eof()
    return out


def parse_comodel_file(text: str, theory: Theory) -> Cointerpretation:
    p = _Parser(text)
    out = p.comodel_file(theory)
    p.expect_eof()
    return out


def parse_element(text: str):
    p = _Parser(text)
    out = p.elem()
    p.expect_eof()
    return out
