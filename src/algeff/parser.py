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
from dataclasses import dataclass

from . import lang
from .comodels import Cointerpretation
from .errors import ParseError
from .models import FiniteModel, table_model
from .terms import Equation, OpDecl, OpNode, Return, Theory, check_theory
from .universe import BOOL, EMPTY, UNIT, Enum, Fin, FiniteUniverse, Product

_PUNCT = ("~>", "<-", "->", "=>", "(", ")", "{", "}", ";", ",", "!", "|", "*",
          ".", "\\", "+", "=", ":")

_KEYWORDS = frozenset(
    "return do in if then else with handle fun handler true false".split()
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | string | punct | eof
    value: str | int
    line: int
    col: int

    @property
    def pos(self):
        return (self.line, self.col)


def tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            out = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError(start_line, start_col, "unterminated string")
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError(line, col, "dangling escape")
                    esc = text[i + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    i += 2
                    col += 2
                    continue
                out.append(c)
                i += 1
                col += 1
            toks.append(Token("string", "".join(out), start_line, start_col))
            continue
        if ch.isdigit():
            start_col = col
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}")
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self, ahead=0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.peek()
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

    # -- elements ------------------------------------------------------------

    def elem(self, env=None):
        env = env or {}
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return tok.value
        if tok.kind == "string":
            self.next()
            return tok.value
        if tok.kind == "ident":
            if tok.value == "true":
                self.next()
                return True
            if tok.value == "false":
                self.next()
                return False
            if tok.value in ("fst", "snd"):
                self.next()
                pair = self.elem(env)
                if type(pair) is not tuple or len(pair) != 2:
                    raise ParseError(
                        tok.line, tok.col, f"{tok.value} expects a pair, got {pair!r}"
                    )
                return pair[0 if tok.value == "fst" else 1]
            self.next()
            return env.get(tok.value, tok.value)
        if self.at_punct("("):
            self.next()
            if self.at_punct(")"):
                self.next()
                return ()
            first = self.elem(env)
            if self.at_punct(","):
                self.next()
                second = self.elem(env)
                self.eat_punct(")")
                return (first, second)
            self.eat_punct(")")
            return first
        return self.fail("expected an element")

    # -- equation trees ------------------------------------------------------

    def tree(self, theory: Theory, env):
        tok = self.peek()
        if self.at_word("return"):
            self.next()
            return Return(self.elem(env))
        name = self.eat_ident("an operation or return")
        decl = theory.op(name.value) if theory.has_op(name.value) else None
        if decl is None:
            raise ParseError(tok.line, tok.col, f"unknown operation {name.value!r}")
        self.eat_punct("(")
        param = self.elem(env)
        subtrees: tuple
        if self.at_punct(";"):
            self.next()
            if self.at_punct("\\"):
                self.next()
                binder = self.eat_ident("a binder")
                self.eat_punct(".")
                mark = self.i
                subtrees = []
                for a in decl.arity.iter_elements():
                    self.i = mark
                    subtrees.append(self.tree(theory, {**env, binder.value: a}))
                if decl.arity.size() == 0:
                    self._skip_tree(theory)
                subtrees = tuple(subtrees)
            else:
                parsed = [self.tree(theory, env)]
                while self.at_punct(","):
                    self.next()
                    parsed.append(self.tree(theory, env))
                subtrees = tuple(parsed)
        else:
            subtrees = ()
        self.eat_punct(")")
        if len(subtrees) != decl.arity.size():
            raise ParseError(
                tok.line,
                tok.col,
                f"{name.value} needs {decl.arity.size()} subtrees, got {len(subtrees)}",
            )
        return OpNode(name.value, param, subtrees)

    def _skip_tree(self, theory):
        # a binder over an empty arity still has a body to move past
        self.tree(theory, {})

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
                equations.append(self.equation_decl(partial))
            else:
                self.fail("expected op, equation, or }")
        self.eat_punct("}")
        theory = Theory(name.value, tuple(ops), tuple(equations))
        check_theory(theory)
        return theory

    def equation_decl(self, theory: Theory) -> Equation:
        eq_name = self.eat_ident("an equation name")
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
        # expand the family into a table once, parsing both sides again for
        # each parameter
        mark = self.i
        lhs, rhs = {}, {}
        for p in param_universe.iter_elements():
            self.i = mark
            env = {param_name: p} if param_name is not None else {}
            lhs[p] = self.tree(theory, env)
            self.eat_punct("=")
            rhs[p] = self.tree(theory, env)
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
