"""The core language: values, computations, types, and the type checker.

Computations carry a value type and a dirt set (the operations they may
perform); handlers transform one computation type into another.  Dirt is
synthesized bottom-up and only ever grows under subsumption.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from .errors import TypeMismatch, UnboundVariable, UnknownOperation
from .terms import Theory, _Node
from .universe import Bool, Empty, Enum, Fin, FiniteUniverse, Product, Unit

Pos = Optional[tuple]


# ---------------------------------------------------------------------------
# Value expressions


class _Syntax(_Node):
    """A node of a program.  Its ``pos`` is its (line, col) in the source
    text, or None; it is not a field, so equality, hashing and the repr leave
    it out.  The parser gives each node a mark in its place (``_at``), whose
    own ``pos`` finds the pair by reading the text again, only when the
    position is read."""

    __slots__ = ()

    @property
    def pos(self) -> Pos:
        at = self._at
        return at if at is None or type(at) is tuple else at.pos


class Var(_Syntax):
    __slots__ = ("name", "_at")
    name: str

    def __init__(self, name, *, pos: Pos = None):
        self._fill(name, pos)


class BoolLit(_Syntax):
    __slots__ = ("value", "_at")
    value: bool

    def __init__(self, value, *, pos: Pos = None):
        self._fill(value, pos)


class UnitLit(_Syntax):
    __slots__ = ("_at",)

    def __init__(self, *, pos: Pos = None):
        self._fill(pos)


class IntLit(_Syntax):
    __slots__ = ("value", "_at")
    value: int

    def __init__(self, value, *, pos: Pos = None):
        self._fill(value, pos)


class StrLit(_Syntax):
    __slots__ = ("value", "_at")
    value: str

    def __init__(self, value, *, pos: Pos = None):
        self._fill(value, pos)


class Pair(_Syntax):
    __slots__ = ("first", "second", "_at")
    first: Any
    second: Any

    def __init__(self, first, second, *, pos: Pos = None):
        self._fill(first, second, pos)


class Plus(_Syntax):
    __slots__ = ("left", "right", "_at")
    left: Any
    right: Any

    def __init__(self, left, right, *, pos: Pos = None):
        self._fill(left, right, pos)


class Fun(_Syntax):
    __slots__ = ("param", "body", "_at")
    param: str
    body: Any

    def __init__(self, param, body, *, pos: Pos = None):
        self._fill(param, body, pos)


class OpClause(_Syntax):
    __slots__ = ("op", "param_name", "kont_name", "body", "_at")
    op: str
    param_name: str
    kont_name: str
    body: Any

    def __init__(self, op, param_name, kont_name, body, *, pos: Pos = None):
        self._fill(op, param_name, kont_name, body, pos)


class HandlerLit(_Syntax):
    __slots__ = ("ret_name", "ret_body", "clauses", "_at")
    ret_name: str
    ret_body: Any
    clauses: tuple

    def __init__(self, ret_name, ret_body, clauses, *, pos: Pos = None):
        self._fill(ret_name, ret_body, clauses, pos)

    def clause_for(self, op: str) -> OpClause | None:
        for clause in self.clauses:
            if clause.op == op:
                return clause
        return None


ValueExpr = Var | BoolLit | UnitLit | IntLit | StrLit | Pair | Plus | Fun | HandlerLit


# ---------------------------------------------------------------------------
# Computation expressions


class Return(_Syntax):
    __slots__ = ("value", "_at")
    value: Any

    def __init__(self, value, *, pos: Pos = None):
        self._fill(value, pos)


class OpCall(_Syntax):
    __slots__ = ("op", "arg", "_at")
    op: str
    arg: Any

    def __init__(self, op, arg, *, pos: Pos = None):
        self._fill(op, arg, pos)


class Do(_Syntax):
    __slots__ = ("name", "first", "rest", "_at")
    name: str
    first: Any
    rest: Any

    def __init__(self, name, first, rest, *, pos: Pos = None):
        self._fill(name, first, rest, pos)


class If(_Syntax):
    __slots__ = ("cond", "then", "orelse", "_at")
    cond: Any
    then: Any
    orelse: Any

    def __init__(self, cond, then, orelse, *, pos: Pos = None):
        self._fill(cond, then, orelse, pos)


class App(_Syntax):
    __slots__ = ("fn", "arg", "_at")
    fn: Any
    arg: Any

    def __init__(self, fn, arg, *, pos: Pos = None):
        self._fill(fn, arg, pos)


class WithHandle(_Syntax):
    __slots__ = ("handler", "comp", "_at")
    handler: Any
    comp: Any

    def __init__(self, handler, comp, *, pos: Pos = None):
        self._fill(handler, comp, pos)


CompExpr = Return | OpCall | Do | If | App | WithHandle


# ---------------------------------------------------------------------------
# Types


class TEmpty(_Node):
    __slots__ = ()

    def __str__(self):
        return "empty"


class TUnit(_Node):
    __slots__ = ()

    def __str__(self):
        return "unit"


class TBool(_Node):
    __slots__ = ()

    def __str__(self):
        return "bool"


class TInt(_Node):
    __slots__ = ()

    def __str__(self):
        return "int"


class TStr(_Node):
    __slots__ = ()

    def __str__(self):
        return "str"


class TProd(_Node):
    __slots__ = ("left", "right")
    left: Any
    right: Any

    def __init__(self, left, right):
        self._fill(left, right)

    def __str__(self):
        return f"({self.left} * {self.right})"


class TVar(_Node):
    __slots__ = ("name",)
    name: int

    def __init__(self, name):
        self._fill(name)

    def __str__(self):
        return f"?{self.name}"


class CompType(_Node):
    __slots__ = ("value", "dirt")
    value: Any
    dirt: frozenset

    def __init__(self, value, dirt):
        self._fill(value, dirt)

    def __str__(self):
        return f"{self.value} ! {{{', '.join(sorted(self.dirt))}}}"


class TArrow(_Node):
    __slots__ = ("arg", "result")
    arg: Any
    result: CompType

    def __init__(self, arg, result):
        self._fill(arg, result)

    def __str__(self):
        return f"({self.arg} -> {self.result})"


class THandler(_Node):
    __slots__ = ("inp", "out")
    inp: CompType
    out: CompType

    def __init__(self, inp, out):
        self._fill(inp, out)

    def __str__(self):
        return f"({self.inp}) => ({self.out})"


ValueType = TEmpty | TUnit | TBool | TInt | TStr | TProd | TArrow | THandler | TVar

T_EMPTY = TEmpty()
T_UNIT = TUnit()
T_BOOL = TBool()
T_INT = TInt()
T_STR = TStr()


def universe_type(u: FiniteUniverse) -> ValueType:
    """The value type whose inhabitants include the universe's elements."""
    t = _LEAF_TYPES.get(type(u))
    if t is not None:
        return t
    if type(u) is Product:
        return TProd(universe_type(u.left), universe_type(u.right))
    raise TypeError(f"not a universe: {u!r}")


_LEAF_TYPES = {Empty: T_EMPTY, Unit: T_UNIT, Bool: T_BOOL, Fin: T_INT, Enum: T_STR}

PRIMITIVES = ("fst", "snd")


class _Mismatch(Exception):
    pass


_UNBOUND = object()  # an undo log's mark for a name the context did not bind


class Checker:
    """Bidirectional-lite type checker with single-level unification.

    Type variables only arise for unannotated binders (function parameters
    and the return-clause binder of a handler synthesized outside a
    with-handle position); they are resolved by use.  A type error is
    raised where it is met, placed at a program node.
    """

    def __init__(self, theory: Theory):
        self.theory = theory
        self.subst: dict = {}
        self._counter = 0

    def fresh(self) -> TVar:
        self._counter += 1
        return TVar(self._counter)

    def resolve(self, t):
        while isinstance(t, TVar) and t in self.subst:
            t = self.subst[t]
        return t

    def zonk(self, t):
        t = self.resolve(t)
        if isinstance(t, TProd):
            return TProd(self.zonk(t.left), self.zonk(t.right))
        if isinstance(t, TArrow):
            return TArrow(self.zonk(t.arg), self.zonk(t.result))
        if isinstance(t, THandler):
            return THandler(self.zonk(t.inp), self.zonk(t.out))
        if isinstance(t, CompType):
            return CompType(self.zonk(t.value), t.dirt)
        return t

    def _unify(self, found, expected):
        found, expected = self.resolve(found), self.resolve(expected)
        if isinstance(found, TVar):
            if found != expected:
                self.subst[found] = expected
            return
        if isinstance(expected, TVar):
            self.subst[expected] = found
            return
        if type(found) is not type(expected):
            raise _Mismatch
        if isinstance(found, TProd):
            self._unify(found.left, expected.left)
            self._unify(found.right, expected.right)
        elif isinstance(found, TArrow):
            self._unify(found.arg, expected.arg)
            self._unify(found.result, expected.result)
        elif isinstance(found, THandler):
            self._unify(found.inp, expected.inp)
            self._unify(found.out, expected.out)
        elif isinstance(found, CompType):
            self._unify(found.value, expected.value)
            if found.dirt != expected.dirt:
                raise _Mismatch

    def unify(self, found, expected, node, fallback=None):
        """Unify, or report a mismatch at ``node``, or else, if it has no
        place, at ``fallback``."""
        if found is expected:
            return
        try:
            self._unify(found, expected)
        except _Mismatch:
            raise TypeMismatch(
                _place(node, fallback), str(self.zonk(expected)), str(self.zonk(found))
            ) from None

    def _join(self, a, b, node, fallback):
        """Branch join: the empty type (an aborted branch) yields to the
        other side; otherwise the value types must agree."""
        a, b = self.resolve(a), self.resolve(b)
        if isinstance(a, TEmpty):
            return b
        if isinstance(b, TEmpty):
            return a
        self.unify(b, a, node, fallback)
        return self.resolve(a)

    # -- values ------------------------------------------------------------

    def synth_value(self, ctx: Mapping, v) -> ValueType:
        if isinstance(v, Var):
            try:
                return ctx[v.name]
            except KeyError:
                raise UnboundVariable(v.name, v) from None
        if isinstance(v, BoolLit):
            return T_BOOL
        if isinstance(v, UnitLit):
            return T_UNIT
        if isinstance(v, IntLit):
            return T_INT
        if isinstance(v, StrLit):
            return T_STR
        if isinstance(v, Pair):
            return TProd(self.synth_value(ctx, v.first), self.synth_value(ctx, v.second))
        if isinstance(v, Plus):
            self.unify(self.synth_value(ctx, v.left), T_INT, v.left, v)
            self.unify(self.synth_value(ctx, v.right), T_INT, v.right, v)
            return T_INT
        if isinstance(v, Fun):
            a = self.fresh()
            body = self.synth_comp({**ctx, v.param: a}, v.body)
            return TArrow(a, body)
        if isinstance(v, HandlerLit):
            return self.handler_type(ctx, v, None)
        raise TypeError(f"not a value expression: {v!r}")

    # -- computations --------------------------------------------------------

    def synth_comp(self, ctx: Mapping, c) -> CompType:
        if isinstance(c, Return):
            return CompType(self.synth_value(ctx, c.value), frozenset())
        if isinstance(c, OpCall):
            decl = self.theory._by_name.get(c.op)
            if decl is None:
                raise UnknownOperation.at(c, c.op)
            arg = self.synth_value(ctx, c.arg)
            self.unify(arg, universe_type(decl.param), c.arg, c)
            return CompType(universe_type(decl.arity), frozenset({c.op}))
        if isinstance(c, Do):
            # the chain of do steps in rest position, checked by a loop that
            # joins their dirt: only a do in first position nests.  Each
            # binder extends ctx in place, and an undo log puts back what it
            # shadowed when the chain is done.
            dirt = frozenset()
            undo = []
            try:
                while type(c) is Do:
                    first = self.synth_comp(ctx, c.first)
                    dirt |= first.dirt
                    name = c.name
                    undo.append((name, ctx.get(name, _UNBOUND)))
                    ctx[name] = first.value
                    c = c.rest
                rest = self.synth_comp(ctx, c)
            finally:
                for name, shadowed in reversed(undo):
                    if shadowed is _UNBOUND:
                        del ctx[name]
                    else:
                        ctx[name] = shadowed
            return CompType(rest.value, dirt | rest.dirt)
        if isinstance(c, If):
            self.unify(self.synth_value(ctx, c.cond), T_BOOL, c.cond, c)
            then = self.synth_comp(ctx, c.then)
            orelse = self.synth_comp(ctx, c.orelse)
            joined = self._join(then.value, orelse.value, c.orelse, c)
            return CompType(joined, then.dirt | orelse.dirt)
        if isinstance(c, App):
            if (
                isinstance(c.fn, Var)
                and c.fn.name in PRIMITIVES
                and c.fn.name not in ctx
            ):
                return self._primitive_app(ctx, c)
            fn = self.resolve(self.synth_value(ctx, c.fn))
            if isinstance(fn, TVar):
                raise TypeMismatch(_place(c.fn, c), "a function", str(fn))
            if not isinstance(fn, TArrow):
                raise TypeMismatch(_place(c.fn, c), "a function", str(self.zonk(fn)))
            arg = self.synth_value(ctx, c.arg)
            self.unify(arg, fn.arg, c.arg, c)
            return self.resolve(fn.result)
        if isinstance(c, WithHandle):
            comp = self.synth_comp(ctx, c.comp)
            if isinstance(c.handler, HandlerLit):
                ht = self.handler_type(ctx, c.handler, comp)
                return ht.out
            hv = self.resolve(self.synth_value(ctx, c.handler))
            if not isinstance(hv, THandler):
                raise TypeMismatch(_place(c.handler, c), "a handler", str(self.zonk(hv)))
            self.unify(comp.value, hv.inp.value, c.comp, c)
            if not comp.dirt <= hv.inp.dirt:
                extra = ", ".join(sorted(comp.dirt - hv.inp.dirt))
                raise TypeMismatch(
                    _place(c.comp, c),
                    str(self.zonk(hv.inp)), f"{self.zonk(comp)} (unhandled: {extra})",
                )
            return hv.out
        raise TypeError(f"not a computation expression: {c!r}")

    def _primitive_app(self, ctx: Mapping, c: App) -> CompType:
        arg = self.resolve(self.synth_value(ctx, c.arg))
        if not isinstance(arg, TProd):
            raise TypeMismatch(_place(c.arg, c), "a pair", str(self.zonk(arg)))
        out = arg.left if c.fn.name == "fst" else arg.right
        return CompType(self.resolve(out), frozenset())

    def handler_type(self, ctx: Mapping, h: HandlerLit, comp: CompType | None) -> THandler:
        seen = set()
        for clause in h.clauses:
            if not self.theory.has_op(clause.op):
                raise UnknownOperation.at(clause, clause.op)
            if clause.op in seen:
                raise TypeMismatch(clause, "distinct operation clauses", clause.op)
            seen.add(clause.op)
        handled = frozenset(seen)
        if comp is None:
            inp_value: ValueType = self.fresh()
            inp_dirt = handled
        else:
            inp_value = comp.value
            inp_dirt = comp.dirt | handled
        ret = self.synth_comp({**ctx, h.ret_name: inp_value}, h.ret_body)
        out_value = ret.value
        out_dirt = ret.dirt | (inp_dirt - handled)
        # the kont type mentions the output dirt, which clause bodies may
        # enlarge; iterate until the dirt stabilizes
        while True:
            grown = out_dirt
            for clause in h.clauses:
                decl = self.theory.op(clause.op)
                kont_type = TArrow(
                    universe_type(decl.arity), CompType(self.resolve(out_value), grown)
                )
                clause_ctx = {
                    **ctx,
                    clause.param_name: universe_type(decl.param),
                    clause.kont_name: kont_type,
                }
                body = self.synth_comp(clause_ctx, clause.body)
                self.unify(body.value, out_value, clause.body, clause)
                grown = grown | body.dirt
            if grown == out_dirt:
                break
            out_dirt = grown
        return THandler(
            CompType(self.resolve(inp_value), inp_dirt),
            CompType(self.resolve(out_value), out_dirt),
        )


def _place(node, fallback):
    """``node``, or ``fallback`` when ``node`` has no place."""
    return node if getattr(node, "_at", None) is not None else fallback


def typecheck_comp(theory: Theory, c, ctx: Mapping | None = None,
                   expected: CompType | None = None) -> CompType:
    """Synthesize a computation's type; with ``expected`` given, also check
    it fits (equal value type, dirt within the expected bound)."""
    checker = Checker(theory)
    got = checker.synth_comp(dict(ctx or {}), c)
    if expected is not None:
        checker.unify(got.value, expected.value, c)
        if not got.dirt <= expected.dirt:
            raise TypeMismatch(c, str(expected), str(checker.zonk(got)))
    return checker.zonk(got)


def typecheck_value(theory: Theory, v, ctx: Mapping | None = None) -> ValueType:
    checker = Checker(theory)
    return checker.zonk(checker.synth_value(dict(ctx or {}), v))
