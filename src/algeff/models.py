"""Set-theoretic interpretations and finite models.

An interpretation assigns each operation a function (param, args) -> carrier
element, where args is a tuple indexed by the arity enumeration.  A raw
``Interpretation`` may live on any carrier (e.g. the reals) and supports
term interpretation only; a ``FiniteModel`` adds an enumerable carrier and
with it exhaustive equation validation.  Validation reads each side of an
instance once for a block of valuations, as one reading in a power of the
model (``_Reader``), and applies each operation once per distinct
(param, args) in the whole check.  Each side of an instance is built
once, just before its cases, and not kept.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Mapping

from .errors import NonEnumerableCarrier, TheoryMismatch, UnboundGenerator, UnknownOperation
from .terms import Equation, Return, Theory, Tree, _Node, _check_laws, _set
from .terms import fold_tree, subtrees
from .universe import UNIT, FiniteUniverse, Product


class Interpretation(_Node):
    __slots__ = ("theory", "ops")
    theory: Theory
    ops: Mapping[str, Callable[[Any, tuple], Any]]
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, theory: Theory, ops: Mapping):
        for o in theory.ops:
            if o.name not in ops:
                raise UnknownOperation(
                    f"interpretation lacks operation {o.name!r} of theory {theory.name!r}"
                )
        self._fill(theory, ops)


class FiniteModel(Interpretation):
    __slots__ = ("carrier",)
    carrier: FiniteUniverse

    def __init__(self, theory: Theory, ops: Mapping, carrier: FiniteUniverse):
        super().__init__(theory, ops)
        _set(self, "carrier", carrier)


class EquationViolation(_Node):
    __slots__ = ("equation", "param", "valuation", "lhs_value", "rhs_value")
    equation: str
    param: Any
    valuation: dict
    lhs_value: Any
    rhs_value: Any

    def __init__(self, equation: str, param, valuation: dict, lhs_value=None, rhs_value=None):
        self._fill(equation, param, valuation, lhs_value, rhs_value)


class HomViolation(_Node):
    __slots__ = ("op", "param", "args")
    op: str
    param: Any
    args: tuple

    def __init__(self, op: str, param, args: tuple):
        self._fill(op, param, args)


def interpret_term(interp: Interpretation, t: Tree, valuation: Mapping) -> Any:
    """Interpret a tree as a carrier element under a valuation of its
    generators: leaves project, nodes apply the operation's function, by
    one fold (``terms.fold_tree``), so a tree of any depth is fine.  A
    preorder pass first raises the first defect: an operation with no
    function (UnknownOperation), a leaf the valuation lacks
    (UnboundGenerator), or the TypeError of a leaf that cannot be a key."""
    return _interpret(interp.ops, t, valuation)


def _interpret(ops: Mapping, t: Tree, valuation: Mapping) -> Any:
    for sub in subtrees(t):
        if type(sub) is Return:
            if sub.value not in valuation:
                raise UnboundGenerator(f"valuation does not cover generator {sub.value!r}")
        elif sub.op not in ops:
            raise UnknownOperation(f"no interpretation for operation {sub.op!r}")
    return fold_tree(t, valuation.__getitem__, lambda op, param, args: ops[op](param, args))


def iter_equation_cases(m: FiniteModel, e: Equation) -> Iterator[tuple]:
    """All (parameter, valuation) pairs of an equation family, in canonical
    order: parameters first, then valuations lexicographic in the carrier
    enumeration.  Exactly |P| * |carrier|^|context| cases."""
    gens = e.context.elements()
    carrier = m.carrier.elements()
    for p in e.param_universe.iter_elements():
        for picks in itertools.product(carrier, repeat=len(gens)):
            yield p, dict(zip(gens, picks))


def validate_equation(m: FiniteModel, e: Equation) -> EquationViolation | None:
    """Exhaustively check one equation family over the cases of
    ``iter_equation_cases``, in its order, through the shared law checker
    (``terms._check_laws``).  None means valid, otherwise the first
    witness is returned, its valuation a dict.  Each side of an instance is
    fetched once, just before its cases, and read at all
    |carrier|^|context| of them at once (``_Reader``); an empty carrier
    fetches nothing of an equation with generators."""
    if not isinstance(m, FiniteModel):
        raise NonEnumerableCarrier("equation validation needs an enumerable carrier")
    return _violation(m, (e,))


def validate_model(m: FiniteModel) -> EquationViolation | None:
    """Check every equation of the model's theory; first failure wins."""
    if not isinstance(m, FiniteModel):
        raise NonEnumerableCarrier("model validation needs an enumerable carrier")
    return _violation(m, m.theory.eqs)


def _violation(m: FiniteModel, eqs) -> EquationViolation | None:
    if m.carrier.is_empty():  # no valuation: only an equation without generators has a case
        eqs = [e for e in eqs if e.context.is_empty()]
    reader = _Reader(m)

    def check(e, p, lhs, rhs):
        gens = e.context.elements()
        found = reader.first_difference(lhs, rhs, gens)
        if found is None:
            return True
        picks, lv, rv = found
        return EquationViolation(e.name, p, dict(zip(gens, picks)), lv, rv)

    return _check_laws(eqs, check)[0]


# A side is read at this many valuations at once first, and each next block
# is twice as large, up to _MOST_AT_ONCE: a defect near the start costs a
# small block, and a long check pays a block's overhead a few times only.
_FIRST_AT_ONCE, _MOST_AT_ONCE = 16, 4096


class _Inexact(Exception):
    """An operation gave a value outside the carrier."""


class _Values(dict):
    """One operation's values at one parameter, by argument tuple, each
    worked out when first asked for: a model's operations are functions.
    Carrier elements equal by ``==`` are the same element, but a value
    outside the carrier may not be (``True`` and ``1``), so one is kept
    and then raises _Inexact.  What the operation raises is kept too, as
    a ``_Raised``, and raised on."""

    __slots__ = ("f", "param", "carrier")

    def __init__(self, f: Callable, param, carrier: FiniteUniverse):
        self.f, self.param, self.carrier = f, param, carrier

    def __missing__(self, args):
        try:
            value = self[args] = self.f(self.param, args)
        except Exception as error:
            self[args] = _Raised(error)
            raise
        if not self.carrier.contains(value):
            raise _Inexact
        return value


class _Raised:
    """The exception an operation raised at some arguments."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error


def _exact(value):
    """A key that tells apart values of different types, through tuples."""
    return (type(value), tuple(map(_exact, value)) if type(value) is tuple else value)


class _Reader:
    """Reads trees in a finite model at a block of valuations at once, as
    one reading in a power of the model: a generator's column is its values
    across the block, and a node's column is its operation applied to its
    subtrees' columns, once per distinct (param, args) in the whole check
    (``_Values``).  A tree with a defect, a parameter that cannot be a key,
    an operation that raises or that leaves the carrier sends the reader to
    one valuation at a time (``interpret_term``), for the rest of its
    check, with every value it has worked out kept by exact arguments."""

    def __init__(self, m: FiniteModel):
        self.ops, self.carrier = m.ops, m.carrier
        self.tables = {}  # (op, _exact(param)) -> _Values
        self.calls = None  # each operation's function, once pointwise

    def first_difference(self, lhs: Tree, rhs: Tree, gens) -> tuple | None:
        """The first valuation of ``gens``, in ``itertools.product`` order
        over the carrier, at which lhs and rhs differ, as a tuple of picks,
        with the two values; None if there is none."""
        slots = {g: i for i, g in enumerate(gens)}
        steps = None
        if self.calls is None:
            try:
                steps = self._steps(lhs, slots), self._steps(rhs, slots)
            except (KeyError, TypeError):  # a defect, or a parameter that cannot be a key
                self._pointwise()
        valuations = itertools.product(self.carrier.elements(), repeat=len(gens))
        size = _FIRST_AT_ONCE
        while block := list(itertools.islice(valuations, size)):
            size = min(2 * size, _MOST_AT_ONCE)
            if steps is not None:
                try:
                    columns = [list(c) for c in zip(*block)]
                    lcol = _column(steps[0], columns, len(block))
                    rcol = _column(steps[1], columns, len(block))
                except Exception:  # read this block again, one valuation at a time
                    self._pointwise()
                    steps = None
                else:
                    if lcol != rcol:
                        j = next(j for j, (a, b) in enumerate(zip(lcol, rcol)) if a != b)
                        return block[j], lcol[j], rcol[j]
                    continue
            for picks in block:
                valuation = dict(zip(gens, picks))
                lv = _interpret(self.calls, lhs, valuation)
                rv = _interpret(self.calls, rhs, valuation)
                if lv != rv:
                    return picks, lv, rv
        return None

    def _steps(self, side: Tree, slots: dict) -> list:
        """The side's nodes in preorder, last first: a leaf as its
        generator's slot, a node as its operation's ``_Values`` at its
        parameter and its number of subtrees."""
        steps = [slots[n.value] if type(n) is Return else (self._values(n.op, n.param), len(n.kont))
                 for n in subtrees(side)]
        steps.reverse()
        return steps

    def _values(self, op: str, param) -> _Values:
        key = (op, _exact(param))
        values = self.tables.get(key)
        if values is None:
            values = self.tables[key] = _Values(self.ops[op], param, self.carrier)
        return values

    def _pointwise(self):
        """Read one valuation at a time from now on: ``calls`` maps each
        operation to its function, whose values, and exceptions, are kept
        by exact arguments.  Those the blocks worked out are read from
        their tables, whose arguments are carrier elements, which equal
        only themselves."""
        if self.calls is not None:
            return
        tables, contains, kept, unseen = self.tables, self.carrier.contains, {}, object()

        def once(name, f):
            def op(param, args):
                try:
                    key = (name, _exact(param), _exact(args))
                    value = kept.get(key, unseen)
                    if value is unseen and key[:2] in tables and all(map(contains, args)):
                        value = tables[key[:2]].get(args, unseen)
                except TypeError:  # a value that cannot be a key
                    return f(param, args)
                if value is unseen:
                    value = kept[key] = f(param, args)
                elif type(value) is _Raised:
                    raise value.error
                return value
            return op

        self.calls = {name: once(name, f) for name, f in self.ops.items()}


def _column(steps: list, columns: list, width: int) -> list:
    """The column of the tree that ``steps`` lists, at a block of
    ``width`` valuations whose generators' columns are ``columns``: read
    from the last node of the preorder back, a node's subtrees are the top
    of the stack, its first subtree topmost."""
    stack = []
    for step in steps:
        if type(step) is int:
            stack.append(columns[step])
        else:
            values, k = step
            if k:
                args = zip(*stack[:-k - 1:-1])
                del stack[-k:]
                stack.append(list(map(values.__getitem__, args)))
            else:
                stack.append([values[()]] * width)
    return stack[0]


def product_model(l: FiniteModel, m: FiniteModel) -> FiniteModel:
    """The pointwise product: carrier |L| x |M|, operations coordinatewise."""
    if l.theory is not m.theory:
        raise TheoryMismatch(
            f"cannot form a product of models of {l.theory.name!r} and {m.theory.name!r}"
        )

    def coordinatewise(name):
        fl, fm = l.ops[name], m.ops[name]

        def op(p, args):
            return (
                fl(p, tuple(a[0] for a in args)),
                fm(p, tuple(a[1] for a in args)),
            )

        return op

    ops = {o.name: coordinatewise(o.name) for o in l.theory.ops}
    return FiniteModel(l.theory, ops, Product(l.carrier, m.carrier))


def check_homomorphism(phi: Mapping, l: FiniteModel, m: FiniteModel) -> HomViolation | None:
    """Does ``phi`` commute with every operation?  None when it does,
    otherwise the first failing (op, param, args) in enumeration order."""
    if l.theory is not m.theory:
        raise TheoryMismatch("homomorphisms relate models of the same theory")
    carrier = l.carrier.elements()
    for o in l.theory.ops:
        for p in o.param.iter_elements():
            for args in itertools.product(carrier, repeat=o.arity.size()):
                through = phi[l.ops[o.name](p, args)]
                mapped = m.ops[o.name](p, tuple(phi[a] for a in args))
                if through != mapped:
                    return HomViolation(o.name, p, args)
    return None


def is_homomorphism(phi: Mapping, l: FiniteModel, m: FiniteModel) -> bool:
    return check_homomorphism(phi, l, m) is None


def trivial_model(theory: Theory) -> FiniteModel:
    """The one-element model every theory has."""
    ops = {o.name: (lambda p, args: ()) for o in theory.ops}
    return FiniteModel(theory, ops, UNIT)


def table_model(theory: Theory, carrier: FiniteUniverse, table: Mapping) -> FiniteModel:
    """Build a model from an explicit table {(op, param, args): result},
    checking totality over every operation's domain."""
    for o in theory.ops:
        for p in o.param.iter_elements():
            for args in itertools.product(carrier.elements(), repeat=o.arity.size()):
                key = (o.name, p, args)
                if key not in table:
                    raise UnknownOperation(
                        f"model table is missing an entry for {o.name!r} at "
                        f"param {p!r}, args {args!r}"
                    )
                if not carrier.contains(table[key]):
                    raise ValueError(
                        f"model table maps {key!r} outside the carrier: {table[key]!r}"
                    )

    def from_table(name):
        return lambda p, args: table[(name, p, args)]

    return FiniteModel(theory, {o.name: from_table(o.name) for o in theory.ops}, carrier)
