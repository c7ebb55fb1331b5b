"""Set-theoretic interpretations and finite models.

An interpretation assigns each operation a function (param, args) -> carrier
element, where args is a tuple indexed by the arity enumeration.  A raw
``Interpretation`` may live on any carrier (e.g. the reals) and supports
term interpretation only; a ``FiniteModel`` adds an enumerable carrier and
with it exhaustive equation validation.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping

from .errors import NonEnumerableCarrier, TheoryMismatch, UnboundGenerator, UnknownOperation
from .terms import Equation, Return, Theory, Tree, _Node, _check_laws, _set, fold_tree, subtrees
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


def compile_term(interp: Interpretation, t: Tree, slots: Mapping) -> Callable:
    """t as a function of a valuation, walked once here rather than at every
    valuation.  A leaf reads the valuation at ``slots[value]``; a node
    applies its operation's function to its subtrees' values, left to
    right.  A leaf ``slots`` does not cover and an operation with no
    function raise (UnboundGenerator, UnknownOperation) when evaluated, not
    here, as does the TypeError of a leaf that cannot be a key."""
    if isinstance(t, Return):
        value = t.value
        try:
            return itemgetter(slots[value])
        except (KeyError, TypeError):
            def unbound(valuation):
                try:
                    return valuation[slots[value]]
                except KeyError:
                    raise UnboundGenerator(
                        f"valuation does not cover generator {value!r}"
                    ) from None
            return unbound
    op, param = t.op, t.param
    if op not in interp.ops:
        def unknown(valuation):
            raise UnknownOperation(f"no interpretation for operation {op!r}")
        return unknown
    f = interp.ops[op]
    subs = tuple(compile_term(interp, sub, slots) for sub in t.kont)
    if not subs:
        return lambda valuation: f(param, ())
    if len(subs) == 1:
        (a,) = subs
        return lambda valuation: f(param, (a(valuation),))
    if len(subs) == 2:
        a, b = subs
        return lambda valuation: f(param, (a(valuation), b(valuation)))
    return lambda valuation: f(param, tuple([s(valuation) for s in subs]))


def interpret_term(interp: Interpretation, t: Tree, valuation: Mapping) -> Any:
    """Interpret a tree as a carrier element under a valuation of its
    generators: leaves project, nodes apply the operation's function, by
    one fold (``terms.fold_tree``), so a tree of any depth is fine.  A
    preorder pass first raises the first defect: an operation with no
    function (UnknownOperation), a leaf the valuation lacks
    (UnboundGenerator), or the TypeError of a leaf that cannot be a key."""
    ops = interp.ops
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
    (``terms._check_laws``), where a point is a valuation tuple indexed
    like the context's generators.  None means valid, otherwise the first
    witness is returned, its valuation a dict.  Each side of an instance is
    fetched and compiled (``compile_term``) once, just before its cases,
    since it is evaluated at all |carrier|^|context| of them; an empty
    carrier fetches and compiles nothing of an equation with generators."""
    if not isinstance(m, FiniteModel):
        raise NonEnumerableCarrier("equation validation needs an enumerable carrier")
    return _violation(m, (e,))


def validate_model(m: FiniteModel) -> EquationViolation | None:
    """Check every equation of the model's theory; first failure wins."""
    if not isinstance(m, FiniteModel):
        raise NonEnumerableCarrier("model validation needs an enumerable carrier")
    return _violation(m, m.theory.eqs)


def _violation(m: FiniteModel, eqs) -> EquationViolation | None:
    carrier = m.carrier.elements()
    if not carrier:  # no valuation: only an equation without generators has a case
        eqs = [e for e in eqs if e.context.is_empty()]

    def check(e, p, lhs, rhs):
        gens = e.context.elements()
        slots = {g: i for i, g in enumerate(gens)}
        lhs, rhs = compile_term(m, lhs, slots), compile_term(m, rhs, slots)
        for picks in itertools.product(carrier, repeat=len(gens)):
            lv = lhs(picks)
            rv = rhs(picks)
            if lv != rv:
                return EquationViolation(e.name, p, dict(zip(gens, picks)), lv, rv)
        return True

    return _check_laws(eqs, check)[0]


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
