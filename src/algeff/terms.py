"""Signatures, effect trees, equations, and theories.

A tree is either a ``Return`` leaf over a generator value or an operation
node carrying a parameter and one subtree per element of the operation's
arity.  Continuations are stored positionally, indexed by the arity
universe's canonical enumeration, so structural equality of trees is just
dataclass equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from .errors import (
    IncompleteContinuation,
    ParameterOutOfUniverse,
    UnboundGenerator,
    UnknownOperation,
)
from .universe import FiniteUniverse


@dataclass(frozen=True)
class OpDecl:
    """An operation symbol with a parameter set and an arity."""

    name: str
    param: FiniteUniverse
    arity: FiniteUniverse


@dataclass(frozen=True)
class Return:
    value: Any


@dataclass(frozen=True)
class OpNode:
    op: str
    param: Any
    kont: tuple

    def __post_init__(self):
        object.__setattr__(self, "kont", tuple(self.kont))


Tree = Return | OpNode


@dataclass(frozen=True)
class Equation:
    """A family of tree pairs over a shared generator context.

    ``lhs``/``rhs`` map each element of ``param_universe`` to a tree whose
    leaves are elements of ``context``.  Unparameterized equations use the
    unit universe and ignore their argument.
    """

    name: str
    param_universe: FiniteUniverse
    context: FiniteUniverse
    lhs: Callable[[Any], Tree]
    rhs: Callable[[Any], Tree]


@dataclass(frozen=True, eq=False)
class Theory:
    """A named signature plus a family of equations.

    Theories compare by identity.  The name is a label for messages: proof
    strategies (see ``free.normalize``) follow from the operations and
    equation instances alone.
    """

    name: str
    ops: tuple
    eqs: tuple = ()
    renames: tuple = ()  # (original op name, new op name) pairs from combine()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "eqs", tuple(self.eqs))
        by_name = {o.name: o for o in self.ops}
        if len(by_name) != len(self.ops):
            raise ValueError(f"duplicate operation names in theory {self.name!r}")
        object.__setattr__(self, "_by_name", by_name)

    def op(self, name: str) -> OpDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownOperation(f"theory {self.name!r} has no operation {name!r}") from None

    def has_op(self, name: str) -> bool:
        return name in self._by_name

    def op_names(self) -> tuple:
        return tuple(o.name for o in self.ops)


def make_tree_op(theory: Theory, op: str, p, kont: Mapping) -> OpNode:
    """Build a well-formed operation node from a map arity element -> tree.

    Raises UnknownOperation, ParameterOutOfUniverse, or
    IncompleteContinuation when the ingredients do not fit the signature.
    """
    decl = theory.op(op)
    if not decl.param.contains(p):
        raise ParameterOutOfUniverse(
            f"{p!r} is not a parameter of {op!r} (expects {decl.param})"
        )
    subtrees = []
    for a in decl.arity.iter_elements():
        try:
            subtrees.append(kont[a])
        except KeyError:
            raise IncompleteContinuation(
                f"continuation for {op!r} is missing arity element {a!r}"
            ) from None
    return OpNode(op, p, tuple(subtrees))


def substitute(t: Tree, sigma: Mapping) -> Tree:
    """Replace each generator leaf by the tree sigma assigns to it."""
    if isinstance(t, Return):
        try:
            return sigma[t.value]
        except KeyError:
            raise UnboundGenerator(f"no tree assigned to generator {t.value!r}") from None
    return OpNode(t.op, t.param, tuple(substitute(sub, sigma) for sub in t.kont))


def tree_leaves(t: Tree) -> Iterator:
    if isinstance(t, Return):
        yield t.value
    else:
        for sub in t.kont:
            yield from tree_leaves(sub)


def tree_ops(t: Tree) -> set:
    if isinstance(t, Return):
        return set()
    found = {t.op}
    for sub in t.kont:
        found |= tree_ops(sub)
    return found


def tree_depth(t: Tree) -> int:
    if isinstance(t, Return):
        return 0
    return 1 + max((tree_depth(sub) for sub in t.kont), default=0)


def tree_size(t: Tree) -> int:
    if isinstance(t, Return):
        return 1
    return 1 + sum(tree_size(sub) for sub in t.kont)


def rename_tree_ops(t: Tree, mapping: Mapping) -> Tree:
    if isinstance(t, Return):
        return t
    return OpNode(
        mapping.get(t.op, t.op),
        t.param,
        tuple(rename_tree_ops(sub, mapping) for sub in t.kont),
    )


def check_tree(theory: Theory, context: FiniteUniverse, t: Tree) -> None:
    """Assert that ``t`` is well-formed over the theory's signature with
    generators drawn from ``context``; raises on the first defect."""
    if isinstance(t, Return):
        if not context.contains(t.value):
            raise UnboundGenerator(
                f"leaf {t.value!r} is not a generator of context {context}"
            )
        return
    decl = theory.op(t.op)
    if not decl.param.contains(t.param):
        raise ParameterOutOfUniverse(
            f"{t.param!r} is not a parameter of {t.op!r} (expects {decl.param})"
        )
    if len(t.kont) != decl.arity.size():
        raise IncompleteContinuation(
            f"node {t.op!r} has {len(t.kont)} subtrees, arity has {decl.arity.size()}"
        )
    for sub in t.kont:
        check_tree(theory, context, sub)


def check_theory(theory: Theory) -> None:
    """Validate every equation family exhaustively over its parameters."""
    for eq in theory.eqs:
        for p in eq.param_universe.iter_elements():
            check_tree(theory, eq.context, eq.lhs(p))
            check_tree(theory, eq.context, eq.rhs(p))


def sort_key(value) -> tuple:
    """A deterministic total order on the leaf values this package uses."""
    if isinstance(value, tuple):
        return (4, tuple(sort_key(v) for v in value))
    if type(value) is bool:
        return (1, value)
    if isinstance(value, int):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    return (9, repr(value))
