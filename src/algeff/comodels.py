"""Comodels: the external environments programs run against.

A cointerpretation equips a finite world with one cooperation
P x |W| -> A x |W| per covered operation.  Running an effect tree against a
world threads the world through the cooperations until a leaf is reached
(Done) or an uncovered operation surfaces (Stuck).  Validating a comodel
checks every equation pointwise over the world: a side written in theory
syntax is run from its shape, read once per check in a runner algebra
(``_runner``), and no instance of it is built.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any, Callable, Mapping

from .errors import (
    ImpossibleCooperation,
    NonEnumerableWorld,
    UncoveredOperation,
    UnknownOperation,
)
from .terms import OpNode, Return, Theory, _element, _Node, _check_laws, compile
from .theories import choice_theory
from .universe import Enum, Fin, FiniteUniverse


class Cointerpretation(_Node):
    """A finite world with cooperations for a subset of a theory's operations.

    Coverage may be partial: some operations (abort, say) admit no
    cooperation at all.  An operation with empty arity can only be covered
    when the world itself is empty, since its cooperation would have to
    produce an element of the empty set.
    """

    __slots__ = ("theory", "world", "coops")
    theory: Theory
    world: FiniteUniverse
    coops: Mapping[str, Callable[[Any, Any], tuple]]
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, theory: Theory, world: FiniteUniverse, coops: Mapping):
        for name in coops:
            decl = theory.op(name)
            if decl.arity.is_empty() and not world.is_empty():
                raise ImpossibleCooperation(
                    f"operation {name!r} has empty arity; no cooperation into it "
                    "exists over a nonempty world"
                )
        self._fill(theory, world, coops)


class Done(_Node):
    __slots__ = ("value", "world")
    value: Any
    world: Any

    def __init__(self, value, world):
        self._fill(value, world)


class Stuck(_Node):
    __slots__ = ("op", "param", "world")
    op: str
    param: Any
    world: Any

    def __init__(self, op: str, param, world):
        self._fill(op, param, world)


RunOutcome = Done | Stuck


class ComodelViolation(_Node):
    __slots__ = ("equation", "param", "world", "lhs_outcome", "rhs_outcome")
    equation: str
    param: Any
    world: Any
    lhs_outcome: RunOutcome
    rhs_outcome: RunOutcome

    def __init__(self, equation: str, param, world, lhs_outcome=None, rhs_outcome=None):
        self._fill(equation, param, world, lhs_outcome, rhs_outcome)


def _run(c: Cointerpretation, world, t) -> tuple:
    """Step a tree, or a head-normal computation (``interp.evaluate``), from
    ``world`` up to a leaf or the first operation with no cooperation; return
    that tree and the world there.  A computation is resumed only along the
    branch each cooperation picks.  ``c.coops`` is read at every step."""
    while not isinstance(t, Return):
        coop = c.coops.get(t.op)
        if coop is None:
            break
        a, world = coop(t.param, world)
        if isinstance(t, OpNode):
            t = t.kont[c.theory.op(t.op).arity.index_of(a)]
        else:
            t = t.resume(a)
    return t, world


def cointerpret_tree(w0, t, c: Cointerpretation) -> RunOutcome:
    """Run a tree, or a head-normal computation, from world w0: leaves
    finish, covered operations step the world, the first uncovered
    operation gets reported as Stuck."""
    t, world = _run(c, w0, t)
    if isinstance(t, Return):
        return Done(t.value, world)
    if not c.theory.has_op(t.op):
        raise UnknownOperation(f"tree performs undeclared operation {t.op!r}")
    return Stuck(t.op, t.param, world)


def validate_comodel(c: Cointerpretation) -> ComodelViolation | None:
    """Check every equation of the theory against the comodel, pointwise
    over parameters, then worlds, in their enumeration order, through the
    shared law checker (``terms._check_laws``) with the covered operations
    as its coverage; None means every law holds, otherwise the first
    failing case is the witness.  An equation that mentions an uncovered
    operation raises UncoveredOperation before any of its runs.  A side
    written in theory syntax is run from its shape, read once in the
    comodel's runner algebra (``_runner``), so no instance of it is built;
    any other side's instance is run by the loop ``cointerpret_tree``
    uses.  Either way a run makes the same cooperation calls, and its
    (leaf value, world) pair becomes a ``Done`` record only in a witness.
    """
    if not isinstance(c.world, FiniteUniverse):
        raise NonEnumerableWorld("comodel validation needs an enumerable world")
    algebra = _runner(c)

    def build(side):  # a template side's runner at each parameter
        run = compile(side.shape, algebra)
        return lambda p: partial(run, {0: p})

    def check(eq, p, lhs, rhs):
        if not callable(lhs):  # trees of sides written as functions
            lhs, rhs = partial(_ends, c, lhs), partial(_ends, c, rhs)
        for w in c.world.iter_elements():
            lo, ro = lhs(w), rhs(w)
            if lo != ro:
                return ComodelViolation(eq.name, p, w, Done(*lo), Done(*ro))
        return True

    violation, skipped, _ = _check_laws(c.theory.eqs, check, set(c.coops), stop_at_skip=True,
                                        build=build)
    for name, missing in skipped:
        raise UncoveredOperation(f"equation {name!r} mentions uncovered operations {missing}")
    return violation


def _ends(c: Cointerpretation, t, world) -> tuple:
    """(leaf value, world) where a tree run from ``world`` ends."""
    t, world = _run(c, world, t)
    return t.value, world


def _runner(c: Cointerpretation) -> tuple:
    """The runner algebra of ``c``, its model on (X x W)^W (Plotkin &
    Power, MFPS 2008): a covered side as a function from an environment and
    a world to (leaf value, world), making ``_run``'s cooperation calls and
    arity checks (``index_of``).  Each body rebinds its own key, so runs
    share an environment; nothing is built."""

    def leaf(value):
        return lambda env, world: (value(env), world)

    def node(op, param, kids):
        coop, arity = c.coops[op], c.theory.op(op).arity

        def run(env, world):
            a, world = coop(param(env), world)
            return kids[arity.index_of(a)](env, world)

        return run

    def bind(op, param, arity, body, key):
        coop, elements = c.coops[op], arity.elements()

        def run_body(env, world):
            a, world = coop(param(env), world)
            env[key] = elements[arity.index_of(a)]
            return body(env, world)

        return run_body

    return _element, leaf, node, bind


def tensor_run(m_tree, w0, c: Cointerpretation) -> RunOutcome:
    """Run a free-model element (``free.FreeElement``) against a world.

    This is cointerpretation of the representative; when the comodel is
    valid, congruent representatives give identical outcomes.
    """
    return cointerpret_tree(w0, m_tree.tree, c)


# ---------------------------------------------------------------------------
# Stock comodels


def state_comodel(theory: Theory) -> Cointerpretation:
    """The canonical single-state comodel: the world is the state itself,
    get reads it and put replaces it."""
    s = theory.op("get").arity
    return Cointerpretation(
        theory,
        s,
        {
            "get": lambda p, w: (w, w),
            "put": lambda p, w: ((), p),
        },
    )


def alternating_choice_comodel() -> Cointerpretation:
    """A deterministic bit stream alternating false, true, false, ...;
    validation rejects it (no stream satisfies commutativity)."""
    return Cointerpretation(
        choice_theory(),
        Fin(2),
        {"choose": lambda p, w: (bool(w), 1 - w)},
    )


def transcript_label(items: tuple) -> str:
    return "[" + ", ".join(json.dumps(x) for x in items) + "]"


def _transcripts(s: FiniteUniverse, max_len: int) -> dict:
    """Every output transcript over ``s`` of length at most ``max_len``, by
    its rendered label, shortest first."""
    decode = {transcript_label(()): ()}
    level = [()]
    for _ in range(max_len):
        level = [items + (x,) for items in level for x in s.iter_elements()]
        for items in level:
            decode[transcript_label(items)] = items
    return decode


def transcript_universe(s: FiniteUniverse, max_len: int) -> Enum:
    """All output transcripts over ``s`` of length at most ``max_len``,
    encoded as their rendered labels."""
    return Enum(tuple(_transcripts(s, max_len)))


def printer_comodel(theory: Theory, s: FiniteUniverse, max_len: int) -> Cointerpretation:
    """A bounded output transcript for print; a full transcript absorbs
    further prints so the cooperation stays total."""
    decode = _transcripts(s, max_len)

    def do_print(p, w):
        items = decode[w]
        if len(items) < max_len:
            items = items + (p,)
        return (), transcript_label(items)

    return Cointerpretation(theory, Enum(tuple(decode)), {"print": do_print})


def reader_comodel(theory: Theory, feed: tuple) -> Cointerpretation:
    """A fixed input sequence with a cursor world; an exhausted feed keeps
    serving its last entry."""
    if not feed:
        raise ValueError("reader comodel needs a nonempty feed")

    def do_read(p, w):
        return feed[min(w, len(feed) - 1)], min(w + 1, len(feed))

    return Cointerpretation(theory, Fin(len(feed) + 1), {"read": do_read})
