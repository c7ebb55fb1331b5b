"""Free models as effect trees.

Computations returning values from X while performing a theory's operations
are represented by trees over X, understood up to the congruence the
equations generate.  This module provides the monad structure (eta, lift,
sequencing, generic operations), canonical normal forms for theories whose
laws are exactly a built-in's, and a budgeted congruence search for tree
equality elsewhere.
"""

from __future__ import annotations

import itertools
import operator
import os
import weakref
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum as PyEnum
from typing import Callable, Iterator, Mapping

from .errors import EmptyStateUniverse, NoNormalizer, UnboundGenerator, UnknownOperation
from .models import FiniteModel, interpret_term
from .terms import OpNode, Return, Theory, Tree, make_tree_op, same_value, sort_key, tree_leaves
from .theories import choice_theory, semilattice_theory, single_state_theory
from .universe import BOOL

DEFAULT_BUDGET = 10000


def default_budget() -> int:
    """How many trees the congruence search may expand; ALGEFF_BUDGET
    overrides the default."""
    raw = os.environ.get("ALGEFF_BUDGET", "")
    try:
        return int(raw) if raw else DEFAULT_BUDGET
    except ValueError:
        return DEFAULT_BUDGET


@dataclass(frozen=True)
class FreeElement:
    """An element of the free model: a representative tree over a theory.

    Structural equality compares representatives; equality modulo the
    theory is tree_equal_modulo's job.
    """

    theory: Theory
    tree: Tree


def eta(theory: Theory, x) -> FreeElement:
    """The unit: embed a generator as a pure computation."""
    return FreeElement(theory, Return(x))


def generic_op(theory: Theory, op: str, p) -> FreeElement:
    """Perform the operation and return its result: op(p; a. return a)."""
    decl = theory.op(op)
    kont = {a: Return(a) for a in decl.arity.iter_elements()}
    return FreeElement(theory, make_tree_op(theory, op, p, kont))


def _as_function(phi) -> Callable:
    if isinstance(phi, Mapping):
        def lookup(x):
            try:
                return phi[x]
            except KeyError:
                raise UnboundGenerator(f"lifting is undefined on generator {x!r}") from None

        return lookup
    return phi


def lift(phi) -> Callable[[FreeElement], FreeElement]:
    """Kleisli lifting: extend a map X -> Free(Y) to Free(X) -> Free(Y) by
    structural recursion (leaves go through phi, nodes are preserved)."""
    phi_fn = _as_function(phi)

    def lift_tree(t: Tree) -> Tree:
        if isinstance(t, Return):
            return phi_fn(t.value).tree
        return OpNode(t.op, t.param, tuple(lift_tree(sub) for sub in t.kont))

    def lifted(elem: FreeElement) -> FreeElement:
        return FreeElement(elem.theory, lift_tree(elem.tree))

    return lifted


def sequence(t: FreeElement, h) -> FreeElement:
    """do x <- t in h(x): sequencing is lifting applied to the tree."""
    return lift(h)(t)


# ---------------------------------------------------------------------------
# State normal form


@dataclass(frozen=True)
class StateNormalForm:
    """The canonical single-state computation get((); s. put(f(s); _. return g(s)))
    as its two tables f : S -> S and g : S -> V."""

    f: dict
    g: dict


def _single_state_universe(theory: Theory):
    s = theory.op("get").arity
    if s.is_empty():
        raise EmptyStateUniverse("single-state normal forms need a nonempty state universe")
    return s


def run_single_state(theory: Theory, t: Tree, s) -> tuple:
    """Execute a get/put tree from state s, yielding (final state, value)."""
    s_univ = _single_state_universe(theory)
    while isinstance(t, OpNode):
        if t.op == "get":
            t = t.kont[s_univ.index_of(s)]
        elif t.op == "put":
            s = t.param
            t = t.kont[0]
        else:
            raise UnknownOperation(f"not a single-state operation: {t.op!r}")
    return s, t.value


def state_normal_form(theory: Theory, t: Tree) -> StateNormalForm:
    """The unique (f, g) with t congruent to get((); s. put(f(s); _. return g(s))),
    computed denotationally: (f(s), g(s)) is the run of t from s."""
    s_univ = _single_state_universe(theory)
    f, g = {}, {}
    for s in s_univ.iter_elements():
        f[s], g[s] = run_single_state(theory, t, s)
    return StateNormalForm(f, g)


def state_normal_form_tree(theory: Theory, nf: StateNormalForm) -> Tree:
    s_univ = _single_state_universe(theory)
    return OpNode(
        "get",
        (),
        tuple(
            OpNode("put", nf.f[s], (Return(nf.g[s]),))
            for s in s_univ.iter_elements()
        ),
    )


def _normalize_single_state(theory: Theory, t: Tree) -> Tree:
    return state_normal_form_tree(theory, state_normal_form(theory, t))


def _normalize_semilattice(theory: Theory, t: Tree) -> Tree:
    # the congruence class of a join tree is the finite set of its leaves
    leaves = sorted(set(tree_leaves(t)), key=sort_key)
    if not leaves:
        return OpNode("bot", (), ())
    out = Return(leaves[-1])
    for v in reversed(leaves[:-1]):
        out = OpNode("join", (), (Return(v), out))
    return out


@dataclass
class _Strategy:
    """The proof strategies a theory earns by having exactly a built-in's laws:
    a normalizer, and small validating models (carrier, operation tables)
    that refute equality soundly.  ``rules`` holds the congruence search's
    rewrite rules, compiled the first time the theory is searched."""

    normalize: Callable[[Theory, Tree], Tree] | None = None
    refuters: tuple = ()
    rules: tuple | None = None


def _single_state_twin(theory: Theory) -> Theory | None:
    if not theory.has_op("get"):
        return None
    try:
        return single_state_theory(theory.op("get").arity)
    except EmptyStateUniverse:
        return None


# Each entry builds the built-in a theory is compared with (the single-state
# one over the theory's own get arity), so a match depends on the laws
# alone, never on what the theory is called.
_BUILTIN_STRATEGIES = (
    (_single_state_twin, _Strategy(normalize=_normalize_single_state)),
    (lambda theory: semilattice_theory(), _Strategy(normalize=_normalize_semilattice)),
    (
        lambda theory: choice_theory(),
        _Strategy(
            refuters=(
                (BOOL, {"choose": lambda p, ab: ab[0] or ab[1]}),
                (BOOL, {"choose": lambda p, ab: ab[0] and ab[1]}),
            )
        ),
    ),
)


def _instance_pairs(theory: Theory) -> Iterator[frozenset]:
    """The theory's non-trivial equation instances as unordered tree pairs."""
    for eq in theory.eqs:
        for p in eq.param_universe.iter_elements():
            pair = frozenset((eq.lhs(p), eq.rhs(p)))
            if len(pair) == 2:
                yield pair


def _same_instances(theory: Theory, twin: Theory) -> bool:
    # the twin's instances are built only while they match, so a large
    # built-in costs little when the theory's own laws are small
    mine = frozenset(_instance_pairs(theory))
    theirs = set()
    for pair in _instance_pairs(twin):
        if pair not in mine:
            return False
        theirs.add(pair)
    return len(theirs) == len(mine)


# weakly keyed, so that a theory parsed for one command does not outlive it
_STRATEGIES = weakref.WeakKeyDictionary()


def _strategy(theory: Theory) -> _Strategy:
    """The strategy of the built-in whose operations and equation instances
    are exactly the theory's, or none; resolved once per theory object, into
    a record of the theory's own."""
    found = _STRATEGIES.get(theory)
    if found is None:
        found = _Strategy()
        ops = frozenset(theory.ops)
        for twin_of, strategy in _BUILTIN_STRATEGIES:
            twin = twin_of(theory)
            if (
                twin is not None
                and frozenset(twin.ops) == ops
                and _same_instances(theory, twin)
            ):
                found = replace(strategy)
                break
        _STRATEGIES[theory] = found
    return found


def has_normalizer(theory: Theory) -> bool:
    return not theory.eqs or _strategy(theory).normalize is not None


def normalize(theory: Theory, t: Tree) -> Tree:
    """A canonical representative of t's congruence class.

    Equation-free theories normalize to the tree itself (the congruence is
    equality there).  A theory whose operations and equation instances are
    exactly those of the built-in single-state theory over its own ``get``
    arity, or of the built-in semilattice, has that built-in's normalizer,
    whatever the theory is called.  Raises NoNormalizer for anything else.
    """
    if not theory.eqs:
        return t
    strategy = _strategy(theory).normalize
    if strategy is None:
        raise NoNormalizer(f"no normalization strategy for theory {theory.name!r}")
    return strategy(theory, t)


# ---------------------------------------------------------------------------
# Tree equality modulo a theory


class TreeEq(PyEnum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


def _refutes(theory: Theory, t1: Tree, t2: Tree) -> bool:
    gens = sorted(set(tree_leaves(t1)) | set(tree_leaves(t2)), key=sort_key)
    for carrier, ops in _strategy(theory).refuters:
        model = FiniteModel(theory, ops, carrier)
        for picks in itertools.product(carrier.elements(), repeat=len(gens)):
            valuation = dict(zip(gens, picks))
            if interpret_term(model, t1, valuation) != interpret_term(model, t2, valuation):
                return True
    return False


def _subtrees(t: Tree) -> Iterator[Tree]:
    """The subtrees of t in preorder."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is OpNode:
            stack.extend(reversed(node.kont))


def _match(pattern: Tree, gens: frozenset, t: Tree, sigma: dict) -> bool:
    """Match a concrete tree against an equation-side pattern whose leaves
    are context generators, extending sigma in place; nonlinear patterns
    require consistent bindings."""
    if type(pattern) is Return:
        if pattern.value in gens:
            bound = sigma.get(pattern.value)
            if bound is None:
                sigma[pattern.value] = t
                return True
            return bound == t
        return pattern == t
    if (
        type(t) is not OpNode
        or t.op != pattern.op
        or not same_value(t.param, pattern.param)
    ):
        return False
    for psub, tsub in zip(pattern.kont, t.kont):
        if not _match(psub, gens, tsub, sigma):
            return False
    return True


def _pattern_gens(pattern: Tree, gens: frozenset) -> set:
    return {v for v in tree_leaves(pattern) if v in gens}


def _builder(pattern: Tree, gens: frozenset) -> Callable[[Mapping], Tree]:
    """The function from a binding of the generators to that instance of
    the pattern."""
    if type(pattern) is Return:
        if pattern.value in gens:
            return operator.itemgetter(pattern.value)
        return lambda sigma: pattern
    op, param = pattern.op, pattern.param
    subs = tuple(_builder(sub, gens) for sub in pattern.kont)
    return lambda sigma: OpNode(op, param, tuple([build(sigma) for build in subs]))


@dataclass(frozen=True)
class _Rule:
    """One direction of a non-trivial equation instance: rewrite ``source``
    to the tree ``build`` makes from the source's generator bindings.
    ``fresh`` lists, in sort_key order, the generators the target has and
    the source lacks; the search fills them from its pool."""

    source: Tree
    gens: frozenset
    fresh: tuple
    build: Callable[[Mapping], Tree]


def _typed(v):
    # a key that tells apart values == would identify, such as 1 and True
    return tuple(map(_typed, v)) if type(v) is tuple else (type(v), v)


def _shape(t: Tree, gens: frozenset, names: dict) -> tuple:
    """t in preorder, with each generator replaced by its number in order of
    first appearance (``names`` carries the numbering across calls)."""
    out = []
    for node in _subtrees(t):
        if type(node) is OpNode:
            out.append((node.op, _typed(node.param), len(node.kont)))
        elif node.value in gens:
            out.append(names.setdefault(node.value, len(names)))
        else:
            out.append((_typed(node.value),))
    return tuple(out)


def _rules(theory: Theory) -> tuple:
    """The theory's rewrite rules in search order: equation, then
    parameter, then direction; compiled once per theory object.

    A rule that is an earlier one with its generators renamed (as the two
    directions of commutativity are) is left out: at every position it
    yields exactly the trees the earlier rule yielded just before, so
    dropping it changes neither the frontier nor any verdict."""
    strategy = _strategy(theory)
    if strategy.rules is None:
        rules, shapes = [], set()
        for eq in theory.eqs:
            gens = frozenset(eq.context.iter_elements())
            for p in eq.param_universe.iter_elements():
                lhs, rhs = eq.lhs(p), eq.rhs(p)
                if lhs == rhs:
                    continue
                for src, dst in ((lhs, rhs), (rhs, lhs)):
                    names: dict = {}
                    shape = (_shape(src, gens, names), _shape(dst, gens, names))
                    if shape in shapes:
                        continue
                    shapes.add(shape)
                    fresh = _pattern_gens(dst, gens) - _pattern_gens(src, gens)
                    fresh = tuple(sorted(fresh, key=sort_key))
                    rules.append(_Rule(src, gens, fresh, _builder(dst, gens)))
        strategy.rules = tuple(rules)
    return strategy.rules


def _neighbours(rules: tuple, t: Tree, pool: list) -> Iterator[Tree]:
    """Every tree one rule application away from t, by rule, then preorder
    position, then filler product.  A rule whose source has an operation at
    its head is only tried at positions with that operation and parameter."""
    nodes, parents, slots = [], [], []
    heads: dict = {}
    stack = [(t, -1, 0)]
    while stack:
        node, parent, slot = stack.pop()
        i = len(nodes)
        nodes.append(node)
        parents.append(parent)
        slots.append(slot)
        if type(node) is OpNode:
            heads.setdefault((node.op, node.param), []).append(i)
            kont = node.kont
            for k in range(len(kont) - 1, -1, -1):
                stack.append((kont[k], i, k))
    everywhere = range(len(nodes))

    for rule in rules:
        src, gens, fresh, build = rule.source, rule.gens, rule.fresh, rule.build
        where = everywhere if type(src) is Return else heads.get((src.op, src.param), ())
        for i in where:
            sigma: dict = {}
            if not _match(src, gens, nodes[i], sigma):
                continue
            if fresh:
                fills = (
                    build({**sigma, **dict(zip(fresh, fillers))})
                    for fillers in itertools.product(pool, repeat=len(fresh))
                )
            else:
                fills = (build(sigma),)
            for new in fills:
                # rebuild the spine from position i up to the root
                j = i
                while j:
                    parent = nodes[parents[j]]
                    kont, k = parent.kont, slots[j]
                    new = OpNode(parent.op, parent.param, kont[:k] + (new,) + kont[k + 1 :])
                    j = parents[j]
                yield new


def tree_equal_modulo(theory: Theory, t1: Tree, t2: Tree, budget: int | None = None) -> TreeEq:
    """Decide t1 ~ t2 modulo the theory's equations.

    With a normalizer (see ``normalize``) the answer is exact.  Otherwise
    equality is searched for by applying equation instances breadth-first
    from both trees until the frontiers meet or the budget runs out; the
    budget counts the trees taken off the two frontiers and expanded
    (``ALGEFF_BUDGET`` sets the default, see ``default_budget``);
    DISTINCT is only ever reported when a small validating model separates
    the trees, and only theories with exactly the built-in choice laws
    have such models.
    """
    if budget is None:
        budget = default_budget()
    if has_normalizer(theory):
        return TreeEq.EQUAL if normalize(theory, t1) == normalize(theory, t2) else TreeEq.DISTINCT
    if t1 == t2:
        return TreeEq.EQUAL
    if _refutes(theory, t1, t2):
        return TreeEq.DISTINCT

    rules = _rules(theory)
    pool = list(dict.fromkeys(itertools.chain(_subtrees(t1), _subtrees(t2))))

    seen = ({t1}, {t2})
    frontiers = (deque([t1]), deque([t2]))
    steps = 0
    while steps < budget and (frontiers[0] or frontiers[1]):
        for side in (0, 1):
            frontier = frontiers[side]
            if not frontier or steps >= budget:
                continue
            steps += 1
            t = frontier.popleft()
            for nt in _neighbours(rules, t, pool):
                if nt in seen[1 - side]:
                    return TreeEq.EQUAL
                if nt not in seen[side]:
                    seen[side].add(nt)
                    frontier.append(nt)
    return TreeEq.UNKNOWN
