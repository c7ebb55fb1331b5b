"""Free models as effect trees.

Computations returning values from X while performing a theory's operations
are represented by trees over X, understood up to the congruence the
equations generate.  This module provides the monad structure (eta, lift,
sequencing, generic operations) and decides tree equality from the free
model where it is known: a theory whose laws are a built-in's, up to a
renaming of operations, gets that built-in's normalizer (``_Normalizer``),
which evaluates a tree, or a head-normal computation (``interp.evaluate``),
into its value in the free model: for single state, its run from every
state; for choice and the semilattice, the set of its leaves, hashed when
they are plain values, else a tuple of its distinct leaves (``_leaf_set``).
Two trees are equal when their values are, and ``normalize`` builds, in the
theory's own names, the normal-form tree of a value (the get/put form, or
the chain of leaves in sort_key order, the only place a hashed leaf set is
sorted), and no other tree.  Laws are compared as schemes: two theories
whose renamed equation families have the same parameter universes and side
shapes (``terms._Instances.shape``) have the same instances, so no instance
is built.  Only a theory whose sides have no shape, or whose shapes differ
from the built-in's, has its instances built and compared.  Any other
theory is searched, by a budgeted congruence search, after its own
2-element models have had the chance to refute equality.  The search
works out each rewrite candidate's hash from its parts, and builds the
candidate only to expand it or to compare it with a tree of the same
hash.  Trees of any depth are folded or walked on explicit stacks; only
the search's rewrite rules recurse (``_compile``, which gives each rule's
builder and hash function, and ``_match``), as deep as an equation side.
"""

from __future__ import annotations

import itertools
import operator
import os
import weakref
from collections import deque
from enum import Enum as PyEnum
from typing import Callable, Iterator, Mapping

from .errors import EmptyStateUniverse, NoNormalizer, UnboundGenerator, UnknownOperation
from .models import FiniteModel, _from_table, _Reader
from .terms import Equation, OpNode, Return, Theory, Tree, _Node, make_tree_op, same_value
from .terms import fold_tree, node_hash, sort_key, subtrees, tree_leaves
from .theories import _renamed_side, choice_theory, semilattice_theory, single_state_theory
from .universe import BOOL, EMPTY, UNIT

DEFAULT_BUDGET = 10000


def default_budget() -> int:
    """How many trees the congruence search may expand; ALGEFF_BUDGET
    overrides the default, unless it is not a whole number or negative."""
    try:
        budget = int(os.environ.get("ALGEFF_BUDGET", ""))
    except ValueError:
        return DEFAULT_BUDGET
    return budget if budget >= 0 else DEFAULT_BUDGET


class FreeElement(_Node):
    """An element of the free model: a representative tree over a theory.

    Structural equality compares representatives; equality modulo the
    theory is tree_equal_modulo's job.
    """

    __slots__ = ("theory", "tree")
    theory: Theory
    tree: Tree

    def __init__(self, theory: Theory, tree: Tree):
        self._fill(theory, tree)


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

    def lifted(elem: FreeElement) -> FreeElement:
        return FreeElement(elem.theory, fold_tree(elem.tree, lambda x: phi_fn(x).tree, OpNode))

    return lifted


def sequence(t: FreeElement, h) -> FreeElement:
    """do x <- t in h(x): sequencing is lifting applied to the tree."""
    return lift(h)(t)


# ---------------------------------------------------------------------------
# Normal forms by evaluation


_END = object()


def materialize(head) -> Tree:
    """The whole effect tree of a tree or a head-normal computation (the
    ``Return`` or ``interp.Suspended`` that ``interp.evaluate`` gives),
    built by resuming every branch in arity order; a tree is itself.
    Iterative, so deep trees need no recursion."""
    open_nodes = []  # (suspended operation, arity elements left, subtrees so far)
    while True:
        if type(head) is Return or type(head) is OpNode:
            tree = head
        else:
            open_nodes.append((head, iter(head.arity.iter_elements()), []))
            tree = None
        while open_nodes:
            node, elements, subtrees = open_nodes[-1]
            if tree is not None:
                subtrees.append(tree)
            a = next(elements, _END)
            if a is not _END:
                head = node.resume(a)
                break
            open_nodes.pop()
            tree = OpNode(node.op, node.param, tuple(subtrees))
        else:
            return tree


class StateNormalForm(_Node):
    """The canonical single-state computation get((); s. put(f(s); _. return g(s)))
    as its two tables f : S -> S and g : S -> V."""

    __slots__ = ("f", "g")
    f: dict
    g: dict

    def __init__(self, f: dict, g: dict):
        self._fill(f, g)


def _run_from(states, get: str, put: str, t, s) -> tuple:
    """(final state, leaf value) of t, a tree or a head-normal computation,
    run from state s: a get selects the branch at the state, and a put sets
    the state.  A computation is resumed along that one branch only."""
    while type(t) is not Return:
        if t.op == get:
            t = t.kont[states.index_of(s)] if type(t) is OpNode else t.resume(s)
        elif t.op == put:
            s = t.param
            t = t.kont[0] if type(t) is OpNode else t.resume(())
        else:
            raise UnknownOperation(f"not a single-state operation: {t.op!r}")
    return s, t.value


def _runs(theory: Theory, names: tuple, t) -> tuple:
    """t's value in the free model of single state, get and put called
    ``names``: its run from each state, as (final state, leaf value) pairs."""
    get, put = names
    states = theory.op(get).arity
    return tuple([_run_from(states, get, put, t, s) for s in states.iter_elements()])


def _runs_tree(theory: Theory, names: tuple, runs: tuple) -> Tree:
    """The normal-form tree of runs from every state: get the state, put
    the final state, return the leaf."""
    return OpNode(names[0], (), tuple([OpNode(names[1], s, (Return(v),)) for s, v in runs]))


def state_normal_form(theory: Theory, t) -> StateNormalForm:
    """The unique (f, g) with t congruent to get((); s. put(f(s); _. return g(s))),
    computed denotationally: (f(s), g(s)) is the run of t from s, for a
    theory with single state's laws up to a renaming of operations."""
    strategy = _strategy(theory)
    if strategy.normalize is not _RUNS:
        if {(UNIT, EMPTY), (EMPTY, UNIT)} <= {(o.param, o.arity) for o in theory.ops}:
            raise EmptyStateUniverse("single-state normal forms need a nonempty state universe")
        raise NoNormalizer(f"theory {theory.name!r} does not have single state's laws")
    finals, values = zip(*_runs(theory, strategy.names, t))
    states = theory.op(strategy.names[0]).arity.elements()
    return StateNormalForm(dict(zip(states, finals)), dict(zip(states, values)))


def _type_key(v) -> tuple:
    """The names of v's type and, through tuples, of its parts' types."""
    return (type(v).__module__, type(v).__qualname__, *(map(_type_key, v) if type(v) is tuple else ()))


def _distinct_leaves(values: Iterator) -> list:
    """The values in sort_key order, ties by their types (``_type_key``),
    each once.  Duplicates are found with same_value among values of equal
    key, never by hashing, so 1 and True stay apart and closures with
    environments need no hash.  A plain value (``_plain``) is the same as
    another of equal key exactly when that one is plain too, so it is kept
    only as the first plain value of its key, with no same_value scan."""
    decorated = sorted(((sort_key(v), _type_key(v), v) for v in values), key=operator.itemgetter(0, 1))
    out: list = []
    run_key, run, plain_seen = None, [], False
    for key, _, v in decorated:
        if key != run_key:
            run_key, run, plain_seen = key, [], False
        if type(v) in _PLAIN or type(v) is tuple and _plain(v):
            if plain_seen:
                continue
            plain_seen = True
        elif any(same_value(v, w) for w in run):
            continue
        run.append(v)
        out.append(v)
    return out


_PLAIN = frozenset((bool, int, str))


def _plain(v) -> bool:
    """Whether ``v`` is exactly a bool, an int or a str, or a tuple of plain
    values: for such values, equal sort_keys mean the same value."""
    return type(v) in _PLAIN or type(v) is tuple and all(map(_plain, v))


def _leaf_set(theory: Theory, names: tuple, t) -> frozenset | tuple:
    """t's value in the free model of an associative, commutative,
    idempotent operation (with or without a unit): the set of its leaves.
    When every leaf is exactly a bool, an int or a str, and not both bools
    and ints (``1 == True``), the set is hashed: the frozenset of the
    leaves and their types.  A type object is never ``==`` to such a leaf,
    so two such sets are equal exactly when their leaves are the same
    values.  Any other set is the tuple of its distinct leaves, in sort_key
    order, found by same_value (``_distinct_leaves``), so leaves need no
    hash.  A tuple is never ``same_value`` to a frozenset, and which kind a
    value is depends on its leaves alone.  A tree is walked in any order;
    a computation's branches are resumed one after another, in
    materialize's order, and no node is built."""
    leaves, stack = [], [t]
    while stack:
        node = stack.pop()
        if type(node) is Return:
            leaves.append(node.value)
        elif type(node) is OpNode:  # a tree, whose leaves come in any order
            stack += node.kont
        elif type(node) is map:  # a computation's branches still to be resumed
            branch = next(node, _END)
            if branch is not _END:
                stack += (node, branch)
        else:
            stack.append(map(node.resume, node.arity.iter_elements()))
    types = set(map(type, leaves))
    if types <= _PLAIN and not (bool in types and int in types):
        types.update(leaves)
        return frozenset(types)
    if type(t) is Return or type(t) is OpNode:  # a tree's leaves again, in preorder
        leaves = tree_leaves(t)
    return tuple(_distinct_leaves(leaves))


def _leaf_set_tree(theory: Theory, names: tuple, leaves: frozenset | tuple) -> Tree:
    """The normal-form tree of a leaf set: a right-nested chain of the
    binary operation over its leaves in sort_key order, or the unit when
    there is no leaf.  A hashed set's leaves are sorted here, and only
    here.  ``names`` end with the binary operation's, after the unit's."""
    *bot, join = names
    if type(leaves) is frozenset:
        leaves = sorted([v for v in leaves if type(v) is not type], key=sort_key)
    if not leaves:
        return OpNode(bot[0], (), ())
    out = Return(leaves[-1])
    for v in reversed(leaves[:-1]):
        out = OpNode(join, (), (Return(v), out))
    return out


class _Normalizer(_Node):
    """A normal form read off the free model: ``value(theory, names, t)``
    evaluates a tree or a head-normal computation into the free model's
    values, which compare by ``same_value`` (tuples, or a leaf set's
    frozenset), and ``tree(theory, names, value)`` is the normal-form tree
    of a value; ``names`` are the theory's (``_Strategy``)."""

    __slots__ = ("value", "tree")
    value: Callable[[Theory, tuple, object], tuple | frozenset]
    tree: Callable[[Theory, tuple, tuple | frozenset], Tree]

    def __init__(self, value, tree):
        self._fill(value, tree)


_RUNS = _Normalizer(_runs, _runs_tree)
_LEAF_SETS = _Normalizer(_leaf_set, _leaf_set_tree)


class _Strategy:
    """The proof strategies of one theory: a normalizer (``_Normalizer``),
    which it earns by having exactly a built-in's laws up to a renaming,
    with ``names``, its own for the built-in's operations, in their order,
    or else the 2-element models of its laws, which refute equality soundly
    (``refuters``, found the first time the theory is searched).  ``rules``
    holds the congruence search's rewrite rules, compiled the first time
    the theory is searched.  A built-in's record also keeps its equation
    families and, once a theory whose shapes differ is compared with it,
    its equation instances."""

    __slots__ = ("normalize", "names", "refuters", "rules", "families", "instances")
    normalize: _Normalizer | None
    names: tuple | None
    refuters: tuple | None
    rules: tuple | None
    families: frozenset | None
    instances: frozenset | None

    def __init__(self):
        self.normalize = self.names = self.refuters = self.rules = self.families = self.instances = None


def _single_state_twin(theory: Theory) -> Theory | None:
    """Single state over S, when the theory has ``unit ~> S`` and ``S ~> unit``, S nonempty."""
    sig = {(o.param, o.arity) for o in theory.ops}
    s = next((o.arity for o in theory.ops if o.param == UNIT and (o.arity, UNIT) in sig), EMPTY)
    return None if s.is_empty() else single_state_theory(s)


# Each entry builds the built-in a theory is compared with (the single-state
# one over the theory's own state universe), so a match depends on the laws
# alone, never on what the theory or its operations are called.
_BUILTIN_STRATEGIES = (
    (_single_state_twin, _RUNS),
    (lambda theory: semilattice_theory(), _LEAF_SETS),
    (lambda theory: choice_theory(), _LEAF_SETS),
)


def _renamings(theory: Theory, twin: Theory) -> Iterator[tuple]:
    """The theory's operation names in the order of the twin's operations,
    for each bijection of the two signatures that keeps every operation's
    universes: at most two, since a twin has at most two operations."""
    if twin is not None and len(theory.ops) == len(twin.ops):
        for ops in itertools.permutations(theory.ops):
            if all(o.param == t.param and o.arity == t.arity for o, t in zip(ops, twin.ops)):
                yield tuple(o.name for o in ops)


def _families(eqs) -> frozenset | None:
    """The equation families as (parameter universe, unordered pair of side
    shapes), leaving out a family whose sides have one shape, since its
    instances are trivial; None when a side has no shape."""
    families = set()
    for eq in eqs:
        lhs, rhs = getattr(eq.lhs, "shape", None), getattr(eq.rhs, "shape", None)
        if lhs is None or rhs is None:
            return None
        if lhs != rhs:
            families.add((eq.param_universe, frozenset((lhs, rhs))))
    return frozenset(families)


def _instance_pairs(eqs) -> Iterator[frozenset]:
    """The equations' non-trivial instances as unordered tree pairs."""
    for eq in eqs:
        for p in eq.param_universe.iter_elements():
            pair = frozenset((eq.lhs(p), eq.rhs(p)))
            if len(pair) == 2:
                yield pair


def _same_laws(theory: Theory, twin: Theory, names: tuple) -> bool:
    """Whether the theory's non-trivial equation instances, its operations
    ``names`` renamed to the built-in ``twin``'s (``_renamed_side``), are
    exactly the twin's: at once when their families are the same, else by
    building both instance sets.  Built-ins are memoized, so the twin's
    families and instances are worked out once and kept."""
    record = _strategy(twin)
    if record.families is None:
        record.families = _families(twin.eqs)
    eqs = theory.eqs
    if names != twin.op_names():
        renaming = dict(zip(names, twin.op_names()))
        eqs = [Equation(eq.name, eq.param_universe, eq.context, _renamed_side(eq.lhs, renaming),
                        _renamed_side(eq.rhs, renaming)) for eq in eqs]
    mine = _families(eqs)
    if mine is not None and mine == record.families:
        return True
    if record.instances is None:
        record.instances = frozenset(_instance_pairs(twin.eqs))
    return frozenset(_instance_pairs(eqs)) == record.instances


# weakly keyed, so that a theory parsed for one command does not outlive it
_STRATEGIES = weakref.WeakKeyDictionary()


def _strategy(theory: Theory) -> _Strategy:
    """The theory's own strategy record, resolved once per theory object:
    the normalizer of the built-in whose equation instances are exactly the
    theory's under the first renaming that makes them so (``_renamings``),
    or none; a theory without laws is compared with none."""
    found = _STRATEGIES.get(theory)
    if found is None:
        found = _Strategy()
        for twin_of, normalizer in _BUILTIN_STRATEGIES if theory.eqs else ():
            twin = twin_of(theory)
            found.names = next((names for names in _renamings(theory, twin)
                                if twin is theory or _same_laws(theory, twin, names)), None)
            if found.names is not None:
                found.normalize = normalizer
                break
        _STRATEGIES[theory] = found
    return found


# A theory with no normalizer looks for its 2-element models among at most
# this many tuples of operation tables; op : P ~> A has |P| * 2^|A| entries.
_MAX_TABLE_TUPLES = 4096


def _few_tables(theory: Theory) -> bool:
    """Whether the operations' tables over BOOL make at most
    _MAX_TABLE_TUPLES tuples; worked out from the universes' sizes, before
    any entry is listed."""
    most = _MAX_TABLE_TUPLES.bit_length() - 1  # entries in all the tables
    entries = 0
    for o in theory.ops:
        params = o.param.size()
        if params:
            arity = o.arity.size()
            if arity > most:
                return False
            entries += params << arity
            if entries > most:
                return False
    return True


def _two_element_models(theory: Theory) -> tuple:
    """Every model of the theory on BOOL, by trying each tuple of operation
    tables, in the style of McCune's Mace4; none past the cap.  Each side
    of each equation instance is built once, and every candidate reads
    those trees in ``validate_model``'s order (``_Reader``); a candidate's
    tables are total by construction, so their domains are not walked."""
    if not _few_tables(theory):
        return ()
    keys = [
        (o.name, p, args)
        for o in theory.ops
        for p in o.param.iter_elements()
        for args in itertools.product(BOOL.elements(), repeat=o.arity.size())
    ]
    instances = [
        (eq.lhs(p), eq.rhs(p), eq.context.elements())
        for eq in theory.eqs
        for p in eq.param_universe.iter_elements()
    ]
    found = []
    for values in itertools.product(BOOL.elements(), repeat=len(keys)):
        table = dict(zip(keys, values))
        ops = {o.name: _from_table(table, o.name) for o in theory.ops}
        model = FiniteModel(theory, ops, BOOL)
        reader = _Reader(model)
        if all(reader.first_difference(lhs, rhs, gens) is None for lhs, rhs, gens in instances):
            found.append(model)
    return tuple(found)


def _refuters(theory: Theory) -> tuple:
    strategy = _strategy(theory)
    if strategy.refuters is None:
        strategy.refuters = _two_element_models(theory)
    return strategy.refuters


def has_normalizer(theory: Theory) -> bool:
    return not theory.eqs or _strategy(theory).normalize is not None


def normalizes_to_leaf_sets(theory: Theory) -> bool:
    """Whether the theory's normal form is the set of a tree's leaves."""
    return _strategy(theory).normalize is _LEAF_SETS


def normalize(theory: Theory, t) -> Tree:
    """A canonical representative of the congruence class of t, a tree or a
    head-normal computation (``interp.evaluate``): the normal-form tree of
    its value in the free model.

    Equation-free theories normalize to the whole tree (the congruence is
    equality there), built by ``materialize``.  A theory whose equation
    instances are exactly those of the built-in single-state theory over
    its own state universe, of the built-in semilattice, or of the built-in
    choice theory, up to a renaming of operations that keeps their
    universes, has that built-in's normalizer, in its own names, whatever
    it and its operations are called; its instances are compared by their
    families' shapes where it has them.  Single state reads t's run from every state,
    so a computation is resumed only along the branches some run takes;
    the leaf set resumes every branch.  Neither builds a tree but the one
    returned.  Raises NoNormalizer for anything else, once every branch of
    a computation has been evaluated, so a runtime error comes first.
    """
    if not theory.eqs:
        return materialize(t)
    strategy = _strategy(theory)
    normalizer, names = strategy.normalize, strategy.names
    if normalizer is None:
        materialize(t)
        raise NoNormalizer(f"no normalization strategy for theory {theory.name!r}")
    return normalizer.tree(theory, names, normalizer.value(theory, names, t))


# ---------------------------------------------------------------------------
# Tree equality modulo a theory


class TreeEq(PyEnum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


def _refutes(theory: Theory, t1: Tree, t2: Tree) -> bool:
    """Whether a 2-element model of the theory tells t1 and t2 apart under
    some valuation of their leaves; such a model satisfies every law, so
    the trees are not congruent.  Each model reads both trees at blocks of
    valuations at once, as model validation does (``models._Reader``), and
    the first model raises a tree's first defect, such as an undeclared
    operation."""
    models = _refuters(theory)
    if not models:
        return False
    gens = _distinct_leaves(itertools.chain(tree_leaves(t1), tree_leaves(t2)))
    t1, t2 = _by_index(t1, gens), _by_index(t2, gens)
    indices = range(len(gens))
    return any(_Reader(model).first_difference(t1, t2, indices) is not None for model in models)


def _by_index(t: Tree, gens: list) -> Tree:
    """t with each leaf replaced by its position in gens."""
    index = lambda x: Return(next(i for i, g in enumerate(gens) if same_value(g, x)))
    return fold_tree(t, index, OpNode)


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


def _compile(pattern: Tree, gens: frozenset, fresh: tuple, part: int) -> Callable:
    """The pattern as a function of a binding of its generators: a dict for
    those of the rule's source and a tuple for ``fresh``, each generator
    bound to a (hash, tree) pair.  With part 1 the function builds that
    instance of the pattern; with part 0 it works out the instance's hash,
    by ``node_hash``, without building it.  A node with one or two subtrees
    calls them written out: the search runs these functions for every
    candidate, and before Python 3.12 a list comprehension runs in a frame
    of its own, with which a search round took about a third longer."""
    if type(pattern) is Return:
        v = pattern.value
        if v in fresh:
            k = fresh.index(v)
            return lambda bound, fillers: fillers[k][part]
        if v in gens:
            return lambda bound, fillers: bound[v][part]
        leaf = pattern if part else hash(pattern)
        return lambda bound, fillers: leaf
    op, param = pattern.op, pattern.param
    node = OpNode if part else node_hash
    subs = tuple(_compile(sub, gens, fresh, part) for sub in pattern.kont)
    if len(subs) == 1:
        (a,) = subs
        return lambda bound, fillers: node(op, param, (a(bound, fillers),))
    if len(subs) == 2:
        a, b = subs
        return lambda bound, fillers: node(op, param, (a(bound, fillers), b(bound, fillers)))
    return lambda bound, fillers: node(op, param, tuple([sub(bound, fillers) for sub in subs]))


class _Rule(_Node):
    """One direction of a non-trivial equation instance: rewrite ``source``
    to the target that ``build`` makes from a binding of the generators
    (see ``_compile``), and whose hash ``hash_of`` works out from the same
    binding.  ``fresh`` lists, in sort_key order, the generators the target
    has and the source lacks; the search fills them from its pool."""

    __slots__ = ("source", "gens", "fresh", "build", "hash_of")
    source: Tree
    gens: frozenset
    fresh: tuple
    build: Callable[[dict, tuple], Tree]
    hash_of: Callable[[dict, tuple], int]

    def __init__(self, source: Tree, gens: frozenset, fresh: tuple, build, hash_of):
        self._fill(source, gens, fresh, build, hash_of)


def _rules(theory: Theory) -> tuple:
    """The theory's rewrite rules in search order: equation, then
    parameter, then direction, both directions of every non-trivial
    instance; compiled once per theory object."""
    strategy = _strategy(theory)
    if strategy.rules is None:
        rules = []
        for eq in theory.eqs:
            gens = frozenset(eq.context.iter_elements())
            for p in eq.param_universe.iter_elements():
                lhs, rhs = eq.lhs(p), eq.rhs(p)
                if lhs == rhs:
                    continue
                for src, dst in ((lhs, rhs), (rhs, lhs)):
                    fresh = _pattern_gens(dst, gens) - _pattern_gens(src, gens)
                    fresh = tuple(sorted(fresh, key=sort_key))
                    build, hash_of = (_compile(dst, gens, fresh, part) for part in (1, 0))
                    rules.append(_Rule(src, gens, fresh, build, hash_of))
        strategy.rules = tuple(rules)
    return strategy.rules


# One application of a rule with fresh generators lists
# len(pool) ** len(fresh) fillers; past this many the search gives up.
_MAX_FILLERS = 65536


class _TooManyFillers(Exception):
    """A rule matched whose fillers number more than _MAX_FILLERS."""


def _neighbours(rules: tuple, t: Tree, pool: list, filler_counts: tuple) -> Iterator[tuple]:
    """Every tree one rule application away from t, by rule, then preorder
    position, then filler product, as its hash and a recipe for ``_build``.
    The hash is worked out from the target's generators' hashes and the
    cached hashes of the spine's other subtrees, so no tree is built here.
    A rule whose source has an operation at its head is only tried at
    positions with that operation and parameter.  ``pool`` holds the
    fillers as (hash, tree) pairs, and ``filler_counts`` each rule's number
    of filler tuples; a match of a rule with more than _MAX_FILLERS raises
    _TooManyFillers before any is listed."""
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
    kid_hashes = [tuple(map(hash, n.kont)) if type(n) is OpNode else () for n in nodes]

    for rule, count in zip(rules, filler_counts):
        src, gens, fresh = rule.source, rule.gens, rule.fresh
        build, hash_of = rule.build, rule.hash_of
        where = everywhere if type(src) is Return else heads.get((src.op, src.param), ())
        for i in where:
            sigma: dict = {}
            if not _match(src, gens, nodes[i], sigma):
                continue
            if fresh:
                if count > _MAX_FILLERS:
                    raise _TooManyFillers
                fills = itertools.product(pool, repeat=len(fresh))
            else:
                fills = ((),)
            bound = {g: (hash(sub), sub) for g, sub in sigma.items()}
            # the path from position i up to the root, each ancestor with
            # the hashes of its other subtrees
            spine = []
            j = i
            while j:
                p, k = parents[j], slots[j]
                spine.append((nodes[p], k, kid_hashes[p][:k], kid_hashes[p][k + 1 :]))
                j = p
            for fillers in fills:
                h = hash_of(bound, fillers)
                for parent, _, before, after in spine:
                    h = node_hash(parent.op, parent.param, before + (h,) + after)
                yield h, (spine, build, bound, fillers)


def _build(recipe: tuple) -> Tree:
    """The tree a recipe from ``_neighbours`` stands for: the rule's target,
    with the spine rebuilt up to the root."""
    spine, build, bound, fillers = recipe
    new = build(bound, fillers)
    for parent, k, _, _ in spine:
        kont = parent.kont
        new = OpNode(parent.op, parent.param, kont[:k] + (new,) + kont[k + 1 :])
    return new


def _tree(entry) -> Tree:
    """A frontier entry as a tree: a built tree is itself, a recipe is built."""
    return _build(entry) if type(entry) is tuple else entry


def tree_equal_modulo(theory: Theory, t1: Tree, t2: Tree, budget: int | None = None) -> TreeEq:
    """Decide t1 ~ t2 modulo the theory's equations.

    An equation-free theory compares the trees.  With a normalizer (see
    ``normalize``) the answer is exact, and read from the two trees'
    values in the free model (runs from every state, or leaf sets), both
    worked out in full and compared by ``same_value``; no normal-form tree
    is built.  Otherwise equality is searched for by applying equation
    instances breadth-first from both trees until the frontiers meet or
    the budget runs out; the budget counts the trees taken off the two
    frontiers and expanded (``ALGEFF_BUDGET`` sets the default, see
    ``default_budget``, read only when the search starts).  Each rewrite
    candidate is hashed from its parts (the rule's target from its
    generators' hashes, each ancestor from its other subtrees' cached
    hashes) and built only when that hash is already on one side, where
    ``==`` decides, so ``Return(1)`` and ``Return(True)`` stay apart, or
    when it is taken off a frontier.  The work of one expansion is bounded
    too: a rule whose target has generators its source lacks fills them
    from the pool of the two trees' subtrees, and a match of a rule with
    more than 65536 such fillers ends the search UNKNOWN before any is
    listed.  Every candidate's leaves come from the two trees or the laws,
    so a tree with a leaf that cannot be hashed ends the search UNKNOWN
    before it starts.
    DISTINCT is only ever reported there when a 2-element model of the
    theory's laws separates the trees.  Such models are looked for among
    all tuples of operation tables over ``BOOL``, unless there are more
    than 4096 tuples, as for ``state(fin 2, fin 2)``.
    """
    if not theory.eqs:
        return TreeEq.EQUAL if t1 == t2 else TreeEq.DISTINCT
    strategy = _strategy(theory)
    normalizer, names = strategy.normalize, strategy.names
    if normalizer is not None:
        # both values in full, so a defect in either tree is raised
        v1, v2 = normalizer.value(theory, names, t1), normalizer.value(theory, names, t2)
        return TreeEq.EQUAL if same_value(v1, v2) else TreeEq.DISTINCT
    if budget is None:
        budget = default_budget()
    if t1 == t2:
        return TreeEq.EQUAL
    if _refutes(theory, t1, t2):
        return TreeEq.DISTINCT

    rules = _rules(theory)
    try:
        pool = [(hash(sub), sub) for sub in dict.fromkeys(itertools.chain(subtrees(t1), subtrees(t2)))]
    except TypeError:  # a leaf that cannot be hashed, such as a closure over a dict
        return TreeEq.UNKNOWN
    filler_counts = tuple(len(pool) ** len(rule.fresh) for rule in rules)

    # each side's trees by hash, built or as recipes; a candidate is built
    # only when its hash is already there, and == decides
    seen = ({hash(t1): [t1]}, {hash(t2): [t2]})
    frontiers = (deque([t1]), deque([t2]))
    steps = 0
    try:
        while steps < budget and (frontiers[0] or frontiers[1]):
            for side in (0, 1):
                frontier = frontiers[side]
                if not frontier or steps >= budget:
                    continue
                steps += 1
                mine, theirs = seen[side], seen[1 - side]
                for h, entry in _neighbours(rules, _tree(frontier.popleft()), pool, filler_counts):
                    if h in theirs:
                        entry = _build(entry)
                        if any(entry == _tree(other) for other in theirs[h]):
                            return TreeEq.EQUAL
                    bucket = mine.get(h)
                    if bucket is None:
                        mine[h] = [entry]
                    else:
                        entry = _tree(entry)
                        if any(entry == _tree(other) for other in bucket):
                            continue
                        bucket.append(entry)
                    frontier.append(entry)
    except _TooManyFillers:
        pass
    return TreeEq.UNKNOWN
