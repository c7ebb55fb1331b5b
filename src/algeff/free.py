"""Free models as effect trees.

Computations returning values from X while performing a theory's operations
are represented by trees over X, understood up to the congruence the
equations generate.  This module provides the monad structure (eta, lift,
sequencing, generic operations) and decides tree equality from the free
model where it is known: a theory whose laws are exactly a built-in's gets
that built-in's normal form (the single-state get/put form, or the sorted
leaf set that choice and the semilattice share).  Any other theory is
searched, by a budgeted congruence search, after its own 2-element models
have had the chance to refute equality.  The search works out each
rewrite candidate's hash from its parts, and builds the candidate only to
expand it or to compare it with a tree of the same hash.  Trees of any
depth are folded or walked on explicit stacks; only the search's rewrite
rules recurse (``_compile``, which gives each rule's builder and hash
function, and ``_match``), as deep as an equation side.
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
from .models import interpret_term, table_model, validate_model
from .terms import OpNode, Return, Theory, Tree, _Node, _set, make_tree_op, same_value
from .terms import fold_tree, node_hash, sort_key, subtrees, tree_leaves
from .theories import choice_theory, semilattice_theory, single_state_theory
from .universe import BOOL

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
        _set(self, "theory", theory)
        _set(self, "tree", tree)


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
# State normal form


class StateNormalForm(_Node):
    """The canonical single-state computation get((); s. put(f(s); _. return g(s)))
    as its two tables f : S -> S and g : S -> V."""

    __slots__ = ("f", "g")
    f: dict
    g: dict

    def __init__(self, f: dict, g: dict):
        self._fill(f, g)


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


def _distinct_leaves(values: Iterator) -> list:
    """The values in sort_key order, each once.  Duplicates are found with
    same_value among values of equal key, never by hashing, so 1 and True
    stay apart and closures with environments need no hash."""
    decorated = sorted(((sort_key(v), v) for v in values), key=operator.itemgetter(0))
    out: list = []
    run_key, run = None, []
    for key, v in decorated:
        if key != run_key:
            run_key, run = key, []
        if not any(same_value(v, w) for w in run):
            run.append(v)
            out.append(v)
    return out


def _normalize_leaf_set(theory: Theory, t: Tree) -> Tree:
    # the free model of an associative, commutative, idempotent operation
    # is the finite non-empty subsets of the generators, and with a unit all
    # finite subsets: a tree's class is its set of leaves, rebuilt as a
    # right-nested chain of the binary operation, or the unit when empty
    join = bot = None
    for o in theory.ops:
        if o.arity.size() == 2:
            join = o.name
        else:
            bot = o.name
    leaves = _distinct_leaves(tree_leaves(t))
    if not leaves:
        return OpNode(bot, (), ())
    out = Return(leaves[-1])
    for v in reversed(leaves[:-1]):
        out = OpNode(join, (), (Return(v), out))
    return out


class _Strategy:
    """The proof strategies of one theory: a normalizer, which it earns by
    having exactly a built-in's laws, or else the 2-element models of its
    laws, which refute equality soundly (``refuters``, found the first time
    the theory is searched).  ``rules`` holds the congruence search's
    rewrite rules, compiled the first time the theory is searched.  A
    built-in's record also keeps its equation instances, to which parsed
    theories are compared."""

    __slots__ = ("normalize", "refuters", "rules", "instances")
    normalize: Callable[[Theory, Tree], Tree] | None
    refuters: tuple | None
    rules: tuple | None
    instances: frozenset | None

    def __init__(self):
        self.normalize = self.refuters = self.rules = self.instances = None


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
    (_single_state_twin, _normalize_single_state),
    (lambda theory: semilattice_theory(), _normalize_leaf_set),
    (lambda theory: choice_theory(), _normalize_leaf_set),
)


def _instance_pairs(theory: Theory) -> Iterator[frozenset]:
    """The theory's non-trivial equation instances as unordered tree pairs."""
    for eq in theory.eqs:
        for p in eq.param_universe.iter_elements():
            pair = frozenset((eq.lhs(p), eq.rhs(p)))
            if len(pair) == 2:
                yield pair


def _builtin_instances(twin: Theory) -> frozenset:
    # built-ins are memoized, so their instances are built once and kept
    record = _strategy(twin)
    if record.instances is None:
        record.instances = frozenset(_instance_pairs(twin))
    return record.instances


# weakly keyed, so that a theory parsed for one command does not outlive it
_STRATEGIES = weakref.WeakKeyDictionary()


def _strategy(theory: Theory) -> _Strategy:
    """The theory's own strategy record, resolved once per theory object:
    the normalizer of the built-in whose operations and equation instances
    are exactly the theory's, or none."""
    found = _STRATEGIES.get(theory)
    if found is None:
        found = _Strategy()
        ops = frozenset(theory.ops)
        mine = None
        for twin_of, normalizer in _BUILTIN_STRATEGIES:
            twin = twin_of(theory)
            if twin is None or frozenset(twin.ops) != ops:
                continue
            if twin is not theory:
                if mine is None:
                    mine = frozenset(_instance_pairs(theory))
                if mine != _builtin_instances(twin):
                    continue
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
    tables, in the style of McCune's Mace4; none past the cap."""
    if not _few_tables(theory):
        return ()
    keys = [
        (o.name, p, args)
        for o in theory.ops
        for p in o.param.iter_elements()
        for args in itertools.product(BOOL.elements(), repeat=o.arity.size())
    ]
    found = []
    for values in itertools.product(BOOL.elements(), repeat=len(keys)):
        model = table_model(theory, BOOL, dict(zip(keys, values)))
        if validate_model(model) is None:
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
    return _strategy(theory).normalize is _normalize_leaf_set


def normalize(theory: Theory, t: Tree) -> Tree:
    """A canonical representative of t's congruence class.

    Equation-free theories normalize to the tree itself (the congruence is
    equality there).  A theory whose operations and equation instances are
    exactly those of the built-in single-state theory over its own ``get``
    arity, of the built-in semilattice, or of the built-in choice theory,
    has that built-in's normalizer, whatever the theory is called.  Raises
    NoNormalizer for anything else.
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


# the most valuations of the leaves that _refutes interprets a tree at in one fold
_BLOCK = 4096


def _refutes(theory: Theory, t1: Tree, t2: Tree) -> bool:
    """Whether a 2-element model of the theory tells t1 and t2 apart under
    some valuation of their leaves; such a model satisfies every law, so
    the trees are not congruent.

    Each tree is interpreted once per model and block of up to _BLOCK
    valuations, in ``itertools.product`` order: in a power of the model,
    where leaf i is the tuple of its values in the block's valuations and
    each operation applies its table pointwise."""
    models = _refuters(theory)
    if not models:
        return False
    gens = _distinct_leaves(itertools.chain(tree_leaves(t1), tree_leaves(t2)))
    t1, t2 = _by_index(t1, gens), _by_index(t2, gens)
    for t in (t1, t2):  # the tree's first defect, such as an undeclared operation
        interpret_term(models[0], t, dict.fromkeys(range(len(gens)), False))
    valuations = itertools.product(BOOL.elements(), repeat=len(gens))
    while block := tuple(itertools.islice(valuations, _BLOCK)):
        width = len(block)
        columns = dict(enumerate(zip(*block))).__getitem__  # leaf i: its values in the block
        for model in models:
            ops = model.ops

            def node(op, param, args):
                points = zip(*args) if args else itertools.repeat((), width)
                return tuple(map(ops[op], itertools.repeat(param), points))

            if fold_tree(t1, columns, node) != fold_tree(t2, columns, node):
                return True
    return False


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
    by ``node_hash``, without building it."""
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

    With a normalizer (see ``normalize``) the answer is exact.  Otherwise
    equality is searched for by applying equation instances breadth-first
    from both trees until the frontiers meet or the budget runs out; the
    budget counts the trees taken off the two frontiers and expanded
    (``ALGEFF_BUDGET`` sets the default, see ``default_budget``).  Each
    rewrite candidate is hashed from its parts (the rule's target from its
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
    if budget is None:
        budget = default_budget()
    if has_normalizer(theory):
        return TreeEq.EQUAL if normalize(theory, t1) == normalize(theory, t2) else TreeEq.DISTINCT
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
