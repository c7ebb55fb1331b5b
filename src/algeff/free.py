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
import os
import weakref
from collections import deque
from dataclasses import dataclass
from enum import Enum as PyEnum
from typing import Callable, Iterator, Mapping

from .errors import EmptyStateUniverse, NoNormalizer, UnboundGenerator, UnknownOperation
from .models import FiniteModel, interpret_term
from .terms import OpNode, Return, Theory, Tree, make_tree_op, sort_key, tree_leaves
from .theories import choice_theory, semilattice_theory, single_state_theory
from .universe import BOOL

DEFAULT_BUDGET = 10000


def default_budget() -> int:
    """Congruence-search step bound; ALGEFF_BUDGET overrides the default."""
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


@dataclass(frozen=True)
class _Strategy:
    """The proof strategies a theory earns by having exactly a built-in's laws:
    a normalizer, and small validating models (carrier, operation tables)
    that refute equality soundly."""

    normalize: Callable[[Theory, Tree], Tree] | None = None
    refuters: tuple = ()


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
    are exactly the theory's, or none; resolved once per theory object."""
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
                found = strategy
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
    yield t
    if isinstance(t, OpNode):
        for sub in t.kont:
            yield from _subtrees(sub)


def _match(pattern: Tree, gens: frozenset, t: Tree, sigma: dict) -> bool:
    """Match a concrete tree against an equation-side pattern whose leaves
    are context generators, extending sigma in place; nonlinear patterns
    require consistent bindings."""
    if isinstance(pattern, Return):
        if pattern.value in gens:
            bound = sigma.get(pattern.value)
            if bound is None:
                sigma[pattern.value] = t
                return True
            return bound == t
        return pattern == t
    if not isinstance(t, OpNode) or t.op != pattern.op or t.param != pattern.param:
        return False
    return all(
        _match(psub, gens, tsub, sigma) for psub, tsub in zip(pattern.kont, t.kont)
    )


def _pattern_gens(pattern: Tree, gens: frozenset) -> set:
    return {v for v in tree_leaves(pattern) if v in gens}


def _instantiate(pattern: Tree, gens: frozenset, sigma: Mapping) -> Tree:
    if isinstance(pattern, Return):
        return sigma[pattern.value] if pattern.value in gens else pattern
    return OpNode(
        pattern.op,
        pattern.param,
        tuple(_instantiate(sub, gens, sigma) for sub in pattern.kont),
    )


def _rewrite_everywhere(src, dst, gens, t, pool) -> Iterator[Tree]:
    sigma: dict = {}
    if _match(src, gens, t, sigma):
        missing = sorted(_pattern_gens(dst, gens) - sigma.keys(), key=sort_key)
        for fillers in itertools.product(pool, repeat=len(missing)):
            full = dict(sigma)
            full.update(zip(missing, fillers))
            yield _instantiate(dst, gens, full)
    if isinstance(t, OpNode):
        for i, child in enumerate(t.kont):
            for new_child in _rewrite_everywhere(src, dst, gens, child, pool):
                yield OpNode(t.op, t.param, t.kont[:i] + (new_child,) + t.kont[i + 1 :])


def _rewrites(theory: Theory, t: Tree, pool) -> Iterator[Tree]:
    for eq in theory.eqs:
        gens = frozenset(eq.context.iter_elements())
        for p in eq.param_universe.iter_elements():
            lhs, rhs = eq.lhs(p), eq.rhs(p)
            if lhs == rhs:
                continue
            yield from _rewrite_everywhere(lhs, rhs, gens, t, pool)
            yield from _rewrite_everywhere(rhs, lhs, gens, t, pool)


def tree_equal_modulo(theory: Theory, t1: Tree, t2: Tree, budget: int | None = None) -> TreeEq:
    """Decide t1 ~ t2 modulo the theory's equations.

    With a normalizer (see ``normalize``) the answer is exact.  Otherwise
    equality is searched for by applying equation instances breadth-first
    from both trees until the frontiers meet or the step budget runs out;
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

    pool = []
    for t in (t1, t2):
        for sub in _subtrees(t):
            if sub not in pool:
                pool.append(sub)

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
            for nt in _rewrites(theory, t, pool):
                if nt in seen[1 - side]:
                    return TreeEq.EQUAL
                if nt not in seen[side]:
                    seen[side].add(nt)
                    frontier.append(nt)
    return TreeEq.UNKNOWN
