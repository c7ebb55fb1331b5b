import importlib
import itertools
import operator
import re
from pathlib import Path

import pytest

from algeff import free
from algeff.errors import NoNormalizer, ParameterOutOfUniverse, UnboundGenerator, UnknownOperation
from algeff.free import (
    FreeElement,
    TreeEq,
    _by_index,
    default_budget,
    eta,
    generic_op,
    has_normalizer,
    lift,
    normalize,
    normalizes_to_leaf_sets,
    sequence,
    state_normal_form,
    tree_equal_modulo,
)
from algeff.parser import parse_theory_file
from algeff.terms import OpNode, Return, fold_tree, rename_tree_ops, tree_leaves, tree_ops
from algeff.theories import (
    choice_theory,
    combine,
    empty_theory,
    exception_theory,
    io_theory,
    pointed_set_theory,
    semilattice_theory,
    single_state_theory,
    singleton_theory,
)
from algeff.universe import Enum, Fin

from tests.gen import tree_corpus

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
STATE2 = single_state_theory(Fin(2))
STATE3 = single_state_theory(Fin(3))
CHOICE_EXC = combine(choice_theory(), exception_theory())


def get(theory, kont):
    s = theory.op("get").arity
    return OpNode("get", (), tuple(kont(v) for v in s.elements()))


def put(v, sub):
    return OpNode("put", v, (sub,))


def test_eta_is_a_return_leaf():
    assert eta(STATE2, 1) == FreeElement(STATE2, Return(1))


def test_eta_injective_for_the_empty_theory():
    th = empty_theory()
    for x, y in itertools.product(range(4), repeat=2):
        verdict = tree_equal_modulo(th, Return(x), Return(y))
        assert (verdict is TreeEq.EQUAL) == (x == y)


def test_eta_collapses_in_the_singleton_theory():
    th = singleton_theory()
    assert tree_equal_modulo(th, Return("a"), Return("b")) is TreeEq.EQUAL


def test_lift_leaf_applies_phi():
    phi = lambda x: generic_op(STATE2, "put", x)
    lifted = lift(phi)(eta(STATE2, 1))
    assert lifted.tree == put(1, Return(()))


def test_lift_right_unit_on_corpus():
    for th, gens in [(STATE2, [0, 1]), (exception_theory(), ["a", "b"])]:
        for t in tree_corpus(th, gens, 40, 3, seed=11):
            elem = FreeElement(th, t)
            assert lift(lambda x: eta(th, x))(elem) == elem


def test_lift_associativity_on_corpus():
    th = STATE2
    phi = lambda x: generic_op(th, "put", x)
    psi = lambda x: eta(th, (x, x))
    for t in tree_corpus(th, [0, 1], 40, 3, seed=12):
        elem = FreeElement(th, t)
        left = lift(psi)(lift(phi)(elem))
        right = lift(lambda x: lift(psi)(phi(x)))(elem)
        assert left == right


def test_lift_given_a_mapping_names_the_leftmost_missing_generator():
    t = OpNode("choose", (), (OpNode("choose", (), (Return("x"), Return("a"))), Return("b")))
    th = choice_theory()
    with pytest.raises(UnboundGenerator, match="generator 'a'"):
        lift({"x": eta(th, 0)})(FreeElement(th, t))


def test_lifting_and_indexing_take_a_tree_of_any_depth():
    t = Return("x")
    for i in range(5_000):
        t = put(i % 2, t)
    elem = FreeElement(STATE2, t)
    assert sequence(elem, lambda x: eta(STATE2, x)) == elem
    indexed = _by_index(t, ["x"])
    assert set(tree_leaves(indexed)) == {0}
    assert tree_ops(indexed) == {"put"}


def test_refuting_models_interpret_a_tree_of_any_depth():
    t = Return("x")
    for _ in range(5_000):
        t = OpNode("choose", (), (Return("y"), t))
    th = combine(choice_theory(), exception_theory())
    assert tree_equal_modulo(th, t, Return("x"), budget=1) is TreeEq.DISTINCT


def test_sequence_of_return_applies_continuation():
    h = lambda v: eta(STATE2, v + 1)
    assert sequence(eta(STATE2, 0), h) == eta(STATE2, 1)


def test_sequence_commutes_with_operations():
    t = FreeElement(STATE2, get(STATE2, lambda s: Return(s)))
    h = lambda v: FreeElement(STATE2, put(v, Return(v)))
    expected = get(STATE2, lambda s: put(s, Return(s)))
    assert sequence(t, h).tree == expected


def test_sequence_choose_negation():
    th = choice_theory()
    t = generic_op(th, "choose", ())
    out = sequence(t, lambda b: eta(th, not b))
    assert out.tree == OpNode("choose", (), (Return(True), Return(False)))


def test_generic_op_examples():
    assert generic_op(choice_theory(), "choose", ()).tree == OpNode(
        "choose", (), (Return(False), Return(True))
    )
    assert generic_op(exception_theory(), "abort", ()).tree == OpNode("abort", (), ())
    io = io_theory(Enum(("Hello world!",)))
    hello = sequence(generic_op(io, "print", "Hello world!"), lambda _: eta(io, ()))
    assert hello.tree == OpNode("print", "Hello world!", (Return(()),))


def test_generic_op_rejects_bad_input():
    with pytest.raises(UnknownOperation):
        generic_op(choice_theory(), "flip", ())
    with pytest.raises(ParameterOutOfUniverse):
        generic_op(STATE2, "put", 9)


def test_normalize_return_in_single_state():
    out = normalize(STATE2, Return("v"))
    assert out == get(STATE2, lambda s: put(s, Return("v")))


def test_normalize_get_get_diagonal():
    t = get(STATE2, lambda s: get(STATE2, lambda u: Return((s, u))))
    out = normalize(STATE2, t)
    assert out == get(STATE2, lambda s: put(s, Return((s, s))))


def test_normalize_semilattice_sorted_set():
    th = semilattice_theory()
    join = lambda a, b: OpNode("join", (), (a, b))
    t = join(join(Return("x"), Return("x")), OpNode("bot", (), ()))
    assert normalize(th, t) == Return("x")
    t2 = join(Return("y"), join(Return("x"), Return("y")))
    assert normalize(th, t2) == join(Return("x"), Return("y"))
    assert normalize(th, OpNode("bot", (), ())) == OpNode("bot", (), ())


def test_leaf_sets_keep_one_and_true_apart():
    for th, op in ((semilattice_theory(), "join"), (choice_theory(), "choose")):
        both = OpNode(op, (), (Return(1), Return(True)))
        assert tree_equal_modulo(th, both, Return(1)) is TreeEq.DISTINCT
        assert tree_equal_modulo(th, both, OpNode(op, (), (Return(True), Return(1)))) is TreeEq.EQUAL
        # booleans sort before integers
        assert normalize(th, both) == OpNode(op, (), (Return(True), Return(1)))
    # the refuting models give 1 and True values of their own too
    both = OpNode("choose", (), (Return(1), Return(True)))
    assert tree_equal_modulo(CHOICE_EXC, both, Return(1), budget=1) is TreeEq.DISTINCT


def test_leaf_sets_never_hash_their_leaves():
    # lists stand in for closures, whose environments cannot be hashed
    th = choice_theory()
    t = OpNode("choose", (), (Return([1]), OpNode("choose", (), (Return([2]), Return([1])))))
    assert normalize(th, t) == OpNode("choose", (), (Return([1]), Return([2])))


def test_normalize_choice_to_its_leaf_set():
    th = choice_theory()
    choose = lambda a, b: OpNode("choose", (), (a, b))
    x, y, z = Return("x"), Return("y"), Return("z")
    assert normalize(th, choose(z, choose(x, choose(z, y)))) == choose(x, choose(y, z))
    assert normalize(th, choose(y, y)) == y


def test_normalize_equation_free_theories_is_identity():
    th = io_theory(Fin(2))
    t = OpNode("print", 1, (OpNode("read", (), (Return("a"), Return("b"))),))
    assert normalize(th, t) == t
    assert normalize(pointed_set_theory(), OpNode("point", (), ())) == OpNode("point", (), ())


def test_normalize_without_strategy_raises():
    with pytest.raises(NoNormalizer):
        normalize(CHOICE_EXC, Return("x"))
    assert not has_normalizer(CHOICE_EXC)
    assert has_normalizer(choice_theory())
    assert has_normalizer(STATE2)


def test_normalize_is_idempotent_on_corpus():
    for th, gens in [(STATE3, ["u", "v"]), (semilattice_theory(), ["x", "y", "z"])]:
        for t in tree_corpus(th, gens, 60, 4, seed=13):
            once = normalize(th, t)
            assert normalize(th, once) == once


def test_state_normal_form_put_then_get():
    t = put(1, get(STATE3, lambda s: Return(s)))
    nf = state_normal_form(STATE3, t)
    assert nf.f == {0: 1, 1: 1, 2: 1}
    assert nf.g == {0: 1, 1: 1, 2: 1}


def test_state_normal_form_of_return():
    nf = state_normal_form(STATE3, Return("v"))
    assert nf.f == {0: 0, 1: 1, 2: 2}
    assert nf.g == {0: "v", 1: "v", 2: "v"}


def test_state_normal_form_get_put_identity():
    t = get(STATE3, lambda s: put(s, Return(s)))
    nf = state_normal_form(STATE3, t)
    assert nf.f == {0: 0, 1: 1, 2: 2}
    assert nf.g == {0: 0, 1: 1, 2: 2}


def run_single_state(t, s):
    """(final state, leaf value) of a get/put tree over ``fin n``, run from
    state s: a get takes branch s, and a put sets the state."""
    while type(t) is not Return:
        s, t = (s, t.kont[s]) if t.op == "get" else (t.param, t.kont[0])
    return s, t.value


def test_state_normal_form_matches_execution_oracle():
    for t in tree_corpus(STATE3, [0, 1], 80, 4, seed=14):
        nf = state_normal_form(STATE3, t)
        rebuilt = get(STATE3, lambda s: put(nf.f[s], Return(nf.g[s])))
        for s in range(3):
            assert run_single_state(t, s) == run_single_state(rebuilt, s) == (nf.f[s], nf.g[s])


def test_tree_equal_modulo_reflexivity():
    for th, gens in [(STATE2, [0]), (choice_theory(), ["x"])]:
        for t in tree_corpus(th, gens, 20, 3, seed=15):
            assert tree_equal_modulo(th, t, t) is TreeEq.EQUAL


def test_tree_equal_modulo_state_law_instance():
    eq = STATE2.eqs[0]
    assert tree_equal_modulo(STATE2, eq.lhs(()), eq.rhs(())) is TreeEq.EQUAL


def test_tree_equal_modulo_choice_commutativity():
    th = choice_theory()
    t1 = OpNode("choose", (), (Return("x"), Return("y")))
    t2 = OpNode("choose", (), (Return("y"), Return("x")))
    assert tree_equal_modulo(th, t1, t2, budget=1000) is TreeEq.EQUAL


def test_tree_equal_modulo_choice_distinct_generators():
    th = choice_theory()
    assert tree_equal_modulo(th, Return("x"), Return("y"), budget=1000) is TreeEq.DISTINCT


def test_tree_equal_modulo_choice_assoc_idem():
    th = choice_theory()
    join = lambda a, b: OpNode("choose", (), (a, b))
    x, y, z = Return("x"), Return("y"), Return("z")
    assert tree_equal_modulo(th, join(join(x, y), z), join(x, join(y, z)), budget=2000) is TreeEq.EQUAL
    assert tree_equal_modulo(th, join(x, x), x, budget=2000) is TreeEq.EQUAL


def test_unknown_when_budget_is_tiny():
    th = CHOICE_EXC
    join = lambda a, b: OpNode("choose", (), (a, b))
    x, y, z = Return("x"), Return("y"), Return("z")
    t1 = join(join(x, y), join(z, x))
    t2 = join(x, join(y, join(z, join(x, x))))
    assert tree_equal_modulo(th, t1, t2, budget=1) is TreeEq.UNKNOWN


def test_choice_corpus_is_decided_at_budget_one_by_its_leaf_sets():
    from algeff.terms import tree_leaves

    th = choice_theory()
    corpus = tree_corpus(th, ["x", "y", "z"], 40, 3, seed=77)
    for i, t1 in enumerate(corpus[:20]):
        for t2 in corpus[i + 1 : i + 6]:
            same_leaves = set(tree_leaves(t1)) == set(tree_leaves(t2))
            expected = TreeEq.EQUAL if same_leaves else TreeEq.DISTINCT
            assert tree_equal_modulo(th, t1, t2, budget=1) is expected, (t1, t2)


def test_theories_without_a_normalizer_refute_by_their_2_element_models():
    from algeff.free import _refuters
    from algeff.models import validate_model
    from algeff.theories import group_theory, state_theory

    assert len(_refuters(CHOICE_EXC)) == 4  # or/and, with abort false/true
    assert len(_refuters(group_theory())) == 2  # xor/xnor
    for model in _refuters(CHOICE_EXC) + _refuters(group_theory()):
        assert validate_model(model) is None
    x, y = Return("x"), Return("y")
    m = lambda a, b: OpNode("m", (), (a, b))
    assert tree_equal_modulo(group_theory(), m(x, y), m(y, x), budget=1) is TreeEq.UNKNOWN
    assert tree_equal_modulo(group_theory(), m(x, x), x, budget=1) is TreeEq.DISTINCT


def _refutes_per_valuation(theory, t1, t2):
    """The refutation test one valuation at a time, the reference for
    ``free._refutes``."""
    from algeff.free import _distinct_leaves, _refuters
    from algeff.models import interpret_term
    from algeff.universe import BOOL

    gens = _distinct_leaves(itertools.chain(tree_leaves(t1), tree_leaves(t2)))
    t1, t2 = _by_index(t1, gens), _by_index(t2, gens)
    for model in _refuters(theory):
        for picks in itertools.product(BOOL.elements(), repeat=len(gens)):
            valuation = dict(enumerate(picks))
            if interpret_term(model, t1, valuation) != interpret_term(model, t2, valuation):
                return True
    return False


def _random_tree(rng, ops, leaves, depth=4):
    """A random tree over ``ops``, (name, number of subtrees) pairs."""
    if depth == 0 or rng.random() < 0.3:
        return Return(rng.choice(leaves))
    name, arity = rng.choice(ops)
    return OpNode(name, (), tuple(_random_tree(rng, ops, leaves, depth - 1) for _ in range(arity)))


def test_refuting_models_agree_with_a_test_at_each_valuation():
    import random

    from algeff.free import _refutes
    from algeff.theories import group_theory

    rng = random.Random(7)
    verdicts = set()
    for theory, ops in ((CHOICE_EXC, [("choose", 2), ("abort", 0)]),
                        (group_theory(), [("u", 0), ("m", 2), ("i", 1)])):
        for _ in range(150):
            leaves = rng.sample(["a", "b", "c", 1, 2, True], rng.randint(1, 4))
            t1, t2 = (_random_tree(rng, ops, leaves) for _ in range(2))
            expected = _refutes_per_valuation(theory, t1, t2)
            assert _refutes(theory, t1, t2) is expected, (t1, t2)
            verdicts.add(expected)
        bad = OpNode("m" if theory is CHOICE_EXC else "choose", (), (Return("a"), Return("b")))
        for pair in ((bad, t1), (t1, bad)):
            with pytest.raises(UnknownOperation) as want:
                _refutes_per_valuation(theory, *pair)
            with pytest.raises(UnknownOperation) as got:
                _refutes(theory, *pair)
            assert str(got.value) == str(want.value)
    assert verdicts == {True, False}


def _choose_chain(leaves):
    """choose(leaf, choose(leaf, ...)), nested to the right."""
    *init, t = [Return(leaf) for leaf in leaves]
    for leaf in reversed(init):
        t = OpNode("choose", (), (leaf, t))
    return t


def test_refuting_models_read_valuations_past_the_first_block():
    # 13 distinct leaves make 8,192 valuations, two blocks; only those with
    # leaf 0 true and every other leaf false tell the two chains apart
    t1, t2 = _choose_chain(range(13)), _choose_chain(range(1, 13))
    assert tree_equal_modulo(CHOICE_EXC, t1, t2, budget=1) is TreeEq.DISTINCT


def test_refuting_models_interpret_each_tree_once_per_block(monkeypatch):
    import algeff.models
    from algeff.free import _refuters

    reads = []
    column = algeff.models._column
    monkeypatch.setattr(algeff.models, "_column", lambda *args: reads.append(args) or column(*args))

    def blocks(valuations):
        count, size = 0, algeff.models._FIRST_AT_ONCE
        while valuations > 0:
            count, valuations = count + 1, valuations - size
            size = min(2 * size, algeff.models._MOST_AT_ONCE)
        return count

    models = len(_refuters(CHOICE_EXC))
    assert models > 1
    for n in (8, 10, 12):
        reads.clear()
        chain = _choose_chain(range(n))
        reversal = _choose_chain(reversed(range(n)))
        assert tree_equal_modulo(CHOICE_EXC, chain, reversal, budget=1) is TreeEq.UNKNOWN
        # every model reads both trees once per block of valuations
        assert len(reads) == 2 * models * blocks(2 ** n) < 2 ** n


def test_the_model_search_is_capped_before_any_table_is_listed():
    import time

    from algeff.free import _refuters
    from algeff.terms import OpDecl, Theory
    from algeff.theories import state_theory
    from algeff.universe import UNIT

    assert _refuters(state_theory(Fin(2), Fin(2))) == ()  # 65,536 tuples
    # 2^30 entries in one table; listing them would not end in time
    wide = Theory("wide", (OpDecl("get", UNIT, Fin(30)),), singleton_theory().eqs)
    start = time.perf_counter()
    assert _refuters(wide) == ()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("theory, count", [
    ("state", 50),
    ("single_state", 28),
    ("semilattice", 8),
    ("group", 10),
    ("choice_exc", 6),
])
def test_the_rules_are_both_directions_of_every_non_trivial_instance(theory, count):
    from algeff.free import _rules
    from algeff.theories import group_theory, state_theory

    th = {
        "state": lambda: state_theory(Fin(2), Fin(2)),
        "single_state": lambda: STATE3,
        "semilattice": semilattice_theory,
        "group": group_theory,
        "choice_exc": lambda: CHOICE_EXC,
    }[theory]()
    instances = [
        (eq.lhs(p), eq.rhs(p))
        for eq in th.eqs
        for p in eq.param_universe.iter_elements()
        if eq.lhs(p) != eq.rhs(p)
    ]
    rules = _rules(th)
    assert len(rules) == 2 * len(instances) == count
    for k, (lhs, rhs) in enumerate(instances):
        assert (rules[2 * k].source, rules[2 * k + 1].source) == (lhs, rhs)


def test_the_store_s_rules_are_those_over_its_side_conditions_by_filter():
    from algeff.free import _rules
    from algeff.terms import Equation, Theory
    from algeff.theories import state_theory
    from algeff.universe import Apart, Product

    class FilteredApart(Apart):
        """``Apart`` as the product's elements filtered one by one."""

        def iter_elements(self):
            return filter(self._keeps, Product.iter_elements(self))

    def filtered(u):
        return FilteredApart(u.left, u.right, u.first, u.second, u.ascending) if type(u) is Apart else u

    def described(theory):
        out = []
        for rule in _rules(theory):
            bound = {g: (hash(Return(g)), Return(g)) for g in rule.gens}
            fillers = tuple((hash(Return(g)), Return(g)) for g in rule.fresh)
            out.append(repr((rule.source, rule.fresh, rule.build(bound, fillers))))
        return out

    th = state_theory(Fin(2), Fin(2))
    eqs = tuple(Equation(e.name, filtered(e.param_universe), e.context, e.lhs, e.rhs) for e in th.eqs)
    assert any(type(e.param_universe) is FilteredApart for e in eqs)
    reference = described(Theory(th.name, th.ops, eqs))
    assert len(reference) == 50 and described(th) == reference


def build_everything(theory, t, pool):
    """The search's candidates as it listed them before it hashed them from
    their parts: by rule (equation, parameter, direction), then preorder
    position, then filler product, each tree built whole."""
    from algeff.free import _match
    from algeff.terms import fold_tree, sort_key

    def positions(t, path=()):
        yield t, path
        if isinstance(t, OpNode):
            for k, sub in enumerate(t.kont):
                yield from positions(sub, path + (k,))

    def replace(t, path, new):
        if not path:
            return new
        k = path[0]
        kont = t.kont[:k] + (replace(t.kont[k], path[1:], new),) + t.kont[k + 1 :]
        return OpNode(t.op, t.param, kont)

    for eq in theory.eqs:
        gens = frozenset(eq.context.iter_elements())
        for p in eq.param_universe.iter_elements():
            lhs, rhs = eq.lhs(p), eq.rhs(p)
            if lhs == rhs:
                continue
            for src, dst in ((lhs, rhs), (rhs, lhs)):
                fresh = {v for v in tree_leaves(dst) if v in gens} - set(tree_leaves(src))
                fresh = sorted(fresh, key=sort_key)
                for sub, path in positions(t):
                    sigma = {}
                    if not _match(src, gens, sub, sigma):
                        continue
                    for fillers in itertools.product(pool, repeat=len(fresh)):
                        full = {**sigma, **dict(zip(fresh, fillers))}
                        leaf = lambda v: full[v] if v in gens else Return(v)
                        yield replace(t, path, fold_tree(dst, leaf, OpNode))


@pytest.mark.parametrize("theory", ["state", "single_state", "semilattice", "group", "choice_exc"])
def test_candidates_hash_as_the_trees_they_build(theory):
    from algeff.free import _build, _neighbours, _rules
    from algeff.terms import subtrees
    from algeff.theories import group_theory, state_theory

    th = {
        "state": lambda: state_theory(Fin(2), Fin(2)),
        "single_state": lambda: STATE3,
        "semilattice": semilattice_theory,
        "group": group_theory,
        "choice_exc": lambda: CHOICE_EXC,
    }[theory]()
    # instance sides, alone and under an operation, and random trees
    wrap = next(o for o in th.ops if o.arity.size() and o.param.size())
    wrap_param = wrap.param.elements()[0]
    trees = tree_corpus(th, [0, 1], 2, 3, seed=19)
    for eq in th.eqs[:3]:
        side = eq.lhs(eq.param_universe.elements()[0])
        trees += [side, OpNode(wrap.name, wrap_param, (side,) * wrap.arity.size())]
    rules = _rules(th)
    listed = 0
    for t, other in zip(trees, trees[1:] + trees[:1]):
        # two fillers, since get_get read right to left over fin 3 has 6 fresh generators
        pool = list(dict.fromkeys(itertools.chain(subtrees(t), subtrees(other))))[:2]
        counts = tuple(len(pool) ** len(rule.fresh) for rule in rules)
        candidates = list(_neighbours(rules, t, [(hash(s), s) for s in pool], counts))
        built = [_build(recipe) for _, recipe in candidates]
        assert [h for h, _ in candidates] == [hash(nt) for nt in built]
        assert built == list(build_everything(th, t, pool))
        listed += len(built)
    assert listed > len(trees)


def test_a_hash_match_is_never_taken_as_a_meeting():
    from algeff.theories import state_theory

    th = state_theory(Fin(2), Fin(2))
    lookup = lambda l, a, b: OpNode("lookup", l, (a, b))
    t1 = lookup(0, lookup(0, Return(1), Return(0)), lookup(0, Return(0), Return(0)))
    t2 = lookup(0, Return(1), Return(0))
    t2_bool = lookup(0, Return(True), Return(0))
    assert hash(t2) == hash(t2_bool) and t2 != t2_bool
    assert tree_equal_modulo(th, t1, t2, 1) is TreeEq.EQUAL
    assert reference_search(th, t1, t2, 1) is TreeEq.EQUAL
    assert tree_equal_modulo(th, t1, t2_bool, 1) is TreeEq.UNKNOWN
    assert reference_search(th, t1, t2_bool, 1) is TreeEq.UNKNOWN


def test_leaves_that_cannot_be_hashed_end_the_search_unknown():
    from algeff.interp import Closure
    from algeff.parser import parse_program

    c1 = Closure("x", parse_program("return x"), {"a": 1})
    c2 = Closure("y", parse_program("return y"), {"b": 2})
    with pytest.raises(TypeError):
        hash(c1)
    t1 = OpNode("choose", (), (Return(c1), Return(c2)))
    t2 = OpNode("choose", (), (Return(c2), Return(c1)))
    assert not has_normalizer(CHOICE_EXC)
    assert tree_equal_modulo(CHOICE_EXC, t1, t1) is TreeEq.EQUAL
    assert tree_equal_modulo(CHOICE_EXC, t1, t2) is TreeEq.UNKNOWN
    # the refutation step reads leaves by value, never by hash
    t3 = OpNode("choose", (), (Return(c1), OpNode("abort", (), ())))
    assert tree_equal_modulo(CHOICE_EXC, t1, t3) is TreeEq.DISTINCT


def test_a_rule_with_too_many_fillers_ends_the_search_unknown():
    import subprocess
    import sys

    # get_get read right to left has 90 fresh generators over fin 10
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from algeff.free import tree_equal_modulo\n"
        "from algeff.parser import parse_theory_file\n"
        "from algeff.terms import OpNode\n"
        f"th = parse_theory_file(open({str(SAMPLES / 'state10.thy')!r}).read())\n"
        "abort = OpNode('abort', (), ())\n"
        "t = OpNode('get', (), tuple(OpNode('put', s, (abort,)) for s in range(10)))\n"
        "start = time.perf_counter()\n"
        "verdict = tree_equal_modulo(th, t, abort, budget=1)\n"
        "print(verdict.value, time.perf_counter() - start < 1)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "unknown True\n", "")


def test_lift_respects_congruence_on_corpus():
    th = STATE2
    phi = lambda x: generic_op(th, "put", 0) if x == 0 else eta(th, x)
    corpus = tree_corpus(th, [0, 1], 30, 3, seed=16)
    for t in corpus:
        nt = normalize(th, t)
        assert tree_equal_modulo(th, t, nt) is TreeEq.EQUAL
        lifted_t = lift(phi)(FreeElement(th, t)).tree
        lifted_nt = lift(phi)(FreeElement(th, nt)).tree
        assert tree_equal_modulo(th, lifted_t, lifted_nt) is TreeEq.EQUAL


def test_counting_normal_forms_pointed_set():
    th = pointed_set_theory()
    gens = ["a", "b", "c", "d"]
    all_trees = [Return(g) for g in gens] + [OpNode("point", (), ())]
    assert len({normalize(th, t) for t in all_trees}) == 5


def test_counting_normal_forms_semilattice():
    th = semilattice_theory()
    join = lambda a, b: OpNode("join", (), (a, b))
    level0 = [Return(g) for g in ("x", "y", "z")] + [OpNode("bot", (), ())]
    level1 = level0 + [join(a, b) for a in level0 for b in level0]
    level2 = level1 + [join(a, b) for a in level1 for b in level1]
    forms = {normalize(th, t) for t in level2}
    assert len(forms) == 8


def test_default_budget_env_override(monkeypatch):
    monkeypatch.setenv("ALGEFF_BUDGET", "123")
    assert default_budget() == 123
    monkeypatch.setenv("ALGEFF_BUDGET", "junk")
    assert default_budget() == 10000
    monkeypatch.setenv("ALGEFF_BUDGET", "-1")
    assert default_budget() == 10000
    monkeypatch.delenv("ALGEFF_BUDGET")
    assert default_budget() == 10000


def test_state_normal_form_needs_a_nonempty_state_universe():
    from algeff.errors import EmptyStateUniverse
    from algeff.terms import OpDecl, Theory
    from algeff.universe import EMPTY, UNIT

    bogus = Theory("bogus", (OpDecl("get", UNIT, EMPTY), OpDecl("put", EMPTY, UNIT)))
    with pytest.raises(EmptyStateUniverse):
        state_normal_form(bogus, Return("v"))


def test_multi_location_state_goes_through_the_search():
    from algeff.theories import state_theory

    th = state_theory(Fin(2), Fin(2))
    assert not has_normalizer(th)
    eq = th.eqs[0]  # lookup_lookup
    for loc in range(2):
        assert tree_equal_modulo(th, eq.lhs(loc), eq.rhs(loc), budget=3000) is TreeEq.EQUAL


def test_search_verdicts_are_deterministic():
    th = choice_theory()
    join = lambda a, b: OpNode("choose", (), (a, b))
    x, y, z = Return("x"), Return("y"), Return("z")
    pairs = [
        (join(join(x, y), z), join(x, join(y, z))),
        (join(x, y), join(y, x)),
        (join(x, join(y, z)), join(z, join(x, y))),
    ]
    for t1, t2 in pairs:
        first = tree_equal_modulo(th, t1, t2, budget=400)
        for _ in range(3):
            assert tree_equal_modulo(th, t1, t2, budget=400) is first


def test_search_is_sound_against_the_leaf_set_oracle():
    # modulo ACI, a choice tree is exactly its set of leaves; the search may
    # say UNKNOWN, but EQUAL and DISTINCT must agree with the oracle
    from algeff.terms import tree_leaves

    th = choice_theory()
    corpus = tree_corpus(th, ["x", "y", "z"], 40, 3, seed=77)
    checked = equal_hits = distinct_hits = 0
    for i, t1 in enumerate(corpus[:20]):
        for t2 in corpus[i + 1 : i + 6]:
            verdict = tree_equal_modulo(th, t1, t2, budget=300)
            same_leaves = set(tree_leaves(t1)) == set(tree_leaves(t2))
            checked += 1
            if verdict is TreeEq.EQUAL:
                equal_hits += 1
                assert same_leaves, (t1, t2)
            elif verdict is TreeEq.DISTINCT:
                distinct_hits += 1
                assert not same_leaves, (t1, t2)
    assert checked >= 50
    assert equal_hits > 0 and distinct_hits > 0


def rewrite_normal_form(theory, t):
    """State normalizer by directed contraction of the four laws, kept as a
    cross-check for the denotational route."""
    s_univ = theory.op("get").arity
    elems = s_univ.elements()

    def norm(tree):
        if isinstance(tree, Return):
            return tree
        if tree.op == "put":
            body = norm(tree.kont[0])
            if isinstance(body, OpNode) and body.op == "put":
                return body  # put-put: the later write wins
            if isinstance(body, OpNode) and body.op == "get":
                # put-get: the read sees what was just written
                return norm(OpNode("put", tree.param, (body.kont[elems.index(tree.param)],)))
            return OpNode("put", tree.param, (body,))
        assert tree.op == "get"
        branches = []
        for s, sub in zip(elems, tree.kont):
            body = norm(sub)
            while isinstance(body, OpNode) and body.op == "get":
                body = body.kont[elems.index(s)]  # get-get: same answer twice
            branches.append(body)
        return OpNode("get", (), tuple(branches))

    def pad(s, body):
        # bring the remaining three shapes into the get-then-put form
        if isinstance(body, Return):
            return OpNode("put", s, (body,))  # get-put: write back what was read
        return body

    whole = norm(t)
    if not (isinstance(whole, OpNode) and whole.op == "get"):
        whole = OpNode("get", (), tuple(whole for _ in elems))
    f, g = {}, {}
    for s, branch in zip(elems, whole.kont):
        branch = pad(s, branch)
        assert branch.op == "put" and isinstance(branch.kont[0], Return)
        f[s] = branch.param
        g[s] = branch.kont[0].value
    return f, g


def test_rewrite_route_agrees_with_the_denotational_normalizer():
    for t in tree_corpus(STATE3, ["a", "b"], 300, 5, seed=55):
        nf = state_normal_form(STATE3, t)
        f, g = rewrite_normal_form(STATE3, t)
        assert (f, g) == (nf.f, nf.g)


# ---------------------------------------------------------------------------
# Strategies follow a theory's laws, not its name

def parsed_sample(name, rename=None):
    text = (SAMPLES / name).read_text()
    if rename is not None:
        _, rest = text.split("{", 1)
        text = f"theory {rename} {{{rest}"
    return parse_theory_file(text)


def test_a_semilattice_with_only_commutativity_has_no_normalizer():
    th = parse_theory_file(
        "theory semilattice {\n"
        "  op bot : unit ~> empty;\n"
        "  op join : unit ~> bool;\n"
        "  equation comm (enum {x, y}) : join((); return x, return y) = join((); return y, return x);\n"
        "}\n"
    )
    x = Return("x")
    assert not has_normalizer(th)
    assert tree_equal_modulo(th, OpNode("join", (), (x, x)), x, budget=300) is not TreeEq.EQUAL


def test_state_with_abort_compares_abort_without_raising():
    th = parsed_sample("state10.thy")
    abort = OpNode("abort", (), ())
    assert tree_equal_modulo(th, abort, abort) is TreeEq.EQUAL
    with pytest.raises(NoNormalizer):
        normalize(th, abort)


def test_strategies_do_not_depend_on_the_theory_name():
    cell = parsed_sample("state2.thy", rename="cell")
    t = get(STATE2, lambda a: get(STATE2, lambda b: Return((a, b))))
    assert normalize(cell, t) == normalize(STATE2, t)
    choice = parsed_sample("choice.thy", rename="coin")
    assert tree_equal_modulo(choice, Return("x"), Return("y")) is TreeEq.DISTINCT


def test_parsed_builtins_give_the_builtin_verdicts():
    for builtin, name, gens, budget in (
        (STATE2, "state2.thy", [0, 1], 300),
        (semilattice_theory(), "semilattice.thy", ["x", "y"], 300),
        (choice_theory(), "choice.thy", ["x", "y"], 100),
    ):
        parsed = parsed_sample(name)
        corpus = tree_corpus(builtin, gens, 12, 3, seed=31)
        for t1, t2 in zip(corpus, corpus[1:]):
            assert tree_equal_modulo(parsed, t1, t2, budget) is tree_equal_modulo(
                builtin, t1, t2, budget
            ), (name, t1, t2)


def test_combining_with_the_empty_theory_keeps_the_normalizer():
    th = combine(STATE2, empty_theory())
    t = put(1, get(STATE2, lambda s: Return(s)))
    assert normalize(th, t) == normalize(STATE2, t)


def test_strategy_resolution_does_not_keep_theories_alive():
    import gc
    import weakref

    th = parsed_sample("state2.thy")
    normalize(th, Return(0))
    ref = weakref.ref(th)
    del th
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# Strategies resolved by comparing shapes, against the instance sets


def reference_normalizer(theory):
    """The normalizer, and the theory's names for the built-in's operations,
    that comparing whole instance sets with each built-in gives, as
    strategies were resolved before families were compared by their shapes:
    the built-in's instances against the theory's, renamed tree by tree by
    each bijection of the operations that keeps their universes, tried in
    the order of the permutations of the theory's operations."""
    from algeff.universe import UNIT

    def pairs(th, renaming):
        return frozenset(
            frozenset((rename_tree_ops(eq.lhs(p), renaming), rename_tree_ops(eq.rhs(p), renaming)))
            for eq in th.eqs
            for p in eq.param_universe.iter_elements()
            if eq.lhs(p) != eq.rhs(p)
        )

    twins = [(single_state_theory(o.arity), free._RUNS) for o in theory.ops
             if o.param == UNIT and o.arity.size()]
    twins += [(semilattice_theory(), free._LEAF_SETS), (choice_theory(), free._LEAF_SETS)]
    for twin, normalizer in twins:
        for ops in itertools.permutations(theory.ops):
            if [(o.param, o.arity) for o in ops] != [(o.param, o.arity) for o in twin.ops]:
                continue
            renaming = {o.name: t.name for o, t in zip(ops, twin.ops)}
            if twin is theory or pairs(theory, renaming) == pairs(twin, {}):
                return normalizer, tuple(o.name for o in ops)
    return None, None


def assert_resolves_as_the_reference(theory):
    expected, names = reference_normalizer(theory)
    assert free._strategy(theory).normalize is expected, theory
    assert free._strategy(theory).names == names, theory
    assert has_normalizer(theory) is (not theory.eqs or expected is not None)
    assert normalizes_to_leaf_sets(theory) is (expected is free._LEAF_SETS)
    return expected


def perfbench_state_theories(monkeypatch):
    """The benchmark's generated state theory texts, fin 1 to fin 10, with
    and without abort."""
    monkeypatch.syspath_prepend(str(SAMPLES.parent / "perfbench"))
    gen = importlib.import_module("gen")
    return [gen.state_theory_text(n, abort) for n in range(1, 11) for abort in (False, True)]


def sample_theories():
    texts = [path.read_text() for path in sorted(SAMPLES.glob("*.thy"))]
    return texts + [text.replace("theory ", "theory renamed_", 1) for text in texts]


def with_ops_renamed(text, renaming):
    """The theory text with each operation named in ``renaming`` renamed,
    all at once, so that two names can swap; an equation name such as
    ``get_put`` keeps its name."""
    return re.sub(r"\b(%s)\b" % "|".join(renaming), lambda m: renaming[m[0]], text)


# (sample, a renaming of its operations): each copy keeps its normalizer
OP_RENAMINGS = [
    ("state2.thy", {"get": "read", "put": "write"}),
    ("state2.thy", {"get": "put", "put": "get"}),
    ("choice.thy", {"choose": "pick"}),
    ("semilattice.thy", {"join": "lub", "bot": "least"}),
]
RENAMED_SAMPLES = [with_ops_renamed((SAMPLES / name).read_text(), renaming)
                   for name, renaming in OP_RENAMINGS]


STATE2_LAWS = (SAMPLES / "state2.thy").read_text().splitlines()[3:7]
GET_GET, GET_PUT, PUT_GET, PUT_PUT = STATE2_LAWS


def state2_with(*laws, ops=("  op get : unit ~> fin 2;", "  op put : fin 2 ~> unit;")):
    return "\n".join(["theory cell {", *ops, *laws, "}"])


def swapped(law):
    head, sides = law.split(" : ", 1)
    lhs, rhs = sides.rstrip(";").split(" = ")
    return f"{head} : {rhs} = {lhs};"


# (name, text, whether it has a normalizer, whether its instances are built
# and compared with the built-in's, because its shapes differ)
RESOLUTION_VARIANTS = [
    ("reordered", state2_with(PUT_PUT, GET_PUT, PUT_GET, GET_GET), True, False),
    ("sides swapped", state2_with(*map(swapped, STATE2_LAWS)), True, False),
    ("binders renamed", state2_with(
        "  equation get_get (fin 2 * fin 2) : get((); \\a. get((); \\b. return (a, b))) = get((); \\c. return (c, c));",
        "  equation get_put (unit) : get((); \\x. put(x; \\y. return y)) = return ();",
        "  equation put_get forall cell in fin 2 (fin 2) : put(cell; \\u. get((); \\s. return s)) = put(cell; \\u. return cell);",
        "  equation put_put forall q in fin 2 * fin 2 (unit) : put(fst q; \\s. put(snd q; \\s. return s)) = put(snd q; \\v. return v);",
    ), True, False),
    ("positional subtrees", state2_with(
        GET_GET, "  equation get_put (unit) : get((); put(0; return ()), put(1; return ())) = return ();",
        PUT_GET, PUT_PUT,
    ), True, True),
    ("split law", state2_with(
        GET_GET, GET_PUT, PUT_PUT,
        "  equation put_get0 (fin 2) : put(0; \\u. get((); \\t. return t)) = put(0; \\u. return 0);",
        "  equation put_get1 (fin 2) : put(1; \\u. get((); \\t. return t)) = put(1; \\u. return 1);",
    ), True, True),
    ("extra trivial law", state2_with(
        *STATE2_LAWS, "  equation refl (fin 2) : get((); \\s. return s) = get((); \\t. return t);",
    ), True, False),
    ("fst and snd swapped throughout", state2_with(
        GET_GET, GET_PUT, PUT_GET,
        PUT_PUT.replace("fst", "FST").replace("snd", "fst").replace("FST", "snd"),
    ), True, True),
    ("(t, s) in get_get", state2_with(GET_GET.replace("(s, t)", "(t, s)"), GET_PUT, PUT_GET, PUT_PUT),
     False, True),
    ("fst for snd in put_put's rhs", state2_with(
        GET_GET, GET_PUT, PUT_GET, PUT_PUT.replace("= put(snd p", "= put(fst p"),
    ), False, True),
    ("forall over a smaller universe", state2_with(
        GET_GET, GET_PUT, PUT_GET.replace("forall p in fin 2", "forall p in fin 1"), PUT_PUT,
    ), False, True),
    ("extra operation", state2_with(
        *STATE2_LAWS, ops=("  op get : unit ~> fin 2;", "  op put : fin 2 ~> unit;",
                           "  op abort : unit ~> empty;"),
    ), False, False),
    ("choice reordered and swapped", (SAMPLES / "choice.thy").read_text().replace(
        "equation comm (enum {x, y}) : choose((); return x, return y) = choose((); return y, return x);",
        "equation comm (enum {x, y}) : choose((); return y, return x) = choose((); return x, return y);",
    ), True, False),
    ("operations renamed", RENAMED_SAMPLES[0], True, False),
    ("get and put swapped", RENAMED_SAMPLES[1], True, False),
    ("operations renamed, (t, s) in get_get", with_ops_renamed(state2_with(
        GET_GET.replace("(s, t)", "(t, s)"), GET_PUT, PUT_GET, PUT_PUT), OP_RENAMINGS[0][1]), False, True),
    ("semilattice without unit", "\n".join(
        line for line in (SAMPLES / "semilattice.thy").read_text().splitlines()
        if "equation unit" not in line
    ), False, True),
]


@pytest.mark.parametrize("name, text, resolves, by_instances", RESOLUTION_VARIANTS,
                         ids=[v[0] for v in RESOLUTION_VARIANTS])
def test_variants_resolve_as_their_instance_sets_do(monkeypatch, name, text, resolves, by_instances):
    fallbacks = []
    pairs = free._instance_pairs
    monkeypatch.setattr(free, "_instance_pairs", lambda eqs: fallbacks.append(eqs) or pairs(eqs))
    assert has_normalizer(parse_theory_file(text)) is resolves
    assert bool(fallbacks) is by_instances
    monkeypatch.undo()
    assert_resolves_as_the_reference(parse_theory_file(text))


def test_samples_and_generated_theories_resolve_as_their_instance_sets_do(monkeypatch):
    texts = sample_theories() + RENAMED_SAMPLES + perfbench_state_theories(monkeypatch)
    resolved = [assert_resolves_as_the_reference(parse_theory_file(text)) for text in texts]
    assert sum(r is not None for r in resolved) == 6 + 4 + 10


@pytest.mark.parametrize("sample, renaming", OP_RENAMINGS, ids=["read-write", "swapped", "pick", "lub-least"])
def test_renaming_operations_keeps_every_verdict_and_normal_form(sample, renaming):
    text = (SAMPLES / sample).read_text()
    original, renamed = parse_theory_file(text), parse_theory_file(with_ops_renamed(text, renaming))
    corpus = tree_corpus(original, [0, 1, "x"], 40, 4, seed=34)
    pairs = list(zip(corpus[::2], corpus[1::2])) + [(t, normalize(original, t)) for t in corpus[:10]]
    verdicts = set()
    for t1, t2 in pairs:
        r1, r2 = rename_tree_ops(t1, renaming), rename_tree_ops(t2, renaming)
        verdict = tree_equal_modulo(original, t1, t2, budget=30)
        assert tree_equal_modulo(renamed, r1, r2, budget=30) is verdict, (t1, t2)
        assert tree_equal_modulo(renamed, r2, r1, budget=30) is verdict, (t2, t1)
        verdicts.add(verdict)
        for t, r in ((t1, r1), (t2, r2)):
            assert normalize(renamed, r) == rename_tree_ops(normalize(original, t), renaming), t
    assert verdicts == {TreeEq.EQUAL, TreeEq.DISTINCT}


def test_state_normal_form_answers_up_to_a_renaming_of_operations():
    text = (SAMPLES / "state2.thy").read_text()
    original = parse_theory_file(text)
    for renaming in (r for name, r in OP_RENAMINGS if name == "state2.thy"):
        renamed = parse_theory_file(with_ops_renamed(text, renaming))
        for t in tree_corpus(original, ["a", "b"], 40, 4, seed=35):
            assert state_normal_form(renamed, rename_tree_ops(t, renaming)) == state_normal_form(original, t)


def test_state_normal_form_needs_single_states_laws():
    # state10.thy adds abort, and io has single state's signature but no law
    for theory in (parsed_sample("state10.thy"), io_theory(Fin(2))):
        with pytest.raises(NoNormalizer):
            state_normal_form(theory, Return(0))


def test_resolving_a_strategy_builds_no_instance(monkeypatch):
    from algeff import terms

    builds, fallbacks = [], []
    call, pairs = terms._Instances.__call__, free._instance_pairs
    monkeypatch.setattr(terms._Instances, "__call__", lambda side, p: builds.append(p) or call(side, p))
    monkeypatch.setattr(free, "_instance_pairs", lambda eqs: fallbacks.append(eqs) or pairs(eqs))
    for text in sample_theories() + perfbench_state_theories(monkeypatch):
        theory = parse_theory_file(text)
        has_normalizer(theory)
        normalizes_to_leaf_sets(theory)
    assert builds == [] and fallbacks == []


def test_a_violated_handler_check_resolves_the_strategy_by_shapes(monkeypatch, tmp_path, capsys):
    from algeff.cli import main

    monkeypatch.syspath_prepend(str(SAMPLES.parent / "perfbench"))
    gen = importlib.import_module("gen")
    theory, handler = tmp_path / "cell.thy", tmp_path / "keeps.eff"
    theory.write_text(gen.state_theory_text(10, False))
    handler.write_text(gen.PUT_KEEPS_STATE_HANDLER)
    fallbacks, resolved = [], []
    pairs, same_laws = free._instance_pairs, free._same_laws
    monkeypatch.setattr(free, "_instance_pairs", lambda eqs: fallbacks.append(eqs) or pairs(eqs))
    monkeypatch.setattr(free, "_same_laws", lambda th, twin, names: resolved.append(
        same_laws(th, twin, names)) or resolved[-1])
    assert main(["check", "handler", str(handler), "--theory", str(theory)]) == 1
    assert capsys.readouterr().out == "Violated: equation put_get, param 0\n"
    # compare_trees met two different leaves, and resolved the theory's
    # strategy by its shapes
    assert resolved == [True] and fallbacks == []


def test_constants_of_different_types_have_different_shapes():
    theory = parse_theory_file(
        "theory t {\n"
        "  op o : unit ~> unit;\n"
        '  equation b (bool) : return true = return true;\n'
        '  equation i (fin 2) : return 1 = return 1;\n'
        '  equation s (enum {"1"}) : return "1" = return "1";\n'
        "}\n"
    )
    shapes = [eq.lhs.shape for eq in theory.eqs]
    assert len(set(shapes)) == 3
    assert [eq.lhs(()) for eq in theory.eqs] == [Return(True), Return(1), Return("1")]


# ---------------------------------------------------------------------------
# The congruence search against the search it replaced


def reference_search(theory, t1, t2, budget):
    """The generator-based breadth-first search, kept as the reference for
    verdicts: every popped tree rebuilds each equation instance and yields
    its neighbours through one nested generator per tree level."""
    from algeff.free import _refutes
    from algeff.terms import sort_key, tree_leaves

    def subtrees(t):
        yield t
        if isinstance(t, OpNode):
            for sub in t.kont:
                yield from subtrees(sub)

    def match(pattern, gens, t, sigma):
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
        return all(match(psub, gens, tsub, sigma) for psub, tsub in zip(pattern.kont, t.kont))

    def instantiate(pattern, gens, sigma):
        if isinstance(pattern, Return):
            return sigma[pattern.value] if pattern.value in gens else pattern
        return OpNode(
            pattern.op, pattern.param, tuple(instantiate(sub, gens, sigma) for sub in pattern.kont)
        )

    def rewrite_everywhere(src, dst, gens, t, pool):
        sigma = {}
        if match(src, gens, t, sigma):
            wanted = {v for v in tree_leaves(dst) if v in gens}
            missing = sorted(wanted - sigma.keys(), key=sort_key)
            for fillers in itertools.product(pool, repeat=len(missing)):
                full = dict(sigma)
                full.update(zip(missing, fillers))
                yield instantiate(dst, gens, full)
        if isinstance(t, OpNode):
            for i, child in enumerate(t.kont):
                for new_child in rewrite_everywhere(src, dst, gens, child, pool):
                    yield OpNode(t.op, t.param, t.kont[:i] + (new_child,) + t.kont[i + 1 :])

    def rewrites(t, pool):
        for eq in theory.eqs:
            gens = frozenset(eq.context.iter_elements())
            for p in eq.param_universe.iter_elements():
                lhs, rhs = eq.lhs(p), eq.rhs(p)
                if lhs == rhs:
                    continue
                yield from rewrite_everywhere(lhs, rhs, gens, t, pool)
                yield from rewrite_everywhere(rhs, lhs, gens, t, pool)

    if t1 == t2:
        return TreeEq.EQUAL
    if _refutes(theory, t1, t2):
        return TreeEq.DISTINCT
    pool = []
    for t in (t1, t2):
        for sub in subtrees(t):
            if sub not in pool:
                pool.append(sub)
    seen = ({t1}, {t2})
    frontiers = ([t1], [t2])
    steps = 0
    while steps < budget and (frontiers[0] or frontiers[1]):
        for side in (0, 1):
            frontier = frontiers[side]
            if not frontier or steps >= budget:
                continue
            steps += 1
            t = frontier.pop(0)
            for nt in rewrites(t, pool):
                if nt in seen[1 - side]:
                    return TreeEq.EQUAL
                if nt not in seen[side]:
                    seen[side].add(nt)
                    frontier.append(nt)
    return TreeEq.UNKNOWN


def state_chain(rng, ops):
    """lookups and updates over state(fin 2, fin 2); each lookup ends one
    branch in a leaf"""
    if ops == 0:
        return Return(rng.randrange(2))
    if rng.random() < 0.5:
        kids = [state_chain(rng, ops - 1), Return(rng.randrange(2))]
        rng.shuffle(kids)
        return OpNode("lookup", rng.randrange(2), tuple(kids))
    return OpNode("update", (rng.randrange(2), rng.randrange(2)), (state_chain(rng, ops - 1),))


def test_search_verdicts_match_the_reference_search_on_the_choice_corpus():
    # choice with abort has the same rewrite rules and no normalizer
    th = CHOICE_EXC
    corpus = tree_corpus(choice_theory(), ["x", "y", "z"], 40, 3, seed=77)
    pairs = [(t1, t2) for i, t1 in enumerate(corpus[:20]) for t2 in corpus[i + 1 : i + 6]]
    assert len(pairs) == 100
    verdicts = set()
    for budget in (1, 30, 300):
        for t1, t2 in pairs:
            verdict = tree_equal_modulo(th, t1, t2, budget)
            assert verdict is reference_search(th, t1, t2, budget), (budget, t1, t2)
            verdicts.add(verdict)
    assert verdicts == set(TreeEq)


def test_search_verdicts_match_the_reference_search_on_state_chains():
    import random

    from algeff.theories import state_theory

    th = state_theory(Fin(2), Fin(2))
    rng = random.Random(5)
    pairs = [(state_chain(rng, 2), state_chain(rng, 2)) for _ in range(20)]
    verdicts = set()
    for budget in (3, 30):
        for t1, t2 in pairs:
            verdict = tree_equal_modulo(th, t1, t2, budget)
            assert verdict is reference_search(th, t1, t2, budget), (budget, t1, t2)
            verdicts.add(verdict)
    assert verdicts == {TreeEq.EQUAL, TreeEq.UNKNOWN}


def test_booleans_and_integers_are_distinct_leaves():
    assert tree_equal_modulo(empty_theory(), Return(1), Return(True)) is TreeEq.DISTINCT
    assert tree_equal_modulo(empty_theory(), Return((0, 1)), Return((0, True))) is TreeEq.DISTINCT


def type_names(v):
    """The names of v's type and, through tuples, of its parts' types."""
    return type(v).__module__, type(v).__qualname__, tuple(map(type_names, v)) if type(v) is tuple else ()


def distinct_leaves_reference(values):
    """``free._distinct_leaves`` as it was before plain values skipped the
    same_value scan: every value is compared with same_value against the
    kept values of its key.  Values of equal key are ordered by their types'
    names, so the order they come in does not show."""
    from algeff.terms import same_value, sort_key

    decorated = sorted(((sort_key(v), v) for v in values), key=lambda d: (d[0], type_names(d[1])))
    out, run_key, run = [], None, []
    for key, v in decorated:
        if key != run_key:
            run_key, run = key, []
        if not any(same_value(v, w) for w in run):
            run.append(v)
            out.append(v)
    return out


class Count(int):
    """An int subclass: its sort key is an int's, but it is never the same
    value as an int."""


class Label(str):
    pass


def test_distinct_leaves_match_the_same_value_scan():
    import random

    rng = random.Random(4)
    pool = [0, 1, 2, True, False, Count(1), Count(0), Count(1), "a", "b", Label("a"), (),
            (0, True), (0, 1), (0, True), (Count(0), True), ((0, "a"), 1), ((0, Label("a")), 1),
            (True,), (1,), [1], None]
    cases = [[1, True, Count(1), (0, True)], [Count(1), 1, Count(1), 1], []]
    cases += [[rng.choice(pool) for _ in range(rng.randint(0, 12))] for _ in range(3000)]
    for values in cases:
        got, expected = free._distinct_leaves(iter(values)), distinct_leaves_reference(values)
        # the same objects, in the same order, as the scan keeps
        assert len(got) == len(expected) and all(map(operator.is_, got, expected)), values


@pytest.mark.parametrize("theory", [choice_theory(), semilattice_theory()], ids=["choice", "semilattice"])
def test_a_leaf_set_met_in_two_orders_is_one_set(theory):
    join = next(o.name for o in theory.ops if o.arity.size() == 2)
    t1, t2 = (OpNode(join, (), (Return(a), Return(b))) for a, b in ((1, Count(1)), (Count(1), 1)))
    assert tree_equal_modulo(theory, t1, t2) is TreeEq.EQUAL
    assert tree_equal_modulo(theory, t2, t1) is TreeEq.EQUAL
    assert normalize(theory, t1) == normalize(theory, t2)
    assert [type(v) for v in tree_leaves(normalize(theory, t1))] == [int, Count]


def leaf_set_reference(t):
    """``free._leaf_set`` as it was before leaf sets were hashed: the leaves
    in preorder (a computation's in materialize's order), then each distinct
    one in sort_key order, found by same_value."""
    leaves, stack = [], [t]
    while stack:
        t = stack.pop()
        if type(t) is Return:
            leaves.append(t.value)
        elif type(t) is OpNode:
            stack += reversed(t.kont)
        elif type(t) is map:  # a computation's branches still to be resumed
            branch = next(t, None)
            if branch is not None:
                stack += (t, branch)
        else:
            stack.append(map(t.resume, t.arity.iter_elements()))
    return tuple(distinct_leaves_reference(leaves))


def leaf_set_tree_reference(theory, leaves):
    """The chain of the binary operation over the leaves, or the unit."""
    join = next(o.name for o in theory.ops if o.arity.size() == 2)
    if not leaves:
        return OpNode(next(o.name for o in theory.ops if o.arity.size() == 0), (), ())
    out = Return(leaves[-1])
    for v in reversed(leaves[:-1]):
        out = OpNode(join, (), (Return(v), out))
    return out


# Leaves of every kind a leaf set meets: bools and ints that are == to each
# other, strs, tuples of these, lists (unhashable), and the frozensets and
# type objects that a hashed leaf set is made of.
PLAIN_LEAVES = [False, True, 0, 1, 2, "a", "b", "1"]
ODD_LEAVES = [(0, True), (0, 1), ("a",), (), [1], [True], frozenset(), frozenset({1, int}),
              frozenset({True, bool}), frozenset({"a", str}), int, bool, str, (int,), Count(1)]
TWINS = {0: False, 1: True, False: 0, True: 1}


def as_computation(theory, t):
    """A head-normal computation (``interp.evaluate``) whose whole tree is
    t: each leaf a variable bound to the leaf's value."""
    from algeff.interp import base_env, evaluate
    from algeff.parser import parse_program

    env = base_env()

    def comp(t):
        if type(t) is Return:
            name = f"x{len(env)}"
            env[name] = t.value
            return f"return {name}"
        if not t.kont:
            return f"{t.op}!()"
        return f"do b <- {t.op}!() in if b then {comp(t.kont[1])} else {comp(t.kont[0])}"

    return evaluate(parse_program(comp(t)), env, theory)


def test_leaf_set_verdicts_and_normal_forms_match_the_sorted_leaf_sets():
    import random

    from algeff.free import materialize
    from algeff.terms import same_value

    rng = random.Random(31)

    def tree(theory, leaves, depth):
        pick = rng.random()
        if depth <= 0 or pick < 0.3:
            return Return(rng.choice(leaves))
        unit = [o.name for o in theory.ops if o.arity.size() == 0]
        if unit and pick < 0.38:
            return OpNode(unit[0], (), ())
        join = next(o.name for o in theory.ops if o.arity.size() == 2)
        return OpNode(join, (), (tree(theory, leaves, depth - 1), tree(theory, leaves, depth - 1)))

    def regroup(theory, t):
        """A tree over the same leaves, shuffled, one repeated, bracketed anew."""
        items = [Return(v) for v in tree_leaves(t)]
        if items:
            items.append(rng.choice(items))
        rng.shuffle(items)
        if not items:
            return t
        join = next(o.name for o in theory.ops if o.arity.size() == 2)
        while len(items) > 1:
            k = rng.randrange(len(items) - 1)
            items[k : k + 2] = [OpNode(join, (), tuple(items[k : k + 2]))]
        return items[0]

    def partner(theory, t, leaves):
        pick = rng.random()
        if pick < 0.4:
            return regroup(theory, t)
        if pick < 0.6:  # 1 read as True, False as 0, and so on
            return fold_tree(t, lambda v: Return(TWINS.get(v, v) if type(v) in (bool, int) else v), OpNode)
        if pick < 0.7:  # an equal list, not the same object
            return fold_tree(t, lambda v: Return(list(v) if type(v) is list else v), OpNode)
        return tree(theory, leaves, 4)

    theories = [choice_theory(), semilattice_theory(),
                parsed_sample("choice.thy", rename="pick"), parsed_sample("semilattice.thy", rename="lub")]
    verdicts, kinds = [], set()
    for theory in theories:
        for _ in range(250):
            leaves = rng.sample(PLAIN_LEAVES, rng.randint(1, 4))
            if rng.random() < 0.4:
                leaves += rng.sample(ODD_LEAVES, rng.randint(1, 2))
            t1 = tree(theory, leaves, 4)
            t2 = partner(theory, t1, leaves)
            x, y = (as_computation(theory, t) if rng.random() < 0.4 else t for t in (t1, t2))
            if type(x) is not type(t1):
                assert materialize(x) == t1
            rx, ry = leaf_set_reference(x), leaf_set_reference(y)
            expected = TreeEq.EQUAL if same_value(rx, ry) else TreeEq.DISTINCT
            assert tree_equal_modulo(theory, x, y) is expected, (t1, t2)
            assert tree_equal_modulo(theory, y, x) is expected, (t2, t1)
            for t, ref in ((x, rx), (y, ry)):
                assert repr(normalize(theory, t)) == repr(leaf_set_tree_reference(theory, ref))
            verdicts.append(expected)
            kinds |= {type(free._leaf_set(theory, free._strategy(theory).names, t)) for t in (x, y)}
    assert kinds == {frozenset, tuple}
    assert 0.25 < verdicts.count(TreeEq.EQUAL) / len(verdicts) < 0.75


def test_a_computation_and_a_tree_with_the_same_leaves_are_equal():
    from algeff.interp import base_env, evaluate
    from algeff.parser import parse_program

    theory = choice_theory()
    program = parse_program("do b <- choose!(()) in if b then return 1 else return 2")
    computation = evaluate(program, base_env(), theory)
    choose = lambda a, b: OpNode("choose", (), (Return(a), Return(b)))
    assert tree_equal_modulo(theory, computation, choose(2, 1)) is TreeEq.EQUAL
    assert tree_equal_modulo(theory, choose(1, 2), computation) is TreeEq.EQUAL
    assert tree_equal_modulo(theory, computation, choose(True, 2)) is TreeEq.DISTINCT
    assert tree_equal_modulo(theory, computation, choose([1], 2)) is TreeEq.DISTINCT
    assert normalize(theory, computation) == choose(1, 2)


def test_searching_does_not_keep_theories_alive():
    import gc
    import weakref

    th = parsed_sample("choice.thy")
    x, y = Return("x"), Return("y")
    t1, t2 = OpNode("choose", (), (x, y)), OpNode("choose", (), (y, x))
    assert tree_equal_modulo(th, t1, t2, budget=50) is TreeEq.EQUAL
    ref = weakref.ref(th)
    del th
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# Normal forms by evaluation: equality reads free-model values


def parity_theories():
    """The theories with a normalizer, built-in and parsed under another
    name."""
    return [STATE2, STATE3, parsed_sample("state2.thy", rename="cell"),
            choice_theory(), semilattice_theory()]


MIXED_LEAVES = [1, True, (0, True)]


def test_equality_by_free_model_values_agrees_with_normal_form_trees():
    for theory in parity_theories():
        corpus = tree_corpus(theory, MIXED_LEAVES, 30, 4, seed=41)
        # each tree also against its normal form, and with 1 read as True
        swapped = [fold_tree(t, lambda v: Return(True if v == 1 else v), OpNode) for t in corpus]
        pairs = itertools.chain(
            itertools.combinations(corpus, 2),
            ((t, normalize(theory, t)) for t in corpus),
            zip(corpus, swapped),
        )
        verdicts = set()
        for t1, t2 in pairs:
            same = normalize(theory, t1) == normalize(theory, t2)
            verdict = tree_equal_modulo(theory, t1, t2)
            assert verdict is (TreeEq.EQUAL if same else TreeEq.DISTINCT), (theory.name, t1, t2)
            verdicts.add(verdict)
        assert verdicts == {TreeEq.EQUAL, TreeEq.DISTINCT}, theory.name


def test_a_foreign_operation_raises_though_an_earlier_state_already_differs():
    flip = OpNode("flip", (), (Return(1), Return(True)))
    for theory in parity_theories()[:3]:
        # from state 0 the runs differ, 1 against True; from state 1 the
        # first tree performs flip
        t1 = get(theory, lambda s: Return(1) if s == 0 else flip)
        t2 = Return(True)
        with pytest.raises(UnknownOperation) as want:
            normalize(theory, t1)
        for pair in ((t1, t2), (t2, t1)):
            with pytest.raises(UnknownOperation) as got:
                tree_equal_modulo(theory, *pair)
            assert str(got.value) == str(want.value) == "not a single-state operation: 'flip'"


def random_program(rng, theory, depth):
    """A well-typed program over a theory with a normalizer, whose leaves
    are all of one type: integers, booleans or (integer, boolean) pairs.
    Some of it runs under a handler that answers the theory's first
    operation with a fixed element of its arity."""
    state = theory.has_op("get")
    n = theory.op("get").arity.size() if state else 2
    kind = rng.choice(["int", "bool", "pair"])
    names = []

    def leaf():
        x = rng.choice(names) if names and state and rng.random() < 0.5 else str(rng.randrange(n))
        b = rng.choice(["true", "false"])
        return {"int": x, "bool": b, "pair": f"({x}, {b})"}[kind]

    def comp(d):
        pick = rng.random()
        if d == 0 or pick < 0.15:
            return f"return {leaf()}"
        name = f"x{len(names)}"
        if state:
            if pick < 0.6:
                names.append(name)
                return f"do {name} <- get!() in {comp(d - 1)}"
            if pick < 0.85:
                value = rng.choice(names) if names and rng.random() < 0.5 else rng.randrange(n)
                return f"do u <- put!({value}) in {comp(d - 1)}"
            clause = f"get(v; k) -> k {rng.randrange(n)}"
        else:
            op = theory.ops[-1].name  # choose, or join
            if pick < 0.75:
                return f"do {name} <- {op}!() in if {name} then {comp(d - 1)} else {comp(d - 1)}"
            if pick < 0.8 and theory.has_op("bot"):
                return f"do {name} <- bot!() in {comp(d - 1)}"
            clause = f"{op}(v; k) -> k {rng.choice(['true', 'false'])}"
        return f"with handler {{ return r -> return r | {clause} }} handle {comp(d - 1)}"

    return comp(depth)


def test_normalizing_a_computation_reads_as_normalizing_its_whole_tree():
    import random

    from algeff.interp import base_env, evaluate, run_program
    from algeff.lang import typecheck_comp
    from algeff.parser import parse_program

    rng = random.Random(43)
    for theory in parity_theories():
        for _ in range(40):
            program = parse_program(random_program(rng, theory, 6))
            typecheck_comp(theory, program)
            expected = normalize(theory, run_program(program, theory).tree)
            assert normalize(theory, evaluate(program, base_env(), theory)) == expected, program


def test_without_a_strategy_a_runtime_error_comes_before_the_missing_normalizer():
    from algeff.errors import EvalError
    from algeff.interp import base_env, evaluate
    from algeff.parser import parse_program

    theory = parsed_sample("state10.thy")
    # only the branch where the cell holds 9 applies k outside its arity
    program = ("do x <- get!() in with handler "
               "{ return r -> return r | get(v; k) -> k (x + 1) } handle get!()")
    with pytest.raises(EvalError, match="continuation applied outside its arity: 10"):
        normalize(theory, evaluate(parse_program(program), base_env(), theory))
    with pytest.raises(NoNormalizer):
        normalize(theory, evaluate(parse_program("do x <- get!() in return x"), base_env(), theory))


# ---------------------------------------------------------------------------
# The 2-element models: each side built once


def two_element_models_by_brute_force(theory):
    """The tables over BOOL that ``validate_model`` accepts, tried one
    after another; the reference for ``free._two_element_models``."""
    from algeff.models import table_model, validate_model
    from algeff.universe import BOOL

    keys = [
        (o.name, p, args)
        for o in theory.ops
        for p in o.param.iter_elements()
        for args in itertools.product(BOOL.elements(), repeat=o.arity.size())
    ]
    found = []
    for values in itertools.product(BOOL.elements(), repeat=len(keys)):
        table = dict(zip(keys, values))
        if validate_model(table_model(theory, BOOL, table)) is None:
            found.append(table)
    return found


def test_the_2_element_models_build_each_side_once_and_are_the_brute_force_ones():
    from algeff.terms import Equation, Theory
    from algeff.theories import group_theory

    found = 0
    for theory in (group_theory(), CHOICE_EXC, STATE2, semilattice_theory()):
        builds = []

        def counted(name, side):
            return lambda p: builds.append((name, p)) or side(p)

        eqs = tuple(
            Equation(e.name, e.param_universe, e.context,
                     counted((e.name, 0), e.lhs), counted((e.name, 1), e.rhs))
            for e in theory.eqs
        )
        models = free._two_element_models(Theory(theory.name, theory.ops, eqs))
        # one build per side and parameter, however many tables are tried
        assert len(builds) == len(set(builds)) == 2 * sum(e.param_universe.size() for e in theory.eqs)
        tables = two_element_models_by_brute_force(theory)
        assert [{key: m.ops[key[0]](*key[1:]) for key in table} for m, table in zip(models, tables)] \
            == tables, theory.name
        assert len(models) == len(tables), theory.name
        found += len(models)
    assert found == 2 + 4 + 0 + 2  # xor/xnor, or/and with abort false/true, none, or/and
