import itertools
import re

import pytest

from algeff.errors import (
    IncompleteContinuation,
    ParameterOutOfUniverse,
    UnboundGenerator,
    UnknownOperation,
)
from algeff.terms import (
    OpNode,
    Return,
    check_theory,
    check_tree,
    make_tree_op,
    rename_tree_ops,
    substitute,
    tree_depth,
    tree_leaves,
    tree_ops,
)
from algeff.theories import (
    builtin_names,
    builtin_theory,
    choice_theory,
    exception_theory,
    semilattice_theory,
    single_state_theory,
)
from algeff.universe import Enum, Fin


def vee(a, b):
    return OpNode("join", (), (a, b))


def test_make_tree_op_generic_choice():
    th = choice_theory()
    t = make_tree_op(th, "choose", (), {False: Return(False), True: Return(True)})
    assert t == OpNode("choose", (), (Return(False), Return(True)))


def test_make_tree_op_leafless_abort():
    th = exception_theory()
    t = make_tree_op(th, "abort", (), {})
    assert t == OpNode("abort", (), ())


def test_make_tree_op_rejects_bad_parameter():
    th = single_state_theory(Fin(3))
    with pytest.raises(ParameterOutOfUniverse):
        make_tree_op(th, "get", 5, {s: Return(s) for s in range(3)})


def test_make_tree_op_rejects_unknown_operation():
    with pytest.raises(UnknownOperation):
        make_tree_op(choice_theory(), "flip", (), {})


def test_make_tree_op_rejects_incomplete_continuation():
    th = single_state_theory(Fin(3))
    with pytest.raises(IncompleteContinuation):
        make_tree_op(th, "get", (), {0: Return(0), 1: Return(1)})


def test_substitute_leaf():
    assert substitute(Return("x"), {"x": Return(7)}) == Return(7)


def test_substitute_structural():
    # worked by hand: vee(x, y) under x -> vee(z, z), y -> z
    t = vee(Return("x"), Return("y"))
    sigma = {"x": vee(Return("z"), Return("z")), "y": Return("z")}
    assert substitute(t, sigma) == vee(vee(Return("z"), Return("z")), Return("z"))


def test_substitute_identity():
    trees = [
        Return("x"),
        vee(Return("x"), vee(Return("y"), Return("x"))),
        OpNode("bot", (), ()),
    ]
    identity = {v: Return(v) for v in ("x", "y")}
    for t in trees:
        assert substitute(t, identity) == t


def test_substitute_unbound_generator():
    with pytest.raises(UnboundGenerator):
        substitute(Return("q"), {"x": Return(1)})


def small_tree_pool(gens):
    leaves = [Return(g) for g in gens]
    pool = list(leaves)
    for a in leaves:
        for b in leaves:
            pool.append(vee(a, b))
    return pool


def test_substitution_composes():
    # substitute(substitute(t, s), u) == substitute(t, x -> substitute(s(x), u))
    gens = ("x", "y")
    assign_pool = small_tree_pool(gens)[:4]
    trees = small_tree_pool(("x", "y"))
    for t in trees:
        for s_picks in itertools.product(assign_pool, repeat=2):
            sigma = dict(zip(gens, s_picks))
            for u_picks in itertools.product(assign_pool[:2], repeat=2):
                tau = dict(zip(gens, u_picks))
                composed = {g: substitute(sigma[g], tau) for g in gens}
                assert substitute(substitute(t, sigma), tau) == substitute(t, composed)


BUILTIN_INSTANCES = [
    builtin_theory("single_state", Fin(3)),
    builtin_theory("state", Fin(2), Fin(2)),
    builtin_theory("io", Enum(("a", "b"))),
    builtin_theory("exception"),
    builtin_theory("choice"),
    builtin_theory("semilattice"),
    builtin_theory("pointed_set"),
    builtin_theory("empty"),
    builtin_theory("singleton"),
    builtin_theory("group"),
]


@pytest.mark.parametrize("theory", BUILTIN_INSTANCES, ids=lambda t: t.name)
def test_builtin_theories_are_well_formed(theory):
    check_theory(theory)


def test_builtin_names_cover_the_registry():
    assert set(builtin_names()) == {
        "state",
        "single_state",
        "io",
        "exception",
        "choice",
        "semilattice",
        "pointed_set",
        "empty",
        "singleton",
        "group",
    }


def test_tree_depth_and_leaves():
    th = semilattice_theory()
    t = vee(Return("x"), vee(Return("y"), OpNode("bot", (), ())))
    assert tree_depth(t) == 3
    assert list(tree_leaves(t)) == ["x", "y"]


def test_trees_respect_the_types_of_their_values():
    assert len({Return(1), Return(True)}) == 2
    assert Return(1) != Return(True)
    assert Return((0, 1)) != Return((0, True))
    assert Return((0, 1)) == Return((0, 1))
    put = lambda v: OpNode("put", v, (Return(()),))
    assert put(1) != put(True)
    assert len({put(1), put(True)}) == 2
    assert OpNode("update", (0, 1), ()) != OpNode("update", (0, True), ())


def chain(depth, bottom):
    t = Return(bottom)
    for i in range(depth):
        t = OpNode("put", i % 2, (t,))
    return t


def test_deep_trees_compare_and_hash_without_recursion():
    a, b = chain(10_000, 0), chain(10_000, 0)
    assert a is not b
    assert hash(a) == hash(b)
    assert a == b
    assert len({a, b}) == 1
    c = chain(10_000, 1)
    assert a != c
    d = chain(10_000, 0)
    assert d == a  # d has no cached hash yet
    assert d == chain(10_000, 0)  # neither has


def test_tree_ops_collects_every_operation_without_recursion():
    assert tree_ops(Return("x")) == set()
    assert tree_ops(vee(Return("x"), vee(Return("y"), OpNode("bot", (), ())))) == {"join", "bot"}
    deep = OpNode("get", (), (chain(10_000, 0), OpNode("abort", (), ())))
    assert tree_ops(deep) == {"get", "put", "abort"}


def test_walkers_take_a_tree_of_any_depth():
    th = single_state_theory(Fin(2))
    t = chain(5_000, "x")
    assert substitute(t, {"x": Return("x")}) == t
    assert tree_depth(t) == 5_000
    assert tree_ops(rename_tree_ops(t, {"put": "p"})) == {"p"}
    check_tree(th, Enum(("x",)), t)
    message = f"leaf 'y' is not a generator of context {Enum(('x',))}"
    with pytest.raises(UnboundGenerator, match=re.escape(message)):
        check_tree(th, Enum(("x",)), chain(5_000, "y"))


def test_substitute_names_the_leftmost_missing_generator():
    t = vee(vee(Return("x"), Return("a")), Return("b"))
    with pytest.raises(UnboundGenerator, match="generator 'a'"):
        substitute(t, {"x": Return(0)})


def test_unhashed_leaves_are_fine_until_hashed():
    t = OpNode("put", 0, (Return({"env": 1}),))
    assert t == OpNode("put", 0, (Return({"env": 1}),))
    with pytest.raises(TypeError):
        hash(t)


def test_trees_are_immutable_and_copy():
    import copy
    import pickle

    t = OpNode("put", 0, (Return(0),))
    with pytest.raises(AttributeError):
        t.param = 1
    with pytest.raises(AttributeError):
        Return(0).value = 1
    assert copy.deepcopy(t) == t
    assert pickle.loads(pickle.dumps(t)) == t


def test_a_budget_1_law_check_over_a_large_state_theory_builds_one_instance_pair(monkeypatch):
    # coverage is read from the sides' shapes: over its 176,840 instances,
    # building each took seconds and hundreds of MiB
    from algeff import terms
    from algeff.theories import state_theory

    builds, call = [], terms._Instances.__call__
    monkeypatch.setattr(terms._Instances, "__call__", lambda self, p: builds.append(p) or call(self, p))
    checked = []
    verdict = terms._check_laws(state_theory(Fin(20), Fin(20)).eqs,
                                lambda eq, p, lhs, rhs: checked.append(p) or True,
                                {"lookup", "update"}, budget=1)
    assert verdict == (None, [], True)
    assert checked == [0] and builds == [0, 0]
