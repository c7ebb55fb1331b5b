import pytest

from algeff.errors import EmptyStateUniverse
from algeff.terms import Equation, OpDecl, OpNode, Return, Theory, check_theory
from algeff.theories import (
    builtin_theory,
    choice_theory,
    combine,
    empty_theory,
    io_theory,
    semilattice_theory,
    single_state_theory,
    state_theory,
)
from algeff.universe import BOOL, EMPTY, UNIT, Enum, Fin, Product


def test_single_state_shape():
    th = single_state_theory(Fin(2))
    assert len(th.ops) == 2
    assert len(th.eqs) == 4
    assert th.op("get").arity == Fin(2)
    assert th.op("put").param == Fin(2)
    assert [e.name for e in th.eqs] == ["get_get", "get_put", "put_get", "put_put"]


def test_single_state_get_get_instance():
    th = single_state_theory(Fin(2))
    eq = th.eqs[0]
    lhs = eq.lhs(())
    # get((); s. get((); t. return (s, t)))
    assert lhs == OpNode(
        "get",
        (),
        (
            OpNode("get", (), (Return((0, 0)), Return((0, 1)))),
            OpNode("get", (), (Return((1, 0)), Return((1, 1)))),
        ),
    )
    assert eq.rhs(()) == OpNode("get", (), (Return((0, 0)), Return((1, 1))))


def test_io_theory_has_no_equations():
    th = io_theory(Enum(("a", "b")))
    assert len(th.ops) == 2
    assert th.eqs == ()


def test_exception_theory():
    th = builtin_theory("exception")
    assert [o.name for o in th.ops] == ["abort"]
    assert th.op("abort").param == UNIT
    assert th.op("abort").arity == EMPTY
    assert th.eqs == ()


def test_state_theory_shape():
    th = state_theory(Fin(2), Fin(2))
    assert len(th.ops) == 2
    assert len(th.eqs) == 7
    assert th.op("update").param == Product(Fin(2), Fin(2))
    check_theory(th)


def test_state_distributivity_degenerate_on_equal_locations():
    th = state_theory(Fin(2), Fin(2))
    comm = next(e for e in th.eqs if e.name == "update_update_comm")
    same = ((0, 1), (0, 0))
    assert comm.lhs(same) == comm.rhs(same)
    crossed = ((0, 1), (1, 0))
    assert comm.lhs(crossed) != comm.rhs(crossed)


def test_empty_state_universe_is_rejected():
    with pytest.raises(EmptyStateUniverse):
        single_state_theory(EMPTY)
    with pytest.raises(EmptyStateUniverse):
        state_theory(Fin(2), EMPTY)


def test_builtin_constructors_are_memoized():
    assert builtin_theory("choice") is choice_theory()
    assert single_state_theory(Fin(3)) is single_state_theory(Fin(3))


def test_combine_state_and_io():
    th = combine(single_state_theory(Fin(2)), io_theory(Fin(2)))
    assert len(th.ops) == 4
    assert len(th.eqs) == 4
    assert th.renames == ()
    check_theory(th)


def test_combine_two_single_states_with_distribution():
    s = single_state_theory(Fin(2))
    th = combine(s, s, distribute=True)
    names = set(th.op_names())
    assert len(names) == 4
    assert names != {"get", "put"}  # collisions were renamed
    assert dict(th.renames)  # and the renaming is recorded
    # four per-copy law families each, plus one commutation per op pair
    assert len(th.eqs) == 4 + 4 + 4
    check_theory(th)


def test_combine_empty_is_neutral():
    th = combine(empty_theory(), choice_theory())
    assert th.op_names() == choice_theory().op_names()
    assert len(th.eqs) == len(choice_theory().eqs)
    check_theory(th)


def test_distribution_equation_shape():
    th = combine(choice_theory(), io_theory(Enum(("a",))), distribute=True)
    dist = next(e for e in th.eqs if e.name == "dist_choose_print")
    lhs = dist.lhs(((), "a"))
    # choose((); b. print(a; u. return (b, u)))
    assert lhs == OpNode(
        "choose",
        (),
        (
            OpNode("print", "a", (Return((False, ())),)),
            OpNode("print", "a", (Return((True, ())),)),
        ),
    )
    rhs = dist.rhs(((), "a"))
    assert rhs == OpNode(
        "print",
        "a",
        (
            OpNode("choose", (), (Return((False, ())), Return((True, ())))),
        ),
    )
    check_theory(th)


# The commutation laws as they were written before they shared one builder,
# kept as the reference that the built-in instances must match exactly.


def reference_state_commutations(l, s):
    lookup = lambda loc, kont: OpNode("lookup", loc, tuple(kont(v) for v in s.iter_elements()))
    update = lambda loc, v, sub: OpNode("update", (loc, v), (sub,))

    def _ll_lhs(p):
        a, b = p
        return lookup(a, lambda v: lookup(b, lambda w: Return((v, w))))

    def _ll_rhs(p):
        a, b = p
        if l.index_of(a) >= l.index_of(b):
            return _ll_lhs(p)
        return lookup(b, lambda w: lookup(a, lambda v: Return((v, w))))

    def _ul_lhs(p):
        (a, v), b = p
        return update(a, v, lookup(b, lambda w: Return(w)))

    def _ul_rhs(p):
        (a, v), b = p
        if a == b:
            return _ul_lhs(p)
        return lookup(b, lambda w: update(a, v, Return(w)))

    def _uu_lhs(p):
        (a, v), (b, w) = p
        return update(a, v, update(b, w, Return(())))

    def _uu_rhs(p):
        (a, v), (b, w) = p
        if l.index_of(a) >= l.index_of(b):
            return _uu_lhs(p)
        return update(b, w, update(a, v, Return(())))

    cell = Product(l, s)
    return [
        Equation("lookup_lookup_comm", Product(l, l), Product(s, s), _ll_lhs, _ll_rhs),
        Equation("update_lookup_comm", Product(cell, l), s, _ul_lhs, _ul_rhs),
        Equation("update_update_comm", Product(cell, cell), UNIT, _uu_lhs, _uu_rhs),
    ]


def reference_distribution_equation(o1, o2):
    def lhs(p):
        p1, p2 = p
        return OpNode(
            o1.name,
            p1,
            tuple(
                OpNode(o2.name, p2, tuple(Return((a1, a2)) for a2 in o2.arity.iter_elements()))
                for a1 in o1.arity.iter_elements()
            ),
        )

    def rhs(p):
        p1, p2 = p
        return OpNode(
            o2.name,
            p2,
            tuple(
                OpNode(o1.name, p1, tuple(Return((a1, a2)) for a1 in o1.arity.iter_elements()))
                for a2 in o2.arity.iter_elements()
            ),
        )

    return Equation(
        f"dist_{o1.name}_{o2.name}",
        Product(o1.param, o2.param),
        Product(o1.arity, o2.arity),
        lhs,
        rhs,
    )


def assert_same_laws(actual, expected):
    """The same equations in the same order, instance by instance; repr
    tells leaves such as 1 and True apart, as == does not inside pairs."""
    assert [e.name for e in actual] == [e.name for e in expected]
    for got, want in zip(actual, expected):
        assert got.param_universe == want.param_universe, want.name
        assert got.context == want.context, want.name
        for p in want.param_universe.iter_elements():
            assert repr(got.lhs(p)) == repr(want.lhs(p)), (want.name, p)
            assert repr(got.rhs(p)) == repr(want.rhs(p)), (want.name, p)


@pytest.mark.parametrize("l, s", [
    (Fin(2), Fin(2)), (Fin(3), Fin(2)), (Enum(("a", "b", "c")), BOOL),
])
def test_state_commutation_laws_match_their_reference(l, s):
    th = state_theory(l, s)
    assert [e.name for e in th.eqs[:4]] == [
        "lookup_lookup", "lookup_update", "update_lookup", "update_update",
    ]
    assert_same_laws(th.eqs, [*th.eqs[:4], *reference_state_commutations(l, s)])


@pytest.mark.parametrize("t1, t2, names", [
    (single_state_theory(Fin(2)), choice_theory(),
     ["get_get", "get_put", "put_get", "put_put", "comm", "idem", "assoc"]),
    (choice_theory(), io_theory(BOOL), ["comm", "idem", "assoc"]),
    (single_state_theory(Fin(2)), single_state_theory(Fin(3)),
     ["get_get", "get_put", "put_get", "put_put",
      "get_get2", "get_put2", "put_get2", "put_put2"]),
])
def test_distribution_laws_match_their_reference(t1, t2, names):
    th = combine(t1, t2, distribute=True)
    ops1, ops2 = th.ops[: len(t1.ops)], th.ops[len(t1.ops) :]
    reference = [reference_distribution_equation(o1, o2) for o1 in ops1 for o2 in ops2]
    assert [e.name for e in th.eqs[: len(names)]] == names
    assert_same_laws(th.eqs, [*th.eqs[: len(names)], *reference])


# The three built-ins that lend their normalizers, as they were written
# before they were read from theory syntax, kept as the reference that the
# parsed built-ins must match exactly.


def _const(tree):
    return lambda _p: tree


def reference_single_state(s):
    get = lambda kont: OpNode("get", (), tuple(kont(v) for v in s.iter_elements()))
    put = lambda v, sub: OpNode("put", v, (sub,))
    return Theory("single_state", (OpDecl("get", UNIT, s), OpDecl("put", s, UNIT)), (
        Equation("get_get", UNIT, Product(s, s),
                 _const(get(lambda a: get(lambda b: Return((a, b))))),
                 _const(get(lambda a: Return((a, a))))),
        Equation("get_put", UNIT, UNIT, _const(get(lambda a: put(a, Return(())))),
                 _const(Return(()))),
        Equation("put_get", s, s, lambda p: put(p, get(lambda b: Return(b))),
                 lambda p: put(p, Return(p))),
        Equation("put_put", Product(s, s), UNIT, lambda p: put(p[0], put(p[1], Return(()))),
                 lambda p: put(p[1], Return(()))),
    ))


_X, _XY, _XYZ = Enum(("x",)), Enum(("x", "y")), Enum(("x", "y", "z"))


def reference_choice():
    vee = lambda a, b: OpNode("choose", (), (a, b))
    x, y, z = Return("x"), Return("y"), Return("z")
    return Theory("choice", (OpDecl("choose", UNIT, BOOL),), (
        Equation("comm", UNIT, _XY, _const(vee(x, y)), _const(vee(y, x))),
        Equation("idem", UNIT, _X, _const(vee(x, x)), _const(x)),
        Equation("assoc", UNIT, _XYZ, _const(vee(vee(x, y), z)), _const(vee(x, vee(y, z)))),
    ))


def reference_semilattice():
    vee = lambda a, b: OpNode("join", (), (a, b))
    bot = OpNode("bot", (), ())
    x, y, z = Return("x"), Return("y"), Return("z")
    return Theory("semilattice", (OpDecl("bot", UNIT, EMPTY), OpDecl("join", UNIT, BOOL)), (
        Equation("assoc", UNIT, _XYZ, _const(vee(x, vee(y, z))), _const(vee(vee(x, y), z))),
        Equation("comm", UNIT, _XY, _const(vee(x, y)), _const(vee(y, x))),
        Equation("idem", UNIT, _X, _const(vee(x, x)), _const(x)),
        Equation("unit", UNIT, _X, _const(vee(x, bot)), _const(x)),
    ))


def assert_same_theory(actual, expected):
    assert (actual.name, actual.ops, actual.renames) == (expected.name, expected.ops, expected.renames)
    assert_same_laws(actual.eqs, expected.eqs)


@pytest.mark.parametrize("s", [
    Fin(1), Fin(2), Fin(3), Fin(4), BOOL, UNIT, Enum(("a", "b")), Product(Fin(2), BOOL),
], ids=str)
def test_single_state_laws_match_their_reference(s):
    assert_same_theory(single_state_theory(s), reference_single_state(s))
    assert single_state_theory(s) is single_state_theory(s)


def test_choice_and_semilattice_laws_match_their_reference():
    assert_same_theory(choice_theory(), reference_choice())
    assert_same_theory(semilattice_theory(), reference_semilattice())
    assert choice_theory() is choice_theory()
    assert semilattice_theory() is semilattice_theory()
    with pytest.raises(EmptyStateUniverse):
        single_state_theory(EMPTY)


def test_the_universe_names_of_a_builtin_text_are_not_read_in_a_user_file():
    from algeff.errors import ParseError
    from algeff.parser import parse_theory_file

    with pytest.raises(ParseError) as err:
        parse_theory_file("theory t { op get : unit ~> S; }")
    assert err.value.reason == "expected a universe, found 'S'"
