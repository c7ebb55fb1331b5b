import itertools
import random

import pytest

from algeff.comodels import Cointerpretation, validate_comodel
from algeff.errors import EmptyStateUniverse
from algeff.interp import HandlerClosure, HandlerVerdict, base_env, check_handler_equations
from algeff.lang import typecheck_value
from algeff.models import table_model, validate_model
from algeff.parser import parse_value_text
from algeff.terms import Equation, OpDecl, OpNode, Return, Theory, check_theory, rename_tree_ops
from algeff.theories import (
    builtin_theory,
    choice_theory,
    combine,
    empty_theory,
    exception_theory,
    group_theory,
    io_theory,
    semilattice_theory,
    single_state_theory,
    singleton_theory,
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
    # an instance at equal locations, or in the mirror order of a symmetric
    # law, has the same tree on both sides, and is left out
    th = state_theory(Fin(2), Fin(2))
    comm = next(e for e in th.eqs if e.name == "update_update_comm")
    assert not comm.param_universe.contains(((0, 1), (0, 0)))
    assert not comm.param_universe.contains(((1, 0), (0, 1)))
    crossed = ((0, 1), (1, 0))
    assert comm.param_universe.contains(crossed)
    assert comm.lhs(crossed) != comm.rhs(crossed)
    assert comm.param_universe.elements() == [((0, a), (1, b)) for a in range(2) for b in range(2)]
    with pytest.raises(KeyError):
        comm.lhs(((0, 1), (0, 0)))
    update_lookup = next(e for e in th.eqs if e.name == "update_lookup_comm")
    assert not update_lookup.param_universe.contains(((1, 0), 1))
    assert update_lookup.param_universe.size() == 4


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


def test_combine_keeps_every_family_a_shape():
    from algeff.terms import _Instances

    s = single_state_theory(Fin(2))
    for th in (combine(s, s, distribute=True), combine(s, state_theory(Fin(2), BOOL), True),
               combine(s, exception_theory(), distribute=True)):
        assert all(type(side) is _Instances for e in th.eqs for side in (e.lhs, e.rhs)), th.name
    th = combine(s, s, distribute=True)
    assert len(th.eqs) == 12
    assert {e.lhs.ops | e.rhs.ops for e in th.eqs[:8]} == {
        frozenset({"get_single_state"}), frozenset({"get_single_state", "put_single_state"}),
        frozenset({"put_single_state"}), frozenset({"get_single_state2"}),
        frozenset({"get_single_state2", "put_single_state2"}), frozenset({"put_single_state2"}),
    }


def test_combine_renames_a_side_written_as_a_function_by_composition():
    get = OpDecl("get", UNIT, BOOL)
    hand = Theory("hand", (get,), (
        Equation("twice", UNIT, BOOL, lambda p: OpNode("get", (), (Return(False), Return(True))),
                 lambda p: OpNode("get", (), (Return(False), Return(True)))),
    ))
    th = combine(hand, hand)
    assert th.eqs[0].lhs(()) == OpNode("get_hand", (), (Return(False), Return(True)))
    assert th.eqs[1].rhs(()) == OpNode("get_hand2", (), (Return(False), Return(True)))
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


# The state theory's laws as they were written before they were read from
# theory syntax, as closures, kept as the reference that the built-in
# instances must match exactly.  The commutation laws give both sides the
# lhs where their side condition fails: at equal locations, or in the
# mirror order of a symmetric law.


def reference_state(l, s):
    lookup = lambda loc, kont: OpNode("lookup", loc, tuple(kont(v) for v in s.iter_elements()))
    update = lambda loc, v, sub: OpNode("update", (loc, v), (sub,))
    cell = Product(l, s)
    return Theory("state", (OpDecl("lookup", l, s), OpDecl("update", cell, UNIT)), (
        Equation("lookup_lookup", l, Product(s, s),
                 lambda loc: lookup(loc, lambda a: lookup(loc, lambda b: Return((a, b)))),
                 lambda loc: lookup(loc, lambda a: Return((a, a)))),
        Equation("lookup_update", l, UNIT,
                 lambda loc: lookup(loc, lambda a: update(loc, a, Return(()))),
                 lambda loc: Return(())),
        Equation("update_lookup", cell, s,
                 lambda p: update(p[0], p[1], lookup(p[0], lambda b: Return(b))),
                 lambda p: update(p[0], p[1], Return(p[1]))),
        Equation("update_update", Product(cell, s), UNIT,
                 lambda p: update(p[0][0], p[0][1], update(p[0][0], p[1], Return(()))),
                 lambda p: update(p[0][0], p[1], Return(()))),
        *reference_state_commutations(l, s),
    ))


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
    tells leaves such as 1 and True apart, as == does not inside pairs.  A
    reference instance whose two sides are the same tree is trivial: it
    must be absent from the built-in's parameters, and every other one
    present, in the reference's order."""
    assert [e.name for e in actual] == [e.name for e in expected]
    for got, want in zip(actual, expected):
        assert got.context == want.context, want.name
        kept = []
        for p in want.param_universe.iter_elements():
            lhs, rhs = repr(want.lhs(p)), repr(want.rhs(p))
            if lhs == rhs:
                assert not got.param_universe.contains(p), (want.name, p)
                continue
            kept.append(repr(p))
            assert got.param_universe.contains(p), (want.name, p)
            assert repr(got.lhs(p)) == lhs, (want.name, p)
            assert repr(got.rhs(p)) == rhs, (want.name, p)
        assert list(map(repr, got.param_universe.iter_elements())) == kept, want.name
        assert got.param_universe.size() == len(kept), want.name


@pytest.mark.parametrize("l, s", [
    (Fin(2), Fin(2)), (Fin(3), Fin(2)), (Enum(("a", "b", "c")), BOOL),
    (Fin(1), Fin(2)), (Fin(2), Product(Fin(2), BOOL)),
])
def test_state_commutation_laws_match_their_reference(l, s):
    assert_same_theory(state_theory(l, s), reference_state(l, s))


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
    assert [e.name for e in th.eqs[: len(names)]] == names
    assert_same_theory(th, reference_combine(t1, t2, distribute=True))


def reference_of(theory):
    """The closure copy of a built-in theory; one without laws is its own."""
    if theory.name == "state":
        return reference_state(theory.op("lookup").param, theory.op("lookup").arity)
    if theory.name == "single_state":
        return reference_single_state(theory.op("get").arity)
    copies = {"choice": reference_choice, "semilattice": reference_semilattice,
              "group": reference_group, "singleton": reference_singleton}
    return copies[theory.name]() if theory.name in copies else theory


def reference_combine(t1, t2, distribute=False):
    """``combine(t1, t2, distribute)`` as it was written before it renamed
    shapes: each theory's closure copy, each instance of its laws renamed
    tree by tree as the combination renames its operations, then a pair
    of closures for each ``dist_*`` law."""
    th = combine(t1, t2, distribute)
    ops1, ops2 = th.ops[: len(t1.ops)], th.ops[len(t1.ops) :]
    eqs = []
    for ref, ops in ((reference_of(t1), ops1), (reference_of(t2), ops2)):
        mapping = {o.name: new.name for o, new in zip(ref.ops, ops)}
        eqs += [(eq, mapping) for eq in ref.eqs]
    eqs = [
        Equation(got.name, eq.param_universe, eq.context,
                 lambda p, eq=eq, m=m: rename_tree_ops(eq.lhs(p), m),
                 lambda p, eq=eq, m=m: rename_tree_ops(eq.rhs(p), m))
        for got, (eq, m) in zip(th.eqs, eqs)
    ]
    if distribute:
        eqs += [reference_distribution_equation(o1, o2) for o1 in ops1 for o2 in ops2]
    return Theory(th.name, th.ops, eqs, th.renames)


# The built-ins written in theory syntax, as they were written before they
# were read from it, kept as the reference that the parsed built-ins must
# match exactly.


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


def reference_singleton():
    return Theory("singleton", (OpDecl("star", UNIT, EMPTY),), (
        Equation("collapse", UNIT, _XY, _const(Return("x")), _const(Return("y"))),
    ))


def reference_group():
    m = lambda a, b: OpNode("m", (), (a, b))
    inv = lambda a: OpNode("i", (), (a,))
    u = OpNode("u", (), ())
    x, y, z = Return("x"), Return("y"), Return("z")
    return Theory("group", (OpDecl("u", UNIT, EMPTY), OpDecl("m", UNIT, BOOL), OpDecl("i", UNIT, UNIT)), (
        Equation("assoc", UNIT, _XYZ, _const(m(m(x, y), z)), _const(m(x, m(y, z)))),
        Equation("unit_left", UNIT, _X, _const(m(u, x)), _const(x)),
        Equation("unit_right", UNIT, _X, _const(m(x, u)), _const(x)),
        Equation("inv_right", UNIT, _X, _const(m(x, inv(x))), _const(u)),
        Equation("inv_left", UNIT, _X, _const(m(inv(x), x)), _const(u)),
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


def test_group_and_singleton_laws_match_their_reference():
    assert_same_theory(group_theory(), reference_group())
    assert_same_theory(singleton_theory(), reference_singleton())
    assert group_theory() is group_theory() and singleton_theory() is singleton_theory()
    for theory in (group_theory(), singleton_theory()):
        assert all(e.lhs.shape and e.rhs.shape for e in theory.eqs)


def test_the_universe_names_of_a_builtin_text_are_not_read_in_a_user_file():
    from algeff.errors import ParseError
    from algeff.parser import parse_theory_file

    with pytest.raises(ParseError) as err:
        parse_theory_file("theory t { op get : unit ~> S; }")
    assert err.value.reason == "expected a universe, found 'S'"


def test_no_law_is_left_out_of_a_combination_with_a_state_theory():
    t1, t2 = state_theory(Fin(2), BOOL), single_state_theory(Fin(2))
    assert_same_theory(combine(t1, t2, distribute=True), reference_combine(t1, t2, distribute=True))


# No verdict or witness moves between the built-ins and their closure copies:
# model and comodel validation, and the handler check, which counts fewer
# instances of the state theory, so only Unknown may become Respected.


def pinned_combination(t1, t2):
    return combine(t1, t2, distribute=True), reference_combine(t1, t2, distribute=True)


PINNED = [
    ("state(fin 2, fin 2)", lambda: (state_theory(Fin(2), Fin(2)), reference_state(Fin(2), Fin(2)))),
    ("state(fin 3, bool)", lambda: (state_theory(Fin(3), BOOL), reference_state(Fin(3), BOOL))),
    ("single_state(fin 2)+single_state(fin 3)",
     lambda: pinned_combination(single_state_theory(Fin(2)), single_state_theory(Fin(3)))),
    ("single_state(fin 2)+choice",
     lambda: pinned_combination(single_state_theory(Fin(2)), choice_theory())),
]
PINNED_IDS = [name for name, _ in PINNED]


def random_table(theory, carrier, rng):
    """A model table over ``carrier``: each operation at each parameter
    either projects one of its arguments or gives random values."""
    elements, table = carrier.elements(), {}
    for o in theory.ops:
        for p in o.param.iter_elements():
            project = rng.randrange(o.arity.size() + 1) - 1
            for args in itertools.product(elements, repeat=o.arity.size()):
                table[o.name, p, args] = args[project] if project >= 0 else rng.choice(elements)
    return table


@pytest.mark.parametrize("make", [make for _, make in PINNED], ids=PINNED_IDS)
def test_model_validation_gives_the_closure_copy_s_verdict_and_witness(make):
    th, ref = make()
    rng = random.Random(th.name)
    for carrier in (UNIT, BOOL, BOOL, BOOL):
        for _ in range(10):
            table = random_table(th, carrier, rng)
            got = validate_model(table_model(th, carrier, table))
            assert repr(got) == repr(validate_model(table_model(ref, carrier, table)))


def store_table(theory, entangled=False):
    """A lawful comodel of a pinned theory as a table, ``(op, param,
    world) -> (result, world)``, and its world: each world a store of the
    state theory's locations, or of one cell per get (and per put after
    it) and a bit that ``choose`` reads and flips.  ``entangled`` keeps the
    last cell relative to the first: its value is the stored one shifted
    by the first cell's index, which keeps every law of one cell and
    breaks the commutation laws between the two."""
    if theory.name == "state":
        l, s = theory.op("lookup").param, theory.op("lookup").arity
        cells = [(s, "lookup", "update", loc) for loc in l.elements()]
    else:
        cells = [(o.arity, o.name, None, ()) for o in theory.ops if o.param == UNIT]
        puts = iter(o.name for o in theory.ops if o.arity == UNIT)
        cells = [(u, get, None if get == "choose" else next(puts), p) for u, get, _, p in cells]
    stores = list(itertools.product(*(u.elements() for u, *_ in cells)))
    table = {}
    for w, store in enumerate(stores):
        for i, (u, get, put, p) in enumerate(cells):
            after = (lambda v: stores.index(store[:i] + (v,) + store[i + 1:]))
            shift = 0
            if entangled and i == len(cells) - 1:
                shift = cells[0][0].index_of(store[0])
            shifted = lambda v, by: u.elements()[(u.index_of(v) + by) % u.size()]
            value = shifted(store[i], shift)
            table[get, p, w] = (value, after(not value) if get == "choose" else w)
            for v in u.elements() if put else ():
                table[put, (p, v) if theory.name == "state" else v, w] = ((), after(shifted(v, -shift)))
    return Fin(len(stores)), table


def table_comodel(theory, world, table):
    return Cointerpretation(
        theory, world, {o.name: (lambda p, w, name=o.name: table[name, p, w]) for o in theory.ops})


@pytest.mark.parametrize("make", [make for _, make in PINNED], ids=PINNED_IDS)
def test_comodel_validation_gives_the_closure_copy_s_verdict_and_witness(make):
    th, ref = make()
    world, table = store_table(th)
    lawful = validate_comodel(table_comodel(th, world, table))
    assert (lawful is None) == ("choice" not in th.name)
    assert repr(lawful) == repr(validate_comodel(table_comodel(ref, world, table)))
    if "choice" not in th.name:
        world, entangled = store_table(th, entangled=True)
        got = validate_comodel(table_comodel(th, world, entangled))
        assert got.equation in ("update_lookup_comm", "dist_put_single_state_get_single_state2")
        assert repr(got) == repr(validate_comodel(table_comodel(ref, world, entangled)))
    for key, (result, after) in table.items():  # each entry wrong in turn
        arity = th.op(key[0]).arity.elements()
        if len(arity) > 1:
            wrong = (arity[(arity.index(result) + 1) % len(arity)], after)
        else:
            wrong = (result, (after + 1) % world.size())
        wrong_table = {**table, key: wrong}
        got = validate_comodel(table_comodel(th, world, wrong_table))
        assert repr(got) == repr(validate_comodel(table_comodel(ref, world, wrong_table))), key


STATE_HANDLERS = {
    "one-cell": "handler { return x -> return (fun s -> return (x, s))"
                " | lookup(l; k) -> return (fun s -> do f <- k s in f s)"
                " | update(p; k) -> return (fun s -> do v <- snd p in do f <- k () in f v) }",
    "update-keeps-state": "handler { return x -> return (fun s -> return (x, s))"
                          " | lookup(l; k) -> return (fun s -> do f <- k s in f s)"
                          " | update(p; k) -> return (fun s -> do f <- k () in f s) }",
    "no-update-clause": "handler { return x -> return (fun s -> return (x, s))"
                        " | lookup(l; k) -> return (fun s -> do f <- k s in f s) }",
    "forwards": "handler { return x -> return x | lookup(l; k) -> do v <- lookup!(l) in k v"
                " | update(p; k) -> do u <- update!(p) in k u }",
    # replayed at a symbol, whose projections range over an Apart's parts
    "projects": "handler { return x -> return 0 | lookup(l; k) -> return 0"
                " | update(p; k) -> do l <- fst p in k () }",
}

CELL = "return (fun s -> return (x, s))"
CELLS_HANDLERS = {
    "first-cell": "handler { return x -> " + CELL +
                  " | get_single_state(u; k) -> return (fun s -> do f <- k s in f s)"
                  " | put_single_state(s2; k) -> return (fun s -> do f <- k () in f s2) }",
    # the two cells as two curried state arguments
    "both-cells": "handler { return x -> return (fun a -> return (fun b -> return (x, (a, b))))"
                  " | get_single_state(u; k) -> return (fun a -> return (fun b ->"
                  " do f <- k a in do g <- f a in g b))"
                  " | put_single_state(v; k) -> return (fun a -> return (fun b ->"
                  " do f <- k () in do g <- f v in g b))"
                  " | get_single_state2(u; k) -> return (fun a -> return (fun b ->"
                  " do f <- k b in do g <- f a in g b))"
                  " | put_single_state2(v; k) -> return (fun a -> return (fun b ->"
                  " do f <- k () in do g <- f a in g v)) }",
    "second-keeps-state": "handler { return x -> " + CELL +
                          " | get_single_state2(u; k) -> return (fun s -> do f <- k s in f s)"
                          " | put_single_state2(s2; k) -> return (fun s -> do f <- k () in f s) }",
}

CHOICE_HANDLERS = {
    "cell-and-left-choice": "handler { return x -> " + CELL +
                            " | get(u; k) -> return (fun s -> do f <- k s in f s)"
                            " | put(s2; k) -> return (fun s -> do f <- k () in f s2)"
                            " | choose(u; k) -> k true }",
    "cell-only": "handler { return x -> " + CELL +
                 " | get(u; k) -> return (fun s -> do f <- k s in f s)"
                 " | put(s2; k) -> return (fun s -> do f <- k () in f s2) }",
    "forwards": "handler { return x -> return x | get(u; k) -> do v <- get!(u) in k v"
                " | put(s2; k) -> do u <- put!(s2) in k u | choose(u; k) -> do b <- choose!(u) in k b }",
}


@pytest.mark.parametrize("make", [make for _, make in PINNED], ids=PINNED_IDS)
def test_the_handler_check_gives_the_closure_copy_s_verdict_and_witness(make):
    th, ref = make()
    handlers = (STATE_HANDLERS if th.name == "state" else
                CHOICE_HANDLERS if "choice" in th.name else CELLS_HANDLERS)
    for name, text in handlers.items():
        code = parse_value_text(text)
        out = typecheck_value(th, code).out
        h = HandlerClosure(code, base_env())
        for budget in (None, 0, 1, 5, 20):
            got = check_handler_equations(h, th, out, budget)
            want = check_handler_equations(h, ref, out, budget)
            if got != want:  # fewer instances counted
                assert (want.verdict, got.verdict) == (HandlerVerdict.UNKNOWN, HandlerVerdict.RESPECTED)
                assert got.skipped == want.skipped, (name, budget)
