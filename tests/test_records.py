"""The package's records: plain slotted classes that import without
generating code, compare and hash by their fields (never by a source
position), print as ``Name(field=value, ...)``, refuse assignment, and
survive copying and pickling."""

import copy
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from algeff.comodels import Done, Stuck
from algeff.interp import Closure, Suspended, SymVal
from algeff.lang import T_INT, TBool, CompType, Do, Return, TInt, Var
from algeff.models import FiniteModel
from algeff.terms import Equation, OpDecl, Theory
from algeff.terms import Return as Leaf
from algeff.universe import BOOL, UNIT, Bool, Fin, Product, Unit

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_package_loads_no_code_generator():
    # -S keeps site's own imports out, so only algeff's are seen
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import algeff, algeff.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def comp_type():
    return CompType(T_INT, frozenset({"get"}))


def theory():
    return Theory("cell", (OpDecl("get", UNIT, BOOL), OpDecl("put", BOOL, UNIT)))


def equation():
    same = lambda p: Leaf("x")
    return Equation("refl", UNIT, UNIT, same, same)


# one record of each kind, built twice over, and its exact repr
RECORDS = [
    (lambda: Fin(3), "Fin(n=3)"),
    (lambda: Product(Fin(2), BOOL), "Product(left=Fin(n=2), right=Bool())"),
    (lambda: Var("x"), "Var(name='x')"),
    (
        lambda: Do("x", Return(Var("y")), Return(Var("x"))),
        "Do(name='x', first=Return(value=Var(name='y')), rest=Return(value=Var(name='x')))",
    ),
    (comp_type, "CompType(value=TInt(), dirt=frozenset({'get'}))"),
    (
        lambda: Closure("x", Return(Var("x")), {}),
        "Closure(param='x', body=Return(value=Var(name='x')), env={})",
    ),
    (lambda: SymVal(("kont", "x"), (1,)), "SymVal(base=('kont', 'x'), args=(1,))"),
    (lambda: Done(1, 2), "Done(value=1, world=2)"),
    (lambda: Stuck("get", (), 0), "Stuck(op='get', param=(), world=0)"),
    (lambda: OpDecl("get", UNIT, BOOL), "OpDecl(name='get', param=Unit(), arity=Bool())"),
    (
        theory,
        "Theory(name='cell', ops=(OpDecl(name='get', param=Unit(), arity=Bool()), "
        "OpDecl(name='put', param=Bool(), arity=Unit())), eqs=(), renames=())",
    ),
]
BY_VALUE = [(make, text) for make, text in RECORDS if make is not theory]
IDS, VALUE_IDS = ([text.split("(")[0] for _, text in rows] for rows in (RECORDS, BY_VALUE))


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_repr_names_the_fields(make, text):
    assert repr(make()) == text


def test_repr_of_an_equation_shows_its_fields_in_order():
    assert repr(equation()).startswith("Equation(name='refl', param_universe=Unit(), context=")


@pytest.mark.parametrize("make, text", BY_VALUE, ids=VALUE_IDS)
def test_records_of_a_class_compare_and_hash_by_their_fields(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if type(a) is not Closure:
        assert hash(a) == hash(b)


def test_the_hash_is_the_hash_of_the_fields_tuple():
    assert hash(Fin(3)) == hash((3,))
    assert hash(Product(Fin(2), BOOL)) == hash((Fin(2), BOOL))
    assert hash(Unit()) == hash(())


def test_records_of_different_classes_differ():
    assert TInt() == TInt() and TInt() != TBool()
    assert Unit() != Bool()
    assert Return(1) != Leaf(1) and Leaf(1) != Return(1)
    assert Fin(2) != 2


def test_position_is_left_out_of_equality_hash_and_repr():
    here, there = Var("x", pos=(1, 2)), Var("x", pos=(3, 4))
    assert here == there == Var("x") and hash(here) == hash(there)
    assert repr(here) == "Var(name='x')"
    do = lambda pos: Do("x", Return(here, pos=pos), Return(there), pos=pos)
    assert do((1, 1)) == do((5, 9)) and hash(do((1, 1))) == hash(do(None))


def test_a_closure_over_a_dict_environment_cannot_be_hashed():
    with pytest.raises(TypeError):
        hash(Closure("x", Return(Var("x")), {"y": 1}))


def test_theories_compare_by_identity_and_can_be_weakly_referenced():
    t = theory()
    assert t == t and t != theory()
    assert hash(t) == object.__hash__(t)
    ref = weakref.ref(t)
    assert ref() is t


def test_suspensions_and_models_compare_by_identity():
    t = theory()
    stopped = Suspended("get", (), BOOL, None, t)
    assert repr(stopped) == "Suspended(op='get', param=(), arity=Bool())"
    assert stopped == stopped and stopped != Suspended("get", (), BOOL, None, t)
    ops = {"get": lambda p, args: args[0], "put": lambda p, args: args[0]}
    model = FiniteModel(t, ops, BOOL)
    assert model != FiniteModel(t, ops, BOOL) and hash(model) == object.__hash__(model)
    again = copy.deepcopy(model)
    assert (again.theory.name, again.ops, again.carrier) == ("cell", ops, BOOL)


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_assignment_raises(make, text):
    record = make()
    field = text.split("(")[1].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_an_equation_refuses_assignment():
    with pytest.raises(AttributeError):
        equation().name = "other"


@pytest.mark.parametrize("make, text", BY_VALUE, ids=VALUE_IDS)
@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["deepcopy", "pickle"])
def test_copies_and_pickles_are_equal(make, text, round_trip):
    record = make()
    again = round_trip(record)
    assert again == record and repr(again) == text


def test_copies_keep_the_position():
    assert copy.deepcopy(Var("x", pos=(1, 2))).pos == (1, 2)
    assert pickle.loads(pickle.dumps(Var("x", pos=(1, 2)))).pos == (1, 2)


def test_a_copied_theory_keeps_its_operations():
    t = theory()
    for again in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert again is not t and repr(again) == repr(t)
        assert again.op("put") == OpDecl("put", BOOL, UNIT)


def test_a_copied_equation_keeps_its_sides():
    eq = equation()
    again = copy.deepcopy(eq)
    assert again == eq and again.lhs(()) == Leaf("x")


def test_constructors_take_fields_by_position_and_keyword():
    assert Fin(n=3) == Fin(3)
    assert Var(name="x") == Var("x")
    t = Theory("t", (OpDecl("get", UNIT, BOOL),), (equation(),), (("a", "b"),))
    assert (t.name, len(t.ops), len(t.eqs), t.renames) == ("t", 1, 1, (("a", "b"),))
    assert Theory(name="t", ops=[]).ops == ()
    with pytest.raises(ValueError):
        Theory("t", (OpDecl("get", UNIT, BOOL), OpDecl("get", UNIT, UNIT)))
    with pytest.raises(ValueError):
        Fin(0)
