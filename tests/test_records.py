"""The package's records: plain slotted classes that import without
generating code, compare and hash by their fields (never by a source
position), print as ``Name(field=value, ...)``, refuse assignment, and
survive copying and pickling."""

import copy
import operator
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from algeff import terms
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


# -- every record class, against the fill that set slots by name -------------


def _package_records():
    """Every ``_Node`` subclass the package defines, found by walking
    ``__subclasses__`` after importing every module."""
    import importlib
    import pkgutil

    import algeff
    from algeff.terms import _Node

    for info in pkgutil.iter_modules(algeff.__path__):
        importlib.import_module(f"algeff.{info.name}")
    found, waiting = [], [_Node]
    while waiting:
        for sub in waiting.pop().__subclasses__():
            if sub.__module__.startswith("algeff."):
                found.append(sub)
                waiting.append(sub)
    return found


def _samples():
    """A maker of one record of each class, by class: each field a value
    that pickles, so every record can be copied and pickled."""
    from operator import add, neg

    from algeff import comodels, free, interp, lang, models, parser, terms, universe

    t = theory()
    eq = Equation("refl", UNIT, UNIT, Leaf, Leaf)  # a side is any callable
    code = lang.HandlerLit("x", lang.Return(lang.Var("x")), ())
    return {
        terms.OpDecl: lambda: OpDecl("get", UNIT, BOOL),
        terms.Return: lambda: Leaf((0, True)),
        terms.OpNode: lambda: terms.OpNode("get", (), (Leaf(0), Leaf(1))),
        terms.Equation: lambda: eq,
        terms.Theory: lambda: Theory("t", (OpDecl("get", UNIT, BOOL),), (eq,), (("a", "b"),)),
        universe.FiniteUniverse: universe.FiniteUniverse,
        universe.Empty: universe.Empty,
        universe.Unit: Unit,
        universe.Bool: Bool,
        universe.Fin: lambda: Fin(3),
        universe.Enum: lambda: universe.Enum(("a", "b")),
        universe.Product: lambda: Product(Fin(2), BOOL),
        universe.Apart: lambda: universe.Apart(Fin(2), Product(Fin(2), BOOL), (0,), (1, 0), True),
        parser._Single: lambda: parser._Single(7),
        comodels.Cointerpretation: lambda: comodels.Cointerpretation(t, Fin(2), {"put": add}),
        comodels.Done: lambda: Done(1, 2),
        comodels.Stuck: lambda: Stuck("get", (), 0),
        comodels.ComodelViolation: lambda: comodels.ComodelViolation("e", (), 0, Done(1, 0)),
        models.Interpretation: lambda: models.Interpretation(t, {"get": add, "put": add}),
        models.FiniteModel: lambda: FiniteModel(t, {"get": add, "put": add}, BOOL),
        models.EquationViolation: lambda: models.EquationViolation("e", (), {"x": 1}, 1, 2),
        models.HomViolation: lambda: models.HomViolation("get", (), (True, False)),
        free.FreeElement: lambda: free.FreeElement(t, Leaf(1)),
        free.StateNormalForm: lambda: free.StateNormalForm({0: 1}, {0: "x"}),
        free._Normalizer: lambda: free._Normalizer(neg, add),
        free._Rule: lambda: free._Rule(Leaf("x"), frozenset({"x"}), ("y",), add, neg),
        lang._Syntax: lang._Syntax,
        lang.Var: lambda: Var("x", pos=(1, 2)),
        lang.BoolLit: lambda: lang.BoolLit(True, pos=(1, 1)),
        lang.UnitLit: lambda: lang.UnitLit(pos=(2, 3)),
        lang.IntLit: lambda: lang.IntLit(5),
        lang.StrLit: lambda: lang.StrLit("s", pos=(1, 4)),
        lang.Pair: lambda: lang.Pair(lang.IntLit(1), Var("y"), pos=(1, 1)),
        lang.Plus: lambda: lang.Plus(lang.IntLit(1), lang.IntLit(2)),
        lang.Fun: lambda: lang.Fun("x", Return(Var("x")), pos=(3, 1)),
        lang.OpClause: lambda: lang.OpClause("get", "p", "k", Return(Var("p")), pos=(1, 9)),
        lang.HandlerLit: lambda: code,
        lang.Return: lambda: Return(Var("x"), pos=(1, 1)),
        lang.OpCall: lambda: lang.OpCall("get", lang.UnitLit(), pos=(1, 1)),
        lang.Do: lambda: Do("x", Return(Var("y")), Return(Var("x")), pos=(1, 1)),
        lang.If: lambda: lang.If(lang.BoolLit(True), Return(Var("x")), Return(Var("y"))),
        lang.App: lambda: lang.App(Var("f"), Var("x"), pos=(4, 4)),
        lang.WithHandle: lambda: lang.WithHandle(Var("h"), Return(Var("x"))),
        lang.TEmpty: lang.TEmpty,
        lang.TUnit: lang.TUnit,
        lang.TBool: TBool,
        lang.TInt: TInt,
        lang.TStr: lang.TStr,
        lang.TProd: lambda: lang.TProd(T_INT, lang.T_BOOL),
        lang.TVar: lambda: lang.TVar(3),
        lang.CompType: comp_type,
        lang.TArrow: lambda: lang.TArrow(T_INT, comp_type()),
        lang.THandler: lambda: lang.THandler(comp_type(), comp_type()),
        interp.Closure: lambda: Closure("x", Return(Var("x")), {"y": 1}),
        interp.HandlerClosure: lambda: interp.HandlerClosure(code, {}),
        interp.PrimFun: lambda: interp.PrimFun("fst", neg),
        interp.SymVal: lambda: SymVal(("kont", "x"), (1,)),
        interp.Suspended: lambda: Suspended("get", (), BOOL, None, t),
        interp.HandlerCheck: lambda: interp.HandlerCheck(
            interp.HandlerVerdict.VIOLATED, "e", (), ("put",)
        ),
    }


def _parent_fill(record, values):
    """The fill records had before slot setters: each slot set by name."""
    for name, value in zip(record._state, values):
        object.__setattr__(record, name, value)


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the type of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # an unhashable field, say
        return type(exc)


def _state(record):
    return tuple(getattr(record, name) for name in record._state)


def test_the_samples_cover_every_record_class():
    assert set(_package_records()) == set(_samples())


@pytest.mark.parametrize("cls", sorted(_samples(), key=lambda c: (c.__module__, c.__qualname__)),
                         ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_every_record_class_behaves_as_with_slots_set_by_name(cls):
    record = _samples()[cls]()
    assert type(record) is cls
    values = _state(record)  # every slot is set: an unset one raises here
    # a record filled the old way, from the same values, is indistinguishable
    old = object.__new__(cls)
    _parent_fill(old, values)
    by_value = cls.__eq__ is not object.__eq__
    assert _state(old) == values
    assert (old == record) is by_value and (record == old) is by_value
    assert repr(old) == repr(record)
    if by_value:
        assert _outcome(hash, old) == _outcome(hash, record)
    # restoring fills every slot, as copies and pickles do
    again = terms._restore(cls, values)
    assert _state(again) == values and repr(again) == repr(record)
    fields = record._values(record)
    for round_trip in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        twin = round_trip(record)
        assert type(twin) is cls and repr(twin) == repr(record)
        if by_value:
            # equal exactly when the fields are: a theory in a field, which
            # compares by identity, is not equal to its deep copy
            same = twin._values(twin) == fields
            assert (twin == record) is same
            if same:
                assert _outcome(hash, twin) == _outcome(hash, record)
        else:
            assert (twin == record) is (twin is record)
    shallow = copy.copy(record)
    assert shallow is record or all(map(operator.is_, shallow._values(shallow), fields))
    # no field can be assigned or deleted, nor a new attribute added
    for name in (*record._state, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        if name != "extra":
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert all(map(operator.is_, record._values(record), fields))


def test_a_finite_model_fills_its_base_slots_then_its_carrier():
    from algeff.models import Interpretation

    t = theory()
    ops = {"get": len, "put": len}
    base = Interpretation(t, ops)
    assert (base.theory, base.ops) == (t, ops) and not hasattr(base, "carrier")
    model = FiniteModel(t, ops, BOOL)
    assert (model.theory, model.ops, model.carrier) == (t, ops, BOOL)
    assert _state(model) == (t, ops, BOOL)
    again = pickle.loads(pickle.dumps(model))
    assert (again.theory.name, again.ops, again.carrier) == ("cell", ops, BOOL)


def test_a_record_class_of_more_than_five_slots_is_refused():
    from algeff.terms import _Node

    with pytest.raises(TypeError, match="at most five slots"):

        class Wide(_Node):
            __slots__ = ("a", "b", "c", "d", "e", "f")


def test_a_fill_with_the_wrong_number_of_values_raises():
    with pytest.raises(TypeError):
        Fin(3)._fill(1, 2)
    with pytest.raises(TypeError):
        Product(BOOL, BOOL)._fill(BOOL)
