import pytest

from algeff.errors import TypeMismatch, UnboundVariable, UnknownOperation
from algeff.lang import (
    App,
    BoolLit,
    CompType,
    Do,
    Fun,
    HandlerLit,
    If,
    IntLit,
    OpCall,
    OpClause,
    Pair,
    Plus,
    Return,
    StrLit,
    T_BOOL,
    T_INT,
    T_UNIT,
    TArrow,
    THandler,
    UnitLit,
    Var,
    typecheck_comp,
    typecheck_value,
    universe_type,
)
from algeff.theories import (
    choice_theory,
    combine,
    exception_theory,
    io_theory,
    single_state_theory,
)
from algeff.universe import BOOL, UNIT, Enum, Fin, Product

STATE10 = single_state_theory(Fin(10))
IO = io_theory(Enum(("hi", "Hello world!")))
EXC = exception_theory()


def increment_program():
    return Do(
        "x",
        OpCall("get", UnitLit()),
        Do("_", OpCall("put", Plus(Var("x"), IntLit(1))), Return(Var("x"))),
    )


def exception_handler():
    return HandlerLit(
        "x",
        Return(Var("x")),
        (OpClause("abort", "u", "k", Return(BoolLit(False))),),
    )


def test_universe_type_mapping():
    assert universe_type(UNIT) == T_UNIT
    assert universe_type(BOOL) == T_BOOL
    assert universe_type(Fin(4)) == T_INT
    assert str(universe_type(Product(Fin(2), BOOL))) == "(int * bool)"


def test_return_true_is_pure_bool():
    t = typecheck_comp(STATE10, Return(BoolLit(True)))
    assert t == CompType(T_BOOL, frozenset())
    assert str(t) == "bool ! {}"


def test_print_carries_its_dirt():
    t = typecheck_comp(IO, OpCall("print", StrLit("hi")))
    assert str(t) == "unit ! {print}"


def test_print_is_rejected_under_empty_dirt():
    with pytest.raises(TypeMismatch):
        typecheck_comp(
            IO,
            OpCall("print", StrLit("hi")),
            expected=CompType(T_UNIT, frozenset()),
        )


def test_increment_program_type():
    t = typecheck_comp(STATE10, increment_program())
    assert str(t) == "int ! {get, put}"


def test_exception_handler_type():
    t = typecheck_value(EXC, exception_handler())
    assert isinstance(t, THandler)
    assert str(t) == "(bool ! {abort}) => (bool ! {})"


def test_with_handle_discharges_dirt():
    prog = WithHandle_abort()
    t = typecheck_comp(EXC, prog)
    assert str(t) == "bool ! {}"


def WithHandle_abort():
    from algeff.lang import WithHandle

    body = Do("u", OpCall("abort", UnitLit()), Return(BoolLit(True)))
    return WithHandle(exception_handler(), body)


def test_if_requires_bool_condition():
    prog = If(IntLit(1, pos=(1, 4)), Return(BoolLit(True)), Return(BoolLit(False)))
    with pytest.raises(TypeMismatch) as err:
        typecheck_comp(STATE10, prog)
    assert "at 1:4" in str(err.value)
    assert "expected bool, found int" in str(err.value)


def test_if_joins_branch_dirts():
    th = combine(single_state_theory(BOOL), exception_theory())
    prog = Do(
        "x",
        OpCall("get", UnitLit()),
        If(Var("x"), OpCall("abort", UnitLit()), Return(Var("x"))),
    )
    t = typecheck_comp(th, prog)
    assert t.dirt == frozenset({"get", "abort"})


def test_if_requires_identical_branch_value_types():
    prog = If(BoolLit(True), Return(BoolLit(True)), Return(IntLit(2, pos=(2, 9))))
    with pytest.raises(TypeMismatch):
        typecheck_comp(STATE10, prog)


def test_unknown_operation_is_reported_with_position():
    with pytest.raises(UnknownOperation) as err:
        typecheck_comp(STATE10, OpCall("foo", UnitLit(), pos=(1, 1)))
    assert "at 1:1" in str(err.value)


def test_unbound_variable_is_reported():
    with pytest.raises(UnboundVariable):
        typecheck_comp(STATE10, Return(Var("nope", pos=(3, 2))))


def test_op_argument_must_match_parameter_universe():
    with pytest.raises(TypeMismatch) as err:
        typecheck_comp(STATE10, OpCall("put", BoolLit(True, pos=(1, 6))))
    assert "expected int, found bool" in str(err.value)


def test_application_of_non_function_is_rejected():
    prog = Do("b", OpCall("choose", UnitLit()), App(Var("b"), BoolLit(True)))
    with pytest.raises(TypeMismatch) as err:
        typecheck_comp(choice_theory(), prog)
    assert "expected a function" in str(err.value)


def test_lambda_parameter_is_inferred_from_use():
    prog = Do(
        "f",
        Return(Fun("x", Return(Var("x")))),
        App(Var("f"), BoolLit(True)),
    )
    t = typecheck_comp(STATE10, prog)
    assert t == CompType(T_BOOL, frozenset())


def test_pair_projections():
    prog = App(Var("fst"), Pair(BoolLit(True), IntLit(3)))
    t = typecheck_comp(STATE10, prog)
    assert t == CompType(T_BOOL, frozenset())
    prog2 = App(Var("snd"), Pair(BoolLit(True), IntLit(3)))
    assert typecheck_comp(STATE10, prog2) == CompType(T_INT, frozenset())


def test_plus_needs_integers():
    with pytest.raises(TypeMismatch):
        typecheck_value(STATE10, Plus(BoolLit(True, pos=(1, 1)), IntLit(1)))


def test_state_passing_handler_typechecks():
    h = state_passing_handler()
    t = typecheck_value(STATE10, h)
    assert isinstance(t, THandler)
    assert t.inp.dirt == frozenset({"get", "put"})
    assert t.out.dirt == frozenset()
    out = t.out.value
    assert isinstance(out, TArrow)
    assert out.arg == T_INT


def state_passing_handler():
    # return x             -> return (fun s -> return (x, s))
    # get(u; k)  -> return (fun s -> do f <- k s in f s)
    # put(s2; k) -> return (fun s -> do f <- k () in f s2)
    return HandlerLit(
        "x",
        Return(Fun("s", Return(Pair(Var("x"), Var("s"))))),
        (
            OpClause(
                "get",
                "u",
                "k",
                Return(Fun("s", Do("f", App(Var("k"), Var("s")), App(Var("f"), Var("s"))))),
            ),
            OpClause(
                "put",
                "s2",
                "k",
                Return(Fun("s", Do("f", App(Var("k"), UnitLit()), App(Var("f"), Var("s2"))))),
            ),
        ),
    )


def test_handler_with_duplicate_clauses_is_rejected():
    h = HandlerLit(
        "x",
        Return(Var("x")),
        (
            OpClause("abort", "u", "k", Return(BoolLit(False))),
            OpClause("abort", "u", "k", Return(BoolLit(True))),
        ),
    )
    with pytest.raises(TypeMismatch):
        typecheck_value(EXC, h)


def test_handler_forwarding_dirt_reaches_the_output():
    # handling abort but forwarding get/put
    th = combine(single_state_theory(Fin(3)), exception_theory())
    from algeff.lang import WithHandle

    body = Do("x", OpCall("get", UnitLit()), Do("u", OpCall("abort", UnitLit()), Return(Var("x"))))
    h = HandlerLit("x", Return(Var("x")), (OpClause("abort", "u", "k", OpCall("get", UnitLit())),))
    t = typecheck_comp(th, WithHandle(h, body))
    assert t.dirt == frozenset({"get"})


def test_a_chain_binds_its_names_only_over_its_rest():
    from algeff.parser import parse_program

    def typed(text, ctx=None):
        try:
            return str(typecheck_comp(STATE10, parse_program(text), ctx))
        except (TypeMismatch, UnboundVariable) as exc:
            return f"{type(exc).__name__}: {exc}"

    # a chain nested in first position restores the names it shadowed
    assert typed("do x <- return 1 in do y <- (do x <- return true in return x) in "
                 "return x + 1") == "int ! {}"
    # and binds nothing past its end
    assert typed("do a <- (do y <- return 1 in return y) in return y") == (
        "UnboundVariable: unbound variable at 1:50: y"
    )
    # a binder that shadows a name of the given context is put back too
    ctx = {"x": T_BOOL}
    assert typed("do u <- (do x <- get!() in return x) in return x", ctx) == "bool ! {get}"
    assert ctx == {"x": T_BOOL}
    # a chain's dirt is the union of its steps' dirt
    assert typed("do u <- get!() in do v <- put!(u) in do w <- return 1 in return w") == (
        "int ! {get, put}"
    )
