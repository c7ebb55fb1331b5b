from pathlib import Path

import pytest

from algeff import lang
from algeff.errors import ParseError, TypeMismatch
from algeff.parser import (
    parse_comodel_file,
    parse_element,
    parse_model_file,
    parse_program,
    parse_theory_file,
    parse_value_text,
)
from algeff.printer import render_comp, render_tree
from algeff.theories import choice_theory, semilattice_theory, single_state_theory
from algeff.universe import Enum, Fin, Product

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_parse_increment_program():
    prog = parse_program("do x <- get!() in do _ <- put!(x+1) in return x")
    assert prog == lang.Do(
        "x",
        lang.OpCall("get", lang.UnitLit()),
        lang.Do(
            "_",
            lang.OpCall("put", lang.Plus(lang.Var("x"), lang.IntLit(1))),
            lang.Return(lang.Var("x")),
        ),
    )


def test_parse_with_handle():
    prog = parse_program("with h handle return true")
    assert prog == lang.WithHandle(lang.Var("h"), lang.Return(lang.BoolLit(True)))


def test_incomplete_return_is_a_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_program("return")
    assert err.value.line == 1
    assert "expected a value" in err.value.reason


def test_unterminated_string_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program('return "oops')
    assert (err.value.line, err.value.col) == (1, 8)


def test_parse_handler_literal():
    text = 'handler { return x -> return x | abort(u; k) -> return false }'
    value = parse_value_text(text)
    assert isinstance(value, lang.HandlerLit)
    assert value.ret_name == "x"
    assert value.clauses[0].op == "abort"
    assert value.clauses[0].body == lang.Return(lang.BoolLit(False))


def test_parenthesized_computation_and_application():
    prog = parse_program("(fun x -> return x) true")
    assert isinstance(prog, lang.App)
    assert prog == lang.App(lang.Fun("x", lang.Return(lang.Var("x"))), lang.BoolLit(True))
    grouped = parse_program("(return (1, ()))")
    assert grouped == lang.Return(lang.Pair(lang.IntLit(1), lang.UnitLit()))


ROUND_TRIP = [
    "return true",
    "return ()",
    "return (1, (true, \"s\"))",
    "get!()",
    "put!(x + 1)",
    "do x <- get!() in do _ <- put!(x + 1) in return x",
    "if b then return 1 else abort!()",
    "f x",
    "f (x + 1)",
    "(fun x -> return x) true",
    "with handler { return x -> return x | abort(u; k) -> return false } handle do u <- abort!() in return true",
    "do f <- return (fun s -> return (s, s)) in f 3",
    "with h handle do x <- get!() in return x",
    "do x <- do y <- get!() in return y in return x",
    "if b then do x <- get!() in return x else return 0",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_print_parse_round_trip(text):
    ast = parse_program(text)
    printed = render_comp(ast)
    assert parse_program(printed) == ast


def test_positions_flow_into_type_errors():
    prog = parse_program("if 1 then return true else return false")
    with pytest.raises(TypeMismatch) as err:
        lang.typecheck_comp(single_state_theory(Fin(10)), prog)
    assert "at 1:4" in str(err.value)


def test_theory_file_matches_builtin_equations():
    for name, builtin in (
        ("state2.thy", single_state_theory(Fin(2))),
        ("semilattice.thy", semilattice_theory()),
        ("choice.thy", choice_theory()),
    ):
        parsed = parse_theory_file((SAMPLES / name).read_text())
        assert parsed.ops == builtin.ops, name
        assert [e.name for e in parsed.eqs] == [e.name for e in builtin.eqs], name
        for pe, be in zip(parsed.eqs, builtin.eqs):
            assert pe.param_universe == be.param_universe
            assert pe.context == be.context
            for p in pe.param_universe.elements():
                assert pe.lhs(p) == be.lhs(p)
                assert pe.rhs(p) == be.rhs(p)


def test_theory_file_universe_grammar():
    from algeff.universe import BOOL

    th = parse_theory_file(
        'theory t { op f : (fin 2 * bool) * enum {a, "b c"} ~> unit; }'
    )
    assert th.op("f").param == Product(Product(Fin(2), BOOL), Enum(("a", "b c")))


def test_model_file_requires_totality():
    sem = parse_theory_file((SAMPLES / "semilattice.thy").read_text())
    partial = """
    model broken {
      carrier bool;
      bot((); ) = false;
      join((); false, false) = false;
    }
    """
    with pytest.raises(Exception):
        parse_model_file(partial, sem)


def test_comodel_file_checks_membership_and_totality():
    th = parse_theory_file((SAMPLES / "state2.thy").read_text())
    bad_value = """
    comodel c {
      world fin 2;
      get((); 0) = (7; 0);
    }
    """
    with pytest.raises(ParseError) as err:
        parse_comodel_file(bad_value, th)
    assert "result" in err.value.reason
    missing = """
    comodel c {
      world fin 2;
      get((); 0) = (0; 0);
    }
    """
    with pytest.raises(ParseError) as err2:
        parse_comodel_file(missing, th)
    assert "missing cooperation entry" in err2.value.reason


def test_parse_element_forms():
    assert parse_element("()") == ()
    assert parse_element("true") is True
    assert parse_element("(1, (2, x))") == (1, (2, "x"))
    assert parse_element('"two words"') == "two words"


def test_rendered_trees_reparse_in_equation_files():
    th = single_state_theory(Fin(2))
    eq = th.eqs[0]
    rendered = render_tree(eq.lhs(()))
    text = f"""
    theory single_state {{
      op get : unit ~> fin 2;
      op put : fin 2 ~> unit;
      equation probe (fin 2 * fin 2) : {rendered} = {rendered};
    }}
    """
    parsed = parse_theory_file(text)
    assert parsed.eqs[0].lhs(()) == eq.lhs(())


def test_comment_and_whitespace_insensitivity():
    prog = parse_program("return    true  # trailing comment\n")
    assert prog == lang.Return(lang.BoolLit(True))
