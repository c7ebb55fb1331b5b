import copy
import gc
import pickle
import random
import types
from pathlib import Path

import pytest

from algeff import lang, parser
from algeff.errors import (
    AlgeffError,
    ParameterOutOfUniverse,
    ParseError,
    TypeMismatch,
    UnboundGenerator,
)
from algeff.parser import (
    _Parser,
    _Quoted,
    _scan,
    parse_comodel_file,
    parse_element,
    parse_model_file,
    parse_program,
    parse_theory_file,
    parse_value_text,
    tokenize,
)
from algeff.printer import render_comp, render_tree
from algeff.terms import OpNode, Return, check_tree
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


def test_each_equation_tree_is_read_once(monkeypatch):
    calls = []
    tree = _Parser.tree

    def counting(self, *args):
        calls.append(args)
        return tree(self, *args)

    monkeypatch.setattr(_Parser, "tree", counting)
    parse_theory_file((SAMPLES / "state10.thy").read_text())
    assert len(calls) == 19  # the trees and subtrees written in the file


def test_body_under_an_empty_arity_is_never_instantiated():
    th = parse_theory_file(
        "theory t {\n"
        "  op abort : fin 2 ~> empty;\n"
        "  equation e forall p in fin 2 * fin 2 (unit) :"
        " abort(fst p; \\z. return fst p) = abort(fst p; \\z. return snd p);\n"
        "}\n"
    )
    assert th.eqs[0].lhs((1, 0)) == OpNode("abort", 1, ())
    assert th.eqs[0].rhs((0, 1)) == OpNode("abort", 0, ())


def test_duplicate_equation_name_is_a_syntax_error_at_the_second_name():
    text = (
        "theory t {\n"
        "  op get : unit ~> bool;\n"
        "  equation x (unit) : return () = return ();\n"
        "  equation x (bool) : get((); \\b. return b) = get((); \\b. return b);\n"
        "}\n"
    )
    with pytest.raises(ParseError) as err:
        parse_theory_file(text)
    assert (err.value.line, err.value.col) == (4, 12)
    assert err.value.reason == "duplicate equation 'x'"


# -- the tokenizer against the character loop it replaced ---------------------

_REFERENCE_PUNCT = ("~>", "<-", "->", "=>", "(", ")", "{", "}", ";", ",", "!", "|", "*",
                    ".", "\\", "+", "=", ":")


def _reference_tokenize(text):
    """The character-by-character tokenizer, as (kind, value, line, col)."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            out = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError(start_line, start_col, "unterminated string")
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError(line, col, "dangling escape")
                    esc = text[i + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    i += 2
                    col += 2
                    continue
                out.append(c)
                i += 1
                col += 1
            toks.append(("string", "".join(out), start_line, start_col))
            continue
        if ch.isdigit():
            start_col = col
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        for p in _REFERENCE_PUNCT:
            if text.startswith(p, i):
                toks.append(("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}")
    toks.append(("eof", "", line, col))
    return toks


def _mutated_samples(count, seed):
    """Slices of the sample files with one to three characters inserted,
    replaced or deleted, or cut short."""
    texts = [path.read_text() for path in sorted(SAMPLES.iterdir())]
    alphabet = list(' \n\t\r#"\\_-<>~=09x();.,{}|*!+:') + [
        "\u00b2", "\u00e9", "\u00df", "\u0663", "\u00bd", "\u216b", "\u01c5", "\u00a0", "\x0b",
    ]
    rng = random.Random(seed)
    for _ in range(count):
        base = rng.choice(texts)
        start = rng.randrange(len(base))
        text = base[start:start + rng.randrange(1, 300)]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            edit = rng.randrange(4)
            if edit == 0:
                text = text[:i] + rng.choice(alphabet) + text[i:]
            elif edit == 1:
                text = text[:i] + text[i + 1:]
            elif edit == 2:
                text = text[:i] + rng.choice(alphabet) + text[i + 1:]
            else:
                text = text[:i]
        yield text


_TOKENIZER_CASES = [
    "return 1 # a trailing comment",
    "x\n  # a comment on the last line",
    '"a\\\nb" c',  # an escaped newline does not start a new line
    '"abc\\',
    '"abc',
    "x\u00b2 \u00e9t\u00e9 _\u00bd \u0663\u0664",
    "\u00bdx",
    "1\u00b2",
    "\u00b2",
]


def test_tokenize_matches_the_character_loop():
    cases = [path.read_text() for path in sorted(SAMPLES.iterdir())]
    cases += _TOKENIZER_CASES + list(_mutated_samples(2000, seed=6))
    compared = 0
    for text in cases:
        try:
            expected = _reference_tokenize(text)
        except ParseError as exc:
            expected = str(exc)
        except ValueError:
            # the character loop read "²" as a digit and crashed in int()
            with pytest.raises(ParseError, match="unexpected character"):
                tokenize(text)
            continue
        try:
            got = [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]
        except ParseError as exc:
            got = str(exc)
        assert got == expected, text
        compared += 1
    assert compared > 1900


def test_the_fast_scan_reads_the_values_tokenize_reads():
    cases = [path.read_text() for path in sorted(SAMPLES.iterdir())]
    cases += _TOKENIZER_CASES + list(_mutated_samples(2000, seed=6))
    for text in cases:
        try:
            expected = [
                None if t.kind == "eof" else (t.kind == "string", t.value) for t in tokenize(text)
            ]
        except (ParseError, ValueError) as exc:
            expected = (type(exc), str(exc))
        try:
            got = [
                None if v is None else (type(v) is _Quoted, v.text if type(v) is _Quoted else v)
                for v in _scan(text)
            ]
        except (ParseError, ValueError) as exc:
            got = (type(exc), str(exc))
        assert got == expected, text


# -- equation instances, built on first use ----------------------------------


def _refuse_to_build(*args):
    raise AssertionError("an equation tree was built")


def test_parsing_a_theory_builds_no_equation_tree(monkeypatch):
    monkeypatch.setattr(parser, "OpNode", _refuse_to_build)
    monkeypatch.setattr(parser, "Return", _refuse_to_build)
    th = parse_theory_file((SAMPLES / "state10.thy").read_text())
    assert [e.name for e in th.eqs] == ["get_get", "get_put", "put_get", "put_put"]


def test_an_equation_instance_is_built_once_and_kept():
    th = parse_theory_file((SAMPLES / "state10.thy").read_text())
    put_put = th.eqs[3]
    first = put_put.lhs((3, 4))
    assert put_put.lhs((3, 4)) is first
    assert first == OpNode("put", 3, (OpNode("put", 4, (Return(()),)),))
    assert put_put.rhs((3, 4)) is put_put.rhs((3, 4))
    with pytest.raises(KeyError):
        put_put.lhs((3, 10))


def _instances_of(eq):
    params = eq.param_universe.elements()
    return [eq.lhs(p) for p in params], [eq.rhs(p) for p in params]


def test_a_parsed_theory_copies_and_pickles_with_its_instances():
    th = parse_theory_file((SAMPLES / "state10.thy").read_text())
    for eq in th.eqs:
        assert copy.deepcopy(eq) == eq and copy.copy(eq) == eq
    again = pickle.loads(pickle.dumps(th))
    assert [eq.name for eq in again.eqs] == [eq.name for eq in th.eqs]
    for eq, eq_again in zip(th.eqs, again.eqs):
        assert _instances_of(eq_again) == _instances_of(eq)
        with pytest.raises(KeyError):
            eq_again.lhs("outside")


def _reaches_a_parser(root) -> bool:
    """Whether ``root`` holds a ``_Parser``, through fields, containers and
    closures, but not through a function's module globals."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, _Parser):
            return True
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return False


def test_a_parsed_theory_keeps_no_parser():
    # put_put reads fst and snd, whose templates report a bad pair at load
    th = parse_theory_file((SAMPLES / "state10.thy").read_text())
    assert not _reaches_a_parser(th)
    assert _reaches_a_parser(types.SimpleNamespace(held=[_Parser("x")]))


_STATE10 = ("--theory", "state10.thy", "--comodel", "state10.cmod", "--world", "5")


@pytest.mark.parametrize("argv", [
    ("run", "increment.eff", *_STATE10),
    ("run", "abort.eff", *_STATE10),
    ("run", "hello.eff", "--theory", "io_hello.thy", "--comodel", "hello.cmod", "--world", "[]"),
    ("type", "increment.eff", "--theory", "state10.thy"),
    ("type", "abort.eff", "--theory", "state10.thy"),
    ("type", "hello.eff", "--theory", "io_hello.thy"),
])
def test_run_and_type_build_no_equation_tree(monkeypatch, capsys, argv):
    from algeff.cli import main

    monkeypatch.setattr(parser, "OpNode", _refuse_to_build)
    monkeypatch.setattr(parser, "Return", _refuse_to_build)
    argv = [str(SAMPLES / a) if (SAMPLES / a).is_file() else a for a in argv]
    assert main(argv) in (0, 2)
    assert "error" not in capsys.readouterr().err


# Theories whose equation instances are not well-formed.  Each must fail at
# load with the error check_theory raises on the eager expansion: every
# instance built, then checked by parameter, lhs before rhs, in preorder.
_DEFECTIVE_THEORIES = {
    # put's parameter leaves fin 2 only at the last instance, p = 2
    "param-at-a-later-instance": (
        "theory t {\n"
        "  op put : fin 2 ~> unit;\n"
        "  equation fine (unit) : put(0; \\u. return u) = put(1; \\u. return u);\n"
        "  equation e forall p in fin 3 (unit) : put(0; \\u. put(p; \\v. return v))"
        " = put(0; \\u. return u);\n"
        "}\n"
    ),
    # the rhs's leaf leaves the context at the last instance; the next
    # equation's defect comes later
    "leaf-outside-the-context": (
        "theory t {\n"
        "  op get : unit ~> fin 2;\n"
        "  equation e forall p in fin 3 (fin 2) :"
        " get((); \\s. return s) = get((); \\s. return p);\n"
        "  equation later (unit) : return 5 = return ();\n"
        "}\n"
    ),
    # the rhs's parameter fails at p = (0, 1), before the lhs's leaf does at
    # p = (1, 0)
    "rhs-at-an-earlier-instance-than-lhs": (
        "theory t {\n"
        "  op put : fin 1 ~> unit;\n"
        "  equation e forall p in fin 2 * fin 2 (fin 1) :"
        " put(0; \\u. return fst p) = put(snd p; \\u. return 0);\n"
        "}\n"
    ),
}


def _oracle(text):
    """The error check_theory raises on the eager expansion of ``text``."""
    with pytest.raises(AlgeffError) as err:
        _reference_theory(text)
    return err.value


@pytest.mark.parametrize("name", sorted(_DEFECTIVE_THEORIES))
def test_a_defective_instance_fails_at_load_as_check_theory_does(name, capsys, tmp_path):
    from algeff.cli import main

    text = _DEFECTIVE_THEORIES[name]
    expected = _oracle(text)
    with pytest.raises(AlgeffError) as err:
        parse_theory_file(text)
    assert (type(err.value), str(err.value)) == (type(expected), str(expected))
    path = tmp_path / "t.thy"
    path.write_text(text)
    assert main(["type", "return 1", "--theory", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {path}: {expected}\n"


def test_a_bad_fst_in_an_equation_fails_where_it_is_read(capsys, tmp_path):
    from algeff.cli import main

    # every element of a universe has the same shape, so a bad fst fails on
    # the first instance, as the template is read
    text = (
        "theory t {\n"
        "  op put : fin 2 ~> unit;\n"
        "  equation e forall p in fin 2 (unit) :"
        " put(0; \\u. return u) = put(fst p; \\u. return u);\n"
        "}\n"
    )
    with pytest.raises(ParseError) as err:
        parse_theory_file(text)
    assert (err.value.line, err.value.col, err.value.reason) == (3, 68, "fst expects a pair, got 0")
    path = tmp_path / "t.thy"
    path.write_text(text)
    assert main(["type", "return 1", "--theory", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {path}: {err.value}\n"


# -- the check by universes against the per-instance loop it replaced ---------


def _reference_theory(text):
    """``parse_theory_file`` with the per-instance check: every instance of
    every family built and checked in ``check_theory``'s order, after the
    closing brace and before the end of input."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_within", lambda source, target: True)  # trust every site
        p = _Parser(text)
        theory = p.theory_file()
    for eq in theory.eqs:
        for param in eq.param_universe.iter_elements():
            check_tree(theory, eq.context, eq.lhs(param))
            check_tree(theory, eq.context, eq.rhs(param))
    p.expect_eof()
    return theory


def _outcome(parse, text):
    try:
        theory = parse(text)
    except ParseError as exc:
        return "syntax error", exc.line, exc.col, exc.reason
    except AlgeffError as exc:
        return type(exc), str(exc)
    return theory.name, theory.ops, [
        (eq.name, eq.param_universe, eq.context, *_instances_of(eq)) for eq in theory.eqs
    ]


def _theory(*lines):
    return "theory t {\n" + "".join(f"  {line}\n" for line in lines) + "}\n"


# Equations the universes settle, or that they leave to the per-instance
# check, each with its outcome.
_HAND_WRITTEN = {
    "a parameter outside its universe": (_theory(
        "op put : fin 2 ~> unit;",
        "equation e forall p in fin 3 (unit) : put(p; \\u. return u) = put(0; \\u. return u);",
    ), ParameterOutOfUniverse),
    "a leaf outside the context": (_theory(
        "op get : unit ~> fin 3;",
        "equation e (fin 2) : get((); \\s. return s) = get((); \\s. return 0);",
    ), UnboundGenerator),
    "fst of a non-pair": (_theory(
        "op put : fin 2 ~> unit;",
        "equation e forall p in fin 2 (unit) : put(0; \\u. return u) = put(fst p; \\u. return u);",
    ), ParseError),
    "a body under an empty arity": (_theory(
        "op abort : unit ~> empty;",
        "op put : fin 2 ~> unit;",
        "equation e forall p in fin 2 (unit) :"
        " abort((); \\z. put(5; \\u. return fst z)) = abort((); \\z. return fst 7);",
    ), None),
    "a binder that shadows an enum label": (_theory(
        "op get : unit ~> bool;",
        "equation e (enum {b, c}) : get((); \\b. return b) = get((); \\c. return c);",
    ), UnboundGenerator),
    "a binder that shadows an enum label of its own universe": (_theory(
        "op pick : unit ~> enum {b, c};",
        "equation e (enum {b, c}) : pick((); \\b. return b) = pick((); \\c. return b);",
    ), None),
    "a forall over a strict sub-universe": (_theory(
        "op put : fin 10 ~> unit;",
        "equation e forall p in fin 2 (fin 10) : put(p; \\u. return p) = put(p; \\u. return 9);",
    ), None),
    "a leaf in an enum context with extra labels": (_theory(
        "op choose : unit ~> bool;",
        "equation e (enum {x, y, z}) : choose((); return x, return y) = return x;",
    ), None),
    "a pair leaf in a product context": (_theory(
        "op get : unit ~> fin 2;",
        "equation e forall p in fin 2 (fin 3 * fin 2) : get((); \\s. return (p, s)) = return (2, 1);",
    ), None),
    "a pair leaf whose parts lie in the context's parts swapped": (_theory(
        "op get : unit ~> fin 2;",
        "equation e forall p in fin 1 (fin 1 * fin 2) : get((); \\s. return (s, p)) = return (0, 0);",
    ), UnboundGenerator),
}


# the elements of each universe the generated equations use
_ELEMENTS = {
    "fin 1": ["0"], "fin 2": ["0", "1"], "fin 3": ["0", "1", "2"], "bool": ["true", "false"],
    "unit": ["()"], "enum {x, y}": ["x", "y"], "fin 2 * fin 2": ["(0, 1)", "(1, 1)"],
    "fin 3 * fin 2": ["(2, 0)", "(0, 1)"],
}
_OPS = {  # name: (parameter, arity)
    "get": ("fin 2", "fin 2"), "put": ("fin 2", "unit"), "abort": ("fin 2", "empty"),
    "flip": ("fin 2", "bool"), "pick": ("fin 2 * fin 2", "enum {x, y}"),
}


def _generated_theories(count, seed):
    """Small theories with one random equation, whose elements mostly lie in
    the universes they must lie in."""
    rng = random.Random(seed)
    ops = [f"op {name} : {param} ~> {arity};" for name, (param, arity) in _OPS.items()]

    def elem(universe, scope):
        if rng.random() < 0.1:  # any element or binder
            return rng.choice([*scope, *rng.choice(list(_ELEMENTS.values()))])
        choices = [name for name, u in scope.items() if u == universe] + _ELEMENTS[universe]
        choices += [f"fst {name}" for name, u in scope.items() if u.startswith(universe + " *")]
        choices += [f"snd {name}" for name, u in scope.items() if u.endswith("* " + universe)]
        if " * " in universe:
            left, right = universe.split(" * ")
            choices.append(f"({elem(left, scope)}, {elem(right, scope)})")
        return rng.choice(choices)

    def tree(context, scope, depth):
        if depth > 2 or rng.random() < 0.35:
            return f"return {elem(context, scope)}"
        op, binder = rng.choice(list(_OPS)), rng.choice("stxpu")
        param, arity = _OPS[op]
        body = tree(context, {**scope, binder: arity}, depth + 1)
        return f"{op}({elem(param, scope)}; \\{binder}. {body})"

    universes = list(_ELEMENTS)
    for _ in range(count):
        context = rng.choice(universes)
        scope = {"p": rng.choice(universes)} if rng.random() < 0.7 else {}
        head = f"forall p in {scope['p']} " if scope else ""
        yield _theory(*ops, f"equation e {head}({context}) :"
                            f" {tree(context, scope, 0)} = {tree(context, scope, 0)};")


@pytest.mark.parametrize("name", sorted(_HAND_WRITTEN))
def test_a_hand_written_equation_loads_as_the_per_instance_check_says(name):
    text, expected = _HAND_WRITTEN[name]
    outcome = _outcome(parse_theory_file, text)
    assert outcome == _outcome(_reference_theory, text)
    if expected is None:
        assert outcome[0] == "t"
    elif expected is ParseError:
        assert outcome[0] == "syntax error"
    else:
        assert outcome[0] is expected


@pytest.mark.parametrize("check", ["by universes", "every instance"])
def test_the_check_by_universes_matches_the_per_instance_loop(check, monkeypatch):
    if check == "every instance":
        # no site is settled by its universes, so every equation is checked
        # instance by instance
        monkeypatch.setattr(parser, "_within", lambda source, target: False)
    cases = [path.read_text() for path in sorted(SAMPLES.iterdir())]
    cases += [text for text, _ in _HAND_WRITTEN.values()] + list(_DEFECTIVE_THEORIES.values())
    cases += list(_mutated_samples(2000, seed=6)) + list(_generated_theories(1500, seed=10))
    checked = []
    monkeypatch.setattr(parser, "check_tree", lambda *args: checked.append(1) or check_tree(*args))
    outcomes = []
    for text in cases:
        checked.clear()
        outcome = _outcome(parse_theory_file, text)
        assert outcome == _outcome(_reference_theory, text), text
        outcomes.append(outcome[0])
        if check == "by universes" and type(outcome[0]) is str and outcome[0] != "syntax error":
            assert not checked, text  # the universes settle every equation that loads
    # the corpus holds theories that load and theories with each kind of defect
    assert outcomes.count("t") > 500
    assert outcomes.count(UnboundGenerator) > 100
    assert outcomes.count(ParameterOutOfUniverse) > 100


def test_the_load_time_check_does_not_grow_with_the_forall_universe(monkeypatch):
    sites = []
    site = _Parser.site

    def counting(self, *args):
        sites.append(args)
        return site(self, *args)

    monkeypatch.setattr(_Parser, "site", counting)
    monkeypatch.setattr(parser, "check_tree", _refuse_to_build)  # no instance is checked
    counts = []
    for n in (10, 30):
        sites.clear()
        text = (SAMPLES / "state10.thy").read_text().replace("fin 10", f"fin {n}")
        th = parse_theory_file(text)
        assert th.eqs[3].param_universe == Product(Fin(n), Fin(n))
        counts.append(len(sites))
    assert counts == [19, 19]  # one per tree written in the file
