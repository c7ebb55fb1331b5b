import copy
import importlib
import itertools
import pickle
import random
import re
import types
from pathlib import Path

import pytest

from algeff import lang, parser, terms
from algeff.comodels import Cointerpretation
from algeff.errors import (
    AlgeffError,
    ParameterOutOfUniverse,
    ParseError,
    TypeMismatch,
    UnboundGenerator,
    UnboundVariable,
    UnknownOperation,
)
from algeff.parser import (
    _Parser,
    _Quoted,
    _scan,
    element_or,
    parse_comodel_file,
    parse_element,
    parse_model_file,
    parse_program,
    parse_theory_file,
    parse_value_text,
    tokenize,
)
from algeff.printer import render_comp, render_elem, render_tree
from algeff.terms import OpNode, Return, check_tree, tree_ops
from algeff.theories import (
    choice_theory,
    group_theory,
    semilattice_theory,
    single_state_theory,
    singleton_theory,
)
from algeff.universe import Enum, Fin, Product

from tests.test_models import reaches

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


@pytest.mark.parametrize("s", ["café", "☃", "cr\rx", "a\\b", 'q"x', "nl\nx", "tab\tx", ""])
def test_printed_strings_reparse(s):
    assert parse_element(render_elem(s)) == s
    program = lang.Return(lang.StrLit(s))
    assert parse_program(render_comp(program)) == program


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


ELEMENT_TEXTS = [
    "()", "true", "(1, (2, x))", '"two words"', "fst (1, 2)", "snd (1, (2, 3))",
    "[]", "fst 5", "(1,", "1 2", "return", "9" * 5000, '"open', "",
]


@pytest.mark.parametrize("text", ELEMENT_TEXTS)
def test_element_or_reads_what_parse_element_reads(text):
    default = object()
    try:
        expected = parse_element(text)
    except ParseError:
        expected = default
    assert element_or(text, default) == expected


@pytest.mark.parametrize("text, col", [(")", 1), ("(,)", 2), ("(1; 2)", 3), ("fst =", 5), ("", 1)])
def test_parse_element_rejects_punctuation_where_an_element_goes(text, col):
    with pytest.raises(ParseError) as err:
        parse_element(text)
    assert err.value.pos == (1, col)
    assert err.value.reason.startswith("expected ")


def read_by_template(text):
    p = _Parser(text)
    shape, _ = p.elem_template({})
    p.expect_eof()
    return terms._element(shape)({})


@pytest.mark.parametrize("text", ELEMENT_TEXTS + [
    "fst fst ((1, 2), 3)", "(())", "snd x", "(,)",
    "fst ()", 'snd "a"', '"fst"', "(1, 2, 3)", "fst", ")", "false", "snd (true, 0)",
])
def test_parse_element_reads_as_the_template_reader(text):
    def outcome(read):
        try:
            value = read(text)
        except ParseError as error:
            return "error", error.pos, error.reason
        return "value", type(value), repr(value)

    assert outcome(parse_element) == outcome(read_by_template)


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
    # the scan ends at the last token, so blanks after it are no token's:
    # an escaped blank before them is still part of an unterminated string
    '"abc\\ ',
    '"abc\\\t \n',
    '"abc  \n\n',
    "x # c  \n \t",
    "x \r\n",
    "  ",
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


# -- equation instances, built anew at each call -----------------------------


def _refuse_to_build(*args):
    raise AssertionError("an equation side was compiled to build its trees")


def test_parsing_a_theory_builds_no_equation_tree(monkeypatch):
    # a side is compiled into its builder before any tree is built from it
    monkeypatch.setattr(terms, "compile", _refuse_to_build)
    th = parse_theory_file((SAMPLES / "state10.thy").read_text())
    assert [e.name for e in th.eqs] == ["get_get", "get_put", "put_get", "put_put"]


def test_an_equation_instance_is_built_anew_at_each_call():
    th = parse_theory_file((SAMPLES / "state10.thy").read_text())
    put_put = th.eqs[3]
    first = put_put.lhs((3, 4))
    again = put_put.lhs((3, 4))
    assert again == first and again is not first
    assert first == OpNode("put", 3, (OpNode("put", 4, (Return(()),)),))
    assert put_put.rhs((3, 4)) == put_put.rhs((3, 4))
    with pytest.raises(KeyError):
        put_put.lhs((3, 10))


def eager_builder(shape, depth=0):
    """A builder of whole instances that builds each binder body at every
    element of its arity as it goes, sharing one environment: the
    reference that a whole instance (``terms._Instances``) must match."""
    tag = shape[0]
    if tag in ("const", "param", "var", "pair", "fst", "snd"):
        return terms._element(shape)
    if tag == "return":
        leaf = terms._element(shape[1])
        return lambda env: Return(leaf(env))
    name, param = shape[1], terms._element(shape[2])
    if tag == "op":
        subtrees = [eager_builder(sub, depth) for sub in shape[3]]
        return lambda env: OpNode(name, param(env), tuple([sub(env) for sub in subtrees]))
    body, key, elements = eager_builder(shape[4], depth + 1), depth + 1, shape[3].elements()

    def build(env):
        at, subtrees = param(env), []
        for a in elements:
            env[key] = a
            subtrees.append(body(env))
        return OpNode(name, at, tuple(subtrees))

    return build


def assert_instances_match_the_eager_reference(theory):
    """Each side's instance at each parameter, by repr, which tells leaves
    such as 1 and True apart, as == does not inside pairs."""
    sides = 0
    for eq in theory.eqs:
        for side in (eq.lhs, eq.rhs):
            build = eager_builder(side.shape)
            for p in eq.param_universe.iter_elements():
                assert repr(side(p)) == repr(build({0: p})), (theory.name, eq.name, p)
            sides += 1
    return sides


def test_whole_instances_match_the_eager_reference(monkeypatch):
    texts = [path.read_text() for path in sorted(SAMPLES.glob("*.thy"))]
    texts += _perfbench_state_theories(monkeypatch)
    texts.append(_theory(  # binder bodies under an empty arity, never built
        "op abort : unit ~> empty;",
        "op put : fin 2 ~> unit;",
        "equation e forall p in fin 2 (unit) :"
        " abort((); \\x. put(x; \\u. return u)) = put(p; \\u. abort((); \\y. return ()));",
    ))
    texts.append(_theory(  # binder bodies side by side, as positional subtrees
        "op choose : unit ~> bool;",
        "op get : unit ~> fin 2;",
        "equation e forall p in fin 2 (fin 2) : choose((); get((); \\s. return s),"
        " get((); \\t. choose((); return t, get((); \\s. return p)))) = return p;",
    ))
    theories = [parse_theory_file(text) for text in texts]
    theories += [single_state_theory(s) for s in (Fin(1), Fin(3), Enum(("a", "b")),
                                                  Product(Fin(2), Fin(2)))]
    theories += [choice_theory(), semilattice_theory(), group_theory(), singleton_theory()]
    sides = [assert_instances_match_the_eager_reference(theory) for theory in theories]
    assert sum(sides) > 100
    abort = theories[len(texts) - 2].eqs[0]
    assert abort.lhs(0) == OpNode("abort", (), ())
    assert abort.rhs(1) == OpNode("put", 1, (OpNode("abort", (), ()),))


def reference_shape_ops(shape):
    """The operations of the trees a side's shape builds, by a walk of its
    own: the reference that a side's ``ops`` (``terms.OPS``) must match."""
    found, stack = set(), [shape]
    while stack:
        node = stack.pop()
        if node[0] == "op":
            found.add(node[1])
            stack += node[3]
        elif node[0] == "bind":
            found.add(node[1])
            stack.append(node[4])
    return frozenset(found)


def test_the_operations_algebra_reads_each_side_as_the_reference_walk(monkeypatch):
    texts = [path.read_text() for path in sorted(SAMPLES.glob("*.thy"))]
    texts += _perfbench_state_theories(monkeypatch)
    theories = [parse_theory_file(text) for text in texts]
    theories += [single_state_theory(s) for s in (Fin(1), Fin(3), Enum(("a", "b")),
                                                  Product(Fin(2), Fin(2)))]
    theories += [choice_theory(), semilattice_theory(), group_theory(), singleton_theory()]
    sides = 0
    for theory in theories:
        for eq in theory.eqs:
            for side in (eq.lhs, eq.rhs):
                expected = reference_shape_ops(side.shape)
                assert terms.compile(side.shape, terms.OPS) == expected, (theory.name, eq.name)
                assert side.ops == expected and type(side.ops) is frozenset
                sides += 1
    assert sides > 100


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
    return reaches(root, lambda obj: isinstance(obj, _Parser))


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

    monkeypatch.setattr(terms, "compile", _refuse_to_build)
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
        patch.setattr(_Parser, "site", lambda self, *site: None)  # trust every site
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
        monkeypatch.setattr(_Parser, "site", lambda self, *site: setattr(self, "unproven", True))
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


# -- an equation side's operations, read with its template --------------------


def _perfbench_state_theories(monkeypatch):
    """The benchmark's generated state theory texts, with and without
    abort."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    gen = importlib.import_module("gen")
    return [gen.state_theory_text(n, abort) for n in (1, 2, 5, 10) for abort in (False, True)]


def test_a_side_knows_the_operations_of_all_its_instances(monkeypatch):
    cases = [path.read_text() for path in sorted(SAMPLES.glob("*.thy"))]
    cases += [text for text, _ in _HAND_WRITTEN.values()] + _perfbench_state_theories(monkeypatch)
    cases += list(_mutated_samples(2000, seed=6)) + list(_generated_theories(1500, seed=10))
    cases.append(_theory(
        "op abort : unit ~> empty;",
        "op put : fin 2 ~> unit;",
        "equation e forall p in fin 2 (unit) :"
        " abort((); \\x. put(x; \\u. return u)) = put(p; \\u. abort(()));",
    ))
    sides = 0
    for text in cases:
        try:
            theory = parse_theory_file(text)
        except AlgeffError:
            continue
        for eq in theory.eqs:
            for side in (eq.lhs, eq.rhs):
                params = eq.param_universe.iter_elements()
                assert side.ops == set().union(*(tree_ops(side(p)) for p in params)), text
                sides += 1
    assert sides > 1000
    assert theory.eqs[0].lhs.ops == {"abort"}  # put under the empty arity is never built
    assert theory.eqs[0].rhs.ops == {"put", "abort"}


# -- tables read by their entry pattern, against the token-by-token loops -----


def _is_comodel(text):
    return text.lstrip().startswith("comodel")


def _reference_table(text, theory):
    """A model or comodel file read token by token, as every table was read
    before the entry pattern, by the entry loops that still read each file
    the pattern does not fit."""
    p = _Parser(text)
    out = p.comodel_file(theory) if _is_comodel(text) else p.model_file(theory)
    p.expect_eof()
    return out


def _parse_table(text, theory):
    return (parse_comodel_file if _is_comodel(text) else parse_model_file)(text, theory)


def _table_outcome(parse, text, theory):
    """What reading ``text`` gives: every entry of the table, or the error."""
    try:
        out = parse(text, theory)
    except ParseError as exc:
        return "syntax error", exc.line, exc.col, exc.reason
    except AlgeffError as exc:
        return type(exc), str(exc)
    if isinstance(out, Cointerpretation):
        worlds = out.world.elements()
        return out.world, [
            (name, repr([(p, w, out.coops[name](p, w))
                         for p in theory.op(name).param.iter_elements() for w in worlds]))
            for name in out.coops
        ]
    carrier = out.carrier.elements()
    return out.carrier, [
        (d.name, repr([(p, args, out.ops[d.name](p, args))
                       for p in d.param.iter_elements()
                       for args in itertools.product(carrier, repeat=d.arity.size())]))
        for d in theory.ops
    ]


_TABLE_THEORIES = {
    "state2": (SAMPLES / "state2.thy").read_text(),
    "state10": (SAMPLES / "state10.thy").read_text(),
    "io_hello": (SAMPLES / "io_hello.thy").read_text(),
    "choice": (SAMPLES / "choice.thy").read_text(),
    "semilattice": (SAMPLES / "semilattice.thy").read_text(),
    "pairs": "theory pairs {\n  op put : fin 2 * fin 2 ~> unit;\n  op get : unit ~> fin 2;\n}\n",
    "keywords": 'theory keywords {\n  op say : enum {"do", "in", "true", "fst", x} ~> unit;\n}\n',
}
_SAMPLE_TABLES = [
    ("state10.cmod", "state10"), ("state2.cmod", "state2"), ("hello.cmod", "io_hello"),
    ("altstream.cmod", "choice"),
    ("orlattice.mod", "semilattice"), ("badlattice.mod", "semilattice"),
]


def _cell_comodel(rng, n):
    """A comodel over a ``fin n`` cell, as the benchmark writes them, with
    some entries moved, respaced or broken."""
    entries = [f"get((); {w}) = ({w}; {w});" for w in range(n)]
    entries += [f"put({p}; {w}) = ((); {p});" for p in range(n) for w in range(n)]
    if rng.random() < 0.3:
        rng.shuffle(entries)
    if rng.random() < 0.3:
        i = rng.randrange(len(entries))
        entries[i] = rng.choice([
            entries[i].replace(")", " )", 1), entries[i].replace("; ", ";\t"),
            entries[i].replace("=", " =\r\n "), entries[i].replace(f"{n - 1}", f"{n}"),
            entries[i].replace("((); ", "(true; "), entries[i].replace(";", ",", 1), "",
            entries[0], entries[i] + " # a note",
        ])
    return "comodel cell {\n  world fin %d;\n%s\n}\n" % (n, "\n".join("  " + e for e in entries))


def _transcript(t):
    return "[" + ", ".join(f'"{label}"' for label in t) + "]"


def _io_files(labels=("a", "b", "c"), bound=3):
    """The benchmark's io theory and transcript comodel: worlds are string
    literals with escaped quotes."""
    quote = lambda t: '"' + _transcript(t).replace('"', '\\"') + '"'
    worlds = [t for n in range(bound + 1) for t in itertools.product(labels, repeat=n)]
    enum = ", ".join(f'"{label}"' for label in labels)
    theory = "theory io {\n  op print : enum {%s} ~> unit;\n}\n" % enum
    lines = ["comodel transcript {", "  world enum {" + ", ".join(map(quote, worlds)) + "};"]
    for t in worlds:
        for label in labels:
            nxt = t + (label,) if len(t) < bound else t
            lines.append(f'  print("{label}"; {quote(t)}) = ((); {quote(nxt)});')
    return theory, "\n".join(lines + ["}"]) + "\n"


def _powerset_model(rng, atoms, defect):
    """A join table of the subsets of ``atoms`` atoms, each subset labelled
    by a shuffled number, as the benchmark writes them."""
    size = 2 ** atoms
    subset_of = list(range(size))
    rng.shuffle(subset_of)
    label_of = {s: a for a, s in enumerate(subset_of)}
    join = {(a, b): label_of[subset_of[a] | subset_of[b]] for a in range(size) for b in range(size)}
    if defect:
        join[rng.randrange(size), rng.randrange(size)] = rng.choice([size, 0, "x", "true"])
    lines = ["model table {", f"  carrier fin {size};", f"  bot((); ) = {label_of[0]};"]
    lines += [f"  join((); {a}, {b}) = {r};" for (a, b), r in sorted(join.items())]
    return "\n".join(lines + ["}"]) + "\n"


def _comodel(world, *entries, end="}\n"):
    return f"comodel c {{\n  world {world};\n" + "".join(f"  {e}\n" for e in entries) + end


_STATE2 = ["get((); 0) = (0; 0);", "get((); 1) = (1; 1);", "put(0; 0) = ((); 0);",
           "put(0; 1) = ((); 0);", "put(1; 0) = ((); 1);", "put(1; 1) = ((); 1);"]


def _state2(*first, end="}\n"):
    """A whole comodel for state2.thy, with ``first`` in place of its first
    entries."""
    return _comodel("fin 2", *first, *_STATE2[len(first):], end=end)


def _say(label, spelt):
    """A whole comodel for the keywords theory, with the parameter ``label``
    spelt ``spelt``."""
    params = ('"do"', '"in"', '"true"', '"fst"', "x")
    return _comodel('enum {"a"}', *(f'say({spelt if p == label else p}; "a") = ((); "a");'
                                    for p in params))


def _orlattice(old, new):
    return (SAMPLES / "orlattice.mod").read_text().replace(old, new)


_SHADOWED = ('"do"', "x", '"in"', '"true"', '"fst"')

# (theory, text) pairs that each stop the entry pattern at a different place
_HAND_WRITTEN_TABLES = {
    "a comment between entries": ("state2", _comodel("fin 2", *_STATE2[:3], "# a", *_STATE2[3:])),
    "comment lines among entries": ("state2", _comodel(
        "fin 2", "# first; (); = {", *_STATE2[:2], "#", "# a # b", "##", *_STATE2[2:], "# last }")),
    "a comment at the end of the text": ("state2", _state2(end="} # done")),
    "a comment line after the table": ("state2", _state2(end="}\n# done\n\n")),
    "a comment and junk after the table": ("state2", _state2(end="} # done\nx\n")),
    # each comment runs to the end of its line, so forty of them on one line
    # are not tried as 2^40 ways of splitting it before the junk
    "a line of '#'s and junk after the table": ("state2", _state2(end="}" + " #" * 40 + "\nx\n")),
    "a '#' in a quoted world label": ("keywords", _comodel(
        'enum {"a#b", "#"}', '# "a#b"', 'say("do"; "a#b") = ((); "#"); # "#"', '# "a#b"',
        'say("do"; "#") = ((); "a#b");')),
    "a '#' in a label left open": ("keywords", _comodel('enum {"a#b"}', 'say("do"; "a#b) = ((); "a#b");')),
    "a comment after an entry": ("state2", _state2(_STATE2[0] + " # x;")),
    "a comment in the header": ("state2", "# a table; of state\ncomodel c { # here; too\n"
                                "  world fin 2; # and here\n" + "\n".join(_STATE2) + "\n}\n"),
    "a string with a ';' in the header": ("keywords", _comodel(
        'enum {"a;b", "c"}', 'say("do"; "a;b") = ((); "c");', 'say("do"; "c") = ((); "c");')),
    "a comment after the table": ("state2", _state2(end="} # done\n")),
    "junk after the table": ("state2", _state2(end="} x\n")),
    "a second closing brace": ("state2", _state2(end="}}")),
    "no closing brace": ("state2", _state2(end="")),
    "no newline at the end": ("state2", _state2(end="}")),
    "crlf lines and tabs": ("state2", _state2().replace("\n", "\r\n").replace(" ", "\t")),
    "no blanks": ("state2", _state2().replace(" ", "").replace("\n", "")
                  .replace("worldfin2", "world fin 2").replace("comodelc", "comodel c")),
    "a form feed": ("state2", _comodel("fin 2", *_STATE2[:2], "\x0c" + _STATE2[2], *_STATE2[3:])),
    "a no-break space": ("state2", _state2(_STATE2[0].replace(" ", "\xa0"))),
    "an empty table": ("state2", _comodel("fin 2")),
    "a pair element": ("pairs", _comodel(
        "fin 2", *_STATE2[:2],
        *(f"put(({a}, {b}); {w}) = ((); {b});"
          for a in range(2) for b in range(2) for w in range(2)),
    )),
    "fst of a pair": ("state2", _state2("get((); fst (0, 1)) = (0; 0);")),
    "a parenthesized element": ("state2", _state2("get((); (0)) = (0; 0);")),
    "a unit with a blank": ("state2", _comodel("fin 2", *(e.replace("()", "( )")
                                                          for e in _STATE2))),
    "a unit with a comment": ("state2", _state2("get((#\n); 0) = (0; 0);")),
    "labels that shadow keywords": ("keywords", _comodel(
        'enum {"return", "if", x}',
        'say("do"; "return") = ((); "if");', 'say(x; "return") = ((); x);',
        'say("in"; if) = ((); return);', 'say("true"; x) = ((); x);', 'say("fst"; x) = ((); x);',
        *(f"say({p}; {w}) = ((); {w});" for p in _SHADOWED for w in ('"if"', "x", '"return"')
          if (p, w) not in (('"do"', '"return"'), ("x", '"return"'), ('"in"', '"if"'),
                            ('"true"', "x"), ('"fst"', "x"))),
    )),
    "a keyword for a label": ("keywords", _say('"do"', "do")),
    "true for a label": ("keywords", _say('"true"', "true")),
    "fst for a label": ("keywords", _say('"fst"', "fst")),
    "a string with blanks for a label": ("keywords", _say('"in"', '" in"')),
    "a non-member parameter": ("state2", _state2("get((); 2) = (0; 0);")),
    "a non-member result": ("state2", _state2("get((); 0) = (7; 0);")),
    "a boolean for an integer": ("state2", _state2("get((); false) = (0; 0);")),
    "a duplicate": ("state2", _comodel("fin 2", *_STATE2, _STATE2[3])),
    "a duplicate spelt otherwise": ("state2", _comodel("fin 2", *_STATE2, "put(00; 1) = ((); 0);")),
    "a missing entry": ("state2", _comodel("fin 2", *_STATE2[:-1])),
    "an unknown operation": ("state2", _comodel("fin 2", *_STATE2, "abort((); 0) = ((); 0);")),
    "an arrow for '='": ("state2", _state2(_STATE2[0].replace("=", "=>"))),
    "leading zeros": ("state2", _comodel("fin 2", *(e.replace(" 0", " 000") for e in _STATE2))),
    "another script's digits": ("state2", _state2("get((); ٠) = (0; 0);")),
    "a digit run into a name": ("state2", _state2("get((); 0x) = (0; 0);")),
    "a superscript digit": ("state2", _state2("get((); ²) = (0; 0);")),
    "escapes in strings": ("keywords", _comodel(
        'enum {"a\\"b", "t\\tn\\n", "s\\\\", "e\\x"}',
        *(f'say(x; {w}) = ((); "a\\"b");' for w in ('"a\\"b"', '"t\\tn\\n"', '"s\\\\"', '"ex"')),
    )),
    "a string left open": ("keywords", _comodel('enum {"a"}', 'say(x; "a) = ((); "a");')),
    "a product world": ("state2", _comodel("fin 2 * fin 2", "get((); (0, 0)) = (0; (0, 0));")),
    "a model read as a comodel": ("semilattice", _orlattice("model", "comodel")),
    "a model with a comment": ("semilattice", _orlattice("= false;", "= false; # unit")),
    "a model with too many arguments": ("semilattice", _orlattice("bot((); )", "bot((); false)")),
    "a model with too few arguments": ("semilattice", _orlattice("(); true, true)", "(); true)")),
    "a model with a string argument": ("semilattice", _orlattice("(); true, true)",
                                                                 '(); true, "a,b")')),
    "a model missing an entry": ("semilattice", _orlattice("  join((); true, true) = true;\n", "")),
    "a model with a duplicate": ("semilattice", _orlattice("}", "  join((); true ,true) = true;}")),
    "a model over a keyword carrier": ("semilattice", (
        'model m {\n  carrier enum {"if", z};\n  bot((); ) = if;\n'
        + "".join(f"  join((); {a}, {b}) = z;\n" for a in ("if", "z") for b in ("if", "z")) + "}\n"
    )),
}


def _mutated_tables(count, seed):
    """Whole table files, with one to three characters inserted, replaced or
    deleted."""
    rng = random.Random(seed)
    bases = [((SAMPLES / name).read_text(), theory) for name, theory in _SAMPLE_TABLES]
    alphabet = list(' \n\t#"\\_-<>=09x();,{}') + [" ", "٣", "\x0c"]
    for _ in range(count):
        text, theory = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:i] + rng.choice(alphabet) + text[i:]
            elif edit == 1:
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + rng.choice(alphabet) + text[i + 1:]
        yield theory, text


def _table_corpus():
    rng = random.Random(11)
    io_theory, io_comodel = _io_files()
    theories = {name: parse_theory_file(text) for name, text in _TABLE_THEORIES.items()}
    theories["io"] = parse_theory_file(io_theory)
    cases = [(theory, (SAMPLES / name).read_text()) for name, theory in _SAMPLE_TABLES]
    cases += [("io", io_comodel), ("io", io_comodel.replace('\\"a\\"', '\\"a\\" '))]
    cases += list(_HAND_WRITTEN_TABLES.values())
    cases += list(_mutated_tables(600, seed=12))
    for text in _mutated_samples(400, seed=6):
        cases += [("state10", text), ("semilattice", text), ("io_hello", text)]
    for n in range(1, 13):
        for _ in range(4):
            theory = f"cell{n}"
            theories[theory] = parse_theory_file(
                _TABLE_THEORIES["state2"].replace("fin 2", f"fin {n}"))
            cases.append((theory, _cell_comodel(rng, n)))
    for atoms in (1, 2, 3, 4):
        for defect in (False, True, True):
            cases.append(("semilattice", _powerset_model(rng, atoms, defect)))
    labels = [("a", "b"), ('q"', "r"), ("x y", "\\"), (" a", "b ")]
    for i, ls in enumerate(labels):
        quoted = tuple(l.replace("\\", "\\\\").replace('"', '\\"') for l in ls)
        theory, text = _io_files(quoted, 2)
        theories[f"io{i}"] = parse_theory_file(theory)
        cases.append((f"io{i}", text))
    return [(theories[name], text) for name, text in cases]


def test_the_entry_pattern_reads_what_the_entry_loops_read():
    fitted = 0
    for theory, text in _table_corpus():
        expected = _table_outcome(_reference_table, text, theory)
        assert _table_outcome(_parse_table, text, theory) == expected, text
        by_pattern = parser._comodel_by_pattern if _is_comodel(text) else parser._model_by_pattern
        try:
            fitted += by_pattern(text, theory) is not None
        except AlgeffError:  # a table the pattern reads, with an entry missing
            fitted += 1
    # the pattern reads the generated tables that fit it, and falls back on
    # the rest
    assert fitted > 90


def _refuse_entries(*args):
    raise AssertionError("a table was read token by token")


def _with_comment_lines(text):
    """text with a comment line after every line of its entries, and a
    comment after its closing brace."""
    head, _, rest = text.partition(";\n")
    body, _, _ = rest.rpartition("}")
    lines = [line + "\n  # " + line.replace(";", ",") for line in body.splitlines()]
    return head + ";\n# entries\n" + "\n".join(lines) + "\n# end\n} # done\n"


@pytest.mark.parametrize("name", ["state10.cmod", "hello.cmod", "orlattice.mod", "io.cmod",
                                  "state10.cmod with comments", "orlattice.mod with comments",
                                  "a '#' in a label"])
def test_sample_tables_never_reach_the_entry_loops(name, monkeypatch):
    monkeypatch.setattr(_Parser, "comodel_entries", _refuse_entries)
    monkeypatch.setattr(_Parser, "model_entries", _refuse_entries)
    if name == "io.cmod":
        theory_text, text = _io_files()
        theory = parse_theory_file(theory_text)
    elif name == "a '#' in a label":
        theory_text, text = _io_files(("#", "a # b"), 2)
        theory = parse_theory_file(theory_text)
    elif name.endswith(" with comments"):
        name = name.split()[0]
        theory_name = {"state10.cmod": "state10.thy", "orlattice.mod": "semilattice.thy"}[name]
        theory = parse_theory_file((SAMPLES / theory_name).read_text())
        text = _with_comment_lines((SAMPLES / name).read_text())
    else:
        theory_name = {"state10.cmod": "state10.thy", "hello.cmod": "io_hello.thy",
                       "orlattice.mod": "semilattice.thy"}[name]
        theory = parse_theory_file((SAMPLES / theory_name).read_text())
        text = (SAMPLES / name).read_text()
    out = _table_outcome(_parse_table, text, theory)
    monkeypatch.undo()
    assert out == _table_outcome(_reference_table, text, theory)
    assert out[0] != "syntax error"


# -- program positions, found only when read ---------------------------------


def _refuse_to_tokenize(*args):
    raise AssertionError("a text was tokenized for its positions")


_HANDLED = (
    "do f <- with handler { return x -> return (fun s -> return (x, s))"
    " | get(u; k) -> return (fun s -> do f <- k s in f s)"
    " | put(s2; k) -> return (fun s -> do f <- k () in f s2) }"
    " handle (do x <- get!(()) in do u <- put!(x + 1) in return x) in f 3"
)


@pytest.mark.parametrize("argv", [
    ("run", "increment.eff", *_STATE10),
    ("run", "abort.eff", *_STATE10),
    # the world as a string literal: "[]" unquoted is not an element, so it
    # is taken as a label once reading it as an element has failed, and the
    # failure finds its position
    ("run", "hello.eff", "--theory", "io_hello.thy", "--comodel", "hello.cmod", "--world", '"[]"'),
    ("run", _HANDLED, *_STATE10),
    ("type", "increment.eff", "--theory", "state10.thy"),
    ("type", "hello.eff", "--theory", "io_hello.thy"),
    ("type", _HANDLED, "--theory", "state10.thy"),
])
def test_run_and_type_never_tokenize(monkeypatch, capsys, argv):
    from algeff.cli import main

    monkeypatch.setattr(parser, "tokenize", _refuse_to_tokenize)
    argv = [str(SAMPLES / a) if (SAMPLES / a).is_file() else a for a in argv]
    assert main(argv) in (0, 2)
    assert "error" not in capsys.readouterr().err


_PROGRAM_THEORY = (
    'theory t {\n  op get : unit ~> fin 10;\n  op put : fin 10 ~> unit;\n'
    '  op abort : unit ~> empty;\n  op print : enum {"Hello world!"} ~> unit;\n}\n'
)


def _mutated_programs(count, seed):
    """Sample programs with one or two literals or names swapped for others,
    so that most still parse and many no longer type-check."""
    texts = [path.read_text() for path in sorted(SAMPLES.glob("*.eff"))] + ROUND_TRIP + [_HANDLED]
    pool = ["true", "()", "1", '"s"', "x", "k", "(1, true)", "fun z -> return z", "get", "s"]
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 2)):
            spots = re.finditer(r"\b(?:\d+|[a-z]\w*)\b|\(\)", text)
            m = rng.choice([m for m in spots if m[0] not in parser._KEYWORDS - {"true", "false"}])
            text = text[:m.start()] + rng.choice(pool) + text[m.end():]
        yield text


def _placed(node):
    """Every node under ``node`` (a program), with its position."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        if isinstance(n, tuple):
            stack.extend(n)
        elif isinstance(n, lang._Syntax):
            out.append((type(n).__name__, n.pos))
            stack.extend(getattr(n, f) for f in n._fields)
    return out


def _typing(text, theory):
    """The positions of a program's nodes and its type, or its error."""
    code = [line for line in text.splitlines() if not line.lstrip().startswith("#")]
    read = parse_value_text if "\n".join(code).lstrip().startswith("handler") else parse_program
    try:
        prog = read(text)
    except ParseError as exc:
        return "syntax error", exc.line, exc.col, exc.reason
    check = lang.typecheck_value if read is parse_value_text else lang.typecheck_comp
    try:
        typed = str(check(theory, prog))
    except AlgeffError as exc:
        typed = type(exc), str(exc), getattr(exc, "pos", None)
    return _placed(prog), typed


def test_type_errors_report_the_positions_read_eagerly(monkeypatch):
    theory = parse_theory_file(_PROGRAM_THEORY)
    kinds = []
    for text in _mutated_programs(1500, seed=3):
        lazy = _typing(text, theory)
        with monkeypatch.context() as eager:
            # each node placed as it is read, as before positions were lazy
            eager.setattr(_Parser, "mark", _Parser.pos)
            assert _typing(text, theory) == lazy, text
        if lazy[0] != "syntax error" and type(lazy[1]) is tuple:
            kinds.append(lazy[1][0])
    assert kinds.count(TypeMismatch) > 100
    assert kinds.count(UnboundVariable) > 250


def test_a_parsed_program_keeps_its_positions_and_no_parser():
    text = "# a comment\ndo x <- get!() in\n  do u <- put!(x + 1) in return x"
    prog = parse_program(text)
    assert not _reaches_a_parser(prog)
    assert prog.pos == (2, 1) and prog.rest.pos == (3, 3)
    assert prog.rest.first.arg.pos == (3, 16)  # x + 1
    positions = _placed(prog)
    for again in (copy.copy(prog), copy.deepcopy(prog), pickle.loads(pickle.dumps(prog))):
        assert again == prog and _placed(again) == positions
    assert type(pickle.loads(pickle.dumps(prog))._at) is tuple


# an else branch nests by recursion in the parser and the type checker (a
# do in rest position is read by a loop, at any length)
ELSE = "if true then return x else "


def test_a_syntax_error_is_reported_at_any_depth_the_parser_reaches():
    def nested(n, tail):
        return ELSE * n + tail

    def parses(n):
        try:
            parse_program(nested(n, "return x"))
        except RecursionError:
            return False
        return True

    low, high = 10, 20_000  # the deepest program that parses is in [low, high)
    assert parses(low) and not parses(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if parses(mid) else (low, mid)
    for tail, col, reason in (("return )", 8, "expected a value, found ')'"),
                              ("return", 7, "expected a value, found 'end of input'")):
        with pytest.raises(ParseError) as err:
            parse_program(nested(low, tail))
        assert (err.value.line, err.value.col, err.value.reason) == (
            1, len(ELSE) * low + col, reason
        )


def test_a_type_error_is_reported_at_any_depth_the_type_checker_reaches():
    theory = parse_theory_file((SAMPLES / "state2.thy").read_text())
    x_bound = {"x": lang.T_INT}  # as a get of state2.thy would bind it

    def nested(n, tail):
        return ELSE * n + tail

    def checks(n):
        try:
            lang.typecheck_comp(theory, parse_program(nested(n, "return x")), x_bound)
        except RecursionError:
            return False
        return True

    low, high = 10, 20_000  # the deepest program that type-checks is in [low, high)
    assert checks(low) and not checks(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if checks(mid) else (low, mid)
    for tail, kind, message in (
        ("return x + true", TypeMismatch, "type error at 1:{}: expected int, found bool"),
        ("return y", UnboundVariable, "unbound variable at 1:{}: y"),
        ("foo!()", UnknownOperation, "unknown operation at 1:{}: foo"),
    ):
        col = len(ELSE) * low + {TypeMismatch: 12, UnboundVariable: 8, UnknownOperation: 1}[kind]
        with pytest.raises(AlgeffError) as err:
            lang.typecheck_comp(theory, parse_program(nested(low, tail)), x_bound)
        assert type(err.value) is kind
        assert str(err.value) == message.format(col)


def test_a_theory_file_builds_its_partial_theory_once_per_run_of_operations(monkeypatch):
    built = []
    monkeypatch.setattr(parser, "Theory", lambda *args: built.append(args) or terms.Theory(*args))

    def constructions(text):
        built.clear()
        theory = parse_theory_file(text)
        assert type(theory) is terms.Theory
        return len(built)

    # state10.thy's three operations are read before its first equation:
    # one partial theory for its equations, and the theory itself
    assert constructions((SAMPLES / "state10.thy").read_text()) == 2
    assert constructions("theory t { op a : unit ~> bool; op b : unit ~> bool; }") == 1
    interleaved = (
        "theory t {\n"
        "  op a : unit ~> bool;\n"
        "  equation e (enum {x}) : a((); return x, return x) = return x;\n"
        "  equation f (enum {x}) : return x = return x;\n"
        "  op b : unit ~> bool;\n"
        "  equation g (enum {x}) : b((); return x, return x) = a((); return x, return x);\n"
        "}\n"
    )
    assert constructions(interleaved) == 3
    # an equation sees only the operations declared above it
    early = interleaved.replace("equation f (enum {x}) : return x = return x;",
                                "equation f (enum {x}) : b((); return x, return x) = return x;")
    with pytest.raises(ParseError, match="unknown operation"):
        parse_theory_file(early)

