import itertools
from pathlib import Path

import pytest

from algeff.errors import AlgeffError, TypeMismatch
from algeff.free import FreeElement, eta, lift
from algeff.interp import (
    Closure,
    EvalError,
    HandlerCheck,
    HandlerClosure,
    HandlerVerdict,
    KontValue,
    PrimFun,
    SymVal,
    apply_value,
    base_env,
    check_handler_equations,
    compare_trees,
    handle,
    run_program,
)
from algeff.lang import (
    App,
    BoolLit,
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
    UnitLit,
    Var,
    WithHandle,
    typecheck_comp,
    typecheck_value,
)
from algeff.parser import parse_theory_file, parse_value_text
from algeff.terms import Equation, OpNode, Theory
from algeff.terms import Return as Leaf
from algeff.theories import (
    choice_theory,
    exception_theory,
    io_theory,
    single_state_theory,
)
from algeff.universe import UNIT, Bool, Enum, Fin, Product

from tests.test_lang import exception_handler, increment_program, state_passing_handler

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
STATE3 = single_state_theory(Fin(3))
EXC = exception_theory()
CHOICE = choice_theory()


def run(prog, theory):
    typecheck_comp(theory, prog)
    return run_program(prog, theory)


def test_eval_do_return():
    prog = Do("x", Return(BoolLit(True)), Return(Var("x")))
    assert run(prog, STATE3).tree == Leaf(True)


def test_eval_increment_builds_the_whole_tree():
    out = run(increment_program(), single_state_theory(Fin(3)))
    assert out.tree == OpNode(
        "get",
        (),
        (
            OpNode("put", 1, (Leaf(0),)),
            OpNode("put", 2, (Leaf(1),)),
            OpNode("put", 0, (Leaf(2),)),  # 2+1 wraps around in Fin(3)
        ),
    )


def test_eval_if_takes_the_chosen_branch():
    prog = If(BoolLit(True), Return(IntLit(1)), OpCall("abort", UnitLit()))
    out = run(prog, EXC)
    assert out.tree == Leaf(1)


def test_eval_application_and_projections():
    prog = Do(
        "p",
        Return(Pair(IntLit(1), BoolLit(False))),
        App(Var("fst"), Var("p")),
    )
    assert run(prog, STATE3).tree == Leaf(1)
    prog2 = Do("f", Return(Fun("x", Return(Plus(Var("x"), IntLit(2))))), App(Var("f"), IntLit(2)))
    assert run(prog2, STATE3).tree == Leaf(4)


def test_eval_if_rejects_non_boolean():
    with pytest.raises(EvalError):
        run_program(If(Var("x"), Return(UnitLit()), Return(UnitLit())), STATE3)


def test_opcall_produces_generic_operation():
    out = run(OpCall("choose", UnitLit()), CHOICE)
    assert out.tree == OpNode("choose", (), (Leaf(False), Leaf(True)))


def test_handle_return_clause():
    h = HandlerClosure(exception_handler(), base_env())
    out = handle(h, eta(EXC, 7))
    assert out.tree == Leaf(7)


def test_handle_abort_clause():
    prog = WithHandle(
        exception_handler(),
        Do("u", OpCall("abort", UnitLit()), Return(BoolLit(True))),
    )
    assert run(prog, EXC).tree == Leaf(False)


def test_handle_both_branches_of_choose():
    both = HandlerLit(
        "x",
        Return(Var("x")),
        (
            OpClause(
                "choose",
                "u",
                "k",
                Do(
                    "a",
                    App(Var("k"), BoolLit(True)),
                    Do("b", App(Var("k"), BoolLit(False)), Return(Pair(Var("a"), Var("b")))),
                ),
            ),
        ),
    )
    # not typecheckable (the clause pairs while the return clause does not),
    # but evaluation follows the defining equations all the same
    prog = WithHandle(both, Do("b", OpCall("choose", UnitLit()), Return(Var("b"))))
    assert run_program(prog, CHOICE).tree == Leaf((True, False))


def test_handler_without_clauses_is_lift_of_its_return_clause():
    h = HandlerClosure(HandlerLit("x", Return(Pair(Var("x"), Var("x"))), ()), base_env())
    for tree in [
        Leaf(1),
        OpNode("put", 2, (OpNode("get", (), (Leaf(0), Leaf(1), Leaf(2))),)),
    ]:
        elem = FreeElement(STATE3, tree)
        via_handler = handle(h, elem)
        via_lift = lift(lambda v: eta(STATE3, (v, v)))(elem)
        assert via_handler == via_lift


def test_handle_forwards_unhandled_operations():
    h = HandlerClosure(exception_handler(), base_env())
    th = STATE3
    tree = OpNode("get", (), (Leaf(0), Leaf(1), Leaf(2)))
    out = handle(h, FreeElement(th, tree), th)
    assert out.tree == tree


def test_deterministic_evaluation():
    prog = increment_program()
    assert run_program(prog, STATE3) == run_program(prog, STATE3)


def test_deep_handling_reaches_nested_operations():
    prog = WithHandle(
        exception_handler(),
        Do(
            "x",
            Return(BoolLit(True)),
            If(Var("x"), Do("u", OpCall("abort", UnitLit()), Return(Var("x"))), Return(Var("x"))),
        ),
    )
    assert run(prog, EXC).tree == Leaf(False)


def test_kont_value_application():
    k = KontValue(Fin(2), (eta(STATE3, "a"), eta(STATE3, "b")))
    assert apply_value(k, 1, STATE3).tree == Leaf("b")
    with pytest.raises(EvalError):
        k.at(5)


def test_symbolic_application_accumulates_arguments():
    s = SymVal("f")
    out = apply_value(s, 3, STATE3)
    assert out.tree == Leaf(SymVal("f", (3,)))


# ---------------------------------------------------------------------------
# Handler-equation checking


def checked_handler(theory, hl):
    ht = typecheck_value(theory, hl)
    return HandlerClosure(hl, base_env()), ht.out


def test_state_passing_handler_respects_all_four_laws():
    th = single_state_theory(Fin(2))
    h, out = checked_handler(th, state_passing_handler())
    result = check_handler_equations(h, th, out)
    assert result.verdict is HandlerVerdict.RESPECTED
    assert result.skipped == ()


def broken_put_handler():
    # the put clause resumes with the old state instead of the written one
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
                Return(Fun("s", Do("f", App(Var("k"), UnitLit()), App(Var("f"), Var("s"))))),
            ),
        ),
    )


def test_dropping_the_written_state_violates_put_get():
    th = single_state_theory(Fin(2))
    h, out = checked_handler(th, broken_put_handler())
    result = check_handler_equations(h, th, out)
    assert result.verdict is HandlerVerdict.VIOLATED
    assert result.equation == "put_get"


def test_handlers_over_io_are_respected_vacuously():
    io = io_theory(Enum(("a",)))
    hl = HandlerLit("x", Return(Var("x")), (OpClause("print", "p", "k", App(Var("k"), UnitLit())),))
    h, out = checked_handler(io, hl)
    result = check_handler_equations(h, io, out)
    assert result.verdict is HandlerVerdict.RESPECTED


def test_partial_coverage_skips_and_reports():
    th = single_state_theory(Fin(2))
    hl = HandlerLit(
        "x",
        Return(Var("x")),
        (OpClause("get", "u", "k", App(Var("k"), IntLit(0))),),
    )
    h, out = checked_handler(th, hl)
    result = check_handler_equations(h, th, out)
    assert set(result.skipped) == {"get_put", "put_get", "put_put"}


def test_compare_trees_with_normalizer_separates():
    t1 = Leaf(1)
    t2 = Leaf(2)
    from algeff.lang import CompType, T_INT

    assert compare_trees(t1, t2, CompType(T_INT, frozenset()), STATE3) is False
    assert compare_trees(t1, Leaf(1), CompType(T_INT, frozenset()), STATE3) is True


def test_compare_trees_of_any_depth():
    from algeff.lang import T_INT, CompType

    free = parse_theory_file("theory free { op join : unit ~> bool; }")
    at = CompType(T_INT, frozenset({"join"}))

    def chain(bottom):
        t = Leaf(bottom)
        for i in range(5_000):
            t = OpNode("join", (), (Leaf(i), t))
        return t

    assert compare_trees(chain(-1), chain(-1), at, free) is True
    assert compare_trees(chain(-1), chain(-2), at, free) is False


def test_compare_trees_over_a_leaf_set_of_functions_is_not_separable():
    from algeff.lang import T_BOOL, CompType, TArrow

    # equal but not identical functions; their environments cannot be hashed
    f1 = Closure("x", Return(Var("x")), {"n": {}})
    f2 = Closure("y", Return(Var("y")), {"n": {}})
    at = CompType(TArrow(T_BOOL, CompType(T_BOOL, frozenset())), frozenset())
    both = OpNode("choose", (), (Leaf(f1), Leaf(f2)))
    assert compare_trees(both, Leaf(f1), at, CHOICE) is not False
    assert compare_trees(both, both, at, CHOICE) is True


def test_compare_trees_without_a_normal_form_cannot_separate_leaves():
    from algeff.lang import T_INT, CompType

    comm = parse_theory_file(
        "theory comm { op join : unit ~> bool; equation comm (enum {x, y}) : "
        "join((); return x, return y) = join((); return y, return x); }"
    )
    at = CompType(T_INT, frozenset({"join"}))
    join = lambda a, b: OpNode("join", (), (Leaf(a), Leaf(b)))
    # equal by comm, though the leaves differ place by place
    assert compare_trees(join(1, 2), join(2, 1), at, comm) is None
    assert compare_trees(join(1, 2), join(1, 2), at, comm) is True
    assert compare_trees(Leaf(1), Leaf(2), at, comm) is None
    # a theory with no equations has its trees as normal forms
    free = parse_theory_file("theory free { op join : unit ~> bool; }")
    assert compare_trees(join(1, 2), join(2, 1), at, free) is False
    assert compare_trees(Leaf(1), Leaf(2), at, free) is False


# ---------------------------------------------------------------------------
# Subject reduction at the tree level


def value_has_type(v, t):
    from algeff import lang as L

    if isinstance(t, L.TVar):
        return True
    if isinstance(t, L.TBool):
        return type(v) is bool
    if isinstance(t, L.TUnit):
        return v == ()
    if isinstance(t, L.TInt):
        return type(v) is int
    if isinstance(t, L.TStr):
        return isinstance(v, str)
    if isinstance(t, L.TProd):
        return (
            type(v) is tuple
            and len(v) == 2
            and value_has_type(v[0], t.left)
            and value_has_type(v[1], t.right)
        )
    if isinstance(t, L.TArrow):
        return isinstance(v, (Closure, PrimFun, KontValue))
    if isinstance(t, L.THandler):
        return isinstance(v, HandlerClosure)
    return False  # TEmpty has no values


SUBJECT_REDUCTION_CORPUS = [
    "return true",
    "do x <- get!() in do u <- put!(x + 1) in return x",
    "do x <- get!() in if true then return (x, x) else return (x, 0)",
    "do u <- abort!() in return false",
    "do f <- return (fun s -> return (s, s)) in f 2",
    "with handler { return x -> return x | abort(u; k) -> return 0 }"
    " handle do u <- abort!() in return 1",
    "do x <- get!() in do u <- put!(0) in abort!()",
]


def test_subject_reduction_on_corpus():
    from algeff.parser import parse_program
    from algeff.terms import tree_leaves, tree_ops
    from algeff.theories import combine

    theory = combine(single_state_theory(Fin(3)), exception_theory())
    for source in SUBJECT_REDUCTION_CORPUS:
        prog = parse_program(source)
        ctype = typecheck_comp(theory, prog)
        tree = run_program(prog, theory).tree
        assert tree_ops(tree) <= ctype.dirt
        for leaf in tree_leaves(tree):
            assert value_has_type(leaf, ctype.value), (source, leaf, ctype)


def stateh_check(theory):
    text = (SAMPLES / "stateh.eff").read_text()
    h, out = checked_handler(theory, parse_value_text(text))
    return check_handler_equations(h, theory, out)


def test_handler_check_compares_leaves_without_normalizing(monkeypatch):
    import algeff.interp as interp

    calls = []
    normalize = interp.normalize

    def counting(theory, t):
        calls.append(t)
        return normalize(theory, t)

    monkeypatch.setattr(interp, "normalize", counting)
    assert stateh_check(STATE3).verdict is HandlerVerdict.RESPECTED
    assert calls == []


def test_handler_check_budget_follows_the_environment(monkeypatch):
    theory = parse_theory_file((SAMPLES / "state2.thy").read_text())
    assert stateh_check(theory).verdict is HandlerVerdict.RESPECTED
    monkeypatch.setenv("ALGEFF_BUDGET", "1")
    assert stateh_check(theory).verdict is HandlerVerdict.UNKNOWN


# ---------------------------------------------------------------------------
# One replay per parsed family, at a symbolic parameter


def test_a_parameter_symbol_allows_projection_hashing_and_equality_with_itself():
    from algeff.interp import ParamSymbol

    p = ParamSymbol()
    assert p[0] == ParamSymbol((0,)) and p[1][0] == ParamSymbol((1, 0))
    assert not p[0] != ParamSymbol((0,))
    assert hash(p[1]) == hash(ParamSymbol((1,)))
    assert len({p, ParamSymbol(), p[0]}) == 2
    inspections = [
        lambda: p == 0, lambda: 0 == p, lambda: p[0] == p[1], lambda: p == (p[0], p[1]),
        lambda: p != 0, lambda: bool(p), lambda: list(p), lambda: len(p), lambda: 1 in p,
        lambda: p < p, lambda: p + 1, lambda: 1 + p, lambda: [0, 1][p], lambda: p[2],
        lambda: p[True], lambda: UNIT.contains(p), lambda: KontValue(Fin(2), segment=()).at(p),
    ]
    for inspect in inspections:
        with pytest.raises(EvalError):
            inspect()
    # the other universes refuse it by its type, so no operation takes it
    for u in (Fin(3), Product(Fin(2), Fin(2)), Enum(("a",)), Bool()):
        assert u.contains(p) is False


def test_a_parsed_state_check_replays_put_put_once(monkeypatch):
    import algeff.interp as interp

    calls = []
    handle = interp.handle
    monkeypatch.setattr(interp, "handle", lambda *args: calls.append(1) or handle(*args))
    assert stateh_check(parsed_state_theory("fin 10")).verdict is HandlerVerdict.RESPECTED
    # get_get and get_put once each, put_get and put_put once each at a
    # symbol (put_get's continuation takes the branch at it): two sides
    # each; every instance by itself took 224, and put_get per state 28
    assert len(calls) == 8


def test_a_parameter_tested_by_if_leaves_its_family_to_the_loop():
    theory = parse_theory_file(
        "theory b { op put : bool ~> unit; equation put_put forall p in bool * bool (unit) :"
        " put(fst p; \\u. put(snd p; \\v. return v)) = put(snd p; \\v. return v); }"
    )
    hl = parse_value_text(
        "handler { return x -> return (fun s -> return (x, s))"
        " | put(s2; k) -> return (fun s -> if s2 then (do f <- k () in f s2)"
        " else (do f <- k () in f s)) }"
    )
    h, out = checked_handler(theory, hl)
    # the instances with fst p false differ at a leaf the law may identify;
    # taking the then branch at the symbol would read the family as holding
    results = assert_loop_parity(theory, h, out)
    assert [r.verdict for r in results] == [HandlerVerdict.UNKNOWN] * 4


ABORT_THEORY = (SAMPLES / "state2.thy").read_text().replace(
    "  op put : fin 2 ~> unit;\n",
    "  op put : fin 2 ~> unit;\n  op abort : unit ~> empty;\n"
    "  equation abort_put (unit) : abort((); \\x. put(x; \\u. return u)) = abort(());\n",
)


def test_an_operation_under_an_empty_arity_needs_no_clause():
    theory = parse_theory_file(ABORT_THEORY)
    assert theory.eqs[0].lhs.ops == frozenset({"abort"})
    h, out = checked_handler(theory, parse_value_text((SAMPLES / "stateh.eff").read_text()))
    result = assert_loop_parity(theory, h, out)[-1]
    assert result == HandlerCheck(HandlerVerdict.RESPECTED, skipped=("abort_put",))
    with_abort = (SAMPLES / "stateh.eff").read_text().replace(
        "\n}", "\n| abort(u; k) -> return (fun s -> return (0, s))\n}")
    h, out = checked_handler(theory, parse_value_text(with_abort))
    assert assert_loop_parity(theory, h, out)[-1] == HandlerCheck(HandlerVerdict.RESPECTED)


def test_a_budget_of_one_builds_one_instance_over_a_large_theory(tmp_path, monkeypatch, capsys):
    from algeff import terms
    from algeff.cli import main

    builds = []
    for cls, name in ((terms._Instances, "__call__"), (terms._Instances, "lazy"),
                      (terms.Branches, "branch")):
        build = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, p, name=name, build=build:
                            builds.append(name) or build(self, p))
    path = tmp_path / "state300.thy"
    path.write_text((SAMPLES / "state2.thy").read_text().replace("fin 2", "fin 300"))
    monkeypatch.setenv("ALGEFF_BUDGET", "1")
    assert main(["check", "handler", str(SAMPLES / "stateh.eff"), "--theory", str(path)]) == 1
    assert capsys.readouterr().out == "Unknown\n"
    # get_get's two sides, each built for its replay: its operations, and
    # every other family's, come from the templates, and no instance past
    # the budget is built.  Of its 300 * 300 + 300 branches, the replay at a
    # symbol for every state builds the three it takes
    assert builds == ["lazy", "lazy", "branch", "branch", "branch"]


def test_a_handler_check_reads_each_template_sides_operations_once(monkeypatch, capsys):
    from algeff import terms
    from algeff.cli import main

    walks = []
    compile = terms.compile
    monkeypatch.setattr(terms, "compile", lambda shape, algebra: (
        algebra is terms.OPS and walks.append(shape)) or compile(shape, algebra))
    for _ in range(2):  # each command reads its theory afresh
        walks.clear()
        assert main(["check", "handler", str(SAMPLES / "stateh.eff"),
                     "--theory", str(SAMPLES / "state10.thy")]) == 0
        assert capsys.readouterr().out == "Respected (bounded)\n"
        # the four equations' eight sides, each walked once
        assert len(walks) == 8


def perfbench_gen(monkeypatch):
    """The benchmark's input generator, perfbench/gen.py."""
    import importlib

    monkeypatch.syspath_prepend(str(SAMPLES.parent / "perfbench"))
    return importlib.import_module("gen")


def test_symbols_of_different_roots_are_never_confused():
    from algeff.terms import Branches, ParamSymbol, sort_key

    family = ParamSymbol((), Product(Fin(2), Fin(3)), "family")
    sample = ParamSymbol((), Product(Fin(2), Fin(3)), "sample")
    assert family == ParamSymbol((), Fin(9), "family") and family[1] == family[1]
    assert family[0].universe == Fin(2) and family[1].universe == Fin(3)
    assert family[0].root == "family" and family[1].path == (1,)
    for inspect in (lambda: family == sample, lambda: family[0] == sample[0],
                    lambda: family[0] == family[1], lambda: family[0][0],
                    lambda: sort_key(family), lambda: sort_key((0, family[1]))):
        with pytest.raises(EvalError):
            inspect()
    # a symbol selects a branch of a node built from a binder body, only
    # through a continuation over an arity that holds all it stands for
    node = Branches("get", (), lambda env: Leaf(env[1]), {0: ()}, 1, Fin(3).elements())
    assert node.branch(family[1]) == Leaf(family[1])
    assert KontValue(Fin(3), segment=()).index(family[1]) is None
    assert KontValue(Fin(4), segment=()).index(family[0]) is None
    for outside in (KontValue(Fin(2), segment=()), KontValue(Fin(3), (eta(STATE3, 0),) * 3)):
        with pytest.raises(EvalError):
            outside.index(family[1])


@pytest.mark.parametrize("n", [2, 5, 10])
def test_the_put_keeps_state_handler_still_violates_put_get(tmp_path, monkeypatch, capsys, n):
    from algeff.cli import main

    gen = perfbench_gen(monkeypatch)
    handler, theory = tmp_path / "put-keeps-state.eff", tmp_path / f"cell{n}.thy"
    handler.write_text(gen.PUT_KEEPS_STATE_HANDLER)
    theory.write_text(gen.state_theory_text(n, abort=False))
    # at put_get's symbol, the left side's state function returns the sample
    # symbol it is applied at where the right side's returns the family's:
    # two symbols with one path, which compare equal only if confused
    assert main(["check", "handler", str(handler), "--theory", str(theory)]) == 1
    assert capsys.readouterr().out == "Violated: equation put_get, param 0\n"


def test_a_get_clause_stays_unknown_where_the_samples_pass_its_arity():
    # samples run to 4, past the state's fin 3: the get function applies its
    # continuation at 3, outside get's arity, so no symbol for every sample
    # may select a branch
    theory = parse_theory_file(parsed_state_theory_text("fin 3").replace(
        "  op put : fin 3 ~> unit;\n", "  op put : fin 3 ~> unit;\n  op tick : fin 5 ~> unit;\n"))
    h, out = checked_handler(theory, parse_value_text((SAMPLES / "stateh.eff").read_text()))
    results = assert_loop_parity(theory, h, out)
    assert [r.verdict for r in results] == [HandlerVerdict.UNKNOWN] * 4
    assert check_handler_equations(h, single_state_theory(Fin(3)), out).verdict \
        is HandlerVerdict.RESPECTED


@pytest.mark.parametrize("abort", [False, True])
def test_the_benchmark_state_theories_keep_every_handler_check(monkeypatch, abort):
    gen = perfbench_gen(monkeypatch)
    for n in range(1, 11):
        theory = parse_theory_file(gen.state_theory_text(n, abort))
        for name, h, out in typed_parity_handlers(theory):
            assert_loop_parity(theory, h, out, (n, name))


# ---------------------------------------------------------------------------
# The machine: head-normal forms, demand-driven runs, depth


def test_evaluate_stops_at_the_first_unhandled_operation():
    from algeff.interp import Suspended, evaluate, materialize

    head = evaluate(increment_program(), base_env(), STATE3)
    assert isinstance(head, Suspended)
    assert (head.op, head.param, head.arity) == ("get", (), Fin(3))
    after = head.resume(2)
    assert (after.op, after.param) == ("put", 0)
    assert after.resume(()) == Leaf(2)
    assert materialize(head) == run(increment_program(), STATE3).tree
    with pytest.raises(EvalError):
        head.resume(3)


def read_chain(reads):
    prog = Return(Var(f"x{reads - 1}"))
    for i in reversed(range(reads)):
        prog = Do(f"x{i}", OpCall("get", UnitLit()), prog)
    return prog


def test_a_run_resumes_only_the_path_the_comodel_takes(monkeypatch):
    from algeff.comodels import Done, cointerpret_tree, state_comodel
    from algeff.interp import Suspended, evaluate

    resumed = []
    resume = Suspended.resume

    def counting(self, a):
        resumed.append(a)
        return resume(self, a)

    monkeypatch.setattr(Suspended, "resume", counting)
    theory = single_state_theory(Fin(10))
    head = evaluate(read_chain(6), base_env(), theory)
    assert cointerpret_tree(4, head, state_comodel(theory)) == Done(4, 4)
    assert len(resumed) <= 6 * 10


def test_evaluation_has_no_depth_limit():
    from algeff.comodels import Done, cointerpret_tree, state_comodel
    from algeff.interp import evaluate, materialize

    theory = single_state_theory(Fin(10))
    prog = Return(UnitLit())
    for i in reversed(range(10000)):
        prog = Do("u", OpCall("put", IntLit(i)), prog)
    head = evaluate(prog, base_env(), theory)
    assert cointerpret_tree(0, head, state_comodel(theory)) == Done((), 9999 % 10)
    tree = materialize(head)
    for i in range(10000):
        assert (tree.op, tree.param) == ("put", i % 10)
        tree = tree.kont[0]
    assert tree == Leaf(())


def test_deep_handling_has_no_depth_limit():
    # 10000 puts under the state-passing handler, run from state 0
    theory = single_state_theory(Fin(10))
    body = Do("x", OpCall("get", UnitLit()), Return(Var("x")))
    for i in reversed(range(10000)):
        body = Do("u", OpCall("put", IntLit(i)), body)
    prog = Do("f", WithHandle(state_passing_handler(), body), App(Var("f"), IntLit(0)))
    assert run_program(prog, theory).tree == Leaf((9999 % 10, 9999 % 10))


def test_handled_continuations_compare_by_their_branches():
    # the continuation a handled get captures equals the one over its built branches
    h = HandlerClosure(
        HandlerLit("x", Return(Var("x")), (OpClause("get", "u", "k", Return(Var("k"))),)),
        base_env(),
    )
    tree = OpNode("get", (), (Leaf(0), Leaf(1), Leaf(2)))
    k = handle(h, FreeElement(STATE3, tree)).tree.value
    assert isinstance(k, KontValue) and k.segment is not None
    expected = KontValue(Fin(3), tuple(eta(STATE3, v) for v in range(3)))
    assert k == expected and hash(k) == hash(expected)
    assert apply_value(k, 2, STATE3).tree == Leaf(2)


# ---------------------------------------------------------------------------
# Functions are first compared at a symbol for every sample: the reference
# applies both at each sample, and must give every check the same verdict


def reference_compare_values(v1, v2, vtype, theory):
    """compare_values without the symbol for every sample: both functions
    applied at each sample."""
    from algeff.interp import _at_most_one_inhabitant, _both, _plain, sample_domain
    from algeff.lang import TArrow, THandler, TProd

    if _at_most_one_inhabitant(vtype):
        return True
    if isinstance(vtype, TArrow):
        domain = sample_domain(theory, vtype.arg)
        if domain is None:
            return True if v1 == v2 else None
        verdict = True
        for s in domain.elements():
            try:
                r1 = apply_value(v1, s, theory)
                r2 = apply_value(v2, s, theory)
            except AlgeffError:
                return None
            sub = reference_compare_trees(r1.tree, r2.tree, vtype.result, theory)
            verdict = _both(verdict, sub)
            if verdict is False:
                return False
        return verdict
    if isinstance(vtype, TProd) and type(v1) is tuple and type(v2) is tuple:
        left = reference_compare_values(v1[0], v2[0], vtype.left, theory)
        right = reference_compare_values(v1[1], v2[1], vtype.right, theory)
        return _both(left, right)
    if isinstance(vtype, THandler):
        return True if v1 == v2 else None
    if v1 == v2:
        return True
    if isinstance(v1, SymVal) or isinstance(v2, SymVal):
        return False
    if _plain(v1) and _plain(v2):
        return False
    return None


def reference_compare_trees(t1, t2, ctype, theory):
    """compare_trees over reference_compare_values."""
    from algeff.free import has_normalizer, normalize, normalizes_to_leaf_sets
    from algeff.interp import _both, _first_order
    from algeff.terms import tree_leaves

    def leaves(a, b):
        verdict = reference_compare_values(a.value, b.value, ctype.value, theory)
        return None if verdict is False and not has_normalizer(theory) else verdict

    if isinstance(t1, Leaf) and isinstance(t2, Leaf):
        return leaves(t1, t2)
    canonical = has_normalizer(theory)
    if canonical:
        try:
            t1, t2 = normalize(theory, t1), normalize(theory, t2)
        except AlgeffError:
            return None

    def walk(a, b):
        if isinstance(a, Leaf) and isinstance(b, Leaf):
            return leaves(a, b)
        if isinstance(a, OpNode) and isinstance(b, OpNode):
            if a.op != b.op or a.param != b.param:
                return False if canonical else None
            verdict = True
            for sa, sb in zip(a.kont, b.kont):
                verdict = _both(verdict, walk(sa, sb))
                if verdict is False:
                    return False
            return verdict
        return False if canonical else None

    verdict = walk(t1, t2)
    if verdict is False and normalizes_to_leaf_sets(theory):
        if not all(_first_order(v) for t in (t1, t2) for v in tree_leaves(t)):
            return None
    return verdict


def state_handler_text(ret="return (fun s -> return (x, s))",
                       get="return (fun s -> do f <- k s in f s)",
                       put="return (fun s -> do f <- k () in f s2)"):
    clauses = [f"return x -> {ret}", f"get(u; k) -> {get}"]
    if put is not None:
        clauses.append(f"put(s2; k) -> {put}")
    return "handler { " + " | ".join(clauses) + " }"


# put clause state functions: reading s, ignoring it, shadowing it by each
# binder, or reading it only inside a nested fun or handler
PUT_STATE_FUNCTIONS = [
    "do f <- k () in f s2",
    "do f <- k () in f s",
    "do f <- k () in f (s + 0)",
    "do p <- return (s, s2) in do f <- k () in f s2",
    "if true then (do f <- k () in f s2) else (do f <- k () in f s)",
    "do f <- k () in (fun s -> f s) s2",
    "do f <- k () in (fun t -> f s) s2",
    "do s <- return s2 in do f <- k () in f s",
    "do s <- return s in do f <- k () in f s2",
    "with handler { return s -> do f <- k () in f s } handle return s2",
    "with handler { return t -> do f <- k () in f s } handle return s2",
    "with handler { return x -> return x | put(s; j) -> j () } handle do f <- k () in f s2",
    "with handler { return x -> return x | put(p; j) -> do f <- k () in f s }"
    " handle do f <- k () in f s2",
    "with handler { return x -> return x | get(u; s) -> s 0 } handle do f <- k () in f s2",
    "with handler { return x -> return x | get(u; j) -> j s } handle do f <- k () in f s2",
    # and some that inspect the new state s2: add to it, test it, pass it
    # to an operation, or resume a get's continuation at it
    "do f <- k () in f (s2 + 1)",
    "if s2 then (do f <- k () in f s2) else (do f <- k () in f s2)",
    "if s2 then (do f <- k () in f s2) else (do f <- k () in f s)",
    "with handler { return x -> return x | put(q; j) -> j () }"
    " handle do _ <- put!(s2) in do f <- k () in f s2",
    "with handler { return x -> return x | get(u; k) -> k s2 }"
    " handle do t <- get!(()) in do f <- k () in f t",
]

PARITY_HANDLERS = [
    ("stateh", (SAMPLES / "stateh.eff").read_text()),
    # the benchmark's handler whose put clause keeps the old state
    ("put-keeps-state", (SAMPLES / "stateh.eff").read_text().replace("f s2)", "f s)")),
    ("broken-put", broken_put_handler()),
    *((f"put-{i}", state_handler_text(put=f"return (fun s -> {body})"))
      for i, body in enumerate(PUT_STATE_FUNCTIONS)),
    ("get-ignores-state", state_handler_text(get="return (fun s -> do f <- k 0 in f 0)")),
    ("get-reads-state-once", state_handler_text(get="return (fun s -> do f <- k 0 in f s)")),
    ("return-ignores-state", state_handler_text(ret="return (fun s -> return (x, 0))")),
    ("no-put-clause", state_handler_text(put=None)),
]


def parsed_state_theory_text(state):
    """samples/state2.thy with its state universe ``fin 2`` replaced."""
    return (SAMPLES / "state2.thy").read_text().replace("fin 2", state)


def parsed_state_theory(state):
    return parse_theory_file(parsed_state_theory_text(state))


PARITY_THEORIES = [
    *((f"fin{n}", lambda n=n: single_state_theory(Fin(n))) for n in range(1, 7)),
    *((name, lambda name=name: parse_theory_file((SAMPLES / name).read_text()))
      for name in ("state2.thy", "state10.thy")),
    *((f"parsed-{state}", lambda state=state: parsed_state_theory(state))
      for state in ("fin 3", "fin 6", "bool")),
]


def typed_parity_handlers(theory):
    """Each parity handler that type-checks over the theory, with its
    closure and output type."""
    typed = []
    for name, handler in PARITY_HANDLERS:
        hl = parse_value_text(handler) if isinstance(handler, str) else handler
        try:
            typed.append((name, *checked_handler(theory, hl)))
        except TypeMismatch:
            continue
    return typed


def test_the_parity_handlers_that_type_check_are_those_for_the_state():
    # over an integer state, all but the two that test the state with if;
    # over a boolean one, all but those that add to it or give an integer
    # where a state goes
    ints = [name for name, _, _ in typed_parity_handlers(parsed_state_theory("fin 3"))]
    assert [name for name, _ in PARITY_HANDLERS if name not in ints] == ["put-16", "put-17"]
    bools = [name for name, _, _ in typed_parity_handlers(parsed_state_theory("bool"))]
    assert [name for name, _ in PARITY_HANDLERS if name not in bools] == [
        "put-2", "put-13", "put-15", "get-ignores-state", "get-reads-state-once"]


@pytest.mark.parametrize("theory", [t for _, t in PARITY_THEORIES],
                         ids=[name for name, _ in PARITY_THEORIES])
def test_comparing_functions_at_a_symbol_keeps_every_handler_verdict(monkeypatch, theory):
    import algeff.interp as interp

    theory = theory()
    for name, h, out in typed_parity_handlers(theory):
        budgets = (None, 7) if name == "stateh" else (None,)
        for budget in budgets:
            with monkeypatch.context() as m:
                m.setattr(interp, "compare_trees",
                          lambda t1, t2, ctype, th, facts=None:
                          reference_compare_trees(t1, t2, ctype, th))
                expected = check_handler_equations(h, theory, out, budget)
            assert check_handler_equations(h, theory, out, budget) == expected, (name, budget)


def test_the_state_handler_check_applies_its_put_functions_once(monkeypatch):
    import algeff.interp as interp

    calls = []
    apply = interp.apply_value

    def counting(fv, arg, theory):
        calls.append(arg)
        return apply(fv, arg, theory)

    def callables(theory):  # sides without shapes: every instance is replayed
        return Theory(theory.name, theory.ops, tuple(
            Equation(e.name, e.param_universe, e.context, lambda p, e=e: e.lhs(p),
                     lambda p, e=e: e.rhs(p))
            for e in theory.eqs
        ))

    monkeypatch.setattr(interp, "apply_value", counting)
    for n in (1, 2, 5, 10):
        calls.clear()
        assert stateh_check(callables(single_state_theory(Fin(n)))).verdict is HandlerVerdict.RESPECTED
        # get_get and get_put each apply a get function at a symbol first,
        # and their built trees refuse it
        assert len(calls) <= 2 * n * n + 6 * n + 2, n
    assert len(calls) == 262
    # the built-in's sides are shapes, so each family is replayed once, at
    # a symbol, and each function is applied once, at a symbol for every
    # sample
    calls.clear()
    assert stateh_check(single_state_theory(Fin(10))).verdict is HandlerVerdict.RESPECTED
    assert len(calls) == 8


@pytest.mark.parametrize("old, new, expected", [
    ("return (x, s))", "return (x, 0))", HandlerCheck(HandlerVerdict.RESPECTED)),
    ("do f <- k s in f s", "do f <- k 0 in f 0",
     HandlerCheck(HandlerVerdict.VIOLATED, "get_put", ())),
], ids=["return-ignores-state", "get-ignores-state"])
def test_a_function_that_ignores_its_argument_costs_the_same_at_every_size(
        monkeypatch, old, new, expected):
    import algeff.interp as interp

    calls = []
    apply = interp.apply_value

    def counting(fv, arg, theory):
        calls.append(arg)
        return apply(fv, arg, theory)

    monkeypatch.setattr(interp, "apply_value", counting)
    text = (SAMPLES / "stateh.eff").read_text()
    assert text.count(old) == 1
    counts = []
    for n in (2, 10, 90):
        theory = parsed_state_theory(f"fin {n}")
        h, out = checked_handler(theory, parse_value_text(text.replace(old, new)))
        calls.clear()
        assert check_handler_equations(h, theory, out) == expected, n
        counts.append(len(calls))
    # a state function that never reads the state agrees with itself at the
    # symbol for every state, so no sample is tried, however many there are
    assert counts[0] == counts[1] == counts[2] <= 8, counts


def test_a_handler_check_samples_each_function_domain_once(monkeypatch):
    import algeff.interp as interp

    calls = []
    sample_domain = interp.sample_domain

    def counting(theory, vtype):
        calls.append(vtype)
        return sample_domain(theory, vtype)

    monkeypatch.setattr(interp, "sample_domain", counting)
    for n in (2, 10):
        calls.clear()
        assert stateh_check(single_state_theory(Fin(n))).verdict is HandlerVerdict.RESPECTED
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Parity with the handler check's own loop: check_handler_equations now goes
# through the shared law checker, and must give the same HandlerCheck


def loop_check_handler_equations(h, theory, out_type, budget=None):
    """The reference: the handler check with its own loop over equations,
    parameters, coverage and budget, and compare_trees with every function
    applied at each sample (``assert_loop_parity`` takes the symbol out)."""
    from algeff.free import default_budget
    from algeff.interp import HandlerCheck, _Facts
    from algeff.terms import tree_ops

    covered = {cl.op for cl in h.code.clauses}
    skipped = []
    unknown = False
    checked = 0
    budget = budget if budget is not None else default_budget()

    # probe leaves stand for the generic continuation, which the return
    # clause must not see: the clauses, with the identity return clause, in
    # the handler's place (its mark, which finds a position only when read)
    code = HandlerLit("x", Return(Var("x")), h.code.clauses, pos=h.code._at)
    passthrough = HandlerClosure(code, h.env)
    probe = lift(lambda v: eta(theory, SymVal(("kont", v))))
    facts = _Facts(theory)

    for eq in theory.eqs:
        instances = [(p, eq.lhs(p), eq.rhs(p)) for p in eq.param_universe.iter_elements()]
        used = set()
        for _, lhs, rhs in instances:
            used |= tree_ops(lhs) | tree_ops(rhs)
        if not used <= covered:
            skipped.append(eq.name)
            continue
        for p, lhs, rhs in instances:
            if checked >= budget:
                unknown = True
                break
            checked += 1
            try:
                left = handle(passthrough, probe(FreeElement(theory, lhs)), theory)
                right = handle(passthrough, probe(FreeElement(theory, rhs)), theory)
                # continuations compare by branches, built (and failing) only here
                verdict = compare_trees(left.tree, right.tree, out_type, theory, facts)
            except AlgeffError:
                unknown = True
                continue
            if verdict is False:
                return HandlerCheck(HandlerVerdict.VIOLATED, eq.name, p, tuple(skipped))
            if verdict is None:
                unknown = True
    if unknown:
        return HandlerCheck(HandlerVerdict.UNKNOWN, skipped=tuple(skipped))
    return HandlerCheck(HandlerVerdict.RESPECTED, skipped=tuple(skipped))


LOOP_BUDGETS = (0, 1, 2, None)


def assert_loop_parity(theory, h, out, name=None):
    import algeff.interp as interp

    results = []
    for budget in LOOP_BUDGETS:
        result = check_handler_equations(h, theory, out, budget)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(interp, "_agree_at_a_symbol", lambda *args: False)
            expected = loop_check_handler_equations(h, theory, out, budget)
        assert result == expected, (name, budget)
        results.append(result)
    return results


@pytest.mark.parametrize("theory", [t for _, t in PARITY_THEORIES],
                         ids=[name for name, _ in PARITY_THEORIES])
def test_the_shared_law_checker_keeps_every_handler_check(theory):
    theory = theory()
    for name, h, out in typed_parity_handlers(theory):
        assert_loop_parity(theory, h, out, name)


def test_the_shared_law_checker_keeps_a_partial_handler_check():
    th = single_state_theory(Fin(2))
    hl = parse_value_text("handler { return x -> return x | get(u; k) -> k 0 }")
    results = assert_loop_parity(th, *checked_handler(th, hl))
    assert [r.skipped for r in results] == [("get_put", "put_get", "put_put")] * 4
    assert [r.verdict for r in results] == [HandlerVerdict.UNKNOWN] + [HandlerVerdict.RESPECTED] * 3


def test_the_shared_law_checker_keeps_an_evaluation_error_unknown():
    th = single_state_theory(Fin(2))
    # k applied outside get's arity fin 2
    hl = parse_value_text("handler { return x -> return x | get(u; k) -> k 5 }")
    results = assert_loop_parity(th, *checked_handler(th, hl))
    assert [r.verdict for r in results] == [HandlerVerdict.UNKNOWN] * 4


def reference_sample_ints(theory):
    """The sampled integers as one walk of the universes gave them."""
    sizes = set()

    def scan(u):
        if isinstance(u, Fin):
            sizes.add(u.n)
        elif isinstance(u, Product):
            scan(u.left)
            scan(u.right)

    for o in theory.ops:
        scan(o.param)
        scan(o.arity)
    return list(range(max(sizes))) if sizes else []


def reference_sample_strs(theory):
    """The sampled strings as a second walk of the universes gave them."""
    labels = []

    def scan(u):
        if isinstance(u, Enum):
            labels.extend(l for l in u.labels if l not in labels)
        elif isinstance(u, Product):
            scan(u.left)
            scan(u.right)

    for o in theory.ops:
        scan(o.param)
        scan(o.arity)
    return labels


def test_one_walk_samples_the_integers_and_strings_the_two_walks_did():
    from algeff.interp import sample_domain
    from algeff.lang import TInt, TProd, TStr
    from algeff.terms import OpDecl, Theory
    from algeff.universe import BOOL, UNIT

    def sampled(theory, vtype):
        domain = sample_domain(theory, vtype)
        return None if domain is None else domain.elements()

    mixed = Theory("mixed", (
        OpDecl("a", Product(Enum(("x", "y")), Fin(3)), Product(Fin(5), Enum(("z", "x")))),
        OpDecl("b", Enum(("w",)), Product(BOOL, Product(Fin(2), Enum(("y", "v"))))),
        OpDecl("c", UNIT, BOOL),
    ))
    theories = [STATE3, EXC, CHOICE, io_theory(Enum(("a", "b"))), mixed,
                *(parse_theory_file((SAMPLES / name).read_text())
                  for name in ("state2.thy", "state10.thy", "io_hello.thy", "semilattice.thy"))]
    for theory in theories:
        ints, strs = reference_sample_ints(theory) or None, reference_sample_strs(theory) or None
        assert sampled(theory, TInt()) == ints
        assert sampled(theory, TStr()) == strs
        pairs = None if ints is None or strs is None else [(i, s) for i in ints for s in strs]
        assert sampled(theory, TProd(TInt(), TStr())) == pairs
    assert sampled(mixed, TStr()) == ["x", "y", "z", "w", "v"]
    assert sampled(mixed, TInt()) == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Metamorphic relations: changes to a theory or handler that must not change
# the check's verdict (Chen, Cheung & Yiu, *Metamorphic testing*, 1998)


def parity_checks(theory):
    """Each parity handler that type-checks over the theory, with its output
    type and its check's result."""
    return [(name, h, out, check_handler_equations(h, theory, out))
            for name, h, out in typed_parity_handlers(theory)]


def with_equations(theory, eqs, ops=()):
    return Theory(theory.name, theory.ops + ops, tuple(eqs))


def alpha_renamed(x, names=None, fresh=None):
    """The syntax ``x`` with each bound name replaced by a fresh one."""
    names = {} if names is None else names
    fresh = itertools.count() if fresh is None else fresh

    def renamed(y, more=None):
        return alpha_renamed(y, {**names, **(more or {})}, fresh)

    def new():
        return f"a{next(fresh)}"

    if type(x) is Var:
        return Var(names.get(x.name, x.name))
    if type(x) is Fun:
        param = new()
        return Fun(param, renamed(x.body, {x.param: param}))
    if type(x) is Do:
        name = new()
        return Do(name, renamed(x.first), renamed(x.rest, {x.name: name}))
    if type(x) is HandlerLit:
        ret = new()
        clauses = []
        for c in x.clauses:
            p, k = new(), new()
            body = renamed(c.body, {c.param_name: p, c.kont_name: k})
            clauses.append(OpClause(c.op, p, k, body))
        return HandlerLit(ret, renamed(x.ret_body, {x.ret_name: ret}), tuple(clauses))
    if type(x) in (BoolLit, IntLit, StrLit, UnitLit):
        return x
    # Return, OpCall, Pair, Plus, If, App, WithHandle: no binders
    fields = (getattr(x, name) for name in x._fields)
    return type(x)(*(f if type(f) is str else renamed(f) for f in fields))


def test_alpha_renaming_renames_every_binder_and_keeps_free_names():
    hl = parse_value_text(
        "handler { return x -> return (fun s -> fst (x, s))"
        " | get(u; k) -> return (fun s -> do f <- k s in f s) }")
    renamed = alpha_renamed(hl)
    assert renamed == parse_value_text(
        "handler { return a0 -> return (fun a5 -> fst (a0, a5))"
        " | get(a1; a2) -> return (fun a3 -> do a4 <- a2 a3 in a4 a3) }")


THEORY_PARAMS = dict(argvalues=[t for _, t in PARITY_THEORIES],
                     ids=[name for name, _ in PARITY_THEORIES])


@pytest.mark.parametrize("theory", **THEORY_PARAMS)
def test_swapping_every_equations_sides_keeps_the_check(theory):
    theory = theory()
    swapped = with_equations(theory, (Equation(e.name, e.param_universe, e.context, e.rhs, e.lhs)
                                      for e in theory.eqs))
    for name, h, out, before in parity_checks(theory):
        assert check_handler_equations(h, swapped, out) == before, name


@pytest.mark.parametrize("theory", **THEORY_PARAMS)
def test_renaming_the_equations_renames_only_the_witness(theory):
    theory = theory()
    renamed = with_equations(theory, (Equation("r_" + e.name, e.param_universe, e.context,
                                               e.lhs, e.rhs) for e in theory.eqs))
    for name, h, out, before in parity_checks(theory):
        after = check_handler_equations(h, renamed, out)
        equation = None if before.equation is None else "r_" + before.equation
        skipped = tuple("r_" + eq for eq in before.skipped)
        assert after == HandlerCheck(before.verdict, equation, before.param, skipped), name


@pytest.mark.parametrize("theory", **THEORY_PARAMS)
def test_reversing_the_equations_keeps_the_verdict(theory):
    theory = theory()
    reversed_ = with_equations(theory, reversed(theory.eqs))
    for name, h, out, before in parity_checks(theory):
        assert check_handler_equations(h, reversed_, out).verdict is before.verdict, name


@pytest.mark.parametrize("theory", **THEORY_PARAMS)
def test_alpha_renaming_a_handler_keeps_the_check(theory):
    theory = theory()
    for name, h, out, before in parity_checks(theory):
        renamed = HandlerClosure(alpha_renamed(h.code), h.env)
        assert renamed.code != h.code
        assert check_handler_equations(renamed, theory, out) == before, name


@pytest.mark.parametrize("theory", **THEORY_PARAMS)
def test_an_operation_no_equation_mentions_flips_no_decided_verdict(theory):
    from algeff.terms import OpDecl

    theory = theory()
    extended = with_equations(theory, theory.eqs, (OpDecl("noise", UNIT, UNIT),))
    decided = {HandlerVerdict.RESPECTED, HandlerVerdict.VIOLATED}
    for name, h, out, before in parity_checks(theory):
        # without the theory's normalizer, leaves that differ may still be
        # identified by the equations, so a violation may become unknown
        after = check_handler_equations(h, extended, out)
        assert {before.verdict, after.verdict} != decided, name
