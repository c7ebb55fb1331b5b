from pathlib import Path

import pytest

from algeff.comodels import (
    ComodelViolation,
    Cointerpretation,
    Done,
    Stuck,
    alternating_choice_comodel,
    cointerpret_tree,
    printer_comodel,
    reader_comodel,
    state_comodel,
    tensor_run,
    transcript_universe,
    validate_comodel,
)
from algeff.errors import ImpossibleCooperation, NonEnumerableWorld, UncoveredOperation
from algeff.free import FreeElement, eta, sequence, generic_op, state_normal_form
from algeff.parser import parse_comodel_file, parse_theory_file
from algeff.terms import Equation, OpNode, Return, Theory, tree_ops
from algeff.theories import (
    choice_theory,
    combine,
    exception_theory,
    io_theory,
    single_state_theory,
)
from algeff.universe import UNIT, Enum, Fin, FiniteUniverse

from tests.gen import tree_corpus, tree_depth
from tests.test_models import closure_copy, holds_a_tree, outcome

STATE10 = single_state_theory(Fin(10))
STATE3 = single_state_theory(Fin(3))


def get(theory, kont):
    s = theory.op("get").arity
    return OpNode("get", (), tuple(kont(v) for v in s.elements()))


def put(v, sub):
    return OpNode("put", v, (sub,))


def test_leaf_rule():
    c = state_comodel(STATE3)
    assert cointerpret_tree(1, Return(True), c) == Done(True, 1)


def test_state_increment_run():
    c = state_comodel(STATE10)
    prog = get(STATE10, lambda s: put((s + 1) % 10, Return(s)))
    assert cointerpret_tree(5, prog, c) == Done(5, 6)


def test_abort_gets_stuck_under_the_state_comodel():
    th = combine(single_state_theory(Fin(3)), exception_theory())
    c = Cointerpretation(
        th,
        Fin(3),
        {"get": lambda p, w: (w, w), "put": lambda p, w: ((), p)},
    )
    t = OpNode("abort", (), ())
    for w in range(3):
        assert cointerpret_tree(w, t, c) == Stuck("abort", (), w)


def test_no_cooperation_for_abort_on_a_nonempty_world():
    th = exception_theory()
    with pytest.raises(ImpossibleCooperation):
        Cointerpretation(th, Fin(2), {"abort": lambda p, w: ((), w)})


def test_state_comodel_validates_all_four_laws():
    assert validate_comodel(state_comodel(STATE3)) is None


def test_broken_get_is_violated_with_witness():
    broken = Cointerpretation(
        single_state_theory(Fin(2)),
        Fin(2),
        {"get": lambda p, w: (0, w), "put": lambda p, w: ((), p)},
    )
    violation = validate_comodel(broken)
    assert violation is not None
    assert violation.equation == "get_put"
    assert violation.param == ()
    assert violation.world == 1
    assert violation.lhs_outcome == Done((), 0)
    assert violation.rhs_outcome == Done((), 1)


def test_alternating_choice_stream_violates_commutativity():
    violation = validate_comodel(alternating_choice_comodel())
    assert violation is not None
    assert violation.equation == "comm"


def test_validation_requires_equation_operations_covered():
    partial = Cointerpretation(STATE3, Fin(3), {"get": lambda p, w: (w, w)})
    with pytest.raises(UncoveredOperation):
        validate_comodel(partial)


def test_tensor_run_matches_state_normal_form():
    c = state_comodel(STATE3)
    for t in tree_corpus(STATE3, ["a", "b"], 50, 4, seed=21):
        nf = state_normal_form(STATE3, t)
        for s0 in range(3):
            assert tensor_run(FreeElement(STATE3, t), s0, c) == Done(nf.g[s0], nf.f[s0])


def test_congruent_trees_run_identically():
    c = state_comodel(STATE3)
    eq = STATE3.eqs[0]  # get_get
    lhs, rhs = eq.lhs(()), eq.rhs(())
    for w in range(3):
        assert cointerpret_tree(w, lhs, c) == cointerpret_tree(w, rhs, c)


def test_comodel_soundness_every_equation_every_world():
    # validate_comodel restated explicitly
    c = state_comodel(STATE3)
    for eq in STATE3.eqs:
        for p in eq.param_universe.elements():
            for w in range(3):
                assert cointerpret_tree(w, eq.lhs(p), c) == cointerpret_tree(w, eq.rhs(p), c)


def test_cointerpret_terminates_on_deep_trees():
    c = state_comodel(STATE3)
    t = Return(0)
    for i in range(300):
        t = put(i % 3, t)
    assert tree_depth(t) == 300
    assert cointerpret_tree(0, t, c) == Done(0, 0)


def test_validation_runs_equation_sides_of_any_depth():
    # a 5,000-deep put chain against its innermost put, the one that runs last
    state2 = single_state_theory(Fin(2))
    chain = Return("x")
    for i in range(5_000):
        chain = put(i % 2, chain)
    last = chain
    while last.kont[0] != Return("x"):
        last = last.kont[0]

    def law(rhs):
        eq = Equation("deep", UNIT, Enum(("x",)), lambda p: chain, lambda p: rhs)
        return state_comodel(Theory("deep", state2.ops, (eq,)))

    assert last == put(0, Return("x"))
    assert validate_comodel(law(last)) is None
    assert validate_comodel(law(put(1, Return("x")))) == ComodelViolation(
        "deep", (), 0, Done("x", 0), Done("x", 1))


def test_transcript_universe_enumeration():
    u = transcript_universe(Enum(("a",)), 2)
    assert u.labels == ('[]', '["a"]', '["a", "a"]')


def test_printer_comodel_hello_world():
    io = io_theory(Enum(("Hello world!",)))
    c = printer_comodel(io, Enum(("Hello world!",)), 2)
    hello = sequence(generic_op(io, "print", "Hello world!"), lambda _: eta(io, ()))
    out = tensor_run(hello, "[]", c)
    assert out == Done((), '["Hello world!"]')
    assert validate_comodel(c) is None  # no equations: vacuously valid


def test_printer_comodel_saturates_when_full():
    io = io_theory(Enum(("a",)))
    c = printer_comodel(io, Enum(("a",)), 1)
    t = OpNode("print", "a", (OpNode("print", "a", (Return(()),)),))
    assert cointerpret_tree("[]", t, c) == Done((), '["a"]')


def test_reader_comodel_cursor():
    io = io_theory(Enum(("a", "b")))
    c = reader_comodel(io, ("a", "b"))
    t = OpNode(
        "read",
        (),
        tuple(
            OpNode("read", (), (Return((x, y)) for y in ("a", "b")))
            for x in ("a", "b")
        ),
    )
    assert cointerpret_tree(0, t, c) == Done(("a", "b"), 2)


def test_cointerpretation_rejects_undeclared_operations():
    from algeff.errors import UnknownOperation

    with pytest.raises(UnknownOperation):
        Cointerpretation(STATE3, Fin(3), {"flip": lambda p, w: (w, w)})


def test_validate_comodel_requires_an_enumerable_world():
    from algeff.errors import NonEnumerableWorld

    c = Cointerpretation.__new__(Cointerpretation)
    object.__setattr__(c, "theory", STATE3)
    object.__setattr__(c, "world", None)
    object.__setattr__(c, "coops", {})
    with pytest.raises(NonEnumerableWorld):
        validate_comodel(c)


# ---------------------------------------------------------------------------
# Parity with one run per world: validate_comodel compiles each instance
# once, and must give what cointerpret_tree gave from every world, and make
# the same cooperation calls in the same order.

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run_validate_comodel(c):
    """The reference: a tree_ops coverage pass per equation, then
    cointerpret_tree from every world; first violation wins."""
    if not isinstance(c.world, FiniteUniverse):
        raise NonEnumerableWorld("comodel validation needs an enumerable world")
    for eq in c.theory.eqs:
        trees = [(p, eq.lhs(p), eq.rhs(p)) for p in eq.param_universe.iter_elements()]
        used = set()
        for _, lhs, rhs in trees:
            used |= tree_ops(lhs) | tree_ops(rhs)
        missing = sorted(used - set(c.coops))
        if missing:
            raise UncoveredOperation(f"equation {eq.name!r} mentions uncovered operations {missing}")
        for p, lhs, rhs in trees:
            for w in c.world.iter_elements():
                lo = cointerpret_tree(w, lhs, c)
                ro = cointerpret_tree(w, rhs, c)
                if lo != ro:
                    return ComodelViolation(eq.name, p, w, lo, ro)
    return None


def recording(c, log):
    """c with every cooperation call logged as (op, param, world)."""
    def logged(name, coop):
        def step(p, w):
            log.append((name, p, w))
            return coop(p, w)
        return step
    return Cointerpretation(c.theory, c.world, {name: logged(name, f) for name, f in c.coops.items()})


def assert_parity(c):
    compiled_log, run_log = [], []
    compiled = outcome(validate_comodel, recording(c, compiled_log))
    assert compiled == outcome(run_validate_comodel, recording(c, run_log))
    assert compiled_log == run_log
    return compiled


def cell_comodel(n, get_table, put_table):
    return Cointerpretation(single_state_theory(Fin(n)), Fin(n), {
        "get": lambda p, w: get_table[w],
        "put": lambda p, w: put_table[p, w],
    })


@pytest.mark.parametrize("sample, theory", [
    ("state2.cmod", "state2.thy"),
    ("state10.cmod", "state10.thy"),
    ("altstream.cmod", "choice.thy"),
    ("hello.cmod", "io_hello.thy"),
])
def test_sample_comodels_match_the_runs(sample, theory):
    th = parse_theory_file((SAMPLES / theory).read_text())
    assert_parity(parse_comodel_file((SAMPLES / sample).read_text(), th))


def test_stock_comodels_match_the_runs():
    io = io_theory(Enum(("a", "b")))
    for c in (
        state_comodel(STATE3),
        state_comodel(STATE10),
        alternating_choice_comodel(),
        printer_comodel(io, Enum(("a", "b")), 2),
        reader_comodel(io, ("a", "b", "a")),
    ):
        assert_parity(c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cell_tables_with_one_wrong_entry_at_every_position_match_the_runs(n):
    get_table = {w: (w, w) for w in range(n)}
    put_table = {(p, w): ((), p) for p in range(n) for w in range(n)}
    assert assert_parity(cell_comodel(n, get_table, put_table))[1] is None
    for w, (v, w2) in get_table.items():
        wrong = dict(get_table)
        wrong[w] = ((v + 1) % n, w2)
        assert isinstance(assert_parity(cell_comodel(n, wrong, put_table))[1], ComodelViolation)
    for key, (a, w2) in put_table.items():
        wrong = dict(put_table)
        wrong[key] = (a, (w2 + 1) % n)
        assert isinstance(assert_parity(cell_comodel(n, get_table, wrong))[1], ComodelViolation)


def test_a_result_outside_the_arity_raises_as_the_runs_do():
    # 1 == True, but 1 is not a boolean
    ints = Cointerpretation(choice_theory(), Fin(2), {"choose": lambda p, w: (1, w)})
    assert assert_parity(ints) == ("raised", ValueError, "1 is not a boolean")
    # a one-branch node checks its result too
    no_unit = Cointerpretation(STATE3, Fin(3), {"get": lambda p, w: (w, w), "put": lambda p, w: (0, p)})
    assert assert_parity(no_unit) == ("raised", ValueError, "0 is not the unit element")
    # after a violation at an earlier world, the violation wins
    late = Cointerpretation(choice_theory(), Fin(2), {"choose": lambda p, w: ((True, 1)[w], w)})
    assert assert_parity(late)[1] == ComodelViolation(
        "comm", (), 0, Done("y", 0), Done("x", 0))


def test_uncovered_operations_are_listed_sorted_before_any_run():
    put_get = STATE3.eqs[2]  # put(p, get(...)): put comes first in the tree
    th = Theory("put_get_only", STATE3.ops, (put_get,))
    log = []
    result = assert_parity(recording(Cointerpretation(th, Fin(3), {}), log))
    assert result == ("raised", UncoveredOperation,
                      "equation 'put_get' mentions uncovered operations ['get', 'put']")
    assert log == []


def test_a_parsed_theory_reports_uncovered_operations_from_its_templates():
    text = (SAMPLES / "state2.thy").read_text().replace("}", (
        "  op abort : unit ~> empty;\n"
        "  equation abort_put (unit) : abort((); \\x. put(x; \\u. return u)) = abort(());\n}"
    ))
    th = parse_theory_file(text)
    coops = {"get": lambda p, w: (w, w), "put": lambda p, w: ((), p)}
    expected = {
        (): "equation 'get_get' mentions uncovered operations ['get']",
        ("get",): "equation 'get_put' mentions uncovered operations ['put']",
        ("put",): "equation 'get_get' mentions uncovered operations ['get']",
        # abort's body is never built, so put is not among its operations
        ("get", "put"): "equation 'abort_put' mentions uncovered operations ['abort']",
    }
    for covered, message in expected.items():
        c = Cointerpretation(th, Fin(2), {name: coops[name] for name in covered})
        assert assert_parity(c) == ("raised", UncoveredOperation, message)


def test_the_first_uncovered_equation_raises_before_later_equations_run():
    put_get, get_get = STATE3.eqs[2], STATE3.eqs[0]
    th = Theory("put_get_first", STATE3.ops, (put_get, get_get))
    # get_get alone is covered, and this get breaks it at every world
    log = []
    c = recording(Cointerpretation(th, Fin(3), {"get": lambda p, w: (w, (w + 1) % 3)}), log)
    result = assert_parity(c)
    assert result == ("raised", UncoveredOperation,
                      "equation 'put_get' mentions uncovered operations ['put']")
    assert log == []


def test_a_parsed_theory_is_validated_from_its_shapes_without_building_an_instance(monkeypatch):
    from algeff import terms

    builds = []
    for name in ("__call__", "lazy"):
        build = getattr(terms._Instances, name)
        monkeypatch.setattr(terms._Instances, name, lambda self, p, name=name, build=build:
                            builds.append(name) or build(self, p))
    th = parse_theory_file((SAMPLES / "state10.thy").read_text())
    c = parse_comodel_file((SAMPLES / "state10.cmod").read_text(), th)
    shaped_log = []
    shaped = outcome(validate_comodel, recording(c, shaped_log))
    assert shaped == ("returned", None, "None")
    assert builds == [] and not holds_a_tree(th)
    # the same laws as closures take the tree path, and run alike
    tree_log = []
    trees = Cointerpretation(closure_copy(th), c.world, c.coops)
    assert outcome(validate_comodel, recording(trees, tree_log)) == shaped
    assert tree_log == shaped_log and builds


def test_a_cell_comodel_validation_compiles_each_side_once(monkeypatch):
    from algeff import comodels

    compiled, compile_ = [], comodels.compile
    monkeypatch.setattr(comodels, "compile", lambda shape, algebra:
                        compiled.append(shape) or compile_(shape, algebra))
    get_table = {w: (w, w) for w in range(10)}
    put_table = {(p, w): ((), p) for p in range(10) for w in range(10)}
    assert validate_comodel(cell_comodel(10, get_table, put_table)) is None
    assert compiled == [side.shape for e in STATE10.eqs for side in (e.lhs, e.rhs)]


@pytest.mark.parametrize("sample, theory", [
    ("state2.cmod", "state2.thy"),
    ("state10.cmod", "state10.thy"),
    ("altstream.cmod", "choice.thy"),
])
def test_shapes_and_trees_run_alike_with_a_wrong_entry_anywhere(sample, theory):
    th = parse_theory_file((SAMPLES / theory).read_text())
    c = parse_comodel_file((SAMPLES / sample).read_text(), th)
    trees, worlds, kinds = closure_copy(th), c.world.elements(), set()
    for name, coop in c.coops.items():
        for w in worlds:
            for p in th.op(name).param.iter_elements():
                a, w2 = coop(p, w)
                moved = worlds[(worlds.index(w2) + 1) % len(worlds)]
                for got in ((a, moved), (w2, a)):  # another world, or a result outside the arity
                    wrong = {**c.coops, name: lambda q, v, f=coop, at=(p, w), got=got: (
                        got if (q, v) == at else f(q, v))}
                    logs = [], []
                    results = [outcome(validate_comodel, recording(Cointerpretation(t, c.world, wrong), log))
                               for t, log in zip((th, trees), logs)]
                    assert results[0] == results[1] and logs[0] == logs[1]
                    kinds.add(results[0][0] if results[0][0] == "raised" else type(results[0][1]))
    assert kinds >= {"raised", ComodelViolation}


# ---------------------------------------------------------------------------
# The runner algebra against the compiler it replaced: each side's shape
# compiled by its own walk into a function of (environment, world).


def reference_compile(c, shape, depth=0):
    """A side's shape, every operation in it covered, as a function that
    runs it from an environment and a world to (leaf value, world): the
    reference that ``terms.compile`` in ``comodels._runner(c)`` must match."""
    from algeff import terms

    tag = shape[0]
    if tag == "return":
        value = terms._element(shape[1])
        return lambda env, world: (value(env), world)
    name = shape[1]
    coop, param, arity = c.coops[name], terms._element(shape[2]), c.theory.op(name).arity
    elements = arity.elements()
    if tag == "op":
        kids = [reference_compile(c, sub, depth) for sub in shape[3]]

        def run(env, world):
            a, world = coop(param(env), world)
            return kids[arity.index_of(a)](env, world)

        return run
    body, key = reference_compile(c, shape[4], depth + 1), depth + 1

    def run_body(env, world):
        a, world = coop(param(env), world)
        env[key] = elements[arity.index_of(a)]
        return body(env, world)

    return run_body


def assert_runs_match_the_reference(c):
    """Each side of each equation, at every parameter and every world, run
    by the runner algebra and by the reference: the same outcome, and the
    same cooperation calls in the same order.  Returns the runs made."""
    from algeff.comodels import _runner
    from algeff.terms import compile

    logs = [], []
    ours, ref = recording(c, logs[0]), recording(c, logs[1])
    runs = 0
    for eq in c.theory.eqs:
        for side in (eq.lhs, eq.rhs):
            run, expected = compile(side.shape, _runner(ours)), reference_compile(ref, side.shape)
            for p in eq.param_universe.iter_elements():
                for w in c.world.iter_elements():
                    got = outcome(run, {0: p}, w)
                    assert got == outcome(expected, {0: p}, w), (eq.name, p, w)
                    assert logs[0] == logs[1], (eq.name, p, w)
                    runs += 1
    return runs


def _cell_comodels(monkeypatch):
    """The benchmark's fin 3, 6 and 10 cell comodels, each lawful and with
    one wrong get entry and one wrong put entry."""
    import importlib

    monkeypatch.syspath_prepend(str(SAMPLES.parent / "perfbench"))
    gen = importlib.import_module("gen")
    for n in (3, 6, 10):
        theory = parse_theory_file(gen.state_theory_text(n, abort=False))
        get, put = gen.cell_tables(n)
        wrong_get, wrong_put = {**get, 1: (2, 0)}, {**put, (0, n - 1): 1}
        for tables in ((get, put), (wrong_get, put), (get, wrong_put)):
            yield parse_comodel_file(gen.state_comodel_text(n, *tables), theory)


def test_the_runner_algebra_runs_each_side_as_the_reference_compiler(monkeypatch):
    comodels = [parse_comodel_file((SAMPLES / sample).read_text(),
                                   parse_theory_file((SAMPLES / theory).read_text()))
                for sample, theory in (("state10.cmod", "state10.thy"),
                                       ("hello.cmod", "io_hello.thy"),
                                       ("altstream.cmod", "choice.thy"))]
    comodels += _cell_comodels(monkeypatch)
    verdicts = [validate_comodel(c) is None for c in comodels]
    assert verdicts == [True, True, False] + [True, False, False] * 3
    runs = [assert_runs_match_the_reference(c) for c in comodels]
    assert runs[1] == 0 and min(runs[:1] + runs[2:]) > 0 and sum(runs) > 10_000
