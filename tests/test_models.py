import itertools
import math
from pathlib import Path

import pytest

from algeff.errors import NonEnumerableCarrier, TheoryMismatch, UnboundGenerator, UnknownOperation
from algeff.models import (
    EquationViolation,
    FiniteModel,
    Interpretation,
    check_homomorphism,
    interpret_term,
    is_homomorphism,
    iter_equation_cases,
    product_model,
    table_model,
    trivial_model,
    validate_equation,
    validate_model,
)
from algeff.parser import parse_model_file, parse_theory_file
from algeff.terms import Equation, OpDecl, OpNode, Return, Theory, substitute
from algeff.theories import choice_theory, group_theory, semilattice_theory, single_state_theory
from algeff.universe import BOOL, EMPTY, UNIT, Enum, Fin

from tests.test_terms import BUILTIN_INSTANCES


def monoid_signature():
    return Theory("monoid_sig", (OpDecl("u", UNIT, EMPTY), OpDecl("m", UNIT, BOOL)))


def or_semilattice():
    th = semilattice_theory()
    return FiniteModel(
        th,
        {"bot": lambda p, a: False, "join": lambda p, ab: ab[0] or ab[1]},
        BOOL,
    )


def left_projection_semilattice():
    th = semilattice_theory()
    return FiniteModel(
        th,
        {"bot": lambda p, a: False, "join": lambda p, ab: ab[0]},
        BOOL,
    )


def cyclic_group(n):
    th = group_theory()
    return FiniteModel(
        th,
        {
            "u": lambda p, a: 0,
            "m": lambda p, ab: (ab[0] + ab[1]) % n,
            "i": lambda p, a: (n - a[0]) % n,
        },
        Fin(n),
    )


def test_interpret_projection():
    m = or_semilattice()
    assert interpret_term(m, Return("x"), {"x": True}) is True


def test_interpret_real_valued_interpretation():
    # carrier R: u = 1 + sqrt 5, m(a, b) = a^2 + b^3; on m(u, m(x, x)) the
    # value at (a, b) is (a+1)^3 a^6 + 2(3 + sqrt 5)
    raw = Interpretation(
        monoid_signature(),
        {
            "u": lambda p, args: 1 + math.sqrt(5),
            "m": lambda p, ab: ab[0] ** 2 + ab[1] ** 3,
        },
    )
    term = OpNode("m", (), (OpNode("u", (), ()), OpNode("m", (), (Return("x"), Return("x")))))
    for a in (0.0, 1.0, 2.0):
        expected = (a + 1) ** 3 * a**6 + 2 * (3 + math.sqrt(5))
        got = interpret_term(raw, term, {"x": a, "y": -7.0})
        assert got == pytest.approx(expected, abs=1e-9)


def test_interpret_semilattice_brute_force():
    m = or_semilattice()
    term = OpNode("join", (), (Return("x"), OpNode("join", (), (Return("y"), Return("x")))))
    assert interpret_term(m, term, {"x": True, "y": False}) is True
    # brute-force truth table oracle
    for x in (False, True):
        for y in (False, True):
            assert interpret_term(m, term, {"x": x, "y": y}) == (x or (y or x))


def test_interpret_unbound_generator():
    with pytest.raises(UnboundGenerator):
        interpret_term(or_semilattice(), Return("z"), {"x": True})


def test_interpret_a_tree_of_any_depth():
    m = FiniteModel(choice_theory(), {"choose": lambda p, ab: ab[0] or ab[1]}, BOOL)
    t = Return("x")
    for _ in range(5_000):
        t = OpNode("choose", (), (Return("y"), t))
    assert interpret_term(m, t, {"x": False, "y": False}) is False
    assert interpret_term(m, t, {"x": True, "y": False}) is True


def test_interpret_raises_the_first_defect_in_preorder():
    m = or_semilattice()
    unknown_above = OpNode("meet", (), (Return("z"), Return("x")))
    with pytest.raises(UnknownOperation, match="'meet'"):
        interpret_term(m, unknown_above, {"x": True})
    unbound_left = OpNode("join", (), (Return("z"), OpNode("meet", (), ())))
    with pytest.raises(UnboundGenerator, match="'z'"):
        interpret_term(m, unbound_left, {"x": True})


def test_raw_interpretation_is_rejected_by_validators():
    raw = Interpretation(monoid_signature(), {"u": lambda p, a: 0, "m": lambda p, a: 0})
    with pytest.raises(NonEnumerableCarrier):
        validate_model(raw)


@pytest.mark.parametrize("theory", BUILTIN_INSTANCES, ids=lambda t: t.name)
def test_trivial_model_validates_every_builtin(theory):
    assert validate_model(trivial_model(theory)) is None


def test_or_model_validates_commutativity():
    th = semilattice_theory()
    comm = next(e for e in th.eqs if e.name == "comm")
    assert validate_equation(or_semilattice(), comm) is None


def test_left_projection_violates_commutativity_with_first_witness():
    m = left_projection_semilattice()
    violation = validate_model(m)
    assert violation == EquationViolation(
        "comm", (), {"x": False, "y": True}, False, True
    )


def test_cyclic_groups_validate():
    assert validate_model(cyclic_group(2)) is None
    assert validate_model(cyclic_group(3)) is None


def test_xor_with_identity_inverse_validates_group():
    th = group_theory()
    m = FiniteModel(
        th,
        {
            "u": lambda p, a: 0,
            "m": lambda p, ab: ab[0] ^ ab[1],
            "i": lambda p, a: a[0],
        },
        Fin(2),
    )
    assert validate_model(m) is None


def test_constant_false_violates_a_unit_law():
    th = group_theory()
    m = FiniteModel(
        th,
        {"u": lambda p, a: 0, "m": lambda p, ab: 1, "i": lambda p, a: 1},
        Fin(2),
    )
    violation = validate_model(m)
    assert violation is not None
    assert violation.equation == "unit_left"


def test_product_of_trivial_models_is_trivial():
    th = group_theory()
    prod = product_model(trivial_model(th), trivial_model(th))
    assert prod.carrier.size() == 1
    assert validate_model(prod) is None


def test_z2_times_z3_validates_group():
    prod = product_model(cyclic_group(2), cyclic_group(3))
    assert prod.carrier.size() == 6
    assert validate_model(prod) is None


def test_product_requires_same_theory():
    with pytest.raises(TheoryMismatch):
        product_model(cyclic_group(2), or_semilattice())


def test_product_projections_are_homomorphisms():
    l, m = cyclic_group(2), cyclic_group(3)
    prod = product_model(l, m)
    pi1 = {x: x[0] for x in prod.carrier.elements()}
    pi2 = {x: x[1] for x in prod.carrier.elements()}
    assert check_homomorphism(pi1, prod, l) is None
    assert check_homomorphism(pi2, prod, m) is None


def test_identity_is_a_homomorphism():
    m = cyclic_group(3)
    identity = {x: x for x in m.carrier.elements()}
    assert is_homomorphism(identity, m, m)


def test_map_to_trivial_model_is_a_homomorphism():
    m = cyclic_group(3)
    assert is_homomorphism({x: () for x in range(3)}, m, trivial_model(m.theory))


def test_mod2_reduction_is_a_homomorphism_but_shift_is_not():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    assert check_homomorphism({x: x % 2 for x in range(4)}, z4, z2) is None
    shift = check_homomorphism({0: 1, 1: 0}, z2, z2)
    assert shift is not None
    assert shift.op == "u"


def test_interpret_respects_substitution():
    m = or_semilattice()
    join = lambda a, b: OpNode("join", (), (a, b))
    trees = [
        Return("x"),
        join(Return("x"), Return("y")),
        join(join(Return("x"), Return("y")), Return("x")),
    ]
    assigns = [Return("x"), Return("y"), join(Return("x"), Return("y"))]
    for t in trees:
        for picks in itertools.product(assigns, repeat=2):
            sigma = dict(zip(("x", "y"), picks))
            for vx in (False, True):
                for vy in (False, True):
                    v = {"x": vx, "y": vy}
                    direct = interpret_term(m, substitute(t, sigma), v)
                    pointwise = {g: interpret_term(m, sigma[g], v) for g in ("x", "y")}
                    assert direct == interpret_term(m, t, pointwise)


def test_equation_case_count_matches_formula():
    th = single_state_theory(Fin(3))
    m = FiniteModel(
        th,
        {"get": lambda p, a: a[0], "put": lambda p, a: a[0]},
        Fin(2),
    )
    for eq in th.eqs:
        cases = list(iter_equation_cases(m, eq))
        expected = eq.param_universe.size() * 2 ** eq.context.size()
        assert len(cases) == expected


def test_validation_fetches_each_side_once_per_parameter():
    th = single_state_theory(Fin(3))
    # put_put fails at its fourth parameter, (1, 0)
    ops = {"get": lambda p, a: a[0], "put": lambda p, a: a[0] if p == 0 else 0}
    m = FiniteModel(th, ops, Fin(2))
    for eq in th.eqs:
        fetched = []

        def side(name, build):
            def fetch(p):
                fetched.append((name, p))
                return build(p)
            return fetch

        counted = Equation(eq.name, eq.param_universe, eq.context,
                           side("lhs", eq.lhs), side("rhs", eq.rhs))
        violation = validate_equation(m, counted)
        assert violation == validate_equation(m, eq)
        params = eq.param_universe.elements()
        if violation is not None:
            params = params[:params.index(violation.param) + 1]
        assert fetched == [(name, p) for p in params for name in ("lhs", "rhs")]


def test_table_model_checks_totality():
    th = semilattice_theory()
    table = {("bot", (), ()): False}
    for a in (False, True):
        for b in (False, True):
            table[("join", (), (a, b))] = a or b
    m = table_model(th, BOOL, table)
    assert validate_model(m) is None
    del table[("join", (), (True, True))]
    with pytest.raises(Exception):
        table_model(th, BOOL, table)


# ---------------------------------------------------------------------------
# Parity with the tree walk: validate_equation reads each instance at blocks
# of valuations at once, and must give what interpreting the tree at every
# case gave.  It calls each operation at most once per (param, args), and
# only at arguments the walk meets, though it may read past the witness to
# the end of its block.

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def walk_term(interp, t, valuation):
    """The reference: interpret_term as a recursive tree walk, per case."""
    if isinstance(t, Return):
        try:
            return valuation[t.value]
        except KeyError:
            raise UnboundGenerator(f"valuation does not cover generator {t.value!r}") from None
    if t.op not in interp.ops:
        raise UnknownOperation(f"no interpretation for operation {t.op!r}")
    args = tuple(walk_term(interp, sub, valuation) for sub in t.kont)
    return interp.ops[t.op](t.param, args)


def walk_validate_model(m):
    """The reference: every equation, every case of iter_equation_cases,
    each side walked with a dict valuation; first violation wins."""
    for e in m.theory.eqs:
        sides_of, lhs, rhs = object(), None, None
        for p, valuation in iter_equation_cases(m, e):
            if p is not sides_of:
                sides_of, lhs, rhs = p, e.lhs(p), e.rhs(p)
            lv = walk_term(m, lhs, valuation)
            rv = walk_term(m, rhs, valuation)
            if lv != rv:
                return EquationViolation(e.name, p, valuation, lv, rv)
    return None


def outcome(check, *args):
    """A check's result, or the class and message of what it raised; the
    repr tells True from 1 where == does not."""
    try:
        result = check(*args)
    except Exception as error:
        return ("raised", type(error), str(error))
    return ("returned", result, repr(result))


def recording(m, log):
    """m with every operation call logged as (op, param, args)."""
    def logged(name, f):
        def op(p, args):
            log.append((name, p, args))
            return f(p, args)
        return op
    return FiniteModel(m.theory, {name: logged(name, f) for name, f in m.ops.items()}, m.carrier)


def calls_of_the_walk(m):
    """The operation calls of the walk at every valuation of each instance,
    up to and including the instance at which the walk stops: a block read
    may go past the witness, or past a valuation that raises, but no
    further than its instance."""
    log = []
    walked = recording(m, log)
    for e in m.theory.eqs:
        gens = e.context.elements()
        for p in e.param_universe.iter_elements():
            lhs, rhs, stop = e.lhs(p), e.rhs(p), False
            for picks in itertools.product(m.carrier.elements(), repeat=len(gens)):
                valuation = dict(zip(gens, picks))
                try:
                    stop = walk_term(walked, lhs, valuation) != walk_term(walked, rhs, valuation) or stop
                except Exception:
                    stop = True
            if stop:
                return log
    return log


def closure_copy(theory):
    """The theory with each side a closure over the same instances, so that
    validation takes the tree path."""
    return Theory(theory.name, theory.ops, tuple(
        Equation(e.name, e.param_universe, e.context, lambda p, s=e.lhs: s(p), lambda p, s=e.rhs: s(p))
        for e in theory.eqs))


def assert_parity(m, pointwise=False):
    """validate_model gives what the walk gives, and reads in blocks only,
    unless ``pointwise``: a defect, or a value outside the carrier, sends
    it to one valuation at a time."""
    import algeff.models

    log, switched = [], []
    reader = algeff.models._Reader
    to_pointwise = reader._pointwise
    reader._pointwise = lambda self: switched.append(self) or to_pointwise(self)
    try:
        result = outcome(validate_model, recording(m, log))
    finally:
        reader._pointwise = to_pointwise
    assert bool(switched) == pointwise
    assert result == outcome(walk_validate_model, recording(m, []))
    calls = [repr(call) for call in log]  # the repr tells True from 1, as == does not
    assert len(set(calls)) == len(calls), "an operation was called twice at the same point"
    walked = {repr(call) for call in calls_of_the_walk(m)}
    assert set(calls) <= walked
    if result[1] is None:  # a valid model is read at every point the walk reads
        assert set(calls) == walked
    return result


def powerset_table(atoms):
    """The join table of the subsets of ``atoms`` atoms, as bitmasks."""
    size = 2 ** atoms
    table = {("bot", (), ()): 0}
    for a in range(size):
        for b in range(size):
            table[("join", (), (a, b))] = a | b
    return Fin(size), table


@pytest.mark.parametrize("sample", ["orlattice.mod", "badlattice.mod"])
def test_sample_models_match_the_tree_walk(sample):
    theory = parse_theory_file((SAMPLES / "semilattice.thy").read_text())
    m = parse_model_file((SAMPLES / sample).read_text(), theory)
    assert_parity(m)


def test_stock_models_match_the_tree_walk():
    models = [trivial_model(theory) for theory in BUILTIN_INSTANCES] + [
        or_semilattice(), left_projection_semilattice(), cyclic_group(3),
        product_model(cyclic_group(2), cyclic_group(3)),
    ]
    for m in models:
        assert_parity(m)


@pytest.mark.parametrize("atoms", [2, 3])
def test_powerset_lattices_with_a_defect_at_every_entry_match_the_tree_walk(atoms):
    carrier, table = powerset_table(atoms)
    assert assert_parity(table_model(semilattice_theory(), carrier, table))[1] is None
    for key, value in table.items():
        defective = dict(table)
        defective[key] = (value + 1) % carrier.size()
        result = assert_parity(table_model(semilattice_theory(), carrier, defective))
        assert isinstance(result[1], EquationViolation)


def test_a_violation_wins_over_errors_in_a_later_parameter():
    f = lambda a, b: OpNode("f", (), (a, b))
    x, y = Return("x"), Return("y")
    theory = Theory("t", (OpDecl("f", UNIT, BOOL),), (Equation(
        "e", Fin(3), Enum(("x", "y")),
        lambda p: [f(x, y), f(Return("z"), x), f(x, x)][p],
        lambda p: [f(y, x), f(x, Return("z")), OpNode("g", (), (x,))][p],
    ),))
    first = FiniteModel(theory, {"f": lambda p, ab: ab[0]}, BOOL)
    assert assert_parity(first)[1] == EquationViolation("e", 0, {"x": False, "y": True}, False, True)
    either = FiniteModel(theory, {"f": lambda p, ab: ab[0] or ab[1]}, BOOL)
    assert assert_parity(either, pointwise=True)[:2] == ("raised", UnboundGenerator)
    # parameter 1 unbound no more: the unknown operation at parameter 2 raises
    bound = Theory("t", theory.ops, (Equation(
        "e", Fin(3), Enum(("x", "y", "z")), theory.eqs[0].lhs, theory.eqs[0].rhs),))
    assert assert_parity(FiniteModel(bound, either.ops, BOOL), pointwise=True)[:2] == (
        "raised", UnknownOperation)


def test_an_empty_carrier_compiles_nothing(monkeypatch):
    import algeff.models

    read = []
    monkeypatch.setattr(algeff.models._Reader, "first_difference",
                        lambda self, *sides: read.append(sides))
    log = []
    m = recording(FiniteModel(semilattice_theory(),
                              {"bot": lambda p, a: 0, "join": lambda p, a: 0}, EMPTY), log)
    nonempty = [e for e in m.theory.eqs if e.context.size()]
    assert nonempty
    for e in nonempty:
        fetched = []
        counted = Equation(e.name, e.param_universe, e.context,
                           lambda p: fetched.append(p), lambda p: fetched.append(p))
        assert validate_equation(m, counted) is None
        assert fetched == []
    assert validate_model(m) is None  # bot's unit law has a generator too
    assert read == [] and log == []


def test_a_parametric_family_matches_the_tree_walk(monkeypatch):
    th = single_state_theory(Fin(3))
    get_first = lambda p, a: a[0]
    models = [
        # put_get holds at parameter 0 only: get reads the first branch
        FiniteModel(th, {"get": get_first, "put": lambda p, a: a[0]}, Fin(2)),
        # a lawful model: one element
        FiniteModel(th, {"get": get_first, "put": lambda p, a: a[0]}, Fin(1)),
    ] + [FiniteModel(th, {"get": get_first, "put": lambda p, a, t=table: t[a[0]] if p else a[0]}, Fin(2))
         for table in ({0: 1, 1: 0}, {0: 0, 1: 0}, {0: 1, 1: 1})]
    results = [assert_read_from_shapes(m, monkeypatch) for m in models]
    assert results == [assert_parity(m) for m in models]
    assert results[0][1] == EquationViolation("put_get", 1, {0: 0, 1: 1, 2: 0}, 0, 1)
    assert results[1][1] is None


def test_a_parametric_family_read_one_valuation_at_a_time_keeps_no_instance(monkeypatch):
    # put leaves the carrier at parameter 2 only: from there on, the sides
    # are built to be read one valuation at a time, and dropped
    from algeff import terms

    th = single_state_theory(Fin(3))
    m = FiniteModel(th, {"get": lambda p, a: a[0],
                         "put": lambda p, a: True if p == 2 else a[0]}, Fin(1))
    asked, call = [], terms._Instances.__call__
    with monkeypatch.context() as patch:
        patch.setattr(terms._Instances, "__call__", lambda self, p: asked.append(p) or call(self, p))
        result = outcome(validate_model, m)
    assert asked == []
    assert result == assert_parity(m, pointwise=True)
    assert result[1] == EquationViolation("put_put", (2, 0), {(): 0}, True, 0)


def test_a_value_outside_the_carrier_is_not_taken_for_an_element_equal_to_it():
    # f(1) is True, not 1, and g tells them apart: a table of g's values by
    # arguments equal under == would read g(1) as g(True)
    x = Return("x")
    g = lambda t: OpNode("g", (), (t,))
    theory = Theory("t", (OpDecl("f", UNIT, UNIT), OpDecl("g", UNIT, UNIT)), (Equation(
        "e", UNIT, Enum(("x",)), lambda p: g(OpNode("f", (), (x,))), lambda p: g(x)),))
    m = FiniteModel(theory, {"f": lambda p, a: True if a[0] == 1 else 0,
                             "g": lambda p, a: 0 if type(a[0]) is bool else a[0]}, Fin(2))
    assert assert_parity(m, pointwise=True)[1] == EquationViolation("e", (), {"x": 1}, 0, 1)


@pytest.mark.parametrize("at", [0, 15, 16, 4095])
def test_a_defect_anywhere_in_a_check_of_many_blocks_matches_the_tree_walk(at):
    # m and n agree but at valuation ``at`` of 16 ** 3, in product order
    three = lambda name: OpNode(name, (), tuple(Return(g) for g in "xyz"))
    theory = Theory("t", (OpDecl("m", UNIT, Fin(3)), OpDecl("n", UNIT, Fin(3))), (Equation(
        "e", UNIT, Enum(tuple("xyz")), lambda p: three("m"), lambda p: three("n")),))
    picks = (at // 256, at // 16 % 16, at % 16)
    m = FiniteModel(theory, {"m": lambda p, a: a[0],
                             "n": lambda p, a: (a[0] + (a == picks)) % 16}, Fin(16))
    result = assert_parity(m)
    assert result[1] == EquationViolation("e", (), dict(zip("xyz", picks)), picks[0], (picks[0] + 1) % 16)


def assert_read_from_shapes(m, monkeypatch):
    """Validation of a model of a theory written in theory syntax asks for
    no instance, and gives the result, with the calls in their order, of
    the same laws as closures, whose trees are read."""
    from algeff import terms

    asked, logs = [], ([], [])
    with monkeypatch.context() as patch:
        for name in ("__call__", "at"):
            build = getattr(terms._Instances, name)
            patch.setattr(terms._Instances, name,
                          lambda self, p, build=build: asked.append(p) or build(self, p))
        result = outcome(validate_model, recording(m, logs[0]))
    assert asked == []
    trees = FiniteModel(closure_copy(m.theory), m.ops, m.carrier)
    assert outcome(validate_model, recording(trees, logs[1])) == result
    assert logs[0] == logs[1]
    return result


@pytest.mark.parametrize("sample", ["orlattice.mod", "badlattice.mod"])
def test_a_parsed_theory_is_read_from_its_shapes_without_building_an_instance(sample, monkeypatch):
    theory = parse_theory_file((SAMPLES / "semilattice.thy").read_text())
    m = parse_model_file((SAMPLES / sample).read_text(), theory)
    assert assert_read_from_shapes(m, monkeypatch) == assert_parity(m)


@pytest.mark.parametrize("violation, error", [(5, 9), (9, 5), (None, 40)])
def test_an_operation_that_raises_is_met_where_the_walk_meets_it(violation, error):
    # m and n agree but at valuation ``violation`` of 4 ** 3, where n is off
    # by one, and n raises at valuation ``error``: the first in product order wins
    three = lambda name: OpNode(name, (), tuple(Return(g) for g in "xyz"))
    theory = Theory("t", (OpDecl("m", UNIT, Fin(3)), OpDecl("n", UNIT, Fin(3))), (Equation(
        "e", UNIT, Enum(tuple("xyz")), lambda p: three("m"), lambda p: three("n")),))

    def n(p, a):
        at = a[0] * 16 + a[1] * 4 + a[2]
        if at == error:
            raise ValueError(f"n fails at {a}")
        return (a[0] + (at == violation)) % 4

    m = FiniteModel(theory, {"m": lambda p, a: a[0], "n": n}, Fin(4))
    result = assert_parity(m, pointwise=True)  # n is not called again where it raised
    assert result[0] == ("returned" if violation is not None and violation < error else "raised")
