"""Hand-worked cases for the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py
"""

import re
import sys
from pathlib import Path

import pytest

import gen
import oracles as O

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


def _entries(name: str, op: str) -> dict:
    """``op(a; b, ...) = r;`` lines of a sample table file, as {(a, b, ...): r}."""
    out = {}
    for line in (SAMPLES / name).read_text().splitlines():
        m = re.match(rf"\s*{op}\((.*)\) = (.*);$", line)
        if m:
            args = tuple(O.parse_elem(x) for x in re.split(r"[;,] ?", m.group(1)) if x.strip())
            out[args] = O.parse_elem(m.group(2).replace("; ", ", "))
    return out


def _code(text: str) -> str:
    """Program text without comments, with whitespace collapsed."""
    text = re.sub(r"#[^\n]*", "", text)
    return " ".join(text.split())


# -- README transcripts ------------------------------------------------------


def test_readme_run_transcripts():
    inc, abort, hello = gen.README_RUNS
    assert O.run_output(O.simulate(inc[4], inc[5], 5, n=10)) == (0, "5 @ 6\n")
    assert O.run_output(O.simulate(abort[4], abort[5], 5, n=10)) == (
        2, "unhandled toplevel operation: abort\n")
    assert O.run_output(O.simulate(hello[4], hello[5], (), bound=2)) == (
        0, '() @ ["Hello world!"]\n')


def test_readme_programs_match_the_sample_files():
    for prog, _, _, _, stmts, final, _, _ in gen.README_RUNS:
        assert _code((SAMPLES / prog).read_text()) == _code(O.render_program(stmts, final))


def test_handlers_match_the_sample_handler():
    assert _code((SAMPLES / "stateh.eff").read_text()) == _code(gen.STATE_HANDLER)
    assert gen.PUT_KEEPS_STATE_HANDLER != gen.STATE_HANDLER


def test_readme_normalize_transcript():
    stmts = [("get", "x"), ("get", "y")]
    final = ("return", ("pair", ("var", "x"), ("var", "y")))
    assert O.render_program(stmts, final) == \
        "do x <- get!() in do y <- get!() in return (x, y)"
    assert O.normal_form_output(stmts, final, 2) == \
        "get((); put(0; return (0, 0)), put(1; return (1, 1)))\n"


def test_readme_model_transcript():
    # samples/badlattice.mod: join is the left projection
    join = {(a, b): a for a in (False, True) for b in (False, True)}
    assert _entries("badlattice.mod", "join") == {((), a, b): r for (a, b), r in join.items()}
    assert O.model_case_fails(join, False, "comm", {"x": False, "y": True})
    expect = {"type": "model", "valid": False, "bot": False,
              "join": [[a, b, r] for (a, b), r in join.items()]}
    line = "Violated: equation comm, param (), valuation [x=false, y=true]\n"
    assert O.check_cli(expect, 1, line) is None
    assert O.check_cli(expect, 1, line.replace("y=true", "y=false")) is not None


def test_readme_comodel_and_handler_transcripts():
    get, put = gen.cell_tables(10)
    assert _entries("state10.cmod", "get") == {((), w): r for w, r in get.items()}
    assert _entries("state10.cmod", "put") == {(p, w): ((), r) for (p, w), r in put.items()}
    assert O.comodel_is_valid("state", 10, O.state_coop(get, put), range(10))
    assert O.handler_respects(2, put_keeps_state=False)


# -- programs ------------------------------------------------------------------


def test_parameters_wrap_and_returned_sums_do_not():
    stmts = [("get", "x"), ("put", ("plus", "x", 3))]
    final = ("return", ("plus", "x", 7))
    assert O.simulate(stmts, final, 9, n=10) == ("done", 16, 2)
    assert O.render_program(stmts, final) == "do x <- get!() in do u <- put!(x + 3) in return x + 7"


def test_full_transcript_ignores_further_prints():
    stmts = [("print", "a"), ("print", "b"), ("print", "c")]
    out = O.simulate(stmts, ("return", ("int", 4)), ("c",), bound=3)
    assert out == ("done", 4, ("c", "a", "b"))
    assert O.run_output(out) == (0, '4 @ ["c", "a", "b"]\n')


def test_abort_after_effects_is_stuck():
    stmts = [("get", "x"), ("put", ("int", 3))]
    assert O.simulate(stmts, ("abort",), 1, n=10) == ("stuck", "abort")


def test_elements_round_trip():
    for v in [(), True, False, 0, 12, "Hello world!", (1, (2, ())), (("a", True), 3)]:
        assert O.parse_elem(O.render_elem(v)) == v
    assert O.split_top("x=(0, 1), y=\"a, b\", z=2") == ["x=(0, 1)", 'y="a, b"', "z=2"]


# -- models and comodels ---------------------------------------------------------


def test_powerset_table_is_a_model_and_a_planted_defect_is_found():
    join = {(a, b): a | b for a in range(4) for b in range(4)}
    assert next(O.model_violations(join, 0, range(4)), None) is None
    join[(1, 2)] = 1
    assert O.model_case_fails(join, 0, "comm", {"x": 1, "y": 2})
    assert not O.model_case_fails(join, 0, "comm", {"x": 1, "y": 3})


def test_altstream_breaks_commutativity():
    table = {0: (False, 1), 1: (True, 0)}
    assert _entries("altstream.cmod", "choose") == {((), w): r for w, r in table.items()}
    coop = lambda op, p, w: table[w]
    assert not O.comodel_is_valid("choice", 2, coop, range(2))
    assert O.comodel_case_fails("choice", 2, coop, "comm", (), 0)
    expect = {"type": "comodel", "family": "choice", "n": 2, "valid": False,
              "choose": [[0, False, 1], [1, True, 0]]}
    assert O.check_cli(expect, 1, "Violated: equation comm, param (), world 0\n") is None


def test_defective_put_breaks_put_get_at_that_parameter():
    n = 3
    get, put = gen.cell_tables(n)
    put[(1, 2)] = 0
    coop = O.state_coop(get, put)
    assert not O.comodel_is_valid("state", n, coop, range(n))
    assert O.comodel_case_fails("state", n, coop, "put_get", 1, 2)
    assert not O.comodel_case_fails("state", n, coop, "put_get", 1, 0)
    assert O.comodel_case_fails("state", n, coop, "put_put", (1, 1), 2)


def test_put_clause_that_keeps_the_state_breaks_put_get():
    assert not O.handler_respects(2, put_keeps_state=True)
    assert O.handler_case_fails(2, True, "put_get", 0)
    assert not O.handler_case_fails(2, True, "put_put", (0, 1))
    expect = {"type": "handler", "n": 2, "put_keeps_state": True, "valid": False}
    assert O.check_cli(expect, 1, "Violated: equation put_get, param 0\n") is None
    assert O.check_cli(expect, 1, "Violated: equation get_put, param ()\n") is not None


# -- search oracles ----------------------------------------------------------------


def test_leaf_sets():
    ch = lambda a, b: O.node("choose", (), a, b)
    x, y = O.ret("x"), O.ret("y")
    assert O.leaves(ch(x, ch(y, x))) == O.leaves(ch(y, x))
    assert O.leaves(O.node("join", (), x, O.node("bot", ()))) == O.leaves(x)


def test_every_state_law_instance_agrees_on_every_store():
    instances = O.state_equation_instances(2, 2)
    assert {name for name, _, _, _ in instances} == {
        "lookup_lookup", "lookup_update", "update_lookup", "update_update",
        "lookup_lookup_comm", "update_lookup_comm", "update_update_comm"}
    for _, _, lhs, rhs in instances:
        assert lhs != rhs
        assert O.store_runs(lhs, 2, 2) == O.store_runs(rhs, 2, 2)
    swapped = O.node("update", (0, 1), O.node("update", (0, 0), O.ret(())))
    assert O.store_runs(swapped, 2, 2) != O.store_runs(
        O.node("update", (0, 0), O.node("update", (0, 1), O.ret(()))), 2, 2)


def test_cell_normal_form_runs_like_the_tree():
    t = O.node("put", 1, O.node("get", (), O.ret(0), O.ret(2)))
    assert O.cell_runs(t, 2) == ((2, 1), (2, 1))
    assert O.cell_runs(gen.cell_normal_form(t, 2), 2) == O.cell_runs(t, 2)


def test_search_verdicts_are_judged_for_soundness():
    assert O.check_search({"equal": True, "decided": False}, "unknown") is None
    assert O.check_search({"equal": True, "decided": True}, "unknown") is not None
    assert O.check_search({"equal": False, "decided": False}, "equal") is not None
    assert O.check_search({"equal": True, "decided": False}, "distinct") is not None


def test_choice_corpus_is_the_search_test_corpus():
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from tests.gen import tree_corpus
        from algeff.theories import choice_theory
    except ImportError:
        pytest.skip("needs the repository's tests and sources")
    finally:
        del sys.path[:2]

    def plain(t):
        if hasattr(t, "kont"):
            return O.node(t.op, t.param, *(plain(k) for k in t.kont))
        return O.ret(t.value)

    expected = tree_corpus(choice_theory(), ["x", "y", "z"], 40, 3, seed=77)
    assert gen.choice_corpus() == [plain(t) for t in expected]
