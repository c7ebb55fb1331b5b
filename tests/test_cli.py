import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from algeff.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def invoke(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_increment_golden(capsys):
    code, out, _ = invoke(
        capsys,
        "run", SAMPLES / "increment.eff",
        "--theory", SAMPLES / "state10.thy",
        "--comodel", SAMPLES / "state10.cmod",
        "--world", "5",
    )
    assert out == "5 @ 6\n"
    assert code == 0


def test_run_abort_golden(capsys):
    code, out, _ = invoke(
        capsys,
        "run", SAMPLES / "abort.eff",
        "--theory", SAMPLES / "state10.thy",
        "--comodel", SAMPLES / "state10.cmod",
        "--world", "5",
    )
    assert out == "unhandled toplevel operation: abort\n"
    assert code == 2


def test_run_hello_world_golden(capsys):
    code, out, _ = invoke(
        capsys,
        "run", SAMPLES / "hello.eff",
        "--theory", SAMPLES / "io_hello.thy",
        "--comodel", SAMPLES / "hello.cmod",
        "--world", "[]",
    )
    assert out == '() @ ["Hello world!"]\n'
    assert code == 0


def test_run_type_error_exits_1(capsys):
    code, out, err = invoke(
        capsys,
        "run", "do x <- get!() in if x then return x else return x",
        "--theory", SAMPLES / "state10.thy",
        "--comodel", SAMPLES / "state10.cmod",
        "--world", "0",
    )
    assert code == 1
    assert "expected bool, found int" in err


def test_run_parse_error_exits_3(capsys):
    code, _, err = invoke(
        capsys,
        "run", "do x <-",
        "--theory", SAMPLES / "state10.thy",
        "--comodel", SAMPLES / "state10.cmod",
        "--world", "0",
    )
    assert code == 3
    assert "syntax error" in err


def test_run_bad_world_exits_3(capsys):
    code, _, err = invoke(
        capsys,
        "run", SAMPLES / "increment.eff",
        "--theory", SAMPLES / "state10.thy",
        "--comodel", SAMPLES / "state10.cmod",
        "--world", "11",
    )
    assert code == 3
    assert "world" in err


def test_check_state_comodel_valid(capsys):
    code, out, _ = invoke(
        capsys, "check", "comodel", SAMPLES / "state10.cmod", "--theory", SAMPLES / "state10.thy"
    )
    assert out == "Valid\n"
    assert code == 0


def test_check_bad_model_violated(capsys):
    code, out, _ = invoke(
        capsys, "check", "model", SAMPLES / "badlattice.mod", "--theory", SAMPLES / "semilattice.thy"
    )
    assert out == "Violated: equation comm, param (), valuation [x=false, y=true]\n"
    assert code == 1


def test_check_good_model_valid(capsys):
    code, out, _ = invoke(
        capsys, "check", "model", SAMPLES / "orlattice.mod", "--theory", SAMPLES / "semilattice.thy"
    )
    assert out == "Valid\n"
    assert code == 0


def test_check_altstream_comodel_violates_commutativity(capsys):
    code, out, _ = invoke(
        capsys, "check", "comodel", SAMPLES / "altstream.cmod", "--theory", SAMPLES / "choice.thy"
    )
    assert out == "Violated: equation comm, param (), world 0\n"
    assert code == 1


def test_check_state_handler_respected(capsys):
    code, out, _ = invoke(
        capsys, "check", "handler", SAMPLES / "stateh.eff", "--theory", SAMPLES / "state2.thy"
    )
    assert out == "Respected (bounded)\n"
    assert code == 0


def test_check_state_handler_over_ten_states_respected(capsys):
    code, out, _ = invoke(
        capsys, "check", "handler", SAMPLES / "stateh.eff", "--theory", SAMPLES / "state10.thy"
    )
    assert out == "Respected (bounded)\n"
    assert code == 0


def test_check_reference_error_exits_3(capsys):
    code, _, err = invoke(
        capsys, "check", "model", SAMPLES / "orlattice.mod", "--theory", SAMPLES / "choice.thy"
    )
    assert code == 3


def test_normalize_two_gets(capsys):
    code, out, _ = invoke(
        capsys,
        "normalize", "do x <- get!() in do y <- get!() in return (x, y)",
        "--theory", SAMPLES / "state2.thy",
    )
    assert out == "get((); put(0; return (0, 0)), put(1; return (1, 1)))\n"
    assert code == 0


def test_type_print(capsys):
    code, out, _ = invoke(
        capsys, "type", 'print!("hi")', "--theory", SAMPLES / "io_hello.thy"
    )
    assert out == "unit ! {print}\n"
    assert code == 0


def test_type_increment(capsys):
    code, out, _ = invoke(
        capsys, "type", SAMPLES / "increment.eff", "--theory", SAMPLES / "state10.thy"
    )
    assert out == "int ! {get, put}\n"
    assert code == 0


def test_repl_session(capsys, monkeypatch):
    lines = iter(
        [
            f":load {SAMPLES / 'state2.thy'}",
            ":type get!()",
            ":normalize do x <- get!() in do y <- get!() in return (x, y)",
            "nonsense <-",
            "return true",
            ":q",
        ]
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "loaded theory single_state" in out
    assert "int ! {get}" in out
    assert "get((); put(0; return (0, 0)), put(1; return (1, 1)))" in out
    assert "error:" in out  # the bad line is reported, the loop survives
    assert "return true" in out


def test_repl_quits_cleanly_on_eof(capsys, monkeypatch):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    assert main(["repl"]) == 0


def test_repl_run_remembers_the_last_computation(capsys, monkeypatch):
    lines = iter(
        [
            f":load {SAMPLES / 'state2.thy'}",
            "do x <- get!() in do u <- put!(x + 1) in return x",
            f":run {SAMPLES / 'state2.cmod'} 1",
            ":q",
        ]
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "1 @ 0\n" in out  # 1+1 wraps to 0 in fin 2


def test_repl_renders_closure_results(capsys, monkeypatch):
    lines = iter(
        [
            f":load {SAMPLES / 'state2.thy'}",
            "return (fun x -> return x)",
            ":q",
        ]
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main(["repl"]) == 0
    assert "return <fun x>" in capsys.readouterr().out


def test_normalize_without_a_strategy_exits_1(capsys):
    code, _, err = invoke(
        capsys, "normalize", "return 1", "--theory", SAMPLES / "state10.thy"
    )
    assert code == 1
    assert "no normalization strategy" in err


def test_normalize_choice_prints_its_leaf_set(capsys):
    code, out, _ = invoke(
        capsys, "normalize", "do b <- choose!() in return b",
        "--theory", SAMPLES / "choice.thy",
    )
    assert out == "choose((); return false, return true)\n"
    assert code == 0


def test_normalize_a_leaf_set_of_functions(capsys):
    code, out, _ = invoke(
        capsys, "normalize",
        "do b <- join!(()) in if b then return (fun x -> return x) else return (fun y -> return y)",
        "--theory", SAMPLES / "semilattice.thy",
    )
    assert out == "join((); return <fun x>, return <fun y>)\n"
    assert code == 0


@pytest.mark.parametrize("theory, join, bot", [
    ("semilattice.thy", "join", " | bot(u; k) -> return (fun t -> return t)"),
    ("choice.thy", "choose", ""),
])
def test_check_a_handler_into_functions_over_a_leaf_set_theory(capsys, tmp_path, theory, join, bot):
    # two functions that are equal but not identical may both stay in a
    # leaf set, so comparing leaf sets of functions is inconclusive
    handler = tmp_path / "h.eff"
    handler.write_text(
        f"handler {{ return x -> return (fun s -> return s) | {join}(u; k) -> "
        f"do b <- {join}!(()) in if b then k true else return (fun t -> return t){bot} }}\n"
    )
    code, out, err = invoke(capsys, "check", "handler", handler, "--theory", SAMPLES / theory)
    assert (code, out, err) == (1, "Unknown\n", "")


def test_check_a_handler_that_swaps_commuting_branches_is_not_violated(capsys, tmp_path):
    # join(y, x) and join(x, y) are equal by comm, though their leaves differ
    # and the theory has no normal form to show it
    theory = tmp_path / "comm.thy"
    theory.write_text(
        "theory comm {\n  op join : unit ~> bool;\n"
        "  equation comm (enum {x, y}) : join((); return x, return y) = "
        "join((); return y, return x);\n}\n"
    )
    handler = tmp_path / "h.eff"
    handler.write_text(
        "handler { return x -> return x | "
        "join(u; k) -> do b <- join!(()) in if b then k false else k true }\n"
    )
    code, out, err = invoke(capsys, "check", "handler", handler, "--theory", theory)
    assert out in ("Unknown\n", "Respected (bounded)\n") and err == ""
    assert code in (0, 1)


def test_check_the_identity_handler_over_a_collapsing_theory_is_not_violated(capsys, tmp_path):
    # x = y identifies every two leaves, so return x and return y are equal
    theory = tmp_path / "collapse.thy"
    theory.write_text(
        "theory collapse {\n  op star : unit ~> empty;\n"
        "  equation collapse (enum {x, y}) : return x = return y;\n}\n"
    )
    handler = tmp_path / "h.eff"
    handler.write_text("handler { return x -> return x }\n")
    code, out, err = invoke(capsys, "check", "handler", handler, "--theory", theory)
    assert out in ("Unknown\n", "Respected (bounded)\n") and err == ""
    assert code in (0, 1)


def test_type_subcommand_reports_errors_with_exit_1(capsys):
    code, _, err = invoke(
        capsys, "type", "if 1 then return true else return false",
        "--theory", SAMPLES / "state2.thy",
    )
    assert code == 1
    assert "expected bool, found int" in err


def test_sample_programs_round_trip_through_the_printer(capsys):
    from algeff.parser import parse_program
    from algeff.printer import render_comp

    for name in ("increment.eff", "abort.eff", "hello.eff"):
        ast = parse_program((SAMPLES / name).read_text())
        assert parse_program(render_comp(ast)) == ast


def test_normalize_long_inline_program(capsys):
    steps = "".join(f"do u{i} <- put!({i % 2}) in " for i in range(18))
    program = steps + "do x <- get!() in return x"
    assert len(program.encode()) >= 300
    code, out, _ = invoke(capsys, "normalize", program, "--theory", SAMPLES / "state2.thy")
    assert code == 0
    assert out == "get((); put(1; return 1), put(1; return 1))\n"


def test_normalize_does_not_depend_on_the_theory_name(capsys, tmp_path):
    program = "do x <- get!() in do y <- get!() in return (x, y)"
    text = (SAMPLES / "state2.thy").read_text()
    cell = tmp_path / "cell.thy"
    cell.write_text(text.replace("theory single_state", "theory cell"))
    _, expected, _ = invoke(capsys, "normalize", program, "--theory", SAMPLES / "state2.thy")
    code, out, _ = invoke(capsys, "normalize", program, "--theory", cell)
    assert code == 0
    assert out == expected == "get((); put(0; return (0, 0)), put(1; return (1, 1)))\n"


def puts(n, modulus):
    return "".join(f"do u <- put!({i % modulus}) in " for i in range(n))


def test_run_deep_straight_line_program(capsys, tmp_path):
    prog = tmp_path / "deep.eff"
    prog.write_text(puts(400, 10) + "return ()")
    code, out, _ = invoke(
        capsys,
        "run", prog,
        "--theory", SAMPLES / "state10.thy",
        "--comodel", SAMPLES / "state10.cmod",
        "--world", "5",
    )
    assert out == "() @ 9\n"
    assert code == 0


def test_normalize_deep_program(capsys, tmp_path):
    prog = tmp_path / "deep.eff"
    prog.write_text(puts(400, 2) + "do x <- get!() in return x")
    code, out, _ = invoke(capsys, "normalize", prog, "--theory", SAMPLES / "state2.thy")
    assert out == "get((); put(1; return 1), put(1; return 1))\n"
    assert code == 0


def test_state_handler_runs_a_deep_program(capsys, tmp_path):
    handler = (SAMPLES / "stateh.eff").read_text().split("\n", 1)[1].strip()
    body = "".join(f"do u <- put!({i % 2}) in " for i in range(1, 300))
    prog = tmp_path / "deep.eff"
    prog.write_text(f"do f <- with {handler} handle ({body}do x <- get!() in return x) in f 0")
    code, out, _ = invoke(
        capsys,
        "run", prog,
        "--theory", SAMPLES / "state10.thy",
        "--comodel", SAMPLES / "state10.cmod",
        "--world", "0",
    )
    assert out == "(1, 1) @ 0\n"
    assert code == 0


PROBE_THEORY = 'theory probe {\n  op get : unit ~> bool;\n  op print : enum {"a"} ~> unit;\n}\n'
PROBE_COMODEL = (
    'comodel probe {\n  world fin 1;\n  get((); 0) = (false; 0);\n'
    '  print("a"; 0) = ((); 0);\n}\n'
)


def test_run_reports_no_error_from_a_branch_it_never_takes(capsys, tmp_path):
    theory = tmp_path / "probe.thy"
    theory.write_text(PROBE_THEORY)
    comodel = tmp_path / "probe.cmod"
    comodel.write_text(PROBE_COMODEL)
    # "zzz" is no parameter of print, but only the true branch performs it
    program = 'do b <- get!() in if b then print!("zzz") else return ()'
    code, out, _ = invoke(
        capsys, "run", program, "--theory", theory, "--comodel", comodel, "--world", "0"
    )
    assert (code, out) == (0, "() @ 0\n")
    code, _, err = invoke(capsys, "normalize", program, "--theory", theory)
    assert code == 1
    assert "'zzz' is not a parameter of 'print'" in err


def test_fst_of_a_non_pair_in_a_theory_file_exits_3(capsys, tmp_path):
    theory = tmp_path / "bad.thy"
    theory.write_text(
        "theory t {\n"
        "  op put : fin 2 ~> unit;\n"
        "  equation e forall p in fin 2 (unit) : "
        "put(fst p; \\u. return u) = put(fst p; \\u. return u);\n"
        "}\n"
    )
    code, _, err = invoke(capsys, "normalize", "return 1", "--theory", theory)
    assert code == 3
    assert "syntax error at 3:" in err
    assert "fst expects a pair" in err


def test_program_too_deep_to_parse_exits_3_without_a_traceback(tmp_path):
    import os
    import subprocess
    import sys

    prog = tmp_path / "deep.eff"
    prog.write_text(puts(2000, 10) + "return ()")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "algeff.cli", "run", str(prog),
         "--theory", str(SAMPLES / "state10.thy"),
         "--comodel", str(SAMPLES / "state10.cmod"), "--world", "5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 3
    assert done.stderr.startswith("error: ")
    assert len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stdout + done.stderr


def test_repl_survives_a_program_too_deep_to_parse(capsys, monkeypatch):
    lines = iter(
        [
            f":load {SAMPLES / 'state2.thy'}",
            f":normalize {puts(2000, 2)}return ()",
            "return true",
            ":q",
        ]
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "error: input nested too deeply" in out
    assert "return true" in out


def test_normalize_prints_a_deep_tree(capsys, tmp_path):
    prog = tmp_path / "deep.eff"
    prog.write_text('do u <- print!("Hello world!") in ' * 900 + "return ()")
    code, out, err = invoke(capsys, "normalize", prog, "--theory", SAMPLES / "io_hello.thy")
    assert code == 0 and err == ""
    assert out == 'print("Hello world!"; ' * 900 + "return ()" + ")" * 900 + "\n"


def repl(capsys, monkeypatch, *lines):
    feed = iter([*lines, ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert main(["repl"]) == 0
    return capsys.readouterr().out


def one_line(name):
    """A sample program as one REPL line: comment lines dropped."""
    text = (SAMPLES / name).read_text()
    return " ".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))


def _run_transcript(prog, theory, comodel, world):
    argv = ["run", SAMPLES / prog, "--theory", SAMPLES / theory,
            "--comodel", SAMPLES / comodel, "--world", world]
    lines = [f":load {SAMPLES / theory}", f":run {SAMPLES / comodel} {world} {one_line(prog)}"]
    return argv, lines


def _check_transcript(kind, file, theory):
    argv = ["check", kind, SAMPLES / file, "--theory", SAMPLES / theory]
    return argv, [f":load {SAMPLES / theory}", f":load {SAMPLES / file}"]


README_TRANSCRIPTS = [
    _run_transcript("increment.eff", "state10.thy", "state10.cmod", "5"),
    _run_transcript("abort.eff", "state10.thy", "state10.cmod", "5"),
    _run_transcript("hello.eff", "io_hello.thy", "hello.cmod", "[]"),
    _run_transcript("hello.eff", "io_hello.thy", "hello.cmod", '["Hello world!"]'),
    _check_transcript("comodel", "state10.cmod", "state10.thy"),
    _check_transcript("model", "badlattice.mod", "semilattice.thy"),
    _check_transcript("handler", "stateh.eff", "state2.thy"),
    (
        ["normalize", "do x <- get!() in do y <- get!() in return (x, y)",
         "--theory", SAMPLES / "state2.thy"],
        [f":load {SAMPLES / 'state2.thy'}",
         ":normalize do x <- get!() in do y <- get!() in return (x, y)"],
    ),
]


@pytest.mark.parametrize("argv, lines", README_TRANSCRIPTS, ids=[
    "run-increment", "run-abort", "run-hello", "run-hello-world", "check-comodel", "check-model",
    "check-handler", "normalize",
])
def test_repl_prints_the_cli_result_line(capsys, monkeypatch, argv, lines):
    _, expected, _ = invoke(capsys, *argv)
    assert len(expected.splitlines()) == 1
    assert repl(capsys, monkeypatch, *lines).endswith(expected)


def test_repl_runs_from_a_world_written_with_spaces(capsys, monkeypatch, tmp_path):
    cells = [(a, b) for a in (0, 1) for b in (0, 1)]
    entries = [f"get((); ({a}, {b})) = ({a}; ({a}, {b}));" for a, b in cells]
    entries += [f"put({p}; ({a}, {b})) = ((); ({p}, {a}));" for p in (0, 1) for a, b in cells]
    comodel = tmp_path / "pairs.cmod"
    comodel.write_text("comodel pairs { world fin 2 * fin 2;\n%s\n}\n" % "\n".join(entries))
    prog = "do x <- get!() in do u <- put!(x + 1) in return x"
    code, expected, err = invoke(capsys, "run", prog, "--theory", SAMPLES / "state2.thy",
                                 "--comodel", comodel, "--world", "(1, 0)")
    assert (code, expected, err) == (0, "1 @ (0, 1)\n", "")
    out = repl(capsys, monkeypatch, f":load {SAMPLES / 'state2.thy'}",
               f":run {comodel} (1, 0) {prog}", f":run {comodel} (1,  0)  {prog}")
    assert out.endswith(expected * 2)


@pytest.mark.parametrize(
    "theory, sample, expected",
    [
        (None, "state10.thy", "loaded theory single_state\n"),
        ("semilattice.thy", "badlattice.mod",
         "Violated: equation comm, param (), valuation [x=false, y=true]\n"),
        ("choice.thy", "altstream.cmod", "loaded comodel altstream\n"),
    ],
    ids=["theory", "model", "comodel"],
)
def test_repl_loads_files_that_start_with_a_comment(capsys, monkeypatch, theory, sample, expected):
    assert (SAMPLES / sample).read_text().startswith("#")
    lines = [f":load {SAMPLES / theory}"] if theory else []
    out = repl(capsys, monkeypatch, *lines, f":load {SAMPLES / sample}")
    assert expected in out
    assert "error" not in out and "unrecognized" not in out


@pytest.mark.parametrize(
    "content",
    ["", "# nothing but a comment\n", '"theory" single_state { }\n', "42\n"],
    ids=["empty", "comment-only", "string-literal", "integer"],
)
def test_repl_does_not_recognize_a_file_without_a_kind_word(capsys, monkeypatch, tmp_path,
                                                           content):
    path = tmp_path / "f.thy"
    path.write_text(content)
    assert repl(capsys, monkeypatch, f":load {path}").endswith(
        f"unrecognized file kind in {path}\n"
    )


@pytest.mark.parametrize(
    "content, error",
    [
        (b"theory $ {}\n", "syntax error at 1:8: unexpected character '$'"),
        (b"# a comment\nmodel m {\n  carrier bool;\n  \"open\n}\n",
         "syntax error at 4:3: unterminated string"),
        (b"theory \xff {}\n", None),
        (None, None),
    ],
    ids=["unexpected-character", "unterminated-string", "not-utf8", "missing"],
)
def test_repl_load_reports_a_file_it_cannot_read_as_the_cli_does(capsys, monkeypatch, tmp_path,
                                                                 content, error):
    path = tmp_path / "f.thy"
    if content is not None:
        path.write_bytes(content)
    code, out, err = invoke(capsys, "type", "return 1", "--theory", path)
    assert (code, out) == (3, "")
    if error is not None:
        assert err == f"error: {path}: {error}\n"
    else:
        assert err.startswith(f"error: cannot read {path}: ")
    assert repl(capsys, monkeypatch, f":load {path}").endswith(err)


def test_duplicate_operation_in_a_theory_file_exits_3(capsys, monkeypatch, tmp_path):
    theory = tmp_path / "d.thy"
    theory.write_text("theory d { op a : unit ~> bool; op a : unit ~> bool; }\n")
    code, _, err = invoke(capsys, "type", "return 1", "--theory", theory)
    assert code == 3
    assert err == f"error: {theory}: syntax error at 1:36: duplicate operation 'a'\n"
    assert repl(capsys, monkeypatch, f":load {theory}").endswith(err)


@pytest.mark.parametrize(
    "entry, reason",
    [
        ("join((); true) = true;", "join needs 2 arguments, got 1"),
        ("bot(7; ) = false;", "parameter 7 is not in"),
        ("join((); true, false, true) = true;", "join needs 2 arguments, got 3"),
        ("join((); 0, false) = true;", "argument 0 is not in"),
    ],
    ids=["too-few-args", "bad-param", "too-many-args", "arg-outside-carrier"],
)
def test_model_file_entries_outside_their_universes_exit_3(capsys, monkeypatch, tmp_path,
                                                           entry, reason):
    text = (SAMPLES / "orlattice.mod").read_text()
    model = tmp_path / "extra.mod"
    model.write_text(text.replace("}", f"  {entry}\n}}"))
    code, out, err = invoke(
        capsys, "check", "model", model, "--theory", SAMPLES / "semilattice.thy"
    )
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {model}: syntax error at 8:3: {reason}")
    session = repl(capsys, monkeypatch, f":load {SAMPLES / 'semilattice.thy'}", f":load {model}")
    assert session.endswith(err)


def test_model_file_result_outside_the_carrier_exits_3(capsys, tmp_path):
    text = (SAMPLES / "orlattice.mod").read_text()
    model = tmp_path / "outside.mod"
    model.write_text(text.replace("join((); true, true) = true;", "join((); true, true) = 3;"))
    code, _, err = invoke(capsys, "check", "model", model, "--theory", SAMPLES / "semilattice.thy")
    assert code == 3
    assert err == f"error: {model}: syntax error at 7:3: result 3 is not in Bool()\n"


@pytest.mark.parametrize("role", ["theory", "model", "comodel", "program"])
def test_non_utf8_input_file_exits_3(capsys, tmp_path, role):
    bad = tmp_path / "bad"
    bad.write_bytes(b"theory \xff {}\n")
    files = {"theory": SAMPLES / "state10.thy", "model": SAMPLES / "orlattice.mod",
             "comodel": SAMPLES / "state10.cmod", "program": SAMPLES / "increment.eff"}
    files[role] = bad
    if role == "model":
        argv = ["check", "model", files["model"], "--theory", SAMPLES / "semilattice.thy"]
    else:
        argv = ["run", files["program"], "--theory", files["theory"],
                "--comodel", files["comodel"], "--world", "5"]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


def test_a_digit_that_int_cannot_read_is_a_syntax_error(capsys):
    code, out, err = invoke(capsys, "type", "return ²", "--theory", SAMPLES / "state2.thy")
    assert (code, out) == (3, "")
    assert err == "error: syntax error at 1:8: unexpected character '²'\n"


def test_duplicate_equation_in_a_theory_file_exits_3(capsys, monkeypatch, tmp_path):
    theory = tmp_path / "d.thy"
    theory.write_text(
        "theory d {\n"
        "  op a : unit ~> bool;\n"
        "  equation x (unit) : return () = return ();\n"
        "  equation x (unit) : a((); return (), return ()) = return ();\n"
        "}\n"
    )
    code, _, err = invoke(capsys, "type", "return 1", "--theory", theory)
    assert code == 3
    assert err == f"error: {theory}: syntax error at 4:12: duplicate equation 'x'\n"
    assert repl(capsys, monkeypatch, f":load {theory}").endswith(err)


def test_handler_syntax_errors_name_the_file(capsys, monkeypatch, tmp_path):
    code, _, err = invoke(
        capsys, "check", "handler", SAMPLES / "increment.eff", "--theory", SAMPLES / "state10.thy"
    )
    assert code == 3
    assert err == (
        f"error: {SAMPLES / 'increment.eff'}: syntax error at 2:1: expected a value, found 'do'\n"
    )
    handler = tmp_path / "h.eff"
    handler.write_text("handler { return x -> }\n")
    code, _, err = invoke(capsys, "check", "handler", handler, "--theory", SAMPLES / "state2.thy")
    assert code == 3
    assert err == f"error: {handler}: syntax error at 1:23: expected a computation, found '}}'\n"
    session = repl(capsys, monkeypatch, f":load {SAMPLES / 'state2.thy'}", f":load {handler}")
    assert session.endswith(err)


def test_loading_a_theory_forgets_the_comodels_read_against_the_last_one(capsys, monkeypatch):
    session = repl(
        capsys, monkeypatch,
        f":load {SAMPLES / 'state2.thy'}",
        f":load {SAMPLES / 'state2.cmod'}",
        f":load {SAMPLES / 'state10.thy'}",
        ":run state2 1 do x <- get!() in put!(x + 5)",
    )
    assert session.endswith("Valid\nloaded theory single_state\nno comodel 'state2' loaded\n")


def test_comodel_validation_errors_name_the_file(capsys, monkeypatch, tmp_path):
    comodel = tmp_path / "e.cmod"
    comodel.write_text("comodel e {\n  world fin 2;\n}\n")
    code, _, err = invoke(capsys, "check", "comodel", comodel, "--theory", SAMPLES / "state2.thy")
    assert code == 3
    assert err == (
        f"error: {comodel}: equation 'get_get' mentions uncovered operations ['get']\n"
    )
    session = repl(capsys, monkeypatch, f":load {SAMPLES / 'state2.thy'}", f":load {comodel}")
    assert session.endswith("loaded comodel e\n" + err)


# -- one argument parser per process -----------------------------------------


def _main_outcome(capsys, argv):
    """Exit code (or SystemExit code), stdout and stderr of one main call."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


_COMMANDS = [
    ["run"],  # a usage error
    ["--help"],
    ["run", SAMPLES / "increment.eff", "--theory", SAMPLES / "state10.thy",
     "--comodel", SAMPLES / "state10.cmod", "--world", "5"],
    ["frobnicate", "x"],  # a usage error
    ["check", "model", SAMPLES / "orlattice.mod", "--theory", SAMPLES / "semilattice.thy"],
    ["check", "comodel", SAMPLES / "altstream.cmod", "--theory", SAMPLES / "choice.thy"],
    ["run", "--help"],
    ["check", "handler", SAMPLES / "stateh.eff", "--theory", SAMPLES / "state2.thy"],
    ["normalize", "do x <- get!() in return x", "--theory", SAMPLES / "state2.thy"],
    ["check", "model", SAMPLES / "orlattice.mod"],  # a usage error
    ["type", SAMPLES / "hello.eff", "--theory", SAMPLES / "io_hello.thy"],
    ["repl", "--theory", SAMPLES / "state2.thy"],
    ["run", SAMPLES / "abort.eff", "--theory", SAMPLES / "state10.thy",
     "--comodel", SAMPLES / "state10.cmod", "--world", "bad"],
]


def test_the_kept_argument_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    import algeff.cli as cli

    session = itertools.cycle([":type get!()", "return 1", None])  # None ends a session

    def read(prompt=""):
        line = next(session)
        if line is None:
            raise EOFError
        return line

    monkeypatch.setattr("builtins.input", read)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_argument_parser", cli.build_parser)  # a fresh parser per call
        fresh = [_main_outcome(capsys, argv) for argv in _COMMANDS]
    assert [code for code, _, _ in fresh] == [
        ("SystemExit", 2), ("SystemExit", 0), 0, ("SystemExit", 2), 0, 1, ("SystemExit", 0),
        0, 0, ("SystemExit", 2), 0, 0, 3,
    ]
    kept = [_main_outcome(capsys, argv) for argv in _COMMANDS + _COMMANDS[::-1]]
    assert kept == fresh + fresh[::-1]


def test_importing_the_cli_builds_no_argument_parser():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import argparse\n"
        "built, init = [], argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import algeff.cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        f"    algeff.cli.main(['type', 'return 1', '--theory', {str(SAMPLES / 'io_hello.thy')!r}])\n"
        "    counts.append(len(built))\n"
        "print(counts)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    # the program and its five subcommands, built for the first command only
    assert (done.returncode, done.stdout, done.stderr) == (0, "int ! {}\nint ! {}\n[0, 6, 6]\n", "")


# -- integer literals int() cannot read ---------------------------------------

_LONG = "9" * 5000


@pytest.mark.parametrize("kind, text, where", [
    ("program", f"do x <- get!() in\n  return {_LONG}\n", "2:10"),
    ("theory", f"theory t {{\n  op put : fin {_LONG} ~> unit;\n}}\n", "2:16"),
    ("model", f"model m {{\n  carrier fin 2;\n  join((); 0, {_LONG}) = 0;\n}}\n", "3:15"),
    ("comodel", f"comodel c {{\n  world fin 2;\n  get((); {_LONG}) = (0; 0);\n}}\n", "3:11"),
])
def test_a_very_long_integer_literal_exits_3(kind, text, where, capsys, tmp_path):
    path = tmp_path / f"long.{kind}"
    path.write_text(text)
    argv = {
        "program": ["type", path, "--theory", SAMPLES / "state2.thy"],
        "theory": ["type", "return 1", "--theory", path],
        "model": ["check", "model", path, "--theory", SAMPLES / "semilattice.thy"],
        "comodel": ["check", "comodel", path, "--theory", SAMPLES / "state2.thy"],
    }[kind]
    prefix = "" if kind == "program" else f"{path}: "
    assert invoke(capsys, *argv) == (
        3, "", f"error: {prefix}syntax error at {where}: integer literal too long (5000 digits)\n"
    )


# -- computed integers str() cannot print -------------------------------------

_NINES = "9" * 4300  # the most digits a literal may have
_TOO_LONG = "error: integer too long to print (4301 digits)\n"


@pytest.mark.parametrize("argv", [
    ["normalize", f"return {_NINES} + {_NINES}", "--theory", SAMPLES / "state2.thy"],
    ["run", f"return {_NINES} + {_NINES}", "--theory", SAMPLES / "state2.thy",
     "--comodel", SAMPLES / "state2.cmod", "--world", "0"],
])
def test_an_integer_too_long_to_print_exits_1(argv, capsys):
    assert invoke(capsys, *argv) == (1, "", _TOO_LONG)


def test_the_repl_reports_an_integer_too_long_to_print(capsys, monkeypatch):
    session = repl(
        capsys, monkeypatch,
        f":load {SAMPLES / 'state2.thy'}", f":normalize return {_NINES} + {_NINES}", "return 1",
    )
    assert session.endswith(f"loaded theory single_state\n{_TOO_LONG}return 1\n")


_HELLO_WORLDS = ("Enum(labels=('[]', '[\"Hello world!\"]', "
                 "'[\"Hello world!\", \"Hello world!\"]'))")


@pytest.mark.parametrize("world, code, out, err", [
    ("[]", 0, '() @ ["Hello world!"]\n', ""),  # no element: the text is the label
    ('"[\\"Hello world!\\"]"', 0, '() @ ["Hello world!", "Hello world!"]\n', ""),
    ("5", 3, "", f"error: world '5' is not an element of {_HELLO_WORLDS}\n"),
    ("(1,", 3, "", f"error: world '(1,' is not an element of {_HELLO_WORLDS}\n"),
])
def test_world_texts_read_as_elements_or_labels(capsys, monkeypatch, world, code, out, err):
    import algeff.parser

    positioned = []
    monkeypatch.setattr(algeff.parser, "tokenize", lambda text: positioned.append(text))
    got = invoke(capsys, "run", SAMPLES / "hello.eff", "--theory", SAMPLES / "io_hello.thy",
                 "--comodel", SAMPLES / "hello.cmod", "--world", world)
    assert got == (code, out, err)
    assert positioned == []  # a text that reads no element is no error to locate


def test_a_world_text_read_as_an_element_wins_over_the_text():
    from algeff.cli import _parse_world
    from algeff.universe import Enum, Fin

    assert _parse_world("5", Fin(10)) == 5
    assert _parse_world('"a"', Enum(("a", '"a"'))) == "a"
    assert _parse_world('"a"', Enum(('"a"',))) == '"a"'


def test_normalize_prints_non_ascii_strings_as_themselves(capsys, tmp_path):
    theory = tmp_path / "say.thy"
    theory.write_text('theory t { op say : enum {"café"} ~> unit; }\n', encoding="utf-8")
    code, out, _ = invoke(
        capsys, "normalize", 'do x <- say!("café") in return "café"', "--theory", theory
    )
    assert out == 'say("café"; return "café")\n'
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("type", ""),
    ("run", "", "--comodel", SAMPLES / "state2.cmod", "--world", "0"),
])
def test_an_empty_inline_program_is_program_text(argv, capsys):
    code, out, err = invoke(capsys, *argv, "--theory", SAMPLES / "state2.thy")
    assert out == ""
    assert err == "error: syntax error at 1:1: expected a computation, found 'end of input'\n"
    assert code == 3


def test_check_a_handler_whose_put_clause_forgets_the_state(capsys, tmp_path):
    handler = tmp_path / "forget.eff"
    handler.write_text((SAMPLES / "stateh.eff").read_text().replace("in f s2)", "in f s)"))
    code, out, _ = invoke(capsys, "check", "handler", handler, "--theory", SAMPLES / "state2.thy")
    assert out == "Violated: equation put_get, param 0\n"
    assert code == 1


GET_ONLY_HANDLER = "handler { return x -> return x | get(u; k) -> k 0 }"


def test_check_a_handler_of_get_alone_skips_the_equations_with_put(capsys, tmp_path):
    handler = tmp_path / "get.eff"
    handler.write_text(GET_ONLY_HANDLER + "\n")
    code, out, _ = invoke(capsys, "check", "handler", handler, "--theory", SAMPLES / "state2.thy")
    assert out == (
        "skipped (uncovered operations): get_put, put_get, put_put\n"
        "Respected (bounded)\n"
    )
    assert code == 0


@pytest.mark.parametrize("text, where", [
    ("op a : fin 0 ~> unit;", "1:23: fin needs a positive size"),
    ('op a : enum {"x", "x"} ~> unit;', "1:19: enum labels must be distinct"),
    ("op a : unit ~> unit; equation e (unit) : b((); \\u. return u) = return ();",
     "1:53: unknown operation 'b'"),
    ("op a : unit ~> fin 2; equation e (unit) : a((); return ()) = return ();",
     "1:54: a needs 2 subtrees, got 1"),
    ("op a : unit ~> unit; equation e forall p in empty (unit) : a((); \\u. return u) = return ();",
     "1:71: forall over an empty universe"),
])
def test_theory_file_errors_exit_3_with_their_positions(text, where, capsys, tmp_path):
    theory = tmp_path / "t.thy"
    theory.write_text("theory t { " + text + " }\n")
    code, _, err = invoke(capsys, "type", "return ()", "--theory", theory)
    assert err == f"error: {theory}: syntax error at {where}\n"
    assert code == 3


def test_normalize_prints_a_node_without_subtrees(capsys, tmp_path):
    theory = tmp_path / "exc.thy"
    theory.write_text("theory exc { op abort : unit ~> empty; }\n")
    code, out, _ = invoke(capsys, "normalize", "abort!(())", "--theory", theory)
    assert out == "abort(())\n"
    assert code == 0


def test_type_a_handler_bound_by_do(capsys):
    program = f"do h <- return {GET_ONLY_HANDLER} in with h handle "
    code, out, _ = invoke(capsys, "type", program + "get!()", "--theory", SAMPLES / "state2.thy")
    assert out == "int ! {}\n"
    assert code == 0
    code, _, err = invoke(capsys, "type", program + "put!(1)", "--theory", SAMPLES / "state2.thy")
    assert err == (
        "error: type error at 1:85: expected unit ! {get}, found unit ! {put} (unhandled: put)\n"
    )
    assert code == 1
