"""Command-line front end.

    algeff run <prog> --theory <t> --comodel <c> --world <w>
    algeff check (model|comodel|handler) <file> --theory <t>
    algeff normalize <prog> --theory <t>
    algeff type <prog> --theory <t>
    algeff repl [--theory <t>]

Exit codes: 0 success (run reached a value / check passed), 1 type errors,
violations, and runtime failures, 2 a run stuck on an unhandled toplevel
operation, 3 parse and reference errors, and input nested too deeply for the
recursive parser, type checker or printer.  ALGEFF_BUDGET bounds the
congruence search (default 10000 trees expanded).
The REPL runs the commands' own steps, so it prints the same results and
error messages (on stdout, without the exit code).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from .comodels import ComodelViolation, Done, cointerpret_tree, validate_comodel
from .errors import AlgeffError
from .free import normalize
from .interp import (
    HandlerClosure,
    HandlerVerdict,
    base_env,
    check_handler_equations,
    evaluate,
    run_program,
)
from .lang import HandlerLit, THandler, typecheck_comp, typecheck_value
from .models import validate_model
from .parser import (
    element_or,
    parse_comodel_file,
    parse_model_file,
    parse_program,
    parse_theory_file,
    parse_value_text,
    _scan,
)
from .printer import render_elem, render_outcome, render_tree

OK, FAILED, STUCK, BAD_INPUT = 0, 1, 2, 3


# the parser, the type checker and the printers recurse once per nesting
# level; evaluation does not
_TOO_DEEP = "input nested too deeply for the recursive parser, type checker or printer"

_REPL_HELP = (
    ":load <file>        load a theory or comodel; check a model or handler\n"
    ":type <comp>        show a computation's type\n"
    ":normalize <comp>   evaluate and print the normal form\n"
    ":run <comodel> <world> [comp]   run against a loaded comodel\n"
    ":q                  quit"
)


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@contextmanager
def _failing(code, prefix=""):
    """Report a package error raised in the block as a _CliError with exit
    code ``code``, its message prefixed by ``prefix``."""
    try:
        yield
    except AlgeffError as exc:
        raise _CliError(f"{prefix}{exc}", code) from None


def _reporting(step, stream) -> int:
    """Run ``step`` and return its exit code.  A failure is printed to
    ``stream`` as one ``error:`` line; a package error that no step has
    classified is a failure (exit 1)."""
    try:
        with _failing(FAILED):
            return step()
    except _CliError as exc:
        print(f"error: {exc}", file=stream)
        return exc.code
    except RecursionError:
        print(f"error: {_TOO_DEEP}", file=stream)
        return BAD_INPUT


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, ValueError) as exc:  # a decoding error, or a NUL in the path
        raise _CliError(f"cannot read {path}: {exc}", BAD_INPUT) from None


def _parsed(path: str, text: str, parse, *theory):
    """Parse ``text``, read from ``path``, with ``parse``; errors name the
    file."""
    with _failing(BAD_INPUT, f"{path}: "):
        return parse(text, *theory)


def _load(path: str, parse, *theory):
    """Parse the file at ``path`` with ``parse``; errors name the file."""
    return _parsed(path, _read(path), parse, *theory)


def _is_path(path_or_text: str) -> bool:
    # False for "", for a name too long to be a file's and for one with a NUL
    return os.path.exists(path_or_text)


def _typed(theory, text):
    """Parse and type-check a computation; return it with its type."""
    with _failing(BAD_INPUT):
        program = parse_program(text)
    return program, typecheck_comp(theory, program)


def _parse_world(text: str, world):
    """The world ``text`` names: the element it reads, else the text itself
    (an enum label such as ``[]``); the element wins when the world holds
    both."""
    value = element_or(text, text)
    if not world.contains(value) and world.contains(text):
        value = text
    if not world.contains(value):
        raise _CliError(f"world {text!r} is not an element of {world}", BAD_INPUT)
    return value


def _split_world(text: str, world):
    """A ``:run`` line's world text and the computation after it: the
    longest whitespace-separated prefix of ``text`` that names an element
    of ``world``, else the first word."""
    ends = [m.end() for m in re.finditer(r"\S+", text)]
    for end in reversed(ends):
        try:
            _parse_world(text[:end], world)
        except _CliError:
            continue
        return text[:end], text[end:].strip()
    return text[:ends[0]], text[ends[0]:].strip()


def _run(theory, program, comodel, world_text: str) -> int:
    world = _parse_world(world_text, comodel.world)
    with _failing(FAILED, "runtime error: "):
        # only the path the comodel takes is evaluated
        outcome = cointerpret_tree(world, evaluate(program, base_env(), theory), comodel)
    print(render_outcome(outcome))
    return OK if isinstance(outcome, Done) else STUCK


def _normalize(theory, program) -> int:
    # the normalizer resumes only the branches its free model's value reads
    print(render_tree(normalize(theory, evaluate(program, base_env(), theory))))
    return OK


def _verdict(violation) -> int:
    """Print a model's or a comodel's verdict and return its exit code."""
    if violation is None:
        print("Valid")
        return OK
    if isinstance(violation, ComodelViolation):
        witness = f"world {render_elem(violation.world)}"
    else:
        witness = "valuation [" + ", ".join(
            f"{k if isinstance(k, str) else render_elem(k)}={render_elem(v)}"
            for k, v in violation.valuation.items()
        ) + "]"
    print(
        f"Violated: equation {violation.equation}, param {render_elem(violation.param)}, {witness}"
    )
    return FAILED


def _check_comodel(comodel, path: str) -> int:
    with _failing(BAD_INPUT, f"{path}: "):
        violation = validate_comodel(comodel)
    return _verdict(violation)


def _check_handler(theory, path: str, text: str) -> int:
    value = _parsed(path, text, parse_value_text)
    if not isinstance(value, HandlerLit):
        raise _CliError(f"{path} does not contain a handler literal", BAD_INPUT)
    htype = typecheck_value(theory, value)
    if not isinstance(htype, THandler):
        raise _CliError(f"expected a handler, found {htype}", FAILED)
    result = check_handler_equations(HandlerClosure(value, base_env()), theory, htype.out)
    if result.skipped:
        print(f"skipped (uncovered operations): {', '.join(result.skipped)}")
    if result.verdict is HandlerVerdict.RESPECTED:
        print("Respected (bounded)")
        return OK
    if result.verdict is HandlerVerdict.VIOLATED:
        print(f"Violated: equation {result.equation}, param {render_elem(result.param)}")
        return FAILED
    print("Unknown")
    return FAILED


def _check(kind: str, path: str, text: str, theory) -> int:
    """Check a model, comodel or handler file, read from ``path`` as
    ``text``, against ``theory``."""
    if kind == "model":
        return _verdict(validate_model(_parsed(path, text, parse_model_file, theory)))
    if kind == "comodel":
        return _check_comodel(_parsed(path, text, parse_comodel_file, theory), path)
    return _check_handler(theory, path, text)


def _typed_program(args):
    """The theory of ``args.theory`` and ``args.prog`` (a file or inline
    text) parsed and type-checked against it, with its type."""
    theory = _load(args.theory, parse_theory_file)
    text = _read(args.prog) if _is_path(args.prog) else args.prog
    return (theory, *_typed(theory, text))


def cmd_run(args) -> int:
    theory, program, _ = _typed_program(args)
    return _run(theory, program, _load(args.comodel, parse_comodel_file, theory), args.world)


def cmd_check(args) -> int:
    theory = _load(args.theory, parse_theory_file)
    return _check(args.kind, args.file, _read(args.file), theory)


def cmd_normalize(args) -> int:
    theory, program, _ = _typed_program(args)
    return _normalize(theory, program)


def cmd_type(args) -> int:
    print(_typed_program(args)[2])
    return OK


def cmd_repl(args) -> int:
    theory = _load(args.theory, parse_theory_file) if args.theory else None
    comodels = {}
    last = None  # the text of the last computation evaluated

    def command(line):
        nonlocal theory, last
        if line == ":help":
            print(_REPL_HELP)
        elif line.startswith(":load "):
            path = line[len(":load "):].strip()
            text = _read(path)
            # the first token's value, comments skipped; a string literal's
            # is no word
            kind = _parsed(path, text, _scan)[0]
            if kind == "theory":
                theory = _parsed(path, text, parse_theory_file)
                comodels.clear()  # each was read against the theory it replaces
                print(f"loaded theory {theory.name}")
            elif kind not in ("model", "comodel", "handler"):
                print(f"unrecognized file kind in {path}")
            elif theory is None:
                print("load a theory first")
            elif kind == "comodel":
                name = Path(path).stem
                comodel = comodels[name] = _parsed(path, text, parse_comodel_file, theory)
                print(f"loaded comodel {name}")
                _check_comodel(comodel, path)
            else:
                _check(kind, path, text, theory)
        elif theory is None:
            print("no theory loaded; use :load <theory-file>")
        elif line.startswith(":type "):
            print(_typed(theory, line[len(":type "):])[1])
        elif line.startswith(":normalize "):
            _normalize(theory, _typed(theory, line[len(":normalize "):])[0])
        elif line.startswith(":run "):
            words = line[len(":run "):].split(None, 1)
            if len(words) < 2:
                print("usage: :run <comodel> <world> [comp]")
                return
            name, rest = words
            comodel = comodels.get(name)
            if comodel is None and _is_path(name):
                comodel = _load(name, parse_comodel_file, theory)
            if comodel is None:
                print(f"no comodel {name!r} loaded")
                return
            world_text, text = _split_world(rest, comodel.world)
            text = text or last
            if text is None:
                print("no computation given or remembered")
            else:
                _run(theory, _typed(theory, text)[0], comodel, world_text)
        elif line.startswith(":"):
            print(f"unknown command {line.split()[0]!r}; :help lists commands")
        else:
            program = _typed(theory, line)[0]
            last = line
            print(render_tree(run_program(program, theory).tree))

    print("algeff repl; :q quits, :help lists commands")
    while True:
        try:
            line = input("algeff> ").strip()
        except EOFError:
            print()
            return OK
        except KeyboardInterrupt:
            print()
            continue
        if line in (":q", ":quit"):
            return OK
        if line:
            _reporting(lambda: command(line), sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algeff",
        description="run, check, normalize, and type algebraic-effect programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a program against a comodel")
    run.add_argument("prog", help="program file or inline program text")
    run.add_argument("--theory", required=True)
    run.add_argument("--comodel", required=True)
    run.add_argument("--world", required=True)
    run.set_defaults(fn=cmd_run)

    check = sub.add_parser("check", help="validate a model, comodel, or handler")
    check.add_argument("kind", choices=("model", "comodel", "handler"))
    check.add_argument("file")
    check.add_argument("--theory", required=True)
    check.set_defaults(fn=cmd_check)

    norm = sub.add_parser("normalize", help="evaluate a program to a normal form")
    norm.add_argument("prog")
    norm.add_argument("--theory", required=True)
    norm.set_defaults(fn=cmd_normalize)

    typ = sub.add_parser("type", help="print a program's computation type")
    typ.add_argument("prog")
    typ.add_argument("--theory", required=True)
    typ.set_defaults(fn=cmd_type)

    repl = sub.add_parser("repl", help="interactive loop")
    repl.add_argument("--theory")
    repl.set_defaults(fn=cmd_repl)
    return parser


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """``build_parser()``, built for the first command and kept for the rest."""
    return build_parser()


def main(argv=None) -> int:
    args = _argument_parser().parse_args(argv)
    return _reporting(lambda: args.fn(args), sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
