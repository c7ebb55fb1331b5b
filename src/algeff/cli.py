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
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .comodels import Done, cointerpret_tree, validate_comodel
from .errors import AlgeffError, ParseError, TypeMismatch, UnboundVariable, UnknownOperation
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
    parse_comodel_file,
    parse_element,
    parse_model_file,
    parse_program,
    parse_theory_file,
    parse_value_text,
)
from .printer import render_elem, render_outcome, render_tree

OK, FAILED, STUCK, BAD_INPUT = 0, 1, 2, 3


# the parser, the type checker and the printers recurse once per nesting
# level; evaluation does not
_TOO_DEEP = "input nested too deeply for the recursive parser, type checker or printer"


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", BAD_INPUT) from None


def _load_theory(path: str):
    try:
        return parse_theory_file(_read(path))
    except AlgeffError as exc:
        raise _CliError(f"{path}: {exc}", BAD_INPUT) from None


def _is_path(path_or_text: str) -> bool:
    try:
        return Path(path_or_text).exists()
    except OSError:  # e.g. inline program text too long to be a file name
        return False


def _load_program(path_or_text: str):
    text = _read(path_or_text) if _is_path(path_or_text) else path_or_text
    try:
        return parse_program(text)
    except ParseError as exc:
        raise _CliError(str(exc), BAD_INPUT) from None


def _parse_world(text: str, world):
    try:
        value = parse_element(text)
    except ParseError:
        value = text
    if not world.contains(value) and world.contains(text):
        value = text
    if not world.contains(value):
        raise _CliError(f"world {text!r} is not an element of {world}", BAD_INPUT)
    return value


def _typecheck(theory, program):
    try:
        return typecheck_comp(theory, program)
    except (TypeMismatch, UnboundVariable, UnknownOperation) as exc:
        raise _CliError(str(exc), FAILED) from None


def _render_valuation(valuation: dict) -> str:
    def key(k):
        return k if isinstance(k, str) else render_elem(k)

    return ", ".join(f"{key(k)}={render_elem(v)}" for k, v in valuation.items())


def cmd_run(args) -> int:
    theory = _load_theory(args.theory)
    program = _load_program(args.prog)
    _typecheck(theory, program)
    try:
        comodel = parse_comodel_file(_read(args.comodel), theory)
    except AlgeffError as exc:
        raise _CliError(f"{args.comodel}: {exc}", BAD_INPUT) from None
    world = _parse_world(args.world, comodel.world)
    try:
        # only the path the comodel takes is evaluated
        outcome = cointerpret_tree(world, evaluate(program, base_env(), theory), comodel)
    except AlgeffError as exc:
        raise _CliError(f"runtime error: {exc}", FAILED) from None
    print(render_outcome(outcome))
    return OK if isinstance(outcome, Done) else STUCK


def cmd_check(args) -> int:
    theory = _load_theory(args.theory)
    text = _read(args.file)
    if args.kind == "model":
        try:
            model = parse_model_file(text, theory)
        except AlgeffError as exc:
            raise _CliError(f"{args.file}: {exc}", BAD_INPUT) from None
        violation = validate_model(model)
        if violation is None:
            print("Valid")
            return OK
        print(
            f"Violated: equation {violation.equation}, param "
            f"{render_elem(violation.param)}, valuation [{_render_valuation(violation.valuation)}]"
        )
        return FAILED
    if args.kind == "comodel":
        try:
            comodel = parse_comodel_file(text, theory)
        except AlgeffError as exc:
            raise _CliError(f"{args.file}: {exc}", BAD_INPUT) from None
        try:
            violation = validate_comodel(comodel)
        except AlgeffError as exc:
            raise _CliError(str(exc), BAD_INPUT) from None
        if violation is None:
            print("Valid")
            return OK
        print(
            f"Violated: equation {violation.equation}, param "
            f"{render_elem(violation.param)}, world {render_elem(violation.world)}"
        )
        return FAILED
    # handler
    try:
        value = parse_value_text(text)
    except ParseError as exc:
        raise _CliError(str(exc), BAD_INPUT) from None
    if not isinstance(value, HandlerLit):
        raise _CliError(f"{args.file} does not contain a handler literal", BAD_INPUT)
    try:
        htype = typecheck_value(theory, value)
    except (TypeMismatch, UnboundVariable, UnknownOperation) as exc:
        raise _CliError(str(exc), FAILED) from None
    if not isinstance(htype, THandler):
        raise _CliError(f"expected a handler, found {htype}", FAILED)
    result = check_handler_equations(HandlerClosure(value, base_env()), theory, htype.out)
    if result.skipped:
        print(f"skipped (uncovered operations): {', '.join(result.skipped)}")
    if result.verdict is HandlerVerdict.RESPECTED:
        print("Respected (bounded)")
        return OK
    if result.verdict is HandlerVerdict.VIOLATED:
        print(
            f"Violated: equation {result.equation}, param {render_elem(result.param)}"
        )
        return FAILED
    print("Unknown")
    return FAILED


def cmd_normalize(args) -> int:
    theory = _load_theory(args.theory)
    program = _load_program(args.prog)
    _typecheck(theory, program)
    try:
        tree = run_program(program, theory)
        print(render_tree(normalize(theory, tree.tree)))
    except AlgeffError as exc:
        raise _CliError(str(exc), FAILED) from None
    return OK


def cmd_type(args) -> int:
    theory = _load_theory(args.theory)
    program = _load_program(args.prog)
    print(_typecheck(theory, program))
    return OK


def cmd_repl(args) -> int:
    theory = _load_theory(args.theory) if args.theory else None
    comodels = {}
    last = None
    print("algeff repl; :q quits, :help lists commands")
    while True:
        try:
            line = input("algeff> ")
        except EOFError:
            print()
            return OK
        except KeyboardInterrupt:
            print()
            continue
        line = line.strip()
        if not line:
            continue
        try:
            if line in (":q", ":quit"):
                return OK
            if line == ":help":
                print(
                    ":load <file>        load a theory, model, or comodel file\n"
                    ":type <comp>        show a computation's type\n"
                    ":normalize <comp>   evaluate and print the normal form\n"
                    ":run <comodel> <world> [comp]   run against a loaded comodel\n"
                    ":q                  quit"
                )
                continue
            if line.startswith(":load "):
                path = line[len(":load "):].strip()
                text = _read(path)
                head = text.split(None, 1)[0] if text.split() else ""
                if head == "theory":
                    theory = parse_theory_file(text)
                    print(f"loaded theory {theory.name}")
                elif head == "comodel":
                    if theory is None:
                        print("load a theory first")
                        continue
                    comodels[Path(path).stem] = parse_comodel_file(text, theory)
                    print(f"loaded comodel {Path(path).stem}")
                elif head == "model":
                    if theory is None:
                        print("load a theory first")
                        continue
                    model = parse_model_file(text, theory)
                    violation = validate_model(model)
                    print("Valid" if violation is None else f"Violated: {violation.equation}")
                else:
                    print(f"unrecognized file kind in {path}")
                continue
            if theory is None:
                print("no theory loaded; use :load <theory-file>")
                continue
            if line.startswith(":type "):
                program = parse_program(line[len(":type "):])
                print(typecheck_comp(theory, program))
                continue
            if line.startswith(":normalize "):
                program = parse_program(line[len(":normalize "):])
                typecheck_comp(theory, program)
                tree = run_program(program, theory)
                print(render_tree(normalize(theory, tree.tree)))
                continue
            if line.startswith(":run "):
                rest = line[len(":run "):].split(None, 2)
                if len(rest) < 2:
                    print("usage: :run <comodel> <world> [comp]")
                    continue
                name, world_text = rest[0], rest[1]
                comodel = comodels.get(name)
                if comodel is None and _is_path(name):
                    comodel = parse_comodel_file(_read(name), theory)
                if comodel is None:
                    print(f"no comodel {name!r} loaded")
                    continue
                program = parse_program(rest[2]) if len(rest) > 2 else last
                if program is None:
                    print("no computation given or remembered")
                    continue
                typecheck_comp(theory, program)
                world = _parse_world(world_text, comodel.world)
                head = evaluate(program, base_env(), theory)
                print(render_outcome(cointerpret_tree(world, head, comodel)))
                continue
            if line.startswith(":"):
                print(f"unknown command {line.split()[0]!r}; :help lists commands")
                continue
            program = parse_program(line)
            typecheck_comp(theory, program)
            last = program
            print(render_tree(run_program(program, theory).tree))
        except (_CliError, AlgeffError) as exc:
            print(f"error: {exc}")
        except RecursionError:
            print(f"error: {_TOO_DEEP}")
    return OK


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except RecursionError:
        print(f"error: {_TOO_DEEP}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
