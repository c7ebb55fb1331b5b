"""Canonical rendering: universe elements, trees, outcomes, and programs.

Tree continuations print positionally in arity-enumeration order, so equal
trees render identically and rendered trees reparse in equation files.
"""

from __future__ import annotations

from . import lang
from .comodels import Done, RunOutcome, Stuck
from .errors import UnprintableValue
from .interp import Closure, HandlerClosure, KontValue, PrimFun, SymVal
from .terms import Return, Tree

# the only escapes; the tokenizer reads every other character as itself
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"})


def _quoted(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def render_elem(v) -> str:
    if v == () and isinstance(v, tuple):
        return "()"
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is int:
        try:
            return str(v)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise UnprintableValue(f"integer too long to print ({_digits(v)} digits)") from None
    if isinstance(v, str):
        return _quoted(v)
    if type(v) is tuple and len(v) == 2:
        return f"({render_elem(v[0])}, {render_elem(v[1])})"
    if isinstance(v, Closure):
        return f"<fun {v.param}>"
    if isinstance(v, HandlerClosure):
        return "<handler>"
    if isinstance(v, PrimFun):
        return f"<{v.name}>"
    if isinstance(v, KontValue):
        return "<continuation>"
    if isinstance(v, SymVal):
        return f"<sym {v.base!r}>"
    return repr(v)


def _digits(n: int) -> int:
    """The number of decimal digits of ``n``, counted without ``str()``."""
    n = abs(n)
    digits = max(1, int((n.bit_length() - 1) * 0.30102999566398120))  # log10(2)
    while n >= 10**digits:
        digits += 1
    return digits


def render_world(w) -> str:
    # enum worlds are their labels already; print them raw
    return w if isinstance(w, str) else render_elem(w)


def render_outcome(out: RunOutcome) -> str:
    if isinstance(out, Done):
        return f"{render_elem(out.value)} @ {render_world(out.world)}"
    assert isinstance(out, Stuck)
    return f"unhandled toplevel operation: {out.op}"


def render_tree(t: Tree) -> str:
    # an explicit stack of trees and closing text, so deep trees print too
    parts = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Return):
            parts.append(f"return {render_elem(item.value)}")
        elif not item.kont:
            parts.append(f"{item.op}({render_elem(item.param)})")
        else:
            parts.append(f"{item.op}({render_elem(item.param)}; ")
            stack.append(")")
            for i in range(len(item.kont) - 1, 0, -1):
                stack.append(item.kont[i])
                stack.append(", ")
            stack.append(item.kont[0])
    return "".join(parts)


def _value_needs_parens(v) -> bool:
    return isinstance(v, (lang.Fun, lang.Plus))


def render_value(v) -> str:
    if isinstance(v, lang.Var):
        return v.name
    if isinstance(v, lang.BoolLit):
        return "true" if v.value else "false"
    if isinstance(v, lang.UnitLit):
        return "()"
    if isinstance(v, lang.IntLit):
        return str(v.value)
    if isinstance(v, lang.StrLit):
        return _quoted(v.value)
    if isinstance(v, lang.Pair):
        return f"({render_value(v.first)}, {render_value(v.second)})"
    if isinstance(v, lang.Plus):
        return f"{render_value(v.left)} + {render_value(v.right)}"
    if isinstance(v, lang.Fun):
        return f"fun {v.param} -> {render_comp(v.body)}"
    if isinstance(v, lang.HandlerLit):
        clauses = [f"return {v.ret_name} -> {render_comp(v.ret_body)}"]
        clauses += [
            f"{cl.op}({cl.param_name}; {cl.kont_name}) -> {render_comp(cl.body)}"
            for cl in v.clauses
        ]
        return "handler { " + " | ".join(clauses) + " }"
    raise TypeError(f"not a value expression: {v!r}")


def _render_app_operand(v) -> str:
    text = render_value(v)
    return f"({text})" if _value_needs_parens(v) else text


def render_comp(c) -> str:
    if isinstance(c, lang.Return):
        return f"return {render_value(c.value)}"
    if isinstance(c, lang.OpCall):
        arg = "" if isinstance(c.arg, lang.UnitLit) else render_value(c.arg)
        return f"{c.op}!({arg})"
    if isinstance(c, lang.Do):
        return f"do {c.name} <- {render_comp(c.first)} in {render_comp(c.rest)}"
    if isinstance(c, lang.If):
        return f"if {render_value(c.cond)} then {render_comp(c.then)} else {render_comp(c.orelse)}"
    if isinstance(c, lang.App):
        return f"{_render_app_operand(c.fn)} {_render_app_operand(c.arg)}"
    if isinstance(c, lang.WithHandle):
        return f"with {_render_app_operand(c.handler)} handle {render_comp(c.comp)}"
    raise TypeError(f"not a computation expression: {c!r}")
