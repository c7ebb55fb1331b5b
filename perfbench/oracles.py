"""Independent oracles for the benchmark.

Nothing here imports algeff.  Each oracle recomputes what a correct
algeff must print, or how a reported witness must behave, from first
principles: a direct simulator of the generated programs, table arithmetic
for models and comodels, a state-passing reading of handlers, and
leaf-set, run-from-every-store and run-from-every-state semantics for
trees.

Trees use one plain shape throughout: ``("r", leaf)`` for a return leaf and
``("o", op, param, kids)`` for an operation node, with ``kids`` in the
order of the operation's arity enumeration (false before true, 0 before 1).
"""

from __future__ import annotations

import itertools
import json
import re

# ---------------------------------------------------------------------------
# Rendering and parsing of elements, in the documented output syntax


def render_elem(v) -> str:
    if type(v) is tuple and not v:
        return "()"
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is int:
        return str(v)
    if type(v) is str:
        return json.dumps(v)
    if type(v) is tuple and len(v) == 2:
        return f"({render_elem(v[0])}, {render_elem(v[1])})"
    raise ValueError(f"no rendering for {v!r}")


def parse_elem(text: str):
    """Read back an element printed by render_elem."""
    value, rest = _elem(text.strip())
    if rest.strip():
        raise ValueError(f"trailing text after element: {text!r}")
    return value


def _elem(s: str):
    s = s.lstrip()
    if s.startswith("()"):
        return (), s[2:]
    if s.startswith("("):
        first, rest = _elem(s[1:])
        rest = rest.lstrip()
        if not rest.startswith(","):
            raise ValueError(f"expected a pair: {s!r}")
        second, rest = _elem(rest[1:])
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise ValueError(f"unclosed pair: {s!r}")
        return (first, second), rest[1:]
    if s.startswith("true"):
        return True, s[4:]
    if s.startswith("false"):
        return False, s[5:]
    if s.startswith('"'):
        decoder = json.JSONDecoder()
        value, end = decoder.raw_decode(s)
        return value, s[end:]
    m = re.match(r"-?\d+", s)
    if m:
        return int(m.group()), s[m.end():]
    raise ValueError(f"not an element: {s!r}")


def split_top(text: str, sep: str = ", ") -> list:
    """Split at separators outside parentheses and strings."""
    parts, depth, start, i, quoted = [], 0, 0, 0, False
    while i < len(text):
        ch = text[i]
        if quoted:
            if ch == "\\":
                i += 1
            elif ch == '"':
                quoted = False
        elif ch == '"':
            quoted = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            start = i + len(sep)
            i = start
            continue
        i += 1
    parts.append(text[start:])
    return parts


def transcript_label(items) -> str:
    """The world label of an output transcript, as the io comodel files name it."""
    return json.dumps(list(items))


# ---------------------------------------------------------------------------
# Programs: a straight-line subset of the surface language
#
# A program is a list of statements ("get", var), ("put", expr) and
# ("print", label), ended by ("return", expr) or ("abort",).  Expressions
# are ("int", n), ("var", x), ("plus", x, n), ("pair", e1, e2) and ("unit",).


def render_expr(e) -> str:
    kind = e[0]
    if kind == "int":
        return str(e[1])
    if kind == "var":
        return e[1]
    if kind == "plus":
        return f"{e[1]} + {e[2]}"
    if kind == "pair":
        return f"({render_expr(e[1])}, {render_expr(e[2])})"
    if kind == "unit":
        return "()"
    raise ValueError(f"unknown expression {e!r}")


def render_program(stmts, final) -> str:
    out = []
    for st in stmts:
        if st[0] == "get":
            out.append(f"do {st[1]} <- get!() in ")
        elif st[0] == "put":
            out.append(f"do u <- put!({render_expr(st[1])}) in ")
        elif st[0] == "print":
            out.append(f"do u <- print!({json.dumps(st[1])}) in ")
        else:
            raise ValueError(f"unknown statement {st!r}")
    if final[0] == "abort":
        out.append("abort!(())")
    else:
        out.append(f"return {render_expr(final[1])}")
    return "".join(out)


def eval_expr(e, env):
    kind = e[0]
    if kind == "int":
        return e[1]
    if kind == "var":
        return env[e[1]]
    if kind == "plus":
        return env[e[1]] + e[2]
    if kind == "pair":
        return (eval_expr(e[1], env), eval_expr(e[2], env))
    if kind == "unit":
        return ()
    raise ValueError(f"unknown expression {e!r}")


def simulate(stmts, final, world, n=None, bound=None):
    """Run a program directly.  ``world`` is the state (an int, with ``n``
    its range) or an output transcript (a tuple, with ``bound`` its
    capacity; a full transcript ignores further prints).  Operation
    parameters are reduced modulo their range; returned sums are not.

    Returns ("done", value, world) or ("stuck", op).
    """
    env = {}
    for st in stmts:
        if st[0] == "get":
            env[st[1]] = world
        elif st[0] == "put":
            world = eval_expr(st[1], env) % n
        elif st[0] == "print":
            if len(world) < bound:
                world = world + (st[1],)
    if final[0] == "abort":
        return ("stuck", "abort")
    return ("done", eval_expr(final[1], env), world)


def run_output(outcome) -> tuple:
    """The exit code and standard output ``algeff run`` must give."""
    if outcome[0] == "stuck":
        return 2, f"unhandled toplevel operation: {outcome[1]}\n"
    world = outcome[2]
    shown = transcript_label(world) if type(world) is tuple else render_elem(world)
    return 0, f"{render_elem(outcome[1])} @ {shown}\n"


def normal_form_output(stmts, final, n) -> str:
    """``algeff normalize`` on a single-state program: the get/put normal
    form, whose entries are the program's runs from every initial state."""
    entries = []
    for s in range(n):
        _, value, end = simulate(stmts, final, s, n=n)
        entries.append(f"put({end}; return {render_elem(value)})")
    return "get((); " + ", ".join(entries) + ")\n"


# ---------------------------------------------------------------------------
# Trees and the equations of the theories the benchmark uses


def ret(v):
    return ("r", v)


def node(op, param, *kids):
    return ("o", op, param, tuple(kids))


def leaves(t) -> frozenset:
    out, stack = set(), [t]
    while stack:
        t = stack.pop()
        if t[0] == "r":
            out.add(t[1])
        else:
            stack.extend(t[3])
    return frozenset(out)


def single_state_equations(n: int) -> list:
    """(name, params, sides) for the four laws of one cell over fin n, in
    the order the theory files declare them."""
    get = lambda body: node("get", (), *(body(s) for s in range(n)))
    put = lambda p, sub: node("put", p, sub)
    return [
        ("get_get", [()], lambda p: (
            get(lambda a: get(lambda b: ret((a, b)))), get(lambda a: ret((a, a))))),
        ("get_put", [()], lambda p: (get(lambda a: put(a, ret(()))), ret(()))),
        ("put_get", list(range(n)), lambda p: (
            put(p, get(lambda b: ret(b))), put(p, ret(p)))),
        ("put_put", [(a, b) for a in range(n) for b in range(n)], lambda p: (
            put(p[0], put(p[1], ret(()))), put(p[1], ret(())))),
    ]


def choice_equations() -> list:
    ch = lambda a, b: node("choose", (), a, b)
    x, y, z = ret("x"), ret("y"), ret("z")
    return [
        ("comm", [()], lambda p: (ch(x, y), ch(y, x))),
        ("idem", [()], lambda p: (ch(x, x), x)),
        ("assoc", [()], lambda p: (ch(ch(x, y), z), ch(x, ch(y, z)))),
    ]


def semilattice_equations() -> list:
    join = lambda a, b: node("join", (), a, b)
    bot = node("bot", ())
    x, y, z = ret("x"), ret("y"), ret("z")
    return [
        ("assoc", ("x", "y", "z"), (join(x, join(y, z)), join(join(x, y), z))),
        ("comm", ("x", "y"), (join(x, y), join(y, x))),
        ("idem", ("x",), (join(x, x), x)),
        ("unit", ("x",), (join(x, bot), x)),
    ]


def state_equation_instances(locs: int, vals: int) -> list:
    """Every non-trivial instance of the multi-location state laws, as
    (name, param, lhs, rhs)."""
    lookup = lambda loc, body: node("lookup", loc, *(body(v) for v in range(vals)))
    update = lambda loc, v, sub: node("update", (loc, v), sub)
    L, S = range(locs), range(vals)
    out = []
    for l in L:
        out.append(("lookup_lookup", l,
                    lookup(l, lambda a: lookup(l, lambda b: ret((a, b)))),
                    lookup(l, lambda a: ret((a, a)))))
        out.append(("lookup_update", l, lookup(l, lambda a: update(l, a, ret(()))), ret(())))
        for v in S:
            out.append(("update_lookup", (l, v),
                        update(l, v, lookup(l, lambda b: ret(b))), update(l, v, ret(v))))
            for w in S:
                out.append(("update_update", ((l, v), w),
                            update(l, v, update(l, w, ret(()))), update(l, w, ret(()))))
    for a in L:
        for b in L:
            if a < b:
                out.append(("lookup_lookup_comm", (a, b),
                            lookup(a, lambda v: lookup(b, lambda w: ret((v, w)))),
                            lookup(b, lambda w: lookup(a, lambda v: ret((v, w))))))
            for v in S:
                if a != b:
                    out.append(("update_lookup_comm", ((a, v), b),
                                update(a, v, lookup(b, lambda w: ret(w))),
                                lookup(b, lambda w: update(a, v, ret(w)))))
                for w in S:
                    if a < b:
                        out.append(("update_update_comm", ((a, v), (b, w)),
                                    update(a, v, update(b, w, ret(()))),
                                    update(b, w, update(a, v, ret(())))))
    return out


# ---------------------------------------------------------------------------
# Semantics of trees


def run_cell(t, s, n=None, put_keeps_state=False):
    """Run a get/put tree from state s: (value, final state).  With
    ``put_keeps_state`` a put leaves the state alone, which is how a
    handler whose put clause ignores the new state reads the tree."""
    while t[0] == "o":
        if t[1] == "get":
            t = t[3][s]
        elif t[1] == "put":
            if not put_keeps_state:
                s = t[2]
            t = t[3][0]
        else:
            raise ValueError(f"not a single-state operation: {t[1]!r}")
    return t[1], s


def cell_runs(t, n: int) -> tuple:
    return tuple(run_cell(t, s) for s in range(n))


def store_runs(t, locs: int, vals: int) -> tuple:
    """Runs of a lookup/update tree from every store of ``locs`` cells."""
    out = []
    for store in itertools.product(range(vals), repeat=locs):
        store, cur = list(store), t
        while cur[0] == "o":
            if cur[1] == "lookup":
                cur = cur[3][store[cur[2]]]
            else:
                loc, v = cur[2]
                store[loc] = v
                cur = cur[3][0]
        out.append((cur[1], tuple(store)))
    return tuple(out)


def corun(t, w, coop, arity_index):
    """Run a tree against a comodel given as a cooperation function
    ``coop(op, param, world) -> (result, world)``."""
    while t[0] == "o":
        result, w = coop(t[1], t[2], w)
        t = t[3][arity_index(t[1], result)]
    return t[1], w


def interpret(t, valuation, join, bot):
    """Evaluate a join/bot tree in a semilattice table."""
    if t[0] == "r":
        return valuation[t[1]]
    if t[1] == "bot":
        return bot
    return join[(interpret(t[3][0], valuation, join, bot),
                 interpret(t[3][1], valuation, join, bot))]


# ---------------------------------------------------------------------------
# Finite models: semilattice tables


def model_violations(join, bot, carrier):
    """Yield (equation, valuation) for every failing case."""
    for name, gens, (lhs, rhs) in semilattice_equations():
        for picks in itertools.product(carrier, repeat=len(gens)):
            val = dict(zip(gens, picks))
            if interpret(lhs, val, join, bot) != interpret(rhs, val, join, bot):
                yield name, val


def model_case_fails(join, bot, equation, valuation) -> bool:
    for name, gens, (lhs, rhs) in semilattice_equations():
        if name == equation:
            if set(valuation) != set(gens):
                raise ValueError(f"valuation {valuation} does not bind {gens}")
            return interpret(lhs, valuation, join, bot) != interpret(rhs, valuation, join, bot)
    raise ValueError(f"no semilattice equation {equation!r}")


# ---------------------------------------------------------------------------
# Comodels: state tables and the alternating stream


def state_coop(get_table, put_table):
    def coop(op, p, w):
        if op == "get":
            return get_table[w]
        return (), put_table[(p, w)]
    return coop


def state_index(op, result):
    return result if op == "get" else 0


def choice_index(op, result):
    return 1 if result else 0


def comodel_instances(family: str, n: int):
    if family == "state":
        for name, params, sides in single_state_equations(n):
            for p in params:
                yield name, p, sides(p)
    else:
        for name, params, sides in choice_equations():
            for p in params:
                yield name, p, sides(p)


def comodel_case_fails(family, n, coop, equation, param, world) -> bool:
    index = state_index if family == "state" else choice_index
    for name, p, (lhs, rhs) in comodel_instances(family, n):
        if name == equation and p == param:
            return corun(lhs, world, coop, index) != corun(rhs, world, coop, index)
    raise ValueError(f"no instance {equation} at {param!r}")


def comodel_is_valid(family, n, coop, worlds) -> bool:
    index = state_index if family == "state" else choice_index
    return all(
        corun(lhs, w, coop, index) == corun(rhs, w, coop, index)
        for _, _, (lhs, rhs) in comodel_instances(family, n)
        for w in worlds
    )


# ---------------------------------------------------------------------------
# Handlers: the state-passing handler reads a tree as s -> (leaf, s')


def handler_case_fails(n, put_keeps_state, equation, param) -> bool:
    for name, params, sides in single_state_equations(n):
        if name == equation:
            if param not in params:
                raise ValueError(f"{param!r} is not a parameter of {equation}")
            lhs, rhs = sides(param)
            return any(
                run_cell(lhs, s, put_keeps_state=put_keeps_state)
                != run_cell(rhs, s, put_keeps_state=put_keeps_state)
                for s in range(n)
            )
    raise ValueError(f"no single-state equation {equation!r}")


def handler_respects(n, put_keeps_state) -> bool:
    return not any(
        handler_case_fails(n, put_keeps_state, name, p)
        for name, params, _ in single_state_equations(n)
        for p in params
    )


# ---------------------------------------------------------------------------
# Checking the program's output


_MODEL_RE = re.compile(r"^Violated: equation (\S+), param (.*), valuation \[(.*)\]$")
_COMODEL_RE = re.compile(r"^Violated: equation (\S+), param (.*), world (.*)$")
_HANDLER_RE = re.compile(r"^Violated: equation (\S+), param (.*)$")


def check_cli(expect: dict, code, stdout: str) -> str | None:
    """None when the command's exit code and output are right, otherwise
    what is wrong."""
    kind = expect["type"]
    if kind == "exact":
        if code == expect["code"] and stdout == expect["stdout"]:
            return None
        return f"expected exit {expect['code']} {expect['stdout']!r}, got {code} {stdout!r}"
    if expect["valid"]:
        want = "Respected (bounded)\n" if kind == "handler" else "Valid\n"
        if code == 0 and stdout == want:
            return None
        return f"expected exit 0 {want!r}, got {code} {stdout!r}"
    line = stdout.rstrip("\n")
    if code != 1 or "\n" in line:
        return f"expected exit 1 and one Violated line, got {code} {stdout!r}"
    try:
        if kind == "model":
            m = _MODEL_RE.match(line)
            if not m or parse_elem(m.group(2)) != ():
                return f"unexpected model verdict {stdout!r}"
            valuation = {}
            for part in split_top(m.group(3)):
                key, _, value = part.partition("=")
                valuation[key] = parse_elem(value)
            join = {(a, b): r for a, b, r in expect["join"]}
            fails = model_case_fails(join, expect["bot"], m.group(1), valuation)
        elif kind == "comodel":
            m = _COMODEL_RE.match(line)
            if not m:
                return f"unexpected comodel verdict {stdout!r}"
            family, n = expect["family"], expect["n"]
            if family == "state":
                coop = state_coop(
                    {w: tuple(r) for w, r in expect["get"]},
                    {(p, w): r for p, w, r in expect["put"]},
                )
            else:
                table = {w: (bool(b), w2) for w, b, w2 in expect["choose"]}
                coop = lambda op, p, w: table[w]
            fails = comodel_case_fails(
                family, n, coop, m.group(1), parse_elem(m.group(2)), parse_elem(m.group(3))
            )
        else:
            m = _HANDLER_RE.match(line)
            if not m:
                return f"unexpected handler verdict {stdout!r}"
            fails = handler_case_fails(
                expect["n"], expect["put_keeps_state"], m.group(1), parse_elem(m.group(2))
            )
    except (ValueError, KeyError) as exc:
        return f"cannot re-evaluate the witness in {stdout!r}: {exc}"
    return None if fails else f"reported witness holds: {stdout!r}"


def check_search(expect: dict, verdict: str) -> str | None:
    """EQUAL and DISTINCT must agree with the semantic truth; pairs the
    program decides exactly (normalizer theories, single equation
    instances) must not come back UNKNOWN."""
    truth = expect["equal"]
    if verdict == "equal" and not truth:
        return "EQUAL on a pair the oracle separates"
    if verdict == "distinct" and truth:
        return "DISTINCT on a pair the oracle identifies"
    if verdict == "unknown" and expect["decided"]:
        return "UNKNOWN on a pair that must be decided"
    if verdict not in ("equal", "distinct", "unknown"):
        return f"unknown verdict {verdict!r}"
    return None
