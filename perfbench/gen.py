"""Seeded inputs for the three workloads.

``make_ops`` writes the theory, model, comodel and program files a
workload needs into a directory and returns one round of operations, each
with the outcome the oracles expect.  The same seed gives the same files
and the same round; the mix of operation kinds in a round does not depend
on the seed, so every round costs about the same and holds the same number
of operations.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import oracles as O

IO_LABELS = ("a", "b", "c")
IO_BOUND = 3
DEEP_PUTS = 400

# Handler text of samples/stateh.eff and the variant whose put clause keeps
# the old state, which breaks put_get.
STATE_HANDLER = (
    "handler {\n"
    "  return x -> return (fun s -> return (x, s))\n"
    "| get(u; k) -> return (fun s -> do f <- k s in f s)\n"
    "| put(s2; k) -> return (fun s -> do f <- k () in f s2)\n"
    "}\n"
)
PUT_KEEPS_STATE_HANDLER = STATE_HANDLER.replace("f s2)", "f s)")

# The README's run transcripts, with the programs of the sample files
# they name written out as straight-line statements.
README_RUNS = (
    ("increment.eff", "state10.thy", "state10.cmod", "5",
     [("get", "x"), ("put", ("plus", "x", 1))], ("return", ("var", "x")), 5, {"n": 10}),
    ("abort.eff", "state10.thy", "state10.cmod", "5", [], ("abort",), 5, {"n": 10}),
    ("hello.eff", "io_hello.thy", "hello.cmod", "[]",
     [("print", "Hello world!")], ("return", ("unit",)), (), {"bound": 2}),
)


# ---------------------------------------------------------------------------
# File texts


def state_theory_text(n: int, abort: bool) -> str:
    lines = [
        "theory single_state {",
        f"  op get : unit ~> fin {n};",
        f"  op put : fin {n} ~> unit;",
    ]
    if abort:
        lines.append("  op abort : unit ~> empty;")
    lines += [
        f"  equation get_get (fin {n} * fin {n}) : get((); \\s. get((); \\t. return (s, t))) = get((); \\s. return (s, s));",
        "  equation get_put (unit) : get((); \\s. put(s; \\u. return u)) = return ();",
        f"  equation put_get forall p in fin {n} (fin {n}) : put(p; \\u. get((); \\t. return t)) = put(p; \\u. return p);",
        f"  equation put_put forall p in fin {n} * fin {n} (unit) : put(fst p; \\u. put(snd p; \\v. return v)) = put(snd p; \\v. return v);",
        "}",
    ]
    return "\n".join(lines) + "\n"


SEMILATTICE_THEORY = """theory semilattice {
  op bot : unit ~> empty;
  op join : unit ~> bool;
  equation assoc (enum {x, y, z}) : join((); return x, join((); return y, return z)) = join((); join((); return x, return y), return z);
  equation comm (enum {x, y}) : join((); return x, return y) = join((); return y, return x);
  equation idem (enum {x}) : join((); return x, return x) = return x;
  equation unit (enum {x}) : join((); return x, bot(())) = return x;
}
"""


def cell_tables(n: int) -> tuple:
    """The get and put tables of the lawful one-cell comodel over fin n."""
    return {w: (w, w) for w in range(n)}, {(p, w): p for p in range(n) for w in range(n)}


def state_comodel_text(n: int, get_table: dict, put_table: dict) -> str:
    lines = ["comodel cell {", f"  world fin {n};"]
    lines += [f"  get((); {w}) = ({v}; {w2});" for w, (v, w2) in sorted(get_table.items())]
    lines += [f"  put({p}; {w}) = ((); {w2});" for (p, w), w2 in sorted(put_table.items())]
    return "\n".join(lines + ["}"]) + "\n"


def io_transcripts() -> list:
    """Every output transcript up to the comodel's capacity, shortest first."""
    return [t for length in range(IO_BOUND + 1) for t in itertools.product(IO_LABELS, repeat=length)]


def io_files() -> tuple:
    labels = ", ".join(f'"{l}"' for l in IO_LABELS)
    theory = f"theory io {{\n  op print : enum {{{labels}}} ~> unit;\n}}\n"
    worlds = io_transcripts()
    quoted = lambda t: '"' + O.transcript_label(t).replace('"', '\\"') + '"'
    lines = ["comodel transcript {", "  world enum {" + ", ".join(quoted(t) for t in worlds) + "};"]
    for t in worlds:
        for label in IO_LABELS:
            nxt = t + (label,) if len(t) < IO_BOUND else t
            lines.append(f'  print("{label}"; {quoted(t)}) = ((); {quoted(nxt)});')
    return theory, "\n".join(lines + ["}"]) + "\n"


def model_text(size: int, join: dict, bot: int) -> str:
    lines = ["model table {", f"  carrier fin {size};", f"  bot((); ) = {bot};"]
    lines += [f"  join((); {a}, {b}) = {r};" for (a, b), r in sorted(join.items())]
    return "\n".join(lines + ["}"]) + "\n"


# ---------------------------------------------------------------------------
# Random programs


def random_program(rng, n: int, reads: int, final_kind: str = "return"):
    """``reads`` sequential gets over fin n with a put after the first.
    Only the values are random: the shape, and with it the size of the
    effect tree, is fixed by ``reads``."""
    stmts, names = [], []
    for i in range(reads):
        names.append(f"x{i}")
        stmts.append(("get", names[-1]))
        if i == 0 and rng.random() < 0.7:
            stmts.append(("put", ("plus", names[0], rng.randrange(1, n + 3))))
        elif i == 0:
            stmts.append(("put", ("int", rng.randrange(n))))
    if final_kind == "abort":
        return stmts, ("abort",)
    return stmts, ("return", ("pair", ("var", names[0]), ("plus", rng.choice(names), rng.randrange(n))))


# ---------------------------------------------------------------------------
# Workloads


class _Files:
    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def _exact(code_out) -> dict:
    code, out = code_out
    return {"type": "exact", "code": code, "stdout": out}


def run_ops(rng, files: _Files, samples: Path) -> list:
    st10 = files.write("state10.thy", state_theory_text(10, abort=True))
    cm10 = files.write("state10.cmod", state_comodel_text(10, *cell_tables(10)))
    st2 = files.write("state2.thy", state_theory_text(2, abort=False))
    cm2 = files.write("state2.cmod", state_comodel_text(2, *cell_tables(2)))
    io_thy, io_cmod = io_files()
    iot = files.write("io.thy", io_thy)
    ioc = files.write("io.cmod", io_cmod)
    ops = []

    def run_op(label, stmts, final, thy, cmod, world, n=None, bound=None):
        path = files.write(f"{len(ops):03d}-{label}.eff", O.render_program(stmts, final))
        shown = O.transcript_label(world) if bound is not None else str(world)
        expect = _exact(O.run_output(O.simulate(stmts, final, world, n=n, bound=bound)))
        ops.append({"kind": "cli", "label": label, "expect": expect,
                    "argv": ["run", path, "--theory", thy, "--comodel", cmod, "--world", shown]})

    # The mix is fixed so that the median falls among the many small fin-10
    # commands (theory and comodel parsing dominate them) and the 90th
    # percentile among the k = 4 reads; see README.md.
    for reads in (1,) * 5 + (2,) * 5 + (3,) * 3 + (4,) * 4 + (5,):
        stmts, final = random_program(rng, 10, reads)
        run_op(f"getput-k{reads}", stmts, final, st10, cm10, rng.randrange(10), n=10)
    for steps in (2, 4, 6, 8, 10, 14):
        stmts = []
        for i in range(steps):
            stmts += [("get", f"x{i}"), ("put", ("plus", f"x{i}", 1))]
        final = ("return", ("pair", ("var", "x0"), ("var", f"x{steps - 1}")))
        run_op(f"increment-{steps}", stmts, final, st2, cm2, rng.randrange(2), n=2)
    for _ in range(4):
        stmts = [("print", rng.choice(IO_LABELS)) for _ in range(3)]
        final = ("return", ("int", rng.randrange(10)))
        world = rng.choice([t for t in io_transcripts() if len(t) <= 1])
        run_op("print", stmts, final, iot, ioc, world, bound=IO_BOUND)
    for reads in (1, 1, 2, 2, 3):
        stmts, final = random_program(rng, 10, reads)
        s0 = rng.randrange(10)
        body = O.render_program(stmts, final)
        text = f"do f <- with {STATE_HANDLER.strip()} handle ({body}) in f {s0}"
        _, value, end = O.simulate(stmts, final, s0, n=10)
        world = rng.randrange(10)
        path = files.write(f"{len(ops):03d}-stateh-k{reads}.eff", text)
        # the handled computation is pure, so the comodel's world is untouched
        expect = _exact(O.run_output(("done", (value, end), world)))
        ops.append({"kind": "cli", "label": f"stateh-k{reads}", "expect": expect,
                    "argv": ["run", path, "--theory", st10, "--comodel", cm10, "--world", str(world)]})
    for _ in range(6):
        stmts, final = random_program(rng, 10, 1, "abort")
        run_op("abort", stmts, final, st10, cm10, rng.randrange(10), n=10)
    for prog, thy, cmod, world_text, stmts, final, world, size in README_RUNS:
        expect = _exact(O.run_output(O.simulate(stmts, final, world, **size)))
        ops.append({"kind": "cli", "label": f"readme-{prog}", "expect": expect,
                    "argv": ["run", str(samples / prog), "--theory", str(samples / thy),
                             "--comodel", str(samples / cmod), "--world", world_text]})
    # Straight-line programs this deep overflow the recursive evaluator; they
    # stay in the mix, independent of the seed, and are counted as failed.
    deep = [("put", ("int", i % 10)) for i in range(DEEP_PUTS)]
    run_op(f"deep-{DEEP_PUTS}", deep, ("return", ("unit",)), st10, cm10, 5, n=10)
    return ops


def check_ops(rng, files: _Files, samples: Path) -> list:
    cell = {n: files.write(f"cell{n}.thy", state_theory_text(n, abort=False)) for n in range(2, 11)}
    semilattice = files.write("semilattice.thy", SEMILATTICE_THEORY)
    put_keeps_state = files.write("put-keeps-state.eff", PUT_KEEPS_STATE_HANDLER)
    ops = []

    def add(label, argv, expect):
        ops.append({"kind": "cli", "label": label, "argv": argv, "expect": expect})

    # Mostly one shape, so that the median lands on operations whose cost
    # does not depend on the seed; see README.md.
    for n, reads in ((2, 1), (2, 2), (2, 3), (4, 2), (4, 3)) + ((3, 2),) * 22:
        stmts, final = random_program(rng, n, reads)
        path = files.write(f"{len(ops):03d}-normalize.eff", O.render_program(stmts, final))
        add(f"normalize-fin{n}", ["normalize", path, "--theory", cell[n]],
            _exact((0, O.normal_form_output(stmts, final, n))))

    for atoms, defect in ((2, False), (3, False), (4, False), (2, True), (2, True), (3, True), (3, True)):
        size = 2 ** atoms
        subset_of = list(range(size))
        rng.shuffle(subset_of)
        label_of = {s: a for a, s in enumerate(subset_of)}
        join = {(a, b): label_of[subset_of[a] | subset_of[b]] for a in range(size) for b in range(size)}
        bot = label_of[0]
        if defect:
            key = (rng.randrange(size), rng.randrange(size))
            join[key] = rng.choice([c for c in range(size) if c != join[key]])
        valid = next(O.model_violations(join, bot, range(size)), None) is None
        path = files.write(f"{len(ops):03d}-powerset{size}.mod", model_text(size, join, bot))
        add(f"model-{size}{'-defect' if defect else ''}",
            ["check", "model", path, "--theory", semilattice],
            {"type": "model", "valid": valid, "bot": bot,
             "join": [[a, b, r] for (a, b), r in sorted(join.items())]})

    for n, defect in ((3, False), (6, False), (10, False)) + tuple((n, True) for n in (3, 4, 6, 8, 10)):
        get, put = cell_tables(n)
        if defect and rng.random() < 0.5:
            w = rng.randrange(n)
            get[w] = rng.choice([(v, w2) for v in range(n) for w2 in range(n) if (v, w2) != (w, w)])
        elif defect:
            key = (rng.randrange(n), rng.randrange(n))
            put[key] = rng.choice([q for q in range(n) if q != key[0]])
        valid = O.comodel_is_valid("state", n, O.state_coop(get, put), range(n))
        path = files.write(f"{len(ops):03d}-cell{n}.cmod", state_comodel_text(n, get, put))
        add(f"comodel-{n}{'-defect' if defect else ''}",
            ["check", "comodel", path, "--theory", cell[n]],
            {"type": "comodel", "family": "state", "n": n, "valid": valid,
             "get": [[w, list(r)] for w, r in sorted(get.items())],
             "put": [[p, w, r] for (p, w), r in sorted(put.items())]})
    # samples/altstream.cmod: choose((); 0) = (false; 1), choose((); 1) = (true; 0)
    altstream = {0: (False, 1), 1: (True, 0)}
    add("comodel-altstream",
        ["check", "comodel", str(samples / "altstream.cmod"), "--theory", str(samples / "choice.thy")],
        {"type": "comodel", "family": "choice", "n": 2,
         "valid": O.comodel_is_valid("choice", 2, lambda op, p, w: altstream[w], range(2)),
         "choose": [[w, b, w2] for w, (b, w2) in sorted(altstream.items())]})

    for n in range(2, 11):
        add(f"handler-stateh-fin{n}",
            ["check", "handler", str(samples / "stateh.eff"), "--theory", cell[n]],
            {"type": "handler", "n": n, "put_keeps_state": False,
             "valid": O.handler_respects(n, False)})
    for n in (2, 5, 10):
        add(f"handler-put-keeps-state-fin{n}",
            ["check", "handler", put_keeps_state, "--theory", cell[n]],
            {"type": "handler", "n": n, "put_keeps_state": True,
             "valid": O.handler_respects(n, True)})
    return ops


# ---------------------------------------------------------------------------
# Search pairs


def choice_corpus(count=40, depth=3, seed=77) -> list:
    """The choice corpus of the search soundness test: the same random
    calls in the same order, so the same trees."""
    rng = random.Random(seed)

    def tree(d):
        if d <= 0 or rng.random() < 0.35:
            return O.ret(rng.choice(["x", "y", "z"]))
        rng.choice(["choose"])
        p = rng.choice([()])
        return O.node("choose", p, tree(d - 1), tree(d - 1))

    return [tree(depth) for _ in range(count)]


def state_chain(rng, ops):
    """A chain of ``ops`` lookups and updates; each lookup ends one branch
    in a leaf, so the trees stay small."""
    if ops == 0:
        return O.ret(rng.randrange(2))
    if rng.random() < 0.5:
        kids = [state_chain(rng, ops - 1), O.ret(rng.randrange(2))]
        rng.shuffle(kids)
        return O.node("lookup", rng.randrange(2), *kids)
    return O.node("update", (rng.randrange(2), rng.randrange(2)), state_chain(rng, ops - 1))


def cell_tree(rng, n, depth):
    if depth <= 0 or rng.random() < 0.3:
        return O.ret(rng.randrange(3))
    if rng.random() < 0.5:
        return O.node("get", (), *(cell_tree(rng, n, depth - 1) for _ in range(n)))
    return O.node("put", rng.randrange(n), cell_tree(rng, n, depth - 1))


def cell_normal_form(t, n):
    return O.node("get", (), *(O.node("put", s2, O.ret(v)) for v, s2 in O.cell_runs(t, n)))


def join_tree(rng, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        return O.ret(rng.choice("wxyz"))
    if pick < 0.4:
        return O.node("bot", ())
    return O.node("join", (), join_tree(rng, depth - 1), join_tree(rng, depth - 1))


def regroup(rng, t):
    """Another join tree over the same leaf set: leaves shuffled, one
    repeated, a bot added, bracketed at random."""
    items = [O.ret(v) for v in sorted(O.leaves(t))]
    if items:
        items.append(rng.choice(items))
    items.append(O.node("bot", ()))
    rng.shuffle(items)

    def build(xs):
        if len(xs) == 1:
            return xs[0]
        cut = rng.randrange(1, len(xs))
        return O.node("join", (), build(xs[:cut]), build(xs[cut:]))

    return build(items)


def search_ops(rng) -> list:
    ops = []

    def add(label, theory, t1, t2, budget, equal, decided):
        ops.append({"kind": "search", "label": label, "theory": theory, "t1": t1, "t2": t2,
                    "budget": budget, "expect": {"equal": equal, "decided": decided}})

    corpus = choice_corpus()
    for i, t1 in enumerate(corpus[:20]):
        for t2 in corpus[i + 1 : i + 6]:
            add("choice-corpus", "choice", t1, t2, 300, O.leaves(t1) == O.leaves(t2), False)
    # The cost of a budget-bound search swings with the trees (the median of
    # twenty pairs moves by about 10% from one draw to the next), and the
    # 90th percentile falls among these pairs; so, like the corpus, they are
    # drawn from a fixed seed.
    fixed = random.Random("state-random")
    for _ in range(20):
        t1, t2 = state_chain(fixed, 4), state_chain(fixed, 4)
        add("state-random", "state22", t1, t2, 3,
            O.store_runs(t1, 2, 2) == O.store_runs(t2, 2, 2), False)
    instances = O.state_equation_instances(2, 2)
    for _ in range(20):
        _, _, lhs, rhs = rng.choice(instances)
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        add("state-instance", "state22", lhs, rhs, 300,
            O.store_runs(lhs, 2, 2) == O.store_runs(rhs, 2, 2), True)
    for i in range(24):
        n = 2 + i % 2
        t1 = cell_tree(rng, n, 4)
        t2 = cell_normal_form(t1, n) if i % 4 < 2 else cell_tree(rng, n, 4)
        add(f"cell{n}-normalizer", f"cell{n}", t1, t2, 300,
            O.cell_runs(t1, n) == O.cell_runs(t2, n), True)
    for i in range(26):
        t1 = join_tree(rng, 4)
        t2 = regroup(rng, t1) if i % 2 == 0 else join_tree(rng, 4)
        add("semilattice-normalizer", "semilattice", t1, t2, 300,
            O.leaves(t1) == O.leaves(t2), True)
    return ops


WORKLOADS = ("run", "check", "search")


def make_ops(workload: str, seed: int, workdir: Path, samples: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "run":
        return run_ops(rng, _Files(workdir), samples)
    if workload == "check":
        return check_ops(rng, _Files(workdir), samples)
    if workload == "search":
        return search_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")
