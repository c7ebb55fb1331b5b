"""The built-in equational theories and theory combination.

Each constructor is memoized, so requesting the same theory twice returns
the same object.  The single-state, semilattice, and choice theories also
serve as references: ``free`` gives their normalizer to any theory whose
operations and equation instances are exactly theirs (the get/put normal
form, or the sorted leaf set that choice and the semilattice share).
These three are written in theory syntax and read by the parser, so their
equation sides are shapes, as a parsed theory's are, and a theory's laws
are compared with theirs shape by shape.  The other built-ins write their
sides as functions of the parameter.  Every commutation law, ``state``'s
three cross-location laws and the ``dist_*`` laws of ``combine``, comes
from one builder, ``_commutation``, whose side condition (``trivial``) no
shape states.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EmptyStateUniverse
from .terms import Equation, OpDecl, OpNode, Return, Theory, rename_tree_ops
from .universe import BOOL, EMPTY, UNIT, Enum, FiniteUniverse, Product

_X = Enum(("x",))
_XY = Enum(("x", "y"))
_XYZ = Enum(("x", "y", "z"))


# The built-ins that lend their normalizers, in theory syntax; ``S`` is the
# state universe.
_SINGLE_STATE = r"""theory single_state {
  op get : unit ~> S;
  op put : S ~> unit;
  equation get_get (S * S) : get((); \s. get((); \t. return (s, t))) = get((); \s. return (s, s));
  equation get_put (unit) : get((); \s. put(s; \u. return u)) = return ();
  equation put_get forall p in S (S) : put(p; \u. get((); \t. return t)) = put(p; \u. return p);
  equation put_put forall p in S * S (unit) : put(fst p; \u. put(snd p; \v. return v)) = put(snd p; \v. return v);
}"""

# Commutativity is listed first so that validators report it first; it is
# the law that already fails for any deterministic stream of bits.
_CHOICE = """theory choice {
  op choose : unit ~> bool;
  equation comm (enum {x, y}) : choose((); return x, return y) = choose((); return y, return x);
  equation idem (enum {x}) : choose((); return x, return x) = return x;
  equation assoc (enum {x, y, z}) : choose((); choose((); return x, return y), return z) = choose((); return x, choose((); return y, return z));
}"""

_SEMILATTICE = """theory semilattice {
  op bot : unit ~> empty;
  op join : unit ~> bool;
  equation assoc (enum {x, y, z}) : join((); return x, join((); return y, return z)) = join((); join((); return x, return y), return z);
  equation comm (enum {x, y}) : join((); return x, return y) = join((); return y, return x);
  equation idem (enum {x}) : join((); return x, return x) = return x;
  equation unit (enum {x}) : join((); return x, bot(())) = return x;
}"""


def _read(text: str, **universes: FiniteUniverse) -> Theory:
    # imported here: the parser imports comodels, which import this module
    from .parser import _parse_builtin

    return _parse_builtin(text, **universes)


def _const(tree):
    return lambda _p: tree


def _pair(x, y):
    return (x, y)


def _commutation(name: str, context, first: OpDecl, second: OpDecl, leaf, trivial=None):
    """The law that operations ``first`` and ``second`` commute, at each
    pair ``p`` of their parameters:

        first(p[0]; x. second(p[1]; y. return leaf(x, y)))
          = second(p[1]; y. first(p[0]; x. return leaf(x, y)))

    where ``context`` holds every ``leaf(x, y)``.  Where ``trivial(p)``
    holds, both sides are the lhs.  The tensor of two theories adds this
    law for each operation pair across them (Hyland, Plotkin & Power,
    *Combining effects: sum and tensor*, 2006).
    """
    xs, ys = first.arity.elements(), second.arity.elements()

    def lhs(p):
        return OpNode(first.name, p[0], tuple(
            OpNode(second.name, p[1], tuple(Return(leaf(x, y)) for y in ys)) for x in xs
        ))

    def rhs(p):
        if trivial is not None and trivial(p):
            return lhs(p)
        return OpNode(second.name, p[1], tuple(
            OpNode(first.name, p[0], tuple(Return(leaf(x, y)) for x in xs)) for y in ys
        ))

    return Equation(name, Product(first.param, second.param), context, lhs, rhs)


@lru_cache(maxsize=None)
def single_state_theory(s: FiniteUniverse) -> Theory:
    """One memory cell holding an element of ``s``: get/put with the four
    laws (get-get, get-put, put-get, put-put)."""
    if s.is_empty():
        raise EmptyStateUniverse("a state universe must be nonempty")
    return _read(_SINGLE_STATE, S=s)


@lru_cache(maxsize=None)
def state_theory(l: FiniteUniverse, s: FiniteUniverse) -> Theory:
    """Memory locations ``l`` sharing the state universe ``s``: lookup/update
    with the four per-location laws and the three cross-location
    distributivity laws.

    The distributivity laws are commutation laws (``_commutation``),
    quantified over all location pairs; on pairs the law does not cover
    (equal locations, or the mirror order of a symmetric law) both sides are
    the same tree, so the instance is trivial.
    """
    if s.is_empty():
        raise EmptyStateUniverse("a state universe must be nonempty")
    lookup = lambda loc, kont: OpNode(
        "lookup", loc, tuple(kont(v) for v in s.iter_elements())
    )
    update = lambda loc, v, sub: OpNode("update", (loc, v), (sub,))

    lookup_lookup = Equation(
        "lookup_lookup",
        l,
        Product(s, s),
        lambda loc: lookup(loc, lambda a: lookup(loc, lambda b: Return((a, b)))),
        lambda loc: lookup(loc, lambda a: Return((a, a))),
    )
    lookup_update = Equation(
        "lookup_update",
        l,
        UNIT,
        lambda loc: lookup(loc, lambda a: update(loc, a, Return(()))),
        lambda loc: Return(()),
    )
    update_lookup = Equation(
        "update_lookup",
        Product(l, s),
        s,
        lambda p: update(p[0], p[1], lookup(p[0], lambda b: Return(b))),
        lambda p: update(p[0], p[1], Return(p[1])),
    )
    update_update = Equation(
        "update_update",
        Product(Product(l, s), s),
        UNIT,
        lambda p: update(p[0][0], p[0][1], update(p[0][0], p[1], Return(()))),
        lambda p: update(p[0][0], p[1], Return(())),
    )

    lookup_op, update_op = OpDecl("lookup", l, s), OpDecl("update", Product(l, s), UNIT)
    mirror = lambda a, b: l.index_of(a) >= l.index_of(b)
    lookup_lookup_comm = _commutation(
        "lookup_lookup_comm", Product(s, s), lookup_op, lookup_op, _pair, lambda p: mirror(*p)
    )
    update_lookup_comm = _commutation(
        "update_lookup_comm", s, update_op, lookup_op, lambda _, w: w, lambda p: p[0][0] == p[1]
    )
    update_update_comm = _commutation(
        "update_update_comm", UNIT, update_op, update_op, lambda _, __: (),
        lambda p: mirror(p[0][0], p[1][0]),
    )

    return Theory(
        "state",
        (lookup_op, update_op),
        (
            lookup_lookup,
            lookup_update,
            update_lookup,
            update_update,
            lookup_lookup_comm,
            update_lookup_comm,
            update_update_comm,
        ),
    )


@lru_cache(maxsize=None)
def io_theory(s: FiniteUniverse) -> Theory:
    """print/read over the entity universe ``s``; no equations."""
    return Theory("io", (OpDecl("print", s, UNIT), OpDecl("read", UNIT, s)))


@lru_cache(maxsize=None)
def exception_theory() -> Theory:
    """A single abort operation with empty arity; no equations."""
    return Theory("exception", (OpDecl("abort", UNIT, EMPTY),))


@lru_cache(maxsize=None)
def choice_theory() -> Theory:
    """Binary nondeterministic choice: one operation returning a bit,
    with commutativity, idempotency, and associativity."""
    return _read(_CHOICE)


@lru_cache(maxsize=None)
def semilattice_theory() -> Theory:
    """A join operation with a bottom: associative, commutative, idempotent,
    with bot as the unit."""
    return _read(_SEMILATTICE)


@lru_cache(maxsize=None)
def pointed_set_theory() -> Theory:
    """A single constant; no equations."""
    return Theory("pointed_set", (OpDecl("point", UNIT, EMPTY),))


@lru_cache(maxsize=None)
def empty_theory() -> Theory:
    return Theory("empty", ())


@lru_cache(maxsize=None)
def singleton_theory() -> Theory:
    """A constant plus the equation x = y, collapsing everything."""
    collapse = Equation("collapse", UNIT, _XY, _const(Return("x")), _const(Return("y")))
    return Theory("singleton", (OpDecl("star", UNIT, EMPTY),), (collapse,))


@lru_cache(maxsize=None)
def group_theory() -> Theory:
    """Unit, multiplication, and inverse with the five group laws."""
    m = lambda a, b: OpNode("m", (), (a, b))
    inv = lambda a: OpNode("i", (), (a,))
    u = OpNode("u", (), ())
    x, y, z = Return("x"), Return("y"), Return("z")
    eqs = (
        Equation("assoc", UNIT, _XYZ, _const(m(m(x, y), z)), _const(m(x, m(y, z)))),
        Equation("unit_left", UNIT, _X, _const(m(u, x)), _const(x)),
        Equation("unit_right", UNIT, _X, _const(m(x, u)), _const(x)),
        Equation("inv_right", UNIT, _X, _const(m(x, inv(x))), _const(u)),
        Equation("inv_left", UNIT, _X, _const(m(inv(x), x)), _const(u)),
    )
    return Theory(
        "group",
        (OpDecl("u", UNIT, EMPTY), OpDecl("m", UNIT, BOOL), OpDecl("i", UNIT, UNIT)),
        eqs,
    )


_BUILTINS = {
    "state": state_theory,
    "single_state": single_state_theory,
    "io": io_theory,
    "exception": exception_theory,
    "choice": choice_theory,
    "semilattice": semilattice_theory,
    "pointed_set": pointed_set_theory,
    "empty": empty_theory,
    "singleton": singleton_theory,
    "group": group_theory,
}


def builtin_theory(key: str, *universes: FiniteUniverse) -> Theory:
    """Look up a built-in theory by name, passing its universe arguments."""
    try:
        make = _BUILTINS[key]
    except KeyError:
        raise KeyError(
            f"unknown builtin theory {key!r}; one of {sorted(_BUILTINS)}"
        ) from None
    return make(*universes)


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTINS))


def _fresh(name: str, taken: set) -> str:
    candidate = name
    n = 2
    while candidate in taken:
        candidate = f"{name}{n}"
        n += 1
    return candidate


def _renamed(theory: Theory, colliding: set, taken: set) -> tuple:
    """Rename ``theory``'s colliding ops, returning (ops, eqs, renames)."""
    mapping = {}
    for o in theory.ops:
        if o.name in colliding:
            new = _fresh(f"{o.name}_{theory.name}", taken)
            mapping[o.name] = new
            taken.add(new)
        else:
            taken.add(o.name)
    ops = tuple(
        OpDecl(mapping.get(o.name, o.name), o.param, o.arity) for o in theory.ops
    )
    if mapping:
        eqs = tuple(
            Equation(
                eq.name,
                eq.param_universe,
                eq.context,
                lambda p, eq=eq: rename_tree_ops(eq.lhs(p), mapping),
                lambda p, eq=eq: rename_tree_ops(eq.rhs(p), mapping),
            )
            for eq in theory.eqs
        )
    else:
        eqs = theory.eqs
    return ops, eqs, tuple(sorted(mapping.items()))


def combine(t1: Theory, t2: Theory, distribute: bool = False) -> Theory:
    """Adjoin two theories' signatures and equations.

    Colliding operation names are suffixed with their theory's name; the
    renaming is recorded on the result.  With ``distribute`` set, a
    commutation law (``_commutation``), ``dist_<op1>_<op2>``, is added for
    every operation pair across the two theories.
    """
    colliding = set(t1.op_names()) & set(t2.op_names())
    taken = (set(t1.op_names()) | set(t2.op_names())) - colliding
    ops1, eqs1, ren1 = _renamed(t1, colliding, taken)
    ops2, eqs2, ren2 = _renamed(t2, colliding, taken)
    eqs = list(eqs1)
    seen_eq_names = {e.name for e in eqs1}
    for eq in eqs2:
        name = _fresh(eq.name, seen_eq_names)
        seen_eq_names.add(name)
        eqs.append(Equation(name, eq.param_universe, eq.context, eq.lhs, eq.rhs))
    if distribute:
        for o1 in ops1:
            for o2 in ops2:
                name = f"dist_{o1.name}_{o2.name}"
                eqs.append(_commutation(name, Product(o1.arity, o2.arity), o1, o2, _pair))
    return Theory(
        f"{t1.name}+{t2.name}",
        ops1 + ops2,
        tuple(eqs),
        renames=ren1 + ren2,
    )
