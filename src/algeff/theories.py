"""The built-in equational theories and theory combination.

Each constructor is memoized, so requesting the same theory twice returns
the same object.  The single-state, semilattice, and choice theories also
serve as references: ``free`` gives their normalizer to any theory whose
operations and equation instances are exactly theirs (the get/put normal
form, or the sorted leaf set that choice and the semilattice share), and
a theory's laws are compared with theirs shape by shape.  Every built-in
with laws is written in theory syntax and read by the parser, so its
equation sides are shapes, as a parsed theory's are; ``state``'s side
conditions are parameter universes (``Apart``).  ``combine`` keeps them
shapes: it renames operations by reading a shape in a renaming algebra,
and builds each ``dist_*`` law as a pair of shapes (``_dist``).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EmptyStateUniverse
from .terms import _PARAM, Equation, OpDecl, Theory, _Instances, compile, rename_tree_ops
from .universe import EMPTY, UNIT, Apart, FiniteUniverse, Product

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

# ``L`` is the location universe; ``LL``, ``UL`` and ``UU`` hold the pairs of
# lookups and updates at distinct locations, ordered ones for a symmetric law.
_STATE = r"""theory state {
  op lookup : L ~> S;
  op update : L * S ~> unit;
  equation lookup_lookup forall l in L (S * S) : lookup(l; \a. lookup(l; \b. return (a, b))) = lookup(l; \a. return (a, a));
  equation lookup_update forall l in L (unit) : lookup(l; \a. update((l, a); return ())) = return ();
  equation update_lookup forall p in L * S (S) : update(p; lookup(fst p; \b. return b)) = update(p; return snd p);
  equation update_update forall p in L * S * S (unit) : update(fst p; update((fst fst p, snd p); return ())) = update((fst fst p, snd p); return ());
  equation lookup_lookup_comm forall p in LL (S * S) : lookup(fst p; \a. lookup(snd p; \b. return (a, b))) = lookup(snd p; \b. lookup(fst p; \a. return (a, b)));
  equation update_lookup_comm forall p in UL (S) : update(fst p; lookup(snd p; \b. return b)) = lookup(snd p; \b. update(fst p; return b));
  equation update_update_comm forall p in UU (unit) : update(fst p; update(snd p; return ())) = update(snd p; update(fst p; return ()));
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

# Two built-ins that lend no normalizer, in theory syntax too.
_SINGLETON = """theory singleton {
  op star : unit ~> empty;
  equation collapse (enum {x, y}) : return x = return y;
}"""

_GROUP = """theory group {
  op u : unit ~> empty;
  op m : unit ~> bool;
  op i : unit ~> unit;
  equation assoc (enum {x, y, z}) : m((); m((); return x, return y), return z) = m((); return x, m((); return y, return z));
  equation unit_left (enum {x}) : m((); u(()), return x) = return x;
  equation unit_right (enum {x}) : m((); return x, u(())) = return x;
  equation inv_right (enum {x}) : m((); return x, i((); return x)) = u(());
  equation inv_left (enum {x}) : m((); i((); return x), return x) = u(());
}"""


def _read(text: str, **universes: FiniteUniverse) -> Theory:
    # imported here: the parser imports comodels, which import this module
    from .parser import _parse_builtin

    return _parse_builtin(text, **universes)


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

    The distributivity laws are commutation laws, which hold at distinct
    locations, and are stated once per unordered pair when they are
    symmetric: their parameters range over an ``Apart`` universe, which
    leaves out the instances whose two sides would be the same tree.
    """
    if s.is_empty():
        raise EmptyStateUniverse("a state universe must be nonempty")
    cell = Product(l, s)
    return _read(_STATE, L=l, S=s, LL=Apart(l, l, (0,), (1,), True), UL=Apart(cell, l, (0, 0), (1,)),
                 UU=Apart(cell, cell, (0, 0), (1, 0), True))


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
    return _read(_SINGLETON)


@lru_cache(maxsize=None)
def group_theory() -> Theory:
    """Unit, multiplication, and inverse with the five group laws."""
    return _read(_GROUP)


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


def _fresh(name: str, taken: set) -> str:
    candidate = name
    n = 2
    while candidate in taken:
        candidate = f"{name}{n}"
        n += 1
    return candidate


def _renamed_side(side, mapping: dict):
    """``side`` with its operations renamed by ``mapping``: its shape read
    in an algebra (``terms.compile``) that renames each node, or, for a
    side written as a function by hand, each tree it builds."""
    if type(side) is not _Instances:
        return lambda p: rename_tree_ops(side(p), mapping)
    rename = mapping.get
    return _Instances(compile(side.shape, (
        lambda e: e, lambda value: ("return", value),
        lambda op, param, kids: ("op", rename(op, op), param, tuple(kids)),
        lambda op, param, arity, body, key: ("bind", rename(op, op), param, arity, body))), side.params)


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
    eqs = theory.eqs
    if mapping:
        eqs = tuple(
            Equation(eq.name, eq.param_universe, eq.context,
                     _renamed_side(eq.lhs, mapping), _renamed_side(eq.rhs, mapping))
            for eq in theory.eqs
        )
    return ops, eqs, tuple(sorted(mapping.items()))


def _dist(name: str, o1: OpDecl, o2: OpDecl) -> Equation:
    """The law that ``o1`` and ``o2`` commute, at each pair ``p`` of their
    parameters, ``o1(fst p; \\x. o2(snd p; \\y. return (x, y))) = o2(snd p;
    \\y. o1(fst p; \\x. return (x, y)))``, as shapes, whose binders are
    numbered by depth.  The tensor of two theories adds it for each
    operation pair across them (Hyland, Plotkin & Power, *Combining
    effects: sum and tensor*, 2006)."""
    def node(o, param, body):  # no subtrees under an empty arity
        return ("bind", o.name, param, o.arity, body) if o.arity.size() else ("op", o.name, param, ())

    first, second, params = ("fst", _PARAM), ("snd", _PARAM), Product(o1.param, o2.param)
    lhs = node(o1, first, node(o2, second, ("return", ("pair", ("var", 1), ("var", 2)))))
    rhs = node(o2, second, node(o1, first, ("return", ("pair", ("var", 2), ("var", 1)))))
    return Equation(name, params, Product(o1.arity, o2.arity), _Instances(lhs, params),
                    _Instances(rhs, params))


def combine(t1: Theory, t2: Theory, distribute: bool = False) -> Theory:
    """Adjoin two theories' signatures and equations.

    Colliding operation names are suffixed with their theory's name; the
    renaming is recorded on the result.  With ``distribute`` set, a
    commutation law (``_dist``), ``dist_<op1>_<op2>``, is added for every
    operation pair across the two theories.
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
        eqs += (_dist(f"dist_{o1.name}_{o2.name}", o1, o2) for o1 in ops1 for o2 in ops2)
    return Theory(
        f"{t1.name}+{t2.name}",
        ops1 + ops2,
        tuple(eqs),
        renames=ren1 + ren2,
    )
