"""Evaluation of the core language on one explicit-stack machine.

A computation evaluates to head-normal form: a ``Return`` leaf, or a
``Suspended`` operation (op, param, arity) whose ``resume(a)`` runs the
machine on from the operation's result ``a``.  Consumers pull only what
they need: ``comodels.cointerpret_tree`` resumes the one branch each
cooperation picks, ``free.normalize`` the branches its free model's value
reads (one per start state for single state, every branch for a leaf set),
while ``free.materialize`` resumes every branch to build the whole effect
tree (``eval_pure``/``run_program``, ``handle``, the handler check and
printing).

The machine keeps its continuation on a linked stack of frames rather than
on Python frames, so the depth of a computation costs memory, not
recursion.  A frame is one of:

- a do frame, ``do x <- [] in rest``: binds the returned value and goes on
  with ``rest``;
- a handler frame (deep handling): passes a returned value to the return
  clause.  An operation performed beneath it that it has a clause for
  captures the stack segment up to and including the frame as the
  clause's continuation; applying that continuation pushes the segment
  back, so handled programs do not recurse either;
- a replay frame: selects the branch of a tree node by the operation's
  result, so trees (a handled ``FreeElement``, a continuation over
  concrete branches) run through the same loop.  A node built from a
  binder body for a replay (``terms.Branches``) builds only the branches
  selected, and may be selected by a symbol.

The handler-equation checker is the shared law checker
(``terms._check_laws``) with the handler's clauses as its coverage: it
replays a theory's laws through the clauses on symbolic probe continuations
and compares the results semantically, sampling finite function domains.
Two steps are symbolic (King, *Symbolic execution and program testing*,
1976).  A parsed family over more than one parameter is first replayed once
at a ``terms.ParamSymbol``, which stands for every parameter, and two
functions are first compared once, applied at a symbol that stands for
every sample.  A symbol may be projected, compared with itself, and passed
to a continuation whose arity holds all it stands for, where a node built
from a binder body takes the branch at the symbol; any other use raises.  So
a symbolic run that ends in agreement holds at every element, and any other
outcome leaves the family to a replay per instance, or the functions to a
comparison per sample.
"""

from __future__ import annotations

from enum import Enum as PyEnum
from functools import cached_property
from typing import Any, Mapping

from .errors import AlgeffError, EvalError, ParameterOutOfUniverse
from .free import (
    FreeElement,
    default_budget,
    has_normalizer,
    materialize,
    normalize,
    normalizes_to_leaf_sets,
    _plain,
)
from .lang import (
    App,
    BoolLit,
    CompType,
    Do,
    Fun,
    HandlerLit,
    If,
    IntLit,
    OpCall,
    Pair,
    Plus,
    Return,
    StrLit,
    TArrow,
    TBool,
    TEmpty,
    THandler,
    TInt,
    TProd,
    TStr,
    TUnit,
    UnitLit,
    Var,
    WithHandle,
)
from .terms import OpNode, ParamSymbol, Theory, Tree, _Node, _check_laws
from .terms import tree_leaves
from .terms import Return as Leaf
from .universe import BOOL, UNIT, Enum, Fin, FiniteUniverse, Product, _within


class Closure(_Node):
    __slots__ = ("param", "body", "env")
    param: str
    body: Any
    env: dict

    def __init__(self, param: str, body, env: dict):
        self._fill(param, body, env)


class HandlerClosure(_Node):
    __slots__ = ("code", "env")
    code: HandlerLit
    env: dict

    def __init__(self, code: HandlerLit, env: dict):
        self._fill(code, env)


class PrimFun(_Node):
    __slots__ = ("name", "fn")
    name: str
    fn: Any

    def __init__(self, name: str, fn):
        self._fill(name, fn)


class KontValue:
    """A continuation over an arity; applying it to an arity element resumes
    the computation there.

    It is either a captured machine stack segment (the continuation of a
    handled operation) or one concrete branch per arity element.  Either
    way it compares and hashes by its branches, which a segment
    materializes on first use.
    """

    def __init__(self, arity: FiniteUniverse, branches=None, *, segment=None, theory=None):
        self.arity = arity
        self.segment = segment
        self._theory = theory
        if branches is not None:
            self.branches = tuple(branches)

    def index(self, a) -> int | None:
        """``a``'s position in the arity, or None for a symbol that stands
        only for elements of it, which a segment may be applied to: a
        node built from a binder body takes the branch at the symbol, and
        any other use of it inspects it."""
        if type(a) is ParamSymbol and self.segment is not None and a.universe is not None:
            if _within(a.universe, self.arity):
                return None
        try:
            return self.arity.index_of(a)
        except ValueError:
            raise EvalError(f"continuation applied outside its arity: {a!r}") from None

    def at(self, a) -> FreeElement:
        """The whole computation the continuation resumes at ``a``."""
        i = self.index(a)
        if self.segment is None:
            return self.branches[i]
        return apply_value(self, a, self._theory)

    @cached_property
    def branches(self) -> tuple:
        return tuple(self.at(a) for a in self.arity.iter_elements())

    def __eq__(self, other):
        if not isinstance(other, KontValue):
            return NotImplemented
        return self.arity == other.arity and self.branches == other.branches

    def __hash__(self):
        return hash((self.arity, self.branches))


class SymVal(_Node):
    """An opaque symbolic value; applying it records the argument."""

    __slots__ = ("base", "args")
    base: Any
    args: tuple

    def __init__(self, base, args: tuple = ()):
        self._fill(base, args)


def base_env() -> dict:
    return {
        "fst": PrimFun("fst", lambda v: v[0]),
        "snd": PrimFun("snd", lambda v: v[1]),
    }


def eval_value(v, env: Mapping, theory: Theory):
    if isinstance(v, Var):
        try:
            return env[v.name]
        except KeyError:
            raise EvalError(f"unbound variable at runtime: {v.name}") from None
    if isinstance(v, (BoolLit, IntLit, StrLit)):
        return v.value
    if isinstance(v, UnitLit):
        return ()
    if isinstance(v, Pair):
        return (eval_value(v.first, env, theory), eval_value(v.second, env, theory))
    if isinstance(v, Plus):
        a = eval_value(v.left, env, theory)
        b = eval_value(v.right, env, theory)
        if type(a) is not int or type(b) is not int:
            raise EvalError(f"+ expects integers, got {a!r} and {b!r}")
        return a + b
    if isinstance(v, Fun):
        return Closure(v.param, v.body, dict(env))
    if isinstance(v, HandlerLit):
        return HandlerClosure(v, dict(env))
    raise EvalError(f"not a value expression: {v!r}")


def _adapt(value, u: FiniteUniverse):
    """Fit an integer-valued parameter into its Fin range by wrapping.

    Range integers are modular, so put!(x+1) stays total on the last state
    too: the handler check, and ``normalize`` over a leaf set or an
    equation-free theory, still evaluate every branch, and a program's
    meaning must not depend on which branches a consumer pulls.
    """
    if isinstance(u, Fin) and type(value) is int:
        return value % u.n
    if isinstance(u, Product) and type(value) is tuple and len(value) == 2:
        return (_adapt(value[0], u.left), _adapt(value[1], u.right))
    return value


# ---------------------------------------------------------------------------
# The machine

# what the control holds: a computation to evaluate (with an environment),
# a value to return to the top frame, or a concrete tree to replay
_EVAL, _VALUE, _TREE = 0, 1, 2
# frames, as tuples on a linked stack (frame, rest) ending in None:
# (_DO, name, rest, env), (_HANDLER, handler closure), (_REPLAY, node, arity)
_DO, _HANDLER, _REPLAY = 0, 1, 2


class Suspended(_Node):
    """A computation stopped at an operation no handler takes; ``resume(a)``
    runs the machine on from the operation's result ``a``.  It compares by
    identity, and its repr leaves out the stack and the theory."""

    __slots__ = ("op", "param", "arity", "stack", "theory")
    _fields = ("op", "param", "arity")
    op: str
    param: Any
    arity: FiniteUniverse
    stack: Any
    theory: Theory
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, op: str, param, arity: FiniteUniverse, stack, theory: Theory):
        self._fill(op, param, arity, stack, theory)

    def resume(self, a) -> Leaf | Suspended:
        if not self.arity.contains(a):
            raise EvalError(f"operation {self.op!r} resumed outside its arity: {a!r}")
        return _run(self.theory, _VALUE, a, None, self.stack)


def _apply(fv, arg, stack) -> tuple:
    """The machine state (mode, control, env, stack) that applies a function
    value to an argument on top of ``stack``."""
    if isinstance(fv, Closure):
        return _EVAL, fv.body, {**fv.env, fv.param: arg}, stack
    if isinstance(fv, KontValue):
        i = fv.index(arg)
        if fv.segment is None:
            return _TREE, fv.branches[i].tree, None, stack
        for frame in reversed(fv.segment):
            stack = (frame, stack)
        return _VALUE, arg, None, stack
    if isinstance(fv, PrimFun):
        try:
            return _VALUE, fv.fn(arg), None, stack
        except (TypeError, IndexError):
            raise EvalError(f"{fv.name} applied to {arg!r}") from None
    if isinstance(fv, SymVal):
        return _VALUE, SymVal(fv.base, fv.args + (arg,)), None, stack
    raise EvalError(f"application of a non-function: {fv!r}")


def _run(theory: Theory, mode: int, x, env, stack) -> Leaf | Suspended:
    """Run the machine from a state to head-normal form."""
    while True:
        if mode == _EVAL:
            if isinstance(x, Do):
                stack = ((_DO, x.name, x.rest, env), stack)
                x = x.first
                continue
            if isinstance(x, Return):
                mode, x = _VALUE, eval_value(x.value, env, theory)
                continue
            if isinstance(x, App):
                fv = eval_value(x.fn, env, theory)
                mode, x, env, stack = _apply(fv, eval_value(x.arg, env, theory), stack)
                continue
            if isinstance(x, If):
                cond = eval_value(x.cond, env, theory)
                if type(cond) is not bool:
                    raise EvalError(f"if expects a boolean, got {cond!r}")
                x = x.then if cond else x.orelse
                continue
            if isinstance(x, WithHandle):
                hv = eval_value(x.handler, env, theory)
                if not isinstance(hv, HandlerClosure):
                    raise EvalError(f"with-handle expects a handler, got {hv!r}")
                stack = ((_HANDLER, hv), stack)
                x = x.comp
                continue
            if not isinstance(x, OpCall):
                raise EvalError(f"not a computation expression: {x!r}")
            op, decl = x.op, theory.op(x.op)
            param = _adapt(eval_value(x.arg, env, theory), decl.param)
            if not decl.param.contains(param):
                raise ParameterOutOfUniverse(
                    f"{param!r} is not a parameter of {op!r} (expects {decl.param})"
                )
        elif mode == _VALUE:
            if stack is None:
                return Leaf(x)
            frame, stack = stack
            if frame[0] == _DO:
                _, name, rest, env = frame
                mode, x, env = _EVAL, rest, {**env, name: x}
            elif frame[0] == _HANDLER:
                h = frame[1]
                mode, x, env = _EVAL, h.code.ret_body, {**h.env, h.code.ret_name: x}
            else:
                # resume and continuation application have checked the
                # arity; only a node built from a binder body takes a symbol
                _, node, arity = frame
                x = node.kont[arity.index_of(x)] if type(node) is OpNode else node.branch(x)
                mode = _TREE
            continue
        else:
            if isinstance(x, Leaf):
                mode, x = _VALUE, x.value
                continue
            op, param, decl = x.op, x.param, theory.op(x.op)
            stack = ((_REPLAY, x, decl.arity), stack)
        # op(param) is performed: the innermost handler with a clause for op
        # runs it, outside itself, with the segment up to itself as k
        segment = []
        rest = stack
        while rest is not None:
            frame, rest = rest
            segment.append(frame)
            if frame[0] == _HANDLER:
                h = frame[1]
                clause = h.code.clause_for(op)
                if clause is not None:
                    k = KontValue(decl.arity, segment=tuple(segment), theory=theory)
                    env = {**h.env, clause.param_name: param, clause.kont_name: k}
                    mode, x, stack = _EVAL, clause.body, rest
                    break
        else:
            return Suspended(op, param, decl.arity, stack, theory)


def evaluate(c, env: Mapping, theory: Theory) -> Leaf | Suspended:
    """Evaluate a computation to head-normal form."""
    return _run(theory, _EVAL, c, env, None)


def eval_pure(c, env: Mapping, theory: Theory) -> FreeElement:
    """Evaluate a computation to an element of the free model over runtime
    values: returns become leaves, operations nobody handles become nodes
    (one subtree per arity element), and with-handle handles deeply.  The
    whole tree is built; ``evaluate`` gives the head-normal form."""
    return FreeElement(theory, materialize(evaluate(c, env, theory)))


def run_program(c, theory: Theory) -> FreeElement:
    return eval_pure(c, base_env(), theory)


def apply_value(fv, arg, theory: Theory) -> FreeElement:
    """Apply a function value to an argument; the whole result is built."""
    return FreeElement(theory, materialize(_run(theory, *_apply(fv, arg, None))))


def handle(h: HandlerClosure, t: FreeElement, theory: Theory | None = None) -> FreeElement:
    """Handle an effect tree deeply, building the whole result.

    The tree is replayed on the machine beneath a handler frame.  Return
    leaves evaluate the return clause; a handled node evaluates its clause
    with the continuation bound to the captured rest of the replay (the
    handled subtrees, each built only when the clause applies it or the
    result is built); unhandled nodes are re-emitted around the handled
    subtrees.
    """
    theory = theory if theory is not None else t.theory
    head = _run(theory, _TREE, t.tree, None, ((_HANDLER, h), None))
    return FreeElement(theory, materialize(head))


# ---------------------------------------------------------------------------
# Handler-equation checking


class HandlerVerdict(PyEnum):
    RESPECTED = "respected"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


class HandlerCheck(_Node):
    __slots__ = ("verdict", "equation", "param", "skipped")
    verdict: HandlerVerdict
    equation: str | None
    param: Any
    skipped: tuple

    def __init__(self, verdict: HandlerVerdict, equation=None, param=None, skipped=()):
        self._fill(verdict, equation, param, skipped)


def _samples(theory: Theory) -> tuple:
    """The integers below the largest ``fin n`` and the enum labels, in
    order of first mention, of the operations' parameter and arity
    universes."""
    sizes, labels = {0}, {}

    def scan(u):
        if isinstance(u, Fin):
            sizes.add(u.n)
        elif isinstance(u, Enum):
            labels.update(dict.fromkeys(u.labels))
        elif isinstance(u, Product):
            scan(u.left)
            scan(u.right)

    for o in theory.ops:
        scan(o.param)
        scan(o.arity)
    return list(range(max(sizes))), list(labels)


def sample_domain(theory: Theory, vtype) -> FiniteUniverse | None:
    """The universe of the inhabitants a function domain is probed with, or
    None when the domain cannot be sampled."""
    if isinstance(vtype, TUnit):
        return UNIT
    if isinstance(vtype, TBool):
        return BOOL
    if isinstance(vtype, (TInt, TStr)):
        ints, labels = _samples(theory)
        if isinstance(vtype, TInt):
            return Fin(len(ints)) if ints else None
        return Enum(labels) if labels else None
    if isinstance(vtype, TProd):
        left = sample_domain(theory, vtype.left)
        right = sample_domain(theory, vtype.right)
        return None if left is None or right is None else Product(left, right)
    return None


# Neither ``_plain`` nor ``_first_order`` decides a comparison for True, so the
# symbol a comparison is first tried at (``compare_values``) fails them harmlessly.
def _first_order(v) -> bool:
    if type(v) is tuple:
        return all(_first_order(x) for x in v)
    return type(v) in (bool, int, str, SymVal)


def _at_most_one_inhabitant(vtype) -> bool:
    if isinstance(vtype, (TUnit, TEmpty)):
        return True
    if isinstance(vtype, TProd):
        if isinstance(vtype.left, TEmpty) or isinstance(vtype.right, TEmpty):
            return True
        return _at_most_one_inhabitant(vtype.left) and _at_most_one_inhabitant(vtype.right)
    if isinstance(vtype, TArrow):
        return _at_most_one_inhabitant(vtype.result.value) or isinstance(vtype.arg, TEmpty)
    return False


class _Facts:
    """What one handler check works out once: for each value type, whether
    it has at most one inhabitant and the samples of its function domain,
    with their universe.  It lives for one check, so it keeps no theory
    alive after it.  Entries are keyed by identity and hold their key, so
    no key's id is reused while it lives."""

    def __init__(self, theory: Theory):
        self.theory = theory
        self._types = {}

    def of_type(self, vtype) -> tuple:
        """``(_at_most_one_inhabitant(vtype), samples, domain)``, where
        ``samples`` are the elements of the ``sample_domain`` of a
        non-trivial arrow type's argument, else None, and ``domain`` is that
        universe when there is more than one sample, else None."""
        entry = self._types.get(id(vtype))
        if entry is None:
            trivial, samples, domain = _at_most_one_inhabitant(vtype), None, None
            if not trivial and isinstance(vtype, TArrow):
                domain = sample_domain(self.theory, vtype.arg)
                if domain is not None:
                    samples = domain.elements()
                    if len(samples) <= 1:
                        domain = None
            entry = self._types[id(vtype)] = (vtype, trivial, samples, domain)
        return entry[1:]


def compare_values(v1, v2, vtype, theory: Theory, facts: _Facts | None = None):
    """Semantic comparison at a type: True, False (separable), or None.

    Functions are compared extensionally: both are applied at every sample
    of a finite domain (the elements of ``sample_domain``) and their
    results compared, and values of a domain that cannot be sampled compare
    only when equal.  Over more than one sample, both are first applied
    once at a fresh symbol for every sample (``_agree_at_a_symbol``); only
    if those results do not compare True is each sample tried.  Symbolic
    probes apply opaquely, so they are compared the same way.  At
    first-order types a symbolic difference is separable (the probes range
    over the full free carrier), unless the type has at most one
    inhabitant.  ``facts`` carries what a check has already worked out
    about types; by default nothing is known.
    """
    if facts is None:
        facts = _Facts(theory)
    trivial, samples, domain = facts.of_type(vtype)
    if trivial:
        return True
    if isinstance(vtype, TArrow):
        if samples is None:
            return True if v1 == v2 else None
        if domain is not None and _agree_at_a_symbol(v1, v2, domain, vtype.result, theory, facts):
            return True
        verdict = True
        for s in samples:
            try:
                r1, r2 = apply_value(v1, s, theory), apply_value(v2, s, theory)
            except AlgeffError:
                return None
            sub = compare_trees(r1.tree, r2.tree, vtype.result, theory, facts)
            verdict = _both(verdict, sub)
            if verdict is False:
                return False
        return verdict
    if isinstance(vtype, TProd) and type(v1) is tuple and type(v2) is tuple:
        left = compare_values(v1[0], v2[0], vtype.left, theory, facts)
        right = compare_values(v1[1], v2[1], vtype.right, theory, facts)
        return _both(left, right)
    if isinstance(vtype, THandler):
        return True if v1 == v2 else None
    if v1 == v2:
        return True
    if isinstance(v1, SymVal) or isinstance(v2, SymVal):
        return False
    if _plain(v1) and _plain(v2):
        return False
    return None


def _agree_at_a_symbol(v1, v2, domain, ctype, theory, facts) -> bool:
    """Whether two functions, applied at a fresh symbol that stands for
    every element of ``domain``, give results that compare True.  Then they
    agree at every element: nothing inspected the symbol, or it would have
    raised, so each result is the one at the symbol with the element in
    its place (King, *Symbolic execution and program testing*, 1976)."""
    s = ParamSymbol((), domain, object())
    try:
        r1, r2 = apply_value(v1, s, theory), apply_value(v2, s, theory)
        return compare_trees(r1.tree, r2.tree, ctype, theory, facts) is True
    except Exception:  # whatever refused the symbol, the samples decide
        return False


def _both(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def compare_trees(t1, t2, ctype: CompType, theory: Theory, facts: _Facts | None = None):
    """Semantic comparison of two effect trees at a computation type: True,
    False (separable), or None.  Leaves are compared by ``compare_values``,
    with ``facts`` as there."""
    if facts is None:
        facts = _Facts(theory)

    def leaves(a, b):
        verdict = compare_values(a.value, b.value, ctype.value, theory, facts)
        # with no normal form, the equations may still identify different leaves
        return None if verdict is False and not has_normalizer(theory) else verdict

    if isinstance(t1, Leaf) and isinstance(t2, Leaf):
        # the normal form of return v has only v at its leaves
        return leaves(t1, t2)
    canonical = has_normalizer(theory)
    if canonical:
        try:
            t1, t2 = normalize(theory, t1), normalize(theory, t2)
        except AlgeffError:
            return None

    verdict, pairs = True, [(t1, t2)]  # pairs wait on a stack, taken in preorder
    while pairs and verdict is not False:
        a, b = pairs.pop()
        if isinstance(a, Leaf) and isinstance(b, Leaf):
            verdict = _both(verdict, leaves(a, b))
        elif type(a) is type(b) is OpNode and a.op == b.op and a.param == b.param:
            pairs.extend(reversed(tuple(zip(a.kont, b.kont))))
        else:
            verdict = _both(verdict, False if canonical else None)
    if verdict is False and normalizes_to_leaf_sets(theory):
        # a leaf set drops only identical leaves, so two extensionally equal
        # functions may both stay, or pair up with the wrong partners
        if not all(_first_order(v) for t in (t1, t2) for v in tree_leaves(t)):
            return None
    return verdict


def check_handler_equations(
    h: HandlerClosure, theory: Theory, out_type: CompType, budget: int | None = None
) -> HandlerCheck:
    """Replay each equation family through the handler's clauses, in the
    shared law checker (``terms._check_laws``): an equation mentioning an
    operation with no clause is skipped and reported.  Each instance's
    sides, on probe leaves (one fresh symbolic value per context generator,
    passing the return clause untouched), are handled by the clauses and
    compared at the output type by ``compare_trees``, which keeps what it
    works out about types for the rest of the check.  A violation is a
    definite counterexample; an instance whose handling raises is unknown.
    A family whose sides are templates is first replayed once with a
    ``ParamSymbol`` for its parameter; when that replay agrees, every
    instance is counted as checked, and otherwise each is replayed, so the
    verdict, witness and skipped list are those of the replays.  A
    template's sides are built for the replay, each branch of a binder body
    only when the replay selects it, and are not kept.  At most ``budget``
    instances are checked (by default ``default_budget()``); any left over
    make the verdict unknown.
    """
    # probe values stand for the generic continuation at each leaf, which
    # the return clause must not see: the clauses, with a return clause that
    # turns each leaf into its probe, in the handler's place (its mark,
    # which finds a position only when read).  So a leaf becomes a probe
    # only when the handled tree reaches it.
    probe = PrimFun("probe", lambda v: SymVal(("kont", v)))
    code = HandlerLit("x", App(Var(" probe"), Var("x")), h.code.clauses, pos=h.code._at)
    passthrough = HandlerClosure(code, {**h.env, " probe": probe})
    facts = _Facts(theory)

    def check(eq, p, lhs, rhs):
        try:
            left = handle(passthrough, FreeElement(theory, lhs), theory)
            right = handle(passthrough, FreeElement(theory, rhs), theory)
            # continuations compare by branches, built (and failing) only here
            verdict = compare_trees(left.tree, right.tree, out_type, theory, facts)
        except AlgeffError:
            return None
        return (eq.name, p) if verdict is False else verdict

    def holds_at_every_parameter(eq):
        p = ParamSymbol((), eq.param_universe, eq)
        try:
            return check(eq, p, eq.lhs.lazy(p), eq.rhs.lazy(p)) is True
        except Exception:  # any failure leaves the family to the loop
            return False

    violation, skipped, unknown = _check_laws(
        theory.eqs, check, {cl.op for cl in h.code.clauses},
        default_budget() if budget is None else budget, family=holds_at_every_parameter,
        build=lambda side: side.lazy,
    )
    skipped = tuple(name for name, _ in skipped)
    if violation is not None:
        return HandlerCheck(HandlerVerdict.VIOLATED, *violation, skipped)
    verdict = HandlerVerdict.UNKNOWN if unknown else HandlerVerdict.RESPECTED
    return HandlerCheck(verdict, skipped=skipped)
