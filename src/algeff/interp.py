"""Big-step evaluation of the core language into free-model elements.

Pure evaluation turns a computation into an effect tree over runtime
values; handlers fold over that tree by their defining equations.  The
handler-equation checker replays a theory's laws through a handler's
clauses on symbolic probe continuations and compares the results
semantically, sampling finite function domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum as PyEnum
from typing import Any, Mapping

from .errors import AlgeffError
from .free import FreeElement, default_budget, eta, generic_op, has_normalizer, normalize, sequence
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
from .terms import OpNode, Theory, tree_ops
from .terms import Return as Leaf
from .universe import Enum, Fin, FiniteUniverse, Product


class EvalError(AlgeffError):
    """Raised when evaluation meets a value it cannot consume; unreachable
    on well-typed input."""


@dataclass(frozen=True)
class Closure:
    param: str
    body: Any
    env: dict


@dataclass(frozen=True)
class HandlerClosure:
    code: HandlerLit
    env: dict


@dataclass(frozen=True)
class PrimFun:
    name: str
    fn: Any


@dataclass(frozen=True)
class KontValue:
    """A continuation reified as one already-evaluated branch per arity
    element; applying it selects the branch."""

    arity: FiniteUniverse
    branches: tuple

    def at(self, a) -> FreeElement:
        try:
            return self.branches[self.arity.index_of(a)]
        except ValueError:
            raise EvalError(f"continuation applied outside its arity: {a!r}") from None


@dataclass(frozen=True)
class SymVal:
    """An opaque symbolic value; applying it records the argument."""

    base: Any
    args: tuple = ()


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


def apply_value(fv, arg, theory: Theory) -> FreeElement:
    if isinstance(fv, Closure):
        return eval_pure(fv.body, {**fv.env, fv.param: arg}, theory)
    if isinstance(fv, PrimFun):
        try:
            return eta(theory, fv.fn(arg))
        except (TypeError, IndexError):
            raise EvalError(f"{fv.name} applied to {arg!r}") from None
    if isinstance(fv, KontValue):
        return fv.at(arg)
    if isinstance(fv, SymVal):
        return eta(theory, SymVal(fv.base, fv.args + (arg,)))
    raise EvalError(f"application of a non-function: {fv!r}")


def _adapt(value, u: FiniteUniverse):
    """Fit an integer-valued parameter into its Fin range by wrapping.

    Range integers are modular: the whole tree of a computation is built
    eagerly, so put!(x+1) must stay total on the last state too.
    """
    if isinstance(u, Fin) and type(value) is int:
        return value % u.n
    if isinstance(u, Product) and type(value) is tuple and len(value) == 2:
        return (_adapt(value[0], u.left), _adapt(value[1], u.right))
    return value


def eval_pure(c, env: Mapping, theory: Theory) -> FreeElement:
    """Evaluate a computation to an element of the free model over runtime
    values: returns become leaves, operation calls become nodes, sequencing
    is Kleisli lifting, and with-handle folds the handler over the tree."""
    if isinstance(c, Return):
        return eta(theory, eval_value(c.value, env, theory))
    if isinstance(c, OpCall):
        arg = eval_value(c.arg, env, theory)
        return generic_op(theory, c.op, _adapt(arg, theory.op(c.op).param))
    if isinstance(c, Do):
        first = eval_pure(c.first, env, theory)
        return sequence(first, lambda val: eval_pure(c.rest, {**env, c.name: val}, theory))
    if isinstance(c, If):
        cond = eval_value(c.cond, env, theory)
        if type(cond) is not bool:
            raise EvalError(f"if expects a boolean, got {cond!r}")
        return eval_pure(c.then if cond else c.orelse, env, theory)
    if isinstance(c, App):
        fv = eval_value(c.fn, env, theory)
        arg = eval_value(c.arg, env, theory)
        return apply_value(fv, arg, theory)
    if isinstance(c, WithHandle):
        hv = eval_value(c.handler, env, theory)
        if not isinstance(hv, HandlerClosure):
            raise EvalError(f"with-handle expects a handler, got {hv!r}")
        return handle(hv, eval_pure(c.comp, env, theory), theory)
    raise EvalError(f"not a computation expression: {c!r}")


def run_program(c, theory: Theory) -> FreeElement:
    return eval_pure(c, base_env(), theory)


def handle(h: HandlerClosure, t: FreeElement, theory: Theory | None = None) -> FreeElement:
    """Fold a handler over an effect tree (deep handling).

    Return leaves evaluate the return clause; handled nodes evaluate their
    clause with the continuation bound to the already-handled subtrees;
    unhandled nodes are re-emitted around the handled subtrees.
    """
    theory = theory if theory is not None else t.theory

    def go(tree) -> FreeElement:
        if isinstance(tree, Leaf):
            env = {**h.env, h.code.ret_name: tree.value}
            return eval_pure(h.code.ret_body, env, theory)
        handled = tuple(go(sub) for sub in tree.kont)
        clause = h.code.clause_for(tree.op)
        if clause is None:
            return FreeElement(
                theory, OpNode(tree.op, tree.param, tuple(fe.tree for fe in handled))
            )
        decl = theory.op(tree.op)
        env = {
            **h.env,
            clause.param_name: tree.param,
            clause.kont_name: KontValue(decl.arity, handled),
        }
        return eval_pure(clause.body, env, theory)

    return go(t.tree)


# ---------------------------------------------------------------------------
# Handler-equation checking


class HandlerVerdict(PyEnum):
    RESPECTED = "respected"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class HandlerCheck:
    verdict: HandlerVerdict
    equation: str | None = None
    param: Any = None
    skipped: tuple = ()


def _sample_ints(theory: Theory) -> list:
    sizes = set()

    def scan(u):
        if isinstance(u, Fin):
            sizes.add(u.n)
        elif isinstance(u, Product):
            scan(u.left)
            scan(u.right)

    for o in theory.ops:
        scan(o.param)
        scan(o.arity)
    return list(range(max(sizes))) if sizes else []


def _sample_strs(theory: Theory) -> list:
    labels: list = []

    def scan(u):
        if isinstance(u, Enum):
            labels.extend(l for l in u.labels if l not in labels)
        elif isinstance(u, Product):
            scan(u.left)
            scan(u.right)

    for o in theory.ops:
        scan(o.param)
        scan(o.arity)
    return labels


def sample_values(theory: Theory, vtype) -> list | None:
    """Finitely many inhabitants to probe a function domain with, or None
    when the domain cannot be sampled."""
    if isinstance(vtype, TUnit):
        return [()]
    if isinstance(vtype, TBool):
        return [False, True]
    if isinstance(vtype, TInt):
        return _sample_ints(theory) or None
    if isinstance(vtype, TStr):
        return _sample_strs(theory) or None
    if isinstance(vtype, TProd):
        left = sample_values(theory, vtype.left)
        right = sample_values(theory, vtype.right)
        if left is None or right is None:
            return None
        return [(a, b) for a in left for b in right]
    return None


def _plain(v) -> bool:
    if type(v) is tuple:
        return all(_plain(x) for x in v)
    return type(v) in (bool, int, str)


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


def compare_values(v1, v2, vtype, theory: Theory):
    """Semantic comparison at a type: True, False (separable), or None.

    Functions are compared extensionally over sampled domains; this also
    covers symbolic probes, which apply opaquely.  At first-order types a
    symbolic difference is separable (the probes range over the full free
    carrier), unless the type has at most one inhabitant.
    """
    if _at_most_one_inhabitant(vtype):
        return True
    if isinstance(vtype, TArrow):
        samples = sample_values(theory, vtype.arg)
        if samples is None:
            return True if v1 == v2 else None
        verdict = True
        for s in samples:
            try:
                r1 = apply_value(v1, s, theory)
                r2 = apply_value(v2, s, theory)
            except AlgeffError:
                return None
            sub = compare_trees(r1.tree, r2.tree, vtype.result, theory)
            verdict = _both(verdict, sub)
            if verdict is False:
                return False
        return verdict
    if isinstance(vtype, TProd) and type(v1) is tuple and type(v2) is tuple:
        left = compare_values(v1[0], v2[0], vtype.left, theory)
        right = compare_values(v1[1], v2[1], vtype.right, theory)
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


def _both(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def compare_trees(t1, t2, ctype: CompType, theory: Theory):
    if isinstance(t1, Leaf) and isinstance(t2, Leaf):
        # the normal form of return v has only v at its leaves
        return compare_values(t1.value, t2.value, ctype.value, theory)
    canonical = has_normalizer(theory)
    if canonical:
        try:
            t1, t2 = normalize(theory, t1), normalize(theory, t2)
        except AlgeffError:
            return None

    def walk(a, b):
        if isinstance(a, Leaf) and isinstance(b, Leaf):
            return compare_values(a.value, b.value, ctype.value, theory)
        if isinstance(a, OpNode) and isinstance(b, OpNode):
            if a.op != b.op or a.param != b.param:
                return False if canonical else None
            verdict = True
            for sa, sb in zip(a.kont, b.kont):
                verdict = _both(verdict, walk(sa, sb))
                if verdict is False:
                    return False
            return verdict
        return False if canonical else None

    return walk(t1, t2)


def check_handler_equations(
    h: HandlerClosure, theory: Theory, out_type: CompType, budget: int | None = None
) -> HandlerCheck:
    """Replay each equation family through the handler's clauses.

    The generic continuation is instantiated with probe leaves, one fresh
    symbolic value per context generator; both sides are folded through the
    clauses and compared at the handler's output type.  A violation is a
    definite counterexample; equations mentioning unhandled operations are
    skipped and reported.  At most ``budget`` instances are checked (by
    default ``default_budget()``); any left over make the verdict unknown.
    """
    covered = {cl.op for cl in h.code.clauses}
    skipped = []
    unknown = False
    checked = 0
    budget = budget if budget is not None else default_budget()

    def push(tree) -> FreeElement:
        if isinstance(tree, Leaf):
            return FreeElement(theory, Leaf(SymVal(("kont", tree.value))))
        branches = tuple(push(sub) for sub in tree.kont)
        clause = h.code.clause_for(tree.op)
        decl = theory.op(tree.op)
        env = {
            **h.env,
            clause.param_name: tree.param,
            clause.kont_name: KontValue(decl.arity, branches),
        }
        return eval_pure(clause.body, env, theory)

    for eq in theory.eqs:
        instances = [(p, eq.lhs(p), eq.rhs(p)) for p in eq.param_universe.iter_elements()]
        used = set()
        for _, lhs, rhs in instances:
            used |= tree_ops(lhs) | tree_ops(rhs)
        if not used <= covered:
            skipped.append(eq.name)
            continue
        for p, lhs, rhs in instances:
            if checked >= budget:
                unknown = True
                break
            checked += 1
            try:
                left = push(lhs)
                right = push(rhs)
            except AlgeffError:
                unknown = True
                continue
            verdict = compare_trees(left.tree, right.tree, out_type, theory)
            if verdict is False:
                return HandlerCheck(HandlerVerdict.VIOLATED, eq.name, p, tuple(skipped))
            if verdict is None:
                unknown = True
    if unknown:
        return HandlerCheck(HandlerVerdict.UNKNOWN, skipped=tuple(skipped))
    return HandlerCheck(HandlerVerdict.RESPECTED, skipped=tuple(skipped))
