"""Signatures, effect trees, equations, and theories.

A tree is either a ``Return`` leaf over a generator value or an operation
node carrying a parameter and one subtree per element of the operation's
arity.  Continuations are stored positionally, indexed by the arity
universe's canonical enumeration, so two trees are equal exactly when they
have the same shape, operations, parameters and leaves.  Values compare by
``==`` and by type, through tuples, so ``Return(1) != Return(True)``.
Trees are immutable.  An operation node caches its hash the first time it
is asked for, worked out by ``node_hash`` from its parts; a leaf's hash is
its value's.  Equality and hashing recurse
at most 100 levels at a time and keep deeper subtrees on an explicit list,
so trees of any depth compare and hash; they fold (``fold_tree``) and
walk in preorder (``subtrees``) on explicit stacks too.  Their base,
``_Node``, is the base of every other record class in the package too.
An equation side written in theory syntax is held as data, its shape
(``_Instances``), read by one walk in an algebra (``compile``).  In the
free algebra (``FREE``), once a tree is built from it, it is a builder of
its tree for a replay: a binder body is a ``Branches`` node, which builds
a branch only when a replay selects it, at an element or at a symbol
(``ParamSymbol``).  A whole instance is that tree with every ``Branches``
expanded in place, built anew each time it is asked for, and not kept.
"""

from __future__ import annotations

import gc
from itertools import islice
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from .errors import (
    EvalError,
    IncompleteContinuation,
    ParameterOutOfUniverse,
    UnboundGenerator,
    UnknownOperation,
)

if TYPE_CHECKING:
    from .universe import FiniteUniverse


class _Node:
    """An immutable record, with no generated code.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``_fill``, since assignment raises AttributeError.
    Its ``_fill`` takes one value per slot of ``_state``, its base's slots
    first, and sets each through the slot descriptor's own setter, which
    ``_Node.__setattr__`` does not stand in the way of; a record has at
    most five slots (``_filler``).  A base that sets only its own slots
    calls its own class's ``_fill``, as ``Interpretation`` does under
    ``FiniteModel``, which then sets its carrier through that slot's
    setter.  Its ``_fields``, unless it lists them, are its public slots,
    its base's first.  Records of one class are equal when their fields
    are; the hash is the fields' tuple's, the repr ``Name(field=value,
    ...)``.  A class that compares by identity takes ``object``'s
    ``__eq__`` and ``__hash__``.  Copies and pickles refill every slot
    (``_state``) without calling ``__init__``.
    """

    __slots__ = ()
    _fields = ()
    _state = ()

    def __init_subclass__(cls):
        own = tuple(s for s in cls.__dict__.get("__slots__", ()) if s != "__weakref__")
        cls._state = cls._state + own
        if "_fields" not in cls.__dict__:
            cls._fields = cls._fields + tuple(s for s in own if s[0] != "_")
        get = attrgetter(*cls._fields) if cls._fields else lambda self: ()
        # a tuple for one field too, as for any other number
        cls._values = staticmethod((lambda self: (get(self),)) if len(cls._fields) == 1 else get)
        cls._fill = _filler(tuple(getattr(cls, name).__set__ for name in cls._state))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return _restore, (type(self), tuple(getattr(self, name) for name in self._state))


def _filler(setters: tuple):
    """A ``_fill`` that calls each slot's setter with the record and its
    value.  The calls are written out: a ``run`` round builds thousands of
    records, and with a loop over the setters it takes about 3% longer."""
    if len(setters) > 5:
        raise TypeError(f"a record has at most five slots, not {len(setters)}")
    a, b, c, d, e = setters + (None,) * (5 - len(setters))
    return (
        lambda self: None,
        lambda self, v: a(self, v),
        lambda self, v, w: (a(self, v), b(self, w)),
        lambda self, v, w, x: (a(self, v), b(self, w), c(self, x)),
        lambda self, v, w, x, y: (a(self, v), b(self, w), c(self, x), d(self, y)),
        lambda self, v, w, x, y, z: (a(self, v), b(self, w), c(self, x), d(self, y), e(self, z)),
    )[len(setters)]


def _restore(cls, values):
    record = object.__new__(cls)
    record._fill(*values)
    return record


class OpDecl(_Node):
    """An operation symbol with a parameter set and an arity."""

    __slots__ = ("name", "param", "arity")
    name: str
    param: FiniteUniverse
    arity: FiniteUniverse

    def __init__(self, name: str, param: FiniteUniverse, arity: FiniteUniverse):
        self._fill(name, param, arity)


class Return(_Node):
    """A leaf.  Its hash is its value's, computed when asked for, since the
    value may be unhashable (a closure with an environment, say)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        _set_value(self, value)

    def __hash__(self):
        return hash(self.value)

    def __eq__(self, other):
        if type(other) is Return:
            return same_value(self.value, other.value)
        return False if type(other) is OpNode else NotImplemented


class OpNode(_Node):
    """An operation node.  It caches its hash the first time it is asked
    for (``_hash`` is None until then), and equality tries identity, then
    cached hashes, then structure."""

    __slots__ = ("op", "param", "kont", "_hash")

    def __init__(self, op: str, param: Any, kont: tuple):
        _set_op(self, op)
        _set_param(self, param)
        _set_kont(self, kont if type(kont) is tuple else tuple(kont))
        _set_hash(self, None)

    def __hash__(self):
        h = self._hash
        if h is None:
            waiting = [self]
            while waiting:
                if _hash_within(waiting[-1], _RECURSION_STEP, waiting) is not None:
                    waiting.pop()
            h = self._hash
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not OpNode:
            return False if type(other) is Return else NotImplemented
        h, other_h = self._hash, other._hash
        if h is not None and other_h is not None and h != other_h:
            return False
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b and not _same_within(a, b, _RECURSION_STEP, pairs):
                return False
        return True

    def __reduce__(self):
        # a fresh node, since a hash cached in one process is wrong in another
        return OpNode, (self.op, self.param, self.kont)


# the slots' own setters, since __setattr__ refuses every assignment
_set_value = Return.value.__set__
_set_op, _set_param, _set_kont = OpNode.op.__set__, OpNode.param.__set__, OpNode.kont.__set__
_set_hash = OpNode._hash.__set__

Tree = Return | OpNode


# Hashing and equality recurse at most this many levels at a time; deeper
# subtrees wait on an explicit list, so a tree of any depth is fine.
_RECURSION_STEP = 100


def _hash_within(t: OpNode, depth: int, waiting: list):
    """t's hash, or None after putting a node more than depth levels down on
    waiting, to be hashed first."""
    hashes = []
    for sub in t.kont:
        if type(sub) is Return:
            h = hash(sub.value)
        else:
            h = sub._hash
            if h is None:
                if not depth:
                    waiting.append(sub)
                    return None
                h = _hash_within(sub, depth - 1, waiting)
                if h is None:
                    return None
        hashes.append(h)
    h = node_hash(t.op, t.param, tuple(hashes))
    _set_hash(t, h)
    return h


def node_hash(op: str, param, kid_hashes: tuple) -> int:
    """The hash of an operation node, from its operation, its parameter and
    its subtrees' hashes; the congruence search hashes a tree it has not
    built by the same formula."""
    return hash((op, param, kid_hashes))


def same_value(a, b) -> bool:
    """a == b, with the same types all the way down through tuples, so that
    a boolean and an integer are never the same leaf or parameter."""
    return a is b or (
        type(a) is type(b)
        and a == b
        and (type(a) is not tuple or all(map(same_value, a, b)))
    )


def _same_within(a: Tree, b: Tree, depth: int, pairs: list) -> bool:
    """False if a and b differ within depth levels; subtree pairs further
    down go on pairs, to be compared later."""
    if type(a) is Return:
        return type(b) is Return and same_value(a.value, b.value)
    if (
        type(b) is not OpNode
        or a.op != b.op
        or not same_value(a.param, b.param)
        or len(a.kont) != len(b.kont)
    ):
        return False
    if not depth:
        pairs.extend(zip(a.kont, b.kont))
        return True
    for x, y in zip(a.kont, b.kont):
        if x is not y and not _same_within(x, y, depth - 1, pairs):
            return False
    return True


class ParamSymbol:
    """A symbol standing for every element of ``universe`` at once (an
    unknown set, when None), or a projection of one: ``path`` lists the
    ``fst`` (0) and ``snd`` (1) steps from its ``root``, and ``universe``
    is the projection's.  An equation family's parameter is one, and so is
    every sample of a function's domain; each has a root of its own, so
    two are never confused: ``==`` is True only with a symbol of the same
    root and path, and a symbol hashes by both.  Every other use inspects
    it and raises EvalError: ``==`` with any other value, truth, ordering,
    ``+``, iteration, length, indexing by it, a sort key, and membership
    of a universe, as an operation's argument or a continuation's index,
    which ``contains`` or ``==`` refuses.  The one exception is a node
    built from a binder body (``Branches``): a symbol whose universe lies
    in the node's arity selects the body built at the symbol."""

    __slots__ = ("path", "universe", "root")

    def __init__(self, path: tuple = (), universe=None, root=None):
        self.path = path
        self.universe = universe
        self.root = root

    def __getitem__(self, i):
        if type(i) is int and 0 <= i <= 1:
            part = None
            if self.universe is not None:
                # only a product universe has parts
                part = getattr(self.universe, ("left", "right")[i], None)
                if part is None:
                    return self._inspect(i)
            return ParamSymbol(self.path + (i,), part, self.root)
        return self._inspect(i)

    def __eq__(self, other):
        if type(other) is ParamSymbol and other.root is self.root and other.path == self.path:
            return True
        return self._inspect(other)

    def __hash__(self):
        return hash((id(self.root), self.path))

    def __repr__(self):
        return f"ParamSymbol({self.path!r})"

    def _inspect(self, *args):
        raise EvalError(f"the symbol {self!r} was inspected")

    __bool__ = __iter__ = __len__ = __contains__ = __index__ = __int__ = _inspect
    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = _inspect


class Branches:
    """An operation node built from a binder body (``FREE``), over its
    arity's ``elements``.  Its branch at an element, or at a symbol that
    stands only for elements of the arity, is the body built there
    (``branch``), and is not kept.  A replay (``_Instances.lazy``) reads
    such a tree; a whole instance expands each node in place
    (``_expand``)."""

    __slots__ = ("op", "param", "body", "env", "key", "elements")

    def __init__(self, op: str, param, body: Callable, env: dict, key: int, elements: tuple):
        self.op, self.param, self.body, self.env, self.key = op, param, body, env, key
        self.elements = elements

    def branch(self, a):
        env = self.env.copy()
        env[self.key] = a
        return self.body(env)


class Equation(_Node):
    """A family of tree pairs over a shared generator context.

    ``lhs``/``rhs`` map each element of ``param_universe`` to a tree whose
    leaves are elements of ``context``.  Unparameterized equations use the
    unit universe and ignore their argument.  A side may be a template, as
    a side written in theory syntax is (``_Instances``): then it also has
    ``shape``, the side as data, ``ops``, the operations each of its
    instances performs, and ``lazy(v)``, its tree for a replay at any
    value ``v``, such as a symbol standing for every parameter.
    """

    __slots__ = ("name", "param_universe", "context", "lhs", "rhs")
    name: str
    param_universe: FiniteUniverse
    context: FiniteUniverse
    lhs: Callable[[Any], Tree]
    rhs: Callable[[Any], Tree]

    def __init__(self, name, param_universe, context, lhs, rhs):
        self._fill(name, param_universe, context, lhs, rhs)


# An equation side written in theory syntax is read (``parser``) as a shape:
# a hashable tuple, tagged by its first item, which says how to build the
# side's tree at each parameter.
#   ("const", type, value)  an element no binder binds, typed, so that the
#                           shapes of true, 1 and "1" differ
#   _PARAM                  the forall parameter, whatever its name
#   ("var", k)              the binder of the k-th binder body, counted
#                           from the outside, whatever its name
#   ("pair", a, b), ("fst", e), ("snd", e)
#   ("return", e)
#   ("op", name, param, subtrees)     an operation node, subtrees positional
#   ("bind", name, param, arity, body)  one body, built at each element of
#                           the nonempty arity, in enumeration order
# Equal shapes build equal trees at every parameter.  An operation under an
# empty arity has no subtrees, however its text wrote them.
_PARAM = ("param",)


def _element(shape: tuple):
    """The one element compiler: ``shape`` as a function of an environment,
    a dict that maps 0 to the forall parameter and k to binder k's value."""
    tag = shape[0]
    if tag == "const":
        value = shape[2]
        return lambda env: value
    if tag == "param":
        return itemgetter(0)
    if tag == "var":
        return itemgetter(shape[1])
    if tag == "pair":
        first, second = _element(shape[1]), _element(shape[2])
        return lambda env: (first(env), second(env))
    pair, index = _element(shape[1]), 0 if tag == "fst" else 1
    return lambda env: pair(env)[index]


def compile(shape: tuple, algebra: tuple):
    """The side ``shape`` read in ``algebra``, ``(element, leaf, node,
    bind)``, parts first: ``element(e)`` an element (``_element`` where
    values count), ``leaf(value)`` a return, ``node(op, param, kids)`` an
    operation with positional subtrees, and ``bind(op, param, arity, body,
    key)`` one with ``body`` at each element of ``arity``, bound to ``key``."""
    return _read(shape, algebra, 0)


def _read(shape: tuple, algebra: tuple, depth: int):
    # a module-level function, since a nested one that calls itself is a
    # reference cycle per compile, which made a handler check 8% slower
    element, leaf, node, bind = algebra
    tag = shape[0]
    if tag == "return":
        return leaf(element(shape[1]))
    name, param = shape[1], element(shape[2])
    if tag == "op":
        return node(name, param, [_read(sub, algebra, depth) for sub in shape[3]])
    return bind(name, param, shape[3], _read(shape[4], algebra, depth + 1), depth + 1)


def _free_bind(op, param, arity, body, key):
    elements = arity.elements()
    return lambda env: Branches(op, param(env), body, env, key, elements)


# The free algebra: a side's tree for a replay, with a ``Branches`` at each binder body.
FREE = (_element, lambda value: lambda env: Return(value(env)),
        lambda op, param, kids: lambda env: OpNode(op, param(env), tuple([kid(env) for kid in kids])),
        _free_bind)
# The operations the trees of a side perform; it reads no element.
OPS = (lambda e: None, lambda value: frozenset(),
       lambda op, param, kids: frozenset((op,)).union(*kids),
       lambda op, param, arity, body, key: body | {op})


def _expand(t: OpNode | Branches) -> OpNode:
    """The operation node ``t`` with every ``Branches`` node in it, ``t``
    too, expanded in place into the operation node of all its branches.  A
    node's branches are built and expanded one after another, so they
    share its environment: each rebinds its own key, and no environment is
    copied.  A leaf is checked for at its parent, which saves a call at
    each of a large tree's leaves."""
    if type(t) is OpNode:
        kont = [sub if type(sub) is Return else _expand(sub) for sub in t.kont]
        return OpNode(t.op, t.param, tuple(kont))
    env, key, body, kont = t.env, t.key, t.body, []
    for a in t.elements:
        env[key] = a
        sub = body(env)
        kont.append(sub if type(sub) is Return else _expand(sub))
    return OpNode(t.op, t.param, tuple(kont))


class _Instances:
    """One side of an equation family written in theory syntax: its
    ``shape``, compiled in the free algebra (``FREE``) when the first tree
    is built from it.  ``lazy(v)`` builds the side's tree for a replay at
    any value, such as a symbol that stands for every parameter; calling
    it at a parameter builds the whole instance there, that tree with
    every ``Branches`` expanded (``_expand``).  Either is built anew each
    time, and not kept.  A parameter outside the family raises KeyError.
    ``ops`` are the operations every instance performs, the shape read in
    ``OPS`` when first asked for, and kept; a body under an empty arity is
    never built, so its operations are not among them.

    Its values never change, so a copy is the object itself.  A pickle
    holds every tree, and loads as the lookup of a plain dict."""

    __slots__ = ("shape", "params", "build", "_ops")

    def __init__(self, shape: tuple, params: FiniteUniverse):
        self.shape = shape
        self.params = params
        self.build = None  # compile(shape, FREE), once a tree is built
        self._ops = None

    @property
    def ops(self) -> frozenset:
        if self._ops is None:
            self._ops = compile(self.shape, OPS)
        return self._ops

    def __call__(self, p):
        """The side's whole tree at ``p``.

        A build makes no reference cycles, so the cycle collector, which
        would otherwise examine each new node several times over (half the
        time of a million-leaf build), pauses while it runs."""
        if not self.params.contains(p):
            raise KeyError(p)
        enabled = gc.isenabled()
        gc.disable()
        try:
            tree = self.lazy(p)
            return tree if type(tree) is Return else _expand(tree)
        finally:
            if enabled:
                gc.enable()

    def lazy(self, p):
        """The side's tree at ``p`` for a replay: each node built from a
        binder body is a ``Branches``, which builds a branch only when the
        replay selects it."""
        if self.build is None:
            self.build = compile(self.shape, FREE)
        return self.build({0: p})

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return getattr, ({p: self(p) for p in self.params.iter_elements()}, "__getitem__")


class Theory(_Node):
    """A named signature plus a family of equations.

    Theories compare by identity, and can be weakly referenced.  The name is
    a label for messages: proof strategies (see ``free.normalize``) follow
    from the operations and equation instances alone.
    """

    __slots__ = ("name", "ops", "eqs", "renames", "_by_name", "__weakref__")
    name: str
    ops: tuple
    eqs: tuple
    renames: tuple  # (original op name, new op name) pairs from combine()
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, name: str, ops, eqs=(), renames: tuple = ()):
        ops = tuple(ops)
        by_name = {o.name: o for o in ops}
        if len(by_name) != len(ops):
            raise ValueError(f"duplicate operation names in theory {name!r}")
        self._fill(name, ops, tuple(eqs), renames, by_name)

    def op(self, name: str) -> OpDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownOperation(f"theory {self.name!r} has no operation {name!r}") from None

    def has_op(self, name: str) -> bool:
        return name in self._by_name

    def op_names(self) -> tuple:
        return tuple(o.name for o in self.ops)


def make_tree_op(theory: Theory, op: str, p, kont: Mapping) -> OpNode:
    """Build a well-formed operation node from a map arity element -> tree.

    Raises UnknownOperation, ParameterOutOfUniverse, or
    IncompleteContinuation when the ingredients do not fit the signature.
    """
    decl = theory.op(op)
    if not decl.param.contains(p):
        raise ParameterOutOfUniverse(
            f"{p!r} is not a parameter of {op!r} (expects {decl.param})"
        )
    subs = []
    for a in decl.arity.iter_elements():
        try:
            subs.append(kont[a])
        except KeyError:
            raise IncompleteContinuation(
                f"continuation for {op!r} is missing arity element {a!r}"
            ) from None
    return OpNode(op, p, tuple(subs))


def fold_tree(t: Tree, leaf: Callable, node: Callable):
    """The one structural recursion on trees: ``leaf(value)`` at each leaf,
    leftmost first, and ``node(op, param, results)`` at each operation
    node, with its subtrees' results in a tuple, left to right.  The work
    waits on an explicit stack, so a tree of any depth folds."""
    out, stack = [], [t]
    while stack:
        n = stack.pop()
        if n is None:  # the node under this marker has its results atop out
            n = stack.pop()
            i = len(out) - len(n.kont)
            out[i:] = (node(n.op, n.param, tuple(out[i:])),)
        elif type(n) is Return:
            out.append(leaf(n.value))
        else:
            stack += (n, None)
            stack += reversed(n.kont)
    return out[0]


def subtrees(t: Tree) -> Iterator[Tree]:
    """The subtrees of t in preorder, t first."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is OpNode:
            stack.extend(reversed(node.kont))


def substitute(t: Tree, sigma: Mapping) -> Tree:
    """Replace each generator leaf by the tree sigma assigns to it."""
    def assigned(x):
        try:
            return sigma[x]
        except KeyError:
            raise UnboundGenerator(f"no tree assigned to generator {x!r}") from None

    return fold_tree(t, assigned, OpNode)


def tree_leaves(t: Tree) -> Iterator:
    """t's leaf values, left to right, at any depth."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Return):
            yield node.value
        else:
            stack.extend(reversed(node.kont))


def tree_ops(t: Tree) -> set:
    """The operations t performs, at any depth."""
    found = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is OpNode:
            found.add(node.op)
            stack += node.kont
    return found


def _check_laws(eqs, check: Callable, covered: set | None = None,
                budget: int | None = None, stop_at_skip: bool = False,
                family: Callable | None = None, build: Callable | None = None) -> tuple:
    """The one law checker: each equation of ``eqs`` in order, then each of
    its parameters.  ``check(eq, p, lhs, rhs)`` compares an instance's two
    sides at every point of its interpretation and returns True when they
    agree, None when it cannot tell, else a witness, which ends the check.
    With ``covered`` (operation names), an equation performing any other
    operation is skipped (``stop_at_skip`` ends the check there).  Its
    operations are read from its sides when both are templates
    (``_Instances``), once per side, else from all its instances, built
    first.  A side is handed to ``check`` as its tree at ``p``, or, with
    ``build``, a template side as ``build(side)(p)``, such as its tree for
    a replay (``_Instances.lazy``); ``build`` is called once per side of
    each equation checked, after its coverage.  ``family(eq)``, when
    given, may vouch for every instance of an equation whose sides are
    templates over more than one parameter; then they all count as
    checked, and otherwise its instances are checked one by one.  At most
    ``budget`` instances are checked (None: all); any left over leave the
    check undecided.  Returns ``(witness or None, [(equation name, sorted
    missing ops)], undecided)``.
    """
    skipped, undecided, checked = [], False, 0
    for eq in eqs:
        templates = type(eq.lhs) is _Instances and type(eq.rhs) is _Instances
        instances = None
        if covered is not None:
            if templates:
                used = eq.lhs.ops | eq.rhs.ops
            else:
                instances = [(p, eq.lhs(p), eq.rhs(p)) for p in eq.param_universe.iter_elements()]
                used = set().union(*(tree_ops(t) for _, lhs, rhs in instances for t in (lhs, rhs)))
            if not used <= covered:
                skipped.append((eq.name, sorted(used - covered)))
                if stop_at_skip:
                    break
                continue
        if instances is None:
            at_l, at_r = eq.lhs, eq.rhs
            if templates and build is not None:
                at_l, at_r = build(at_l), build(at_r)
            instances = ((p, at_l(p), at_r(p)) for p in eq.param_universe.iter_elements())
        size = eq.param_universe.size()
        left = size if budget is None else min(size, budget - checked)
        if family is not None and templates and size > 1 and left and family(eq):
            checked += left
        else:
            # islice stops before building an instance past the budget
            for p, lhs, rhs in islice(instances, left):
                checked += 1
                verdict = check(eq, p, lhs, rhs)
                if verdict is None:
                    undecided = True
                elif verdict is not True:
                    return verdict, skipped, undecided
        undecided = undecided or left < size
    return None, skipped, undecided


def tree_depth(t: Tree) -> int:
    return fold_tree(t, lambda x: 0, lambda op, p, depths: 1 + max(depths, default=0))


def rename_tree_ops(t: Tree, mapping: Mapping) -> Tree:
    return fold_tree(t, Return, lambda op, p, kont: OpNode(mapping.get(op, op), p, kont))


def check_tree(theory: Theory, context: FiniteUniverse, t: Tree) -> None:
    """Assert that ``t`` is well-formed over the theory's signature with
    generators drawn from ``context``; raises on the first defect in
    preorder."""
    for sub in subtrees(t):
        if type(sub) is Return:
            if context.contains(sub.value):
                continue
            raise UnboundGenerator(f"leaf {sub.value!r} is not a generator of context {context}")
        decl = theory.op(sub.op)
        if not decl.param.contains(sub.param):
            raise ParameterOutOfUniverse(
                f"{sub.param!r} is not a parameter of {decl.name!r} (expects {decl.param})"
            )
        if len(sub.kont) != decl.arity.size():
            raise IncompleteContinuation(
                f"node {sub.op!r} has {len(sub.kont)} subtrees, arity has {decl.arity.size()}"
            )


def check_theory(theory: Theory) -> None:
    """Validate every equation family exhaustively over its parameters."""
    for eq in theory.eqs:
        for p in eq.param_universe.iter_elements():
            check_tree(theory, eq.context, eq.lhs(p))
            check_tree(theory, eq.context, eq.rhs(p))


def sort_key(value) -> tuple:
    """A deterministic total order on the leaf values this package uses."""
    if isinstance(value, tuple):
        return (4, tuple(sort_key(v) for v in value))
    if type(value) is bool:
        return (1, value)
    if isinstance(value, int):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if type(value) is ParamSymbol:  # its place in the order would be a guess
        value._inspect()
    return (9, repr(value))
