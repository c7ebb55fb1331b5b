"""Finite, enumerable value universes.

A universe doubles as an operation's arity (the continuation's index set)
and as a parameter set.  Elements are plain Python values: the unit element
is ``()``, booleans and range integers are themselves, enum elements are
their labels, and product elements are pairs.
"""

from __future__ import annotations

from typing import Iterator

from .terms import _Node


class FiniteUniverse(_Node):
    """Base for the universe shapes; instances are immutable and hashable."""

    __slots__ = ()

    def size(self) -> int:
        raise NotImplementedError

    def elements(self) -> list:
        """Canonical enumeration: duplicate-free and deterministically ordered."""
        return list(self.iter_elements())

    def iter_elements(self) -> Iterator:
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def index_of(self, x) -> int:
        """Position of ``x`` in the canonical enumeration."""
        raise NotImplementedError

    def is_empty(self) -> bool:
        return self.size() == 0


class Empty(FiniteUniverse):
    __slots__ = ()

    def size(self):
        return 0

    def iter_elements(self):
        return iter(())

    def contains(self, x):
        return False

    def index_of(self, x):
        raise ValueError("the empty universe has no elements")


class Unit(FiniteUniverse):
    __slots__ = ()

    def size(self):
        return 1

    def iter_elements(self):
        yield ()

    def contains(self, x):
        return x == () and isinstance(x, tuple)

    def index_of(self, x):
        if not self.contains(x):
            raise ValueError(f"{x!r} is not the unit element")
        return 0


class Bool(FiniteUniverse):
    __slots__ = ()

    def size(self):
        return 2

    def iter_elements(self):
        yield False
        yield True

    def contains(self, x):
        # type check, not ==: in Python False == 0, which would let Fin
        # elements slip into a boolean universe
        return type(x) is bool

    def index_of(self, x):
        if not self.contains(x):
            raise ValueError(f"{x!r} is not a boolean")
        return 1 if x else 0


class Fin(FiniteUniverse):
    """The integers 0 .. n-1, for positive n."""

    __slots__ = ("n",)
    n: int

    def __init__(self, n: int):
        if not (isinstance(n, int) and n >= 1):
            raise ValueError(f"Fin expects a positive size, got {n!r}")
        self._fill(n)

    def size(self):
        return self.n

    def iter_elements(self):
        return iter(range(self.n))

    def contains(self, x):
        return type(x) is int and 0 <= x < self.n

    def index_of(self, x):
        if not self.contains(x):
            raise ValueError(f"{x!r} is not in Fin({self.n})")
        return x


class Enum(FiniteUniverse):
    """A universe of named elements; the labels are the elements."""

    __slots__ = ("labels",)
    labels: tuple

    def __init__(self, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("enum labels must be distinct")
        if not all(isinstance(l, str) for l in labels):
            raise ValueError("enum labels must be strings")
        self._fill(labels)

    def size(self):
        return len(self.labels)

    def iter_elements(self):
        return iter(self.labels)

    def contains(self, x):
        return isinstance(x, str) and x in self.labels

    def index_of(self, x):
        if not self.contains(x):
            raise ValueError(f"{x!r} is not a label of {self.labels}")
        return self.labels.index(x)


class Product(FiniteUniverse):
    __slots__ = ("left", "right")
    left: FiniteUniverse
    right: FiniteUniverse

    def __init__(self, left: FiniteUniverse, right: FiniteUniverse):
        self._fill(left, right)

    def size(self):
        return self.left.size() * self.right.size()

    def iter_elements(self):
        # lexicographic: the left coordinate varies slowest
        for a in self.left.iter_elements():
            for b in self.right.iter_elements():
                yield (a, b)

    def contains(self, x):
        return (
            type(x) is tuple
            and len(x) == 2
            and self.left.contains(x[0])
            and self.right.contains(x[1])
        )

    def index_of(self, x):
        if not self.contains(x):
            raise ValueError(f"{x!r} is not in {self}")
        return self.left.index_of(x[0]) * self.right.size() + self.right.index_of(x[1])


EMPTY = Empty()
UNIT = Unit()
BOOL = Bool()
