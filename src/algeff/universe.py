"""Finite, enumerable value universes.

A universe doubles as an operation's arity (the continuation's index set)
and as a parameter set.  Elements are plain Python values: the unit element
is ``()``, booleans and range integers are themselves, enum elements are
their labels, and product elements are pairs.
"""

from __future__ import annotations

from functools import reduce
from operator import getitem
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


class Apart(Product):
    """The elements of the product of ``left`` and ``right`` whose
    components at the paths ``first`` and ``second`` differ, or, with
    ``ascending``, come in that order in the universe both lie in.  A path
    lists ``[0]`` and ``[1]`` steps, and neither path extends the other.
    The elements come in the product's order, and its parts, as ``fst``,
    ``snd`` and a symbol's projections read them, are the product's: a
    law's side condition, such as ``state``'s distinct locations."""

    __slots__ = ("first", "second", "ascending")
    first: tuple
    second: tuple
    ascending: bool

    def __init__(self, left, right, first: tuple, second: tuple, ascending: bool = False):
        self._fill(left, right, first, second, ascending)

    def _part(self) -> FiniteUniverse:
        return reduce(lambda u, step: u.right if step else u.left, self.first, self)

    def _keeps(self, x) -> bool:
        part = self._part()
        i, j = (part.index_of(reduce(getitem, path, x)) for path in (self.first, self.second))
        return i < j if self.ascending else i != j

    def _later(self, i: int, n: int) -> range | list:
        """The part's indices the later path may take when the earlier one
        takes index i."""
        if not self.ascending:
            return [*range(i), *range(i + 1, n)]
        return range(i + 1, n) if self.first < self.second else range(i)

    def _stride(self, path: tuple) -> int:
        """How far apart, in the product's order, two elements lie that
        differ only in the part at ``path``, there by one index."""
        u, stride = self, 1
        for step in path:
            if step:
                u = u.right
            else:
                stride *= u.right.size()
                u = u.left
        return stride

    def size(self):
        n = self._part().size()
        return n and super().size() // (n * n) * n * (n - 1) // (1 + self.ascending)

    def iter_elements(self):
        part = self._part().elements()
        earlier, later = sorted((self.first, self.second))  # in the product's order

        def walk(u, here, i):
            # u's elements, u being the universe at path ``here``, each with
            # the earlier path's index: taken in u, or ``i``, taken before u
            if here == earlier:
                return enumerate(part)
            if here == later:
                return ((i, part[j]) for j in self._later(i, len(part)))
            if here != earlier[: len(here)] and here != later[: len(here)]:
                return ((i, x) for x in u.iter_elements())
            return (
                (k, (a, b))
                for h, a in walk(u.left, here + (0,), i)
                for k, b in walk(u.right, here + (1,), h)
            )

        return (x for _, x in walk(self, (), None))

    def contains(self, x):
        return super().contains(x) and self._keeps(x)

    def index_of(self, x):
        """x's index in the product, less the elements before it that the
        side condition leaves out.  With i and j the earlier and the later
        path's indices, the product's index is read as the mixed-radix
        number (a, i, b, j, c), where a, b and c count the elements of the
        parts before, between and after the two paths."""
        if not self.contains(x):
            raise ValueError(f"{x!r} is not in {self}")
        part = self._part()
        n = part.size()
        earlier, later = sorted((self.first, self.second))  # in the product's order
        i, j = (part.index_of(reduce(getitem, path, x)) for path in (earlier, later))
        wi, wj = self._stride(earlier), self._stride(later)
        rest = super().index_of(x) - i * wi - j * wj
        a, b, c = rest // (n * wi), rest % wi // (n * wj), rest % wj
        between = wi // (n * wj)  # the elements of the parts between the paths
        if not self.ascending:
            before, at, below = i * (n - 1), n - 1, j - (i < j)
        elif earlier == self.first:  # j ranges over i + 1 .. n - 1
            before, at, below = i * (n - 1) - i * (i - 1) // 2, n - 1 - i, j - i - 1
        else:  # j ranges over 0 .. i - 1
            before, at, below = i * (i - 1) // 2, i, j
        pairs = n * (n - 1) // (1 + self.ascending)
        return (((a * pairs + before) * between + b * at) + below) * wj + c


def _within(source: FiniteUniverse, target: FiniteUniverse) -> bool:
    """Whether every element of ``source`` is in ``target``: at once when
    the two are equal, part by part for two products, else by listing
    ``source`` up to its first element outside ``target``, which comes
    within one more than ``target``'s size."""
    if source == target:
        return True
    if type(source) is Product and type(target) is Product:
        return _within(source.left, target.left) and _within(source.right, target.right)
    return all(map(target.contains, source.iter_elements()))


EMPTY = Empty()
UNIT = Unit()
BOOL = Bool()
