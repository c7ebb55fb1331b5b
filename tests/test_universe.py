import pytest

from algeff.universe import BOOL, EMPTY, UNIT, Apart, Enum, Fin, Product

ALL = [
    EMPTY,
    UNIT,
    BOOL,
    Fin(1),
    Fin(4),
    Enum(("a", "b", "c")),
    Product(Fin(2), Fin(3)),
    Product(BOOL, Enum(("l", "r"))),
    Product(Product(UNIT, BOOL), Fin(2)),
]


def closed_form_size(u):
    if isinstance(u, Product):
        return closed_form_size(u.left) * closed_form_size(u.right)
    if isinstance(u, Enum):
        return len(u.labels)
    if isinstance(u, Fin):
        return u.n
    return {EMPTY: 0, UNIT: 1, BOOL: 2}[u]


@pytest.mark.parametrize("u", ALL)
def test_enumeration_length_matches_closed_form(u):
    assert len(u.elements()) == u.size() == closed_form_size(u)


@pytest.mark.parametrize("u", ALL)
def test_enumeration_is_injective(u):
    elems = u.elements()
    assert len(set(map(repr, elems))) == len(elems)


@pytest.mark.parametrize("u", ALL)
def test_index_of_agrees_with_enumeration(u):
    for i, x in enumerate(u.elements()):
        assert u.contains(x)
        assert u.index_of(x) == i


def test_empty_universe():
    assert EMPTY.elements() == []
    assert not EMPTY.contains(())


def test_bool_enumeration_order():
    assert BOOL.elements() == [False, True]


def test_product_is_lexicographic():
    # independent cross-product oracle
    expected = []
    for a in range(2):
        for b in range(3):
            expected.append((a, b))
    assert Product(Fin(2), Fin(3)).elements() == expected


def test_bool_and_fin_do_not_alias():
    assert not BOOL.contains(0)
    assert not Fin(2).contains(True)
    assert BOOL.contains(False)
    assert Fin(2).contains(0)


def test_fin_requires_positive_size():
    with pytest.raises(ValueError):
        Fin(0)


def test_enum_requires_distinct_labels():
    with pytest.raises(ValueError):
        Enum(("a", "a"))


def test_unit_element_is_empty_tuple():
    assert UNIT.elements() == [()]
    assert UNIT.contains(())
    assert not UNIT.contains(0)


APART = [
    Apart(Fin(3), Fin(3), (0,), (1,)),
    Apart(Fin(3), Fin(3), (0,), (1,), True),
    Apart(Fin(1), Fin(1), (0,), (1,)),
    Apart(Product(Fin(2), BOOL), Fin(2), (0, 0), (1,)),
    Apart(Product(Enum(("a", "b", "c")), BOOL), Product(Enum(("a", "b", "c")), UNIT),
          (0, 0), (1, 0), True),
    Apart(Product(BOOL, Fin(2)), Product(Fin(3), Fin(2)), (0, 1), (1, 1)),
]


@pytest.mark.parametrize("u", APART, ids=repr)
def test_apart_lists_the_product_s_elements_that_keep_apart(u):
    product = Product(u.left, u.right)
    at = lambda x, path: x[path[0]] if len(path) == 1 else at(x[path[0]], path[1:])
    part = product
    for step in u.first:
        part = (part.left, part.right)[step]
    keep = ((lambda i, j: i < j) if u.ascending else (lambda i, j: i != j))
    expected = [x for x in product.elements()
                if keep(part.index_of(at(x, u.first)), part.index_of(at(x, u.second)))]
    assert u.elements() == expected
    assert u.size() == len(expected) and u.is_empty() == (not expected)
    for i, x in enumerate(expected):
        assert u.contains(x) and u.index_of(x) == i
    for x in product.elements():
        if x not in expected:
            assert not u.contains(x)
            with pytest.raises(ValueError):
                u.index_of(x)
    assert not u.contains(None) and not u.contains((0,))
