"""Deterministic pseudo-random tree corpora for property tests."""

import random

from algeff.terms import OpNode, Return, fold_tree


def tree_depth(t) -> int:
    """The number of operation nodes on t's longest path."""
    return fold_tree(t, lambda x: 0, lambda op, p, depths: 1 + max(depths, default=0))


def random_tree(theory, gen_values, max_depth, rng):
    """One random tree over the theory's signature with the given leaves."""
    ops = theory.ops
    if max_depth <= 0 or not ops or rng.random() < 0.35:
        return Return(rng.choice(gen_values))
    decl = rng.choice(ops)
    params = decl.param.elements()
    if not params:
        return Return(rng.choice(gen_values))
    p = rng.choice(params)
    kont = tuple(
        random_tree(theory, gen_values, max_depth - 1, rng)
        for _ in range(decl.arity.size())
    )
    return OpNode(decl.name, p, kont)


def tree_corpus(theory, gen_values, count, max_depth, seed):
    rng = random.Random(seed)
    return [random_tree(theory, gen_values, max_depth, rng) for _ in range(count)]
