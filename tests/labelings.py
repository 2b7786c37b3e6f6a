"""Labeling helpers shared by the tests."""


def cells_of(labels):
    """Point tuples of each cell of a labeling, in first-occurrence order."""
    groups = {}
    for x, c in enumerate(labels):
        groups.setdefault(c, []).append(x)
    return [tuple(v) for v in groups.values()]


def membership(n, seed_sets):
    """The labeling of range(n) by which seed sets hold each point."""
    sets = [set(s) for s in seed_sets]
    return [tuple(x in s for s in sets) for x in range(n)]
