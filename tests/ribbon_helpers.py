"""Helpers shared by the ribbon graph tests."""

from nlab.ribbon.graph import RibbonGraph


def relabel(graph, perm):
    """The image of a ribbon graph under an old->new dart bijection."""
    n = graph.n
    g2 = [0] * n
    i2 = [0] * n
    for d in range(n):
        g2[perm[d]] = perm[graph.gamma[d]]
        i2[perm[d]] = perm[graph.iota[d]]
    return RibbonGraph(i2, g2, check=False)
