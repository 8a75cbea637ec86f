"""Helpers shared by the ribbon graph tests."""

from nlab.ribbon.census import canonical_labeled, label_key
from nlab.ribbon.graph import RibbonError, RibbonGraph


def partitions(total, min_part):
    """Partitions of `total` into parts >= min_part, weakly decreasing."""
    out = []

    def rec(rest, maxp, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        p = min(rest, maxp)
        while p >= min_part:
            if rest - p == 0 or rest - p >= min_part:
                acc.append(p)
                rec(rest - p, p, acc)
                acc.pop()
            p -= 1

    rec(total, total, [])
    return out


def euler_characteristic(cx):
    """The alternating sum of a RibbonComplex's basis sizes."""
    return sum((-1) ** k * len(b) for k, b in cx.basis.items())


def relabel(graph, perm):
    """The image of a ribbon graph under an old->new dart bijection."""
    n = graph.n
    g2 = [0] * n
    i2 = [0] * n
    for d in range(n):
        g2[perm[d]] = perm[graph.gamma[d]]
        i2[perm[d]] = perm[graph.iota[d]]
    return RibbonGraph(i2, g2, check=False)


def polygon(k) -> RibbonGraph:
    """The k-gon: k bivalent vertices in a single cycle (genus 0, 2 faces).

    Vertex j carries darts 2j, 2j+1 with gamma swapping them; dart 2j+1 is
    glued to dart 2(j+1) of the next vertex.
    """
    if k < 1:
        raise RibbonError("polygon needs k >= 1")
    n = 2 * k
    gamma = [0] * n
    iota = [0] * n
    for j in range(k):
        gamma[2 * j] = 2 * j + 1
        gamma[2 * j + 1] = 2 * j
        iota[2 * j + 1] = (2 * j + 2) % n
        iota[(2 * j + 2) % n] = 2 * j + 1
    return RibbonGraph(iota, gamma)


def polygon_class(k, face_labels=(None, None)):
    """The k-gon as a (possibly labeled) class."""
    return canonical_labeled(polygon(k), face_labels, label_key(face_labels))
