import random

import pytest

import nlab.kernels as kernels
from nlab.ribbon.census import (_close, _splits, automorphisms, iso_classes, iso_levels,
                                labeled_search)
from nlab.ribbon.complexes import bottom_degree

from ribbon_helpers import partitions, relabel


def test_disconnected_maps_rejected():
    # two disjoint loops
    iota = [1, 0, 3, 2]
    gamma = [1, 0, 3, 2]
    with pytest.raises(ValueError):
        kernels.canonical_data(iota, gamma)


def test_canonical_code_shape():
    code, perms = kernels.canonical_data([1, 0], [1, 0])
    g2, i2 = code
    assert len(g2) == len(i2) == 2
    assert perms


def test_vertex_splitting_equals_pairing_scan():
    # (genus, faces, min_valence, top degree): iso_classes generates by
    # vertex splitting; the oracle scans every pairing of every valence
    # partition and dedupes by canonical form
    families = [(0, 3, 3, 3), (0, 4, 3, 6), (1, 1, 3, 3), (1, 2, 3, 6),
                (0, 5, 3, 6), (2, 1, 3, 6), (0, 3, 2, 5), (1, 1, 2, 4)]
    for g, m, v, top in families:
        for k in range(1, top + 1):
            scanned = set()
            for valences in partitions(2 * k, v):
                scanned.update(kernels.scan_pairings(list(valences), g, m))
            split = iso_classes(k, v, g, m)
            assert [(c.gamma, c.iota) for c in split] == \
                [(gamma, iota) for gamma, iota in sorted(scanned)], (g, m, v, k)


def _pairings(darts):
    """Every fixed-point-free involution of the given darts, as pair lists."""
    if not darts:
        yield []
        return
    d, rest = darts[0], darts[1:]
    for t, e in enumerate(rest):
        for pairs in _pairings(rest[:t] + rest[t + 1:]):
            yield [(d, e)] + pairs


def test_one_vertex_scan_equals_every_pairing():
    # the scan keeps the least rotation of each one-vertex map; the oracle
    # searches every pairing of 2k darts around one vertex, dedupes by code
    # and groups the classes by (genus, faces)
    for n in range(2, 13, 2):
        gamma = [(d + 1) % n for d in range(n)]
        oracle = {}
        for pairs in _pairings(list(range(n))):
            iota = [0] * n
            for a, b in pairs:
                iota[a], iota[b] = b, a
            faces = kernels._count_faces(iota, gamma)
            code, perms = kernels.canonical_data(iota, gamma)
            genus = (n // 2 + 1 - faces) // 2
            oracle.setdefault((genus, faces), {}).setdefault(code, automorphisms(perms))
        assert set(oracle) == {(g, n // 2 + 1 - 2 * g) for g in range(n // 4 + 1)}, n
        for g in range(n // 4 + 1):
            m = n // 2 + 1 - 2 * g
            scanned = kernels.scan_pairings([n], g, m)
            want = oracle[g, m]
            assert list(scanned) == sorted(want), (n, g, m)
            assert [automorphisms(p) for p in scanned.values()] == \
                [want[code] for code in scanned], (n, g, m)


def test_odd_dart_count_scans_to_empty_dict():
    assert kernels.scan_pairings([3], 1, 1) == {} and kernels.scan_pairings([1, 2], 0, 1) == {}


def _ordered_splits(graphs, min_valence):
    """Every split (i, j) of every vertex, mirrors included: the codes of
    the loop over all i < a and min_valence - 1 <= j <= a + 1 - min_valence."""
    out = set()
    for g in graphs:
        n = g.n
        iota = list(g.iota) + [n + 1, n]
        for cyc in g.vertices:
            a = len(cyc)
            for j in range(min_valence - 1, a + 2 - min_valence):
                for i in range(a):
                    gamma = list(g.gamma) + [n, n + 1]
                    _close(gamma, n, [cyc[(i + j + t) % a] for t in range(a - j)])
                    _close(gamma, n + 1, [cyc[(i + t) % a] for t in range(j)])
                    out.add(kernels.canonical_data(iota, gamma)[0])
    return out


def test_unordered_splits_equal_ordered_splits():
    # _splits skips each split's mirror (i + j, a - j); the code set of every
    # degree must be the one of the loop over all ordered (i, j)
    for g, m, v, top in [(0, 6, 3, 7), (3, 1, 3, 7), (1, 3, 3, 7), (1, 2, 2, 6), (0, 4, 1, 5)]:
        kmin = bottom_degree(g, m)
        levels = list(iso_levels(kmin, top - 1, v, g, m))
        assert levels[-1][1], (g, m, v)
        for k, graphs, _ in levels:
            assert set(_splits(graphs, v)) == _ordered_splits(graphs, v), (g, m, v, k)


def _reference_canonical(iota, gamma, labels):
    """Every root's BFS relabeling run to the end, then the minimal code and
    the relabelings reaching it in root order."""
    n = len(iota)
    found = []
    for root in range(n):
        perm = {root: 0}
        order = [root]
        for d in order:
            for nb in (gamma[d], iota[d]):
                if nb not in perm:
                    perm[nb] = len(order)
                    order.append(nb)
        if len(order) < n:
            raise ValueError("disconnected map")
        code = (tuple(perm[gamma[d]] for d in order), tuple(perm[iota[d]] for d in order),
                tuple(labels[d] for d in order))
        found.append((code, tuple(perm[d] for d in range(n))))
    best = min(code for code, _ in found)
    return best, [p for code, p in found if code == best]


def _random_map(rng, n):
    darts = list(range(n))
    rng.shuffle(darts)
    iota = [0] * n
    for a, b in zip(darts[::2], darts[1::2]):
        iota[a], iota[b] = b, a
    gamma = list(range(n))
    rng.shuffle(gamma)
    return iota, gamma


def _bouquet(k, step):
    """One vertex of valence 2k with dart d paired to d + step (mod 2k)."""
    n = 2 * k
    iota = [0] * n
    for d in range(0, n):
        if (d // step) % 2 == 0:
            iota[d], iota[d + step] = d + step, d
    return iota, [(d + 1) % n for d in range(n)]


def _search(iota, gamma, labels):
    """The label-aware search: labeled_search over the unlabeled one."""
    return labeled_search(kernels.canonical_data(iota, gamma), labels)


def test_pruned_canonical_search_matches_full_scan():
    from nlab.ribbon.graph import RibbonGraph
    from ribbon_helpers import polygon
    rng = random.Random(11)
    disconnected = connected = 0
    for _ in range(400):
        n = 2 * rng.randint(1, 7)
        iota, gamma = _random_map(rng, n)
        labels = [rng.randint(0, 2) for _ in range(n)]
        try:
            want = _reference_canonical(iota, gamma, labels)
        except ValueError:
            disconnected += 1
            with pytest.raises(ValueError):
                _search(iota, gamma, labels)
            continue
        connected += 1
        assert _search(iota, gamma, labels) == want
    assert disconnected > 20 and connected > 100
    # maps with |Aut| > 1, relabeled at random so every root order occurs
    theta = RibbonGraph([2, 4, 0, 5, 1, 3], [1, 3, 5, 0, 2, 4])
    symmetric = [polygon(k) for k in range(1, 7)] + [theta]
    symmetric += [RibbonGraph(*_bouquet(k, s)) for k, s in [(2, 1), (2, 2), (3, 3), (4, 4), (4, 2)]]
    for graph in symmetric:
        face_keys = [[0] * graph.n, [0] * graph.n]
        for d in graph.faces[0]:
            face_keys[1][d] = 1  # one face told apart from the rest
        for labels in face_keys:
            want = _reference_canonical(graph.iota, graph.gamma, labels)
            assert _search(graph.iota, graph.gamma, labels) == want
        assert len(_reference_canonical(graph.iota, graph.gamma, face_keys[0])[1]) > 1, graph
        for _ in range(5):
            perm = list(range(graph.n))
            rng.shuffle(perm)
            h = relabel(graph, perm)
            want = _reference_canonical(h.iota, h.gamma, [0] * h.n)
            assert _search(h.iota, h.gamma, [0] * h.n) == want
