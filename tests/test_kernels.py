import pytest

import nlab.kernels as kernels
from nlab.ribbon.census import iso_classes, partitions


def test_disconnected_maps_rejected():
    # two disjoint loops
    iota = [1, 0, 3, 2]
    gamma = [1, 0, 3, 2]
    with pytest.raises(ValueError):
        kernels.canonical_data(iota, gamma, [0, 0, 0, 0])


def test_canonical_code_shape():
    code, perms = kernels.canonical_data([1, 0], [1, 0], [0, 0])
    g2, i2, l2 = code
    assert len(g2) == len(i2) == len(l2) == 2
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
                [(gamma, iota) for gamma, iota, _ in sorted(scanned)], (g, m, v, k)
