"""Ribbon map kernels: canonical forms and the one-partition pairing scan.

A combinatorial map is a pair of permutations (iota, gamma) on darts
0..n-1 with iota a fixed-point-free involution.  The search sees no face
labels: census.labeled_search reads a labeled code off its relabelings.
"""

from __future__ import annotations

BACKEND = "python"


def canonical_data(iota, gamma):
    """Minimal rooted-BFS relabeling over all darts.

    Returns (code, perms): `code` is the pair (gamma', iota') of the
    minimal relabeled map, and `perms` lists every old->new relabeling
    achieving it, in root order (their count is the order of the
    automorphism group; the map acts freely on darts).
    Raises ValueError on a disconnected map.

    The BFS from a root gives new label i to dart order[i], so gamma'[i]
    is known once dart i is visited.  A root is dropped as soon as its
    gamma' prefix exceeds the best code's: its code can be neither smaller
    nor equal.  Roots with an equal or smaller prefix run to the end.
    """
    n = len(iota)
    best_code = None
    best_g = None
    best_perms = []
    for root in range(n):
        perm = [-1] * n
        perm[root] = 0
        order = [root]
        g2 = [0] * n
        tied = best_g is not None
        k = 1
        i = 0
        while i < k:
            d = order[i]
            nb = gamma[d]
            if perm[nb] < 0:
                perm[nb] = k
                k += 1
                order.append(nb)
            nb = iota[d]
            if perm[nb] < 0:
                perm[nb] = k
                k += 1
                order.append(nb)
            g = perm[gamma[d]]
            if tied and g != best_g[i]:
                if g > best_g[i]:
                    break
                tied = False
            g2[i] = g
            i += 1
        else:
            if k < n:
                raise ValueError("disconnected map")
            code = (tuple(g2), tuple([perm[iota[d]] for d in order]))
            if best_code is None or code < best_code:
                best_code = code
                best_g = g2
                best_perms = [tuple(perm)]
            elif code == best_code:
                best_perms.append(tuple(perm))
    return best_code, best_perms


def is_connected(iota, gamma):
    n = len(iota)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    k = 1
    while stack:
        d = stack.pop()
        for nb in (gamma[d], iota[d]):
            if not seen[nb]:
                seen[nb] = True
                k += 1
                stack.append(nb)
    return k == n


def _count_faces(iota, gamma):
    n = len(iota)
    seen = [False] * n
    faces = 0
    for d in range(n):
        if seen[d]:
            continue
        faces += 1
        cur = d
        while not seen[cur]:
            seen[cur] = True
            cur = gamma[iota[cur]]
    return faces


def scan_pairings(valences, want_genus, want_faces):
    """Enumerate iso classes of connected maps with the given vertex valences.

    gamma is fixed with one cycle per valence on consecutive darts; all
    fixed-point-free pairings are scanned and deduplicated by canonical
    form.  Only maps with the requested genus and face count are kept.
    Returns {code: perms of the first search reaching it}, in code order.
    A one-vertex map is connected (gamma is a single cycle), so only
    several valences test connectivity.
    """
    n = sum(valences)
    if n % 2:
        return []
    gamma = [0] * n
    start = 0
    for v in valences:
        for j in range(v):
            gamma[start + j] = start + (j + 1) % v
        start += v
    nvert = len(valences)
    nedge = n // 2
    iota = [-1] * n
    found = {}

    def emit():
        if nvert > 1 and not is_connected(iota, gamma):
            return
        faces = _count_faces(iota, gamma)
        if faces != want_faces or 2 - (nvert - nedge + faces) != 2 * want_genus:
            return
        code, perms = canonical_data(iota, gamma)
        found.setdefault(code, perms)

    def rec(d):
        while d < n and iota[d] >= 0:
            d += 1
        if d == n:
            emit()
            return
        for e in range(d + 1, n):
            if iota[e] < 0:
                iota[d] = e
                iota[e] = d
                rec(d + 1)
                iota[d] = -1
                iota[e] = -1

    rec(0)
    return dict(sorted(found.items()))
